"""CSV table loading, a small conjunctive predicate language, row
sampling, and bound-annotated cardinality estimates.

The predicate grammar is deliberately tiny: `atom (AND atom)*` with
atom = `column op literal`, ops =, !=, <, <=, >, >=, integer / real /
single-quoted string literals ('' escapes a quote inside a string), AND
case-insensitive, whitespace insignificant. Text columns support only
= and !=.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import itertools
import math
import operator
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .confidence import evaluate_confidence
from .exact import estimate_from_hits
from .model import PopulationSpec, SampleDesign, SamplingMethod, q_error, validate_design
from .simulate import _check_seed, block_generator
from .solver import Unreachable, q_at_confidence


class TableParseError(ValueError):
    pass


class PredicateSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class BindingError(ValueError):
    pass


class ColumnType(enum.Enum):
    INTEGER = "integer"
    REAL = "real"
    TEXT = "text"


@dataclass
class TableData:
    """Column-oriented table; data[i] is a numpy array holding column i for
    all n rows: int64 for integers (object, holding Python ints, when a
    value does not fit in int64), float64 for reals, object for text."""

    columns: list[str]
    types: list[ColumnType]
    data: list[np.ndarray]
    # text column i -> (codes, distinct) with data[i] == distinct[codes]:
    # = and != compare the integer codes, not one Python string per row
    codes: dict[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.data[0]) if self.data else 0

    @property
    def m(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class LoadOptions:
    delimiter: str = ","
    header: bool = True
    type_hints: Optional[dict[str, ColumnType]] = None

    def __post_init__(self):  # `"` opens a quoted cell and a line break ends a record
        if not (isinstance(self.delimiter, str) and len(self.delimiter) == 1) \
                or self.delimiter in '"\r\n':
            raise ValueError("the delimiter must be one character other than '\"', '\\r' "
                             f"and '\\n', got {self.delimiter!r}")


def _infer_column(cells: list[str], hint: Optional[ColumnType] = None
                  ) -> tuple[ColumnType, Optional[np.ndarray]]:
    """Integer (unless hinted real) if every stripped cell is `[+-]?\\d+`, else
    real if every cell is a number, else text (values None), as is a column
    hinted text. numpy parses as int() and float() do, skipping what
    str.strip() drops but \\x1c-\\x1f; of their grammar only `_` goes beyond
    this rule, so ids like `1_0` stay text."""
    if hint is ColumnType.TEXT:
        return ColumnType.TEXT, None
    joined = "".join(cells)
    if "_" not in joined:
        if any(sep in joined for sep in "\x1c\x1d\x1e\x1f"):
            cells = [cell.strip() for cell in cells]
        for col_type, parse in ((ColumnType.INTEGER, _integer_array),
                                (ColumnType.REAL, _real_array))[hint is ColumnType.REAL:]:
            try:
                return col_type, parse(cells)
            except ValueError:
                pass
    return ColumnType.TEXT, None


def _integer_array(cells: list[str]) -> np.ndarray:
    try:
        return np.array(cells, dtype=np.int64)
    except OverflowError:  # beyond int64: keep exact Python ints
        return np.array([int(cell) for cell in cells], dtype=object)


def _real_array(cells: list[str]) -> np.ndarray:
    values = np.array(cells, dtype=np.float64)
    for j in np.flatnonzero((values == 0.0) & np.signbit(values)):
        if cells[j].strip().lstrip("+-").isdecimal():
            values[j] = 0.0  # an integer cell such as -0 is the integer 0
    return values


def _records(path: str, delimiter: str) -> Iterator[tuple[int, list[str]]]:
    """csv.reader's non-blank records and their line numbers, which count records,
    blank ones included. Only an error reads a file this way, to name its line.
    numpy bounds no cell, so neither does the reader here: the process-wide
    csv.field_size_limit() is lifted while it reads, and restored when the
    records end, raise or are closed."""
    limit = csv.field_size_limit(2**31 - 1)  # the largest a C long takes everywhere
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            numbers = itertools.count(1)
            try:
                yield from ((no, row) for row, no
                            in zip(csv.reader(handle, delimiter=delimiter), numbers) if row)
            except csv.Error as error:
                raise TableParseError(f"{path}: line {next(numbers)}: {error}") from None
    finally:
        csv.field_size_limit(limit)


def _line_no(path: str, delimiter: str, index: int) -> int:
    """Line number of the index-th non-blank record."""
    with contextlib.closing(_records(path, delimiter)) as records:
        return next(itertools.islice(records, index, None))[0]


_LINE_BREAK = re.compile(r"\r\n|\r|\n")


class _File:
    """What one read of a file's bytes tells the loader before numpy splits it."""

    def __init__(self, path: str):
        with open(path, "rb") as handle:
            raw = handle.read()
        lead = re.match(rb"[\r\n]*", raw).group()
        self.path = path
        self.blank = len(lead) == len(raw)
        self.blank_lines = len(_LINE_BREAK.findall(lead.decode()))  # before the first record
        # from a path numpy turns a quoted \r into \n, so such a file is read from a handle
        self.from_handle = b'"' in raw and b"\r" in raw
        self.ascii = raw.isascii()

    def split(self, delimiter: str, dtype=object, **kwargs) -> np.ndarray:
        """np.loadtxt on the file: its records, split as csv.reader splits them."""
        with (open(self.path, newline="", encoding="utf-8") if self.from_handle
              else contextlib.nullcontext(self.path)) as source:
            return np.loadtxt(source, dtype=dtype, delimiter=delimiter, comments=None,
                              encoding="utf-8", quotechar='"', **kwargs)


def _cells(file: _File, delimiter: str, max_rows: Optional[int] = None) -> np.ndarray:
    """The raw cells of the first max_rows (by default all) non-blank records in a
    2-d object array (0 x 0 for a blank file, on which numpy warns)."""
    if file.blank:
        return np.empty((0, 0), dtype=object)
    return file.split(delimiter, ndmin=2, max_rows=max_rows)


def _columns(path: str, options: LoadOptions, row: Sequence[str]) -> list[str]:
    """Names of the columns of the first non-blank record: its stripped cells
    under a header, which must not repeat, else col0, col1, ..."""
    columns = ([cell.strip() for cell in row] if options.header
               else [f"col{i}" for i in range(len(row))])
    duplicates = [name for i, name in enumerate(columns) if name in columns[:i]]
    if duplicates:
        raise TableParseError(f"{path}: line {_line_no(path, options.delimiter, 0)}: "
                              f"duplicate column name {duplicates[0]!r}")
    return columns


def _table(columns: list[str], types: list[ColumnType], data: list) -> TableData:
    """The table of `data`, which holds an array per numeric column and the raw
    cells of each text column; the text is coded, and equal stripped cells
    share one str object."""
    codes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i, column in enumerate(data):
        if types[i] is ColumnType.TEXT:
            distinct: dict[str, int] = {}
            raw = {cell: distinct.setdefault(cell.strip(), len(distinct))
                   for cell in dict.fromkeys(column)}
            codes[i] = (np.fromiter(map(raw.__getitem__, column), np.intp, len(column)),
                        np.array(list(distinct), dtype=object))
            data[i] = codes[i][1][codes[i][0]]
    return TableData(columns=columns, types=types, data=data, codes=codes)


_GUESS_ROWS = 256  # the data rows that guess the column types of the typed load
_DTYPES = {ColumnType.INTEGER: np.int64, ColumnType.REAL: np.float64, ColumnType.TEXT: object}


def _typed_table(file: _File, options: LoadOptions) -> Optional[TableData]:
    """The table from one np.loadtxt call that parses the numbers while it
    splits the file. Each column's type is what `_infer_column` and the hints
    give on the header and the first _GUESS_ROWS data rows.

    numpy refuses, with a ValueError, every later cell that `_text_table`
    reads otherwise, but in two cases, which return None, as first rows that
    break a hint or hold an integer past int64 do: an integer column in a
    file holding a non-ASCII byte (numpy's integer parser takes some
    non-ASCII characters for digits, and reads `\u0968` as 2360), and a
    negative zero in a real column (`_real_array` makes the cell `-0` +0.0).
    skiprows counts lines, not records: the blank lines before the header
    and the line breaks inside its quoted cells count too."""
    first = int(options.header)
    with warnings.catch_warnings():  # numpy warns that blank lines do not count as rows
        warnings.filterwarnings("ignore", "Input line", UserWarning)
        head = _cells(file, options.delimiter, max_rows=first + _GUESS_ROWS)
    if len(head) <= first:
        return None
    columns = _columns(file.path, options, head[0])
    hints = options.type_hints or {}
    types = []
    for i, name in enumerate(columns):
        hint = hints.get(name)
        col_type, values = _infer_column(head[first:, i].tolist(), hint)
        if col_type is ColumnType.TEXT and hint in (ColumnType.INTEGER, ColumnType.REAL) or (
                values is not None and values.dtype == object):
            return None
        types.append(col_type)
    if ColumnType.INTEGER in types and not file.ascii:
        return None
    skip = file.blank_lines + 1 + len(_LINE_BREAK.findall("".join(head[0]))) if first else 0
    with warnings.catch_warnings():  # older numpy reads a cell such as 1.5 in an integer
        # field via float, truncated, with a DeprecationWarning; as an error it is a ValueError
        warnings.simplefilter("error", DeprecationWarning)
        rows = file.split(options.delimiter, skiprows=skip, ndmin=1,
                          dtype=[(str(i), _DTYPES[t]) for i, t in enumerate(types)])
    data = [rows[str(i)].tolist() if t is ColumnType.TEXT else np.array(rows[str(i)])
            for i, t in enumerate(types)]
    del rows  # free the split before the text is coded
    if any(t is ColumnType.REAL and np.any((column == 0.0) & np.signbit(column))
           for t, column in zip(types, data)):
        return None
    return _table(columns, types, data)


def _text_table(file: _File, options: LoadOptions) -> TableData:
    """The table from the raw cells of the file, each column's type and values
    from `_infer_column` on all its cells: the loader's rule, and its path
    where the typed load cannot follow that rule."""
    try:
        cells = _cells(file, options.delimiter)  # a blank line is not a data row
    except ValueError as error:  # numpy refused the file: bad UTF-8 or a ragged row
        records = list(_records(file.path, options.delimiter))  # bad UTF-8 raises here
        m = len(_columns(file.path, options, records[0][1]))
        no, row = next(((no, row) for no, row in records if len(row) != m), (0, None))
        raise TableParseError(f"{file.path}: line {no}: expected {m} fields, got {len(row)}"
                              if row else f"{file.path}: {error}") from None
    first = int(options.header)  # non-blank records before the first data row
    if not len(cells):
        raise TableParseError(f"{file.path}: {'empty file' if options.header else 'no data rows'}")
    columns = _columns(file.path, options, cells[0])
    if len(cells) == first:
        raise TableParseError(f"{file.path}: no data rows")

    hints = options.type_hints or {}
    types: list[ColumnType] = []
    data: list = []
    for i, name in enumerate(columns):
        column = cells[first:, i].tolist()
        hint = hints.get(name)
        col_type, values = _infer_column(column, hint)
        if col_type is ColumnType.TEXT and hint in (ColumnType.INTEGER, ColumnType.REAL):
            bad = next(j for j, cell in enumerate(column)
                       if _infer_column([cell])[0] is ColumnType.TEXT)
            raise TableParseError(
                f"{file.path}: line {_line_no(file.path, options.delimiter, first + bad)}: "
                f"column {name!r} is hinted {hint.value} but holds a non-numeric cell")
        types.append(col_type)
        data.append(column if col_type is ColumnType.TEXT else values)
    return _table(columns, types, data)


def load_table(path: str, options: LoadOptions = LoadOptions()) -> TableData:
    """Load a delimited file, inferring integer / real / text per column.

    Integer promotes to real when mixed; any non-numeric cell (including a
    blank) degrades the column to text, unless a numeric type hint turns
    that into a parse error instead. Duplicate header names are an error.

    numpy parses the numbers while it splits the file (`_typed_table`);
    where it cannot follow this rule, the file is read as text cells
    (`_text_table`), which also names any fault.
    """
    file = _File(path)
    try:
        table = _typed_table(file, options)
    except ValueError:  # numpy refused a cell or the file, or the header repeats a name
        table = None
    return _text_table(file, options) if table is None else table


# Predicate language ---------------------------------------------------------

_OPS: dict[str, Callable] = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
                             "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_TEXT_OPS = frozenset({"=", "!="})


@dataclass(frozen=True)
class Atom:
    column: str
    op: str
    literal: Union[int, float, str]


@dataclass(frozen=True)
class Predicate:
    atoms: tuple[Atom, ...]


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<string>'(?:[^']|'')*')
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise PredicateSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    return tokens


def parse_predicate(text: str) -> Predicate:
    """Parse `atom (AND atom)*`. Column existence is checked at binding
    time, not here."""
    if not text or not text.strip():
        raise PredicateSyntaxError("empty predicate", 0)
    tokens = _tokenize(text)
    atoms = []
    i = 0
    end = len(text)

    def expect(kind: str, what: str) -> tuple[str, str, int]:
        nonlocal i
        if i >= len(tokens):
            raise PredicateSyntaxError(f"expected {what}", end)
        token = tokens[i]
        if token[0] != kind:
            raise PredicateSyntaxError(f"expected {what}, got {token[1]!r}", token[2])
        i += 1
        return token

    while True:
        _, column, col_pos = expect("ident", "column name")
        if column.upper() == "AND":
            raise PredicateSyntaxError("expected column name, got 'AND'", col_pos)
        _, op, _ = expect("op", "comparison operator")
        if i >= len(tokens):
            raise PredicateSyntaxError("expected literal", end)
        kind, raw, pos = tokens[i]
        i += 1
        if kind == "number":
            literal = int(raw) if raw.lstrip("+-").isdecimal() else float(raw)
        elif kind == "string":
            literal = raw[1:-1].replace("''", "'")
        else:
            raise PredicateSyntaxError(f"expected literal, got {raw!r}", pos)
        atoms.append(Atom(column=column, op=op, literal=literal))
        if i >= len(tokens):
            break
        kind, raw, pos = tokens[i]
        if kind != "ident" or raw.upper() != "AND":
            raise PredicateSyntaxError(f"expected AND, got {raw!r}", pos)
        i += 1
    return Predicate(atoms=tuple(atoms))


def bind_predicate(
    table: TableData, predicate: Predicate
) -> list[tuple[int, Callable, Union[int, float, str]]]:
    """Resolve column names and check literal/column type compatibility.
    Each atom becomes (column index, operator function, literal), which
    applies to the whole column array at once."""
    compiled = []
    for atom in predicate.atoms:
        try:
            index = table.columns.index(atom.column)
        except ValueError:
            raise BindingError(f"unknown column {atom.column!r}") from None
        col_type = table.types[index]
        if col_type is ColumnType.TEXT:
            if not isinstance(atom.literal, str):
                raise BindingError(
                    f"column {atom.column!r} is text but literal {atom.literal!r} is numeric"
                )
            if atom.op not in _TEXT_OPS:
                raise BindingError(
                    f"text column {atom.column!r} supports only = and !=, got {atom.op!r}"
                )
            op, literal = atom.op, atom.literal
        else:
            if isinstance(atom.literal, str):
                raise BindingError(
                    f"column {atom.column!r} is numeric but literal {atom.literal!r} is text"
                )
            op, literal = _exact_operand(col_type, atom.op, atom.literal)
        compiled.append((index, _OPS[op], literal))
    return compiled


def _exact_operand(
    col_type: ColumnType, op: str, literal: Union[int, float]
) -> tuple[str, Union[int, float]]:
    """An (op, literal) that numpy evaluates on a whole column exactly as
    Python compares each value with the literal.

    numpy compares int64 with a float, and float64 with an int, in float64,
    which rounds integers beyond 2**53. So a literal the column type cannot
    hold is replaced by its neighbours lo < literal < hi in that type.
    """
    if col_type is ColumnType.INTEGER and isinstance(literal, float) and math.isfinite(literal):
        lo, hi = math.floor(literal), math.ceil(literal)
    elif col_type is ColumnType.REAL and isinstance(literal, int):
        try:
            near = float(literal)
        except OverflowError:
            near = math.inf if literal > 0 else -math.inf
        lo = near if near <= literal else math.nextafter(near, -math.inf)
        hi = near if near >= literal else math.nextafter(near, math.inf)
    else:
        return op, literal  # numpy compares these exactly, inf and nan included
    if lo == hi:
        return op, lo
    if op in ("<", "<="):
        return "<=", lo
    if op in (">", ">="):
        return ">=", hi
    return op, math.nan  # no value equals the literal, as no value equals nan


def _predicate_mask(table: TableData, compiled) -> np.ndarray:
    """Boolean mask of the rows that satisfy every bound atom."""
    mask = np.ones(table.n, dtype=bool)
    for index, op, literal in compiled:
        column = table.data[index]
        if index in table.codes:  # op is = or !=; -1 codes a literal no row holds
            column, distinct = table.codes[index]
            literal = next(iter(np.flatnonzero(distinct == literal)), -1)
        mask &= op(column, literal)
    return mask


def true_cardinality(table: TableData, predicate: Predicate) -> int:
    """Exact predicate cardinality by full scan."""
    return int(np.count_nonzero(_predicate_mask(table, bind_predicate(table, predicate))))


def sample_indices(n: int, design: SampleDesign, rng: np.random.Generator) -> np.ndarray:
    """Row indices per the design, drawn from `rng`: with replacement k
    independent uniform draws from range(n); without, a uniformly random
    k-subset of range(n) in random order, from numpy's `Generator.choice`
    (Floyd's algorithm for k <= n/50, a partial shuffle otherwise)."""
    k = design.k
    if design.method is SamplingMethod.WITH_REPLACEMENT:
        return rng.integers(0, n, size=k)
    return rng.choice(n, k, replace=False)


@dataclass(frozen=True)
class QConfidence:
    q: float
    confidence: float
    omega: float
    psi: float
    degenerate: bool


@dataclass(frozen=True)
class EstimateReport:
    n: int
    k: int
    method: SamplingMethod
    seed: int
    hits: int
    estimate: float
    p_used: float
    p_source: str
    per_q: tuple[QConfidence, ...]
    true_cardinality: Optional[int] = None
    realized_q_error: Optional[float] = None
    target_confidence: Optional[float] = None
    q_at_target: Optional[float] = None  # None also when unreachable


def estimate_with_bounds(
    table: TableData,
    predicate: Predicate,
    design: SampleDesign,
    qs: Sequence[float] = (2.0,),
    seed: int = 0,
    assume_p: Optional[float] = None,
    target_confidence: Optional[float] = None,
) -> EstimateReport:
    """Draw one sample, scale the hit count up to the table, and attach
    the a-priori confidence of each requested q (plus, if asked, the
    smallest q guaranteed at target_confidence for this sample size).

    By default the bound columns use the true selectivity from a full
    scan (the bounds assume the ground truth is known) and the realized
    Q-error is reported. Passing assume_p suppresses the ground truth:
    only the estimate is reported and the bounds use the supplied p.

    The rows come from `simulate.block_generator(seed, 0)`, so the seed
    follows the simulation's rule: an integer in [0, 2**64).
    """
    n = table.n
    validate_design(PopulationSpec(n=n, cardinality=0), design)
    if not qs and target_confidence is None:
        raise ValueError("need at least one q value or a target confidence")
    if assume_p is not None and not 0.0 <= assume_p <= 1.0:
        raise ValueError(f"assumed selectivity must be in [0, 1], got {assume_p}")
    _check_seed(seed)

    mask = _predicate_mask(table, bind_predicate(table, predicate))
    rng = block_generator(seed, 0)
    hits = int(np.count_nonzero(mask[sample_indices(n, design, rng)]))
    est = estimate_from_hits(n, design.k, hits)

    if assume_p is None:
        truth = int(np.count_nonzero(mask))
        p_used = truth / n
        p_source = "true"
        realized = q_error(est, truth)
    else:
        truth = None
        p_used = assume_p
        p_source = "assumed"
        realized = None

    per_q = []
    for q in qs:
        result = evaluate_confidence(design.method, p_used, design.k, q, n=n)
        per_q.append(QConfidence(q, result.confidence, result.omega, result.psi,
                                 result.degenerate))
    q_at_target = None
    if target_confidence is not None and p_used > 0.0:
        answer = q_at_confidence(design.method, p_used, design.k, target_confidence, n=n)
        if not isinstance(answer, Unreachable):
            q_at_target = float(answer)
    return EstimateReport(n=n, k=design.k, method=design.method, seed=seed, hits=hits,
                          estimate=est, p_used=p_used, p_source=p_source, per_q=tuple(per_q),
                          true_cardinality=truth, realized_q_error=realized,
                          target_confidence=target_confidence, q_at_target=q_at_target)
