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
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .confidence import _per_q
from .exact import _check_integers, estimate_from_hits
from .model import (PopulationSpec, SampleDesign, SamplingMethod, _check_point, q_error,
                    validate_design)
from .simulate import _block0_generator, _check_seed
from .solver import Unreachable, _validate_target, q_at_confidence


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
    value does not fit in int64), float64 for reals, object for text.

    A predicate atom on column i compares scan[i], which holds the same
    values as data[i] in the narrowest dtype that fits, so it compares
    as data[i] does: a text column's codes, in the smallest unsigned type
    that holds its number of distinct values; a copy of an int64 column in
    the smallest signed or unsigned type that holds its minimum and
    maximum; data[i] itself for a real column, an object-dtype integer
    column and an int64 column that needs int64. An atom compares the
    whole of scan[i], except in an estimate with an assumed selectivity
    and k < n / _GATHER_COST, which compares the k sampled rows alone.
    codes, code_of and scan are derived when the table is built, so data
    must not be changed in place.
    """

    columns: list[str]
    types: list[ColumnType]
    data: list[np.ndarray]
    # text column i -> (codes, distinct) with data[i] == distinct[codes], and -> the
    # dict of each distinct value's code: = and != compare codes, not a string per row
    codes: dict[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False)
    code_of: dict[int, dict[str, int]] = field(default_factory=dict, repr=False, compare=False)
    scan: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scan = [self.codes[i][0] if i in self.codes else _narrow(values)
                     for i, values in enumerate(self.data)]

    @property
    def n(self) -> int:
        return len(self.data[0]) if self.data else 0

    @property
    def m(self) -> int:
        return len(self.columns)


# the integer types an int64 column may scan in, narrowest first
_SCAN_INTS = tuple(map(np.iinfo, (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32)))


def _narrow(values: np.ndarray) -> np.ndarray:
    """A copy of an int64 array in the first of _SCAN_INTS that holds its
    values, else the array itself."""
    if values.dtype == np.int64 and values.size:
        lo, hi = values.min(), values.max()
        for info in _SCAN_INTS:
            if info.min <= lo and hi <= info.max:
                return values.astype(info.dtype)
    return values


@dataclass(frozen=True)
class LoadOptions:
    delimiter: str = ","
    header: bool = True

    def __post_init__(self):
        # `"` opens a quoted cell and a line break ends a record
        if not (isinstance(self.delimiter, str) and len(self.delimiter) == 1) \
                or self.delimiter in '"\r\n':
            raise ValueError("the delimiter must be one character other than '\"', '\\r' "
                             f"and '\\n', got {self.delimiter!r}")


def _infer_column(cells: list[str]) -> tuple[ColumnType, Optional[np.ndarray]]:
    """Integer if every stripped cell is `[+-]?\\d+`, else real if every cell
    is a number, else text (values None). numpy parses as int() and float()
    do, skipping what str.strip() drops but \\x1c-\\x1f; of their grammar only
    `_` goes beyond this rule, so ids like `1_0` stay text."""
    joined = "".join(cells)
    if "_" not in joined:
        if any(sep in joined for sep in "\x1c\x1d\x1e\x1f"):
            cells = [cell.strip() for cell in cells]
        for col_type, parse in ((ColumnType.INTEGER, _integer_array),
                                (ColumnType.REAL, _real_array)):
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
        """np.loadtxt on the (non-blank) file: its records, split as csv.reader
        splits them. numpy warns that blank lines do not count toward max_rows.
        Older numpy reads a cell such as 1.5 in an integer field via float,
        truncated, with a DeprecationWarning; as an error it is a ValueError."""
        with (open(self.path, newline="", encoding="utf-8") if self.from_handle
              else contextlib.nullcontext(self.path)) as source, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Input line", UserWarning)
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(source, dtype=dtype, delimiter=delimiter, comments=None,
                              encoding="utf-8", quotechar='"', **kwargs)


def _columns(path: str, options: LoadOptions, row: Sequence[str], line: int) -> list[str]:
    """Names of the columns of the first non-blank record, which is on line
    `line`: its stripped cells under a header, which must not repeat, else
    col0, col1, ..."""
    columns = ([cell.strip() for cell in row] if options.header
               else [f"col{i}" for i in range(len(row))])
    duplicates = [name for i, name in enumerate(columns) if name in columns[:i]]
    if duplicates:
        raise TableParseError(f"{path}: line {line}: duplicate column name {duplicates[0]!r}")
    return columns


class _Coder(dict):
    """raw cell -> code of its stripped value; a cell not seen before gets
    the next code when it is first looked up, so each cell is hashed once
    and codes follow first appearance."""

    def __init__(self):
        super().__init__()
        self.distinct: dict[str, int] = {}

    def __missing__(self, cell: str) -> int:
        code = self[cell] = self.distinct.setdefault(cell.strip(), len(self.distinct))
        return code


def _table(columns: list[str], types: list[ColumnType], data: list) -> TableData:
    """The table of `data`, which holds an array per numeric column and the raw
    cells of each text column; the text is coded, and equal stripped cells
    share one str object."""
    codes, code_of = {}, {}
    for i, column in enumerate(data):
        if types[i] is ColumnType.TEXT:
            coder = _Coder()
            coded = np.fromiter(map(coder.__getitem__, column), np.intp, len(column))
            distinct = np.array(list(coder.distinct), dtype=object)
            codes[i] = (coded.astype(np.min_scalar_type(len(distinct))), distinct)
            code_of[i] = coder.distinct
            data[i] = distinct[coded]
    return TableData(columns=columns, types=types, data=data, codes=codes, code_of=code_of)


_GUESS_ROWS = 256  # the data rows that guess each column's dtype


def _fault(file: _File, options: LoadOptions, error: ValueError) -> TableParseError:
    """The error of a file numpy refused: bad UTF-8 (raised here), a repeated
    header name or a ragged row, named by csv.reader, else numpy's message."""
    records = list(_records(file.path, options.delimiter))  # bad UTF-8 raises here
    m = len(_columns(file.path, options, records[0][1], records[0][0]))
    no, row = next(((no, row) for no, row in records if len(row) != m), (0, None))
    return TableParseError(f"{file.path}: line {no}: expected {m} fields, got {len(row)}"
                           if row else f"{file.path}: {error}")


def load_table(path: str, options: LoadOptions = LoadOptions()) -> TableData:
    """Load a delimited file, inferring integer / real / text per column.

    Integer promotes to real when mixed; any non-numeric cell (including a
    blank) degrades the column to text. Duplicate header names are errors.

    `_infer_column` guesses each column's type on the first _GUESS_ROWS data
    rows. One np.loadtxt call then splits the file into an int64, float64 or
    object (raw cells) field per column, so numpy parses the numbers while it
    splits. A column is raw cells where numpy cannot follow the rule: text,
    an integer past int64 in the first rows, an integer column in a file
    holding a non-ASCII byte (numpy's integer parser takes some non-ASCII
    characters for digits, and reads `\u0968` as 2360), and a real column
    holding a negative zero, which the split finds and repeats (`_real_array`
    makes the cell `-0` +0.0). numpy refuses, with a ValueError, every later
    cell that breaks the guess; then every column is raw cells.
    `_infer_column` types each raw-cell column on all its cells but one that
    is text in the first rows; `_fault` names why numpy refused the split of
    raw cells.
    """
    file = _File(path)
    first = int(options.header)  # non-blank records before the first data row
    if file.blank:
        raise TableParseError(f"{path}: {'empty file' if options.header else 'no data rows'}")
    try:
        head = file.split(options.delimiter, ndmin=2, max_rows=first + _GUESS_ROWS)
    except ValueError as error:  # bad UTF-8 or a ragged row, which the whole file holds too
        raise _fault(file, options, error) from None
    columns = _columns(path, options, head[0], file.blank_lines + 1)
    if len(head) == first:
        raise TableParseError(f"{path}: no data rows")

    guesses = [_infer_column(head[first:, i].tolist()) for i in range(len(columns))]
    dtypes = [np.float64 if t is ColumnType.REAL else
              np.int64 if t is ColumnType.INTEGER and values.dtype != object and file.ascii
              else object for t, values in guesses]
    # skiprows counts lines, not records: the blank lines before the header and
    # the line breaks inside its quoted cells count too
    skip = file.blank_lines + 1 + len(_LINE_BREAK.findall("".join(head[0]))) if first else 0
    while True:
        try:
            rows = file.split(options.delimiter, skiprows=skip, ndmin=1,
                              dtype=[(str(i), t) for i, t in enumerate(dtypes)])
        except ValueError as error:
            if all(t is object for t in dtypes):
                raise _fault(file, options, error) from None
            dtypes = [object] * len(columns)
            continue
        # copies of the numeric fields, so that no view keeps the split alive
        numbers = {i: np.array(rows[str(i)]) for i, t in enumerate(dtypes) if t is not object}
        zeros = [i for i, values in numbers.items()
                 if values.dtype == np.float64 and np.any((values == 0.0) & np.signbit(values))]
        if not zeros:
            break
        for i in zeros:
            dtypes[i] = object

    types: list[ColumnType] = []
    data: list = []
    for i, (col_type, _) in enumerate(guesses):
        values = numbers.get(i)
        if values is None:  # raw cells, typed by the rule on all of them
            cells = rows[str(i)].tolist()
            if col_type is not ColumnType.TEXT:  # text in the first rows is text
                col_type, values = _infer_column(cells)
            values = cells if col_type is ColumnType.TEXT else values
        types.append(col_type)
        data.append(values)
    del rows  # free the split before the text is coded
    return _table(columns, types, data)


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


# The first alternative that matches at a position wins; a character no
# token starts with is `other`. AND in any casing is a keyword, not a name.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<literal>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|'(?:[^']|'')*')
  | (?P<and>[Aa][Nn][Dd](?![A-Za-z0-9_]))
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# `atom (AND atom)*` as the cycle of token kinds it reads, each with its
# name in an error; the text may end only after a literal
_SLOTS = (("ident", "column name"), ("op", "comparison operator"),
          ("literal", "literal"), ("and", "AND"))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token but whitespace; the first
    character no token matches is an error."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        if match.lastgroup == "other":
            raise PredicateSyntaxError(f"unexpected character {match.group()!r}", match.start())
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), match.start()))
    return tokens


def _literal(raw: str, pos: int) -> Union[int, float, str]:
    """The value of the literal token `raw` at offset `pos`."""
    if raw[0] == "'":
        return raw[1:-1].replace("''", "'")
    digits = raw.lstrip("+-")
    if not digits.isdecimal():
        return float(raw)
    try:
        return int(raw)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise PredicateSyntaxError(
            f"integer literal {raw[:12] + '...'!r} has {len(digits)} digits, more than "
            f"the {sys.get_int_max_str_digits()} that int() reads", pos) from None


def parse_predicate(text: str) -> Predicate:
    """Parse `atom (AND atom)*`. Column existence is checked at binding
    time, not here."""
    if not text or not text.strip():
        raise PredicateSyntaxError("empty predicate", 0)
    tokens = _tokenize(text)
    atoms = []
    for i, (kind, raw, pos) in enumerate(tokens):
        want, what = _SLOTS[i % 4]
        if kind != want:
            got = "AND" if kind == "and" and want == "ident" else raw  # any spelling reads 'AND'
            raise PredicateSyntaxError(f"expected {what}, got {got!r}", pos)
        if kind == "literal":  # converted in order, so the first error in the text is raised
            atoms.append(Atom(column=tokens[i - 2][1], op=tokens[i - 1][1],
                              literal=_literal(raw, pos)))
    if len(tokens) % 4 != 3:
        raise PredicateSyntaxError(f"expected {_SLOTS[len(tokens) % 4][1]}", len(text))
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
    No value is ordered against nan, as no value equals it; numpy's loop
    over Python ints warns where it orders them against nan, so it is
    asked for equality.
    """
    if isinstance(literal, float) and math.isnan(literal) and op not in ("=", "!="):
        return "=", literal
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


def _predicate_mask(table: TableData, compiled, rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Boolean mask, over every row or over `rows` in their order, of the
    rows that satisfy every bound atom; each atom compares table.scan."""
    mask = None
    for index, op, literal in compiled:
        column = table.scan[index] if rows is None else table.scan[index][rows]
        if index in table.codes:  # op is = or !=; len(distinct) codes a literal no row holds
            literal = table.code_of[index].get(literal, len(table.codes[index][1]))
        if mask is None:
            mask = op(column, literal)
        else:
            mask &= op(column, literal)
    if mask is None:
        return np.ones(table.n if rows is None else len(rows), dtype=bool)
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


# Gathering a sampled row from a column costs about what comparing this many
# rows in a whole-column scan does: on a 200,000-row table of narrow columns,
# comparing the k sampled rows of a two- or three-atom predicate is the faster
# path up to about k = n / 12, and a whole scan beyond it
_GATHER_COST = 16


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
    only the estimate is reported, the bounds use the supplied p, and, for
    k < n / _GATHER_COST, the predicate is compared on the sampled rows alone.

    The rows are those of `simulate.block_generator(seed, 0)`, block 0 of
    the simulation's stream, so the seed follows the simulation's rule: an
    integer in [0, 2**64). They are drawn from the calling thread's one
    generator, re-keyed to the state that block 0 starts in
    (`simulate._block0_generator`), as building a new one costs more than
    a small estimate's draw. The sample size must be an integer too, as
    every draw takes one.

    Every argument, each q and the target included, is checked before the
    draw; the bound at each q is then the default inequality set's, equal
    to `evaluate_confidence(design.method, p_used, k, q, n=n)` bit for bit,
    from one set-up of the term kernel (`confidence._per_q`).
    """
    n = table.n
    qs = tuple(qs)  # read more than once below, so an iterator is read here
    _check_integers("to draw a sample", ("sample size", design.k))
    validate_design(PopulationSpec(n=n, cardinality=0), design)
    if not qs and target_confidence is None:
        raise ValueError("need at least one q value or a target confidence")
    if assume_p is not None and not 0.0 <= assume_p <= 1.0:
        raise ValueError(f"assumed selectivity must be in [0, 1], got {assume_p}")
    _check_seed(seed)
    for q in qs:
        _check_point(None, None, None, q)
    if target_confidence is not None:
        _validate_target(target_confidence)

    compiled = bind_predicate(table, predicate)
    rows = sample_indices(n, design, _block0_generator(seed))
    if assume_p is not None and design.k * _GATHER_COST < n:  # no true count is needed
        hits, truth = int(np.count_nonzero(_predicate_mask(table, compiled, rows))), None
    else:
        mask = _predicate_mask(table, compiled)
        hits = int(np.count_nonzero(mask[rows]))
        truth = int(np.count_nonzero(mask)) if assume_p is None else None
    est = estimate_from_hits(n, design.k, hits)
    if truth is None:
        p_used, p_source, realized = assume_p, "assumed", None
    else:
        p_used, p_source, realized = truth / n, "true", q_error(est, truth)

    per_q = tuple(QConfidence(q, *bound)
                  for q, bound in zip(qs, _per_q(design.method, p_used, design.k, qs, n)))
    q_at_target = None
    if target_confidence is not None and p_used > 0.0:
        answer = q_at_confidence(design.method, p_used, design.k, target_confidence, n=n)
        if not isinstance(answer, Unreachable):
            q_at_target = float(answer)
    return EstimateReport(n=n, k=design.k, method=design.method, seed=seed, hits=hits,
                          estimate=est, p_used=p_used, p_source=p_source, per_q=per_q,
                          true_cardinality=truth, realized_q_error=realized,
                          target_confidence=target_confidence, q_at_target=q_at_target)
