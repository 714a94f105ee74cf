import csv
import math
import operator
import os
import re
import sys
import tempfile
import threading
import warnings

import numpy as np
import oracles
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbounds import (
    ColumnType,
    LoadOptions,
    PopulationSpec,
    SampleDesign,
    SamplingMethod,
    SimulationConfig,
    TableData,
    estimate_with_bounds,
    evaluate_confidence,
    load_table,
    parse_predicate,
    true_cardinality,
)
from qbounds.exact import hypergeom_logpmf
from qbounds.ingest import (
    Atom,
    BindingError,
    Predicate,
    PredicateSyntaxError,
    TableParseError,
    bind_predicate,
    sample_indices,
)
from qbounds import ingest
from qbounds.simulate import _generator, block_generator

WR = SamplingMethod.WITH_REPLACEMENT
WOR = SamplingMethod.WITHOUT_REPLACEMENT


def _write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture(autouse=True)
def _field_size_limit_kept():
    # load_table lifts csv.field_size_limit() only while it names an error's
    # line; every load_table call in a test, returning or raising, restores it
    limit = csv.field_size_limit()
    yield
    assert csv.field_size_limit() == limit


# Loading ---------------------------------------------------------------------

def test_load_table_basic(tmp_path):
    path = _write(tmp_path, "a,b\n1,x\n2,y\n3,z\n")
    table = load_table(path)
    assert table.n == 3 and table.m == 2
    assert table.columns == ["a", "b"]
    assert table.types == [ColumnType.INTEGER, ColumnType.TEXT]
    assert table.data[0].tolist() == [1, 2, 3]


def test_load_table_ragged_row_names_line(tmp_path):
    path = _write(tmp_path, "a,b\n1,x\n2\n")
    with pytest.raises(TableParseError, match="line 3"):
        load_table(path)


def test_load_table_ragged_row_after_quoted_line_break_names_line(tmp_path):
    # the line counts records, blank ones included, as every load error's
    # does: the quoted line break in record 2 starts no new line
    path = _write(tmp_path, 'a,b\n1,"x\ny"\n\n2\n')
    message = f"{path}: line 4: expected 2 fields, got 1"
    with pytest.raises(TableParseError, match="^" + re.escape(message) + "$"):
        load_table(path)


def test_load_table_long_quoted_cell_loads_as_its_quote_free_form(tmp_path):
    # csv.field_size_limit() (131,072 characters by default) bounds no cell
    limit = csv.field_size_limit()
    long = "x" * 200_000
    quoted = load_table(_write(tmp_path, f'a,b\n1,"{long}"\n2,y\n', name="q.csv"))
    plain = load_table(_write(tmp_path, f"a,b\n1,{long}\n2,y\n", name="p.csv"))
    assert quoted.columns == plain.columns and quoted.types == plain.types
    assert [a.tolist() for a in quoted.data] == [a.tolist() for a in plain.data]
    assert quoted.data[1].tolist() == [long, "y"]
    assert csv.field_size_limit() == limit


def test_load_table_error_after_long_quoted_cell_names_the_fault(tmp_path):
    # csv.reader, which names an error's line, reads past a cell over its
    # limit as numpy does, and the process-wide limit is restored after
    limit = csv.field_size_limit()
    path = _write(tmp_path, 'a,b\n1,"' + "x" * 200_000 + '"\n\n2\n')
    message = f"{path}: line 4: expected 2 fields, got 1"
    with pytest.raises(TableParseError, match="^" + re.escape(message) + "$"):
        load_table(path)
    assert csv.field_size_limit() == limit


def test_load_table_empty_file(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(TableParseError):
        load_table(path)
    header_only = _write(tmp_path, "a,b\n", name="h.csv")
    with pytest.raises(TableParseError):
        load_table(header_only)


def test_load_table_type_inference(tmp_path):
    path = _write(tmp_path, "i,r,m,t\n1,1.5,2,x\n2,2,3.5,7\n")
    table = load_table(path)
    assert table.types == [ColumnType.INTEGER, ColumnType.REAL, ColumnType.REAL,
                           ColumnType.TEXT]
    assert table.data[2].tolist() == [2.0, 3.5]
    assert table.data[3].tolist() == ["x", "7"]


def test_load_table_blank_cell_degrades_to_text(tmp_path):
    path = _write(tmp_path, "a,b\n1,x\n,y\n3,z\n")
    table = load_table(path)
    assert table.types == [ColumnType.TEXT, ColumnType.TEXT]
    assert table.data[0].tolist() == ["1", "", "3"]


def test_load_table_no_header_and_delimiter(tmp_path):
    path = _write(tmp_path, "1;2\n3;4\n")
    table = load_table(path, LoadOptions(delimiter=";", header=False))
    assert table.columns == ["col0", "col1"]
    assert table.n == 2
    assert table.types == [ColumnType.INTEGER, ColumnType.INTEGER]


def test_load_table_rejects_duplicate_header(tmp_path):
    path = _write(tmp_path, "\na,b, a\n1,2,3\n")
    with pytest.raises(TableParseError, match="line 2: duplicate column name 'a'"):
        load_table(path)
    # without a header the generated names never clash
    assert load_table(path, LoadOptions(header=False)).columns == ["col0", "col1", "col2"]


def test_load_table_integer_beyond_int64(tmp_path):
    path = _write(tmp_path, f"a,b\n{2**63},1\n{-2**70},2\n5,9223372036854775807\n")
    table = load_table(path)
    assert table.types == [ColumnType.INTEGER, ColumnType.INTEGER]
    assert table.data[0].dtype == object and table.data[1].dtype == np.int64
    assert table.data[0].tolist() == [2**63, -2**70, 5]
    assert table.data[1].tolist() == [1, 2, 2**63 - 1]


def test_load_table_integer_cells_of_a_real_column(tmp_path):
    # an integer cell is converted as the integer it is: -0 is +0.0
    path = _write(tmp_path, f"a,b\n-0,-0\n-0.0,1\n{2**53 + 1},2.5\n")
    table = load_table(path)
    assert table.types == [ColumnType.REAL, ColumnType.REAL]
    assert list(map(repr, table.data[0].tolist())) == ["0.0", "-0.0", repr(float(2**53 + 1))]
    assert list(map(repr, table.data[1].tolist())) == ["0.0", "1.0", "2.5"]


_I, _R, _O = np.dtype(np.int64), np.dtype(np.float64), np.dtype(object)


@pytest.mark.parametrize("last, splits, types, values", [
    (None, [[_I, _R, _O]], ["integer", "real", "text"], [511, 127.75, "t0"]),
    ("1.5,2,x", [[_I, _R, _O], [_O, _O, _O]], ["real", "real", "text"], [1.5, 2.0, "x"]),
    ("x,2,y", [[_I, _R, _O], [_O, _O, _O]], ["text", "real", "text"], ["x", 2.0, "y"]),
    (f"{2**63},2,y", [[_I, _R, _O], [_O, _O, _O]], ["integer", "real", "text"],
     [2**63, 2.0, "y"]),
    ("1,-0,y", [[_I, _R, _O], [_I, _O, _O]], ["integer", "real", "text"], [1, 0.0, "y"]),
    ("\u0968,2,y", [[_O, _R, _O]], ["integer", "real", "text"], [2, 2.0, "y"]),
])
def test_load_table_splits_as_raw_cells_only_what_numpy_cannot_parse(tmp_path, monkeypatch, last,
                                                                     splits, types, values):
    # after the head, one split parses a clean table's numbers; an integer
    # column of a non-ASCII file is raw cells from the start, a real column
    # holding -0 is split again as raw cells, and a later cell numpy refuses
    # splits every column as raw cells
    dtypes = []
    loadtxt = np.loadtxt

    def recording_loadtxt(source, dtype, **kwargs):
        dtypes.append(np.dtype(dtype))
        return loadtxt(source, dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
    rows = "".join(f"{i},{i / 4},t{i % 7}\n" for i in range(2 * ingest._GUESS_ROWS))
    table = load_table(_write(tmp_path, "i,r,t\n" + rows + (f"{last}\n" if last else "")))
    assert dtypes[0] == _O  # the header and the rows that guess the dtypes
    assert [[dtype[name] for name in dtype.names] for dtype in dtypes[1:]] == splits
    assert [t.value for t in table.types] == types
    assert [a.dtype for a in table.data] == [_O if isinstance(v, int) and v >= 2**63 else
                                            _I if isinstance(v, int) else
                                            _R if isinstance(v, float) else _O for v in values]
    assert all(a.flags.c_contiguous for a in table.data)
    assert [repr(a.tolist()[-1]) for a in table.data] == list(map(repr, values))


def test_load_table_turns_a_deprecated_integer_parse_into_the_fallback(tmp_path, monkeypatch):
    # older numpy reads `1.5` in an integer field via float, truncated to 1,
    # and warns with a DeprecationWarning; as an error, its loader raises a
    # ValueError from it, which splits every column as raw cells
    loadtxt = np.loadtxt

    def older_loadtxt(source, dtype=object, **kwargs):
        if not isinstance(dtype, list) or all(t is not np.int64 for _, t in dtype):
            return loadtxt(source, dtype=dtype, **kwargs)
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
        except DeprecationWarning as warning:
            raise ValueError("could not convert string '1.5' to int64") from warning
        floats = [(name, np.float64 if t is np.int64 else t) for name, t in dtype]
        return loadtxt(source, dtype=floats, **kwargs).astype(dtype)

    monkeypatch.setattr(np, "loadtxt", older_loadtxt)
    rows = "".join(f"{i},t{i % 7}\n" for i in range(ingest._GUESS_ROWS))
    table = load_table(_write(tmp_path, "i,t\n" + rows + "1.5,x\n"))
    assert table.types == [ColumnType.REAL, ColumnType.TEXT]
    assert table.data[0].tolist()[-1] == 1.5


_INT_CELLS = st.one_of(
    st.integers(-10**25, 10**25).map(str),
    st.integers(0, 10**25).map(lambda v: f"+{v}"),
    st.sampled_from(["-0", "+0", "007", "\u0661\u0662", "-\u0663", "\uff11\uff12"]),
)
_REAL_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "NaN", "Infinity", "1e500", "-1e500", "1.",
                     ".5", "1e5", "\u0661.\u0665", "+1.5e-3"]),
)
_OTHER_CELLS = st.one_of(
    st.sampled_from(["", " ", "1_0", "1_000.5", "0x10", "+-1", "--1", "1 2", "it's",
                     "''", "'quoted'", "a,b", 'say "hi"', "tag_0001", "x\ny"]),
    st.text(alphabet="0123456789+-._eE '", max_size=6),
)


# cells that break the typed load's guess of a column's type or value when
# they come after the rows it guesses on: a real, a blank, `_`, an integer
# past int64, -0 in a real column, Unicode digits (numpy's integer parser
# reads \u0968 as 2360) and \x1c/\x1f padding
_LATE_CELLS = st.sampled_from(["1.5", "", "1_0", "1_0.5", str(2**63), "-0", "\u0663",
                               "\u0968", "\u2460", "\x1c5", "5\x1f"])


def _long(cells: list, last):
    """The cells repeated over the rows the typed load guesses on, then `last`."""
    return [cells[j % len(cells)] for j in range(ingest._GUESS_ROWS)] + [last]


@st.composite
def _columns(draw):
    n = draw(st.integers(1, 12))
    flavours = [
        _INT_CELLS,
        st.one_of(_INT_CELLS, _REAL_CELLS),
        st.one_of(_INT_CELLS, _REAL_CELLS, _OTHER_CELLS),
    ]
    m = draw(st.integers(1, 3))
    columns = [draw(st.lists(draw(st.sampled_from(flavours)), min_size=n, max_size=n))
               for _ in range(m)]
    if draw(st.integers(0, 3)) == 0:  # a long column whose last row may break the guess
        columns = [_long(column, draw(st.one_of(_LATE_CELLS, _INT_CELLS, _REAL_CELLS)))
                   for column in columns]
    padding = draw(st.sampled_from(["", " ", "\t"]))
    return [[padding + cell + padding for cell in column] for column in columns]


@given(_columns())
@settings(max_examples=300, deadline=None)
def test_load_table_matches_cell_by_cell_reference(columns):
    """The vectorized loader gives the types and values (sign of zero and nan
    included) of the original per-cell parser on columns of signed,
    `_`-separated, Unicode-digit, non-finite, blank, quoted and mixed cells,
    also where a cell past the rows the typed load guesses on breaks its
    guess."""
    names = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(names)
            writer.writerows(zip(*columns))
        expected = [oracles.reference_column([c.strip() for c in column]) for column in columns]
        table = load_table(path)
    for (kind, values), col_type, array in zip(expected, table.types, table.data):
        assert col_type.value == kind
        assert list(map(repr, array.tolist())) == list(map(repr, values))
        if kind == "integer":
            fits = all(-2**63 <= v < 2**63 for v in values)
            assert array.dtype == (np.int64 if fits else object)
        else:
            assert array.dtype == (np.float64 if kind == "real" else object)


_DELIMITERS = [",", ";", "\t", " ", "|"]
# cell text for quote-free files: padding the loader strips, NUL, the
# separators \x1c-\x1f that int() does not skip, and `#`, which numpy's
# tokenizer would read as a comment unless told not to
_TOKENIZER_CELLS = st.one_of(
    st.sampled_from(["1", "-0", "+3", "007", "1.5", "-0.0", "nan", "inf", "1e5", "1_0",
                     "x", "it's", "", "#", "#1", "1#", "\u0661"]),
    st.text(alphabet="0123456789+-.eEx_'# \t\x00\x0b\x1c\x1f\u3000", max_size=4),
)
# every character str.strip() removes that is not a line break: numeric
# cells are parsed unstripped, so numpy must skip each of them (but
# \x1c-\x1f, which int() does not skip either) as str.strip() does
_WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1))
                      if c.isspace() and c not in "\r\n")
_PADDING = st.text(alphabet=_WHITESPACE, max_size=2)
_PADDED_FILE = "i,r,t\n" + "".join(f"{c}1{c},{c}1.5{c},{c}x{c}\n" for c in _WHITESPACE
                                   if c not in "\x1c\x1d\x1e\x1f")


@st.composite
def _delimited_files(draw):
    """(text, delimiter, header) of a file drawn line by line: rows of
    padded cells over a few column flavours, sometimes a ragged row, blank
    and whitespace-only lines, `\n`, `\r\n` and `\r` endings; in a quoted
    file some cells are RFC 4180 quoted and may hold the delimiter, a line
    break (`\n`, `\r\n` or a lone `\r`) or a doubled quote. A long file
    repeats its data lines over the rows the typed load guesses on, then
    ends in a row that may break the guess or be ragged."""
    delimiter = draw(st.sampled_from(_DELIMITERS))
    header = draw(st.booleans())
    quoted = draw(st.booleans())
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, 6))
    flavours = [_INT_CELLS, st.one_of(_INT_CELLS, _REAL_CELLS), _TOKENIZER_CELLS]
    columns = [draw(st.sampled_from(flavours)) for _ in range(m)]
    names = (draw(st.lists(st.sampled_from(["a", "b", " a", "c0", ""]), min_size=m, max_size=m))
             if draw(st.booleans()) else [f"c{i}" for i in range(m)])
    rows = [names] if header else []
    rows += [[draw(_PADDING) + draw(column) + draw(_PADDING) for column in columns]
             for _ in range(n)]
    if draw(st.integers(0, 3)):  # most files hold the delimiter only between cells
        rows = [[cell.replace(delimiter, "") for cell in row] for row in rows]
    if rows and draw(st.integers(0, 4)) == 0:  # a ragged row
        j = draw(st.integers(0, len(rows) - 1))
        rows[j] = rows[j][:-1] if draw(st.booleans()) else rows[j] + ["9"]

    def cell_text(cell):
        if quoted and draw(st.integers(0, 2)) == 0:
            inside = cell + draw(st.sampled_from(["", delimiter, "\r\n", "\n", "\r", '"']))
            return '"' + inside.replace('"', '""') + '"'
        return cell

    lines = [delimiter.join(map(cell_text, row)) for row in rows]
    if n and draw(st.integers(0, 3)) == 0:  # a long file whose last row may break the guess
        last = [draw(st.one_of(_LATE_CELLS, column)) for column in columns]
        if draw(st.integers(0, 4)) == 0:  # ragged
            last = last[:-1] if draw(st.booleans()) else last + ["9"]
        lines = lines[:header] + _long(lines[header:], delimiter.join(map(cell_text, last)))
    for _ in range(draw(st.integers(0, 2))):  # blank and whitespace-only lines
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "", " ", "\t"])))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, delimiter, header


@given(_delimited_files())
@example((_PADDED_FILE, ",", True))
@example((_PADDED_FILE.replace("x", '"x"'), ",", True))
@example(('i,t\r\n1,"a\rb"\r\n2,"c\r\nd"\r\n3,e\r\n', ",", True))
@settings(max_examples=400, deadline=None)
def test_load_table_matches_csv_reader_reference(spec):
    """Quote-free files and quoted ones, read from the path or, when they
    hold `"` and `\\r`, from a newline="" handle, load to the types, values,
    dtypes, codes and TableParseError text of the original csv.reader
    loader, for every delimiter and both header settings."""
    text, delimiter, header = spec
    options = LoadOptions(delimiter=delimiter, header=header)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        try:
            names, expected = oracles.reference_table(path, delimiter, header)
        except ValueError as exc:
            with pytest.raises(TableParseError) as info:
                load_table(path, options)
            assert str(info.value) == f"{path}: {exc}"
            return
        table = load_table(path, options)
    assert table.columns == names
    for i, ((kind, values), col_type, array) in enumerate(zip(expected, table.types, table.data)):
        assert col_type.value == kind
        assert list(map(repr, array.tolist())) == list(map(repr, values))
        if kind == "integer":
            assert array.dtype == (np.int64 if all(-2**63 <= v < 2**63 for v in values)
                                   else object)
        else:
            assert array.dtype == (np.float64 if kind == "real" else object)
        if kind == "text":
            distinct = list(dict.fromkeys(values))
            assert table.codes[i][1].tolist() == distinct
            assert table.codes[i][0].tolist() == [distinct.index(v) for v in values]
        else:
            assert i not in table.codes


# Predicate language ----------------------------------------------------------

def test_parse_predicate_conjunction():
    pred = parse_predicate("age >= 30 AND city = 'NYC'")
    assert len(pred.atoms) == 2
    assert pred.atoms[0].column == "age" and pred.atoms[0].op == ">="
    assert pred.atoms[0].literal == 30
    assert pred.atoms[1].literal == "NYC"


def test_parse_predicate_case_and_whitespace():
    pred = parse_predicate("a=1 and b!=2.5 AnD c<'it''s'")
    assert [atom.op for atom in pred.atoms] == ["=", "!=", "<"]
    assert pred.atoms[1].literal == 2.5
    assert pred.atoms[2].literal == "it's"


def test_parse_predicate_or_unsupported():
    with pytest.raises(PredicateSyntaxError, match="offset 6"):
        parse_predicate("a = 1 OR b = 2")


def test_parse_predicate_errors():
    with pytest.raises(PredicateSyntaxError):
        parse_predicate("")
    with pytest.raises(PredicateSyntaxError):
        parse_predicate("a >")
    with pytest.raises(PredicateSyntaxError):
        parse_predicate("a = ")
    with pytest.raises(PredicateSyntaxError):
        parse_predicate("= 3")
    with pytest.raises(PredicateSyntaxError):
        parse_predicate("a = 1 AND")
    err = None
    try:
        parse_predicate("a ? 1")
    except PredicateSyntaxError as exc:
        err = exc
    assert err is not None and err.offset == 2


@pytest.mark.parametrize("text, outcome", [
    ("a = 1 and\u0663", "expected column name, got '\u0663' (offset 9)"),
    ("a = 1 AND2 = 3", "expected AND, got 'AND2' (offset 6)"),
    ("a = 1 and\u00e9 = 2", "unexpected character '\u00e9' (offset 9)"),
    ("a = 1 ANd\tand_ = 2", (Atom("a", "=", 1), Atom("and_", "=", 2))),
])
def test_parse_predicate_and_ends_where_an_identifier_would(text, outcome):
    # AND is the keyword when the identifier read there would be `and` in
    # some casing: only ASCII letters, digits and _ continue it
    if isinstance(outcome, tuple):
        assert parse_predicate(text) == Predicate(atoms=outcome)
    else:
        with pytest.raises(PredicateSyntaxError, match="^" + re.escape(outcome) + "$"):
            parse_predicate(text)


def test_parse_predicate_raises_the_first_error_in_the_text():
    # literals are converted as the grammar reaches them, so an integer
    # past int()'s digit limit raises before a later grammar error, and
    # after an earlier one
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int() has no digit limit in this interpreter")
    digits = "9" * (limit + 1)
    with pytest.raises(PredicateSyntaxError, match=r"^integer literal .* \(offset 4\)$"):
        parse_predicate(f"a = {digits} AND = 1")
    with pytest.raises(PredicateSyntaxError, match=r"^expected column name, got '=' \(offset 0\)$"):
        parse_predicate(f"= 1 AND a = {digits}")


@pytest.mark.parametrize("sign", ["", "-", "+"])
def test_parse_predicate_integer_past_the_digit_limit_is_a_syntax_error(sign):
    # named at its offset, with the interpreter's limit left as it is
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int() has no digit limit in this interpreter")
    assert parse_predicate(f"a = {sign}{'9' * limit}").atoms[0].literal == int(sign + "9" * limit)
    with pytest.raises(PredicateSyntaxError) as error:
        parse_predicate(f"a < 1 AND grp = {sign}{'9' * (limit + 1)}")
    assert str(error.value) == (f"integer literal '{(sign + '9' * 12)[:12]}...' has {limit + 1} "
                                f"digits, more than the {limit} that int() reads (offset 16)")
    assert error.value.offset == 16
    assert sys.get_int_max_str_digits() == limit


def test_binding_errors(tmp_path):
    path = _write(tmp_path, "price,city\n1.5,NYC\n2.0,LA\n")
    table = load_table(path)
    with pytest.raises(BindingError, match="unknown column"):
        true_cardinality(table, parse_predicate("missing = 1"))
    with pytest.raises(BindingError):
        true_cardinality(table, parse_predicate("price < 'abc'"))
    with pytest.raises(BindingError):
        true_cardinality(table, parse_predicate("city = 3"))
    with pytest.raises(BindingError):
        true_cardinality(table, parse_predicate("city < 'NYC'"))
    # int literal against a real column is fine (numeric promotion)
    assert true_cardinality(table, parse_predicate("price < 2")) == 1


def test_true_cardinality_examples(tmp_path):
    path = _write(tmp_path, "x,y\n1,5\n2,6\n3,7\n")
    table = load_table(path)
    assert true_cardinality(table, parse_predicate("x >= 2")) == 2
    assert true_cardinality(table, parse_predicate("x > 99")) == 0
    assert true_cardinality(table, parse_predicate("x >= 1")) == 3
    assert true_cardinality(table, parse_predicate("x >= 2 AND y = 6")) == 1


@given(
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=30),
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
            st.integers(-5, 5),
        ),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=200)
def test_true_cardinality_matches_row_by_row_reference(rows, atoms):
    table_text = "a,b\n" + "\n".join(f"{a},{b}" for a, b in rows) + "\n"
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(table_text)
        table = load_table(path)
    text = " AND ".join(f"{col} {op} {lit}" for col, op, lit in atoms)
    ops = {"=": lambda u, v: u == v, "!=": lambda u, v: u != v,
           "<": lambda u, v: u < v, "<=": lambda u, v: u <= v,
           ">": lambda u, v: u > v, ">=": lambda u, v: u >= v}
    expected = sum(
        1 for a, b in rows
        if all(ops[op]({"a": a, "b": b}[col], lit) for col, op, lit in atoms)
    )
    assert true_cardinality(table, parse_predicate(text)) == expected


_PY_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@pytest.mark.parametrize("cells, literals", [
    # int64 column, float literals: numpy alone says 2**53 + 1 > 2.0**53 is false
    ([2**53 + 1, 2**53, -(2**53 + 1), 3, 2**63 - 1, -2**63],
     [2.0**53, -2.0**53, 2.5, -2.5, 3.0, 2.0**63, -2.0**63, 1e300, math.inf, -math.inf,
      math.nan]),
    # float64 column, int literals that float64 cannot hold
    ([2.0**53, 2.0**53 + 2, 1.5, 1.7976931348623157e308, math.inf, -math.inf, math.nan],
     [2**53 + 1, -(2**53 + 1), 2**53, 3, 10**400, -10**400, 2**1024 - 1]),
    # integers beyond int64, held as Python ints
    ([2**64 + 1, -2**70, 0],
     [2**64 + 1, 2.0**64, 2.5, -2.0**70, 2**64, math.inf, -math.inf, math.nan]),
])
def test_numeric_comparisons_are_exact(tmp_path, cells, literals):
    path = _write(tmp_path, "v\n" + "\n".join(map(repr, cells)) + "\n")
    table = load_table(path)
    assert list(map(repr, table.data[0].tolist())) == list(map(repr, cells))
    for literal in literals:
        for op, compare in _PY_OPS.items():
            predicate = Predicate(atoms=(Atom(column="v", op=op, literal=literal),))
            want = sum(1 for value in cells if compare(value, literal))
            assert true_cardinality(table, predicate) == want, (op, literal)


@pytest.mark.parametrize("cells", [
    ["b_1", "a", "", "it's", "b_1", "é", "A", "a", "b_1", "10"],
    # numeric in the rows that guess the type, text from one cell past them
    [str(i % 5) for i in range(ingest._GUESS_ROWS)] + ["007", "7", "x", "7"],
], ids=["text", "text_past_the_guess"])
def test_text_comparisons_match_per_row_strings(tmp_path, cells):
    """= and != on a text column (compared through its integer codes) count
    what per-row string comparison counts, for literals the column holds,
    one it does not, the blank cell and case variants."""
    path = _write(tmp_path, "t,u\n" + "".join(f"{cell},0\n" for cell in cells))
    table = load_table(path)
    assert table.types == [ColumnType.TEXT, ColumnType.INTEGER]
    assert table.data[0].dtype == object and table.data[0].tolist() == cells
    for literal in sorted(set(cells)) + ["absent", "B_1", "a "]:
        for op in ("=", "!="):
            predicate = Predicate(atoms=(Atom(column="t", op=op, literal=literal),))
            want = sum(1 for cell in cells if _PY_OPS[op](cell, literal))
            assert true_cardinality(table, predicate) == want, (op, literal)


def test_float_literal_on_integer_column_at_2_53_plus_1(tmp_path):
    path = _write(tmp_path, f"v\n{2**53 + 1}\n{2**53}\n")
    table = load_table(path)
    assert table.data[0].dtype == np.int64
    assert true_cardinality(table, parse_predicate("v > 9007199254740992.0")) == 1
    assert true_cardinality(table, parse_predicate("v = 9007199254740992.0")) == 1
    assert true_cardinality(table, parse_predicate("v <= 9007199254740992.5")) == 1


# Sampling --------------------------------------------------------------------

def test_sample_indices_without_replacement_distinct():
    rng = np.random.Generator(np.random.Philox(key=1))
    idx = sample_indices(1000, SampleDesign(method=WOR, k=600), rng)
    assert len(idx) == 600
    assert len(set(idx.tolist())) == 600
    assert idx.min() >= 0 and idx.max() < 1000


def test_sample_indices_deterministic():
    a = sample_indices(500, SampleDesign(method=WOR, k=100),
                       np.random.Generator(np.random.Philox(key=9)))
    b = sample_indices(500, SampleDesign(method=WOR, k=100),
                       np.random.Generator(np.random.Philox(key=9)))
    assert (a == b).all()


def test_sample_indices_with_replacement_range():
    rng = np.random.Generator(np.random.Philox(key=2))
    idx = sample_indices(10, SampleDesign(method=WR, k=1000), rng)
    assert len(idx) == 1000
    assert idx.min() >= 0 and idx.max() < 10


def test_sample_indices_full_population_without_replacement():
    rng = np.random.Generator(np.random.Philox(key=3))
    idx = sample_indices(50, SampleDesign(method=WOR, k=49), rng)
    assert len(set(idx.tolist())) == 49


_SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**64 - 1, np.uint64(3)]))
_BLOCKS = st.one_of(st.integers(0, 2**40), st.sampled_from([0, 1, 2**40]))
_DRAWS = st.sampled_from(["wr", "wor", "binomial", "hypergeometric"])


def _draw(generator, kind, n, c, k):
    """One draw of each kind the library makes: a sample's rows, with or
    without replacement, or a block of binomial or hypergeometric hit
    counts."""
    if kind == "binomial":
        return generator.binomial(k, c / n, size=4096)
    if kind == "hypergeometric":  # numpy refuses a good or bad count of 1e9 or more
        n = min(n, 10**9 - 1)
        c = min(c, n)
        return generator.hypergeometric(c, n - c, min(k, n), size=4096)
    method = WR if kind == "wr" else WOR
    design = SampleDesign(method=method, k=k if method is WR else min(k, n - 1))
    return sample_indices(n, design, generator)


@given(st.lists(st.tuples(_SEEDS, _BLOCKS, _DRAWS, st.integers(2, 2**40), st.integers(0, 2**40),
                          st.integers(1, 300)), min_size=1, max_size=4))
@example([(0, 0, "wr", 10, 0, 1), (2**64 - 1, 2**40, "wor", 2**33, 0, 7),
          (np.uint64(3), 1, "wr", 2**32 + 5, 0, 300)])
# a spare 32 bits left; Floyd's algorithm, then a shuffle
@example([(5, 0, "wr", 1000, 0, 3), (5, 0, "wr", 1000, 0, 3), (5, 0, "wor", 1000, 0, 3)])
@example([(7, 0, "wor", 2**40, 0, 300), (7, 0, "wor", 600, 0, 300)])
@example([(2**64 - 1, 2**40, "binomial", 10**6, 5000, 1000),
          (2**64 - 1, 2**40, "hypergeometric", 10**6, 5000, 1000), (1, 3, "binomial", 10, 3, 8)])
@settings(max_examples=60, deadline=None)
def test_the_rekeyed_generator_draws_what_a_new_one_draws(draws):
    # one thread's generator, drawn from again and again, re-keyed each time
    for seed, block, kind, n, c, k in draws:
        c = min(c, n)
        got = _draw(_generator(seed, block), kind, n, c, k)
        want = _draw(block_generator(seed, block), kind, n, c, k)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


def _contiguous_block(n, design, rng):
    """A sampler that is not uniform: k consecutive rows from a random start."""
    start = rng.integers(0, n - design.k + 1)
    return start + np.arange(design.k)


def _ordered_pair_pvalue(sampler, draws=30_000):
    """Chi-square tail probability of the ordered pairs that k = 2 rows
    drawn from n = 6 yield; a uniform sampler gives each of the 30 pairs
    probability 1/30."""
    rng = block_generator(5, 0)
    design = SampleDesign(method=WOR, k=2)
    counts = np.zeros((6, 6), dtype=np.int64)
    for _ in range(draws):
        a, b = sampler(6, design, rng)
        counts[a, b] += 1
    return scipy.stats.chisquare(counts[~np.eye(6, dtype=bool)]).pvalue


def _hit_count_pvalue(sampler, n, c, k, draws=20_000):
    """Chi-square tail probability of the hit counts of k rows drawn from
    n, of which the first c are hits, against the Hypergeometric(n, c, k)
    pmf; bins expected to hold fewer than 10 draws are pooled into one."""
    rng = block_generator(6, 0)
    design = SampleDesign(method=WOR, k=k)
    hits = [np.count_nonzero(sampler(n, design, rng) < c) for _ in range(draws)]
    observed = np.bincount(hits, minlength=k + 1)
    expected = draws * np.exp(hypergeom_logpmf(np.arange(k + 1), n, c, k))
    sparse = expected < 10.0
    observed = np.append(observed[~sparse], observed[sparse].sum())
    expected = np.append(expected[~sparse], expected[sparse].sum())
    return scipy.stats.chisquare(observed, expected * (draws / expected.sum())).pvalue


@pytest.mark.parametrize("pvalue", [
    _ordered_pair_pvalue,
    # numpy draws k <= n/50 by Floyd's algorithm, larger k by a partial shuffle
    lambda sampler: _hit_count_pvalue(sampler, n=1000, c=100, k=50),
    lambda sampler: _hit_count_pvalue(sampler, n=20_000, c=2_000, k=1_000),
], ids=["pairs", "hits_floyd", "hits_shuffle"])
def test_sample_indices_without_replacement_is_uniform(pvalue):
    assert pvalue(sample_indices) > 1e-9
    # the same statistic rejects a sampler that is not uniform
    assert pvalue(_contiguous_block) < 1e-9


# Estimation ------------------------------------------------------------------

@pytest.fixture
def small_table(tmp_path):
    lines = ["id,grp"] + [f"{i},{i % 5}" for i in range(1000)]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    return load_table(path)


def test_estimate_with_bounds_deterministic(small_table):
    pred = parse_predicate("grp = 0")
    design = SampleDesign(method=WOR, k=100)
    a = estimate_with_bounds(small_table, pred, design, qs=(2.0,), seed=77)
    b = estimate_with_bounds(small_table, pred, design, qs=(2.0,), seed=77)
    assert a == b
    c = estimate_with_bounds(small_table, pred, design, qs=(2.0,), seed=78)
    assert a.seed != c.seed


def test_estimate_with_bounds_report_fields(small_table):
    pred = parse_predicate("grp = 0")  # C = 200 of n = 1000
    design = SampleDesign(method=WOR, k=100)
    report = estimate_with_bounds(small_table, pred, design, qs=(2.0, 4.0), seed=3)
    assert report.n == 1000
    assert report.true_cardinality == 200
    assert type(report.hits) is int and type(report.true_cardinality) is int
    assert report.p_used == 0.2
    assert report.p_source == "true"
    assert report.estimate == report.hits * 10.0
    assert report.realized_q_error >= 1.0
    confs = {entry.q: entry.confidence for entry in report.per_q}
    want2 = evaluate_confidence(WOR, 0.2, 100, 2.0, n=1000).confidence
    want4 = evaluate_confidence(WOR, 0.2, 100, 4.0, n=1000).confidence
    assert confs[2.0] == want2 and confs[4.0] == want4


def test_estimate_with_bounds_empty_predicate(small_table):
    pred = parse_predicate("id < 0")
    report = estimate_with_bounds(small_table, pred, SampleDesign(method=WR, k=50), seed=1)
    assert report.hits == 0
    assert report.estimate == 0.0
    assert report.realized_q_error == 1.0  # both sides clamp to 1
    assert report.per_q[0].degenerate
    assert report.per_q[0].confidence == 0.0


def test_estimate_with_bounds_target_confidence(small_table):
    from qbounds import q_at_confidence
    pred = parse_predicate("grp = 0")  # C = 200, p = 0.2
    design = SampleDesign(method=WOR, k=100)
    report = estimate_with_bounds(
        small_table, pred, design, qs=(2.0,), seed=4, target_confidence=0.9,
    )
    want = q_at_confidence(WOR, 0.2, 100, 0.9, n=1000)
    assert report.q_at_target == want
    # an impossible target yields no q, not an error
    floored = estimate_with_bounds(
        small_table, pred, SampleDesign(method=WR, k=5), qs=(2.0,),
        seed=4, target_confidence=0.9999,
    )
    assert floored.q_at_target is None


def test_estimate_with_bounds_assumed_p(small_table):
    pred = parse_predicate("grp = 0")
    report = estimate_with_bounds(
        small_table, pred, SampleDesign(method=WR, k=100), qs=(2.0,),
        seed=5, assume_p=0.33,
    )
    assert report.p_source == "assumed"
    assert report.p_used == 0.33
    assert report.true_cardinality is None
    assert report.realized_q_error is None
    want = evaluate_confidence(WR, 0.33, 100, 2.0).confidence
    assert report.per_q[0].confidence == want


def test_estimate_with_bounds_design_edges(small_table):
    pred = parse_predicate("grp = 0")
    # k = n - 1 is fine, k = n is not (without replacement)
    estimate_with_bounds(small_table, pred, SampleDesign(method=WOR, k=999), seed=0)
    with pytest.raises(ValueError):
        estimate_with_bounds(small_table, pred, SampleDesign(method=WOR, k=1000), seed=0)
    with pytest.raises(ValueError):
        estimate_with_bounds(small_table, pred, SampleDesign(method=WR, k=10),
                             qs=(), seed=0)
    with pytest.raises(ValueError):
        estimate_with_bounds(small_table, pred, SampleDesign(method=WR, k=10),
                             seed=0, assume_p=1.5)


@pytest.mark.parametrize("assume_p", [1.5, -0.1, math.nan])
def test_estimate_with_bounds_checks_assume_p_first(small_table, monkeypatch, assume_p):
    def fail(*args):
        raise AssertionError("sampled or scanned before assume_p was checked")

    monkeypatch.setattr(ingest, "sample_indices", fail)
    monkeypatch.setattr(ingest, "_predicate_mask", fail)
    # an unknown column would otherwise fail binding first
    for text in ("grp = 0", "missing = 1"):
        with pytest.raises(ValueError, match="assumed selectivity"):
            estimate_with_bounds(small_table, parse_predicate(text),
                                 SampleDesign(method=WR, k=10), seed=0, assume_p=assume_p)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_estimate_with_bounds_checks_seed_first(small_table, monkeypatch, seed):
    # the rule and message of the simulation's seed, checked before any
    # scan or draw
    with pytest.raises(ValueError) as simulated:
        SimulationConfig(pop=PopulationSpec(n=1000, cardinality=200),
                         design=SampleDesign(method=WR, k=10), q=2.0, trials=1, seed=seed)

    def fail(*args):
        raise AssertionError("sampled or scanned before the seed was checked")

    monkeypatch.setattr(ingest, "sample_indices", fail)
    monkeypatch.setattr(ingest, "_predicate_mask", fail)
    for method in (WR, WOR):
        for text in ("grp = 0", "missing = 1"):
            with pytest.raises(ValueError) as estimated:
                estimate_with_bounds(small_table, parse_predicate(text),
                                     SampleDesign(method=method, k=10), seed=seed)
            assert str(estimated.value) == str(simulated.value)


@pytest.mark.parametrize("k", [2.5, 10.0, True])
def test_estimate_with_bounds_refuses_a_fractional_sample_size(small_table, monkeypatch, k):
    # the library's ValueError, before any scan or draw, not numpy's TypeError
    def fail(*args):
        raise AssertionError("sampled or scanned before the sample size was checked")

    monkeypatch.setattr(ingest, "sample_indices", fail)
    monkeypatch.setattr(ingest, "_predicate_mask", fail)
    for method in (WR, WOR):
        with pytest.raises(ValueError, match=f"^sample size must be an integer to draw a "
                                             f"sample, got {k}$"):
            estimate_with_bounds(small_table, parse_predicate("grp = 0"),
                                 SampleDesign(method=method, k=k))


@pytest.mark.parametrize("qs, target, message", [
    ((2.0, 0.5), None, "^q must be finite and >= 1, got 0.5$"),
    ((math.inf,), 0.9, "^q must be finite and >= 1, got inf$"),
    ((2.0, math.nan), 1.5, "^q must be finite and >= 1, got nan$"),
    ((2.0,), 1.5, r"^target confidence must be in \(0, 1\), got 1.5$"),
    ((), math.nan, r"^target confidence must be in \(0, 1\), got nan$"),
])
def test_estimate_with_bounds_checks_every_q_and_the_target_first(small_table, monkeypatch,
                                                                  qs, target, message):
    # with the messages of the bound and the q solver, before any draw or
    # scan, and whatever p is used: a target was accepted at p = 0
    def fail(*args):
        raise AssertionError("sampled or scanned before q and the target were checked")

    monkeypatch.setattr(ingest, "sample_indices", fail)
    monkeypatch.setattr(ingest, "_predicate_mask", fail)
    for assume_p in (None, 0.0, 0.2):
        for text in ("grp = 0", "id < 0", "missing = 1"):
            with pytest.raises(ValueError, match=message):
                estimate_with_bounds(small_table, parse_predicate(text),
                                     SampleDesign(method=WOR, k=10), qs=qs, seed=0,
                                     assume_p=assume_p, target_confidence=target)


def test_estimate_with_bounds_seed_edges(small_table):
    pred = parse_predicate("grp = 0")
    for seed in (0, 2**64 - 1):
        report = estimate_with_bounds(small_table, pred, SampleDesign(method=WOR, k=10),
                                      seed=seed)
        assert report.seed == seed


def test_estimate_hits_count_matches_manual_replay(small_table):
    pred = parse_predicate("grp = 0")
    design = SampleDesign(method=WOR, k=100)
    report = estimate_with_bounds(small_table, pred, design, seed=21)
    rng = np.random.Generator(np.random.Philox(key=21))
    idx = sample_indices(1000, design, rng)
    compiled = bind_predicate(small_table, pred)
    manual = sum(1 for i in idx if all(op(small_table.data[ci][int(i)], lit)
                                       for ci, op, lit in compiled))
    assert report.hits == manual


def test_two_threads_interleaving_estimates_draw_their_own_rows(small_table, monkeypatch):
    # the first estimate re-keys its generator, then waits while the second
    # re-keys and draws: a generator the two shared would give the first the
    # second's stream, advanced
    pred = parse_predicate("grp = 0")
    jobs = [(SampleDesign(method=WOR, k=100), 11), (SampleDesign(method=WR, k=37), 12)]
    want = [estimate_with_bounds(small_table, pred, design, seed=seed) for design, seed in jobs]
    keyed, drawn = threading.Event(), threading.Event()
    draw = ingest.sample_indices

    def interleaved(n, design, rng):
        if design is jobs[0][0]:
            keyed.set()
            assert drawn.wait(10)
            return draw(n, design, rng)
        rows = draw(n, design, rng)
        drawn.set()
        return rows

    monkeypatch.setattr(ingest, "sample_indices", interleaved)
    got = [None, None]

    def second():
        assert keyed.wait(10)
        got[1] = estimate_with_bounds(small_table, pred, jobs[1][0], seed=jobs[1][1])
        drawn.set()  # also if the estimate failed, so the first does not wait in vain

    thread = threading.Thread(target=second)
    thread.start()
    try:
        got[0] = estimate_with_bounds(small_table, pred, jobs[0][0], seed=jobs[0][1])
    finally:
        thread.join()
    assert got == want


_ROWS = 1000
_ID_TABLE = TableData(columns=["id"], types=[ColumnType.INTEGER], data=[np.arange(_ROWS)])


@given(method=st.sampled_from([WR, WOR]),
       k=st.one_of(st.integers(1, _ROWS - 1), st.just(np.int64(30))),
       selectivity=st.one_of(st.tuples(st.just("true"), st.integers(0, _ROWS)),
                             st.tuples(st.just("assumed"), st.floats(0.0, 1.0))),
       qs=st.lists(st.one_of(st.floats(1.0, 1e300), st.integers(1, 10),
                             st.sampled_from([1.0, 1e200, np.float64(3.0)])),
                   min_size=1, max_size=4))
@example(method=WR, k=100, selectivity=("true", 0), qs=[1.0, 1e200])
@example(method=WOR, k=100, selectivity=("true", _ROWS), qs=[1.0, 1e200])
@example(method=WOR, k=999, selectivity=("assumed", 0.0), qs=[1.0, 1e200])
@example(method=WR, k=1, selectivity=("assumed", 1.0), qs=[1.0, 1e200, 2])
@example(method=WOR, k=np.int64(30), selectivity=("assumed", -0.0), qs=[2.0])
@settings(max_examples=150, deadline=None)
def test_each_q_bound_is_evaluate_confidence_bit_for_bit(method, k, selectivity, qs):
    source, value = selectivity
    predicate, assume_p = ((parse_predicate(f"id < {value}"), None) if source == "true"
                           else (parse_predicate("id >= 0"), value))
    p_used = value / _ROWS if source == "true" else value
    try:
        results = [evaluate_confidence(method, p_used, k, q, n=_ROWS) for q in qs]
    except RuntimeWarning as warning:  # numpy's, of an int64 k's products past q ~ 1e153
        with pytest.raises(RuntimeWarning, match=f"^{re.escape(str(warning))}$"):
            estimate_with_bounds(_ID_TABLE, predicate, SampleDesign(method=method, k=k),
                                 qs=qs, seed=3, assume_p=assume_p)
        return
    report = estimate_with_bounds(_ID_TABLE, predicate, SampleDesign(method=method, k=k),
                                  qs=qs, seed=3, assume_p=assume_p)
    assert report.p_source == source and repr(report.p_used) == repr(p_used)
    assert [entry.q for entry in report.per_q] == qs
    for entry, result in zip(report.per_q, results):
        fields = (result.confidence, result.omega, result.psi, result.degenerate)
        assert repr((entry.confidence, entry.omega, entry.psi, entry.degenerate)) == repr(fields)


# The scan ---------------------------------------------------------------------

@pytest.mark.parametrize("cells, dtype", [
    ([-128, 127], np.int8), ([0, 255], np.uint8), ([-129, 0], np.int16),
    ([-1, 255], np.int16), ([0, 65535], np.uint16), ([-2**31, 2**31 - 1], np.int32),
    ([0, 2**32 - 1], np.uint32), ([-1, 2**32 - 1], np.int64), ([0, 2**32], np.int64),
    ([-2**63, 2**63 - 1], np.int64), ([0, 2**64], object), ([0.5, 1], np.float64),
])
def test_scan_array_is_the_narrowest_that_holds_the_column(tmp_path, cells, dtype):
    table = load_table(_write(tmp_path, "v\n" + "".join(f"{cell}\n" for cell in cells)))
    assert table.scan[0].dtype == dtype
    assert table.scan[0].tolist() == table.data[0].tolist()
    assert table.data[0].dtype in (np.int64, np.float64, object)  # data keeps its dtype
    if table.scan[0].dtype == table.data[0].dtype:
        assert table.scan[0] is table.data[0]  # no copy where nothing is narrower


@pytest.mark.parametrize("distinct, dtype", [
    (255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.uint32)])
def test_text_codes_are_the_smallest_unsigned_type_that_holds_the_distinct_count(
        tmp_path, distinct, dtype):
    cells = [f"w{i}" for i in range(distinct)] + ["w0"]
    table = load_table(_write(tmp_path, "t\n" + "".join(f"{cell}\n" for cell in cells)))
    codes, values = table.codes[0]
    assert codes.dtype == dtype and table.scan[0] is codes
    assert codes.tolist() == list(range(distinct)) + [0]  # first-appearance order
    assert table.data[0].tolist() == cells and values.tolist() == cells[:-1]


_WIDE_TEXT = [f" w{i}" if i % 3 else f"w{i}" for i in range(65536)] + ["w7", "w65535"]


@pytest.fixture(scope="module")
def wide_text_table(tmp_path_factory):
    """A text column of 65,536 distinct values, some with a leading space."""
    return load_table(_write(tmp_path_factory.mktemp("wide"),
                             "t\n" + "".join(f"{cell}\n" for cell in _WIDE_TEXT)))


@pytest.mark.parametrize("op", ["=", "!="])
@pytest.mark.parametrize("literal", ["w65535", "w0", "w7", " w7", "w65536", "", "W1"])
def test_text_literal_code_is_looked_up_among_65536_values(wide_text_table, op, literal):
    # a literal that rows hold and one that none holds (a cell is stripped,
    # the literal is not), each against a per-row Python comparison
    assert len(wide_text_table.code_of[0]) == 65536
    compare = operator.eq if op == "=" else operator.ne
    expected = sum(compare(cell.strip(), literal) for cell in _WIDE_TEXT)
    assert true_cardinality(wide_text_table, parse_predicate(f"t {op} '{literal}'")) == expected


_INT_KINDS = {"int8": (-128, 127), "uint16": (0, 65535), "int32": (-2**31, 2**31 - 1),
              "int64": (-2**63, 2**63 - 1)}
_WORDS = ["a", "b", "it", "x_1", "Z"]
_ODD_LITERALS = [-1, 0, 2**31, 2**32, 2**40, 2**63, 2**70, -2**70, math.inf, -math.inf,
                 math.nan, 0.5, -0.5, 2.0**53, 1e300]


@st.composite
def _integer_column(draw, n):
    """n integers whose least and greatest are the ends of a kind's range,
    so the scan type is that kind's."""
    lo, hi = _INT_KINDS[draw(st.sampled_from(sorted(_INT_KINDS)))]
    values = draw(st.lists(st.integers(lo, hi), min_size=n - 2, max_size=n - 2))
    return draw(st.permutations(values + [lo, hi]))


@st.composite
def _scans(draw):
    """A table of two integer columns, a real, a text and a beyond-int64
    column, a predicate of one to three atoms with literals inside and
    outside each scan type, and one estimate's design, seed and assume_p."""
    n = draw(st.integers(2, 120))
    columns = {
        "a": draw(_integer_column(n)),
        "b": draw(_integer_column(n)),
        "x": draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)),
        "t": draw(st.lists(st.sampled_from(_WORDS), min_size=n, max_size=n)),
        "big": draw(st.permutations(
            draw(st.lists(st.integers(-5, 5), min_size=n - 1, max_size=n - 1)) + [2**64])),
    }
    atoms = []
    for column in draw(st.lists(st.sampled_from(sorted(columns)), min_size=1, max_size=3)):
        if column == "t":
            op, literal = draw(st.sampled_from(["=", "!="])), st.sampled_from(_WORDS + ["absent"])
        else:  # a value of the column or its neighbour, else one the scan type may not hold
            op, literal = draw(st.sampled_from(sorted(_PY_OPS))), st.one_of(
                st.builds(operator.add, st.sampled_from(columns[column]), st.integers(-1, 1)),
                st.sampled_from(_ODD_LITERALS), st.integers(-300, 300))
        atoms.append((column, op, draw(literal)))
    method = draw(st.sampled_from([WR, WOR]))
    few = st.integers(1, max(1, (n - 1) // ingest._GATHER_COST))  # few enough to gather
    k = draw(st.one_of(few, st.integers(1, 3 * n) if method is WR else st.integers(1, n - 1)))
    return (columns, atoms, method, k, draw(st.integers(0, 2**64 - 1)),
            draw(st.sampled_from([None, 0.5])))


def _cell(value) -> str:
    return value if isinstance(value, str) else repr(value)


def _text_example(distinct: int, method, k: int, assume_p):
    """A text column holding `distinct` values once each, compared with its
    last value and with a literal no row holds."""
    columns = {"t": [f"w{i}" for i in range(distinct)], "v": list(range(distinct))}
    atoms = [("t", "!=", "absent"), ("t", "=", f"w{distinct - 1}"), ("v", ">=", -1)]
    return columns, atoms, method, k, 3, assume_p


@given(_scans())
@example(({"v": [-1, 2**40]}, [], WR, 5, 0, None))  # Predicate(atoms=()) counts every row
@example(({"v": list(range(-1, 40))}, [], WOR, 2, 0, 0.5))  # and the k sampled rows
@example(_text_example(256, WOR, 100, None))
@example(_text_example(256, WR, 600, 0.5))
@example(_text_example(65536, WR, 70000, None))
@example(_text_example(65536, WOR, 1000, 0.5))
@settings(max_examples=150, deadline=None)
def test_scan_counts_what_per_row_python_comparisons_count(tmp_path_factory, spec):
    """true_cardinality and estimate_with_bounds (hits, true count) equal
    per-row Python comparisons on data, over the rows the estimate draws."""
    columns, atoms, method, k, seed, assume_p = spec
    text = ",".join(columns) + "\n" + "".join(
        ",".join(map(_cell, row)) + "\n" for row in zip(*columns.values()))
    table = load_table(_write(tmp_path_factory.mktemp("scan"), text))
    assert [values.tolist() for values in table.data] == list(columns.values())
    predicate = Predicate(atoms=tuple(Atom(*atom) for atom in atoms))
    rows = [dict(zip(columns, row)) for row in zip(*(values.tolist() for values in table.data))]

    def holds(row) -> bool:
        return all(_PY_OPS[op](row[column], literal) for column, op, literal in atoms)

    design = SampleDesign(method=method, k=k)
    sample = sample_indices(table.n, design, block_generator(seed, 0)).tolist()
    truth = sum(map(holds, rows))
    assert true_cardinality(table, predicate) == truth
    report = estimate_with_bounds(table, predicate, design, seed=seed, assume_p=assume_p)
    assert report.hits == sum(holds(rows[r]) for r in sample)
    assert report.true_cardinality == (truth if assume_p is None else None)


@pytest.mark.parametrize("k, gathered", [(1, True), (62, True), (63, False), (5000, False)])
def test_estimate_with_assume_p_compares_the_sampled_rows_while_few(small_table, monkeypatch,
                                                                    k, gathered):
    # a whole-column scan where k * _GATHER_COST >= n, or where the true count is needed
    calls, mask = [], ingest._predicate_mask

    def recorded(table, compiled, rows=None):
        calls.append(None if rows is None else len(rows))
        return mask(table, compiled, rows)

    monkeypatch.setattr(ingest, "_predicate_mask", recorded)
    predicate = parse_predicate("grp = 0 AND id < 900")
    for assume_p in (0.2, None):
        report = estimate_with_bounds(small_table, predicate, SampleDesign(method=WR, k=k),
                                      seed=4, assume_p=assume_p)
        rows = sample_indices(1000, SampleDesign(method=WR, k=k), block_generator(4, 0))
        assert report.hits == sum(int(i) % 5 == 0 and i < 900 for i in rows)
    assert calls == [k if gathered else None, None]
