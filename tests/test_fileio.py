import pytest
from hypothesis import given, settings, strategies as st

from deq import catalog
from deq.dimodule import GradedModule, group_bialgebra
from deq.fields import FunctionField, PrimeField, QQ, UsageError
from deq.fileio import (ParseError, matrix_text, read_cayley, read_graded_module,
                        read_matrix, write_cayley, write_graded_module,
                        write_matrix, write_report)
from deq.linalg import Matrix, matrix_inverse
from deq.tensor_ops import EndoPair, diagonal_solution


ROUND_TRIP_FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(65537),
                     FunctionField(["a", "b"]), FunctionField(["q"])]


@st.composite
def operators(draw):
    """An operator of size 1 or 2 over one of ROUND_TRIP_FIELDS, with
    entries that exercise each field's literals: signed fractions, integers
    reduced mod p, and quotients of polynomials in the variables."""
    field = draw(st.sampled_from(ROUND_TRIP_FIELDS))
    n = draw(st.integers(1, 2))
    if field.kind == "Q":
        entry = st.fractions(-100, 100, max_denominator=60)
    elif field.kind == "F":
        entry = st.integers(-3 * field.p, 3 * field.p)
    else:
        x, y = field.gens[0], field.gens[-1]
        dens = [field.one, field.one + x, x * y - field.coerce(2), field.coerce(3)]
        entry = st.builds(
            lambda c0, c1, c2, den: (field.coerce(c0) + field.coerce(c1) * x
                                     + field.coerce(c2) * x * y * y) / den,
            st.integers(-9, 9), st.integers(-9, 9), st.integers(-3, 3), st.sampled_from(dens))
    rows = draw(st.lists(st.lists(entry, min_size=n * n, max_size=n * n),
                         min_size=n * n, max_size=n * n))
    return EndoPair.from_rows(field, rows)


def test_matrix_round_trip_property(tmp_path):
    """write_matrix then read_matrix gives back an equal operator over Q,
    F_p and Q(vars), and writing what was read gives the same bytes."""
    path = str(tmp_path / "r.txt")

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(operators())
    def check(R):
        write_matrix(path, R)
        with open(path) as handle:
            text = handle.read()
        back = read_matrix(path)
        assert back == R
        write_matrix(path, back)
        with open(path) as handle:
            assert handle.read() == text == matrix_text(R)
    check()


def test_matrix_round_trip_rationals(tmp_path):
    R = diagonal_solution(QQ, [["1/2", -3], [5, "7/11"]])
    path = str(tmp_path / "r.txt")
    write_matrix(path, R)
    assert read_matrix(path) == R
    assert open(path).read() == matrix_text(R)
    assert matrix_text(R).startswith("field Q\ndim 2\n")


def test_matrix_round_trip_prime_field(tmp_path):
    k = PrimeField(5)
    R = catalog.triangular_solution(k, 1, 2, 3)
    path = str(tmp_path / "r.txt")
    write_matrix(path, R)
    assert read_matrix(path) == R
    assert "field F 5" in open(path).read()


def test_matrix_round_trip_function_field(tmp_path):
    """Symbolic entries contain spaces, so rows are comma separated."""
    k = FunctionField(["a", "b", "c"])
    R = catalog.triangular_solution(k, k.parse("a"), k.parse("b"), k.parse("c"))
    path = str(tmp_path / "r.txt")
    write_matrix(path, R)
    text = open(path).read()
    assert text.startswith("field QFUN a,b,c\n")
    assert ", " in text.splitlines()[2]
    assert read_matrix(path) == R
    # at n = 1 the row is one entry, spaces and all
    R = EndoPair.from_rows(k, [[k.parse("a - 9")]])
    write_matrix(path, R)
    assert open(path).read().endswith("\na - 9\n")
    assert read_matrix(path) == R


def test_matrix_comments_and_blank_lines(tmp_path):
    path = str(tmp_path / "r.txt")
    with open(path, "w") as handle:
        handle.write("# an operator\n\nfield F 2\n# size\ndim 2\n"
                     "1 0 0 0\n\n0 1 0 0\n0 0 1 0\n# last row\n0 0 0 1\n")
    R = read_matrix(path)
    assert R.n == 2 and R.field == PrimeField(2)


def test_matrix_parse_errors(tmp_path):
    path = str(tmp_path / "bad.txt")

    def bad(text):
        with open(path, "w") as handle:
            handle.write(text)
        with pytest.raises(ParseError) as info:
            read_matrix(path)
        return info.value

    exc = bad("field F 4\ndim 2\n")
    assert exc.line == 1 and str(exc).startswith(path + ":1:1:")
    exc = bad("field Q\ndim two\n")
    assert exc.line == 2 and "two" in str(exc)
    exc = bad("field Q\ndim 0\n")
    assert "positive" in str(exc)
    exc = bad("field Q\ndim 2\n1 0 0\n")
    assert exc.line == 3 and "expected 4 entries, got 3" in str(exc)
    exc = bad("field Q\ndim 2\n1 0 x 0\n")
    assert exc.line == 3 and exc.col == 3
    exc = bad("field Q\ndim 2\n1 0 0 0\n")
    assert "end of file" in str(exc)
    exc = bad("dim 2\n")
    assert "field" in str(exc)


def test_readers_refuse_rows_after_the_last_one(tmp_path):
    """read_matrix and read_cayley end where their format does, as
    read_graded_module does: the first extra line is a ParseError."""
    path = str(tmp_path / "extra.txt")
    for read, text, line in ((read_matrix, "field Q\ndim 1\n1\n2\n", 4),
                             (read_matrix, "field F 5\ndim 1\n1\n# note\n\n1 2\n", 6),
                             (read_cayley, "group 1\nlabels e\ne\ne\n", 4),
                             (read_cayley, "group 2\nlabels e g\ne g\ng e\n\ng e\n", 6)):
        with open(path, "w") as handle:
            handle.write(text)
        with pytest.raises(ParseError, match="after the last row") as info:
            read(path)
        assert (info.value.line, info.value.col) == (line, 1), text
        with open(path, "w") as handle:
            handle.write(text[:text.rindex("\n", 0, -1) + 1] + "# trailing comment\n\n")
        read(path)  # comments and blank lines may follow


def test_readers_take_ascii_decimal_numbers_only(tmp_path):
    """`dim`, `group` and module dimensions and the F header's prime are
    ASCII digits within the digit bound; `1_0` or an Arabic-Indic digit is
    not read as a number."""
    path = str(tmp_path / "n.txt")
    cases = [(read_matrix, "field Q\ndim 1_0\n", 2, "bad dimension"),
             (read_matrix, "field Q\ndim \u0661\n1\n", 2, "bad dimension"),
             (read_matrix, "field Q\ndim %s\n" % ("1" * 5000), 2, "over the limit"),
             (read_matrix, "field F 1_0_1\ndim 1\n1\n", 1, "bad prime"),
             (read_matrix, "field F \u0667\ndim 1\n1\n", 1, "bad prime"),
             (read_matrix, "field Q\ndim 1\n\u0661\n", 3, "bad rational literal"),
             (read_cayley, "group \u0661\nlabels e\ne\n", 1, "bad group order"),
             (read_cayley, "group 0_1\nlabels e\ne\n", 1, "bad group order"),
             (lambda p: read_graded_module(p, ["e"]), "field Q\ndim 1_0\naction e\n", 2,
              "bad module dimension")]
    for read, text, line, message in cases:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with pytest.raises(ParseError, match=message) as info:
            read(path)
        assert info.value.line == line, text


def test_cayley_round_trip(tmp_path):
    labels, table = catalog.s3_cayley()
    path = str(tmp_path / "g.txt")
    write_cayley(path, labels, table)
    back_labels, back_table = read_cayley(path)
    assert back_labels == labels and back_table == table
    # the round trip feeds the bialgebra constructor directly
    group_bialgebra(QQ, back_labels, back_table)


def test_cayley_parse_errors(tmp_path):
    path = str(tmp_path / "g.txt")

    def bad(text):
        with open(path, "w") as handle:
            handle.write(text)
        with pytest.raises(ParseError) as info:
            read_cayley(path)
        return info.value

    exc = bad("group 2\nlabels e e\ne e\ne e\n")
    assert "not distinct" in str(exc)
    exc = bad("group 2\nlabels e g\ne g\ng x\n")
    assert "unknown label 'x'" in str(exc) and exc.col == 2
    exc = bad("group 2\nlabels e g\ne g g\ng e\n")
    assert "expected 2 labels" in str(exc)
    exc = bad("group 0\nlabels\n")
    assert "positive" in str(exc)


def test_graded_module_round_trip(tmp_path):
    g = catalog.s3_graded_module(QQ)
    labels = g.host.labels
    action = {label: g.act[i] for i, label in enumerate(labels)}
    projectors = {label: g.projectors[i] for i, label in enumerate(labels)}
    path = str(tmp_path / "m.txt")
    write_graded_module(path, labels, QQ, action, projectors)
    text = open(path).read()
    # zero projectors are omitted on disk, restored as zero on read
    assert "component t12" in text and "component e" not in text
    field, back_action, back_projectors = read_graded_module(path, labels)
    assert field == QQ
    assert back_action == action
    assert back_projectors == projectors
    rebuilt = GradedModule(g.host, [back_action[l] for l in labels],
                           [back_projectors[l] for l in labels])
    assert rebuilt.dim == 3


@st.composite
def relabelled_s3(draw):
    """S3's Cayley table with its elements in a drawn order and drawn
    distinct labels."""
    labels, table = catalog.s3_cayley()
    order = draw(st.permutations(range(len(labels))))
    where = {old: new for new, old in enumerate(order)}
    names = draw(st.lists(st.text("abgxyz019_'", min_size=1, max_size=4),
                          min_size=len(labels), max_size=len(labels), unique=True))
    return names, [[where[table[a][b]] for b in order] for a in order]


@st.composite
def graded_modules(draw):
    """A graded module over a relabelled S3, over Q or F_13: the basis vector
    m_t spans a component for a drawn group element and carries the trivial
    or the sign character, all conjugated by S = L U with L, U unit
    triangular and drawn off-diagonal entries, fractions over Q."""
    labels, table = draw(relabelled_s3())
    field = draw(st.sampled_from([QQ, PrimeField(13)]))
    m = draw(st.integers(1, 3))
    entry = (st.fractions(-4, 4, max_denominator=5) if field == QQ
             else st.integers(-4, 4)).map(field.coerce)
    unit_triangular = lambda upper: Matrix(field, [
        [field.one if r == c else (draw(entry) if (c > r) == upper else field.zero)
         for c in range(m)] for r in range(m)])
    S = unit_triangular(False) @ unit_triangular(True)
    S_inv = matrix_inverse(S)
    grade = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m))
    signed = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    e = next(a for a in range(6) if table[a][a] == a)
    odd = [table[a][a] == e and a != e for a in range(6)]

    def conjugated(diagonal):
        return S @ Matrix(field, [[diagonal[r] if r == c else 0 for c in range(m)]
                                  for r in range(m)]) @ S_inv
    action = {label: conjugated([-1 if signed[t] and odd[a] else 1 for t in range(m)])
              for a, label in enumerate(labels)}
    projectors = {label: conjugated([1 if grade[t] == a else 0 for t in range(m)])
                  for a, label in enumerate(labels)}
    return labels, table, field, action, projectors


def test_cayley_round_trip_property(tmp_path):
    """read_cayley gives back a relabelled S3 table, and writing what was
    read gives the same bytes."""
    path = str(tmp_path / "g.txt")

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(relabelled_s3())
    def check(case):
        labels, table = case
        write_cayley(path, labels, table)
        with open(path) as handle:
            text = handle.read()
        assert read_cayley(path) == (labels, table)
        write_cayley(path, *read_cayley(path))
        with open(path) as handle:
            assert handle.read() == text
    check()


def test_graded_module_round_trip_property(tmp_path):
    """read_graded_module gives back a random graded module over Q or F_13,
    and writing what was read gives the same bytes."""
    path = str(tmp_path / "m.txt")

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(graded_modules())
    def check(case):
        labels, table, field, action, projectors = case
        H = group_bialgebra(field, labels, table)
        GradedModule(H, [action[l] for l in labels], [projectors[l] for l in labels])
        write_graded_module(path, labels, field, action, projectors)
        with open(path) as handle:
            text = handle.read()
        assert read_graded_module(path, labels) == (field, action, projectors)
        write_graded_module(path, labels, *read_graded_module(path, labels))
        with open(path) as handle:
            assert handle.read() == text
    check()


def test_graded_module_parse_errors(tmp_path):
    path = str(tmp_path / "m.txt")

    def bad(text):
        with open(path, "w") as handle:
            handle.write(text)
        with pytest.raises(ParseError) as info:
            read_graded_module(path, ["e", "g"])
        return info.value

    exc = bad("field Q\ndim 1\naction e\n1\n")
    assert "missing action block for g" in str(exc)
    exc = bad("field Q\ndim 1\naction e\n1\naction g\n1\naction g\n1\n")
    assert "duplicate block" in str(exc)
    exc = bad("field Q\ndim 1\naction e\n1\naction h\n1\n")
    assert "unknown group label 'h'" in str(exc)
    exc = bad("field Q\ndim 1\nrows e\n1\n")
    assert "expected `action <label>`" in str(exc)
    exc = bad("field Q\ndim 0\naction e\naction g\n")
    assert str(exc) == "%s:2:1: module dimension must be positive" % path


def test_write_report_and_sidecar(tmp_path):
    path = str(tmp_path / "report.txt")
    write_report(path, "deq check\nd: true\n", [("d", "true"), ("n", "2")])
    assert open(path).read() == "deq check\nd: true\n"
    assert open(path + ".kv").read() == "d=true\nn=2\n"


def test_non_utf8_byte_is_a_parse_error_at_its_line_and_column(tmp_path):
    path = str(tmp_path / "bad.txt")
    for data, line, col in ((b"field Q\ndim 1\n\xff\n", 3, 1),
                            (b"field Q\r\ndim 1\r\n1 \xc3\xa9\xff\n", 3, 4),
                            (b"\xe2\x82", 1, 1)):
        with open(path, "wb") as handle:
            handle.write(data)
        for read in (read_matrix, read_cayley, lambda p: read_graded_module(p, ["e"])):
            with pytest.raises(ParseError) as info:
                read(path)
            assert (info.value.line, info.value.col) == (line, col), data
            assert "not valid UTF-8" in str(info.value)


# valid heads, so that the bytes after them reach the parsers past the headers
HEADS = [b"", b"field Q\ndim 1\n", b"field F 5\ndim 2\n", b"field QFUN a\ndim 1\n",
         b"group 2\nlabels e g\n", b"group 2\nlabels e g\ne g\n",
         b"field Q\ndim 1\naction e\n", b"field Q\ndim 1\naction e\n1\naction g\n"]


def test_readers_raise_only_usage_errors_on_any_bytes(tmp_path):
    """A file of any bytes is read, or refused with a UsageError (a
    ParseError for malformed text); never another exception."""
    path = str(tmp_path / "any.txt")

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.sampled_from(HEADS), st.binary(max_size=80))
    def check(head, tail):
        with open(path, "wb") as handle:
            handle.write(head + tail)
        for read in (read_matrix, read_cayley, lambda p: read_graded_module(p, ["e", "g"])):
            try:
                read(path)
            except (ParseError, UsageError):
                pass
    check()
