"""Text file formats: matrices, Cayley tables, graded modules, reports."""

from .fields import UsageError, field_from_header, read_int
from .linalg import Matrix


class ParseError(UsageError):
    """Malformed input file; carries path, line and column (1-based)."""

    def __init__(self, path, line, col, message):
        super().__init__("%s:%d:%d: %s" % (path, line, col, message))
        self.path = path
        self.line = line
        self.col = col


class _Reader:
    """Line cursor over a text file, skipping blanks and # comments."""

    def __init__(self, path, text):
        self.path = path
        self.lines = text.splitlines()
        self.pos = 0

    def next_line(self, what):
        while self.pos < len(self.lines):
            self.pos += 1
            stripped = self.lines[self.pos - 1].strip()
            if stripped and not stripped.startswith("#"):
                return stripped
        raise ParseError(self.path, len(self.lines) + 1, 1,
                         "unexpected end of file, expected %s" % what)

    def at_end(self):
        k = self.pos
        while k < len(self.lines):
            stripped = self.lines[k].strip()
            if stripped and not stripped.startswith("#"):
                return False
            k += 1
        return True

    def fail(self, message, col=1):
        raise ParseError(self.path, self.pos, col, message)

    def end(self):
        """Refuse any content after what the format holds, at its first line."""
        if not self.at_end():
            self.next_line("the end of the file")
            self.fail("unexpected content after the last row")

    def number(self, text, what):
        """The decimal integer `text` read by read_int, a ParseError here if bad."""
        try:
            return read_int(text, what)
        except UsageError as exc:
            self.fail(str(exc))


def _open_reader(path):
    """The _Reader over the file at path, decoded as UTF-8. A byte sequence
    that is not UTF-8 is a ParseError at the line and column where it starts."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return _Reader(path, data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes; "?" stands in for that byte
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(path, len(lines), len(lines[-1]),
                         "not valid UTF-8 (byte 0x%02x)" % data[exc.start]) from None


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _split_row(line, ncols):
    # commas when any are present (function-field entries contain spaces),
    # and a one-column row is one entry: write_matrix puts no comma in it
    if "," in line or ncols == 1:
        return [part.strip() for part in line.split(",")]
    return line.split()


def _keyword_line(reader, keyword):
    line = reader.next_line("`%s ...`" % keyword)
    if not line.startswith(keyword + " ") and line != keyword:
        reader.fail("expected `%s ...`, got %r" % (keyword, line))
    return line[len(keyword):].strip()


def _parse_entry(reader, field, text, col):
    try:
        return field.parse(text)
    except UsageError as exc:
        raise ParseError(reader.path, reader.pos, col, str(exc))


def _parse_matrix_rows(reader, field, nrows, ncols):
    rows = []
    for _ in range(nrows):
        line = reader.next_line("a matrix row")
        parts = _split_row(line, ncols)
        if len(parts) != ncols:
            reader.fail("expected %d entries, got %d" % (ncols, len(parts)))
        row = []
        for j, part in enumerate(parts):
            row.append(_parse_entry(reader, field, part, j + 1))
        rows.append(row)
    return Matrix(field, rows, coerce=False)


def _show_matrix_rows(field, mat):
    sep = ", " if field.header().startswith("QFUN") else " "
    return [sep.join(field.show(v) for v in row) for row in mat.rows]


def read_matrix(path):
    """Read an operator file: field header, dim n, then n^2 rows of n^2 entries."""
    from .tensor_ops import EndoPair
    reader = _open_reader(path)
    field = _parse_field_header(reader)
    n = reader.number(_keyword_line(reader, "dim"), "dimension")
    if n < 1:
        reader.fail("dimension must be positive")
    mat = _parse_matrix_rows(reader, field, n * n, n * n)
    reader.end()
    return EndoPair.from_matrix(mat)


def _parse_field_header(reader):
    payload = _keyword_line(reader, "field")
    try:
        return field_from_header(payload)
    except UsageError as exc:
        raise ParseError(reader.path, reader.pos, 1, str(exc))


def write_matrix(path, R):
    """Write an operator in the format read_matrix reads."""
    _write_text(path, matrix_text(R))


def matrix_text(R):
    """The exact text write_matrix would emit."""
    lines = ["field %s" % R.field.header(), "dim %d" % R.n]
    lines.extend(_show_matrix_rows(R.field, R.matrix()))
    return "\n".join(lines) + "\n"


def read_cayley(path):
    """Read a Cayley table: `group <k>`, `labels ...`, then k rows of k labels."""
    reader = _open_reader(path)
    order = reader.number(_keyword_line(reader, "group"), "group order")
    if order < 1:
        reader.fail("group order must be positive")
    labels = _keyword_line(reader, "labels").split()
    if len(labels) != order:
        reader.fail("expected %d labels, got %d" % (order, len(labels)))
    if len(set(labels)) != order:
        reader.fail("labels are not distinct")
    index = {label: i for i, label in enumerate(labels)}
    table = []
    for _ in range(order):
        parts = reader.next_line("a Cayley table row").split()
        if len(parts) != order:
            reader.fail("expected %d labels, got %d" % (order, len(parts)))
        row = []
        for j, part in enumerate(parts):
            if part not in index:
                reader.fail("unknown label %r" % part, col=j + 1)
            row.append(index[part])
        table.append(row)
    reader.end()
    return labels, table


def write_cayley(path, labels, table):
    """Write a Cayley table in the format read_cayley reads."""
    lines = ["group %d" % len(labels), "labels %s" % " ".join(labels)]
    for row in table:
        lines.append(" ".join(labels[v] for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def read_graded_module(path, labels):
    """Read a graded module over the group with the given labels.

    Format: field header, `dim <m>`, one `action <label>` block of m rows per
    group element, then `component <label>` projector blocks (absent labels
    mean the zero projector).
    """
    reader = _open_reader(path)
    field = _parse_field_header(reader)
    m = reader.number(_keyword_line(reader, "dim"), "module dimension")
    if m < 1:
        reader.fail("module dimension must be positive")
    wanted = set(labels)
    action = {}
    projectors = {}
    while not reader.at_end():
        line = reader.next_line("an action or component block")
        if line.startswith("action "):
            label = line[len("action "):].strip()
            store = action
        elif line.startswith("component "):
            label = line[len("component "):].strip()
            store = projectors
        else:
            reader.fail("expected `action <label>` or `component <label>`, got %r" % line)
        if label not in wanted:
            reader.fail("unknown group label %r" % label)
        if label in store:
            reader.fail("duplicate block for %r" % label)
        store[label] = _parse_matrix_rows(reader, field, m, m)
    missing = [label for label in labels if label not in action]
    if missing:
        raise ParseError(path, reader.pos, 1,
                         "missing action block for %s" % ", ".join(missing))
    zero = Matrix.zeros(field, m, m)
    full_projectors = {label: projectors.get(label, zero) for label in labels}
    return field, action, full_projectors


def write_graded_module(path, labels, field, action, projectors):
    """Write a graded module in the format read_graded_module reads."""
    lines = ["field %s" % field.header(), "dim %d" % next(iter(action.values())).nrows]
    for label in labels:
        lines.append("action %s" % label)
        lines.extend(_show_matrix_rows(field, action[label]))
    for label in labels:
        proj = projectors[label]
        if not proj.is_zero():
            lines.append("component %s" % label)
            lines.extend(_show_matrix_rows(field, proj))
    _write_text(path, "\n".join(lines) + "\n")


def write_report(path, text, kv):
    """Write a plain-text report plus a `<path>.kv` sidecar of key=value lines."""
    _write_text(path, text)
    _write_text(path + ".kv", "".join("%s=%s\n" % (key, value) for key, value in kv))
