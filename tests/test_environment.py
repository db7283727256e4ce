"""The settings that `deq` takes from the environment, DEQ_MAX_N and
DEQ_BUDGET, are read by the command line alone: every other module of the
package answers from its arguments."""

import ast

from test_exports import package_paths

# os.environ and os.getenv read the environment; env_positive_int is the
# command line's reader of a positive setting
READERS = {"environ", "environb", "getenv", "getenvb", "env_positive_int"}


def environment_reads(path):
    """(line, name) of each place where the file names an environment reader."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in READERS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in READERS:
            yield node.lineno, node.id
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in READERS:
                    yield node.lineno, alias.name


def test_only_the_command_line_reads_the_environment():
    reads = ["%s:%d %s" % (path.name, line, name)
             for path in package_paths() if path.name != "cli.py"
             for line, name in environment_reads(path)]
    assert reads == [], "the environment is read outside deq.cli: %s" % ", ".join(reads)
    cli = next(path for path in package_paths() if path.name == "cli.py")
    assert {name for _, name in environment_reads(cli)} == {"environ", "env_positive_int"}
