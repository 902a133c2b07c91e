"""The README's examples, run as written.

The "Library use" block is executed and each bare expression in it must
equal the value its trailing comment states. Each `$ omegagj ...` console
example is run through omegagj.cli.main and its stdout compared with the
text the README shows under it (for `| tail -N`, with the last N lines).
"""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from omegagj.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(r"^```%s\n(.*?)^```$" % lang, README, re.S | re.M)


def _console_examples():
    examples = []
    for block in _blocks("console"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command, output.rstrip("\n") + "\n"))
    return examples


EXAMPLES = _console_examples()


def test_library_block_states_its_results():
    (code,) = _blocks("python")
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    lines = code.splitlines()
    checked = 0
    for node in ast.parse(code).body:
        if not isinstance(node, ast.Expr):
            continue
        comment = lines[node.end_lineno - 1].split("#", 1)[1].strip()
        stated = re.match(r"'[^']*'|\S+", comment).group(0)
        value = eval(ast.get_source_segment(code, node), namespace)
        assert value == ast.literal_eval(stated), (ast.get_source_segment(code, node), value)
        checked += 1
    assert checked == 4


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_console_example(command, expected):
    command, _, pipe = command.partition(" | ")
    argv = shlex.split(command)
    assert argv[0] == "omegagj"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv[1:]) == 0
    out = buf.getvalue()
    if pipe:
        m = re.fullmatch(r"tail -(\d+)", pipe.strip())
        assert m, pipe
        out = "".join(out.splitlines(keepends=True)[-int(m.group(1)):])
    assert out == expected
