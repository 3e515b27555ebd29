"""The README's examples run: every ptbilayer command and the Library block."""

import re
import shlex
from pathlib import Path

import pytest

from ptbilayer.sweep_cli import cli_main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced(text):
    """(language, body) of each fenced block in text."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", text, flags=re.S | re.M)


def shell_commands(blocks):
    """The ptbilayer command lines of the unlabelled blocks, continuations
    joined and comment lines dropped."""
    commands = []
    for language, body in blocks:
        if language:
            continue
        text = re.sub(r"\\\n\s*", "", body)
        commands += [line.strip() for line in text.splitlines()
                     if line.strip().startswith("ptbilayer ")]
    return commands


COMMANDS = shell_commands(fenced(README))


def test_the_readme_has_examples():
    assert sum(c.split()[1] == "sweep" for c in COMMANDS) >= 5
    assert sum(c.split()[1] == "locate" for c in COMMANDS) == 7


@pytest.mark.parametrize("command", COMMANDS,
                         ids=[f"{i}-{c.split()[1]}" for i, c in enumerate(COMMANDS)])
def test_readme_command_exits_0(command, tmp_path, capsys):
    argv = shlex.split(command)[1:]
    if "--out" in argv:   # written under tmp_path, not into the working tree
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / Path(argv[i]).name)
    rc = cli_main(argv)
    assert rc == 0, capsys.readouterr().err


def test_readme_library_block_runs():
    section = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    [code] = [body for language, body in fenced(section) if language == "python"]
    namespace = {}
    exec(compile(code, "README.md (Library)", "exec"), namespace)
    assert {"s", "flux", "s_eff", "flux_eff", "roots", "lam"} <= set(namespace)
