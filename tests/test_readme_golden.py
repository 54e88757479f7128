"""Every command in README's "Command line" block, byte for byte.

The commands are read from README.md itself, run in-process through
``cli.main`` with ``--format jsonl`` from the repository root, and their
output and exit codes are compared with the checked-in golden file.
Regenerate the golden file (after a deliberate output change) with

    PYTHONPATH=src python tests/test_readme_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex

from quintic_moduli.cli import main

from conftest import REPO_ROOT

GOLDEN = REPO_ROOT / "tests" / "golden" / "readme_commands.txt"


def readme_commands() -> list[list[str]]:
    """Argument vectors of the ``quintic-moduli`` lines in README's sh block."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "quintic-moduli":
            commands.append(argv[1:])
    return commands


def render() -> str:
    """The golden text: each command, its jsonl output and its exit code."""
    chunks = []
    for argv in readme_commands():
        argv = argv + ["--format", "jsonl"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        chunks.append(f"$ {shlex.join(argv)}\n{buf.getvalue()}exit {code}\n")
    return "".join(chunks)


def test_readme_commands_match_golden(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert len(readme_commands()) == 17
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
