"""The README, run: every command of its CLI block, the examples its prose
names at the exit status the prose gives them, its config example and its
library example.  The README is read when the tests run, so a claim it
makes that the program does not keep fails here."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pqsim.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    """The text of one ``##`` or ``###`` section, up to the next heading."""
    match = re.search(rf"^#+ {re.escape(title)}\n(.*?)(?=^#+ |\Z)", README, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def _block(title: str, language: str) -> str:
    """The first fenced ``language`` block of a section."""
    match = re.search(rf"^```{language}\n(.*?)^```", _section(title), re.M | re.S)
    assert match, f"README section {title!r} has no {language} block"
    return match.group(1)


def _cli_lines() -> list[str]:
    """The ``pqsim demo|check|list-devices`` commands of the CLI block, comments dropped."""
    commands = [line.split("#")[0].split() for line in _block("CLI", "sh").splitlines()]
    return [" ".join(words[1:]) for words in commands
            if words[:1] == ["pqsim"] and words[1] in ("demo", "check", "list-devices")]


@pytest.fixture(autouse=True)
def _default_seed(monkeypatch):
    monkeypatch.delenv("PQSIM_SEED", raising=False)


def test_cli_block_lists_every_command_kind():
    kinds = {line.split()[0] for line in _cli_lines()}
    assert kinds == {"demo", "check", "list-devices"}


@pytest.mark.parametrize("command", _cli_lines())
def test_cli_block_command_exits_zero(command, capsys):
    assert main(command.split()) == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err


@pytest.mark.parametrize("command,status", [
    ("demo tomography --d 3", 2),
    ("demo no-signalling --m 3", 2),
    ("check closure --d 3", 2),
    ("demo fpvnem --m 9", 2),
    ("demo cloning --m 53", 2),
    ("check closure --family entropy_meter --m 9", 2),
    ("check closure --m 9", 0),
    ("check closure --family quantum_povm --m 0", 0),
    ("demo cloning --d 4 --m 1", 1),
])
def test_prose_example_exits_as_stated(command, status, capsys):
    assert f"`{command}`" in README
    assert main(command.split()) == status
    err = capsys.readouterr().err
    assert ("configuration error" in err) == (status == 2)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_write_failure_example_exits_two():
    command = "pqsim demo no-signalling > /dev/full"
    assert f"`{command}`" in README
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "pqsim.cli", *command.split()[1:3]],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert done.returncode == 2
    assert f"`{done.stderr.strip()}`" in README


def test_config_example_runs(tmp_path, monkeypatch, capsys):
    config = tmp_path / "experiment.pq"
    config.write_text(_block("Config format", "ini"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(config)]) == 0
    assert capsys.readouterr().out == ""  # output.path names the record file
    records = (tmp_path / "out.records").read_text(encoding="utf-8").splitlines()
    assert sum("record=repetition" in record for record in records) == 10  # action.repetitions


def test_library_example_runs():
    """Each bare expression of the example is evaluated: the Bell state's
    entropy is one bit, and the eigenvalue draw is +-1, the state untouched."""
    tree = ast.parse(_block("Library example", "python"))
    scope, values, before = {}, [], None
    for statement in tree.body:
        if isinstance(statement, ast.Expr):
            values.append(eval(compile(ast.Expression(statement.value), "README", "eval"), scope))
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"), scope)
        if before is None and "bell" in scope:
            before = scope["bell"].amplitudes.copy()
    entropy, draw = values
    assert entropy == pytest.approx(1.0)  # prints 0.9999999999999999
    assert draw.value in (1.0, -1.0)
    assert scope["bell"].amplitudes.tobytes() == before.tobytes()
