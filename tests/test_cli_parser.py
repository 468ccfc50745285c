"""The command line's surface: help, usage errors and the parsers one call
builds."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import embcom
from embcom.cli import main

COMMANDS = {
    "field": "dump the reliability field grid and polar profile",
    "codebook": "emit the hexagonal design or verify a CSV",
    "sweep": "rate and L* sweeps over the configured grids",
    "bounds": "all converse bounds per sweep point",
    "lstar": "optimal snapshot count versus SNR",
    "simulate": "Monte Carlo error estimation",
}
USAGE = ("usage: embcom [-h] [--config PATH] [--set KEY=VALUE] [--out DIR] "
         "[--seed N]")


def exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_help_names_every_command(capsys):
    assert exit_code(["-h"]) == 0
    out = capsys.readouterr().out
    for name, line in COMMANDS.items():
        assert re.search(rf"^\s+{name}\s+{re.escape(line)}$", out, re.M), name


@pytest.mark.parametrize("command, options", [
    ("codebook", ["--verify CSV"]),
    ("simulate", ["--codebook CSV", "--self-test-corrupt"]),
    ("field", []),
])
def test_command_help_shows_its_options(capsys, command, options):
    assert exit_code([command, "-h"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: embcom {command} [-h]")
    for option in options:
        assert option in out
    assert "--config" not in out  # global options come before the command


@pytest.mark.parametrize("argv, message", [
    (["field", "--out", "x"], "unrecognized arguments: --out x"),
    (["field", "--verify", "x"], "unrecognized arguments: --verify x"),
    (["--bogus", "codebook", "--codebook", "x"],
     "unrecognized arguments: --bogus --codebook x"),
    ([], "the following arguments are required: command"),
    (["nosuchcommand"], "argument command: invalid choice: 'nosuchcommand'"),
])
def test_usage_errors_exit_1_with_the_top_level_usage(tmp_path, monkeypatch,
                                                       capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert exit_code(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(USAGE)
    assert f"error: {message}" in err
    assert list(tmp_path.iterdir()) == []


def test_command_option_errors_show_the_command_usage(capsys):
    assert exit_code(["codebook", "--verify"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: embcom codebook [-h] [--verify CSV]")
    assert "error: argument --verify: expected one argument" in err


def test_each_call_builds_two_parsers_of_its_own(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)  # kept, so no two parsers share an id
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    calls = [["field"], ["codebook", "--verify", "x.csv"], ["sweep"],
             ["bounds"], ["lstar"],
             ["simulate", "--codebook", "x.csv", "--self-test-corrupt"],
             ["field"], ["codebook", "--verify", "x.csv"]]
    for argv in calls:
        start = len(built)
        # an unknown key fails after parsing, before any computation
        assert main(["--out", str(tmp_path), "--set", "scene.bogus=1",
                     *argv]) == 1
        # the global parser and the command's own, none kept from a call
        # before
        assert [p.prog for p in built[start:]] == ["embcom",
                                                   f"embcom {argv[0]}"]
    assert len({id(p) for p in built}) == len(built)


def _run_python(*args):
    """A fresh interpreter that imports embcom from this checkout."""
    src = Path(embcom.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_module_entry_point_runs():
    proc = _run_python("-m", "embcom.cli", "-h")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: embcom")
    assert all(name in proc.stdout for name in COMMANDS)


def test_cli_import_loads_only_stdlib_numpy_and_embcom():
    # a fresh interpreter's import of the CLI is the start-up cost of every
    # command; a third-party import there (scipy, say) would add to it
    proc = _run_python("-c", "import sys; before = set(sys.modules); "
                       "import embcom.cli; print(*sorted({m.split('.')[0] "
                       "for m in set(sys.modules) - before}))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"numpy", "embcom"} <= loaded
    assert loaded - set(sys.stdlib_module_names) == {"numpy", "embcom"}
