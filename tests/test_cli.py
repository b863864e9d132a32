"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


def test_demo_prints_appendix_table(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "Eq.(9)" in out
    assert "22/3" in out  # the {t1} row's exact value
    assert "collective selection" in out


def test_generate_then_select(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    assert (
        main(
            [
                "generate",
                str(path),
                "--primitives",
                "3",
                "--pi-corresp",
                "50",
                "--seed",
                "4",
            ]
        )
        == 0
    )
    assert path.exists()
    assert main(["select", str(path)]) == 0
    out = capsys.readouterr().out
    for method in ("collective", "greedy", "all-candidates", "exact", "independent", "gold"):
        assert method in out


def test_select_single_method(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    main(["generate", str(path), "--primitives", "2", "--seed", "1"])
    assert main(["select", str(path), "--method", "greedy"]) == 0
    out = capsys.readouterr().out
    assert "greedy" in out
    assert "exact" not in out


def test_sweep_prints_levels(capsys):
    assert (
        main(
            [
                "sweep",
                "--noise",
                "pi_errors",
                "--primitives",
                "2",
                "--rows",
                "6",
                "--seeds",
                "1",
                "--levels",
                "0",
                "50",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "pi_errors" in out
    assert "collective" in out


def test_select_solver_knobs(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    main(["generate", str(path), "--primitives", "2", "--seed", "1"])
    assert (
        main(
            [
                "select",
                str(path),
                "--method",
                "collective",
                "--ground-shard-size",
                "8",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "collective" in out


def test_sweep_solver_knobs(capsys):
    assert (
        main(
            [
                "sweep",
                "--primitives",
                "2",
                "--rows",
                "6",
                "--seeds",
                "1",
                "--levels",
                "0",
                "--ground-shard-size",
                "4",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "collective" in out


@pytest.mark.parametrize("command", ["select", "sweep"])
def test_no_solve_executor_flags(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert "--solve-" not in out
    # Grounding runs on the calling thread: shard size is its only knob.
    assert set(re.findall(r"--ground-[a-z-]+", out)) == {"--ground-shard-size"}
    # Grid cells are the only parallel work: select builds serially.
    assert ("--executor" in out) == (command == "sweep")


def test_generate_respects_kind_restriction(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    main(["generate", str(path), "--primitives", "2", "--kinds", "CP", "--seed", "2"])
    out = capsys.readouterr().out
    assert "CP,CP" in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_missing_required_argument_exits():
    with pytest.raises(SystemExit):
        main(["generate"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--primitives", "0", "{tmp}/x.json"], "repro generate: error: "),
        (["sweep", "--executor", "process:0"], "repro sweep: error: "),
        (["select", "{tmp}/missing.json"], "repro select: error: "),
    ],
)
def test_library_and_io_errors_exit_2_without_traceback(tmp_path, capsys, argv, message):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err


def test_chain_rejects_negative_steps(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["chain", "--steps", "-3"])
    assert excinfo.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err
