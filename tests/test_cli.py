"""Tests for the command-line interface."""

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


def _assert_usage_error(argv, capsys, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_select_solver_knobs(tmp_path, capsys):
    # select has no grounding knobs: the removed ones are usage errors.
    path = tmp_path / "scenario.json"
    main(["generate", str(path), "--primitives", "2", "--seed", "1"])
    capsys.readouterr()
    for flag in ("--ground-shard-size=8", "--no-incremental"):
        argv = ["select", str(path), "--method", "collective", flag]
        _assert_usage_error(argv, capsys, flag)


def test_sweep_solver_knobs(capsys):
    # sweep has no grounding knobs: the removed ones are usage errors.
    for flag in ("--ground-shard-size=4", "--no-incremental"):
        argv = ["sweep", "--primitives", "2", "--seeds", "1", flag]
        _assert_usage_error(argv, capsys, flag)


def test_chain_keeps_only_no_incremental(capsys):
    flag = "--ground-shard-size=4"
    _assert_usage_error(["chain", flag], capsys, flag)
    argv = ["chain", "--primitives", "2", "--rows", "6", "--seed", "1", "--steps", "2"]
    assert main([*argv, "--no-incremental"]) == 0
    out = capsys.readouterr().out
    assert "incremental=off, patched 0/3 misses" in out


@pytest.mark.parametrize("command", ["select", "sweep"])
def test_no_solve_executor_flags(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert "--solve-" not in out
    # Grounding runs on the calling thread and has no knob.
    assert "--ground-" not in out
    assert "--no-incremental" not in out
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


def test_lint_is_not_a_command(capsys):
    # The RPL001/RPL002 checks are the tier-1 module tests/test_invariants.py.
    with pytest.raises(SystemExit) as excinfo:
        main(["lint"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'lint'" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "spec, message",
    [
        ("1,-1,1", "must be non-negative"),
        ("1,1", "expected explains,errors,size"),
        ("1,x,1", "Invalid literal"),
        ("1/0,1,1", "bad weight setting"),
    ],
)
def test_weight_sweep_rejects_bad_grid_as_usage_error(spec, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["weight-sweep", "--grid", spec])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "repro weight-sweep: error: argument --grid: " in err
    assert message in err
    assert "Traceback" not in err
