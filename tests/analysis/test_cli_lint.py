"""`repro lint` CLI contract: exit codes 0/1/2, reports, baseline flags."""

from __future__ import annotations

import json
import re
import textwrap

import pytest

from repro.analysis import ALL_RULES, FLOW_RULES
from repro.cli import main

CLEAN = "def work(x):\n    return x + 1\n"

VIOLATION = textwrap.dedent(
    """
    def run(executor, items):
        return executor.map(lambda x: x + 1, items)
    """
).lstrip("\n")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_exit_0_on_clean_tree(tmp_path, capsys):
    target = write(tmp_path, "clean.py", CLEAN)
    assert main(["lint", str(target), "--no-baseline"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_exit_1_on_findings(tmp_path, capsys):
    target = write(tmp_path, "bad.py", VIOLATION)
    assert main(["lint", str(target), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "RPL001" in out


def test_exit_2_on_missing_path(capsys):
    assert main(["lint", "no/such/path.py"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_exit_2_on_unloadable_baseline(tmp_path, capsys):
    target = write(tmp_path, "clean.py", CLEAN)
    assert main(["lint", str(target), "--baseline", str(tmp_path / "nope.json")]) == 2
    assert "cannot load baseline" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--format", "yaml"])
    assert excinfo.value.code == 2


def test_json_format_and_output_file(tmp_path, capsys):
    target = write(tmp_path, "bad.py", VIOLATION)
    out_file = tmp_path / "lint.json"
    code = main(
        ["lint", str(target), "--no-baseline", "--format", "json",
         "--output", str(out_file)]
    )
    assert code == 1
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert stdout_payload == file_payload
    assert file_payload["summary"]["new"] == 1
    assert file_payload["findings"][0]["rule"] == "RPL001"


def test_output_file_written_even_with_text_format(tmp_path, capsys):
    target = write(tmp_path, "bad.py", VIOLATION)
    out_file = tmp_path / "lint.json"
    main(["lint", str(target), "--no-baseline", "--output", str(out_file)])
    capsys.readouterr()
    assert json.loads(out_file.read_text(encoding="utf-8"))["tool"] == "repro-lint"


TRANSITIVE = textwrap.dedent(
    """
    def make_work():
        return lambda x: x + 1

    def run(executor, items):
        work = make_work()
        return executor.map(work, items)
    """
).lstrip("\n")

TWO_LOCK_CYCLE = textwrap.dedent(
    """
    import threading
    a_lock = threading.Lock()
    b_lock = threading.Lock()

    def one():
        with a_lock:
            with b_lock:
                pass

    def two():
        with b_lock:
            with a_lock:
                pass
    """
).lstrip("\n")


def test_flow_flag_enables_rpl01x(tmp_path, capsys):
    target = write(tmp_path, "transitive.py", TRANSITIVE)
    # Without --flow the transitive closure is invisible...
    assert main(["lint", str(target), "--no-baseline"]) == 0
    capsys.readouterr()
    # ...with it, RPL010 fires and prints the witness chain.
    assert main(["lint", str(target), "--flow", "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "RPL010" in out
    assert "via " in out
    assert "[flow pass on]" in out


def test_no_flow_flag_overrides(tmp_path, capsys):
    target = write(tmp_path, "transitive.py", TRANSITIVE)
    assert main(
        ["lint", str(target), "--flow", "--no-flow", "--no-baseline"]
    ) == 0
    capsys.readouterr()


def test_flow_lock_cycle_from_cli(tmp_path, capsys):
    target = write(tmp_path, "locks.py", TWO_LOCK_CYCLE)
    assert main(["lint", str(target), "--flow", "--no-baseline"]) == 1
    assert "RPL012" in capsys.readouterr().out


def test_github_format(tmp_path, capsys):
    target = write(tmp_path, "bad.py", VIOLATION)
    assert main(
        ["lint", str(target), "--no-baseline", "--format", "github"]
    ) == 1
    out = capsys.readouterr().out
    assert "::error file=" in out
    assert "title=repro-lint RPL001::" in out


def test_github_format_includes_witness_chain(tmp_path, capsys):
    target = write(tmp_path, "transitive.py", TRANSITIVE)
    main(
        ["lint", str(target), "--flow", "--no-baseline", "--format", "github"]
    )
    out = capsys.readouterr().out
    assert "[witness:" in out


def test_json_output_carries_chain(tmp_path, capsys):
    target = write(tmp_path, "transitive.py", TRANSITIVE)
    out_file = tmp_path / "lint.json"
    main(
        ["lint", str(target), "--flow", "--no-baseline", "--format", "json",
         "--output", str(out_file)]
    )
    capsys.readouterr()
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert payload["flow"] is True
    rpl010 = [f for f in payload["findings"] if f["rule"] == "RPL010"]
    assert rpl010 and len(rpl010[0]["chain"]) >= 2
    assert set(rpl010[0]["chain"][0]) == {"file", "line", "note"}


def test_write_baseline_prunes_fixed_entries(tmp_path, capsys):
    target = write(tmp_path, "bad.py", VIOLATION)
    baseline = tmp_path / "baseline.json"

    assert main(
        ["lint", str(target), "--baseline", str(baseline), "--write-baseline",
         "--no-baseline"]
    ) == 0
    capsys.readouterr()
    assert json.loads(baseline.read_text(encoding="utf-8"))["entries"]

    # Fix the site, rewrite: the stale zero-count entry must vanish.
    write(tmp_path, "bad.py", CLEAN)
    assert main(
        ["lint", str(target), "--baseline", str(baseline), "--write-baseline",
         "--no-baseline"]
    ) == 0
    capsys.readouterr()
    assert json.loads(baseline.read_text(encoding="utf-8"))["entries"] == []


def test_write_baseline_keeps_out_of_scope_entries(tmp_path, capsys):
    bad = write(tmp_path, "bad.py", VIOLATION)
    other = write(tmp_path, "other.py", VIOLATION)
    baseline = tmp_path / "baseline.json"

    # Baseline both files, then rewrite scanning only one of them.
    assert main(
        ["lint", str(bad), str(other), "--baseline", str(baseline),
         "--write-baseline", "--no-baseline"]
    ) == 0
    capsys.readouterr()
    write(tmp_path, "bad.py", CLEAN)
    assert main(
        ["lint", str(bad), "--baseline", str(baseline), "--write-baseline",
         "--no-baseline"]
    ) == 0
    capsys.readouterr()
    entries = json.loads(baseline.read_text(encoding="utf-8"))["entries"]
    # bad.py's entry pruned; other.py's survives untouched.
    assert [e["file"].endswith("other.py") for e in entries] == [True]


def test_write_baseline_then_ratchet(tmp_path, capsys):
    target = write(tmp_path, "bad.py", VIOLATION)
    baseline = tmp_path / "baseline.json"

    # Capture the current findings as the baseline...
    assert main(
        ["lint", str(target), "--baseline", str(baseline), "--write-baseline",
         "--no-baseline"]
    ) == 0
    capsys.readouterr()

    # ...after which the same tree is green...
    assert main(["lint", str(target), "--baseline", str(baseline)]) == 0
    capsys.readouterr()

    # ...but one more violation of the same rule still fails.
    write(
        tmp_path,
        "bad.py",
        VIOLATION + "\n\ndef again(executor, items):\n"
        "    return executor.map(lambda x: x - 1, items)\n",
    )
    assert main(["lint", str(target), "--baseline", str(baseline)]) == 1
    assert "RPL001" in capsys.readouterr().out


def test_help_names_the_registered_rules(capsys):
    with pytest.raises(SystemExit):
        main(["lint", "--help"])
    out = capsys.readouterr().out
    named = set()
    for group in re.findall(r"RPL\d{3}(?:/\d{3})*", out):
        head, *rest = group.split("/")
        named |= {head, *(f"RPL{n}" for n in rest)}
    assert named == set(ALL_RULES) | set(FLOW_RULES)
