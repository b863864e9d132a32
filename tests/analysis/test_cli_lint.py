"""`repro lint` CLI contract: exit codes 0/1/2, reports, options."""

from __future__ import annotations

import json
import re
import textwrap

import pytest

from repro.analysis import ALL_RULES
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
    assert main(["lint", str(target)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_exit_1_on_findings(tmp_path, capsys):
    target = write(tmp_path, "bad.py", VIOLATION)
    assert main(["lint", str(target)]) == 1
    out = capsys.readouterr().out
    assert "RPL001" in out


def test_exit_2_on_missing_path(capsys):
    assert main(["lint", "no/such/path.py"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--format", "yaml"])
    assert excinfo.value.code == 2


def test_json_format_and_output_file(tmp_path, capsys):
    target = write(tmp_path, "bad.py", VIOLATION)
    out_file = tmp_path / "lint.json"
    code = main(
        ["lint", str(target), "--format", "json", "--output", str(out_file)]
    )
    assert code == 1
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert stdout_payload == file_payload
    assert file_payload["summary"]["findings"] == 1
    assert file_payload["findings"][0]["rule"] == "RPL001"


def test_output_file_written_even_with_text_format(tmp_path, capsys):
    target = write(tmp_path, "bad.py", VIOLATION)
    out_file = tmp_path / "lint.json"
    main(["lint", str(target), "--output", str(out_file)])
    capsys.readouterr()
    assert json.loads(out_file.read_text(encoding="utf-8"))["tool"] == "repro-lint"


def test_github_format(tmp_path, capsys):
    target = write(tmp_path, "bad.py", VIOLATION)
    assert main(["lint", str(target), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=" in out
    assert "title=repro-lint RPL001::" in out


def test_help_names_the_registered_rules(capsys):
    with pytest.raises(SystemExit):
        main(["lint", "--help"])
    out = capsys.readouterr().out
    named = set()
    for group in re.findall(r"RPL\d{3}(?:/\d{3})*", out):
        head, *rest = group.split("/")
        named |= {head, *(f"RPL{n}" for n in rest)}
    assert named == set(ALL_RULES) == {"RPL001", "RPL002"}


def test_help_lists_only_paths_format_and_output(capsys):
    with pytest.raises(SystemExit):
        main(["lint", "--help"])
    out = capsys.readouterr().out
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == {
        "--help", "--format", "--output"
    }
    assert "paths" in out


@pytest.mark.parametrize(
    "flag",
    ["--flow", "--no-flow", "--baseline=x.json", "--no-baseline", "--write-baseline"],
)
def test_removed_options_are_unknown_arguments(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", flag])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
