"""The CI gate .github/check_failures.py, run as a script on JUnit reports."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "check_failures.py"
FAILURE = '<failure message="AssertionError">assert False</failure>'


def case(name, body="", classname="tests.test_acceptance"):
    return f'<testcase classname="{classname}" name="{name}" time="0.1">{body}</testcase>'


DOCUMENTED = [
    case("test_criterion_7_disjoint_two_paths", FAILURE),
    case("test_criterion_10_compression_gap", FAILURE),
]
PASSING = case("test_roundtrip", classname="tests.test_core")


def other(body):
    return case("test_other", body, classname="tests.test_core")


@pytest.mark.parametrize("cases, code", [
    (DOCUMENTED + [PASSING], 0),
    (DOCUMENTED + [PASSING, other(FAILURE)], 1),
    (DOCUMENTED + [PASSING, other('<error message="fixture failed"/>')], 1),
    (DOCUMENTED + [PASSING, other('<skipped message="skipped"/>')], 1),
    ([DOCUMENTED[0], case("test_criterion_10_compression_gap"), PASSING], 1),
    ([], 1),
], ids=["documented", "failure", "error", "skipped", "documented-passes", "empty"])
def test_gate_exit_code(tmp_path, monkeypatch, cases, code):
    report = tmp_path / "tier1.xml"
    report.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites>'
        f'<testsuite name="pytest" tests="{len(cases)}">{"".join(cases)}</testsuite>'
        "</testsuites>",
        encoding="utf-8",
    )
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), str(report)])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert info.value.code == code


def test_ci_profile_derandomizes_properties():
    # tests/conftest.py loads the "ci" profile when CI is set
    import os

    from hypothesis import settings

    ci = settings.get_profile("ci")
    assert ci.derandomize
    assert ci.max_examples == settings.get_profile("default").max_examples
    if os.environ.get("CI"):
        assert settings.default.derandomize
