"""Prints one PASS/FAIL line per acceptance criterion after the run, and
under it each (value, comparison, bound) the criterion passed to
`record_bound`, with the margin by which the value clears the bound
(negative when it does not)."""

import pytest

_acceptance_results: dict[str, tuple[str, list]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _acceptance_results[name] = ("PASS" if report.passed else "FAIL", report.user_properties)


@pytest.fixture
def record_bound(request):
    """`record_bound(what, value, op, bound)` stores the comparison on the
    test's report for the summary.  It appends to `user_properties` itself
    because pytest's `record_property` warns under the default xunit2
    junit family, and this suite turns warnings into errors."""
    def record(what: str, value: float, op: str, bound: float) -> None:
        request.node.user_properties.append((what, (value, op, bound)))
    return record


def _margin(value: float, op: str, bound: float) -> float:
    return bound - value if op in ("<", "<=") else value - bound


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_acceptance_results):
        status, properties = _acceptance_results[name]
        terminalreporter.write_line(f"{status:4s}  {name}")
        for what, (value, op, bound) in properties:
            terminalreporter.write_line(
                f"      {what}: {value:.5g} {op} {bound:.5g}"
                f" (margin {_margin(value, op, bound):+.5g})")
