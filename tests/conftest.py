"""Prints one PASS/FAIL line per acceptance criterion after the run, and
under it each (value, comparison, bound) the criterion passed to
`record_bound`, with the margin by which the value clears the bound
(negative when it does not), and the per-seed metrics of each trained
cell whose mean it compares, as `trained_mean` recorded them."""

import pytest

from trained_cells import SEEDS, mean_metric, seed_metrics

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


@pytest.fixture
def trained_mean(request):
    """`trained_mean(task, bits, noise=None)` is `mean_metric` of that
    cell, and stores the cell's per-seed metrics on the test's report for
    the summary, so a margin can be read against the seed spread."""
    def mean(task: str, bits, noise=None) -> float:
        cell = f"{task} {'/'.join(map(str, bits)) if bits else 'fp'}"
        if noise is not None:
            cell += (f" beta {noise.weight_noise_beta}, ADC noise "
                     f"{'on' if noise.adc_noise_enabled else 'off'}")
        request.node.user_properties.append((cell, seed_metrics(task, bits, noise)))
        return mean_metric(task, bits, noise)
    return mean


def _line(what: str, recorded: tuple) -> str:
    if isinstance(recorded[1], str):  # (value, op, bound) from record_bound
        value, op, bound = recorded
        margin = bound - value if op in ("<", "<=") else value - bound
        return f"{what}: {value:.5g} {op} {bound:.5g} (margin {margin:+.5g})"
    seeds = " ".join(map(str, SEEDS))
    return f"{what}, seeds {seeds}: {', '.join(f'{v:.5g}' for v in recorded)}"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_acceptance_results):
        status, properties = _acceptance_results[name]
        terminalreporter.write_line(f"{status:4s}  {name}")
        for what, recorded in properties:
            terminalreporter.write_line(f"      {_line(what, recorded)}")
