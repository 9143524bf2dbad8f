"""The one worst-deviation rule behind every cross-check, and a NaN that fails it.

Each check in phasekey.checks yields its deviations and checks._check keeps
the worst.  A NaN anywhere must make that worst NaN, so the check fails and
oracle-check exits 2; Python's max(0.0, nan) is 0.0 and would hide it.
"""

import math

import pytest

from phasekey import checks, cli
from phasekey.checks import CheckResult, FAST_CHECKS, FULL_ONLY_CHECKS


def test_a_nan_deviation_is_the_worst_and_fails():
    @checks._check("toy", 1.0)
    def toy():
        yield from (0.1, math.nan, 0.2)

    result = toy()
    assert result.name == "toy" and result.tolerance == 1.0
    assert math.isnan(result.deviation) and not result.passed


def test_the_worst_deviation_is_the_largest_and_none_is_zero():
    @checks._check("toy", 0.25)
    def toy():
        yield from (0.1, 0.3, 0.2)

    @checks._check("empty", 0.0)
    def empty():
        yield from ()

    assert toy() == CheckResult("toy", 0.3, 0.25) and not toy().passed
    assert empty() == CheckResult("empty", 0.0, 0.0) and empty().passed
    assert type(toy().deviation) is float


def test_every_check_keeps_its_function_name():
    # perfbench names a check's span after the function until its result is in
    for check in FAST_CHECKS + FULL_ONLY_CHECKS:
        assert check.__name__.startswith("_check_")


@pytest.fixture
def nan_at_one_point(monkeypatch):
    # (m, d, |alpha|, w) = (2, 2, 1.0, 2) lies on both the complement grid and the dense grid
    closed = checks.encrypted_trace_distance

    def patched(p):
        return math.nan if (p.m, p.d, p.abs_alpha, p.w) == (2, 2, 1.0, 2) else closed(p)

    monkeypatch.setattr(checks, "encrypted_trace_distance", patched)


@pytest.mark.parametrize("check", [checks._check_complement_closed_form,
                                   checks._check_encrypted_dense])
def test_a_nan_closed_form_fails_its_checks(nan_at_one_point, check):
    result = check()
    assert math.isnan(result.deviation) and not result.passed


def test_oracle_check_prints_a_nan_failure_and_exits_two(nan_at_one_point, capsys):
    assert cli.main(["oracle-check", "--level", "full"]) == cli.EXIT_INVARIANT
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FAIL ")] == [
        "FAIL encrypted-distance-vs-dense-oracle: max deviation nan (tolerance 1.0e-06)",
        "FAIL complement-indistinguishability-closed-form: max deviation nan (tolerance 1.0e-10)"]
    assert out[-1] == "8/10 checks passed at level full"
