import math
import subprocess
import sys

import numpy as np
import pytest

from minorforge import bounds
from minorforge.bounds import (
    compute_bound_report,
    gamma_optimize,
    missing_edge_bound,
    missing_fraction,
    missing_fraction_extremal,
    selection_probability,
    zeta_monotonicity_check,
    _fraction_raw,
)
from minorforge.errors import DomainError, InvalidHypotheses, NonpositiveDenominator


def test_selection_probability_arithmetic():
    assert selection_probability(10, 2, 0, 0.5) == pytest.approx(6 / 8)


def test_selection_probability_zero_numerator():
    assert selection_probability(10, 5, 0, 0.5) == 0.0


def test_selection_probability_bad_denominator():
    with pytest.raises(NonpositiveDenominator):
        selection_probability(10, 2, 10_000, 0.5)
    with pytest.raises(ValueError):
        selection_probability(10, 6, 0, 0.5)


def test_missing_edge_bound_zero_when_no_nonadjacency():
    assert missing_edge_bound(100, 10, 0, 0, 20) == 0.0


def test_missing_edge_bound_invalid_hypotheses():
    with pytest.raises(InvalidHypotheses):
        missing_edge_bound(100, 10, 5, 5, 10)  # lambda^2 = 100 <= 200 = 2n


def test_missing_fraction_zeros():
    assert missing_fraction(0.0, 0.0) == 0.0
    for zeta in (0.0, 0.01, 0.0625):
        assert missing_fraction(0.25, zeta) == pytest.approx(0.0, abs=1e-15)


def test_missing_fraction_domain():
    with pytest.raises(DomainError):
        missing_fraction(0.3, 0.0)
    with pytest.raises(DomainError):
        missing_fraction(0.2, 0.2)  # zeta > z^2
    with pytest.raises(DomainError):
        missing_fraction_extremal(-0.01)


def test_extremal_fraction_values():
    assert missing_fraction_extremal(0.0) == 0.0
    # quartic factor vanishes at z = 1/4: 5 - 9.5 + 5.75 - 1.25 = 0
    assert missing_fraction_extremal(0.25) == pytest.approx(0.0, abs=1e-15)
    assert missing_fraction_extremal(0.193984) == pytest.approx(0.013118, abs=2e-6)


def test_identity_extremal_equals_fraction_at_zeta_z2():
    zs = np.linspace(0.0, 0.25, 10001)
    diff = np.abs(_fraction_raw(zs, zs * zs) - np.array([missing_fraction_extremal(z) for z in zs]))
    assert float(np.max(diff)) <= 1e-12


def test_gamma_optimize_reproduces_constants():
    z_star, gamma = gamma_optimize(1e-7)
    assert z_star == pytest.approx(0.193984, abs=1e-4)
    assert gamma == pytest.approx(0.986882, abs=1e-5)


def test_gamma_optimize_loose_tolerance():
    z_star, gamma = gamma_optimize(1e-2)
    assert z_star == pytest.approx(0.193984, abs=1e-2)
    assert gamma == pytest.approx(0.986882, abs=1e-2)


def test_gamma_optimize_beats_endpoints():
    _, gamma = gamma_optimize(1e-7)
    assert gamma < 1.0  # interior maximum; endpoints give fraction 0


def test_gamma_optimize_deterministic():
    assert gamma_optimize(1e-7) == gamma_optimize(1e-7)


def test_gamma_optimize_returns_below_float_spacing():
    # the bracket cannot shrink below float spacing at z*, so a refinement
    # that waits for it never returns: run it where a timeout can stop it
    proc = subprocess.run(
        [sys.executable, "-c",
         "from minorforge.bounds import gamma_optimize; print(repr(gamma_optimize(1e-300)[0]))"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx(gamma_optimize(1e-12)[0], abs=1e-9)


def test_extremal_fraction_nonnegative_interior_zeros_at_endpoints():
    zs = np.linspace(0.0, 0.25, 2001)
    vals = np.array([missing_fraction_extremal(z) for z in zs])
    assert np.all(vals >= -1e-15)
    assert vals[0] == 0.0 and abs(vals[-1]) < 1e-15
    assert np.all(vals[1:-1] > 0)


def test_zeta_monotonicity_true():
    assert zeta_monotonicity_check(300)


def test_zeta_monotonicity_detects_negated(monkeypatch):
    monkeypatch.setattr(bounds, "_fraction_raw", lambda z, zeta: -_fraction_raw(z, zeta))
    assert not zeta_monotonicity_check(50)


def test_zeta_monotonicity_zero_row_trivial():
    # z = 0 row is identically zero; included in the sweep without failure
    assert zeta_monotonicity_check(2)


def test_bound_converges_to_fraction():
    # with b, a, p at their structural substitutions the finite-n bound over
    # C(n,2) approaches the asymptotic fraction as n grows
    z, zeta = 0.19, 0.02
    prev_err = None
    for n in (10**3, 10**4, 10**5):
        k = round(2 * n * z)
        a = round(4 * n * n * zeta)
        b = round(2 * n * n * ((1 - z) * z - zeta))
        lam = float(n) ** (2 / 3)
        val = missing_edge_bound(n, k, a, b, lam) / math.comb(n, 2)
        err = abs(val - missing_fraction(z, zeta))
        if prev_err is not None:
            assert err < prev_err
        prev_err = err
    assert prev_err < 5e-3


def test_bound_report_fields():
    rep = compute_bound_report(200, 54, 2000, 6000, 26.5)
    assert rep.q == pytest.approx(1 - 400 / 26.5**2)
    assert rep.p is not None and 0 < rep.p < 1
    assert rep.missing_bound is not None and rep.missing_bound > 0
    assert rep.z == pytest.approx(54 / 400)
    assert rep.zeta == pytest.approx(2000 / (4 * 200 * 200))
    bad = compute_bound_report(200, 54, 2000, 6000, 10.0)  # lambda^2 < 2n
    assert bad.missing_bound is None


def _or_none(fn, *args):
    try:
        return fn(*args)
    except (InvalidHypotheses, NonpositiveDenominator, ValueError):
        return None


def test_bound_report_evaluates_the_selection_probability_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return selection_probability(*args)

    monkeypatch.setattr(bounds, "selection_probability", counted)
    # valid, lambda^2 <= 2n, 2n - k - 4 <= 0, nonpositive denominator, n < 2k
    cases = [(200, 30, 40, 900, 14.5), (100, 10, 5, 5, 10), (5, 6, 0, 0, 20),
             (10, 2, 10_000, 0, 5), (10, 6, 0, 0, 5), (400, 55, 7000, 2e5, 27.0)]
    for n, k, a, b, lam in cases:
        calls.clear()
        rep = compute_bound_report(n, k, a, b, lam)
        assert len(calls) == 1
        assert rep.p == _or_none(selection_probability, n, k, b, lam)
        assert rep.missing_bound == _or_none(missing_edge_bound, n, k, a, b, lam)
