"""Closed-form bound arithmetic and the density-constant optimisation.

All quantities are low-degree rationals in double precision; identity and
monotonicity checks run on dense grids at 1e-12 tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidHypotheses, NonpositiveDenominator

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def selection_probability(n: int, k: int, b: int, lam: float) -> float:
    """Upper bound p on the odds a fixed pairing edge survives subsampling:
    (n-2k) / (n - (k+1)/2 - b/(2n-k-2) - lambda)."""
    if n - 2 * k < 0:
        raise ValueError("n - 2k must be nonnegative")
    if 2 * n - k - 2 <= 0:
        raise NonpositiveDenominator("2n - k - 2 must be positive")
    den = n - (k + 1) / 2.0 - b / (2.0 * n - k - 2.0) - float(lam)
    if den <= 0:
        raise NonpositiveDenominator(f"selection denominator {den} <= 0")
    return (n - 2.0 * k) / den


def missing_edge_bound(n: int, k: int, a: int, b: int, lam: float) -> float:
    """Upper bound on the expected number of missing minor edges:

        (1/(1-2n/lam^2)) * ( b(k-1)^2 p^2 / (4(2n-k-2)(2n-k-4))
                             + a(k-1) p / (2(2n-k-2)) )
    """
    lam = float(lam)
    if lam * lam <= 2 * n:
        raise InvalidHypotheses("lambda^2 must exceed 2n")
    if 2 * n - k - 4 <= 0:
        raise InvalidHypotheses("2n - k - 4 must be positive")
    p = selection_probability(n, k, b, lam)
    q = 1.0 - 2.0 * n / (lam * lam)
    quad = b * (k - 1.0) ** 2 * p * p / (4.0 * (2 * n - k - 2.0) * (2 * n - k - 4.0))
    tri = a * (k - 1.0) * p / (2.0 * (2 * n - k - 2.0))
    return (quad + tri) / q


def _fraction_raw(z, zeta):
    """Missing-edge fraction as a function of clique density z and
    non-neighbour density zeta; accepts scalars or numpy arrays."""
    num = z * (1 - 4 * z) * (
        z * z * (1 - 5 * z + 4 * z * z)
        + zeta * (4 - 13 * z + 12 * z * z)
        + 4 * zeta * zeta
    )
    den = (1 + zeta - 3 * z + 2 * z * z) ** 2
    return num / den


def missing_fraction(z: float, zeta: float) -> float:
    """Asymptotic fraction of missing minor edges at densities (z, zeta)."""
    if not 0 <= z <= 0.25:
        raise DomainError(f"z = {z} outside [0, 1/4]")
    if not 0 <= zeta <= z * z + 1e-15:
        raise DomainError(f"zeta = {zeta} outside [0, z^2]")
    den = 1 + zeta - 3 * z + 2 * z * z
    if den <= 0:
        raise DomainError("nonpositive denominator")
    return float(_fraction_raw(z, zeta))


def _extremal_raw(z):
    return z**3 * (5 - 38 * z + 92 * z * z - 80 * z**3) / (1 - 3 * z + 3 * z * z) ** 2


def missing_fraction_extremal(z: float) -> float:
    """Worst case of missing_fraction over zeta, reached at zeta = z^2:

        z^3 (5 - 38z + 92z^2 - 80z^3) / (1 - 3z + 3z^2)^2
    """
    if not 0 <= z <= 0.25:
        raise DomainError(f"z = {z} outside [0, 1/4]")
    return float(_extremal_raw(z))


def gamma_optimize(tolerance: float = 1e-7) -> tuple[float, float]:
    """Maximise the extremal missing fraction over [0, 1/4]; returns
    (argmax, 1 - maximum).  Coarse grid first (the function is not assumed
    unimodal), then golden-section refinement, which also ends once the
    bracket stops shrinking at float spacing."""
    if not 0 < tolerance < math.inf:  # NaN included
        raise ValueError("tolerance must be positive and finite")
    grid = np.linspace(0.0, 0.25, 10001)
    vals = _extremal_raw(grid)
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc = _extremal_raw(c)
    fd = _extremal_raw(d)
    while (b - a) > tolerance and a < c < d < b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = _extremal_raw(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = _extremal_raw(d)
    z_star = (a + b) / 2.0
    return z_star, 1.0 - float(_extremal_raw(z_star))


def zeta_monotonicity_check(grid_steps: int) -> bool:
    """True when the missing fraction is nondecreasing in zeta on a
    grid_steps x grid_steps grid of [0,1/4] x [0,z^2], up to 1e-12 slack."""
    if grid_steps < 2:
        raise ValueError("grid_steps must be at least 2")
    zs = np.linspace(0.0, 0.25, grid_steps)
    for z in zs:
        zetas = np.linspace(0.0, z * z, grid_steps)
        vals = _fraction_raw(np.full_like(zetas, z), zetas)
        if np.any(np.diff(vals) < -1e-12):
            return False
    return True


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds for one pipeline instance; its inputs (n, k, a, b
    and lambda) live on the PreparedPipeline.

    q = 1 - 2n/lambda^2 is kept even when nonpositive (-inf for lambda <= 0);
    missing_bound is None when missing_edge_bound refuses the parameters."""

    q: float
    missing_bound: float | None


def compute_bound_report(n: int, k: int, a: int, b: int, lam: float) -> BoundReport:
    lam = float(lam)
    q = 1.0 - 2.0 * n / (lam * lam) if lam > 0 else float("-inf")
    try:
        bound = missing_edge_bound(n, k, a, b, lam)
    except (InvalidHypotheses, NonpositiveDenominator, ValueError):
        bound = None
    return BoundReport(q=q, missing_bound=bound)
