"""Closed-form runtime bounds, the mutation-rate recipes, and numeric
checkers for the standalone inequalities behind them.

All calculators are pure arithmetic: same inputs give bit-identical outputs.
Each returns the bound value together with a per-term breakdown so report
tables can compare empirical quantiles against individual terms.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bilinear import BilinearParams
from .core import _is_int, _is_number

DEFAULT_CHECK_SEED = 20260808
C_PP = 1.000001  # default c'' of both calculators (any value above 1 is admissible)


@dataclass(frozen=True)
class BoundValue:
    """A bound with its multiplicative prefactor and additive terms."""

    value: float
    prefactor: float
    terms: dict

    def __post_init__(self):
        # finite inputs can still overflow a float (chi = 1e-307, delta = 1e-320)
        for name, x in (("prefactor", self.prefactor), *self.terms.items(), ("value", self.value)):
            if not math.isfinite(x):
                raise ValueError(f"the bound overflows: {name} = {x} on these inputs")


def _real(x: int) -> float:
    """An integer as a float, infinite where it is too large for one, so
    that `BoundValue` rejects the bound by the name of its term."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def level_process_bound(m: int, lam: int, delta: float, z: tuple = (),
                        c_pp: float = C_PP) -> BoundValue:
    """Generic expected-runtime bound (c''*lambda/delta)*(m*lambda^2 + 16*sum 1/z_i).

    z must hold the m-1 per-level floors, each in (0, 1] (empty for m = 1,
    where the bound collapses to c''*lambda^3/delta).
    """
    if not (_is_int(m) and _is_int(lam)) or m < 1 or lam < 1:
        raise ValueError(f"m and lambda must be positive integers, got {m!r} and {lam!r}")
    if not (_is_number(delta) and 0.0 < delta <= 1.0):
        raise ValueError(f"delta must be in (0, 1], got {delta!r}")
    if not (_is_number(c_pp) and 1.0 < c_pp < math.inf):
        raise ValueError(f"c'' must exceed 1 and be finite, got {c_pp!r}")
    if not isinstance(z, Sequence) or len(z) != m - 1:
        raise ValueError(f"z must be a sequence of m-1 = {m - 1} values, got {z!r}")
    if not all(_is_number(zi) and 0.0 < zi <= 1.0 for zi in z):
        raise ValueError(f"every z_i must be in (0, 1], got {z}")
    prefactor = c_pp * _real(lam) / delta
    level_term = _real(m * lam**2)
    upgrade_term = 16.0 * sum(1.0 / zi for zi in z)
    return BoundValue(
        value=prefactor * (level_term + upgrade_term),
        prefactor=prefactor,
        terms={"level_term": level_term, "upgrade_term": upgrade_term},
    )


def recipe_mutation_rate(delta: float) -> float:
    """Mutation-rate recipe chi = (1/2) ln(42 / (41 (1 + delta))).

    Positive exactly on delta in (0, 1/41).
    """
    if not (_is_number(delta) and 0.0 < delta < 1.0 / 41.0):
        raise ValueError(f"delta must be in (0, 1/41), got {delta!r}")
    return 0.5 * math.log(42.0 / (41.0 * (1.0 + delta)))


def chi_slack(chi: float) -> float:
    """Slack delta implied by a mutation rate: delta = (42/41) e^(-2 chi) - 1."""
    if not _is_number(chi):
        raise ValueError(f"chi must be a real number, got {chi!r}")
    return (42.0 / 41.0) * math.exp(-2.0 * chi) - 1.0


def solvable_regime_budget(n: int, lam: int, chi: float, alpha: float, beta: float,
                           epsilon: float, r: float = 1.0, c_pp: float = C_PP) -> BoundValue:
    """Interaction budget 2*r*c''*lambda/delta * (lambda^2 n + (23 n / chi) ln(1/(beta(1-alpha+epsilon)))).

    delta is derived from chi via `chi_slack` (the inverse of the chi
    recipe).  A run exceeds this budget with probability at most (1/r) up to
    lower-order terms; the calculator exposes only the explicit leading
    expression.  The game is checked as `BilinearParams` checks it.
    """
    if not (_is_int(n) and _is_int(lam)) or n < 1 or lam < 1:
        raise ValueError(f"n and lambda must be positive integers, got {n!r} and {lam!r}")
    BilinearParams(n=n, alpha=alpha, beta=beta, epsilon=epsilon)
    if not (_is_number(c_pp) and 1.0 < c_pp < math.inf):
        raise ValueError(f"c'' must exceed 1 and be finite, got {c_pp!r}")
    if not (_is_number(r) and 0.0 < r < math.inf):
        raise ValueError(f"r must be positive and finite, got {r!r}")
    if not (_is_number(chi) and chi > 0):
        raise ValueError(f"chi must be positive, got {chi!r}")
    delta = chi_slack(chi)
    if delta <= 0:
        raise ValueError(f"chi={chi} too large: implied slack delta={delta} is not positive")
    shrink = beta * (1.0 - alpha + epsilon)
    if not 0.0 < shrink < 1.0:
        raise ValueError(f"beta*(1-alpha+epsilon) = {shrink} must lie in (0, 1)")
    prefactor = 2.0 * r * c_pp * _real(lam) / delta
    pop_term = _real(lam**2 * n)
    mutation_term = (23.0 * n / chi) * math.log(1.0 / shrink)
    return BoundValue(
        value=prefactor * (pop_term + mutation_term),
        prefactor=prefactor,
        terms={"pop_term": pop_term, "mutation_term": mutation_term, "delta": delta},
    )


def error_threshold(delta: float) -> float:
    """Mutation rate ln(2)/(1 - 2*delta) above which runs need exponential time."""
    if not (_is_number(delta) and 0.0 < delta < 0.5):
        raise ValueError(f"delta must be in (0, 1/2), got {delta!r}")
    return math.log(2.0) / (1.0 - 2.0 * delta)


# ---------------------------------------------------------------------------
# Inequality checkers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))


_FLOAT_SLACK = 1e-12  # absorbs rounding on mathematically non-strict bounds
_SQRT_GRID_POINTS = 1000


def _sqrt_sandwich_blocks():
    """Yield (dd, frac, mid, lower, upper) for each 50-row block of the
    sqrt-sandwich grid: d = dd (a column) and d1 = dd*frac.  mid, lower and
    upper take their expressions' float operations in order, written into
    buffers the next block overwrites, so blocks and reused buffers bound the
    peak memory."""
    points, rows = _SQRT_GRID_POINTS, 50
    d = (np.arange(points, dtype=np.float64) + 1.0) / (points + 1)
    frac = np.arange(points, dtype=np.float64) / points
    d1, mid, lower, upper = np.empty((4, rows, points))
    for dd in np.split(d[:, None], points // rows):
        np.multiply(dd, frac, out=d1)
        np.add(1.0, d1, out=mid)
        mid /= 1.0 + dd
        np.sqrt(mid, out=mid)
        np.subtract(1.0, mid, out=mid)
        np.multiply(4.0, d1, out=lower)
        np.subtract(3.0 * dd, lower, out=lower)
        lower /= 11.0
        np.multiply(3.0, d1, out=upper)
        np.subtract(4.0 * dd, upper, out=upper)
        upper /= 8.0
        yield dd, frac, mid, lower, upper


def check_sqrt_bound() -> CheckResult:
    """Grid check of (3d-4d1)/11 < 1 - sqrt((1+d1)/(1+d)) < (4d-3d1)/8.

    Dense grid over d in (0, 1) and d1 in [0, d), 1000 x 1000 values.
    """
    bad = 0
    for _, _, mid, lower, upper in _sqrt_sandwich_blocks():
        bad += np.count_nonzero(lower >= mid) + np.count_nonzero(mid >= upper)
    return CheckResult(
        "sqrt-sandwich",
        bad == 0,
        f"{_SQRT_GRID_POINTS ** 2} grid points, {bad} violations",
    )


def check_exp_lower_bound() -> CheckResult:
    """Grid check of 1-(1-x)^n >= 1-e^(-xn) >= xn/(1+xn) on 401 points x in [0, 1]."""
    x = np.linspace(0.0, 1.0, 401)
    bad = 0
    total = 0
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 100):
        lhs = 1.0 - (1.0 - x) ** n
        mid = 1.0 - np.exp(-x * n)
        rhs = x * n / (1.0 + x * n)
        bad += int((lhs < mid - _FLOAT_SLACK).sum() + (mid < rhs - _FLOAT_SLACK).sum())
        total += 2 * x.size
    return CheckResult("exp-lower-bound", bad == 0, f"{total} comparisons, {bad} violations")


def occupancy_law(cell, lam: int) -> np.ndarray:
    """Joint pmf, as a (lambda+1, lambda+1) array, of the counts X, Y of lambda
    i.i.d. draws in A and in B with cell[i, j] = P(in A = i, in B = j).  Keeps
    the cell's dtype, so an object array of Fractions gives the law exactly."""
    cell = np.asarray(cell)
    law = np.ones((1, 1), dtype=cell.dtype)
    for k in range(1, lam + 1):  # one more draw, in cell (i, j), shifts the law by (i, j)
        law, prev = np.zeros((k + 1, k + 1), dtype=cell.dtype), law
        for (i, j), weight in np.ndenumerate(cell):
            law[i:i + k, j:j + k] += weight * prev
    return law


def check_product_mgf() -> CheckResult:
    """Exact check of E[exp(-eta X Y)] <= exp(-eta z lambda^2).

    X, Y are independent binomials with p*q >= (1+sigma)^2 z and eta at its
    admissible maximum sigma/((1+sigma)*lambda); the expectation is the
    (lambda+1)^2-term sum over their `occupancy_law`.
    """
    configs = [
        (20, 0.9, 0.9, 0.5),
        (10, 0.8, 0.9, 0.4),
        (30, 0.7, 0.8, 0.3),
        (15, 0.95, 0.6, 0.4),
    ]
    lines = []
    ok = True
    for lam, p, q, z in configs:
        sigma = math.sqrt(p * q / z) - 1.0
        eta = sigma / ((1.0 + sigma) * lam)
        k = np.arange(lam + 1)
        law = occupancy_law(np.outer([1.0 - p, p], [1.0 - q, q]), lam)
        mgf = float((law * np.exp(-eta * np.outer(k, k))).sum())
        bound = math.exp(-eta * z * lam * lam)
        ok &= mgf <= bound + _FLOAT_SLACK
        lines.append(f"lam={lam} p={p} q={q} z={z}: exact={mgf:.6g} bound={bound:.6g}")
    return CheckResult("product-mgf", ok, "; ".join(lines))
