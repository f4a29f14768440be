"""Sample-count formulas and the weak/strong/exact regime map.

Counts are stabilizer-state budgets for simulating t tensored magic
states to additive error delta: the quadratic i.i.d. bound xi/delta^2,
the renormalized-ensemble bound (2+sqrt 2) xi/delta, its tightened
sqrt(2) variant, the correlated next-order bound (xi - gamma)/delta^2
and the correlated renormalized bound obtained as the positive root of

    delta^2 k^3 + 4 f k^2 - (2 xi^2 + f^2) k - f^3 = 0,

rounded up to a whole number of supplement groups.  With the optimal
supplement count f = 10 delta xi the root approaches
(sqrt(402) - 20) xi / delta ~ 0.05 xi / delta as delta -> 0, a ~68x
reduction over (2+sqrt 2) xi / delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

SQRT2 = math.sqrt(2.0)
SOTA_PREFACTOR = 2.0 + SQRT2
TIGHT_PREFACTOR = SQRT2
ASYMPTOTE_EXACT = math.sqrt(402.0) - 20.0   # ~ 0.0499377
ASYMPTOTE_ROUNDED = 0.05
CHI_EXPONENT_DEFAULT = 0.396
#: published exact stabilizer ranks for small T-gate counts
CHI_TABLE = {4: 4.0, 8: 12.0, 16: 108.0}
#: largest t whose chi_t^2 = 2^(2 * 0.396 t) is a finite float
T_MAX = int(1024 / (2 * CHI_EXPONENT_DEFAULT))

WEAK_CORRELATED = "WEAK_CORRELATED"
STRONG = "STRONG"
EXACT_SIM = "EXACT"


def _int_ceil(x: float) -> int:
    """Ceiling that reads x within 2 ulps above an integer as float noise."""
    if not math.isfinite(x):
        raise ValueError(f"count {x!r} is not a finite number")
    n = math.floor(x)
    return n if x - n <= 2 * math.ulp(x) else n + 1


def _round_up_multiple(k: int, size: int) -> int:
    return ((k + size - 1) // size) * size


def k_sota(xi: float, delta: float) -> int:
    """(2 + sqrt 2) xi / delta, rounded up."""
    _check(xi, delta)
    return _int_ceil(SOTA_PREFACTOR * xi / delta)


def k_iid_quadratic(xi: float, delta: float) -> int:
    """xi / delta^2, rounded up."""
    _check(xi, delta)
    return _int_ceil(xi / delta**2)


def k_iid_tight(xi: float, delta: float) -> int:
    """sqrt(2) xi / delta, rounded up."""
    _check(xi, delta)
    return _int_ceil(TIGHT_PREFACTOR * xi / delta)


def k_theorem1(xi: float, delta: float, gamma: float) -> int:
    """(xi - gamma) / delta^2, rounded up; requires gamma < xi."""
    _check(xi, delta)
    if gamma >= xi:
        raise ValueError("gamma must be smaller than the extent")
    return _int_ceil((xi - gamma) / delta**2)


def k_distance_law(xi: float, delta: float, gamma: float, f_t: int) -> int:
    """Smallest whole number (at least one) of groups of f_t + 1 terms at or
    above (xi - gamma)(1 - delta)/delta: the k at which the measured law
    1 - F = eps/(1 + eps), eps = (xi - gamma)/k, reaches delta."""
    _check(xi, delta)
    return _round_up_multiple(max(1, _int_ceil((xi - gamma) * (1.0 - delta) / delta)), f_t + 1)


def _check(xi: float, delta: float) -> None:
    if xi < 1.0:
        raise ValueError("extent must be at least 1")
    _check_delta(delta)


def _check_delta(delta: float) -> None:
    """Every count's range: delta in (0, 1], with delta^3 a nonzero float."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if delta**3 == 0.0:
        raise ValueError(f"delta = {delta!r} is so small that delta^3 underflows to zero")


def optimal_beta(delta: float) -> float:
    """Numerically optimal supplement fraction beta = 10 delta^2."""
    _check_delta(delta)
    return 10.0 * delta**2


def f_t_optimal(delta: float, xi: float) -> int:
    """Supplements per seed at the optimal beta: round(10 delta xi)."""
    f = optimal_beta(delta) * xi / delta
    if not math.isfinite(f):
        raise ValueError(f"count {f!r} is not a finite number")
    return int(round(f))


def _cubic(xi: float, delta: float, f_t: float):
    d2 = delta * delta
    c2 = 4.0 * f_t
    c1 = -(2.0 * xi * xi + f_t * f_t)
    c0 = -(f_t**3)
    return lambda k: ((d2 * k + c2) * k + c1) * k + c0


def k_correlated_raw(xi: float, delta: float, f_t: float) -> float:
    """Positive root of the cubic bound, before any integer rounding.

    The polynomial has exactly one positive root (one sign change), so a
    bisection on [0, 10 xi/delta + 10 f_t] (doubling the bracket if
    needed) finds it without touching the closed form's complex cube
    roots.  f_t = 0 reduces to sqrt(2) xi / delta.
    """
    _check(xi, delta)
    if f_t < 0:
        raise ValueError("f_t must be nonnegative")
    p = _cubic(xi, delta, float(f_t))
    lo, hi = 0.0, 10.0 * xi / delta + 10.0 * f_t + 10.0
    while p(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if p(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def k_correlated(xi: float, delta: float, f_t: int) -> int:
    """Smallest k (a multiple of f_t + 1) satisfying the cubic bound, signed
    exactly as p(k) (dd xd)^2 in ints for delta = dn/dd and xi = xn/xd (above
    2^53 integers share floats); steps from the float root bracket, then bisect."""
    (xn, xd), (dn, dd) = xi.as_integer_ratio(), delta.as_integer_ratio()
    s = (dd * xd) ** 2
    a, b, c = (dn * xd) ** 2, 4 * f_t * s, -(2 * (xn * dd) ** 2 + f_t * f_t * s)

    def p(k: int) -> int:
        return ((a * k + b) * k + c) * k - f_t**3 * s

    root = k_correlated_raw(xi, delta, float(f_t))
    lo = max(1, math.ceil(root)) - 1
    # until bracketed: lo = 0 or p(lo) < 0, and p(hi) >= 0
    hi, step = lo + 1, max(1, int(math.ulp(root)))
    while p(hi) < 0:
        lo, hi, step = hi, hi + step, 2 * step
    while lo > 0 and p(lo) >= 0:
        lo, hi, step = max(0, lo - step), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if p(mid) >= 0 else (mid, hi)
    return _round_up_multiple(hi, f_t + 1)


@dataclass(frozen=True)
class RegimeFlags:
    """Truth values of the four cost-comparison inequalities."""

    strong_fewer_states: bool      # chi < 0.05 xi / delta
    exact_fewer_states: bool       # chi^2 < 0.05 xi / delta^3
    strong_cheaper_outcomes: bool  # (chi/delta^2)/(2+sqrt2) < 0.05 xi / delta^3
    exact_cheaper_outcomes: bool   # chi^2 < (12*0.05/(2+sqrt2)) xi / delta^3


@dataclass(frozen=True)
class RegimePoint:
    t: int
    delta: float
    xi_t: float
    chi_t: float
    flags: RegimeFlags
    cheapest: str


def check_t(t: int) -> None:
    """The regime map's range: chi_t^2 must be a finite float."""
    if not 1 <= t <= T_MAX:
        raise ValueError(f"t must lie in [1, {T_MAX}], where chi_t^2 is a finite float")


def chi_t(t: int, table: Optional[dict] = None) -> float:
    """Stabilizer-rank model 2^(0.396 t), with optional per-t overrides."""
    if table and t in table:
        return float(table[t])
    return 2.0 ** (CHI_EXPONENT_DEFAULT * t)


def regime(
    t: int,
    delta: float,
    xi_1: float,
    chi_table: Optional[dict] = None,
) -> RegimePoint:
    """Evaluate the weak/strong/exact comparison at one (t, delta) cell."""
    check_t(t)
    _check_delta(delta)
    xi = xi_1**t
    chi = chi_t(t, chi_table)
    a = ASYMPTOTE_ROUNDED
    flags = RegimeFlags(
        strong_fewer_states=chi < a * xi / delta,
        exact_fewer_states=chi**2 < a * xi / delta**3,
        strong_cheaper_outcomes=(chi / delta**2) / SOTA_PREFACTOR < a * xi / delta**3,
        exact_cheaper_outcomes=chi**2 < (12.0 * a / SOTA_PREFACTOR) * xi / delta**3,
    )
    if flags.exact_cheaper_outcomes:
        cheapest = EXACT_SIM
    elif flags.strong_cheaper_outcomes:
        cheapest = STRONG
    else:
        cheapest = WEAK_CORRELATED
    return RegimePoint(t=t, delta=delta, xi_t=xi, chi_t=chi, flags=flags, cheapest=cheapest)


def _crossover(xi_1: float, c_strong: float, c_exact: float) -> int:
    """Largest t <= 400 with (c_exact xi / chi^2)^(1/3) > c_strong xi / chi."""
    last = 0
    for t in range(1, 401):
        xi, chi = xi_1**t, chi_t(t)
        if (c_exact * xi / chi**2) ** (1.0 / 3.0) > c_strong * xi / chi:
            last = t
    return last


def exact_vs_strong_crossover(xi_1: float) -> int:
    """Largest t at which exact simulation overtakes weak before strong does.

    Compares the delta thresholds of the state-count inequalities: exact
    beats weak below delta_e = (a xi / chi^2)^(1/3) and strong beats weak
    below delta_s = a xi / chi; the ordering delta_e > delta_s holds iff
    chi > (a xi)^2, which fails beyond the returned t (scanned to t = 400).
    """
    return _crossover(xi_1, ASYMPTOTE_ROUNDED, ASYMPTOTE_ROUNDED)


def outcome_crossover(xi_1: float) -> int:
    """Same ordering scan for the outcome-estimation inequality pair."""
    a = ASYMPTOTE_ROUNDED
    return _crossover(xi_1, a * SOTA_PREFACTOR, 12.0 * a / SOTA_PREFACTOR)


@dataclass(frozen=True)
class CostPoint:
    """One row of the cost map, its fields the CSV columns in order."""

    t: int
    delta: float
    xi_t: float
    chi_t: float
    k_iid_quadratic: int
    k_sota: int
    k_iid_tight: int
    k_theorem1: Optional[int]
    k_correlated: int
    k_correlated_asymptotic: int
    f_t: int
    beta: float
    cheapest_regime: str
    ratio_sota_over_correlated: float
    #: (2+sqrt2)/(sqrt402-20) ~ 68.4 wherever the counts are large
    ratio_sota_over_asymptotic: float

    def equivalent_magic_gates_removed(self) -> float:
        """t' with xi_1^t' equal to the asymptotic-law ratio (~27 at pi/4)."""
        xi_1 = self.xi_t ** (1.0 / self.t)
        return math.log(self.ratio_sota_over_asymptotic) / math.log(xi_1)


def cost_point(
    t: int,
    delta: float,
    xi_1: float,
    gamma: Optional[float] = None,
    chi_table: Optional[dict] = None,
) -> CostPoint:
    xi = xi_1**t
    f_t = f_t_optimal(delta, xi)
    reg = regime(t, delta, xi_1, chi_table)
    k_th1 = None
    if gamma is not None and gamma < xi:
        k_th1 = k_theorem1(xi, delta, gamma)
    k_sota_t, k_corr = k_sota(xi, delta), k_correlated(xi, delta, f_t)
    k_asym = _int_ceil(ASYMPTOTE_EXACT * xi / delta)
    return CostPoint(
        t=t,
        delta=delta,
        xi_t=xi,
        chi_t=reg.chi_t,
        k_iid_quadratic=k_iid_quadratic(xi, delta),
        k_sota=k_sota_t,
        k_iid_tight=k_iid_tight(xi, delta),
        k_theorem1=k_th1,
        k_correlated=k_corr,
        k_correlated_asymptotic=k_asym,
        f_t=f_t,
        beta=optimal_beta(delta),
        cheapest_regime=reg.cheapest,
        ratio_sota_over_correlated=k_sota_t / k_corr,
        ratio_sota_over_asymptotic=k_sota_t / k_asym,
    )
