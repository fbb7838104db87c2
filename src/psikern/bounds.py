"""Right-hand sides and bracket intervals for the deviation estimates,
plus the duality route that computes the class sup numerically exactly.

Every quantity here carries the oscillation factor
(2/pi)|sin((2n-1)x/2)|, which vanishes at the interpolation nodes; the
bracket constants are interval endpoints taken verbatim from the source
estimates.  Certified tail sums enter through their upper ends wherever
an upper bound is promised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HypothesisUnmet, SlowConvergence
from .psi import (
    DEFAULT_TERM_BUDGET as TERM_BUDGET,
    PsiFamily,
    alpha_lambda,
    double_tail,
    tail_sum,
    weighted_tail,
)

PI = math.pi

# bracket constant ranges (lo, hi) for the equality forms
XI_THM1 = (-(1.0 + 2.0 * PI), 1.0)
THETA_THM2 = (-(1.0 + PI), 1.0)
XI3_RANGE = (-4.0 * (1.0 + 2.0 * PI), (8.0 / 3.0) * (1.0 + PI))
XI4_RANGE = (-(1.0 + 2.0 * PI), 2.0 * (1.0 + PI))
XI1_SUP_RANGE = (-4.0 * (1.0 + PI), (4.0 / 3.0) * (2.0 + PI))
XI2_SUP_RANGE = (-(1.0 + PI), 2.0 + PI)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, v: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= v <= self.hi + slack

    def contains_interval(self, other: "Interval", slack: float = 0.0) -> bool:
        return self.lo - slack <= other.lo and other.hi <= self.hi + slack


@dataclass(frozen=True)
class GammaPhase:
    gamma_n: float


def gamma_phase(n: int, x: float, beta: float) -> GammaPhase:
    """The kernel-tail phase ((2n-1)x + pi(beta-1))/2."""
    return GammaPhase(((2 * n - 1) * x + PI * (beta - 1.0)) / 2.0)


def sine_factor(n: int, x: float) -> float:
    """(2/pi)|sin((2n-1)x/2)|; zero exactly at the interpolation nodes."""
    return 2.0 / PI * abs(math.sin((2 * n - 1) * x / 2.0))


def _check_E(E: float) -> float:
    E = float(E)
    if E < 0.0:
        raise ValueError("E must be >= 0")
    return E


def thm1_rhs(psi: PsiFamily, n: int, x: float, E: float) -> float:
    """Deviation upper bound (2/pi)|sin((2n-1)x/2)| * (double tail) * E,
    using the certified upper end of the double tail."""
    E = _check_E(E)
    return sine_factor(n, x) * double_tail(psi, n).hi * E


def thm1_rhs_modified(psi: PsiFamily, n: int, x: float, E: float) -> float:
    """Same bound with the larger factor (1/n) sum_{k>=n} k psi(k), which
    splits exactly into tail_sum + weighted_tail; always >= thm1_rhs."""
    E = _check_E(E)
    factor = tail_sum(psi, n).hi + weighted_tail(psi, n).hi
    return sine_factor(n, x) * factor * E


def thm2_sup_bracket(psi: PsiFamily, beta: float, n: int, x: float) -> Interval:
    """Bracket for the sup of |deviation| over the unit-derivative class:
    (2/pi)|sin((2n-1)x/2)| * [T - (1+pi) W, T + W] with T the tail sum and
    W the weighted tail (certified outer hull).  beta does not enter the
    endpoints; it is accepted for signature symmetry with the duality route.
    """
    del beta
    T = tail_sum(psi, n)
    W = weighted_tail(psi, n)
    s = sine_factor(n, x)
    return Interval(s * (T.value - (1.0 + PI) * W.hi), s * (T.hi + W.hi))


class Thm3Brackets(NamedTuple):
    """Second-order brackets psi(n) lambda(n) (1 + xi*alpha(n) + xi'/lambda(n)).

    ineq scales by E (deviation of one function); sup is the class-sup
    flavor with its own constant ranges and no E.
    """

    ineq: Interval
    sup: Interval


def thm3_bracket(psi: PsiFamily, n: int, x: float, E: float) -> Thm3Brackets:
    """Both second-order brackets for slowly-decaying families.

    Requires the family to declare the decay-characteristic structure
    (alpha decreasing to 0, lambda increasing) and alpha(n) <= 1/4.
    """
    E = _check_E(E)
    if not psi.m_alpha_member:
        raise HypothesisUnmet(
            f"{psi.label()} does not declare the slow-decay (alpha) structure")
    a, lam = alpha_lambda(psi, n)
    if a > 0.25:
        raise HypothesisUnmet(f"alpha({n}) = {a:.4f} > 1/4")
    base = sine_factor(n, x) * psi.value(n) * lam
    ineq = Interval(
        base * (1.0 + XI3_RANGE[0] * a + XI4_RANGE[0] / lam) * E,
        base * (1.0 + XI3_RANGE[1] * a + XI4_RANGE[1] / lam) * E)
    sup = Interval(
        base * (1.0 + XI1_SUP_RANGE[0] * a + XI2_SUP_RANGE[0] / lam),
        base * (1.0 + XI1_SUP_RANGE[1] * a + XI2_SUP_RANGE[1] / lam))
    return Thm3Brackets(ineq, sup)


class PoissonBounds(NamedTuple):
    rhs: float
    bracket: Interval


def poisson_bounds(alpha: float, n: int, x: float, E: float) -> PoissonBounds:
    """Closed forms for the geometric family exp(-alpha k): the deviation
    upper bound and the sup bracket, both scaled by E."""
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    E = _check_E(E)
    q = math.exp(-alpha)
    s = sine_factor(n, x)
    rhs = s * q ** n / ((1.0 - q) * (1.0 - q ** (2 * n - 1))) * E
    T = q ** n / (1.0 - q)
    W = q ** (n + 1) / (n * (1.0 - q) ** 2)
    bracket = Interval(s * (T - (1.0 + PI) * W) * E, s * (T + W) * E)
    return PoissonBounds(rhs, bracket)


def dq_bound(psi: PsiFamily, n: int, x: float, E: float,
             c: float = 8.0) -> Interval:
    """Bracket for families with ratio limit q in (0, 1):
    center (2/(pi(1-q))) |sin| psi(n) E, half-width
    c (q/(n(1-q)^2) + eps_n/(1-q)^2) |sin| psi(n) E.

    c is the implementation's bounding constant for the unpinned O(1)
    terms (default 8, configurable).  Requires 1/n + eps_n < (1-q)/2.
    """
    E = _check_E(E)
    q = psi.ratio_limit
    if q is None or not 0.0 < q < 1.0:
        raise HypothesisUnmet(f"{psi.label()} has no ratio limit in (0, 1)")
    eps, _ = psi._eps_sup(n, q)
    if not 1.0 / n + eps < (1.0 - q) / 2.0:
        raise HypothesisUnmet(
            f"1/n + eps_n = {1.0 / n + eps:.4f} >= (1-q)/2 = {(1 - q) / 2:.4f} at n={n}")
    s = abs(math.sin((2 * n - 1) * x / 2.0))
    center = s * psi.value(n) * 2.0 / (PI * (1.0 - q)) * E
    half = c * (q / (n * (1.0 - q) ** 2) + eps / (1.0 - q) ** 2) \
        * s * psi.value(n) * E
    return Interval(center - half, center + half)


def d0_bound(psi: PsiFamily, n: int, x: float, E: float,
             c: float = 8.0) -> Interval:
    """Bracket for fastest-decay families (ratio limit 0):
    (2/pi)|sin| (psi(n) -+ c R) E with R = tail_sum(n+1) + weighted_tail(n),
    the certified upper end of (1/n) sum_{k>n} k psi(k)."""
    E = _check_E(E)
    if psi.ratio_limit != 0.0:
        raise HypothesisUnmet(f"{psi.label()} is not in the fastest-decay class")
    R = tail_sum(psi, n + 1).hi + weighted_tail(psi, n).hi
    s = sine_factor(n, x)
    center = s * psi.value(n) * E
    half = s * c * R * E
    return Interval(center - half, center + half)


# ---------------------------------------------------------------------------
# duality route
# ---------------------------------------------------------------------------


def _golden_max_vec(evaluate, lo: np.ndarray, hi: np.ndarray,
                    t_tol: float = 1e-12, max_iter: int = 200) -> np.ndarray:
    """Vectorized golden-section maximization over stacked brackets.

    evaluate(ts) -> values, elementwise over the stacked problems; each
    bracket is assumed unimodal.  Returns the best value seen per problem.
    """
    lo = lo.astype(np.float64).copy()
    hi = hi.astype(np.float64).copy()
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1 = evaluate(x1)
    f2 = evaluate(x2)
    for _ in range(max_iter):
        if np.max(hi - lo) <= t_tol:
            break
        move_up = f1 < f2
        lo = np.where(move_up, x1, lo)
        hi = np.where(move_up, hi, x2)
        span = hi - lo
        nx1 = np.where(move_up, x2, hi - GOLDEN * span)
        nx2 = np.where(move_up, lo + GOLDEN * span, x1)
        fx = evaluate(np.where(move_up, nx2, nx1))
        f1, f2 = np.where(move_up, f2, fx), np.where(move_up, fx, f1)
        x1, x2 = nx1, nx2
    return np.maximum(f1, f2)


def _tail_kernel_setup(psi: PsiFamily, n: int, rel_tol: float):
    """Shared truncation state for g(t) = sum_{k=n}^{K} psi(k) cos(kt + gamma).

    The cutoff K certifies the truncation against tail_sum(n) itself, not
    against the full head sum; closed-form families never grow their value
    cache on their own, so the growth is forced here.
    """
    T = tail_sum(psi, n, rel_tol)
    target = rel_tol * T.value if T.value > 0.0 else rel_tol
    psi._ensure(n + 8)
    cached = psi._vals
    while psi._tail_remainder(len(cached)) > target:
        if len(cached) >= TERM_BUDGET:
            raise SlowConvergence(
                f"{psi.label()}: kernel truncation stalled at K={len(cached)}",
                terms_used=len(cached))
        psi._ensure(2 * len(cached))
        cached = psi._vals
    # the cache may be far longer than needed (grown for tighter-purpose
    # sums earlier); slice at the smallest certified cutoff so the trig
    # tables stay O(K) and not O(cache)
    lo, hi = n + 8, len(cached)
    while lo < hi:
        mid = (lo + hi) // 2
        if psi._tail_remainder(mid) <= target:
            hi = mid
        else:
            lo = mid + 1
    K = lo
    vals = cached[n - 1:K]
    ks = np.arange(n, K + 1, dtype=np.float64)
    trunc = float(psi._tail_remainder(K))
    return ks, vals, trunc


def duality_sup(psi: PsiFamily, beta: float, n: int, x: float,
                M: int | None = None, rel_tol: float = 1e-12) -> Interval:
    """Numerically exact class sup at x via the duality formula: half the
    range of the kernel tail g(t) = sum_{k>=n} psi(k) cos(kt + gamma_n),
    scaled by (2/pi)|sin((2n-1)x/2)|.

    Coarse M-grid extremes (M >= 16n, default max(16n, 256)) are refined
    by golden-section polish; the interval half-width rbound stacks the
    aliasing remainder (double tail without its leading block) and the
    series truncation slack.
    """
    ivs = duality_sup_batch(psi, beta, n, [x], M, rel_tol)
    return ivs[0]


def duality_sup_batch(psi: PsiFamily, beta: float, n: int, xs,
                      M: int | None = None,
                      rel_tol: float = 1e-12) -> list[Interval]:
    """duality_sup over many x sharing the kernel tables for one (psi, n).

    The phase gamma_n mixes the same two profiles A(t) = sum psi(k)cos(kt)
    and B(t) = sum psi(k)sin(kt) for every x, so the grid work is done once.
    """
    if M is None:
        M = max(16 * n, 256)
    if M < 16 * n:
        raise ValueError("duality grid must have at least 16n points")
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    ks, vals, trunc = _tail_kernel_setup(psi, n, rel_tol)
    t = 2.0 * PI * np.arange(M) / M
    CK = np.cos(np.outer(t, ks))
    SK = np.sin(np.outer(t, ks))
    A = CK @ vals
    B = SK @ vals
    gammas = ((2 * n - 1) * xs + PI * (beta - 1.0)) / 2.0
    cg = np.cos(gammas)
    sg = np.sin(gammas)
    G = np.outer(cg, A) - np.outer(sg, B)      # one kernel profile per x
    imax = np.argmax(G, axis=1)
    imin = np.argmin(G, axis=1)
    h = 2.0 * PI / M
    # stack the 2*len(xs) polish problems: maximize sigma * g_x near each
    # grid extremum
    centers = np.concatenate([t[imax], t[imin]])
    sig = np.concatenate([np.ones(len(xs)), -np.ones(len(xs))])
    cg2 = np.concatenate([cg, cg])
    sg2 = np.concatenate([sg, sg])

    def evaluate(ts):
        CT = np.cos(np.outer(ts, ks)) @ vals
        ST = np.sin(np.outer(ts, ks)) @ vals
        return sig * (cg2 * CT - sg2 * ST)

    polished = _golden_max_vec(evaluate, centers - h, centers + h)
    base = np.concatenate([G[np.arange(len(xs)), imax],
                           -G[np.arange(len(xs)), imin]])
    best = np.maximum(polished, base)
    gmax = best[: len(xs)]
    gmin = -best[len(xs):]
    main = 0.5 * (gmax - gmin)
    # any certification level gives a valid upper end here; demanding the
    # kernel's rel_tol from slow majorants would explode the term budget
    # for heavy-tailed families, so cap at the family's feasible default
    rb_tol = max(rel_tol, psi.default_rel_tol)
    rbound = double_tail(psi, n, rb_tol, k_start=1).hi + trunc
    out = []
    for x, m in zip(xs, main):
        s = sine_factor(n, float(x))
        out.append(Interval(float(s * (m - rbound)), float(s * (m + rbound))))
    return out
