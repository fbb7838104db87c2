"""Right-hand sides and bracket intervals for the deviation estimates,
plus the duality route that computes the class sup numerically exactly.

Every quantity here carries the oscillation factor
(2/pi)|sin((2n-1)x/2)|, which vanishes at the interpolation nodes; the
bracket constants are interval endpoints taken verbatim from the source
estimates.  Certified tail sums enter through their upper ends wherever
an upper bound is promised.

sine_factor (defined in interp, re-exported here), thm1_rhs,
thm1_rhs_modified and thm2_sup_bracket take x as a float or a numpy
array: a float gives float values, an array gives arrays of the same
shape, element for element equal to the scalar calls.

The duality interval starts from the attained half-range of the truncated
kernel tail, found on an FFT grid and refined by Newton polish, and is
widened by three terms: the aliasing remainder (a double tail), the series
truncation slack, and a certified bound on how far the polished extrema
can fall short of the true ones, from branch and bound over grid cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HypothesisUnmet
from .interp import sine_factor
from .psi import (
    Geometric,
    PsiFamily,
    _finite,
    _index,
    _real,
    alpha_lambda,
    double_tail,
    tail_sum,
    truncation_order,
    weighted_tail,
)

PI = math.pi

# bracket constant ranges (lo, hi) for the second-order forms
XI3_RANGE = (-4.0 * (1.0 + 2.0 * PI), (8.0 / 3.0) * (1.0 + PI))
XI4_RANGE = (-(1.0 + 2.0 * PI), 2.0 * (1.0 + PI))
XI1_SUP_RANGE = (-4.0 * (1.0 + PI), (4.0 / 3.0) * (2.0 + PI))
XI2_SUP_RANGE = (-(1.0 + PI), 2.0 + PI)

@dataclass(frozen=True)
class Interval:
    """[lo, hi], with float endpoints or, for brackets over an x grid,
    numpy arrays of endpoints; every endpoint must be finite (a bound past
    the double range raises), and every lo <= its hi.  The containment
    tests give a bool, or a bool array for array endpoints."""

    lo: float
    hi: float

    def __post_init__(self):
        ok = (-math.inf < self.lo) & (self.lo <= self.hi) & (self.hi < math.inf)
        if not (ok.all() if isinstance(ok, np.ndarray) else ok):
            raise ValueError(f"interval [{self.lo}, {self.hi}] is not finite and ordered")

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, v: float, slack: float = 0.0) -> bool:
        return (self.lo - slack <= v) & (v <= self.hi + slack)

    def contains_interval(self, other: "Interval", slack: float = 0.0) -> bool:
        return (self.lo - slack <= other.lo) & (other.hi <= self.hi + slack)


@dataclass(frozen=True)
class GammaPhase:
    gamma_n: float


def gamma_phase(n: int, x: float, beta: float) -> GammaPhase:
    """The kernel-tail phase ((2n-1)x + pi(beta-1))/2; x a float or an
    array."""
    n, beta = _index(n), _real(beta, "beta")
    return GammaPhase(((2 * n - 1) * _finite(x) + PI * (beta - 1.0)) / 2.0)


def thm1_rhs(psi: PsiFamily, n: int, x: float, E: float) -> float:
    """Deviation upper bound (2/pi)|sin((2n-1)x/2)| * (double tail) * E,
    using the certified upper end of the double tail.  x a float (float
    result) or an array (array result)."""
    E = _real(E, "E", 0.0, closed=True)
    return sine_factor(n, x) * double_tail(psi, n).hi * E


def thm1_rhs_modified(psi: PsiFamily, n: int, x: float, E: float) -> float:
    """Same bound with the larger factor (1/n) sum_{k>=n} k psi(k), which
    splits exactly into tail_sum + weighted_tail; always >= thm1_rhs.
    It is the upper end of thm2_sup_bracket times E.  x a float (float
    result) or an array (array result)."""
    E = _real(E, "E", 0.0, closed=True)
    return thm2_sup_bracket(psi, 0.0, n, x).hi * E


def thm2_sup_bracket(psi: PsiFamily, beta: float, n: int, x: float) -> Interval:
    """Bracket for the sup of |deviation| over the unit-derivative class:
    (2/pi)|sin((2n-1)x/2)| * [T - (1+pi) W, T + W] with T the tail sum and
    W the weighted tail (certified outer hull).  beta does not enter the
    endpoints; it is accepted for signature symmetry with the duality route.
    A float x gives float endpoints, an array x arrays of endpoints.
    """
    _real(beta, "beta")
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
    n, E = _index(n), _real(E, "E", 0.0, closed=True)
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
    """thm1_rhs and the thm2 sup bracket for the geometric family
    exp(-alpha k), both scaled by E."""
    psi = Geometric(math.exp(-_real(alpha, "alpha", 0.0)))
    rhs = thm1_rhs(psi, n, x, E)
    iv = thm2_sup_bracket(psi, 0.0, n, x)
    return PoissonBounds(rhs, Interval(iv.lo * E, iv.hi * E))


def dq_bound(psi: PsiFamily, n: int, x: float, E: float,
             c: float = 8.0) -> Interval:
    """Bracket for families with ratio limit q in (0, 1):
    center s psi(n) E/(1-q), half-width
    c (pi/2) (q/(n(1-q)^2) + eps_n/(1-q)^2) s psi(n) E, with s the sine
    factor (2/pi)|sin((2n-1)x/2)|.

    c is the implementation's bounding constant for the unpinned O(1)
    terms (default 8, configurable).  Requires 1/n + eps_n < (1-q)/2.
    """
    n, E, c = _index(n), _real(E, "E", 0.0, closed=True), _real(c, "c", 0.0)
    q = psi.ratio_limit
    if q is None or not 0.0 < q < 1.0:
        raise HypothesisUnmet(f"{psi.label()} has no ratio limit in (0, 1)")
    eps, _ = psi._eps_sup(n, q)
    if not 1.0 / n + eps < (1.0 - q) / 2.0:
        raise HypothesisUnmet(
            f"1/n + eps_n = {1.0 / n + eps:.4f} >= (1-q)/2 = {(1 - q) / 2:.4f} at n={n}")
    s = sine_factor(n, x)
    center = s * psi.value(n) / (1.0 - q) * E
    half = 0.5 * PI * c * (q / (n * (1.0 - q) ** 2) + eps / (1.0 - q) ** 2) \
        * s * psi.value(n) * E
    return Interval(center - half, center + half)


def d0_bound(psi: PsiFamily, n: int, x: float, E: float,
             c: float = 8.0) -> Interval:
    """Bracket for fastest-decay families (ratio limit 0):
    (2/pi)|sin| (psi(n) -+ c R) E with R = tail_sum(n+1) + weighted_tail(n),
    the certified upper end of (1/n) sum_{k>n} k psi(k)."""
    n, E, c = _index(n), _real(E, "E", 0.0, closed=True), _real(c, "c", 0.0)
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

NEWTON_STEPS = 8    # polish steps per start point
REFINE_DEPTH = 16   # bisections of one grid cell before its bound is kept


def _grid_profile(ks: np.ndarray, vals: np.ndarray, M: int) -> np.ndarray:
    """A + iB = sum_k psi(k) e^{ik t_j} at the grid points t_j = 2 pi j / M.

    e^{ik t_j} depends on k only mod M, so the kernel folds into M bins
    and one inverse FFT gives every grid value in O(K + M log M), for any
    K, K > M included.
    """
    folded = np.bincount(ks % M, weights=vals, minlength=M)
    return M * np.fft.ifft(folded)


def _powers(first: np.ndarray, ratio: np.ndarray, count: int) -> np.ndarray:
    """first * ratio^j for j = 0..count-1, one row per entry of first, as
    a cumulative product: count - 1 complex products per row, and no
    exponential."""
    table = np.empty((len(first), count), dtype=np.complex128)
    table[:, 0] = first
    table[:, 1:] = ratio[:, None]
    return np.cumprod(table, axis=1, out=table)


def _trig_sums(ts: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """sum_j weights[m, j] e^{i(n+j)t} for every row m and every t in ts,
    shape (rows, len(ts)).

    Baby-step giant-step (Paterson and Stockmeyer, SIAM J. Comput. 2,
    1973): with k = n + aB + b and 0 <= b < B ~ sqrt(K),
    e^{ikt} = e^{i(n+aB)t} e^{ibt}, so the len(ts) x K phase table becomes
    two tables of about sqrt(K) columns and one matrix product.  Both
    tables are recurrences (see _powers): the baby table e^{ibt} is a
    cumulative product of e^{it}, the giant table e^{i(n+aB)t} is e^{int}
    times one of e^{iBt}, so a point costs three complex exponentials.

    Rounding, in units of u = 2^-53: e^{int} and e^{iBt} carry the
    rounding of n t and B t, which moves the entry of k = n + aB + b by
    at most |kt| u, as rounding k t moved a dense table's; each
    exponential and each complex product adds at most about 4u more, so
    that entry is within about |kt| u + (a + b + 1) 4u of e^{ikt}.  A single
    t is summed as two equal rows: numpy hands a one-row product to gemv,
    which rounds differently from the gemm that sums two rows or more, so
    each row's bits would depend on how many rows share the call.
    """
    m = len(ts)
    if m == 1:
        ts = np.repeat(ts, 2)
    rows, K = weights.shape
    B = math.isqrt(K - 1) + 1
    L = -(-K // B)
    padded = np.zeros((rows, L * B))
    padded[:, :K] = weights
    # column (m, a) holds the weights of k = n + aB + b, b = 0..B-1
    blocks = padded.reshape(rows, L, B).transpose(2, 0, 1).reshape(B, rows * L)
    baby = _powers(np.ones(len(ts)), np.exp(1j * ts), B)
    giant = _powers(np.exp(1j * n * ts), np.exp(1j * B * ts), L)
    inner = (baby @ blocks).reshape(len(ts), rows, L)
    return np.einsum("trl,tl->rt", inner, giant)[:, :m]


def _evaluate(ts, rot, W, n):
    """sigma g, sigma g' and sigma g'' at ts, where rot = sigma e^{i gamma}
    and W holds the weights psi(k), k psi(k), k^2 psi(k); W[:1] gives
    sigma g alone.

    The problems of a batch share grid points and cell midpoints, so the
    kernel sums are taken once per distinct t; the rows of _trig_sums do
    not depend on each other.
    """
    u, inv = np.unique(ts, return_inverse=True)
    Z = _trig_sums(u, W, n)[:, inv]
    g = ((rot * Z[0]).real,)
    if len(W) == 1:
        return g
    return g + (-(rot * Z[1]).imag, -(rot * Z[2]).real)


def _polish(t0, rot, w, W, n, tol):
    """Newton steps on sigma g' = 0 from t0, each step clamped to +-w/2 and
    the point to [t0 - w, t0 + w]; where sigma g'' >= 0 the step is w/2
    uphill.  A point stops once it meets g'^2 <= tol |g''| with g'' of the
    right sign, or after NEWTON_STEPS steps, so its path depends on its own
    start alone.  Returns the last points with sigma g, sigma g', sigma g''
    there, and the best value seen from each start.
    """
    t = t0.copy()
    f, d1, d2 = np.empty((3, len(t0)))
    seen = np.full(len(t0), -np.inf)
    live = np.arange(len(t0))
    for step in range(NEWTON_STEPS + 1):
        f[live], d1[live], d2[live] = _evaluate(t[live], rot[live], W, n)
        seen[live] = np.maximum(seen[live], f[live])
        a, b = d1[live], d2[live]
        moving = ~((b < 0.0) & (a * a <= -tol * b))
        live, a, b = live[moving], a[moving], b[moving]
        if step == NEWTON_STEPS or not len(live):
            return t, f, d1, d2, seen
        with np.errstate(divide="ignore", invalid="ignore"):
            move = np.where(b < 0.0, -a / b, np.sign(a) * w)
        t[live] = np.clip(t[live] + np.clip(move, -0.5 * w, 0.5 * w),
                          t0[live] - w, t0[live] + w)


def _grid_values(V, f):
    """Values at flat indices f of the 2 len(V) x M problem grid, whose
    rows are V (sigma = +1) and then -V (sigma = -1)."""
    r, j = np.divmod(f, V.shape[1])
    v = V[r % len(V), j]
    return np.where(r < len(V), v, -v)


def _grid_step(f, d, M):
    """Flat index d points further along the same row, mod M."""
    j = f % M
    return f - j + (j + d) % M


def _grid_starts(V, best, lift, tol):
    """Flat indices, row-major over the problem grid (see _grid_values),
    of the hot points, whose value + lift beats their row's best + tol,
    and of the hot points that are local maxima of their row: the polish
    starts."""
    nx, M = V.shape
    thr = best + tol
    hot = np.concatenate([np.flatnonzero(V + lift > thr[:nx, None]),
                          np.flatnonzero(lift - V > thr[nx:, None]) + V.size])
    f = _grid_values(V, hot)
    peak = ((f >= _grid_values(V, _grid_step(hot, -1, M)))
            & (f >= _grid_values(V, _grid_step(hot, 1, M))))
    return hot, hot[peak]


def _grid_cells(V, hot, best, lift, tol):
    """Flat indices of the grid cells [t_j, t_j + h] whose larger endpoint
    value + lift beats their row's (raised) best + tol, with both endpoint
    values.  Rounding is monotone, so fl(max(a, b) + c) equals
    max(fl(a + c), fl(b + c)): these are the cells with an endpoint among
    the hot points still hot under the raised best."""
    M = V.shape[1]
    hot = hot[_grid_values(V, hot) + lift > (best + tol)[hot // M]]
    cell = np.union1d(hot, _grid_step(hot, -1, M))
    return cell, _grid_values(V, cell), _grid_values(V, _grid_step(cell, 1, M))


def _covered(p, a, w, centers, radii):
    """Whether each cell [a, a + w] of problem p lies inside one of that
    problem's certified basins [centers - radii, centers + radii] (mod 2 pi);
    unused basin slots have radius -1."""
    inside = np.zeros(len(p), dtype=bool)
    for c, r in zip(centers.T, radii.T):
        d = (a - c[p] + PI) % (2.0 * PI) - PI
        inside |= (d >= -r[p]) & (d + w <= r[p])
    return inside


def _trig_max(vals, n, phase, M, rel_tol):
    """Certified maxima over t of g(t) = Re(rot sum_j vals[j] e^{i(n+j)t})
    for rot = phase and rot = -phase, each entry of phase one problem.

    Returns (best, miss), each of shape (2, len(phase)): row 0 for the max
    of g, row 1 for the max of -g.  Each max lies in [best, best + miss];
    best is attained.  Floating-point rounding in the sums is not counted:
    the phase tables of _trig_sums are recurrences whose entry for
    k = n + aB + b is within about |kt| u + (a + b + 1) 4u of e^{ikt},
    u = 2^-53.  Against mpmath that leaves about 1e-15 of sum |vals| on
    the kernels at n <= 64, and up to 1e-13 at n near 1000, where the
    rounding of n t dominates.

    The weights are scaled by 2^-e to a largest |w| in [1/2, 1), which
    changes no bit of the work; at scale 1 the polish and basin tests'
    products of two kernel-size numbers (d1 * d1, tol * d2) would underflow
    at a tiny kernel and pass with nothing checked.  best and miss are
    scaled back at the end.

    Raises HypothesisUnmet when the largest |w| is nonzero and below
    len(vals) 2^-1074 / rel_tol.  Weights that small are subnormal, and
    each carries a rounding error of up to 2^-1075 that is not relative to
    its size; above that bound those errors sum to at most rel_tol/2 of the
    largest weight, and so do the roundings of best and miss scaled back.

    With h = 2 pi/M, S2 = sum k^2 |w_k|, S3 = sum k^3 |w_k| and
    tol = rel_tol * sum |w_k| (k = n + j):

    - grid: one FFT gives A + iB = sum w_k e^{ikt} on the M-point grid
      (see _grid_profile), and V = Re(phase (A + iB)) holds the grid values
      of g; those of -g are -V.  best starts at each problem's grid max;
    - hot points: grid values v with v + h^2/8 * S2 > best + tol.  Only
      these are visited after the one threshold pass (see _grid_starts);
    - polish: Newton steps on g' = 0 from every hot point that is a local
      maximum of its problem's grid values, mod M (see _polish);
    - grid-miss bound, by branch and bound over the grid cells: a cell of
      width w is bounded by its larger endpoint value + w^2/8 * S2.  The
      cells that enter are those with an endpoint still hot under the
      polished best (see _grid_cells).  A polished point with g'' < 0
      certifies g <= g(t) + g'(t)^2/|g''(t)| within 1.5|g''(t)|/S3 of it.
      Cells that could still beat the best attained value by more than tol
      and lie in no such basin are bisected, at most REFINE_DEPTH times; a
      cell left at the cap keeps its bound.  miss is the largest amount by
      which a kept cell's bound beats best, and at least tol.

    Polish steps and bisection midpoints evaluate g, g' and g'' once per
    distinct t and share the sums among the problems at that t (see
    _evaluate); problems for different rotations meet at the same grid
    points and cell midpoints.
    """
    top = float(np.max(np.abs(vals)))
    if 0.0 < top < len(vals) * math.ulp(0.0) / rel_tol:
        raise HypothesisUnmet(
            f"largest kernel weight {top!r} is below {len(vals)} x 2^-1074 "
            f"/ rel_tol: float64 holds the weights to less than rel_tol")
    e = math.frexp(top)[1]
    vals = np.ldexp(vals, -e)
    ks = np.arange(n, n + len(vals))
    W = np.stack([vals, ks * vals, ks * (ks * vals)])
    absW2 = np.abs(W[2])
    curv = float(np.sum(absW2)) / 8.0
    S3 = float(ks @ absW2)
    tol = rel_tol * float(np.sum(np.abs(vals)))
    h = 2.0 * PI / M
    t = h * np.arange(M)
    # one problem per (side, rotation): maximize sigma g, sigma = +1 then
    # -1; the sigma = -1 rows of the grid are exactly -V.  V is copied out
    # of the complex product so that the product can be freed
    rot = np.concatenate([phase, -phase])
    V = np.outer(phase, _grid_profile(ks, vals, M)).real.copy()
    best = np.concatenate([V.max(axis=1), -V.min(axis=1)])
    lift = curv * h * h

    hot, start = _grid_starts(V, best, lift, tol)
    p, j = np.divmod(start, M)
    tp, f, d1, d2, seen = _polish(t[j], rot[p], h, W, n, tol)
    np.maximum.at(best, p, seen)
    # basins, one slot per start of each problem (p is sorted)
    with np.errstate(divide="ignore", invalid="ignore"):
        certified = (d2 < 0.0) & (f - d1 * d1 / d2 <= best[p] + tol)
    slot = np.arange(len(p)) - np.searchsorted(p, p)
    slots = int(slot.max()) + 1 if len(p) else 0
    centers = np.zeros((len(rot), slots))
    radii = np.full((len(rot), slots), -1.0)
    centers[p, slot] = tp
    radii[p[certified], slot[certified]] = -1.5 * d2[certified] / S3

    # branch and bound; every cell dropped below is bounded by best + tol
    cell, fa, fb = _grid_cells(V, hot, best, lift, tol)
    cp, j = np.divmod(cell, M)
    a, w = t[j], h
    for depth in range(REFINE_DEPTH + 1):
        U = np.maximum(fa, fb) + curv * w * w
        keep = (U > best[cp] + tol) & ~_covered(cp, a, w, centers, radii)
        cp, a, fa, fb, U = cp[keep], a[keep], fa[keep], fb[keep], U[keep]
        if depth == REFINE_DEPTH or not len(cp):
            break
        w *= 0.5
        fm, = _evaluate(a + w, rot[cp], W[:1], n)
        np.maximum.at(best, cp, fm)
        cp, a = np.concatenate([cp, cp]), np.concatenate([a, a + w])
        fa, fb = np.concatenate([fa, fm]), np.concatenate([fm, fb])
    miss = np.full(len(rot), tol)
    np.maximum.at(miss, cp, U - best[cp])
    return np.ldexp(best, e).reshape(2, -1), np.ldexp(miss, e).reshape(2, -1)


def duality_sup(psi: PsiFamily, beta: float, n: int, x: float,
                rel_tol: float = 1e-12) -> Interval:
    """Numerically exact class sup at x via the duality formula: half the
    range of the kernel tail g(t) = sum_{k>=n} psi(k) cos(kt + gamma_n),
    scaled by (2/pi)|sin((2n-1)x/2)|.  See duality_sup_batch for the
    method and the three terms of the interval.
    """
    return duality_sup_batch(psi, beta, n, [x], rel_tol)[0]


def duality_sup_batch(psi: PsiFamily, beta: float, n: int, xs,
                      rel_tol: float = 1e-12) -> list[Interval]:
    """duality_sup at every x in xs, sharing the kernel work for one (psi, n).

    g is truncated to g_K = sum_{k=n}^{K} psi(k) cos(kt + gamma_n).  The
    cutoff is K = max(n + 8, truncation_order(psi, rel_tol, n=n)), the
    smallest K whose remainder bound is within rel_tol of tail_sum(n);
    the weights are psi.head(K).  g_K(t) = Re(e^{i gamma_n} sum psi(k)
    e^{ikt}), so the max of g_K and the max of -g_K at every x come from
    one _trig_max call on those weights, with the rotations e^{i gamma_n},
    on the grid of M = max(16n, 256) points.  A grid of 16n points already
    gives the same interval to 1e-12 relative as one of 4096.

    The lower end of each interval is the attained half-range (the mean of
    the two sides' best) less rbound; the upper end adds rbound and the
    mean of the two sides' grid-miss terms.  rbound stacks the aliasing
    remainder (double tail without its leading block) and the series
    truncation slack.  Floating-point rounding in the kernel sums (about
    1e-15 of sum psi(k) at n <= 64, from phase tables built by recurrence;
    see _trig_sums) is not counted.  Raises HypothesisUnmet where the
    kernel weights are too small for float64 to hold them to rel_tol (see
    _trig_max).
    """
    n, xs = _index(n), np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if xs.ndim != 1:
        raise ValueError(f"xs must be one-dimensional, got shape {xs.shape}")
    phase = np.exp(1j * gamma_phase(n, xs, beta).gamma_n)
    K = max(n + 8, truncation_order(psi, rel_tol, n=n))
    best, miss = _trig_max(psi.head(K)[n - 1:], n, phase, max(16 * n, 256),
                           rel_tol)
    main = 0.5 * (best[0] + best[1])
    miss = 0.5 * (miss[0] + miss[1])
    # any certification level gives a valid upper end here; demanding the
    # kernel's rel_tol from slow majorants would explode the term budget
    # for heavy-tailed families, so cap at the family's feasible default
    rb_tol = max(rel_tol, psi.default_rel_tol)
    rbound = double_tail(psi, n, rb_tol, k_start=1).hi \
        + float(psi._tail_remainder(K))
    s = sine_factor(n, xs)
    return list(map(Interval, (s * (main - rbound)).tolist(),
                    (s * (main + rbound + miss)).tolist()))
