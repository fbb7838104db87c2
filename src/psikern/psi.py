"""Coefficient-sequence families and certified tail sums.

A family describes a nonnegative summable sequence psi(k), k >= 1, that
weights the cosine-series kernel

    K_beta(t) = sum_{k>=1} psi(k) cos(kt - beta*pi/2).

Everything downstream (kernel evaluation, deviation bounds, sharpness
probes) consumes three tail quantities, each returned as a CertifiedSum
whose true value is trapped in [value, value + remainder_bound]:

    tail_sum(n)      = sum_{k>=n} psi(k)
    weighted_tail(n) = (1/n) sum_{k>=1} k psi(k+n)
    double_tail(n)   = sum_{k>=0} sum_{nu >= (2k+1)n-k} psi(nu)

Remainders come from per-family majorants (closed forms, integral tests,
or certified geometric ratio envelopes); the power family's closed forms
are Hurwitz zeta enclosures (hurwitz_zeta).  Partial sums are evaluated as
suffix sums of a lazily grown cache so that no precision is lost to
head/tail cancellation even when the tail is 40 orders of magnitude
below the head.

Families with a natural continuous extension psi(t) also expose the decay
characteristics

    lambda(t) = psi(t)/|psi'(t)|,   alpha(t) = lambda(t)/t,
    eta(t) = psi^{-1}(psi(t)/2),    mu(t) = t/(eta(t)-t).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DivisionDomain,
    HypothesisUnmet,
    NonMonotone,
    SlowConvergence,
    UnknownRatioMonotonicity,
)

DEFAULT_REL_TOL = 1e-12
DEFAULT_TERM_BUDGET = 10_000_000
_U = 2.0 ** -53  # unit roundoff of float64
# serializes cache growth so a cache never shrinks under a racing grower
_GROW_LOCK = threading.Lock()

# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifiedSum:
    """A partial sum together with a certified bound on what was left out.

    For a nonnegative-term series the true sum lies in
    [value, value + remainder_bound].  Signed series (kernel values) use
    the symmetric reading value +- remainder_bound; see trig.kernel_eval.
    Bounds are evaluated in float64: quantities below the subnormal range
    round to zero.

    Closed forms come in two kinds.  The power family's Hurwitz zeta
    values carry a nonzero remainder_bound that covers both the
    Euler-Maclaurin truncation and floating-point rounding, so
    [value, hi] encloses the true sum.  The geometric-type closed forms
    (Geometric, GenPoisson with r = 1, EvenOdd) report remainder_bound
    0.0: they have no truncation, and the few roundings of their formulas
    are not counted yet.  Cached partial sums do not count rounding
    either.
    """

    value: float
    remainder_bound: float
    terms_used: int

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.remainder_bound >= 0.0):
            raise ValueError("certified sum needs a finite value and remainder_bound >= 0")

    @property
    def hi(self) -> float:
        return self.value + self.remainder_bound


@dataclass(frozen=True)
class Characteristics:
    """Decay characteristics of a family at a point t >= 1.

    lambda_t = t * alpha_t holds exactly by construction; eta_t > t and
    mu_t = t/(eta_t - t).
    """

    alpha_t: float
    lambda_t: float
    eta_t: float
    mu_t: float


@dataclass(frozen=True)
class ClassFlags:
    """Per-n membership diagnostics for the ratio and decay classes."""

    n: int
    is_dq: bool
    q: float | None
    eps_n: float | None
    is_d0: bool
    alpha_decreasing: bool
    lambda_increasing: bool
    n_condition_dq: bool
    n_condition_alpha: bool
    ratio_prefix_monotone: bool | None = None


class Lemma1Result(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


# ---------------------------------------------------------------------------
# family base
# ---------------------------------------------------------------------------


class PsiFamily:
    """Base class: formula + certified remainder majorants + cached sums.

    Subclasses provide `_values_array` (the formula), `_tail_remainder`
    and `_ktail_remainder` (upper bounds on sum_{k>K} psi(k) and
    sum_{k>K} k psi(k), allowed to return inf when K is still too small
    for the majorant's precondition), and optional closed forms.

    Instances are immutable apart from an internal, monotonically growing
    summation cache.  The cache is the snapshot (psi(1..C), suffix sums,
    table), published in one rebind and read through one local snapshot,
    so all public operations are safe for concurrent use.  The three
    cached sums read the suffix sums alone: tail_sum one entry,
    weighted_tail the sum of the entries past n, and double_tail one
    entry per block.  One certify-or-grow loop decides how far it grows:
    the three sums of a family without a closed form each hand it a
    reader of their value from one cache snapshot and their remainder as
    a function of the cache length, stated once.  The loop doubles the
    cache until that remainder certifies, clamped to the term budget, and
    raises SlowConvergence at the budget, or at once when the remainder at
    the budget cannot certify.  Closed forms grow nothing.

    The table holds the results certified while the snapshot was current,
    closed forms included: the latest one per sum and settings (rel_tol,
    budget, k_start), so its size does not grow with the n a caller
    sweeps.  A repeat at the same arguments returns the stored result,
    the bits a re-read of the snapshot gives.  A growth publishes an
    empty table with the new arrays; SlowConvergence is never stored.
    """

    kind: str = "abstract"
    default_rel_tol: float = DEFAULT_REL_TOL
    # limit of psi(k+1)/psi(k): a q in (0,1), 0.0 for super-fast decay,
    # None when the ratio has no limit inside [0,1)
    ratio_limit: float | None = None
    has_continuous_extension: bool = True
    m_alpha_member: bool = False

    def __init__(self):
        self._cache = (np.empty(0, dtype=np.float64),
                       np.zeros(1, dtype=np.float64), {})

    # -- formula hooks ------------------------------------------------------

    def _values_array(self, k: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _tail_remainder(self, K: int) -> float:
        raise NotImplementedError

    def _ktail_remainder(self, K: int) -> float:
        raise NotImplementedError

    def _closed_tail(self, n: int) -> CertifiedSum | None:
        return None

    def _closed_weighted(self, n: int) -> CertifiedSum | None:
        return None

    def _closed_double(self, n: int, k_start: int) -> CertifiedSum | None:
        return None

    def _lambda_analytic(self, t: float) -> float | None:
        return None

    def _psi_continuous(self, t: float) -> float:
        if not self.has_continuous_extension:
            raise ValueError(f"{self.kind} family has no continuous extension")
        return float(self._values_array(np.array([float(t)]))[0])

    def _eps_sup(self, n: int, q: float) -> tuple[float, bool]:
        """sup_{k>=n} |psi(k+1)/psi(k) - q| and a prefix-monotonicity flag."""
        raise NotImplementedError

    def params(self) -> dict:
        return {}

    # -- cache --------------------------------------------------------------

    @property
    def _vals(self) -> np.ndarray:
        return self._cache[0]

    def _ensure(self, length: int) -> None:
        with _GROW_LOCK:
            vals = self._cache[0]
            have = len(vals)
            if length <= have:
                return
            ks = np.arange(have + 1, length + 1, dtype=np.float64)
            new = _psi_values(self._values_array(ks), self.kind)
            vals = np.concatenate([vals, new])
            # suffix sums, accumulated from the far (small) end so every
            # entry is accurate relative to itself, not to the series head
            rev = np.cumsum(vals[::-1])[::-1]
            self._cache = (vals, np.concatenate([rev, [0.0]]), {})

    def head(self, K: int) -> np.ndarray:
        """psi(1..K) as an array (grows the cache as needed)."""
        K = _index(K, 0, "K")
        self._ensure(K)
        return self._vals[:K]

    def value(self, k: int) -> float:
        k = _index(k, 1, "k")
        return float(self._values_array(np.array([float(k)]))[0])

    def label(self) -> str:
        ps = ",".join(f"{k}={v:g}" for k, v in self.params().items()
                      if not isinstance(v, (list, tuple, np.ndarray, dict)))
        return f"{self.kind}({ps})" if ps else self.kind

    def __repr__(self):  # pragma: no cover - cosmetic
        return self.label()


# ---------------------------------------------------------------------------
# certified summation engine
# ---------------------------------------------------------------------------


def _index(n, floor: int = 1, name: str = "n") -> int:
    """n as an int, checked before anything reads it: the one check of
    every count (orders, indices, budgets, grid sizes).  It must be an
    integer, or a float with an integral value, and at least floor; NaN,
    +-inf and anything else raise ValueError."""
    try:
        i = int(n)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != n or i < floor:
        what = "a positive integer" if floor == 1 else f"an integer >= {floor}"
        raise ValueError(f"{name} must be {what}, got {n!r}")
    return i


def _real(v, name: str, lo: float = -math.inf, hi: float = math.inf,
          closed: bool = False) -> float:
    """v as a float, checked: the one check of every real parameter.  It
    must be finite and in (lo, hi), or in [lo, hi) when closed; anything
    else raises ValueError."""
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (math.isfinite(x) and (lo <= x if closed else lo < x) and x < hi):
        raise ValueError(f"{name} must be a finite number in "
                         f"{'[' if closed else '('}{lo:g}, {hi:g}), got {v!r}")
    return x


def _finite(x, name: str = "x"):
    """x, checked: the one check of every point and sample.  A float, or
    every entry of a numpy array, must be finite; NaN or +-inf raises
    ValueError."""
    if not (np.isfinite(x).all() if isinstance(x, np.ndarray)
            else math.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


def _psi_values(vals: np.ndarray, label: str) -> np.ndarray:
    """vals, checked: the one check of psi values, from a formula or a
    table.  Every entry must be finite and >= 0, or ValueError is raised."""
    if not ((vals >= 0.0) & (vals < math.inf)).all():
        raise ValueError(f"{label}: psi values must be finite and >= 0")
    return vals


def _settings(psi, rel_tol, budget) -> tuple[float, int]:
    """rel_tol and budget (None takes the default), checked before any
    closed form or cache read."""
    rel_tol = psi.default_rel_tol if rel_tol is None \
        else _real(rel_tol, "rel_tol", 0.0)
    budget = DEFAULT_TERM_BUDGET if budget is None \
        else _index(budget, 1, "budget")
    return rel_tol, budget


def _stored(psi, key, n):
    """The result the current snapshot's table holds for key, if it was
    certified at n; else None.

    key = (what, rel_tol, budget, ...) names a sum and its checked
    settings.  The table holds one entry per key, the pair (n, result),
    replaced in one assignment, so a racing thread reads a whole entry,
    and every entry it can read is correct for its n.
    """
    hit = psi._cache[2].get(key)
    return hit[1] if hit is not None and hit[0] == n else None


def _certified(psi, key, n, closed, read, rem):
    """A sum's result from its closed form, or from the one loop that
    grows a family's cache until a majorant certifies, for a call that
    _stored did not answer.  closed is the closed form's result, None
    when there is none; it is stored in the current snapshot's table as
    (n, closed) under key.

    Each round of the loop takes one cache snapshot (suf, C): its suffix
    sums and its length.  read(suf, C) returns (value, terms_used) from
    it, and rem(C), nonincreasing in C, is the sum's remainder at that
    length.  The result is certified once rem(C) <= rel_tol * value (or
    both are 0), and it is stored in that snapshot's table: a re-read of
    the snapshot certifies in its first round with the same bits.  The
    cache starts at n + 64 terms and doubles, never past budget.  The
    value at any length is at most value + rem(C), so once rem(budget)
    exceeds rel_tol times that, or is inf (no majorant yet, say where its
    ratio bound leaves the double range), no length within the budget can
    certify; the loop then raises SlowConvergence at once, as it does at
    the budget and for a budget below n, reporting the budget as the terms
    shown not to certify.
    """
    what, rel_tol, budget = key[:3]
    if closed is not None:
        psi._cache[2][key] = (n, closed)
        return closed

    psi._ensure(min(budget, n + 64))
    while True:
        _, suf, table = psi._cache
        have = len(suf) - 1
        if have < n:  # a budget below n: no cache it allows holds the sum
            break
        value, used = read(suf, have)
        r = rem(have)
        if (r <= rel_tol * value) or (value == 0.0 and r == 0.0):
            result = CertifiedSum(float(value), float(r), int(used))
            table[key] = (n, result)
            return result
        r_end = rem(budget)
        if have >= budget or r_end == math.inf \
                or r_end > rel_tol * (value + r):
            break
        # the cache holds at least n + 64 terms here, so doubling also
        # reaches past n + 128
        psi._ensure(min(budget, 2 * have))
    raise SlowConvergence(
        f"{psi.label()}: {what} at n={n} did not certify within "
        f"{budget} cached terms; relax rel_tol or raise the budget",
        terms_used=max(have, budget))


def tail_sum(psi: PsiFamily, n: int, rel_tol: float | None = None,
             budget: int | None = None) -> CertifiedSum:
    """Certified sum_{k>=n} psi(k)."""
    n = _index(n)
    key = ("tail_sum", *_settings(psi, rel_tol, budget))
    return _stored(psi, key, n) or _certified(
        psi, key, n, psi._closed_tail(n),
        lambda suf, C: (suf[n - 1], C - n + 1), psi._tail_remainder)


def weighted_tail(psi: PsiFamily, n: int, rel_tol: float | None = None,
                  budget: int | None = None) -> CertifiedSum:
    """Certified (1/n) sum_{k>=1} k psi(k+n) = (1/n) sum_{j>n} tail_sum(j).

    Families without a closed form read it as the sum of the cached suffix
    sums past n: sum_{j>n} tail(j) = sum_{k>n} (k-n) psi(k), every term
    nonnegative (no head cancellation)."""
    n = _index(n)
    key = ("weighted_tail", *_settings(psi, rel_tol, budget))
    return _stored(psi, key, n) or _certified(
        psi, key, n, psi._closed_weighted(n),
        lambda suf, C: (float(np.sum(suf[n:C])) / n, C - n),
        lambda C: psi._ktail_remainder(C) / n)


def double_tail(psi: PsiFamily, n: int, rel_tol: float | None = None,
                budget: int | None = None, k_start: int = 0) -> CertifiedSum:
    """Certified sum_{k>=k_start} sum_{nu >= n+k(2n-1)} psi(nu).

    k_start=0 is the full double tail; k_start=1 drops the leading
    tail_sum(n) block (the form used by the summed-tail comparison check
    and by the duality remainder).  k_start must be a nonnegative integer.
    Families without a closed form read one cached suffix sum per block.
    A term psi(nu), nu > C, lies in at most (nu-n)/s + 1 blocks, s = 2n-1,
    so the remainder at cache length C is _tail_remainder(C) +
    _ktail_remainder(C)/s, and the sum refuses early as the other two do.
    """
    n, k_start = _index(n), _index(k_start, 0, "k_start")
    key = ("double_tail", *_settings(psi, rel_tol, budget), k_start)
    s = 2 * n - 1

    def read(suf, C):
        ms = np.arange(n + k_start * s, C + 1, s)
        return float(np.sum(suf[ms - 1])), int(np.sum(C - ms + 1))

    return _stored(psi, key, n) or _certified(
        psi, key, n, psi._closed_double(n, k_start), read,
        lambda C: psi._tail_remainder(C) + psi._ktail_remainder(C) / s)


def limit_ratio(psi: PsiFamily, n: int, rel_tol: float | None = None,
                budget: int | None = None) -> float:
    """weighted_tail / tail_sum, the quantity that must vanish for the
    tail-dominant asymptotics to be sharp."""
    T = tail_sum(psi, n, rel_tol, budget)
    if T.value == 0.0:
        raise DivisionDomain(f"{psi.label()}: tail_sum(n={n}) is zero")
    W = weighted_tail(psi, n, rel_tol, budget)
    return W.value / T.value


def lemma1_check(psi: PsiFamily, n: int, rel_tol: float | None = None,
                 budget: int | None = None) -> Lemma1Result:
    """Check (1/n) sum k psi(k+n) >= sum_{k>=1} sum_{nu>=n+k(2n-1)} psi(nu).

    holds is the certified-window reading: lhs >= rhs - slack where slack
    stacks both remainder bounds plus float headroom.
    """
    W = weighted_tail(psi, n, rel_tol, budget)
    R = double_tail(psi, n, rel_tol, budget, k_start=1)
    slack = W.remainder_bound + R.remainder_bound \
        + 1e-12 * (1.0 + W.value + R.value)
    return Lemma1Result(W.value, R.value, bool(W.value >= R.value - slack))


def truncation_order(psi: PsiFamily, rel_tol: float | None = 1e-12,
                     budget: int | None = None, n: int = 1) -> int:
    """Smallest K >= n with _tail_remainder(K) <= rel_tol * T, where T is
    tail_sum(psi, n, rel_tol).value (T = 1 when that tail is 0, so the
    target is rel_tol itself): the certified cutoff of the kernel tail
    sum_{n<=k<=K} psi(k) cos(kt + c), relative to tail_sum(n).  rel_tol
    None is the family's default, as for the sums.

    K comes from the remainder alone, and no cache grows: it doubles from
    n until the remainder certifies, raising SlowConvergence once it would
    pass the budget, and is then found by bisection below (every family's
    remainder bound is nonincreasing in K).
    """
    n = _index(n)
    rel_tol, budget = _settings(psi, rel_tol, budget)
    tail = tail_sum(psi, n, rel_tol, budget).value
    target = rel_tol * (tail if tail > 0.0 else 1.0)
    lo = K = n
    while K > budget or psi._tail_remainder(K) > target:
        if K >= budget:
            raise SlowConvergence(f"{psi.label()}: the kernel cutoff at n={n} "
                                  f"needs over {budget} terms", budget)
        lo, K = K + 1, min(2 * K, budget)
    while lo < K:
        mid = (lo + K) // 2
        if psi._tail_remainder(mid) <= target:
            K = mid
        else:
            lo = mid + 1
    return K


# ---------------------------------------------------------------------------
# characteristics
# ---------------------------------------------------------------------------


def alpha_lambda(psi: PsiFamily, t: float) -> tuple[float, float]:
    """(alpha(t), lambda(t)) without the eta bisection; lambda = t*alpha."""
    t = _real(t, "t", 1.0, closed=True)
    # a family with no continuous extension has no analytic lambda, and
    # its _psi_continuous raises ValueError
    lam = psi._lambda_analytic(t)
    if lam is None:
        h = 1e-5 * t
        d = (psi._psi_continuous(t + h) - psi._psi_continuous(t - h)) / (2.0 * h)
        if not d < 0.0:
            raise NonMonotone(
                f"{psi.label()}: psi is not strictly decreasing near t={t}")
        lam = psi._psi_continuous(t) / (-d)
    return lam / t, lam


def _solve_eta(psi: PsiFamily, t: float) -> float:
    target = psi._psi_continuous(t) / 2.0
    if target <= 0.0:
        raise NonMonotone(f"{psi.label()}: psi({t}) underflowed, eta undefined")
    lo, hi = float(t), float(t)
    step = max(1.0, 0.5 * t)
    prev = psi._psi_continuous(t)
    for _ in range(200):
        hi = hi + step
        cur = psi._psi_continuous(hi)
        if cur > prev * (1.0 + 1e-12):
            raise NonMonotone(
                f"{psi.label()}: psi increases on the bracketing interval")
        if cur < target:
            break
        prev = cur
        step *= 2.0
    else:
        raise NonMonotone(f"{psi.label()}: could not bracket psi(t)/2")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if psi._psi_continuous(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def characteristics(psi: PsiFamily, t: float) -> Characteristics:
    """Full characteristics (alpha, lambda, eta, mu) at t >= 1.

    Analytic lambda formulas are used where the family declares one;
    otherwise central finite differences with step 1e-5*t.  eta is found
    by bisection on the (strictly decreasing) continuous extension.
    """
    a, lam = alpha_lambda(psi, t)
    eta = _solve_eta(psi, t)
    if not eta > t:
        raise NonMonotone(f"{psi.label()}: eta({t}) did not exceed t")
    return Characteristics(a, lam, eta, t / (eta - t))


# ---------------------------------------------------------------------------
# class membership
# ---------------------------------------------------------------------------


def class_check(psi: PsiFamily, n_range: Sequence[int]) -> dict[int, ClassFlags]:
    """Ratio-class and decay-class flags for each n in n_range."""
    if psi.kind == "tabulated" and getattr(psi, "majorant", None) is None:
        raise UnknownRatioMonotonicity(
            "tabulated family declares no ratio guarantee; supply a majorant")
    q = psi.ratio_limit
    is_dq = q is not None and 0.0 < q < 1.0
    is_d0 = q == 0.0
    out: dict[int, ClassFlags] = {}
    for n in n_range:
        n = _index(n)
        eps = mono = None
        if is_dq:
            eps, mono = psi._eps_sup(n, q)
        if psi.has_continuous_extension:
            a0, l0 = alpha_lambda(psi, n)
            a1, l1 = alpha_lambda(psi, n + 1)
            alpha_dec = a1 <= a0 * (1.0 + 1e-12)
            lambda_inc = l1 >= l0 * (1.0 - 1e-12)
            n_cond_alpha = a0 <= 0.25
        else:
            alpha_dec = lambda_inc = n_cond_alpha = False
        n_cond_dq = bool(is_dq and (1.0 / n + eps) < (1.0 - q) / 2.0)
        out[n] = ClassFlags(n, is_dq, q if is_dq else None, eps, is_d0,
                            alpha_dec, lambda_inc, n_cond_dq, n_cond_alpha,
                            mono)
    return out


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def _exact(value: float) -> CertifiedSum:
    # a closed form without truncation; its rounding is not counted
    return CertifiedSum(float(value), 0.0, 0)


def _geom_tail(q: float, m: int) -> float:
    # sum_{k>=m} q^k
    return q ** m / (1.0 - q)


def _geom_ktail(q: float, m: int) -> float:
    # sum_{k>=m} k q^k
    return q ** m * (m - (m - 1) * q) / (1.0 - q) ** 2


def _geom_weighted(q: float, n: int) -> float:
    # (1/n) sum_{k>=1} k q^(k+n)
    return q ** (n + 1) / (n * (1.0 - q) ** 2)


def _geom_double(q: float, n: int, k_start: int) -> float:
    # sum_{k>=k_start} sum_{nu >= n+k(2n-1)} q^nu
    s = 2 * n - 1
    return q ** (n + k_start * s) / ((1.0 - q) * (1.0 - q ** s))


def _frozen_exponent_tail(u: float, m: float, p: float) -> float:
    # sum_{k>K} k^(p-1) psi(k) <= u^(p-m)/(m-p) for psi(t) = (t+c)^(-m(t)),
    # u = K+c, with the increasing exponent m frozen at its value at K;
    # inf until m exceeds p
    if m <= p + 1e-9:
        return math.inf
    return u ** (p - m) / (m - p)


def _ratio_tail(psi_K: float, rho: float) -> float:
    # sum_{k>K} psi(k) <= psi(K) rho/(1-rho) when every ratio
    # psi(k+1)/psi(k), k >= K, is at most rho; inf until rho < 1
    if rho >= 1.0:
        return math.inf
    return psi_K * rho / (1.0 - rho)


def _ratio_ktail(K: int, psi_K: float, rho: float) -> float:
    # sum_{k>K} k psi(k) <= psi(K) (K rho/(1-rho) + rho/(1-rho)^2) under
    # the same ratio envelope
    if rho >= 1.0:
        return math.inf
    return psi_K * (K * rho / (1.0 - rho) + rho / (1.0 - rho) ** 2)


# Euler-Maclaurin for the Hurwitz zeta function: shift a to x = a + N with
# x >= s + _EM_SHIFT, then add _EM_TERMS Bernoulli corrections.  Every
# correction ratio (s+2j-1)(s+2j)/(2 pi x)^2 is then below 1/(4 pi^2).
_EM_TERMS = 10
_EM_SHIFT = 20.0
# B_2j as (numerator, denominator), j = 1.._EM_TERMS + 1
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
              (7, 6), (-3617, 510), (43867, 798), (-174611, 330),
              (854513, 138))
# B_2j/(2j)!, each correctly rounded (Python int / int)
_EM_COEF = tuple(num / (den * math.factorial(2 * j))
                 for j, (num, den) in enumerate(_BERNOULLI, start=1))
_TINY = 2.0 ** -1074  # smallest subnormal: the absolute error of underflow


def _gamma(k: float) -> float:
    # Higham's gamma_k = k u / (1 - k u) bounds the relative error of k
    # roundings (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    # Lemma 3.1)
    return k * _U / (1.0 - k * _U)


def hurwitz_zeta(s: float, a) -> tuple[np.ndarray, np.ndarray]:
    """Enclosure of zeta(s, a) = sum_{k>=0} (a+k)^(-s), real s > 1, a > 0.

    Returns arrays (lo, width), shaped like a, with
    lo <= zeta(s, a) <= lo + width for the float a given.

    Method (Johansson, "Rigorous high-precision computation of the
    Hurwitz zeta function and its derivatives", Numer. Algorithms 69,
    2015): sum the first N terms explicitly, N = max(0, ceil(s + 20 - a)),
    then apply Euler-Maclaurin at x = a + N,

        zeta(s, x) = x^(1-s)/(s-1) + x^(-s)/2 + sum_{j=1}^{M} T_j + R,
        T_j = B_2j/(2j)! (s)_{2j-1} x^(-s-2j+1),

    with M = 10 and (s)_k the rising factorial.  f(t) = (x+t)^(-s) is
    completely monotone, so the remainder after T_M has the sign of the
    first omitted term and |R| <= |T_{M+1}|: the Euler-Maclaurin remainder
    of DLMF 2.10.2 lies between 0 and twice the first term it stands for
    when f^(2M+2) >= 0 (by |B_2m(t)| <= |B_2m| on [0,1], DLMF 24.9.1), and
    applying that to both M+1 and M+2 leaves R between 0 and T_{M+1}.
    This is Backlund's bound for real s (Edwards, Riemann's Zeta Function,
    1974, ch. 6).  B_22 > 0, so R lies in [0, T_11].

    Rounding is counted a priori in units of u = 2^-53: s u for the
    rounding of a + k raised to the power -s, 4 ulps for each library pow,
    one per other operation, combined by Higham's gamma_k; plus an
    absolute allowance for underflow.  The count holds for a < 1 as well:
    the first head term raises a itself, which is exact, every later a + k
    rounds once, the head terms are all positive, and the error term below
    counts the N - 1 head additions from the N actually taken (at most
    ceil(s + 20)).  x = a + N >= s + 20 still, so the Euler-Maclaurin part
    is unchanged.  For tiny a, a^(-s) can overflow; lo is then not finite.
    Past s of about 4.8e14 the rising factorial (s)_21 leaves the double
    range, and HypothesisUnmet is raised before any array is touched.
    """
    s = _real(s, "s", 1.0)
    a = np.asarray(a, dtype=np.float64)
    _real(np.min(a), "a", 0.0)
    coef, rising = [], s  # coef[j-1] = B_2j/(2j)! (s)_{2j-1}
    for j, c in enumerate(_EM_COEF, start=1):
        coef.append(c * rising)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    if not math.isfinite(coef[-1]):
        raise HypothesisUnmet(
            f"hurwitz_zeta: the Euler-Maclaurin coefficients at s = {s!r} "
            f"leave the double range")
    N = np.maximum(np.ceil(s + _EM_SHIFT - a), 0.0)
    x = a + N
    # the head sum_{k<N} (a+k)^-s as a running sum over k, in O(len(a))
    # memory; the terms past an entry's N add 0.0, which is exact, and so
    # do all terms once every entry's has underflowed (they decrease in k)
    head = np.zeros_like(x)
    for k in range(int(N.max(initial=0.0))):
        term = np.where(k < N, (a + k) ** -s, 0.0)
        if not term.any():
            break
        head += term
    p = x ** -s
    y = 1.0 / (x * x)
    corr = np.zeros_like(x)
    for c in reversed(coef[:_EM_TERMS]):
        corr = corr * y + c
    corr = corr * p / x
    omitted = coef[_EM_TERMS] * y ** _EM_TERMS * p / x
    main = head + x * p / (s - 1.0) + 0.5 * p
    lo = main + corr
    # Each part of main carries at most s + 8 roundings' worth (s u from
    # a + k or a + N under the power, 4 ulps of pow, four roundings in
    # x p/(s-1)); the head adds N - 1 additions, and the sums into lo,
    # lo - err and lo + width five more.  The corrections alternate with
    # ratios below 1/(4 pi^2), so sum |T_j| <= 2 T_1 = 2 coef[0] p/x, and
    # each T_j sees at most s + 10M + 10 roundings.  Underflow adds an
    # absolute error per operation, which x p/(s-1) scales by x/(s-1).
    err = (_gamma(s + N + 16.0) * main
           + _gamma(s + 10.0 * _EM_TERMS + 16.0) * 2.0 * coef[0] * p / x
           + 8.0 * (s + N + 16.0) * (1.0 + x / (s - 1.0)) * _TINY)
    return lo - err, omitted + 2.0 * err


class Power(PsiFamily):
    """psi(k) = k^(-r).  Requires r > 2 so that sum k psi(k) converges.

    All three tails are Hurwitz zeta values: tail_sum(n) is zeta(r, n),
    n weighted_tail(n) is zeta(r-1, n+1) - n zeta(r, n+1), and with
    s = 2n-1, n' = n + k_start s and a_j = (n'+j)/s the double tail is
    s^-r sum_{j<s} [zeta(r-1, a_j) + (1 - a_j) zeta(r, a_j)].  Each comes
    from hurwitz_zeta, whose enclosure counts truncation and rounding, so
    their remainder_bound is small but not zero, and none reads the cache.
    The double tail raises HypothesisUnmet where a_j^-r leaves the double
    range (r above about 1024 at k_start = 0).
    """

    kind = "power"

    def __init__(self, r: float):
        super().__init__()
        # r > 2: the k-weighted tails must converge
        self.r = _real(r, "r", 2.0)

    def params(self):
        return {"r": self.r}

    def _values_array(self, k):
        return k ** (-self.r)

    def _tail_remainder(self, K):
        return K ** (1.0 - self.r) / (self.r - 1.0)

    def _ktail_remainder(self, K):
        return K ** (2.0 - self.r) / (self.r - 2.0)

    def _closed_tail(self, n):
        lo, width = hurwitz_zeta(self.r, n)
        return CertifiedSum(float(lo), float(width), 0)

    def _closed_weighted(self, n):
        # (1/n) sum_{m>n} (m-n) m^-r.  Interval subtraction: the lower end
        # takes the upper end of n zeta(r, n+1).  n zeta(r, n+1) <
        # zeta(r-1, n+1), so slack covers the roundings of n (lo2 + w2), the
        # subtraction, the division by n and the sum in hi.
        r = self.r
        lo1, w1 = hurwitz_zeta(r - 1.0, n + 1)
        lo2, w2 = hurwitz_zeta(r, n + 1)
        sub = n * (lo2 + w2)
        slack = _gamma(5.0) * (lo1 + w1 + sub)
        return CertifiedSum(float((lo1 - sub - slack) / n),
                            float((w1 + n * w2 + 2.0 * slack) / n), 0)

    def _closed_double(self, n, k_start):
        # nu = n' + j + qs with 0 <= j < s lies in q + 1 blocks, so
        # D = s^-r sum_j g(a_j), g(a) = sum_{q>=0} (q+1) (a+q)^-r
        # = zeta(r-1, a) + (1-a) zeta(r, a), a_j = (n'+j)/s
        r, s = self.r, 2 * n - 1
        a = (n + k_start * s + np.arange(s, dtype=np.float64)) / s
        # a_j^-r overflows once r is past about 1024 at a_0 near 1/2
        try:
            with np.errstate(over="raise", invalid="raise"):
                lo1, w1 = hurwitz_zeta(r - 1.0, a)
                lo2, w2 = hurwitz_zeta(r, a)
                c = 1.0 - a
                # 1 - a is negative past a = 1, so each end takes its
                # product by sign
                p, q = c * lo2, c * (lo2 + w2)
                g_lo = math.fsum(lo1 + np.minimum(p, q))
                g_hi = math.fsum(lo1 + w1 + np.maximum(p, q))
                size = math.fsum(lo1 + w1 + np.abs(q))
        except (FloatingPointError, OverflowError) as exc:
            raise HypothesisUnmet(
                f"{self.label()}: double tail at n={n} overflows the "
                f"double range") from exc
        # The rounding of a_j moves g(a_j) by a factor within 1 +- r u
        # (|d ln g/d ln a| <= r).  Each end rounds 1 - a, zeta's upper end,
        # the product and two additions; then come the fsum, 4 ulps for each
        # of the two pows s^(-r/2), the two products by them, the width's
        # subtraction, the two slack terms and the sum in hi.  Each rounding
        # is relative to at most size, the sum of the magnitudes.  Taking
        # s^-r in two halves keeps the products normal while the result
        # is; a subnormal half or product adds an absolute error.
        h = s ** (-0.5 * r)
        slack = _gamma(r + 21.0) * h * (h * size) \
            + 8.0 * _TINY * (1.0 + h * size)
        return CertifiedSum(h * (h * g_lo) - slack,
                            h * (h * (g_hi - g_lo)) + 2.0 * slack, 0)

    def _lambda_analytic(self, t):
        return t / self.r


class Geometric(PsiFamily):
    """psi(k) = q^k, 0 < q < 1.  All three tails have closed forms."""

    kind = "geometric"

    def __init__(self, q: float):
        super().__init__()
        self.q = _real(q, "q", 0.0, 1.0)
        self.ratio_limit = self.q

    def params(self):
        return {"q": self.q}

    def _values_array(self, k):
        return self.q ** k

    def _tail_remainder(self, K):
        return _geom_tail(self.q, K + 1)

    def _ktail_remainder(self, K):
        return _geom_ktail(self.q, K + 1)

    def _closed_tail(self, n):
        return _exact(_geom_tail(self.q, n))

    def _closed_weighted(self, n):
        return _exact(_geom_weighted(self.q, n))

    def _closed_double(self, n, k_start):
        return _exact(_geom_double(self.q, n, k_start))

    def _lambda_analytic(self, t):
        return 1.0 / math.log(1.0 / self.q)

    def _eps_sup(self, n, q):
        return 0.0, True


class GenPoisson(PsiFamily):
    """psi(k) = exp(-alpha * k^r), alpha > 0, r > 0.

    r = 1 is the geometric case (closed forms); r < 1 decays slower than
    any geometric sequence and carries the increasing-lambda structure the
    second-order brackets need; r > 1 is in the fastest-decay class.
    """

    kind = "gen_poisson"

    def __init__(self, alpha: float, r: float):
        super().__init__()
        self.alpha = _real(alpha, "alpha", 0.0)
        self.r = r = _real(r, "r", 0.0)
        _real(self.alpha * r, "alpha * r", 0.0)   # the majorant divides by it
        if r == 1.0:
            # the geometric closed forms divide by 1 - q
            self.ratio_limit = _real(math.exp(-self.alpha), "exp(-alpha)",
                                     0.0, 1.0)
        elif r > 1.0:
            self.ratio_limit = 0.0
        self.m_alpha_member = r < 1.0

    def params(self):
        return {"alpha": self.alpha, "r": self.r}

    def _values_array(self, k):
        return np.exp(-self.alpha * k ** self.r)

    def _ibp(self, K, m):
        # int_K^inf t^m e^{-a t^r} dt <= K^{m+1-r} e^{-a K^r} / (a r (1-c)),
        # c = (m+1-r)/(a r K^r); valid (and used) only while c <= 0.9
        ar = self.alpha * self.r
        try:
            Kr = K ** self.r
        except OverflowError:
            # e^{-alpha K^r} underflows to 0 once alpha K^r > 746; short
            # of that K^r itself is out of range, and no bound is given
            return 0.0 if math.log(self.alpha) + self.r * math.log(K) \
                > math.log(746.0) else math.inf
        c = (m + 1.0 - self.r) / (ar * Kr)
        if c > 0.9:
            return math.inf
        A = K ** (m + 1.0 - self.r) * math.exp(-self.alpha * Kr) / ar
        return A if c <= 0.0 else A / (1.0 - c)

    def _tail_remainder(self, K):
        return self._ibp(K, 0)

    def _ktail_remainder(self, K):
        return self._ibp(K, 1) + self._ibp(K, 0)

    # r = 1 is Geometric(q) with q = ratio_limit = exp(-alpha)
    def _closed_tail(self, n):
        return _exact(_geom_tail(self.ratio_limit, n)) if self.r == 1.0 else None

    def _closed_weighted(self, n):
        return _exact(_geom_weighted(self.ratio_limit, n)) if self.r == 1.0 else None

    def _closed_double(self, n, k_start):
        return (_exact(_geom_double(self.ratio_limit, n, k_start))
                if self.r == 1.0 else None)

    def _lambda_analytic(self, t):
        return t ** (1.0 - self.r) / (self.alpha * self.r)

    _eps_sup = Geometric._eps_sup


class LogLogPower(PsiFamily):
    """psi(t) = (t+2)^(-lnln(t+2)): slower than any fixed power of decay gain.

    The certified majorant freezes the exponent at the cache edge, so very
    tight tolerances need huge caches; the family default keeps routine
    sweeps inside the term budget.
    """

    kind = "log_log_power"
    default_rel_tol = 1e-5
    m_alpha_member = True

    def _values_array(self, k):
        u = k + 2.0
        lu = np.log(u)
        return np.exp(-np.log(lu) * lu)

    def _tail_remainder(self, K):
        return _frozen_exponent_tail(K + 2.0, math.log(math.log(K + 2.0)), 1.0)

    def _ktail_remainder(self, K):
        return _frozen_exponent_tail(K + 2.0, math.log(math.log(K + 2.0)), 2.0)

    def _lambda_analytic(self, t):
        u = t + 2.0
        return u / (1.0 + math.log(math.log(u)))


class ExpLogSquared(PsiFamily):
    """psi(t) = exp(-ln^2(t+1)) = (t+1)^(-ln(t+1))."""

    kind = "exp_log_squared"
    m_alpha_member = True

    def _values_array(self, k):
        return np.exp(-np.log(k + 1.0) ** 2)

    def _tail_remainder(self, K):
        return _frozen_exponent_tail(K + 1.0, math.log(K + 1.0), 1.0)

    def _ktail_remainder(self, K):
        return _frozen_exponent_tail(K + 1.0, math.log(K + 1.0), 2.0)

    def _lambda_analytic(self, t):
        return (t + 1.0) / (2.0 * math.log(t + 1.0))


class ExpTOverLog(PsiFamily):
    """psi(t) = exp(-(t+2)/ln(t+2)); majorized by exp(-sqrt(t+2))."""

    kind = "exp_t_over_log"
    m_alpha_member = True

    def _values_array(self, k):
        u = k + 2.0
        return np.exp(-u / np.log(u))

    def _tail_remainder(self, K):
        s = math.sqrt(K + 2.0)
        return 2.0 * (s + 1.0) * math.exp(-s)

    def _ktail_remainder(self, K):
        s = math.sqrt(K + 2.0)
        return 2.0 * math.exp(-s) * (s ** 3 + 3.0 * s ** 2 + 6.0 * s + 6.0)

    def _lambda_analytic(self, t):
        lu = math.log(t + 2.0)
        return lu * lu / (lu - 1.0)


class PolyharmonicPoisson(PsiFamily):
    """psi(k) = q^k (1 + sum_{j=1}^{l-1} (1-q^2)^j/(j! 2^j) prod_{v=0}^{j-1}(k+2v)).

    The bracket polynomial has nonnegative coefficients, so the ratio
    psi(k+1)/psi(k) sits in [q, q(1+1/k)^(l-1)] for every k; that envelope
    certifies both the tail majorants and the sup-ratio computation.
    """

    kind = "polyharmonic_poisson"

    def __init__(self, q: float, l: int):
        super().__init__()
        self.q = _real(q, "q", 0.0, 1.0)
        self.l = _index(l, 1, "l")
        self.ratio_limit = self.q

    def params(self):
        return {"q": self.q, "l": self.l}

    def _poly(self, k):
        p = np.ones_like(k)
        term = np.ones_like(k)
        for j in range(1, self.l):
            term = term * (1.0 - self.q ** 2) / (2.0 * j) * (k + 2.0 * (j - 1))
            p = p + term
        return p

    def _values_array(self, k):
        return self.q ** k * self._poly(k)

    def _growth(self, K):
        # (1 + 1/K)^(l-1) bounds P(k+1)/P(k) for every k >= K; inf where
        # it leaves the double range, which _ratio_tail reads as no bound
        try:
            return (1.0 + 1.0 / K) ** (self.l - 1)
        except OverflowError:
            return math.inf

    def _rho(self, K):
        return self.q * self._growth(K)

    def _tail_remainder(self, K):
        return _ratio_tail(self.value(K), self._rho(K))

    def _ktail_remainder(self, K):
        return _ratio_ktail(K, self.value(K), self._rho(K))

    def _eps_sup(self, n, q):
        kp = max(4 * n, 4096)
        # psi(k+1)/psi(k) = q P(k+1)/P(k) exactly; the polynomial form
        # stays finite long after psi itself underflows, but not at every l
        with np.errstate(over="ignore"):
            P = self._poly(np.arange(n, kp + 2, dtype=np.float64))
        beyond = q * (self._growth(kp) - 1.0)
        if not (np.all(np.isfinite(P)) and math.isfinite(beyond)):
            raise HypothesisUnmet(
                f"{self.label()}: the ratio bound leaves the double range "
                f"for k <= {kp + 1}")
        ratios = q * P[1:] / P[:-1]
        dev = np.abs(ratios - q)
        mono = bool(np.all(np.diff(dev) <= 1e-15))
        return float(max(dev.max(), beyond)), mono


class AnalyticSech(PsiFamily):
    """psi(k) = 2/(q^(-k) + q^k): coefficients of an analytic-class kernel.

    The ratio decreases to q from above, so rho(K) itself is the certified
    envelope beyond the cache.
    """

    kind = "analytic_sech"

    def __init__(self, q: float):
        super().__init__()
        self.q = _real(q, "q", 0.0, 1.0)
        self.ratio_limit = self.q

    def params(self):
        return {"q": self.q}

    def _values_array(self, k):
        qk = self.q ** k
        return 2.0 * qk / (1.0 + qk * qk)

    def _ratio(self, k):
        q2k = self.q ** (2 * k)
        return self.q * (1.0 + q2k) / (1.0 + q2k * self.q * self.q)

    def _tail_remainder(self, K):
        return _ratio_tail(self.value(K), self._ratio(K))

    def _ktail_remainder(self, K):
        return _ratio_ktail(K, self.value(K), self._ratio(K))

    def _eps_sup(self, n, q):
        return self._ratio(n) - q, True

    def _psi_continuous(self, t):
        L = math.log(1.0 / self.q)
        e = math.exp(-t * L)
        return 2.0 * e / (1.0 + e * e)

    def _lambda_analytic(self, t):
        L = math.log(1.0 / self.q)
        return 1.0 / (L * math.tanh(t * L))


class Neumann(PsiFamily):
    """psi(k) = q^k / k.  k psi(k) = q^k makes the weighted tail exact."""

    kind = "neumann"

    def __init__(self, q: float):
        super().__init__()
        self.q = _real(q, "q", 0.0, 1.0)
        self.ratio_limit = self.q

    def params(self):
        return {"q": self.q}

    def _values_array(self, k):
        return self.q ** k / k

    def _tail_remainder(self, K):
        return self.q ** (K + 1) / ((K + 1.0) * (1.0 - self.q))

    def _ktail_remainder(self, K):
        return _geom_tail(self.q, K + 1)

    def _eps_sup(self, n, q):
        # ratio q*k/(k+1) increases to q; the sup deviation is at k = n
        return q / (n + 1.0), True

    def _lambda_analytic(self, t):
        L = math.log(1.0 / self.q)
        return t / (t * L + 1.0)


class EvenOdd(PsiFamily):
    """psi(k) = q1^k for odd k, q2^k for even k, with 1 > q1 > q2 > 0.

    The ratio oscillates without a limit (no single-q class contains the
    family); tails still have closed forms by splitting parities.
    """

    kind = "even_odd"
    has_continuous_extension = False

    def __init__(self, q1: float, q2: float):
        super().__init__()
        self.q1 = _real(q1, "q1", 0.0, 1.0)
        self.q2 = _real(q2, "q2", 0.0, self.q1)

    def params(self):
        return {"q1": self.q1, "q2": self.q2}

    def _values_array(self, k):
        ki = k.astype(np.int64)
        return np.where(ki % 2 == 1, self.q1 ** k, self.q2 ** k)

    # q2 < q1 makes q1^k a valid majorant for the generic engine
    def _tail_remainder(self, K):
        return _geom_tail(self.q1, K + 1)

    def _ktail_remainder(self, K):
        return _geom_ktail(self.q1, K + 1)

    def _parity(self, m):
        # the ratio of m's parity, then the other one
        return (self.q2, self.q1) if m % 2 == 0 else (self.q1, self.q2)

    def _closed_tail(self, n):
        a, b = self._parity(n)
        return _exact(a ** n / (1.0 - a ** 2) + b ** (n + 1) / (1.0 - b ** 2))

    def _closed_weighted(self, n):
        q2, q1 = self._parity(n)
        # even offsets land on the q2-parity ladder, odd offsets on q1's
        even_part = 2.0 * q2 ** (n + 2) / (1.0 - q2 ** 2) ** 2
        odd_part = 2.0 * q1 ** (n + 3) / (1.0 - q1 ** 2) ** 2 \
            + q1 ** (n + 1) / (1.0 - q1 ** 2)
        return _exact((even_part + odd_part) / n)

    def _closed_double(self, n, k_start):
        s = 2 * n - 1

        def block(m):
            # sum_{j>=0} of the tail from m + 2sj: the parity of m is kept
            a, b = self._parity(m)
            return a ** m / ((1.0 - a ** 2) * (1.0 - a ** (2 * s))) \
                + b ** (m + 1) / ((1.0 - b ** 2) * (1.0 - b ** (2 * s)))

        m0 = n + k_start * s
        return _exact(block(m0) + block(m0 + s))


def _is_geometric_majorant(m, table: np.ndarray) -> bool:
    """Whether m is {"geometric": {"K": int >= 1, "rho": float in (0, 1)}}
    and the table honours it: psi(k+1) <= rho psi(k) for every k >= K."""
    g = m.get("geometric") if isinstance(m, dict) and len(m) == 1 else None
    if not (isinstance(g, dict) and g.keys() == {"K", "rho"}):
        return False
    K, rho = g["K"], g["rho"]
    return (isinstance(K, (int, np.integer)) and not isinstance(K, bool)
            and K >= 1 and isinstance(rho, (float, np.floating))
            and 0.0 < rho < 1.0
            and bool(np.all(table[K:] <= rho * table[K - 1:-1])))


class Tabulated(PsiFamily):
    """Finite table of values; psi(k) = 0 beyond the table.

    An optional majorant dict ({"geometric": {"K": int >= 1, "rho": float
    in (0, 1)}}) records a declared ratio guarantee, psi(k+1) <= rho psi(k)
    for k >= K; any other majorant, or one the table breaks, raises
    ValueError, and membership checks refuse to run without one.
    Eventually-zero sequences are treated as fastest-decay.
    """

    kind = "tabulated"
    has_continuous_extension = False
    ratio_limit = 0.0

    def __init__(self, values: Sequence[float], majorant: dict | None = None):
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("tabulated family needs a nonempty 1-d value list")
        _psi_values(vals, "tabulated")
        if majorant is not None and not _is_geometric_majorant(majorant, vals):
            raise ValueError('majorant must be None or {"geometric": '
                             '{"K": int >= 1, "rho": float in (0, 1)}} that '
                             f"the table honours, got {majorant!r}")
        super().__init__()
        self.table = vals
        self.majorant = majorant

    def params(self):
        return {"values": [float(v) for v in self.table],
                "majorant": self.majorant}

    def label(self):
        return f"tabulated(m={len(self.table)})"

    def _values_array(self, k):
        ki = k.astype(np.int64)
        out = np.zeros_like(k, dtype=np.float64)
        inside = ki <= len(self.table)
        out[inside] = self.table[ki[inside] - 1]
        return out

    def _tail_remainder(self, K):
        return float(np.sum(self.table[K:]))

    def _ktail_remainder(self, K):
        if K >= len(self.table):
            return 0.0
        ks = np.arange(K + 1.0, len(self.table) + 1.0)
        return float(np.dot(ks, self.table[K:]))


# ---------------------------------------------------------------------------
# construction from config dicts
# ---------------------------------------------------------------------------

_REGISTRY = {
    cls.kind: cls
    for cls in (Power, Geometric, GenPoisson, LogLogPower, ExpLogSquared,
                ExpTOverLog, PolyharmonicPoisson, AnalyticSech, Neumann,
                EvenOdd, Tabulated)
}


def psi_from_dict(spec: dict) -> PsiFamily:
    """Build a family from a JSON-style dict, e.g.
    {"kind": "gen_poisson", "alpha": 1.0, "r": 0.5}."""
    if "kind" not in spec:
        raise ValueError("family spec needs a 'kind' entry")
    kind = spec["kind"]
    if kind not in _REGISTRY:
        raise ValueError(f"unknown family kind {kind!r}")
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    try:
        return _REGISTRY[kind](**kwargs)
    except TypeError as exc:    # an unknown or a missing key, named in exc
        raise ValueError(f"{kind} family spec: {exc}") from exc


def psi_to_dict(psi: PsiFamily) -> dict:
    return {"kind": psi.kind, **psi.params()}


def eval(psi: PsiFamily, k: int) -> float:  # noqa: A001 - public API name
    """psi(k) for integer k >= 1."""
    return psi.value(k)
