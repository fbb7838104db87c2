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
or certified geometric ratio envelopes); partial sums are evaluated as
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
from scipy.special import zeta as _hurwitz_zeta

from .errors import (
    DivisionDomain,
    NonMonotone,
    SlowConvergence,
    UnknownRatioMonotonicity,
)

DEFAULT_REL_TOL = 1e-12
DEFAULT_TERM_BUDGET = 10_000_000
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
    summation cache.  The cache is the pair (psi(1..C), suffix sums),
    published in one rebind and read through one local snapshot, so all
    public operations are safe for concurrent use.
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
                       np.zeros(1, dtype=np.float64))

    # -- formula hooks ------------------------------------------------------

    def _values_array(self, k: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _tail_remainder(self, K: int) -> float:
        raise NotImplementedError

    def _ktail_remainder(self, K: int) -> float:
        raise NotImplementedError

    def _closed_tail(self, n: int) -> float | None:
        return None

    def _closed_weighted(self, n: int) -> float | None:
        return None

    def _closed_double(self, n: int, k_start: int) -> float | None:
        return None

    def _closed_tail_array(self, m: np.ndarray) -> np.ndarray | None:
        """Vectorized exact tails sum_{k>=m_i} psi(k), or None; lets
        double_tail sum exact blocks instead of cached suffix sums."""
        del m
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
            new = self._values_array(ks)
            if np.any(new < 0.0) or not np.all(np.isfinite(new)):
                raise ValueError(
                    f"{self.kind}: sequence values must be finite and >= 0")
            vals = np.concatenate([vals, new])
            # suffix sums, accumulated from the far (small) end so every
            # entry is accurate relative to itself, not to the series head
            rev = np.cumsum(vals[::-1])[::-1]
            self._cache = (vals, np.concatenate([rev, [0.0]]))

    def head(self, K: int) -> np.ndarray:
        """psi(1..K) as an array (grows the cache as needed)."""
        self._ensure(K)
        return self._vals[:K]

    def value(self, k: int) -> float:
        if k < 1 or k != int(k):
            raise ValueError("k must be a positive integer")
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


def _grow_or_raise(psi: PsiFamily, n: int, budget: int, what: str) -> None:
    have = len(psi._vals)
    if have >= budget:
        raise SlowConvergence(
            f"{psi.label()}: {what} at n={n} did not certify within "
            f"{budget} cached terms; relax rel_tol or raise the budget",
            terms_used=have,
        )
    psi._ensure(min(budget, max(2 * have, n + 128, 64)))


def _certified(psi, n, rel_tol, budget, compute, what):
    rel_tol = psi.default_rel_tol if rel_tol is None else float(rel_tol)
    budget = DEFAULT_TERM_BUDGET if budget is None else int(budget)
    if n < 1 or n != int(n):
        raise ValueError("n must be a positive integer")
    psi._ensure(min(budget, max(64, n + 64)))
    while True:
        value, rem, used = compute()
        if (rem <= rel_tol * value) or (value == 0.0 and rem == 0.0):
            return CertifiedSum(float(value), float(rem), int(used))
        _grow_or_raise(psi, n, budget, what)


def tail_sum(psi: PsiFamily, n: int, rel_tol: float | None = None,
             budget: int | None = None) -> CertifiedSum:
    """Certified sum_{k>=n} psi(k)."""
    closed = psi._closed_tail(int(n))
    if closed is not None:
        return CertifiedSum(float(closed), 0.0, 0)

    def compute():
        vals, suf = psi._cache
        C = len(vals)
        return suf[n - 1], psi._tail_remainder(C), C - n + 1

    return _certified(psi, int(n), rel_tol, budget, compute, "tail_sum")


def weighted_tail(psi: PsiFamily, n: int, rel_tol: float | None = None,
                  budget: int | None = None) -> CertifiedSum:
    """Certified (1/n) sum_{k>=1} k psi(k+n)."""
    n = int(n)
    closed = psi._closed_weighted(n)
    if closed is not None:
        return CertifiedSum(float(closed), 0.0, 0)

    def compute():
        vals = psi._vals
        C = len(vals)
        # direct dot keeps the sum nonnegative-term (no head cancellation)
        w = np.arange(1.0, C - n + 1.0)
        value = float(np.dot(w, vals[n:])) / n
        return value, psi._ktail_remainder(C) / n, C - n

    return _certified(psi, n, rel_tol, budget, compute, "weighted_tail")


def double_tail(psi: PsiFamily, n: int, rel_tol: float | None = None,
                budget: int | None = None, k_start: int = 0) -> CertifiedSum:
    """Certified sum_{k>=k_start} sum_{nu >= n+k(2n-1)} psi(nu).

    k_start=0 is the full double tail; k_start=1 drops the leading
    tail_sum(n) block (the form used by the summed-tail comparison check
    and by the duality remainder).
    """
    n = int(n)
    closed = psi._closed_double(n, k_start)
    if closed is not None:
        return CertifiedSum(float(closed), 0.0, 0)
    s = 2 * n - 1

    if n >= 1 and psi._closed_tail_array(np.array([float(n + k_start * s)])) is not None:
        # per-block tails are exact, so only the outer truncation counts;
        # one closed evaluation per k replaces n + k(2n-1) cached terms
        rel = psi.default_rel_tol if rel_tol is None else float(rel_tol)
        bud = DEFAULT_TERM_BUDGET if budget is None else int(budget)
        kmax = k_start + 15
        while True:
            ks = np.arange(k_start, kmax + 1, dtype=np.float64)
            value = float(np.sum(psi._closed_tail_array(n + ks * s)))
            mstar = n + (kmax + 1) * s
            rem = psi._tail_remainder(mstar - 1) + psi._ktail_remainder(mstar - 1) / s
            blocks = kmax - k_start + 1
            if (rem <= rel * value) or (value == 0.0 and rem == 0.0):
                return CertifiedSum(float(value), float(rem), int(blocks))
            if blocks >= bud:
                raise SlowConvergence(
                    f"{psi.label()}: double_tail at n={n} did not certify within "
                    f"{bud} exact tail blocks; relax rel_tol or raise the budget",
                    terms_used=int(blocks),
                )
            kmax = k_start + 2 * blocks - 1

    def compute():
        vals, suf = psi._cache
        C = len(vals)
        kmax = (C - n) // s
        if kmax < k_start:
            return 0.0, math.inf, 0
        ks = np.arange(k_start, kmax + 1, dtype=np.int64)
        ms = n + ks * s
        value = float(np.sum(suf[ms - 1]))
        inner = len(ks) * psi._tail_remainder(C)
        mstar = int(n + (kmax + 1) * s)
        # counting bound for the dropped outer terms:
        # sum_{k>kmax} tail(m_k) <= Rtail(m*-1) + Rk(m*-1)/(2n-1)
        outer = psi._tail_remainder(mstar - 1) + psi._ktail_remainder(mstar - 1) / s
        used = int(np.sum(C - ms + 1))
        return value, inner + outer, used

    return _certified(psi, n, rel_tol, budget, compute, "double_tail")


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


def truncation_order(psi: PsiFamily, rel_tol: float = 1e-12,
                     budget: int | None = None) -> int:
    """Smallest cached length K with remainder(K) <= rel_tol * head sum."""
    budget = DEFAULT_TERM_BUDGET if budget is None else int(budget)
    psi._ensure(64)
    while True:
        vals, suf = psi._cache
        C = len(vals)
        head = suf[0]
        rem = psi._tail_remainder(C)
        if rem <= rel_tol * head or (head == 0.0 and rem == 0.0):
            return C
        _grow_or_raise(psi, 1, budget, "truncation_order")


# ---------------------------------------------------------------------------
# characteristics
# ---------------------------------------------------------------------------


def alpha_lambda(psi: PsiFamily, t: float) -> tuple[float, float]:
    """(alpha(t), lambda(t)) without the eta bisection; lambda = t*alpha."""
    if t < 1.0:
        raise ValueError("characteristics are defined for t >= 1")
    if not psi.has_continuous_extension:
        raise ValueError(f"{psi.kind} family has no continuous extension")
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
        n = int(n)
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


def _geom_tail(q: float, m: int) -> float:
    # sum_{k>=m} q^k
    return q ** m / (1.0 - q)


def _geom_ktail(q: float, m: int) -> float:
    # sum_{k>=m} k q^k
    return q ** m * (m - (m - 1) * q) / (1.0 - q) ** 2


class Power(PsiFamily):
    """psi(k) = k^(-r).  Requires r > 2 so that sum k psi(k) converges.

    Single and k-weighted tails are Hurwitz zeta values, hence exact.
    The double tail still pays for its outer truncation through the
    K^(2-r) majorant (about (rel_tol * 2n * value)^(1/(r-2)) exact blocks
    near r = 2), so its default tolerance stays loose; pass rel_tol
    explicitly when r is comfortably large.
    """

    kind = "power"
    default_rel_tol = 1e-4

    def __init__(self, r: float):
        if not r > 2.0:
            raise ValueError("power family needs r > 2 (k-weighted tails must converge)")
        super().__init__()
        self.r = float(r)

    def params(self):
        return {"r": self.r}

    def _values_array(self, k):
        return k ** (-self.r)

    def _tail_remainder(self, K):
        return K ** (1.0 - self.r) / (self.r - 1.0)

    def _ktail_remainder(self, K):
        return K ** (2.0 - self.r) / (self.r - 2.0)

    def _closed_tail(self, n):
        return float(_hurwitz_zeta(self.r, n))

    def _closed_weighted(self, n):
        # (1/n) sum_{m>n} (m-n) m^-r; the two zetas agree to within a
        # factor 2, so the subtraction loses at most one bit
        r = self.r
        return float(_hurwitz_zeta(r - 1.0, n + 1)
                     - n * _hurwitz_zeta(r, n + 1)) / n

    def _closed_tail_array(self, m):
        return _hurwitz_zeta(self.r, m)

    def _lambda_analytic(self, t):
        return t / self.r


class Geometric(PsiFamily):
    """psi(k) = q^k, 0 < q < 1.  All three tails have closed forms."""

    kind = "geometric"

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError("geometric family needs 0 < q < 1")
        super().__init__()
        self.q = float(q)
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
        return _geom_tail(self.q, n)

    def _closed_weighted(self, n):
        return self.q ** (n + 1) / (n * (1.0 - self.q) ** 2)

    def _closed_double(self, n, k_start):
        q, s = self.q, 2 * n - 1
        return q ** (n + k_start * s) / ((1.0 - q) * (1.0 - q ** s))

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
        if not (alpha > 0.0 and r > 0.0):
            raise ValueError("gen_poisson family needs alpha > 0 and r > 0")
        super().__init__()
        self.alpha = float(alpha)
        self.r = float(r)
        if r == 1.0:
            self.ratio_limit = math.exp(-self.alpha)
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
        c = (m + 1.0 - self.r) / (ar * K ** self.r)
        if c > 0.9:
            return math.inf
        A = K ** (m + 1.0 - self.r) * math.exp(-self.alpha * K ** self.r) / ar
        return A if c <= 0.0 else A / (1.0 - c)

    def _tail_remainder(self, K):
        return self._ibp(K, 0)

    def _ktail_remainder(self, K):
        return self._ibp(K, 1) + self._ibp(K, 0)

    def _q(self):
        return math.exp(-self.alpha)

    def _closed_tail(self, n):
        if self.r != 1.0:
            return None
        return _geom_tail(self._q(), n)

    def _closed_weighted(self, n):
        if self.r != 1.0:
            return None
        q = self._q()
        return q ** (n + 1) / (n * (1.0 - q) ** 2)

    def _closed_double(self, n, k_start):
        if self.r != 1.0:
            return None
        q, s = self._q(), 2 * n - 1
        return q ** (n + k_start * s) / ((1.0 - q) * (1.0 - q ** s))

    def _lambda_analytic(self, t):
        return t ** (1.0 - self.r) / (self.alpha * self.r)

    def _eps_sup(self, n, q):
        # r = 1: the ratio is exactly q for every k
        return 0.0, True


class LogLogPower(PsiFamily):
    """psi(t) = (t+2)^(-lnln(t+2)): slower than any fixed power of decay gain.

    The certified majorant freezes the exponent at the cache edge, so very
    tight tolerances need huge caches; the family default keeps routine
    sweeps inside the term budget.
    """

    kind = "log_log_power"
    default_rel_tol = 1e-5
    m_alpha_member = True

    def params(self):
        return {}

    def _values_array(self, k):
        u = k + 2.0
        lu = np.log(u)
        return np.exp(-np.log(lu) * lu)

    def _tail_remainder(self, K):
        m = math.log(math.log(K + 2.0))
        if m <= 1.0 + 1e-9:
            return math.inf
        return (K + 2.0) ** (1.0 - m) / (m - 1.0)

    def _ktail_remainder(self, K):
        m = math.log(math.log(K + 2.0))
        if m <= 2.0 + 1e-9:
            return math.inf
        return (K + 2.0) ** (2.0 - m) / (m - 2.0)

    def _lambda_analytic(self, t):
        u = t + 2.0
        return u / (1.0 + math.log(math.log(u)))


class ExpLogSquared(PsiFamily):
    """psi(t) = exp(-ln^2(t+1)) = (t+1)^(-ln(t+1))."""

    kind = "exp_log_squared"
    m_alpha_member = True

    def params(self):
        return {}

    def _values_array(self, k):
        return np.exp(-np.log(k + 1.0) ** 2)

    def _tail_remainder(self, K):
        m = math.log(K + 1.0)
        if m <= 1.0 + 1e-9:
            return math.inf
        return (K + 1.0) ** (1.0 - m) / (m - 1.0)

    def _ktail_remainder(self, K):
        m = math.log(K + 1.0)
        if m <= 2.0 + 1e-9:
            return math.inf
        return (K + 1.0) ** (2.0 - m) / (m - 2.0)

    def _lambda_analytic(self, t):
        return (t + 1.0) / (2.0 * math.log(t + 1.0))


class ExpTOverLog(PsiFamily):
    """psi(t) = exp(-(t+2)/ln(t+2)); majorized by exp(-sqrt(t+2))."""

    kind = "exp_t_over_log"
    m_alpha_member = True

    def params(self):
        return {}

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
        if not 0.0 < q < 1.0:
            raise ValueError("polyharmonic family needs 0 < q < 1")
        if l < 1 or l != int(l):
            raise ValueError("polyharmonic family needs integer l >= 1")
        super().__init__()
        self.q = float(q)
        self.l = int(l)
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

    def _rho(self, K):
        return self.q * (1.0 + 1.0 / K) ** (self.l - 1)

    def _tail_remainder(self, K):
        rho = self._rho(K)
        if rho >= 1.0:
            return math.inf
        return self.value(K) * rho / (1.0 - rho)

    def _ktail_remainder(self, K):
        rho = self._rho(K)
        if rho >= 1.0:
            return math.inf
        return self.value(K) * (K * rho / (1.0 - rho) + rho / (1.0 - rho) ** 2)

    def _eps_sup(self, n, q):
        kp = max(4 * n, 4096)
        ks = np.arange(n, kp + 1, dtype=np.float64)
        # psi(k+1)/psi(k) = q P(k+1)/P(k) exactly; the polynomial form
        # stays finite long after psi itself underflows
        ratios = q * self._poly(ks + 1.0) / self._poly(ks)
        dev = np.abs(ratios - q)
        beyond = q * ((1.0 + 1.0 / kp) ** (self.l - 1) - 1.0)
        mono = bool(np.all(np.diff(dev) <= 1e-15))
        return float(max(dev.max(), beyond)), mono


class AnalyticSech(PsiFamily):
    """psi(k) = 2/(q^(-k) + q^k): coefficients of an analytic-class kernel.

    The ratio decreases to q from above, so rho(K) itself is the certified
    envelope beyond the cache.
    """

    kind = "analytic_sech"

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError("analytic_sech family needs 0 < q < 1")
        super().__init__()
        self.q = float(q)
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
        rho = self._ratio(K)
        return self.value(K) * rho / (1.0 - rho)

    def _ktail_remainder(self, K):
        rho = self._ratio(K)
        return self.value(K) * (K * rho / (1.0 - rho) + rho / (1.0 - rho) ** 2)

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
        if not 0.0 < q < 1.0:
            raise ValueError("neumann family needs 0 < q < 1")
        super().__init__()
        self.q = float(q)
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
        if not 1.0 > q1 > q2 > 0.0:
            raise ValueError("even_odd family needs 1 > q1 > q2 > 0")
        super().__init__()
        self.q1 = float(q1)
        self.q2 = float(q2)

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

    def _tail_closed(self, m):
        q1, q2 = self.q1, self.q2
        if m % 2 == 0:
            return q2 ** m / (1.0 - q2 ** 2) + q1 ** (m + 1) / (1.0 - q1 ** 2)
        return q1 ** m / (1.0 - q1 ** 2) + q2 ** (m + 1) / (1.0 - q2 ** 2)

    def _closed_tail(self, n):
        return self._tail_closed(n)

    def _closed_weighted(self, n):
        q1, q2 = self.q1, self.q2
        if n % 2 == 1:
            q1, q2 = q2, q1
        # even offsets land on the q2-parity ladder, odd offsets on q1's
        even_part = 2.0 * q2 ** (n + 2) / (1.0 - q2 ** 2) ** 2
        odd_part = 2.0 * q1 ** (n + 3) / (1.0 - q1 ** 2) ** 2 \
            + q1 ** (n + 1) / (1.0 - q1 ** 2)
        return (even_part + odd_part) / n

    def _closed_double(self, n, k_start):
        s = 2 * n - 1
        q1, q2 = self.q1, self.q2

        def block(m):
            # sum_{j>=0} tail_closed(m + 2sj): the parity of m is preserved
            if m % 2 == 0:
                return q2 ** m / ((1.0 - q2 ** 2) * (1.0 - q2 ** (2 * s))) \
                    + q1 ** (m + 1) / ((1.0 - q1 ** 2) * (1.0 - q1 ** (2 * s)))
            return q1 ** m / ((1.0 - q1 ** 2) * (1.0 - q1 ** (2 * s))) \
                + q2 ** (m + 1) / ((1.0 - q2 ** 2) * (1.0 - q2 ** (2 * s)))

        m0 = n + k_start * s
        return block(m0) + block(m0 + s)


class Tabulated(PsiFamily):
    """Finite table of values; psi(k) = 0 beyond the table.

    An optional majorant dict ({"geometric": {"K": int, "rho": float}})
    records a declared ratio guarantee; membership checks refuse to run
    without one.  Eventually-zero sequences are treated as fastest-decay.
    """

    kind = "tabulated"
    has_continuous_extension = False
    ratio_limit = 0.0

    def __init__(self, values: Sequence[float], majorant: dict | None = None):
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("tabulated family needs a nonempty 1-d value list")
        if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
            raise ValueError("tabulated values must be finite and >= 0")
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
    return _REGISTRY[kind](**kwargs)


def psi_to_dict(psi: PsiFamily) -> dict:
    return {"kind": psi.kind, **psi.params()}


def eval(psi: PsiFamily, k: int) -> float:  # noqa: A001 - public API name
    """psi(k) for integer k >= 1."""
    return psi.value(k)
