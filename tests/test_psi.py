"""Sequence families and the certified summation engine.

Frozen reference values were computed independently with mpmath at
dps >= 30: plain nsum for single tails, Euler-Maclaurin over Hurwitz
zetas for the power double tail, and a counting-weight sum
sum_nu (floor((nu-n)/(2n-1))+1) psi(nu) for the generalized-Poisson one.
"""

import contextlib
import dataclasses
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psikern as pk
from psikern import (
    AnalyticSech,
    EvenOdd,
    ExpLogSquared,
    ExpTOverLog,
    GenPoisson,
    Geometric,
    LogLogPower,
    Neumann,
    PolyharmonicPoisson,
    Power,
    Tabulated,
    alpha_lambda,
    characteristics,
    class_check,
    double_tail,
    lemma1_check,
    limit_ratio,
    psi_from_dict,
    psi_to_dict,
    tail_sum,
    truncation_order,
    weighted_tail,
)
from psikern.errors import (
    DivisionDomain,
    HypothesisUnmet,
    PsikernError,
    SlowConvergence,
    UnknownRatioMonotonicity,
)
from psikern.psi import CertifiedSum, Lemma1Result, hurwitz_zeta

# family factory, n, oracle T, oracle W, oracle D (None = not frozen),
# explicit (T, W, D) rel_tols (None = family default)
TAIL_ORACLES = [
    (lambda: Power(3.0), 5,
     0.024394866122557248, 0.019869725024865817, 0.030160788382202601,
     (1e-8, 1e-5, 1e-5)),
    (lambda: GenPoisson(1.0, 0.5), 4,
     0.88248943604291898, 1.7565522108412681, 1.5898965968334267, None),
    (lambda: ExpLogSquared(), 3,
     0.32056968863208220, 0.14697474680829359, None, None),
    (lambda: ExpTOverLog(), 3,
     0.20727684216694821, 0.25809551690737907, None, None),
    (lambda: PolyharmonicPoisson(0.7, 3), 4,
     3.6685779375, 3.5656225572916667, None, None),
    (lambda: AnalyticSech(0.6), 3,
     1.0552680892300036, 0.53766725532331424, None, None),
    (lambda: Neumann(0.5), 3,
     0.068147180559945309, 0.015186152773388024, None, None),
    (lambda: EvenOdd(0.9, 0.5), 5,
     3.1286754385964912, 5.3066330871037242, None, None),
]

ALL_FAMILIES = [
    lambda: Power(3.0),
    lambda: Geometric(0.5),
    lambda: GenPoisson(1.0, 0.5),
    lambda: GenPoisson(1.0, 2.0),
    lambda: LogLogPower(),
    lambda: ExpLogSquared(),
    lambda: ExpTOverLog(),
    lambda: PolyharmonicPoisson(0.7, 3),
    lambda: AnalyticSech(0.6),
    lambda: Neumann(0.5),
    lambda: EvenOdd(0.9, 0.5),
    lambda: Tabulated([1.0, 0.5, 0.2, 0.05, 0.01]),
]


@pytest.mark.parametrize("make,n,T0,W0,D0,tols",
                         TAIL_ORACLES, ids=lambda v: getattr(v, "__name__", str(v)))
def test_tails_match_oracles(make, n, T0, W0, D0, tols):
    psi = make()
    tt, tw, td = tols if tols else (None, None, None)
    T = tail_sum(psi, n, rel_tol=tt)
    W = weighted_tail(psi, n, rel_tol=tw)
    # the true sum lies in [value, value + remainder_bound]
    assert T.value - 1e-13 * T0 <= T0 <= T.hi + 1e-13 * T0
    assert W.value - 1e-13 * W0 <= W0 <= W.hi + 1e-13 * W0
    if D0 is not None:
        D = double_tail(psi, n, rel_tol=td)
        assert D.value - 1e-13 * D0 <= D0 <= D.hi + 1e-13 * D0


def test_loglog_power_tail_oracle():
    # mpmath: partial sum to 2e6 plus frozen-exponent integral bound gives
    # T(3) in [2.8900631100303, 2.8900631100470]
    psi = LogLogPower()
    T = tail_sum(psi, 3)
    assert T.value <= 2.89006311004 <= T.hi


def test_geometric_closed_forms():
    q = math.exp(-1.0)
    psi = Geometric(q)
    for n in (1, 2, 7, 30):
        s = 2 * n - 1
        assert tail_sum(psi, n).value == pytest.approx(
            q ** n / (1 - q), rel=1e-14)
        assert weighted_tail(psi, n).value == pytest.approx(
            q ** (n + 1) / (n * (1 - q) ** 2), rel=1e-14)
        assert double_tail(psi, n).value == pytest.approx(
            q ** n / ((1 - q) * (1 - q ** s)), rel=1e-14)
        # closed results carry zero remainder
        assert tail_sum(psi, n).remainder_bound == 0.0


@pytest.mark.parametrize("make", [
    lambda: Geometric(0.6),
    lambda: Neumann(0.5),
    lambda: AnalyticSech(0.7),
    lambda: EvenOdd(0.8, 0.3),
    lambda: PolyharmonicPoisson(0.6, 2),
], ids=["geometric", "neumann", "sech", "even_odd", "polyharmonic"])
def test_tails_against_tabulated_copy(make):
    """Dual route: a Tabulated family built from the same head values has
    exact finite sums; beyond K the fast families are below 1e-18 of the
    totals."""
    psi = make()
    K = 400
    tab = Tabulated(psi.head(K))
    for n in (1, 2, 5, 11):
        assert tail_sum(psi, n).value == pytest.approx(
            tail_sum(tab, n).value, rel=1e-12)
        assert weighted_tail(psi, n).value == pytest.approx(
            weighted_tail(tab, n).value, rel=1e-12)
        assert double_tail(psi, n).value == pytest.approx(
            double_tail(tab, n).value, rel=1e-12)


@pytest.mark.parametrize("make", ALL_FAMILIES,
                         ids=[f().label() for f in ALL_FAMILIES])
def test_tail_weighted_identity(make):
    # (1/n) sum_{k>=n} k psi(k) = tail_sum(n) + weighted_tail(n)
    psi = make()
    n, K = 3, 50_000
    T = tail_sum(psi, n)
    W = weighted_tail(psi, n)
    ks = np.arange(n, K + 1, dtype=np.float64)
    brute = float(np.dot(ks, psi.head(K)[n - 1:])) / n
    slack = T.remainder_bound + W.remainder_bound \
        + psi._ktail_remainder(K) / n + 1e-12 * (1.0 + brute)
    assert abs(brute - (T.value + W.value)) <= slack, psi.label()


def test_certified_interval_nesting():
    # a loose and a tight run both bracket the same true sum, so the
    # intervals intersect, partials grow, and effort grows
    psi = GenPoisson(1.0, 0.5)
    loose = tail_sum(psi, 6, rel_tol=1e-4)
    tight = tail_sum(psi, 6, rel_tol=1e-13)
    assert loose.value <= tight.value + 1e-15
    assert tight.value <= loose.hi + 1e-15 * loose.hi
    assert loose.terms_used <= tight.terms_used
    assert tight.remainder_bound <= 1e-13 * tight.value


def test_suffix_difference_is_psi():
    psi = ExpLogSquared()
    for n in (1, 4, 9):
        d = tail_sum(psi, n).value - tail_sum(psi, n + 1).value
        assert d == pytest.approx(psi.value(n), rel=1e-12)


def test_slow_convergence_reports_terms():
    psi = LogLogPower()
    with pytest.raises(SlowConvergence) as exc:
        weighted_tail(psi, 3, rel_tol=1e-12, budget=10_000)
    assert exc.value.terms_used >= 10_000
    assert len(psi._vals) <= 10_000
    # the double tail refuses once its remainder is finite (from 1,617
    # terms on; here at 1,824), since the remainder at the budget already
    # exceeds rel_tol times the sum; it does not grow the cache to the
    # budget
    psi = LogLogPower()
    with pytest.raises(SlowConvergence) as exc:
        double_tail(psi, 50, rel_tol=1e-12, budget=100_000)
    assert exc.value.terms_used >= 100_000
    assert len(psi._vals) <= 4096


# four families with closed forms that would read a bad index, and one
# cached family
_BAD_INDEX_FAMILIES = pytest.mark.parametrize("make", [
    lambda: Geometric(0.5),
    lambda: EvenOdd(0.9, 0.5),
    lambda: GenPoisson(1.0, 1.0),
    lambda: Power(3.0),
    lambda: Neumann(0.5),
], ids=["geometric", "even_odd", "gen_poisson_r1", "power", "neumann"])


@pytest.mark.parametrize("n", [0, -1, 2.5])
@pytest.mark.parametrize("total", [tail_sum, weighted_tail, double_tail],
                         ids=lambda f: f.__name__)
@_BAD_INDEX_FAMILIES
def test_sums_reject_bad_n(make, total, n):
    # n is checked before a closed form reads it
    with pytest.raises(ValueError):
        total(make(), n)


@pytest.mark.parametrize("k_start", [-1, 0.5])
@_BAD_INDEX_FAMILIES
def test_double_tail_rejects_bad_k_start(make, k_start):
    # k_start is checked before a closed form or the cache reads it
    with pytest.raises(ValueError):
        double_tail(make(), 3, k_start=k_start)


@pytest.mark.parametrize("kwargs", [
    {"budget": 0}, {"budget": -5}, {"rel_tol": 0.0}, {"rel_tol": -1e-12},
    {"rel_tol": math.nan}, {"rel_tol": math.inf}],
    ids=["budget=0", "budget=-5", "rel_tol=0", "rel_tol<0", "rel_tol=nan",
         "rel_tol=inf"])
@pytest.mark.parametrize("total", [tail_sum, weighted_tail, double_tail],
                         ids=lambda f: f.__name__)
def test_cached_sums_reject_bad_budget_and_rel_tol(total, kwargs):
    # GenPoisson(1, 0.5) has no closed form, so every sum runs the cache
    # loop, where budget=0 would read an empty cache (IndexError)
    with pytest.raises(ValueError):
        total(GenPoisson(1.0, 0.5), 4, **kwargs)


def test_power_double_tail_overflow_is_typed():
    # a_0^-r overflows at r = 1500 and n = 200 (a_0 = n/(2n-1) near 1/2):
    # a typed error, with no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HypothesisUnmet):
            double_tail(Power(1500.0), 200)


def test_limit_ratio_zero_tail_raises():
    psi = Tabulated([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(DivisionDomain):
        limit_ratio(psi, 3)


def test_eval_and_head():
    psi = Geometric(0.5)
    assert pk.eval(psi, 3) == pytest.approx(0.125, rel=0, abs=0)
    assert np.allclose(psi.head(4), [0.5, 0.25, 0.125, 0.0625])
    with pytest.raises(ValueError):
        pk.eval(psi, 0)


@pytest.mark.parametrize("make", ALL_FAMILIES,
                         ids=[f().label() for f in ALL_FAMILIES])
def test_dict_round_trip(make):
    psi = make()
    clone = psi_from_dict(psi_to_dict(psi))
    assert clone.label() == psi.label()
    assert np.allclose(clone.head(40), psi.head(40), rtol=0, atol=0)


def test_characteristics_gen_poisson_exact():
    # closed characteristics at t = 9: lambda = 2 sqrt(t), eta from
    # psi(eta) = psi(t)/2, mu = t/(eta - t)
    psi = GenPoisson(1.0, 0.5)
    ch = characteristics(psi, 9.0)
    assert ch.lambda_t == pytest.approx(6.0, rel=1e-12)
    assert ch.alpha_t == pytest.approx(6.0 / 9.0, rel=1e-12)
    eta_exact = (3.0 + math.log(2.0)) ** 2
    assert ch.eta_t == pytest.approx(eta_exact, rel=1e-9)
    assert ch.mu_t == pytest.approx(9.0 / (eta_exact - 9.0), rel=1e-9)


@pytest.mark.parametrize("make", [
    lambda: LogLogPower(),
    lambda: ExpLogSquared(),
    lambda: ExpTOverLog(),
    lambda: Geometric(0.3),
], ids=["llp", "els", "etl", "geo"])
def test_eta_halves_psi(make):
    psi = make()
    for t in (2.0, 5.0, 20.0):
        ch = characteristics(psi, t)
        assert psi._psi_continuous(ch.eta_t) == pytest.approx(
            psi._psi_continuous(t) / 2.0, rel=1e-8)
        assert ch.eta_t > t


def test_characteristics_guards():
    with pytest.raises(ValueError):
        alpha_lambda(Geometric(0.5), 0.5)
    with pytest.raises(ValueError):
        alpha_lambda(EvenOdd(0.9, 0.5), 4.0)  # no continuous extension


def test_class_check_geometric():
    flags = class_check(Geometric(0.5), [2, 10])
    assert flags[10].is_dq and not flags[10].is_d0
    assert flags[10].eps_n == 0.0
    assert flags[10].ratio_prefix_monotone
    # 1/n + eps < (1-q)/2 = 0.25 needs n >= 5
    assert not flags[2].n_condition_dq
    assert flags[10].n_condition_dq


def test_class_check_d0():
    flags = class_check(GenPoisson(1.0, 2.0), [4])
    assert flags[4].is_d0 and not flags[4].is_dq


def test_class_check_polyharmonic_eps_decays():
    psi = PolyharmonicPoisson(0.7, 3)
    flags = class_check(psi, [4, 16, 64])
    eps = [flags[n].eps_n for n in (4, 16, 64)]
    assert eps[0] > eps[1] > eps[2] > 0.0
    # eps_n must dominate the largest actual ratio deviation past n
    ks = np.arange(16, 200, dtype=np.float64)
    ratios = psi._values_array(ks + 1.0) / psi._values_array(ks)
    assert eps[1] >= np.max(np.abs(ratios - psi.ratio_limit)) - 1e-15


def test_tabulated_without_majorant_refuses_class_check():
    with pytest.raises(UnknownRatioMonotonicity):
        class_check(Tabulated([1.0, 0.5, 0.2]), [2])


@pytest.mark.parametrize("majorant", [
    {}, "yes", {"geometric": {}}, {"geometric": {"K": 0, "rho": 0.5}},
    {"geometric": {"K": 2, "rho": 1.0}}, {"geometric": {"K": 2.0, "rho": 0.5}},
    {"geometric": {"K": True, "rho": 0.5}},
    {"geometric": {"K": 2, "rho": 0.5, "extra": 1}},
    {"geometric": {"K": 2, "rho": 0.5}, "power": {}}])
def test_tabulated_refuses_a_malformed_majorant(majorant):
    # the spec comes from outside the program (CLI JSON), and any majorant
    # would otherwise pass class_check as a declared ratio guarantee
    with pytest.raises(ValueError, match="majorant"):
        Tabulated([1.0, 0.5, 0.25], majorant=majorant)
    with pytest.raises(ValueError, match="majorant"):
        psi_from_dict({"kind": "tabulated", "values": [1.0, 0.5, 0.25],
                       "majorant": majorant})


def test_tabulated_with_geometric_majorant_passes_class_check():
    spec = {"kind": "tabulated", "values": [1.0, 0.5, 0.25],
            "majorant": {"geometric": {"K": 1, "rho": 0.5}}}
    psi = psi_from_dict(spec)
    assert psi_from_dict(psi_to_dict(psi)).majorant == spec["majorant"]
    assert 2 in class_check(psi, [2])


def test_tabulated_refuses_a_majorant_its_table_breaks():
    # the ratios 0.9 and 0.89 exceed the declared rho = 0.1 from K = 1 on
    majorant = {"geometric": {"K": 1, "rho": 0.1}}
    with pytest.raises(ValueError, match="majorant"):
        Tabulated([1.0, 0.9, 0.8], majorant=majorant)
    with pytest.raises(ValueError, match="majorant"):
        psi_from_dict({"kind": "tabulated", "values": [1.0, 0.9, 0.8],
                       "majorant": majorant})
    # from K = 2 on only 0.8/0.9 counts; past the table psi is 0
    Tabulated([1.0, 0.9, 0.2], majorant={"geometric": {"K": 2, "rho": 0.25}})
    Tabulated([1.0, 0.9, 0.8], majorant={"geometric": {"K": 3, "rho": 0.1}})
    with pytest.raises(ValueError, match="majorant"):
        Tabulated([1.0, 0.9, 0.8],
                  majorant={"geometric": {"K": 2, "rho": 0.5}})


def test_alpha_decreasing_lambda_increasing_flags():
    flags = class_check(GenPoisson(1.0, 0.5), [8])
    assert flags[8].alpha_decreasing
    assert flags[8].lambda_increasing
    assert not flags[8].n_condition_alpha      # alpha(8) = 2/sqrt(8) > 1/4
    assert class_check(GenPoisson(1.0, 0.5), [100])[100].n_condition_alpha


@pytest.mark.parametrize("make", ALL_FAMILIES,
                         ids=[f().label() for f in ALL_FAMILIES])
def test_lemma1_small_n(make):
    psi = make()
    for n in (1, 2, 5, 17):
        res = lemma1_check(psi, n)
        assert res.holds, (psi.label(), n, res)
        assert res.lhs >= 0.0 and res.rhs >= 0.0


def test_truncation_order_certifies():
    # K is the smallest cutoff >= n whose remainder bound is within rel_tol
    # of tail_sum(n) (of 1 when that tail is 0), also on a cache that is
    # already longer than K
    for make in ALL_FAMILIES:
        psi = make()
        rel = max(1e-10, psi.default_rel_tol)
        for n in (1, 4, 17):
            K = truncation_order(psi, rel_tol=rel, n=n)
            T = tail_sum(psi, n, rel).value
            target = rel * T if T > 0.0 else rel
            assert K >= n
            assert psi._tail_remainder(K) <= target, (psi.label(), n, K)
            assert K == n or psi._tail_remainder(K - 1) > target, \
                (psi.label(), n, K)


@pytest.mark.parametrize("psi", [Neumann(0.9), AnalyticSech(0.9)],
                         ids=["neumann", "sech"])
def test_ratio_sup_and_analytic_lambda(psi):
    """_eps_sup against a brute-force sup of |psi(k+1)/psi(k) - q| over
    k in [n, 4096], and the analytic lambda = psi/|psi'| against a central
    difference of the continuous extension."""
    q = psi.ratio_limit
    v = psi._values_array(np.arange(1.0, 4098.0))
    dev = np.abs(v[1:] / v[:-1] - q)          # dev[k-1] at k = 1..4096
    for n in (1, 4, 17, 64):
        eps, mono = psi._eps_sup(n, q)
        brute = dev[n - 1:]
        assert eps >= brute.max() - 1e-15
        assert eps == pytest.approx(brute.max(), rel=1e-9, abs=1e-15)
        assert mono and np.all(np.diff(brute) <= 1e-15)
    for t in (1.0, 2.5, 10.0, 40.0):
        h = 1e-5 * t
        d = (psi._psi_continuous(t + h) - psi._psi_continuous(t - h)) / (2 * h)
        assert psi._lambda_analytic(t) == pytest.approx(
            psi._psi_continuous(t) / -d, rel=1e-7)
        assert psi._psi_continuous(t) == pytest.approx(
            float(psi._values_array(np.array([t]))[0]), rel=1e-14)


def test_gen_poisson_r1_is_geometric():
    # r = 1 takes the geometric closed forms at q = exp(-alpha), bit for bit
    for alpha in (0.3, 1.0, 2.5):
        gp, geo = GenPoisson(alpha, 1.0), Geometric(math.exp(-alpha))
        assert gp.ratio_limit == geo.q
        assert gp._eps_sup(8, gp.ratio_limit) == (0.0, True)
        for n in (1, 4, 17):
            assert tail_sum(gp, n) == tail_sum(geo, n)
            assert weighted_tail(gp, n) == weighted_tail(geo, n)
            for k_start in (0, 1):
                assert double_tail(gp, n, k_start=k_start) \
                    == double_tail(geo, n, k_start=k_start)


def _counting_reference(psi, n, N=1 << 16):
    """Independent enclosures [lo, hi] of the double tails (k_start 0 and
    1) and of the weighted tail: the counting-weight sums
    sum_nu (floor((nu-n)/s)+1-k_start) psi(nu) and (1/n) sum_nu (nu-n)
    psi(nu), taken with math.fsum to N, far past any cutoff used here, plus
    their own majorants past N."""
    s = 2 * n - 1
    nu = np.arange(1, N + 1)
    v = psi._values_array(nu.astype(np.float64))
    out = {}
    for k_start in (0, 1):
        w = (nu - n) // s + 1 - k_start
        lo = math.fsum((w[w > 0] * v[w > 0]).tolist())
        out[k_start] = (lo, lo + psi._tail_remainder(N)
                        + psi._ktail_remainder(N) / s)
    lo = math.fsum(((nu[nu > n] - n) * v[nu > n]).tolist()) / n
    out["weighted"] = (lo, lo + psi._ktail_remainder(N) / n)
    return out


@pytest.mark.parametrize("make", [
    lambda: GenPoisson(1.0, 0.5),
    lambda: Neumann(0.5),
    lambda: Neumann(0.9),
    lambda: ExpLogSquared(),
    lambda: ExpTOverLog(),
], ids=["gen_poisson", "neumann0.5", "neumann0.9", "els", "etl"])
def test_cached_tails_enclose_reference_at_loose_tolerances(make):
    """At loose rel_tol the remainder bound is a visible part of each
    interval, so it must cover what the cache leaves out.  Neumann(0.9)'s
    k-weighted majorant is exact, so a remainder that drops the plain tail
    term fails here."""
    for n in (1, 4, 17):
        ref = _counting_reference(make(), n)
        for rel_tol in (1e-3, 1e-6):
            psi = make()
            got = {k: double_tail(psi, n, rel_tol, k_start=k) for k in (0, 1)}
            got["weighted"] = weighted_tail(psi, n, rel_tol)
            for key, S in got.items():
                lo, hi = ref[key]
                slack = 1e-14 * lo
                assert S.value - slack <= hi and lo <= S.hi + slack, \
                    (psi.label(), n, rel_tol, key, S, lo, hi)


def test_even_odd_parity_structure():
    psi = EvenOdd(0.9, 0.5)
    head = psi.head(6)
    assert np.allclose(head, [0.9, 0.25, 0.729, 0.0625, 0.59049, 0.015625])


def test_neumann_values():
    psi = Neumann(0.5)
    assert np.allclose(psi.head(4), [0.5, 0.125, 1.0 / 24.0, 1.0 / 64.0])


@given(q=st.floats(0.05, 0.9), n=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_geometric_tail_closed_property(q, n):
    psi = Geometric(q)
    T = tail_sum(psi, n)
    assert T.value == pytest.approx(q ** n / (1 - q), rel=1e-12)
    assert T.remainder_bound == 0.0


@given(r=st.floats(2.5, 6.0), n=st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_power_tail_integral_bracket(r, n):
    # integral comparison for a decreasing sequence:
    # int_n^inf t^-r dt <= T(n) <= psi(n) + int_n^inf t^-r dt
    psi = Power(r)
    T = tail_sum(psi, n, rel_tol=1e-6)
    lo = n ** (1.0 - r) / (r - 1.0)
    assert lo - 1e-12 * lo <= T.hi
    assert T.value <= n ** (-r) + lo + 1e-12 * lo


def _encloses(lo, width, true):
    lo = mpmath.mpf(float(lo))
    return lo <= true <= lo + mpmath.mpf(float(width))


def test_hurwitz_zeta_encloses_mpmath():
    """A seeded sample of (s, a), s in (1.01, 10] with a cluster near 1,
    a in [1, 1e8]: every enclosure holds mpmath's zeta(s, a) at 40 digits.
    Half the points go through scalar calls, half through array calls."""
    rng = np.random.default_rng(2015)
    s = 1.0 + 10.0 ** rng.uniform(-2.0, math.log10(9.0), 20)
    a = np.where(rng.random((20, 10)) < 0.5,
                 rng.integers(1, 401, (20, 10)).astype(np.float64),
                 10.0 ** rng.uniform(0.0, 8.0, (20, 10)))
    a[:, 0] = 1.0
    with mpmath.workdps(40):
        for i, si in enumerate(s):
            if i % 2:
                lo, width = hurwitz_zeta(si, a[i])
                assert lo.shape == width.shape == (10,)
            else:
                pairs = [hurwitz_zeta(si, float(ai)) for ai in a[i]]
                lo, width = (np.array(v) for v in zip(*pairs))
            assert np.all(width > 0.0) and np.all(width <= 1e-12 * lo)
            for li, wi, ai in zip(lo, width, a[i]):
                assert _encloses(li, wi, mpmath.zeta(si, ai)), (si, ai)


def test_hurwitz_zeta_below_one_encloses_mpmath():
    """a in (0, 1), where the head's first term is a^-s itself, as the
    power double tail needs for a_0 = n/(2n-1)."""
    a = np.array([0.3, 0.5, 0.5 + 2.0 ** -52, 2.0 / 3.0, 0.77, 0.999])
    with mpmath.workdps(40):
        for s in (1.05, 2.05, 3.0, 4.5, 9.0):
            lo, width = hurwitz_zeta(s, a)
            assert np.all(width > 0.0) and np.all(width <= 1e-12 * lo)
            for li, wi, ai in zip(lo, width, a):
                assert _encloses(li, wi, mpmath.zeta(s, ai)), (s, ai)


def test_hurwitz_zeta_rejects_outside_domain():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 2.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(3.0, np.array([2.0, 0.0]))
    with pytest.raises(ValueError):
        hurwitz_zeta(3.0, -0.5)


def _double_tail_mpmath(r, n, k_start):
    # blocks zeta(r, n + ks) summed directly for 12 k, the rest by mpmath's
    # Euler-Maclaurin with the exact integral and k-derivatives
    # d^p/dk^p zeta(r, n + ks) = (-s)^p (r)_p zeta(r + p, n + ks)
    r, s = mpmath.mpf(r), 2 * n - 1
    K = k_start + 12

    def diffs():
        p = 0
        while True:
            yield (-s) ** p * mpmath.rf(r, p) * mpmath.zeta(r + p, n + K * s)
            p += 1

    head = mpmath.fsum(mpmath.zeta(r, n + k * s) for k in range(k_start, K))
    return head + mpmath.sumem(
        lambda k: mpmath.zeta(r, n + k * s), [K, mpmath.inf],
        integral=mpmath.zeta(r - 1, n + K * s) / ((r - 1) * s),
        adiffs=diffs())


@pytest.mark.parametrize("r", [2.05, 3.0, 4.5])
def test_power_tails_enclose_mpmath(r):
    """tail_sum = zeta(r, n), weighted_tail = (zeta(r-1, n+1) -
    n zeta(r, n+1))/n and both double tails enclose 40-digit mpmath
    values at a seeded sample of n <= 400."""
    psi = Power(r)
    ns = np.random.default_rng(int(10 * r)).choice(
        np.arange(2, 401), 24, replace=False).tolist() + [1]
    with mpmath.workdps(40):
        for n in ns:
            T, W = tail_sum(psi, n), weighted_tail(psi, n)
            assert T.remainder_bound > 0.0 and W.remainder_bound > 0.0
            assert _encloses(T.value, T.remainder_bound,
                             mpmath.zeta(r, n)), n
            w = (mpmath.zeta(r - 1, n + 1) - n * mpmath.zeta(r, n + 1)) / n
            assert _encloses(W.value, W.remainder_bound, w), n
        for n in ns[:6] + [1]:
            for k_start in (0, 1):
                D = double_tail(psi, n, k_start=k_start)
                assert _encloses(D.value, D.remainder_bound,
                                 _double_tail_mpmath(r, n, k_start)), (n, k_start)


def test_power_double_tail_is_closed():
    # the lattice identity reads no cache and leaves only the rounding of
    # its Hurwitz zeta enclosures
    psi = Power(3.0)
    for n in range(1, 201):
        for k_start in (0, 1):
            D = double_tail(psi, n, k_start=k_start)
            assert D.terms_used == 0 and len(psi._vals) == 0
            assert 0.0 < D.remainder_bound <= 1e-12 * D.value, (n, k_start)


def test_power_double_tail_takes_each_product_end_by_sign(monkeypatch):
    """The enclosure must hold wherever the true zeta values lie in their
    intervals.  A stand-in for hurwitz_zeta puts zeta(r-1, a) at the lower
    end of a 1e-6-wide interval and zeta(r, a) at the upper end.  With
    k_start = 1 every 1 - a_j is negative, so a lower end that took
    (1 - a_j) times zeta(r, a_j)'s lower end would lie above the sum."""
    r = 3.0

    def zeta_at_an_end(s, a):
        z = np.array([float(mpmath.zeta(s, ai)) for ai in np.atleast_1d(a)])
        return (z if s == r - 1.0 else z * (1.0 - 1e-6)), 1e-6 * z

    monkeypatch.setattr("psikern.psi.hurwitz_zeta", zeta_at_an_end)
    with mpmath.workdps(40):
        for n in (1, 4, 17):
            D = double_tail(Power(r), n, k_start=1)
            assert _encloses(D.value, D.remainder_bound,
                             _double_tail_mpmath(r, n, 1)), n


def test_power_double_tail_memory_is_linear_in_n():
    """hurwitz_zeta sums its head one k at a time, so the 2n-1 points of
    the double tail cost O(n) memory: at n = 10^4 the peak is about 2.6 MB
    on 64-bit Linux, where a (2n-1) x N head matrix took 8.8 MB."""
    tracemalloc.start()
    try:
        double_tail(Power(3.0), 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


@pytest.mark.parametrize("r", [2.05, 3.0, 4.5])
def test_power_double_tail_anchors_at_n1(r):
    # at n = 1 every nu lies in nu blocks: D = zeta(r-1), and dropping the
    # first block leaves zeta(r-1) - zeta(r)
    psi = Power(r)
    with mpmath.workdps(40):
        z1, z = mpmath.zeta(r - 1), mpmath.zeta(r)
        for k_start, true in ((0, z1), (1, z1 - z)):
            D = double_tail(psi, 1, k_start=k_start)
            assert _encloses(D.value, D.remainder_bound, true), k_start


def test_import_and_power_tails_load_no_scipy():
    """psikern's runtime needs numpy only: importing it, the Power tails
    and the psi-info command load no scipy module."""
    code = (
        "import sys\n"
        "import psikern\n"
        "from psikern.cli import main\n"
        "psi = psikern.Power(3.0)\n"
        "for n in (1, 5, 50):\n"
        "    psikern.tail_sum(psi, n); psikern.weighted_tail(psi, n)\n"
        "    psikern.double_tail(psi, n)\n"
        "assert main(['psi-info', '--psi', '{\"kind\":\"power\",\"r\":3}',"
        " '--n', '1,5,50']) == 0\n"
        "bad = [m for m in sys.modules if m == 'scipy'"
        " or m.startswith('scipy.')]\n"
        "assert not bad, bad\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(pk.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@given(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=25),
       st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_tabulated_sums_are_exact(values, n):
    psi = Tabulated(values)
    m = len(values)
    vals = np.asarray(values)
    T = tail_sum(psi, n)
    assert T.remainder_bound == 0.0
    expect = float(np.sum(vals[n - 1:])) if n <= m else 0.0
    assert T.value == pytest.approx(expect, rel=1e-13, abs=1e-13)
    W = weighted_tail(psi, n)
    expect_w = float(sum(j * vals[n + j - 1] for j in range(1, m - n + 1))) / n
    assert W.value == pytest.approx(expect_w, rel=1e-12, abs=1e-13)


@given(n=st.integers(1, 60))
@settings(max_examples=30, deadline=None)
def test_tail_monotone_in_n(n):
    psi = AnalyticSech(0.65)
    assert tail_sum(psi, n + 1).value <= tail_sum(psi, n).value + 1e-15


def test_concurrent_sums_match_serial():
    """Threads growing one shared cache return the same enclosures as a
    serial run on a fresh instance."""
    ns = sorted({int(v) for v in np.geomspace(1, 3000, 24)})
    sums = (tail_sum, weighted_tail, double_tail)

    def run(psi, out):
        for n in ns:
            out.extend(f(psi, n) for f in sums)

    serial = []
    run(GenPoisson(1.0, 0.5), serial)
    shared = GenPoisson(1.0, 0.5)
    results = [[] for _ in range(4)]
    threads = [threading.Thread(target=run, args=(shared, out))
               for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for out in results:
        assert len(out) == len(serial)
        for got, ref in zip(out, serial):
            # both enclose the true sum, so the intervals must meet
            slack = 1e-14 * ref.value
            assert got.value <= ref.hi + slack
            assert ref.value <= got.hi + slack
            assert got.value == pytest.approx(ref.value, rel=1e-11)


# ---------------------------------------------------------------------------
# argument checks before closed forms, and the snapshot's table of results
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("total", [tail_sum, weighted_tail, double_tail],
                         ids=lambda f: f.__name__)
@_BAD_INDEX_FAMILIES
def test_closed_forms_reject_bad_budget_and_rel_tol(make, total):
    # rel_tol and budget are checked before any closed form, as the cache
    # loop checks them
    bad = [{"rel_tol": v} for v in (0.0, -1.0, math.nan, math.inf)] \
        + [{"budget": v} for v in (0, -3)]
    for kwargs in bad:
        with pytest.raises(ValueError):
            total(make(), 4, **kwargs)


@pytest.mark.parametrize("total", [tail_sum, weighted_tail, double_tail,
                                   lambda psi, n, budget: truncation_order(
                                       psi, budget=budget, n=n)],
                         ids=["tail_sum", "weighted_tail", "double_tail",
                              "truncation_order"])
def test_budget_below_n_is_slow_convergence(total):
    # no cache within a budget of 3 terms holds the sum from n = 5 on
    with pytest.raises(SlowConvergence) as exc:
        total(GenPoisson(1.0, 0.5), 5, budget=3)
    assert exc.value.terms_used == 3


def _fields(res):
    return (res.value.hex(), res.remainder_bound.hex(), res.terms_used)


@pytest.mark.parametrize("make", [lambda: GenPoisson(1.0, 0.5),
                                  lambda: Power(3.0)],
                         ids=["cached", "closed"])
def test_repeat_sums_return_identical_fields(make):
    psi = make()
    for n in (1, 7, 40):
        for call in (lambda: tail_sum(psi, n), lambda: weighted_tail(psi, n),
                     lambda: double_tail(psi, n, k_start=1),
                     lambda: tail_sum(psi, n, rel_tol=1e-6, budget=5000)):
            first = _fields(call())
            assert _fields(call()) == first
            assert _fields(call()) == first
        assert truncation_order(psi, 1e-6, n=n) \
            == truncation_order(psi, 1e-6, n=n)


def test_growth_starts_an_empty_table():
    # after psi.head(4 C) the next tail_sum is the new snapshot's own
    # read, not the result certified at length C
    psi = GenPoisson(1.0, 0.5)
    n = 6
    tail_sum(psi, n)
    C = len(psi._vals)
    psi.head(4 * C)
    T = tail_sum(psi, n)
    suf = psi._cache[1]
    assert len(suf) == 4 * C + 1
    assert T.value.hex() == float(suf[n - 1]).hex()
    assert T.remainder_bound.hex() == float(psi._tail_remainder(4 * C)).hex()
    assert T.terms_used == 4 * C - n + 1


def test_arguments_are_checked_after_a_hit():
    psi = GenPoisson(1.0, 0.5)
    for n in (3, 5):
        tail_sum(psi, n)
        weighted_tail(psi, n)
        double_tail(psi, n, k_start=1)
        truncation_order(psi, n=n)
    for bad_n in (0, -1, 2.5):
        for total in (tail_sum, weighted_tail, double_tail):
            with pytest.raises(ValueError):
                total(psi, bad_n)
        with pytest.raises(ValueError):
            truncation_order(psi, n=bad_n)
    for kwargs in ({"rel_tol": -1.0}, {"rel_tol": math.nan}, {"budget": 0}):
        for total in (tail_sum, weighted_tail, double_tail):
            with pytest.raises(ValueError):
                total(psi, 5, **kwargs)
        with pytest.raises(ValueError):
            truncation_order(psi, n=5, **kwargs)
    for k_start in (-1, 0.5):
        with pytest.raises(ValueError):
            double_tail(psi, 5, k_start=k_start)


def test_threads_on_a_grown_cache_match_serial_bits():
    """With no growth left to do, four threads that replace each other's
    table entries return the serial results bit for bit."""
    ns = sorted({int(v) for v in np.geomspace(1, 3000, 24)})
    calls = (tail_sum, weighted_tail, double_tail,
             lambda psi, n: double_tail(psi, n, k_start=1),
             lambda psi, n: truncation_order(psi, n=n))

    def run(psi, out):
        for _ in range(3):
            for n in ns:
                for f in calls:
                    res = f(psi, n)
                    out.append(res if isinstance(res, int) else _fields(res))

    length = 1 << 16
    serial = []
    ref = GenPoisson(1.0, 0.5)
    ref.head(length)
    run(ref, serial)
    shared = GenPoisson(1.0, 0.5)
    shared.head(length)
    results = [[] for _ in range(4)]
    threads = [threading.Thread(target=run, args=(shared, out))
               for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(ref._vals) == len(shared._vals) == length
    for out in results:
        assert out == serial


def test_table_does_not_grow_with_swept_n():
    # one entry per sum and settings: a sweep over n holds no results
    psi = Geometric(0.5)
    tracemalloc.start()
    try:
        for n in range(1, 100_001):
            tail_sum(psi, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    assert len(psi._cache[2]) == 1


class _CountingGenPoisson(GenPoisson):
    def __init__(self, *args):
        super().__init__(*args)
        self.rem_calls = 0

    def _tail_remainder(self, K):
        self.rem_calls += 1
        return super()._tail_remainder(K)

    def _ktail_remainder(self, K):
        self.rem_calls += 1
        return super()._ktail_remainder(K)


def test_repeat_brackets_evaluate_no_remainder():
    # the duality check's pattern: one thm2 bracket per x at one n
    psi = _CountingGenPoisson(1.0, 0.5)
    psi.head(1 << 14)
    n = 12
    first = pk.thm2_sup_bracket(psi, 0.0, n, 0.1)
    assert psi.rem_calls > 0
    done = psi.rem_calls
    for x in np.linspace(0.2, 6.0, 63):
        br = pk.thm2_sup_bracket(psi, 0.0, n, float(x))
        assert br.hi > 0.0
    assert psi.rem_calls == done
    assert pk.thm2_sup_bracket(psi, 0.0, n, 0.1) == first


# one spec per built-in kind
_CONTRACT_SPECS = [
    {"kind": "power", "r": 3.0},
    {"kind": "geometric", "q": 0.5},
    {"kind": "gen_poisson", "alpha": 1.0, "r": 0.5},
    {"kind": "log_log_power"},
    {"kind": "exp_log_squared"},
    {"kind": "exp_t_over_log"},
    {"kind": "polyharmonic_poisson", "q": 0.7, "l": 3},
    {"kind": "analytic_sech", "q": 0.6},
    {"kind": "neumann", "q": 0.5},
    {"kind": "even_odd", "q1": 0.9, "q2": 0.5},
    {"kind": "tabulated", "values": [1.0, 0.5, 0.2, 0.05, 0.01]},
]


def test_contract_specs_cover_every_kind():
    assert {s["kind"] for s in _CONTRACT_SPECS} == set(pk.psi._REGISTRY)


def _meets_contract(res, n):
    if isinstance(res, CertifiedSum):
        return math.isfinite(res.hi) and res.value <= res.hi \
            and res.terms_used >= 0
    if isinstance(res, Lemma1Result):
        return math.isfinite(res.lhs) and math.isfinite(res.rhs)
    if isinstance(res, int):
        return res >= n
    return math.isfinite(res)


@given(spec=st.sampled_from(_CONTRACT_SPECS),
       n=st.one_of(st.sampled_from([0, -1, 2.5]), st.integers(1, 400)),
       rel_tol=st.sampled_from([None, 0.0, -1.0, math.nan, math.inf, 1e-3,
                                1e-12]),
       budget=st.sampled_from([None, 0, 1, 3, 10 ** 5]),
       k_start=st.sampled_from([0, 1, -1, 0.5]))
@settings(max_examples=200, deadline=None)
def test_sums_meet_their_contract(spec, n, rel_tol, budget, k_start):
    """Each call raises ValueError or a typed error, or returns finite
    numbers with value <= hi."""
    psi = psi_from_dict(spec)
    calls = {
        "tail_sum": lambda: tail_sum(psi, n, rel_tol, budget),
        "weighted_tail": lambda: weighted_tail(psi, n, rel_tol, budget),
        "double_tail": lambda: double_tail(psi, n, rel_tol, budget, k_start),
        "truncation_order": lambda: truncation_order(psi, rel_tol, budget, n),
        "limit_ratio": lambda: limit_ratio(psi, n, rel_tol, budget),
        "lemma1_check": lambda: lemma1_check(psi, n, rel_tol, budget),
    }
    for name, call in calls.items():
        try:
            res = call()
        except (ValueError, PsikernError):
            continue
        assert _meets_contract(res, n), (name, res)


# ---------------------------------------------------------------------------
# the contract of the whole public API
# ---------------------------------------------------------------------------

# candidate draws outside an argument's domain, by kind; a count's also
# include floor - 1 and floor + 0.5, and a real's its finite ends
_BAD_COUNTS = [0, -1, 2.5, 20.5, math.nan, math.inf, -math.inf]
_BAD_REALS = [math.nan, math.inf, -math.inf, 0.0, -1.0, 2.5, 1e-300]


def _in_count_domain(v, floor):
    return math.isfinite(v) and v == int(v) and v >= floor


class _Draw:
    """Draws the numeric arguments of one call, each of one kind (count,
    real parameter or point).  At most one of them, the bad_at-th drawn,
    comes from outside its domain, so that no other argument's check can
    answer for its own; valid says whether all lie in their domains."""

    def __init__(self, data):
        self.data, self.valid, self.i = data, True, 0
        self.bad_at = data.draw(st.integers(0, 7))

    def _pick(self, good, bad):
        """A draw from the strategy good, or from the list bad for the
        bad_at-th argument."""
        self.i += 1
        if (self.i - 1 == self.bad_at or good is None) and bad:
            self.valid = False
            return self.data.draw(st.sampled_from(bad))
        return self.data.draw(good)

    def count(self, floor=1, cap=8, good=None):
        bad = [v for v in _BAD_COUNTS + [floor - 1, floor + 0.5]
               if not _in_count_domain(v, floor)]
        # every third valid count as an integral float
        ints = st.integers(floor, max(floor, cap)).map(
            lambda i: float(i) if i % 3 == 0 else i)
        return self._pick(ints if good is None else ints | good, bad)

    def optional_count(self, floor=1, cap=8):
        return self.count(floor, cap, good=st.none())

    def real(self, lo=-math.inf, hi=math.inf, closed=False, large=1e300):
        inside = (lambda v: lo <= v < hi) if closed \
            else (lambda v: lo < v < hi)
        a, b = max(lo, -large), min(hi, large)
        if a == lo and not closed:
            a = math.nextafter(a, math.inf)
        if b == hi:
            b = math.nextafter(b, -math.inf)
        bad = [v for v in _BAD_REALS + [lo, hi, -large, large]
               if not (math.isfinite(v) and inside(v))]
        # an empty domain, such as (0, 5e-324), has bad draws only
        return self._pick(st.floats(a, b) if a <= b else None, bad)

    def rel_tol(self):
        return self._pick(st.sampled_from([1e-3, 1e-6]), _BAD_REALS[:5])

    def point(self, array=True):
        """A scalar x, or (when array) sometimes it among others."""
        x = self._pick(st.floats(-1e300, 1e300), _BAD_REALS[:3])
        if array and self.data.draw(st.booleans()):
            return np.array([0.3, x, -2.0])
        return x

    def psi(self):
        i = self.data.draw(st.integers(0, len(_CONTRACT_SPECS) - 1))
        return _family(i)


_FAMILIES = {}


def _family(i):
    # one instance per spec for the whole test: building LogLogPower's
    # cache once keeps the draws fast, and a cache that grows between
    # calls changes no contract
    if i not in _FAMILIES:
        _FAMILIES[i] = psi_from_dict(_CONTRACT_SPECS[i])
    return _FAMILIES[i]


# the sweep families of the harness, indices into _CONTRACT_SPECS
_SWEEP = [1, 2, 8, 9]
_F = pk.TrigPoly(0.0, [0.3, 0.0, -0.2], [0.0, 0.5, 0.1])


def _sums(psi, d):
    n = d.count(cap=50)
    return (tail_sum(psi, n, budget=10 ** 5),
            weighted_tail(psi, n, budget=10 ** 5),
            double_tail(psi, n, budget=10 ** 5))


def _approx(solve, d, cap):
    n = d.count(cap=cap)
    floor = 8 * int(n) if d.valid else 8
    # the oracle's search costs 21^3 M: it is given no default 64n grid
    M = d.count(floor, floor + 8) if solve is pk.oracle_best_l1 \
        else d.optional_count(floor, floor + 48)
    return solve(_F, n, M)


def _config(d):
    spec = _CONTRACT_SPECS[d.data.draw(st.sampled_from(_SWEEP))]
    n = d.count(cap=4)
    floor = 8 * int(n) if d.valid else 32
    return pk.ExperimentConfig(
        psi_specs=(spec,), beta=d.real(large=10.0), n_list=(n,),
        n_functions=d.count(cap=2), x_grid=d.count(cap=16),
        seed=d.count(0, 10), solver_grid=d.optional_count(floor, floor + 32),
        slack_scale=d.real(0.0, closed=True),
        with_duality=d.data.draw(st.booleans()))


def _samples_at(d, n):
    s = np.linspace(-1.0, 1.0, max(1, 2 * int(n) - 1) if d.valid else 3)
    s[0] = d.point(array=False)
    return s


# every public callable that takes numbers, by name; each entry draws its
# arguments and makes the call
_PUBLIC_CALLS = {
    # psi
    "Power": lambda d: _sums(Power(d.real(2.0, large=1e308)), d),
    "Geometric": lambda d: _sums(Geometric(d.real(0.0, 1.0)), d),
    "GenPoisson": lambda d: _sums(GenPoisson(
        d.real(0.0, large=1e308), 1.0 if d.data.draw(st.booleans())
        else d.real(0.0)), d),
    "PolyharmonicPoisson": lambda d: _sums(PolyharmonicPoisson(
        d.real(0.0, 1.0), d.count(cap=6)), d),
    "AnalyticSech": lambda d: _sums(AnalyticSech(d.real(0.0, 1.0)), d),
    "Neumann": lambda d: _sums(Neumann(d.real(0.0, 1.0)), d),
    "EvenOdd": lambda d: (lambda q1: _sums(EvenOdd(
        q1, d.real(0.0, q1 if 0.0 < q1 < 1.0 else 1.0)), d))(
            d.real(0.0, 1.0)),
    "Tabulated": lambda d: _sums(Tabulated(
        [d.real(0.0, closed=True) for _ in range(3)]), d),
    "psi_from_dict": lambda d: psi_from_dict(
        {**_CONTRACT_SPECS[1], "q": d.real(0.0, 1.0)}),
    "eval": lambda d: pk.eval(d.psi(), d.count(cap=1000)),
    "tail_sum": lambda d: tail_sum(d.psi(), d.count(cap=400), d.rel_tol(),
                                   d.count(cap=10 ** 5)),
    "weighted_tail": lambda d: weighted_tail(
        d.psi(), d.count(cap=400), d.rel_tol(), d.count(cap=10 ** 5)),
    "double_tail": lambda d: double_tail(
        d.psi(), d.count(cap=400), d.rel_tol(),
        d.count(cap=10 ** 5), d.count(0, 3)),
    "limit_ratio": lambda d: limit_ratio(
        d.psi(), d.count(cap=400), d.rel_tol(), d.count(cap=10 ** 5)),
    "lemma1_check": lambda d: lemma1_check(
        d.psi(), d.count(cap=400), d.rel_tol(), d.count(cap=10 ** 5)),
    "truncation_order": lambda d: truncation_order(
        d.psi(), d.rel_tol(), d.count(cap=10 ** 5),
        d.count(cap=400)),
    "alpha_lambda": lambda d: alpha_lambda(d.psi(), d.real(1.0, closed=True)),
    "characteristics": lambda d: characteristics(
        d.psi(), d.real(1.0, closed=True)),
    "class_check": lambda d: class_check(
        d.psi(), [d.count(cap=50) for _ in range(d.data.draw(
            st.integers(1, 2)))]),
    # trig
    "TrigPoly": lambda d: pk.TrigPoly(d.real(), [d.real(), 1.0],
                                      [0.5, d.real()]),
    "TrigPoly.harmonic": lambda d: pk.TrigPoly.harmonic(
        d.count(cap=16), d.real(), d.real()),
    "TrigPoly.zero": lambda d: pk.TrigPoly.zero(d.count(0, 16)),
    "TrigPoly.coeff": lambda d: _F.coeff(d.count(0, 6)),
    "TrigPoly.__call__": lambda d: _F(d.point()),
    "TrigPoly.__mul__": lambda d: _F * d.real(),
    "KernelSpec": lambda d: pk.KernelSpec(d.psi(), d.real()),
    "dirichlet": lambda d: pk.dirichlet(d.count(cap=16), d.point()),
    "kernel_eval": lambda d: pk.kernel_eval(
        pk.KernelSpec(d.psi(), d.real(large=10.0)), d.point(array=False),
        d.rel_tol()),
    "convolve_quadrature": lambda d: pk.convolve_quadrature(
        pk.KernelSpec(d.psi()), _F, d.point(array=False), d.count(4, 64),
        d.rel_tol()),
    # interp
    "NodeSet": lambda d: (lambda n: pk.NodeSet(n, _samples_at(d, n)))(
        d.count(cap=8)),
    "nodes": lambda d: pk.nodes(d.count(cap=16)),
    "interpolate": lambda d: (lambda n: pk.interpolate(_samples_at(d, n), n))(
        d.count(cap=8)),
    "node_sum_eval": lambda d: (lambda n: pk.node_sum_eval(
        _samples_at(d, n), n, d.point()))(d.count(cap=8)),
    "deviation": lambda d: pk.deviation(_F, d.count(cap=8), d.point()),
    "grid_deviation": lambda d: pk.grid_deviation(
        _F, d.count(cap=8), d.count(cap=64)),
    "lebesgue_fn": lambda d: pk.lebesgue_fn(d.count(cap=16), d.point()),
    "lebesgue_residual": lambda d: pk.lebesgue_residual(
        d.count(cap=16), d.point()),
    "sine_factor": lambda d: pk.sine_factor(d.count(cap=64), d.point()),
    # bounds
    "gamma_phase": lambda d: pk.gamma_phase(
        d.count(cap=64), d.point(), d.real()),
    "thm1_rhs": lambda d: pk.thm1_rhs(
        d.psi(), d.count(cap=64), d.point(), d.real(0.0, closed=True)),
    "thm1_rhs_modified": lambda d: pk.thm1_rhs_modified(
        d.psi(), d.count(cap=64), d.point(), d.real(0.0, closed=True)),
    "thm2_sup_bracket": lambda d: pk.thm2_sup_bracket(
        d.psi(), d.real(), d.count(cap=64), d.point()),
    "thm3_bracket": lambda d: pk.thm3_bracket(
        d.psi(), d.count(cap=64), d.point(), d.real(0.0, closed=True)),
    "poisson_bounds": lambda d: pk.poisson_bounds(
        d.real(0.0), d.count(cap=64), d.point(), d.real(0.0, closed=True)),
    "dq_bound": lambda d: pk.dq_bound(
        d.psi(), d.count(cap=64), d.point(), d.real(0.0, closed=True)),
    "d0_bound": lambda d: pk.d0_bound(
        d.psi(), d.count(cap=64), d.point(), d.real(0.0, closed=True)),
    "duality_sup": lambda d: pk.duality_sup(
        d.psi(), d.real(), d.count(cap=8), d.point(array=False), d.rel_tol()),
    "duality_sup_batch": lambda d: pk.duality_sup_batch(
        d.psi(), d.real(), d.count(cap=8),
        np.atleast_1d(d.point()), d.rel_tol()),
    # bestapprox
    "best_l1": lambda d: _approx(pk.best_l1, d, 4),
    "best_uniform": lambda d: _approx(pk.best_uniform, d, 4),
    "oracle_best_l1": lambda d: _approx(pk.oracle_best_l1, d, 2),
    # harness: the summary of a small run
    "ExperimentConfig": _config,
    "verify_lebesgue": lambda d: pk.verify_lebesgue(_config(d))[1],
    "classical_lebesgue_check": lambda d: pk.classical_lebesgue_check(
        _config(d))[1],
    "sharpness_probe": lambda d: pk.sharpness_probe(_config(d))[1],
}

# public names that take no numbers of their own: result records, errors,
# and callables whose numbers come in through the records above
_NO_NUMBERS = {
    "ApproxResult", "BoundReport", "CertifiedSum", "Characteristics",
    "ClassFlags", "ClassicalReport", "Interval",
    "Lemma1Result", "PoissonBounds", "SharpnessRow", "Thm3Brackets",
    "DivisionDomain", "HypothesisUnmet", "NonMonotone", "PsikernError",
    "SlowConvergence", "SolverStall", "TrendViolation",
    "UnknownRatioMonotonicity", "ZeroMultiplier",
    "PsiFamily", "LogLogPower", "ExpLogSquared", "ExpTOverLog",
    "psi_derivative", "psi_integral", "psi_to_dict",
}


def test_contract_covers_the_public_api():
    public = {name for name in pk.__all__ if callable(getattr(pk, name))}
    covered = {name.split(".")[0] for name in _PUBLIC_CALLS}
    assert public - _NO_NUMBERS == covered
    assert not covered & _NO_NUMBERS


def _finite_values(res) -> bool:
    """Whether every number in res is finite, with lo <= hi for an
    Interval and value <= hi for a CertifiedSum."""
    if isinstance(res, pk.Interval):
        return _finite_values((res.lo, res.hi)) and bool(
            np.all(res.lo <= res.hi))
    if isinstance(res, CertifiedSum):
        return _finite_values((res.value, res.hi)) and res.value <= res.hi
    if res is None or isinstance(res, (bool, str, pk.PsiFamily)):
        return True
    if isinstance(res, (int, float, np.number, np.ndarray)):
        return bool(np.all(np.isfinite(res)))
    if isinstance(res, dict):
        return _finite_values(list(res.values()))
    if isinstance(res, (tuple, list)):
        return all(map(_finite_values, res))
    assert dataclasses.is_dataclass(res), type(res)
    return all(_finite_values(getattr(res, f.name))
               for f in dataclasses.fields(res))


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block after seconds of wall time."""
    def stop(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")
    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("name", sorted(_PUBLIC_CALLS))
@given(data=st.data())
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
def test_public_api_meets_its_contract(name, data):
    """Never a quiet wrong number: a call with an argument outside its
    domain raises ValueError or a typed error; any other call does that
    or returns finite values (lo <= hi for an Interval or CertifiedSum).
    TypeError, OverflowError, ZeroDivisionError, IndexError, a NaN or
    infinite result and a hang all fail."""
    d = _Draw(data)
    try:
        with _time_limit(10.0), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = _PUBLIC_CALLS[name](d)
    except (ValueError, PsikernError):
        return
    assert d.valid, f"{name} returned {res!r} for an argument outside its domain"
    assert _finite_values(res), (name, res)


# calls that returned a number or raised TypeError, OverflowError or
# ZeroDivisionError before each argument kind had its one checker
_OUT_OF_DOMAIN = {
    "class_check n_range 2.5": lambda: class_check(Geometric(0.5), [2.5]),
    "oracle_best_l1 M 20.5": lambda: pk.oracle_best_l1(_F, 2, 20.5),
    "convolve_quadrature M 8.5": lambda: pk.convolve_quadrature(
        pk.KernelSpec(Geometric(0.5)), _F, 0.3, 8.5),
    "grid_deviation N 16.5": lambda: pk.grid_deviation(_F, 4, 16.5),
    "thm1_rhs x nan": lambda: pk.thm1_rhs(Geometric(0.5), 4, math.nan, 1.0),
    "thm1_rhs E inf": lambda: pk.thm1_rhs(Geometric(0.5), 4, 0.3, math.inf),
    "tail_sum n inf": lambda: tail_sum(GenPoisson(1.0, 0.5), math.inf),
    "tail_sum budget inf": lambda: tail_sum(GenPoisson(1.0, 0.5), 4,
                                            budget=math.inf),
    "tail_sum budget 2.5": lambda: tail_sum(GenPoisson(1.0, 0.5), 4,
                                            budget=2.5),
    "TrigPoly.harmonic 2.5": lambda: pk.TrigPoly.harmonic(2.5),
    "Power r inf": lambda: Power(math.inf),
    "GenPoisson exp(-alpha) = 1": lambda: GenPoisson(1e-17, 1.0),
    "ExperimentConfig n_functions 0": lambda: pk.ExperimentConfig(
        n_functions=0),
    "psi_from_dict unknown key": lambda: psi_from_dict(
        {"kind": "geometric", "q": 0.5, "x": 1}),
    "psi_from_dict missing key": lambda: psi_from_dict({"kind": "neumann"}),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_DOMAIN))
def test_out_of_domain_arguments_raise_value_error(case):
    with pytest.raises(ValueError):
        _OUT_OF_DOMAIN[case]()


def test_psi_from_dict_names_the_bad_key():
    with pytest.raises(ValueError, match="geometric family spec: .*'x'"):
        psi_from_dict({"kind": "geometric", "q": 0.5, "x": 1})
    with pytest.raises(ValueError, match="even_odd family spec: .*'q1'"):
        psi_from_dict({"kind": "even_odd"})


def test_integral_float_counts_are_counts():
    assert np.array_equal(pk.grid_deviation(_F, 4.0, 16.0),
                          pk.grid_deviation(_F, 4, 16))
    assert class_check(Geometric(0.5), [3.0]) == class_check(
        Geometric(0.5), [3])
    assert pk.TrigPoly.harmonic(2.0, a=1.0).to_dict() \
        == pk.TrigPoly.harmonic(2, a=1.0).to_dict()


def test_truncation_order_reads_the_remainder_alone():
    # K is the smallest certified cutoff, and no cache grows for it
    for psi in (Geometric(0.5), Power(3.0), EvenOdd(0.9, 0.5),
                GenPoisson(1.0, 1.0)):
        for n in (1, 4, 37):
            K = truncation_order(psi, 1e-9, n=n)
            target = 1e-9 * tail_sum(psi, n, 1e-9).value
            assert psi._tail_remainder(K) <= target
            assert K == n or psi._tail_remainder(K - 1) > target
        assert len(psi._vals) == 0
    psi = GenPoisson(1.0, 0.5)
    tail_sum(psi, 5, 1e-9)
    C = len(psi._vals)
    truncation_order(psi, 1e-9, n=5)
    assert len(psi._vals) == C
    with pytest.raises(SlowConvergence) as exc:
        truncation_order(Geometric(0.5), 1e-12, budget=10, n=4)
    assert exc.value.terms_used == 10


def test_hurwitz_head_stops_once_its_terms_underflow():
    # the head of zeta(s, a) takes about s + 20 steps unless it stops once
    # every term left is 0.0: Power(1e5) took 0.5 s, and Power(1e308)
    # never returned (past r of about 4.8e14 the Euler-Maclaurin
    # coefficients leave the double range, and the sum refuses)
    for r in (1e5, 1e308):
        for total in (tail_sum, weighted_tail, double_tail):
            try:
                with _time_limit(5.0), warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    res = total(Power(r), 4)
            except (ValueError, PsikernError):
                continue
            assert math.isfinite(res.hi) and res.value <= res.hi


@pytest.mark.parametrize("r", [1e15, 1e100, 1e308])
def test_power_past_the_em_range_refuses_with_the_typed_error(r):
    # the rising factorial (r)_21 of the Euler-Maclaurin coefficients
    # overflows past r of about 4.8e14; the sums once went on to NaN
    # after numpy warnings and refused it with a bare ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for total in (tail_sum, weighted_tail, double_tail):
            with pytest.raises(HypothesisUnmet):
                total(Power(r), 4)
        with pytest.raises(HypothesisUnmet):
            hurwitz_zeta(r, np.array([1.0, 4.0]))
        # just below the threshold the sums are still enclosures
        for total in (tail_sum, weighted_tail):
            res = total(Power(1e14), 4)
            assert res.value <= 0.0 <= res.hi


def test_polyharmonic_large_l_refuses_instead_of_overflowing():
    # (1 + 1/K)^(l-1) once raised OverflowError from _rho after 0.78 s,
    # and _eps_sup divided overflowed polynomials into a NaN eps_n
    psi = PolyharmonicPoisson(0.5, 50000)
    with _time_limit(2.0), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((SlowConvergence, HypothesisUnmet, ValueError)):
            tail_sum(psi, 1, budget=1000)
    assert psi._rho(1) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HypothesisUnmet):
            class_check(PolyharmonicPoisson(0.5, 2000), [1])
        with pytest.raises(HypothesisUnmet):
            pk.dq_bound(PolyharmonicPoisson(0.5, 3000), 10, 0.3, 1.0)
    # a small l keeps its finite eps_n
    eps, _ = PolyharmonicPoisson(0.5, 6)._eps_sup(4, 0.5)
    assert math.isfinite(eps) and eps > 0.0


def test_polyharmonic_overflow_is_a_typed_refusal():
    # q^k P(k) was 0 * inf: eval returned nan, and the sums raised a bare
    # ValueError after numpy overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HypothesisUnmet):
            pk.eval(PolyharmonicPoisson(0.5, 2000), 3000)
        with _time_limit(2.0), pytest.raises(PsikernError):
            tail_sum(PolyharmonicPoisson(0.5, 50000), 1, budget=10**5)


def test_polyharmonic_poly_stops_once_its_terms_add_nothing():
    # l = 200,000 polynomial passes once took 8 s; every term past the
    # first few dozen adds nothing to P at k <= 4,098
    with _time_limit(1.0):
        flags = class_check(PolyharmonicPoisson(0.999, 200_000), [1])[1]
    assert flags == pk.ClassFlags(
        1, True, 0.999, 1.5946175731472815e+21, False, True, True, False,
        False, False)


@pytest.mark.parametrize("q, l", [(0.7, 3), (0.5, 40), (0.9, 300),
                                  (0.999, 20_000), (0.05, 60)])
def test_polyharmonic_poly_matches_the_full_sum_to_the_bit(q, l):
    k = np.concatenate([np.arange(1.0, 4099.0, 7.0),
                        np.linspace(1.0, 2.0, 11)])
    p, term = np.ones_like(k), np.ones_like(k)
    for j in range(1, l):  # every one of the l - 1 terms
        term = term * (1.0 - q ** 2) / (2.0 * j) * (k + 2.0 * (j - 1))
        p = p + term
    assert np.all(np.isfinite(p))
    assert np.array_equal(PolyharmonicPoisson(q, l)._poly(k), p)
