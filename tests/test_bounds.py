"""Deviation bounds, bracket intervals, and the duality route.

DUALITY_GEO_ORACLE is an mpmath (dps 30) evaluation of the extremal
oscillation (gmax - gmin)/2 for the geometric kernel tail at n = 3,
x = pi/5, beta = 0.25, scaled by (2/pi)|sin((2n-1)x/2)|.

The duality checks at the end compare against independent slow routes:
dense cos/sin tables for the folded-FFT grid and the polish sums, the
dense roll-and-mask grid selection over all 2 len(xs) x M points, sums
taken once per entry, mpmath and long-double dense sums for the
recurrence phase tables, a closed-form Newton iteration for a two-term
kernel, and a brute-force 2^16-point grid for random short tables.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psikern import (
    EvenOdd,
    GenPoisson,
    Geometric,
    Interval,
    Power,
    Tabulated,
    d0_bound,
    dq_bound,
    duality_sup,
    duality_sup_batch,
    gamma_phase,
    poisson_bounds,
    psi_from_dict,
    sine_factor,
    thm1_rhs,
    thm1_rhs_modified,
    thm2_sup_bracket,
    thm3_bracket,
    tail_sum,
    truncation_order,
    weighted_tail,
)
from psikern import bounds
from psikern import psi as psi_module
from psikern.bounds import _evaluate, _grid_profile
from psikern.errors import HypothesisUnmet, SlowConvergence

DUALITY_GEO_ORACLE = 0.135249244610419152


def test_interval_mechanics():
    iv = Interval(1.0, 3.0)
    assert iv.mid == 2.0 and iv.width == 2.0
    assert iv.contains(1.0) and iv.contains(3.0) and not iv.contains(3.1)
    assert iv.contains(3.1, slack=0.2)
    assert iv.contains_interval(Interval(1.5, 2.5))
    assert not iv.contains_interval(Interval(0.5, 2.0))
    assert iv.contains_interval(Interval(0.9, 3.05), slack=0.1)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_phase_and_sine_factor():
    g = gamma_phase(3, 0.4, 0.5)
    assert g.gamma_n == pytest.approx((5 * 0.4 + math.pi * (-0.5)) / 2.0)
    assert sine_factor(4, 0.6) == pytest.approx(
        2 / math.pi * abs(math.sin(7 * 0.6 / 2)), rel=1e-15)
    # vanishes at every node, peaks at 2/pi
    for k in range(7):
        assert sine_factor(4, 2 * math.pi * k / 7) < 1e-14
    assert sine_factor(4, math.pi / 7) == pytest.approx(2 / math.pi, rel=1e-14)


def test_rhs_scaling_and_ordering():
    psi = Geometric(0.4)
    n, x = 5, 0.7
    r1 = thm1_rhs(psi, n, x, 1.0)
    assert thm1_rhs(psi, n, x, 2.5) == pytest.approx(2.5 * r1, rel=1e-14)
    assert thm1_rhs(psi, n, x, 0.0) == 0.0
    assert thm1_rhs_modified(psi, n, x, 1.0) >= r1
    node = 2 * math.pi * 3 / (2 * n - 1)
    assert thm1_rhs(psi, n, node, 1.0) < 1e-14
    with pytest.raises(ValueError):
        thm1_rhs(psi, n, x, -1.0)


def test_thm2_bracket_shape():
    psi = Geometric(0.5)
    n, x = 6, 1.0
    iv = thm2_sup_bracket(psi, 0.0, n, x)
    s = sine_factor(n, x)
    T = tail_sum(psi, n)
    W = weighted_tail(psi, n)
    assert iv.hi == pytest.approx(s * (T.hi + W.hi), rel=1e-14)
    assert iv.lo == pytest.approx(s * (T.value - (1 + math.pi) * W.hi), rel=1e-13)
    # beta plays no role in the endpoints
    iv2 = thm2_sup_bracket(psi, 1.7, n, x)
    assert (iv2.lo, iv2.hi) == (iv.lo, iv.hi)
    node = thm2_sup_bracket(psi, 0.0, n, 2 * math.pi / (2 * n - 1))
    assert abs(node.lo) < 1e-14 and abs(node.hi) < 1e-14


ARRAY_FAMILIES = [
    {"kind": "geometric", "q": 0.5},
    {"kind": "gen_poisson", "alpha": 1.0, "r": 0.5},
    {"kind": "power", "r": 3.0},
]


def _within_ulp(arr, scalars):
    scalars = np.array(scalars)
    return np.all(np.abs(arr - scalars) <= np.spacing(np.abs(scalars)))


@pytest.mark.parametrize("spec", ARRAY_FAMILIES,
                         ids=[s["kind"] for s in ARRAY_FAMILIES])
def test_bounds_accept_array_x(spec):
    psi = psi_from_dict(dict(spec))
    n, E = 7, 1.3
    # nodes 2 pi k/13 fall on the grid too, where the factor vanishes
    xs = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    xs = np.concatenate([xs[:-2], 2 * math.pi * np.array([1.0, 5.0]) / 13])
    # cached tail sums tighten as the cache grows: certify every tail
    # first, so the scalar and array calls below read the same cache
    thm1_rhs(psi, n, 0.5, E)
    thm2_sup_bracket(psi, 0.0, n, 0.5)
    s = sine_factor(n, xs)
    r1 = thm1_rhs(psi, n, xs, E)
    rm = thm1_rhs_modified(psi, n, xs, E)
    br = thm2_sup_bracket(psi, 0.0, n, xs)
    for arr in (s, r1, rm, br.lo, br.hi):
        assert isinstance(arr, np.ndarray) and arr.shape == xs.shape
    assert _within_ulp(s, [sine_factor(n, float(x)) for x in xs])
    assert _within_ulp(r1, [thm1_rhs(psi, n, float(x), E) for x in xs])
    assert _within_ulp(rm, [thm1_rhs_modified(psi, n, float(x), E)
                            for x in xs])
    scalar = [thm2_sup_bracket(psi, 0.0, n, float(x)) for x in xs]
    assert _within_ulp(br.lo, [iv.lo for iv in scalar])
    assert _within_ulp(br.hi, [iv.hi for iv in scalar])
    # scalars, numpy scalars included, still give Python floats
    for x in (0.4, np.float64(0.4)):
        assert type(sine_factor(n, x)) is float
        assert type(thm1_rhs(psi, n, x, E)) is float
        assert type(thm1_rhs_modified(psi, n, x, E)) is float
        iv = thm2_sup_bracket(psi, 0.0, n, x)
        assert type(iv) is Interval
        assert type(iv.lo) is float and type(iv.hi) is float


def test_array_intervals():
    iv = Interval(np.array([0.0, 1.0]), np.array([0.5, 1.0]))
    assert np.array_equal(iv.width, [0.5, 0.0])
    assert np.array_equal(iv.contains(0.25), [True, False])
    assert np.array_equal(
        iv.contains_interval(Interval(np.array([0.1, 0.2]), np.array([0.4, 1.2])),
                          slack=0.1),
        [True, False])
    with pytest.raises(ValueError):
        Interval(np.array([0.0, 2.0, 0.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        Interval(np.array([0.0, np.nan]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Interval(np.array([0.0, 0.0]), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)


def test_poisson_closed_forms_match_generic():
    """Dual route: geometric closed forms for q = e^{-alpha}, the double
    tail q^n / ((1-q)(1-q^(2n-1))), the tail T = q^n / (1-q) and the
    weighted tail W = q^(n+1) / (n (1-q)^2), must agree with
    poisson_bounds, which takes them from the generic certified sums."""
    E = 1.3
    for alpha in (0.5, 1.0, 2.0):
        q = math.exp(-alpha)
        for n in (1, 3, 10, 50):
            for x in (0.35, 1.9):
                pb = poisson_bounds(alpha, n, x, E)
                s = sine_factor(n, x)
                rhs = s * q ** n / ((1.0 - q) * (1.0 - q ** (2 * n - 1))) * E
                T = q ** n / (1.0 - q)
                W = q ** (n + 1) / (n * (1.0 - q) ** 2)
                assert pb.rhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)
                assert pb.bracket.lo == pytest.approx(
                    s * (T - (1.0 + math.pi) * W) * E, rel=1e-12, abs=1e-300)
                assert pb.bracket.hi == pytest.approx(
                    s * (T + W) * E, rel=1e-12, abs=1e-300)


def test_duality_matches_frozen_oracle():
    iv = duality_sup(Geometric(0.5), 0.25, 3, math.pi / 5)
    assert iv.contains(DUALITY_GEO_ORACLE)
    assert iv.width < 0.02


def test_duality_batch_consistent_with_scalar():
    # each start is polished on its own, so an interval has the same bits
    # in a batch as alone; when the polish stepped every start until all
    # had converged, 5 of these 24 slow-family intervals moved, by up to
    # 1.2e-13 of the upper end
    xs = np.random.default_rng(5).uniform(0.0, 2 * math.pi, 12)
    for psi, n, x in ((Geometric(0.6), 4, [0.2, 0.9, 2.4]),
                      (GenPoisson(1.0, 0.5), 3, xs),
                      (EvenOdd(0.9, 0.5), 4, xs)):
        # the family caches as the lone calls below will find them
        duality_sup_batch(psi, 0.5, n, x)
        batch = duality_sup_batch(psi, 0.5, n, x)
        for xi, iv in zip(x, batch):
            assert duality_sup(psi, 0.5, n, float(xi)) == iv


def test_duality_tightens_with_rel_tol():
    psi = Geometric(0.5)
    loose = duality_sup(psi, 0.0, 5, 0.8, rel_tol=1e-4)
    tight = duality_sup(psi, 0.0, 5, 0.8, rel_tol=1e-12)
    assert tight.width <= loose.width + 1e-15
    # both enclose the same sup
    assert max(loose.lo, tight.lo) <= min(loose.hi, tight.hi)


@pytest.mark.parametrize("make,beta,dual_tol", [
    (lambda: Geometric(0.5), 0.0, 1e-12),
    (lambda: GenPoisson(1.0, 0.5), 1.0, 1e-12),
    # polynomial tails need ~1/sqrt(rel_tol) kernel terms; keep it sane
    (lambda: Power(3.0), 0.25, 1e-6),
], ids=["geometric", "gen_poisson", "power"])
def test_duality_inside_thm2(make, beta, dual_tol):
    psi = make()
    for n in (2, 5, 16):
        xs = np.linspace(0.05, 2 * math.pi - 0.05, 9)
        ivs = duality_sup_batch(psi, beta, n, xs, rel_tol=dual_tol)
        outer = [thm2_sup_bracket(psi, beta, n, float(x)) for x in xs]
        for o, i in zip(outer, ivs):
            assert o.contains_interval(i, slack=1e-12 * (1.0 + abs(o.hi)))


def test_dq_bound_encloses_duality():
    psi = Geometric(0.5)
    for n, x in ((5, 0.3), (10, 1.1), (10, 2.7)):
        dq = dq_bound(psi, n, x, 1.0)
        iv = duality_sup(psi, 0.0, n, x)
        assert dq.contains_interval(iv, slack=1e-13)


def test_d0_bound_encloses_duality():
    psi = GenPoisson(1.0, 2.0)
    n, x = 6, 0.9
    d0 = d0_bound(psi, n, x, 1.0)
    iv = duality_sup(psi, 0.0, n, x)
    assert d0.contains_interval(iv, slack=1e-15)


def test_thm3_sup_encloses_duality():
    psi = GenPoisson(1.0, 0.5)
    n, x = 64, 0.9
    br = thm3_bracket(psi, n, x, 1.0)
    iv = duality_sup(psi, 0.0, n, x)
    assert br.sup.contains_interval(iv, slack=1e-15)
    assert br.ineq.lo <= br.ineq.hi


def test_hypothesis_gates():
    # alpha(16) = 0.5 > 1/4 for this family: second-order bracket refuses
    with pytest.raises(HypothesisUnmet):
        thm3_bracket(GenPoisson(1.0, 0.5), 16, 0.9, 1.0)
    # power decay has ratio limit 1: no geometric-ratio class bound
    with pytest.raises(HypothesisUnmet):
        dq_bound(Power(3.0), 10, 0.9, 1.0)
    # the n condition 1/n + eps < (1-q)/2 fails at n = 4, q = 0.5
    with pytest.raises(HypothesisUnmet):
        dq_bound(Geometric(0.5), 4, 0.9, 1.0)
    # d0 route needs ratio limit exactly 0
    with pytest.raises(HypothesisUnmet):
        d0_bound(Geometric(0.5), 6, 0.9, 1.0)
    with pytest.raises(HypothesisUnmet):
        thm3_bracket(Geometric(0.5), 16, 0.9, 1.0)  # not in the alpha class


def test_duality_at_node_is_zero_interval():
    psi = Geometric(0.5)
    n = 4
    node = 2 * math.pi / (2 * n - 1)
    iv = duality_sup(psi, 0.0, n, node)
    assert abs(iv.lo) < 1e-12 and abs(iv.hi) < 1e-12


def _kernel_tail(psi, n):
    """k = n..K and the weights psi(k) of the kernel tail that
    duality_sup_batch sums at its default rel_tol, scaled as _trig_max
    scales them, by 2^-e to a largest in [1/2, 1)."""
    K = max(n + 8, truncation_order(psi, 1e-12, n=n))
    vals = psi.head(K)[n - 1:]
    e = math.frexp(float(np.max(np.abs(vals))))[1]
    return np.arange(n, K + 1), np.ldexp(vals, -e)


SWEEP_FAMILIES = (
    {"kind": "geometric", "q": 0.5},
    {"kind": "gen_poisson", "alpha": 1.0, "r": 0.5},
    {"kind": "neumann", "q": 0.5},
    {"kind": "even_odd", "q1": 0.9, "q2": 0.5},
)


def test_duality_grid_fft_matches_dense_tables():
    longer_than_grid = 0
    for spec in SWEEP_FAMILIES:
        psi = psi_from_dict(dict(spec))
        for n in (2, 16, 64):
            ks, vals = _kernel_tail(psi, n)
            M = max(16 * n, 256)
            longer_than_grid += len(ks) > M
            t = 2 * math.pi * np.arange(M) / M
            Z = _grid_profile(ks, vals, M)
            tol = 1e-13 * float(np.sum(vals))
            assert np.max(np.abs(Z.real - np.cos(np.outer(t, ks)) @ vals)) <= tol
            assert np.max(np.abs(Z.imag - np.sin(np.outer(t, ks)) @ vals)) <= tol
    assert longer_than_grid > 0  # K > M folds several k into one bin


def test_duality_polish_sums_match_dense_tables():
    rng = np.random.default_rng(7)
    for spec in SWEEP_FAMILIES:
        psi = psi_from_dict(dict(spec))
        for n in (2, 16, 64):
            ks, vals = _kernel_tail(psi, n)
            ts = rng.uniform(-0.1, 2 * math.pi + 0.1, 40)
            gam = rng.uniform(0.0, 2 * math.pi, 40)
            sig = rng.choice([-1.0, 1.0], 40)
            W = np.stack([vals, ks * vals, ks * (ks * vals)])
            f, d1, d2 = _evaluate(ts, sig * np.exp(1j * gam), W, n)
            ph = np.outer(ts, ks) + gam[:, None]
            S = [float(np.sum(w)) for w in W]
            assert np.max(np.abs(f - sig * (np.cos(ph) @ vals))) <= 1e-13 * S[0]
            assert np.max(np.abs(d1 + sig * (np.sin(ph) @ W[1]))) <= 1e-13 * S[1]
            assert np.max(np.abs(d2 + sig * (np.cos(ph) @ W[2]))) <= 1e-13 * S[2]


def test_duality_batch_rejects_bad_xs():
    psi = Geometric(0.5)
    with pytest.raises(ValueError, match="one-dimensional"):
        duality_sup_batch(psi, 0.0, 4, [[0.1, 0.2]])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            duality_sup_batch(psi, 0.0, 4, [0.1, bad])
        with pytest.raises(ValueError, match="finite"):
            duality_sup(psi, 0.0, 4, bad)


def test_duality_kernel_cutoff_stays_within_the_budget(monkeypatch):
    """Power(2.05) needs about 1e11 terms for the kernel cutoff at the
    default rel_tol: the cache stops at the term budget and the call
    raises."""
    monkeypatch.setattr(psi_module, "DEFAULT_TERM_BUDGET", 5000)
    psi = Power(2.05)
    with pytest.raises(SlowConvergence):
        duality_sup(psi, 0.0, 4, 0.3)
    assert len(psi._vals) <= 5000


def test_duality_cutoff_refuses_early():
    """Power(2.5) needs about 3.5e8 terms for the kernel cutoff at n = 4, so
    the remainder at the 1e7-term budget already rules every length out:
    the call raises before the cache grows."""
    psi = Power(2.5)
    with pytest.raises(SlowConvergence):
        duality_sup(psi, 0.0, 4, 0.3)
    assert len(psi._vals) <= 2 * (4 + 64)


def _dense_grid_selection(V2, best0, best1, lift, tol):
    """The grid stage written over the dense 2 len(xs) x M problem grid V2:
    the polish starts (p, j) under the grid maxima best0, and the
    branch-and-bound cells (cp, j) with both endpoint values under the
    polished maxima best1, each in row-major order."""
    right = np.roll(V2, -1, axis=1)
    p, j = np.nonzero((V2 >= np.roll(V2, 1, axis=1)) & (V2 >= right)
                      & (V2 + lift > best0[:, None] + tol))
    cp, cj = np.nonzero(np.maximum(V2, right) + lift > best1[:, None] + tol)
    return (p, j), (cp, cj, V2[cp, cj], right[cp, cj])


def _record_grid_stage(monkeypatch):
    """Wrap _grid_starts and _grid_cells so that every batch records V, the
    maxima before and after polish (copied: the batch raises them in
    place), lift, tol and both selections."""
    calls = []
    starts, cells = bounds._grid_starts, bounds._grid_cells

    def record_starts(V, best, lift, tol):
        out = starts(V, best, lift, tol)
        calls.append(dict(V=V, best0=best.copy(), lift=lift, tol=tol,
                          start=out[1]))
        return out

    def record_cells(V, hot, best, lift, tol):
        out = cells(V, hot, best, lift, tol)
        calls[-1].update(best1=best.copy(), cells=out)
        return out

    monkeypatch.setattr(bounds, "_grid_starts", record_starts)
    monkeypatch.setattr(bounds, "_grid_cells", record_cells)
    return calls


def test_duality_grid_selection_matches_dense_reference(monkeypatch):
    calls = _record_grid_stage(monkeypatch)
    xs = 0.013 + np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    cases = [(psi_from_dict(dict(spec)), n, xs)
             for spec in SWEEP_FAMILIES for n in (2, 16, 64)]
    # the two-peak kernel of the test below
    two_peaks = Tabulated([0.0, 1.0, 1e-4])
    cases += [(two_peaks, 2, xs), (two_peaks, 2, [1.0617128210050935])]
    for psi, n, x in cases:
        duality_sup_batch(psi, 0.0, n, x)
        rec = calls[-1]
        # the full product over both sides; its sigma = -1 rows are -V
        ks, vals = _kernel_tail(psi, n)
        phase = np.exp(1j * gamma_phase(n, np.asarray(x), 0.0).gamma_n)
        M = rec["V"].shape[1]
        V2 = np.outer(np.concatenate([phase, -phase]),
                      _grid_profile(ks, vals, M)).real
        assert np.array_equal(V2, np.concatenate([rec["V"], -rec["V"]]))
        assert np.array_equal(rec["best0"], V2.max(axis=1))
        (p, j), (cp, cj, fa, fb) = _dense_grid_selection(
            V2, rec["best0"], rec["best1"], rec["lift"], rec["tol"])
        cell, ga, gb = rec["cells"]
        assert np.array_equal(rec["start"], p * M + j)
        assert np.array_equal(cell, cp * M + cj)
        assert np.array_equal(ga, fa) and np.array_equal(gb, fb)
        assert len(p) and len(cp)
    assert len(calls) == len(cases)


def test_duality_shared_kernel_sums_are_bit_identical(monkeypatch):
    def per_entry(ts, rot, W, n):
        # the cell midpoints pass W[:1] and read sigma g alone
        Z = bounds._trig_sums(ts, W, n)
        if len(W) == 1:
            return ((rot * Z[0]).real,)
        return (rot * Z[0]).real, -(rot * Z[1]).imag, -(rot * Z[2]).real

    rng = np.random.default_rng(11)
    xs = 0.013 + np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    for make in (lambda: GenPoisson(1.0, 0.5), lambda: EvenOdd(0.9, 0.5)):
        for n in (4, 23):
            # repeated points, and a single distinct point at every entry
            ks, vals = _kernel_tail(make(), n)
            W = np.stack([vals, ks * vals, ks * (ks * vals)])
            rot = np.exp(1j * rng.uniform(0.0, 2 * math.pi, 6))
            for ts in (rng.uniform(0.0, 2 * math.pi, 3)[[0, 1, 0, 2, 1, 0]],
                       np.full(6, rng.uniform(0.0, 2 * math.pi))):
                for rows in (W, W[:1]):
                    got = _evaluate(ts, rot, rows, n)
                    want = per_entry(ts, rot, rows, n)
                    assert len(got) == len(want) == len(rows)
                    for a, b in zip(got, want):
                        assert np.array_equal(a, b)
            shared = duality_sup_batch(make(), 0.0, n, xs)
            with monkeypatch.context() as m:
                m.setattr(bounds, "_evaluate", per_entry)
                each = duality_sup_batch(make(), 0.0, n, xs)
            assert [(iv.lo, iv.hi) for iv in shared] == \
                [(iv.lo, iv.hi) for iv in each]


def test_trig_sums_rows_do_not_depend_on_the_row_count():
    """A point's kernel sums are the same bits alone or among others: a
    one-row product once went to BLAS gemv, which rounds differently from
    gemm (26 of these 428 rows differed, by up to 2.6e-14)."""
    rng = np.random.default_rng(29)
    ts = rng.uniform(0.0, 2 * math.pi, 40)
    for psi in (Power(3.0), GenPoisson(1.0, 0.5)):
        for n in (3, 5, 8, 13):
            K = 50 * n
            ks, vals = np.arange(n, K + 1), psi.head(K)[n - 1:]
            W = np.stack([vals, ks * vals, ks * (ks * vals)])
            full = bounds._trig_sums(ts, W, n)
            # the cell midpoints sum the weights of g alone
            assert np.array_equal(bounds._trig_sums(ts, W[:1], n), full[:1])
            for _ in range(16):
                rows = rng.choice(40, size=int(rng.integers(1, 6)),
                                  replace=False)
                assert np.array_equal(bounds._trig_sums(ts[rows], W, n),
                                      full[:, rows])
                assert np.array_equal(bounds._trig_sums(ts[rows], W[:1], n),
                                      full[:1, rows])


def _dense_sums_mp(ts, ks, vals):
    """sum_k k^r vals_k e^{ikt}, r = 0, 1, 2, in mpmath at dps 30."""
    out = np.empty((3, len(ts)), dtype=complex)
    with mpmath.workdps(30):
        for j, t in enumerate(ts):
            acc = [mpmath.mpc(0)] * 3
            for k, w in zip(ks.tolist(), vals.tolist()):
                e = mpmath.expj(k * mpmath.mpf(t)) * w
                acc = [acc[0] + e, acc[1] + k * e, acc[2] + k * k * e]
            out[:, j] = [complex(a) for a in acc]
    return out


def _dense_sums_ld(ts, ks, vals):
    """The same sums in 80-bit long double: k t rounds to 2^-64 relative,
    2^-11 of the allowance the test below gives the float tables for the
    same rounding."""
    k, w = ks.astype(np.longdouble), vals.astype(np.longdouble)
    out = np.empty((3, len(ts)), dtype=complex)
    for j, t in enumerate(ts):
        ph = k * np.longdouble(t)
        c, s = np.cos(ph), np.sin(ph)
        for r in range(3):
            wr = w * k ** r
            out[r, j] = complex(float(wr @ c), float(wr @ s))
    return out


@pytest.mark.parametrize("K", [40, 300, 1300, 38000])
def test_trig_sums_against_extended_precision(K):
    """The phase tables are recurrences; no entry may drift past what the
    rounding of the arguments n t and B t (|kt| u per term, as a dense
    table's fl(kt) carried) leaves, plus 1e-14 of sum k^r |w_k|.  At
    n = 1024 the argument n t rounds exactly, and the recurrence is all
    that is left."""
    if K > 1300 and np.finfo(np.longdouble).eps > 2.0 ** -60:
        pytest.skip("long double is double on this platform")
    rng = np.random.default_rng([41, K])
    for n in (1, int(rng.integers(2, 1000)), 1024):
        if K <= 300:
            vals = rng.standard_normal(K)
        elif K == 1300:
            vals = GenPoisson(1.0, 0.5).head(n + K - 1)[n - 1:]
        else:
            vals = Power(3.0).head(n + K - 1)[n - 1:]
        ks = np.arange(n, n + K)
        W = np.stack([vals, ks * vals, ks * (ks * vals)])
        ts = rng.uniform(-0.1, 2 * math.pi + 0.1, 3)
        ref = (_dense_sums_ld if K > 1300 else _dense_sums_mp)(ts, ks, vals)
        got = bounds._trig_sums(ts, W, n)
        for r in range(3):
            mass = np.abs(W[r])
            tol = 1e-14 * mass.sum() + 2.0 ** -53 * np.abs(ts) * (ks @ mass)
            assert np.all(np.abs(got[r] - ref[r]) <= tol), (K, n, r)


def test_duality_finds_the_higher_of_two_near_equal_peaks():
    """g = cos(2t + gamma) + 1e-4 cos(3t + gamma) has two maxima of nearly
    equal height; polishing only the grid argmax settles on the lower one,
    1.1e-6 below the true sup."""
    n, x = 2, 1.0617128210050935
    gam = gamma_phase(n, x, 0.0).gamma_n

    def g(t, m):  # m-th derivative of g
        return sum(c * k ** m * np.cos(k * t + gam + m * math.pi / 2)
                   for k, c in ((2, 1.0), (3, 1e-4)))

    t = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    for _ in range(40):  # Newton from every start reaches a critical point
        t = t - g(t, 1) / g(t, 2)
    truth = sine_factor(n, x) * 0.5 * (np.max(g(t, 0)) - np.min(g(t, 0)))
    assert truth >= 0.6365010521174852 - 1e-15
    iv = duality_sup(Tabulated([0.0, 1.0, 1e-4]), 0.0, n, x)
    assert iv.contains(truth, slack=1e-15)
    assert iv.width < 1e-10


def _brute_enclosure(psi, beta, n, x, K, points):
    """Enclosure of (2/pi)|sin((2n-1)x/2)| times the half-range of
    g_K(t) = sum_{k=n}^{K} psi(k) cos(kt + gamma): the half-range on a
    uniform grid, and that plus h^2/8 sum k^2 psi(k), from dense tables."""
    ks = np.arange(n, K + 1, dtype=np.float64)
    vals = np.array([psi.value(int(k)) for k in ks])
    gam = gamma_phase(n, x, beta).gamma_n
    t = 2 * math.pi * np.arange(points) / points
    g = np.concatenate([np.cos(np.outer(c, ks) + gam) @ vals
                        for c in np.array_split(t, max(1, points // 2048))])
    s = sine_factor(n, x)
    lo = s * 0.5 * (np.max(g) - np.min(g))
    return lo, lo + s * (2 * math.pi / points) ** 2 / 8 * float(ks ** 2 @ vals)


def _check_against_brute(iv, lo, hi, eps):
    """The interval meets the brute-force enclosure, and its midpoint (the
    attained half-range plus half the grid-miss term) lies inside it."""
    assert iv.hi >= lo - eps and iv.lo <= hi + eps
    assert lo - eps <= iv.mid <= hi + eps


@given(n=st.integers(1, 8), x=st.floats(0.0, 2 * math.pi),
       beta=st.floats(0.0, 2.0), data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_duality_short_tables_against_brute_force(n, x, beta, data):
    # support below 3n - 1: no aliasing remainder and no truncation, so
    # the interval is the attained half-range plus the grid-miss term
    table = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                               max_size=3 * n - 2))
    psi = Tabulated(table)
    iv = duality_sup(psi, beta, n, x)
    lo, hi = _brute_enclosure(psi, beta, n, x, len(table), 2 ** 16)
    total = float(np.sum(table))
    _check_against_brute(iv, lo, hi, 1e-14 * (1.0 + total))
    assert iv.width <= 1e-10 * total


@pytest.mark.parametrize("spec,n,x,K", [
    # psi(1600) = exp(-40) and 0.9^400 = 5e-19: the dropped tails are far
    # below the check's slack
    ({"kind": "gen_poisson", "alpha": 1.0, "r": 0.5}, 3, 0.7, 1600),
    # the grid argmax sits on the lower of two peaks, 3.5% below the sup
    ({"kind": "even_odd", "q1": 0.9, "q2": 0.5}, 23,
     0.013 + 17 * math.pi / 32, 400),
], ids=["gen_poisson", "even_odd"])
def test_duality_minimum_grid_against_brute_force(spec, n, x, K):
    # the default grid, max(16n, 256) points, is the minimum 16n at n = 23;
    # test_trig_max_against_brute_force checks 16n against 4096 points
    psi = psi_from_dict(dict(spec))
    iv = duality_sup(psi, 0.0, n, x)
    lo, hi = _brute_enclosure(psi, 0.0, n, x, K, 2 ** 13)
    _check_against_brute(iv, lo, hi, 1e-9 * tail_sum(psi, n).value)


def test_thm1_rhs_refuses_nan_E():
    # a NaN E gives a NaN bound unless it is refused
    for f in (thm1_rhs, thm1_rhs_modified):
        with pytest.raises(ValueError):
            f(Geometric(0.5), 4, 0.3, math.nan)


def _geometric_half_range(q, n, gamma):
    """(max - min)/2 over t of Re(e^{i(nt + gamma)} / (1 - q e^{it})), the
    duality kernel tail of Geometric(q) divided by q^n, so that every
    number is of order one: the argmax and argmin of a 64n-point grid,
    then Newton steps on the derivative from closed forms."""
    def derivs(t):
        e = np.exp(1j * t)
        G = np.exp(1j * (n * t + gamma)) / (1.0 - q * e)
        L = 1j * n + 1j * q * e / (1.0 - q * e)        # G' = G L
        dL = -q * e / (1.0 - q * e) ** 2
        return G.real, (G * L).real, (G * (L * L + dL)).real

    t = 2.0 * math.pi * np.arange(64 * n) / (64 * n)
    v = derivs(t)[0]
    ends = []
    for sign in (1.0, -1.0):
        tt = t[np.argmax(sign * v)]
        for _ in range(8):
            _, d1, d2 = derivs(tt)
            tt -= d1 / d2
        ends.append(sign * derivs(tt)[0])
    return 0.5 * (ends[0] + ends[1])


@pytest.mark.parametrize("n", [600, 1024])
def test_duality_antinode_at_tiny_scale_encloses_the_closed_form(n):
    # q^n is below 1e-180 here, so at scale 1 the polish and basin tests'
    # products of two kernel-size numbers underflow and pass unchecked:
    # the interval then sits at ratio - 1 = -7.06e-6 at n = 1024, 3e-12
    # wide, against the true -4.70e-6
    q, x = 0.5, math.pi / (2 * n - 1)
    iv = duality_sup(Geometric(q), 0.0, n, x)
    truth = sine_factor(n, x) * q ** n * _geometric_half_range(
        q, n, gamma_phase(n, x, 0.0).gamma_n)
    assert iv.contains(truth, slack=1e-13 * truth), (iv, truth)
    assert iv.width <= 1e-11 * truth


@pytest.mark.parametrize("q,n", [(0.5, 1074), (0.5, 1040), (0.7, 2010),
                                 (0.7, 2009)])
def test_duality_refuses_a_subnormal_kernel(q, n):
    # subnormal weights round by up to 2^-1075 each, whatever their size,
    # and the interval did not count it.  At q = 0.5, n = 1074 the one
    # nonzero weight is 2^-1074 and the interval came back as
    # [5e-324, 5e-324], which excludes (2/pi) T = 6.3e-324; at n = 1040
    # its upper end sat 5.2e-11 relative below the closed form, and at
    # q = 0.7, n = 2010 4.3e-13 below.  At n = 2009 the largest weight,
    # 6e-312, is above 2^-1074 / rel_tol but not above K times that, and
    # with the per-start polish the upper end sat 1.5e-13 below
    with pytest.raises(HypothesisUnmet, match="rel_tol"):
        duality_sup(Geometric(q), 0.0, n, math.pi / (2 * n - 1))


def _brute_max(vals, n, phase, points):
    """Enclosures [grid max, grid max + h^2/8 sum k^2 |w_k|] of the max of
    g = Re(rot sum_j vals[j] e^{i(n+j)t}) and of -g, for rot in phase, from
    the grid of the given number of points, by Horner's rule in e^{it}."""
    t = 2 * math.pi * np.arange(points) / points
    z = np.exp(1j * t)
    acc = np.zeros(points, dtype=complex)
    for v in vals[::-1]:
        acc = acc * z + v
    g = (np.outer(phase, np.exp(1j * n * t) * acc)).real
    lo = np.stack([g.max(axis=1), -g.min(axis=1)])
    ks = n + np.arange(len(vals))
    return lo, lo + (2 * math.pi / points) ** 2 / 8 * float(ks ** 2 @ np.abs(vals))


def _random_trig_series():
    """Seeded signed weights at n = 1..16 with support up to 3n, three
    rotations each, and their brute-force enclosures on 2^16 points."""
    rng = np.random.default_rng(23)
    for n in range(1, 17):
        vals = rng.standard_normal(int(rng.integers(1, 3 * n + 1)))
        phase = np.exp(1j * rng.uniform(0.0, 2 * math.pi, 3))
        yield n, vals, phase, _brute_max(vals, n, phase, 2 ** 16)


def test_trig_max_against_brute_force():
    for n, vals, phase, (lo, hi) in _random_trig_series():
        total = float(np.sum(np.abs(vals)))
        ends = {}
        for M in (16 * n, max(16 * n, 256), 4096):
            best, miss = bounds._trig_max(vals, n, phase, M, 1e-12)
            ends[M] = best, best + miss
            if M < 4096:
                # the certified [best, best + miss] meets the brute force
                assert np.all(best <= hi + 1e-13 * total)
                assert np.all(best + miss >= lo - 1e-13 * total)
                assert np.all(miss <= 1e-10 * total)
        for a, b in zip(ends[16 * n], ends[4096]):
            assert a == pytest.approx(b, rel=1e-12)
        # a power-of-two scale changes no bit: the weights are scaled to
        # one range before any test runs
        tiny = bounds._trig_max(np.ldexp(vals, -900), n, phase, 16 * n, 1e-12)
        assert all(np.array_equal(np.ldexp(a, -900), b)
                   for a, b in zip(ends[16 * n], (tiny[0], tiny[0] + tiny[1])))


@pytest.mark.parametrize("depth", [0, 4])
def test_trig_max_cell_bounds_cover_the_grid_miss(monkeypatch, depth):
    # with no Newton step and few bisections best stays near the grid
    # max, and the cell bounds left at the cap must cover the rest
    monkeypatch.setattr(bounds, "NEWTON_STEPS", 0)
    monkeypatch.setattr(bounds, "REFINE_DEPTH", depth)
    for n, vals, phase, (lo, hi) in _random_trig_series():
        eps = 1e-13 * float(np.sum(np.abs(vals)))
        best, miss = bounds._trig_max(vals, n, phase, 16 * n, 1e-12)
        assert np.all(best <= hi + eps) and np.all(best + miss >= lo - eps)
