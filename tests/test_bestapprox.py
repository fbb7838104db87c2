"""Best L1 approximation via the in-repo long-step revised simplex and
best uniform approximation via the reference exchange.

The uniform tests pit the exchange against scipy's HiGHS on the same
discretisation (a test-only import).

DISCRETE_ABS_COS is the trapezoid value (2*pi/M) sum |cos| on the 64
points per period grid; the LP must reproduce it because the zero
polynomial is discretely optimal for cos(n.) at every order below n.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psikern import (
    KernelSpec,
    Neumann,
    TrigPoly,
    best_l1,
    best_uniform,
    bestapprox,
    oracle_best_l1,
    psi_integral,
)
from psikern.errors import SolverStall
from psikern.harness import _random_phi

DISCRETE_ABS_COS = 3.996786721940289  # (pi/32) * sum_{j<64} |cos(pi j/32)|


def _grid_design(n, M):
    t = 2 * math.pi * np.arange(M) / M
    cols = [np.full(M, 0.5)]
    for k in range(1, n):
        cols.append(np.cos(k * t))
        cols.append(np.sin(k * t))
    return t, np.column_stack(cols)


def test_l1_cos_n_hits_discrete_optimum():
    for n in (1, 2, 3):
        r = best_l1(lambda x, n=n: np.cos(n * x), n)
        assert r.grid_size == 64 * n
        assert r.value == pytest.approx(DISCRETE_ABS_COS, rel=1e-12)
        # and the continuum value 4 within the discretization error
        assert abs(r.value - 4.0) < 1e-3 * 4.0
        coeffs = np.concatenate([[r.argmin.a0], r.argmin.a, r.argmin.b])
        assert float(np.max(np.abs(coeffs))) < 1e-9


def test_uniform_cos_n_is_one():
    r = best_uniform(lambda x: np.cos(3 * x), 3)
    assert r.value == pytest.approx(1.0, abs=1e-10)
    assert r.metric == "Uniform"


@pytest.mark.parametrize("solve", [best_l1, best_uniform],
                         ids=["l1", "uniform"])
def test_exact_polynomials_are_recovered(solve):
    p = TrigPoly(0.7, [1.0, -0.4, 0.0], [0.2, 0.0, 1.1])
    r = solve(lambda t: p(t), 4)
    assert r.value <= 1e-9
    assert r.argmin.a0 == pytest.approx(p.a0, abs=1e-8)
    assert np.allclose(r.argmin.a[:3], p.a, atol=1e-8)
    assert np.allclose(r.argmin.b[:3], p.b, atol=1e-8)


def test_l1_matches_nested_grid_oracle():
    f1 = TrigPoly(0.2, [1.0, 0.0, 0.4], [0.0, -0.7, 0.1])
    f2 = TrigPoly(-0.5, [0.0, 1.3], [2.0, 0.0])
    for f, n in ((f1, 1), (f1, 2), (f2, 1), (f2, 2)):
        lp = best_l1(lambda t: f(t), n, 128)
        slow = oracle_best_l1(lambda t: f(t), n, 128)
        assert lp.value == pytest.approx(slow, rel=1e-4, abs=1e-9)
    with pytest.raises(ValueError):
        oracle_best_l1(lambda t: f1(t), 3)


def test_l1_duals_certify_optimality():
    """The returned duals witness optimality: |y| <= 1, Phi^T y = 0,
    zero duality gap, and y = sign(residual) wherever the residual is
    active."""
    f = TrigPoly(0.2, [1.0, 0.0, 0.4], [0.0, -0.7, 0.1])
    n, M = 2, 128
    r = best_l1(lambda t: f(t), n, M)
    t, Phi = _grid_design(n, M)
    fv = f(t)
    y = r.duals
    assert y is not None and len(y) == M
    assert float(np.max(np.abs(y))) <= 1.0 + 1e-9
    assert float(np.max(np.abs(Phi.T @ y))) < 1e-9
    w = 2 * math.pi / M
    assert r.value == pytest.approx(w * float(fv @ y), rel=1e-11, abs=1e-12)
    res = fv - r.argmin(t)
    active = np.abs(res) > 1e-9
    assert np.allclose(y[active], np.sign(res[active]), atol=1e-9)


@pytest.mark.parametrize("n", range(1, 17))
def test_l1_dual_certificate_property(n):
    """The returned y certifies optimality on seeded random inputs, both on
    the default 64n grid and on a grid of 8n + k points."""
    rng = np.random.default_rng([n, 4])
    phi = _random_phi(rng, n)
    shift = rng.standard_normal()
    for M in (64 * n, 8 * n + int(rng.integers(0, 8 * n))):
        r = best_l1(lambda t: phi(t) + shift, n, M)
        t, Phi = _grid_design(n, M)
        fv = phi(t) + shift
        y = r.duals
        s = float(np.sum(np.abs(fv - r.argmin(t))))
        assert float(np.max(np.abs(y))) <= 1.0 + 1e-9
        assert float(np.max(np.abs(Phi.T @ y))) \
            <= 1e-9 * float(np.max(np.abs(fv))) * M
        assert abs(float(fv @ y) - s) <= 1e-9 * s


@pytest.mark.parametrize("n", [32, 64])
def test_l1_long_pivot_runs_keep_the_dual_certificate(n):
    """Runs longer than the refactorisation interval of the basis block,
    on a TrigPoly input (sampled by FFT): the returned y still certifies
    optimality.  These inputs take 109 and 316 pivots."""
    phi = _random_phi(np.random.default_rng([5, n]), n)
    r = best_l1(phi, n)
    assert r.iterations > bestapprox.REFACTOR_EVERY
    t, Phi = _grid_design(n, r.grid_size)
    fv = phi(t)
    y = r.duals
    s = float(np.sum(np.abs(fv - r.argmin(t))))
    assert float(np.max(np.abs(y))) <= 1.0 + 1e-9
    assert float(np.max(np.abs(Phi.T @ y))) \
        <= 1e-9 * float(np.max(np.abs(fv))) * r.grid_size
    assert abs(float(fv @ y) - s) <= 1e-9 * s


def test_l1_value_scales_with_data():
    """Tolerances and the data perturbation follow the scale of f: at
    1e-30 the solver once stalled on an absolute progress test and raised
    SolverStall."""
    base = best_l1(lambda t: np.abs(np.sin(t)), 8).value
    for c in (1e-30, 1.0, 1e6):
        r = best_l1(lambda t, c=c: c * np.abs(np.sin(t)), 8)
        assert r.value == pytest.approx(c * base, rel=1e-9)


def test_l1_long_step_pivot_count():
    # the n=16 acceptance-corpus input; short-step pivoting took 708
    n = 16
    phi = _random_phi(np.random.default_rng([12345, 2]), n)
    assert best_l1(phi, n).iterations <= 10 * (2 * n - 1)
    # all twelve corpus inputs: 737 pivots from the split-residual
    # identity, 292 from the crash basis
    assert sum(best_l1(phi, n).iterations
               for phi, n in _corpus_inputs()) <= 400


def test_l1_iteration_cap_raises():
    """The iteration cap is the simplex's only guard on termination."""
    n = 16
    phi = _random_phi(np.random.default_rng([12345, 2]), n)
    t = bestapprox._grid(n, None)
    with pytest.raises(SolverStall) as err:
        bestapprox._l1_revised(bestapprox._design(n, t), phi(t), max_iter=2)
    assert err.value.iterations == 2


@pytest.mark.parametrize("n", [8, 10])
def test_l1_exact_fit_stops_at_roundoff(n):
    """Residuals of an exact fit are roundoff, so the solve stops once it
    reaches that floor, with y = 0 as the dual point."""
    rng = np.random.default_rng([0, n])
    p = TrigPoly(rng.standard_normal(), rng.standard_normal(n - 1),
                 rng.standard_normal(n - 1))
    r = best_l1(lambda t: p(t), n)
    assert r.value <= 1e-9
    assert r.iterations <= 10 * (2 * n - 1)
    assert np.allclose(r.argmin.a, p.a, atol=1e-8)
    assert np.allclose(r.argmin.b, p.b, atol=1e-8)
    assert not np.any(r.duals)


def test_uniform_residual_equioscillates():
    f = TrigPoly(0.0, [0.0, 0.0, 0.0, 0.6], [0.0, 0.0, 0.0, -0.8])
    n, M = 4, 256
    r = best_uniform(lambda t: f(t), n, M)
    t = 2 * math.pi * np.arange(M) / M
    res = f(t) - r.argmin(t)
    assert float(np.max(np.abs(res))) == pytest.approx(r.value, rel=1e-9)
    # a characterizing set: at least 2n points touch the extreme level
    touches = np.sum(np.abs(np.abs(res) - r.value) < 1e-8 * max(r.value, 1.0))
    assert touches >= 2 * n


@pytest.mark.parametrize("n", [16, 32])
def test_uniform_long_exchange_runs_keep_the_alternation(n):
    """Runs longer than the re-inversion interval of the factored
    reference (65 and 129 exchanges).  value is attained by the returned
    polynomial, and its residual alternates in sign on 2n grid points where
    |r| = value: the discrete Chebyshev characterisation of the optimum."""
    phi = _random_phi(np.random.default_rng([5, n]), n)
    r = best_uniform(phi, n)
    assert r.iterations > bestapprox.REFACTOR_EVERY
    t = 2 * math.pi * np.arange(r.grid_size) / r.grid_size
    fv = phi(t)
    res = fv - r.argmin(t)
    assert abs(r.value - float(np.max(np.abs(res)))) \
        <= 1e-12 * float(np.max(np.abs(fv)))
    # the sign runs of the residual at the extreme level, round the circle
    signs = np.sign(res[np.abs(res) >= r.value * (1.0 - 1e-9)])
    runs = int(np.count_nonzero(signs != np.roll(signs, 1)))
    assert runs >= 2 * n
    # the memoised design is shared between calls, so it is read-only
    for a in bestapprox._grid_design(n, r.grid_size):
        with pytest.raises(ValueError):
            a[0] = 0.0


def _highs_uniform(fv, n):
    """min_(c, e) e s.t. |fv - Phi c| <= e, solved by HiGHS.  At its
    default 1e-7 feasibility tolerances HiGHS is off by 2e-5 relative on
    the neumann input below, so both are tightened to their 1e-10 floor."""
    from scipy.optimize import linprog

    M = len(fv)
    _, Phi = _grid_design(n, M)
    ones = np.ones((M, 1))
    A = np.vstack([np.hstack([Phi, -ones]), np.hstack([-Phi, -ones])])
    cost = np.zeros(Phi.shape[1] + 1)
    cost[-1] = 1.0
    lp = linprog(cost, A_ub=A, b_ub=np.concatenate([fv, -fv]),
                 bounds=[(None, None)] * Phi.shape[1] + [(0, None)],
                 method="highs",
                 options={"primal_feasibility_tolerance": 1e-10,
                          "dual_feasibility_tolerance": 1e-10})
    assert lp.status == 0
    return lp.fun


def _highs_l1_bracket(fv, n):
    """min sum(u + v) s.t. Phi c + u - v = fv, u, v >= 0, solved by HiGHS
    at its 1e-10 feasibility tolerances, as an enclosure of best_l1's
    value.  On a bump whose optimum is 3.5e-10 the HiGHS objective sits
    3e-12 below the optimum, so the objective itself is not the reference.
    Above: the weighted L1 error of HiGHS's own polynomial.  Below: the
    value of its row duals, projected onto Phi^T y = 0 (the columns are
    orthogonal on the grid) and scaled into |y| <= 1, a dual feasible
    point."""
    from scipy.optimize import linprog

    M = len(fv)
    _, Phi = _grid_design(n, M)
    d = Phi.shape[1]
    eye = np.eye(M)
    cost = np.concatenate([np.zeros(d), np.ones(2 * M)])
    lp = linprog(cost, A_eq=np.hstack([Phi, eye, -eye]), b_eq=fv,
                 bounds=[(None, None)] * d + [(0, None)] * (2 * M),
                 method="highs",
                 options={"primal_feasibility_tolerance": 1e-10,
                          "dual_feasibility_tolerance": 1e-10})
    assert lp.status == 0
    y = lp.eqlin.marginals
    y = y - Phi @ ((Phi.T @ y) / np.sum(Phi * Phi, axis=0))
    y = y / max(1.0, float(np.max(np.abs(y))))
    w = 2 * math.pi / M
    return w * float(fv @ y), w * float(np.sum(np.abs(fv - Phi @ lp.x[:d])))


def _corpus_inputs():
    """The twelve best_l1 inputs of the acceptance corpus."""
    return [(_random_phi(np.random.default_rng([12345, i]), n), n)
            for i, n in enumerate([4, 8, 16] * 4)]


def _highs_cases():
    cases = [(phi, n, None) for phi, n in _corpus_inputs()]
    for s in range(18):
        rng = np.random.default_rng([31, s])
        n = int(rng.integers(1, 17))
        M = None if s % 2 else 8 * n + int(rng.integers(0, 8 * n))
        if s % 3 == 0:      # a Gaussian bump
            c, w = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.2, 1.0)
            f = (lambda t, c=c, w=w:
                 np.exp(-(np.angle(np.exp(1j * (t - c))) / w) ** 2))
        elif s % 3 == 1:    # an exact fit
            f = TrigPoly(rng.standard_normal(), rng.standard_normal(n - 1),
                         rng.standard_normal(n - 1))
        else:
            f = _random_phi(rng, n)
        cases.append((f, n, M))
    # degenerate inputs, with many residuals at zero at the optimum: |sin|,
    # narrow spikes and a short indicator.  Without the data perturbation
    # Dantzig pricing cycles on the last spike (HiGHS: 0.0409061543436171)
    cases += [(lambda t: np.abs(np.sin(t)), n, None) for n in (3, 7, 12)]
    cases += [(lambda t: 1e-30 * np.abs(np.sin(t)), 3, None),
              (_random_phi(np.random.default_rng([3, 4]), 4), 4, None)]
    cases += [(lambda t: (np.abs(t - 1.0) < 0.02) * 1.0, 16, None),
              (lambda t: ((t >= 3.6971034) & (t < 3.9128876)) * 1.0, 3, 192),
              (lambda t: (np.abs((t - 1.8875950419309886 + math.pi)
                                 % (2 * math.pi) - math.pi) < 0.02) * 1.0,
               12, None)]
    return cases


def test_l1_matches_highs():
    """The crash-started long-step simplex against HiGHS on the same LP:
    the corpus inputs, bumps, exact fits and degenerate spikes, on 64n and
    8n+k grids."""
    for f, n, M in _highs_cases():
        r = best_l1(f, n, M)
        t = 2 * math.pi * np.arange(r.grid_size) / r.grid_size
        fv = f(t)
        lo, hi = _highs_l1_bracket(fv, n)
        tol = max(1e-9 * hi, 1e-12 * float(np.max(np.abs(fv))))
        assert lo - tol <= r.value <= hi + tol, (n, r.grid_size, r.value,
                                                 lo, hi)


def test_l1_argmin_is_a_basic_solution():
    """The coefficients stay basic, so the returned polynomial interpolates
    f on the 2n-1 rows of the optimal block: |f - p| <= 1e-12 max|f| on at
    least 2n-1 grid rows of every HiGHS case."""
    for f, n, M in _highs_cases():
        r = best_l1(f, n, M)
        t = 2 * math.pi * np.arange(r.grid_size) / r.grid_size
        fv = f(t)
        res = np.abs(fv - r.argmin(t))
        hits = int(np.count_nonzero(res <= 1e-12 * float(np.max(np.abs(fv)))))
        assert hits >= 2 * n - 1, (n, r.grid_size, hits)


def test_uniform_value_is_attained_and_minimal():
    """A neumann-kernel input on which a dense-tableau simplex returned
    3.80835e-5, below both its own argmin's error (3.81875e-5) and the
    discrete minimax (3.81448e-5)."""
    beta = np.random.default_rng([23, 2]).uniform(0.0, 2.0)
    phi = _random_phi(np.random.default_rng([23, 53]), 8)
    f = psi_integral(KernelSpec(Neumann(0.5), beta), phi)
    n, M = 8, 160
    r = best_uniform(f, n, M)
    t = 2 * math.pi * np.arange(M) / M
    fv = f(t)
    scale = float(np.max(np.abs(fv)))
    assert abs(r.value - float(np.max(np.abs(fv - r.argmin(t))))) \
        <= 1e-12 * scale
    assert r.value == pytest.approx(_highs_uniform(fv, n), rel=1e-8)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_uniform_matches_highs(n):
    # HiGHS works to a 1e-7 absolute tolerance, so only errors well above
    # it on the scale of f are compared
    M = 64 * n
    t = 2 * math.pi * np.arange(M) / M
    compared = 0
    for seed in range(4):
        rng = np.random.default_rng([seed, n])
        k = np.arange(1, 2 * n + 1)
        p = TrigPoly(rng.standard_normal(), rng.standard_normal(2 * n) / k,
                     rng.standard_normal(2 * n) / k)
        r = best_uniform(lambda x: p(x), n, M)
        fv = p(t)
        if r.value > 1e-3 * float(np.max(np.abs(fv))):
            assert r.value == pytest.approx(_highs_uniform(fv, n), rel=1e-8)
            compared += 1
    assert compared >= 3


def test_grid_shift_invariance():
    # shifting f by a whole number of grid steps permutes the samples
    f = TrigPoly(0.1, [0.9, -0.2], [0.0, 0.7])
    n, M = 3, 192
    s = 5 * 2 * math.pi / M
    a = best_l1(lambda t: f(t), n, M).value
    b = best_l1(lambda t: f(t - s), n, M).value
    assert a == pytest.approx(b, rel=1e-10)


def test_grid_refinement_approaches_continuum():
    # E(cos n.) in L1 is exactly 4; doubling M must cut the gap
    n = 2
    gaps = [abs(best_l1(lambda x: np.cos(n * x), n, M).value - 4.0)
            for M in (64, 128, 256, 512)]
    assert gaps[1] < gaps[0] and gaps[2] < gaps[1] and gaps[3] < gaps[2]
    # second-order quadrature: quartering the step cuts the gap ~16x
    assert gaps[3] < gaps[1] / 10.0


def test_result_metadata():
    r = best_l1(lambda t: np.cos(t), 1, 64)
    assert (r.metric, r.grid_size) == ("L1", 64)
    u = best_uniform(lambda t: np.cos(t), 1, 64)
    assert u.duals is None
    r2 = best_l1(lambda t: 2.0 + np.cos(t), 1, 64)
    assert r2.argmin.a0 == pytest.approx(4.0, rel=1e-10)  # a0/2 = median
    # the crash basis starts at a sample near the mean; exp(cos t) has its
    # median 1 well below its mean I0(1), so the solve has to pivot
    r3 = best_l1(lambda t: np.exp(np.cos(t)), 1, 64)
    assert r3.iterations > 0
    assert r3.argmin.a0 == pytest.approx(2.0, rel=1e-10)


@given(a0=st.floats(-2.0, 2.0), a1=st.floats(-2.0, 2.0),
       b1=st.floats(-2.0, 2.0), hi=st.floats(-1.5, 1.5))
@settings(max_examples=25, deadline=None)
def test_value_is_translation_invariant_in_polynomials(a0, a1, b1, hi):
    """Adding an order-(n-1) polynomial to f leaves both best errors
    unchanged: the optimizer absorbs it."""
    n = 2
    g = TrigPoly.harmonic(2, a=hi, b=0.3)
    p = TrigPoly(a0, [a1], [b1])
    e_g = best_l1(lambda t: g(t), n, 96).value
    e_gp = best_l1(lambda t: g(t) + p(t), n, 96).value
    assert e_gp == pytest.approx(e_g, rel=1e-8, abs=1e-10)


def test_singular_block_is_a_solver_stall():
    for op, args in ((np.linalg.inv, (np.zeros((3, 3)),)),
                     (np.linalg.solve, (np.zeros((3, 3)), np.ones(3)))):
        with pytest.raises(SolverStall, match="singular L1 basis block") as err:
            bestapprox._nonsingular(op, 7, "L1 basis block", *args)
        assert err.value.iterations == 7
