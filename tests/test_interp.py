"""Interpolation on the 2n-1 equidistant nodes and the Lebesgue function.

The frozen Lebesgue value was computed independently with mpmath (dps 30)
as the 11-term absolute Dirichlet sum at n = 6, x = 0.4.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psikern import (
    ExpLogSquared,
    GenPoisson,
    Geometric,
    NodeSet,
    TrigPoly,
    best_l1,
    best_uniform,
    class_check,
    d0_bound,
    deviation,
    dirichlet,
    dq_bound,
    duality_sup_batch,
    gamma_phase,
    grid_deviation,
    interpolate,
    lebesgue_fn,
    lebesgue_residual,
    node_sum_eval,
    nodes,
    oracle_best_l1,
    sine_factor,
    thm1_rhs,
    thm2_sup_bracket,
    thm3_bracket,
)

LEBESGUE_N6_X04 = 2.21796968266546293


def _rand_poly(rng, order):
    return TrigPoly(rng.standard_normal(),
                    rng.standard_normal(order),
                    rng.standard_normal(order))


def test_nodes_layout():
    ns = nodes(4)
    assert ns.n == 4 and len(ns.nodes) == 7
    assert ns.nodes[0] == 0.0
    assert np.all(np.diff(ns.nodes) > 0.0)
    assert ns.nodes[-1] < 2 * math.pi
    assert np.allclose(np.diff(ns.nodes), 2 * math.pi / 7)
    with pytest.raises(ValueError):
        nodes(0)


@given(n=st.integers(1, 24), seed=st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_interpolation_is_projection(n, seed):
    # order n-1 polynomials are fixed points of the operator
    rng = np.random.default_rng(seed)
    p = _rand_poly(rng, n - 1) if n > 1 else TrigPoly(rng.standard_normal(), [], [])
    xk = nodes(n).nodes
    q = interpolate(p(xk), n)
    assert q.a0 == pytest.approx(p.a0, rel=1e-11, abs=1e-11)
    assert np.allclose(q.a, p.a, rtol=1e-11, atol=1e-11)
    assert np.allclose(q.b, p.b, rtol=1e-11, atol=1e-11)


def test_interpolant_hits_samples():
    n = 7
    rng = np.random.default_rng(3)
    xk = nodes(n).nodes
    samples = rng.standard_normal(2 * n - 1)
    p = interpolate(samples, n)
    assert p.order == n - 1
    assert np.allclose(p(xk), samples, atol=1e-12)


def test_node_sum_route_agrees_with_coefficients():
    n = 9
    rng = np.random.default_rng(11)
    samples = rng.standard_normal(2 * n - 1)
    p = interpolate(samples, n)
    xs = np.linspace(0.0, 2 * math.pi, 101)
    assert np.allclose(node_sum_eval(samples, n, xs), p(xs), atol=1e-10)
    assert node_sum_eval(samples, n, 0.5) == pytest.approx(p(0.5), abs=1e-10)


def test_sample_count_is_enforced():
    with pytest.raises(ValueError):
        interpolate(np.zeros(6), 4)
    with pytest.raises(ValueError):
        node_sum_eval(np.zeros(6), 4, 0.0)


def test_deviation_vanishes_at_nodes_and_matches_brute():
    n = 5
    f = TrigPoly(0.3, np.zeros(n + 3), np.zeros(n + 3))
    f.a[n + 2] = 1.0  # harmonic above the interpolation order
    xk = nodes(n).nodes
    assert np.max(np.abs(deviation(f, n, xk))) < 1e-12
    xs = np.linspace(0.1, 6.0, 17)
    p = interpolate(f(xk), n)
    assert np.allclose(deviation(f, n, xs), f(xs) - p(xs), atol=1e-12)


@pytest.mark.parametrize("N", [7, 64, 512])
def test_grid_deviation_matches_the_pointwise_deviation(N):
    """The FFT route against deviation at the points 2 pi j/N, for f whose
    order is below N/2, above N/2 and above N, where the inverse FFT must
    fold the harmonics onto the grid."""
    rng = np.random.default_rng([17, N])
    x = 2 * math.pi * np.arange(N) / N
    for n in (2, 5):
        for order in (N // 2 - 1, N // 2 + 2, N + 3):
            f = _rand_poly(rng, order)
            scale = abs(f.a0) + np.sum(np.abs(f.a)) + np.sum(np.abs(f.b))
            got = grid_deviation(f, n, N)
            assert got.shape == (N,)
            assert np.max(np.abs(got - deviation(f, n, x))) \
                <= 1e-13 * scale, (n, order)


def test_grid_deviation_samples_a_callable_pointwise():
    """A function that is not a TrigPoly is evaluated at the grid points
    themselves, one at a time when it takes scalars only."""
    calls = []

    def g(t):
        calls.append(float(t))          # raises on an array of points
        return math.exp(math.sin(t))

    n, N = 4, 64
    x = 2 * math.pi * np.arange(N) / N
    got = grid_deviation(g, n, N)
    assert calls[-N:] == x.tolist()
    assert np.max(np.abs(got - deviation(g, n, x))) < 1e-13 * math.e


def test_aliasing_of_high_harmonics():
    # cos((2n-1)x) samples like the constant 1 on the nodes
    n = 6
    N = 2 * n - 1
    f = TrigPoly.harmonic(N, a=1.0)
    p = interpolate(f(nodes(n).nodes), n)
    assert p.a0 == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(p.a, 0.0, atol=1e-12) and np.allclose(p.b, 0.0, atol=1e-12)


def test_lebesgue_oracle_value():
    assert lebesgue_fn(6, 0.4) == pytest.approx(LEBESGUE_N6_X04, rel=1e-14)


def test_lebesgue_fn_floor_and_nodes():
    for n in (2, 5, 16):
        xk = nodes(n).nodes
        at_nodes = lebesgue_fn(n, xk)
        assert np.allclose(at_nodes, 1.0, atol=5e-13)
        xs = np.linspace(0.0, 2 * math.pi, 257)
        assert np.min(lebesgue_fn(n, xs)) >= 1.0 - 1e-12


def test_lebesgue_fn_is_operator_norm():
    """Dual route: L_n(x) equals the sup of |interpolant(x)| over sign
    patterns at the nodes, realized by the sign pattern of D_{n-1}(x-x_k)."""
    n, x = 4, 0.9
    from psikern.trig import dirichlet
    xk = nodes(n).nodes
    signs = np.sign(dirichlet(n, x - xk))
    p = interpolate(signs, n)
    assert p(x) == pytest.approx(lebesgue_fn(n, x), rel=1e-12)
    # any other bounded sample vector does no better
    rng = np.random.default_rng(0)
    for _ in range(25):
        s = rng.uniform(-1.0, 1.0, 2 * n - 1)
        assert abs(interpolate(s, n)(x)) <= lebesgue_fn(n, x) + 1e-12


def test_lebesgue_residual_at_nodes():
    for n in (2, 8, 64):
        xk = nodes(n).nodes
        r = lebesgue_residual(n, xk)
        assert np.allclose(r, 1.0, atol=1e-11)
    with pytest.raises(ValueError):
        lebesgue_residual(1, 0.3)


def test_lebesgue_residual_bounded_as_n_grows():
    xs = np.linspace(0.0, 2 * math.pi, 513)
    sup = [float(np.max(np.abs(lebesgue_residual(n, xs)))) for n in (8, 32, 128)]
    assert max(sup) < 2.5
    # while the Lebesgue function itself keeps growing
    assert np.max(lebesgue_fn(128, xs)) > np.max(lebesgue_fn(8, xs)) + 1.0


@given(n=st.integers(2, 20), t=st.floats(0.0, 2 * math.pi))
@settings(max_examples=80, deadline=None)
def test_lebesgue_symmetry_and_periodicity(n, t):
    N = 2 * n - 1
    v = lebesgue_fn(n, t)
    assert lebesgue_fn(n, t + 2 * math.pi / N) == pytest.approx(v, rel=1e-10, abs=1e-10)
    assert lebesgue_fn(n, -t) == pytest.approx(v, rel=1e-10, abs=1e-10)


def _samples(n):
    return np.zeros(max(0, int(2 * n - 1)))


_F = TrigPoly.harmonic(3, a=1.0)
# every public entry that takes an interpolation order n
ORDER_ENTRIES = {
    "best_l1": lambda n: best_l1(_F, n),
    "best_uniform": lambda n: best_uniform(_F, n),
    "oracle_best_l1": lambda n: oracle_best_l1(_F, n),
    "NodeSet": lambda n: NodeSet(n, _samples(n)),
    "nodes": nodes,
    "interpolate": lambda n: interpolate(_samples(n), n),
    "deviation": lambda n: deviation(_F, n, 0.3),
    "grid_deviation": lambda n: grid_deviation(_F, n, 16),
    "lebesgue_fn": lambda n: lebesgue_fn(n, 0.3),
    "lebesgue_residual": lambda n: lebesgue_residual(n, 0.3),
    "node_sum_eval": lambda n: node_sum_eval(_samples(n), n, 0.3),
    "sine_factor": lambda n: sine_factor(n, 0.3),
    "dirichlet": lambda n: dirichlet(n, 0.3),
    "gamma_phase": lambda n: gamma_phase(n, 0.3, 0.0),
    "dq_bound": lambda n: dq_bound(Geometric(0.5), n, 0.3, 1.0),
    "d0_bound": lambda n: d0_bound(GenPoisson(1.0, 2.0), n, 0.3, 1.0),
    "thm3_bracket": lambda n: thm3_bracket(ExpLogSquared(), n, 0.3, 1.0),
    "thm1_rhs": lambda n: thm1_rhs(Geometric(0.5), n, 0.3, 1.0),
    "thm2_sup_bracket": lambda n: thm2_sup_bracket(Geometric(0.5), 0.0, n,
                                                   0.3),
    "duality_sup_batch": lambda n: duality_sup_batch(Geometric(0.5), 0.0, n,
                                                     [0.3]),
    "class_check": lambda n: class_check(Geometric(0.5), [n]),
}


@pytest.mark.parametrize("n", [0, -1, 2.5])
@pytest.mark.parametrize("entry", sorted(ORDER_ENTRIES))
def test_every_order_argument_is_checked(entry, n):
    # one check for every order: a ValueError, never a number, a
    # ZeroDivisionError, a TypeError or a solver stall
    with pytest.raises(ValueError, match="n must be a positive integer"):
        ORDER_ENTRIES[entry](n)
