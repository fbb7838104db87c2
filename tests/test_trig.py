"""Trigonometric polynomials, kernels, and the multiplier transform.

The polylog reference value was computed with mpmath at dps 30:
Re(exp(-i*phase) * polylog(3, exp(1.1j))) for the power family kernel.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psikern import (
    Geometric,
    KernelSpec,
    PeriodicFn,
    Power,
    Tabulated,
    TrigPoly,
    convolve_quadrature,
    dirichlet,
    kernel_eval,
    psi_derivative,
    psi_integral,
)
from psikern.errors import ZeroMultiplier
from psikern.trig import _sample, _sample_grid

KERNEL_POLYLOG = 1.02187432993322782  # Power(3), beta=0.7, t=1.1


def _coeff_lists(max_order=6):
    return st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=max_order)


def test_trig_poly_evaluates_componentwise():
    p = TrigPoly(2.0, [1.0, 0.0, -0.5], [0.0, 2.0, 0.0])
    x = 0.7
    expect = 1.0 + math.cos(x) - 0.5 * math.cos(3 * x) + 2.0 * math.sin(2 * x)
    assert p(x) == pytest.approx(expect, rel=1e-15)
    xs = np.linspace(0.0, 2 * math.pi, 9)
    assert np.allclose(p(xs), [p(float(v)) for v in xs], rtol=1e-15)


def test_trig_poly_algebra_and_coeff():
    p = TrigPoly(1.0, [1.0, 2.0], [3.0, 4.0])
    q = TrigPoly(0.5, [1.0], [1.0])
    x = 1.3
    assert (p + q)(x) == pytest.approx(p(x) + q(x), rel=1e-14)
    assert (p - q)(x) == pytest.approx(p(x) - q(x), rel=1e-14)
    assert (-p)(x) == pytest.approx(-p(x), rel=1e-14)
    assert (2.5 * p)(x) == pytest.approx(2.5 * p(x), rel=1e-14)
    assert p.coeff(0) == (1.0, 0.0)
    assert p.coeff(2) == (2.0, 4.0)
    assert p.coeff(9) == (0.0, 0.0)
    assert p.mean() == 0.5
    assert p.order == 2


def test_trig_poly_dict_round_trip():
    p = TrigPoly(0.25, [0.0, -1.5], [2.0, 0.0])
    q = TrigPoly.from_dict(p.to_dict())
    assert q.a0 == p.a0
    assert np.array_equal(q.a, p.a) and np.array_equal(q.b, p.b)


def test_harmonic_and_zero_constructors():
    h = TrigPoly.harmonic(3, a=2.0, b=-1.0)
    assert h.order == 3 and h.coeff(3) == (2.0, -1.0) and h.a0 == 0.0
    assert TrigPoly.zero(4)(1.0) == 0.0
    with pytest.raises(ValueError):
        TrigPoly.harmonic(0, a=1.0)
    with pytest.raises(ValueError):
        TrigPoly(0.0, [1.0, 2.0], [1.0])


def test_dirichlet_closed_vs_cosine_sum():
    for n in (1, 2, 5, 12):
        for t in (0.3, 1.0, 2.9, -1.7):
            direct = 0.5 + sum(math.cos(k * t) for k in range(1, n))
            assert dirichlet(n, t) == pytest.approx(direct, abs=1e-12)


def test_dirichlet_near_singularity():
    assert dirichlet(7, 0.0) == 6.5
    assert dirichlet(7, 2 * math.pi) == pytest.approx(6.5, abs=1e-9)
    # continuity across the series/ratio switchover
    lo, hi = dirichlet(7, 9.9e-9), dirichlet(7, 1.1e-8)
    assert lo == pytest.approx(hi, abs=1e-10)
    with pytest.raises(ValueError):
        dirichlet(0, 1.0)


def test_dirichlet_reproduces_low_order_polys():
    n = 6
    p = TrigPoly(0.8, [1.0, -2.0, 0.5, 0.0, 1.5], [0.5, 0.0, -1.0, 2.0, 0.3])
    M = 64
    tj = 2 * math.pi * np.arange(M) / M
    for x in (0.0, 0.9, 4.1):
        quad = 2.0 / M * float(np.dot(dirichlet(n, x - tj), p(tj)))
        assert quad == pytest.approx(p(x), rel=1e-12, abs=1e-12)


def test_kernel_eval_polylog_oracle():
    spec = KernelSpec(Power(3.0), beta=0.7)
    r = kernel_eval(spec, 1.1, rel_tol=1e-10)
    assert abs(r.value - KERNEL_POLYLOG) <= r.remainder_bound + 1e-13
    assert r.remainder_bound <= 1e-9


def test_kernel_eval_geometric_closed_form():
    # sum q^k cos(kt - c) = Re(e^{-ic} q e^{it} / (1 - q e^{it}))
    q, beta, t = 0.55, 1.3, 2.1
    spec = KernelSpec(Geometric(q), beta=beta)
    z = q * cmath.exp(1j * t)
    closed = (cmath.exp(-1j * spec.phase) * z / (1 - z)).real
    r = kernel_eval(spec, t)
    assert abs(r.value - closed) <= r.remainder_bound + 1e-14


def test_phase_is_quarter_period_in_beta():
    psi = Geometric(0.5)
    h = TrigPoly.harmonic(2, a=1.0)
    f1 = psi_integral(KernelSpec(psi, 1.0), h)
    # beta = 1 maps cos(kx) to psi(k) sin(kx)
    assert f1.coeff(2)[0] == pytest.approx(0.0, abs=1e-15)
    assert f1.coeff(2)[1] == pytest.approx(0.25, rel=1e-14)
    f4 = psi_integral(KernelSpec(psi, 4.0), h)
    f0 = psi_integral(KernelSpec(psi, 0.0), h)
    assert f4.coeff(2)[0] == pytest.approx(f0.coeff(2)[0], rel=1e-12)
    assert f4.coeff(2)[1] == pytest.approx(f0.coeff(2)[1], abs=1e-12)


@given(a=_coeff_lists(), b=_coeff_lists(),
       beta=st.floats(-2.0, 2.0), a0=st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_integral_derivative_round_trip(a, b, beta, a0):
    m = max(len(a), len(b))
    a = a + [0.0] * (m - len(a))
    b = b + [0.0] * (m - len(b))
    phi = TrigPoly(a0, a, b)
    spec = KernelSpec(Geometric(0.6), beta=beta)
    back = psi_derivative(psi_integral(spec, phi), spec)
    assert back.a0 == 0.0
    assert np.allclose(back.a, phi.a, rtol=1e-12, atol=1e-12)
    assert np.allclose(back.b, phi.b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("N", [7, 31, 160, 1024])
def test_grid_samples_fold_every_harmonic(N):
    """A TrigPoly on the N-point grid is one inverse FFT of its
    coefficients folded mod N; it must match pointwise evaluation at
    orders below and above N/2, and above N, where harmonic k aliases to
    k mod N."""
    t = 2.0 * math.pi * np.arange(N) / N
    for m in (0, 1, N // 3, N // 2, N // 2 + 1, N + 2, 3 * N + 1):
        rng = np.random.default_rng([N, m])
        p = TrigPoly(rng.standard_normal(), rng.standard_normal(m),
                     rng.standard_normal(m))
        scale = abs(p.a0) + np.sum(np.abs(p.a)) + np.sum(np.abs(p.b))
        got = _sample_grid(p, N)
        assert got.shape == (N,)
        assert float(np.max(np.abs(got - p(t)))) <= 1e-13 * scale, m


def test_grid_samples_of_other_callables_are_pointwise():
    """Anything but a TrigPoly is sampled as before: one vectorised call,
    or one call per point for a scalar-only function."""
    N = 31
    t = 2.0 * math.pi * np.arange(N) / N
    vec = lambda x: np.exp(np.cos(x)) - 0.3 * np.sin(5 * x)
    scalar = lambda x: math.exp(math.cos(x)) - 0.3 * math.sin(5 * x)
    assert np.array_equal(_sample_grid(vec, N), vec(t))
    assert np.array_equal(_sample_grid(scalar, N), _sample(scalar, t))
    assert np.array_equal(_sample_grid(scalar, N),
                          np.array([scalar(x) for x in t]))


def test_integral_matches_quadrature():
    """Dual route: the multiplier image pointwise equals the periodic
    trapezoid convolution (geometric tails keep the aliasing error tiny)."""
    phi = TrigPoly(0.4, [1.0, 0.0, -0.7], [0.2, 1.1, 0.0])
    for q, beta in ((0.6, 0.0), (0.35, 0.5), (0.8, 1.7)):
        spec = KernelSpec(Geometric(q), beta=beta)
        f = psi_integral(spec, phi)
        for x in (0.0, 1.1, 3.9):
            quad = convolve_quadrature(spec, phi, x, M=512)
            assert quad == pytest.approx(f(x), rel=1e-9, abs=1e-9)


def test_quadrature_accepts_plain_callables():
    spec = KernelSpec(Geometric(0.5), beta=0.0)
    fn = PeriodicFn(lambda t: math.cos(t), label="cos")
    direct = convolve_quadrature(spec, fn, 0.7, M=256)
    assert direct == pytest.approx(0.5 * math.cos(0.7), rel=1e-10)
    with pytest.raises(ValueError):
        convolve_quadrature(spec, fn, 0.0, M=3)


def test_zero_multiplier_raises():
    psi = Tabulated([1.0, 0.0, 0.5])
    spec = KernelSpec(psi, beta=0.0)
    f = TrigPoly(0.0, [0.0, 1.0], [0.0, 0.0])
    with pytest.raises(ZeroMultiplier):
        psi_derivative(f, spec)
    # harmonics sitting on nonzero multipliers still invert
    g = psi_integral(spec, TrigPoly.harmonic(3, b=2.0))
    back = psi_derivative(g, spec)
    assert back.coeff(3) == pytest.approx((0.0, 2.0), rel=1e-14)


def test_integral_constant_passthrough():
    spec = KernelSpec(Geometric(0.4), beta=0.9)
    f = psi_integral(spec, TrigPoly(3.0, [0.0], [0.0]))
    assert f.a0 == 3.0 and f.order == 1
    assert np.all(f.a == 0.0) and np.all(f.b == 0.0)
