"""Lagrange trigonometric interpolation on the 2n-1 equidistant nodes.

The interpolation operator takes samples at x_k = 2k*pi/(2n-1) to the
unique order-(n-1) trigonometric polynomial through them; its pointwise
operator norm is the Lebesgue function

    L_n(x) = (2/(2n-1)) sum_k |D_{n-1}(x - x_k)|,

which grows like (2/pi) |sin((2n-1)x/2)| ln n plus a bounded residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .psi import _finite, _index
from .trig import (TrigPoly, _pointwise, _sample, _sample_grid,
                   _uniform_grid, dirichlet)


@dataclass(frozen=True)
class NodeSet:
    """The 2n-1 nodes 2k*pi/(2n-1), k = 0..2n-2, strictly increasing in [0, 2pi)."""

    n: int
    nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _index(self.n))
        object.__setattr__(self, "nodes", _finite(
            np.asarray(self.nodes, dtype=np.float64), "nodes"))
        if len(self.nodes) != 2 * self.n - 1:
            raise ValueError("node count must be 2n-1")


def nodes(n: int) -> NodeSet:
    return NodeSet(n, _uniform_grid(2 * n - 1))


def _samples(samples, n: int) -> np.ndarray:
    """samples as the float64 values at the 2n-1 nodes, checked."""
    s = _finite(np.asarray(samples, dtype=np.float64), "samples")
    if s.shape != (2 * n - 1,):
        raise ValueError(f"expected {2 * n - 1} samples, got shape {s.shape}")
    return s


def interpolate(samples, n: int) -> TrigPoly:
    """Order-(n-1) interpolant through samples[k] = f(x_k).

    Coefficients come from discrete Fourier sums over the nodes, which are
    exact quadrature for polynomials of order <= n-1:
        a_j = (2/N) sum_k f(x_k) cos(j x_k),  N = 2n-1,
    and likewise with sin for b_j; a0 = (2/N) sum_k f(x_k).
    """
    n = _index(n)
    s, N = _samples(samples, n), 2 * n - 1
    xk = nodes(n).nodes
    a0 = 2.0 / N * float(np.sum(s))
    if n == 1:
        return TrigPoly(a0, np.zeros(0), np.zeros(0))
    jxk = np.outer(np.arange(1, n), xk)
    a = 2.0 / N * (np.cos(jxk) @ s)
    b = 2.0 / N * (np.sin(jxk) @ s)
    return TrigPoly(a0, a, b)


@_pointwise
def node_sum_eval(samples, n: int, x):
    """Interpolant evaluated through the Dirichlet form
    (2/N) sum_k f(x_k) D_{n-1}(x - x_k); the coefficient-free route.

    Agrees with interpolate(...)(x) to 1e-10; kept as the dual path for
    cross-checks and for callers holding only samples.
    """
    n = _index(n)
    s, N = _samples(samples, n), 2 * n - 1
    xk = nodes(n).nodes
    D = dirichlet(n, x[:, None] - xk[None, :])
    return 2.0 / N * (D @ s)


@_pointwise
def deviation(f, n: int, x):
    """rho_n(f; x) = f(x) - S_{n-1}(f; x); vanishes at every node."""
    n = _index(n)
    p = interpolate(_sample_grid(f, 2 * n - 1), n)
    return _sample(f, x) - p(x)


def grid_deviation(f, n: int, N: int) -> np.ndarray:
    """rho_n(f; 2*pi*j/N) for j = 0..N-1: f and its interpolant on the
    uniform N-point grid, each sampled as _sample_grid does, so a TrigPoly
    f costs two inverse FFTs and no cos/sin matrix."""
    n, N = _index(n), _index(N, 1, "N")
    p = interpolate(_sample_grid(f, 2 * n - 1), n)
    return _sample_grid(f, N) - _sample_grid(p, N)


@_pointwise
def lebesgue_fn(n: int, x):
    """L_n(x) = (2/(2n-1)) sum_k |D_{n-1}(x - x_k)|; >= 1 with equality at nodes."""
    n = _index(n)
    xk = nodes(n).nodes
    D = dirichlet(n, x[:, None] - xk[None, :])
    return 2.0 / (2 * n - 1) * np.sum(np.abs(D), axis=1)


def sine_factor(n: int, x):
    """(2/pi)|sin((2n-1)x/2)|, the oscillation factor of every deviation
    bound; zero exactly at the nodes.  x may be a float or a numpy array,
    every entry finite: a scalar gives a float (math.sin), an array an
    array (np.sin)."""
    n = _index(n)
    sin = np.sin if isinstance(_finite(x), np.ndarray) else math.sin
    return 2.0 / math.pi * abs(sin((2 * n - 1) * x / 2.0))


@_pointwise
def lebesgue_residual(n: int, x):
    """L_n(x) - (2/pi)|sin((2n-1)x/2)| ln n: the bounded part of the
    Lebesgue function's growth.  Equals 1 at nodes (the sine factor
    vanishes there)."""
    return _residual(n, x, lebesgue_fn(n, x))


def _residual(n: int, x, L):
    """lebesgue_residual from L = lebesgue_fn(n, x), for a caller that
    has L already; n >= 2, for the ln n term."""
    return L - sine_factor(_index(n, 2), x) * math.log(n)
