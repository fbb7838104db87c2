"""Trigonometric polynomials, Dirichlet and convolution kernels.

The central object is the multiplier calculus: for a family psi and phase
parameter beta, the integral operator sends the harmonic
a cos(kx) + b sin(kx) to psi(k) (a cos(kx - c) + b sin(kx - c)) with
c = beta*pi/2, and the derivative operator inverts it.  Both are exact
coefficient maps on TrigPoly; convolve_quadrature provides the slow
independent route through the convolution integral itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ZeroMultiplier
from .psi import (CertifiedSum, PsiFamily, _finite, _index, _real,
                  truncation_order)

# below this the closed Dirichlet form loses digits to the sine quotient
DIRICHLET_SWITCHOVER = 1e-8


def _uniform_grid(M: int) -> np.ndarray:
    """The M uniform points 2*pi*j/M, j = 0..M-1."""
    return 2.0 * math.pi * np.arange(M) / M


def _pointwise(fn):
    """Wrap fn(*args, x) so that x reaches it as a float64 array of at
    least one dimension, of any shape, every entry finite (else
    ValueError); a scalar x gives a float back, an array x the array fn
    returns."""
    @functools.wraps(fn)
    def wrapper(*args):
        *head, x = args
        xv = _finite(np.asarray(x, dtype=np.float64))
        out = fn(*head, np.atleast_1d(xv))
        return float(out[0]) if xv.ndim == 0 else out
    return wrapper


@dataclass(frozen=True)
class TrigPoly:
    """a0/2 + sum_{k=1}^{m} (a_k cos kx + b_k sin kx), stored densely.

    Order-m polynomials form the 2m+1 dimensional space the interpolation
    operator projects onto (with m = n-1).
    """

    a0: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=np.float64))
        b = np.atleast_1d(np.asarray(self.b, dtype=np.float64))
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("cos and sin coefficient arrays must be 1-d and equal length")
        for name, v in (("a", a), ("b", b), ("a0", float(self.a0))):
            object.__setattr__(self, name, _finite(v, name))

    @property
    def order(self) -> int:
        return len(self.a)

    @staticmethod
    def zero(order: int = 0) -> "TrigPoly":
        order = _index(order, 0, "order")
        return TrigPoly(0.0, np.zeros(order), np.zeros(order))

    @staticmethod
    def harmonic(k: int, a: float = 0.0, b: float = 0.0) -> "TrigPoly":
        """The single-harmonic polynomial a cos(kx) + b sin(kx) (k >= 1;
        use a0 for the constant)."""
        k = _index(k, 1, "k")
        ca = np.zeros(k)
        cb = np.zeros(k)
        ca[k - 1] = a
        cb[k - 1] = b
        return TrigPoly(0.0, ca, cb)

    @_pointwise
    def __call__(self, x):
        out = np.full(x.shape, 0.5 * self.a0)
        if self.order:
            kx = np.outer(x, np.arange(1, self.order + 1))
            out = out + np.cos(kx) @ self.a + np.sin(kx) @ self.b
        return out

    def coeff(self, k: int) -> tuple[float, float]:
        """(a_k, b_k); k = 0 returns (a0, 0)."""
        k = _index(k, 0, "k")
        if k == 0:
            return self.a0, 0.0
        if k <= self.order:
            return float(self.a[k - 1]), float(self.b[k - 1])
        return 0.0, 0.0

    def _aligned(self, other: "TrigPoly") -> tuple[np.ndarray, ...]:
        m = max(self.order, other.order)
        return tuple(np.pad(v, (0, m - len(v)))
                     for v in (self.a, self.b, other.a, other.b))

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        pa, pb, qa, qb = self._aligned(other)
        return TrigPoly(self.a0 + other.a0, pa + qa, pb + qb)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        pa, pb, qa, qb = self._aligned(other)
        return TrigPoly(self.a0 - other.a0, pa - qa, pb - qb)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly(-self.a0, -self.a, -self.b)

    def __mul__(self, s: float) -> "TrigPoly":
        s = float(s)
        return TrigPoly(s * self.a0, s * self.a, s * self.b)

    __rmul__ = __mul__

    def mean(self) -> float:
        return 0.5 * self.a0

    def to_dict(self) -> dict:
        return {"a0": self.a0, "cos": [float(v) for v in self.a],
                "sin": [float(v) for v in self.b]}

    @staticmethod
    def from_dict(d: dict) -> "TrigPoly":
        return TrigPoly(d["a0"], np.asarray(d["cos"], dtype=np.float64),
                        np.asarray(d["sin"], dtype=np.float64))


@dataclass(frozen=True)
class PeriodicFn:
    """A 2*pi-periodic function given by a point evaluator.

    known_fourier, when present, is the exact coefficient representation
    (used by checks that want both routes).
    """

    evaluate: Callable[[float], float]
    known_fourier: TrigPoly | None = None
    label: str = ""

    def __call__(self, x):
        return self.evaluate(x)


@dataclass(frozen=True)
class KernelSpec:
    """The (psi, beta) pair defining the kernel sum psi(k) cos(kt - beta*pi/2)."""

    psi: PsiFamily
    beta: float = 0.0

    def __post_init__(self):
        _real(self.beta, "beta")

    @property
    def phase(self) -> float:
        return self.beta * math.pi / 2.0


@_pointwise
def dirichlet(n: int, t):
    """Dirichlet kernel of order n-1: sin((n-1/2)t) / (2 sin(t/2)).

    Near t in 2*pi*Z (|sin(t/2)| below the switchover) the cosine-sum form
    1/2 + sum_{k<n} cos(kt) is used instead; at t = 0 the value is n - 1/2.
    """
    n = _index(n)
    s = np.sin(0.5 * t)
    near = np.abs(s) < DIRICHLET_SWITCHOVER
    out = np.empty_like(t)
    safe = ~near
    out[safe] = np.sin((n - 0.5) * t[safe]) / (2.0 * s[safe])
    if np.any(near):
        tn = t[near]
        if n == 1:
            out[near] = 0.5
        else:
            kt = np.outer(tn, np.arange(1, n))
            out[near] = 0.5 + np.sum(np.cos(kt), axis=1)
    return out


def kernel_eval(spec: KernelSpec, t: float, rel_tol: float = 1e-12) -> CertifiedSum:
    """Kernel value sum_{k<=K} psi(k) cos(kt - beta*pi/2) with certified cutoff.

    K = truncation_order(psi, rel_tol), the smallest cutoff certified at
    rel_tol relative to the full head sum tail_sum(1); the remainder bound
    sum_{k>K} psi(k) dominates the dropped signed terms, so the true value
    lies within value +- remainder_bound.
    """
    _finite(t, "t")
    K = truncation_order(spec.psi, rel_tol)
    ks = np.arange(1.0, K + 1.0)
    value = float(np.dot(spec.psi.head(K), np.cos(ks * t - spec.phase)))
    return CertifiedSum(value, float(spec.psi._tail_remainder(K)), K)


def psi_integral(spec: KernelSpec, phi: TrigPoly) -> TrigPoly:
    """Multiplier action of the convolution: the k-th harmonic pair is
    scaled by psi(k) and rotated by the phase beta*pi/2; the constant term
    passes through unchanged."""
    m = phi.order
    if m == 0:
        return TrigPoly(phi.a0, np.zeros(0), np.zeros(0))
    pk = spec.psi.head(m).copy()
    c = spec.phase
    ca, sa = math.cos(c), math.sin(c)
    return TrigPoly(phi.a0,
                    pk * (phi.a * ca - phi.b * sa),
                    pk * (phi.a * sa + phi.b * ca))


def psi_derivative(f: TrigPoly, spec: KernelSpec) -> TrigPoly:
    """Inverse of psi_integral on the nonconstant part.

    The constant carries no derivative information and is set to zero, so
    psi_derivative(psi_integral(phi)) recovers phi with its mean removed.
    """
    m = f.order
    if m == 0:
        return TrigPoly.zero()
    pk = spec.psi.head(m)
    dead = pk == 0.0
    hit = np.flatnonzero(dead & ((f.a != 0.0) | (f.b != 0.0)))
    if hit.size:
        raise ZeroMultiplier(f"psi({hit[0] + 1}) = 0 under a nonzero "
                             "harmonic; derivative undefined")
    c = spec.phase
    ca, sa = math.cos(c), math.sin(c)
    ar = f.a * ca + f.b * sa
    br = -f.a * sa + f.b * ca
    a = np.divide(ar, pk, out=np.zeros(m), where=~dead)
    b = np.divide(br, pk, out=np.zeros(m), where=~dead)
    return TrigPoly(0.0, a, b)


def _sample(f, t: np.ndarray) -> np.ndarray:
    """f on the points t: one vectorized call, pointwise if f is scalar-only."""
    try:
        fv = np.asarray(f(t), dtype=np.float64)
        if fv.shape != t.shape:
            raise TypeError
        return fv
    except (TypeError, ValueError):
        return np.array([float(f(x)) for x in t])


def _sample_grid(f, N: int) -> np.ndarray:
    """f at the N uniform points 2*pi*j/N.

    A TrigPoly is one inverse FFT: at these points harmonic k takes the
    values of harmonic k mod N, so its coefficients fold mod N exactly,
    at any order.  Any other f is sampled as _sample does."""
    if not isinstance(f, TrigPoly):
        return _sample(f, _uniform_grid(N))
    k = np.arange(1, f.order + 1) % N
    spec = np.bincount(k, f.a, N) - 1j * np.bincount(k, f.b, N)
    return 0.5 * f.a0 + N * np.fft.ifft(spec).real


def convolve_quadrature(spec: KernelSpec, phi, x: float, M: int,
                        rel_tol: float = 1e-12) -> float:
    """mean(phi) + (1/pi) int_0^{2pi} K_beta(x-t) phi(t) dt by the periodic
    trapezoid rule on M uniform points (spectrally accurate for smooth phi).

    The kernel is cut at truncation_order(psi, rel_tol), as in
    kernel_eval.  The independent slow route: tests pit it against
    psi_integral.
    """
    M = _index(M, 4, "M")
    _finite(x)
    tj = _uniform_grid(M)
    pv = _sample(phi, tj)
    K = truncation_order(spec.psi, rel_tol)
    ks = np.arange(1.0, K + 1.0)
    kv = np.cos(np.outer(x - tj, ks) - spec.phase) @ spec.psi.head(K)
    return float(np.mean(pv) + 2.0 / M * np.dot(kv, pv))
