"""Best L1 and uniform approximation by trigonometric polynomials.

Both problems are discretized on a uniform M-point grid:

    best_l1:      min sum_i w_i |f(t_i) - p(t_i)|,  w_i = 2*pi/M
    best_uniform: min max_i |f(t_i) - p(t_i)|

with p ranging over order-(n-1) polynomials (2n-1 free coefficients).

best_l1 runs an in-repo revised simplex (deterministic pivot order,
Dantzig pricing with a permanent switch to Bland's rule if the objective
stalls, so degenerate bases cannot cycle).  Its start basis is the
split-residual identity, feasible outright, so it needs no Phase I.

best_uniform runs the Stiefel reference exchange.  Order-(n-1)
polynomials are a Haar space of dimension 2n-1 on the circle, so a
reference of 2n points with alternating error signs determines a
levelled error h, and |h| <= E <= max|f - p| brackets the minimax E at
every step (de la Vallee Poussin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverStall
from .trig import TrigPoly, _sample

REDCOST_TOL = 1e-9
PIVOT_TOL = 1e-10
STALL_WINDOW = 200


@dataclass(frozen=True)
class ApproxResult:
    """Best-approximation value and the minimizing polynomial.

    duals holds the discrete dual variables (L1 metric only; one per grid
    point, in [-1, 1] at optimality); iterations is the simplex count for
    L1 and the exchange count for the uniform metric.
    """

    value: float
    argmin: TrigPoly
    grid_size: int
    metric: str
    duals: np.ndarray | None = None
    iterations: int = 0


def _design(n: int, t: np.ndarray) -> np.ndarray:
    """Columns [1/2, cos t..cos (n-1)t, sin t..sin (n-1)t]; the coefficient
    vector is then exactly TrigPoly's (a0, a, b) layout."""
    cols = [np.full(len(t), 0.5)]
    for j in range(1, n):
        cols.append(np.cos(j * t))
    for j in range(1, n):
        cols.append(np.sin(j * t))
    return np.column_stack(cols)


def _coeff_poly(n: int, c: np.ndarray) -> TrigPoly:
    return TrigPoly(c[0], c[1:n], c[n:2 * n - 1])


def _grid(n: int, M: int | None) -> np.ndarray:
    if M is None:
        M = 64 * n
    if M < 8 * n:
        raise ValueError("grid must have at least 8n points")
    return 2.0 * math.pi * np.arange(M) / M


def _l1_revised(Phi: np.ndarray, fv: np.ndarray,
                max_iter: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Revised simplex for min sum(u+v) s.t. Phi c + u - v = f, u, v >= 0.

    The residual columns are +-unit vectors, so the basis always splits
    into a small block of coefficient columns (rows P) and one residual
    per remaining row; every basis solve is then p x p with p <= 2d.
    Variable codes: j in [0, 2d) are the split coefficients (+Phi_j then
    -Phi_j), 2d+i is u_i, 2d+M+i is v_i.  Returns (c, duals, iterations).
    """
    M, d = Phi.shape
    sigma = np.where(fv >= 0.0, 1.0, -1.0)      # +1: u_i basic, -1: v_i basic
    in_F = np.ones(M, dtype=bool)               # rows whose basic var is residual
    coeff_vars: list[int] = []                  # basic coefficient var codes
    signed = np.concatenate([Phi.T, -Phi.T])    # signed columns, shape 2d x M

    def signed_col(q):
        return signed[q]

    bland = False
    since_improve = 0
    prev_obj = math.inf
    for it in range(max_iter):
        P = np.nonzero(~in_F)[0]
        F = np.nonzero(in_F)[0]
        p = len(coeff_vars)
        A_P = signed[coeff_vars][:, P].T if p else np.zeros((0, 0))
        # basic values: coefficient block interpolates f on the P rows
        if p:
            try:
                xc = np.linalg.solve(A_P, fv[P])
            except np.linalg.LinAlgError:
                raise SolverStall("singular L1 basis block", iterations=it)
            fit = signed[coeff_vars].T @ xc
        else:
            xc = np.zeros(0)
            fit = np.zeros(M)
        w = sigma[F] * (fv[F] - fit[F])
        # duals: +-1 on free rows, interpolation system on active rows
        y = np.empty(M)
        y[F] = sigma[F]
        if p:
            rhsy = -(signed[coeff_vars][:, F] @ y[F])
            try:
                y[P] = np.linalg.solve(A_P.T, rhsy)
            except np.linalg.LinAlgError:
                raise SolverStall("singular L1 basis block", iterations=it)
        zc = -(signed @ y)                       # reduced costs, coeff codes
        zu = 1.0 - y
        zv = 1.0 + y
        z_all = np.concatenate([zc, zu, zv])
        if bland:
            negs = np.nonzero(z_all < -REDCOST_TOL)[0]
            if len(negs) == 0:
                break
            q = int(negs[0])
        else:
            q = int(np.argmin(z_all))
            if z_all[q] >= -REDCOST_TOL:
                break
        obj = float(np.sum(w))
        if obj < prev_obj - 1e-15 * (1.0 + abs(prev_obj)):
            since_improve = 0
        else:
            since_improve += 1
            if since_improve > STALL_WINDOW:
                bland = True
        prev_obj = obj
        # entering column in original coordinates
        if q < 2 * d:
            a = signed_col(q)
        elif q < 2 * d + M:
            a = np.zeros(M); a[q - 2 * d] = 1.0
        else:
            a = np.zeros(M); a[q - 2 * d - M] = -1.0
        # tableau column t = B^{-1} a via the same block split
        if p:
            tc = np.linalg.solve(A_P, a[P])
            ta = signed[coeff_vars].T @ tc
        else:
            tc = np.zeros(0)
            ta = np.zeros(M)
        tr = sigma[F] * (a[F] - ta[F])
        tt = np.concatenate([tc, tr])
        # roundoff can leave basic values at -1e-17; a negative ratio would
        # derail the pivot, so clamp before the ratio test
        xb = np.maximum(np.concatenate([xc, w]), 0.0)
        codes = np.array(coeff_vars
                         + [2 * d + i if sigma[i] > 0 else 2 * d + M + i
                            for i in F], dtype=np.int64)
        pos = tt > PIVOT_TOL
        if not np.any(pos):
            raise SolverStall("unbounded L1 pivot; formulation bug",
                              iterations=it)
        ratios = np.full(len(tt), np.inf)
        ratios[pos] = xb[pos] / tt[pos]
        r = int(np.argmin(ratios))
        if bland:
            best = ratios[r]
            tied = np.nonzero(ratios <= best + 1e-300 + 1e-12 * abs(best))[0]
            r = int(tied[np.argmin(codes[tied])])
        leaving = int(codes[r])
        # basis exchange across the four enter/leave type combinations
        if leaving < 2 * d:
            coeff_vars.remove(leaving)
        else:
            row = leaving - 2 * d if leaving < 2 * d + M else leaving - 2 * d - M
            in_F[row] = False
        if q < 2 * d:
            coeff_vars.append(q)
        else:
            row = q - 2 * d if q < 2 * d + M else q - 2 * d - M
            in_F[row] = True
            sigma[row] = 1.0 if q < 2 * d + M else -1.0
    else:
        raise SolverStall(
            f"simplex did not reach reduced-cost tolerance {REDCOST_TOL}",
            iterations=max_iter)
    c = np.zeros(2 * d)
    c[coeff_vars] = xc
    return c[:d] - c[d:], y, it


def best_l1(f, n: int, M: int | None = None) -> ApproxResult:
    """Discrete best L1 approximation error (trapezoid-weighted) of f by
    order-(n-1) trigonometric polynomials on an M-point grid (default 64n).

    LP formulation: Phi c + u - v = f with u, v >= 0 and free c split into
    positive parts; min sum(u+v).  Always feasible; the weight 2*pi/M is
    applied to the optimal objective so value approximates the integral.
    """
    t = _grid(n, M)
    M = len(t)
    fv = _sample(f, t)
    d = 2 * n - 1
    Phi = _design(n, t)
    c, duals, iters = _l1_revised(Phi, fv, max_iter=50 * (M + d))
    poly = _coeff_poly(n, c)
    value = 2.0 * math.pi / M * float(np.sum(np.abs(fv - Phi @ c)))
    return ApproxResult(value, poly, M, "L1", duals, iters)


def best_uniform(f, n: int, M: int | None = None) -> ApproxResult:
    """Discrete Chebyshev approximation error min_p max_i |f(t_i) - p(t_i)|.

    Single-point (Stiefel) exchange on a reference R of 2n grid points:
    solve Phi_R c + sigma h = f_R with alternating sigma, so the residual
    levels at +-h on R, then swap the grid point of largest |r| for the
    cyclic neighbour whose residual has the same sign.  Each step brackets
    |h| <= E <= max|r| (de la Vallee Poussin); the loop stops once the two
    agree to 1e-13 max|f|, and value is max|r| of the returned polynomial.
    """
    t = _grid(n, M)
    M = len(t)
    fv = _sample(f, t)
    d = 2 * n - 1
    Phi = _design(n, t)
    R = (np.arange(2 * n) * M) // (2 * n)
    A = np.empty((2 * n, 2 * n))
    A[:, -1] = np.where(np.arange(2 * n) % 2 == 0, 1.0, -1.0)
    tol = 1e-13 * float(np.max(np.abs(fv)))
    for it in range(50 * (M + d)):
        A[:, :d] = Phi[R]
        try:
            sol = np.linalg.solve(A, fv[R])
        except np.linalg.LinAlgError:
            raise SolverStall("singular exchange reference", iterations=it)
        c, h = sol[:d], sol[-1]
        r = fv - Phi @ c
        j = int(np.argmax(np.abs(r)))
        value = float(abs(r[j]))
        if value - abs(h) <= tol:
            return ApproxResult(value, _coeff_poly(n, c), M, "Uniform",
                                None, it)
        # R[k-1] < j < R[k] cyclically; the residual on R is sigma h, so
        # the neighbour sharing sign(r_j) is the one j replaces
        k = int(np.searchsorted(R, j)) % (2 * n)
        if (A[k, -1] * h > 0.0) != (r[j] > 0.0):
            k -= 1
        R[k] = j
        R.sort()
    raise SolverStall("exchange did not level the reference error",
                      iterations=50 * (M + d))


def oracle_best_l1(f, n: int, M: int | None = None) -> float:
    """Independent slow route for n <= 2: nested coordinate-box grid search
    over the (at most 3) coefficients, shrinking around the best point.

    The objective is convex piecewise-linear, so the refined box always
    straddles the optimum; agreement target with best_l1 is 1e-4 relative.
    """
    if n not in (1, 2):
        raise ValueError("oracle covers n in {1, 2} only")
    t = _grid(n, M)
    M = len(t)
    fv = _sample(f, t)
    Phi = _design(n, t)
    d = 2 * n - 1
    w = 2.0 * math.pi / M
    B = 2.0 * (float(np.max(np.abs(fv))) + 1.0)
    center = np.zeros(d)
    half = np.full(d, B)
    pts = 21
    best = math.inf
    for _ in range(14):
        axes = [np.linspace(center[j] - half[j], center[j] + half[j], pts)
                for j in range(d)]
        grids = np.meshgrid(*axes, indexing="ij")
        C = np.column_stack([g.ravel() for g in grids])
        R = fv[None, :] - C @ Phi.T
        vals = w * np.sum(np.abs(R), axis=1)
        i = int(np.argmin(vals))
        best = float(vals[i])
        center = C[i]
        # keep two grid cells of margin so the optimum cannot escape
        half = np.maximum(half * (2.0 / (pts - 1)) * 2.0, 1e-14)
    return best
