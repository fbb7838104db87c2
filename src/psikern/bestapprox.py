"""Best L1 and uniform approximation by trigonometric polynomials.

Both problems are discretized on a uniform M-point grid:

    best_l1:      min sum_i w_i |f(t_i) - p(t_i)|,  w_i = 2*pi/M
    best_uniform: min max_i |f(t_i) - p(t_i)|

with p ranging over order-(n-1) polynomials (2n-1 free coefficients).
A TrigPoly f is sampled on the grid by one inverse FFT.  The design on
the grid, with what the solvers derive from it, is built once per (n, M)
and shared read-only between calls.

best_l1 runs an in-repo revised simplex with one pivot rule, Dantzig
pricing in a deterministic order.  Degenerate bases cannot cycle: the
pivots run on the data plus a fixed perturbation a tenth of the roundoff
floor (Charnes, Econometrica 20, 1952), and the value and polynomial are
computed from the data itself.  The 2n-1 coefficients are free and stay
basic, so a basis is a set P of 2n-1 interpolation rows plus the signs
of the residuals on the other, free rows, and a pivot swaps one row into
P and one out.  The block of P's rows is held as its inverse, which a
row swap changes by one rank-one (Sherman-Morrison) update, so no pivot
solves a dense system; it is re-inverted every REFACTOR_EVERY pivots,
and the returned values are solved afresh on the final block.  The
start is a crash basis: P holds one grid row per arc, where a
least-squares fit is closest to f, and the signs are those of f minus
its interpolant, so the basis is feasible outright and needs no
Phase I.  Only the residuals of the rows in P are priced, since a
free row has dual +-1 and its other residual can never enter.  Dantzig
pivots take the Barrodale-Roberts long step (SIAM J. Numer. Anal. 10,
1973): one pivot passes every free-row breakpoint at which the objective
still falls, flipping those residuals' signs, so far fewer pivots reach
the optimum.  A fit exact to roundoff stops at that floor instead of
pivoting among residual signs that are noise.

best_uniform runs the Stiefel reference exchange.  Order-(n-1)
polynomials are a Haar space of dimension 2n-1 on the circle, so a
reference of 2n points with alternating error signs determines a
levelled error h, and |h| <= E <= max|f - p| brackets the minimax E at
every step (de la Vallee Poussin).  An exchange replaces one point of the
reference, and so one row of its block [Phi_R | sigma], which is held as
its inverse too: both solvers swap a row by the one rank-one update
_swap_row, and neither solves a dense system per step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SolverStall
from .psi import _index
from .trig import TrigPoly, _sample, _sample_grid, _uniform_grid

REDCOST_TOL = 1e-9
PIVOT_TOL = 1e-10
# pivots, or exchanges, between fresh inversions of a solver's block
REFACTOR_EVERY = 32


@dataclass(frozen=True)
class ApproxResult:
    """Best-approximation value and the minimizing polynomial.

    duals holds the discrete dual variables (L1 metric only; one per grid
    point, in [-1, 1] at optimality, and all zero when f is fitted exactly
    to roundoff); iterations is the simplex count for L1, where a long
    step counts as one pivot, and the exchange count for the uniform
    metric.
    """

    value: float
    argmin: TrigPoly
    grid_size: int
    metric: str
    duals: np.ndarray | None = None
    iterations: int = 0


class _Design(NamedTuple):
    """The design on a grid and what the solvers derive from it: the
    contiguous transpose, the squared column norms of the crash fit and
    the golden-ratio perturbation pattern on [-1, 1)."""

    Phi: np.ndarray
    PhiT: np.ndarray
    norms: np.ndarray
    jitter: np.ndarray


# a handful of (n, M): one entry holds two M x (2n-1) arrays, 17 MB each
# at n = 128
@functools.lru_cache(maxsize=4)
def _grid_design(n: int, M: int) -> _Design:
    """The design on the uniform M-point grid t, built once per (n, M):
    columns [1/2, cos t..cos (n-1)t, sin t..sin (n-1)t], so the
    coefficient vector is exactly TrigPoly's (a0, a, b) layout.  The
    arrays are read-only, since every call at (n, M) shares them."""
    jt = np.outer(_uniform_grid(M), np.arange(1, n))
    Phi = np.column_stack([np.full(M, 0.5), np.cos(jt), np.sin(jt)])
    PhiT = np.ascontiguousarray(Phi.T)
    gold = (np.arange(M) * (0.5 * (math.sqrt(5.0) - 1.0))) % 1.0
    D = _Design(Phi, PhiT, np.einsum("ij,ij->i", PhiT, PhiT), 2.0 * gold - 1.0)
    for a in D:
        a.flags.writeable = False
    return D


def _coeff_poly(n: int, c: np.ndarray) -> TrigPoly:
    return TrigPoly(c[0], c[1:n], c[n:2 * n - 1])


def _grid_size(n: int, M: int | None) -> tuple[int, int]:
    """(n, M) checked: n an order, M a grid of at least 8n points (64n
    when None)."""
    n = _index(n)
    return n, 64 * n if M is None else _index(M, 8 * n, "M")


def _nonsingular(op, it: int, what: str, *args) -> np.ndarray:
    """op(*args), np.linalg.solve or inv on a solver's block; a singular
    block raises SolverStall after it iterations."""
    try:
        return op(*args)
    except np.linalg.LinAlgError:
        raise SolverStall(f"singular {what}", iterations=it)


def _swap_row(B: np.ndarray, s: int, row: np.ndarray) -> None:
    """Replace row s of the block whose inverse is B by row, updating B in
    place by one Sherman-Morrison step (Golub and Van Loan, Matrix
    Computations, 4th ed., 2013, sec. 2.1.4).  Its denominator
    row @ B[:, s] is the ratio of the new block's determinant to the old
    one's, so it is nonzero while the new block is nonsingular."""
    v = row @ B
    Bs = B[:, s] / v[s]
    v[s] -= 1.0
    B -= Bs[:, None] * v


def _long_step(pos: np.ndarray, ratios: np.ndarray, tt: np.ndarray,
               z0: float) -> np.ndarray:
    """The breakpoints pos in the order of a stable sort of ratios, up to
    and including the leaving row.

    Along the ray the slope starts at z0 and grows by 2 tt at each
    breakpoint; the leaving row is the first at which it is nonnegative,
    or the first breakpoint (the short step) if roundoff leaves every
    slope negative.  The slope turns after a few breakpoints, so only the
    m smallest ratios are ordered, m growing until it has turned: every
    row at or below the m-th smallest ratio, in row order, is sorted
    stably, which is the head of the full stable sort, ties included."""
    # array methods, not the np.* wrappers: this runs once a pivot, on
    # short arrays, where the wrappers' call cost is most of the time
    m = 8
    while True:
        cut = np.inf
        if m < len(ratios):
            part = ratios.copy()
            part.partition(m - 1)
            cut = part[m - 1]
        head = (ratios <= cut).nonzero()[0]
        br = pos[head[ratios[head].argsort(kind="stable")]]
        turned = z0 + 2.0 * tt[br].cumsum() >= -REDCOST_TOL
        j = int(turned.argmax())
        if turned[j] or cut == np.inf:
            return br[:j + 1]
        m *= 4


def _l1_revised(D: _Design, f0: np.ndarray, max_iter: int
                ) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Revised simplex for min sum(u+v) s.t. Phi c + u - v = f, u, v >= 0.

    The d coefficients c are free, so they stay basic throughout (Barrodale
    and Roberts, SIAM J. Numer. Anal. 10, 1973).  The rest of the basis is
    one residual per free row, u_i or v_i as sigma_i is +1 or -1, and the
    basis is fully described by the set P of d interpolation rows, where
    both residuals are zero, and the signs sigma on the free rows.  Every
    basis solve goes through the d x d block Phi[P], held factored as its
    inverse B.  Returns (c, duals, iterations, sum |f0 - Phi c|).

    The start is a crash basis (Bixby, ORSA J. Computing 4, 1992): P holds
    one row of each of d equal arcs of the grid, the row where the
    least-squares fit is closest to f.  On the uniform grid the columns of
    Phi are orthogonal, so that fit is one product.  The rows are distinct
    points of a Haar space, so the block is nonsingular; each free row
    takes the sign of f - Phi c, so the basis is feasible and needs no
    Phase I.

    A free row has y = +-1, so its other residual prices at 0 or 2 and can
    never enter: only the 2d residuals u_i, v_i of the rows in P are
    priced, at 1 - y_i and 1 + y_i.  When one enters, the coefficients
    move and the free residuals follow them; the coefficients are free, so
    the ratio test runs over the free rows only.

    Dantzig pivots take the Barrodale-Roberts long step.  Along the
    entering ray the objective is convex piecewise linear: a free row's
    residual reaching zero need not leave, since continuing past it flips
    sigma_i and adds 2 t_i to the slope.  The step runs to the first
    breakpoint where the slope turns nonnegative; that row joins P, the
    entering row leaves it, and every breakpoint before it flips.  One
    long step counts as one pivot.

    P is kept in slot order: the joining row takes the slot of the row
    that leaves, so a pivot replaces one row of the block, and B follows
    by one Sherman-Morrison update (_swap_row).  Its denominator is the
    pivot element, which the ratio test keeps above PIVOT_TOL.  The duals
    on P are then -(Phi^T y_free) B, and the column of the residual
    entering at slot s is +-B[:, s].  Phi^T y_free is carried along too,
    since a pivot changes the duals of the flipped and the two swapped
    rows only.  Both are computed afresh every REFACTOR_EVERY pivots, so
    update drift stays bounded; it can change the pivot path, but the
    returned c and duals are solved afresh on the final block.

    Pivots run on f0 + delta, where delta_i is 1e-14 max|f0| times the
    golden-ratio fraction of i mapped onto [-1, 1), so sum|delta| is at
    most a tenth of the roundoff floor below.  On such generic data no
    basic residual sits at zero, so pivots are not degenerate and Dantzig
    pricing does not cycle (the perturbation method of Charnes,
    Econometrica 20, 1952); the cap max_iter is the only guard on
    termination.  The final c interpolates f0 itself on the optimal block
    rows, and the returned sum is that of f0 - Phi c.  The duals depend
    only on the basis, so |y| <= 1 and Phi^T y = 0 hold whatever the
    right-hand side.

    An exact fit ends with every residual at roundoff, where their signs
    are noise and pivots would wander among them.  Once sum|r| is below
    1e-13 M max|f| and a pivot no longer lowers it, the loop stops and
    returns y = 0, the dual point that certifies E >= 0.  That stop judges
    the objective from the basis block, which an ill-conditioned block can
    get wrong, so unless the returned c itself leaves sum|r| at the floor
    it raises SolverStall instead of returning a wrong value.  A row priced
    negative with no pivot above PIVOT_TOL is priced by roundoff, so the
    next candidate enters instead.
    """
    Phi, PhiT = D.Phi, D.PhiT
    M, d = Phi.shape
    fscale = float(np.max(np.abs(f0)))
    obj_floor = 1e-13 * M * fscale              # roundoff level of sum|r|
    # the pivots run on f0 + delta, see above
    fv = f0 + 0.1 * obj_floor / M * D.jitter

    # crash basis: one interpolation row per arc, see above
    c_ls = (PhiT @ fv) / D.norms
    dev = np.abs(fv - c_ls @ PhiT)
    edges = (np.arange(d + 1) * M) // d
    P = np.array([lo + int(np.argmin(dev[lo:hi]))
                  for lo, hi in zip(edges[:-1], edges[1:])])
    B = _nonsingular(np.linalg.inv, 0, "L1 basis block", Phi[P])
    # the duals on the free rows: sigma_i, +1 where u_i is basic and -1
    # where v_i is, and 0 on the rows of P
    yF = np.where(fv >= (B @ fv[P]) @ PhiT, 1.0, -1.0)
    yF[P] = 0.0

    exact = False
    prev_obj = math.inf
    for it in range(max_iter):
        if it % REFACTOR_EVERY == 0:
            if it:
                B = _nonsingular(np.linalg.inv, it, "L1 basis block", Phi[P])
            g = PhiT @ yF
        # Phi^T y = 0 fixes the duals on P
        yP = -(g @ B)
        z = np.concatenate([1.0 - yP, 1.0 + yP])
        negs = (z < -REDCOST_TOL).nonzero()[0]
        if len(negs) == 0:
            break
        c = B @ fv[P]
        for k in negs[z[negs].argsort(kind="stable")]:
            # u (k < d) or v of the row in slot s enters; its column is a
            # unit vector on that block row and zero on the free rows.  The
            # coefficients and the tableau column share one pass over Phi;
            # on a free row the column is -sigma_i (Phi x)_i
            s = k % d
            fit = np.array([c, B[:, s] if k < d else -B[:, s]]) @ PhiT
            tt = -yF * fit[1]
            pos = (tt > PIVOT_TOL).nonzero()[0]
            if len(pos):
                break
        else:
            raise SolverStall("no L1 entering column has a pivot above "
                              f"{PIVOT_TOL}", iterations=it)
        w = yF * (fv - fit[0])                  # the basic residuals
        obj = float(w.sum())
        # progress is judged on the scale of f, so tiny data is not stalled
        if obj <= obj_floor and \
                obj >= prev_obj - 1e-15 * (fscale + abs(prev_obj)):
            exact = True                        # exact to roundoff, see above
            break
        prev_obj = obj
        # roundoff can leave basic values at -1e-17; a negative ratio would
        # derail the pivot, so clamp before the ratio test
        br = _long_step(pos, np.maximum(w[pos], 0.0) / tt[pos], tt, z[k])
        # row swap: the leaving free row r joins P in slot s, the entering
        # row q leaves it, and the rows before r flip; Phi^T y follows the
        # duals of those rows
        r, q = br[-1], P[s]
        moved = np.concatenate((br, [q]))
        old = yF[moved]
        yF[br[:-1]] *= -1.0
        yF[r], yF[q] = 0.0, (1.0 if k < d else -1.0)
        g += (yF[moved] - old) @ Phi[moved]
        P[s] = r
        _swap_row(B, s, Phi[r])
    else:
        raise SolverStall(
            f"simplex did not reach reduced-cost tolerance {REDCOST_TOL}",
            iterations=max_iter)
    # the returned numbers are solved afresh on the final block
    P.sort()
    A_P = Phi[P]
    if exact:
        y = np.zeros(M)
    else:
        y = yF
        y[P] = _nonsingular(np.linalg.solve, it, "L1 basis block", A_P.T,
                            -(PhiT @ yF))
    c = _nonsingular(np.linalg.solve, it, "L1 basis block", A_P, f0[P])
    l1 = float(np.sum(np.abs(f0 - Phi @ c)))
    if exact and l1 > obj_floor:
        raise SolverStall(f"exact-fit stop left sum|r| = {l1:.3g} above the "
                          f"roundoff floor {obj_floor:.3g}", iterations=it)
    return c, y, it, l1


def best_l1(f, n: int, M: int | None = None) -> ApproxResult:
    """Discrete best L1 approximation error (trapezoid-weighted) of f by
    order-(n-1) trigonometric polynomials on an M-point grid (default 64n).

    LP formulation: Phi c + u - v = f with u, v >= 0 and c free;
    min sum(u+v).  Always feasible; the weight 2*pi/M is
    applied to the optimal objective so value approximates the integral.
    """
    n, M = _grid_size(n, M)
    fv = _sample_grid(f, M)
    c, duals, iters, l1 = _l1_revised(_grid_design(n, M), fv,
                                      max_iter=50 * (M + 2 * n - 1))
    return ApproxResult(2.0 * math.pi / M * l1, _coeff_poly(n, c), M, "L1",
                        duals, iters)


def best_uniform(f, n: int, M: int | None = None) -> ApproxResult:
    """Discrete Chebyshev approximation error min_p max_i |f(t_i) - p(t_i)|.

    Single-point (Stiefel) exchange on a reference R of 2n grid points:
    solve Phi_R c + sigma h = f_R with alternating sigma, so the residual
    levels at +-h on R, then swap the grid point of largest |r| for the
    cyclic neighbour whose residual has the same sign.  Each step brackets
    |h| <= E <= max|r| (de la Vallee Poussin).

    Each reference point holds a fixed slot of the block [Phi_R | sigma],
    with a fixed sign; the point that enters takes the slot and sign of
    the neighbour it replaces.  The slots thus keep their cyclic order
    round the circle and the signs still alternate, and an exchange
    replaces one row of the block.  The block is held as its inverse,
    which _swap_row updates as in the L1 simplex, and is re-inverted every
    REFACTOR_EVERY exchanges.  The returned c is solved afresh on the
    final reference, its rows sorted.

    The loop stops once max|r| - |h| <= 1e-13 max|f|, and value is max|r|
    of the returned polynomial.  That tolerance is absolute, so the value
    is fixed to within 1e-13 max|f|: a minimax error far below max|f|,
    such as 1e-11, carries up to about 1e-3 relative uncertainty, and the
    classical rhs of the harness, which scales by it, inherits it.
    """
    n, M = _grid_size(n, M)
    fv = _sample_grid(f, M)
    d = 2 * n - 1
    Phi = _grid_design(n, M).Phi
    R = (np.arange(2 * n) * M) // (2 * n)     # the grid point in each slot
    sigma = np.where(np.arange(2 * n) % 2 == 0, 1.0, -1.0)
    row = np.empty(2 * n)
    tol = 1e-13 * float(np.max(np.abs(fv)))
    for it in range(50 * (M + d)):
        if it % REFACTOR_EVERY == 0:
            B = _nonsingular(np.linalg.inv, it, "exchange reference",
                             np.column_stack((Phi[R], sigma)))
        sol = B @ fv[R]
        h = sol[-1]
        r = fv - Phi @ sol[:d]
        j = int(np.abs(r).argmax())
        if abs(r[j]) - abs(h) <= tol:
            break
        # the slots keep their cyclic order, so R is sorted from its
        # smallest entry on, round the circle: j lies between the slots
        # k-1 and k, and the residual on R is sigma h, so the one of them
        # sharing sign(r_j) is the one j replaces
        k = (int(R.argmin()) + int(np.count_nonzero(R < j))) % (2 * n)
        if (sigma[k] * h > 0.0) != (r[j] > 0.0):
            k -= 1
        R[k] = j
        row[:d] = Phi[j]
        row[d] = sigma[k]
        _swap_row(B, k, row)
    else:
        raise SolverStall("exchange did not level the reference error",
                          iterations=50 * (M + d))
    order = R.argsort()
    c = _nonsingular(np.linalg.solve, it, "exchange reference",
                     np.column_stack((Phi[R[order]], sigma[order])),
                     fv[R[order]])[:d]
    value = float(np.max(np.abs(fv - Phi @ c)))
    return ApproxResult(value, _coeff_poly(n, c), M, "Uniform", None, it)


def oracle_best_l1(f, n: int, M: int | None = None) -> float:
    """Independent slow route for n <= 2: nested coordinate-box grid search
    over the (at most 3) coefficients, shrinking around the best point.

    The objective is convex piecewise-linear, so the refined box always
    straddles the optimum; agreement target with best_l1 is 1e-4 relative.
    """
    n, M = _grid_size(n, M)
    if n not in (1, 2):
        raise ValueError("oracle covers n in {1, 2} only")
    t = _uniform_grid(M)
    fv = _sample(f, t)
    Phi = _grid_design(n, M).Phi
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
