"""The three benchmark workloads and their output checks.

Every workload turns the workload seed into psikern inputs once, at set-up,
and then runs identical passes.  A pass builds fresh family instances, as a
CLI run does, so cache growth is paid inside the pass.  Workloads call
psikern through the package namespace, so a Tracer installed for the traced
pass sees every call.

Output checks rest on certificates or independent routes (LP duality,
HiGHS, mpmath, the class bracket), never on values stored from an earlier
run, so they hold for any correct implementation.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import psikern as pk

SWEEP_FAMILIES = (
    {"kind": "geometric", "q": 0.5},
    {"kind": "gen_poisson", "alpha": 1.0, "r": 0.5},
    {"kind": "neumann", "q": 0.5},
    {"kind": "even_odd", "q1": 0.9, "q2": 0.5},
)

X_GRID = 512
# the functions of the acceptance corpus (seed of the nine-criterion gate)
CORPUS_FUNCTION_SEED = 12345
CORPUS_FUNCTIONS = 12
CLASSICAL_FUNCTIONS = 64
CLASSICAL_SOLVER_GRID = 160
DUALITY_X_POINTS = 64
DUALITY_N_CELLS = 25

# test_09's sharpness configuration
SHARPNESS_CONFIG = dict(
    psi_specs=({"kind": "geometric", "q": math.exp(-1.0)},
               {"kind": "even_odd", "q1": 0.9, "q2": 0.5}),
    beta=0.0,
    n_list=(4, 8, 16, 32, 64),
)
# mpmath (dps 30) value of the geometric duality sup at n=3, x=pi/5,
# beta=0.25, q=0.5
DUALITY_GEO_ORACLE = 0.135249244610419152

CERT_TOL = 1e-9       # best_l1 / best_uniform consistency and certificates
HIGHS_REL = 1e-8      # best_uniform against scipy's HiGHS
BRACKET_SLACK = 1e-12  # duality interval inside the thm2 bracket


@dataclass
class PassResult:
    """Items attempted and failed in one pass, a digest of its outputs, and
    the per-item latencies when items are separate calls."""

    attempted: int
    failed: int
    digest: str
    latencies: list[float] | None = None   # seconds, when items are own calls
    problems: list[str] = field(default_factory=list)


def _stratified(rng: np.random.Generator, lo: int, hi: int,
                cells: int) -> list[int]:
    """One integer from each of `cells` equal strata of [lo, hi], so the
    grid covers the range the same way for every seed."""
    edges = np.linspace(lo, hi + 1, cells + 1)
    return [int(rng.integers(math.ceil(a), math.ceil(b)))
            for a, b in zip(edges[:-1], edges[1:])]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# corpus and classical: one harness call per pass
# ---------------------------------------------------------------------------


class _HarnessWorkload:
    """One harness call per pass, writing CSV and JSON; an item is one test
    function, and it fails when any of its rows fails the harness's own
    bound check."""

    entry = ""
    ok_field = ""
    captures = True     # the output checks need the traced pass's results

    def __init__(self, config: pk.ExperimentConfig, workdir: Path):
        self.config = config
        self.csv = workdir / f"{self.name}.csv"
        self.json = workdir / f"{self.name}.json"

    def run_pass(self) -> PassResult:
        cfg = self.config
        items = cfg.n_functions
        try:
            rows, summary = getattr(pk, self.entry)(cfg, str(self.csv),
                                                    str(self.json))
        except pk.PsikernError as exc:
            return PassResult(items, items, "", problems=[repr(exc)])
        problems = []
        bad = {r.phi_index for r in rows if not getattr(r, self.ok_field)}
        failed = len(bad)
        if summary["fail"] != 0:
            problems.append(f"{self.entry} summary fail={summary['fail']}")
        if summary["pass"] + summary["fail"] != items * cfg.x_grid:
            problems.append(f"{self.entry} summary {summary} for "
                            f"{items} functions x {cfg.x_grid} points")
            failed = items
        return PassResult(items, failed,
                          _digest(self.csv.read_bytes(),
                                  self.json.read_bytes()),
                          problems=problems)

    def csv_bytes(self) -> int:
        return self.csv.stat().st_size


class Corpus(_HarnessWorkload):
    """verify_lebesgue over SWEEP_FAMILIES x n in {4, 8, 16}.  The
    functions are the acceptance corpus's first twelve; the seed draws the
    kernel phase beta, which changes every function, interpolant and
    deviation but not the derivative data that best_l1 solves on, so the
    LP work is the same for every seed."""

    name = "corpus"
    entry = "verify_lebesgue"
    ok_field = "ok_thm1"

    def __init__(self, seed: int, workdir: Path):
        beta = float(np.random.default_rng([seed, 1]).uniform(0.0, 2.0))
        super().__init__(pk.ExperimentConfig(
            psi_specs=SWEEP_FAMILIES, beta=beta, n_list=(4, 8, 16),
            n_functions=CORPUS_FUNCTIONS, x_grid=X_GRID,
            seed=CORPUS_FUNCTION_SEED), workdir)


class Classical(_HarnessWorkload):
    """classical_lebesgue_check over SWEEP_FAMILIES x n in {4, 8} on seeded
    functions.  One n=8 uniform solve on the default 64n grid takes from
    0.1 s to 4.5 s depending on the function, so a pass of a few such
    functions would time the seed, not the code.  A 160-point solver grid
    lets a pass average 32 n=8 solves instead, and keeps best_uniform the
    larger part of the pass."""

    name = "classical"
    entry = "classical_lebesgue_check"
    ok_field = "ok"

    def __init__(self, seed: int, workdir: Path):
        beta = float(np.random.default_rng([seed, 2]).uniform(0.0, 2.0))
        super().__init__(pk.ExperimentConfig(
            psi_specs=SWEEP_FAMILIES, beta=beta, n_list=(4, 8),
            n_functions=CLASSICAL_FUNCTIONS, x_grid=X_GRID, seed=seed,
            solver_grid=CLASSICAL_SOLVER_GRID), workdir)


# ---------------------------------------------------------------------------
# duality: one call per item
# ---------------------------------------------------------------------------


def _timed_items(items) -> PassResult:
    """Run each item, a thunk returning (output, problem or None), as its
    own call; an item fails when it raises a PsikernError or reports a
    problem."""
    outputs, latencies, problems = [], [], []
    failed = 0
    for item in items:
        t0 = time.perf_counter()
        try:
            out, problem = item()
        except pk.PsikernError as exc:
            out, problem = None, f"{item}: {exc!r}"
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
        if problem:
            failed += 1
            problems.append(problem)
    return PassResult(len(latencies), failed, _digest(outputs),
                      latencies, problems)


class Duality:
    """duality_sup_batch for each SWEEP_FAMILIES member on a seeded n grid
    over 2..64 (one n per stratum) and a 64-point x grid with a seeded
    offset, each interval checked against thm2_sup_bracket at every x as
    the acceptance gate does; plus one sharpness_probe."""

    name = "duality"
    captures = False

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.n_grid = _stratified(rng, 2, 64, DUALITY_N_CELLS)
        offset = float(rng.uniform(0.0, 2.0 * math.pi / DUALITY_X_POINTS))
        self.xs = offset + np.linspace(0.0, 2.0 * math.pi, DUALITY_X_POINTS,
                                       endpoint=False)
        self.sharpness = pk.ExperimentConfig(**SHARPNESS_CONFIG)

    def _cell(self, psi, n):
        ivs = pk.duality_sup_batch(psi, 0.0, n, self.xs)
        out = [(iv.lo, iv.hi) for iv in ivs]
        for x, iv in zip(self.xs, ivs):
            br = pk.thm2_sup_bracket(psi, 0.0, n, float(x))
            slack = BRACKET_SLACK * (1.0 + abs(br.hi))
            if not (br.lo - slack <= iv.lo and iv.hi <= br.hi + slack):
                return out, (f"{psi.label()} n={n} x={x!r}: {iv} outside "
                             f"{br}")
        return out, None

    def _sharpness(self):
        rows, summary = pk.sharpness_probe(self.sharpness)
        problem = None if summary["fail"] == 0 else f"sharpness {summary}"
        return [(r.psi, r.n, r.ratio) for r in rows], problem

    def csv_bytes(self) -> int:
        return 0

    def run_pass(self) -> PassResult:
        fams = [pk.psi_from_dict(dict(s)) for s in SWEEP_FAMILIES]
        items = [functools.partial(self._cell, psi, n)
                 for psi in fams for n in self.n_grid]
        return _timed_items(items + [self._sharpness])


WORKLOADS = {w.name: w for w in (Corpus, Classical, Duality)}


# ---------------------------------------------------------------------------
# checks on results captured in the traced pass
# ---------------------------------------------------------------------------


def _solver_grid(M: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(M) / M


def _trig_design(n: int, t: np.ndarray) -> np.ndarray:
    """[1/2, cos jt, sin jt] for j < n: the coefficient layout of an
    order-(n-1) TrigPoly."""
    j = np.arange(1, n)
    return np.hstack([np.full((len(t), 1), 0.5),
                      np.cos(np.outer(t, j)), np.sin(np.outer(t, j))])


def check_best_l1(f, n: int, res) -> list[str]:
    """Primal consistency of the value and LP-duality certificate of its
    optimality: y with |y| <= 1 and Phi^T y = 0 attaining f.y = sum|r|."""
    t = _solver_grid(res.grid_size)
    fv = np.asarray(f(t), dtype=np.float64)
    r = fv - res.argmin(t)
    s = float(np.sum(np.abs(r)))
    where = f"best_l1 n={n} M={res.grid_size}"
    out = []
    primal = 2.0 * math.pi / res.grid_size * s
    if not abs(res.value - primal) <= CERT_TOL * primal:
        out.append(f"{where}: value {res.value!r} != 2pi/M sum|r| {primal!r}")
    y = res.duals
    if y is None or np.shape(y) != t.shape:
        return out + [f"{where}: no dual vector"]
    if not np.max(np.abs(y)) <= 1.0 + CERT_TOL:
        out.append(f"{where}: max|y| = {np.max(np.abs(y))!r} > 1")
    phi_y = float(np.max(np.abs(_trig_design(n, t).T @ y)))
    if not phi_y <= CERT_TOL * float(np.max(np.abs(fv))):
        out.append(f"{where}: |Phi^T y| = {phi_y!r}")
    if not abs(float(fv @ y) - s) <= CERT_TOL * s:
        out.append(f"{where}: duality gap f.y = {float(fv @ y)!r} vs {s!r}")
    return out


def check_best_uniform(f, n: int, res) -> list[str]:
    """The value is the grid max of |f - argmin|, to CERT_TOL on the scale
    of the data: uniform errors reach 1e-11 here, below the roundoff an LP
    solve on O(1) data leaves."""
    t = _solver_grid(res.grid_size)
    fv = np.asarray(f(t), dtype=np.float64)
    dev = float(np.max(np.abs(fv - res.argmin(t))))
    if abs(res.value - dev) <= CERT_TOL * float(np.max(np.abs(fv))):
        return []
    return [f"best_uniform n={n}: value {res.value!r} != max|f-p| {dev!r}"]


def check_uniform_highs(f, n: int, res) -> list[str]:
    """The same discrete Chebyshev problem solved by scipy's HiGHS."""
    from scipy.optimize import linprog

    t = _solver_grid(res.grid_size)
    fv = np.asarray(f(t), dtype=np.float64)
    Phi = _trig_design(n, t)
    ones = np.ones((len(t), 1))
    A = np.vstack([np.hstack([Phi, -ones]), np.hstack([-Phi, -ones])])
    cost = np.zeros(Phi.shape[1] + 1)
    cost[-1] = 1.0
    lp = linprog(cost, A_ub=A, b_ub=np.concatenate([fv, -fv]),
                 bounds=[(None, None)] * Phi.shape[1] + [(0, None)],
                 method="highs")
    if lp.status != 0:
        return [f"HiGHS n={n}: {lp.message}"]
    if abs(res.value - lp.fun) <= HIGHS_REL * lp.fun:
        return []
    return [f"best_uniform n={n}: {res.value!r} vs HiGHS {lp.fun!r}"]


def captured_checks(approx) -> list[list[str]]:
    """Checks on the traced pass's best-approximation results; one entry
    (a list of problems, empty when it passed) per check.  HiGHS re-solves
    the largest uniform error per n, where a relative comparison is well
    conditioned."""
    out = []
    largest = {}
    for kind, f, n, res in approx:
        if kind == "best_l1":
            out.append(check_best_l1(f, n, res))
        else:
            out.append(check_best_uniform(f, n, res))
            if n not in largest or res.value > largest[n][2].value:
                largest[n] = (f, n, res)
    out += [check_uniform_highs(*args) for args in largest.values()]
    return out


def standalone_checks(name: str) -> list[list[str]]:
    """Checks against independent values that need no captured result."""
    if name == "duality":
        iv = pk.duality_sup(pk.Geometric(0.5), 0.25, 3, math.pi / 5)
        ok = iv.contains(DUALITY_GEO_ORACLE)
        return [[] if ok else [f"duality oracle {DUALITY_GEO_ORACLE} "
                               f"outside {iv}"]]
    return []
