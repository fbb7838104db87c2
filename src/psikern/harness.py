"""End-to-end verification driver.

Generates seeded test functions, pushes them through the smoothing
operator, interpolates on the 2n-1 equidistant nodes, and checks the
pointwise deviation against every computable right-hand side.

Each function's rows are computed as one block of numpy columns over
the uniform x grid; its deviation there is interp.grid_deviation, two
inverse FFTs.  The CSV is written one block of text per function.  The
returned rows are a read-only sequence over the blocks: NamedTuples (so
`._asdict()` gives a dict) of plain Python values, made one block at a
time when they are iterated or indexed, so a run holds no per-row
objects.  Reports are deterministic: a fixed seed reproduces the CSV
byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import NamedTuple

import numpy as np

from .bestapprox import best_l1, best_uniform
from .bounds import (
    Interval,
    duality_sup,
    duality_sup_batch,
    sine_factor,
    thm1_rhs,
    thm2_sup_bracket,
)
from .errors import TrendViolation
from .interp import grid_deviation, lebesgue_fn
from .psi import PsiFamily, limit_ratio, psi_from_dict, tail_sum
from .trig import KernelSpec, TrigPoly, _uniform_grid, psi_integral

PI = math.pi

DEFAULT_PSI_SPECS = (
    {"kind": "geometric", "q": 0.5},
    {"kind": "gen_poisson", "alpha": 1.0, "r": 0.5},
    {"kind": "neumann", "q": 0.5},
    {"kind": "even_odd", "q1": 0.9, "q2": 0.5},
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for one verification run.

    n_functions test functions are distributed round robin over the
    (psi, n) cells; function i is drawn from default_rng([seed, i]) so
    the corpus does not depend on iteration order.
    """

    psi_specs: tuple = DEFAULT_PSI_SPECS
    beta: float = 0.0
    n_list: tuple = (4, 8, 16)
    n_functions: int = 12
    x_grid: int = 512
    seed: int = 12345
    solver_grid: int | None = None      # best-approximation grid, None -> 64n
    slack_scale: float = 1e-9
    with_duality: bool = False
    duality_grid: int | None = None

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(d) - names
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        d = dict(d)
        for key in ("psi_specs", "n_list"):
            if key in d:
                d[key] = tuple(d[key])
        return ExperimentConfig(**d)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["psi_specs"] = list(out["psi_specs"])
        out["n_list"] = list(out["n_list"])
        return out


class BoundReport(NamedTuple):
    """One (test function, x) row.

    lhs and the thm1 columns scale with E_n (the best L1 approximation of
    the derivative data); the thm2 and duality columns are the
    unit-derivative class quantities and do not depend on the function.
    """

    psi: str
    beta: float
    n: int
    phi_index: int
    x: float
    lhs: float
    E: float
    rhs_thm1: float
    rhs_thm1_modified: float
    thm2_lo: float
    thm2_hi: float
    dual_lo: float | None
    dual_hi: float | None
    ok_thm1: bool
    ok_dual_in_thm2: bool | None


class SharpnessRow(NamedTuple):
    psi: str
    n: int
    x: float
    ratio: float
    env_lo: float
    env_hi: float
    gap_to_one: float
    limit_ratio: float


class ClassicalReport(NamedTuple):
    psi: str
    beta: float
    n: int
    phi_index: int
    x: float
    lhs: float
    E_uniform: float
    rhs_classical: float
    rhs_thm1: float
    ratio_thm1_classical: float
    ok: bool


def _random_phi(rng: np.random.Generator, n: int) -> TrigPoly:
    """Zero-mean random polynomial of degree <= 2n plus one harmonic at
    N in [n, 4n]."""
    deg = int(rng.integers(1, 2 * n + 1))
    N = int(rng.integers(n, 4 * n + 1))
    L = max(deg, N)
    a = np.zeros(L)
    b = np.zeros(L)
    a[:deg] = rng.standard_normal(deg)
    b[:deg] = rng.standard_normal(deg)
    extra = rng.standard_normal(2)
    a[N - 1] += extra[0]
    b[N - 1] += extra[1]
    return TrigPoly(0.0, a, b)


def _cells(config: ExperimentConfig) -> list[tuple[PsiFamily, int]]:
    fams = [psi_from_dict(dict(s)) for s in config.psi_specs]
    return [(f, int(n)) for f in fams for n in config.n_list]


def _corpus(config: ExperimentConfig, cells: list):
    """Yield (cell index, i, psi, n, phi, f) for each test function i:
    round robin over the cells, phi from default_rng([seed, i]) and f its
    image under the smoothing operator."""
    for i in range(config.n_functions):
        ci = i % len(cells)
        psi, n = cells[ci]
        phi = _random_phi(np.random.default_rng([config.seed, i]), n)
        f = psi_integral(KernelSpec(psi, config.beta), phi)
        yield ci, i, psi, n, phi, f


def verify_lebesgue(config: ExperimentConfig,
                    out_csv: str | None = None,
                    out_json: str | None = None,
                    plot_script: str | None = None):
    """Check |f - interpolant| <= thm1 rhs pointwise for every generated
    function.  Returns (rows, summary): rows a read-only sequence of
    BoundReport, summary the failures under the slack
    slack_scale * (1 + |lhs| + |rhs|)."""
    cells = _cells(config)
    xg = _uniform_grid(config.x_grid)
    cell_reports = []
    for psi, n in cells:
        # cached tail sums tighten as the cache grows, so a cell's bounds
        # are all taken here, before the corpus grows the caches: thm1 at
        # E = 1, scaled per function (x * 1.0 is exact), and the modified
        # thm1, which is thm2's upper end times E
        thm2 = thm2_sup_bracket(psi, config.beta, n, xg)
        rhs1 = thm1_rhs(psi, n, xg, 1.0)
        dual_lo = dual_hi = ok_dual = None
        if config.with_duality:
            dual = duality_sup_batch(psi, config.beta, n, xg,
                                     config.duality_grid)
            dual_lo = np.array([iv.lo for iv in dual])
            dual_hi = np.array([iv.hi for iv in dual])
            ok_dual = thm2.contains_interval(
                Interval(dual_lo, dual_hi),
                config.slack_scale * (1.0 + np.abs(thm2.hi)))
        # the cell's columns, thm1 at E = 1; the function's are filled in
        # per block
        cell_reports.append(BoundReport(
            psi.label(), config.beta, n, None, xg, None, None, rhs1, None,
            thm2.lo, thm2.hi, dual_lo, dual_hi, None, ok_dual))

    blocks = []
    for ci, i, psi, n, phi, f in _corpus(config, cells):
        cell = cell_reports[ci]
        E = best_l1(phi, n, config.solver_grid).value
        lhs = np.abs(grid_deviation(f, n, config.x_grid))
        rhs1 = cell.rhs_thm1 * E
        blocks.append(cell._replace(
            phi_index=i, lhs=lhs, E=E, rhs_thm1=rhs1,
            rhs_thm1_modified=cell.thm2_hi * E,
            ok_thm1=lhs <= rhs1 + config.slack_scale * (1.0 + lhs + rhs1)))

    blocks.sort(key=lambda b: (b.psi, b.n, b.phi_index))
    summary = _summarize([b.lhs for b in blocks], [b.rhs_thm1 for b in blocks],
                         [b.ok_thm1 for b in blocks])
    rows = _emit(blocks, summary, out_csv, out_json)
    if plot_script is not None and out_csv is not None:
        _write_plot_script(plot_script, out_csv,
                           xcol=5, ycols=(6, 8), names=("lhs", "rhs_thm1"))
    return rows, summary


def sharpness_probe(config: ExperimentConfig,
                    out_csv: str | None = None,
                    out_json: str | None = None):
    """Ratio of the duality sup to its tail-sum prediction at the
    antinode x = pi/(2n-1), with the envelope
    [1 - (1+pi) r_n, 1 + r_n], r_n = weighted_tail/tail_sum.

    Raises TrendViolation the moment a ratio leaves its envelope (beyond
    the certified numeric slack)."""
    blocks = []
    for psi, n in _cells(config):
        x = PI / (2 * n - 1)
        T = tail_sum(psi, n)
        lr = limit_ratio(psi, n)
        iv = duality_sup(psi, config.beta, n, x, config.duality_grid)
        denom = sine_factor(n, x) * T.value
        ratio = iv.mid / denom
        eps = 0.5 * iv.width / denom \
            + abs(ratio) * T.remainder_bound / T.value + 1e-9
        env_lo = 1.0 - (1.0 + PI) * lr
        env_hi = 1.0 + lr
        if not env_lo - eps <= ratio <= env_hi + eps:
            raise TrendViolation(
                f"{psi.label()} n={n}: ratio {ratio:.6f} outside "
                f"[{env_lo:.6f}, {env_hi:.6f}] (slack {eps:.2e})")
        blocks.append(SharpnessRow(psi.label(), n, x, ratio, env_lo,
                                   env_hi, abs(ratio - 1.0), lr))
    blocks.sort(key=lambda r: (r.psi, r.n))
    summary = {"pass": len(blocks), "fail": 0, "worst_ratio": max(
        (r.gap_to_one for r in blocks), default=0.0)}
    return _emit(blocks, summary, out_csv, out_json), summary


def classical_lebesgue_check(config: ExperimentConfig,
                             out_csv: str | None = None,
                             out_json: str | None = None):
    """Sanity check against the classical route: |f - interpolant| <=
    (1 + Lebesgue function) * E_n(f) in the uniform metric.  The ratio of
    the tail-based rhs to the classical rhs is emitted as data, never
    asserted."""
    cells = _cells(config)
    labels = [psi.label() for psi, _ in cells]
    xg = _uniform_grid(config.x_grid)
    # 1 + L_n on the x grid depends on n alone; thm1 is taken per cell at
    # E = 1, before the corpus grows the caches, and scaled per function
    leb1 = {n: 1.0 + lebesgue_fn(n, xg) for n in {n for _, n in cells}}
    cell_rhs1 = [thm1_rhs(psi, n, xg, 1.0) for psi, n in cells]
    blocks = []
    for ci, i, psi, n, phi, f in _corpus(config, cells):
        Eu = best_uniform(f, n, config.solver_grid).value
        El = best_l1(phi, n, config.solver_grid).value
        lhs = np.abs(grid_deviation(f, n, config.x_grid))
        rhs_c = leb1[n] * Eu
        rhs1 = cell_rhs1[ci] * El
        with np.errstate(divide="ignore", invalid="ignore"):
            rat = np.where(rhs_c > 0.0, rhs1 / rhs_c, np.nan)
        ok = lhs <= rhs_c + config.slack_scale * (1.0 + lhs + rhs_c)
        blocks.append(ClassicalReport(labels[ci], config.beta, n, i, xg, lhs,
                                      Eu, rhs_c, rhs1, rat, ok))
    blocks.sort(key=lambda b: (b.psi, b.n, b.phi_index))
    summary = _summarize([b.lhs for b in blocks],
                         [b.rhs_classical for b in blocks],
                         [b.ok for b in blocks])
    return _emit(blocks, summary, out_csv, out_json), summary


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _summarize(lhs: list, rhs: list, ok: list) -> dict:
    """pass/fail counts and the worst lhs/rhs over rows with rhs > 0, from
    per-block columns of equal length."""
    lhs, rhs, ok = np.ravel(lhs), np.ravel(rhs), np.ravel(ok)
    n_fail = ok.size - int(np.count_nonzero(ok))
    pos = rhs > 0.0
    r = lhs[pos] / rhs[pos]
    return {"pass": ok.size - n_fail, "fail": n_fail,
            "worst_ratio": float(np.max(r, initial=0.0, where=~np.isnan(r)))}


class _Line(list):
    """csv.writer target that keeps each line it is given."""
    write = list.append


def _text(v):
    """CSV text of one value: as in a column for numbers and bools, empty
    for None, and strings quoted by the csv module's rules."""
    if v is None:
        return ""
    if isinstance(v, str):
        line = _Line()
        csv.writer(line, lineterminator="").writerow([v])
        return line[0]
    return _column_text(np.array([v]))[0]


def _column_text(v: np.ndarray) -> list:
    """CSV text of a numpy column: repr for floats, 1/0 for bools."""
    if v.dtype == bool:
        return np.where(v, "1", "0").tolist()
    return list(map(repr, v.tolist()))


def _block_columns(blocks: list, column, scalar):
    """Each block with its columns: column(v) for a numpy column, and
    scalar(v) repeated down the block for a single value.  A cell's
    blocks are adjacent, so its shared columns (x, thm2, duality) are
    converted once per run of blocks."""
    prev: dict = {}
    for b in blocks:
        m = np.size(b.x)
        cur = {id(v): prev.get(id(v)) or column(v)
               for v in b if isinstance(v, np.ndarray)}
        yield b, [cur[id(v)] if isinstance(v, np.ndarray)
                  else repeat(scalar(v), m) for v in b]
        prev = cur


class _Rows(Sequence):
    """Read-only rows of the sorted blocks, made one block at a time.

    Iterating makes each block's rows from its columns' lists and drops
    them when it moves on, so a run holds no per-row objects.  Indexing
    makes the one row asked for.  The rows are the blocks' NamedTuple
    types with plain Python values, in the blocks' order."""

    __slots__ = ("_blocks", "_ends")

    def __init__(self, blocks: list):
        self._blocks = blocks
        self._ends = list(accumulate(np.size(b.x) for b in blocks))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self):
        for b, cols in _block_columns(self._blocks, np.ndarray.tolist,
                                      lambda v: v):
            yield from map(tuple.__new__, repeat(type(b)), zip(*cols))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("row index out of range")
        k = bisect_right(self._ends, i)
        j = i - (self._ends[k - 1] if k else 0)
        b = self._blocks[k]
        return type(b)._make(v.item(j) if isinstance(v, np.ndarray) else v
                             for v in b)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def _write_csv(fh, blocks: list) -> None:
    """The blocks as CSV on the open text file fh: a header of the field
    names, then one line per row.

    A block holds rows as a row NamedTuple with an x field, whose fields
    are numpy columns or single values repeated down the block.  The CSV
    text is made per block from each column's values and written in one
    piece, so the text of only one block is held at a time."""
    if not any(np.size(b.x) for b in blocks):
        raise ValueError("no rows to write")
    csv.writer(fh, lineterminator="\n").writerow(blocks[0]._fields)
    for _, cols in _block_columns(blocks, _column_text, _text):
        fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


def _emit(blocks: list, summary: dict,
          out_csv: str | None, out_json: str | None) -> _Rows:
    """The rows of the sorted blocks, a _Rows view over them, and their
    CSV (see _write_csv) and JSON files.  A block holds the rows of one
    test function, or one sharpness row."""
    if out_csv is not None:
        with open(out_csv, "w", newline="") as fh:
            _write_csv(fh, blocks)
    if out_json is not None:
        with open(out_json, "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return _Rows(blocks)


def _write_plot_script(path: str, csv_path: str,
                       xcol: int, ycols: tuple, names: tuple) -> None:
    """Plain-text gnuplot script plotting report columns against x."""
    plots = ", ".join(
        f"'{csv_path}' using {xcol}:{c} with points ps 0.3 title '{t}'"
        for c, t in zip(ycols, names))
    text = "\n".join([
        "set datafile separator ','",
        "set key outside",
        "set logscale y",
        "set xlabel 'x'",
        "set ylabel 'bound value'",
        f"plot {plots}",
        "pause -1",
        "",
    ])
    with open(path, "w") as fh:
        fh.write(text)
