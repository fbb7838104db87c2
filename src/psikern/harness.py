"""End-to-end verification driver.

Generates seeded test functions, pushes them through the smoothing
operator, interpolates on the 2n-1 equidistant nodes, and checks the
pointwise deviation against every computable right-hand side.  Reports
are deterministic: a fixed seed reproduces the CSV byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bestapprox import best_l1, best_uniform
from .bounds import (
    Interval,
    duality_sup,
    duality_sup_batch,
    sine_factor,
    thm2_sup_bracket,
)
from .errors import TrendViolation
from .interp import interpolate, lebesgue_fn, nodes
from .psi import (
    PsiFamily,
    double_tail,
    limit_ratio,
    psi_from_dict,
    tail_sum,
    weighted_tail,
)
from .trig import KernelSpec, TrigPoly, psi_integral

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


@dataclass(frozen=True)
class BoundReport:
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


@dataclass(frozen=True)
class SharpnessRow:
    psi: str
    n: int
    x: float
    ratio: float
    env_lo: float
    env_hi: float
    gap_to_one: float
    limit_ratio: float


@dataclass(frozen=True)
class ClassicalReport:
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


def _x_grid(config: ExperimentConfig) -> np.ndarray:
    return 2.0 * PI * np.arange(config.x_grid) / config.x_grid


def verify_lebesgue(config: ExperimentConfig,
                    out_csv: str | None = None,
                    out_json: str | None = None,
                    plot_script: str | None = None):
    """Check |f - interpolant| <= thm1 rhs pointwise for every generated
    function.  Returns (rows, summary); summary counts failures under the
    slack slack_scale * (1 + |lhs| + |rhs|)."""
    cells = _cells(config)
    xg = _x_grid(config)
    cache: dict[int, dict] = {}
    for ci, (psi, n) in enumerate(cells):
        s_vec = 2.0 / PI * np.abs(np.sin((2 * n - 1) * xg / 2.0))
        T = tail_sum(psi, n)
        W = weighted_tail(psi, n)
        entry = {
            "label": psi.label(),
            "s_vec": s_vec,
            "dt_hi": double_tail(psi, n).hi,
            "tw_hi": T.hi + W.hi,
            "thm2_lo": s_vec * (T.value - (1.0 + PI) * W.hi),
            "thm2_hi": s_vec * (T.hi + W.hi),
            "xk": nodes(n).nodes,
            "dual": None,
        }
        if config.with_duality:
            entry["dual"] = duality_sup_batch(psi, config.beta, n, xg,
                                              config.duality_grid)
        cache[ci] = entry

    rows: list[BoundReport] = []
    for i in range(config.n_functions):
        ci = i % len(cells)
        psi, n = cells[ci]
        ent = cache[ci]
        rng = np.random.default_rng([config.seed, i])
        phi = _random_phi(rng, n)
        spec = KernelSpec(psi, config.beta)
        f = psi_integral(spec, phi)
        E = best_l1(phi, n, config.solver_grid).value
        p = interpolate(f(ent["xk"]), n)
        lhs = np.abs(f(xg) - p(xg))
        rhs1 = ent["s_vec"] * ent["dt_hi"] * E
        rhs1m = ent["s_vec"] * ent["tw_hi"] * E
        for j, x in enumerate(xg):
            slack = config.slack_scale * (1.0 + lhs[j] + rhs1[j])
            dual = ent["dual"][j] if ent["dual"] is not None else None
            ok_dual = None
            if dual is not None:
                t2 = Interval(ent["thm2_lo"][j], ent["thm2_hi"][j])
                ok_dual = bool(t2.contains_interval(
                    dual, slack=config.slack_scale * (1.0 + abs(t2.hi))))
            rows.append(BoundReport(
                psi=ent["label"], beta=config.beta, n=n, phi_index=i,
                x=float(x), lhs=float(lhs[j]), E=E,
                rhs_thm1=float(rhs1[j]), rhs_thm1_modified=float(rhs1m[j]),
                thm2_lo=float(ent["thm2_lo"][j]),
                thm2_hi=float(ent["thm2_hi"][j]),
                dual_lo=None if dual is None else dual.lo,
                dual_hi=None if dual is None else dual.hi,
                ok_thm1=bool(lhs[j] <= rhs1[j] + slack),
                ok_dual_in_thm2=ok_dual))

    rows.sort(key=lambda r: (r.psi, r.n, r.phi_index, r.x))
    summary = _summarize(rows, lhs_of=lambda r: r.lhs,
                         rhs_of=lambda r: r.rhs_thm1,
                         ok_of=lambda r: r.ok_thm1)
    _emit(rows, summary, out_csv, out_json)
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
    rows: list[SharpnessRow] = []
    for spec in config.psi_specs:
        psi = psi_from_dict(dict(spec))
        for n in config.n_list:
            n = int(n)
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
            rows.append(SharpnessRow(
                psi=psi.label(), n=n, x=x, ratio=ratio,
                env_lo=env_lo, env_hi=env_hi,
                gap_to_one=abs(ratio - 1.0), limit_ratio=lr))
    rows.sort(key=lambda r: (r.psi, r.n))
    summary = {
        "pass": len(rows),
        "fail": 0,
        "worst_ratio": max((r.gap_to_one for r in rows), default=0.0),
    }
    _emit(rows, summary, out_csv, out_json)
    return rows, summary


def classical_lebesgue_check(config: ExperimentConfig,
                             out_csv: str | None = None,
                             out_json: str | None = None):
    """Sanity check against the classical route: |f - interpolant| <=
    (1 + Lebesgue function) * E_n(f) in the uniform metric.  The ratio of
    the tail-based rhs to the classical rhs is emitted as data, never
    asserted."""
    cells = _cells(config)
    labels = [psi.label() for psi, _ in cells]
    xg = _x_grid(config)
    rows: list[ClassicalReport] = []
    for i in range(config.n_functions):
        ci = i % len(cells)
        psi, n = cells[ci]
        rng = np.random.default_rng([config.seed, i])
        phi = _random_phi(rng, n)
        spec = KernelSpec(psi, config.beta)
        f = psi_integral(spec, phi)
        Eu = best_uniform(f, n, config.solver_grid).value
        El = best_l1(phi, n, config.solver_grid).value
        p = interpolate(f(nodes(n).nodes), n)
        lhs = np.abs(f(xg) - p(xg))
        Lx = lebesgue_fn(n, xg)
        rhs_c = (1.0 + Lx) * Eu
        s_vec = 2.0 / PI * np.abs(np.sin((2 * n - 1) * xg / 2.0))
        rhs1 = s_vec * double_tail(psi, n).hi * El
        with np.errstate(divide="ignore", invalid="ignore"):
            rat = np.where(rhs_c > 0.0, rhs1 / rhs_c, np.nan)
        for j, x in enumerate(xg):
            slack = config.slack_scale * (1.0 + lhs[j] + rhs_c[j])
            rows.append(ClassicalReport(
                psi=labels[ci], beta=config.beta, n=n, phi_index=i,
                x=float(x), lhs=float(lhs[j]), E_uniform=Eu,
                rhs_classical=float(rhs_c[j]), rhs_thm1=float(rhs1[j]),
                ratio_thm1_classical=float(rat[j]),
                ok=bool(lhs[j] <= rhs_c[j] + slack)))
    rows.sort(key=lambda r: (r.psi, r.n, r.phi_index, r.x))
    summary = _summarize(rows, lhs_of=lambda r: r.lhs,
                         rhs_of=lambda r: r.rhs_classical,
                         ok_of=lambda r: r.ok)
    _emit(rows, summary, out_csv, out_json)
    return rows, summary


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _summarize(rows, lhs_of, rhs_of, ok_of) -> dict:
    n_fail = sum(1 for r in rows if not ok_of(r))
    worst = 0.0
    for r in rows:
        rhs = rhs_of(r)
        if rhs > 0.0:
            worst = max(worst, lhs_of(r) / rhs)
    return {"pass": len(rows) - n_fail, "fail": n_fail, "worst_ratio": worst}


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_rows_csv(path: str, rows) -> None:
    if not rows:
        raise ValueError("no rows to write")
    names = [f.name for f in dataclasses.fields(rows[0])]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(names)
        for r in rows:
            w.writerow([_fmt(getattr(r, name)) for name in names])


def _emit(rows, summary: dict,
          out_csv: str | None, out_json: str | None) -> None:
    if out_csv is not None:
        _write_rows_csv(out_csv, rows)
    if out_json is not None:
        with open(out_json, "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")


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
