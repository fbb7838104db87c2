"""Command line front end.

Every verification subcommand exits 0 only when zero assertion rows
failed, so the tool can gate CI jobs directly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import namedtuple

import numpy as np

from .bestapprox import best_l1, best_uniform
from .bounds import (
    _duality_interval,
    thm1_rhs,
    thm1_rhs_modified,
    thm2_sup_bracket,
)
from .errors import PsikernError
from .harness import (
    ExperimentConfig,
    _write_csv,
    classical_lebesgue_check,
    sharpness_probe,
    verify_lebesgue,
)
from .interp import _residual, lebesgue_fn, nodes
from .psi import (
    _index,
    characteristics,
    class_check,
    double_tail,
    limit_ratio,
    psi_from_dict,
    tail_sum,
    weighted_tail,
)
from .trig import TrigPoly, _uniform_grid

# the tables of the lebesgue and bounds commands, each one CSV block
_LebesgueTable = namedtuple("_LebesgueTable", "x lebesgue residual")
_BoundsTable = namedtuple("_BoundsTable", "x rhs_thm1 rhs_thm1_modified "
                          "thm2_lo thm2_hi dual_lo dual_hi")


def _parse_n_list(text: str) -> tuple:
    return tuple(int(s) for s in text.split(",") if s.strip())


def _parse_fn(text: str) -> TrigPoly:
    """JSON TrigPoly dict, or the shorthands cosK / sinK."""
    text = text.strip()
    if text.startswith("{"):
        return TrigPoly.from_dict(json.loads(text))
    if text.startswith("cos"):
        return TrigPoly.harmonic(int(text[3:]), a=1.0)
    if text.startswith("sin"):
        return TrigPoly.harmonic(int(text[3:]), b=1.0)
    raise ValueError(f"cannot parse test function {text!r}")


def _config_from_args(args) -> ExperimentConfig:
    base: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            base = json.load(fh)
    if getattr(args, "psi", None):
        base["psi_specs"] = [json.loads(s) for s in args.psi]
    if getattr(args, "n", None):
        base["n_list"] = _parse_n_list(args.n)
    for key in _FLAGS:
        v = getattr(args, key, None)
        if v is not None:
            base[key] = v
    if getattr(args, "with_duality", False):
        base["with_duality"] = True
    return ExperimentConfig.from_dict(base)


# ExperimentConfig field -> (flag, type) for the optional scalar flags
_FLAGS = {"beta": ("--beta", float), "n_functions": ("--functions", int),
          "x_grid": ("--x-grid", int), "seed": ("--seed", int),
          "solver_grid": ("--solver-grid", int),
          "slack_scale": ("--slack-scale", float)}


def _add_config_flags(p: argparse.ArgumentParser, fields):
    """The config flags, with only those scalar flags whose fields the
    subcommand's harness function reads, so any other is a usage error."""
    p.add_argument("--config", help="JSON file with ExperimentConfig fields")
    p.add_argument("--psi", action="append",
                   help="family spec as JSON, repeatable")
    p.add_argument("--n", help="comma separated interpolation orders")
    for key in fields:
        flag, typ = _FLAGS[key]
        p.add_argument(flag, dest=key, type=typ)
    p.add_argument("--out-csv")
    p.add_argument("--out-json")


def _cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    _, summary = verify_lebesgue(cfg, out_csv=args.out_csv,
                                 out_json=args.out_json,
                                 plot_script=args.emit_plot_script)
    print(f"verify-lebesgue: pass={summary['pass']} fail={summary['fail']} "
          f"worst_ratio={summary['worst_ratio']:.6f}")
    return 0 if summary["fail"] == 0 else 1


def _cmd_sharpness(args) -> int:
    cfg = _config_from_args(args)
    rows, summary = sharpness_probe(cfg, out_csv=args.out_csv,
                                    out_json=args.out_json)
    for r in rows:
        print(f"{r.psi:32s} n={r.n:4d} ratio={r.ratio:.9f} "
              f"env=[{r.env_lo:.6f}, {r.env_hi:.6f}] |ratio-1|={r.gap_to_one:.3e}")
    return 0


def _cmd_classical(args) -> int:
    cfg = _config_from_args(args)
    _, summary = classical_lebesgue_check(cfg, out_csv=args.out_csv,
                                          out_json=args.out_json)
    print(f"classical-check: pass={summary['pass']} fail={summary['fail']} "
          f"worst_ratio={summary['worst_ratio']:.6f}")
    return 0 if summary["fail"] == 0 else 1


def _write_table(table, out_csv: str | None) -> None:
    """table as CSV to the file out_csv, or to stdout without one."""
    if not out_csv:
        _write_csv(sys.stdout, [table])
        return
    with open(out_csv, "w", newline="") as fh:
        _write_csv(fh, [table])


def _cmd_lebesgue(args) -> int:
    n = int(args.order)
    xg = _uniform_grid(_index(args.grid, 1, "grid"))
    L = lebesgue_fn(n, xg)
    R = _residual(n, xg, L)
    if args.out_csv:
        _write_table(_LebesgueTable(xg, L, R), args.out_csv)
    node_val = float(lebesgue_fn(n, nodes(n).nodes[0]))
    print(f"lebesgue: n={n} max={float(np.max(L)):.6f} "
          f"max|residual|={float(np.max(np.abs(R))):.6f} node_value={node_val!r}")
    return 0


def _cmd_bounds(args) -> int:
    psi = psi_from_dict(json.loads(args.psi))
    n = int(args.order)
    beta = args.beta or 0.0
    xg = _uniform_grid(_index(args.x_grid, 1, "x_grid"))
    # cached sums tighten as the caches grow, so the columns are taken in
    # this order: thm1, thm1-modified, thm2, then duality
    r1 = thm1_rhs(psi, n, xg, args.E)
    rm = thm1_rhs_modified(psi, n, xg, args.E)
    t2 = thm2_sup_bracket(psi, beta, n, xg)
    dual_lo = dual_hi = None
    if args.with_duality:
        dual = _duality_interval(psi, beta, n, xg)
        dual_lo, dual_hi = dual.lo, dual.hi
    _write_table(_BoundsTable(xg, r1, rm, t2.lo, t2.hi, dual_lo, dual_hi),
                 args.out_csv)
    return 0


def _cmd_bestapprox(args) -> int:
    f = _parse_fn(args.fn)
    n = int(args.order)
    solve = best_l1 if args.metric == "l1" else best_uniform
    res = solve(f, n, args.grid)
    out = {
        "metric": res.metric,
        "value": res.value,
        "grid_size": res.grid_size,
        "iterations": res.iterations,
        "argmin": res.argmin.to_dict(),
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_psi_info(args) -> int:
    psi = psi_from_dict(json.loads(args.psi))
    out = {"label": psi.label(), "kind": psi.kind,
           "ratio_limit": psi.ratio_limit,
           "m_alpha_member": psi.m_alpha_member}
    for n in _parse_n_list(args.n or "4"):
        entry = {"psi_n": psi.value(n)}
        # each certified sum as its enclosure [value, value_hi]
        for name, fn in (("tail_sum", tail_sum),
                         ("weighted_tail", weighted_tail),
                         ("double_tail", double_tail)):
            S = fn(psi, n)
            entry[name], entry[f"{name}_hi"] = S.value, S.hi
        entry["limit_ratio"] = limit_ratio(psi, n)
        try:
            ch = characteristics(psi, float(n))
            entry["characteristics"] = dataclasses.asdict(ch)
        except (PsikernError, ValueError):
            pass
        try:
            entry["class_flags"] = dataclasses.asdict(class_check(psi, [n])[n])
        except PsikernError:
            pass
        out[f"n={n}"] = entry
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="psikern",
        description="interpolation deviation bounds for smooth periodic classes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-lebesgue",
                       help="check deviations against the tail-sum rhs")
    _add_config_flags(p, _FLAGS)
    p.add_argument("--with-duality", action="store_true")
    p.add_argument("--emit-plot-script", metavar="PATH",
                   help="write a gnuplot script next to the CSV")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sharpness", help="duality/tail-sum ratio trend")
    _add_config_flags(p, ("beta",))
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("classical-check",
                       help="compare against the uniform-metric classical bound")
    _add_config_flags(p, ("beta", "n_functions", "x_grid", "seed",
                          "solver_grid", "slack_scale"))
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("lebesgue", help="Lebesgue function and log residual")
    p.add_argument("--order", required=True)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--out-csv")
    p.set_defaults(func=_cmd_lebesgue)

    p = sub.add_parser("bounds", help="tabulate every rhs for one family")
    p.add_argument("--psi", required=True, help="family spec as JSON")
    p.add_argument("--order", required=True)
    p.add_argument("--beta", type=float)
    p.add_argument("--E", type=float, default=1.0)
    p.add_argument("--x-grid", dest="x_grid", type=int, default=64)
    p.add_argument("--with-duality", action="store_true")
    p.add_argument("--out-csv")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("bestapprox", help="best L1 or uniform approximation")
    p.add_argument("--metric", choices=("l1", "sup"), default="l1")
    p.add_argument("--order", required=True)
    p.add_argument("--grid", type=int)
    p.add_argument("--fn", required=True,
                   help="TrigPoly JSON or cosK / sinK shorthand")
    p.set_defaults(func=_cmd_bestapprox)

    p = sub.add_parser("psi-info", help="tail sums and characteristics")
    p.add_argument("--psi", required=True, help="family spec as JSON")
    p.add_argument("--n", help="comma separated n values")
    p.set_defaults(func=_cmd_psi_info)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PsikernError, ValueError) as exc:
        # ValueError covers malformed specs/configs from the command line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
