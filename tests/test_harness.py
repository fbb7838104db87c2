"""Verification harness: determinism, schemas, emission, CLI wiring."""

import csv
import gc
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from psikern import (
    ExperimentConfig,
    best_l1,
    classical_lebesgue_check,
    duality_sup_batch,
    psi_from_dict,
    sharpness_probe,
    thm1_rhs,
    thm1_rhs_modified,
    thm2_sup_bracket,
    verify_lebesgue,
)
from psikern import harness
from psikern.cli import main as cli_main
from psikern.harness import _cells, _corpus
from psikern.interp import lebesgue_fn, lebesgue_residual
from psikern.trig import _uniform_grid

SMALL = ExperimentConfig(
    psi_specs=({"kind": "geometric", "q": 0.5},),
    n_list=(4,),
    n_functions=3,
    x_grid=32,
)


def test_config_round_trip_and_unknown_keys():
    c = ExperimentConfig.from_dict(SMALL.to_dict())
    assert c == SMALL
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"grid": 10})
    # lists from JSON become tuples
    c2 = ExperimentConfig.from_dict({"n_list": [2, 3]})
    assert c2.n_list == (2, 3)


def test_verify_small_run_passes():
    rows, summary = verify_lebesgue(SMALL)
    assert len(rows) == 3 * 32
    assert summary["fail"] == 0 and summary["pass"] == len(rows)
    assert 0.0 < summary["worst_ratio"] <= 1.0
    for r in rows:
        assert r.lhs <= r.rhs_thm1 + 1e-9 * (1.0 + r.lhs + r.rhs_thm1)
        assert r.rhs_thm1 <= r.rhs_thm1_modified + 1e-15
        assert r.thm2_lo <= r.thm2_hi
        assert r.dual_lo is None and r.ok_dual_in_thm2 is None
        assert r.psi == "geometric(q=0.5)"


def test_verify_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    verify_lebesgue(SMALL, out_csv=str(p1))
    verify_lebesgue(SMALL, out_csv=str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2 and len(b1) > 1000


def test_csv_and_json_emission(tmp_path):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "summary.json"
    rows, summary = verify_lebesgue(SMALL, out_csv=str(csv_path),
                                    out_json=str(json_path))
    with open(csv_path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["psi", "beta", "n", "phi_index", "x", "lhs", "E",
                      "rhs_thm1", "rhs_thm1_modified", "thm2_lo", "thm2_hi",
                      "dual_lo", "dual_hi", "ok_thm1", "ok_dual_in_thm2"]
    assert len(got) == len(rows) + 1
    first = got[1]
    assert first[13] == "1" and first[14] == ""    # bool and absent dual
    assert float(first[5]) == rows[0].lhs          # repr round trips
    assert json.loads(json_path.read_text()) == summary


def test_duality_columns_when_enabled():
    cfg = ExperimentConfig(
        psi_specs=({"kind": "geometric", "q": 0.5},),
        n_list=(4,), n_functions=1, x_grid=8, with_duality=True)
    rows, _ = verify_lebesgue(cfg)
    for r in rows:
        assert r.dual_lo is not None and r.dual_hi is not None
        assert r.dual_lo <= r.dual_hi
        assert r.ok_dual_in_thm2 is True
        assert r.thm2_lo - 1e-9 <= r.dual_lo and r.dual_hi <= r.thm2_hi + 1e-9


def test_plot_script_contents(tmp_path):
    csv_path = tmp_path / "rows.csv"
    gp_path = tmp_path / "plot.gp"
    verify_lebesgue(SMALL, out_csv=str(csv_path), plot_script=str(gp_path))
    text = gp_path.read_text()
    assert "plot " in text and str(csv_path) in text
    assert "set datafile separator ','" in text


def test_sharpness_rows_approach_one():
    cfg = ExperimentConfig(
        psi_specs=({"kind": "geometric", "q": math.exp(-1.0)},),
        n_list=(4, 8, 16))
    rows, summary = sharpness_probe(cfg)
    assert [r.n for r in rows] == [4, 8, 16]
    gaps = [r.gap_to_one for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    for r in rows:
        assert r.env_lo <= r.ratio <= r.env_hi
        assert r.x == pytest.approx(math.pi / (2 * r.n - 1))
        assert r.limit_ratio > 0.0
    assert summary["fail"] == 0


def test_classical_check_small_run():
    rows, summary = classical_lebesgue_check(SMALL)
    assert summary["fail"] == 0
    assert len(rows) == 3 * 32
    for r in rows:
        assert r.lhs <= r.rhs_classical + 1e-9 * (1.0 + r.lhs + r.rhs_classical)
        assert r.E_uniform >= 0.0
        assert math.isnan(r.ratio_thm1_classical) or r.ratio_thm1_classical >= 0.0


def test_function_corpus_spreads_over_cells():
    cfg = ExperimentConfig(
        psi_specs=({"kind": "geometric", "q": 0.5},
                   {"kind": "neumann", "q": 0.5}),
        n_list=(4, 8), n_functions=8, x_grid=4)
    rows, _ = verify_lebesgue(cfg)
    seen = {(r.psi, r.n, r.phi_index) for r in rows}
    # 8 functions round robin over 4 cells: 2 functions per cell
    assert len(seen) == 8
    per_cell: dict = {}
    for p, n, i in seen:
        per_cell.setdefault((p, n), set()).add(i)
    assert all(len(v) == 2 for v in per_cell.values())


def test_cli_psi_info_and_bestapprox(capsys):
    rc = cli_main(["psi-info", "--psi", '{"kind": "geometric", "q": 0.5}',
                   "--n", "4,8"])
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    assert info["label"] == "geometric(q=0.5)"
    assert info["n=4"]["tail_sum"] == pytest.approx(0.125, rel=1e-14)
    assert info["n=4"]["class_flags"]["is_dq"] is True
    assert info["n=8"]["limit_ratio"] == pytest.approx(0.125, rel=1e-12)

    rc = cli_main(["bestapprox", "--metric", "l1", "--order", "2",
                   "--grid", "128", "--fn", "cos2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["metric"] == "L1"
    assert out["value"] == pytest.approx(3.996786721940289, rel=1e-6)


def test_cli_psi_info_reports_enclosures(capsys):
    rc = cli_main(["psi-info", "--psi", '{"kind": "power", "r": 3}',
                   "--n", "1"])
    assert rc == 0
    entry = json.loads(capsys.readouterr().out)["n=1"]
    for name in ("tail_sum", "weighted_tail", "double_tail"):
        assert entry[name] <= entry[f"{name}_hi"]
    # the n = 1 double tail of k^-3 is sum_k k * k^-3 = zeta(2)
    assert entry["double_tail"] <= math.pi ** 2 / 6 <= entry["double_tail_hi"]


def test_cli_verify_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL.to_dict()))
    out_csv = tmp_path / "rows.csv"
    rc = cli_main(["verify-lebesgue", "--config", str(cfg_path),
                   "--out-csv", str(out_csv)])
    capsys.readouterr()
    assert rc == 0
    assert out_csv.exists()
    # domain errors exit 2
    rc = cli_main(["psi-info", "--psi", '{"kind": "no_such_family"}',
                   "--n", "4"])
    capsys.readouterr()
    assert rc == 2


def test_cli_lebesgue_and_bounds(capsys, tmp_path):
    rc = cli_main(["lebesgue", "--order", "6", "--grid", "64"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max" in out and "node_value" in out

    path = tmp_path / "leb.csv"
    rc = cli_main(["lebesgue", "--order", "4", "--grid", "4",
                   "--out-csv", str(path)])
    assert rc == 0
    text = path.read_text()
    assert "np.float64(" not in text
    got = list(csv.reader(text.splitlines()))
    assert got[0] == ["x", "lebesgue", "residual"] and len(got) == 5
    assert all(len(r) == 3 and all(math.isfinite(float(c)) for c in r)
               for r in got[1:])

    rc = cli_main(["bounds", "--psi", '{"kind": "geometric", "q": 0.5}',
                   "--order", "5", "--beta", "0.0", "--E", "1.0",
                   "--x-grid", "16"])
    assert rc == 0
    assert "rhs_thm1" in capsys.readouterr().out

    # every column is one array-x library call, replayed in the command's
    # order on a fresh family (cached tails tighten as the cache grows)
    rc = cli_main(["bounds", "--psi", json.dumps(GEN_POISSON), "--order", "5",
                   "--beta", "0.3", "--E", "1.3", "--x-grid", "16",
                   "--with-duality"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "np.float64(" not in text
    got = list(csv.reader(text.splitlines()))
    assert got[0] == ["x", "rhs_thm1", "rhs_thm1_modified", "thm2_lo",
                      "thm2_hi", "dual_lo", "dual_hi"]
    psi = psi_from_dict(GEN_POISSON)
    xs = 2.0 * np.pi * np.arange(16) / 16
    r1 = thm1_rhs(psi, 5, xs, 1.3)
    rm = thm1_rhs_modified(psi, 5, xs, 1.3)
    t2 = thm2_sup_bracket(psi, 0.3, 5, xs)
    dual = duality_sup_batch(psi, 0.3, 5, xs)
    want = [xs, r1, rm, t2.lo, t2.hi, [iv.lo for iv in dual],
            [iv.hi for iv in dual]]
    assert np.array_equal(np.array(got[1:], dtype=float), np.transpose(want))


def _blocks(rows):
    """Rows grouped per test function: {(psi, n, phi_index): rows}."""
    out = {}
    for r in rows:
        out.setdefault((r.psi, r.n, r.phi_index), []).append(r)
    return out


def _col(rows, name):
    return np.array([getattr(r, name) for r in rows])


def test_harness_bound_columns_come_from_bounds():
    """Each function's bound columns equal the array-x bounds.py calls bit
    for bit.  Cached tails tighten as a family's cache grows, so the calls
    replay the harness's order on fresh families: for verify, one n per
    family, then thm2_sup_bracket, thm1_rhs and duality_sup_batch per cell
    (thm1_rhs_modified, thm2's upper end times E, on a family of its
    own); for classical, thm1_rhs after each function's kernel image."""
    specs = (GEN_POISSON, EVEN_ODD, GEOMETRIC)
    cfg = ExperimentConfig(psi_specs=specs, n_list=(3,), n_functions=6,
                           x_grid=32, beta=0.4, with_duality=True)
    rows, _ = verify_lebesgue(cfg)
    blocks = _blocks(rows)
    assert len(blocks) == 6
    for spec in specs:
        psi = psi_from_dict(dict(spec))
        mine = [b for k, b in blocks.items() if k[0] == psi.label()]
        xs = _col(mine[0], "x")
        t2 = thm2_sup_bracket(psi, 0.4, 3, xs)
        r1 = [thm1_rhs(psi, 3, xs, b[0].E) for b in mine]
        dual = duality_sup_batch(psi, 0.4, 3, xs)
        for b, want in zip(mine, r1):
            assert np.array_equal(_col(b, "x"), xs)
            assert np.array_equal(_col(b, "thm2_lo"), t2.lo)
            assert np.array_equal(_col(b, "thm2_hi"), t2.hi)
            assert np.array_equal(_col(b, "rhs_thm1"), want)
            assert np.array_equal(
                _col(b, "rhs_thm1_modified"),
                thm1_rhs_modified(psi_from_dict(dict(spec)), 3, xs, b[0].E))
            assert np.array_equal(_col(b, "dual_lo"), [iv.lo for iv in dual])
            assert np.array_equal(_col(b, "dual_hi"), [iv.hi for iv in dual])

    cfg = ExperimentConfig(psi_specs=(GEN_POISSON, EVEN_ODD), n_list=(3, 4),
                           n_functions=4, x_grid=16)
    rows, _ = classical_lebesgue_check(cfg)
    blocks = _blocks(rows)
    for _, i, psi, n, phi, _ in _corpus(cfg, _cells(cfg)):
        b = blocks[(psi.label(), n, i)]
        xs = _col(b, "x")
        El = best_l1(phi, n, cfg.solver_grid).value
        assert np.array_equal(_col(b, "rhs_thm1"), thm1_rhs(psi, n, xs, El))


EVEN_ODD = {"kind": "even_odd", "q1": 0.9, "q2": 0.5}   # label has commas
GEOMETRIC = {"kind": "geometric", "q": 0.5}
GEN_POISSON = {"kind": "gen_poisson", "alpha": 1.0, "r": 0.5}


def _csv_text(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _check_csv_contract(path, rows, types):
    """Every CSV field is the text of its row value, and every row value
    has its declared Python type."""
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == list(rows[0]._fields)
    assert got[1:] == [[_csv_text(v) for v in r] for r in rows]
    for r in rows:
        for name, v in r._asdict().items():
            assert type(v) is types.get(name, float), (name, v)


def test_csv_contract_verify_with_duality(tmp_path):
    cfg = ExperimentConfig(psi_specs=(EVEN_ODD, GEOMETRIC),
                           n_list=(3,), n_functions=2, x_grid=16,
                           with_duality=True)
    rows, _ = verify_lebesgue(cfg, out_csv=str(tmp_path / "v.csv"))
    _check_csv_contract(tmp_path / "v.csv", rows, {
        "psi": str, "n": int, "phi_index": int, "ok_thm1": bool,
        "ok_dual_in_thm2": bool})
    assert all(r.ok_dual_in_thm2 is True for r in rows)
    assert '"even_odd(q1=0.9,q2=0.5)"' in (tmp_path / "v.csv").read_text()


def test_csv_contract_classical(tmp_path):
    cfg = ExperimentConfig(psi_specs=(EVEN_ODD,), n_list=(3,),
                           n_functions=2, x_grid=16)
    rows, _ = classical_lebesgue_check(cfg, out_csv=str(tmp_path / "c.csv"))
    _check_csv_contract(tmp_path / "c.csv", rows, {
        "psi": str, "n": int, "phi_index": int, "ok": bool})


def test_csv_contract_sharpness(tmp_path):
    cfg = ExperimentConfig(psi_specs=(EVEN_ODD, GEOMETRIC),
                           n_list=(4, 8))
    rows, _ = sharpness_probe(cfg, out_csv=str(tmp_path / "s.csv"))
    assert len(rows) == 4
    _check_csv_contract(tmp_path / "s.csv", rows, {"psi": str, "n": int})


def _repr_csv(fields, rows) -> bytes:
    """The CSV as a writer of one repr per float would write it: the
    csv module over each row value's text."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([_csv_text(v) for v in r] for r in rows)
    return out.getvalue().encode()


@pytest.mark.parametrize("check,config", [
    (verify_lebesgue, ExperimentConfig(
        psi_specs=(EVEN_ODD, GEOMETRIC, GEN_POISSON), n_list=(3, 5),
        n_functions=8, x_grid=48, with_duality=True)),
    (classical_lebesgue_check, ExperimentConfig(
        psi_specs=(EVEN_ODD, GEOMETRIC), n_list=(3, 4), n_functions=8,
        x_grid=48)),
    (sharpness_probe, ExperimentConfig(
        psi_specs=(EVEN_ODD, GEOMETRIC), n_list=(4, 8))),
], ids=["verify_with_duality", "classical", "sharpness"])
def test_csv_bytes_match_a_repr_writer(tmp_path, check, config):
    path = tmp_path / "r.csv"
    rows, _ = check(config, out_csv=str(path))
    assert path.read_bytes() == _repr_csv(rows[0]._fields, rows)


def test_cli_tables_match_a_repr_writer(tmp_path, capsys):
    n, xg = 8, _uniform_grid(40)
    bounds_csv, leb_csv = tmp_path / "b.csv", tmp_path / "l.csv"
    assert cli_main(["bounds", "--psi", json.dumps(GEN_POISSON), "--order",
                     str(n), "--x-grid", "40", "--with-duality"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert cli_main(["bounds", "--psi", json.dumps(GEN_POISSON), "--order",
                     str(n), "--x-grid", "40", "--with-duality",
                     "--out-csv", str(bounds_csv)]) == 0
    assert cli_main(["lebesgue", "--order", str(n), "--grid", "40",
                     "--out-csv", str(leb_csv)]) == 0
    # the bounds command's columns, in its order, on a fresh family
    psi = psi_from_dict(GEN_POISSON)
    r1 = thm1_rhs(psi, n, xg, 1.0)
    rm = thm1_rhs_modified(psi, n, xg, 1.0)
    t2 = thm2_sup_bracket(psi, 0.0, n, xg)
    dual = duality_sup_batch(psi, 0.0, n, xg)
    want = _repr_csv(
        ("x", "rhs_thm1", "rhs_thm1_modified", "thm2_lo", "thm2_hi",
         "dual_lo", "dual_hi"),
        zip(xg.tolist(), r1.tolist(), rm.tolist(), t2.lo.tolist(),
            t2.hi.tolist(), [iv.lo for iv in dual], [iv.hi for iv in dual]))
    assert stdout == want and bounds_csv.read_bytes() == want
    assert leb_csv.read_bytes() == _repr_csv(
        ("x", "lebesgue", "residual"),
        zip(xg.tolist(), lebesgue_fn(n, xg).tolist(),
            lebesgue_residual(n, xg).tolist()))


def _kernel_sample(rng) -> np.ndarray:
    """Just over 10^6 float64 values: random bit patterns over every
    exponent, zeros, nan and infinities, subnormals, every power of two,
    10^k and its neighbours, integers near 2^53 and 10^16, values just
    below a power of ten (their rounding carries into the next decade),
    short decimals, and normal samples over 1e-300..1e300 and, the most,
    over 1e-20..1e20, where report values lie (repr is slowest on large
    exponents, and it bounds the test's time)."""
    def signed(v):
        return np.concatenate([v, -v])

    def spread(size, decades):
        return rng.standard_normal(size) * 10.0 ** rng.uniform(
            -decades, decades, size)

    tens = np.array([float(f"1e{k}") for k in range(-30, 31)])
    near_tens = np.concatenate([
        tens, np.nextafter(tens, np.inf), np.nextafter(tens, 0.0),
        *(tens * (1.0 - s * 2.0 ** -53) for s in range(1, 65))])
    ints = np.concatenate([2.0 ** 53 + np.arange(-2000, 2000),
                           1e16 + 2.0 * np.arange(-2000, 2000)])
    return np.concatenate([
        rng.integers(0, 2**64, 80_000, dtype=np.uint64).view(np.float64),
        signed(np.array([0.0, np.inf, 5e-324, 2.2250738585072009e-308])),
        [np.nan],
        signed(rng.integers(1, 2**52, 5_000, dtype=np.uint64).view(
            np.float64)),
        signed(np.ldexp(1.0, np.arange(-1074, 1024))),
        signed(near_tens), signed(ints),
        rng.integers(-10**7, 10**7, 420_000)
        / 10.0 ** rng.integers(0, 12, 420_000),
        spread(30_000, 300), spread(450_000, 20)])


def test_float_words_match_repr_on_a_million_values(monkeypatch):
    fallback = []

    def counting_repr(v):
        fallback.append(v)
        return repr(v)

    # the kernel's fallback calls the module's repr
    monkeypatch.setattr(harness, "repr", counting_repr, raising=False)
    x = _kernel_sample(np.random.default_rng(20261019))
    assert x.size >= 10**6
    for i in range(0, x.size, 2**16):
        chunk = x[i:i + 2**16]
        slots = harness._float_words(chunk).view(np.uint8)
        # the last slot is never used: a newline there ends each text
        assert not slots[:, -1].any()
        slots[:, -1] = ord("\n")
        got = slots.tobytes()
        want = ("\n".join(map(repr, chunk.tolist())) + "\n").encode()
        if got.translate(None, b"\0") != want:
            bad = next(v for v, s in zip(chunk.tolist(), slots)
                       if s[:-1].tobytes().translate(None, b"\0")
                       != repr(v).encode())
            pytest.fail(f"{bad!r} written as "
                        f"{harness._float_words(np.array([bad])).tobytes()!r}")
    # the fallback ran, and not only on the values the kernel never takes
    # (zeros, nan, infinities, subnormals, powers of two, huge or tiny)
    f = np.array(fallback)
    regular = (np.abs(f) >= 1e-280) & (np.abs(f) <= 1e280) \
        & (np.frexp(f)[0] != 0.5) & (np.frexp(f)[0] != -0.5)
    assert f.size and regular.any()


@pytest.mark.parametrize("check", [verify_lebesgue, classical_lebesgue_check])
def test_rows_and_csv_sorted_by_label_n_function_x(tmp_path, check):
    # specs and n listed against sort order, so the corpus order differs
    cfg = ExperimentConfig(psi_specs=({"kind": "neumann", "q": 0.5},
                                      GEOMETRIC),
                           n_list=(8, 4), n_functions=8, x_grid=8)
    rows, _ = check(cfg, out_csv=str(tmp_path / "r.csv"))
    key = lambda r: (r.psi, r.n, r.phi_index, r.x)
    assert rows == sorted(rows, key=key)
    assert rows[0].psi == "geometric(q=0.5)" and rows[0].n == 4
    with open(tmp_path / "r.csv", newline="") as fh:
        got = [(p, int(n), int(i), float(x))
               for p, _, n, i, x, *_ in list(csv.reader(fh))[1:]]
    assert got == [key(r) for r in rows]


# every scalar config flag, with the ExperimentConfig field it sets
CLI_FLAGS = {"--beta": ("beta", 0.3), "--seed": ("seed", 77),
             "--x-grid": ("x_grid", 24), "--functions": ("n_functions", 4),
             "--solver-grid": ("solver_grid", 96),
             "--slack-scale": ("slack_scale", 1e-8)}


@pytest.mark.parametrize("command,check,flags,extra", [
    ("verify-lebesgue", verify_lebesgue, tuple(CLI_FLAGS),
     ("--with-duality",)),
    ("classical-check", classical_lebesgue_check,
     ("--beta", "--seed", "--x-grid", "--functions", "--solver-grid",
      "--slack-scale"), ()),
], ids=["verify", "classical"])
def test_cli_flags_give_the_library_csv(tmp_path, capsys, command, check,
                                        flags, extra):
    """Each flag lands in its config field: the command's CSV is the
    library's, byte for byte, on the equivalent ExperimentConfig."""
    out = tmp_path / "cli.csv"
    argv = [command, "--psi", json.dumps(GEN_POISSON), "--psi",
            json.dumps(GEOMETRIC), "--n", "3,5", "--out-csv", str(out)]
    for flag in flags:
        argv += [flag, str(CLI_FLAGS[flag][1])]
    assert cli_main(argv + list(extra)) == 0
    assert f"{command}: pass=" in capsys.readouterr().out
    fields = dict(CLI_FLAGS[f] for f in flags)
    cfg = ExperimentConfig(psi_specs=(GEN_POISSON, GEOMETRIC), n_list=(3, 5),
                           with_duality=bool(extra), **fields)
    check(cfg, out_csv=str(tmp_path / "lib.csv"))
    assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()


def test_cli_sharpness_rows(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = cli_main(["sharpness", "--psi", json.dumps(GEOMETRIC), "--psi",
                   json.dumps(EVEN_ODD), "--n", "4,8", "--beta", "0.5",
                   "--out-csv", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    cfg = ExperimentConfig(psi_specs=(GEOMETRIC, EVEN_ODD), n_list=(4, 8),
                           beta=0.5)
    rows, _ = sharpness_probe(cfg)
    assert [(r.psi, r.n) for r in rows] == [
        ("even_odd(q1=0.9,q2=0.5)", 4), ("even_odd(q1=0.9,q2=0.5)", 8),
        ("geometric(q=0.5)", 4), ("geometric(q=0.5)", 8)]
    assert len(lines) == len(rows)
    assert all(f"ratio={r.ratio:.9f}" in line for r, line in zip(rows, lines))
    got = list(csv.reader(out.read_text().splitlines()))
    assert got[1:] == [[_csv_text(v) for v in r] for r in rows]


@pytest.mark.parametrize("argv", [
    ["sharpness", "--seed", "3"], ["sharpness", "--x-grid", "32"],
    ["sharpness", "--solver-grid", "128"], ["sharpness", "--slack-scale", "1"],
    ["sharpness", "--functions", "4"],
    ["classical-check", "--duality-grid", "512"],
    ["classical-check", "--with-duality"]])
def test_cli_refuses_flags_the_command_does_not_read(argv, capsys):
    # a flag the harness function never reads is a usage error (exit 2),
    # not a silent no-op
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + ["--psi", json.dumps(GEOMETRIC), "--n", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-lebesgue", "--with-duality", "--n", "4"],
    ["sharpness", "--n", "4"],
    ["bounds", "--order", "4", "--with-duality"]],
    ids=["verify", "sharpness", "bounds"])
def test_no_command_takes_a_duality_grid(argv, capsys):
    # the duality grid is fixed at max(16n, 256) points: no flag sets it,
    # and no config holds it
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + ["--psi", json.dumps(GEOMETRIC),
                         "--duality-grid", "512"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --duality-grid 512" in \
        capsys.readouterr().err
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"duality_grid": 512})


def test_cli_names_the_typed_error(capsys):
    # a subnormal duality kernel is refused, not returned as a wrong interval
    rc = cli_main(["bounds", "--psi", json.dumps(GEOMETRIC), "--order", "1074",
                   "--x-grid", "4", "--with-duality"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: HypothesisUnmet: ")


def _rows_from_csv(path, cls, types):
    """The rows rebuilt from the CSV text: an empty field is None, a bool
    field 1/0, and any other field its declared type (float by default)."""
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == list(cls._fields)

    def value(name, text):
        if text == "":
            return None
        kind = types.get(name, float)
        return text == "1" if kind is bool else kind(text)

    return [cls(*map(value, cls._fields, line)) for line in got[1:]]


PLAIN = {str, float, int, bool, type(None)}
ROW_VIEWS = {
    "verify": (verify_lebesgue, ExperimentConfig(
        psi_specs=(EVEN_ODD, GEOMETRIC), n_list=(3, 5), n_functions=6,
        x_grid=16, with_duality=True), {
        "psi": str, "n": int, "phi_index": int, "ok_thm1": bool,
        "ok_dual_in_thm2": bool}),
    "classical": (classical_lebesgue_check, ExperimentConfig(
        psi_specs=(EVEN_ODD, GEOMETRIC), n_list=(3,), n_functions=4,
        x_grid=16), {"psi": str, "n": int, "phi_index": int, "ok": bool}),
    "sharpness": (sharpness_probe, ExperimentConfig(
        psi_specs=(EVEN_ODD, GEOMETRIC), n_list=(4, 8)),
        {"psi": str, "n": int}),
}


@pytest.mark.parametrize("case", ROW_VIEWS)
def test_rows_view_behaves_like_the_list_it_replaces(tmp_path, case):
    """The returned rows, made per block on access, are the rows of the
    CSV: in length, iteration, indexing (a middle block's first and last
    row too), slicing, equality and types."""
    check, cfg, types = ROW_VIEWS[case]
    rows, _ = check(cfg, out_csv=str(tmp_path / "r.csv"))
    want = _rows_from_csv(tmp_path / "r.csv", type(rows[0]), types)
    assert len(rows) == len(want) > 0
    assert list(rows) == want and list(rows) == want    # iterates again
    assert rows == list(rows) and list(rows) == rows
    assert rows != want[:-1] and rows != want[1:] + want[:1]

    key = lambda r: (r.psi, r.n, getattr(r, "phi_index", None))
    starts = [k for k in range(len(want))
              if k == 0 or key(want[k]) != key(want[k - 1])]
    assert len(starts) >= 3
    first = starts[len(starts) // 2]
    last = starts[len(starts) // 2 + 1] - 1
    for k in (0, -1, first - 1, first, last, last + 1, -len(want)):
        assert rows[k] == want[k]
        assert type(rows[k]) is type(want[k])
        assert all(type(v) in PLAIN for v in rows[k]), rows[k]
    assert rows[first - 1:last + 2] == want[first - 1:last + 2]
    assert rows[::-5] == want[::-5]
    assert rows[len(want) + 3:] == []
    for k in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            rows[k]
    with pytest.raises(TypeError):
        rows[0] = want[1]
    assert rows[last]._asdict() == want[last]._asdict()
    assert all(type(v) in PLAIN for r in rows for v in r)


def _traced_peak(check, n_functions, path):
    cfg = ExperimentConfig(psi_specs=(GEOMETRIC,), n_list=(4,),
                           n_functions=n_functions, x_grid=2048)
    gc.collect()
    tracemalloc.start()
    try:
        rows, _ = check(cfg, out_csv=str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return len(rows), peak


@pytest.mark.parametrize("check", [verify_lebesgue, classical_lebesgue_check])
def test_memory_per_row_stays_small(tmp_path, check):
    """A run with the CSV holds no per-row objects: from 8 to 32 functions
    (16,384 to 65,536 rows) the traced peak grows by under 100 bytes a
    row.  A list of row tuples costs about 260 bytes a row."""
    path = tmp_path / "m.csv"
    _traced_peak(check, 1, path)    # the memos and caches fill here
    rows8, peak8 = _traced_peak(check, 8, path)
    rows32, peak32 = _traced_peak(check, 32, path)
    assert rows32 - rows8 == 24 * 2048
    assert (peak32 - peak8) / (rows32 - rows8) < 100
