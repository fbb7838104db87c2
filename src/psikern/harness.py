"""End-to-end verification driver.

Generates seeded test functions, pushes them through the smoothing
operator, interpolates on the 2n-1 equidistant nodes, and checks the
pointwise deviation against every computable right-hand side.

Each function's rows are computed as one block of numpy columns over
the uniform x grid; its deviation there is interp.grid_deviation, two
inverse FFTs.  The CSV is written one block of text per function.  Its
floats are exactly repr's text: a numpy kernel (_float_words) writes a
block's float columns at once, and hands to repr only the elements its
error bound cannot decide.  The returned rows are a read-only sequence
over the blocks: NamedTuples (so `._asdict()` gives a dict) of plain
Python values, made one block at a time when they are iterated or
indexed, so a run holds no per-row objects.  Reports are deterministic: a fixed seed reproduces the CSV
byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
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
from .psi import (PsiFamily, _index, _real, limit_ratio, psi_from_dict,
                  tail_sum)
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

    def __post_init__(self):
        # every field through its kind's checker before a run reads it;
        # a run that would check nothing is refused too
        if not (self.psi_specs and self.n_list):
            raise ValueError("psi_specs and n_list must be nonempty")
        object.__setattr__(self, "psi_specs", tuple(self.psi_specs))
        object.__setattr__(self, "n_list", tuple(map(_index, self.n_list)))
        # count fields and their floors; the solvers' grid floor is 8n
        for key, floor in (("n_functions", 1), ("x_grid", 1), ("seed", 0),
                           ("solver_grid", 8 * max(self.n_list))):
            v = getattr(self, key)
            if v is not None or key != "solver_grid":
                object.__setattr__(self, key, _index(v, floor, key))
        _real(self.beta, "beta")
        _real(self.slack_scale, "slack_scale", 0.0, closed=True)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(d) - names
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
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
    return [(f, n) for f in fams for n in config.n_list]


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
            dual = duality_sup_batch(psi, config.beta, n, xg)
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
        iv = duality_sup(psi, config.beta, n, x)
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


def _text(v) -> str:
    """CSV text of one value: repr for numbers, 1/0 for bools, empty for
    None, and strings quoted by the csv module's rules."""
    if v is None:
        return ""
    if isinstance(v, str):
        line = _Line()
        csv.writer(line, lineterminator="").writerow([v])
        return line[0]
    v = np.asarray(v).item()        # numpy scalars as Python values
    if isinstance(v, bool):
        return "1" if v else "0"
    return repr(v)


# ---------------------------------------------------------------------------
# float text: repr's digits, in bulk
# ---------------------------------------------------------------------------

# |x| the kernel writes itself; outside, Dekker's split or the scaled
# product could overflow or leave the normal range
_KERNEL_RANGE = (1e-280, 1e280)
# scales 10**k for k in [_K_LO, _K_HI]: k = 16 - e10 over every decimal
# exponent e10 of that range, and one beyond each end for a misjudged
# log10
_K_LO, _K_HI = -270, 300
_SPLIT = 134217729.0                # 2**27 + 1, Dekker's split
# margin, in units of the 17th digit, inside which a tie or the half-ulp
# bound is left to repr; the scaled product is good to about 1e-15 there
_MARGIN = 1e-9
# one float's text is 48 slots, six 8-byte words: sign, "0." and three
# zeros, then 17 digits each followed by an optional ".", then "e", the
# exponent's sign and three exponent digits, and three slots never used.
# Unused slots hold NUL.  A whole number's zeros and ".0" are digit and
# dot slots: the digits past the significant ones are zeros.
_LEAD, _DIGITS, _EXP, _W = 1, 6, 40, 48
# the layouts: decimal point decpt in [-3, 16] written without an
# exponent, then exponents of two and of three digits
_FORMS = 22
# elements per kernel pass, so that its temporaries stay in cache
_CHUNK = 4096


def _words(text: list) -> np.ndarray:
    """Byte strings of at most 8 bytes as uint64 words, NUL padded."""
    return np.array(text, "S8").view(np.uint64)


def _layout(nd: np.ndarray, decpt: np.ndarray) -> np.ndarray:
    """The used slots of repr of a float with nd significant digits
    d1d2... and |x| = 0.d1d2... * 10**decpt.  Without an exponent
    (-4 < decpt <= 16) it is "0.", -decpt zeros and the digits, or the
    first max(nd, decpt + 1) digits with a "." after the first decpt;
    with one, the digits with a "." after the first."""
    sci = (decpt <= -4) | (decpt > 16)
    small = ~sci & (decpt <= 0)
    ndig = np.where(sci | small, nd, np.maximum(nd, decpt + 1))
    dot = np.where(sci, np.where(nd > 1, 0, -1),
                   np.where(small, -1, decpt - 1))
    used = np.zeros((nd.size, _W), bool)
    used[:, 0] = True           # the sign slot is NUL when x >= 0
    used[:, _LEAD:_LEAD + 2] = small[:, None]
    used[:, _LEAD + 2:_DIGITS] = np.arange(3) < np.where(small, -decpt,
                                                         0)[:, None]
    used[:, _DIGITS:_EXP:2] = np.arange(17) < ndig[:, None]
    used[:, _DIGITS + 1:_EXP:2] = np.arange(17) == dot[:, None]
    used[:, _EXP:_EXP + 2] = sci[:, None]
    used[:, _EXP + 2] = sci & (np.abs(decpt - 1) >= 100)
    used[:, _EXP + 3:_EXP + 5] = sci[:, None]
    return used


@functools.cache
def _float_tables():
    """The kernel's tables, built on the first write, not at import:
    10**k as the double-double hi + lo, each rounded from the exact
    value, for k in [_K_LO, _K_HI]; as words, the first word of a
    float's slots for each sign and leading digit, "d.d.d.d." for each
    chunk 0000..9999 of four digits, and "e" with the signed three-digit
    exponent for e10 in [-400, 400]; each chunk's trailing zeros (4 for
    0000); and the _layout of each digit count (row block) and form (row
    in the block) as masks, a word of 0xFF bytes over the used slots."""
    hi, lo = [], []
    for k in range(_K_LO, _K_HI + 1):
        # 10**k = num/den; int / int rounds correctly, and h = p/q exactly
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        h = num / den
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - p * den) / (den * q))
    # the four digits of each chunk, each followed by "."
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    chunks = np.full((10_000, 8), ord("."), np.uint8)
    chunks[:, ::2] = digits + ord("0")
    tz = np.argmax(digits[:, ::-1] != 0, axis=1)
    tz[0] = 4
    nd, form = np.divmod(np.arange(17 * _FORMS), _FORMS)
    decpt = np.select([form < 20, form == 20], [form - 3, 17], 101)
    masks = _layout(nd + 1, decpt).astype(np.uint8) * np.uint8(0xFF)
    return (np.array(hi), np.array(lo),
            _words([b"%s0.000%d." % (sign, d)
                    for sign in (b"\0", b"-") for d in range(10)]),
            chunks.view(np.uint64).ravel(),
            _words([b"e%+04d" % e for e in range(-400, 401)]), tz,
            masks.view(np.uint64))


def _scaled(a: np.ndarray, e10: np.ndarray, hi, lo):
    """(D, r): a * 10**(16 - e10) = D + r, D an int64 and |r| <= 1/2,
    from Dekker's exact two-product of a and hi plus a * lo.  For
    1e16 <= D < 1e17 the error in r is about 1e-15."""
    ph, pl = hi.take(16 - e10 - _K_LO), lo.take(16 - e10 - _K_LO)
    p = a * ph
    s = a * _SPLIT
    ah = s - (s - a)
    al = a - ah
    s = ph * _SPLIT
    bh = s - (s - ph)
    bl = ph - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    pi = np.rint(p)
    u = (p - pi) + (err + a * pl)
    ui = np.rint(u)
    return pi.astype(np.int64) + ui.astype(np.int64), u - ui


def _float_words(x: np.ndarray) -> np.ndarray:
    """repr of each element of the float64 vector x, as its row of the
    (len(x), _W // 8) uint64 result: the text's bytes in order, with NUL
    in the unused slots between and after them.

    The digits are the shortest that round back to x, and of those the
    nearest (Steele and White; Gay; Ryu).  With y = |x| * 10**(16 - e10)
    in [1e16, 1e17), D17 = round(y).  Every decimal of at most 15
    significant digits round-trips, so the nearest 15-digit decimal does
    whenever any shorter one does, and otherwise the nearest with 16 or
    17 digits is taken: the first whose distance to y is below half an
    ulp of x, scaled the same way.  Elements the kernel does not decide
    are written by repr: zeros, subnormals, nan and infinities, powers of
    two (their rounding interval is lopsided), |x| outside _KERNEL_RANGE,
    a carry into a new decade, and distances within _MARGIN of a tie or
    of the half-ulp bound."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    words = np.empty((x.size, _W // 8), np.uint64)
    for i in range(0, x.size, _CHUNK):
        _fill_words(x[i:i + _CHUNK], words[i:i + _CHUNK])
    return words


def _fill_words(x: np.ndarray, words: np.ndarray) -> None:
    """_float_words of the contiguous float64 vector x, into words."""
    hi, lo, leads, chunks, exps, chunk_tz, masks = _float_tables()
    n = x.size
    bits = x.view(np.uint64)
    a = np.abs(x)
    ok = ((a >= _KERNEL_RANGE[0]) & (a <= _KERNEL_RANGE[1])
          & (bits & np.uint64(2**52 - 1) != 0))
    a = np.where(ok, a, 1.5)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    D, r = _scaled(a, e10, hi, lo)
    off = (D < 10**16) | (D >= 10**17)
    if off.any():
        e10[off] += np.where(D[off] < 10**16, -1, 1)
        D[off], r[off] = _scaled(a[off], e10[off], hi, lo)
    # half an ulp of a, times the same 10**(16 - e10)
    half = np.ldexp(hi.take(16 - e10 - _K_LO), np.frexp(a)[1] - 54)
    # the nearest 16- and 15-digit decimals, and their distances to y
    q16 = D // 10
    q15 = D // 100
    u16 = (D - 10 * q16) + r
    u15 = (D - 100 * q15) + r
    up16, up15 = u16 > 5.0, u15 > 50.0
    d16, d15 = np.abs(u16 - 10.0 * up16), np.abs(u15 - 100.0 * up15)
    ok &= ((D >= 10**16) & (D < 10**17 - 50)
           & (np.abs(np.abs(r) - 0.5) > _MARGIN)
           & (np.abs(u16 - 5.0) > _MARGIN) & (np.abs(u15 - 50.0) > _MARGIN)
           & (np.abs(d16 - half) > _MARGIN) & (np.abs(d15 - half) > _MARGIN))
    D = np.where(d15 < half, (q15 + up15) * 100,
                 np.where(d16 < half, (q16 + up16) * 10, D))
    # repr overwrites these below; keep their table indices in range
    D[~ok] = 10**16
    e10[~ok] = 0

    # the leading digit and four chunks of four, and the trailing zeros
    lead = D // 10**16
    rest = D - lead * 10**16
    top = rest // 10**8
    low = rest - top * 10**8
    c = np.empty((n, 4), np.int64)
    c[:, 0] = top // 10**4
    c[:, 1] = top - c[:, 0] * 10**4
    c[:, 2] = low // 10**4
    c[:, 3] = low - c[:, 2] * 10**4
    tz = chunk_tz.take(c[:, 3])
    for j in (2, 1, 0):
        z = np.flatnonzero(tz == 12 - 4 * j)
        if not z.size:
            break
        tz[z] += chunk_tz.take(c[z, j])
    sci = (e10 < -4) | (e10 >= 16)
    form = np.where(sci, 20 + (np.abs(e10) >= 100), e10 + 4)

    words[:, 0] = leads.take((bits >> np.uint64(63)).astype(np.int64) * 10
                             + lead)
    words[:, 1:5] = chunks.take(c)
    words[:, 5] = exps.take(e10 + 400)
    words &= masks.take((16 - tz) * _FORMS + form, axis=0)

    bad = np.flatnonzero(~ok)
    if bad.size:
        text = [repr(v).encode() for v in x[bad].tolist()]
        words[bad] = np.array(text, f"S{_W}").view(np.uint64).reshape(
            bad.size, _W // 8)


def _block_columns(blocks: list):
    """Each block with its columns of Python values: a numpy column's
    list, and a single value repeated down the block.  A cell's blocks
    are adjacent, so its shared columns (x, thm2, duality) are converted
    once per run of blocks."""
    prev: dict = {}
    for b in blocks:
        m = np.size(b.x)
        cur = {id(v): prev.get(id(v)) or v.tolist()
               for v in b if isinstance(v, np.ndarray)}
        yield b, [cur[id(v)] if isinstance(v, np.ndarray) else repeat(v, m)
                  for v in b]
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
        for b, cols in _block_columns(self._blocks):
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
    are numpy columns (float or bool) or single values repeated down the
    block.  Its text is one uint8 matrix with a row per line, holding the
    words of each float column from _float_words, 1/0 for bools, and the
    _text of the single values with the commas and newline between them.
    With the unused slots' NULs dropped it is written in one piece, so
    the text of only one block is held at a time.  A cell's blocks are
    adjacent, so its shared float columns (x, thm2, duality) are
    converted once per run of blocks."""
    if not any(np.size(b.x) for b in blocks):
        raise ValueError("no rows to write")
    csv.writer(fh, lineterminator="\n").writerow(blocks[0]._fields)
    prev: dict = {}
    for b in blocks:
        m = np.size(b.x)
        cols = [v for v in b if isinstance(v, np.ndarray)]
        if any(v.dtype.kind not in "bf" for v in cols):
            raise TypeError("CSV columns are float or bool arrays")
        cur = {id(v): prev[id(v)] for v in cols if id(v) in prev}
        new = [v for v in cols if v.dtype.kind == "f" and id(v) not in cur]
        if new:
            words = _float_words(np.stack(new, axis=1).ravel())
            words = words.view(np.uint8).reshape(m, len(new), _W)
            cur.update((id(v), words[:, j]) for j, v in enumerate(new))
        # each field's bytes: a float column's words, a bool column's
        # 1/0, and the text of the single values and separators between
        # (one row, repeated down the block)
        parts, text = [], ""
        for v, sep in zip(b, [","] * (len(b) - 1) + ["\n"]):
            if not isinstance(v, np.ndarray):
                text += _text(v) + sep
                continue
            parts.append(text)
            parts.append(cur[id(v)] if v.dtype.kind == "f"
                         else (v.view(np.uint8) + ord("0"))[:, None])
            text = sep
        parts.append(text)
        if any(isinstance(p, str) and "\0" in p for p in parts):
            raise ValueError("a CSV field holds NUL")
        parts = [np.frombuffer(p.encode(), np.uint8) if isinstance(p, str)
                 else p for p in parts]
        chars = np.empty((m, sum(p.shape[-1] for p in parts)), np.uint8)
        o = 0
        for p in parts:
            chars[:, o:o + p.shape[-1]] = p
            o += p.shape[-1]
        fh.write(chars.tobytes().translate(None, b"\0").decode())
        prev = cur


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
