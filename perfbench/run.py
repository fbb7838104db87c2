"""psikern benchmark: one workload per process, certified outputs checked.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 48 --trace 0

Run from the root of a source checkout; psikern is imported from ./src.
A run
  1. repeats untraced passes of the workload for about --seconds, and
     between them times set-up (interpreter start, `import psikern`,
     building the inputs) in SETUP_PROBES child processes spread over
     the passes;
  2. with --trace 1, and always for corpus and classical, runs one traced
     pass, with spans around psikern's public functions; every pass must
     give the same outputs;
  3. runs the output checks, including those on the traced pass's
     best-approximation results.
The last line of stdout is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced pass with --trace 1.  The
exit code is 0 only when every check passed.  With --trace 1 the spans are
also written to .perfbench-out/.
"""

from __future__ import annotations

import os

# one thread per process: the BLAS pool is sized when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("corpus", "classical", "duality")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "items_per_s": "1/s",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _set_up(args, workdir: Path):
    """Import psikern from this checkout and build the workload."""
    sys.path.insert(0, str(SRC))
    import psikern

    if Path(psikern.__file__).resolve().parent != SRC / "psikern":
        raise SystemExit(f"perfbench: imported psikern from "
                         f"{psikern.__file__}, not from {SRC}")
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, workdir)


def _setup_probe(argv) -> float:
    """Process start to ready-for-the-first-pass, in a fresh process.  The
    child reports CLOCK_MONOTONIC when ready, a clock the parent shares."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv,
         "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def _end_to_end(timed, setup) -> dict:
    import numpy as np

    if timed[0][0].latencies is not None:
        lat = [x for r, _ in timed for x in r.latencies]
    else:
        # one harness call per pass: an item's time is the pass mean
        lat = [dt / r.attempted for r, dt in timed]
    return {
        # items over the measured time, not a median over passes: passes
        # fall into fast and slow spells of the machine, and the median of
        # such a mixture jumps between them
        "items_per_s": sum(r.attempted for r, _ in timed)
        / sum(dt for _, dt in timed),
        "item_p90_ms": 1e3 * float(np.percentile(lat, 90)),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }


def _threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _measure(args, argv, workdir: Path) -> int:
    wl = _set_up(args, workdir)
    import numpy
    import scipy
    import workloads
    from spans import PER_LAYER, Tracer, layer_metrics

    # set-up probes run between passes, one each time the measured time
    # crosses the next of SETUP_PROBES even steps, so that they sample the
    # same stretch of machine time as the passes
    timed, setup = [], []
    measured = 0.0
    while True:
        while (len(setup) < SETUP_PROBES
               and measured >= len(setup) * args.seconds / SETUP_PROBES):
            setup.append(_setup_probe(argv))
        gc.collect()
        t0 = time.perf_counter()
        result = wl.run_pass()
        timed.append((result, time.perf_counter() - t0))
        measured += timed[-1][1]
        # stop where the measured time lands nearest to --seconds
        if measured * (1 + 0.5 / len(timed)) > args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_probe(argv))
    end_to_end = _end_to_end(timed, setup)
    untraced_s = statistics.median(dt for _, dt in timed)

    # the traced pass gives the per-layer metrics and captures the
    # best-approximation results the corpus and classical checks need
    tracer = Tracer()
    passes = [r for r, _ in timed]
    if args.trace or wl.captures:
        gc.collect()
        tracer.install()
        try:
            tracer.begin_pass(len(timed))
            passes.append(wl.run_pass())
            tracer.end_pass()
        finally:
            tracer.uninstall()

    last = passes[-1]
    checks = [[] if r.digest and r.digest == last.digest else
              [f"pass {i} output differs from pass {len(passes) - 1}"]
              for i, r in enumerate(passes[:-1])]
    checks += workloads.captured_checks(tracer.approx)
    checks += workloads.standalone_checks(wl.name)
    attempted = sum(r.attempted for r in passes) + len(checks)
    failed = sum(r.failed for r in passes) + sum(1 for c in checks if c)
    problems = [p for r in passes for p in r.problems] \
        + [p for c in checks for p in c]

    if args.trace:
        tracer.write_spans(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"env": {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "threads": _threads(), "setup_s": [round(s, 4) for s in setup],
        "pass_s": [round(dt, 4) for _, dt in timed],
        "checks": len(checks)}}))
    if args.trace:
        per_layer = layer_metrics(tracer, wl.csv_bytes(), untraced_s)
        metrics = {k: {"value": per_layer[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if not (SRC / "psikern" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no psikern sources under {SRC}")
    if args.setup_probe:
        _set_up(args, OUT)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        return _measure(args, argv, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
