"""Benchmark for bootctrl: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout, unmodified.
After set-up, timed passes of the workload repeat until ``--seconds`` have
elapsed and at least MIN_PASSES untraced passes are done; every pass's
outputs are then checked.  With ``--trace 0`` the
result carries the end-to-end metrics listed in BENCHMARK.json, measured
with only the three stage calls wrapped and a speed probe (speed.py)
sampling the machine's speed, so that ``wall_norm_s`` reads each pass at
a fixed reference speed.  With ``--trace 1`` such passes, without the probe,
alternate with passes that wrap every public layer function (see
tracer.py); the result carries the per-layer metrics, the untraced stage
figures and the tracing overhead, and the spans are written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9  # this process plus eight fresh interpreters
MIN_PASSES = 3  # untraced passes per run, even where one outlasts --seconds

sys.path.insert(0, str(ROOT / "src"))
# Single-threaded BLAS, set before numpy loads (here and in the set-up
# children, which inherit it): each pass is then one busy thread, the case
# the speed probe measures (see speed.py).  The LMIs are at most 66x66, too
# small for a second BLAS thread to pay off.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
# numpy, bootctrl and the benchmark modules that import them are imported
# inside functions, so that their import time counts in setup_s


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "encrypted_study", "design_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit")
    return parser.parse_args(argv)


def timed_setup(workload, seed, out_dir):
    """Imports, fixture loading, warm-up and preparation, timed together."""
    t0 = perf_counter()
    import bootctrl
    import workloads
    origin = Path(bootctrl.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"bootctrl imported from {origin}, not from {ROOT / 'src'}")
    wl = workloads.WORKLOADS[workload](seed, out_dir)
    wl.setup()
    return wl, perf_counter() - t0


def child_setup_s(args):
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(wl, target_sets, deadline, min_passes, probe=False):
    """Passes until the deadline and at least min_passes, cycling through
    the target sets: ([(recorder, output, raised)], peak_rss_mb).  With
    probe, a SpeedProbe samples the machine's speed during each pass.

    Every pass's results stay in memory for the checks, so the peak is
    read after the first min_passes: a faster program that fits more
    passes in the run does not read as a larger one.
    """
    from speed import SpeedProbe
    from tracer import Recorder

    done = []
    while True:
        rec = Recorder(target_sets[len(done) % len(target_sets)])
        output, raised = None, False
        sampling = SpeedProbe() if probe else contextlib.nullcontext()
        with rec.installed(), sampling as rec.probe, rec.root():
            try:
                output = wl.run_pass()
            except Exception:  # counted as failed operations, run continues
                traceback.print_exc(file=sys.stderr)
                raised = True
        done.append((rec, output, raised))
        if len(done) == min_passes:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if perf_counter() >= deadline and len(done) >= min_passes:
            return done, peak_rss_mb


def check_passes(wl, passes):
    """(attempted, failed) operations over all passes."""
    attempted = failed = 0
    for rec, output, raised in passes:
        attempted += wl.ops_per_pass
        if raised:
            failed += wl.ops_per_pass
            continue
        try:
            failed += wl.check(rec, output)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += wl.ops_per_pass
    return attempted, failed


def _median(values):
    return float(statistics.median(values))


def stage_metrics(passes):
    """certify_s, fit_s, sim_steps_per_s and wall_s of untraced passes, and
    wall_norm_s where a speed probe ran."""
    tables = [rec.per_name() for rec, _, _ in passes]

    def rate(rec, table):
        seconds = table["simulator.run_closed_loop"][1]
        return rec.counts["simulator.steps"] / seconds if seconds > 0 else 0.0

    out = {
        "wall_s": _median(rec.wall_s for rec, _, _ in passes),
        "certify_s": _median(t["analysis.analyze_l2_gain"][1] for t in tables),
        "fit_s": _median(t["bootpoly.fit"][1] for t in tables),
        "sim_steps_per_s": _median(rate(rec, t)
                                   for (rec, _, _), t in zip(passes, tables)),
    }
    if all(rec.probe is not None for rec, _, _ in passes):
        out["wall_norm_s"] = _median(rec.probe.normalise(rec.wall_s)
                                     for rec, _, _ in passes)
    return out


def layer_metrics(traced):
    """Per-layer figures of traced passes: counts of the first pass (they
    repeat exactly), medians of per-pass times, pooled call percentiles."""
    import numpy as np
    from tracer import CRYPTO_OPS, LAYER_TARGETS

    recs = [rec for rec, _, _ in traced]
    tables = [rec.per_name() for rec in recs]
    first, counts = tables[0], recs[0].counts
    out = {}
    for label in LAYER_TARGETS:
        out[f"{label}.calls"] = first[label][0]
        out[f"{label}.s"] = _median(t[label][1] for t in tables)
        out[f"{label}.self_s"] = _median(t[label][2] for t in tables)
    for op in CRYPTO_OPS:
        us = np.concatenate([rec.durations(f"crypto_sim.{op}") for rec in recs]) * 1e6
        out[f"crypto_sim.{op}.us_p50"] = float(np.percentile(us, 50)) if us.size else 0.0
        out[f"crypto_sim.{op}.us_p99"] = float(np.percentile(us, 99)) if us.size else 0.0
    for key in ("lp.iterations", "bootpoly.verify.samples", "sdp.newton_steps",
                "sdp.numerical_failures", "sdp.lmi_dim_max",
                "crypto_sim.scheme_errors", "simulator.refresh_events",
                "simulator.violations"):
        out[key] = counts[key]
    out["sdp.feasible_ratio"] = (counts["sdp.feasible"] / counts["sdp.solves"]
                                 if counts["sdp.solves"] else 0.0)
    out["simulator.max_ledger_usage"] = recs[0].maxima.get(
        "simulator.max_ledger_usage", 0.0)
    out["trace.spans"] = len(recs[0].span_start)
    return out


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def git_sha():
    """Commit of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args):
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "platform": platform.platform(),
        "load": "one closed-loop caller, concurrency 1",
    }


def save_spans(path, traced, meta):
    """All traced passes' spans, parents as indices into the whole file."""
    import numpy as np

    recs = [rec for rec, _, _ in traced]
    offsets = np.cumsum([0] + [len(rec.span_start) for rec in recs[:-1]])
    arrays = [rec.arrays() for rec in recs]
    parent = np.concatenate([np.where(a[1] >= 0, a[1] + off, -1)
                             for a, off in zip(arrays, offsets)])
    np.savez_compressed(
        path,
        name=np.concatenate([a[0] for a in arrays]),
        parent=parent,
        start=np.concatenate([a[2] for a in arrays]),
        end=np.concatenate([a[3] for a in arrays]),
        pass_index=np.repeat(np.arange(len(recs)),
                             [len(rec.span_start) for rec in recs]),
        names=np.array(recs[0].names),
        metadata=np.array(json.dumps(meta)),
    )


def select(spec, measured):
    """The metrics BENCHMARK.json lists, with its units, in its order."""
    missing = [m["name"] for m in spec if m["name"] not in measured]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None):
    args = parse_args(argv)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as tmp:
        wl, setup_s = timed_setup(args.workload, args.seed, Path(tmp))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        from tracer import LAYER_TARGETS, STAGE_TARGETS

        if args.trace:
            # traced passes alternate with untraced ones, so that both see
            # the same machine conditions and differ only by the tracing
            target_sets, min_passes = [STAGE_TARGETS, LAYER_TARGETS], 2
        else:
            setups = [setup_s] + [child_setup_s(args)
                                  for _ in range(SETUP_REPEATS - 1)]
            target_sets, min_passes = [STAGE_TARGETS], MIN_PASSES
        passes, peak_rss_mb = run_passes(wl, target_sets,
                                         perf_counter() + args.seconds, min_passes,
                                         probe=not args.trace)
        attempted, failed = check_passes(wl, passes)
        untraced = [p for p in passes if p[0].targets is STAGE_TARGETS]
        traced = [p for p in passes if p[0].targets is LAYER_TARGETS]

    meta = metadata(args)
    stage = stage_metrics(untraced)
    if args.trace:
        measured = layer_metrics(traced)
        measured.update(stage)
        traced_wall = _median(rec.wall_s for rec, _, _ in traced)
        measured["trace.overhead_ratio"] = traced_wall / stage["wall_s"] - 1.0
        save_spans(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.npz",
                   traced, meta)
        metrics = select(spec["per_layer"], measured)
    else:
        measured = dict(stage)
        measured["setup_s"] = _median(setups)
        measured["ok_ratio"] = (attempted - failed) / attempted
        measured["peak_rss_mb"] = peak_rss_mb
        metrics = select(spec["end_to_end"], measured)

    # untraced stage figures also go to the human-readable block
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = {**metrics, **{name: {"value": value, "unit": units[name]}
                           for name, value in stage.items() if name not in metrics}}
    for name, entry in shown.items():
        print(f"{name:42s} {entry['value']!r:>24} {entry['unit']}")
    for label, group in (("untraced", untraced), ("traced", traced)):
        if group:
            walls = ", ".join(f"{rec.wall_s:.3f}" for rec, _, _ in group)
            print(f"{label} pass wall times (s): {walls}")
    if "wall_norm_s" in stage:
        speeds = ", ".join(f"{rec.probe.speed():.3f}" for rec, _, _ in untraced)
        print(f"machine speed per pass (reference 1): {speeds}")
    print(f"{'failed_ratio':42s} {failed / attempted!r:>24} ratio "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"metadata": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
