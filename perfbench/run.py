"""birlab benchmark: one workload per process, every metric by name and unit.

    python3 perfbench/run.py --workload cloud --seed 7 --seconds 20 --trace 0

Run from the root of a checkout; birlab is imported from ``src/`` there.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run and the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--write-benchmark-json``
writes BENCHMARK.json from perfbench/metrics.py and perfbench/workloads.py.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from metrics import COMMAND, END_TO_END, PATHS, PER_LAYER, RUN_SECONDS, UNITS

# BLAS threads are pinned before numpy loads (birlab imports it later), so
# that both sides of a comparison run with the same setting.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
REFERENCES = HERE / "reference"


def maxrss_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def import_birlab():
    """Import birlab from this checkout's src/; returns the import time."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import birlab
    import birlab.cli  # noqa: F401  (the lab entry point, with pydantic)

    seconds = time.perf_counter() - start
    if Path(birlab.__file__).resolve().parent != (src / "birlab").resolve():
        raise ImportError(f"birlab imported from {birlab.__file__}, not from {src}")
    return seconds


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_rev": git_rev(),
    }


def git_rev():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref[:12]
    except OSError:
        return "unknown (not a git checkout)"


def passes(workload, seconds, min_passes=1, traced=None):
    """Run passes until the next one would end past ``seconds``.

    With a tracer, passes alternate untraced and traced, starting
    untraced; returns (untraced times, traced times, traced summaries).
    """
    plain, traced_times, summaries = [], [], []
    start = time.perf_counter()
    while True:
        if traced is not None and len(plain) > len(traced_times):
            before = workload.ops.counts.copy()
            with traced:
                traced_times.append(timed(workload.run_pass))
            summary = traced.take()
            summary["counts"].update(workload.ops.counts - before)
            summaries.append(summary)
        else:
            plain.append(timed(workload.run_pass))
        done = len(plain) + len(traced_times)
        elapsed = time.perf_counter() - start
        if done >= min_passes and elapsed + statistics.median(plain + traced_times) > seconds:
            return plain, traced_times, summaries


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def end_to_end(workload, seconds, import_s, base_rss):
    setups = [timed(workload.setup) for _ in range(workload.SETUP_REPEATS)]
    counts_before = workload.ops.counts.copy()
    times, _, _ = passes(workload, seconds)
    pass_s = statistics.median(times)
    peak = maxrss_bytes()
    ops = workload.ops
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "pass_s": pass_s,
        "point_steps_per_s": workload.point_steps / pass_s,
        "peak_rss_bytes": peak,
        "bytes_per_point": (peak - base_rss) / workload.largest_batch,
        "ok_share": (ops.attempted - ops.failed) / ops.attempted,
    }
    notes = [
        f"setup_s = import {import_s:.4f} s + median of {len(setups)} input builds "
        + " ".join(f"{s:.4f}" for s in setups),
        f"pass_s over {len(times)} passes: " + " ".join(f"{t:.4f}" for t in times),
        f"fail_share = {ops.failed}/{ops.attempted} = {ops.failed / ops.attempted:.6g}",
        f"point_steps per pass = {workload.point_steps}; largest batch = {workload.largest_batch} points",
    ]
    high = tail(times)
    if high is not None:
        notes.append(f"pass_s p{high[0]:.0f} = {high[1]:.6g} s over {len(times)} passes")
    per_pass = workload.ops.counts - counts_before
    for name, value in sorted(per_pass.items()):
        notes.append(f"count {name} = {value / len(times):.6g} per pass (non-gating)")
    return metrics, notes


def per_layer(workload, seconds):
    """Traced set-up once, an untimed pass, then untraced and traced passes
    in turn.

    Each per-layer value covers one set-up plus one traced pass (median
    over traced passes), so layers used only in set-up still show.
    """
    from spans import Tracer, layer_values, merge

    tracer = Tracer()
    before = workload.ops.counts.copy()
    with tracer:
        workload.setup()
    setup = tracer.take()
    setup["counts"].update(workload.ops.counts - before)
    # an untimed first pass takes the one-time costs that would otherwise
    # land on the first untraced pass and bias the overhead downwards
    workload.run_pass()
    plain, traced, summaries = passes(workload, seconds, min_passes=2, traced=tracer)
    rows = [layer_values(merge(setup, s)) for s in summaries]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    untraced_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    notes = [f"traced pass_s {traced_s:.4f} s over {len(traced)} passes; "
             f"untraced pass_s {untraced_s:.4f} s over {len(plain)} passes"]
    return metrics, notes


def load_reference(workload_name, seed):
    path = REFERENCES / f"{workload_name}.json"
    return json.loads(path.read_text()).get(str(seed), {}) if path.exists() else {}


def record_reference(workload_name, seed, values):
    path = REFERENCES / f"{workload_name}.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[str(seed)] = values
    lines = [f"{json.dumps(key)}: {json.dumps(data[key])}" for key in sorted(data, key=int)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one seed per line


def write_benchmark_json():
    from workloads import WORKLOADS

    spec = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": cls.WHY} for name, cls in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["cloud", "mixing", "lab", "pointwise"])
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed; seeds without a recorded reference are held out")
    parser.add_argument("--seconds", type=float, default=None, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's checked values as the reference for --seed")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)

    try:
        import_s = import_birlab()
    except ImportError as exc:
        print(f"perfbench: cannot import birlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    base_rss = maxrss_bytes()
    from workloads import WORKLOADS

    if args.write_benchmark_json:
        write_benchmark_json()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    seconds = RUN_SECONDS if args.seconds is None else args.seconds
    cls = WORKLOADS[args.workload]
    if args.record_reference and not cls.HAS_REFERENCE:
        parser.error(f"workload {args.workload} has no reference values")

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"why {cls.WHY}")
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
        workload = cls(args.seed, ROOT, Path(work), load_reference(args.workload, args.seed))
        if args.trace:
            metrics, notes = per_layer(workload, seconds)
            specs = [(name, unit, better, f"moves {moves}") for name, unit, better, moves in PER_LAYER]
        else:
            metrics, notes = end_to_end(workload, seconds, import_s, base_rss)
            specs = [(name, unit, better, f"bound {bound:g}; {what}") for name, unit, better, bound, what in END_TO_END]
    for note in notes:
        print(note)
    for name, unit, better, extra in specs:
        print(f"metric {name} = {metrics[name]:.6g} {unit} ({better} is better; {extra})")
    ops = workload.ops
    for error in ops.errors:
        print(f"FAILED {error}")
    if args.record_reference:
        if ops.failed:
            print("perfbench: not recording a reference from a run with failures", file=sys.stderr)
            return 1
        record_reference(args.workload, args.seed, workload.reference)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name, *_ in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
