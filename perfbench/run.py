"""georank benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cloud-field --seed 1 --seconds 20 \
        --trace 0

Run from the repository root.  The launcher starts fresh Python processes:
with --trace 0, two that only set up (imports, inputs, evaluators, one
warm-up round) and one that sets up and then repeats the workload's round
for --seconds, checking every round.  setup_s is the median set-up time of
the three.  With --trace 1 a single process alternates untraced and traced
rounds for --seconds and reports the per-layer metrics.  The last line of
standard output is the result as one JSON object.  A run is stopped, with
exit code 1, once it has taken RUN_LIMIT_S seconds.
"""

import os
import sys

# BLAS is pinned to one thread before numpy is imported here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import tempfile
import time
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".perfbench-results")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170       # a whole run, set-up samples included, ends by then

END_TO_END_UNITS = {"setup_s": "s", "round_ms_p50": "ms",
                    "peak_rss_mb": "MB", "accuracy_digits": "digits"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("launch", "setup", "run"),
                    default="launch", help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Launcher
# ---------------------------------------------------------------------------

def spawn(args, role, deadline, workdir):
    """Run one child process; returns its JSON result, or None on failure."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--workdir", workdir]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                            stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: {role} process still running after "
              f"{RUN_LIMIT_S} s; stopped", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {role} process exited {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def launch(args):
    if not os.path.isfile(os.path.join(SRC, "georank", "__init__.py")):
        print(f"perfbench: no georank sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    # the children's input and output files; removed even if one is killed
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                     dir=ROOT) as workdir:
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            res = spawn(args, "setup", deadline, workdir)
            if res is None:
                return 1
            setups.append(res["setup_s"])
        res = spawn(args, "run", deadline, workdir)
    if res is None:
        return 1
    print("machine: " + json.dumps(res["machine"], sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} rounds={res['rounds']} "
          f"ops_per_round={res['ops_per_round']}")
    metrics = res["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    out = {name: {"value": value, "unit": unit_of(name)}
           for name, value in metrics.items()}
    for name, m in out.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": out}))
    return 0


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if ".ns_per_" in name or "_ns_per_" in name:
        return "ns"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# Child: set up, then run and check rounds
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self, reported=None):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.digits = []
        self.round_ms = []
        self.op_share = {}            # kind -> per-round share of the round
        self._reported = set() if reported is None else reported

    def note(self, kind, msg):
        if (kind, msg) not in self._reported:
            self._reported.add((kind, msg))
            print(f"perfbench: {kind}: {msg}", file=sys.stderr)


def run_round(ops):
    """Run every op once; returns (wall seconds, per-op seconds, outcomes)."""
    times, outs = [], []
    t_round = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            outs.append((op.run(), None))
        except Exception as exc:          # counted as a failed operation
            outs.append((None, exc))
        times.append(perf_counter() - t0)
    return perf_counter() - t_round, times, outs


def check_round(ops, outs, tally, workloads, refs, count=True):
    terms = []
    for op, (out, exc) in zip(ops, outs):
        if count:
            tally.attempted += 1
        if exc is None:
            try:
                terms += op.check(out)
                continue
            except (workloads.OpFailed, refs.CheckFailed) as e:
                exc = e
            except Exception as e:        # a check that cannot read the output
                tally.wrong.append(f"{op.kind}: {e!r}")
                tally.note(op.kind, traceback.format_exc())
                continue
        if isinstance(exc, refs.CheckFailed):
            tally.wrong.append(str(exc))
            tally.note(op.kind, f"WRONG: {exc}")
            continue
        if count:
            tally.failed += 1
        tally.note(op.kind, f"failed: {exc!r}")
    if count and terms:
        tally.digits.append(statistics.fmean(terms))


def measure(ops, deadline, tally, workloads, refs, tracer=None):
    """Rounds until the deadline, at least one; returns the span range of
    each round."""
    ranges = []
    while True:
        lo = len(tracer) if tracer else 0
        if tracer:
            tracer.enabled = True
        wall, times, outs = run_round(ops)
        if tracer:
            tracer.enabled = False
            ranges.append((lo, len(tracer)))
        tally.round_ms.append(wall * 1e3)
        per_kind = {}
        for op, t in zip(ops, times):
            per_kind[op.kind] = per_kind.get(op.kind, 0.0) + t
        for kind, t in per_kind.items():
            tally.op_share.setdefault(kind, []).append(100.0 * t / wall)
        check_round(ops, outs, tally, workloads, refs)
        if time.monotonic() >= deadline:
            return ranges


def machine_facts():
    import ctypes

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split()[-1] for ln in fh if len(ln.split()) > 5}
    except OSError:
        paths = set()
    libs = [p for p in paths if "blas" in p.lower() and ".so" in p]
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            threads = fn()
            break
        if threads is not None:
            break
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            "blas_threads": threads,
            "blas_env": os.environ["OPENBLAS_NUM_THREADS"]}


def child(args):
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import georank
    if not os.path.abspath(georank.__file__).startswith(SRC + os.sep):
        print(f"perfbench: georank imported from {georank.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import refs
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    tally = Tally()
    ops = workloads.build(args.workload, args.seed, args.workdir)
    _, _, warm = run_round(ops)
    setup_s = time.monotonic() - args.spawned_at
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    check_round(ops, warm, tally, workloads, refs, count=False)
    start = time.monotonic()
    if args.trace:
        metrics = traced_run(args, ops, start, tally, workloads, refs)
    else:
        measure(ops, start + args.seconds, tally, workloads, refs)
        if not tally.digits:
            print("perfbench: no operation produced a checked output",
                  file=sys.stderr)
            return 1
        metrics = {
            "setup_s": setup_s,
            "round_ms_p50": statistics.median(tally.round_ms),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_digits": statistics.median(tally.digits),
        }
    return emit(tally, len(ops), metrics)


def traced_run(args, ops, start, tally, workloads, refs):
    """Alternate untraced and traced rounds, so that both see the same
    machine; the traced rounds run a second copy of the workload built with
    the wrappers installed."""
    import spans
    tracer = spans.Tracer()
    with tracer.installed():
        traced_ops = workloads.build(args.workload, args.seed, args.workdir)
        _, _, warm = run_round(traced_ops)
        tracer.enabled = False
        check_round(traced_ops, warm, tally, workloads, refs, count=False)
    plain, traced = Tally(tally._reported), Tally(tally._reported)
    ranges = []
    deadline = start + args.seconds
    while time.monotonic() < deadline:
        measure(ops, 0, plain, workloads, refs)
        with tracer.installed():
            ranges += measure(traced_ops, 0, traced, workloads, refs, tracer)
    for t in (plain, traced):
        tally.attempted += t.attempted
        tally.failed += t.failed
        tally.wrong += t.wrong
        tally.round_ms += t.round_ms
    per_round = [spans.layer_metrics(tracer, lo, hi) for lo, hi in ranges]
    metrics = {name: statistics.median(r[name] for r in per_round)
               for name in spans.LAYER_METRICS}
    untraced = statistics.median(plain.round_ms)
    traced_ms = statistics.median(traced.round_ms)
    metrics["trace.untraced_round_ms_p50"] = untraced
    metrics["trace.traced_round_ms_p50"] = traced_ms
    metrics["trace.overhead_pct"] = 100.0 * (traced_ms / untraced - 1.0)
    metrics["trace.spans_per_round"] = statistics.median(
        hi - lo for lo, hi in ranges)
    for kind in workloads.OP_KINDS:
        share = plain.op_share.get(kind)
        metrics[f"op.{kind}.share_pct"] = (statistics.median(share)
                                           if share else 0.0)
    os.makedirs(RESULTS, exist_ok=True)
    spans.write_spans(tracer, os.path.join(
        RESULTS, f"spans-{args.workload}-seed{args.seed}.tsv"))
    return metrics


def emit(tally, ops_per_round, metrics):
    if tally.wrong:
        print(f"perfbench: {len(tally.wrong)} wrong outputs; first: "
              f"{tally.wrong[0]}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rounds": len(tally.round_ms),
        "ops_per_round": ops_per_round,
        "machine": machine_facts(),
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.role == "launch":
        return launch(args)
    return child(args)


if __name__ == "__main__":
    sys.exit(main())
