"""One workload run in a fresh process; started by run.py, not by hand.

Prints one JSON object as its last line of output: the set-up time, the
per-op outcomes and times, the pass times and, with --trace 1, the per-layer
metrics of a traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# identical passes are repeated while they fit in --seconds, up to this many
MAX_PASSES = 40
# the reference computation's iterations, and the time they define as
# nominal host speed (about their time on an idle core of the host where the
# benchmark was defined)
REFERENCE_ITERS = 1000
REFERENCE_S = 0.01


def _import_polypush():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "polypush", "__init__.py")):
        sys.exit(f"perfbench: no polypush sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import polypush

    if not os.path.abspath(polypush.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: polypush imported from {polypush.__file__}, not {src}")


def _env() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _reference() -> float:
    """Wall time of a fixed computation that does not use polypush: small
    numpy calls driven from a Python loop, like the ops themselves."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 36).reshape(6, 6)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(REFERENCE_ITERS):
        b = a @ a.T
        acc += float(np.einsum("ij,ij->", b, a)) + sum(j * 0.5 for j in range(20))
    return time.perf_counter() - t0


def _run_pass(ops, tracer=None, check=True) -> dict:
    """Run every op once; with `check`, check each outcome outside its timing.

    The reference computation is timed before the first op and after each
    one.  An op's time is scaled by REFERENCE_S over the mean of the two
    reference times around it: its time on a host as fast as the one where
    the reference takes REFERENCE_S.
    """
    raw, times, cpus, outcomes = [], [], [], []
    ref_before = _reference()
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is an outcome, not a crash
            out = exc
        t, c = time.perf_counter() - t0, time.process_time() - c0
        ref_after = _reference()
        scale = REFERENCE_S / (0.5 * (ref_before + ref_after))
        ref_before = ref_after
        raw.append(t)
        times.append(t * scale)
        cpus.append(c * scale)
        if check:
            outcomes.append(op.check(out))
    return {"raw": raw, "times": times, "cpus": cpus, "outcomes": outcomes}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    _import_polypush()
    import tracing
    import workloads

    workdir = os.path.join(".perfbench", "tmp", f"{args.workload}-{args.seed}")
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        with tracing.installed(tracer):
            ops = workloads.BUILDERS[args.workload](args.seed, workdir)
    else:
        ops = workloads.BUILDERS[args.workload](args.seed, workdir)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    if tracer is not None:
        with tracing.installed(tracer):
            passes = [_run_pass(ops, tracer)]
    else:
        end = time.monotonic() + args.seconds
        passes = [_run_pass(ops)]
        # repeat the identical pass while another one fits in the time budget
        while len(passes) < MAX_PASSES and time.monotonic() + sum(passes[-1]["raw"]) <= end:
            passes.append(_run_pass(ops, check=False))
    # Outcomes and digests come from the first pass only.  polypush's results
    # can differ in the last bits with what ran before in the same process
    # (seen on tr(3,6) instances), so a repeated pass need not match bitwise;
    # the first pass of a fresh process does, and that is what run.py compares.
    first = passes[0]["outcomes"]
    # The host's speed drifts by up to 1.8x over seconds to minutes.  Scaling
    # by the reference removes most of it; an op's time is then its best over
    # the identical passes, and a pass's time the sum of those (checks are not
    # counted).
    best = [min(p["times"][i] for p in passes) for i in range(len(ops))]
    result = {
        "setup_s": setup_s,
        "wall_s": sum(best),
        "raw_wall_s": sum(min(p["raw"][i] for p in passes) for i in range(len(ops))),
        "cpu_s": sum(min(p["cpus"][i] for p in passes) for i in range(len(ops))),
        "passes": len(passes),
        "ops": [
            {"name": op.name, "s": best[i],
             "ok": first[i].ok, "note": first[i].note, "gd": first[i].gd,
             "digest": first[i].digest}
            for i, op in enumerate(ops)
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layer": None if tracer is None else tracing.layer_metrics(tracer),
        "env": _env(),
    }
    if tracer is not None:
        result["spans_file"] = tracing.write_spans(
            tracer, os.path.join(".perfbench", "trace", f"{args.workload}-{args.seed}.jsonl"))
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
