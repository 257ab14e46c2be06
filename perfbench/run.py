"""Benchmark of polypush recovery and its CLI pipeline.

One workload run:

    python3 perfbench/run.py --workload relax --seed 1 --seconds 36 --trace 0

Every workload in its own fresh process, printing every end-to-end metric:

    python3 perfbench/run.py --all --seed 1 --seconds 36 [--trace 1]

Run from any directory; the program under test is the polypush in the
``src/`` next to this directory.  Workload and metric names and units come
from BENCHMARK.json at the root.  The last line of output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced pass with --trace 1.  The
line before it holds the details: the environment, every op's time and
outcome, and how each metric was derived.  The exit code is 0 unless a
benchmark check errors out (a determinism mismatch or a crash); an op that
misses its target is a counted failure, not an error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# set-up is timed in this many fresh processes and reported as their median
SETUP_RUNS = 3
# one BLAS thread keeps results bitwise reproducible and the load to one core
BLAS_THREADS = "1"
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10
# traced counts that must repeat exactly between runs of one commit and seed
CANARY_COUNTS = [
    "tensor_ring.fit_calls",
    "tensor_ring.fit_nfev",
    "tensor_ring.find_combo_calls",
    "lowrank.fit_calls",
    "lowrank.fit_nfev",
    "relaxation.admm_iters",
    "gauge.refine_nfev",
]

def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(args, trace: int, seconds: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _code_digest() -> str:
    """sha256 over the polypush sources and this benchmark."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "polypush"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _canary(args, code: str, res: dict) -> list[str]:
    """Compare op digests (and traced counts) with an earlier run of the same
    code, workload and seed in this checkout; record them if there was none."""
    path = os.path.join(ROOT, ".perfbench", "canary", f"{args.workload}-{args.seed}-{code[:16]}.json")
    now = {"digests": [op["digest"] for op in res["ops"]]}
    if res["layer"] is not None:
        now["counts"] = {k: res["layer"][k] for k in CANARY_COUNTS}
    try:
        with open(path) as fh:
            before = json.load(fh)
    except FileNotFoundError:
        before = {}
    errors = []
    if "digests" in before and before["digests"] != now["digests"]:
        bad = [op["name"] for op, a in zip(res["ops"], before["digests"]) if op["digest"] != a]
        errors.append(f"outputs differ from an earlier run of the same code and seed: {bad}")
    if "counts" in before and "counts" in now and before["counts"] != now["counts"]:
        errors.append(f"counts differ from an earlier run: {before['counts']} vs {now['counts']}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({**before, **now}, fh)
    return errors


def _tail(times: list[float]) -> tuple[float, int]:
    """Highest percentile of the op times that leaves TAIL_BEYOND ops above
    it, as (value, rank k of n); the maximum when there are too few ops."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        k = len(ordered)
    return ordered[k - 1], k


def _end_to_end(res: dict, setups: list[float]) -> tuple[dict, dict]:
    times = [op["s"] for op in res["ops"]]
    attempted = len(res["ops"])
    failed = sum(not op["ok"] for op in res["ops"])
    gds = [op["gd"] for op in res["ops"] if op["ok"] and op["gd"] is not None]
    tail, k = _tail(times)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": res["wall_s"],
        "cpu_s": res["cpu_s"],
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
        # rule-of-succession estimate, never 0: (failed + 1) / (attempted + 2)
        "fail_frac": (failed + 1) / (attempted + 2),
        "gd_digits_p50": statistics.median(-math.log10(max(g, 1e-16)) for g in gds) if gds else 0.0,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": {"runs": setups},
        "wall_s": {"passes": res["passes"], "unscaled_s": res["raw_wall_s"],
                   "statistic": "sum over ops of each op's best reference-scaled time over the passes"},
        "op_tail_s": {"percentile": 100.0 * k / attempted, "ops": attempted, "beyond": attempted - k},
        "fail_frac": {"failed": failed, "attempted": attempted, "formula": "(failed + 1) / (attempted + 2)"},
        "gd_digits_p50": {"recoveries": len(gds)},
    }
    return values, notes


def run_one(args) -> int:
    code = _code_digest()
    errors = []
    if args.trace:
        # an untraced first pass in a fresh process: the reference for the
        # traced pass's outputs and for the tracing overhead
        ref = _worker(args, 0, seconds=0)
        res = _worker(args, 1, args.seconds)
        errors += [f"traced output differs from untraced on op {a['name']!r}"
                   for a, b in zip(ref["ops"], res["ops"]) if a["digest"] != b["digest"]]
        res["layer"]["trace.overhead_s"] = res["wall_s"] - ref["wall_s"]
    else:
        setups = [_worker(args, 0, args.seconds, setup_only=True)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        res = _worker(args, 0, args.seconds)
    errors += _canary(args, code, res)
    detail = {
        "workload": args.workload,
        "env": {**res["env"], "git_sha": _git_sha(), "code_sha256": code, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace},
        "ops": [{k: op[k] for k in ("name", "s", "ok", "note", "gd")} for op in res["ops"]],
        "errors": errors,
    }
    if args.trace:
        values = res["layer"]
        detail["untraced_wall_s"] = ref["wall_s"]
        detail["spans_file"] = res["spans_file"]
    else:
        values, notes = _end_to_end(res, setups + [res["setup_s"]])
        detail["metric_notes"] = notes
    declared = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    if sorted(values) != sorted(declared):
        errors.append(f"metrics {sorted(values)} differ from BENCHMARK.json's {sorted(declared)}")
    metrics = {name: {"value": v, "unit": UNITS.get(name, "?")} for name, v in values.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(res["ops"]),
        "failed": sum(not op["ok"] for op in res["ops"]),
        "metrics": metrics,
    }))
    if errors:
        for e in errors:
            print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; a table of every metric."""
    status = 0
    for w in WORKLOADS:
        for trace in ([0, 1] if args.trace else [0]):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=2 * WORKER_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"{w}: benchmark error (exit {proc.returncode})")
                status = 1
                continue
            final = json.loads(lines[-1])
            print(f"{w} (trace {trace}): attempted {final['attempted']}, failed {final['failed']}")
            for name, m in final["metrics"].items():
                print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "polypush", "__init__.py")):
        print(f"perfbench: polypush sources not found under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
