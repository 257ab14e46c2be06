"""Spans and counters recorded at the boundaries between polypush modules.

The tracer wraps module attributes that the library looks up at call time
(``polypush.tensor_ring.least_squares``, ``polypush.cli.sample``, ...), so no
file under ``src/`` changes.  Spans stay in memory until the traced pass
ends; then ``layer_metrics`` turns them into the per-layer numbers and
``write_spans`` writes them out.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

from polypush.relaxation import Infeasible


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: str


@dataclass
class Tracer:
    op: str = "setup"
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()


def write_spans(tracer: Tracer, path: str) -> str:
    """One JSON line per span: name, start, end, parent index and op."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps(sp.__dict__) + "\n")
    return path


def _nfev(prefix: str):
    def hook(tracer, args, kwargs, out):
        tracer.add(prefix + "_calls")
        tracer.add(prefix + "_nfev", int(out.nfev))
    return hook


def _solve_hook(tracer, args, kwargs, out):
    tracer.add("relaxation.solve_calls")
    tracer.add("relaxation.admm_iters", int(out.iterations))
    tracer.add("relaxation.program_vars", int(args[0].nvars))
    if isinstance(out, Infeasible):
        tracer.add("relaxation.infeasible_count")


def _count(name: str):
    def hook(tracer, args, kwargs, out):
        tracer.add(name)
    return hook


def _sample_hook(tracer, args, kwargs, out):
    tracer.add("networks.sample_calls")
    n, d = out.shape
    tracer.add("networks.sample_bytes", n * d * 8)


def _estimate_hook(tracer, args, kwargs, out):
    tracer.add("moments.estimate_rows", len(args[0]))


def _write_hook(tracer, args, kwargs, out):
    # the files `generate` writes during set-up are not part of a timed op
    if tracer.op != "setup":
        tracer.add("cli.bytes_written", os.path.getsize(args[0]))


# (module, attribute, span name or None for a counter-only wrapper, hook)
WRAP_POINTS: list[tuple[str, str, Optional[str], Optional[Callable]]] = [
    ("polypush.cli", "cmd_sample", "cli.sample_cmd", None),
    ("polypush.cli", "cmd_moments", "cli.moments_cmd", None),
    ("polypush.cli", "cmd_solve_tr", "cli.solve_cmd", None),
    ("polypush.cli", "cmd_solve_lr", "cli.solve_cmd", None),
    ("polypush.cli", "cmd_eval", "cli.eval_cmd", None),
    ("polypush.cli", "_write_json", None, _write_hook),
    ("polypush.cli", "sample", "networks.sample", _sample_hook),
    ("polypush.cli", "estimate_quadratic_moments", "moments.estimate", _estimate_hook),
    ("polypush.cli", "estimate_pair_moments", "moments.estimate", _estimate_hook),
    ("polypush.cli", "decompose", "tensor_ring.decompose", _count("tensor_ring.decompose_calls")),
    ("polypush.cli", "factorize", "lowrank.factorize", _count("lowrank.factorize_calls")),
    ("polypush.cli", "gauge_distance", "gauge.distance", _count("gauge.distance_calls")),
    ("polypush.moments", "exact_quadratic_moments", "moments.exact", None),
    ("polypush.lowrank", "exact_lowrank_pair_moments", "moments.exact", None),
    ("polypush.tensor_ring", "decompose", "tensor_ring.decompose", _count("tensor_ring.decompose_calls")),
    ("polypush.tensor_ring", "least_squares", "tensor_ring.fit", _nfev("tensor_ring.fit")),
    ("polypush.tensor_ring", "find_combo", "tensor_ring.find_combo", _count("tensor_ring.find_combo_calls")),
    ("polypush.tensor_ring", "gauge_fix", "tensor_ring.gauge_fix", None),
    ("polypush.tensor_ring", "gauge_distance", "gauge.distance", _count("gauge.distance_calls")),
    ("polypush.tensor_ring", "encode_tensor_ring", "relaxation.encode", None),
    ("polypush.tensor_ring", "solve", "relaxation.solve", _solve_hook),
    ("polypush.lowrank", "factorize", "lowrank.factorize", _count("lowrank.factorize_calls")),
    ("polypush.lowrank", "least_squares", "lowrank.fit", _nfev("lowrank.fit")),
    ("polypush.lowrank", "gauge_distance", "gauge.distance", _count("gauge.distance_calls")),
    ("polypush.lowrank", "encode_lowrank", "relaxation.encode", None),
    ("polypush.lowrank", "solve", "relaxation.solve", _solve_hook),
    ("polypush.gauge", "gauge_distance", "gauge.distance", _count("gauge.distance_calls")),
    ("polypush.gauge", "minimize", "gauge.refine", _nfev("gauge.refine")),
    ("polypush.relaxation", "encode_tensor_ring", "relaxation.encode", None),
    ("polypush.relaxation", "solve", "relaxation.solve", _solve_hook),
]


def _wrapper(tracer: Tracer, fn, span: Optional[str], hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if span is None:
            out = fn(*args, **kwargs)
        else:
            with tracer.span(span):
                out = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, out)
        return out
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every WRAP_POINTS attribute for the duration of the block."""
    import importlib

    saved = []
    try:
        for mod_name, attr, span, hook in WRAP_POINTS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrapper(tracer, fn, span, hook))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# spans whose summed durations are reported as "<span>_s"
TIMED_SPANS = [
    "cli.sample_cmd",
    "cli.moments_cmd",
    "cli.solve_cmd",
    "cli.eval_cmd",
    "networks.sample",
    "moments.estimate",
    "moments.exact",
    "tensor_ring.decompose",
    "tensor_ring.fit",
    "tensor_ring.gauge_fix",
    "lowrank.factorize",
    "lowrank.fit",
    "gauge.distance",
    "gauge.refine",
    "relaxation.encode",
    "relaxation.solve",
]

COUNTS = [
    "cli.bytes_written",
    "networks.sample_calls",
    "networks.sample_bytes",
    "moments.estimate_rows",
    "tensor_ring.fit_calls",
    "tensor_ring.fit_nfev",
    "tensor_ring.find_combo_calls",
    "lowrank.fit_calls",
    "lowrank.fit_nfev",
    "gauge.distance_calls",
    "gauge.refine_nfev",
    "relaxation.solve_calls",
    "relaxation.admm_iters",
    "relaxation.infeasible_count",
    "relaxation.program_vars",
]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over every span and counter the tracer recorded."""
    busy: dict[str, float] = {}
    child_time = [0.0] * len(tracer.spans)
    for sp in tracer.spans:
        dur = sp.end - sp.start
        busy[sp.name] = busy.get(sp.name, 0.0) + dur
        if sp.parent is not None:
            child_time[sp.parent] += dur
    out = {f"{name}_s": busy.get(name, 0.0) for name in TIMED_SPANS}
    # command time not spent inside a wrapped library call: argument
    # handling, JSON formatting and parsing, digests; set-up's `generate`
    # commands are left out
    out["cli.self_s"] = sum(
        (sp.end - sp.start) - child_time[i]
        for i, sp in enumerate(tracer.spans)
        if sp.name.startswith("cli.") and sp.name.endswith("_cmd") and sp.op != "setup"
    )
    c = tracer.counts
    out.update({name: c.get(name, 0) for name in COUNTS})
    out["tensor_ring.fits_per_recovery"] = (
        c.get("tensor_ring.fit_calls", 0) / c["tensor_ring.decompose_calls"]
        if c.get("tensor_ring.decompose_calls") else 0.0
    )
    out["lowrank.fits_per_recovery"] = (
        c.get("lowrank.fit_calls", 0) / c["lowrank.factorize_calls"]
        if c.get("lowrank.factorize_calls") else 0.0
    )
    return out
