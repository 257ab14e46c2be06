"""The benchmark tracer wraps library attributes by name, and its workloads
check what the CLI writes; a refactor that drops or rebinds an attribute, or
changes a file the checks read, must fail here rather than in a benchmark
run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from polypush.lowrank import LRConfig, exact_lowrank_pair_moments, factorize
from polypush.moments import exact_quadratic_moments
from polypush.networks import PolyNetwork, SmoothingParams, smooth_componentwise, smooth_quadratic
from polypush.tensor_ring import TRConfig, decompose

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    """perfbench/<name>.py loaded by path, writing no bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def tracing(monkeypatch):
    return load_perfbench(monkeypatch, "tracing")


def test_every_wrap_point_resolves(tracing):
    for mod_name, attr, _, _ in tracing.WRAP_POINTS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (
            f"{mod_name}.{attr}"
        )


@pytest.mark.parametrize("kind, backend", [
    ("quadratic", "local"), ("lowrank", "local"), ("quadratic", "sos"), ("lowrank", "sos"),
], ids=["quadratic", "lowrank", "quadratic-sos", "lowrank-sos"])
def test_traced_recovery_counts_one_combination(tracing, kind, backend):
    if kind == "quadratic":
        fits = "tensor_ring.fit_calls"
        base = PolyNetwork(kind="quadratic", r=2, d=3, Q=np.zeros((3, 2, 2)))
        net = smooth_quadratic(SmoothingParams(rho=1.0, base=base, rng_seed=1))
        t = exact_quadratic_moments(net)
        recover = lambda: decompose(t.S, t.T, TRConfig(r=2, backend=backend, rng_seed=1))  # noqa: E731
    else:
        fits = "lowrank.fit_calls"
        base = PolyNetwork(kind="lowrank", r=2, d=4, omega=3, ell=1,
                           components=np.zeros((4, 1, 2)))
        net = smooth_componentwise(SmoothingParams(rho=0.5, base=base, rng_seed=9))
        S = exact_lowrank_pair_moments(net).S
        recover = lambda: factorize(S, LRConfig(r=2, backend=backend, rng_seed=9))  # noqa: E731
    tracer = tracing.Tracer(op="test")
    with tracing.installed(tracer):
        rep = recover()
    # both kinds find and apply their combination through tensor_ring
    assert tracer.counts["tensor_ring.find_combo_calls"] == 1
    assert [sp.name for sp in tracer.spans].count("tensor_ring.gauge_fix") == 1
    # the fit goes through the module's least_squares name, which the tracer
    # wraps; a fit that bypassed it would leave the counter unset
    assert tracer.counts.get(fits, 0) >= 1
    # the tracer reads each fit's nfev, and the report sums them over the starts
    assert tracer.counts[fits.replace("_calls", "_nfev")] == rep.diagnostics["lm_nfev"]
    assert rep.diagnostics["lm_stop"] in ("tol", "step")


def test_workload_checks_pass(monkeypatch, tmp_path):
    workloads = load_perfbench(monkeypatch, "workloads")
    # the first cli-pipeline round: sample, moments, solve_* and eval of q#0
    # and of l#0, each op checked against the files the ones before it wrote
    ops = workloads.cli_pipeline(11, str(tmp_path / "cli"))[:8]
    assert [op.name.split()[1] for op in ops] == ["q#0"] * 4 + ["l#0"] * 4
    (cold,) = [op for op in workloads.relax(11, str(tmp_path / "relax"))
               if op.name == "cold solve tr(1,1)"]
    for op in [*ops, cold]:
        outcome = op.check(op.run())
        assert outcome.ok, f"{op.name}: {outcome.note}"
