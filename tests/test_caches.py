"""The package's caches of shape constants.

Every ``functools.lru_cache`` helper of the package is keyed on integer,
string and float shape arguments only; it must be bounded, hand out values
no caller can change, return what its uncached body returns, and be empty
after a fresh import.  The recoveries must neither rebuild index arrays per
fit evaluation nor depend on which shapes a process recovered before.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polypush import (
    PolyNetwork,
    SmoothingParams,
    smooth_componentwise,
    smooth_quadratic,
    tensors,
)
from polypush.lowrank import LRConfig, exact_lowrank_pair_moments, factorize
from polypush.moments import exact_quadratic_moments
from polypush.tensor_ring import TRConfig, decompose

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "polypush").glob("*.py") if not p.stem.startswith("__"))

# arguments each cached helper is checked at, keyed by "module.name"
CACHED = {
    "gauge._grid": [(3, 1e-3)],
    "moments._build_mode_sigma": [(2, 3, "gaussian"), (2, 5, "identity"), (3, 3, "gaussian")],
    "moments._sigma_sym": [(1, 3), (3, 5)],
    "relaxation._fvector_coefficients": [(2, 3), (3, 5)],
    "relaxation._trace_cycles": [(2, 2), (3, 3)],
    "tensors._sorted_indices": [(1, 3), (3, 5), (4, 3)],
    "tensors._sorted_multiplicity": [(1, 3), (3, 5)],
    "tensors._triu": [(1,), (4,), (5, 1)],
    "tensors._triu_mask": [(1,), (4,)],
    "tensors.sorted_multi_indices": [(2, 3), (4, 5)],
}


def cached_helpers():
    """"module.name" -> function of every lru_cache helper in the package."""
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"polypush.{name}")
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found[f"{name}.{attr}"] = value
    return found


def leaves(value):
    """The leaves of nested tuples; a list or dict a caller could change
    fails the test."""
    if isinstance(value, tuple):
        for item in value:
            yield from leaves(item)
    else:
        assert isinstance(value, (np.ndarray, int, float, str)), type(value)
        yield value


def same_bits(a, b) -> bool:
    a, b = list(leaves(a)), list(leaves(b))
    return len(a) == len(b) and all(
        type(x) is type(y) and np.asarray(x).dtype == np.asarray(y).dtype
        and np.asarray(x).tobytes() == np.asarray(y).tobytes()
        and np.shape(x) == np.shape(y)
        for x, y in zip(a, b)
    )


def test_every_cached_helper_has_arguments_to_check():
    assert sorted(cached_helpers()) == sorted(CACHED)


@pytest.mark.parametrize("name, args", [(n, a) for n, cases in CACHED.items() for a in cases],
                         ids=str)
def test_cache_contract(name, args):
    fn = cached_helpers()[name]
    assert fn.cache_info().maxsize is not None
    value = fn(*args)
    assert same_bits(value, fn.__wrapped__(*args))
    for leaf in leaves(value):
        if isinstance(leaf, np.ndarray):
            with pytest.raises(ValueError):
                leaf.flat[0] = 1.0
    # a second call hands out the same objects
    assert all(x is y for x, y in zip(leaves(value), leaves(fn(*args))))


def child_env() -> dict:
    """The environment of a fresh process that imports this polypush, at
    one BLAS thread."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")


def test_import_builds_nothing():
    probe = (
        "import importlib, json\n"
        f"names = {[n.split('.') for n in CACHED]!r}\n"
        "import polypush\n"
        "print(json.dumps({'.'.join(n): getattr(importlib.import_module('polypush.' + n[0]), n[1])"
        ".cache_info().currsize for n in names}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                         capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == {name: 0 for name in CACHED}


def noisy_quadratic_table():
    """A (2,3) table with noise at eta = 1e-3 whose fit spends 184
    evaluations over four starts."""
    base = PolyNetwork(kind="quadratic", r=2, d=3, Q=np.zeros((3, 2, 2)))
    t = exact_quadratic_moments(smooth_quadratic(SmoothingParams(rho=1.0, base=base, rng_seed=2)))
    noise = np.random.default_rng(2).standard_normal((3, 3))
    return t.S + 1e-3 * (noise + noise.T) / 2, t.T


def noisy_pair_table():
    """A (2,4,1,3) table with noise at eta = 1e-2 whose fit spends 81
    evaluations over two starts."""
    base = PolyNetwork(kind="lowrank", r=2, d=4, omega=3, ell=1, components=np.zeros((4, 1, 2)))
    net = smooth_componentwise(SmoothingParams(rho=0.5, base=base, rng_seed=0))
    S = exact_lowrank_pair_moments(net).S
    noise = np.random.default_rng(0).standard_normal((4, 4))
    return S + 1e-2 * (noise + noise.T) / 2


def test_fits_build_no_index_arrays_per_evaluation(monkeypatch):
    # each fit evaluation used to rebuild np.triu_indices; now each shape
    # is built once per process, whatever the number of evaluations
    calls = []
    real = np.triu_indices

    def counting(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(np, "triu_indices", counting)
    tensors._triu.cache_clear()
    S, T = noisy_quadratic_table()
    tr = decompose(S, T, TRConfig(r=2, rng_seed=2, eta=1e-3))
    lr = factorize(noisy_pair_table(), LRConfig(r=2, rng_seed=0, eta=1e-2))
    assert tr.diagnostics["lm_nfev"] >= 50 and lr.diagnostics["lm_nfev"] >= 50
    assert len(calls) == len(set(calls)) <= 4


RECOVERIES = """
import hashlib, json, sys
import numpy as np
import polypush
from polypush import PolyNetwork, SmoothingParams, smooth_componentwise, smooth_quadratic
from polypush.gauge import gauge_distance
from polypush.lowrank import LRConfig, exact_lowrank_pair_moments, factorize, verify_assumption_lr
from polypush.moments import exact_quadratic_moments
from polypush.tensor_ring import TRConfig, decompose

def quad(r, d, seed):
    base = PolyNetwork(kind="quadratic", r=r, d=d, Q=np.zeros((d, r, r)))
    return smooth_quadratic(SmoothingParams(rho=1.0, base=base, rng_seed=seed))

def lowrank(r, d, ell, omega, seed):
    base = PolyNetwork(kind="lowrank", r=r, d=d, omega=omega, ell=ell,
                       components=np.zeros((d, ell, r)))
    return smooth_componentwise(SmoothingParams(rho=0.5, base=base, rng_seed=seed))

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

if sys.argv[1] == "warm":
    for r, d in [(1, 2), (2, 3), (3, 6), (3, 7)]:
        net = quad(r, d, 5)
        t = exact_quadratic_moments(net)
        for backend in ("local", "sos"):
            decompose(t.S, t.T, TRConfig(r=r, backend=backend, rng_seed=5), truth=net)
    for r, d, ell, omega in [(1, 3, 1, 3), (2, 4, 1, 3), (2, 6, 1, 5), (1, 5, 2, 3),
                             (3, 10, 1, 3)]:
        net = lowrank(r, d, ell, omega, 5)
        S = exact_lowrank_pair_moments(net).S
        for backend in ("local", "sos"):
            try:
                factorize(S, LRConfig(r=r, omega=omega, ell=ell, backend=backend, rng_seed=5),
                          truth=net)
            except polypush.ConvergenceError:
                pass
        verify_assumption_lr(net)
        gauge_distance(net, net)

lr = factorize(exact_lowrank_pair_moments(lowrank(2, 4, 1, 3, 1)).S, LRConfig(r=2, rng_seed=1))
t = exact_quadratic_moments(quad(3, 6, 1))
tr = decompose(t.S, t.T, TRConfig(r=3, rng_seed=1))
print(json.dumps([digest(lr.network.components), digest(tr.network.Q)]))
"""


def test_recoveries_do_not_depend_on_warm_caches():
    def run(mode):
        out = subprocess.run([sys.executable, "-c", RECOVERIES, mode], env=child_env(),
                             capture_output=True, text=True, check=True, timeout=300)
        return json.loads(out.stdout)

    assert run("warm") == run("alone")
