"""The benchmark's workloads: fixed op lists built from a workload seed.

Each builder runs during set-up.  It makes the networks and the exact moment
tables from the seed, and returns ops.  An op's ``run`` is the timed call into
polypush; its ``check`` turns the result (or the exception) into an Outcome:
whether the op met its target, and a digest of everything it produced, for
the determinism canary.

Library calls go through module attributes (``tr.decompose``, not an
imported name), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import polypush
from polypush import cli, gauge, lowrank as lr, moments, relaxation, tensor_ring as tr

# targets an op must meet (see the correctness rules in spec.json)
EXACT_GD = 1e-6
CLI_GD = 0.05

# Instances per run.  relax keeps its warm tensor-ring sos decompositions
# few: about 2 % of them fail at random (see spec.json), and more of them
# would make fail_frac swing from seed to seed; seed-drawn rank-1 low-rank
# sos instances, which do not fail, make up its bulk, enough that op_tail_s
# (ten ops beyond it) is the 76th percentile of its 41 ops.
CLI_ROUNDS = 3
RELAX_SOS = 3
RELAX_RANK1 = 34


@dataclass
class Outcome:
    ok: bool
    note: str
    digest: str
    gd: Optional[float] = None


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def instance_seed(seed: int, workload: str, k: int) -> int:
    raw = hashlib.sha256(f"{seed}:{workload}:{k}".encode()).digest()
    return int.from_bytes(raw[:4], "little") & 0x7FFFFFFF


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p, dtype=float).tobytes())
        elif isinstance(p, float):
            h.update(p.hex().encode())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _error_outcome(exc: BaseException) -> Outcome:
    return Outcome(False, f"{type(exc).__name__}: {exc}", _digest(type(exc).__name__, str(exc)))


def _report_check(target: float):
    """Recovery must succeed within gauge distance `target` of its truth."""
    def check(rep) -> Outcome:
        if isinstance(rep, BaseException):
            return _error_outcome(rep)
        net, gd = rep.network, float(rep.gauge_dist)
        arr = net.Q if net.kind == "quadratic" else net.components
        ok = gd <= target
        # at r = 1 the gauge group is the sign alone and the distance is 0 to
        # the last bit, so it carries no digits of accuracy into gd_digits_p50
        return Outcome(ok, f"gauge_dist {gd:.3e} vs target {target:.0e}",
                       _digest(arr, gd, float(rep.residual_S), float(rep.residual_T)),
                       gd if net.r > 1 else None)
    return check


def quad_net(r: int, d: int, rho: float, s: int):
    base = polypush.PolyNetwork(kind="quadratic", r=r, d=d, Q=np.zeros((d, r, r)))
    return polypush.smooth_quadratic(polypush.SmoothingParams(rho=rho, base=base, rng_seed=s))


def lowrank_net(r: int, d: int, ell: int, omega: int, rho: float, s: int):
    base = polypush.PolyNetwork(kind="lowrank", r=r, d=d, omega=omega, ell=ell,
                                components=np.zeros((d, ell, r)))
    return polypush.smooth_componentwise(polypush.SmoothingParams(rho=rho, base=base, rng_seed=s))


def quad_table(net):
    t = moments.exact_quadratic_moments(net)
    return t.S, t.T


def pair_table(net):
    return lr.exact_lowrank_pair_moments(net).S


def decompose_op(name, S, T, truth, target, **cfg) -> Op:
    return Op(name, lambda: tr.decompose(S, T, polypush.TRConfig(**cfg), truth=truth),
              _report_check(target))


def factorize_op(name, S, truth, target, **cfg) -> Op:
    return Op(name, lambda: lr.factorize(S, polypush.LRConfig(**cfg), truth=truth),
              _report_check(target))


def relax(seed: int, workdir: str) -> list[Op]:
    ops = []
    for k in range(RELAX_SOS):
        s = instance_seed(seed, "relax", k)
        net = quad_net(2, 3, 1.0, s)
        S, T = quad_table(net)
        ops.append(decompose_op(f"tr(2,3) sos#{k}", S, T, net, EXACT_GD,
                                r=2, backend="sos", rng_seed=s))
    # rank-1 low-rank instances t_a = v_a^3 with S = 15 t t^T (E g^6 = 15):
    # the instance from the library's tests, then seed-drawn ones
    comps = [np.cbrt(np.array([1.1, 0.6, -0.9])).reshape(3, 1, 1)]
    for k in range(RELAX_RANK1):
        rng = np.random.Generator(np.random.Philox(key=(instance_seed(seed, "relax-r1", k), 5)))
        comps.append(rng.standard_normal((3, 1, 1)))
    for k, c in enumerate(comps):
        t = c[:, 0, 0] ** 3
        r1 = polypush.PolyNetwork(kind="lowrank", r=1, d=3, omega=3, ell=1, components=c)
        ops.append(factorize_op(f"lr(1,3,1,3) sos#{k}", 15.0 * np.outer(t, t), r1, EXACT_GD,
                                r=1, omega=3, ell=1, backend="sos"))
    # cold ADMM solve of the r=1, d=1 tensor-ring program: no warm start
    ops.append(Op("cold solve tr(1,1)", _cold_solve, _check_cold))
    # a fixed r = 3 network against a rotated copy of itself: the only op
    # that reaches gauge_distance's r >= 3 path (eigen-alignment candidates
    # and Nelder-Mead refinement); fixed, because that path's cost varies
    # between networks
    ops.append(_gauge_op("gauge (3,6)", quad_net(3, 6, 1.0, 0)))
    # a fixed instance on which the low-rank relaxation fails its
    # non-degeneracy caps today: the op stays in and counts as failed
    lnet = lowrank_net(2, 4, 1, 3, 0.5, 0)
    ops.append(factorize_op("lr(2,4,1,3) sos", pair_table(lnet), lnet, EXACT_GD,
                            r=2, omega=3, ell=1, backend="sos"))
    return ops


def _gauge_op(name: str, net) -> Op:
    V, _ = np.linalg.qr(np.arange(1.0, 1.0 + net.r * net.r).reshape(net.r, net.r) ** 0.5)
    turned = polypush.rotate_network(net, V)

    def check(out) -> Outcome:
        # not a recovery, so its distance does not count into gd_digits_p50
        if isinstance(out, BaseException):
            return _error_outcome(out)
        gd = float(out[0])
        return Outcome(gd <= EXACT_GD, f"gauge_dist {gd:.3e} vs target {EXACT_GD:.0e}",
                       _digest(gd, out[1].V))
    return Op(name, lambda: gauge.gauge_distance(turned, net, gauge.AlignmentConfig(rng_seed=0)),
              check)


def _cold_solve():
    prog = relaxation.encode_tensor_ring(
        1, np.array([[1.0]]), np.ones((1, 1, 1)), np.array([1.0]), np.array([1.0]),
        R=1.1, kappa=0.1, eta=0.0,
    )
    return prog, relaxation.solve(prog)


def _check_cold(out) -> Outcome:
    if isinstance(out, BaseException):
        return _error_outcome(out)
    prog, pe = out
    if isinstance(pe, relaxation.Infeasible):
        return Outcome(False, f"infeasible after {pe.iterations} iterations",
                       _digest(pe.residual, pe.iterations))
    q = relaxation.pseudo_expect(pe, relaxation.Poly.var(prog.meta["qvar"][(0, 0, 0)]))
    err = abs(q - 1.0)
    return Outcome(err <= 1e-3, f"E[q] = {q:.6f} after {pe.iterations} iterations",
                   _digest(q, pe.residual, pe.iterations), None)


# ---------------------------------------------------------------------------
# cli-pipeline: polypush.cli.main called in-process, one op per command
# ---------------------------------------------------------------------------

def _files_digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        with open(p, "rb") as fh:
            h.update(p.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _cli_op(name: str, argv: list[str], check_extra=None) -> Op:
    out_path = argv[argv.index("--out") + 1]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(res) -> Outcome:
        if isinstance(res, BaseException):
            return _error_outcome(res)
        code, text = res
        written = [p for p in (out_path, out_path + ".manifest.json") if os.path.exists(p)]
        dig = _digest(code, text, _files_digest(written))
        if code != 0:
            return Outcome(False, f"exit code {code}: {text.strip()[-200:]}", dig)
        if check_extra is None:
            return Outcome(True, "exit 0", dig)
        ok, note, gd = check_extra()
        return Outcome(ok, note, dig, gd)
    return Op(name, run, check)


def _table_matches(samples: str, table: str, kind: str):
    """The CLI's table must equal, bitwise, the library estimator's on the
    same samples."""
    def check():
        with open(samples) as fh:
            z = np.asarray(json.load(fh)["z"], dtype=float)
        est = (moments.estimate_quadratic_moments(z) if kind == "quadratic"
               else moments.estimate_pair_moments(z))
        with open(table) as fh:
            got = json.load(fh)
        want = json.loads(json.dumps(moments.table_to_json(est)))
        return got == want, "table matches estimator" if got == want else "table differs", None
    return check


def _eval_within(path: str):
    def check():
        with open(path) as fh:
            gd = float(json.load(fh)["gauge_dist"])
        return gd <= CLI_GD, f"gauge_dist {gd:.3e} vs target {CLI_GD}", gd
    return check


def cli_pipeline(seed: int, workdir: str) -> list[Op]:
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    ops = []
    for k in range(CLI_ROUNDS):
        s = str(instance_seed(seed, "cli-pipeline", k))
        for kind, fam in (("quadratic", "q"), ("lowrank", "l")):
            d = os.path.join(workdir, f"{fam}{k}")
            os.makedirs(d)
            net, smp, tab, rec, ev = (os.path.join(d, f) for f in
                                      ("net.json", "samples.json", "table.json", "rec.json", "eval.json"))
            if kind == "quadratic":
                gen = ["--kind", "quadratic", "--r", "2", "--d", "3", "--rho", "1.0"]
                mkind = "quadratic"
                solve = ["solve_tr", "--r", "2", "--eta", "1e-3"]
            else:
                gen = ["--kind", "lowrank", "--r", "2", "--d", "4", "--omega", "3",
                       "--ell", "1", "--rho", "0.5"]
                mkind = "pair"
                solve = ["solve_lr", "--r", "2", "--omega", "3", "--ell", "1", "--eta", "1e-1"]
            # generating the network from the seed is set-up, not a timed op
            generate = _cli_op("generate", ["generate", *gen, "--seed", s, "--out", net])
            outcome = generate.check(generate.run())
            if not outcome.ok:
                raise RuntimeError(f"polypush generate failed: {outcome.note}")
            tag = f"{fam}#{k}"
            ops += [
                _cli_op(f"sample {tag}", ["sample", "--network", net, "--n", "200000",
                                          "--seed", s, "--out", smp]),
                _cli_op(f"moments {tag}", ["moments", "--samples", smp, "--kind", mkind,
                                           "--out", tab], _table_matches(smp, tab, mkind)),
                _cli_op(f"{solve[0]} {tag}", [solve[0], "--table", tab, *solve[1:], "--truth", net,
                                              "--seed", s, "--out", rec]),
                _cli_op(f"eval {tag}", ["eval", "--network", rec, "--reference", net,
                                        "--seed", s, "--out", ev], _eval_within(ev)),
            ]
    return ops


BUILDERS = {
    "cli-pipeline": cli_pipeline,
    "relax": relax,
}
