"""Batch command-line front end: file-based, reproducible pipeline runs.

Every command is a pure function of (inputs, flags, seed); a RunManifest
JSON with input/output digests is written next to each output so runs can
be audited and replayed; a run that fails with a PolypushError writes one
too, with its exit code and error.  Floats are written as the shortest
repr that reads back to the same float64.  A samples file is the largest
output by far, and orjson writes it (see ``_write_samples``): the layout of
``json.dump`` and the same shortest digits, spelled as ``0.00001`` where repr
writes ``1e-05`` and ``1e16`` where it writes ``1e+16``, and ``null`` for a
non-finite sample, so the file is strict JSON.

``sample`` also writes a binary sidecar ``<--out>.z.npz`` next to an
all-finite samples file: an uncompressed zip holding the float64 matrix as
``z.npy``, with the sha256 of the JSON bytes as its zip comment.
``moments --samples`` takes the matrix from the sidecar when that digest
equals the JSON file's sha256, and parses the JSON otherwise (a missing,
stale, truncated or foreign sidecar).  The JSON stays the file of record:
the sidecar is a cache, listed in no manifest, and deleting it is safe.
Shortest-repr floats read back bitwise, so the table is the same either way.

Exit codes: 0 success, 2 usage, 3 convergence, 4 degeneracy, 5 resource.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
import time
import zipfile
from itertools import chain
from typing import Optional

import numpy as np

from . import __version__
from .errors import PolypushError, UsageError, check_settings
from .gauge import AlignmentConfig, gauge_distance
from .lowerbound import build_networks, pair_to_json, search_matched_pair
from .lowrank import (
    LRConfig,
    exact_lowrank_pair_moments,
    factorize,
    verify_assumption_lr,
)
from .moments import (
    estimate_pair_moments,
    estimate_quadratic_moments,
    exact_quadratic_moments,
    table_from_json,
    table_to_json,
)
from .networks import (
    PolyNetwork,
    SeedDistribution,
    SmoothingParams,
    _philox_rng,
    network_from_json,
    network_to_json,
    sample,
    smooth_componentwise,
    smooth_quadratic,
    w1_upper_bound,
)
from .tensor_ring import REPEAT_RTOL, TRConfig, decompose, verify_assumption_tr
from .tensors import symmetrize


def _path_error(verb: str, path: str, exc: OSError) -> UsageError:
    return UsageError(f"cannot {verb} {path}: {exc.strerror or exc}")


def _open(path: str, mode: str = "r", **kwargs):
    """``open``, raising its OSError as a UsageError that names ``path``."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise _path_error("read" if "r" in mode else "write", path, exc) from exc


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with _open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: str, obj) -> None:
    with _open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


SAMPLE_CHUNK = 4096
# what the indent=2 layout of the samples file puts between two rows of "z"
ROW_SEP = b"\n    ],\n    [\n      "
# what orjson's indent=2 layout of {"z": rows} puts around the rows
ROWS_HEAD = b'{\n  "z": [\n    [\n      '
ROWS_TAIL = b"\n    ]\n  ]\n}"


def _write_samples(path: str, z: np.ndarray) -> str:
    """Write ``{"d", "n", "z"}`` as orjson lays it out with indent 2 and
    sorted keys, with ``z`` streamed in chunks of ``SAMPLE_CHUNK`` rows;
    returns the sha256 of the bytes written.

    Each chunk is one ``orjson.dumps({"z": block})`` with indent 2, less the
    text around its rows.  Its floats are Ryu's shortest round-trip digits,
    spelled as repr spells them for every |x| in [1e-4, 1e16) and zero, and
    as ``0.00001`` or ``1e16`` beyond; a non-finite entry is ``null``.
    """
    # imported here, not with the module: only `sample` needs it, and the
    # library's other users then neither load it nor pay its ~14 ms import
    import orjson

    option = orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY
    n, d = z.shape
    h = hashlib.sha256()
    with _open(path, "wb") as fh:
        def put(data: bytes) -> None:
            h.update(data)
            fh.write(data)

        put(f'{{\n  "d": {d},\n  "n": {n},\n  "z": [\n    [\n      '.encode())
        for start in range(0, n, SAMPLE_CHUNK):
            # orjson takes C-contiguous arrays only
            block = np.ascontiguousarray(z[start:start + SAMPLE_CHUNK], dtype=np.float64)
            if start:
                put(ROW_SEP)
            put(orjson.dumps({"z": block}, option=option)[len(ROWS_HEAD):-len(ROWS_TAIL)])
        put(b"\n    ]\n  ]\n}\n")
    return h.hexdigest()


# the binary copy of a samples file's "z", next to it (see the module docstring)
SIDECAR = ".z.npz"


def _write_sidecar(path: str, z: np.ndarray, digest: str) -> None:
    """Write ``path``'s sidecar: ``z`` as ``z.npy`` in an uncompressed zip
    whose comment is ``digest``, through a temporary file in the same
    directory.  A non-finite ``z`` gets none (the estimators reject its
    file), and an earlier run's sidecar is removed.  An OSError of either
    step is raised as a UsageError that names the sidecar."""
    if not np.isfinite(z).all():
        try:
            os.remove(path + SIDECAR)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise _path_error("remove", path + SIDECAR, exc) from exc
        return
    z = np.ascontiguousarray(z, dtype=np.float64)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        # zip members opened by name are dated 1980-01-01: the bytes are a
        # function of z and digest alone
        with os.fdopen(fd, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
            zf.comment = digest.encode()
            with zf.open("z.npy", "w", force_zip64=True) as member:
                fmt = np.lib.format
                fmt.write_array_header_1_0(member, fmt.header_data_from_array_1_0(z))
                # the matrix's own buffer: np.save would copy it to bytes first
                member.write(z.data)
        os.replace(tmp, path + SIDECAR)
    except OSError as exc:
        os.remove(tmp)
        raise _path_error("write", path + SIDECAR, exc) from exc
    except BaseException:
        os.remove(tmp)
        raise


def _read_sidecar(path: str, digest: str) -> Optional[np.ndarray]:
    """The matrix in ``path``'s sidecar, or None unless the sidecar's comment
    is ``digest`` and it holds a C-order 2-D float64 ``z.npy``, stored as
    ``_write_sidecar`` stores it: uncompressed, unencrypted and no larger than
    the sidecar itself."""
    try:
        with open(path + SIDECAR, "rb") as raw, zipfile.ZipFile(raw) as zf:
            if zf.comment != digest.encode():
                return None
            info = zf.getinfo("z.npy")
            if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
                return None
            with zf.open(info) as fh:
                if np.lib.format.read_magic(fh) != (1, 0):
                    return None
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
                nbytes = info.file_size - fh.tell()
                if (len(shape) != 2 or fortran or dtype != np.float64
                        or nbytes != 8 * shape[0] * shape[1]
                        or nbytes > os.fstat(raw.fileno()).st_size):
                    return None
                z = np.empty(shape)
                # the member's CRC is checked once its last byte is read
                if fh.readinto(z) != nbytes:
                    return None
    except (OSError, ValueError, KeyError, EOFError, NotImplementedError, zipfile.BadZipFile):
        return None
    return z


def _read_json(path: str):
    try:
        with _open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from exc


# the flags that name a command's input files
INPUT_FLAGS = ("base", "network", "samples", "table", "truth", "reference")


def _manifest(args, error: Optional[PolypushError] = None,
              digests: Optional[dict[str, str]] = None) -> None:
    """Write ``<--out>.manifest.json``: the command, its flags and seed, and
    the digests of its input files and of ``--out``, each listed only if it
    exists.  ``digests`` holds those the command already took, by path.  A
    failed run's manifest adds its exit code and error."""
    flags = {
        k: v for k, v in vars(args).items() if k not in ("func",) and v is not None
    }
    inputs = [getattr(args, k) for k in INPUT_FLAGS if getattr(args, k, None)]
    known = digests or {}
    man = {
        "command": args.command,
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "inputs": {p: known.get(p) or _digest(p) for p in inputs if os.path.isfile(p)},
        "outputs": {p: known.get(p) or _digest(p) for p in [args.out] if os.path.isfile(p)},
    }
    if error is not None:
        man["exit_code"] = error.exit_code
        man["error"] = str(error)
    _write_json(args.out + ".manifest.json", man)


def cmd_generate(args) -> int:
    if args.r < 1 or args.d < 1:
        raise UsageError("--r and --d must be at least 1")
    if args.base:
        base = network_from_json(_read_json(args.base))
    elif args.kind == "quadratic":
        base = PolyNetwork(
            kind="quadratic", r=args.r, d=args.d, Q=np.zeros((args.d, args.r, args.r)),
        )
    else:
        base = PolyNetwork(
            kind="lowrank", r=args.r, d=args.d, omega=args.omega,
            ell=args.ell, components=np.zeros((args.d, args.ell, args.r)),
        )
    smooth = smooth_quadratic if args.kind == "quadratic" else smooth_componentwise
    net = smooth(SmoothingParams(rho=args.rho, base=base, rng_seed=args.seed))
    _write_json(args.out, network_to_json(net))
    _manifest(args)
    return 0


def cmd_sample(args) -> int:
    net = network_from_json(_read_json(args.network))
    z = sample(net, SeedDistribution(), args.n, rng_seed=args.seed)
    digest = _write_samples(args.out, z)
    _write_sidecar(args.out, z, digest)
    _manifest(args, digests={args.out: digest})
    return 0


def _read_samples(path: str) -> tuple[np.ndarray, str]:
    """The (n, d) sample matrix of a samples file and the sha256 of the file.

    The matrix comes from the file's sidecar when that is keyed by this
    sha256, else from the JSON: every entry a number (not a string or
    boolean), and "n" and "d", when present, matching its shape.  A null
    entry, a non-finite sample as ``sample`` writes it, is refused here;
    NaN and Infinity tokens are refused by the estimators."""
    digest = _digest(path)
    z = _read_sidecar(path, digest)
    if z is not None:
        return z, digest
    obj = _read_json(path)
    if not isinstance(obj, dict) or "z" not in obj:
        raise UsageError(f"{path}: samples JSON has no \"z\" field")
    try:
        z = np.asarray(obj["z"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{path}: \"z\" is not a matrix of numbers: {exc}") from exc
    if z.ndim != 2:
        raise UsageError(f"{path}: \"z\" must be an (n, d) matrix, got shape {z.shape}")
    # float() takes numeric strings and booleans, and null reads as NaN
    other = set(map(type, chain.from_iterable(obj["z"]))) - {float, int}
    if type(None) in other:
        raise UsageError(f"{path}: samples must be finite (null stands for a NaN or inf sample)")
    if other:
        names = ", ".join(sorted(t.__name__ for t in other))
        raise UsageError(f"{path}: \"z\" holds entries of type {names}, not only numbers")
    n, d = z.shape
    if obj.get("n", n) != n or obj.get("d", d) != d:
        raise UsageError(
            f"{path}: header says n={obj.get('n')}, d={obj.get('d')} but \"z\" is {n}x{d}"
        )
    return z, digest


def cmd_moments(args) -> int:
    digests = None
    if args.samples:
        z, digest = _read_samples(args.samples)
        digests = {args.samples: digest}
        if args.kind == "quadratic":
            table = estimate_quadratic_moments(z)
        else:
            table = estimate_pair_moments(z)
    else:
        net = network_from_json(_read_json(args.network))
        if net.kind == "quadratic":
            table = exact_quadratic_moments(net)
        else:
            table = exact_lowrank_pair_moments(net)
    _write_json(args.out, table_to_json(table))
    _manifest(args, digests=digests)
    return 0


def _read_table(path: str, kind: str):
    """The moment table in ``path``; UsageError unless it is of ``kind``
    ("quadratic" or "pair")."""
    obj = _read_json(path)
    table = table_from_json(obj)
    if obj["kind"] != kind:
        raise UsageError(
            f"{path}: expected a {kind} moment table, got a {obj['kind']} one"
        )
    return table


def _tr_config(args, seed: int, eta: float) -> TRConfig:
    """The decomposition settings of ``solve_tr`` and of a ``bench`` row."""
    return TRConfig(
        r=args.r, backend=args.backend, restarts=args.restarts, tol=args.tol,
        rng_seed=seed, eta=eta,
    )


def cmd_solve_tr(args) -> int:
    table = _read_table(args.table, "quadratic")
    cfg = _tr_config(args, args.seed, args.eta)
    truth = network_from_json(_read_json(args.truth)) if args.truth else None
    report = decompose(table.S, table.T, cfg, truth=truth)
    _write_json(args.out, network_to_json(report.network))
    summary = {
        "residual_S": float(report.residual_S),
        "residual_T": float(report.residual_T),
        "gauge_dist": None if report.gauge_dist is None else float(report.gauge_dist),
    }
    print(json.dumps(summary))
    _manifest(args)
    return 0


def cmd_solve_lr(args) -> int:
    table = _read_table(args.table, "pair")
    cfg = LRConfig(
        r=args.r, omega=args.omega, ell=args.ell, backend=args.backend,
        restarts=args.restarts, tol=args.tol, rng_seed=args.seed,
        sigma_mode=args.sigma, eta=args.eta,
    )
    truth = network_from_json(_read_json(args.truth)) if args.truth else None
    report = factorize(table.S, cfg, truth=truth)
    _write_json(args.out, network_to_json(report.network))
    summary = {
        "residual_S": float(report.residual_S),
        "gauge_dist": None if report.gauge_dist is None else float(report.gauge_dist),
    }
    print(json.dumps(summary))
    _manifest(args)
    return 0


def cmd_eval(args) -> int:
    net_a = network_from_json(_read_json(args.network))
    net_b = network_from_json(_read_json(args.reference))
    dist, _ = gauge_distance(net_a, net_b, AlignmentConfig(rng_seed=args.seed))
    w1 = w1_upper_bound(dist, net_a.r, net_a.d, net_a.omega, SeedDistribution())
    out = {"gauge_dist": float(dist), "w1_upper_bound": float(w1)}
    print(json.dumps(out))
    if args.out:
        _write_json(args.out, out)
        _manifest(args)
    return 0


def cmd_verify(args) -> int:
    net = network_from_json(_read_json(args.network))
    if net.kind == "quadratic":
        out = {"kind": "quadratic", **dataclasses.asdict(verify_assumption_tr(net))}
    else:
        out = {"kind": "lowrank", **dataclasses.asdict(verify_assumption_lr(net))}
    print(json.dumps(out))
    if args.out:
        _write_json(args.out, out)
        _manifest(args)
    return 0


def cmd_lowerbound(args) -> int:
    pair = search_matched_pair(args.r, restarts=args.restarts, tol=args.tol, rng_seed=args.seed)
    inst = build_networks(pair)
    text = pair_to_json(inst)
    if args.out:
        with _open(args.out, "w") as fh:
            fh.write(text + "\n")
        _manifest(args)
    else:
        print(text)
    return 0


def cmd_bench(args) -> int:
    rows = []
    seeds = range(args.seed, args.seed + args.reps)
    try:
        etas = [float(e) for e in args.eta_list.split(",")]
    except ValueError as exc:
        raise UsageError(f"--eta-list must be comma-separated numbers: {exc}") from exc
    check_settings({"reps": args.reps}, {})
    for eta in etas:
        check_settings({}, {}, {"eta": eta})
    for eta in etas:
        for s in seeds:
            base = PolyNetwork(
                kind="quadratic", r=args.r, d=args.d,
                Q=np.zeros((args.d, args.r, args.r)),
            )
            truth = smooth_quadratic(SmoothingParams(rho=args.rho, base=base, rng_seed=s))
            table = exact_quadratic_moments(truth)
            # noise symmetric like every estimated table's
            rng = _philox_rng(s, 99)
            S = table.S + eta * rng.uniform(-1, 1, size=table.S.shape)
            T = table.T + eta * symmetrize(rng.uniform(-1, 1, size=table.T.shape))
            S = 0.5 * (S + S.T)
            t0 = time.perf_counter()
            cfg = _tr_config(args, s, eta)
            try:
                report = decompose(S, T, cfg, truth=truth)
                gd, resid = report.gauge_dist, report.residual
            except UsageError:
                # the flags are wrong for every row, not this instance
                raise
            except PolypushError:
                gd, resid = float("nan"), float("nan")
            wall_ms = 1000.0 * (time.perf_counter() - t0)
            rows.append(
                [args.r, args.d, 2, 0, args.rho, eta, 0, args.backend, s,
                 float(gd), float(resid), float(wall_ms)]
            )
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["r", "d", "omega", "ell", "rho", "eta", "n", "backend", "seed",
         "gauge_dist", "residual", "wall_ms"]
    )
    writer.writerows(rows)
    with _open(args.out, "w") as fh:
        fh.write(buf.getvalue())
    _manifest(args)
    return 0


def _common_solver_flags(p, config):
    """--backend, --restarts and --tol, with the defaults of the ``config``
    class (TRConfig or LRConfig) the command builds."""
    defaults = {f.name: f.default for f in dataclasses.fields(config)}
    p.add_argument("--backend", choices=("sos", "local"), default=defaults["backend"])
    p.add_argument(
        "--restarts", type=int, default=defaults["restarts"],
        help="random starts of the local fit, tried in turn after its closed-form "
        "start (where one can be formed) while the fit misses --tol; with --eta > 0 "
        "they also stop once a start repeats the best residual so far",
    )
    p.add_argument("--tol", type=float, default=defaults["tol"])


ETA_HELP = (
    "noise level of the table (0: exact); above 0 it scales the residual "
    "thresholds, and the local fit's starts stop once one repeats the best "
    f"residual so far, to relative {REPEAT_RTOL:g}"
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polypush",
        description="learn polynomial transformations of Gaussian seeds from moments",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a smoothed network JSON")
    p.add_argument("--kind", choices=("quadratic", "lowrank"), default="quadratic")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--omega", type=int, default=3)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--base", default=None, help="base network JSON (default zeros)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sample", help="draw pushforward samples")
    p.add_argument("--network", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out", required=True,
        help="samples JSON, the file of record, with null for a non-finite sample; finite "
        f"samples also get a binary copy, OUT{SIDECAR}, keyed by the JSON's sha256, which "
        "`moments` reads in its place and which is safe to delete",
    )
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("moments", help="exact or estimated moment tables")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--network", default=None)
    source.add_argument(
        "--samples", default=None,
        help=f"samples JSON; its matrix is read from SAMPLES{SIDECAR} when that "
        "sidecar is keyed by the JSON's sha256, else parsed from the JSON",
    )
    p.add_argument("--kind", choices=("quadratic", "pair"), default="quadratic")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("solve_tr", help="tensor-ring decomposition from a moment table")
    p.add_argument("--table", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--truth", default=None, help="reference network for gauge distance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--eta", type=float, default=0.0, help=ETA_HELP)
    _common_solver_flags(p, TRConfig)
    p.set_defaults(func=cmd_solve_tr)

    p = sub.add_parser("solve_lr", help="low-rank factorization from a pair-moment table")
    p.add_argument("--table", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--omega", type=int, default=3)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--sigma", choices=("gaussian", "identity"), default="gaussian")
    p.add_argument("--truth", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--eta", type=float, default=0.0, help=ETA_HELP)
    _common_solver_flags(p, LRConfig)
    p.set_defaults(func=cmd_solve_lr)

    p = sub.add_parser("eval", help="gauge distance and Wasserstein bound")
    p.add_argument("--network", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="non-degeneracy diagnostics")
    p.add_argument("--network", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lowerbound", help="matched-pair hard instance")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lowerbound)

    # no abbreviations: solve_tr's --eta would read as --eta-list here
    p = sub.add_parser("bench", help="sweep decomposition accuracy and runtime to CSV",
                       allow_abbrev=False)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--eta-list", default="0.0,1e-4,1e-3")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _common_solver_flags(p, TRConfig)
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except PolypushError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.out:
            try:
                _manifest(args, exc)
            except (OSError, UsageError) as werr:
                print(f"error: no manifest written: {werr}", file=sys.stderr)
        return exc.exit_code
    except SystemExit as exc:
        # argparse uses 2 for usage errors already
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
