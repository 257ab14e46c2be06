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
``moments --samples`` takes its table from the sidecar only when the
sidecar's key, its zip comment, equals the JSON file's sha256, and parses the
JSON otherwise (a missing, stale, truncated or foreign sidecar).  The JSON
stays the file of record: the sidecar is a cache, listed in no manifest, and
deleting it is safe.  Shortest-repr floats read back bitwise, so the table is
the same either way.

The sha256 of a samples file runs on one helper thread, beside the main
thread's work: in ``sample`` the helper hashes each chunk the main thread has
formatted and writes, and in ``moments --samples`` it hashes the file while
the main thread reads the sidecar and estimates from its matrix, an estimate
that is dropped, with any error it raised, unless the keys match.  hashlib
releases the GIL on large buffers, so the two overlap on a second CPU.  The
helper is joined before the command goes on, on every path; it is a daemon
thread, so not even a leaked one could keep the interpreter from exiting.

Exit codes: 0 success, 2 usage, 3 convergence, 4 degeneracy, 5 resource.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
import threading
import zipfile
from itertools import chain
from typing import Optional

import numpy as np

from . import __version__, lowrank, tensor_ring
from .errors import PolypushError, UsageError
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
    network_from_json,
    network_to_json,
    sample,
    smooth_componentwise,
    smooth_quadratic,
    w1_upper_bound,
)
from .tensor_ring import REPEAT_RTOL, TRConfig, decompose, verify_assumption_tr


def _path_error(verb: str, path: str, exc: OSError) -> UsageError:
    return UsageError(f"cannot {verb} {path}: {exc.strerror or exc}")


def _open(path: str, mode: str = "r", **kwargs):
    """``open``, raising its OSError as a UsageError that names ``path``."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise _path_error("read" if "r" in mode else "write", path, exc) from exc


def _digest(path: str) -> str:
    """The sha256 of the file at ``path``, in one GIL-free hashlib call on
    the file mapped into memory, or read in 1 MiB pieces when it cannot be
    mapped (an empty file, a pipe)."""
    import mmap

    with _open(path, "rb") as fh:
        try:
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
                return hashlib.sha256(view).hexdigest()
        except (ValueError, OSError):
            pass
        h = hashlib.sha256()
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
        return h.hexdigest()


def _json_text(obj, where: str, **layout) -> str:
    """``json.dumps(obj, **layout)`` as strict JSON; a UsageError naming
    ``where``, the output, when ``obj`` holds a NaN or an infinity."""
    try:
        return json.dumps(obj, allow_nan=False, **layout)
    except ValueError as exc:
        raise UsageError(f"cannot write {where}: it holds a non-finite number, which "
                         "strict JSON cannot represent") from exc


def _write_text(path: str, text: str) -> None:
    """Write ``text`` and a newline to ``path``; an OSError of opening,
    writing or closing it is raised as a UsageError that names ``path``."""
    fh = _open(path, "w")
    try:
        with fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise _path_error("write", path, exc) from exc


def _write_json(path: str, obj) -> None:
    """Write ``obj`` to ``path`` with indent 2 and sorted keys; it is
    serialized first, so a refused one leaves no file."""
    _write_text(path, _json_text(obj, path, indent=2, sort_keys=True))


SAMPLE_CHUNK = 4096
# what the indent=2 layout of the samples file puts between two rows of "z"
ROW_SEP = b"\n    ],\n    [\n      "
# what orjson's indent=2 layout of {"z": rows} puts around the rows
ROWS_HEAD = b'{\n  "z": [\n    [\n      '
ROWS_TAIL = b"\n    ]\n  ]\n}"


def _write_samples(path: str, z: np.ndarray) -> str:
    """Write ``{"d", "n", "z"}`` as orjson lays it out with indent 2 and
    sorted keys, with ``z`` streamed in chunks of ``SAMPLE_CHUNK`` rows;
    returns the sha256 of the bytes written.  An OSError of opening, writing
    or closing the file is raised as a UsageError that names ``path``.

    Each chunk is one ``orjson.dumps({"z": block})`` with indent 2, less the
    text around its rows.  Its floats are Ryu's shortest round-trip digits,
    spelled as repr spells them for every |x| in [1e-4, 1e16) and zero, and
    as ``0.00001`` or ``1e16`` beyond; a non-finite entry is ``null``.

    A helper thread hashes each chunk, taken from a queue of at most two,
    while this one formats and writes the next.  The write stays here: a
    helper that wrote too waited for the GIL at every chunk while orjson
    held it.
    """
    # imported here, not with the module: only `sample` needs them, and the
    # library's other users then neither load them nor pay orjson's ~14 ms
    # import
    import orjson
    import queue

    option = orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY
    n, d = z.shape
    h = hashlib.sha256()
    fh = _open(path, "wb")
    # one item per chunk, its separator included; None ends the helper
    pending: queue.Queue = queue.Queue(maxsize=2)

    def hash_chunks() -> None:
        for parts in iter(pending.get, None):
            for data in parts:
                h.update(data)

    def put(*parts: bytes) -> None:
        pending.put(parts)
        for data in parts:
            fh.write(data)

    hasher = threading.Thread(target=hash_chunks, daemon=True)
    try:
        with fh:
            hasher.start()
            try:
                put(f'{{\n  "d": {d},\n  "n": {n},\n  "z": [\n    [\n      '.encode())
                for start in range(0, n, SAMPLE_CHUNK):
                    # orjson takes C-contiguous arrays only
                    block = np.ascontiguousarray(z[start:start + SAMPLE_CHUNK],
                                                 dtype=np.float64)
                    rows = orjson.dumps({"z": block},
                                        option=option)[len(ROWS_HEAD):-len(ROWS_TAIL)]
                    if start:
                        put(ROW_SEP, rows)
                    else:
                        put(rows)
                put(b"\n    ]\n  ]\n}\n")
            finally:
                pending.put(None)
                hasher.join()
    except OSError as exc:
        raise _path_error("write", path, exc) from exc
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


def _read_sidecar(path: str) -> tuple[Optional[np.ndarray], Optional[str]]:
    """The matrix in ``path``'s sidecar and the sidecar's key, its zip
    comment, or (None, None) unless it holds a C-order 2-D float64 ``z.npy``,
    stored as ``_write_sidecar`` stores it: uncompressed, unencrypted and no
    larger than the sidecar itself.  The key is not checked here."""
    none = None, None
    try:
        with open(path + SIDECAR, "rb") as raw, zipfile.ZipFile(raw) as zf:
            key = zf.comment.decode()
            info = zf.getinfo("z.npy")
            if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
                return none
            with zf.open(info) as fh:
                if np.lib.format.read_magic(fh) != (1, 0):
                    return none
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
                nbytes = info.file_size - fh.tell()
                if (len(shape) != 2 or fortran or dtype != np.float64
                        or nbytes != 8 * shape[0] * shape[1]
                        or nbytes > os.fstat(raw.fileno()).st_size):
                    return none
                z = np.empty(shape)
                # the member's CRC is checked once its last byte is read
                if fh.readinto(z) != nbytes:
                    return none
    except (OSError, ValueError, KeyError, EOFError, NotImplementedError, zipfile.BadZipFile):
        return none
    return z, key


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
    failed run's manifest adds its exit code and error.  A NaN or infinite
    flag is listed as its string, "nan", "inf" or "-inf"."""
    flags = {
        k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in vars(args).items() if k not in ("func",) and v is not None
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


def _parse_samples(path: str) -> np.ndarray:
    """The (n, d) sample matrix in the JSON of a samples file: every entry a
    number (not a string or boolean), and "n" and "d", when present, matching
    its shape.  A null entry, a non-finite sample as ``sample`` writes it, is
    refused here; NaN and Infinity tokens are refused by the estimators."""
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
    return z


def _estimate(z: np.ndarray, kind: str):
    """The ``kind`` ("quadratic" or "pair") moment table of the samples
    ``z``.  Products that overflow give a non-finite table, which the
    strict-JSON check refuses, instead of numpy warnings."""
    estimate = estimate_quadratic_moments if kind == "quadratic" else estimate_pair_moments
    with np.errstate(over="ignore", invalid="ignore"):
        return estimate(z)


def _samples_moments(path: str, kind: str):
    """The ``kind`` moment table estimated from the samples file at ``path``,
    and the sha256 of the file.

    A helper thread takes the sha256 while this one reads the sidecar and
    estimates from its matrix.  That table, or the error it raised, stands
    only if the sidecar's key equals the sha256; otherwise both are dropped
    and the JSON is parsed."""
    found: list = []

    def hash_file() -> None:
        try:
            found.append(_digest(path))
        except BaseException as exc:  # raised again by the calling thread
            found.append(exc)

    hasher = threading.Thread(target=hash_file, daemon=True)
    hasher.start()
    try:
        z, key = _read_sidecar(path)
        table = error = None
        if z is not None:
            try:
                table = _estimate(z, kind)
            except PolypushError as exc:
                error = exc
    finally:
        hasher.join()
    digest, = found
    if isinstance(digest, BaseException):
        raise digest
    if z is not None and key == digest:
        if error is not None:
            raise error
        return table, digest
    # drop the sidecar's matrix before the JSON's is built
    del z, table, error
    return _estimate(_parse_samples(path), kind), digest


def cmd_moments(args) -> int:
    digests = None
    if args.samples:
        table, digest = _samples_moments(args.samples, args.kind)
        digests = {args.samples: digest}
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


def cmd_solve_tr(args) -> int:
    table = _read_table(args.table, "quadratic")
    cfg = TRConfig(
        r=args.r, backend=args.backend, restarts=args.restarts, rng_seed=args.seed,
        eta=args.eta,
    )
    truth = network_from_json(_read_json(args.truth)) if args.truth else None
    report = decompose(table.S, table.T, cfg, truth=truth)
    _write_json(args.out, network_to_json(report.network))
    summary = {
        "residual_S": float(report.residual_S),
        "residual_T": float(report.residual_T),
        "gauge_dist": None if report.gauge_dist is None else float(report.gauge_dist),
    }
    print(_json_text(summary, "stdout"))
    _manifest(args)
    return 0


def cmd_solve_lr(args) -> int:
    table = _read_table(args.table, "pair")
    cfg = LRConfig(
        r=args.r, omega=args.omega, ell=args.ell, backend=args.backend,
        restarts=args.restarts, rng_seed=args.seed, eta=args.eta,
    )
    truth = network_from_json(_read_json(args.truth)) if args.truth else None
    report = factorize(table.S, cfg, truth=truth)
    _write_json(args.out, network_to_json(report.network))
    summary = {
        "residual_S": float(report.residual_S),
        "gauge_dist": None if report.gauge_dist is None else float(report.gauge_dist),
    }
    print(_json_text(summary, "stdout"))
    _manifest(args)
    return 0


def cmd_eval(args) -> int:
    net_a = network_from_json(_read_json(args.network))
    net_b = network_from_json(_read_json(args.reference))
    dist, _ = gauge_distance(net_a, net_b, AlignmentConfig(rng_seed=args.seed))
    w1 = w1_upper_bound(dist, net_a.r, net_a.d, net_a.omega, SeedDistribution())
    out = {"gauge_dist": float(dist), "w1_upper_bound": float(w1)}
    print(_json_text(out, "stdout"))
    if args.out:
        _write_json(args.out, out)
        _manifest(args)
    return 0


def cmd_verify(args) -> int:
    net = network_from_json(_read_json(args.network))
    # a radius that overflows is refused as a non-finite output, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        if net.kind == "quadratic":
            out = {"kind": "quadratic", **dataclasses.asdict(verify_assumption_tr(net))}
        else:
            out = {"kind": "lowrank", **dataclasses.asdict(verify_assumption_lr(net))}
    print(_json_text(out, "stdout"))
    if args.out:
        _write_json(args.out, out)
        _manifest(args)
    return 0


def cmd_lowerbound(args) -> int:
    pair = search_matched_pair(args.r, restarts=args.restarts, tol=args.tol, rng_seed=args.seed)
    text = _json_text(pair_to_json(build_networks(pair)), args.out or "stdout", indent=2)
    if args.out:
        _write_text(args.out, text)
        _manifest(args)
    else:
        print(text)
    return 0


def _common_solver_flags(p, config, fit_tol: float):
    """--backend and --restarts, with the defaults of the ``config`` class
    (TRConfig or LRConfig) the command builds; ``fit_tol`` is its kind's
    FIT_TOL."""
    defaults = {f.name: f.default for f in dataclasses.fields(config)}
    p.add_argument("--backend", choices=("sos", "local"), default=defaults["backend"])
    p.add_argument(
        "--restarts", type=int, default=defaults["restarts"],
        help="random starts of the local fit, tried in turn after its closed-form "
        f"start (where one can be formed) until a fit's residual is at most {fit_tol:g}; "
        "with --eta > 0 they also stop once a start repeats the best residual so far",
    )


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
    _common_solver_flags(p, TRConfig, tensor_ring.FIT_TOL)
    p.set_defaults(func=cmd_solve_tr)

    p = sub.add_parser("solve_lr", help="low-rank factorization from a pair-moment table")
    p.add_argument("--table", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--omega", type=int, default=3)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--truth", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--eta", type=float, default=0.0, help=ETA_HELP)
    _common_solver_flags(p, LRConfig, lowrank.FIT_TOL)
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
