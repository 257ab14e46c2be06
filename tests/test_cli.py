import contextlib
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
import zipfile
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from polypush import cli, lowrank, moments, networks, tensor_ring
from polypush.cli import main
from polypush.errors import PolypushError
from polypush.lowerbound import build_networks, search_matched_pair
from polypush.lowrank import LRConfig
from polypush.networks import SeedDistribution, network_from_json, sample
from polypush.tensor_ring import TRConfig


def run(*argv):
    return main(list(argv))


def read(path):
    with open(path) as fh:
        return json.load(fh)


def samples_bytes(z):
    """The samples file as one orjson call on the whole matrix writes it."""
    obj = {"n": z.shape[0], "d": z.shape[1], "z": np.ascontiguousarray(z)}
    option = orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_SORT_KEYS
    return orjson.dumps(obj, option=option) + b"\n"


def assert_reads_back(rows, z):
    """``rows``, a parsed "z", holds each finite entry of ``z`` bitwise and
    None for each other one."""
    null = np.array([[v is None for v in row] for row in rows])
    assert np.array_equal(null, ~np.isfinite(z))
    got = np.array(rows, dtype=float)[~null]
    assert np.array_equal(got.view(np.uint64), z[~null].view(np.uint64))


def assert_samples_file(path, z):
    """The file at ``path`` holds the bytes of ``samples_bytes(z)``, compared
    line by line (pytest's diff of two long texts that differ in many lines
    takes minutes), and json.load reads ``z`` back from it, as does
    orjson.loads, which refuses the NaN and Infinity tokens of json.dump."""
    assert path.read_bytes().split(b"\n") == samples_bytes(z).split(b"\n")
    assert_reads_back(read(path)["z"], z)
    assert_reads_back(orjson.loads(path.read_bytes())["z"], z)


@pytest.fixture
def quad_net(tmp_path):
    out = tmp_path / "net.json"
    assert run("generate", "--kind", "quadratic", "--r", "2", "--d", "3",
               "--rho", "0.5", "--seed", "1", "--out", str(out)) == 0
    return out


class TestGenerate:
    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run("generate", "--r", "2", "--d", "3", "--rho", "0.5",
                       "--seed", "7", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rho_zero_is_zero_network(self, tmp_path):
        out = tmp_path / "z.json"
        assert run("generate", "--r", "2", "--d", "2", "--rho", "0.0",
                   "--seed", "0", "--out", str(out)) == 0
        net = network_from_json(read(out))
        assert np.count_nonzero(net.Q) == 0

    def test_schema_valid(self, quad_net):
        obj = read(quad_net)
        assert obj["kind"] == "quadratic"
        assert (obj["r"], obj["d"]) == (2, 3)
        net = network_from_json(obj)
        assert net.Q.shape == (3, 2, 2)

    def test_manifest_written(self, quad_net):
        man = read(str(quad_net) + ".manifest.json")
        assert man["command"] == "generate"
        assert str(quad_net) in man["outputs"]


class TestSamplesFile:
    @pytest.mark.parametrize("d", [1, 3, 4])
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
    def test_golden_bytes(self, tmp_path, n, d):
        net = tmp_path / "net.json"
        out = tmp_path / "samples.json"
        assert run("generate", "--r", "2", "--d", str(d), "--seed", str(d),
                   "--out", str(net)) == 0
        assert run("sample", "--network", str(net), "--n", str(n), "--seed", "4",
                   "--out", str(out)) == 0
        z = sample(network_from_json(read(net)), SeedDistribution(kind="gaussian"),
                   n, rng_seed=4)
        assert_samples_file(out, z)

    def test_edge_values(self, tmp_path):
        big = np.finfo(float).max
        z = np.array([[-0.0, 5e-324, big, -big],
                      [1e16, 1e-5, np.nan, np.inf],
                      [-np.inf, 0.0, 1.0, -1.5]])
        out = tmp_path / "samples.json"
        cli._write_samples(str(out), z)
        assert_samples_file(out, z)

    # entries orjson spells otherwise than repr, for about half the draws:
    # tiny (zero among them; decimal exponents -5 to -10 alike), subnormal,
    # huge, and non-finite ones, which it writes as null
    ODD_ENTRIES = st.one_of(
        st.floats(-1e-4, 1e-4, exclude_min=True, exclude_max=True),
        st.builds(lambda m, k: m * 10.0**k, st.floats(-9.99, 9.99), st.integers(-10, -5)),
        st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
        st.floats(min_value=1e16, allow_infinity=False),
        st.floats(max_value=-1e16, allow_infinity=False),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )

    @given(z=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                        elements=st.floats() | ODD_ENTRIES),
           chunk=st.integers(1, 4))
    def test_matches_one_orjson_call(self, tmp_path_factory, z, chunk):
        out = tmp_path_factory.mktemp("samples") / "samples.json"
        with mock.patch.object(cli, "SAMPLE_CHUNK", chunk):
            digest = cli._write_samples(str(out), z)
        assert_samples_file(out, z)
        assert digest == sha256(out)

    # entries orjson spells as repr does: zero and |x| in [1e-4, 1e16)
    USUAL_ENTRIES = st.one_of(
        st.floats(1e-4, 1e16, exclude_max=True),
        st.floats(-1e16, -1e-4, exclude_min=True),
        st.sampled_from([0.0, -0.0]),
    )

    @given(z=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                        elements=USUAL_ENTRIES),
           chunk=st.integers(1, 4))
    def test_matches_json_dump(self, tmp_path_factory, z, chunk):
        out = tmp_path_factory.mktemp("samples") / "samples.json"
        with mock.patch.object(cli, "SAMPLE_CHUNK", chunk):
            cli._write_samples(str(out), z)
        text = json.dumps({"n": z.shape[0], "d": z.shape[1], "z": z.tolist()},
                          indent=2, sort_keys=True)
        assert out.read_bytes() == text.encode() + b"\n"

    @staticmethod
    def boundary_matrix(layout, tmp_path):
        """A matrix whose entries cross the edges of [1e-4, 1e16), the range
        in which orjson spells a float as repr does, and the edges at 1e-5 and
        1e-9 below it at which repr's spelling changes, laid out as ``layout``
        says."""
        rng = np.random.default_rng(15)
        if layout == "lowrank":
            net = tmp_path / "net.json"
            assert run("generate", "--kind", "lowrank", "--r", "2", "--d", "4", "--omega", "3",
                       "--ell", "1", "--rho", "0.5", "--seed", "3", "--out", str(net)) == 0
            z = sample(network_from_json(read(net)), SeedDistribution(kind="gaussian"),
                       5000, rng_seed=3)
            size = np.abs(z)
            # about a tenth of the entries take the exponent form
            assert ((size < 1e-4) & (size != 0)).mean() > 0.05
            return z
        if layout == "random-bits":
            return rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64).reshape(-1, 4)
        big = np.finfo(float).max
        edges = [np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e-4, 1), np.nextafter(1e16, 0), 1e16,
                 np.nextafter(1e16, np.inf), 1e-5, np.nextafter(1e-5, 0), np.nextafter(1e-5, 1),
                 5e-05, 1e-7, np.nextafter(1e-9, 0), 1e-9, np.nextafter(1e-9, 1), 1e-10, 1e-100,
                 1e22, 1e100, 5e-324, 2.2250738585072014e-308, 1e-310, big,
                 -0.0, 0.0, np.nan, np.inf, 1.0, 123.5, 1e15, 0.5]
        z = np.concatenate([edges, np.negative(edges), rng.uniform(1e-5, 1e-4, 960),
                            -rng.uniform(1e-5, 1e-4, 40)])
        if layout.startswith("all-odd"):
            # only entries spelled otherwise than repr, or null: each row and
            # each chunk starts and ends with one
            size = np.abs(z)
            z = z[~(size < 1e16) | ((size < 1e-4) & (size != 0))]
            return z.reshape(-1, 1 if layout == "all-odd-column" else 2)
        z = z.reshape(-1, 4)
        if layout == "fortran":
            return np.asfortranarray(z)
        if layout == "strided":
            return np.hstack([z, z])[::3, 1::2]
        return z

    @pytest.mark.parametrize("layout", ["edges", "random-bits", "lowrank", "fortran", "strided",
                                        "all-odd", "all-odd-column"])
    @pytest.mark.parametrize("chunk", [7, 4096])
    def test_spelling_boundaries(self, tmp_path, layout, chunk):
        z = self.boundary_matrix(layout, tmp_path)
        out = tmp_path / "samples.json"
        with mock.patch.object(cli, "SAMPLE_CHUNK", chunk):
            digest = cli._write_samples(str(out), z)
        assert_samples_file(out, z)
        assert digest == sha256(out)


class TestRoundTrip:
    def test_quadratic_end_to_end(self, tmp_path, quad_net):
        samples = tmp_path / "samples.json"
        table = tmp_path / "table.json"
        rec = tmp_path / "rec.json"
        assert run("sample", "--network", str(quad_net), "--n", "1000000",
                   "--seed", "2", "--out", str(samples)) == 0
        assert run("moments", "--samples", str(samples), "--kind", "quadratic",
                   "--out", str(table)) == 0
        assert run("solve_tr", "--table", str(table), "--r", "2",
                   "--truth", str(quad_net), "--eta", "1e-3",
                   "--out", str(rec)) == 0
        assert run("eval", "--network", str(rec),
                   "--reference", str(quad_net)) == 0
        out = tmp_path / "eval.json"
        assert run("eval", "--network", str(rec), "--reference", str(quad_net),
                   "--out", str(out)) == 0
        rep = read(out)
        assert rep["gauge_dist"] <= 1e-2
        assert rep["w1_upper_bound"] >= rep["gauge_dist"]

    def test_eval_identical_networks(self, tmp_path, quad_net):
        out = tmp_path / "eval.json"
        assert run("eval", "--network", str(quad_net),
                   "--reference", str(quad_net), "--out", str(out)) == 0
        assert read(out)["gauge_dist"] <= 1e-10

    def test_lowrank_end_to_end(self, tmp_path):
        net = tmp_path / "lr.json"
        table = tmp_path / "lrmom.json"
        rec = tmp_path / "lrrec.json"
        assert run("generate", "--kind", "lowrank", "--r", "2", "--d", "4",
                   "--omega", "3", "--ell", "1", "--rho", "0.5", "--seed", "5",
                   "--out", str(net)) == 0
        assert run("moments", "--network", str(net), "--kind", "pair",
                   "--out", str(table)) == 0
        assert read(table)["kind"] == "pair"
        assert run("solve_lr", "--table", str(table), "--r", "2",
                   "--omega", "3", "--ell", "1", "--truth", str(net),
                   "--out", str(rec)) == 0
        out = tmp_path / "eval.json"
        assert run("eval", "--network", str(rec), "--reference", str(net),
                   "--out", str(out)) == 0
        assert read(out)["gauge_dist"] <= 1e-4

    def test_verify_both_kinds(self, tmp_path, quad_net, capsys):
        assert run("verify", "--network", str(quad_net)) == 0
        rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rep["kind"] == "quadratic"
        assert rep["sigma_m"] > 0
        lr = tmp_path / "lr.json"
        assert run("generate", "--kind", "lowrank", "--r", "2", "--d", "4",
                   "--rho", "0.5", "--seed", "0", "--out", str(lr)) == 0
        assert run("verify", "--network", str(lr)) == 0
        rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rep["kind"] == "lowrank"
        assert rep["sigma_min_M"] > 0

    # verify's keys, in order, and those that need the network's smoothing_rho
    VERIFY_KEYS = {
        "quadratic": ["kind", "radius", "sigma_m", "m", "d", "predicted_kappa", "flag",
                      "warning"],
        "lowrank": ["kind", "radius", "sigma_min_M", "sigma_min_H", "sigma_min_K", "k_skipped",
                    "predicted_psi", "predicted_kappa", "flag_psi", "flag_kappa"],
    }
    SMOOTHING_KEYS = {
        "quadratic": ["predicted_kappa", "flag"],
        "lowrank": ["predicted_psi", "predicted_kappa", "flag_psi", "flag_kappa"],
    }

    @pytest.mark.parametrize("kind, d", [("quadratic", "3"), ("lowrank", "4")])
    def test_verify_reports_smoothing_flags(self, tmp_path, capsys, kind, d):
        net = tmp_path / "net.json"
        assert run("generate", "--kind", kind, "--r", "2", "--d", d, "--rho", "0.5",
                   "--out", str(net)) == 0
        assert read(net)["smoothing_rho"] == 0.5
        capsys.readouterr()
        assert run("verify", "--network", str(net)) == 0
        rep = json.loads(capsys.readouterr().out)
        assert list(rep) == self.VERIFY_KEYS[kind]
        assert all(rep[key] is not None for key in self.SMOOTHING_KEYS[kind])
        # a network written without the key still verifies, with nulls
        obj = read(net)
        del obj["smoothing_rho"]
        net.write_text(json.dumps(obj))
        assert run("verify", "--network", str(net)) == 0
        rep = json.loads(capsys.readouterr().out)
        assert list(rep) == self.VERIFY_KEYS[kind]
        assert all(rep[key] is None for key in self.SMOOTHING_KEYS[kind])

    def test_recovered_network_has_no_smoothing_rho(self, tmp_path, quad_net):
        table, rec = tmp_path / "table.json", tmp_path / "rec.json"
        assert run("moments", "--network", str(quad_net), "--out", str(table)) == 0
        assert run("solve_tr", "--table", str(table), "--r", "2", "--out", str(rec)) == 0
        assert "smoothing_rho" not in read(rec)


class TestLowerbound:
    def test_matches_module_fixture(self, tmp_path):
        out = tmp_path / "lb.json"
        assert run("lowerbound", "--r", "5", "--seed", "0", "--out", str(out)) == 0
        obj = read(out)
        inst = build_networks(search_matched_pair(5, restarts=8, rng_seed=0))
        assert np.allclose(obj["a"], inst.pair.a, atol=1e-12)
        assert obj["param_distance"] == pytest.approx(inst.param_distance, rel=1e-12)
        assert obj["sup_gap"] == pytest.approx(inst.sup_gap, rel=1e-9)


class TestExitCodes:
    def test_usage_error(self, tmp_path):
        assert run("generate", "--r", "0", "--d", "2",
                   "--out", str(tmp_path / "x.json")) == 2

    def test_unknown_flag(self, tmp_path):
        assert run("generate", "--nope", "1") == 2

    def test_missing_file(self, tmp_path):
        assert run("verify", "--network", str(tmp_path / "missing.json")) == 2

    def test_convergence_error(self, tmp_path):
        # inconsistent moment table: T incompatible with S
        table = tmp_path / "bad.json"
        d = 3
        obj = {"kind": "quadratic", "mu": [0.0] * d,
               "S": np.eye(d).tolist(),
               "T": (5.0 * np.ones((d, d, d))).tolist(), "eta": 0.0}
        table.write_text(json.dumps(obj))
        code = run("solve_tr", "--table", str(table), "--r", "2",
                   "--restarts", "2", "--out", str(tmp_path / "rec.json"))
        assert code == 3

    @pytest.mark.parametrize("command", ["solve_tr", "solve_lr"])
    def test_convergence_error_on_noisy_table(self, tmp_path, command):
        # inconsistent tables given the noise level of the CLI pipeline's:
        # a fit that stops once its minimum repeats still fails them
        table = tmp_path / "bad.json"
        if command == "solve_tr":
            obj = {"kind": "quadratic", "mu": [0.0] * 3, "S": np.eye(3).tolist(),
                   "T": (5.0 * np.ones((3, 3, 3))).tolist(), "eta": 0.0}
            flags = ["--eta", "1e-3"]
        else:
            # no pair-moment model has |S_12| above sqrt(S_11 S_22)
            S = np.diag([1.0, 1000.0, 1.0, 1.0])
            S[1, 2] = S[2, 1] = 1000.0
            obj = {"kind": "pair", "S": S.tolist(), "eta": 0.0}
            flags = ["--eta", "0.1"]
        table.write_text(json.dumps(obj))
        assert run(command, "--table", str(table), "--r", "2", *flags,
                   "--out", str(tmp_path / "rec.json")) == 3

    def test_overflowing_trial_points_raise_no_warning(self, tmp_path):
        # the fit's far trial points overflow here; their cost is not finite,
        # so the step fails, in silence
        S = np.eye(4)
        S[0, 1] = S[1, 0] = 1000.0
        table = tmp_path / "bad.json"
        table.write_text(json.dumps({"kind": "pair", "S": S.tolist()}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("solve_lr", "--table", str(table), "--r", "2", "--eta", "0.1",
                       "--out", str(tmp_path / "rec.json")) == 3

    @pytest.mark.parametrize("obj", [
        {"n": 2, "d": 2},
        {"n": 2, "d": 2, "z": [[1.0, 2.0], [3.0]]},
        {"n": 2, "d": 2, "z": [[1.0, float("nan")], [3.0, 4.0]]},
        {"n": 2, "d": 2, "z": [[1.0, 2.0], [float("-inf"), 4.0]]},
        {"n": 3, "d": 2, "z": [[1.0, 2.0], [3.0, 4.0]]},
        {"n": 2, "d": 1, "z": [[1.0, 2.0], [3.0, 4.0]]},
        {"n": 2, "d": 2, "z": [["1.5", 2.0], [3.0, 4.0]]},
        {"n": 2, "d": 2, "z": [[1.5, True], [3.0, 4.0]]},
        {"n": 2, "d": 2, "z": [[1.5, 2.0], [None, 4.0]]},
        {"n": 2, "d": 2, "z": [[1.5, 2.0], [3.0, 10**400]]},
    ], ids=["no-z", "ragged", "nan", "inf", "n-mismatch", "d-mismatch",
            "string-entry", "bool-entry", "null-entry", "huge-int"])
    @pytest.mark.parametrize("kind", ["quadratic", "pair"])
    def test_moments_rejects_bad_samples(self, tmp_path, obj, kind):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps(obj))
        assert run("moments", "--samples", str(samples), "--kind", kind,
                   "--out", str(tmp_path / "t.json")) == 2

    @pytest.mark.parametrize("flag", ["--samples", "--network"])
    def test_not_utf8(self, tmp_path, capsys, flag):
        # one byte that is not UTF-8 after a valid document
        path = tmp_path / "in.json"
        path.write_bytes(b'{"a": 1}\xff')
        out = tmp_path / "out.json"
        command = "moments" if flag == "--samples" else "verify"
        assert run(command, flag, str(path), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte)\n"
        man = read(str(out) + ".manifest.json")
        assert (man["command"], man["exit_code"]) == (command, 2)
        assert str(path) in man["error"]
        assert man["inputs"] == {str(path): sha256(path)} and man["outputs"] == {}

    @pytest.mark.parametrize("command", [("sample", "--n", "10"), ("moments",), ("verify",)])
    def test_non_finite_network(self, tmp_path, command):
        # NaN passes the symmetry check, so only the JSON boundary catches it
        net = tmp_path / "nan.json"
        net.write_text(json.dumps({"kind": "quadratic", "r": 2, "d": 1,
                                   "Q": [[[1.0, float("nan")], [float("nan"), 1.0]]]}))
        assert run(command[0], "--network", str(net), *command[1:],
                   "--out", str(tmp_path / "out.json")) == 2

    @pytest.mark.parametrize("flaw", ["nan", "shape", "asym", "negdiag"])
    @pytest.mark.parametrize("command", [
        ("solve_tr", "--r", "2", "--restarts", "2"),
        ("solve_lr", "--r", "1", "--restarts", "2"),
    ], ids=["solve_tr", "solve_lr"])
    def test_solve_rejects_bad_table(self, tmp_path, capsys, command, flaw):
        d = 3
        S = np.eye(d)
        if flaw == "nan":
            S[0, 1] = S[1, 0] = float("nan")
        elif flaw == "asym":
            S[0, 1] = 0.5
        elif flaw == "negdiag":
            # S_aa is Var(z_a) / 2 or E[z_a^2]
            S[1, 1] = -1.0
        else:
            S = S[:, :2]
        obj = {"kind": "pair", "S": S.tolist(), "eta": 0.0}
        if command[0] == "solve_tr":
            obj.update(kind="quadratic", mu=[0.0] * d, T=np.zeros((d, d, d)).tolist())
        table = tmp_path / "table.json"
        table.write_text(json.dumps(obj))
        assert run(command[0], "--table", str(table), *command[1:],
                   "--out", str(tmp_path / "rec.json")) == 2
        assert "field 'S'" in capsys.readouterr().err

    def test_bench_is_an_invalid_choice(self, tmp_path, capsys):
        # the sweep command is gone; perfbench is the one harness
        assert run("bench", "--out", str(tmp_path / "b.csv")) == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_moments_needs_a_source(self, tmp_path):
        assert run("moments", "--out", str(tmp_path / "t.json")) == 2

    def test_solve_lr_too_many_unknowns(self, tmp_path):
        net = tmp_path / "lr.json"
        table = tmp_path / "lrmom.json"
        assert run("generate", "--kind", "lowrank", "--r", "3", "--d", "3",
                   "--ell", "2", "--rho", "0.5", "--out", str(net)) == 0
        assert run("moments", "--network", str(net), "--kind", "pair",
                   "--out", str(table)) == 0
        assert run("solve_lr", "--table", str(table), "--r", "3", "--ell", "2",
                   "--out", str(tmp_path / "rec.json")) == 2

    @pytest.mark.parametrize("backend", ["hybrid", "nonsense"])
    @pytest.mark.parametrize("command", [
        ("solve_tr", "--table", "qtab", "--r", "2"),
        ("solve_lr", "--table", "ptab", "--r", "1"),
    ], ids=["solve_tr", "solve_lr"])
    def test_solve_lr_rejects_hybrid(self, tmp_path, input_files, command, backend):
        _, paths = input_files
        argv = [paths.get(a, a) for a in command]
        assert run(*argv, "--backend", backend, "--out", str(tmp_path / "rec.json")) == 2

    @pytest.mark.parametrize("command, flags", [
        ("solve_tr", ("--r", "0")),
        ("solve_tr", ("--r", "-1")),
        ("solve_tr", ("--r", "2", "--restarts", "0")),
        ("solve_tr", ("--r", "2", "--eta", "-1")),
        ("solve_tr", ("--r", "2", "--eta", "inf")),
        ("solve_lr", ("--r", "0")),
        ("solve_lr", ("--r", "1", "--omega", "-1")),
        ("solve_lr", ("--r", "1", "--ell", "0")),
        ("solve_lr", ("--r", "1", "--restarts", "0")),
        ("solve_lr", ("--r", "1", "--eta", "-1")),
    ], ids=lambda v: v if isinstance(v, str) else "=".join(v[-2:]))
    def test_solver_settings_checked(self, tmp_path, input_files, capsys, command, flags):
        _, paths = input_files
        table = paths["qtab" if command == "solve_tr" else "ptab"]
        assert run(command, "--table", table, *flags,
                   "--out", str(tmp_path / "rec.json")) == 2
        # the error names the setting that was given
        assert f"{flags[-2][2:]} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (("lowerbound", "--r", "3", "--restarts", "0"), "restarts"),
        (("lowerbound", "--r", "3", "--tol", "-1"), "tol"),
    ], ids=["lowerbound-restarts-0", "lowerbound-tol-negative"])
    def test_settings_checked_where_they_enter(self, tmp_path, capsys, argv, name):
        out = tmp_path / "out.csv"
        assert run(*argv, "--out", str(out)) == 2
        assert f"{name} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, table, want", [
        ("solve_tr", "ptab", "quadratic"),
        ("solve_lr", "qtab", "pair"),
    ], ids=["solve_tr", "solve_lr"])
    def test_solve_rejects_other_table_kind(self, tmp_path, input_files, capsys,
                                            command, table, want):
        _, paths = input_files
        assert run(command, "--table", paths[table], "--r", "1",
                   "--out", str(tmp_path / "rec.json")) == 2
        assert f"expected a {want} moment table" in capsys.readouterr().err

    def test_generate_lowrank_needs_ell(self, tmp_path, capsys):
        out = tmp_path / "lr.json"
        assert run("generate", "--kind", "lowrank", "--r", "2", "--d", "3",
                   "--ell", "0", "--out", str(out)) == 2
        assert "ell >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("solve_tr", ("--table", "t.json", "--r", "1")),
        ("solve_lr", ("--table", "t.json", "--r", "1")),
    ], ids=["solve_tr", "solve_lr"])
    def test_no_degree_flag(self, tmp_path, capsys, command, flags):
        # each program fixes its relaxation degree: 4, or 2 omega
        assert run(command, *flags, "--degree", "4", "--out", str(tmp_path / "out")) == 2
        assert "unrecognized arguments: --degree 4" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["moments", "verify"])
    def test_no_seed_flag(self, tmp_path, capsys, command):
        # neither command draws anything
        assert run(command, "--network", "net.json", "--seed", "3",
                   "--out", str(tmp_path / "out")) == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("sample", ("--network", "net.json", "--n", "5")),
        ("eval", ("--network", "net.json", "--reference", "net.json")),
        ("solve_tr", ("--table", "table.json", "--r", "2")),
        ("solve_lr", ("--table", "table.json", "--r", "2")),
    ], ids=["sample", "eval", "solve_tr", "solve_lr"])
    def test_no_sigma_flag(self, tmp_path, capsys, command, flags):
        # every command draws from, bounds with or fits the moments of the
        # Gaussian seed, so none names a Sigma
        assert run(command, *flags, "--sigma", "gaussian",
                   "--out", str(tmp_path / "out")) == 2
        assert "unrecognized arguments: --sigma gaussian" in capsys.readouterr().err

    @pytest.mark.parametrize("command, table", [("solve_tr", "qtab"), ("solve_lr", "ptab")])
    def test_no_tol_flag(self, tmp_path, input_files, capsys, command, table):
        # each kind's fit stops at its module's FIT_TOL
        _, paths = input_files
        assert run(command, "--table", paths[table], "--r", "1", "--tol", "1e-9",
                   "--out", str(tmp_path / "rec.json")) == 2
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err

    @pytest.mark.parametrize("command, table, kind, module", [
        ("solve_tr", "qtab", "quadratic", tensor_ring),
        ("solve_lr", "ptab", "lowrank", lowrank),
    ], ids=["solve_tr", "solve_lr"])
    def test_truth_of_another_shape_refused_before_the_fit(
            self, tmp_path, input_files, capsys, monkeypatch, command, table, kind, module):
        _, paths = input_files
        r = 2 if kind == "quadratic" else 1
        truth = tmp_path / "truth.json"
        assert run("generate", "--kind", kind, "--r", str(r), "--d", "4",
                   "--out", str(truth)) == 0

        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(module, "least_squares", no_fit)
        assert run(command, "--table", paths[table], "--r", str(r), "--truth", str(truth),
                   "--out", str(tmp_path / "rec.json")) == 2
        omega = 2 if kind == "quadratic" else 3
        err = capsys.readouterr().err
        assert f"({r}, 4, {omega})" in err and f"({r}, 3, {omega})" in err

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    @pytest.mark.parametrize("kind", ["quadratic", "lowrank"])
    def test_generate_rho_checked(self, tmp_path, capsys, kind, rho):
        # a non-finite rho would write NaN or Infinity into the network JSON,
        # which every later command refuses
        out = tmp_path / "net.json"
        assert run("generate", "--kind", kind, "--r", "2", "--d", "3",
                   "--rho", rho, "--out", str(out)) == 2
        assert "rho must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()
        assert read(str(out) + ".manifest.json")["exit_code"] == 2

    @pytest.mark.parametrize("rho", ["NaN", "Infinity", "-0.5"])
    def test_smoothing_rho_checked(self, tmp_path, capsys, quad_net, rho):
        text = quad_net.read_text()
        assert '"smoothing_rho": 0.5' in text
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace('"smoothing_rho": 0.5', f'"smoothing_rho": {rho}'))
        assert run("verify", "--network", str(bad)) == 2
        assert "smoothing_rho must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, r, d, field", [
        ("quadratic", 2, 3, "Q"), ("lowrank", 1, 20, "components"),
    ])
    def test_generate_overflow_refused(self, tmp_path, capsys, kind, r, d, field):
        # a finite rho whose perturbation overflows: the network refuses its
        # infinite entries, with no RuntimeWarning (warnings are errors here)
        out = tmp_path / "net.json"
        assert run("generate", "--kind", kind, "--r", str(r), "--d", str(d),
                   "--rho", "1e308", "--out", str(out)) == 2
        assert f"network {field} has entries that are not finite" in capsys.readouterr().err
        assert not out.exists()
        assert read(str(out) + ".manifest.json")["exit_code"] == 2

    def test_degeneracy_error(self, tmp_path):
        # a zero Gram matrix has no positive rank-m block
        table = tmp_path / "zero.json"
        d = 3
        obj = {"kind": "quadratic", "mu": [0.0] * d,
               "S": np.zeros((d, d)).tolist(),
               "T": np.zeros((d, d, d)).tolist(), "eta": 0.0}
        table.write_text(json.dumps(obj))
        code = run("solve_tr", "--table", str(table), "--r", "2",
                   "--restarts", "2", "--backend", "sos",
                   "--out", str(tmp_path / "rec.json"))
        assert code in (3, 4)


def error_classes():
    """PolypushError and every class derived from it."""
    found, todo = [], [PolypushError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda c: c.__name__)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    paths = {k: str(root / f"{k}.json") for k in ("net", "lnet", "qtab", "ptab")}
    assert run("generate", "--r", "2", "--d", "3", "--seed", "1",
               "--out", paths["net"]) == 0
    assert run("generate", "--kind", "lowrank", "--r", "1", "--d", "3", "--seed", "1",
               "--out", paths["lnet"]) == 0
    assert run("moments", "--network", paths["net"], "--out", paths["qtab"]) == 0
    assert run("moments", "--network", paths["lnet"], "--kind", "pair",
               "--out", paths["ptab"]) == 0
    return root, paths


# command -> (the library call it makes, its arguments besides --out)
LIBRARY_CALLS = {
    "generate": ("smooth_quadratic", lambda p: ["--r", "2", "--d", "3"]),
    "sample": ("sample", lambda p: ["--network", p["net"], "--n", "5"]),
    "moments": ("exact_quadratic_moments", lambda p: ["--network", p["net"]]),
    "solve_tr": ("decompose", lambda p: ["--table", p["qtab"], "--r", "2",
                                         "--truth", p["net"]]),
    "solve_lr": ("factorize", lambda p: ["--table", p["ptab"], "--r", "1"]),
    "eval": ("gauge_distance", lambda p: ["--network", p["net"], "--reference", p["lnet"]]),
    "verify": ("verify_assumption_tr", lambda p: ["--network", p["net"]]),
    "lowerbound": ("search_matched_pair", lambda p: ["--r", "3"]),
}


@pytest.fixture
def no_thread_left():
    """Fails the test when a thread outlives it, as a helper thread left
    waiting by a command would."""
    before = set(threading.enumerate())
    yield
    assert set(threading.enumerate()) == before


class DiskFull(io.FileIO):
    """A file on a full disk: every write fails with ENOSPC."""

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.usefixtures("no_thread_left")
class TestFailedRuns:
    @pytest.mark.parametrize("cls", error_classes(), ids=lambda c: c.__name__)
    @pytest.mark.parametrize("command", sorted(LIBRARY_CALLS))
    @settings(max_examples=5)
    @given(message=st.text(max_size=30))
    def test_error_reaches_exit_code(self, input_files, command, cls, message):
        root, paths = input_files
        target, argv = LIBRARY_CALLS[command]
        args = argv(paths)
        out = os.path.join(tempfile.mkdtemp(dir=root), "out.json")
        err = io.StringIO()
        with mock.patch.object(cli, target, side_effect=cls(message)), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, *args, "--out", out])
        assert code == cls.exit_code
        assert err.getvalue() == f"error: {message}\n"
        assert not os.path.exists(out)
        man = read(out + ".manifest.json")
        assert man["command"] == command
        assert (man["exit_code"], man["error"]) == (cls.exit_code, message)
        assert man["outputs"] == {}
        assert man["inputs"] == {p: sha256(p) for p in paths.values() if p in args}

    def test_missing_input_left_out(self, tmp_path, input_files):
        _, paths = input_files
        out = tmp_path / "rec.json"
        missing = str(tmp_path / "missing.json")
        assert run("solve_tr", "--table", missing, "--r", "2", "--truth", paths["net"],
                   "--out", str(out)) == 2
        man = read(str(out) + ".manifest.json")
        assert man["exit_code"] == 2 and missing in man["error"]
        assert man["inputs"] == {paths["net"]: sha256(paths["net"])}
        assert man["outputs"] == {}

    def test_dense_cap_exits_5(self, tmp_path, input_files, monkeypatch):
        # low-rank sos builds Sigma_sym through moments._mode_sigma, which
        # checks the cap
        _, paths = input_files
        monkeypatch.setattr(moments, "DENSE_BYTES_CAP", 1)
        out = tmp_path / "rec.json"
        assert run("solve_lr", "--table", paths["ptab"], "--r", "1", "--backend", "sos",
                   "--out", str(out)) == 5
        assert read(str(out) + ".manifest.json")["exit_code"] == 5

    @pytest.mark.parametrize("n", ["10", "1000000000000"])
    def test_sample_cap_exits_5(self, tmp_path, input_files, monkeypatch, n):
        # checked before drawing; at n = 10 only under a cap one byte too small
        _, paths = input_files
        if n == "10":
            net = network_from_json(read(paths["net"]))
            need = networks._sample_bytes(net, SeedDistribution(kind="gaussian"), 10)
            monkeypatch.setattr(networks, "DENSE_BYTES_CAP", need - 1)
        out = tmp_path / "samples.json"
        assert run("sample", "--network", paths["net"], "--n", n, "--out", str(out)) == 5
        assert not out.exists()
        assert read(str(out) + ".manifest.json")["exit_code"] == 5

    @pytest.mark.parametrize("argv, bad, verb", [
        (("verify", "--network", "{dir}", "--out", "{out}"), "{dir}", "read"),
        (("moments", "--samples", "{dir}", "--out", "{out}"), "{dir}", "read"),
        (("sample", "--network", "{net}", "--n", "5", "--out", "{lost}"), "{lost}", "write"),
        (("generate", "--r", "2", "--d", "3", "--out", "{lost}"), "{lost}", "write"),
        (("sample", "--network", "{net}", "--n", "5", "--out", "{out}"),
         "{out}" + cli.SIDECAR, "write"),
        (("sample", "--network", "{inf}", "--n", "50", "--out", "{out}"),
         "{out}" + cli.SIDECAR, "remove"),
    ], ids=["verify-dir", "moments-dir", "sample-lost-out", "generate-lost-out",
            "sample-sidecar-dir", "sample-non-finite-sidecar-dir"])
    def test_os_error_exits_2(self, tmp_path, input_files, capsys, argv, bad, verb):
        # a directory as input, --out in a directory that does not exist, or a
        # directory where sample's sidecar goes; an earlier run's --out is
        # left as it was unless this run writes it
        _, paths = input_files
        names = {"dir": str(tmp_path / "a-dir"), "out": str(tmp_path / "out.json"),
                 "net": paths["net"], "inf": str(tmp_path / "inf.json"),
                 "lost": str(tmp_path / "no-such-dir" / "out.json")}
        os.mkdir(names["dir"])
        with open(names["out"], "w") as fh:
            fh.write("an earlier run's output\n")
        earlier = sha256(names["out"])
        # z = 8e307 x^2 is inf for |x| > 1.5
        with open(names["inf"], "w") as fh:
            json.dump({"kind": "quadratic", "r": 1, "d": 1, "Q": [[[8e307]]]}, fh)
        argv = [a.format(**names) for a in argv]
        bad = bad.format(**names)
        if bad.endswith(cli.SIDECAR):
            os.mkdir(bad)
        with np.errstate(over="ignore"):
            assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot {verb} {bad}: ")
        assert not list(tmp_path.glob("*.tmp"))
        out = argv[argv.index("--out") + 1]
        manifest = out + ".manifest.json"
        if out == names["lost"]:
            assert "no manifest written" in err and not os.path.exists(manifest)
        else:
            man = read(manifest)
            assert man["exit_code"] == 2 and bad in man["error"]
            nets = (names["net"], names["inf"])
            assert man["inputs"] == {p: sha256(p) for p in argv if p in nets}
            # the samples file is written before its sidecar, and listed
            if bad.endswith(cli.SIDECAR):
                assert man["outputs"] == {out: sha256(out)}
            else:
                assert man["outputs"] == {}
                assert sha256(out) == earlier

    @pytest.mark.parametrize("argv", [
        ("generate", "--r", "2", "--d", "3"),
        ("sample", "--network", "{net}", "--n", "5"),
        ("sample", "--network", "{net}", "--n", "20000"),
        ("moments", "--network", "{net}"),
        ("lowerbound", "--r", "3"),
    ], ids=["generate", "sample", "sample-chunks", "moments", "lowerbound"])
    def test_write_error_exits_2(self, tmp_path, input_files, capsys, argv):
        # --out on a full disk, over an earlier run's output.  Small outputs
        # fail when the buffer is flushed at close, n = 20000 samples at the
        # write of a chunk; the partial file, and an earlier sample's
        # sidecar, are removed, and the manifest lists no output
        _, paths = input_files
        out = str(tmp_path / "out.json")
        argv = [a.format(net=paths["net"]) for a in argv]
        assert run(*argv, "--out", out) == 0
        capsys.readouterr()
        real_open = open

        def full_disk_open(file, mode="r", **kwargs):
            if file != out or "r" in mode:
                return real_open(file, mode, **kwargs)
            raw = io.BufferedWriter(DiskFull(file, "w"))
            return raw if "b" in mode else io.TextIOWrapper(raw, **kwargs)

        with mock.patch.object(cli, "open", full_disk_open, create=True):
            assert run(*argv, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n")
        man = read(out + ".manifest.json")
        assert man["exit_code"] == 2 and man["error"].startswith(f"cannot write {out}: ")
        assert man["outputs"] == {}
        assert not os.path.exists(out) and not os.path.exists(out + cli.SIDECAR)

    def test_failed_rerun_lists_no_stale_output(self, tmp_path, input_files):
        # solve_tr succeeds, then a rerun on a bad table exits 2: the earlier
        # rec.json stays as it was, and the rerun's manifest does not list it
        _, paths = input_files
        out = str(tmp_path / "rec.json")
        assert run("solve_tr", "--table", paths["qtab"], "--r", "2", "--out", out) == 0
        before = sha256(out)
        assert read(out + ".manifest.json")["outputs"] == {out: before}
        table = read(paths["qtab"])
        table["S"][0][1] += 1.0
        bad = tmp_path / "asymmetric.json"
        bad.write_text(json.dumps(table))
        assert run("solve_tr", "--table", str(bad), "--r", "2", "--out", out) == 2
        man = read(out + ".manifest.json")
        assert man["exit_code"] == 2 and "'S' is not symmetric" in man["error"]
        assert man["outputs"] == {}
        assert sha256(out) == before

    def test_unwritable_manifest_keeps_exit_code(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "rec.json"
        assert run("solve_tr", "--table", str(tmp_path / "missing.json"), "--r", "2",
                   "--out", str(out)) == 2
        assert "no manifest written" in capsys.readouterr().err

    def test_success_manifest_has_no_error(self, quad_net):
        man = read(str(quad_net) + ".manifest.json")
        assert "exit_code" not in man and "error" not in man


@pytest.mark.usefixtures("no_thread_left")
@pytest.mark.parametrize("command", sorted(LIBRARY_CALLS) + ["moments-samples"])
def test_no_thread_outlives_a_command(tmp_path, input_files, command):
    _, paths = input_files
    out = str(tmp_path / "out.json")
    if command == "moments-samples":
        samples = str(tmp_path / "samples.json")
        assert run("sample", "--network", paths["net"], "--n", "50", "--out", samples) == 0
        argv = ["moments", "--samples", samples]
    elif command == "eval":
        # LIBRARY_CALLS's pair of networks differs in kind, which eval refuses
        argv = ["eval", "--network", paths["net"], "--reference", paths["net"]]
    else:
        argv = [command, *LIBRARY_CALLS[command][1](paths)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(*argv, "--out", out) == 0


class TestStrictJson:
    @pytest.mark.parametrize("command, table, r", [("solve_tr", "qtab", "2"),
                                                   ("solve_lr", "ptab", "1")])
    def test_table_eta_key_is_ignored(self, tmp_path, input_files, capsys, command, table, r):
        # tables written before the key was dropped carry "eta": 0.0
        _, paths = input_files
        obj = read(paths[table])
        assert "eta" not in obj
        old = tmp_path / "old.json"
        old.write_text(json.dumps({**obj, "eta": 0.0}))
        outputs = []
        for name, path in (("new", paths[table]), ("old", str(old))):
            out = tmp_path / f"{name}-rec.json"
            assert run(command, "--table", path, "--r", r, "--out", str(out)) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    @pytest.fixture
    def huge_net(self, tmp_path):
        # finite entries whose squares overflow float64
        path = tmp_path / "huge.json"
        Q = np.array([1e200, -1e200, 1e200])[:, None, None] * np.eye(2)
        path.write_text(json.dumps({"kind": "quadratic", "r": 2, "d": 3, "Q": Q.tolist()}))
        return str(path)

    @pytest.mark.parametrize("command", ["eval", "moments", "moments-samples",
                                         "moments-samples-pair", "verify"])
    def test_overflow_exits_2_and_writes_no_infinity(
            self, tmp_path, input_files, capsys, huge_net, command):
        _, paths = input_files
        out = str(tmp_path / "out.json")
        argv = {
            "eval": ["eval", "--network", huge_net, "--reference", paths["net"]],
            "moments": ["moments", "--network", huge_net],
            "moments-samples": ["moments", "--samples", str(tmp_path / "z.json")],
            "moments-samples-pair": ["moments", "--samples", str(tmp_path / "z.json"),
                                     "--kind", "pair"],
            "verify": ["verify", "--network", huge_net],
        }[command]
        if command.startswith("moments-samples"):
            assert run("sample", "--network", huge_net, "--n", "50",
                       "--out", str(tmp_path / "z.json")) == 0
        # the estimators' products and verify's radius overflow, which must
        # not show as numpy RuntimeWarnings (errors here)
        assert run(*argv, "--out", out) == 2
        captured = capsys.readouterr()
        assert "error: " in captured.err and not os.path.exists(out)
        if command != "eval":
            assert ("cannot write stdout" if command == "verify"
                    else f"cannot write {out}") in captured.err
        for text in [captured.out, *(p.read_text() for p in tmp_path.glob("*.json"))]:
            assert "Infinity" not in text and "NaN" not in text

    def test_non_finite_flag_is_a_string_in_the_manifest(self, tmp_path):
        out = tmp_path / "net.json"
        assert run("generate", "--r", "2", "--d", "3", "--rho", "nan", "--out", str(out)) == 2
        text = (tmp_path / "net.json.manifest.json").read_text()
        assert json.loads(text)["flags"]["rho"] == "nan" and "NaN" not in text


@pytest.mark.parametrize("command, config", [("solve_tr", TRConfig), ("solve_lr", LRConfig)])
def test_solver_flag_defaults_are_the_config_defaults(command, config):
    args = cli.build_parser().parse_args([command, "--table", "t.json", "--r", "2", "--out", "o"])
    cfg = config(r=2)
    assert (args.backend, args.restarts) == (cfg.backend, cfg.restarts)


class TestSolveBackends:
    def test_sos_recovers_exact_table(self, tmp_path, quad_net):
        table = tmp_path / "table.json"
        assert run("moments", "--network", str(quad_net), "--out", str(table)) == 0
        assert run("solve_tr", "--table", str(table), "--r", "2",
                   "--backend", "sos", "--truth", str(quad_net),
                   "--out", str(tmp_path / "rec.json")) == 0


class TestReproducibility:
    def test_full_pipeline_bitwise(self, tmp_path):
        outs = []
        for tag in ("one", "two"):
            net = tmp_path / f"net_{tag}.json"
            table = tmp_path / f"table_{tag}.json"
            rec = tmp_path / f"rec_{tag}.json"
            samples = tmp_path / f"samples_{tag}.json"
            est = tmp_path / f"est_{tag}.json"
            assert run("generate", "--r", "2", "--d", "3", "--rho", "0.5",
                       "--seed", "3", "--out", str(net)) == 0
            assert run("moments", "--network", str(net), "--out", str(table)) == 0
            assert run("solve_tr", "--table", str(table), "--r", "2",
                       "--seed", "3", "--out", str(rec)) == 0
            assert run("sample", "--network", str(net), "--n", "5000",
                       "--seed", "3", "--out", str(samples)) == 0
            assert run("moments", "--samples", str(samples), "--out", str(est)) == 0
            sidecar = tmp_path / f"samples_{tag}.json{cli.SIDECAR}"
            outs.append(tuple(p.read_bytes() for p in (net, table, rec, samples, est, sidecar)))
        assert outs[0] == outs[1]

    def test_same_bytes_at_any_blas_thread_count(self, tmp_path):
        # sample and moments --samples in child processes at 1 and 2 BLAS
        # threads.  The networks take the products BLAS could split by thread
        # count: a d = 20 third-moment estimate whose last chunk has 849 rows,
        # and one-column products (quadratic d = 1, low-rank d * ell = 1).
        # An odd n splits the rows unevenly between the threads
        runs = [
            (["--r", "2", "--d", "20"], "quadratic"),
            (["--r", "10", "--d", "1"], "quadratic"),
            (["--kind", "lowrank", "--r", "3", "--d", "1", "--ell", "1"], "pair"),
        ]
        calls = []
        for k, (gen, kind) in enumerate(runs):
            net, samples, table = (f"{k}{name}.json" for name in ("net", "samples", "table"))
            calls += [["generate", *gen, "--rho", "1.0", "--seed", "4", "--out", net],
                      ["sample", "--network", net, "--n", "50001", "--seed", "5",
                       "--out", samples],
                      ["moments", "--samples", samples, "--kind", kind, "--out", table]]
        # and the eigenvalues of the r = 2 gauge alignment: both solves given
        # --truth, and eval
        calls += [["moments", "--network", "0net.json", "--out", "0exact.json"],
                  ["solve_tr", "--table", "0exact.json", "--r", "2", "--truth", "0net.json",
                   "--out", "0rec.json"],
                  ["eval", "--network", "0rec.json", "--reference", "0net.json",
                   "--out", "0eval.json"],
                  ["generate", "--kind", "lowrank", "--r", "2", "--d", "4", "--omega", "3",
                   "--ell", "1", "--rho", "0.5", "--seed", "4", "--out", "lnet.json"],
                  ["moments", "--network", "lnet.json", "--out", "ltable.json"],
                  ["solve_lr", "--table", "ltable.json", "--r", "2", "--omega", "3",
                   "--ell", "1", "--truth", "lnet.json", "--out", "lrec.json"]]
        script = (f"from polypush.cli import main\n"
                  f"for argv in {calls!r}:\n    assert main(argv) == 0\n")
        path = [os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))),
                os.environ.get("PYTHONPATH")]
        files = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, path)))
            subprocess.run([sys.executable, "-c", script], cwd=out, env=env, check=True,
                           timeout=120)
            files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                          if not p.name.endswith(".manifest.json")})
        assert len(files[0]) == 4 * len(runs) + 6
        assert files[0].keys() == files[1].keys()
        for name in files[0]:
            assert files[0][name] == files[1][name], name


def test_fresh_process_loads_scipy_only_for_the_r3_refine(tmp_path):
    # generate, sample, moments, verify, both solves and eval call nothing
    # from scipy or mpmath at r <= 2, --truth included, so a process that
    # runs only them imports neither; eval of two unrelated r = 3 networks
    # then loads scipy.optimize for its Nelder-Mead refine, which shows the
    # probe sees a load when there is one
    calls = [["generate", "--r", "2", "--d", "3", "--seed", "1", "--out", "net.json"],
             ["sample", "--network", "net.json", "--n", "50", "--out", "samples.json"],
             ["moments", "--samples", "samples.json", "--out", "est.json"],
             ["moments", "--network", "net.json", "--out", "table.json"],
             ["verify", "--network", "net.json", "--out", "verify.json"],
             ["solve_tr", "--table", "table.json", "--r", "2", "--out", "rec.json"],
             ["solve_tr", "--table", "table.json", "--r", "2", "--truth", "net.json",
              "--out", "trec.json"],
             ["eval", "--network", "rec.json", "--reference", "net.json", "--out", "eval.json"],
             ["generate", "--kind", "lowrank", "--r", "2", "--d", "4", "--omega", "3",
              "--ell", "1", "--rho", "0.5", "--seed", "1", "--out", "lnet.json"],
             ["moments", "--network", "lnet.json", "--out", "ltable.json"],
             ["solve_lr", "--table", "ltable.json", "--r", "2", "--omega", "3", "--ell", "1",
              "--out", "lrec.json"],
             ["solve_lr", "--table", "ltable.json", "--r", "2", "--omega", "3", "--ell", "1",
              "--truth", "lnet.json", "--out", "tlrec.json"],
             ["generate", "--r", "3", "--d", "6", "--seed", "1", "--out", "net3.json"],
             ["generate", "--r", "3", "--d", "6", "--seed", "2", "--out", "other3.json"]]
    evaluate = ["eval", "--network", "other3.json", "--reference", "net3.json",
                "--out", "eval3.json"]
    script = (
        "import sys\n"
        "import polypush, polypush.cli\n"
        "from polypush import gauge\n"
        "from polypush.cli import main\n"
        "def loaded():\n"
        "    return sorted({'.'.join(m.split('.')[:2]) for m in sys.modules\n"
        "                   if m.startswith(('scipy', 'mpmath'))})\n"
        f"for argv in {calls!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "assert loaded() == [], loaded()\n"
        "starts = []\n"
        "search = gauge.minimize\n"
        "gauge.minimize = lambda *a, **k: starts.append(1) or search(*a, **k)\n"
        f"assert main({evaluate!r}) == 0\n"
        "assert starts and 'scipy.optimize' in sys.modules, loaded()\n"
    )
    path = [os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def moments_run(samples, out):
    """Exit code, stderr, table bytes and manifest bytes of ``moments --samples``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["moments", "--samples", str(samples), "--out", str(out)])
    files = [out, out.with_name(out.name + ".manifest.json")]
    return code, err.getvalue(), tuple(p.read_bytes() if p.exists() else None for p in files)


def write_samples(path, z):
    """The files ``sample`` writes for the matrix z."""
    cli._write_sidecar(str(path), z, cli._write_samples(str(path), z))


def write_sidecar(path, z, key):
    """A sidecar for ``path`` holding ``z``, finite or not, keyed by ``key``."""
    with zipfile.ZipFile(str(path) + cli.SIDECAR, "w") as zf:
        zf.comment = key.encode()
        with zf.open("z.npy", "w", force_zip64=True) as member:
            np.lib.format.write_array(member, np.ascontiguousarray(z, dtype=np.float64))


class TestSidecar:
    @pytest.fixture
    def sampled(self, tmp_path, quad_net):
        samples = tmp_path / "samples.json"
        assert run("sample", "--network", str(quad_net), "--n", "300", "--seed", "2",
                   "--out", str(samples)) == 0
        return samples, tmp_path / f"samples.json{cli.SIDECAR}"

    @given(z=hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
        elements=st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from([-0.0, 5e-324, -5e-324, 2.2e-308, np.finfo(float).max,
                           -np.finfo(float).max])))
    def test_table_with_and_without(self, tmp_path_factory, z):
        samples = tmp_path_factory.mktemp("samples") / "samples.json"
        write_samples(samples, z)
        side, key = cli._read_sidecar(str(samples))
        assert key == sha256(samples)
        assert side.tobytes() == np.ascontiguousarray(z).tobytes()
        # with a sidecar keyed by the file, the JSON is not parsed
        with mock.patch.object(cli, "_read_json", side_effect=AssertionError):
            with_side = moments_run(samples, samples.with_name("table.json"))
        os.remove(str(samples) + cli.SIDECAR)
        assert with_side == moments_run(samples, samples.with_name("table.json"))

    def test_one_digest_per_file(self, tmp_path, quad_net):
        samples = tmp_path / "samples.json"
        with mock.patch.object(cli, "_digest", wraps=cli._digest) as digest:
            assert run("sample", "--network", str(quad_net), "--n", "50",
                       "--out", str(samples)) == 0
            assert [c.args for c in digest.call_args_list] == [(str(quad_net),)]
            digest.reset_mock()
            assert run("moments", "--samples", str(samples),
                       "--out", str(tmp_path / "t.json")) == 0
            assert [c.args for c in digest.call_args_list] == [(str(samples),),
                                                                (str(tmp_path / "t.json"),)]
        assert read(str(samples) + ".manifest.json")["outputs"] == {str(samples): sha256(samples)}
        assert read(str(tmp_path / "t.json.manifest.json"))["inputs"] == {
            str(samples): sha256(samples)}

    def test_stale_after_editing_a_digit(self, sampled, tmp_path):
        samples, sidecar = sampled
        before = moments_run(samples, tmp_path / "t.json")
        text = samples.read_text()
        k = text.index(".", text.index('"z"')) + 1
        digit = "1" if text[k] != "1" else "2"
        samples.write_text(text[:k] + digit + text[k + 1:])
        after = moments_run(samples, tmp_path / "t.json")
        assert after[0] == 0 and after[2] != before[2]
        assert read(str(tmp_path / "t.json.manifest.json"))["inputs"] == {
            str(samples): sha256(samples)}
        sidecar.unlink()
        assert moments_run(samples, tmp_path / "t.json") == after

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "npy"])
    def test_damaged_sidecar_falls_back(self, sampled, tmp_path, damage):
        samples, sidecar = sampled
        good = sidecar.read_bytes()
        sidecar.unlink()
        want = moments_run(samples, tmp_path / "t.json")
        if damage == "npy":
            # a plain .npy of the right matrix is not a sidecar
            np.save(tmp_path / "z.npy", read(samples)["z"])
            sidecar.write_bytes((tmp_path / "z.npy").read_bytes())
        else:
            sidecar.write_bytes({"truncated": good[:len(good) // 2],
                                 "garbage": bytes(range(256)) * 4,
                                 "empty": b""}[damage])
        got = moments_run(samples, tmp_path / "t.json")
        assert got[0] == 0 and got == want

    @pytest.mark.parametrize("case", ["empty", "directory", "other-file", "stale-inf"])
    def test_unkeyed_sidecar_leaves_bytes_and_stderr(self, sampled, tmp_path, case):
        # moments reads the sidecar, and estimates from it, while the file is
        # hashed: a sidecar keyed by another file must change nothing, even
        # one whose matrix the estimators refuse
        samples, _ = sampled
        target = tmp_path / f"{case}.json"
        if case == "empty":
            target.write_bytes(b"")
        elif case == "directory":
            target.mkdir()
        else:
            # the same samples in other bytes
            target.write_text(samples.read_text().replace("]", " ]", 1))
        want = moments_run(target, tmp_path / "t.json")
        z = 2 * np.array(read(samples)["z"])
        if case == "stale-inf":
            z[0, 0] = np.inf
        write_sidecar(target, z, sha256(samples))
        assert cli._read_sidecar(str(target))[1] == sha256(samples)
        assert moments_run(target, tmp_path / "t.json") == want
        assert want[:2] == {
            "empty": (2, f"error: {target}: invalid JSON at line 1: Expecting value\n"),
            "directory": (2, f"error: cannot read {target}: Is a directory\n"),
        }.get(case, (0, ""))

    def test_non_finite_writes_none(self, tmp_path):
        samples = tmp_path / "samples.json"
        sidecar = tmp_path / f"samples.json{cli.SIDECAR}"
        write_samples(samples, np.ones((3, 2)))
        assert sidecar.exists()
        write_samples(samples, np.array([[1.0, 2.0], [np.nan, 4.0], [5.0, np.inf]]))
        assert not sidecar.exists()
        code, err, _ = moments_run(samples, tmp_path / "t.json")
        assert (code, err) == (
            2, f"error: {samples}: samples must be finite (null stands for a NaN or inf sample)\n")
