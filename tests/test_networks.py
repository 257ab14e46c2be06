import ast
import hashlib
import inspect
import math
import pathlib
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from conftest import (
    paired_outers_per_unit,
    random_orthogonal,
    symmetric_gaussian,
    unit_tensors_per_unit,
)
from polypush import networks
from polypush.errors import ResourceError, UsageError
from polypush.networks import (
    PolyNetwork,
    SeedDistribution,
    SmoothingParams,
    _philox_rng,
    _sample_bytes,
    _seed_rng,
    BLAS_INNER,
    blas_product,
    evaluate,
    gaussian_norm_moment,
    network_from_json,
    network_to_json,
    gauge_stack,
    rotate_network,
    sample,
    smooth_componentwise,
    smooth_quadratic,
    w1_upper_bound,
)

GAUSS = SeedDistribution(kind="gaussian")
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "polypush"


# the stream argument's position in each call that picks a Philox stream
STREAM_ARG = {"_philox_rng": 1, "_random_starts": 3}


def philox_call_sites():
    """{(file, line): (enclosing function, stream)} of every call in the
    package source to a name of STREAM_ARG; stream is the integer literal
    passed as the stream argument, or None for a computed one."""
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            # ast.walk reaches an outer def first, so a nested def's own
            # calls end up under the nested name
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in STREAM_ARG):
                    continue
                pos = STREAM_ARG[node.func.id]
                arg = (node.args[pos] if len(node.args) > pos else
                       next(k.value for k in node.keywords if k.arg == "stream"))
                literal = isinstance(arg, ast.Constant) and isinstance(arg.value, int)
                sites[path.name, node.lineno] = (fn.name, arg.value if literal else None)
    return sites


class TestPhiloxStreams:
    STREAMS = sorted({s for _, s in philox_call_sites().values() if s is not None})

    def test_each_call_site_has_its_own_stream(self):
        by_stream = {}
        for fn, stream in philox_call_sites().values():
            by_stream.setdefault(stream, []).append(fn)
        # computed streams: _seed_rng's hashed keys and _random_starts' own
        # draw, whose stream is its callers' literal
        assert sorted(by_stream.pop(None)) == ["_random_starts", "_seed_rng"]
        assert by_stream, "no call site passes a literal stream"
        assert {k: v for k, v in by_stream.items() if len(v) > 1} == {}

    @pytest.mark.parametrize("stream", STREAMS)
    def test_key_is_seed_and_stream(self, stream):
        want = np.random.Generator(np.random.Philox(key=(5, stream)))
        assert np.array_equal(
            _philox_rng(5, stream).standard_normal(8), want.standard_normal(8)
        )

    def test_negative_seeds_do_not_collide(self):
        from polypush.tensor_ring import _random_starts

        # runs under filterwarnings = error: a key cast through float64
        # warns, and neighbouring negative seeds then draw the same starts
        S = np.eye(3)
        a = next(_random_starts(S, 2, -1000, 21, 1))
        b = next(_random_starts(S, 2, -1001, 21, 1))
        assert not np.array_equal(a, b)
        # a negative seed is its two's complement
        assert np.array_equal(
            _philox_rng(-1, 21).standard_normal(4),
            _philox_rng(2**64 - 1, 21).standard_normal(4),
        )

    def test_hashed_streams_unchanged(self):
        key = np.frombuffer(hashlib.sha256(b"3,1,2").digest()[:16], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key))
        assert np.array_equal(
            _seed_rng(3, 1, 2).standard_normal(8), want.standard_normal(8)
        )

    def test_every_philox_goes_through_the_helper(self):
        helper = inspect.getsource(_philox_rng)
        hits = {
            path.name: path.read_text().count("np.random.Philox(")
            for path in sorted(SRC.glob("*.py"))
        }
        assert {k: v for k, v in hits.items() if v} == {"networks.py": 1}
        assert helper.count("np.random.Philox(") == 1


class TestSample:
    def test_identity_quadratic_is_squared_norm(self):
        r = 3
        net = PolyNetwork(kind="quadratic", r=r, d=1, Q=np.eye(r)[None])
        z = sample(net, GAUSS, 200_000, rng_seed=0)
        assert z.mean() == pytest.approx(r, rel=0.02)

    def test_mean_equals_trace(self):
        rng = np.random.default_rng(0)
        Q = np.stack([symmetric_gaussian(rng, 3) for _ in range(2)])
        net = PolyNetwork(kind="quadratic", r=3, d=2, Q=Q)
        n = 400_000
        z = sample(net, GAUSS, n, rng_seed=1)
        traces = np.einsum("aii->a", Q)
        # z_a has variance 2 Tr(Q_a^2); allow 6 standard errors
        for a in range(2):
            se = math.sqrt(2.0 * np.trace(Q[a] @ Q[a]) / n)
            assert abs(z[:, a].mean() - traces[a]) <= 6 * se

    def test_mean_error_decays_with_n(self):
        rng = np.random.default_rng(1)
        Q = np.stack([symmetric_gaussian(rng, 2)])
        net = PolyNetwork(kind="quadratic", r=2, d=1, Q=Q)
        tr = float(np.trace(Q[0]))
        sd = math.sqrt(2.0 * np.trace(Q[0] @ Q[0]))
        for n in (10**3, 10**4, 10**5):
            err = abs(sample(net, GAUSS, n, rng_seed=2)[:, 0].mean() - tr)
            assert err <= 8 * sd / math.sqrt(n)

    def test_lowrank_cube_coordinate(self):
        net = PolyNetwork(
            kind="lowrank", r=2, d=1, omega=3, ell=1,
            components=np.array([[[1.0, 0.0]]]),
        )
        x = np.array([[1.5, -0.3], [-2.0, 7.0]])
        z = evaluate(net, x)
        assert np.allclose(z[:, 0], x[:, 0] ** 3)

    def test_evaluate_rejects_wrong_width(self):
        net = PolyNetwork(kind="quadratic", r=2, d=1, Q=np.eye(2)[None])
        with pytest.raises(UsageError, match=r"shape \(n, 2\)"):
            evaluate(net, np.ones((4, 3)))

    def test_deterministic_in_seed(self):
        net = PolyNetwork(kind="quadratic", r=2, d=1, Q=np.eye(2)[None])
        a = sample(net, GAUSS, 100, rng_seed=7)
        b = sample(net, GAUSS, 100, rng_seed=7)
        assert np.array_equal(a, b)
        with pytest.raises(UsageError):
            sample(net, GAUSS, 0)

    def test_gauge_invariance_in_distribution(self):
        rng = np.random.default_rng(3)
        Q = np.stack([symmetric_gaussian(rng, 3) for _ in range(2)])
        net = PolyNetwork(kind="quadratic", r=3, d=2, Q=Q)
        V = random_orthogonal(rng, 3)
        zA = sample(net, GAUSS, 10_000, rng_seed=4)
        zB = sample(rotate_network(net, V), GAUSS, 10_000, rng_seed=5)
        for a in range(2):
            assert stats.ks_2samp(zA[:, a], zB[:, a]).pvalue > 0.01


# (kind, r, d, ell): d = 1 and d * ell = 1 make one-column products, which
# blas_product widens by a zero column; r = 16 has 136 products x_i x_j per
# row, more than BLAS_INNER
SAMPLE_SHAPES = [("quadratic", 2, 3, 0), ("quadratic", 6, 30, 0), ("quadratic", 1, 5, 0),
                 ("quadratic", 2, 20, 0), ("quadratic", 3, 1, 0), ("quadratic", 10, 1, 0),
                 ("quadratic", 16, 2, 0), ("lowrank", 2, 4, 1), ("lowrank", 3, 3, 2),
                 ("lowrank", 3, 1, 1)]


def shaped_net(kind, r, d, ell):
    rng = np.random.default_rng(r + 10 * d)
    if kind == "quadratic":
        return PolyNetwork(kind=kind, r=r, d=d,
                           Q=np.stack([symmetric_gaussian(rng, r) for _ in range(d)]))
    return PolyNetwork(kind=kind, r=r, d=d, omega=3, ell=ell,
                       components=rng.standard_normal((d, ell, r)))


class TestSampleBytes:
    @pytest.mark.parametrize("seed", ["gaussian", "rotation_invariant"])
    @pytest.mark.parametrize("shape", SAMPLE_SHAPES, ids=lambda s: "-".join(map(str, s)))
    def test_matches_tracemalloc(self, shape, seed):
        # the radial sampler allocates its n radii and nothing else
        dist = SeedDistribution(kind=seed, radial_moment=lambda k: 1.0,
                                radial_sampler=lambda rng, n: np.ones(n))
        net, n = shaped_net(*shape), 20_000
        sample(net, dist, 10, rng_seed=0)
        tracemalloc.start()
        try:
            sample(net, dist, n, rng_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        need = _sample_bytes(net, dist, n)
        # above the arrays: numpy's small buffers and the scratch of the
        # rotation-invariant draw
        assert peak <= need + 2**18
        assert need <= 1.2 * peak

    def test_cap_raises_before_drawing(self, monkeypatch):
        net = shaped_net("quadratic", 2, 3, 0)
        need = _sample_bytes(net, GAUSS, 10)
        monkeypatch.setattr(networks, "DENSE_BYTES_CAP", need - 1)
        monkeypatch.setattr(networks, "draw_seeds", None)
        with pytest.raises(ResourceError, match="over the"):
            sample(net, GAUSS, 10)
        monkeypatch.undo()
        monkeypatch.setattr(networks, "DENSE_BYTES_CAP", need)
        assert sample(net, GAUSS, 10).shape == (10, 3)


# entries of magnitude 0 or in [1e-20, 1e3]: no fifth power of a projection
# under- or overflows, so the error bounds below hold
ENTRIES = st.sampled_from([0.0]) | st.floats(1e-20, 1e3) | st.floats(-1e3, -1e-20)
EPS = Fraction(np.finfo(float).eps)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestUnitTensors:
    # one pass over every unit gives each unit the bits of the loop over
    # units, signed zeros included

    @settings(max_examples=80)
    @given(data=st.data(), kind=st.sampled_from(["quadratic", "lowrank"]),
           r=st.integers(1, 4), d=st.integers(1, 3), ell=st.integers(1, 3),
           omega=st.sampled_from([3, 5]))
    def test_one_pass_matches_the_loop_over_units(self, data, kind, r, d, ell, omega):
        entries = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)
        if kind == "quadratic":
            A = data.draw(hnp.arrays(np.float64, (d, r, r), elements=entries))
            net = PolyNetwork(kind="quadratic", r=r, d=d, Q=A + np.transpose(A, (0, 2, 1)))
            assert gauge_stack(net) is net.Q
        else:
            comps = data.draw(hnp.arrays(np.float64, (d, ell, r), elements=entries))
            net = PolyNetwork(kind="lowrank", r=r, d=d, omega=omega, ell=ell, components=comps)
            assert same_bits(gauge_stack(net), paired_outers_per_unit(net))
        units = unit_tensors_per_unit(net)
        assert same_bits(net.unit_tensors(), units)
        assert net.radius == max(float(np.linalg.norm(T)) for T in units)


class TestEvaluateAccuracy:
    # z against exact rational arithmetic on the float inputs

    @settings(max_examples=60)
    @given(data=st.data(), r=st.integers(1, 6), d=st.integers(1, 3))
    def test_quadratic(self, data, r, d):
        A = data.draw(hnp.arrays(np.float64, (d, r, r), elements=ENTRIES))
        net = PolyNetwork(kind="quadratic", r=r, d=d, Q=A + np.transpose(A, (0, 2, 1)))
        x = data.draw(hnp.arrays(np.float64, (3, r), elements=ENTRIES))
        z = evaluate(net, x)
        for row, zrow in zip(x, z):
            xs = [Fraction(v) for v in row]
            for Qa, za in zip(net.Q, zrow):
                terms = [xs[i] * Fraction(Qa[i, j]) * xs[j] for i in range(r) for j in range(r)]
                assert abs(Fraction(za) - sum(terms)) <= 8 * EPS * sum(map(abs, terms))

    @settings(max_examples=60)
    @given(data=st.data(), r=st.integers(1, 6), d=st.integers(1, 3),
           ell=st.sampled_from([1, 2]), omega=st.sampled_from([3, 5]))
    def test_lowrank(self, data, r, d, ell, omega):
        comps = data.draw(hnp.arrays(np.float64, (d, ell, r), elements=ENTRIES))
        net = PolyNetwork(kind="lowrank", r=r, d=d, omega=omega, ell=ell, components=comps)
        x = data.draw(hnp.arrays(np.float64, (3, r), elements=ENTRIES))
        z = evaluate(net, x)
        for row, zrow in zip(x, z):
            xs = [Fraction(v) for v in row]
            for unit, za in zip(comps, zrow):
                exact = sum(sum(Fraction(c) * v for c, v in zip(vt, xs)) ** omega for vt in unit)
                # <|v_t|, |x|>, not |<v_t, x>|: a projection that cancels keeps
                # the rounding error of its terms
                scale = sum(sum(abs(Fraction(c) * v) for c, v in zip(vt, xs)) ** omega
                            for vt in unit)
                assert abs(Fraction(za) - exact) <= (omega * (r + 1) + ell) * EPS * scale


class TestBlasProduct:
    @pytest.mark.parametrize("k", [1, BLAS_INNER, BLAS_INNER + 1, 3 * BLAS_INNER + 5])
    @pytest.mark.parametrize("cols", [1, 3])
    def test_matches_matmul(self, k, cols):
        rng = np.random.default_rng(k + cols)
        a, b = rng.standard_normal((50, k)), rng.standard_normal((k, cols))
        got = blas_product(a, b)
        assert got.shape == (50, cols)
        assert np.all(np.abs(got - a @ b) <= 2 * k * np.finfo(float).eps * (np.abs(a) @ np.abs(b)))


class TestSmoothing:
    @pytest.mark.parametrize("rho", [-1.0, float("nan"), float("inf")])
    def test_rho_checked(self, rho):
        base = PolyNetwork(kind="quadratic", r=2, d=1, Q=np.zeros((1, 2, 2)))
        with pytest.raises(UsageError, match="rho must be finite and >= 0"):
            SmoothingParams(rho=rho, base=base)

    def test_quadratic_rho_zero_identity(self):
        rng = np.random.default_rng(4)
        Q = np.stack([symmetric_gaussian(rng, 3)])
        base = PolyNetwork(kind="quadratic", r=3, d=1, Q=Q)
        out = smooth_quadratic(SmoothingParams(rho=0.0, base=base, rng_seed=0))
        assert np.array_equal(out.Q, base.Q)
        assert out.smoothing_rho == 0.0

    def test_quadratic_offdiagonal_variance(self):
        r, rho, d = 3, 0.7, 200
        base = PolyNetwork(kind="quadratic", r=r, d=d, Q=np.zeros((d, r, r)))
        vals = []
        for seed in range(500):
            out = smooth_quadratic(SmoothingParams(rho=rho, base=base, rng_seed=seed))
            vals.append(out.Q[:, 0, 1])
        vals = np.concatenate(vals)  # 10^5 draws
        assert vals.var() == pytest.approx(rho**2 / r, rel=0.05)

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_quadratic_bits_as_triu_mirror(self, r):
        # G_a is the upper triangle plus its strict part transposed, G + triu(G, 1).T
        d = 3
        rng = np.random.default_rng(r)
        base = PolyNetwork(kind="quadratic", r=r, d=d,
                           Q=np.stack([symmetric_gaussian(rng, r) for _ in range(d)]))
        iu = np.triu_indices(r)
        for seed in range(20):
            out = smooth_quadratic(SmoothingParams(rho=0.7, base=base, rng_seed=seed))
            Q = base.Q.copy()
            for a in range(d):
                G = np.zeros((r, r))
                G[iu] = networks._seed_rng(seed, 1, a).standard_normal(len(iu[0]))
                Q[a] += 0.7 / math.sqrt(r) * (G + np.triu(G, 1).T)
            assert out.Q.tobytes() == Q.tobytes()

    def test_quadratic_output_symmetric(self):
        base = PolyNetwork(kind="quadratic", r=4, d=2, Q=np.zeros((2, 4, 4)))
        out = smooth_quadratic(SmoothingParams(rho=1.0, base=base, rng_seed=1))
        assert np.allclose(out.Q, np.transpose(out.Q, (0, 2, 1)))

    def test_componentwise_rho_zero_identity(self):
        comps = np.ones((2, 1, 3))
        base = PolyNetwork(kind="lowrank", r=3, d=2, omega=3, ell=1, components=comps)
        out = smooth_componentwise(SmoothingParams(rho=0.0, base=base, rng_seed=0))
        assert np.array_equal(out.components, comps)

    def test_componentwise_variance_and_independence(self):
        r, rho, d, ell = 2, 0.5, 100, 2
        base = PolyNetwork(
            kind="lowrank", r=r, d=d, omega=3, ell=ell,
            components=np.zeros((d, ell, r)),
        )
        draws = []
        for seed in range(500):
            out = smooth_componentwise(
                SmoothingParams(rho=rho, base=base, rng_seed=seed)
            )
            draws.append(out.components.reshape(d * ell, r))
        draws = np.concatenate(draws)  # 10^5 rows
        n = draws.shape[0]
        assert draws[:, 0].var() == pytest.approx(rho**2 / r, rel=0.05)
        # cross-covariance between distinct (a, t) slots: zero within 3 sigma
        x = draws[0::2, 0]
        y = draws[1::2, 0]
        cov = np.mean(x * y)
        sigma = math.sqrt(np.var(x * y) / x.size)
        assert abs(cov) <= 3 * sigma

    def test_radius_growth_bound(self):
        rng = np.random.default_rng(5)
        r, d, rho = 3, 8, 0.5
        hits = 0
        for seed in range(100):
            Q = np.stack([symmetric_gaussian(rng, r) for _ in range(d)])
            base = PolyNetwork(kind="quadratic", r=r, d=d, Q=Q)
            out = smooth_quadratic(SmoothingParams(rho=rho, base=base, rng_seed=seed))
            if out.radius <= base.radius * math.sqrt(r) + 4 * rho * math.sqrt(d):
                hits += 1
        assert hits >= 95


class TestW1Bound:
    def test_zero_distance(self):
        assert w1_upper_bound(0.0, 3, 5, 2, GAUSS) == 0.0

    def test_univariate_square(self):
        # E g^2 = 1 via the Gamma formula
        assert gaussian_norm_moment(1, 2) == pytest.approx(1.0, abs=1e-12)
        assert w1_upper_bound(0.3, 1, 1, 2, GAUSS) == pytest.approx(0.3, abs=1e-12)

    @staticmethod
    def norm_moment_40_digits(r, e):
        # 2^{e/2} Gamma((r+e)/2) / Gamma(r/2) in 40-digit arithmetic
        with mpmath.workdps(40):
            half = mpmath.mpf(1) / 2
            return mpmath.mpf(2) ** (e * half) * mpmath.gamma((r + e) * half) / mpmath.gamma(r * half)

    def test_norm_moment_against_40_digits(self):
        for r in range(1, 65):
            for e in range(13):
                want = self.norm_moment_40_digits(r, e)
                assert abs(gaussian_norm_moment(r, e) - want) <= 1e-15 * want, (r, e)

    def test_norm_moment_at_large_r(self):
        # past r = 342 Gamma((r+1)/2) overflows a float
        for r in [*range(65, 10_000, 101), 341, 342, 343, 10_000]:
            for e in range(13):
                got = gaussian_norm_moment(r, e)
                want = self.norm_moment_40_digits(r, e)
                assert math.isfinite(got) and abs(got - want) <= 1e-10 * want, (r, e)

    def test_monotone_in_d(self):
        vals = [w1_upper_bound(1.0, 2, d, 3, GAUSS) for d in range(1, 6)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_distance(self):
        with pytest.raises(UsageError):
            w1_upper_bound(-1.0, 2, 2, 2, GAUSS)

    @pytest.mark.parametrize("dist", [float("nan"), float("inf")])
    def test_rejects_non_finite_distance(self, dist):
        # a NaN distance gave a NaN bound
        with pytest.raises(UsageError, match="distance must be finite and >= 0"):
            w1_upper_bound(dist, 2, 2, 2, GAUSS)

    def test_rotation_invariant_seed_moment(self):
        r = 4
        seed = SeedDistribution(
            kind="rotation_invariant",
            radial_moment=lambda e: float(r ** (e / 2)),
            radial_sampler=lambda rng, n: np.full(n, math.sqrt(r)),
        )
        assert w1_upper_bound(1.0, r, 1, 2, seed) == pytest.approx(r, abs=1e-12)


class TestJson:
    def test_quadratic_roundtrip(self):
        rng = np.random.default_rng(6)
        Q = np.stack([symmetric_gaussian(rng, 2) for _ in range(3)])
        net = PolyNetwork(kind="quadratic", r=2, d=3, Q=Q)
        out = network_from_json(network_to_json(net))
        assert np.allclose(out.Q, net.Q)

    def test_lowrank_roundtrip(self):
        rng = np.random.default_rng(7)
        comps = rng.standard_normal((2, 2, 3))
        net = PolyNetwork(kind="lowrank", r=3, d=2, omega=3, ell=2, components=comps)
        out = network_from_json(network_to_json(net))
        assert np.allclose(out.components, comps)
        assert (out.omega, out.ell) == (3, 2)

    def test_validation_errors(self):
        with pytest.raises(UsageError):
            PolyNetwork(kind="quadratic", r=2, d=1, Q=np.array([[[0.0, 1.0], [0.5, 0.0]]]))
        with pytest.raises(UsageError):
            PolyNetwork(kind="lowrank", r=2, d=1, omega=4, ell=1,
                        components=np.zeros((1, 1, 2)))
        with pytest.raises(UsageError):
            network_from_json("not json")

    @pytest.mark.parametrize("obj", [
        {"kind": "quadratic", "r": 1, "d": 2, "Q": [[[float("nan")]], [[1.0]]]},
        {"kind": "quadratic", "r": 1, "d": 1, "Q": [[[float("inf")]]]},
        {"kind": "lowrank", "r": 2, "d": 1, "omega": 3, "ell": 1,
         "components": [[[0.5, float("-inf")]]]},
        {"kind": "quadratic", "r": 2, "d": 1, "Q": [[[1.0, 0.0], [0.0]]]},
        {"kind": "quadratic", "r": "two", "d": 1, "Q": [[[1.0]]]},
    ])
    def test_from_json_rejects_malformed_entries(self, obj):
        with pytest.raises(UsageError):
            network_from_json(obj)


class TestNetworkChecks:
    @pytest.mark.parametrize("r, d", [(0, 2), (2, 0), (0, 0)])
    @pytest.mark.parametrize("kind", ["quadratic", "lowrank"])
    def test_empty_shapes_refused(self, kind, r, d):
        with pytest.raises(UsageError, match="r >= 1 and d >= 1"):
            if kind == "quadratic":
                PolyNetwork(kind="quadratic", r=r, d=d, Q=np.zeros((d, r, r)))
            else:
                PolyNetwork(kind="lowrank", r=r, d=d, omega=3, ell=1,
                            components=np.zeros((d, 1, r)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entries_refused(self, bad):
        Q = np.zeros((2, 2, 2))
        Q[1, 0, 0] = bad
        with pytest.raises(UsageError, match="network Q has entries that are not finite"):
            PolyNetwork(kind="quadratic", r=2, d=2, Q=Q)
        comps = np.ones((2, 1, 2))
        comps[0, 0, 1] = bad
        with pytest.raises(UsageError, match="network components has entries that are not finite"):
            PolyNetwork(kind="lowrank", r=2, d=2, omega=3, ell=1, components=comps)

    def test_symmetrization_overflow_refused(self):
        # finite entries beyond half the float range overflow in
        # 0.5 (Q + Q^T); no RuntimeWarning escapes (warnings are errors here)
        Q = np.full((1, 2, 2), 1.5e308)
        with pytest.raises(UsageError, match="network Q has entries that are not finite"):
            PolyNetwork(kind="quadratic", r=2, d=1, Q=Q)
