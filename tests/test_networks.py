import hashlib
import inspect
import math
import pathlib

import numpy as np
import pytest
from scipy import stats

from conftest import random_orthogonal, symmetric_gaussian
from polypush.errors import UsageError
from polypush.networks import (
    PolyNetwork,
    SeedDistribution,
    SmoothingParams,
    _philox_rng,
    _seed_rng,
    evaluate,
    gaussian_norm_moment,
    network_from_json,
    network_to_json,
    rotate_network,
    sample,
    smooth_componentwise,
    smooth_quadratic,
    w1_upper_bound,
)

GAUSS = SeedDistribution(kind="gaussian")
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "polypush"


class TestPhiloxStreams:
    # the package's streams: jennrich 31, lowerbound 7, find_combo 11,
    # _random_starts 21, factorize 42, gauge 77 and 78, cli bench 99
    STREAMS = (7, 11, 21, 31, 42, 77, 78, 99)

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


class TestSmoothing:
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

    def test_monotone_in_d(self):
        vals = [w1_upper_bound(1.0, 2, d, 3, GAUSS) for d in range(1, 6)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_distance(self):
        with pytest.raises(UsageError):
            w1_upper_bound(-1.0, 2, 2, 2, GAUSS)

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
