import itertools
import math

import numpy as np
import pytest

from conftest import (
    diagonal_pushforward_moment,
    gaussian_product_moment,
    joint_cumulant,
    random_orthogonal,
    sigma_inner,
    sigma_matrix,
    symmetric_gaussian,
    wick_linear_pair_moment,
)
from polypush import moments
from polypush.errors import ResourceError, UsageError
from polypush.moments import (
    estimate_pair_moments,
    estimate_quadratic_moments,
    exact_quadratic_moments,
    pair_moment_closed_form,
    rotation_invariant_scale,
    table_from_json,
    table_to_json,
)
from polypush.networks import (
    PolyNetwork,
    SeedDistribution,
    rotate_network,
    sample,
)
from polypush.tensors import sorted_multi_indices, symmetrize

GAUSS = SeedDistribution(kind="gaussian")


class TestExactQuadraticMoments:
    def test_univariate_unit(self):
        net = PolyNetwork(kind="quadratic", r=1, d=1, Q=np.array([[[1.0]]]))
        t = exact_quadratic_moments(net)
        assert t.mu[0] == 1.0
        assert t.S[0, 0] == 1.0
        assert t.T[0, 0, 0] == 1.0
        # centered moments of g^2: E(g^2-1)^2 = 2, E(g^2-1)^3 = 8
        assert 2.0 * t.S[0, 0] == 2.0
        assert 8.0 * t.T[0, 0, 0] == 8.0

    def test_diagonal_pair(self):
        Q = np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        net = PolyNetwork(kind="quadratic", r=2, d=2, Q=Q)
        assert exact_quadratic_moments(net).S[0, 1] == 11.0

    def test_diagonal_cumulants_match_partition_sum(self):
        # oracle: partition-sum joint cumulants of z_a = sum_i vs[i, a] g_i^2
        # from exact raw moments; cumulants of orders 1, 2 and 3 are mu, 2 S
        # and 8 T
        rng = np.random.default_rng(10)
        vs = rng.standard_normal((2, 3))
        net = PolyNetwork(kind="quadratic", r=2, d=3,
                          Q=np.stack([np.diag(vs[:, a]) for a in range(3)]))
        t = exact_quadratic_moments(net)
        tables = {1: t.mu, 2: 2.0 * t.S, 3: 8.0 * t.T}

        def moment(units):
            return diagonal_pushforward_moment(vs, units)

        for m, table in tables.items():
            for units in itertools.product(range(3), repeat=m):
                assert table[units] == pytest.approx(
                    joint_cumulant(moment, units), abs=1e-9
                )

    def test_gauge_invariance(self):
        rng = np.random.default_rng(0)
        Q = np.stack([symmetric_gaussian(rng, 3) for _ in range(3)])
        net = PolyNetwork(kind="quadratic", r=3, d=3, Q=Q)
        V = random_orthogonal(rng, 3)
        a = exact_quadratic_moments(net)
        b = exact_quadratic_moments(rotate_network(net, V))
        assert np.max(np.abs(a.S - b.S)) <= 1e-10
        assert np.max(np.abs(a.T - b.T)) <= 1e-10

    def test_t_fully_symmetric(self):
        rng = np.random.default_rng(1)
        Q = np.stack([symmetric_gaussian(rng, 2) for _ in range(3)])
        net = PolyNetwork(kind="quadratic", r=2, d=3, Q=Q)
        T = exact_quadratic_moments(net).T
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)]:
            assert np.allclose(T, np.transpose(T, perm))


class TestEstimators:
    def test_pairwise_consistency(self):
        net = PolyNetwork(kind="quadratic", r=2, d=1, Q=np.eye(2)[None])
        z = sample(net, GAUSS, 10**6, rng_seed=0)
        t = estimate_quadratic_moments(z)
        assert t.S[0, 0] == pytest.approx(2.0, rel=0.01)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((1000, 3))
        t = estimate_quadratic_moments(z)
        assert np.array_equal(t.S, t.S.T)

    def test_triple_univariate(self):
        net = PolyNetwork(kind="quadratic", r=1, d=1, Q=np.array([[[1.0]]]))
        z = sample(net, GAUSS, 200_000, rng_seed=1)
        t = estimate_quadratic_moments(z)
        assert abs(t.T[0, 0, 0] - 1.0) <= 0.05

    def test_empty_sample_rejected(self):
        with pytest.raises(UsageError):
            estimate_quadratic_moments(np.zeros((0, 2)))
        with pytest.raises(UsageError):
            estimate_pair_moments(np.zeros((0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        z = np.ones((5, 2))
        z[3, 1] = bad
        with pytest.raises(UsageError):
            estimate_quadratic_moments(z)
        with pytest.raises(UsageError):
            estimate_pair_moments(z)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 3 * 4096 + 5])
    def test_chunked_mean_bits_as_take(self, order, n):
        # the formula chunked_mean had while it took an axis
        x = np.asarray(np.random.default_rng(n).standard_normal((n, 3)) * 1e3, order=order)
        want = None
        for start in range(0, n, moments.CHUNK):
            part = np.take(x, range(start, min(start + moments.CHUNK, n)), axis=0).sum(axis=0)
            want = part if want is None else want + part
        assert moments.chunked_mean(x).tobytes() == (want / n).tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 3 * 4096 + 5])
    def test_quadratic_estimator_as_einsum(self, order, n):
        # the per-chunk einsum the estimator had before its matrix product; the
        # samples are skewed, like those of a quadratic network, so T is not ~0
        g = np.random.default_rng(n).standard_normal((n, 3))
        z = np.asarray(g**2 * [1.0, 3.0, -0.5] + g[:, [1, 2, 0]] + 1e3, order=order)
        zc = z - moments.chunked_mean(z)
        S, T = np.zeros((3, 3)), np.zeros((3, 3, 3))
        for start in range(0, n, moments.CHUNK):
            c = zc[start:start + moments.CHUNK]
            S += c.T @ c
            T += np.einsum("na,nb,nc->abc", c, c, c, optimize=True)
        S /= 2.0 * n
        S = 0.5 * (S + S.T)
        T = symmetrize(T / (8.0 * n))
        got = estimate_quadratic_moments(z)
        assert got.S.tobytes() == S.tobytes()
        assert np.max(np.abs(got.T - T)) <= 1e-13 * np.max(np.abs(T))
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(got.T, got.T.transpose(perm))

    def test_pair_estimator_univariate_cube(self):
        net = PolyNetwork(
            kind="lowrank", r=1, d=1, omega=3, ell=1,
            components=np.array([[[1.0]]]),
        )
        z = sample(net, GAUSS, 10**6, rng_seed=2)
        t = estimate_pair_moments(z)
        assert t.S[0, 0] == pytest.approx(15.0, rel=0.02)  # E g^6
        assert np.array_equal(t.S, t.S.T)

    def test_pair_estimator_matches_sigma_inner(self):
        rng = np.random.default_rng(3)
        comps = rng.standard_normal((2, 1, 2))
        net = PolyNetwork(kind="lowrank", r=2, d=2, omega=3, ell=1, components=comps)
        z = sample(net, GAUSS, 10**6, rng_seed=3)
        est = estimate_pair_moments(z).S
        Sigma = sigma_matrix(2, 3).Sigma
        tens = net.unit_tensors()
        for a in range(2):
            for b in range(2):
                exact = sigma_inner(tens[a], tens[b], Sigma)
                assert est[a, b] == pytest.approx(exact, rel=0.02)


def six_term_average(T):
    """The average of a third-order array over its 6 index permutations,
    summed left to right from T itself."""
    out = T
    for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        out = out + np.transpose(T, perm)
    return out / 6.0


class TestSymmetrization:
    @pytest.mark.parametrize("source", ["exact", "estimated"])
    def test_tables_bitwise(self, monkeypatch, source):
        # both tables average their raw T with tensors.symmetrize, which
        # must round as the six-term sum does
        rng = np.random.default_rng(4)
        if source == "exact":
            Q = np.stack([symmetric_gaussian(rng, 3) for _ in range(4)])
            net = PolyNetwork(kind="quadratic", r=3, d=4, Q=Q)
            table = lambda: exact_quadratic_moments(net)  # noqa: E731
        else:
            z = rng.standard_normal((500, 4))
            table = lambda: estimate_quadratic_moments(z)  # noqa: E731
        T = table().T
        monkeypatch.setattr(moments, "symmetrize", lambda x: x)
        assert T.tobytes() == six_term_average(table().T).tobytes()

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_signed_zeros_kept(self, order):
        T = np.full((2,) * order, -0.0)
        assert np.signbit(symmetrize(T)).all()
        if order == 3:
            assert symmetrize(T).tobytes() == six_term_average(T).tobytes()


class TestSigmaMatrix:
    def test_small_cases(self):
        assert sigma_matrix(1, 2).Sigma[0, 0] == 3.0  # E g^4
        assert np.array_equal(sigma_matrix(2, 1).Sigma, np.eye(2))

    def test_mixed_entry(self):
        sig = sigma_matrix(2, 2)
        # row (0,0) has flat index 0, row (1,1) has flat index 3: E g1^2 g2^2 = 1
        assert sig.Sigma[0, 3] == 1.0

    def test_entries_match_pairing_oracle(self):
        sig = sigma_matrix(2, 3)
        import itertools

        flat = list(itertools.product(range(2), repeat=3))
        rng = np.random.default_rng(4)
        for _ in range(40):
            u = rng.integers(0, len(flat))
            v = rng.integers(0, len(flat))
            assert sig.Sigma[u, v] == pytest.approx(
                gaussian_product_moment(flat[u] + flat[v]), abs=1e-12
            )

    def test_multiplicity_diagonal(self):
        sig = sigma_matrix(3, 3)
        from polypush.tensors import multiplicity

        expected = [multiplicity(t) for t in sorted_multi_indices(3, 3)]
        assert np.array_equal(np.diag(sig.D), expected)

    def test_resource_cap(self):
        with pytest.raises(ResourceError):
            sigma_matrix(10, 7)

    def test_resource_cap_counts_bytes(self):
        # r^omega = 1e5 is under a 1e6 entry-count cap, but dense n x n
        # float64 arrays would need 80 GB
        with pytest.raises(ResourceError):
            sigma_matrix(10, 5)

    def test_rotation_invariant_rescale(self):
        r = 3
        seed = SeedDistribution(
            kind="rotation_invariant",
            radial_moment=lambda e: 2.0 * stats_moment(r, e),
            radial_sampler=lambda rng, n: np.ones(n),
        )
        base = sigma_matrix(r, 3)
        scaled = sigma_matrix(r, 3, seed=seed)
        assert np.allclose(scaled.Sigma, 2.0 * base.Sigma)


def stats_moment(r, e):
    from polypush.networks import gaussian_norm_moment

    return gaussian_norm_moment(r, e)


class TestSigmaInner:
    def test_rank_one_sixth_moment(self):
        T = np.zeros((2, 2, 2))
        T[0, 0, 0] = 1.0
        assert sigma_inner(T, T, sigma_matrix(2, 3).Sigma) == 15.0  # E g^6

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            sigma_inner(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(3))


class TestHermitePairMoment:
    @staticmethod
    def closed_form(v, w, omega):
        return pair_moment_closed_form(float(v @ w), float(v @ v), float(w @ w), omega)

    def test_linear(self):
        v = np.array([1.0, 2.0])
        w = np.array([-3.0, 0.5])
        assert self.closed_form(v, w, 1) == pytest.approx(float(v @ w), abs=1e-12)

    def test_quadratic_closed_form(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(3)
        w = rng.standard_normal(3)
        expected = 2 * float(v @ w) ** 2 + float(v @ v) * float(w @ w)
        assert self.closed_form(v, w, 2) == pytest.approx(expected, abs=1e-10)
        assert self.closed_form(v, w, 2) == pytest.approx(
            wick_linear_pair_moment(v, w, 2), abs=1e-10
        )

    def test_equal_unit_vectors(self):
        for omega in (1, 2, 3, 4, 5):
            v = np.zeros(3)
            v[0] = 1.0
            dfact = math.prod(range(2 * omega - 1, 0, -2))
            assert self.closed_form(v, v, omega) == pytest.approx(dfact, abs=1e-9)


class TestRotationInvariantScale:
    def test_gaussian_is_one(self):
        assert rotation_invariant_scale(GAUSS, 4) == 1.0

    def test_sphere_radius_sqrt_r(self):
        r = 5
        seed = SeedDistribution(
            kind="rotation_invariant",
            radial_moment=lambda e: float(r ** (e / 2)),
            radial_sampler=lambda rng, n: np.full(n, math.sqrt(r)),
        )
        assert rotation_invariant_scale(seed, 2, r) == pytest.approx(1.0, abs=1e-12)

    def test_odd_degree_vanishes(self):
        assert rotation_invariant_scale(GAUSS, 3) == 0.0

    def test_missing_oracle(self):
        with pytest.raises(UsageError):
            SeedDistribution(kind="rotation_invariant")


class TestJsonTables:
    def test_quadratic_roundtrip(self):
        rng = np.random.default_rng(11)
        Q = np.stack([symmetric_gaussian(rng, 2) for _ in range(3)])
        net = PolyNetwork(kind="quadratic", r=2, d=3, Q=Q)
        t = exact_quadratic_moments(net)
        out = table_from_json(table_to_json(t))
        assert np.allclose(out.S, t.S)
        assert np.allclose(out.T, t.T)

    def test_pair_roundtrip(self):
        t = estimate_pair_moments(np.random.default_rng(12).standard_normal((50, 2)))
        out = table_from_json(table_to_json(t))
        assert np.allclose(out.S, t.S)

    def test_bad_json(self):
        with pytest.raises(UsageError):
            table_from_json("{")
        with pytest.raises(UsageError):
            table_from_json({"kind": "mystery"})

    @staticmethod
    def _quadratic_obj(d=2):
        return {"kind": "quadratic", "mu": [0.0] * d, "S": np.eye(d).tolist(),
                "T": np.zeros((d, d, d)).tolist(), "eta": 0.0}

    @pytest.mark.parametrize("field", ["mu", "S", "T"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_quadratic_rejected(self, field, bad):
        obj = self._quadratic_obj()
        arr = np.asarray(obj[field])
        arr.flat[-1] = bad
        obj[field] = arr.tolist()
        with pytest.raises(UsageError, match="NaN or inf"):
            table_from_json(obj)

    def test_non_finite_pair_rejected(self):
        with pytest.raises(UsageError, match="NaN or inf"):
            table_from_json({"kind": "pair", "S": [[1.0, float("nan")], [0.0, 1.0]]})

    @pytest.mark.parametrize("field, value", [
        ("S", np.eye(2)[:, :1].tolist()),
        ("S", [1.0, 2.0]),
        ("T", np.zeros((2, 2)).tolist()),
        ("T", np.zeros((2, 2, 3)).tolist()),
        ("mu", [0.0] * 3),
        ("mu", [[0.0, 0.0]]),
    ], ids=["S-not-square", "S-vector", "T-matrix", "T-3rd-axis", "mu-long", "mu-nested"])
    def test_quadratic_shape_mismatch_rejected(self, field, value):
        obj = self._quadratic_obj()
        obj[field] = value
        with pytest.raises(UsageError, match="shape"):
            table_from_json(obj)

    @pytest.mark.parametrize("kind, field", [("quadratic", "S"), ("quadratic", "T"),
                                             ("pair", "S")])
    def test_asymmetric_table_rejected(self, kind, field):
        # the recoveries' table check runs where the table is read
        obj = self._quadratic_obj() if kind == "quadratic" else {"kind": "pair",
                                                                 "S": np.eye(2).tolist()}
        arr = np.asarray(obj[field], dtype=float)
        arr[(0, 1) + (0,) * (arr.ndim - 2)] = 1e-3
        obj[field] = arr.tolist()
        with pytest.raises(UsageError, match=f"'{field}' is not symmetric"):
            table_from_json(obj)

    @pytest.mark.parametrize("kind", ["quadratic", "pair"])
    def test_negative_diagonal_rejected(self, kind):
        S = np.diag([1.0, -1.0]).tolist()
        obj = {**self._quadratic_obj(), "S": S} if kind == "quadratic" else {"kind": kind, "S": S}
        with pytest.raises(UsageError, match="'S' has a negative diagonal entry"):
            table_from_json(obj)

    def test_pair_shape_mismatch_rejected(self):
        with pytest.raises(UsageError, match="shape"):
            table_from_json({"kind": "pair", "S": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]})

    @pytest.mark.parametrize("S", [[[1.0, 0.0], [0.0]], [["a", 0.0], [0.0, 1.0]],
                                   [[10**400]]],
                             ids=["ragged", "non-numeric", "huge-int"])
    def test_malformed_entries_rejected(self, S):
        with pytest.raises(UsageError, match="not numeric"):
            table_from_json({"kind": "pair", "S": S})

    def test_non_object_rejected(self):
        with pytest.raises(UsageError):
            table_from_json("[1, 2]")

