import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.optimize import minimize

from conftest import random_orthogonal, symmetric_gaussian
from polypush import gauge
from polypush.errors import UsageError
from polypush.gauge import AlignmentConfig, gauge_distance
from polypush.networks import PolyNetwork, rotate_network
from polypush.tensors import (
    DenseTensor,
    GaugeRotation,
    SymTensor,
    apply_transform,
    kron_power,
    mat,
    multiplicity,
    num_sorted_indices,
    rotate_tensor,
    sorted_multi_indices,
    symmetrize,
    ten,
    vec,
)


class TestMultiplicity:
    def test_examples(self):
        assert multiplicity((0, 0, 1)) == 3
        assert multiplicity((0, 1)) == 2
        assert multiplicity((0, 0, 0)) == 1

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            multiplicity((0, 3), r=2)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("omega", [1, 2, 3, 4, 5])
    def test_sum_over_sorted_indices(self, r, omega):
        total = sum(multiplicity(i) for i in sorted_multi_indices(r, omega))
        assert total == r**omega
        assert len(sorted_multi_indices(r, omega)) == num_sorted_indices(r, omega)


class TestApplyTransform:
    def test_identity(self):
        rng = np.random.default_rng(0)
        T = rng.standard_normal((3, 3, 3))
        out = apply_transform(np.eye(27), T)
        assert np.allclose(out, T)

    def test_order_two_kron_is_congruence(self):
        rng = np.random.default_rng(1)
        V = random_orthogonal(rng, 3)
        Q = symmetric_gaussian(rng, 3)
        out = apply_transform(kron_power(V, 2), Q)
        assert np.allclose(out, V @ Q @ V.T, atol=1e-12)

    def test_rotation_of_diagonal_form(self):
        # oracle: the explicit 4x4 matrix-vector product
        V = np.array([[0.0, -1.0], [1.0, 0.0]])
        Q = np.diag([1.0, 2.0])
        U = kron_power(V, 2)
        expected = (U @ Q.reshape(-1)).reshape(2, 2)
        out = apply_transform(U, Q)
        assert np.allclose(out, np.diag([2.0, 1.0]), atol=1e-14)
        assert np.allclose(out, expected, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            apply_transform(np.eye(3), np.zeros((2, 2)))

    def test_composition(self):
        rng = np.random.default_rng(2)
        T = rng.standard_normal((2, 2, 2))
        U1 = rng.standard_normal((8, 8))
        U2 = rng.standard_normal((8, 8))
        lhs = apply_transform(U1 @ U2, T)
        rhs = apply_transform(U1, apply_transform(U2, T))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_rotate_tensor_matches_kron(self):
        rng = np.random.default_rng(3)
        V = random_orthogonal(rng, 2)
        T = rng.standard_normal((2, 2, 2))
        assert np.allclose(
            rotate_tensor(V, T), apply_transform(kron_power(V, 3), T), atol=1e-12
        )


class TestReshapings:
    def test_vec_lexicographic(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(vec(M), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_ten_vec_roundtrip(self):
        rng = np.random.default_rng(4)
        T = rng.standard_normal((3, 3, 3))
        assert np.array_equal(ten(vec(T), 3, 3), T)

    def test_mat_of_basis_vector(self):
        r = 3
        for i in range(r):
            for j in range(r):
                e = np.zeros(r * r)
                e[i * r + j] = 1.0
                assert np.array_equal(mat(e), np.outer(np.eye(r)[i], np.eye(r)[j]))

    def test_mat_rejects_non_square_length(self):
        with pytest.raises(UsageError):
            mat(np.zeros(5))


class TestRotateNetwork:
    def test_identity(self):
        rng = np.random.default_rng(5)
        Q = np.stack([symmetric_gaussian(rng, 3) for _ in range(2)])
        net = PolyNetwork(kind="quadratic", r=3, d=2, Q=Q)
        out = rotate_network(net, np.eye(3))
        assert np.allclose(out.Q, net.Q)

    def test_trace_invariance(self):
        rng = np.random.default_rng(6)
        Q = np.stack([symmetric_gaussian(rng, 3) for _ in range(3)])
        net = PolyNetwork(kind="quadratic", r=3, d=3, Q=Q)
        V = random_orthogonal(rng, 3)
        out = rotate_network(net, V)
        for a in range(3):
            for b in range(3):
                assert np.trace(out.Q[a] @ out.Q[b]) == pytest.approx(
                    np.trace(Q[a] @ Q[b]), abs=1e-10
                )

    def test_lowrank_components_rotate_tensors(self):
        # brute-force dense expansion at r=2, omega=3, ell=2
        rng = np.random.default_rng(7)
        comps = rng.standard_normal((2, 2, 2))
        net = PolyNetwork(kind="lowrank", r=2, d=2, omega=3, ell=2, components=comps)
        V = random_orthogonal(rng, 2)
        out = rotate_network(net, V)
        for a in range(2):
            expected = apply_transform(kron_power(V, 3), net.unit_tensor(a))
            assert np.max(np.abs(out.unit_tensor(a) - expected)) <= 1e-10


class TestGaugeDistance:
    def test_identical_networks(self):
        rng = np.random.default_rng(8)
        Q = np.stack([symmetric_gaussian(rng, 2) for _ in range(3)])
        net = PolyNetwork(kind="quadratic", r=2, d=3, Q=Q)
        dist, rot = gauge_distance(net, net, AlignmentConfig())
        assert dist <= 1e-10
        assert rot.V.shape == (2, 2)

    def test_rotated_copy(self):
        rng = np.random.default_rng(9)
        Q = np.stack([symmetric_gaussian(rng, 3) for _ in range(6)])
        net = PolyNetwork(kind="quadratic", r=3, d=6, Q=Q)
        V = random_orthogonal(rng, 3)
        dist, _ = gauge_distance(net, rotate_network(net, V), AlignmentConfig())
        assert dist <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["quadratic", "lowrank"])
    def test_rotated_copy_r2_precise(self, kind, seed):
        # the grid scan's refinement resolves the angle to ~1e-12, whatever
        # the angle; proper rotations and reflections alike
        rng = np.random.default_rng(20 + seed)
        if kind == "quadratic":
            Q = np.stack([symmetric_gaussian(rng, 2) for _ in range(3)])
            net = PolyNetwork(kind="quadratic", r=2, d=3, Q=Q)
        else:
            comps = rng.standard_normal((4, 1, 2))
            comps /= np.linalg.norm(comps, axis=2, keepdims=True)
            net = PolyNetwork(kind="lowrank", r=2, d=4, omega=3, ell=1, components=comps)
        V = random_orthogonal(rng, 2)
        dist, _ = gauge_distance(net, rotate_network(net, V), AlignmentConfig())
        assert dist <= 1e-10

    def test_r1_sign_gap(self):
        # O(1) = {+1, -1} and the order-2 action fixes Q either way
        netA = PolyNetwork(kind="quadratic", r=1, d=1, Q=np.array([[[1.0]]]))
        netB = PolyNetwork(kind="quadratic", r=1, d=1, Q=np.array([[[-1.0]]]))
        dist, _ = gauge_distance(netA, netB, AlignmentConfig())
        assert dist == pytest.approx(2.0, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        QA = np.stack([symmetric_gaussian(rng, 2) for _ in range(3)])
        QB = np.stack([symmetric_gaussian(rng, 2) for _ in range(3)])
        netA = PolyNetwork(kind="quadratic", r=2, d=3, Q=QA)
        netB = PolyNetwork(kind="quadratic", r=2, d=3, Q=QB)
        dAB, _ = gauge_distance(netA, netB, AlignmentConfig())
        dBA, _ = gauge_distance(netB, netA, AlignmentConfig())
        assert dAB == pytest.approx(dBA, abs=1e-6)


def _objective_reference(tensA, tensB, V):
    """max_a ||rotate_tensor(V, T_a) - T'_a||_F, one unit at a time."""
    return max(float(np.linalg.norm(rotate_tensor(V, Ta) - Tb)) for Ta, Tb in zip(tensA, tensB))


def _random_net(rng, r, d, omega, scale=1.0):
    if omega == 2:
        Q = scale * np.stack([symmetric_gaussian(rng, r) for _ in range(d)])
        return PolyNetwork(kind="quadratic", r=r, d=d, Q=Q)
    ell = 1 + int(rng.integers(2))
    comps = scale * rng.standard_normal((d, ell, r))
    return PolyNetwork(kind="lowrank", r=r, d=d, omega=omega, ell=ell, components=comps)


class TestGaugeKernel:
    @pytest.mark.parametrize("r,omega", [(2, 2), (4, 2), (2, 3), (3, 3), (2, 5), (3, 5)])
    def test_batched_objective_matches_per_unit_rotation(self, r, omega):
        rng = np.random.default_rng(30 + 10 * r + omega)
        tensA, tensB = (
            np.stack([symmetrize(rng.standard_normal((r,) * omega)) for _ in range(4)])
            for _ in range(2)
        )
        Vs = np.stack([random_orthogonal(rng, r) for _ in range(5)])
        ref = np.array([_objective_reference(tensA, tensB, V) for V in Vs])
        single = np.array([gauge._objective(tensA, tensB, V) for V in Vs])
        batch = gauge._objective(tensA, tensB, Vs)
        assert batch.shape == (5,)
        assert np.max(np.abs(single - ref) / ref) <= 1e-14
        assert np.max(np.abs(batch - ref) / ref) <= 1e-14

    @pytest.mark.parametrize("r", range(3, 7))
    def test_skew_exponential_closed_form(self, r):
        rng = np.random.default_rng(50 + r)
        X = rng.standard_normal((r, r))
        K = X - X.T
        E = gauge._expm_skew(K)
        assert np.max(np.abs(E - expm(K))) <= 1e-13
        assert np.max(np.abs(E.T @ E - np.eye(r))) <= 1e-13


class TestGaugeStop:
    @pytest.fixture
    def refines(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("method"))
            return minimize(*args, **kwargs)

        monkeypatch.setattr(gauge, "minimize", counted)
        return calls

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", [(3, 6, 2), (4, 10, 2), (3, 10, 3)])
    def test_exact_copy_stops_at_rounding(self, refines, shape, seed):
        # the best eigenframe candidate is already at rounding level, so no
        # Nelder-Mead run is started
        r, d, omega = shape
        rng = np.random.default_rng(70 + seed)
        net = _random_net(rng, r, d, omega)
        turned = rotate_network(net, random_orthogonal(rng, r))
        dist, _ = gauge_distance(turned, net, AlignmentConfig())
        scale = max(np.abs(net.unit_tensors()).max(), np.abs(turned.unit_tensors()).max())
        assert dist <= 1e-12 * scale
        assert refines == []

    def test_noisy_copy_runs_every_start(self, refines):
        rng = np.random.default_rng(80)
        net = _random_net(rng, 3, 6, 2)
        turned = rotate_network(net, random_orthogonal(rng, 3))
        noise = 1e-3 * np.stack([symmetric_gaussian(rng, 3) for _ in range(6)])
        noisy = PolyNetwork(kind="quadratic", r=3, d=6, Q=turned.Q + noise)
        dist, _ = gauge_distance(noisy, net, AlignmentConfig())
        assert 1e-4 <= dist <= 1e-2
        assert refines == ["Nelder-Mead"] * gauge.RESTARTS

    @pytest.mark.parametrize("seed", range(8))
    def test_rotated_copy_r2_unnormalized(self, seed):
        # the angle is resolved to rounding, so the distance scales with
        # the units and not with an absolute angle tolerance
        rng = np.random.default_rng(90 + seed)
        net = _random_net(rng, 2, 4, 3, scale=3.0)
        dist, _ = gauge_distance(net, rotate_network(net, random_orthogonal(rng, 2)), AlignmentConfig())
        assert dist <= 1e-13 * max(1.0, net.radius)

    # d >= r: with fewer units the paired outers of an odd-order network do
    # not fix an eigenframe, and the local search from it may miss
    @settings(max_examples=30)
    @given(
        r=st.sampled_from([2, 3, 4]),
        omega=st.sampled_from([2, 3]),
        extra=st.integers(0, 3),
        scale=st.sampled_from([0.1, 1.0, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rotated_copy_any_shape(self, r, omega, extra, scale, seed):
        rng = np.random.default_rng(seed)
        net = _random_net(rng, r, r + extra, omega, scale)
        dist, _ = gauge_distance(net, rotate_network(net, random_orthogonal(rng, r)), AlignmentConfig())
        assert dist <= 1e-10 * max(1.0, net.radius)


class TestTypes:
    def test_sym_tensor_sorted_lookup(self):
        rng = np.random.default_rng(11)
        from polypush.tensors import symmetrize

        T = symmetrize(rng.standard_normal((3, 3, 3)))
        st = SymTensor.from_dense(T)
        assert len(st.values) == num_sorted_indices(3, 3)
        assert st[(2, 0, 1)] == st[(0, 1, 2)]
        assert np.allclose(st.to_dense(), T)
        assert st.frobenius() == pytest.approx(np.linalg.norm(T), abs=1e-12)

    def test_dense_tensor_roundtrip(self):
        v = np.arange(8.0)
        dt = DenseTensor(order=3, dim=2, values=v)
        assert np.array_equal(vec(dt.tensor()), v)
        with pytest.raises(UsageError):
            DenseTensor(order=3, dim=2, values=np.zeros(7))

    def test_gauge_rotation_validation(self):
        GaugeRotation(np.eye(3))
        with pytest.raises(UsageError):
            GaugeRotation(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_frobenius_preserved_under_rotation(self):
        rng = np.random.default_rng(12)
        for omega in (2, 3):
            V = random_orthogonal(rng, 3)
            from polypush.tensors import symmetrize

            T = symmetrize(rng.standard_normal((3,) * omega))
            out = rotate_tensor(V, T)
            assert abs(np.linalg.norm(out) - np.linalg.norm(T)) <= 1e-9
