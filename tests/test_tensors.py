import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.optimize import minimize

from conftest import (
    apply_transform,
    grid_scan_direct,
    kron_power,
    random_orthogonal,
    rotate_tensor,
    symmetric_gaussian,
    vec,
)
from polypush import gauge
from polypush.errors import UsageError
from polypush.gauge import AlignmentConfig, gauge_distance
from polypush.networks import PolyNetwork, rotate_network
from polypush.tensors import (
    GaugeRotation,
    multiplicity,
    num_sorted_indices,
    sorted_entries,
    sorted_multi_indices,
    symmetrize,
)


class TestMultiplicity:
    def test_examples(self):
        assert multiplicity((0, 0, 1)) == 3
        assert multiplicity((0, 1)) == 2
        assert multiplicity((0, 0, 0)) == 1

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("omega", [1, 2, 3, 4, 5])
    def test_sum_over_sorted_indices(self, r, omega):
        sidx = sorted_multi_indices(r, omega)
        each = [multiplicity(i) for i in sidx]
        assert sum(each) == r**omega
        assert len(sidx) == num_sorted_indices(r, omega)
        # the array form counts every row as the one-index form does
        assert np.array_equal(multiplicity(sidx), each)


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
        for T, rotated in zip(net.unit_tensors(), out.unit_tensors()):
            expected = apply_transform(kron_power(V, 3), T)
            assert np.max(np.abs(rotated - expected)) <= 1e-10


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
        # the zoom resolves the angle to rounding, whatever the angle;
        # proper rotations and reflections alike
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


def _scaled_net(rng, omega, d, reflection_symmetric=False):
    """A network with r = 2 whose units have norms spread over 1e-3 to 30;
    a reflection-symmetric one is fixed by diag(1, -1)."""
    scales = 10 ** rng.uniform(-3, math.log10(30), d)
    if omega == 2:
        Q = np.stack([symmetric_gaussian(rng, 2) for _ in range(d)]) * scales[:, None, None]
        if reflection_symmetric:
            Q = Q * np.eye(2)
        return PolyNetwork(kind="quadratic", r=2, d=d, Q=Q)
    comps = rng.standard_normal((d, 2, 2)) * scales[:, None, None]
    if reflection_symmetric:
        comps[..., 1] = 0.0
    return PolyNetwork(kind="lowrank", r=2, d=d, omega=omega, ell=2, components=comps)


def _noisy_copy(rng, net, eta):
    if net.kind == "quadratic":
        noise = np.stack([symmetric_gaussian(rng, net.r) for _ in range(net.d)])
        return PolyNetwork(kind="quadratic", r=net.r, d=net.d, Q=net.Q + eta * noise)
    return PolyNetwork(kind="lowrank", r=net.r, d=net.d, omega=net.omega, ell=net.ell,
                       components=net.components + eta * rng.standard_normal(net.components.shape))


def _grid_pair(omega, case, seed):
    """The pairs the old r = 2 grid scan was checked on: rotated, reflected,
    identical, reflection-symmetric and noisy copies of a ``_scaled_net``."""
    rng = np.random.default_rng(1000 * omega + 10 * seed + len(case))
    d = 1 + int(rng.integers(5))
    net = _scaled_net(rng, omega, d, case == "symmetric")
    V = random_orthogonal(rng, 2)
    if (np.linalg.det(V) < 0) != (case == "reflected"):
        V = V @ np.diag([1.0, -1.0])
    other = net if case == "identical" else rotate_network(net, V)
    if case == "noisy":
        other = _noisy_copy(rng, other, 1e-3)
    if case == "symmetric":
        other = _scaled_net(rng, omega, d, True)
    return other, net


def _no_worse_than_grid(netA, netB):
    dist, rot = gauge_distance(netA, netB, AlignmentConfig())
    tensA, tensB = netA.unit_tensors(), netB.unit_tensors()
    _, _, grid = grid_scan_direct(gauge._objective, tensA, tensB, 1e-3)
    assert dist <= grid + 1e-14 * max(1.0, netA.radius, netB.radius)
    return dist, rot


class TestGridScan:
    """The r = 2 alignment against a direct scan of every rotation of a
    1e-3 angle grid and its reflected twin: never above it, to rounding."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("case", ["rotated", "reflected", "identical", "symmetric", "noisy"])
    @pytest.mark.parametrize("omega", [2, 3, 5])
    def test_matches_direct_scan(self, omega, case, seed):
        _no_worse_than_grid(*_grid_pair(omega, case, seed))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tilt", [0.0, 1e-16, 1e-15, 1e-14, 1e-13])
    def test_flat_objective_matches_direct_scan(self, tilt, seed):
        # multiples of the identity are fixed by every rotation; tilted by
        # less than rounding, the objective is flat and rounding alone
        # picks its argmin
        rng = np.random.default_rng(1100 + seed)
        netA, netB = (
            PolyNetwork(kind="quadratic", r=2, d=3,
                        Q=rng.standard_normal((3, 1, 1)) * np.eye(2)
                        + tilt * np.stack([symmetric_gaussian(rng, 2) for _ in range(3)]))
            for _ in range(2)
        )
        _no_worse_than_grid(netA, netB)

    def test_r2_never_starts_nelder_mead(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the r = 2 path called gauge.minimize")

        monkeypatch.setattr(gauge, "minimize", refuse)
        rng = np.random.default_rng(1200)
        for omega in (2, 3, 5):
            net = _scaled_net(rng, omega, 4)
            noisy = _noisy_copy(rng, rotate_network(net, random_orthogonal(rng, 2)), 1e-2)
            gauge_distance(noisy, net, AlignmentConfig())


class TestAlignR2:
    @pytest.mark.parametrize("omega", [1, 2, 3, 5])
    def test_trig_roots_bracket_every_sign_change(self, omega):
        # the last row's top harmonic vanishes, which the companion matrix
        # cannot divide by
        rng = np.random.default_rng(1500 + omega)
        coef = rng.standard_normal((6, omega + 1)) + 1j * rng.standard_normal((6, omega + 1))
        coef[:, 0] = coef[:, 0].real
        coef[-1, -1] = 0.0
        angles = gauge._trig_roots(coef)
        assert angles.shape == (6, 2 * omega)
        thetas = np.arange(0.0, 2 * math.pi, 1e-4)
        waves = np.exp(1j * np.multiply.outer(thetas, np.arange(omega + 1)))
        for row, found in zip(coef, angles):
            p = 2 * (waves @ row).real - row[0].real
            for k in np.flatnonzero(np.sign(p[:-1]) != np.sign(p[1:])):
                gap = np.abs(np.angle(np.exp(1j * (found - thetas[k])))).min()
                assert gap <= 2e-4

    @pytest.mark.parametrize("reflected", [False, True])
    @pytest.mark.parametrize("omega", [2, 3, 5])
    def test_exact_copies_read_rounding(self, omega, reflected):
        # unit norms spread over 1e-3 to 30 moved the old grid's best point
        # into the wrong basin on 4 of these 240 copies
        missed = []
        for seed in range(40):
            rng = np.random.default_rng([7, omega, reflected, seed])
            d = 1 + int(rng.integers(12))
            net = _scaled_net(rng, omega, d)
            V = random_orthogonal(rng, 2)
            if (np.linalg.det(V) < 0) != reflected:
                V = V @ np.diag([1.0, -1.0])
            dist, _ = gauge_distance(rotate_network(net, V), net, AlignmentConfig())
            if dist > 1e-13 * max(1.0, net.radius):
                missed.append((seed, d, dist))
        assert missed == []

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("omega", [2, 3, 5])
    def test_reflection_symmetric_pair_returns_a_proper_rotation(self, omega, seed):
        # diag(1, -1) fixes every unit of both, so each reflection ties
        # exactly with a proper rotation, and the proper one wins
        netA, netB = _grid_pair(omega, "symmetric", seed)
        _, rot = _no_worse_than_grid(netA, netB)
        assert np.linalg.det(rot.V) > 0
        tensA, tensB = netA.unit_tensors(), netB.unit_tensors()
        twin = rot.V @ np.diag([1.0, -1.0])
        assert gauge._objective(tensA, tensB, twin) == gauge._objective(tensA, tensB, rot.V)

    @pytest.mark.parametrize("seed", range(8))
    def test_identity_multiples_return_the_identity(self, seed):
        # every rotation fixes them, so theta = 0, scored first, keeps the tie
        rng = np.random.default_rng(1400 + seed)
        d = 1 + seed % 4
        net = PolyNetwork(kind="quadratic", r=2, d=d,
                          Q=10 ** rng.uniform(-3, 1.5, (d, 1, 1)) * np.eye(2))
        dist, rot = gauge_distance(net, net, AlignmentConfig())
        assert dist == 0.0
        assert np.array_equal(rot.V, np.eye(2))


def _r1_candidate_search(netA, netB):
    """The r = 1 alignment as the r >= 3 search makes it: the eigenframe
    candidates, which reduce to +1 and -1, their argmin, and its SVD
    orthogonalization.  Its Nelder-Mead refine returned at once, since O(1)
    has no angle to refine."""
    tensA, tensB = netA.unit_tensors(), netB.unit_tensors()
    u, _, vt = np.linalg.svd(gauge._candidates(netA, netB, AlignmentConfig()))
    cands = u @ vt
    U = cands[int(np.argmin(gauge._objective(tensA, tensB, cands)))]
    u, _, vt = np.linalg.svd(U)
    U = u @ vt
    return float(gauge._objective(tensA, tensB, U)), U


class TestSignAlignment:
    @pytest.fixture
    def no_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the r = 1 path called an optimizer")

        monkeypatch.setattr(gauge, "minimize", refuse)

    # at even omega, +1 and -1 act alike and tie: +1 wins
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("omega", [2, 3, 5])
    @pytest.mark.parametrize("case", ["negated", "identical", "noisy", "unrelated"])
    def test_matches_candidate_search(self, no_search, case, omega, seed):
        rng = np.random.default_rng(1300 + 100 * omega + seed)
        net = _random_net(rng, 1, 1 + int(rng.integers(4)), omega, scale=10 ** rng.uniform(-3, 1.5))
        if case == "unrelated":
            other = _random_net(rng, 1, net.d, omega)
        elif case == "identical":
            other = net
        else:
            other = rotate_network(net, -np.eye(1))
            if case == "noisy":
                other = _noisy_copy(rng, other, 1e-3)
        dist, rot = gauge_distance(other, net, AlignmentConfig())
        want_dist, want_U = _r1_candidate_search(other, net)
        assert np.float64(dist).tobytes() == np.float64(want_dist).tobytes()
        assert rot.V.tobytes() == want_U.tobytes()


class TestTypes:
    def test_sorted_entries_roundtrip(self):
        # oracle: one lookup per multi-index, through its sorted form
        rng = np.random.default_rng(11)
        for r, omega in [(1, 3), (2, 3), (3, 3), (4, 2), (2, 5)]:
            T = np.stack([symmetrize(rng.standard_normal((r,) * omega)) for _ in range(2)])
            sidx = sorted_multi_indices(r, omega)
            entries = sorted_entries(T, omega)
            assert entries.shape == (2, num_sorted_indices(r, omega))
            assert np.array_equal(entries, [[Tk[idx] for idx in sidx] for Tk in T])
            # each sorted entry stands for multiplicity-many dense ones
            norms = np.sqrt(np.sum(multiplicity(sidx) * entries**2, axis=1))
            assert np.allclose(norms, np.linalg.norm(T.reshape(2, -1), axis=1), atol=1e-12)

    def test_gauge_rotation_validation(self):
        GaugeRotation(np.eye(3))
        with pytest.raises(UsageError):
            GaugeRotation(np.array([[1.0, 0.1], [0.0, 1.0]]))
        # a NaN deviation passed the orthogonality check err > 1e-10
        with pytest.raises(UsageError, match="NaN or inf"):
            GaugeRotation(np.full((2, 2), np.nan))

    def test_frobenius_preserved_under_rotation(self):
        rng = np.random.default_rng(12)
        for omega in (2, 3):
            V = random_orthogonal(rng, 3)
            from polypush.tensors import symmetrize

            T = symmetrize(rng.standard_normal((3,) * omega))
            out = rotate_tensor(V, T)
            assert abs(np.linalg.norm(out) - np.linalg.norm(T)) <= 1e-9
