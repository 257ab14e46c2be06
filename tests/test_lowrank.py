import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import complex_step_jacobian, gaussian_product_moment, random_orthogonal
from polypush import lowrank
from polypush.errors import ConvergenceError, DegeneracyError, UsageError
from polypush.gauge import AlignmentConfig, gauge_distance
from polypush.lowrank import (
    LRConfig,
    VerifyLimits,
    exact_lowrank_pair_moments,
    extend_tail_lr,
    f_vector,
    factorize,
    hermite_network_pair_moments,
    pair_inner,
    verify_assumption_lr,
)
from polypush.moments import sigma_inner, sigma_matrix
from polypush.networks import (
    PolyNetwork,
    SmoothingParams,
    rotate_network,
    smooth_componentwise,
)
from polypush.tensor_ring import TRConfig
from polypush.tensors import rotate_tensor, sorted_multi_indices, symmetrize


def smoothed_lr_net(r, d, omega, ell, rho, seed):
    base = PolyNetwork(
        kind="lowrank", r=r, d=d, omega=omega, ell=ell,
        components=np.zeros((d, ell, r)),
    )
    return smooth_componentwise(SmoothingParams(rho=rho, base=base, rng_seed=seed))


def sigma_sym_oracle(r, omega):
    """Sigma_sym over sorted indices from the pairing-count moment oracle."""
    sidx = sorted_multi_indices(r, omega)
    m = len(sidx)
    out = np.zeros((m, m))
    for u in range(m):
        for v in range(m):
            out[u, v] = gaussian_product_moment(sidx[u] + sidx[v])
    return out


class TestFVector:
    def test_basis_cube(self):
        T = np.zeros((2, 2, 2))
        T[0, 0, 0] = 1.0
        assert np.allclose(f_vector(T), [1.0, 0.0])

    def test_rank_one(self):
        v = np.array([1.5, -0.5, 2.0])
        T = np.einsum("i,j,k->ijk", v, v, v)
        assert np.allclose(f_vector(T), float(v @ v) * v, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        A = symmetrize(rng.standard_normal((2, 2, 2)))
        B = symmetrize(rng.standard_normal((2, 2, 2)))
        assert np.allclose(f_vector(A + B), f_vector(A) + f_vector(B), atol=1e-13)

    def test_even_order_rejected(self):
        with pytest.raises(UsageError):
            f_vector(np.zeros((2, 2)))


class TestPairInner:
    def test_identity_mode(self):
        v = np.array([1.0, 2.0])
        w = np.array([0.5, -1.0])
        assert pair_inner(v, w, 3, "identity") == pytest.approx(
            float(v @ w) ** 3, abs=1e-12
        )

    def test_gaussian_matches_sigma(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(2)
        w = rng.standard_normal(2)
        Tv = np.einsum("i,j,k->ijk", v, v, v)
        Tw = np.einsum("i,j,k->ijk", w, w, w)
        Sigma = sigma_matrix(2, 3).Sigma
        assert pair_inner(v, w, 3, "gaussian") == pytest.approx(
            sigma_inner(Tv, Tw, Sigma), rel=1e-10
        )

    def test_sigma_gauge_invariance(self):
        rng = np.random.default_rng(2)
        A = symmetrize(rng.standard_normal((3, 3, 3)))
        B = symmetrize(rng.standard_normal((3, 3, 3)))
        V = random_orthogonal(rng, 3)
        Sigma = sigma_matrix(3, 3).Sigma
        lhs = sigma_inner(rotate_tensor(V, A), rotate_tensor(V, B), Sigma)
        assert abs(lhs - sigma_inner(A, B, Sigma)) <= 1e-9


class TestFactorize:
    def test_r1_closed_form_with_sign_rule(self):
        t = np.array([0.8, -1.3, 0.4])  # t_a = v_a^3
        comps = np.cbrt(t).reshape(3, 1, 1)
        net = PolyNetwork(kind="lowrank", r=1, d=3, omega=3, ell=1, components=comps)
        S = 15.0 * np.outer(t, t)  # E g^6 = 15
        rep = factorize(S, LRConfig(r=1, omega=3, ell=1, restarts=10), truth=net)
        got = np.array([rep.network.unit_tensor(a)[0, 0, 0] for a in range(3)])
        assert np.allclose(got, t, atol=1e-7) or np.allclose(got, -t, atol=1e-7)
        assert rep.gauge_dist <= 1e-7

    @pytest.mark.parametrize("seed", range(5))
    def test_local_recovery(self, seed):
        net = smoothed_lr_net(2, 4, 3, 1, 0.5, seed)
        S = exact_lowrank_pair_moments(net).S
        rep = factorize(S, LRConfig(r=2, omega=3, ell=1, rng_seed=seed), truth=net)
        assert rep.gauge_dist <= 1e-4

    def test_gauge_invariant_outputs(self):
        rng = np.random.default_rng(3)
        net = smoothed_lr_net(2, 4, 3, 1, 0.5, 50)
        V = random_orthogonal(rng, 2)
        SA = exact_lowrank_pair_moments(net).S
        SB = exact_lowrank_pair_moments(rotate_network(net, V)).S
        assert np.max(np.abs(SA - SB)) <= 1e-9  # S itself is gauge-invariant
        repA = factorize(SA, LRConfig(r=2, omega=3, ell=1))
        repB = factorize(SB, LRConfig(r=2, omega=3, ell=1))
        mutual, _ = gauge_distance(repA.network, repB.network, AlignmentConfig())
        assert mutual <= 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_identity_and_gaussian_modes_agree_on_recoverability(self, seed):
        net = smoothed_lr_net(2, 4, 3, 1, 0.5, 100 + seed)
        for mode in ("gaussian", "identity"):
            S = np.zeros((4, 4))
            for a in range(4):
                for b in range(4):
                    S[a, b] = pair_inner(
                        net.components[a, 0], net.components[b, 0], 3, mode
                    )
            rep = factorize(
                S, LRConfig(r=2, omega=3, ell=1, sigma_mode=mode, rng_seed=seed),
                truth=net,
            )
            assert rep.gauge_dist <= 1e-4

    def test_sos_backend_r1(self):
        t = np.array([1.1, 0.6, -0.9])
        comps = np.cbrt(t).reshape(3, 1, 1)
        net = PolyNetwork(kind="lowrank", r=1, d=3, omega=3, ell=1, components=comps)
        S = 15.0 * np.outer(t, t)
        rep = factorize(S, LRConfig(r=1, omega=3, ell=1, backend="sos"), truth=net)
        assert rep.gauge_dist <= 1e-4

    @pytest.mark.parametrize("backend", ["hybrid", "nonsense"])
    @pytest.mark.parametrize("config", [LRConfig, TRConfig])
    def test_hybrid_backend_rejected(self, config, backend):
        with pytest.raises(UsageError):
            config(r=2, backend=backend)

    @pytest.mark.parametrize("case", ["rank1", "inconsistent"])
    def test_sos_never_solves_cold(self, monkeypatch, case):
        # |S_01| > sqrt(S_00 S_11) has no Gaussian pair-moment model, so the
        # fit misses and sos must fail before any program is solved
        warm_points = []
        real = lowrank.solve

        def recording(prog, cfg=None, warm=None):
            warm_points.append(warm)
            return real(prog, cfg, warm)

        monkeypatch.setattr(lowrank, "solve", recording)
        cfg = LRConfig(r=1, omega=3, ell=1, backend="sos", restarts=3)
        if case == "rank1":
            t = np.array([1.1, 0.6, -0.9])
            factorize(15.0 * np.outer(t, t), cfg)
            assert len(warm_points) == 1
        else:
            with pytest.raises(ConvergenceError):
                factorize(np.array([[1.0, 5.0, 0.0], [5.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), cfg)
            assert warm_points == []
        assert all(w is not None for w in warm_points)

    @pytest.mark.parametrize("seed", range(3))
    def test_sos_starts_from_the_local_fit(self, monkeypatch, seed):
        t = np.random.default_rng(seed).standard_normal(3) ** 3
        S = 15.0 * np.outer(t, t)
        real = lowrank.least_squares
        real_fit = lowrank._fit_components
        starts, fits = {}, {}
        for backend in ("local", "sos"):
            seen = starts[backend] = []

            def recording(fun, x0, **kw):
                seen.append(np.array(x0))
                return real(fun, x0, **kw)

            def keeping(*args, backend=backend):
                fits[backend] = real_fit(*args)
                return fits[backend]

            monkeypatch.setattr(lowrank, "least_squares", recording)
            monkeypatch.setattr(lowrank, "_fit_components", keeping)
            factorize(S, LRConfig(r=1, omega=3, ell=1, backend=backend, rng_seed=seed))
        # sos then polishes each unit's components once: 3 entries for the
        # whole network, 1 for a single unit
        fit = [x for x in starts["sos"] if x.size == 3]
        assert len(fit) == len(starts["local"]) >= 1
        for a, b in zip(fit, starts["local"]):
            assert np.array_equal(a, b)
        # each unit's polish starts at the gauge-fixed fit, which at r = 1 is
        # the fit itself up to one sign for all units
        unit = np.concatenate([x for x in starts["sos"] if x.size == 1])
        comps = fits["sos"][0].reshape(-1)
        assert unit.size == 3
        sign = np.sign(unit[0] * comps[0])
        assert np.allclose(unit, sign * comps, rtol=1e-14, atol=0.0)

    def test_sos_solves_one_gauge_fixed_relaxation(self, monkeypatch):
        # this fit violates the gauge-free program's caps before it is
        # gauge-fixed; gauge-fixed, it is feasible for the sos program
        net = smoothed_lr_net(2, 4, 3, 1, 0.5, 9)
        S = exact_lowrank_pair_moments(net).S
        calls = {"encode_lowrank": 0, "solve": 0}
        for name in calls:
            real = getattr(lowrank, name)

            def counting(*args, real=real, name=name, **kw):
                calls[name] += 1
                return real(*args, **kw)

            monkeypatch.setattr(lowrank, name, counting)
        unit_starts = []
        real_lsq = lowrank.least_squares

        def recording(fun, x0, **kw):
            if np.size(x0) == 2:  # ell * r entries: one unit's polish
                unit_starts.append(np.array(x0))
            return real_lsq(fun, x0, **kw)

        monkeypatch.setattr(lowrank, "least_squares", recording)
        rep = factorize(
            S, LRConfig(r=2, omega=3, ell=1, backend="sos", rng_seed=9), truth=net
        )
        assert rep.gauge_dist <= 1e-6
        assert calls == {"encode_lowrank": 1, "solve": 1}
        assert len(unit_starts) == net.d
        # the starts are the exact fit in some gauge
        start = PolyNetwork(kind="lowrank", r=2, d=4, omega=3, ell=1,
                            components=np.stack(unit_starts).reshape(4, 1, 2))
        assert gauge_distance(start, net, AlignmentConfig())[0] <= 1e-6

    def test_too_few_pair_moments_rejected(self):
        # d(d+1)/2 = 6 equations for d*ell*r = 18 unknowns
        S = exact_lowrank_pair_moments(smoothed_lr_net(3, 3, 3, 2, 0.5, 0)).S
        with pytest.raises(UsageError):
            factorize(S, LRConfig(r=3, omega=3, ell=2))


class TestExactPairMoments:
    @pytest.fixture
    def net(self):
        return smoothed_lr_net(2, 4, 3, 2, 0.7, 9)

    def test_gaussian_matches_sigma_inner(self, net):
        Sigma = sigma_matrix(2, 3).Sigma
        tens = net.unit_tensors()
        S = exact_lowrank_pair_moments(net, mode="gaussian").S
        for a in range(net.d):
            for b in range(net.d):
                assert S[a, b] == pytest.approx(
                    sigma_inner(tens[a], tens[b], Sigma), rel=1e-10, abs=1e-12
                )

    def test_identity_is_frobenius(self, net):
        tens = net.unit_tensors()
        S = exact_lowrank_pair_moments(net, mode="identity").S
        dense = np.einsum("aijk,bijk->ab", tens, tens)
        assert np.allclose(S, dense, rtol=1e-10, atol=1e-12)

    def test_rotation_invariant_scales_gaussian(self, net):
        S = exact_lowrank_pair_moments(net, mode="rotation_invariant", scale=1.7).S
        G = exact_lowrank_pair_moments(net, mode="gaussian").S
        assert np.allclose(S, 1.7 * G, rtol=1e-12, atol=0.0)


class TestExtendTailLr:
    def test_exact_head_exact_tail(self):
        rng = np.random.default_rng(4)
        r, omega, ell, d, dp = 2, 3, 1, 7, 4
        comps = rng.standard_normal((d, ell, r))
        comps /= np.linalg.norm(comps, axis=2, keepdims=True)
        net = PolyNetwork(kind="lowrank", r=r, d=d, omega=omega, ell=ell,
                          components=comps)
        S = exact_lowrank_pair_moments(net).S
        Sigma_sym = sigma_sym_oracle(r, omega)
        assert np.allclose(Sigma_sym, sigma_matrix(r, omega).Sigma_sym, atol=1e-12)
        tens = net.unit_tensors()
        tail = extend_tail_lr(S, Sigma_sym, tens[:dp], d)
        assert np.max(np.abs(tail - tens[dp:])) <= 1e-8

    def test_noop(self):
        rng = np.random.default_rng(5)
        comps = rng.standard_normal((4, 1, 2))
        net = PolyNetwork(kind="lowrank", r=2, d=4, omega=3, ell=1, components=comps)
        S = exact_lowrank_pair_moments(net).S
        tail = extend_tail_lr(S, sigma_matrix(2, 3).Sigma_sym, net.unit_tensors(), 4)
        assert tail.shape == (0, 2, 2, 2)

    def test_perturbation_linear_in_eta(self):
        rng = np.random.default_rng(6)
        r, d, dp = 2, 8, 4
        comps = rng.standard_normal((d, 1, r))
        comps /= np.linalg.norm(comps, axis=2, keepdims=True)
        net = PolyNetwork(kind="lowrank", r=r, d=d, omega=3, ell=1, components=comps)
        S = exact_lowrank_pair_moments(net).S
        sig = sigma_matrix(r, 3).Sigma_sym
        tens = net.unit_tensors()
        noise = rng.uniform(-1, 1, S.shape)
        noise = 0.5 * (noise + noise.T)
        errs = []
        for eta in (1e-6, 1e-4):
            tail = extend_tail_lr(S + eta * noise, sig, tens[:dp], d)
            errs.append(np.max(np.abs(tail - tens[dp:])))
        ratio = errs[1] / errs[0]
        assert 10 <= ratio <= 1000  # linear in eta: ratio ~ 100

    def test_rank_deficient_head(self):
        with pytest.raises(DegeneracyError):
            extend_tail_lr(np.eye(6), sigma_matrix(2, 3).Sigma_sym,
                           np.zeros((4, 2, 2, 2)), 6)

    def test_small_head_rejected(self):
        with pytest.raises(UsageError):
            extend_tail_lr(np.eye(6), sigma_matrix(2, 3).Sigma_sym,
                           np.zeros((2, 2, 2, 2)), 6)


class TestVerifyAssumptionLr:
    def test_scaled_basis_h_structure(self):
        # components along the two basis vectors: f_a = c_a^2 * c_a keeps H
        # diagonal-structured; sigma_min computable by hand
        comps = np.zeros((2, 1, 2))
        comps[0, 0, 0] = 1.0
        comps[1, 0, 1] = 2.0
        net = PolyNetwork(kind="lowrank", r=2, d=2, omega=3, ell=1, components=comps)
        rep = verify_assumption_lr(net)
        # f_0 = e_1, f_1 = 8 e_2; H rows (1,0,0) and (0,0,64) over (ii,ij,jj)
        assert rep.sigma_min_H == pytest.approx(1.0, abs=1e-12)
        # M rows are the weighted flattenings of e_1^{x3} and 8 e_2^{x3}
        assert rep.sigma_min_M == pytest.approx(1.0, abs=1e-12)

    def test_duplicated_units(self):
        comps = np.ones((6, 1, 2))
        net = PolyNetwork(kind="lowrank", r=2, d=6, omega=3, ell=1, components=comps)
        rep = verify_assumption_lr(net)
        assert rep.sigma_min_M == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_smoothed_sigma_min_positive(self, seed):
        net = smoothed_lr_net(2, 10, 3, 1, 0.5, 300 + seed)
        rep = verify_assumption_lr(net)
        assert rep.sigma_min_M > 0.0

    def test_k_matrix_skipped_when_large(self):
        net = smoothed_lr_net(3, 4, 3, 4, 0.5, 0)
        rep = verify_assumption_lr(net, VerifyLimits(max_cols=10))
        assert rep.sigma_min_K is None
        assert "skipped" in rep.k_skipped


class TestHermiteNetworkPairMoments:
    def test_orthonormal_identity(self):
        units = np.zeros((2, 1, 2))
        units[0, 0, 0] = 1.0
        units[1, 0, 1] = 1.0
        t = hermite_network_pair_moments(np.ones((2, 1)), units, 3)
        assert np.allclose(t.S, np.eye(2), atol=1e-12)

    def test_shared_direction(self):
        v = np.array([0.6, 0.8])
        units = np.stack([v[None], v[None]])
        lam = np.array([[2.0], [-3.0]])
        t = hermite_network_pair_moments(lam, units, 3)
        assert t.S[0, 1] == pytest.approx(-6.0, abs=1e-12)

    def test_matches_frobenius_expansion(self):
        # dense tensor oracle at r=2, omega=3, ell=2
        rng = np.random.default_rng(7)
        units = rng.standard_normal((2, 2, 2))
        units /= np.linalg.norm(units, axis=2, keepdims=True)
        lam = rng.standard_normal((2, 2))
        t = hermite_network_pair_moments(lam, units, 3)
        tens = []
        for a in range(2):
            T = np.zeros((2, 2, 2))
            for k in range(2):
                v = units[a, k]
                T += lam[a, k] * np.einsum("i,j,k->ijk", v, v, v)
            tens.append(T)
        for a in range(2):
            for b in range(2):
                frob = float(np.sum(tens[a] * tens[b]))
                assert t.S[a, b] == pytest.approx(frob, abs=1e-10)

    def test_non_unit_rejected(self):
        units = 2.0 * np.ones((1, 1, 2))
        with pytest.raises(UsageError):
            hermite_network_pair_moments(np.ones((1, 1)), units, 3)


class TestSignConsistency:
    def test_signs_match_after_alignment(self):
        net = smoothed_lr_net(2, 4, 3, 1, 0.5, 77)
        S = exact_lowrank_pair_moments(net).S
        rep = factorize(S, LRConfig(r=2, omega=3, ell=1), truth=net)
        _, rot = gauge_distance(rep.network, net, AlignmentConfig())
        aligned = rotate_network(rep.network, rot)
        resid = math.sqrt(max(rep.residual_S, 0.0))
        for a in range(4):
            ta = aligned.unit_tensor(a)
            tt = net.unit_tensor(a)
            mask = np.abs(tt) > 10 * max(resid, 1e-6)
            assert np.all(np.sign(ta[mask]) == np.sign(tt[mask]))


class TestJacobians:
    @settings(max_examples=60)
    @given(
        d=st.integers(1, 5), ell=st.integers(1, 2), r=st.integers(1, 3),
        omega=st.sampled_from([3, 5]),
        mode=st.sampled_from(["gaussian", "identity", "rotation_invariant"]),
        scale=st.floats(0.25, 4.0), seed=st.integers(0, 2**32 - 1),
    )
    def test_pair_table_matches_complex_step(self, d, ell, r, omega, mode, scale, seed):
        rows = np.triu_indices(d)
        x = np.random.default_rng(seed).standard_normal(d * ell * r)

        def model(x):
            return lowrank._pair_table(x.reshape(d, ell, r), omega, mode, scale)[rows]

        want = complex_step_jacobian(model, x)
        got = lowrank._pair_table_jacobian(x.reshape(d, ell, r), omega, mode, scale, rows)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @settings(max_examples=40)
    @given(
        ell=st.integers(1, 3), r=st.integers(1, 3), omega=st.sampled_from([1, 3, 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_power_sum_matches_complex_step(self, ell, r, omega, seed):
        x = np.random.default_rng(seed).standard_normal(ell * r)
        want = complex_step_jacobian(
            lambda x: lowrank._power_sum(x.reshape(ell, r), omega), x
        )
        got = lowrank._power_sum_jacobian(x.reshape(ell, r), omega)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("backend", ["local", "sos"])
    def test_every_fit_has_a_jacobian(self, monkeypatch, backend):
        calls = []
        fit = lowrank.least_squares

        def checked(fun, x0, **kw):
            calls.append(callable(kw.get("jac")))
            return fit(fun, x0, **kw)

        monkeypatch.setattr(lowrank, "least_squares", checked)
        net = smoothed_lr_net(1, 3, 3, 1, 0.5, 0)
        S = exact_lowrank_pair_moments(net).S
        factorize(S, LRConfig(r=1, backend=backend, restarts=3))
        assert calls and all(calls)
