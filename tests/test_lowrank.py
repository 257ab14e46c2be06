import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import complex_step_jacobian, gaussian_product_moment, random_orthogonal
from polypush import lowrank, moments
from polypush.errors import ConvergenceError, DegeneracyError, UsageError
from polypush.gauge import AlignmentConfig, gauge_distance
from polypush.lowrank import (
    LRConfig,
    exact_lowrank_pair_moments,
    extend_tail_lr,
    factorize,
    verify_assumption_lr,
)
from polypush.moments import rotation_invariant_scale, sigma_inner, sigma_matrix
from polypush.networks import (
    PolyNetwork,
    SeedDistribution,
    SmoothingParams,
    gaussian_norm_moment,
    rotate_network,
    smooth_componentwise,
)
from polypush.tensor_ring import TRConfig
from polypush.tensors import (
    paired_contraction,
    rotate_tensor,
    sorted_multi_indices,
    symmetrize,
)


def smoothed_lr_net(r, d, omega, ell, rho, seed):
    base = PolyNetwork(
        kind="lowrank", r=r, d=d, omega=omega, ell=ell,
        components=np.zeros((d, ell, r)),
    )
    return smooth_componentwise(SmoothingParams(rho=rho, base=base, rng_seed=seed))


def stacked_net(*vectors):
    """The omega = 3, ell = 1 low-rank network whose unit a has the one
    component vectors[a]."""
    comps = np.array(vectors, dtype=float)[:, None, :]
    d, _, r = comps.shape
    return PolyNetwork(kind="lowrank", r=r, d=d, omega=3, ell=1, components=comps)


def hermite_net(lam, units, omega):
    """The identity-mode low-rank network of the Hermite-activation network
    T_a = sum_t lam[a, t] units[a, t]^{x omega}: its components are
    sign(lam) |lam|^(1/omega) units."""
    comps = (np.sign(lam) * np.abs(lam) ** (1.0 / omega))[..., None] * units
    d, ell, r = comps.shape
    return PolyNetwork(kind="lowrank", r=r, d=d, omega=omega, ell=ell, components=comps)


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
    # f_a is the paired contraction of T_a
    def test_basis_cube(self):
        T = np.zeros((2, 2, 2))
        T[0, 0, 0] = 1.0
        assert np.allclose(paired_contraction(T, 3), [1.0, 0.0])

    def test_rank_one(self):
        v = np.array([1.5, -0.5, 2.0])
        T = np.einsum("i,j,k->ijk", v, v, v)
        assert np.allclose(paired_contraction(T, 3), float(v @ v) * v, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        A = symmetrize(rng.standard_normal((2, 2, 2)))
        B = symmetrize(rng.standard_normal((2, 2, 2)))

        def f(T):
            return paired_contraction(T, 3)

        assert np.allclose(f(A + B), f(A) + f(B), atol=1e-13)

    def test_even_order_rejected(self):
        with pytest.raises(UsageError):
            paired_contraction(np.zeros((2, 2)), 2)


class TestPairInner:
    def test_identity_mode(self):
        v = np.array([1.0, 2.0])
        w = np.array([0.5, -1.0])
        S = exact_lowrank_pair_moments(stacked_net(v, w), mode="identity").S
        assert S[0, 1] == pytest.approx(float(v @ w) ** 3, abs=1e-12)

    def test_gaussian_matches_sigma(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(2)
        w = rng.standard_normal(2)
        Tv = np.einsum("i,j,k->ijk", v, v, v)
        Tw = np.einsum("i,j,k->ijk", w, w, w)
        Sigma = sigma_matrix(2, 3).Sigma
        S = exact_lowrank_pair_moments(stacked_net(v, w), mode="gaussian").S
        assert S[0, 1] == pytest.approx(sigma_inner(Tv, Tw, Sigma), rel=1e-10)

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
            S = exact_lowrank_pair_moments(net, mode=mode).S
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

    @pytest.mark.parametrize("config, bad", [
        (TRConfig, {"r": 0}),
        (TRConfig, {"r": -1}),
        (TRConfig, {"restarts": 0}),
        (TRConfig, {"tol": -1.0}),
        (TRConfig, {"tol": float("nan")}),
        (TRConfig, {"tol": float("inf")}),
        (LRConfig, {"r": 0}),
        (LRConfig, {"omega": -1}),
        (LRConfig, {"ell": 0}),
        (LRConfig, {"restarts": 0}),
        (LRConfig, {"tol": 0.0}),
        (LRConfig, {"tol": float("nan")}),
        (LRConfig, {"sigma_mode": "gausian"}),
        (LRConfig, {"sigma_mode": "rotation_invariant"}),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else "=".join(map(str, *v.items())))
    def test_settings_checked(self, config, bad):
        with pytest.raises(UsageError):
            config(**{"r": 2, **bad})

    @pytest.mark.parametrize("case", ["rank1", "inconsistent"])
    def test_sos_never_solves_cold(self, forbid_solve, case):
        # |S_01| > sqrt(S_00 S_11) has no Gaussian pair-moment model, so the
        # fit misses and sos fails; sos solves no program either way
        cfg = LRConfig(r=1, omega=3, ell=1, backend="sos", restarts=3)
        if case == "rank1":
            t = np.array([1.1, 0.6, -0.9])
            rep = factorize(15.0 * np.outer(t, t), cfg)
            assert rep.diagnostics["certificate_violation"] <= 1e-7
        else:
            with pytest.raises(ConvergenceError):
                factorize(np.array([[1.0, 5.0, 0.0], [5.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), cfg)

    @pytest.mark.parametrize("seed", range(3))
    def test_sos_starts_from_the_local_fit(self, monkeypatch, seed):
        t = np.random.default_rng(seed).standard_normal(3) ** 3
        S = 15.0 * np.outer(t, t)
        real = lowrank.least_squares
        starts = {}
        for backend in ("local", "sos"):
            seen = starts[backend] = []

            def recording(fun, x0, **kw):
                seen.append(np.array(x0))
                return real(fun, x0, **kw)

            monkeypatch.setattr(lowrank, "least_squares", recording)
            factorize(S, LRConfig(r=1, omega=3, ell=1, backend=backend, rng_seed=seed))
        assert len(starts["sos"]) == len(starts["local"]) >= 1
        for a, b in zip(starts["sos"], starts["local"]):
            assert np.array_equal(a, b)

    def test_sos_certifies_one_gauge_fixed_program(self, monkeypatch, forbid_solve):
        # this fit violates the gauge-free program's caps before it is
        # gauge-fixed; gauge-fixed, it is feasible for the sos program
        net = smoothed_lr_net(2, 4, 3, 1, 0.5, 9)
        S = exact_lowrank_pair_moments(net).S
        certified = []
        real = lowrank.lowrank_certificate

        def counting(*args, **kw):
            certified.append((kw["lam"], kw["mu"]))
            return real(*args, **kw)

        monkeypatch.setattr(lowrank, "lowrank_certificate", counting)
        rep = factorize(
            S, LRConfig(r=2, omega=3, ell=1, backend="sos", rng_seed=9), truth=net
        )
        assert rep.gauge_dist <= 1e-6
        assert rep.diagnostics["certificate_violation"] <= 1e-7
        assert rep.diagnostics["certificate_violation"] == max(
            rep.diagnostics["certificate_families"].values()
        )
        assert len(certified) == 1
        assert all(w is not None for w in certified[0])

    def test_sos_matches_local(self, forbid_solve):
        # on the instances sos certifies, it returns local's network bit for
        # bit; the others break the program's caps at d = m
        certified = []
        for seed in range(25):
            S = exact_lowrank_pair_moments(smoothed_lr_net(2, 4, 3, 1, 0.5, seed)).S
            local = factorize(S, LRConfig(r=2, omega=3, ell=1, rng_seed=seed))
            try:
                sos = factorize(S, LRConfig(r=2, omega=3, ell=1, backend="sos",
                                            rng_seed=seed))
            except ConvergenceError as exc:
                assert "non-degeneracy caps" in str(exc)
                continue
            certified.append(seed)
            assert np.array_equal(sos.network.components, local.network.components)
        assert len(certified) >= 6

    def test_sos_certifies_d_at_least_2m(self, forbid_solve):
        # with d = 12 >= 2m the gauge-fixed truth clears the program's caps
        ok = 0
        for seed in range(10):
            net = smoothed_lr_net(2, 12, 3, 1, 0.5, seed)
            S = exact_lowrank_pair_moments(net).S
            try:
                rep = factorize(S, LRConfig(r=2, omega=3, ell=1, backend="sos",
                                            rng_seed=seed), truth=net)
            except ConvergenceError:
                continue
            ok += rep.gauge_dist <= 1e-10
        assert ok >= 9

    @pytest.mark.parametrize("omega, d, error", [(5, 12, ConvergenceError), (3, 3, UsageError)])
    def test_sos_size_checks(self, omega, d, error):
        # d < m is refused up front; omega = 5 is not, and the certificate
        # refuses the exact (2,12,1,5) table, whose fit breaks the caps
        S = exact_lowrank_pair_moments(smoothed_lr_net(2, d, omega, 1, 0.5, 0)).S
        with pytest.raises(error):
            factorize(S, LRConfig(r=2, omega=omega, ell=1, backend="sos"))

    @pytest.mark.parametrize("mode", ["gaussian", "identity"])
    def test_sos_certifies_every_sigma_mode(self, forbid_solve, mode):
        # the program is stated with the fit's Sigma_sym
        for seed in range(4):
            net = smoothed_lr_net(1, 3, 3, 1, 1.0, seed)
            S = exact_lowrank_pair_moments(net, mode=mode).S
            cfg = LRConfig(r=1, backend="sos", sigma_mode=mode, rng_seed=seed)
            rep = factorize(S, cfg, truth=net)
            assert rep.gauge_dist <= 1e-12
            assert rep.diagnostics["certificate_violation"] <= 1e-7

    def test_sos_builds_no_full_sigma(self, monkeypatch, forbid_solve):
        # sos reads Sigma_sym (4 x 4) and D, never Sigma (8 x 8): a cap
        # between their needs leaves the exact (2,4,1,3) recovery alone
        net = smoothed_lr_net(2, 4, 3, 1, 0.5, 9)
        S = exact_lowrank_pair_moments(net).S
        monkeypatch.setattr(moments, "DENSE_BYTES_CAP", 1024)
        rep = factorize(S, LRConfig(r=2, omega=3, ell=1, backend="sos", rng_seed=9),
                        truth=net)
        assert rep.gauge_dist <= 1e-6

    def test_too_few_pair_moments_rejected(self):
        # d(d+1)/2 = 6 equations for d*ell*r = 18 unknowns
        S = exact_lowrank_pair_moments(smoothed_lr_net(3, 3, 3, 2, 0.5, 0)).S
        with pytest.raises(UsageError):
            factorize(S, LRConfig(r=3, omega=3, ell=2))


class TestClosedForm:
    MODES = moments.SIGMA_MODES

    @staticmethod
    def record_fits(monkeypatch):
        seen = []
        real = lowrank.least_squares

        def recording(fun, x0, **kw):
            seen.append(np.array(x0))
            return real(fun, x0, **kw)

        monkeypatch.setattr(lowrank, "least_squares", recording)
        return seen

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("r, d, omega", [(2, 4, 3), (3, 10, 3), (2, 6, 5)])
    def test_exact_tables_need_no_random_start(self, monkeypatch, r, d, omega, mode):
        seen = self.record_fits(monkeypatch)
        for seed in range(3):
            net = smoothed_lr_net(r, d, omega, 1, 0.5, seed)
            S = exact_lowrank_pair_moments(net, mode=mode).S
            cfg = LRConfig(r=r, omega=omega, sigma_mode=mode, rng_seed=seed)
            x, _ = lowrank._rank1_components(S, cfg)
            model = lowrank._pair_table(x.reshape(d, 1, r), omega, mode)
            assert np.max(np.abs(model - S)) <= 1e-12 * np.max(np.abs(S))
            seen.clear()
            rep = factorize(S, cfg)
            assert len(seen) == 1 and np.array_equal(seen[0], x)
            assert rep.diagnostics["start"] == "closed_form"

    @pytest.mark.parametrize("mode", MODES)
    def test_cosines_invert_the_pair_moment(self, mode):
        t = np.linspace(-1.0, 1.0, 41)
        for omega in (1, 3, 5):
            p = lowrank._pair_values(t, 1.0, 1.0, omega, mode)
            y = p / lowrank._pair_values(1.0, 1.0, 1.0, omega, mode)
            assert np.max(np.abs(lowrank._pair_cosines(y, omega, mode) - t)) <= 1e-12
        assert np.array_equal(
            lowrank._pair_cosines(np.array([-3.0, 1.5]), 3, mode), [-1.0, 1.0]
        )

    def test_ell_2_keeps_the_random_starts(self, monkeypatch):
        # no closed form at ell >= 2: the starts are stream 42's draws, in
        # order, as before the closed form existed
        net = smoothed_lr_net(1, 5, 3, 2, 0.5, 1)
        S = exact_lowrank_pair_moments(net).S
        seen = self.record_fits(monkeypatch)
        rep = factorize(S, LRConfig(r=1, omega=3, ell=2, rng_seed=1))
        assert rep.diagnostics["start"] == "random"
        rng = np.random.Generator(np.random.Philox(key=(1, 42)))
        scale = (float(np.max(np.abs(np.diag(S)))) + 1e-12) ** (1.0 / 6)
        assert seen
        for x0 in seen:
            assert np.array_equal(x0, scale * rng.standard_normal(5 * 2 * 1) / math.sqrt(1))

    def test_nonpositive_diagonal_falls_back(self, monkeypatch):
        S = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(DegeneracyError):
            lowrank._rank1_components(S, LRConfig(r=1))
        seen = self.record_fits(monkeypatch)
        with pytest.raises(ConvergenceError):
            factorize(S, LRConfig(r=1, restarts=2))
        assert len(seen) == 2


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

    @pytest.mark.parametrize("mode", ["bogus", "rotation_invariant"])
    def test_sigma_mode_checked(self, net, mode):
        with pytest.raises(UsageError):
            exact_lowrank_pair_moments(net, mode=mode)


def scale_mixture_seed(r):
    """The rotation-invariant seed x = s g, with s ~ U[0.5, 1.5] independent
    of g ~ N(0, Id_r): E||x||^e = E[s^e] E||g||^e."""
    return SeedDistribution(
        kind="rotation_invariant",
        radial_moment=lambda e: (1.5 ** (e + 1) - 0.5 ** (e + 1)) / (e + 1)
        * gaussian_norm_moment(r, e),
        radial_sampler=lambda rng, n: rng.uniform(0.5, 1.5, n) * np.sqrt(rng.chisquare(r, n)),
    )


class TestRotationInvariantSeed:
    """A rotation-invariant seed rescales the pair moments by one scalar,
    C = rotation_invariant_scale(seed, 2 omega, r): its table divided by C
    is the Gaussian table, which factorize recovers in gaussian mode."""

    SHAPES = [(1, 3, 3), (2, 4, 3), (2, 6, 5), (3, 10, 3)]

    @staticmethod
    def dense_table(net, seed):
        """<T_a, T_b>_Sigma of the seed's dense moment matrix (the oracle)."""
        Sigma = sigma_matrix(net.r, net.omega, seed).Sigma
        tens = net.unit_tensors()
        return np.array([[sigma_inner(tens[a], tens[b], Sigma) for b in range(net.d)]
                         for a in range(net.d)])

    @pytest.mark.parametrize("r, d, omega", SHAPES)
    def test_table_is_the_gaussian_one_times_c(self, r, d, omega):
        seed = scale_mixture_seed(r)
        C = rotation_invariant_scale(seed, 2 * omega, r)
        assert C > 1.1
        net = smoothed_lr_net(r, d, omega, 1, 0.5, 0)
        G = exact_lowrank_pair_moments(net).S
        assert np.allclose(self.dense_table(net, seed), C * G, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("backend", ["local", "sos"])
    @pytest.mark.parametrize("r, d, omega", SHAPES)
    def test_divided_table_is_recovered(self, forbid_solve, r, d, omega, backend):
        # sos certifies r = 1; at r >= 2 these fits break the program's caps
        seed = scale_mixture_seed(r)
        C = rotation_invariant_scale(seed, 2 * omega, r)
        for s in range(3):
            net = smoothed_lr_net(r, d, omega, 1, 0.5, s)
            S = self.dense_table(net, seed) / C
            cfg = LRConfig(r=r, omega=omega, backend=backend, rng_seed=s)
            if backend == "sos" and r > 1:
                with pytest.raises(ConvergenceError, match="non-degeneracy caps"):
                    factorize(S, cfg)
                continue
            rep = factorize(S, cfg, truth=net)
            assert rep.gauge_dist <= 1e-12


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

    def test_k_matrix_skipped_when_large(self, monkeypatch):
        net = smoothed_lr_net(3, 4, 3, 4, 0.5, 0)
        monkeypatch.setattr(lowrank, "K_MAX_COLS", 10)
        rep = verify_assumption_lr(net)
        assert rep.sigma_min_K is None
        assert "skipped" in rep.k_skipped


class TestHermiteNetworkPairMoments:
    # a Hermite-activation network is an identity-mode low-rank network
    def test_orthonormal_identity(self):
        units = np.zeros((2, 1, 2))
        units[0, 0, 0] = 1.0
        units[1, 0, 1] = 1.0
        net = hermite_net(np.ones((2, 1)), units, 3)
        t = exact_lowrank_pair_moments(net, mode="identity")
        assert np.allclose(t.S, np.eye(2), atol=1e-12)

    def test_shared_direction(self):
        v = np.array([0.6, 0.8])
        units = np.stack([v[None], v[None]])
        lam = np.array([[2.0], [-3.0]])
        t = exact_lowrank_pair_moments(hermite_net(lam, units, 3), mode="identity")
        assert t.S[0, 1] == pytest.approx(-6.0, abs=1e-12)

    def test_matches_frobenius_expansion(self):
        # dense tensor oracle at r=2, omega=3, ell=2
        rng = np.random.default_rng(7)
        units = rng.standard_normal((2, 2, 2))
        units /= np.linalg.norm(units, axis=2, keepdims=True)
        lam = rng.standard_normal((2, 2))
        t = exact_lowrank_pair_moments(hermite_net(lam, units, 3), mode="identity")
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
        mode=st.sampled_from(moments.SIGMA_MODES), seed=st.integers(0, 2**32 - 1),
    )
    def test_pair_table_matches_complex_step(self, d, ell, r, omega, mode, seed):
        rows = np.triu_indices(d)
        x = np.random.default_rng(seed).standard_normal(d * ell * r)

        def model(x):
            return lowrank._pair_table(x.reshape(d, ell, r), omega, mode)[rows]

        want = complex_step_jacobian(model, x)
        got = lowrank._pair_table_jacobian(x.reshape(d, ell, r), omega, mode, rows)
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
