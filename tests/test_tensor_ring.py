import ast
import dataclasses
import hashlib
import importlib
import inspect
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import complex_step_jacobian, random_orthogonal, symmetric_gaussian
from polypush import _lm, lowrank, tensor_ring
from polypush.errors import ConvergenceError, DegeneracyError, UsageError
from polypush.gauge import AlignmentConfig, gauge_distance
from polypush.lowrank import LRConfig, exact_lowrank_pair_moments, factorize
from polypush.moments import (
    estimate_pair_moments,
    estimate_quadratic_moments,
    exact_quadratic_moments,
    trace_moments,
)
from polypush.networks import (
    PolyNetwork,
    SeedDistribution,
    SmoothingParams,
    paired_outers,
    rotate_network,
    sample,
    smooth_componentwise,
    smooth_quadratic,
)
from polypush.tensors import symmetrize
from polypush.tensor_ring import (
    TRConfig,
    decompose,
    extend_tail,
    GAP_TOL,
    find_combo,
    gauge_fix,
    verify_assumption_tr,
)


def smoothed_net(r, d, rho, seed):
    base = PolyNetwork(kind="quadratic", r=r, d=d, Q=np.zeros((d, r, r)))
    return smooth_quadratic(SmoothingParams(rho=rho, base=base, rng_seed=seed))


def commuting_net(r, d, seed):
    """d commuting units: random diagonals in one random eigenbasis."""
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((d, r))
    O = random_orthogonal(rng, r)
    Q = np.einsum("ik,ak,jk->aij", O, V, O)
    return PolyNetwork(kind="quadratic", r=r, d=d, Q=Q)


def record_calls(monkeypatch, *names, module=tensor_ring):
    """The names of the ``module`` functions ``names`` in the order called."""
    calls = []
    for name in names:
        real = getattr(module, name)

        def recording(*args, real=real, name=name, **kw):
            calls.append(name)
            return real(*args, **kw)

        monkeypatch.setattr(module, name, recording)
    return calls


class TestFindCombo:
    def test_unit_norm(self):
        net = smoothed_net(2, 3, 0.5, 0)
        S = exact_quadratic_moments(net).S
        lam, mu = find_combo(S, 2, rng_seed=0)
        assert np.linalg.norm(lam) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(mu) == pytest.approx(1.0, abs=1e-10)

    def test_rank_m_reconstruction(self):
        # exact rank-m Gram: the truncated factor reproduces it (eigh oracle)
        rng = np.random.default_rng(1)
        d, m = 5, 3
        H = rng.standard_normal((d, m))
        G = H @ H.T
        w, U = np.linalg.eigh(G)
        top = np.argsort(w)[::-1][:m]
        Ht = U[:, top] * np.sqrt(w[top])
        assert np.max(np.abs(Ht @ Ht.T - G)) <= 1e-9
        find_combo(G, 2, rng_seed=0)  # must accept this Gram

    def test_nondegenerate_with_good_probability(self):
        good = 0
        for trial in range(60):
            net = smoothed_net(2, 3, 0.5, 1000 + trial)
            S = exact_quadratic_moments(net).S
            try:
                _, _, (gap, mu_min) = gauge_fix(net.Q, *find_combo(S, 2, rng_seed=trial))
            except DegeneracyError:
                continue
            if gap > 1e-4 and mu_min > 1e-4:
                good += 1
        assert good >= 40

    def test_small_d_rejected(self):
        with pytest.raises(UsageError):
            find_combo(np.eye(2), 2)

    def test_degenerate_gram_rejected(self):
        with pytest.raises(DegeneracyError):
            find_combo(np.zeros((3, 3)), 2)

    def test_rank_deficient_exact_gram_rejected(self):
        # commuting units give an exact S of rank r < C(r+1,2); its m-th
        # eigenvalue is rounding noise of either sign, below d eps lambda_max
        for seed in range(40):
            S = exact_quadratic_moments(commuting_net(2, 4, seed)).S
            with pytest.raises(DegeneracyError):
                find_combo(S, 2, rng_seed=seed)

    def test_eta_floor(self):
        rng = np.random.default_rng(4)
        H = rng.standard_normal((3, 3))
        G = H @ H.T
        w, U = np.linalg.eigh(G)
        # a positive Gram draws the same combination at any eta
        base = find_combo(G, 2, rng_seed=5)
        for eta in (1e-6, 1e-2):
            got = find_combo(G, 2, rng_seed=5, eta=eta)
            assert all(np.array_equal(a, b) for a, b in zip(got, base))
        # smallest eigenvalue -1e-5: d eta = 3e-5 covers it, eta = 0 and a
        # floor of 3e-6 do not
        w[0] = -1e-5
        G = (U * w) @ U.T
        find_combo(G, 2, rng_seed=5, eta=1e-5)
        for eta in (0.0, 1e-6):
            with pytest.raises(DegeneracyError):
                find_combo(G, 2, rng_seed=5, eta=eta)
        # the rounding floor d eps lambda_max holds at any eta: an
        # eigenvalue at -floor counts as zero, one below it is raised
        floor = 3 * np.finfo(float).eps * 4.0
        find_combo(np.diag([4.0, 1.0, -2 * floor]), 2, rng_seed=5, eta=1e-2)
        for eta in (0.0, 1e-2):
            with pytest.raises(DegeneracyError):
                find_combo(np.diag([4.0, 1.0, -floor]), 2, rng_seed=5, eta=eta)

    @pytest.mark.parametrize("kind", ["quadratic", "lowrank"])
    def test_pair_does_not_depend_on_eigenvector_signs(self, monkeypatch, kind):
        if kind == "quadratic":
            r, G = 3, exact_quadratic_moments(smoothed_net(3, 6, 0.5, 0)).S
        else:
            F = paired_outers(smoothed_lr_net(0))
            r, G = 2, np.einsum("aij,bij->ab", F, F)
        want = find_combo(G, r, rng_seed=3)
        real = np.linalg.eigh
        rng = np.random.default_rng(0)

        def flipped(a):
            w, U = real(a)
            return w, U * rng.choice([-1.0, 1.0], U.shape[1])

        monkeypatch.setattr(np.linalg, "eigh", flipped)
        for _ in range(10):
            got = find_combo(G, r, rng_seed=3)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestUpsilon:
    # gauge_fix's upsilon: (min eigengap of Q_lambda, min |entry| of Q_mu in
    # Q_lambda's eigenbasis)
    def test_diagonal_gap(self):
        _, _, (gap, _) = gauge_fix(np.diag([1.0, 2.0])[None], np.array([1.0]), np.array([1.0]))
        assert gap == pytest.approx(1.0, abs=1e-12)

    def test_repeated_eigenvalues(self):
        # a gap just above GAP_TOL is reported; a repeated eigenvalue has none
        units = np.diag([1.0, 1.0 + 1e3 * GAP_TOL])[None]
        _, _, (gap, _) = gauge_fix(units, np.array([1.0]), np.array([1.0]))
        assert gap == pytest.approx(1e3 * GAP_TOL, rel=1e-3)
        with pytest.raises(DegeneracyError):
            gauge_fix(np.eye(2)[None], np.array([1.0]), np.array([1.0]))

    def test_smallest_mu_entry(self):
        units = np.stack([np.diag([1.0, 2.0]), np.array([[0.5, -0.25], [-0.25, 3.0]])])
        _, mu, (_, mu_min) = gauge_fix(units, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert mu_min == pytest.approx(0.25, abs=1e-12)
        assert np.array_equal(mu, [0.0, 1.0])


def canonical_form(net, seed):
    """(the unit array of net's canonical form, upsilon) from the one gauge
    fix a recovery of net's kind runs, with the combination drawn from the
    Gram of the co-rotating stack."""
    if net.kind == "lowrank":
        diag = {}
        cfg = LRConfig(r=net.r, omega=net.omega, rng_seed=seed)
        kind = tensor_ring._Kind(**lowrank._pair_kind(exact_lowrank_pair_moments(net).S, None, cfg))
        out = tensor_ring._gauge_fixed(kind, net, None, cfg, diag)
        return out.components, diag.get("upsilon")
    lam, mu = find_combo(exact_quadratic_moments(net).S, net.r, rng_seed=seed)
    rot, _, upsilon = gauge_fix(net.Q, lam, mu)
    return rotate_network(net, rot).Q, upsilon


@pytest.mark.parametrize("kind, shape", [
    ("quadratic", (2, 6)), ("quadratic", (2, 4)), ("quadratic", (3, 10)),
    ("lowrank", (2, 6, 5)), ("lowrank", (2, 4, 3)), ("lowrank", (3, 10, 3)), ("lowrank", (2, 6, 3)),
])
def test_canonical_form_is_continuous(kind, shape):
    # a rotated copy and the same copy plus 1e-9 noise share one canonical
    # form to 1e-6 wherever the pair is non-degenerate (both upsilon entries
    # >= 1e-3): no eigenvector sign may move the combination.  upsilon is
    # gauge-invariant, and so a property of the seed; few low-rank seeds
    # pass it, hence the 200 of them
    checked = 0
    for seed in range(200):
        if kind == "quadratic":
            net = smoothed_net(*shape, 0.5, seed)
        else:
            r, d, omega = shape
            base = PolyNetwork(kind="lowrank", r=r, d=d, omega=omega, ell=1,
                               components=np.zeros((d, 1, r)))
            net = smooth_componentwise(SmoothingParams(rho=0.5, base=base, rng_seed=seed))
        rng = np.random.default_rng(seed)
        for _ in range(3):
            a = rotate_network(net, random_orthogonal(rng, net.r))
            form_a, upsilon = canonical_form(a, seed)
            if upsilon is None or min(upsilon) < 1e-3:
                break
            checked += 1
            if kind == "quadratic":
                noise = rng.standard_normal(a.Q.shape)
                b = PolyNetwork(kind="quadratic", r=a.r, d=a.d,
                                Q=a.Q + 0.5e-9 * (noise + np.swapaxes(noise, 1, 2)))
            else:
                b = dataclasses.replace(
                    a, components=a.components + 1e-9 * rng.standard_normal(a.components.shape))
            assert np.max(np.abs(canonical_form(b, seed)[0] - form_a)) <= 1e-6
    assert checked >= 50


def fixed_net(net, lam, mu):
    """(net gauge-fixed by gauge_fix on its Q, the rotation)."""
    rot, _, _ = gauge_fix(net.Q, lam, mu)
    return rotate_network(net, rot), rot


class TestGaugeFix:
    def _combo(self, net):
        return find_combo(exact_quadratic_moments(net).S, net.r, rng_seed=0)

    def test_idempotent(self):
        net = smoothed_net(2, 3, 0.5, 2)
        lam, mu = self._combo(net)
        fixed, _ = fixed_net(net, lam, mu)
        fixed2, rot = fixed_net(fixed, lam, mu)
        assert np.max(np.abs(fixed2.Q - fixed.Q)) <= 1e-10
        assert np.max(np.abs(np.abs(rot.V) - np.eye(2))) <= 1e-10

    def test_canonical_form_kills_rotation(self):
        rng = np.random.default_rng(3)
        net = smoothed_net(3, 6, 0.5, 3)
        lam, mu = self._combo(net)
        V = random_orthogonal(rng, 3)
        fixedA, _ = fixed_net(net, lam, mu)
        fixedB, _ = fixed_net(rotate_network(net, V), lam, mu)
        assert np.max(np.abs(fixedA.Q - fixedB.Q)) <= 1e-8

    def test_offdiagonal_example(self):
        Q = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        net = PolyNetwork(kind="quadratic", r=2, d=1, Q=Q)
        fixed, _ = fixed_net(net, np.array([1.0]), np.array([1.0]))
        assert np.allclose(fixed.Q[0], np.diag([-1.0, 1.0]), atol=1e-12)

    def test_zero_eigengap_rejected(self):
        with pytest.raises(DegeneracyError):
            gauge_fix(np.eye(2)[None], np.array([1.0]), np.array([1.0]))


class TestDecompose:
    def test_r1_closed_form(self):
        q = np.array([1.7, -0.4, 0.9])
        Q = q.reshape(3, 1, 1)
        net = PolyNetwork(kind="quadratic", r=1, d=3, Q=Q)
        t = exact_quadratic_moments(net)
        rep = decompose(t.S, t.T, TRConfig(r=1, restarts=5), truth=net)
        # the closed form is q_a = T_aaa / S_aa up to a global sign
        for a in range(3):
            assert abs(abs(rep.network.Q[a, 0, 0]) - abs(t.T[a, a, a] / t.S[a, a])) <= 1e-8
        assert rep.gauge_dist <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_local_recovery(self, seed):
        net = smoothed_net(2, 3, 0.5, seed)
        t = exact_quadratic_moments(net)
        rep = decompose(t.S, t.T, TRConfig(r=2, restarts=20, rng_seed=seed), truth=net)
        assert rep.gauge_dist <= 1e-6
        assert rep.residual <= 1e-6

    def test_pipeline_gauge_invariance(self):
        rng = np.random.default_rng(4)
        net = smoothed_net(2, 3, 0.5, 10)
        V = random_orthogonal(rng, 2)
        tA = exact_quadratic_moments(net)
        tB = exact_quadratic_moments(rotate_network(net, V))
        repA = decompose(tA.S, tA.T, TRConfig(r=2, restarts=20))
        repB = decompose(tB.S, tB.T, TRConfig(r=2, restarts=20))
        mutual, _ = gauge_distance(repA.network, repB.network, AlignmentConfig())
        assert mutual <= 1e-6

    def test_output_symmetric(self):
        net = smoothed_net(2, 3, 0.5, 11)
        t = exact_quadratic_moments(net)
        rep = decompose(t.S, t.T, TRConfig(r=2, restarts=20))
        assert np.allclose(rep.network.Q, np.transpose(rep.network.Q, (0, 2, 1)))

    def test_diagonal_matches_jennrich(self, monkeypatch):
        rng = np.random.default_rng(5)
        vs = rng.standard_normal((2, 3)) + np.array([[2.0], [-2.0]])
        Q = np.stack([np.diag(vs[:, a]) for a in range(3)])
        net = PolyNetwork(kind="quadratic", r=2, d=3, Q=Q)
        t = exact_quadratic_moments(net)
        # commuting units: S has rank r < C(r+1,2), so the one find_combo
        # call fails, and the units are read off spectral_units whitened
        # with the top r eigenpairs of S
        with pytest.raises(DegeneracyError):
            tensor_ring.spectral_units(t.S, t.T, 2)
        calls = record_calls(monkeypatch, "find_combo", "spectral_units", "_fit")
        rep = decompose(t.S, t.T, TRConfig(r=2, restarts=20), truth=net)
        assert calls == ["find_combo", "spectral_units"]
        assert rep.diagnostics["gauge_fixed"] is False
        assert rep.gauge_dist <= 1e-12

    @pytest.mark.parametrize("r,d", [(2, 4), (3, 6)])
    def test_sampled_commuting_units_take_the_closed_form(self, r, d):
        # the Gram of samples of commuting units has rank r: its m-th
        # eigenvalue is at rounding level, below the floor at any eta
        for seed in range(6):
            net = commuting_net(r, d, seed)
            y = sample(net, SeedDistribution(kind="gaussian"), 100_000, rng_seed=seed)
            t = estimate_quadratic_moments(y)
            rep = decompose(t.S, t.T, TRConfig(r=r, rng_seed=seed, eta=3 / math.sqrt(100_000)),
                            truth=net)
            assert rep.diagnostics == {"backend": "local", "gauge_fixed": False}
            assert rep.gauge_dist <= 0.05

    @pytest.mark.parametrize("r,d", [(2, 3), (2, 5), (2, 8), (3, 6), (3, 8)])
    def test_commuting_units_recover_exactly(self, r, d):
        for seed in range(10):
            net = commuting_net(r, d, seed)
            t = exact_quadratic_moments(net)
            rep = decompose(t.S, t.T, TRConfig(r=r, rng_seed=seed), truth=net)
            assert rep.diagnostics == {"backend": "local", "gauge_fixed": False}
            assert rep.gauge_dist <= 1e-12
            with pytest.raises(ConvergenceError, match="no symmetry-breaking"):
                decompose(t.S, t.T, TRConfig(r=r, backend="sos", rng_seed=seed))

    def test_commuting_units_below_m_are_a_usage_error(self):
        t = exact_quadratic_moments(commuting_net(3, 5, 0))
        with pytest.raises(UsageError):
            decompose(t.S, t.T, TRConfig(r=3))

    @pytest.mark.parametrize("seed", range(4))
    def test_dependent_units_fall_back_to_the_unfixed_fit(self, seed):
        # Q_3 = Q_1 + Q_2 and Q_4 = Q_1 - 2 Q_2: S has rank 2 < C(3,2), the
        # units do not commute, so the diagonal closed form misses and the
        # unfixed local fit recovers them
        rng = np.random.default_rng(seed)
        Q1, Q2 = symmetric_gaussian(rng, 2), symmetric_gaussian(rng, 2)
        Q = np.stack([Q1, Q2, Q1 + Q2, Q1 - 2 * Q2])
        net = PolyNetwork(kind="quadratic", r=2, d=4, Q=Q)
        t = exact_quadratic_moments(net)
        rep = decompose(t.S, t.T, TRConfig(r=2, rng_seed=seed), truth=net)
        assert rep.diagnostics["gauge_fixed"] is False
        assert "start" in rep.diagnostics
        assert rep.gauge_dist <= 1e-6
        with pytest.raises(ConvergenceError):
            decompose(t.S, t.T, TRConfig(r=2, backend="sos", rng_seed=seed))

    def test_sos_backend_tiny(self):
        net = smoothed_net(1, 1, 0.5, 12)
        t = exact_quadratic_moments(net)
        rep = decompose(t.S, t.T, TRConfig(r=1, backend="sos"), truth=net)
        assert rep.gauge_dist <= 1e-3
        assert rep.diagnostics["certificate_violation"] <= 1e-7

    def test_failed_recovery_draws_one_combo_and_fits_once(self, monkeypatch):
        # inconsistent table: the recovery fails after one combination and
        # one local fit (one lm call per start: the spectral start, then the
        # two random ones)
        calls = record_calls(monkeypatch, "find_combo", "least_squares")
        with pytest.raises(ConvergenceError):
            decompose(np.eye(3), 5.0 * np.ones((3, 3, 3)), TRConfig(r=2, restarts=2))
        assert calls == ["find_combo"] + ["least_squares"] * 3

    def test_degenerate_gram_fails_sos_before_fitting(self, monkeypatch):
        calls = record_calls(monkeypatch, "find_combo", "least_squares")
        with pytest.raises(ConvergenceError, match="no symmetry-breaking combination"):
            decompose(np.zeros((3, 3)), np.zeros((3, 3, 3)),
                      TRConfig(r=2, backend="sos", restarts=2))
        assert calls == ["find_combo"]

    @pytest.mark.parametrize("case", ["found", "inconsistent"])
    def test_sos_never_solves_cold(self, forbid_solve, case):
        # the first instance is one whose fit from other starts missed, which
        # once sent every combo to a cold solve; the second has no fit at all.
        # sos certifies the fit or fails, and solves no program either way
        if case == "found":
            seed = 1541374982
            net = smoothed_net(2, 3, 1.0, seed)
            t = exact_quadratic_moments(net)
            rep = decompose(t.S, t.T, TRConfig(r=2, backend="sos", rng_seed=seed),
                            truth=net)
            assert rep.gauge_dist <= 1e-6
            assert rep.diagnostics["certificate_violation"] <= 1e-7
            families = rep.diagnostics["certificate_families"]
            assert sorted(families) == ["bands", "caps", "gauge", "left_inverse"]
            assert rep.diagnostics["certificate_violation"] == max(families.values())
        else:
            with pytest.raises(ConvergenceError):
                decompose(np.eye(3), 5.0 * np.ones((3, 3, 3)),
                          TRConfig(r=2, backend="sos", restarts=2))

    @pytest.mark.parametrize("seed", range(3))
    def test_sos_starts_from_the_local_fit(self, monkeypatch, seed):
        real = tensor_ring.least_squares
        net = smoothed_net(2, 3, 1.0, seed)
        t = exact_quadratic_moments(net)
        starts = {}
        for backend in ("local", "sos"):
            seen = starts[backend] = []

            def recording(fun, x0, **kw):
                seen.append(np.array(x0))
                return real(fun, x0, **kw)

            monkeypatch.setattr(tensor_ring, "least_squares", recording)
            decompose(t.S, t.T, TRConfig(r=2, backend=backend, rng_seed=seed))
        assert len(starts["sos"]) == len(starts["local"]) >= 1
        for a, b in zip(starts["sos"], starts["local"]):
            assert np.array_equal(a, b)

    def test_sos_returns_the_local_fit(self, forbid_solve):
        # sos certifies the gauge-fixed fit that local returns, bit for bit
        for seed in range(12):
            t = exact_quadratic_moments(smoothed_net(2, 3, 1.0, seed))
            reps = [decompose(t.S, t.T, TRConfig(r=2, backend=b, rng_seed=seed))
                    for b in ("local", "sos")]
            assert np.array_equal(reps[0].network.Q, reps[1].network.Q)

    def test_noisy_gram_keeps_its_combination(self):
        # d = m = 6: the noise pushes the smallest eigenvalue of S to -7.9e-6,
        # inside find_combo's [-d eta, 0] floor, so the fit is still gauge-fixed
        net = smoothed_net(3, 6, 1.0, 8)
        t = exact_quadratic_moments(net)
        rng = np.random.default_rng(8)
        S = t.S + rng.uniform(-1, 1, t.S.shape) * 1e-4
        T = t.T + symmetrize(rng.uniform(-1, 1, t.T.shape)) * 1e-4
        S = 0.5 * (S + S.T)
        assert -1e-5 < np.linalg.eigvalsh(S)[0] < 0
        rep = decompose(S, T, TRConfig(r=3, rng_seed=8, eta=1e-4), truth=net)
        assert rep.diagnostics["gauge_fixed"] is True
        assert rep.gauge_dist <= 5e-5

    def test_failure_says_why_the_last_combo_failed(self):
        # the one (and so the last) combination's gauge-fixed fit violates
        # the program's caps
        seed = 1859470763
        t = exact_quadratic_moments(smoothed_net(2, 3, 1.0, seed))
        with pytest.raises(ConvergenceError, match="violates non-degeneracy caps"):
            decompose(t.S, t.T, TRConfig(r=2, backend="sos", rng_seed=seed))


@pytest.mark.parametrize("kind, backend", [
    ("quadratic", "local"), ("quadratic", "sos"), ("lowrank", "local"), ("lowrank", "sos"),
])
def test_one_combination_per_recovery(monkeypatch, kind, backend):
    # every recovery path draws one combination with the plain rng_seed and
    # hands it to the one gauge-fixing step with the corner-signed mu
    seeds, combos, fixes = [], [], []
    real_combo = tensor_ring.find_combo
    real_fix = tensor_ring.gauge_fix

    def counting(*args, **kw):
        seeds.append(kw["rng_seed"])
        combos.append(real_combo(*args, **kw))
        return combos[-1]

    def fixing(units, lam, mu):
        out = real_fix(units, lam, mu)
        fixes.append((units, lam, mu, out))
        return out

    monkeypatch.setattr(tensor_ring, "find_combo", counting)
    monkeypatch.setattr(tensor_ring, "gauge_fix", fixing)
    if kind == "quadratic":
        net = smoothed_net(2, 3, 1.0, 1)
        t = exact_quadratic_moments(net)
        rep = decompose(t.S, t.T, TRConfig(r=2, backend=backend, rng_seed=1), truth=net)
    else:
        base = PolyNetwork(kind="lowrank", r=2, d=4, omega=3, ell=1,
                           components=np.zeros((4, 1, 2)))
        net = smooth_componentwise(SmoothingParams(rho=0.5, base=base, rng_seed=9))
        S = exact_lowrank_pair_moments(net).S
        rep = factorize(S, LRConfig(r=2, backend=backend, rng_seed=9), truth=net)
    assert rep.gauge_dist <= 1e-6
    assert rep.diagnostics["gauge_fixed"] is True
    assert seeds == [1 if kind == "quadratic" else 9] and len(fixes) == 1
    units, lam, mu_in, (rot, mu, upsilon) = fixes[0]
    ((lam_drawn, mu_drawn),) = combos
    assert lam is lam_drawn and mu_in is mu_drawn
    assert np.array_equal(np.abs(mu), np.abs(mu_drawn))
    assert rep.diagnostics["upsilon"] == upsilon
    # the fixed stack: lambda-combination diagonal, the mu-combination's
    # first row nonnegative, its corner included
    fixed = rotate_network(PolyNetwork(kind="quadratic", r=2, d=len(units), Q=units), rot)
    Qlam = np.einsum("a,aij->ij", lam, fixed.Q)
    Qmu = np.einsum("a,aij->ij", mu, fixed.Q)
    assert np.max(np.abs(Qlam - np.diag(np.diag(Qlam)))) <= 1e-10
    assert np.all(Qmu[0] >= 0)
    if kind == "quadratic":
        assert np.array_equal(rep.network.Q, fixed.Q)


@pytest.mark.parametrize("kind", ["quadratic", "lowrank"])
def test_sos_refuses_a_fit_it_cannot_gauge_fix(monkeypatch, kind):
    # the one gauge fix fails: local returns the fit unfixed and says so,
    # sos refuses to certify it
    def degenerate(*args, **kw):
        raise DegeneracyError("degenerate")

    fits = []

    def recording(real):
        def fit(*args):
            fits.append(real(*args))
            return fits[-1]
        return fit

    monkeypatch.setattr(tensor_ring, "_fit", recording(tensor_ring._fit))
    if kind == "quadratic":
        monkeypatch.setattr(tensor_ring, "gauge_fix", degenerate)
        t = exact_quadratic_moments(smoothed_net(2, 3, 1.0, 1))

        def recover(backend):
            return decompose(t.S, t.T, TRConfig(r=2, backend=backend, rng_seed=1))
    else:
        monkeypatch.setattr(tensor_ring, "find_combo", degenerate)
        S = exact_lowrank_pair_moments(smoothed_lr_net(9)).S

        def recover(backend):
            return factorize(S, LRConfig(r=2, backend=backend, rng_seed=9))

    rep = recover("local")
    unit_array = rep.network.Q if kind == "quadratic" else rep.network.components
    assert np.array_equal(unit_array, fits[0][0])
    assert rep.diagnostics["gauge_fixed"] is False
    with pytest.raises(ConvergenceError, match="cannot be gauge-fixed"):
        recover("sos")


def exact_tables(kind):
    """The exact tables, {field: array}, of a (2,3) quadratic network or of
    a (2,4,1,3) low-rank one, and the recovery from tables of that kind."""
    if kind == "quadratic":
        t = exact_quadratic_moments(smoothed_net(2, 3, 1.0, 1))
        return {"S": t.S, "T": t.T}, lambda tables, backend="local": decompose(
            tables["S"], tables["T"], TRConfig(r=2, backend=backend, rng_seed=1))
    S = exact_lowrank_pair_moments(smoothed_lr_net(9)).S
    return {"S": S}, lambda tables, backend="local": factorize(
        tables["S"], LRConfig(r=2, backend=backend, rng_seed=9))


@pytest.mark.parametrize("flaw", ["nan", "inf", "shape", "asym"])
@pytest.mark.parametrize("kind", ["quadratic", "lowrank"])
def test_bad_tables_are_usage_errors(monkeypatch, kind, flaw):
    # each table is checked once, where recovery starts, and refused with the
    # field named before any combination or fit
    tables, recover = exact_tables(kind)
    calls = record_calls(monkeypatch, "find_combo", "_fit")
    for field, X in tables.items():
        X = X.copy()
        corner = (0, 1) + (0,) * (X.ndim - 2)
        if flaw == "nan":
            X[corner] = np.nan
        elif flaw == "inf":
            X[corner] = np.inf
        elif flaw == "shape":
            X = X[:-1]
        else:
            X[corner] += 1e-9 * np.max(np.abs(X))
        with pytest.raises(UsageError, match=repr(field)):
            recover({**tables, field: X})
    assert calls == []


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_symmetry_band_is_relative(scale):
    # exact tables of units scaled from 1e-6 to 1e6 are symmetric to rounding
    # of their largest entry and pass; an asymmetry of 1e-9 of the largest
    # entry is refused at any scale
    t = exact_quadratic_moments(smoothed_net(3, 6, 1.0, 0))
    S, T = scale**2 * t.S, scale**3 * t.T
    tensor_ring._check_tables(S, T)
    tensor_ring._check_tables(exact_lowrank_pair_moments(smoothed_lr_net(0)).S * scale, None)
    S[0, 1] += 1e-9 * np.max(np.abs(S))
    with pytest.raises(UsageError, match="'S' is not symmetric"):
        tensor_ring._check_tables(S, T)


# the diagnostics keys of a fitted recovery, for both kinds
FIT_KEYS = {"backend", "start", "spectral_gap", "restarts_used", "fit_stop", "lm_stop",
            "lm_nfev", "gauge_fixed"}


@pytest.mark.parametrize("backend", ["local", "sos"])
def test_both_kinds_report_the_same_diagnostics(monkeypatch, backend):
    keys = {}
    for kind in ("quadratic", "lowrank"):
        tables, recover = exact_tables(kind)
        rep = recover(tables, backend)
        assert rep.diagnostics["gauge_fixed"] is True
        assert rep.diagnostics["start"] == "closed_form" and rep.diagnostics["spectral_gap"] > 0
        keys[kind] = set(rep.diagnostics)
    certificate = {"certificate_violation", "certificate_families"} if backend == "sos" else set()
    assert keys["quadratic"] == keys["lowrank"] == FIT_KEYS | {"upsilon"} | certificate
    if backend == "local":
        # an unfixed local fit has no upsilon
        def degenerate(*args, **kw):
            raise DegeneracyError("degenerate")

        monkeypatch.setattr(tensor_ring, "gauge_fix", degenerate)
        for kind in ("quadratic", "lowrank"):
            tables, recover = exact_tables(kind)
            assert set(recover(tables).diagnostics) == FIT_KEYS


@pytest.mark.parametrize("module, config", [("tensor_ring", "TRConfig"), ("lowrank", "LRConfig")])
def test_every_config_field_is_read(module, config):
    # a field that only its own validation reads sets nothing; the module's
    # own code and the recovery path of tensor_ring both read the config
    mod = importlib.import_module(f"polypush.{module}")
    tree = ast.parse(inspect.getsource(mod))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == config]
    post_init = [n for n in cls.body if getattr(n, "name", None) == "__post_init__"]
    skip = {id(n) for f in post_init for n in ast.walk(f)}
    read = {
        n.attr for t in (tree, ast.parse(inspect.getsource(tensor_ring)))
        for n in ast.walk(t)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id in ("config", "cfg") and id(n) not in skip
    }
    fields = {f.name for f in dataclasses.fields(getattr(mod, config))}
    assert fields - read == set()


class TestSpectralUnits:
    @settings(max_examples=60)
    @given(r=st.integers(1, 4), extra=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_exact_tables_read_off_the_units(self, r, extra, seed):
        d = r * (r + 1) // 2 + extra
        net = smoothed_net(r, d, 1.0, seed)
        t = exact_quadratic_moments(net)
        Q, gap = tensor_ring.spectral_units(t.S, t.T, r, rng_seed=seed)
        assert gap > 0
        got = PolyNetwork(kind="quadratic", r=r, d=d, Q=Q)
        dist, _ = gauge_distance(got, net, AlignmentConfig(rng_seed=seed))
        assert dist <= 1e-8

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_top_r_whitening_reads_off_commuting_units(self, r):
        # with m = r every eigenvector is an idempotent: no pairs to sign
        net = commuting_net(r, r * (r + 1) // 2 + 1, r)
        t = exact_quadratic_moments(net)
        Q, gap = tensor_ring.spectral_units(t.S, t.T, r, rng_seed=r, m=r)
        assert gap > 0
        assert np.array_equal(Q, Q * np.eye(r))
        got = PolyNetwork(kind="quadratic", r=r, d=net.d, Q=Q)
        dist, _ = gauge_distance(got, net, AlignmentConfig(rng_seed=r))
        assert dist <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_5_15_needs_one_start(self, seed):
        net = smoothed_net(5, 15, 1.0, seed)
        t = exact_quadratic_moments(net)
        rep = decompose(t.S, t.T, TRConfig(r=5, rng_seed=seed), truth=net)
        assert rep.diagnostics["restarts_used"] == 1
        assert rep.diagnostics["start"] == "closed_form"
        assert rep.diagnostics["spectral_gap"] > 0
        assert rep.gauge_dist <= 1e-12

    def test_fallback_keeps_the_random_starts(self, monkeypatch):
        # without a closed form, the fit draws exactly the starts of
        # Philox stream 21 in order
        t = exact_quadratic_moments(smoothed_net(2, 3, 1.0, 4))

        def singular(*args, **kw):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(tensor_ring, "spectral_units", singular)
        seen = []
        real = tensor_ring.least_squares

        def recording(fun, x0, **kw):
            seen.append(np.array(x0))
            return real(fun, x0, **kw)

        monkeypatch.setattr(tensor_ring, "least_squares", recording)
        rep = decompose(t.S, t.T, TRConfig(r=2, rng_seed=4, restarts=3))
        assert rep.diagnostics["start"] == "random"
        assert rep.diagnostics["spectral_gap"] is None
        want = list(tensor_ring._random_starts(t.S, 2, 4, 21, 3))
        assert seen and all(np.array_equal(a, b) for a, b in zip(seen, want))


def smoothed_lr_net(seed):
    """A (2,4,1,3) low-rank network, smoothed at rho = 0.5."""
    base = PolyNetwork(kind="lowrank", r=2, d=4, omega=3, ell=1, components=np.zeros((4, 1, 2)))
    return smooth_componentwise(SmoothingParams(rho=0.5, base=base, rng_seed=seed))


def sampled_recovery(kind, seed):
    """(the module whose least_squares fits, the recovery) for a table from
    n = 2e5 samples, as the benchmark's CLI pipeline solves it: a (2,3)
    quadratic network at eta = 1e-3, or a (2,4,1,3) low-rank one at
    eta = 0.1."""
    gaussian = SeedDistribution(kind="gaussian")
    if kind == "quadratic":
        net = smoothed_net(2, 3, 1.0, seed)
        t = estimate_quadratic_moments(sample(net, gaussian, 200_000, rng_seed=seed))
        cfg = TRConfig(r=2, rng_seed=seed, eta=1e-3)
        return tensor_ring, lambda: decompose(t.S, t.T, cfg, truth=net)
    net = smoothed_lr_net(seed)
    S = estimate_pair_moments(sample(net, gaussian, 200_000, rng_seed=seed)).S
    cfg = LRConfig(r=2, rng_seed=seed, eta=0.1)
    return lowrank, lambda: factorize(S, cfg, truth=net)


# sha256 prefixes of exact-table recoveries at eta = 0; eta = 0 fits run
# their starts as they did before the repeat stop came in
EXACT_DIGESTS = {
    ("quadratic", 2, 3, 0): "1d0e2ac3cad7b34a",
    ("quadratic", 2, 3, 1): "22eec37bf18881f0",
    ("quadratic", 2, 3, 2): "e924c40484b3b76e",
    ("lowrank", 2, 4, 0): "72a96f8bc476084f",
    ("lowrank", 2, 4, 1): "4422be5b772800fd",
    ("lowrank", 2, 4, 2): "962da3a58fa9c8ec",
}
# the (3,6) recoveries of seeds 0-2 from the same code, compared bitwise
EXACT_3_6 = Path(__file__).parent / "data" / "exact_3_6_recoveries.json"


class TestRepeatStop:
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("kind", ["quadratic", "lowrank"])
    def test_sampled_table_stops_once_the_minimum_repeats(self, monkeypatch, kind, seed):
        module, recover = sampled_recovery(kind, seed)
        calls = record_calls(monkeypatch, "least_squares", module=module)
        rep = recover()
        assert len(calls) <= 3
        assert rep.diagnostics["fit_stop"] == "repeat"
        assert rep.diagnostics["restarts_used"] == len(calls)
        # a negative tolerance never sees a repeat, so every start runs
        monkeypatch.setattr(tensor_ring, "REPEAT_RTOL", -1.0)
        calls.clear()
        every = recover()
        assert len(calls) == 21 and every.diagnostics["fit_stop"] == "exhausted"
        assert rep.gauge_dist == pytest.approx(every.gauge_dist, rel=1e-4)

    def test_no_repeat_of_an_infinite_best(self):
        # inf <= REPEAT_RTOL * inf: compared with the inf best it starts
        # from, any first start, and the first finite one, would repeat
        def sol(nfev, stop):
            return _lm.LMResult(x=None, fun=None, nfev=nfev, njev=1, stop=stop)

        fits = iter([(None, np.inf, sol(7, "cap")), ("second", 1.0, sol(5, "plateau")),
                     ("third", 1.0, sol(3, "step"))])
        fit, res, best, diag = tensor_ring._best_fit(fits, 1e-9, 1e-3)
        assert (fit, res, best) == ("second", 1.0, 1)
        assert diag == {"restarts_used": 3, "fit_stop": "repeat", "lm_stop": "plateau",
                        "lm_nfev": 15}

    @pytest.mark.parametrize("kind, r, d, seed", sorted(EXACT_DIGESTS))
    def test_exact_tables_recover_as_before(self, kind, r, d, seed):
        if kind == "quadratic":
            t = exact_quadratic_moments(smoothed_net(r, d, 1.0, seed))
            rep = decompose(t.S, t.T, TRConfig(r=r, rng_seed=seed))
            out = rep.network.Q
        else:
            S = exact_lowrank_pair_moments(smoothed_lr_net(seed)).S
            rep = factorize(S, LRConfig(r=r, rng_seed=seed))
            out = rep.network.components
        assert rep.diagnostics["fit_stop"] == "tol"
        # the closed form is within rounding of the table: one polishing step
        assert (rep.diagnostics["lm_stop"], rep.diagnostics["lm_nfev"]) == ("step", 2)
        digest = hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()[:16]
        assert digest == EXACT_DIGESTS[kind, r, d, seed]

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_3_6_tables_recover_as_before(self, seed):
        t = exact_quadratic_moments(smoothed_net(3, 6, 1.0, seed))
        rep = decompose(t.S, t.T, TRConfig(r=3, rng_seed=seed))
        assert rep.diagnostics["fit_stop"] == "tol"
        want = np.array(json.loads(EXACT_3_6.read_text())[str(seed)])
        assert np.array_equal(rep.network.Q, want)


class TestExtendTail:
    def test_exact_head_exact_tail(self):
        net = smoothed_net(2, 10, 0.5, 13)
        S = exact_quadratic_moments(net).S
        tail = extend_tail(S, net.Q[:3], 10)
        assert np.max(np.abs(tail - net.Q[3:])) <= 1e-9

    def test_noop_when_head_is_everything(self):
        net = smoothed_net(2, 4, 0.5, 14)
        S = exact_quadratic_moments(net).S
        tail = extend_tail(S, net.Q, 4)
        assert tail.shape == (0, 2, 2)

    def test_perturbation_scale(self):
        net = smoothed_net(2, 10, 0.5, 15)
        S = exact_quadratic_moments(net).S
        eta = 1e-6
        rng = np.random.default_rng(7)
        noise = eta * rng.uniform(-1, 1, S.shape)
        Sp = S + 0.5 * (noise + noise.T)
        tail = extend_tail(Sp, net.Q[:3], 10)
        m = 3
        pairs = [(i, j) for i in range(2) for j in range(i, 2)]
        X = np.array([[net.Q[a, i, j] * (1.0 if i == j else 2.0) for i, j in pairs]
                      for a in range(3)])
        smin = np.linalg.svd(X, compute_uv=False)[-1]
        bound = eta * net.radius * math.sqrt(3) / smin**2 * 100
        assert np.max(np.abs(tail - net.Q[3:])) <= max(bound, 10 * eta / smin)

    def test_rank_deficient_head(self):
        head = np.zeros((3, 2, 2))
        with pytest.raises(DegeneracyError):
            extend_tail(np.eye(5), head, 5)

    def test_small_head_rejected(self):
        with pytest.raises(UsageError):
            extend_tail(np.eye(5), np.zeros((2, 2, 2)), 5)


class TestVerifyAssumption:
    def test_orthonormal_flattening(self):
        # units spanning the flattening space with orthonormal rows
        Q = np.zeros((3, 2, 2))
        Q[0] = np.diag([1.0, 0.0])
        Q[1] = np.diag([0.0, 1.0])
        s = 1.0 / math.sqrt(2.0)
        Q[2] = np.array([[0.0, s], [s, 0.0]])  # unit Frobenius norm
        net = PolyNetwork(kind="quadratic", r=2, d=3, Q=Q)
        rep = verify_assumption_tr(net)
        assert rep.sigma_m == pytest.approx(1.0, abs=1e-12)

    def test_duplicated_units_warning(self):
        Q = np.stack([np.eye(2), np.eye(2)])
        net = PolyNetwork(kind="quadratic", r=2, d=2, Q=Q)
        rep = verify_assumption_tr(net)
        assert rep.sigma_m == 0.0
        assert rep.warning is not None

    def test_smoothed_flag(self):
        hits = 0
        for seed in range(100):
            net = smoothed_net(3, 12, 0.5, 2000 + seed)
            rep = verify_assumption_tr(net)
            if rep.flag:
                hits += 1
        assert hits >= 90


class TestMomentJacobian:
    @settings(max_examples=40)
    @given(d=st.integers(1, 6), r=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_complex_step(self, d, r, seed):
        # the rows and columns of the local fit: upper-triangle pairs and
        # sorted triples of units, packed upper-triangle entries
        pairs = np.triu_indices(d)
        triples = tuple(np.array(list(
            itertools.combinations_with_replacement(range(d), 3))).T)
        x = np.random.default_rng(seed).standard_normal(d * r * (r + 1) // 2)

        def model(x):
            P, C = trace_moments(tensor_ring._unpack(x, d, r))
            return np.concatenate([P[pairs], C[triples]])

        want = complex_step_jacobian(model, x)
        got = tensor_ring._packed_moment_jacobian(x, d, r, pairs, triples)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("backend", ["local", "sos"])
    def test_every_fit_has_a_jacobian(self, monkeypatch, backend):
        calls = []
        fit = tensor_ring.least_squares

        def checked(fun, x0, **kw):
            calls.append(callable(kw.get("jac")))
            return fit(fun, x0, **kw)

        monkeypatch.setattr(tensor_ring, "least_squares", checked)
        net = smoothed_net(2, 3, 1.0, 0)
        t = exact_quadratic_moments(net)
        decompose(t.S, t.T, TRConfig(r=2, backend=backend, restarts=3))
        assert calls and all(calls)
