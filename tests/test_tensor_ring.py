import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import complex_step_jacobian, random_orthogonal, symmetric_gaussian
from polypush import tensor_ring
from polypush.errors import ConvergenceError, DegeneracyError, UsageError
from polypush.gauge import AlignmentConfig, gauge_distance
from polypush.moments import exact_quadratic_moments, trace_moments
from polypush.networks import PolyNetwork, SmoothingParams, rotate_network, smooth_quadratic
from polypush.tensor_ring import (
    TRConfig,
    decompose,
    extend_tail,
    find_combo,
    gauge_fix,
    jennrich_diagonal,
    validate_nondegeneracy,
    verify_assumption_tr,
)


def smoothed_net(r, d, rho, seed):
    base = PolyNetwork(kind="quadratic", r=r, d=d, Q=np.zeros((d, r, r)))
    return smooth_quadratic(SmoothingParams(rho=rho, base=base, rng_seed=seed))


class TestFindCombo:
    def test_unit_norm(self):
        net = smoothed_net(2, 3, 0.5, 0)
        S = exact_quadratic_moments(net).S
        combo = find_combo(S, 2, rng_seed=0)
        assert np.linalg.norm(combo.lam) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(combo.mu) == pytest.approx(1.0, abs=1e-10)

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
            combo = find_combo(S, 2, rng_seed=trial)
            gap, mu_min = validate_nondegeneracy(net, combo.lam, combo.mu)
            if gap > 1e-4 and mu_min > 1e-4:
                good += 1
        assert good >= 40

    def test_small_d_rejected(self):
        with pytest.raises(UsageError):
            find_combo(np.eye(2), 2)

    def test_degenerate_gram_rejected(self):
        with pytest.raises(DegeneracyError):
            find_combo(np.zeros((3, 3)), 2)


class TestValidateNondegeneracy:
    def test_diagonal_gap(self):
        net = PolyNetwork(
            kind="quadratic", r=2, d=1, Q=np.diag([1.0, 2.0])[None]
        )
        gap, _ = validate_nondegeneracy(net, np.array([1.0]), np.array([1.0]))
        assert gap == pytest.approx(1.0, abs=1e-12)

    def test_repeated_eigenvalues(self):
        net = PolyNetwork(kind="quadratic", r=2, d=1, Q=np.eye(2)[None])
        gap, _ = validate_nondegeneracy(net, np.array([1.0]), np.array([1.0]))
        assert gap == pytest.approx(0.0, abs=1e-12)


class TestGaugeFix:
    def _combo(self, net):
        S = exact_quadratic_moments(net).S
        c = find_combo(S, net.r, rng_seed=0)
        return c.lam, c.mu

    def test_idempotent(self):
        net = smoothed_net(2, 3, 0.5, 2)
        lam, mu = self._combo(net)
        fixed, _ = gauge_fix(net, lam, mu)
        fixed2, rot = gauge_fix(fixed, lam, mu)
        assert np.max(np.abs(fixed2.Q - fixed.Q)) <= 1e-10
        assert np.max(np.abs(np.abs(rot.V) - np.eye(2))) <= 1e-10

    def test_canonical_form_kills_rotation(self):
        rng = np.random.default_rng(3)
        net = smoothed_net(3, 6, 0.5, 3)
        lam, mu = self._combo(net)
        V = random_orthogonal(rng, 3)
        fixedA, _ = gauge_fix(net, lam, mu)
        fixedB, _ = gauge_fix(rotate_network(net, V), lam, mu)
        assert np.max(np.abs(fixedA.Q - fixedB.Q)) <= 1e-8

    def test_offdiagonal_example(self):
        Q = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        net = PolyNetwork(kind="quadratic", r=2, d=1, Q=Q)
        fixed, _ = gauge_fix(net, np.array([1.0]), np.array([1.0]))
        assert np.allclose(fixed.Q[0], np.diag([-1.0, 1.0]), atol=1e-12)

    def test_zero_eigengap_rejected(self):
        net = PolyNetwork(kind="quadratic", r=2, d=1, Q=np.eye(2)[None])
        with pytest.raises(DegeneracyError):
            gauge_fix(net, np.array([1.0]), np.array([1.0]))


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

    def test_diagonal_matches_jennrich(self):
        rng = np.random.default_rng(5)
        vs = rng.standard_normal((2, 3)) + np.array([[2.0], [-2.0]])
        Q = np.stack([np.diag(vs[:, a]) for a in range(3)])
        net = PolyNetwork(kind="quadratic", r=2, d=3, Q=Q)
        t = exact_quadratic_moments(net)
        rep = decompose(t.S, t.T, TRConfig(r=2, restarts=20), truth=net)
        comps = jennrich_diagonal(t.T, rng_seed=0)
        jnet = PolyNetwork(
            kind="quadratic", r=2, d=3,
            Q=np.stack([np.diag([c[a] for c in comps]) for a in range(3)]),
        )
        dist, _ = gauge_distance(rep.network, jnet, AlignmentConfig())
        assert dist <= 1e-8

    def test_sos_backend_tiny(self):
        net = smoothed_net(1, 1, 0.5, 12)
        t = exact_quadratic_moments(net)
        rep = decompose(t.S, t.T, TRConfig(r=1, backend="sos"), truth=net)
        assert rep.gauge_dist <= 1e-3
        assert rep.diagnostics["solver_residual"] <= 1e-6

    def test_combo_retries_reuse_one_fit(self, monkeypatch):
        # inconsistent table: every combo retry fails, but the local fit does
        # not depend on the combination, so it runs once (one lm call per start)
        import polypush.tensor_ring as tr

        calls = []
        real = tr.least_squares

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(tr, "least_squares", counting)
        with pytest.raises(ConvergenceError):
            decompose(np.eye(3), 5.0 * np.ones((3, 3, 3)), TRConfig(r=2, restarts=2))
        assert len(calls) == 2

    @pytest.mark.parametrize("case", ["found", "inconsistent"])
    def test_sos_never_solves_cold(self, monkeypatch, case):
        # the first instance is one whose fit from other starts missed, which
        # sent every combo to a cold solve; the second has no fit at all and
        # must fail before any program is solved
        warm_points = []
        real = tensor_ring.solve

        def recording(prog, cfg=None, warm=None):
            warm_points.append(warm)
            return real(prog, cfg, warm)

        monkeypatch.setattr(tensor_ring, "solve", recording)
        if case == "found":
            seed = 1541374982
            net = smoothed_net(2, 3, 1.0, seed)
            t = exact_quadratic_moments(net)
            rep = decompose(t.S, t.T, TRConfig(r=2, backend="sos", rng_seed=seed),
                            truth=net)
            assert rep.gauge_dist <= 1e-6 and warm_points
        else:
            with pytest.raises(ConvergenceError):
                decompose(np.eye(3), 5.0 * np.ones((3, 3, 3)),
                          TRConfig(r=2, backend="sos", restarts=2))
            assert warm_points == []
        assert all(w is not None for w in warm_points)

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

    def test_failure_says_why_the_last_combo_failed(self):
        # every combination's gauge-fixed fit violates the program's caps
        seed = 1859470763
        t = exact_quadratic_moments(smoothed_net(2, 3, 1.0, seed))
        with pytest.raises(ConvergenceError, match="violates non-degeneracy caps"):
            decompose(t.S, t.T, TRConfig(r=2, backend="sos", rng_seed=seed))


class TestJennrich:
    def test_two_component_example(self):
        T = np.zeros((2, 2, 2))
        T[0, 0, 0] = 1.0
        T[1, 1, 1] = 2.0
        comps = jennrich_diagonal(T, rng_seed=0)
        got = sorted(np.round(np.asarray(c), 8).tolist() for c in comps)
        want = sorted([[1.0, 0.0], [0.0, round(2.0 ** (1.0 / 3.0), 8)]])
        for g, w in zip(got, want):
            assert np.allclose(g, w, atol=1e-8)

    def test_permutation_invariant_set(self):
        rng = np.random.default_rng(6)
        V = rng.standard_normal((2, 3))
        T = sum(np.einsum("i,j,k->ijk", v, v, v) for v in V)
        compsA = jennrich_diagonal(T, rng_seed=0)
        compsB = jennrich_diagonal(T, rng_seed=1)
        setA = sorted(tuple(np.round(c, 8)) for c in compsA)
        setB = sorted(tuple(np.round(c, 8)) for c in compsB)
        assert np.allclose(setA, setB, atol=1e-7)

    def test_rank_one(self):
        v = np.array([1.5, -0.5])
        T = np.einsum("i,j,k->ijk", v, v, v)
        comps = jennrich_diagonal(T, rng_seed=0)
        assert len(comps) == 1
        assert np.allclose(comps[0], v, atol=1e-8) or np.allclose(
            comps[0], -v, atol=1e-8
        )


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
