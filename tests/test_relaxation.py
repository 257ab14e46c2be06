import numpy as np
import pytest

from conftest import symmetric_gaussian
from polypush import relaxation
from polypush.errors import ResourceError, UsageError
from polypush.moments import exact_quadratic_moments, sigma_matrix
from polypush.networks import PolyNetwork
from polypush.relaxation import (
    Infeasible,
    Poly,
    PolynomialProgram,
    Pseudoexpectation,
    SolverConfig,
    VarGroup,
    encode_lowrank,
    encode_tensor_ring,
    pseudo_expect,
    solve,
)
from polypush.tensor_ring import find_combo, gauge_fix


def single_var_program(degree=2):
    return PolynomialProgram(
        nvars=1, names=["x"], groups=[VarGroup((0,), degree, "x")], degree=degree
    )


class TestPoly:
    def test_arithmetic(self):
        x, y = Poly.var(0), Poly.var(1)
        p = (x + 2.0) * (y - 1.0)
        point = np.array([3.0, 5.0])
        assert p.evaluate(point) == pytest.approx((3 + 2) * (5 - 1), abs=1e-12)
        assert p.degree() == 2
        assert p.variables() == {0, 1}

    def test_monomials_sorted(self):
        p = Poly.var(3) * Poly.var(1)
        assert list(p.terms) == [(1, 3)]


class TestSolve:
    def test_dense_cap_counts_bytes(self, monkeypatch):
        # G and its LAPACK copy, n_eq^2 float64 each; the cap is lowered so
        # nothing large is built
        prog = single_var_program(degree=4)
        prog.equalities.append((Poly.var(0) * Poly.var(0) - 1.0, 0))
        lifted = relaxation._Lifted(prog)
        lifted.build_matrices()
        n_eq = lifted.E.shape[0]
        need = 16 * n_eq * n_eq
        monkeypatch.setattr(relaxation, "DENSE_BYTES_CAP", need - 1)
        with pytest.raises(ResourceError):
            solve(prog, SolverConfig())
        monkeypatch.setattr(relaxation, "DENSE_BYTES_CAP", need)
        assert isinstance(solve(prog, SolverConfig()), Pseudoexpectation)

    def test_linear_pin(self):
        prog = single_var_program()
        prog.equalities.append((Poly.var(0) - 0.5, 0))
        pe = solve(prog, SolverConfig())
        assert isinstance(pe, Pseudoexpectation)
        assert pseudo_expect(pe, Poly.var(0)) == pytest.approx(0.5, abs=1e-7)

    def test_square_pin_and_pseudo_cauchy_schwarz(self):
        prog = single_var_program()
        prog.equalities.append((Poly.var(0) * Poly.var(0) - 1.0, 0))
        pe = solve(prog, SolverConfig())
        ex2 = pseudo_expect(pe, Poly.var(0) * Poly.var(0))
        ex = pseudo_expect(pe, Poly.var(0))
        assert ex2 == pytest.approx(1.0, abs=1e-7)
        assert ex**2 <= ex2 + 1e-6

    def test_moment_matrix_invariants(self):
        prog = single_var_program(degree=4)
        prog.equalities.append((Poly.var(0) * Poly.var(0) - 2.0, 0))
        pe = solve(prog, SolverConfig())
        for M, basis in zip(pe.moment_matrices, pe.moment_bases):
            assert np.min(np.linalg.eigvalsh(M)) >= -1e-6
            k = basis.index(())
            assert abs(M[k, k] - 1.0) <= 1e-8
        assert pseudo_expect(pe, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_determinism(self):
        def run():
            prog = single_var_program()
            prog.equalities.append((Poly.var(0) - 0.25, 0))
            prog.inequalities.append((Poly.const(1.0) - Poly.var(0) * Poly.var(0), 0))
            return solve(prog, SolverConfig())

        a, b = run(), run()
        assert a.iterations == b.iterations
        assert a.values == b.values

    def test_infeasible_detection(self):
        prog = single_var_program()
        prog.equalities.append((Poly.var(0) - 1.0, 0))
        prog.equalities.append((Poly.var(0) + 1.0, 0))
        out = solve(prog, SolverConfig(max_iter=20000))
        assert isinstance(out, Infeasible)

    def test_constraint_residuals_small(self):
        prog = single_var_program()
        prog.equalities.append((Poly.var(0) * Poly.var(0) - 0.09, 0))
        prog.inequalities.append((Poly.var(0), 0))
        cfg = SolverConfig()
        pe = solve(prog, cfg)
        for p, _ in prog.equalities:
            assert abs(pseudo_expect(pe, p)) <= 10 * cfg.tol
        for p, _ in prog.inequalities:
            assert pseudo_expect(pe, p) >= -10 * cfg.tol


class TestPseudoExpect:
    def _pe(self):
        prog = single_var_program(degree=4)
        prog.equalities.append((Poly.var(0) - 0.5, 0))
        return solve(prog, SolverConfig())

    def test_constant(self):
        assert pseudo_expect(self._pe(), Poly.const(1.0)) == pytest.approx(1.0, abs=1e-8)

    def test_linearity_exact(self):
        pe = self._pe()
        x = Poly.var(0)
        p = 2.0 * x + 1.0
        q = x * x - 3.0
        assert pseudo_expect(pe, p + q) == pytest.approx(
            pseudo_expect(pe, p) + pseudo_expect(pe, q), abs=1e-12
        )

    def test_square_nonnegativity(self):
        pe = self._pe()
        rng = np.random.default_rng(0)
        x = Poly.var(0)
        for _ in range(100):
            c = rng.standard_normal(3)
            p = c[0] + c[1] * x + c[2] * (x * x)
            assert pseudo_expect(pe, p * p) >= -1e-6

    def test_degree_overflow(self):
        pe = self._pe()
        x = Poly.var(0)
        with pytest.raises(UsageError):
            pseudo_expect(pe, x * x * x * x * x)


class TestEncodeTensorRing:
    def test_r1_d1_hand_count(self):
        prog = encode_tensor_ring(
            1, np.array([[1.0]]), np.ones((1, 1, 1)), np.array([1.0]),
            np.array([1.0]), R=1.1, kappa=0.1, eta=0.0,
        )
        assert prog.nvars == 2  # one Q entry, one L entry
        # equalities: S match, T match, LM = Id
        assert len(prog.equalities) == 3
        # inequalities: Frobenius cap, first-row-of-mu, L norm cap
        assert len(prog.inequalities) == 3
        # symmetry / diagonal / sorted families are vacuous at r = 1
        assert prog.degree == 4

    def test_degree_validation(self):
        with pytest.raises(UsageError):
            encode_tensor_ring(
                1, np.array([[1.0]]), np.ones((1, 1, 1)), np.array([1.0]),
                np.array([1.0]), R=1.0, kappa=0.1, eta=0.0, degree=3,
            )

    def test_ground_truth_feasible(self):
        rng = np.random.default_rng(1)
        r, d = 2, 3
        Q = np.stack([symmetric_gaussian(rng, r) for _ in range(d)])
        net = PolyNetwork(kind="quadratic", r=r, d=d, Q=Q)
        t = exact_quadratic_moments(net)
        combo = find_combo(t.S, r, rng_seed=0)
        lam, mu = combo.lam, combo.mu
        # flip mu so the sign-invariant corner entry of the fixed form is >= 0
        Qlam = np.einsum("a,aij->ij", lam, Q)
        Qmu = np.einsum("a,aij->ij", mu, Q)
        _, V = np.linalg.eigh(Qlam)
        if (V.T @ Qmu @ V)[0, 0] < 0:
            mu = -mu
        fixed, _ = gauge_fix(net, lam, mu)
        prog = encode_tensor_ring(
            r, t.S, t.T, lam, mu, R=net.radius * 1.01, kappa=1e-3, eta=0.0
        )
        m = r * (r + 1) // 2
        pairs = [(i, j) for i in range(r) for j in range(i, r)]
        point = np.zeros(prog.nvars)
        M = np.zeros((d, m))
        for a in range(d):
            for u, (i, j) in enumerate(pairs):
                point[prog.meta["qvar"][(a, i, j)]] = fixed.Q[a, i, j]
                M[a, u] = fixed.Q[a, i, j]
        L = np.linalg.pinv(M)
        for k in range(m):
            for a in range(d):
                point[prog.meta["lvar"][(k, a)]] = L[k, a]
        assert prog.check_point(point, tol=1e-9) <= 1e-8


class TestEncodeLowrank:
    def test_r1_structure(self):
        sig = sigma_matrix(1, 3)
        prog = encode_lowrank(
            1, 3, 1, np.array([[15.0]]), sig.Sigma_sym, sig.D,
            R=1.5, kappa=0.1, eta=0.0,
        )
        # the low-rank family at r=1, ell=1 reads T = v^3
        cubic = [p for p, _ in prog.equalities if p.degree() == 3]
        assert len(cubic) == 1
        terms = cubic[0].terms
        tv = prog.meta["tvar"][(0, 0)]
        vv = prog.meta["vvar"][(0, 0, 0)]
        assert terms[(tv,)] == -1.0
        assert terms[(vv, vv, vv)] == 1.0

    def test_sigma_half_is_psd_root(self):
        sig = sigma_matrix(2, 3)
        w, U = np.linalg.eigh(sig.Sigma_sym)
        half = (U * np.sqrt(np.clip(w, 0, None))) @ U.T
        assert np.max(np.abs(half @ half - sig.Sigma_sym)) <= 1e-10

    def test_degree_validation(self):
        sig = sigma_matrix(1, 3)
        with pytest.raises(UsageError):
            encode_lowrank(
                1, 3, 1, np.array([[15.0]]), sig.Sigma_sym, sig.D,
                R=1.5, kappa=0.1, eta=0.0, degree=4,
            )
        with pytest.raises(UsageError):
            encode_lowrank(
                1, 2, 1, np.array([[1.0]]), np.eye(1), np.eye(1),
                R=1.0, kappa=0.1, eta=0.0,
            )

    def test_ground_truth_feasible(self):
        from polypush.lowrank import _warm_point_lr, exact_lowrank_pair_moments

        rng = np.random.default_rng(2)
        r, d, omega, ell = 2, 4, 3, 1
        comps = rng.standard_normal((d, ell, r))
        comps /= np.linalg.norm(comps, axis=2, keepdims=True)
        net = PolyNetwork(
            kind="lowrank", r=r, d=d, omega=omega, ell=ell, components=comps
        )
        S = exact_lowrank_pair_moments(net).S
        sig = sigma_matrix(r, omega)
        prog = encode_lowrank(
            r, omega, ell, S, sig.Sigma_sym, sig.D,
            R=net.radius * 1.01, kappa=1e-3, eta=0.0,
        )
        point = _warm_point_lr(prog, net, 0.0)
        assert point is not None
        assert prog.check_point(point, tol=1e-9) <= 1e-7

    def test_tensor_ring_r1_closed_form(self):
        # S = q^2, T = q^3 with q = 1: the pseudoexpectation pins Q to 1
        prog = encode_tensor_ring(
            1, np.array([[1.0]]), np.ones((1, 1, 1)), np.array([1.0]),
            np.array([1.0]), R=1.1, kappa=0.1, eta=0.0,
        )
        pe = solve(prog, SolverConfig())
        assert isinstance(pe, Pseudoexpectation)
        qv = prog.meta["qvar"][(0, 0, 0)]
        assert pseudo_expect(pe, Poly.var(qv)) == pytest.approx(1.0, abs=1e-3)


class TestWarmPoint:
    """The backends' warm points: kind-specific packing, shared completion by
    the left inverses and the feasibility gate."""

    def _quadratic(self, radius_factor):
        from polypush.tensor_ring import _warm_point, corner_signed_mu

        rng = np.random.default_rng(1)
        r, d = 2, 3
        Q = np.stack([symmetric_gaussian(rng, r) for _ in range(d)])
        net = PolyNetwork(kind="quadratic", r=r, d=d, Q=Q)
        t = exact_quadratic_moments(net)
        combo = find_combo(t.S, r, rng_seed=0)
        mu = corner_signed_mu(Q, combo.lam, combo.mu)
        prog = encode_tensor_ring(
            r, t.S, t.T, combo.lam, mu, R=net.radius * radius_factor,
            kappa=1e-3, eta=0.0,
        )
        fixed, _ = gauge_fix(net, combo.lam, mu)
        return prog, _warm_point(prog, fixed, 0.0, 1.0)

    def _lowrank(self, radius_factor):
        from polypush.lowrank import _warm_point_lr, exact_lowrank_pair_moments
        from polypush.networks import paired_outers, rotate_network
        from polypush.tensor_ring import corner_signed_mu

        rng = np.random.default_rng(2)
        r, d, omega, ell = 2, 4, 3, 1
        comps = rng.standard_normal((d, ell, r))
        comps /= np.linalg.norm(comps, axis=2, keepdims=True)
        net = PolyNetwork(
            kind="lowrank", r=r, d=d, omega=omega, ell=ell, components=comps
        )
        S = exact_lowrank_pair_moments(net).S
        sig = sigma_matrix(r, omega)
        # the sos program: gauge families on F_a = f_a f_a^T, and the
        # truth rotated into that gauge
        F = paired_outers(net)
        combo = find_combo(np.einsum("aij,bij->ab", F, F), r, rng_seed=0)
        mu = corner_signed_mu(F, combo.lam, combo.mu)
        _, rot = gauge_fix(PolyNetwork(kind="quadratic", r=r, d=d, Q=F), combo.lam, mu)
        prog = encode_lowrank(
            r, omega, ell, S, sig.Sigma_sym, sig.D, R=net.radius * radius_factor,
            kappa=1e-3, eta=0.0, lam_mu=(combo.lam, mu),
        )
        return prog, _warm_point_lr(prog, rotate_network(net, rot), 0.0)

    @pytest.mark.parametrize("kind", ["quadratic", "lowrank"])
    def test_gauge_fixed_truth_is_feasible(self, kind):
        prog, point = getattr(self, "_" + kind)(1.01)
        assert point is not None
        # the program's equalities include L M = Id
        assert prog.check_point(point, tol=1e-9) <= 1e-7

    @pytest.mark.parametrize("kind", ["quadratic", "lowrank"])
    def test_radius_below_network_gives_none(self, kind):
        _, point = getattr(self, "_" + kind)(0.9)
        assert point is None
