import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    certify_oracle,
    check_point,
    oracle_violation,
    sigma_matrix,
    symmetric_gaussian,
)
from polypush import lowrank, relaxation, tensor_ring
from polypush.errors import ConvergenceError, ResourceError, UsageError
from polypush.lowrank import LRConfig, exact_lowrank_pair_moments
from polypush.moments import (
    estimate_pair_moments,
    estimate_quadratic_moments,
    exact_quadratic_moments,
)
from polypush.networks import (
    PolyNetwork,
    SeedDistribution,
    SmoothingParams,
    gauge_stack,
    rotate_network,
    sample,
    smooth_componentwise,
    smooth_quadratic,
)
from polypush.relaxation import (
    Infeasible,
    Poly,
    PolynomialProgram,
    Pseudoexpectation,
    VarGroup,
    encode_lowrank,
    encode_tensor_ring,
    gate_certificate,
    pseudo_expect,
    solve,
)
from polypush.tensor_ring import find_combo, gauge_fix
from polypush.tensors import sorted_entries


def lowrank_flattening(prog, net):
    """The (d, m) sorted-index flattening of a low-rank network's units."""
    return np.array([[T[t] for t in prog.meta["sidx"]] for T in net.unit_tensors()])


def single_var_program(degree=2):
    return PolynomialProgram(nvars=1, groups=[VarGroup((0,), degree)])


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
        n_eq = lifted.E.shape[0]
        need = 16 * n_eq * n_eq
        monkeypatch.setattr(relaxation, "DENSE_BYTES_CAP", need - 1)
        with pytest.raises(ResourceError):
            solve(prog)
        monkeypatch.setattr(relaxation, "DENSE_BYTES_CAP", need)
        assert isinstance(solve(prog), Pseudoexpectation)

    def test_linear_pin(self):
        prog = single_var_program()
        prog.equalities.append((Poly.var(0) - 0.5, 0))
        pe = solve(prog)
        assert isinstance(pe, Pseudoexpectation)
        assert pseudo_expect(pe, Poly.var(0)) == pytest.approx(0.5, abs=1e-7)

    def test_square_pin_and_pseudo_cauchy_schwarz(self):
        prog = single_var_program()
        prog.equalities.append((Poly.var(0) * Poly.var(0) - 1.0, 0))
        pe = solve(prog)
        ex2 = pseudo_expect(pe, Poly.var(0) * Poly.var(0))
        ex = pseudo_expect(pe, Poly.var(0))
        assert ex2 == pytest.approx(1.0, abs=1e-7)
        assert ex**2 <= ex2 + 1e-6

    def test_moment_matrix_invariants(self):
        # each group's moment matrix, rebuilt from the values over its
        # monomial basis, is PSD with a unit constant entry
        prog = single_var_program(degree=4)
        prog.equalities.append((Poly.var(0) * Poly.var(0) - 2.0, 0))
        pe = solve(prog)
        for grp in prog.groups:
            basis = [m for k in range(grp.degree // 2 + 1)
                     for m in itertools.combinations_with_replacement(grp.variables, k)]
            M = np.array([[pe.values[tuple(sorted(u + v))] for v in basis] for u in basis])
            assert np.min(np.linalg.eigvalsh(M)) >= -1e-6
            assert abs(M[0, 0] - 1.0) <= 1e-8
            assert M[0, 2] == pytest.approx(2.0, abs=1e-6)
        assert pseudo_expect(pe, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_determinism(self):
        def run():
            prog = single_var_program()
            prog.equalities.append((Poly.var(0) - 0.25, 0))
            prog.inequalities.append((Poly.const(1.0) - Poly.var(0) * Poly.var(0), 0))
            return solve(prog)

        a, b = run(), run()
        assert a.iterations == b.iterations
        assert a.values == b.values

    def test_infeasible_detection(self):
        prog = single_var_program()
        prog.equalities.append((Poly.var(0) - 1.0, 0))
        prog.equalities.append((Poly.var(0) + 1.0, 0))
        out = solve(prog)
        assert isinstance(out, Infeasible)

    def test_constraint_residuals_small(self):
        prog = single_var_program()
        prog.equalities.append((Poly.var(0) * Poly.var(0) - 0.09, 0))
        prog.inequalities.append((Poly.var(0), 0))
        pe = solve(prog)
        for p, _ in prog.equalities:
            assert abs(pseudo_expect(pe, p)) <= 10 * relaxation.SOLVER_TOL
        for p, _ in prog.inequalities:
            assert pseudo_expect(pe, p) >= -10 * relaxation.SOLVER_TOL


def graded_lex(variables, max_deg):
    return [m for k in range(max_deg + 1)
            for m in itertools.combinations_with_replacement(variables, k)]


def monomial_value(m, x):
    return math.prod(x[i] for i in m)


def scaled_svec(M):
    iu = np.triu_indices(M.shape[0])
    return M[iu] * np.where(iu[0] == iu[1], 1.0, math.sqrt(2.0))


@st.composite
def small_programs(draw):
    """1-3 variables in one group of degree 2 or 4, an optional degree-2
    group over a prefix of them, and random equalities and inequalities."""
    nvars = draw(st.integers(1, 3))
    degree = draw(st.sampled_from([2, 4]))
    variables = tuple(range(nvars))
    groups = [VarGroup(variables, degree)]
    if draw(st.booleans()):
        groups.append(VarGroup(variables[:draw(st.integers(1, nvars))], 2))
    prog = PolynomialProgram(nvars=nvars, groups=groups)
    coef = st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-3)
    for family in (prog.equalities, prog.inequalities):
        for _ in range(draw(st.integers(0, 3))):
            g = draw(st.integers(0, len(groups) - 1))
            monos = graded_lex(groups[g].variables, groups[g].degree)
            chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4,
                                   unique=True))
            family.append((Poly({m: draw(coef) for m in chosen}), g))
    x = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=nvars, max_size=nvars)))
    return prog, x


class TestLift:
    """The one-pass lift against a direct evaluation at a point."""

    @settings(max_examples=80)
    @given(case=small_programs())
    def test_matches_direct_evaluation(self, case):
        prog, x = case
        lifted = relaxation._Lifted(prog)
        # the numbering of a full u x v sweep, first touch first
        ref: dict = {(): 0}

        def touch(*parts):
            ref.setdefault(tuple(sorted(sum(parts, ()))), len(ref))

        bases = [graded_lex(g.variables, g.degree // 2) for g in prog.groups]
        for basis in bases:
            for u in basis:
                for v in basis:
                    touch(u, v)
        for p, g in prog.equalities:
            grp = prog.groups[g]
            for q in graded_lex(grp.variables, grp.degree - p.degree()):
                for m in p.terms:
                    touch(m, q)
        for p, g in prog.inequalities:
            grp = prog.groups[g]
            basis = graded_lex(grp.variables, (grp.degree - p.degree()) // 2)
            for u in basis:
                for v in basis:
                    for m in p.terms:
                        touch(u, v, m)
        assert list(lifted.mono_index.items()) == list(ref.items())

        y = np.array([monomial_value(m, x) for m in ref])
        blocks = [(basis, 1.0) for basis in bases] + [
            (graded_lex(prog.groups[g].variables,
                        (prog.groups[g].degree - p.degree()) // 2), p.evaluate(x))
            for p, g in prog.inequalities
        ]
        want_X = np.concatenate([
            scaled_svec(weight * np.array([[monomial_value(u + v, x) for v in basis]
                                           for u in basis]))
            for basis, weight in blocks
        ])
        np.testing.assert_allclose(lifted.A @ y, want_X, rtol=1e-12, atol=1e-10)

        want_E = [1.0] + [
            p.evaluate(x) * monomial_value(q, x)
            for p, g in prog.equalities
            for q in graded_lex(prog.groups[g].variables, prog.groups[g].degree - p.degree())
        ]
        np.testing.assert_allclose(lifted.E @ y, want_E, rtol=1e-12, atol=1e-10)
        np.testing.assert_array_equal(lifted.f, [1.0] + [0.0] * (len(want_E) - 1))


def project_one(v, s):
    """Reference PSD-cone projection of one scaled svec."""
    if s == 1:
        return np.maximum(v, 0.0)
    iu = np.triu_indices(s)
    off = iu[0] != iu[1]
    M = np.zeros((s, s))
    M[iu] = v
    M[iu[0][off], iu[1][off]] /= math.sqrt(2.0)
    M = M + np.triu(M, 1).T
    w, U = np.linalg.eigh(M)
    P = (U * np.maximum(w, 0.0)) @ U.T
    out = P[iu]
    out[off] *= math.sqrt(2.0)
    return out


class TestConePlan:
    @settings(max_examples=40)
    @given(sides=st.lists(st.integers(1, 6), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_batched_projection_is_per_block_projection(self, sides, seed):
        slices, off = [], 0
        for s in sides:
            slices.append((off, s))
            off += s * (s + 1) // 2
        v = np.random.default_rng(seed).standard_normal(off)
        out = np.full(off, np.nan)
        relaxation._project_cones(v, relaxation._cone_plan(slices), out)
        want = np.concatenate([project_one(v[o:o + s * (s + 1) // 2], s)
                               for o, s in slices])
        np.testing.assert_array_equal(out, want)

    def test_one_eigh_per_side_and_iteration(self, monkeypatch):
        # the cold r = 1, d = 1 tensor-ring program: blocks of sides 3, 3,
        # 2, 2 and 1
        prog = encode_tensor_ring(
            1, np.array([[1.0]]), np.ones((1, 1, 1)), np.array([1.0]),
            np.array([1.0]), R=1.1, kappa=0.1, eta=0.0,
        )
        sides = {s for _, s in relaxation._Lifted(prog).block_slices if s > 1}
        calls = []
        eigh = np.linalg.eigh

        def counted(M):
            calls.append(M.shape)
            return eigh(M)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        pe = solve(prog)
        assert pe.iterations == 874
        assert len(calls) == 874 * len(sides)


class TestPseudoExpect:
    def _pe(self):
        prog = single_var_program(degree=4)
        prog.equalities.append((Poly.var(0) - 0.5, 0))
        return solve(prog)

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
        assert [g.degree for g in prog.groups] == [4, 2]

    def test_ground_truth_feasible(self):
        rng = np.random.default_rng(1)
        r, d = 2, 3
        Q = np.stack([symmetric_gaussian(rng, r) for _ in range(d)])
        net = PolyNetwork(kind="quadratic", r=r, d=d, Q=Q)
        t = exact_quadratic_moments(net)
        lam, mu = find_combo(t.S, r, rng_seed=0)
        # mu corner-signed: the sign-invariant corner entry of the fixed
        # form is >= 0
        rot, mu, _ = gauge_fix(net.Q, lam, mu)
        fixed = rotate_network(net, rot)
        Qmu = np.einsum("a,aij->ij", mu, fixed.Q)
        assert Qmu[0, 0] >= 0 and np.all(Qmu[0] >= 0)
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
                point[prog.meta["L"][k, a]] = L[k, a]
        assert check_point(prog, point) <= 1e-8


class TestEncodeLowrank:
    def test_r1_structure(self):
        prog = encode_lowrank(
            1, 3, 1, np.array([[15.0]]), R=1.5, kappa=0.1, eta=0.0,
        )
        # the low-rank family at r=1, ell=1 reads T = v^3
        cubic = [p for p, _ in prog.equalities if p.degree() == 3]
        assert len(cubic) == 1
        terms = cubic[0].terms
        tv = prog.meta["units"][0, 0]
        vv = prog.meta["components"][0, 0, 0]
        assert terms[(tv,)] == -1.0
        assert terms[(vv, vv, vv)] == 1.0

    def test_sigma_half_is_psd_root(self):
        sig = sigma_matrix(2, 3)
        w, U = np.linalg.eigh(sig.Sigma_sym)
        half = (U * np.sqrt(np.clip(w, 0, None))) @ U.T
        assert np.max(np.abs(half @ half - sig.Sigma_sym)) <= 1e-10

    def test_even_omega_rejected(self):
        with pytest.raises(UsageError):
            encode_lowrank(
                1, 2, 1, np.array([[1.0]]), R=1.0, kappa=0.1, eta=0.0,
            )

    def test_ground_truth_feasible(self):
        rng = np.random.default_rng(2)
        r, d, omega, ell = 2, 4, 3, 1
        comps = rng.standard_normal((d, ell, r))
        comps /= np.linalg.norm(comps, axis=2, keepdims=True)
        net = PolyNetwork(
            kind="lowrank", r=r, d=d, omega=omega, ell=ell, components=comps
        )
        S = exact_lowrank_pair_moments(net).S
        prog = encode_lowrank(
            r, omega, ell, S, R=net.radius * 1.01, kappa=1e-3, eta=0.0,
        )
        assert certify_oracle(prog, lowrank_flattening(prog, net), net.components) <= 1e-7

    def test_tensor_ring_r1_closed_form(self):
        # S = q^2, T = q^3 with q = 1: the pseudoexpectation pins Q to 1
        prog = encode_tensor_ring(
            1, np.array([[1.0]]), np.ones((1, 1, 1)), np.array([1.0]),
            np.array([1.0]), R=1.1, kappa=0.1, eta=0.0,
        )
        pe = solve(prog)
        assert isinstance(pe, Pseudoexpectation)
        qv = prog.meta["qvar"][(0, 0, 0)]
        assert pseudo_expect(pe, Poly.var(qv)) == pytest.approx(1.0, abs=1e-3)


# (r, d) tensor-ring and (r, d, ell, omega) low-rank shapes of the encoder tests
LAYOUT_DIMS = [(1, 1), (2, 3), (3, 6), (2, 5), (1, 3, 1, 3), (2, 4, 1, 3), (2, 6, 2, 3), (2, 6, 1, 5)]


# the cells of the closed form's oracle sweep: (r, d) of the tensor-ring
# program and (r, d, ell, omega) of the low-rank one
ORACLE_CELLS = [(2, 3), (2, 4), (3, 6), (3, 10),
                (1, 3, 1, 3), (2, 4, 1, 3), (2, 12, 1, 3), (2, 10, 1, 5), (2, 6, 2, 3)]
# samples behind a sampled table of the sweep
ORACLE_N = 20_000


def oracle_instance(dims, sampled, seed):
    """(network, table, eta) of an oracle-sweep cell: a smoothed network
    (rho 1 quadratic, 0.5 low rank) with its exact table at eta = 0, or a
    table estimated from ORACLE_N samples at eta = 3 / sqrt(ORACLE_N)."""
    r, d = dims[:2]
    if len(dims) == 2:
        base = PolyNetwork(kind="quadratic", r=r, d=d, Q=np.zeros((d, r, r)))
        net = smooth_quadratic(SmoothingParams(rho=1.0, base=base, rng_seed=seed))
        exact, estimate = exact_quadratic_moments, estimate_quadratic_moments
    else:
        ell, omega = dims[2:]
        base = PolyNetwork(kind="lowrank", r=r, d=d, omega=omega, ell=ell,
                           components=np.zeros((d, ell, r)))
        net = smooth_componentwise(SmoothingParams(rho=0.5, base=base, rng_seed=seed))
        exact, estimate = exact_lowrank_pair_moments, estimate_pair_moments
    if not sampled:
        return net, exact(net), 0.0
    eta = 3 / math.sqrt(ORACLE_N)
    z = sample(net, SeedDistribution(kind="gaussian"), ORACLE_N, rng_seed=seed)
    return net, estimate(z), eta


def certificate_call(net, table, rng_seed, eta):
    """The certificate step of the recovery backends run on the canonical
    form of ``net``: the network gauge-fixed with the (lambda, mu) that
    find_combo draws from ``table.S`` (quadratic) or from the Gram of its
    F_a (low rank), then tensor_ring._certify or lowrank._certify at table
    accuracy ``eta``, as the ``sos`` backends run it on a fit.  Returns
    (the step's violation, or its ConvergenceError; the (args, kwargs) of
    its one call of the closed form)."""
    units = gauge_stack(net)
    if net.kind == "quadratic":
        lam, mu = find_combo(table.S, net.r, rng_seed=rng_seed, eta=eta)
    else:
        lam, mu = find_combo(np.einsum("aij,bij->ab", units, units), net.r, rng_seed=rng_seed)
    rot, mu, _ = gauge_fix(units, lam, mu)
    fixed = rotate_network(net, rot)
    if net.kind == "quadratic":
        module, name = tensor_ring, "tensor_ring_certificate"
        step = lambda: tensor_ring._certify(table.S, table.T, fixed.Q, lam, mu, eta)  # noqa: E731
    else:
        module, name = lowrank, "lowrank_certificate"
        cfg = LRConfig(r=net.r, omega=net.omega, ell=net.ell, backend="sos", eta=eta)
        step = lambda: lowrank._certify(table.S, fixed, lam, mu, cfg)  # noqa: E731
    calls = []

    def recording(*args, **kw):
        calls.append((args, kw))
        return getattr(relaxation, name)(*args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, recording)
        out = verdict(step)
    (call,) = calls
    return (out if isinstance(out, ConvergenceError) else out[0]), call


def closed_form(args, kw):
    """The closed-form families at a recorded call's arguments: (M, r, S, T)
    for the tensor-ring program, (M, components, r, omega, S) for the
    low-rank one, and lam, mu, R, kappa, eta by keyword."""
    if len(args) == 5:
        return relaxation.lowrank_certificate(*args, **kw)
    return relaxation.tensor_ring_certificate(*args, **kw)


def oracle_point(args, kw):
    """(program, M, components) of a recorded call of the closed form: the
    program its encoder states with the same arguments, and the point."""
    if len(args) == 4:
        M, *rest = args
        return encode_tensor_ring(*rest, **kw), M, None
    M, comps, r, omega, S = args
    kw = dict(kw)
    lam_mu = (kw.pop("lam"), kw.pop("mu"))
    return encode_lowrank(r, omega, comps.shape[1], S, lam_mu=lam_mu, **kw), M, comps


def assert_matches_oracle(args, kw, closed):
    """``closed``, the closed form's verdict at a recorded call (its worst
    violation, or its ConvergenceError), is the encoded program's
    (conftest.certify_oracle), and the worst violations agree to 1e-12
    relative whether or not the gate passes."""
    program = oracle_point(args, kw)
    want = verdict(lambda: certify_oracle(*program))
    refused = isinstance(want, ConvergenceError)
    assert isinstance(closed, ConvergenceError) == refused, (closed, want)
    if refused:
        assert str(closed) == str(want)
    violation = oracle_violation(*program)
    assert abs(max(closed_form(args, kw).values()) - violation) <= 1e-12 * max(1.0, violation)


def verdict(run):
    """What ``run`` returns, or the ConvergenceError it raises."""
    try:
        return run()
    except ConvergenceError as exc:
        return exc


class TestCertify:
    """The closed-form certificates of both programs, pinned against the
    encoded programs (conftest.certify_oracle), and their gate."""

    def _quadratic(self, radius_factor, r=2, d=3, seed=1):
        """(args, kwargs) of tensor_ring_certificate at a random network's
        canonical form, with R = radius_factor times its radius."""
        rng = np.random.default_rng(seed)
        Q = np.stack([symmetric_gaussian(rng, r) for _ in range(d)])
        net = PolyNetwork(kind="quadratic", r=r, d=d, Q=Q)
        t = exact_quadratic_moments(net)
        lam, mu = find_combo(t.S, r, rng_seed=0)
        rot, mu, _ = gauge_fix(net.Q, lam, mu)
        fixed = rotate_network(net, rot)
        i, j = np.triu_indices(r)
        return ((fixed.Q[:, i, j], r, t.S, t.T),
                {"lam": lam, "mu": mu, "R": net.radius * radius_factor, "kappa": 1e-3,
                 "eta": 0.0})

    def _lowrank(self, radius_factor, r=2, d=4, ell=1, omega=3, seed=2):
        """(args, kwargs) of lowrank_certificate at a random network's
        canonical form on its F_a, with R = radius_factor times its
        radius."""
        rng = np.random.default_rng(seed)
        comps = rng.standard_normal((d, ell, r))
        comps /= np.linalg.norm(comps, axis=2, keepdims=True)
        net = PolyNetwork(
            kind="lowrank", r=r, d=d, omega=omega, ell=ell, components=comps
        )
        S = exact_lowrank_pair_moments(net).S
        F = gauge_stack(net)
        lam, mu = find_combo(np.einsum("aij,bij->ab", F, F), r, rng_seed=0)
        rot, mu, _ = gauge_fix(F, lam, mu)
        fixed = rotate_network(net, rot)
        return ((sorted_entries(fixed.unit_tensors(), omega), fixed.components, r, omega, S),
                {"R": net.radius * radius_factor, "kappa": 1e-3, "eta": 0.0,
                 "lam": lam, "mu": mu})

    @pytest.mark.parametrize("kind, dims, seed", [
        (kind, dims, seed)
        for kind, dims in [("quadratic", (2, 3)), ("quadratic", (3, 6)), ("lowrank", (1, 3, 1, 3)),
                           ("lowrank", (2, 4, 1, 3)), ("lowrank", (2, 6, 1, 5))]
        for seed in range(3)
    ], ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v))
    def test_gauge_fixed_truth_is_feasible(self, kind, dims, seed):
        # dims are (r, d) or (r, d, ell, omega); the gauge families of both
        # programs hold at gauge_fix's canonical form of the truth, and the
        # point completed by pinv(M) (and pinv(M B)) meets L M = Id
        args, kw = getattr(self, "_" + kind)(1.01, *dims, seed=seed)
        closed = gate_certificate(closed_form(args, kw), kw["eta"])
        assert closed <= 1e-7
        assert_matches_oracle(args, kw, closed)

    @pytest.mark.parametrize("kind", ["quadratic", "lowrank"])
    def test_radius_below_network_raises(self, kind):
        args, kw = getattr(self, "_" + kind)(0.9)
        families = closed_form(args, kw)
        with pytest.raises(ConvergenceError) as err:
            gate_certificate(families, kw["eta"])
        assert str(err.value) == "instance violates non-degeneracy caps of the relaxation"
        assert max(families, key=families.get) == "caps"
        assert_matches_oracle(args, kw, err.value)

    @pytest.mark.parametrize("kind, change, family", [
        (kind, change, family) for kind in ("quadratic", "lowrank")
        for change, family in [("shift_S", "bands"), ("shrink_R", "caps"),
                               ("shift_component", "structure"),
                               ("rank_deficient_M", "left_inverse"),
                               ("shift_lambda", "gauge"), ("negate_mu", "gauge")]
        if kind == "lowrank" or family != "structure"
    ])
    def test_each_family_trips_on_its_own(self, kind, change, family):
        # one change at the feasible canonical form breaks one family: a
        # shifted S entry the bands, a shrunk R the caps, a shifted
        # component entry the low-rank structure, M rank-deficient to 1e-8
        # the left inverse, and a shifted lambda (an off-diagonal entry of
        # Q_lambda or F_lambda) or a negated mu (the first row of Q_mu or
        # F_mu) the gauge families
        args, kw = getattr(self, "_" + kind)(1.01)
        args, kw = list(args), dict(kw)
        if change == "shift_S":
            S_at = 2 if kind == "quadratic" else 4
            args[S_at] = args[S_at].copy()
            args[S_at][0, 1] += 1e-3
        elif change == "shrink_R":
            kw["R"] *= 0.9
        elif change == "shift_component":
            args[1] = args[1].copy()
            args[1][0, 0, 0] += 1e-3
        elif change == "rank_deficient_M":
            U, sv, Vt = np.linalg.svd(args[0], full_matrices=False)
            sv[-1] = 1e-8 * sv[0]
            args[0] = (U * sv) @ Vt
        elif change == "shift_lambda":
            kw["lam"] = kw["lam"] + np.eye(len(kw["lam"]))[0] * 1e-3
        else:
            kw["mu"] = -kw["mu"]
        families = closed_form(tuple(args), kw)
        assert max(families, key=families.get) == family, families
        assert families[family] > 1e-7
        others = [v for name, v in families.items() if name != family]
        assert max(others) <= 1e-3 * families[family], families
        closed = verdict(lambda: gate_certificate(families, kw["eta"]))
        assert isinstance(closed, ConvergenceError)
        assert_matches_oracle(tuple(args), kw, closed)

    @pytest.mark.parametrize("eta", [0.0, 1e-5])
    @pytest.mark.parametrize("kind", ["quadratic", "lowrank"])
    def test_gate_at_the_band_edge(self, kind, eta):
        # at eta <= 1e-7 a band is an equality and the gate sits at 1e-7;
        # above, the band is |model - S| <= eta + INEQUALITY_SLACK and the
        # gate at eta: a shift of S passes below the gate and fails above
        args, kw = getattr(self, "_" + kind)(1.01)
        S_at = 2 if kind == "quadratic" else 4
        edge = 1e-7 if eta == 0.0 else 2 * eta
        for shift, passes in [(0.5 * edge, True), (1.5 * edge, False)]:
            shifted = list(args)
            shifted[S_at] = args[S_at].copy()
            shifted[S_at][0, 1] += shift
            shifted_kw = dict(kw, eta=eta)
            families = closed_form(tuple(shifted), shifted_kw)
            closed = verdict(lambda: gate_certificate(families, eta))
            assert isinstance(closed, ConvergenceError) != passes, (shift, families)
            assert_matches_oracle(tuple(shifted), shifted_kw, closed)

    @pytest.mark.parametrize("dims, sampled, seed", [
        (dims, sampled, seed) for dims in ORACLE_CELLS for sampled in (False, True)
        for seed in range(2)
    ], ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v))
    def test_closed_form_matches_oracle(self, dims, sampled, seed):
        # the recovery backends' certificate step, at the canonical form of
        # a smoothed network, on its exact table or one sampled at
        # n = 2e4 with eta = 3 / sqrt(n): the same verdict and worst
        # violation as the encoded program
        net, table, eta = oracle_instance(dims, sampled, seed)
        closed, (args, kw) = certificate_call(net, table, seed, eta)
        assert_matches_oracle(args, kw, closed)

    @staticmethod
    def _encode(dims):
        """The program of a random table at ``dims``: (r, d) for the
        tensor-ring program, (r, d, ell, omega) for the low-rank one."""
        rng = np.random.default_rng(0)
        r, d = dims[:2]
        if len(dims) == 2:
            return encode_tensor_ring(
                r, rng.standard_normal((d, d)), rng.standard_normal((d, d, d)),
                np.ones(d) / math.sqrt(d), np.ones(d) / math.sqrt(d),
                R=1.0, kappa=0.1, eta=0.0,
            )
        ell, omega = dims[2:]
        return encode_lowrank(
            r, omega, ell, rng.standard_normal((d, d)), R=1.0, kappa=0.1, eta=0.0,
        )

    @pytest.mark.parametrize("dims", LAYOUT_DIMS, ids=lambda dims: ",".join(map(str, dims)))
    def test_layout_matches_encoder_numbering(self, dims):
        # certify_oracle fills the blocks (units M, components, L, P), which
        # number the variables in turn, each row-major; the unit groups hold
        # the same indices, and qvar is the symmetric view of the units
        r, d = dims[:2]
        prog = self._encode(dims)
        if len(dims) == 2:
            m = r * (r + 1) // 2
            shapes = {"units": (d, m), "L": (m, d)}
            units, qvar = prog.meta["units"], prog.meta["qvar"]
            i, j = np.triu_indices(r)
            assert np.array_equal(qvar[:, i, j], units)
            assert np.array_equal(qvar, qvar.swapaxes(1, 2))
            assert prog.groups[0].variables == tuple(units.ravel())
        else:
            ell = dims[2]
            m = len(prog.meta["sidx"])
            shapes = {"units": (d, m), "components": (d, ell, r), "L": (m, d), "P": (m, d)}
            for a in range(d):
                assert prog.groups[a].variables == tuple(
                    np.concatenate([prog.meta["units"][a], prog.meta["components"][a].ravel()])
                )
        start = 0
        for key, shape in shapes.items():
            size = math.prod(shape)
            assert np.array_equal(prog.meta[key], start + np.arange(size).reshape(shape))
            start += size
        assert start == prog.nvars

    @pytest.mark.parametrize("dims", LAYOUT_DIMS, ids=lambda dims: ",".join(map(str, dims)))
    def test_encoded_programs_validate(self, dims):
        # the encoders do not validate what they build: every constraint must
        # stay within its group's degree and variables
        prog = self._encode(dims)
        prog.validate()
        bad = PolynomialProgram(nvars=prog.nvars, groups=prog.groups,
                                equalities=[(Poly.var(prog.nvars - 1), 0)])
        with pytest.raises(UsageError, match="outside its group"):
            bad.validate()
