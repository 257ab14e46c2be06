"""Shared independent oracles for the test suite.

Everything here is computed from first principles (pairing enumeration,
partition sums, dense linear algebra) so library outputs are checked against
code that shares no implementation with the package.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import settings

# the same examples on every run, and no per-example deadline: timings on
# small shared hosts vary too much for one
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def pairings(items):
    """All perfect matchings of a list (empty list yields one empty matching)."""
    if not items:
        yield []
        return
    first = items[0]
    for k in range(1, len(items)):
        rest = items[1:k] + items[k + 1:]
        for sub in pairings(rest):
            yield [(first, items[k])] + sub


def gaussian_product_moment(index):
    """E[g_{i_1} ... g_{i_k}] for independent standard normals, by pairing count."""
    idx = list(index)
    if len(idx) % 2 == 1:
        return 0.0
    total = 0.0
    for match in pairings(idx):
        total += float(all(a == b for a, b in match))
    return total


def wick_linear_pair_moment(v, w, omega):
    """E[<v,g>^omega <w,g>^omega] by brute-force pairing enumeration.

    Factor positions 0..omega-1 carry v, positions omega..2omega-1 carry w;
    each matching contributes the product of pairwise covariances.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    vecs = [v] * omega + [w] * omega
    total = 0.0
    for match in pairings(list(range(2 * omega))):
        term = 1.0
        for a, b in match:
            term *= float(vecs[a] @ vecs[b])
        total += term
    return total


def set_partitions(items):
    """All set partitions of a list, as lists of blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def joint_cumulant(moment_fn, indices):
    """Joint cumulant from raw moments via the partition-sum formula.

    kappa(X_{i_1},...,X_{i_m}) =
        sum over partitions pi of (-1)^{|pi|-1} (|pi|-1)! prod_B E[prod X].
    """
    total = 0.0
    for part in set_partitions(list(indices)):
        k = len(part)
        term = (-1.0) ** (k - 1) * math.factorial(k - 1)
        for block in part:
            term *= moment_fn(tuple(block))
        total += term
    return total


def diagonal_pushforward_moment(vs, units):
    """E[prod_k z_{units[k]}] for z_a = sum_i vs[i, a] g_i^2, exactly.

    Expands the product over coordinate assignments; each coordinate i
    appearing c times contributes E[g^{2c}] = (2c-1)!!.
    """
    vs = np.asarray(vs, dtype=float)
    r = vs.shape[0]
    k = len(units)
    total = 0.0
    for assign in itertools.product(range(r), repeat=k):
        coeff = 1.0
        counts = [0] * r
        for pos, i in enumerate(assign):
            coeff *= vs[i, units[pos]]
            counts[i] += 1
        mom = 1.0
        for c in counts:
            mom *= math.prod(range(2 * c - 1, 0, -2)) if c else 1.0
        total += coeff * mom
    return total


def random_orthogonal(rng, r):
    """Haar-ish orthogonal matrix via QR with a deterministic sign convention."""
    A = rng.standard_normal((r, r))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def symmetric_gaussian(rng, r):
    G = rng.standard_normal((r, r))
    return 0.5 * (G + G.T)


def complex_step_jacobian(f, x, h=1e-30):
    """Jacobian of a real-analytic f at the real point x by the complex step
    df/dx_k = Im f(x + i h e_k) / h: no difference is taken, so for the
    polynomial models of the package it is exact to rounding."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        step = np.zeros(x.size, dtype=complex)
        step[k] = 1j * h
        cols.append(np.imag(f(x + step)) / h)
    return np.stack(cols, axis=1)


@pytest.fixture
def forbid_solve(monkeypatch):
    """Make the relaxation solver raise under every name a recovery module
    can reach it by: the recovery paths certify a point and never solve."""
    from polypush import lowrank, relaxation, tensor_ring

    def refuse(*args, **kw):
        raise AssertionError("a recovery path called relaxation.solve")

    for mod in (relaxation, tensor_ring, lowrank):
        monkeypatch.setattr(mod, "solve", refuse)


def check_point(prog, point):
    """Worst constraint violation of the encoded program ``prog`` at a
    concrete assignment, polynomial by polynomial; an inequality counts only
    beyond relaxation.INEQUALITY_SLACK."""
    from polypush.relaxation import INEQUALITY_SLACK

    worst = 0.0
    for p, _ in prog.equalities:
        worst = max(worst, abs(p.evaluate(point)))
    for p, _ in prog.inequalities:
        worst = max(worst, max(0.0, -p.evaluate(point) - INEQUALITY_SLACK))
    return worst


def oracle_violation(prog, M, components=None):
    """The worst violation of an encoded program at the point its units fix:
    the point fills the encoder's variable blocks in ``prog.meta``, "units"
    with the (d, m) flattening M, "components" with ``components`` (the
    low-rank program only), and "L" and, in the low-rank program, "P" with
    the least-norm left inverses pinv(M) and pinv(M B) (check_point)."""
    values = {"units": M, "components": components, "L": np.linalg.pinv(M)}
    if "P" in prog.meta:
        values["P"] = np.linalg.pinv(M @ prog.meta["B"])
    point = np.empty(prog.nvars)
    for key, value in values.items():
        if value is not None:
            point[prog.meta[key]] = value
    return check_point(prog, point)


def certify_oracle(prog, M, components=None):
    """The certificate through the encoded program: oracle_violation,
    gated at max(eta, 1e-7) with ConvergenceError."""
    from polypush.errors import ConvergenceError

    violation = oracle_violation(prog, M, components)
    if violation > max(prog.meta["eta"], 1e-7):
        raise ConvergenceError("instance violates non-degeneracy caps of the relaxation")
    return violation


def grid_scan_direct(objective, tensA, tensB, step):
    """The r = 2 gauge grid scored point by point: every rotation by the
    angles 0, step, 2 step, ... below 2 pi, then each of them times
    diag(1, -1), all scored by ``objective`` in one batch.  Returns
    (index, angle, value) of the first least value."""
    thetas = np.arange(0.0, 2 * math.pi, step)
    c, s = np.cos(thetas), np.sin(thetas)
    R = np.moveaxis(np.array([[c, -s], [s, c]]), (0, 1), (-2, -1))
    obj = objective(tensA, tensB, np.concatenate([R, R @ np.diag([1.0, -1.0])]))
    k = int(np.argmin(obj))
    return k, float(thetas[k % thetas.size]), obj[k]


def unit_tensors_per_unit(net):
    """The (d, r, ..., r) unit tensors of a network one unit at a time: a
    quadratic unit is Q_a, a low-rank one adds each running outer product
    v x v x ... x v (np.multiply.outer) to zeros, in the order of t."""
    if net.kind == "quadratic":
        return np.stack([np.array(Qa) for Qa in net.Q])
    units = []
    for unit in net.components:
        T = np.zeros((net.r,) * net.omega)
        for v in unit:
            power = v
            for _ in range(net.omega - 1):
                power = np.multiply.outer(power, v)
            T += power
        units.append(T)
    return np.stack(units)


def paired_outers_per_unit(net):
    """F_a = f_a f_a^T of an odd-order network one unit at a time, f_a the
    paired contraction of unit_tensors_per_unit's T_a."""
    from polypush.tensors import paired_contraction

    F = np.zeros((net.d, net.r, net.r))
    for a, T in enumerate(unit_tensors_per_unit(net)):
        f = paired_contraction(T, net.omega)
        F[a] = np.outer(f, f)
    return F
