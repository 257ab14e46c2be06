"""Moment relaxations: monomial polynomials, program encodings, conic solver.

A ``PolynomialProgram`` declares variables, polynomial equalities/inequalities,
and the relaxation degree of each variable group.  ``encode_tensor_ring`` and
``encode_lowrank`` state the paper's recovery programs, at degree 4 and 2 omega.  The ``sos``
backends add one certificate step to the ``local`` recovery: the gauge-fixed
local fit, completed by least-norm left inverses to a point of the program,
is gated on its worst constraint violation.  ``tensor_ring_certificate`` and
``lowrank_certificate`` evaluate each constraint family of the programs at
that point in closed form, without building them, and ``gate_certificate``
applies the gate.  The encoders are kept as the tests' oracle of those
closed forms and for the benchmark's cold solve.  A feasible point is weaker
than the paper's guarantee, which rests on the pseudo-expectation being
unique; no recovery path solves the relaxation.

``solve`` lifts a program: every variable *group* gets a moment matrix over
its monomial basis, equalities are multiplied by basis monomials within the
degree budget, inequalities get localizing blocks, and the resulting conic
feasibility problem (affine slice of a product of PSD cones) is solved by
ADMM with a small trace-of-moment-matrix objective as a deterministic
tie-break.  The lift and the solver are the package's only users of
scipy.linalg and scipy.sparse, and import them when called.

The lift is one pass over the program (``_Lifted``): it numbers the
monomials and writes the rows of the block map A and the equality system E
as it goes, visiting the upper triangle of each block only.  Each ADMM
iteration projects the blocks of one side together (``_cone_plan``,
``_project_cones``): one batched ``eigh`` per side s > 1, one clip for the
side-1 blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DENSE_BYTES_CAP, ConvergenceError, ResourceError, UsageError
from .moments import _mode_sigma, trace_moments
from .tensors import _sorted_indices, _sorted_multiplicity, _triu, sorted_multi_indices

__all__ = [
    "Poly",
    "VarGroup",
    "PolynomialProgram",
    "Pseudoexpectation",
    "Infeasible",
    "encode_tensor_ring",
    "encode_lowrank",
    "tensor_ring_certificate",
    "lowrank_certificate",
    "gate_certificate",
    "solve",
    "pseudo_expect",
]

Monomial = tuple[int, ...]  # sorted tuple of variable indices; () is the constant


class Poly:
    """Sparse polynomial over numbered variables: {sorted monomial: coeff}."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[Monomial, float]] = None):
        self.terms = dict(terms or {})

    @classmethod
    def const(cls, c: float) -> "Poly":
        return cls({(): float(c)} if c != 0 else {})

    @classmethod
    def var(cls, i: int) -> "Poly":
        return cls({(int(i),): 1.0})

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0.0) + c
            if out[m] == 0.0:
                del out[m]
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly({m: c * other for m, c in self.terms.items() if c * other != 0})
        out: dict[Monomial, float] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0.0) + c1 * c2
        return Poly({m: c for m, c in out.items() if c != 0.0})

    __rmul__ = __mul__

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def variables(self) -> set[int]:
        return {i for m in self.terms for i in m}

    def evaluate(self, point: np.ndarray) -> float:
        total = 0.0
        for m, c in self.terms.items():
            val = c
            for i in m:
                val *= point[i]
            total += val
        return total

    def __repr__(self):
        return f"Poly({self.terms!r})"


@dataclass
class VarGroup:
    """A subset of variables receiving its own moment matrix at ``degree``."""

    variables: tuple[int, ...]
    degree: int


@dataclass
class PolynomialProgram:
    nvars: int
    groups: list[VarGroup]
    equalities: list[tuple[Poly, int]] = field(default_factory=list)   # (p, group id)
    inequalities: list[tuple[Poly, int]] = field(default_factory=list)  # p >= 0
    meta: dict = field(default_factory=dict)

    def validate(self):
        for p, g in self.equalities + self.inequalities:
            grp = self.groups[g]
            if p.degree() > grp.degree:
                raise UsageError(
                    f"constraint degree {p.degree()} exceeds group degree {grp.degree}"
                )
            if not p.variables() <= set(grp.variables):
                raise UsageError("constraint references variables outside its group")


# how far below zero the certificates let an inequality's value fall
INEQUALITY_SLACK = 1e-9
# solve's stopping tolerance on the primal and dual residuals, and its cap on
# ADMM iterations
SOLVER_TOL = 1e-7
MAX_ITER = 50000
# cap on the side of any moment matrix the lift builds
MAX_DIM = 5000
# weight of the trace-of-moment-matrix tie-break objective
TRACE_WEIGHT = 1e-6
# iterations without a 1e-4 relative residual improvement that mean a stall
STALL_WINDOW = 2000
# the recovery backends' lower bound on the flattening's singular values; it
# caps the norm of the left inverses in both encoded programs
KAPPA = 0.01


@dataclass
class Infeasible:
    residual: float
    iterations: int


@dataclass
class Pseudoexpectation:
    values: dict[Monomial, float]
    moment_matrices: list[np.ndarray]
    moment_bases: list[list[Monomial]]
    residual: float
    iterations: int


def pseudo_expect(pe: Pseudoexpectation, poly: Poly | float) -> float:
    """Evaluate the linear functional on a polynomial within degree."""
    if not isinstance(poly, Poly):
        poly = Poly.const(poly)
    total = 0.0
    for m, c in poly.terms.items():
        if m not in pe.values:
            raise UsageError(
                f"monomial of degree {len(m)} outside the relaxation's basis"
            )
        total += c * pe.values[m]
    return total


# ---------------------------------------------------------------------------
# basis enumeration
# ---------------------------------------------------------------------------

def _monomials(variables: tuple[int, ...], max_deg: int) -> list[Monomial]:
    """Graded-lex monomial list over the given variables, constant first."""
    out: list[Monomial] = []
    for deg in range(max_deg + 1):
        out.extend(itertools.combinations_with_replacement(variables, deg))
    return out


def _merge(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(sorted(m1 + m2))


# ---------------------------------------------------------------------------
# lifting to the conic problem
# ---------------------------------------------------------------------------

class _Lifted:
    """The lifted conic problem, built in one pass over the program.

    ``mono_index`` numbers the monomials in the order the lift first touches
    them: moment blocks, then equality multipliers, then localizing blocks.
    ``A`` maps y to the stacked scaled svec of every block (upper triangle,
    row-major, off-diagonal entries times sqrt 2) and ``E y = f`` holds the
    normalization and the multiplier rows.  Only the upper triangle of a
    block is visited: the mirror pair (iv, iu) merges to the monomials
    already touched as (iu, iv), so the numbering is that of a full u x v
    sweep.
    """

    def __init__(self, program: PolynomialProgram):
        import scipy.sparse as sp

        program.validate()
        self.mono_index: dict[Monomial, int] = {(): 0}
        # (basis, localizing poly or None for a plain moment block)
        self.blocks: list[tuple[list[Monomial], Optional[Poly]]] = []
        self.block_slices: list[tuple[int, int]] = []  # (svec offset, side)
        self.diag_positions: list[int] = []  # svec positions of moment diagonals
        self.nX = 0
        a_coo: tuple[list, list, list] = ([], [], [])
        for grp in program.groups:
            basis = _monomials(grp.variables, grp.degree // 2)
            if len(basis) > MAX_DIM:
                raise ResourceError(
                    f"moment-matrix side {len(basis)} exceeds cap {MAX_DIM}"
                )
            self._add_block(basis, None, a_coo)
        # normalization, then each equality times every multiplier monomial
        erows, ecols, evals = [0], [0], [1.0]
        eq_rhs = [1.0]
        for p, g in program.equalities:
            grp = program.groups[g]
            for q in _monomials(grp.variables, grp.degree - p.degree()):
                row: dict[int, float] = {}
                for m, c in p.terms.items():
                    j = self._touch(_merge(m, q))
                    row[j] = row.get(j, 0.0) + c
                erows.extend([len(eq_rhs)] * len(row))
                ecols.extend(row)
                evals.extend(row.values())
                eq_rhs.append(0.0)
        for p, g in program.inequalities:
            grp = program.groups[g]
            half = (grp.degree - p.degree()) // 2
            self._add_block(_monomials(grp.variables, half), p, a_coo)
        self.ny = len(self.mono_index)
        rows, cols, vals = a_coo
        self.A = sp.csr_matrix((vals, (rows, cols)), shape=(self.nX, self.ny))
        self.E = sp.csr_matrix((evals, (erows, ecols)), shape=(len(eq_rhs), self.ny))
        self.f = np.asarray(eq_rhs)

    def _touch(self, m: Monomial) -> int:
        if m not in self.mono_index:
            self.mono_index[m] = len(self.mono_index)
        return self.mono_index[m]

    def _add_block(self, basis: list[Monomial], p: Optional[Poly], a_coo):
        """Append the block of ``basis`` (localized by ``p`` unless None)
        and its rows of A, as COO triplets, to ``a_coo``."""
        rows, cols, vals = a_coo
        s = len(basis)
        self.blocks.append((basis, p))
        self.block_slices.append((self.nX, s))
        sqrt2 = math.sqrt(2.0)
        pos = self.nX
        for iu in range(s):
            for iv in range(iu, s):
                scale = 1.0 if iu == iv else sqrt2
                uv = _merge(basis[iu], basis[iv])
                if p is None:
                    rows.append(pos)
                    cols.append(self._touch(uv))
                    vals.append(scale)
                    if iu == iv:
                        self.diag_positions.append(pos)
                else:
                    for m, c in p.terms.items():
                        rows.append(pos)
                        cols.append(self._touch(_merge(uv, m)))
                        vals.append(scale * c)
                pos += 1
        self.nX = pos


def _svec_to_mat(v: np.ndarray, s: int) -> np.ndarray:
    M = np.zeros((s, s))
    iu = np.triu_indices(s)
    M[iu] = v
    off = iu[0] != iu[1]
    M[iu[0][off], iu[1][off]] /= math.sqrt(2.0)
    M = M + np.triu(M, 1).T
    return M


def _cone_plan(block_slices: list[tuple[int, int]]) -> list[tuple]:
    """The blocks grouped by side, built once per solve: for each side s,
    (s, the (n_blocks, s(s+1)/2) gather index of their svecs,
    triu_indices(s), the mask of the off-diagonal svec entries)."""
    offsets: dict[int, list[int]] = {}
    for off, s in block_slices:
        offsets.setdefault(s, []).append(off)
    plan = []
    for s, offs in sorted(offsets.items()):
        idx = np.asarray(offs)[:, None] + np.arange(s * (s + 1) // 2)
        iu = np.triu_indices(s)
        plan.append((s, idx, iu, iu[0] != iu[1]))
    return plan


def _project_cones(v: np.ndarray, plan: list[tuple], out: np.ndarray):
    """Write the projection of each block's svec in ``v`` onto the PSD cone
    into ``out``, with one batched eigh per block side."""
    for s, idx, (iu, ju), off in plan:
        x = v[idx]
        if s == 1:
            out[idx] = np.maximum(x, 0.0)
            continue
        # divide as _svec_to_mat does: times 1/sqrt(2) rounds differently
        x[:, off] /= math.sqrt(2.0)
        M = np.empty((len(idx), s, s))
        M[:, iu, ju] = x
        M[:, ju, iu] = x
        w, U = np.linalg.eigh(M)
        P = (U * np.maximum(w, 0.0)[:, None, :]) @ U.swapaxes(1, 2)
        x = P[:, iu, ju]
        x[:, off] *= math.sqrt(2.0)
        out[idx] = x


def solve(program: PolynomialProgram) -> Pseudoexpectation | Infeasible:
    """ADMM conic solve of the lifted relaxation.

    Lifts the program in one pass, then alternates an affine projection
    (moment-matrix consistency + equality rows, KKT system factorized once)
    with a PSD-cone projection, batched over the blocks of each side, carrying
    a scaled dual; stops when the primal and dual residuals drop below
    SOLVER_TOL, or after MAX_ITER iterations.
    Returns ``Infeasible`` when the residual stalls above 10*SOLVER_TOL for
    STALL_WINDOW consecutive iterations.  Fully deterministic.
    """
    import scipy.linalg as sla
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    lifted = _Lifted(program)
    A, E, f = lifted.A, lifted.E, lifted.f
    ny, nX = lifted.ny, lifted.nX
    # multiplier expansion produces linearly dependent equality rows, which
    # would make the KKT system singular; keep an independent subset
    # rank-revealing pivoted Cholesky of the row Gram matrix (much cheaper
    # than a pivoted QR of E^T at these sizes)
    n_eq = E.shape[0]
    # the dense arrays built below: G and LAPACK's copy of it, n_eq x n_eq
    need = 16 * n_eq * n_eq
    if need > DENSE_BYTES_CAP:
        raise ResourceError(
            f"the relaxation's {n_eq} equality rows over {ny} moments need "
            f"{need / 2**30:.3g} GiB of dense arrays, over the "
            f"{DENSE_BYTES_CAP / 2**30:g} GiB cap"
        )
    G = (E @ E.T).toarray()
    _, piv_rows, rank, _ = sla.lapack.dpstrf(
        G, tol=1e-14 * max(1.0, float(G.diagonal().max())), lower=1
    )
    keep = np.sort(piv_rows[:rank] - 1)
    fkeep = f[keep]
    dropped = np.setdiff1d(np.arange(n_eq), keep)
    E_drop = E[dropped]
    E = E[keep]
    # a coefficient that cancelled in the lift is stored as an explicit zero;
    # keep it out of the KKT matrix's sparsity pattern
    E.eliminate_zeros()
    neq = E.shape[0]

    # KKT for min ||y - t_y||^2 + ||A y - t_X||^2 s.t. E y = f
    K = sp.bmat(
        [[sp.identity(ny) + A.T @ A, E.T], [E, None]], format="csc"
    )
    kkt = spla.splu(K)

    if dropped.size:
        # a dropped row is a combination of the kept ones; if its right-hand
        # side disagrees, the equality system (and hence the program) is
        # infeasible and the iteration could silently project it away
        probe = np.zeros(ny + neq)
        probe[ny:] = fkeep
        y0 = kkt.solve(probe)[:ny]
        gap = float(np.max(np.abs(E_drop @ y0 - f[dropped])))
        scale = max(1.0, float(np.max(np.abs(f))))
        if gap > 1e-8 * scale:
            return Infeasible(residual=gap, iterations=0)
    f = fkeep

    cX = np.zeros(nX)
    cX[lifted.diag_positions] = TRACE_WEIGHT

    zy = np.zeros(ny)
    zy[0] = 1.0
    zX = np.zeros(nX)
    uy = np.zeros(ny)
    uX = np.zeros(nX)
    rhs = np.zeros(ny + neq)
    rhs[ny:] = f
    AT = A.T
    plan = _cone_plan(lifted.block_slices)

    best_res = np.inf
    stall = 0
    it = 0
    res = np.inf
    for it in range(1, MAX_ITER + 1):
        ty = zy - uy
        tX = zX - uX - cX
        rhs[:ny] = ty + AT @ tX
        sol = kkt.solve(rhs)
        xy = sol[:ny]
        xX = A @ xy
        # plain alternation: over-relaxation limit-cycles once the trace
        # objective is present
        zX_new = np.empty_like(zX)
        _project_cones(xX + uX, plan, zX_new)
        zy_new = xy + uy
        uy += xy - zy_new
        uX += xX - zX_new
        dual = math.sqrt(
            float(np.sum((zX_new - zX) ** 2)) + float(np.sum((zy_new - zy) ** 2))
        )
        zy, zX = zy_new, zX_new
        res = math.sqrt(
            float(np.sum((xX - zX) ** 2)) + float(np.sum((xy - zy) ** 2))
        )
        if res <= SOLVER_TOL and dual <= 10 * SOLVER_TOL:
            break
        if res <= max(1e-12, 1e-3 * SOLVER_TOL):
            # deep primal convergence; the tiny trace objective keeps the
            # dual residual at a floor, no point iterating further
            break
        if res < best_res * (1.0 - 1e-4):
            best_res = res
            stall = 0
        else:
            stall += 1
        if res > 10 * SOLVER_TOL and stall >= STALL_WINDOW:
            return Infeasible(residual=res, iterations=it)
    else:
        if res > 100 * SOLVER_TOL:
            return Infeasible(residual=res, iterations=it)

    values = {m: float(xy[j]) for m, j in lifted.mono_index.items()}
    mats, bases = [], []
    for (off, s), (basis, p) in zip(lifted.block_slices, lifted.blocks):
        if p is not None:
            continue
        size = s * (s + 1) // 2
        mats.append(_svec_to_mat(zX[off:off + size], s))
        bases.append(basis)
    return Pseudoexpectation(
        values=values,
        moment_matrices=mats,
        moment_bases=bases,
        residual=res,
        iterations=it,
    )


# ---------------------------------------------------------------------------
# certificates of the recovery backends
# ---------------------------------------------------------------------------

def _band_violation(model: np.ndarray, target: np.ndarray, eta: float) -> float:
    """Worst violation of the moment bands |model - target| <= eta (_add_band):
    equalities when eta <= 1e-7, else one-sided inequalities with the slack
    INEQUALITY_SLACK."""
    gap = float(np.abs(model - target).max(initial=0.0))
    if eta > 1e-7:
        gap -= eta + INEQUALITY_SLACK
    return max(0.0, gap)


def _cap_violation(norms2: np.ndarray, cap) -> float:
    """Worst violation of the caps norms2 <= cap (_add_cap), entrywise."""
    return max(0.0, float(np.max(norms2 - cap)) - INEQUALITY_SLACK)


def _left_inverse_violation(M: np.ndarray, cap: float) -> float:
    """Worst violation of the family L M = Id_m, ||L||_F^2 <= cap
    (_add_left_inverse) on the (d, m) M, at its least-norm solution
    L = pinv(M)."""
    L = np.linalg.pinv(M)
    eq = float(np.abs(L @ M - np.eye(M.shape[-1])).max())
    return max(eq, _cap_violation(np.sum(L * L), cap))


def _gauge_violation(X_lam: np.ndarray, X_mu: np.ndarray) -> float:
    """Worst violation of the gauge families (_add_gauge_families) on the
    combinations X_lam and X_mu of the units: X_lam off-diagonal zero with
    ascending diagonal, the first row of X_mu nonnegative."""
    diag = X_lam.diagonal()
    return max(
        0.0,
        float(np.abs(X_lam[_triu(len(diag), 1)]).max(initial=0.0)),
        float((diag[:-1] - diag[1:]).max(initial=0.0)) - INEQUALITY_SLACK,
        float(-X_mu[0].min()) - INEQUALITY_SLACK,
    )


def gate_certificate(families: dict[str, float], eta: float) -> float:
    """The worst of the families' violations; above max(eta, 1e-7), the
    certificate's gate, the instance is too degenerate for the program's
    caps: ConvergenceError."""
    violation = max(families.values())
    if violation > max(eta, 1e-7):
        raise ConvergenceError("instance violates non-degeneracy caps of the relaxation")
    return violation


def tensor_ring_certificate(
    M: np.ndarray, r: int, S: np.ndarray, T: np.ndarray, lam, mu,
    R: float, kappa: float, eta: float,
) -> dict[str, float]:
    """The worst violation of each constraint family of encode_tensor_ring's
    program, with the same arguments, at the point whose units are the
    (d, m) flattening M and whose left inverse is L = pinv(M), evaluated in
    closed form: "bands" (the trace moments of the units against S and T
    over a <= b and a <= b <= c), "caps" (Frobenius norms within R),
    "left_inverse" (L M = Id, ||L||_F^2 <= r^2 / kappa^2) and "gauge"."""
    d = M.shape[0]
    i, j = _triu(r)
    Q = np.empty((d, r, r))
    Q[:, i, j] = M
    Q[:, j, i] = M
    P, C = trace_moments(Q)
    pairs, triples = _triu(d), tuple(_sorted_indices(d, 3).T)
    flat = Q.reshape(d, r * r)
    return {
        "bands": max(_band_violation(P[pairs], S[pairs], eta),
                     _band_violation(C[triples], T[triples], eta)),
        "caps": _cap_violation((M * M) @ np.where(i == j, 1.0, 2.0), R * R),
        "left_inverse": _left_inverse_violation(M, r * r / kappa**2),
        "gauge": _gauge_violation((lam @ flat).reshape(r, r), (mu @ flat).reshape(r, r)),
    }


def lowrank_certificate(
    M: np.ndarray, components: np.ndarray, r: int, omega: int, S: np.ndarray,
    R: float, kappa: float, eta: float, lam, mu,
) -> dict[str, float]:
    """The worst violation of each constraint family of encode_lowrank's
    program, with the same arguments (ell is that of ``components``) and
    lam_mu = (lam, mu), at the point whose units are the (d, m) sorted-index
    flattening M, whose components are ``components`` and whose left
    inverse is L = pinv(M), evaluated in closed form: "bands" (M W M^T
    against S over a <= b, W = mult mult^T o Sigma_sym), "caps" (the
    multiplicity-weighted norms within R), "structure" (each T_a entry the
    sum of its components' products), "left_inverse" (L M = Id,
    ||L||_F^2 <= r^omega / kappa^2) and "gauge" (on F_a = f_a f_a^T,
    f = M A).

    The program's second left inverse, P M B = Id with ||P||_F^2 <=
    r^omega omega^(omega/2) / kappa^2, is implied and not evaluated: its
    least-norm solution is P = B^-1 L, every singular value of B is at
    least 1, so ||P||_F <= ||L||_F, while its cap is omega^(omega/2) >= 1
    times L's."""
    d = M.shape[0]
    mult = _sorted_multiplicity(r, omega)
    Sigma_sym = _mode_sigma(r, omega)[0]
    pairs = _triu(d)
    weighted = M * mult
    model = (weighted @ Sigma_sym @ weighted.T)[pairs]
    products = components[:, :, _sorted_indices(r, omega)].prod(axis=-1).sum(axis=1)
    f = M @ _fvector_coefficients(r, omega)
    return {
        "bands": _band_violation(model, S[pairs], eta),
        "caps": _cap_violation((M * M) @ mult, R * R),
        "structure": float(np.abs(products - M).max()),
        "left_inverse": _left_inverse_violation(M, r**omega / kappa**2),
        "gauge": _gauge_violation((f.T * lam) @ f, (f.T * mu) @ f),
    }


# ---------------------------------------------------------------------------
# Program encodings
# ---------------------------------------------------------------------------

def _blocks(*shapes: tuple[int, ...]) -> tuple[list[np.ndarray], int]:
    """The variable blocks of a program: consecutive row-major index arrays
    of the given shapes, numbered from 0, and the number of variables."""
    blocks, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        blocks.append(np.arange(start, start + size).reshape(shape))
        start += size
    return blocks, start


def _add_band(prog: PolynomialProgram, p: Poly, target: float, eta: float, gid: int):
    """Moment-matching band |p - target| <= eta as two one-sided constraints
    (>= 0 form); collapses to an equality row when the band is narrower than
    the solver can resolve (two inequalities 2*eta apart make first-order
    conic methods crawl)."""
    if eta <= 1e-7:
        prog.equalities.append((p - Poly.const(target), gid))
    else:
        prog.inequalities.append((Poly.const(target + eta) - p, gid))
        prog.inequalities.append((p - Poly.const(target - eta), gid))


def _add_cap(prog: PolynomialProgram, cap: float, variables, weights, gid: int):
    """sum_i weights[i] x_i^2 <= cap over ``variables``, in group ``gid``."""
    norm = Poly({(v, v): w for v, w in zip(variables, weights)})
    prog.inequalities.append((Poly.const(cap) - norm, gid))


def _add_trace_bands(prog: PolynomialProgram, q: list, tables, eta: float):
    """Bands on the cyclic traces Tr(Q_a Q_b) = S_ab and Tr(Q_a Q_b Q_c) =
    T_abc over a <= b (<= c), in group 0, where ``q[a][i][j]`` numbers the
    variable of Q_a[i, j]."""
    r = len(q[0])
    for table in tables:
        k = table.ndim
        cycles = _trace_cycles(r, k)
        for units in itertools.combinations_with_replacement(range(len(q)), k):
            terms: dict[Monomial, float] = {}
            for cycle in cycles:
                mono = tuple(sorted(q[a][i][j] for a, (i, j) in zip(units, cycle)))
                terms[mono] = terms.get(mono, 0.0) + 1.0
            _add_band(prog, Poly(terms), float(table[units]), eta, 0)


@functools.lru_cache(maxsize=16)
def _trace_cycles(r: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The index pairs (i_1, i_2), (i_2, i_3), ..., (i_k, i_1) of each term
    of Tr(Q_1 ... Q_k), over every (i_1, ..., i_k) in product order."""
    return tuple(tuple(zip(idx, idx[1:] + idx[:1]))
                 for idx in itertools.product(range(r), repeat=k))


def _add_gauge_families(prog: PolynomialProgram, entries: list, lam, mu, gid: int):
    """Q_lam diagonal with ascending diagonal and the first row of Q_mu
    nonnegative, in group ``gid``, where Q_w = sum_a w_a Q_a and
    ``entries[a][i][j]`` is the polynomial of Q_a[i, j]."""
    r = len(entries[0])
    lam, mu = (np.asarray(w, dtype=float).tolist() for w in (lam, mu))

    def combo(w, i, j):
        p = Poly()
        for wa, Qa in zip(w, entries):
            if wa != 0.0:
                p = p + wa * Qa[i][j]
        return p

    for i in range(r):
        for j in range(i + 1, r):
            prog.equalities.append((combo(lam, i, j), gid))
    for i in range(r - 1):
        prog.inequalities.append((combo(lam, i + 1, i + 1) - combo(lam, i, i), gid))
    for j in range(r):
        prog.inequalities.append((combo(mu, 0, j), gid))


def _add_left_inverse(prog: PolynomialProgram, X: list, M: list, cap: float, gid: int):
    """The family X M = Id_m with ||X||_F^2 <= cap in group ``gid``, where
    ``X`` is an (m, d) variable block and ``M[a][u]`` the polynomial of the
    (d, m) matrix M's entry."""
    m = len(X)
    for k in range(m):
        for u in range(m):
            p = Poly.const(-1.0 if k == u else 0.0)
            for a, x in enumerate(X[k]):
                p = p + Poly.var(x) * M[a][u]
            prog.equalities.append((p, gid))
    _add_cap(prog, cap, [x for row in X for x in row], itertools.repeat(1.0), gid)


def encode_tensor_ring(
    r: int,
    S: np.ndarray,
    T: np.ndarray,
    lam: np.ndarray,
    mu: np.ndarray,
    R: float,
    kappa: float,
    eta: float,
) -> PolynomialProgram:
    """The degree-4 quadratic-recovery program with gauge-fixing combinations
    lam, mu.

    Variable blocks (``prog.meta``): "units", the upper-triangular entries
    of each Q_a as the (d, m) flattening M, m = C(r+1, 2) (symmetry is
    structural; "qvar" is the symmetric (d, r, r) view), and "L", an
    (m, d) left inverse of M.  Constraint families: moment bands on
    Tr(Q_a Q_b) and Tr(Q_a Q_b Q_c), Frobenius norm caps, Q_lam diagonal
    with sorted diagonal, first row of Q_mu nonnegative, and L M = Id with
    ||L||_F^2 bounded.
    """
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    d = S.shape[0]
    m = r * (r + 1) // 2
    if d < m:
        raise UsageError(f"need d >= C(r+1,2) = {m}")
    (units, L), nvars = _blocks((d, m), (m, d))
    i, j = _triu(r)
    pos = np.empty((r, r), dtype=int)
    pos[i, j] = pos[j, i] = np.arange(m)
    qvar = units[:, pos]
    prog = PolynomialProgram(
        nvars=nvars, groups=[VarGroup(tuple(range(d * m)), 4), VarGroup(tuple(range(nvars)), 2)],
        meta={"units": units, "L": L, "qvar": qvar, "eta": eta},
    )
    q = qvar.tolist()
    _add_trace_bands(prog, q, (S, T), eta)
    weights = np.where(i == j, 1.0, 2.0).tolist()
    for row in units.tolist():
        _add_cap(prog, R * R, row, weights, 0)
    entries = [[[Poly.var(x) for x in row] for row in Qa] for Qa in q]
    _add_gauge_families(prog, entries, lam, mu, 0)
    # left inverse: L M = Id_m over the (Q, L) group at degree 2
    M = [[Poly.var(x) for x in row] for row in units.tolist()]
    _add_left_inverse(prog, L.tolist(), M, r * r / kappa**2, 1)
    return prog


def encode_lowrank(
    r: int,
    omega: int,
    ell: int,
    S: np.ndarray,
    R: float,
    kappa: float,
    eta: float,
    lam_mu: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> PolynomialProgram:
    """The degree-2 omega low-rank factorization program (pairwise
    Sigma-moment matching).

    Variable blocks (``prog.meta``): "units", the sorted-index entries
    ``meta["sidx"]`` of each T_a as the (d, m) flattening M; "components",
    the (d, ell, r) rank-ell components v_{a,t}; and "L" and "P", (m, d)
    left inverses of M and of M B, where B = D Sigma_sym^{1/2} (``meta["B"]``)
    takes the multiplicity diagonal D and the PSD square root of the
    Gaussian Sigma_sym (moments._mode_sigma).
    Each unit's entries and components form one group at degree 2 omega.
    ``lam_mu`` appends the gauge-fixing families on F_lam / F_mu built from
    the paired-contraction vectors f_a; without it the program is
    gauge-free.
    """
    if omega % 2 == 0 or omega < 3:
        raise UsageError("low-rank program needs odd omega >= 3")
    S = np.asarray(S, dtype=float)
    d = S.shape[0]
    sidx = sorted_multi_indices(r, omega)
    m = len(sidx)
    mult = _sorted_multiplicity(r, omega)
    # B (m, m): column u weight of T entries
    Sigma_sym, B, _ = _mode_sigma(r, omega)

    (units, comps, L, P), nvars = _blocks((d, m), (d, ell, r), (m, d), (m, d))
    t, v = units.tolist(), comps.tolist()
    tv_all = units.ravel().tolist()
    # one group per unit, then the T group (gid d) and the TLP group (gid d + 1)
    groups = [VarGroup(tuple(t[a] + comps[a].ravel().tolist()), 2 * omega) for a in range(d)]
    groups.append(VarGroup(tuple(tv_all), 4))
    groups.append(VarGroup(tuple(tv_all + L.ravel().tolist() + P.ravel().tolist()), 2))
    prog = PolynomialProgram(
        nvars=nvars, groups=groups,
        meta={"units": units, "components": comps, "L": L, "P": P,
              "sidx": sidx, "B": B, "eta": eta},
    )
    tpoly = [[Poly.var(x) for x in row] for row in t]

    # pairwise Sigma-moment bands (T group, degree-4 block keeps them queriable)
    pair_w = (mult[:, None] * mult[None, :] * Sigma_sym).tolist()
    for a, b in itertools.combinations_with_replacement(range(d), 2):
        p = Poly()
        for u in range(m):
            for u2 in range(m):
                if pair_w[u][u2] != 0.0:
                    p = p + pair_w[u][u2] * (tpoly[a][u] * tpoly[b][u2])
        _add_band(prog, p, float(S[a, b]), eta, d)
    # low-rank structure per unit: T_a[u] = sum_t prod_{i in sidx[u]} v_{a,t,i}
    for a in range(d):
        for u, tup in enumerate(sidx):
            terms = {(t[a][u],): -1.0}
            for vt in v[a]:
                terms[tuple(vt[i] for i in tup)] = 1.0
            prog.equalities.append((Poly(terms), a))
        _add_cap(prog, R * R, t[a], mult, a)

    # left inverses L M = Id_m and P M B = Id_m
    Bl = B.tolist()
    MB = [[Poly({(row[k],): Bl[k][u] for k in range(m) if Bl[k][u] != 0.0})
           for u in range(m)] for row in t]
    _add_left_inverse(prog, L.tolist(), tpoly, r**omega / kappa**2, d + 1)
    _add_left_inverse(
        prog, P.tolist(), MB, r**omega * omega ** (omega / 2) / kappa**2, d + 1
    )

    if lam_mu is not None:
        A = _fvector_coefficients(r, omega)
        f = [[Poly({(row[u],): A[u, i] for u in np.flatnonzero(A[:, i])}) for i in range(r)]
             for row in t]
        F = [[[fa[i] * fa[j] for j in range(r)] for i in range(r)] for fa in f]
        _add_gauge_families(prog, F, *lam_mu, d)
    return prog


@functools.lru_cache(maxsize=16)
def _fvector_coefficients(r: int, omega: int) -> np.ndarray:
    """The (m, r) matrix A with f = M A: column i is the linear map from
    the sorted-index entries of a unit to its paired contraction f_i."""
    k = (omega - 1) // 2
    pos = {tup: u for u, tup in enumerate(sorted_multi_indices(r, omega))}
    A = np.zeros((len(pos), r))
    for i in range(r):
        for js in itertools.product(range(r), repeat=k):
            A[pos[tuple(sorted(sum(((j, j) for j in js), ()) + (i,)))], i] += 1.0
    A.setflags(write=False)
    return A
