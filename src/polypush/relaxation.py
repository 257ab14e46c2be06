"""Moment relaxations: monomial polynomials, program encodings, conic solver.

A ``PolynomialProgram`` declares variables, polynomial equalities/inequalities,
and a relaxation degree.  ``solve`` lifts it: every variable *group* gets a
moment matrix over its monomial basis, equalities are multiplied by basis
monomials within the degree budget, inequalities get localizing blocks, and
the resulting conic feasibility problem (affine slice of a product of PSD
cones) is solved by ADMM with a small trace-of-moment-matrix objective as a
deterministic tie-break.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DENSE_BYTES_CAP, ResourceError, UsageError
from .tensors import multiplicity, sorted_multi_indices

__all__ = [
    "Poly",
    "VarGroup",
    "PolynomialProgram",
    "SolverConfig",
    "Pseudoexpectation",
    "Infeasible",
    "encode_tensor_ring",
    "encode_lowrank",
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

    def copy(self) -> "Poly":
        return Poly(self.terms)

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
    label: str = ""


@dataclass
class PolynomialProgram:
    nvars: int
    names: list[str]
    groups: list[VarGroup]
    equalities: list[tuple[Poly, int]] = field(default_factory=list)   # (p, group id)
    inequalities: list[tuple[Poly, int]] = field(default_factory=list)  # p >= 0
    degree: int = 4
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

    def check_point(self, point: np.ndarray, tol: float = 0.0) -> float:
        """Worst constraint violation of a concrete assignment."""
        worst = 0.0
        for p, _ in self.equalities:
            worst = max(worst, abs(p.evaluate(point)))
        for p, _ in self.inequalities:
            worst = max(worst, max(0.0, -p.evaluate(point) - tol))
        return worst


@dataclass
class SolverConfig:
    tol: float = 1e-7
    max_iter: int = 50000


# cap on the side of any moment matrix the lift builds
MAX_DIM = 5000
# weight of the trace-of-moment-matrix tie-break objective on cold starts
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
    degree: int
    values: dict[Monomial, float]
    moment_matrices: list[np.ndarray]
    moment_bases: list[list[Monomial]]
    residual: float
    iterations: int
    program: PolynomialProgram

    @property
    def moment_matrix(self) -> np.ndarray:
        return self.moment_matrices[0]


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
    """Index bookkeeping for the lifted conic problem."""

    def __init__(self, program: PolynomialProgram):
        program.validate()
        self.mono_index: dict[Monomial, int] = {(): 0}
        self.blocks: list[tuple[list[Monomial], Optional[Poly], bool]] = []
        # (basis, localizing poly or None for a plain moment block, is_moment)
        for g, grp in enumerate(program.groups):
            basis = _monomials(grp.variables, grp.degree // 2)
            if len(basis) > MAX_DIM:
                raise ResourceError(
                    f"moment-matrix side {len(basis)} exceeds cap {MAX_DIM}"
                )
            self.blocks.append((basis, None, True))
            for u in basis:
                for v in basis:
                    self._touch(_merge(u, v))
        self.eq_rows: list[dict[int, float]] = []
        self.eq_rhs: list[float] = []
        # normalization
        self.eq_rows.append({0: 1.0})
        self.eq_rhs.append(1.0)
        for p, g in program.equalities:
            grp = program.groups[g]
            for q in _monomials(grp.variables, grp.degree - p.degree()):
                row: dict[int, float] = {}
                for m, c in p.terms.items():
                    j = self._touch(_merge(m, q))
                    row[j] = row.get(j, 0.0) + c
                self.eq_rows.append(row)
                self.eq_rhs.append(0.0)
        for p, g in program.inequalities:
            grp = program.groups[g]
            half = (grp.degree - p.degree()) // 2
            basis = _monomials(grp.variables, half)
            for u in basis:
                for v in basis:
                    for m in p.terms:
                        self._touch(_merge(_merge(u, v), m))
            self.blocks.append((basis, p, False))
        self.ny = len(self.mono_index)

    def _touch(self, m: Monomial) -> int:
        if m not in self.mono_index:
            self.mono_index[m] = len(self.mono_index)
        return self.mono_index[m]

    def build_matrices(self):
        """Sparse map A: y -> stacked scaled-svec of all blocks, plus eq system."""
        rows, cols, vals = [], [], []
        self.block_slices = []
        self.diag_positions = []  # svec positions of moment-block diagonals
        offset = 0
        sqrt2 = math.sqrt(2.0)
        for basis, p, is_moment in self.blocks:
            s = len(basis)
            size = s * (s + 1) // 2
            self.block_slices.append((offset, s))
            pos = 0
            for iu in range(s):
                for iv in range(iu, s):
                    scale = 1.0 if iu == iv else sqrt2
                    uv = _merge(basis[iu], basis[iv])
                    if p is None:
                        rows.append(offset + pos)
                        cols.append(self.mono_index[uv])
                        vals.append(scale)
                        if iu == iv and is_moment:
                            self.diag_positions.append(offset + pos)
                    else:
                        for m, c in p.terms.items():
                            rows.append(offset + pos)
                            cols.append(self.mono_index[_merge(uv, m)])
                            vals.append(scale * c)
                    pos += 1
            offset += size
        self.nX = offset
        self.A = sp.csr_matrix(
            (vals, (rows, cols)), shape=(self.nX, self.ny)
        )
        erows, ecols, evals = [], [], []
        for i, row in enumerate(self.eq_rows):
            for j, c in row.items():
                erows.append(i)
                ecols.append(j)
                evals.append(c)
        self.E = sp.csr_matrix(
            (evals, (erows, ecols)), shape=(len(self.eq_rows), self.ny)
        )
        self.f = np.asarray(self.eq_rhs)


def _svec_to_mat(v: np.ndarray, s: int) -> np.ndarray:
    M = np.zeros((s, s))
    iu = np.triu_indices(s)
    M[iu] = v
    off = iu[0] != iu[1]
    M[iu[0][off], iu[1][off]] /= math.sqrt(2.0)
    M = M + np.triu(M, 1).T
    return M


def _mat_to_svec(M: np.ndarray) -> np.ndarray:
    s = M.shape[0]
    iu = np.triu_indices(s)
    v = M[iu].copy()
    off = iu[0] != iu[1]
    v[off] *= math.sqrt(2.0)
    return v


def _psd_project(v: np.ndarray, s: int) -> np.ndarray:
    if s == 1:
        return np.maximum(v, 0.0)
    M = _svec_to_mat(v, s)
    w, U = np.linalg.eigh(M)
    w = np.maximum(w, 0.0)
    return _mat_to_svec((U * w) @ U.T)


def solve(
    program: PolynomialProgram,
    cfg: Optional[SolverConfig] = None,
    warm: Optional[np.ndarray] = None,
) -> Pseudoexpectation | Infeasible:
    """ADMM conic solve of the lifted relaxation.

    Alternates an affine projection (moment-matrix consistency + equality
    rows, KKT system factorized once) with a PSD-cone projection, carrying a
    scaled dual; stops when the primal and dual residuals drop below cfg.tol.
    Returns ``Infeasible`` when the residual stalls above 10*cfg.tol for
    STALL_WINDOW consecutive iterations.  Fully deterministic.

    ``warm``, a feasible or near-feasible assignment of the program
    variables, seeds the iteration with its monomial lift; cold starts can be
    orders of magnitude slower.  Only cold starts add the TRACE_WEIGHT
    tie-break, which would drag the iterates away from a warm point.
    """
    cfg = cfg or SolverConfig()
    lifted = _Lifted(program)
    lifted.build_matrices()
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
    cX[lifted.diag_positions] = TRACE_WEIGHT if warm is None else 0.0

    zy = np.zeros(ny)
    zy[0] = 1.0
    zX = np.zeros(nX)
    if warm is not None:
        point = np.asarray(warm, dtype=float)
        for m, j in lifted.mono_index.items():
            val = 1.0
            for i in m:
                val *= point[i]
            zy[j] = val
        zX = A @ zy
    uy = np.zeros(ny)
    uX = np.zeros(nX)
    rhs = np.zeros(ny + neq)
    rhs[ny:] = f

    best_res = np.inf
    stall = 0
    it = 0
    res = np.inf
    for it in range(1, cfg.max_iter + 1):
        ty = zy - uy
        tX = zX - uX - cX
        rhs[:ny] = ty + A.T @ tX
        sol = kkt.solve(rhs)
        xy = sol[:ny]
        xX = A @ xy
        # plain alternation: over-relaxation limit-cycles once the trace
        # objective is present
        zX_new = np.empty_like(zX)
        for off, s in lifted.block_slices:
            size = s * (s + 1) // 2
            zX_new[off:off + size] = _psd_project(xX[off:off + size] + uX[off:off + size], s)
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
        if res <= cfg.tol and dual <= 10 * cfg.tol:
            break
        if res <= max(1e-12, 1e-3 * cfg.tol):
            # deep primal convergence; the tiny trace objective keeps the
            # dual residual at a floor, no point iterating further
            break
        if res < best_res * (1.0 - 1e-4):
            best_res = res
            stall = 0
        else:
            stall += 1
        if res > 10 * cfg.tol and stall >= STALL_WINDOW:
            return Infeasible(residual=res, iterations=it)
    else:
        if res > 100 * cfg.tol:
            return Infeasible(residual=res, iterations=it)

    values = {m: float(xy[j]) for m, j in lifted.mono_index.items()}
    mats, bases = [], []
    for (off, s), (basis, p, is_moment) in zip(lifted.block_slices, lifted.blocks):
        if not is_moment:
            continue
        size = s * (s + 1) // 2
        mats.append(_svec_to_mat(zX[off:off + size], s))
        bases.append(basis)
    return Pseudoexpectation(
        degree=program.degree,
        values=values,
        moment_matrices=mats,
        moment_bases=bases,
        residual=res,
        iterations=it,
        program=program,
    )


# ---------------------------------------------------------------------------
# warm starts of the recovery backends
# ---------------------------------------------------------------------------

def finish_warm_point(
    prog: PolynomialProgram, point: np.ndarray, M: np.ndarray, eta: float
) -> Optional[np.ndarray]:
    """Complete a warm point whose unit variables are already packed.

    ``M`` is the (d, m) flattening of those units.  Writes the least-norm
    left inverse pinv(M) into the program's L variables, and pinv(M B) into
    its P variables if it has them (the low-rank program).  Returns None
    when the point violates the program's own constraints by more than
    max(eta, 1e-7).
    """
    inverses = [("lvar", np.linalg.pinv(M))]
    if "pvar" in prog.meta:
        inverses.append(("pvar", np.linalg.pinv(M @ prog.meta["B"])))
    for key, X in inverses:
        for (k, a), v in prog.meta[key].items():
            point[v] = X[k, a]
    if prog.check_point(point, tol=1e-9) > max(eta, 1e-7):
        return None
    return point


# ---------------------------------------------------------------------------
# Program encodings
# ---------------------------------------------------------------------------

def _band(p: Poly, target: float, eta: float) -> list[Poly]:
    """|p - target| <= eta as two one-sided constraints (>= 0 form)."""
    return [Poly.const(target + eta) - p, p - Poly.const(target - eta)]


def _add_band(prog: PolynomialProgram, p: Poly, target: float, eta: float, gid: int):
    """Moment-matching band; collapses to an equality row when the band is
    narrower than the solver can resolve (two inequalities 2*eta apart make
    first-order conic methods crawl)."""
    if eta <= 1e-7:
        prog.equalities.append((p - Poly.const(target), gid))
    else:
        for ineq in _band(p, target, eta):
            prog.inequalities.append((ineq, gid))


def _add_left_inverse(prog, var, entry, m: int, d: int, cap: float, gid: int):
    """The family X M = Id_m with ||X||_F^2 <= cap in group ``gid``, where
    ``var[(k, a)]`` numbers the variables of X and ``entry(a, u)`` is the
    polynomial of the (d, m) matrix M's entry."""
    for k in range(m):
        for u in range(m):
            p = Poly.const(-1.0 if k == u else 0.0)
            for a in range(d):
                p = p + Poly.var(var[(k, a)]) * entry(a, u)
            prog.equalities.append((p, gid))
    norm = Poly()
    for v in var.values():
        norm = norm + Poly.var(v) * Poly.var(v)
    prog.inequalities.append((Poly.const(cap) - norm, gid))


def encode_tensor_ring(
    r: int,
    S: np.ndarray,
    T: np.ndarray,
    lam: np.ndarray,
    mu: np.ndarray,
    R: float,
    kappa: float,
    eta: float,
    degree: Optional[int] = None,
) -> PolynomialProgram:
    """The quadratic-recovery program with gauge-fixing combinations lam, mu.

    Variables: upper-triangular entries of each Q_a (symmetry is structural)
    and a left inverse L of the flattening matrix M (rows = upper-triangular
    entries of Q_a).  Constraint families: moment bands on Tr(Q_a Q_b) and
    Tr(Q_a Q_b Q_c), Frobenius norm caps, L M = Id with ||L||_F^2 bounded,
    Q_lam diagonal with sorted diagonal, and first row of Q_mu nonnegative.
    """
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    d = S.shape[0]
    degree = 4 if degree is None else degree
    if degree < 4 or degree % 2 != 0:
        raise UsageError("tensor-ring relaxation degree must be even and >= 4")
    m = r * (r + 1) // 2
    if d < m:
        raise UsageError(f"need d >= C(r+1,2) = {m}")
    pairs = [(i, j) for i in range(r) for j in range(i, r)]
    names: list[str] = []
    qvar: dict[tuple[int, int, int], int] = {}
    for a in range(d):
        for (i, j) in pairs:
            qvar[(a, i, j)] = len(names)
            names.append(f"Q{a}[{i},{j}]")
    lvar: dict[tuple[int, int], int] = {}
    for k in range(m):
        for a in range(d):
            lvar[(k, a)] = len(names)
            names.append(f"L[{k},{a}]")
    nq = d * m

    def q(a, i, j):
        lo, hi = min(i, j), max(i, j)
        return Poly.var(qvar[(a, lo, hi)])

    group_q = VarGroup(tuple(range(nq)), degree, "Q")
    group_ql = VarGroup(tuple(range(len(names))), 2, "QL")
    prog = PolynomialProgram(
        nvars=len(names), names=names, groups=[group_q, group_ql], degree=degree,
        meta={"r": r, "d": d, "m": m, "qvar": qvar, "lvar": lvar, "pairs": pairs,
              "lam": lam, "mu": mu, "R": R, "kappa": kappa, "eta": eta},
    )

    def trace_qq(a, b):
        p = Poly()
        for i in range(r):
            for j in range(r):
                p = p + q(a, i, j) * q(b, j, i)
        return p

    def trace_qqq(a, b, c):
        p = Poly()
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    p = p + q(a, i, j) * q(b, j, k) * q(c, k, i)
        return p

    for a in range(d):
        for b in range(a, d):
            _add_band(prog, trace_qq(a, b), float(S[a, b]), eta, 0)
    for a in range(d):
        for b in range(a, d):
            for c in range(b, d):
                _add_band(prog, trace_qqq(a, b, c), float(T[a, b, c]), eta, 0)
    for a in range(d):
        norm2 = Poly()
        for (i, j) in pairs:
            w = 1.0 if i == j else 2.0
            norm2 = norm2 + w * (q(a, i, j) * q(a, i, j))
        prog.inequalities.append((Poly.const(R * R) - norm2, 0))
    # gauge fixing: Q_lam diagonal & sorted, first row of Q_mu nonnegative
    for i in range(r):
        for j in range(i + 1, r):
            p = Poly()
            for a in range(d):
                p = p + float(lam[a]) * q(a, i, j)
            prog.equalities.append((p, 0))
    for i in range(r - 1):
        p = Poly()
        for a in range(d):
            p = p + float(lam[a]) * (q(a, i + 1, i + 1) - q(a, i, i))
        prog.inequalities.append((p, 0))
    for j in range(r):
        p = Poly()
        for a in range(d):
            p = p + float(mu[a]) * q(a, 0, j)
        prog.inequalities.append((p, 0))
    # left inverse: L M = Id_m over the (Q, L) group at degree 2
    _add_left_inverse(prog, lvar, lambda a, u: q(a, *pairs[u]), m, d, r * r / kappa**2, 1)
    prog.validate()
    return prog


def encode_lowrank(
    r: int,
    omega: int,
    ell: int,
    S: np.ndarray,
    Sigma_sym: np.ndarray,
    D: np.ndarray,
    R: float,
    kappa: float,
    eta: float,
    degree: Optional[int] = None,
    lam_mu: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> PolynomialProgram:
    """The low-rank factorization program (pairwise Sigma-moment matching).

    Variables per unit: sorted-index entries of T_a and the rank-ell
    components v_{a,t}; global left inverses L and P of the sorted-entry
    flattening M (the P constraint uses the multiplicity diagonal D and the
    PSD square root of Sigma_sym).  ``lam_mu`` appends the gauge-fixing
    families on F_lam / F_mu built from the paired-contraction vectors f_a;
    without it the program is gauge-free.
    """
    if omega % 2 == 0 or omega < 3:
        raise UsageError("low-rank program needs odd omega >= 3")
    degree = 2 * omega if degree is None else degree
    if degree < 2 * omega:
        raise UsageError("low-rank relaxation degree must be >= 2*omega")
    S = np.asarray(S, dtype=float)
    d = S.shape[0]
    sidx = sorted_multi_indices(r, omega)
    m = len(sidx)
    mult = np.array([multiplicity(t) for t in sidx], dtype=float)
    Sigma_sym = np.asarray(Sigma_sym, dtype=float)
    D = np.asarray(D, dtype=float)
    # PSD square root of Sigma_sym
    w, U = np.linalg.eigh(Sigma_sym)
    w = np.clip(w, 0.0, None)
    sig_half = (U * np.sqrt(w)) @ U.T
    B = D @ sig_half  # (m, m): column u weight of T entries

    names: list[str] = []
    tvar: dict[tuple[int, int], int] = {}
    for a in range(d):
        for u in range(m):
            tvar[(a, u)] = len(names)
            names.append(f"T{a}{sidx[u]}")
    vvar: dict[tuple[int, int, int], int] = {}
    for a in range(d):
        for t in range(ell):
            for i in range(r):
                vvar[(a, t, i)] = len(names)
                names.append(f"v[{a},{t},{i}]")
    lvar: dict[tuple[int, int], int] = {}
    pvar: dict[tuple[int, int], int] = {}
    for k in range(m):
        for a in range(d):
            lvar[(k, a)] = len(names)
            names.append(f"L[{k},{a}]")
    for k in range(m):
        for a in range(d):
            pvar[(k, a)] = len(names)
            names.append(f"P[{k},{a}]")

    groups = []
    unit_gid = {}
    for a in range(d):
        gvars = tuple(tvar[(a, u)] for u in range(m)) + tuple(
            vvar[(a, t, i)] for t in range(ell) for i in range(r)
        )
        unit_gid[a] = len(groups)
        groups.append(VarGroup(gvars, degree, f"unit{a}"))
    tv_all = tuple(tvar[(a, u)] for a in range(d) for u in range(m))
    t_gid = len(groups)
    groups.append(VarGroup(tv_all, 4, "T"))
    lp_gid = len(groups)
    groups.append(
        VarGroup(
            tv_all + tuple(lvar.values()) + tuple(pvar.values()), 2, "TLP"
        )
    )
    prog = PolynomialProgram(
        nvars=len(names), names=names, groups=groups, degree=degree,
        meta={"r": r, "omega": omega, "ell": ell, "d": d, "m": m,
              "sidx": sidx, "mult": mult, "tvar": tvar, "vvar": vvar,
              "lvar": lvar, "pvar": pvar, "B": B, "eta": eta, "t_gid": t_gid},
    )

    def tpoly(a, u):
        return Poly.var(tvar[(a, u)])

    # pairwise Sigma-moment bands (T group, degree-4 block keeps them queriable)
    for a in range(d):
        for b in range(a, d):
            p = Poly()
            for u in range(m):
                for v in range(m):
                    w_uv = mult[u] * mult[v] * Sigma_sym[u, v]
                    if w_uv != 0.0:
                        p = p + w_uv * (tpoly(a, u) * tpoly(b, v))
            _add_band(prog, p, float(S[a, b]), eta, t_gid)
    # low-rank structure per unit
    for a in range(d):
        for u, tup in enumerate(sidx):
            p = tpoly(a, u) * (-1.0)
            for t in range(ell):
                term = Poly.const(1.0)
                for i in tup:
                    term = term * Poly.var(vvar[(a, t, i)])
                p = p + term
            prog.equalities.append((p, unit_gid[a]))
        norm2 = Poly()
        for u in range(m):
            norm2 = norm2 + mult[u] * (tpoly(a, u) * tpoly(a, u))
        prog.inequalities.append((Poly.const(R * R) - norm2, unit_gid[a]))

    def mb(a, u):  # entry (a, u) of M B = M D sig_half
        p = Poly()
        for w_ in range(m):
            coef = float(B[w_, u])
            if coef != 0.0:
                p = p + coef * tpoly(a, w_)
        return p

    # left inverses L M = Id_m and P M B = Id_m
    _add_left_inverse(prog, lvar, tpoly, m, d, r**omega / kappa**2, lp_gid)
    _add_left_inverse(
        prog, pvar, mb, m, d, r**omega * omega ** (omega / 2) / kappa**2, lp_gid
    )

    if lam_mu is not None:
        lam, mu = lam_mu
        fcoef = _fvector_coefficients(r, omega, sidx)

        def f_entry(a, i):
            p = Poly()
            for u, c in fcoef[i].items():
                p = p + c * tpoly(a, u)
            return p

        def F_combo(weights, i, j):
            p = Poly()
            for a in range(d):
                wt = float(weights[a])
                if wt != 0.0:
                    p = p + wt * (f_entry(a, i) * f_entry(a, j))
            return p

        for i in range(r):
            for j in range(i + 1, r):
                prog.equalities.append((F_combo(lam, i, j), t_gid))
        for i in range(r - 1):
            prog.inequalities.append(
                (F_combo(lam, i + 1, i + 1) - F_combo(lam, i, i), t_gid)
            )
        for j in range(r):
            prog.inequalities.append((F_combo(mu, 0, j), t_gid))
    prog.validate()
    return prog


def _fvector_coefficients(r: int, omega: int, sidx) -> list[dict[int, float]]:
    """For each output coordinate i, the linear map sorted-T-entries -> f_i."""
    k = (omega - 1) // 2
    pos = {tup: u for u, tup in enumerate(sidx)}
    out: list[dict[int, float]] = [dict() for _ in range(r)]
    for i in range(r):
        for js in itertools.product(range(r), repeat=k):
            idx = tuple(sorted(sum(((j, j) for j in js), ()) + (i,)))
            u = pos[idx]
            out[i][u] = out[i].get(u, 0.0) + 1.0
    return out
