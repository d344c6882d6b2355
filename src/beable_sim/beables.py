"""Beable operators: spectral cells, cell projectors and the joint eigenbasis.

A beable is a Hermitian operator promoted to "always has a value" status.
Each distinct eigenvalue (up to a degeneracy tolerance) is assigned one
unit cell [n - 1/2, n + 1/2) on a dimensionless lambda line, n = 0..K-1
with no gaps, so a trajectory hops eigenvalues exactly when its lambda
coordinate crosses a half-integer. The assignment of eigenvalues to cells
is configurable: the dynamics is not unique under reordering.

Conventions fixed here:
  * cells are consecutive integers 0..K-1, ascending eigenvalue by default;
  * the nearest-integer map rounds exact half-integers up;
  * lambda = K - 1/2 (the closed top of the domain) belongs to cell K-1 so
    that the boundary values L(K-1/2) = identity and J(K-1/2) = 0 hold.

L(lambda) and J(lambda) as dense matrices are references, in verification;
the field builds P and J from the joint eigenbasis here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericError
from .linalg import Operator, max_norm

DEGENERACY_TOL = 1e-9
COMPLETENESS_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10
COMMUTATION_TOL = 1e-10


class BeableOperator:
    """One beable: per-cell eigenvalues and projectors plus the cell ordering.

    Attributes
    ----------
    label : str
        Name used in diagnostics and config files.
    eigenvalues : ndarray, shape (K,)
        Eigenvalue attached to each cell integer.
    projectors : list of Operator
        Rank >= 1 spectral projector for each cell.
    stacked_projectors : ndarray, shape (K dim, dim)
        The projectors' matrices stacked row-wise, read-only: one product
        with a state gives every cell's image. Each projector's entries are
        a view of its slice, so the matrices are held once.
    ordering : tuple of int
        Permutation sending spectral (ascending-eigenvalue) group index to
        its cell integer; identity for the default ascending layout.
    """

    __slots__ = ("label", "eigenvalues", "projectors", "stacked_projectors", "ordering",
                 "dim", "n_cells", "matrix")

    def __init__(self, label: str, eigenvalues, projectors, ordering):
        self.label = str(label)
        eig = np.array(eigenvalues, dtype=float)
        if eig.ndim != 1 or eig.size < 1:
            raise InputError("beable eigenvalues must be a non-empty vector")
        k = eig.size
        if len(projectors) != k:
            raise InputError("one projector per cell is required")
        dim = projectors[0].dim
        ident = np.eye(dim)
        total = np.zeros((dim, dim), dtype=complex)
        for p in projectors:
            if p.dim != dim:
                raise InputError("projectors must share one dimension")
            if not p.projector:
                raise InputError("cell projectors must be projector-flagged Operators")
            total += p.entries
        if max_norm(total - ident) > COMPLETENESS_TOL:
            raise InputError(
                f"beable '{label}': projectors do not sum to identity "
                f"(residual {max_norm(total - ident):.3e})"
            )
        for a in range(k):
            for b in range(a + 1, k):
                resid = max_norm(projectors[a].entries @ projectors[b].entries)
                if resid > ORTHOGONALITY_TOL:
                    raise InputError(
                        f"beable '{label}': projectors for cells {a} and {b} "
                        f"are not orthogonal (residual {resid:.3e})"
                    )
        order = tuple(int(i) for i in ordering)
        if sorted(order) != list(range(k)):
            raise InputError(
                f"beable '{label}': ordering {order} is not a permutation of 0..{k - 1}"
            )
        eig.setflags(write=False)
        self.eigenvalues = eig
        self.projectors = list(projectors)
        # one copy of the matrices: each projector's entries become a
        # read-only view of its rows in the stack
        stacked = np.concatenate([p.entries for p in self.projectors])
        stacked.setflags(write=False)
        for n, p in enumerate(self.projectors):
            p.entries = stacked[n * dim:(n + 1) * dim]
        self.stacked_projectors = stacked
        self.ordering = order
        self.dim = dim
        self.n_cells = k
        recon = np.zeros((dim, dim), dtype=complex)
        for n in range(k):
            recon += eig[n] * projectors[n].entries
        self.matrix = Operator(recon, hermitian=True)

    def __repr__(self):
        return f"BeableOperator('{self.label}', dim={self.dim}, cells={self.n_cells})"

    @property
    def lambda_min(self) -> float:
        return -0.5

    @property
    def lambda_max(self) -> float:
        return self.n_cells - 0.5


def from_hermitian(xi: Operator, degeneracy_tol: float = DEGENERACY_TOL,
                   ordering=None, label: str = "beable") -> BeableOperator:
    """Build a BeableOperator from a Hermitian operator.

    Eigenvalues closer than ``degeneracy_tol * max(1, ||xi||_max)`` are
    grouped into one cell whose projector is the sum of the group's
    eigenvector outer products. Cells are packed gap-free: ascending
    eigenvalue order by default, or the supplied ``ordering`` permutation
    (spectral group index -> cell integer).
    """
    if not xi.hermitian:
        raise InputError("beables must be built from hermitian-flagged operators")
    if degeneracy_tol < 0:
        raise InputError("degeneracy_tol must be non-negative")
    w, v = np.linalg.eigh(xi.entries)
    tol_abs = degeneracy_tol * max(1.0, max_norm(xi.entries))
    groups = [[0]]
    for i in range(1, w.size):
        if w[i] - w[groups[-1][-1]] <= tol_abs:
            groups[-1].append(i)
        else:
            groups.append([i])
    k = len(groups)
    if ordering is None:
        order = tuple(range(k))
    else:
        order = tuple(int(i) for i in ordering)
        if sorted(order) != list(range(k)):
            raise InputError(
                f"ordering {order} is not a permutation of 0..{k - 1} "
                f"({k} spectral groups found)"
            )
    eigenvalues = np.empty(k)
    projectors: list = [None] * k
    for spectral_index, idx in enumerate(groups):
        cols = v[:, idx]
        proj = cols @ cols.conj().T
        cell = order[spectral_index]
        eigenvalues[cell] = float(np.mean(w[idx]))
        projectors[cell] = Operator(proj, hermitian=True, projector=True)
    b = BeableOperator(label, eigenvalues, projectors, order)
    recon_tol = max(degeneracy_tol, 1e-9) * max(1.0, max_norm(xi.entries))
    resid = max_norm(b.matrix.entries - xi.entries)
    if resid > recon_tol:
        raise NumericError(
            f"beable '{label}': spectral reconstruction residual {resid:.3e} "
            f"exceeds {recon_tol:.3e}"
        )
    return b


class BeableSet:
    """An ordered list of mutually commuting beables on one Hilbert space.

    ``validate_commuting_set`` adds their joint eigenbasis: the unitary
    ``basis`` (columns are joint eigenvectors) and ``labels`` of shape
    (L, dim), the cell of beable ell that holds basis column a.
    """

    __slots__ = ("beables", "dim", "basis", "labels")

    def __init__(self, beables):
        beables = list(beables)
        if not beables:
            raise InputError("a beable set needs at least one beable")
        dim = beables[0].dim
        for b in beables:
            if b.dim != dim:
                raise InputError("all beables must share one Hilbert-space dimension")
        self.beables = beables
        self.dim = dim

    def __len__(self):
        return len(self.beables)

    def __iter__(self):
        return iter(self.beables)

    def __getitem__(self, i):
        return self.beables[i]

    @property
    def cell_counts(self) -> tuple:
        return tuple(b.n_cells for b in self.beables)

    def lambda_config(self, values) -> "LambdaConfig":
        return LambdaConfig(values, self)


def _joint_eigenbasis(beables) -> tuple:
    """(basis, labels) by successive refinement: beable m's cell-index
    operator sum_n n P(n) is diagonalised inside each joint eigenspace of
    beables 0..m-1. Its eigenvalues are the cell integers, a unit apart, so
    close eigenvalues of a beable or coinciding sums of eigenvalues of
    several beables cannot mix cells."""
    dim = beables[0].dim
    basis = np.eye(dim, dtype=complex)
    labels = np.zeros((len(beables), dim), dtype=np.intp)
    blocks = [np.arange(dim)]
    for ell, b in enumerate(beables):
        cell_op = sum(n * p.entries for n, p in enumerate(b.projectors))
        for idx in blocks:
            cols = basis[:, idx]
            w, v = np.linalg.eigh(cols.conj().T @ cell_op @ cols)
            basis[:, idx] = cols @ v
            labels[ell, idx] = np.clip(np.rint(w), 0, b.n_cells - 1)
        blocks = [idx[labels[ell, idx] == n] for idx in blocks for n in np.unique(labels[ell, idx])]
    for ell, b in enumerate(beables):
        for n, p in enumerate(b.projectors):
            cols = basis[:, labels[ell] == n]
            resid = max_norm(p.entries @ cols - cols)
            if resid > ORTHOGONALITY_TOL:
                raise NumericError(
                    f"beable '{b.label}': joint eigenbasis vectors labelled cell {n} "
                    f"leave that cell (residual {resid:.3e})"
                )
    basis.setflags(write=False)
    labels.setflags(write=False)
    return basis, labels


def validate_commuting_set(beables) -> BeableSet:
    """Check pairwise commutation of the reconstructed beable operators and
    build the set's joint eigenbasis.

    Tolerance is 1e-10 * ||xi_a|| * ||xi_b|| (max norms); violations name
    the offending pair and the measured commutator norm. Raises NumericError
    if a joint eigenvector does not lie in exactly one cell of every beable.
    """
    s = BeableSet(beables)
    for a in range(len(s)):
        for b in range(a + 1, len(s)):
            ma, mb = s[a].matrix.entries, s[b].matrix.entries
            resid = max_norm(ma @ mb - mb @ ma)
            bound = COMMUTATION_TOL * max(max_norm(ma), 1e-300) * max(max_norm(mb), 1e-300)
            if resid > bound:
                raise InputError(
                    f"beables '{s[a].label}' (index {a}) and '{s[b].label}' (index {b}) "
                    f"do not commute: ||[a,b]||_max = {resid:.3e} > {bound:.3e}"
                )
    s.basis, s.labels = _joint_eigenbasis(s.beables)
    return s


class LambdaConfig:
    """The lambda coordinate vector carried by one trajectory."""

    __slots__ = ("values",)

    def __init__(self, values, beable_set: BeableSet):
        v = np.array(values, dtype=float)
        if v.ndim != 1 or v.size != len(beable_set):
            raise InputError(
                f"lambda vector must have length {len(beable_set)}, got shape {v.shape}"
            )
        check_lambda_domain(v, beable_set)
        v.setflags(write=False)
        self.values = v

    def __repr__(self):
        return f"LambdaConfig({list(self.values)})"


def check_lambda_domain(values: np.ndarray, beable_set: BeableSet) -> None:
    """Raise InputError naming the first entry of values (..., L), in row
    order, outside its beable's half-open domain [lambda_min, lambda_max)
    (a NaN is outside)."""
    low = np.array([b.lambda_min for b in beable_set])
    high = np.array([b.lambda_max for b in beable_set])
    outside = ~((low <= values) & (values < high))
    if outside.any():
        first = np.unravel_index(int(np.argmax(outside)), values.shape)
        ell = int(first[-1])
        b = beable_set[ell]
        raise InputError(
            f"lambda[{ell}] = {values[first]:.12g} outside "
            f"[{b.lambda_min:g}, {b.lambda_max:g}) for beable '{b.label}'"
        )


def cell_index(b: BeableOperator, lam: float) -> int:
    """Nearest-integer cell of a lambda value; exact halves round up.

    The closed top boundary K - 1/2 maps to the top cell K - 1 so that the
    boundary identities for the lower projector and the current hold.
    """
    lam = float(lam)
    k = b.n_cells
    if not (-0.5 <= lam <= k - 0.5):
        raise NumericError(
            f"lambda = {lam:.12g} outside [-0.5, {k - 0.5:g}] for beable "
            f"'{b.label}' (integrator escape?)"
        )
    n = int(math.floor(lam + 0.5))
    return k - 1 if n == k else n


def eigenvalue_at(b: BeableOperator, lam: float) -> float:
    """The beable's physical value at lambda (piecewise constant)."""
    return float(b.eigenvalues[cell_index(b, lam)])
