"""Quantum probability, symmetrized currents, and lambda-trajectory integration.

The velocity field is v_ell = J_ell / P where P is the expectation of the
product of cell projectors and J_ell is the (ordering-averaged) expectation
of the current operator sandwiched between the other beables' projectors.
P is constant and J_ell affine in lambda_ell inside a cell, so the ODE
right-hand side is piecewise smooth with jumps only at half-integer cell
boundaries. Integration steps an embedded Dormand-Prince 4(5) pair with the
cell assignment held fixed during each step, and its step control places
every cell crossing to CROSSING_TOL in lambda by three rules:

1. Before a trial step, a component moving toward an interior cell
   boundary (never a domain end, where J = 0) whose linear prediction from
   the step's first stage reaches that boundary within the step shortens
   the step to land CROSSING_TOL / 2 past it. It crosses in place instead
   if it is already within CROSSING_TOL of the boundary, or if the
   shortened step would fall below the time resolution 1e-14 max(1, |t|).
2. An error-accepted trial that escapes its cell by more than CROSSING_TOL
   is retried from the same point, shortened to the first boundary contact
   of the step's cubic Hermite interpolant.
3. A trial that escapes by at most CROSSING_TOL is accepted; its escaped
   components are snapped onto their boundaries and step into the next
   cell. Escaping through a domain end raises NumericError.

Accepted aimed and retried steps leave the controller's step size
unchanged; a rejected one shrinks it like any rejected step.

A step holds its cells and the state advances by known phases, so the
forms that P and J are made of depend on neither lambda nor the trajectory
and are known at all five new stage times t + c h of a step before it
starts. The one-trajectory integrator takes them from one stacked product
per step; the ensemble block reads them from per-tuple Chebyshev tables in
time (see tables.FormTables), which differ from the direct forms only by
roundoff. The forms are real: a tuple's operators are checked for
Hermiticity once, when they are built (VelocityField._tuple_ops). Either
way the five stage rows meet the node floor once per step, with the outcome
of one velocity call per stage (_stage_nodes), and each stage then only
combines its row with its own lambda: L numbers, which the one-trajectory
step combines in Python floats (_float_step) with the block's per-row
arithmetic. The pair is FSAL: a step's last stage is f(t + h, y_new), so it
is the next step's first stage unless the step crossed a boundary. One
trajectory also carries it across a record time that t + h hits exactly;
the block takes a fresh first stage after every record.

P, the cell distribution and J are built in the beables' joint eigenbasis,
where cell projectors are 0/1 masks, and evaluated in the Hamiltonian
eigenbasis, where states advance by pure phases. quantum_probability and
symmetrized_current are the independent dense-operator references.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .beables import BeableSet, LambdaConfig, cell_index, current_operator
from .errors import InputError, NodeError, NumericError
from .linalg import Propagator, QuantumState
from .tables import FormTables

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11
DEFAULT_NODE_FLOOR = 1e-12
CROSSING_TOL = 1e-12
_HALF_TOL = 0.5 * CROSSING_TOL
CURRENT_IMAG_TOL = 1e-9
MAX_STEPS = 1_000_000


class Symmetrization(str, Enum):
    """How the current's operator ordering is made real."""

    SYMMETRIC_AVERAGE = "symmetric_average"
    ORDERED_REAL_PART = "ordered_real_part"


class TrajectoryStatus(str, Enum):
    COMPLETED = "completed"
    NODE_ABORTED = "node_aborted"


def _subset_weights(n_beables: int) -> list:
    """Weight of placing k of the other L-1 projectors left of the current.

    Averaging over all L! orderings of the L operators in the braces gives
    weight k! (L-1-k)! / L! to each left-subset of size k; for L = 3 these
    are 2/6, 1/6, 1/6, 2/6.
    """
    total = math.factorial(n_beables)
    return [
        math.factorial(k) * math.factorial(n_beables - 1 - k) / total
        for k in range(n_beables)
    ]


def _ordering_weights(inside: np.ndarray, symmetrization: Symmetrization) -> list:
    """Weight W_ell[a, b] of joint-basis pair (a, b) in the current J_ell
    sandwiched by the other beables' cell projectors; ``inside[m, a]`` says
    whether basis vector a lies in beable m's cell.

    Ordered: the projectors m < ell act on a, those m > ell on b. Symmetric
    average: W = 0 if another cell holds neither a nor b; cells holding both
    act as identity, and the r cells holding only a must all sit left of the
    current and the s holding only b right of it, which a uniform ordering
    does with probability r! s! / (r + s + 1)!. (Summing the subset weights
    over the free placements of the cells holding both gives the same.)
    """
    n_b = inside.shape[0]
    if symmetrization is Symmetrization.ORDERED_REAL_PART:
        return [np.outer(inside[:ell].all(axis=0), inside[ell + 1:].all(axis=0)).astype(float)
                for ell in range(n_b)]
    table = np.array([[_subset_weights(r + s + 1)[r] for s in range(n_b)] for r in range(n_b)])
    ins = inside.astype(np.intp)
    only_a = ins[:, :, None] * (1 - ins)[:, None, :]
    neither = (1 - ins)[:, :, None] * (1 - ins)[:, None, :]
    r_all, n_all = only_a.sum(axis=0), neither.sum(axis=0)
    out = []
    for ell in range(n_b):
        r = r_all - only_a[ell]
        out.append(np.where(n_all == neither[ell], table[r, r.T], 0.0))
    return out


def _resolve_cells(beable_set: BeableSet, cells) -> tuple:
    if len(cells) != len(beable_set):
        raise InputError("one cell index per beable is required")
    out = []
    for ell, b in enumerate(beable_set):
        n = int(cells[ell])
        if n != cells[ell] or not (0 <= n < b.n_cells):
            raise InputError(
                f"cell index {cells[ell]} out of range 0..{b.n_cells - 1} "
                f"for beable '{b.label}'"
            )
        out.append(n)
    return tuple(out)


def _lambda_values(beable_set: BeableSet, lambdas, strict: bool = False) -> np.ndarray:
    """Coerce a lambda vector. strict=True enforces the half-open trajectory
    domain; otherwise the closed top boundary stays evaluable (boundary
    values like L = identity and J = 0 live there) and any true range
    violation surfaces through cell_index."""
    if isinstance(lambdas, LambdaConfig):
        return lambdas.values
    if strict:
        return LambdaConfig(lambdas, beable_set).values
    v = np.asarray(lambdas, dtype=float)
    if v.ndim != 1 or v.size != len(beable_set):
        raise InputError(
            f"lambda vector must have length {len(beable_set)}, got shape {v.shape}"
        )
    return v


def quantum_probability(state: QuantumState, beable_set: BeableSet, cells) -> float:
    """P(cells, t) = <t| prod_ell P_ell(n_ell) |t>.

    Real up to roundoff because the projectors commute; lies in
    [-1e-10, 1 + 1e-10] and sums to 1 over all cell tuples.
    """
    if state.dim != beable_set.dim:
        raise InputError(f"dimension mismatch: state {state.dim}, set {beable_set.dim}")
    cells = _resolve_cells(beable_set, cells)
    vec = state.amplitudes
    for ell, b in enumerate(beable_set):
        vec = b.projectors[cells[ell]].entries @ vec
    p = complex(np.vdot(state.amplitudes, vec))
    if abs(p.imag) > 1e-10:
        raise NumericError(f"probability has imaginary part {p.imag:.3e}")
    if not (-1e-10 <= p.real <= 1.0 + 1e-10):
        raise NumericError(f"probability {p.real:.12g} outside [0, 1]")
    return p.real


def all_cell_tuples(beable_set: BeableSet) -> list:
    """Every joint cell assignment, in row-major (last index fastest) order."""
    return list(itertools.product(*(range(k) for k in beable_set.cell_counts)))


def quantum_distribution(state: QuantumState, beable_set: BeableSet):
    """Exact distribution over all cell tuples, summing |<a|t>|^2 over the
    joint basis vectors a of each tuple; checks it sums to 1."""
    if state.dim != beable_set.dim:
        raise InputError(f"dimension mismatch: state {state.dim}, set {beable_set.dim}")
    tuples = all_cell_tuples(beable_set)
    weights = np.abs(beable_set.basis.conj().T @ state.amplitudes) ** 2
    flat = np.ravel_multi_index(beable_set.labels, beable_set.cell_counts)
    probs = np.bincount(flat, weights=weights, minlength=len(tuples))
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-8:
        raise NumericError(f"cell-tuple probabilities sum to {total:.12g}, not 1")
    return tuples, probs


def symmetrized_current(state: QuantumState, beable_set: BeableSet, ell: int,
                        lambdas, prop: Propagator,
                        symmetrization: Symmetrization = Symmetrization.SYMMETRIC_AVERAGE,
                        ) -> float:
    """J_ell(Lambda, t): ordering-averaged current expectation (reference path).

    For the symmetric average, each subset A of the other beables' projectors
    contributes weight |A|! (L-1-|A|)! / L! with the subset applied left of
    the current operator and the complement right. The averaged operator is
    Hermitian, so the imaginary residue must stay below 1e-9 and is asserted
    before truncation. The ordered variant takes the real part of the single
    canonical ordering instead.
    """
    lam = _lambda_values(beable_set, lambdas)
    if state.dim != beable_set.dim:
        raise InputError(f"dimension mismatch: state {state.dim}, set {beable_set.dim}")
    ell = int(ell)
    n_b = len(beable_set)
    if not 0 <= ell < n_b:
        raise InputError(f"beable index {ell} out of range")
    j_mat = current_operator(beable_set[ell], lam[ell], prop).entries
    psi = state.amplitudes
    others = [m for m in range(n_b) if m != ell]
    proj = {m: beable_set[m].projectors[cell_index(beable_set[m], lam[m])].entries
            for m in others}

    if symmetrization is Symmetrization.ORDERED_REAL_PART:
        left = psi.copy()
        for m in reversed([m for m in others if m < ell]):
            left = proj[m] @ left
        right = psi.copy()
        for m in reversed([m for m in others if m > ell]):
            right = proj[m] @ right
        return complex(np.vdot(left, j_mat @ right)).real

    weights = _subset_weights(n_b)
    value = 0.0 + 0.0j
    for mask in range(1 << len(others)):
        left = psi
        right = psi
        size = 0
        for i, m in enumerate(others):
            if mask >> i & 1:
                left = proj[m] @ left
                size += 1
            else:
                right = proj[m] @ right
        value += weights[size] * complex(np.vdot(left, j_mat @ right))
    if abs(value.imag) > CURRENT_IMAG_TOL:
        raise NumericError(
            f"symmetrized current has imaginary part {value.imag:.3e} "
            f"(must be <= {CURRENT_IMAG_TOL:g})"
        )
    return value.real


class VelocityField:
    """The deterministic guidance field v = J / P for one model.

    Immutable and shareable between trajectory workers. The operators of
    each visited cell tuple are built in the beables' joint eigenbasis,
    where every projector is a 0/1 mask and the ordering-averaged current
    is a weighted Hadamard product with H, then rotated once into the
    Hamiltonian eigenbasis, where states advance by pure phases. They are
    cached as one stack [Pi, X_0..X_{L-1}, Y_ell of each interior cell], so
    the quadratic forms of P = <Pi> and J_ell = u_ell <X_ell> + <Y_ell> for
    any number of states come from one GEMM and one per-row product. Y_ell
    is 0 in a beable's bottom cell and exactly -X_ell in its top cell, so it
    is stored only for an interior cell: a tuple of two-cell beables stacks
    L + 1 matrices, not 2L + 1, and its Y forms are read off its X forms.

    Each tuple's stack is checked once, when it is built, so that every
    form is real for every state (see _tuple_ops). The forms depend only on
    the tuple and the state, never on lambda, so the integrators take them
    for many stage times at once (from one _forms call, or from tables in
    time filled by _forms calls) and check the node floor and combine them
    with each stage's lambda themselves.
    """

    def __init__(self, beable_set: BeableSet, propagator: Propagator,
                 symmetrization: Symmetrization = Symmetrization.SYMMETRIC_AVERAGE,
                 node_floor: float = DEFAULT_NODE_FLOOR):
        if beable_set.dim != propagator.dim:
            raise InputError(
                f"dimension mismatch: beables {beable_set.dim}, "
                f"propagator {propagator.dim}"
            )
        if node_floor < 0:
            raise InputError("node_floor must be non-negative")
        self.beable_set = beable_set
        self.propagator = propagator
        self.symmetrization = Symmetrization(symmetrization)
        self.node_floor = float(node_floor)

        v = propagator.basis
        e = propagator.energies
        self._energies = e
        self._basis = v
        self.n_beables = len(beable_set)
        # joint beable basis -> Hamiltonian eigenbasis, and H in the joint basis
        self._rotation = v.conj().T @ beable_set.basis
        self._h_joint = (self._rotation.conj().T * e) @ self._rotation
        self._imag_tol = CURRENT_IMAG_TOL * max(1.0, float(np.max(np.abs(e))) if e.size else 1.0)
        self._tuple_cache = {}

    def state_coefficients(self, state: QuantumState) -> np.ndarray:
        """Expand a state in the Hamiltonian eigenbasis."""
        if state.dim != self.propagator.dim:
            raise InputError(
                f"dimension mismatch: state {state.dim}, field {self.propagator.dim}"
            )
        return self._basis.conj().T @ state.amplitudes

    def _tuple_ops(self, cells: tuple):
        """Operator stack, lambda shift and form expansion for one joint cell
        assignment; built on first use, checked once and cached.

        The forms are real for every state: Pi is Hermitian, and so are X_ell
        and Y_ell under the symmetric average (the ordered variant takes the
        real part by construction). So the imaginary parts are bounded here,
        once per tuple, and never on the forms: for a unit state
        |Im <A>| <= dim max|A - A^H| / 2. Pi's bound must stay within 1e-10
        and, under the symmetric average, X_ell's plus Y_ell's bound within
        the current tolerance; Y_ell's bound is read through expand, like its
        form. The bounds do not depend on lambda, so a stage input far outside
        its cell (u up to 1e9) cannot magnify roundoff past them.
        Returns (gemm, shift, expand); see _tuple_stack.
        """
        ops = self._tuple_cache.get(cells)
        if ops is not None:
            return ops
        gemm, expand = self._tuple_stack(cells)
        dim = gemm.shape[0]
        # ops[k, i, j] sits at [j, k, i] of the (dim, K, dim) view, so
        # ops[k]^H sits there in the conjugate of its (2, 1, 0) transpose
        stored = gemm.reshape(dim, -1, dim)
        anti = np.abs(stored - stored.transpose(2, 1, 0).conj()).max(axis=(0, 2))
        # a column of expand holds at most one nonzero, 1 or -1
        bound = (0.5 * dim * anti[:, None] * np.abs(expand)).sum(axis=0)
        if bound[0] > 1e-10:
            raise NumericError(f"probability has imaginary part {bound[0]:.3e}")
        if self.symmetrization is Symmetrization.SYMMETRIC_AVERAGE:
            n_b = self.n_beables
            for ell, current in enumerate((bound[1:n_b + 1] + bound[n_b + 1:]).tolist()):
                if current > self._imag_tol:
                    raise NumericError(
                        f"current component {ell} has imaginary part {current:.3e} "
                        "(|Im X| + |Im Y| of its forms)"
                    )
        ops = (gemm, 0.5 - np.asarray(cells, dtype=float), expand)
        self._tuple_cache[cells] = ops
        return ops

    def _tuple_stack(self, cells: tuple):
        """The operator stack of one joint cell assignment and its form
        expansion, unchecked.

        L_ell is diagonal in the joint basis, so J_ell = u X_ell + Y_ell with
        u = lambda_ell + shift_ell, shift = 1/2 - cells, X_ell[a, b] =
        i (d_a - d_b) H[a, b] for the mask d of cell n and Y_ell the same for
        the mask of the cells below. Below the bottom cell that mask is empty,
        so Y_ell = 0; below the top cell it is 1 - d, so Y_ell = -X_ell, and
        rot @ (-x) @ rot^H is -(rot @ x @ rot^H) exactly. So only an interior
        cell's Y_ell is stored: ops is the stack [Pi, X_0..X_{L-1}, Y_ell for
        each interior ell], K = L + 1 matrices for two-cell beables. The 0 /
        +-1 matrix expand (K, 2L + 1) maps the stack's forms to all 2L + 1
        forms [P, X_0..X_{L-1}, Y_0..Y_{L-1}]: each stored form once, a top
        cell's Y form as the negated X form and a bottom cell's as 0.

        The stack is stored only in the layout _forms multiplies by: the
        contiguous (dim, K dim) matrix gemm with gemm[j, k dim + i] =
        ops[k, i, j], so that rows (n, dim) @ gemm gives every row's K images
        in one BLAS product. Returns (gemm, expand).
        """
        rot = self._rotation
        n_b = self.n_beables
        column = np.asarray(cells)[:, None]
        inside = self.beable_set.labels == column
        below = (self.beable_set.labels < column).astype(float)
        occupied = rot[:, inside.all(axis=0)]
        tops = [k - 1 for k in self.beable_set.cell_counts]
        n_interior = sum(0 < n < top for n, top in zip(cells, tops))
        dim = rot.shape[0]
        gemm = np.empty((dim, 1 + n_b + n_interior, dim), dtype=complex)
        stack = gemm.transpose(1, 2, 0)
        stack[0] = occupied @ occupied.conj().T
        expand = np.zeros((stack.shape[0], 2 * n_b + 1), dtype=complex)
        expand[:1 + n_b, :1 + n_b] = np.eye(1 + n_b)
        weights = _ordering_weights(inside, self.symmetrization)
        d_in = inside.astype(float)
        slot = 1 + n_b
        for ell, w in enumerate(weights):
            weighted = 1j * w * self._h_joint
            x_mat = weighted * (d_in[ell][:, None] - d_in[ell][None, :])
            stack[1 + ell] = rot @ x_mat @ rot.conj().T
            if 0 < cells[ell] < tops[ell]:
                y_mat = weighted * (below[ell][:, None] - below[ell][None, :])
                stack[slot] = rot @ y_mat @ rot.conj().T
                expand[slot, 1 + n_b + ell] = 1.0
                slot += 1
            elif cells[ell] > 0:
                expand[1 + ell, 1 + n_b + ell] = -1.0
        return gemm.reshape(dim, -1), expand

    def _forms(self, coeff: np.ndarray, cells: tuple):
        """All 2L + 1 quadratic forms [P, X_0..X_{L-1}, Y_0..Y_{L-1}] of the
        tuple, real (see _tuple_ops), and its lambda shift. A stack of rows
        (n, dim) gives (n, 2L + 1) forms and one row (dim,) gives (2L + 1,).

        The images ops @ row of every row come from one GEMM, rows @ gemm,
        and each row's forms from its own (K, dim) @ (dim,) product with its
        conjugate. A GEMM row's bits do not depend on the other rows, but a
        one-row product goes to BLAS's GEMV kernel, whose bits differ; so a
        lone row is padded to two, and a row's forms are bit-identical in
        any block, chunk or worker that holds it (tests check this). A column
        of expand holds at most one nonzero, 1 or -1, so each expanded form is
        a stored form, its exact negation or 0, plus exact zeros."""
        gemm, shift, expand = self._tuple_ops(cells)
        rows = coeff.reshape(-1, coeff.shape[-1])
        n, dim = rows.shape
        images = ((rows if n > 1 else rows.repeat(2, axis=0)) @ gemm)[:n].reshape(n, -1, dim)
        vals = np.matmul(images, rows.conj()[:, :, None])[..., 0].dot(expand).real
        return (vals[0] if coeff.ndim == 1 else vals), shift

    def _currents_of(self, vals: np.ndarray, lam, shift: np.ndarray) -> np.ndarray:
        """J_ell = u_ell X_ell + Y_ell from the forms vals (..., 2L + 1)."""
        n_b = self.n_beables
        return (lam + shift) * vals[..., 1:n_b + 1] + vals[..., n_b + 1:]

    def probability(self, coeff: np.ndarray, cells: tuple) -> float:
        """P of the tuple for coeff (dim,), or (n,) for a stack of states
        (n, dim), row by row equal to single calls."""
        vals = self._forms(coeff, cells)[0]
        return vals[0] if vals.ndim == 1 else vals[:, 0]

    def currents(self, coeff: np.ndarray, lam, cells: tuple) -> np.ndarray:
        """J (L,) for lam (L,). A stack lam (n, L) with one coeff (dim,), or
        with coeff (n, dim), gives (n, L), row by row equal to single calls."""
        vals, shift = self._forms(coeff, cells)
        return self._currents_of(vals, lam, shift)

    def velocities(self, coeff: np.ndarray, lam, cells: tuple, time) -> np.ndarray:
        """v = J / P at one configuration: coeff (dim,), lam (L,), a float
        time. Or at a stack of rows that share the cell tuple: coeff (n, dim),
        lam (n, L) and time (n,), or one float for every row, give (n, L),
        row by row equal to single calls; a NodeError then names the first
        row at a node in ``row``."""
        vals, shift = self._forms(coeff, cells)
        return self._velocities_of(vals, lam, shift, cells, time)

    def _velocities_of(self, vals: np.ndarray, lam, shift, cells, time) -> np.ndarray:
        """v = J / P from forms of one tuple, after the node floor. vals
        (2L + 1,) with lam (L,) is one configuration. vals (n, 2L + 1) with
        lam (n, L) is a stack of rows, whose time, a float or (n,), may
        differ between rows; a NodeError names the first row at a node in
        ``row``."""
        if vals.ndim == 1:
            p = vals[0]
            if p <= self.node_floor:
                raise NodeError(cells, p, time)
            return self._currents_of(vals, lam, shift) / p
        p = vals[:, 0]
        low = np.flatnonzero(p <= self.node_floor)
        if low.size:
            row = int(low[0])
            raise NodeError(cells, p[row], time if np.ndim(time) == 0 else time[row], row=row)
        return self._currents_of(vals, lam, shift) / p[:, None]


def velocity(field: VelocityField, state: QuantumState, lambdas) -> np.ndarray:
    """v_ell = J_ell / P at the cells of the given lambda configuration.

    Raises NodeError (with the offending cell tuple and probability) when
    the configuration sits at or below the node floor.
    """
    lam = _lambda_values(field.beable_set, lambdas)
    cells = tuple(cell_index(b, lam[ell]) for ell, b in enumerate(field.beable_set))
    coeff = field.state_coefficients(state)
    return field.velocities(coeff, lam, cells, state.time)


# Dormand-Prince 5(4) tableau; the last stage row doubles as the 5th-order
# weights, the 7th stage sits at t + h, and the error row is b5 - b4. The
# error row is Python floats, like the stage rows, so that _float_step reads
# them as floats.
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# the five new stage times of a step are t + c h for these c; the 6th and 7th
# stages share t + h, so stage i reads stage row _STAGE_ROW[i]. A step that
# needs a fresh first stage takes it at t + 0 h = t in the same call, at the
# times t + _FRESH_C h.
_STAGE_C = np.array(_DP_C[1:6])
_FRESH_C = np.array(_DP_C[:6])
_STAGE_ROW = (None, 0, 1, 2, 3, 4, 4)
# rows per table evaluation in an ensemble block: its temporaries grow as
# rows x 5 x (2L + 1), which the largest blocks would otherwise hold all at
# once
_FORMS_ROWS = 256


def _tableau_sum(row, k):
    """sum_j row[j] k[j] over the nonzero tableau entries, elementwise, so a
    row of the block never meets another row in a reduction."""
    out = None
    for a, kj in zip(row, k):
        if a:
            out = a * kj if out is None else out + a * kj
    return out


def _dp_stages(y, h, k1, stage):
    """The Dormand-Prince stages of rows y (n, L) with steps h (n, 1) and
    first stages k1 (n, L); stage(i, y_i) is the derivative (n, L) of stage
    i = 1..6 at its input y_i. Each stage input and the error estimate sum
    their nonzero tableau entries left to right, elementwise
    (_tableau_sum), so a row never meets another row. Returns the
    5th-order solution, the error estimate and the seven stages; the 7th
    stage input is the 5th-order solution, so its derivative f(t + h,
    y_new) comes for free."""
    k = [k1]
    for i in range(1, 7):
        yi = y + h * _tableau_sum(_DP_A[i], k)
        k.append(stage(i, yi))
    return yi, h * _tableau_sum(_DP_ERR, k), k


def _forms_stage(forms: np.ndarray, shift: np.ndarray):
    """The stage(i, y_i) of _dp_stages for rows whose real forms (5, n,
    2L + 1) at the five new stage times are known, with lambda shifts
    (n, L): v = ((y_i + shift) X + Y) / P, elementwise."""
    n_b = shift.shape[-1]

    def stage(i, yi):
        vals = forms[_STAGE_ROW[i]]
        return ((yi + shift) * vals[:, 1:n_b + 1] + vals[:, n_b + 1:]) / vals[:, :1]
    return stage


def _float_step(field: VelocityField, vals: np.ndarray, cells: tuple, t: float,
                y: list, h: float, k1: list):
    """One Dormand-Prince step of one trajectory from (t, y) with step h and
    first stage k1, in the cells it holds, with vals the forms (5, 2L + 1)
    at its five new stage times (see _forms_at). Returns the 5th-order
    solution, the error estimate and the last stage f(t + h, y_new), all
    lists of Python floats.

    The stage rows meet the node floor once (_stage_nodes), as in the block
    path; a row at a node raises the NodeError of the first stage that reads
    it, at that stage's time. Then the rows become lists, and every number is
    the one the block path's per-row arithmetic (_dp_stages) gives: each
    stage input and the error sum the nonzero tableau entries left to
    right, and a stage is ((y_i + shift) X + Y) / P. The stages are
    written out one by one, each input inside its stage's comprehension,
    because a loop over the tableau rows costs about a tenth more at L = 5.
    """
    first = _stage_nodes(field, vals[:, :1])
    if first is not None and first[0] < _STAGE_C.size:
        row = int(first[0])
        raise NodeError(cells, vals[row, 0], t + _DP_C[row + 1] * h)
    rows = vals.tolist()
    n_b = len(y)
    shift = [0.5 - n for n in cells]
    (_, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (a71, _, a73, a74, a75, a76)) = _DP_A
    e1, _, e3, e4, e5, e6, e7 = _DP_ERR
    # each row is P, then the X forms (zip stops after L) and the Y forms
    (p2, *r2), (p3, *r3), (p4, *r4), (p5, *r5), (p6, *r6) = rows
    k2 = [((u + h * (a21 * f1) + s) * x + c) / p2
          for u, f1, s, x, c in zip(y, k1, shift, r2, r2[n_b:])]
    k3 = [((u + h * (a31 * f1 + a32 * f2) + s) * x + c) / p3
          for u, f1, f2, s, x, c in zip(y, k1, k2, shift, r3, r3[n_b:])]
    k4 = [((u + h * (a41 * f1 + a42 * f2 + a43 * f3) + s) * x + c) / p4
          for u, f1, f2, f3, s, x, c in zip(y, k1, k2, k3, shift, r4, r4[n_b:])]
    k5 = [((u + h * (a51 * f1 + a52 * f2 + a53 * f3 + a54 * f4) + s) * x + c) / p5
          for u, f1, f2, f3, f4, s, x, c in zip(y, k1, k2, k3, k4, shift, r5, r5[n_b:])]
    k6 = [((u + h * (a61 * f1 + a62 * f2 + a63 * f3 + a64 * f4 + a65 * f5) + s) * x + c) / p6
          for u, f1, f2, f3, f4, f5, s, x, c in zip(y, k1, k2, k3, k4, k5, shift, r6, r6[n_b:])]
    y_new = [u + h * (a71 * f1 + a73 * f3 + a74 * f4 + a75 * f5 + a76 * f6)
             for u, f1, f3, f4, f5, f6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = [((u + s) * x + c) / p6 for u, s, x, c in zip(y_new, shift, r6, r6[n_b:])]
    err = [h * (e1 * f1 + e3 * f3 + e4 * f4 + e5 * f5 + e6 * f6 + e7 * f7)
           for f1, f3, f4, f5, f6, f7 in zip(k1, k3, k4, k5, k6, k7)]
    return y_new, err, k7


def _forms_at(field: VelocityField, coeff0: np.ndarray, m_e: np.ndarray, t0: float,
              cells: tuple, times: np.ndarray):
    """The forms (len(times), 2L + 1) and lambda shift of the state coeff0
    at t0 advanced to each of times by the phases exp(m_e (t - t0)), from
    one stacked _forms call."""
    return field._forms(coeff0 * np.exp(m_e * (times - t0)[:, None]), cells)


def _stage_nodes(field: VelocityField, p: np.ndarray):
    """The node floor on the stage rows of a step, for m rows at once: p
    (S, m) holds P at the S stage times. Returns each row's first stage at a
    node (S if none), as one velocities call per stage over the rows still
    live would find it, or None when no row meets a node."""
    if p.min() > field.node_floor:
        return None
    node = p <= field.node_floor
    return np.where(node.any(axis=0), node.argmax(axis=0), p.shape[0])


@dataclass
class Trajectory:
    """Recorded samples of one integrated lambda trajectory.

    cells (n_rec, L) holds the cells the integrator held at each sample,
    after any crossing at that step, and xis the beables' eigenvalues of
    those cells. They can differ from cell_index of the recorded lambdas,
    which rounds halves up, only at a sample exactly on a boundary: one
    snapped down onto n - 1/2 is already in cell n - 1.
    """

    times: np.ndarray
    lambdas: np.ndarray
    cells: np.ndarray
    xis: np.ndarray
    status: TrajectoryStatus
    abort_time: float | None = None
    abort_cells: tuple | None = None

    @property
    def final_lambdas(self) -> np.ndarray:
        return self.lambdas[-1]


def _record(beable_set: BeableSet, record_times, lambdas, cells, n_recorded: int,
            status: TrajectoryStatus, abort_time=None, abort_cells=None) -> Trajectory:
    """The Trajectory of the first n_recorded samples of record buffers."""
    cells = cells[:n_recorded]
    xis = np.empty(cells.shape)
    for ell, b in enumerate(beable_set):
        xis[:, ell] = b.eigenvalues[cells[:, ell]]
    return Trajectory(times=record_times[:n_recorded], lambdas=lambdas[:n_recorded],
                      cells=cells, xis=xis, status=status,
                      abort_time=abort_time, abort_cells=abort_cells)


def _escapes(y, cells):
    """Components strictly beyond their frozen cell, as (ell, boundary, excess)."""
    out = []
    for ell, n in enumerate(cells):
        if y[ell] > n + 0.5:
            out.append((ell, n + 0.5, y[ell] - (n + 0.5)))
        elif y[ell] < n - 0.5:
            out.append((ell, n - 0.5, (n - 0.5) - y[ell]))
    return out


def _hermite_first_contact(y0, y1, f0, f1, h, escapes):
    """Earliest boundary contact of the step's cubic Hermite interpolant.

    Scalar bisection per escaped component; returns (theta, ell, boundary).
    """
    best = (1.0, escapes[0][0], escapes[0][1])
    for ell, boundary, _ in escapes:
        c0 = y0[ell]
        c1 = h * f0[ell]
        c2 = 3.0 * (y1[ell] - y0[ell]) - h * (2.0 * f0[ell] + f1[ell])
        c3 = 2.0 * (y0[ell] - y1[ell]) + h * (f0[ell] + f1[ell])
        sign_out = 1.0 if y1[ell] > boundary else -1.0
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            val = c0 + mid * (c1 + mid * (c2 + mid * c3))
            if sign_out * (val - boundary) > 0.0:
                hi = mid
            else:
                lo = mid
        if hi < best[0]:
            best = (hi, ell, boundary)
    return best


def _retry_step(y, y_new, f0, f1, h, esc):
    """Rule 2: the step to retry from y, ending at the first contact of the
    Hermite interpolant (half the step if that rounds to its end), when the
    accepted step to y_new escapes by more than CROSSING_TOL; else None."""
    if not esc or max(e[2] for e in esc) <= CROSSING_TOL:
        return None
    theta = _hermite_first_contact(y, y_new, f0, f1, h, esc)[0]
    return theta * h if theta < 1.0 else 0.5 * h


def _aim(h, y, f, cells, n_cells, res):
    """Rule 1 for one trajectory in Python floats, y and f lists: returns the
    aimed step (None if the prediction y + h f reaches no interior boundary)
    and the (ell, boundary) pairs to cross in place."""
    h_aim = None
    now = []
    for ell, (lam, v, n, top) in enumerate(zip(y, f, cells, n_cells)):
        d = h * v
        if d > 0.0 and n + 1 < top:
            s, gap = 1.0, n + 0.5 - lam
        elif d < 0.0 and n > 0:
            s, gap = -1.0, n - 0.5 - lam
        else:
            continue
        if s * gap > s * d:
            continue
        h_a = (gap + s * _HALF_TOL) / v
        if s * gap <= CROSSING_TOL or abs(h_a) < res:
            now.append((ell, n + 0.5 * s))
        elif h_aim is None or abs(h_a) < abs(h_aim):
            h_aim = h_a
    return h_aim, now


def _aim_rows(h, y, f, cell_arr, n_cells, res):
    """_aim for rows (n, L), with the same arithmetic elementwise: returns
    |aimed step| per row (inf if none), the mask of components to cross in
    place and the boundary each component moves toward."""
    d = h[:, None] * f
    s = np.sign(d)
    boundary = cell_arr + 0.5 * s
    gap = boundary - y
    beyond = cell_arr + s
    reach = (d != 0.0) & (s * gap <= s * d) & (beyond >= 0) & (beyond < n_cells)
    with np.errstate(divide="ignore", invalid="ignore"):
        h_a = (gap + s * _HALF_TOL) / f
    now = reach & ((s * gap <= CROSSING_TOL) | (np.abs(h_a) < res[:, None]))
    aim = np.where(reach & ~now, np.abs(h_a), np.inf).min(axis=1)
    return aim, now, boundary


def _cross(y, cells, crossings, n_cells, t):
    """Rule 3 and the in-place crossing: snap each (ell, boundary, ...) of
    crossings exactly onto its boundary and step its cell across it; returns
    (y, cells). Crossing a domain end raises NumericError."""
    y = y.copy()
    cells = list(cells)
    for ell, boundary, *_ in crossings:
        n = cells[ell] + (1 if boundary > cells[ell] else -1)
        if not 0 <= n < n_cells[ell]:
            raise NumericError(f"lambda[{ell}] reached the domain boundary {boundary:g} at "
                               f"t = {t:.12g}, where the current vanishes: integrator escape")
        y[ell] = boundary
        cells[ell] = n
    return y, tuple(cells)


def _first_step(f, span: float, sgn: float):
    """Initial step from the local velocity scale, for one f (L,) or a stack
    of rows (n, L)."""
    h0 = 0.1 * span if span > 0 else 1e-3
    vmax = np.max(np.abs(f), axis=-1)
    with np.errstate(divide="ignore"):
        h0 = np.where(vmax > 0, np.minimum(h0, 0.1 / vmax), h0)
    return sgn * np.maximum(h0, 1e-12)


def _start(beable_set: BeableSet, t0: float, lam0: np.ndarray, record_times):
    """Shared set-up of both integrators for starts lam0 (n, L): the lambda
    and cell record buffers (n, n_rec, L) with the leading time recorded if
    it equals t0, the number recorded, the direction and the start cells
    (n, L)."""
    record_times = np.asarray(record_times, dtype=float)
    n_rec = record_times.size
    cells = np.array([[cell_index(b, row[ell]) for ell, b in enumerate(beable_set)]
                      for row in lam0], dtype=np.intp).reshape(lam0.shape)
    rec = np.empty((lam0.shape[0], n_rec, lam0.shape[1]))
    rec_cells = np.empty(rec.shape, dtype=np.intp)
    rec_i = 0
    if n_rec and record_times[0] == t0:
        rec[:, 0] = lam0
        rec_cells[:, 0] = cells
        rec_i = 1
    sgn = -1.0 if n_rec and record_times[-1] < t0 else 1.0
    return record_times, rec, rec_cells, rec_i, sgn, cells


def _carries(esc: list, t: float, t_end: float) -> bool:
    """Whether an accepted step's last stage, f(t_end, y_new) in the cells
    it held, is the next step's first stage bit for bit: the step crossed
    nothing and it moved t to t_end itself. A step clamped to a record time
    moves t to that time, which can differ from t + h by roundoff; when it
    does not, the fresh first stage would be the same GEMM row."""
    return not esc and t == t_end


def _integrate_on_grid(field: VelocityField, state0: QuantumState, lambda0,
                       record_times, rtol: float, atol: float) -> Trajectory:
    """Drive d lambda/dt = v through the cells, recording at record_times.

    record_times must be monotone away from state0.time (either direction)
    and start at or beyond it; a leading time equal to state0.time records
    the initial configuration. Cell crossings follow the three rules of the
    module docstring. The one-trajectory path of `simulate`, `verify` and
    integrate_trajectory, and the oracle for _integrate_block. Lambda, the
    first stage and the error estimate are lists of Python floats, and a
    step is float arithmetic on them (_float_step); numpy computes only the
    forms and their checks.
    """
    beable_set = field.beable_set
    n_cells = beable_set.cell_counts
    t0 = state0.time
    y = np.array(_lambda_values(beable_set, lambda0, strict=True), dtype=float)
    n_b = len(beable_set)
    coeff0 = field.state_coefficients(state0)
    m_e = -1j * field._energies
    record_times, rec, rec_cells, rec_i, sgn, cells = _start(beable_set, t0, y[None],
                                                             record_times)
    rec, rec_cells, cells = rec[0], rec_cells[0], tuple(cells[0].tolist())
    targets = record_times.tolist()
    n_rec = len(targets)
    if rec_i >= n_rec:
        return _record(beable_set, record_times, rec, rec_cells, rec_i,
                       TrajectoryStatus.COMPLETED)

    t = t0
    retry = None
    try:
        f_now = field.velocities(coeff0 * np.exp(m_e * (t - t0)), y, cells, t).tolist()
        h = float(_first_step(f_now, abs(targets[-1] - t0), sgn))
        y = y.tolist()

        steps = 0
        while rec_i < n_rec:
            steps += 1
            if steps > MAX_STEPS:
                raise NumericError(f"integration exceeded {MAX_STEPS} steps")
            target = targets[rec_i]
            h_try = h if retry is None else retry
            retry = None
            clamped = (t + h_try - target) * sgn >= 0.0
            if clamped:
                h_try = target - t
                if abs(h_try) < 1e-15 * max(1.0, abs(t)):
                    # target is numerically at t; record and move on
                    rec[rec_i], rec_cells[rec_i] = y, cells
                    rec_i += 1
                    continue
            ahead = None
            if f_now is None:
                # the fresh first stage and the stage forms of a step of h_try
                # from one call; the step uses the latter if it keeps h_try
                vals, shift = _forms_at(field, coeff0, m_e, t0, cells, t + _FRESH_C * h_try)
                f_now = field._velocities_of(vals[0], y, shift, cells, t).tolist()
                ahead = vals[1:]
            h_aim, now = _aim(h_try, y, f_now, cells, n_cells, 1e-14 * max(1.0, abs(t)))
            if now:
                y, cells = _cross(y, cells, now, n_cells, t)
                f_now = None
                continue
            if h_aim is not None and abs(h_aim) < abs(h_try):
                h_try, clamped, ahead = h_aim, False, None
            if ahead is None:
                ahead = _forms_at(field, coeff0, m_e, t0, cells, t + _STAGE_C * h_try)[0]

            y_new, err, k_last = _float_step(field, ahead, cells, t, y, h_try, f_now)
            ratio = [e / (atol + rtol * max(abs(a), abs(b))) for e, a, b in zip(err, y, y_new)]
            enorm = math.sqrt(sum([r * r for r in ratio]) / n_b)
            if enorm > 1.0:
                factor = max(0.2, 0.9 * enorm ** -0.2)
                h = h_try * factor
                if abs(h) < 1e-14 * max(1.0, abs(t)):
                    raise NumericError(
                        f"step size underflow at t = {t:.12g} (h = {h:.3e})"
                    )
                continue
            esc = _escapes(y_new, cells)
            retry = _retry_step(y, y_new, f_now, k_last, h_try, esc)
            if retry is not None:
                continue

            t_end = t + h_try
            t = target if clamped else t_end
            y, cells = _cross(y_new, cells, esc, n_cells, t) if esc else (y_new, cells)
            f_now = k_last if _carries(esc, t, t_end) else None
            if clamped:
                rec[rec_i], rec_cells[rec_i] = y, cells
                rec_i += 1
            elif h_try == h:
                # only a step of the controller's own size adapts it
                h = h_try * (5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2)))
    except NodeError as node:
        return _record(beable_set, record_times, rec, rec_cells, rec_i,
                       TrajectoryStatus.NODE_ABORTED, node.time, node.cells)
    return _record(beable_set, record_times, rec, rec_cells, rec_i, TrajectoryStatus.COMPLETED)


def _integrate_block(field: VelocityField, state0: QuantumState, lam0,
                     record_times, rtol: float, atol: float) -> list:
    """_integrate_on_grid for every row of lam0 (n, L) at once; returns one
    Trajectory per row.

    Rows advance in lockstep, each with its own t, step, cells and status,
    under the same rules: the Dormand-Prince tableau, error norm, accept and
    reject factors, first step, clamping to record times, MAX_STEPS, the
    underflow check and the three crossing rules of the module docstring.
    (1) A row whose linear prediction reaches an interior boundary within
    its trial step aims the step CROSSING_TOL / 2 past it, or crosses in
    place when already within CROSSING_TOL or when the aimed step would
    fall below the time resolution. (2) An accepted step that escapes by
    more than CROSSING_TOL is retried, shortened to the first contact of its
    Hermite interpolant. (3) One that escapes by at most CROSSING_TOL is
    accepted and snapped into the next cell. Crossing rows stay in the
    block. Each lockstep iteration reads the forms of every stepping row at
    its five new stage times from the Chebyshev tables of FormTables over
    [t0, last record time] (one vectorised evaluation per _FORMS_ROWS rows),
    checks the five stage rows against the node floor once in stage order
    (_stage_nodes: the node aborts and abort times of one velocities call per
    stage), drops the rows at a node and runs the six stages as array
    arithmetic.
    A first stage that is not carried over from the last step is one
    stacked VelocityField.velocities call per tuple. A table depends only
    on its tuple, panel and the span, and every other operation is row by
    row (elementwise, a per-row product, or the GEMM inside _forms, whose
    rows are bit-identical in any block), so a row's result does not depend
    on the other rows of the block: any split of an ensemble into blocks
    gives bit-identical results.
    """
    beable_set = field.beable_set
    n_b = len(beable_set)
    n_cells = beable_set.cell_counts
    lam0 = np.asarray(lam0, dtype=float)
    if lam0.ndim != 2 or lam0.shape[1] != n_b:
        raise InputError(f"starts must have shape (n, {n_b}), got {lam0.shape}")
    y = np.array([_lambda_values(beable_set, row, strict=True) for row in lam0],
                 dtype=float).reshape(-1, n_b)
    n = y.shape[0]
    t0 = state0.time
    coeff0 = field.state_coefficients(state0)
    m_e = -1j * field._energies
    record_times, rec, rec_cells, rec_start, sgn, cells = _start(beable_set, t0, y,
                                                                 record_times)
    n_rec = record_times.size
    # one row-major code per row's cells, for grouping
    radix = np.cumprod((1,) + n_cells[:0:-1])[::-1]
    code = cells @ radix
    rec_i = np.full(n, rec_start)
    status = [TrajectoryStatus.COMPLETED] * n
    aborts = [(None, None)] * n
    running = rec_i < n_rec

    def abort(row, node):
        status[row] = TrajectoryStatus.NODE_ABORTED
        aborts[row] = (node.time, node.cells)
        running[row] = False

    # rows go to _escapes and _cross as lists: they loop over components,
    # and numpy scalars make that loop several times slower
    def cross(row, crossings, when):
        y[row], cells[row] = _cross(y[row], cells[row].tolist(), crossings, n_cells, when)
        code[row] = cells[row] @ radix
        fresh[row] = False

    def groups(rows):
        """(positions in rows, cell tuple) for each cell tuple among rows."""
        codes = code[rows]
        order = np.argsort(codes, kind="stable")
        cuts = np.flatnonzero(np.diff(codes[order])) + 1
        return [(pos, tuple(cells[rows[pos[0]]].tolist())) for pos in np.split(order, cuts)]

    def settle(out, ok, rows, pos, call):
        """out[pos] = call(pos) for positions pos of rows. A row at a node
        (the NodeError's ``row``) is aborted, marked False in ok and left
        out of the retry."""
        while pos.size:
            try:
                out[pos] = call(pos)
                return
            except NodeError as node:
                abort(int(rows[pos[node.row]]), node)
                ok[pos[node.row]] = False
                pos = np.delete(pos, node.row)

    def evaluate(rows, ts, ys):
        """f at (ts, ys) of the given rows, one velocities call per cell
        tuple among them; rows at a node are aborted and come back False in
        the returned mask."""
        f = np.zeros_like(ys)
        ok = np.ones(rows.size, dtype=bool)
        coeff = coeff0 * np.exp(m_e * (ts - t0)[:, None])
        for pos, tup in groups(rows):
            settle(f, ok, rows, pos, lambda p: field.velocities(coeff[p], ys[p], tup, ts[p]))
        return f, ok

    tables = FormTables(field, coeff0, t0, record_times[-1] if n_rec else t0)
    t = np.full(n, t0)
    f = np.zeros_like(y)
    fresh = np.zeros(n, dtype=bool)
    h = np.zeros(n)
    retry = np.full(n, np.nan)
    if running.any():
        rows = np.flatnonzero(running)
        f[rows], fresh[rows] = evaluate(rows, t[rows], y[rows])
        h[rows] = _first_step(f[rows], abs(record_times[-1] - t0), sgn)

    steps = 0
    while running.any():
        steps += 1
        if steps > MAX_STEPS:
            raise NumericError(f"integration exceeded {MAX_STEPS} steps")
        act = np.flatnonzero(running)
        ta = t[act]
        target = record_times[rec_i[act]]
        h_try = np.where(np.isnan(retry[act]), h[act], retry[act])
        retry[act] = np.nan
        clamped = (ta + h_try - target) * sgn >= 0.0
        h_try = np.where(clamped, target - ta, h_try)
        # a target numerically at t is recorded without a step
        at = clamped & (np.abs(h_try) < 1e-15 * np.maximum(1.0, np.abs(ta)))
        if at.any():
            rows = act[at]
            rec[rows, rec_i[rows]] = y[rows]
            rec_cells[rows, rec_i[rows]] = cells[rows]
            rec_i[rows] += 1
            running[rows] = rec_i[rows] < n_rec
        stale = act[~at & ~fresh[act]]
        if stale.size:
            f[stale], fresh[stale] = evaluate(stale, t[stale], y[stale])
        # rule 1 on the rows that step (stale f elsewhere is never used)
        go = ~at & running[act]
        aim, now, boundary = _aim_rows(h_try, y[act], f[act], cells[act], n_cells,
                                       1e-14 * np.maximum(1.0, np.abs(ta)))
        now &= go[:, None]
        for i in np.flatnonzero(now.any(axis=1)).tolist():
            cross(int(act[i]), [(ell, boundary[i, ell]) for ell in np.flatnonzero(now[i])], ta[i])
        hit = aim < np.abs(h_try)
        h_try = np.where(hit, sgn * aim, h_try)
        clamped &= ~hit
        go &= ~now.any(axis=1)
        act, ta, target, h_try, clamped = (a[go] for a in (act, ta, target, h_try, clamped))
        if not act.size:
            continue

        # the forms at the five new stage times of every stepping row, from
        # the tables (per _FORMS_ROWS rows), and their node floor in stage order
        frozen = cells[act]
        stage_t = ta[:, None] + _STAGE_C * h_try[:, None]
        rows, x = tables.locate(code[act], stage_t)
        rows, x = rows.T, x.T                   # (5, rows): stage-major
        forms = np.empty((_STAGE_C.size, act.size, 2 * n_b + 1))
        for lo in range(0, act.size, _FORMS_ROWS):
            pos = slice(lo, lo + _FORMS_ROWS)
            forms[:, pos] = tables.evaluate(rows[:, pos].ravel(), x[:, pos].ravel()).reshape(
                _STAGE_C.size, -1, forms.shape[2])
        p_stage = forms[..., 0]
        first = _stage_nodes(field, p_stage)
        if first is not None:
            live = first == _STAGE_C.size
            for pos in np.flatnonzero(~live).tolist():
                at_node = int(first[pos])
                abort(int(act[pos]), NodeError(frozen[pos], p_stage[at_node, pos],
                                               stage_t[pos, at_node]))
            act, ta, target, h_try, clamped, frozen = (
                a[live] for a in (act, ta, target, h_try, clamped, frozen))
            forms = forms[:, live]
            if not act.size:
                continue

        # the Dormand-Prince stages, as array arithmetic on the live rows
        ya = y[act]
        y_new, err, k = _dp_stages(ya, h_try[:, None], f[act], _forms_stage(forms, 0.5 - frozen))
        scale = atol + rtol * np.maximum(np.abs(ya), np.abs(y_new))
        ratio = err / scale
        enorm = np.sqrt((ratio * ratio).sum(axis=1) / n_b)

        rejected = enorm > 1.0
        if rejected.any():
            h_new = h_try[rejected] * np.maximum(0.2, 0.9 * enorm[rejected] ** -0.2)
            tiny = np.flatnonzero(
                np.abs(h_new) < 1e-14 * np.maximum(1.0, np.abs(ta[rejected])))
            if tiny.size:
                raise NumericError(
                    f"step size underflow at t = {ta[rejected][tiny[0]]:.12g} "
                    f"(h = {h_new[tiny[0]]:.3e})"
                )
            h[act[rejected]] = h_new

        accepted = ~rejected
        excess = np.maximum(y_new - (frozen + 0.5), (frozen - 0.5) - y_new).max(axis=1)
        for pos in np.flatnonzero(accepted & (excess > CROSSING_TOL)).tolist():
            retry[act[pos]] = _retry_step(ya[pos], y_new[pos], k[0][pos], k[6][pos], h_try[pos],
                                          _escapes(y_new[pos], cells[act[pos]].tolist()))
        moved = accepted & (excess <= CROSSING_TOL)
        rows = act[moved]
        t[rows] = np.where(clamped[moved], target[moved], ta[moved] + h_try[moved])
        y[rows] = y_new[moved]
        # the last stage is f(t + 1.0 * h, y_new) in the old cells, bit for bit
        f[rows] = k[6][moved]
        fresh[rows] = ~clamped[moved]
        for pos in np.flatnonzero(moved & (excess > 0.0)).tolist():
            row = int(act[pos])
            cross(row, _escapes(y_new[pos], cells[row].tolist()), t[row])

        rows = act[moved & clamped]
        rec[rows, rec_i[rows]] = y[rows]
        rec_cells[rows, rec_i[rows]] = cells[rows]
        rec_i[rows] += 1
        running[rows] = rec_i[rows] < n_rec
        # only a step of the controller's own size adapts it
        pos = np.flatnonzero(moved & ~clamped & (h_try == h[act]))
        with np.errstate(divide="ignore"):
            grow = np.minimum(5.0, np.maximum(0.2, 0.9 * enorm[pos] ** -0.2))
        h[act[pos]] = h_try[pos] * np.where(enorm[pos] == 0.0, 5.0, grow)

    return [_record(beable_set, record_times, rec[row], rec_cells[row], int(rec_i[row]),
                    status[row], *aborts[row])
            for row in range(n)]


def _output_grid(t0: float, t_final: float, output_dt: float) -> np.ndarray:
    """The sample times from t0 to t_final every output_dt, with t_final
    last. Each sample after the first costs at least one step, so a grid of
    more than MAX_STEPS + 1 samples cannot finish and raises InputError
    before it is made."""
    if output_dt <= 0:
        raise InputError("output_dt must be positive")
    span = t_final - t0
    sgn = 1.0 if span >= 0 else -1.0
    if abs(span) / output_dt > MAX_STEPS:
        raise InputError(
            f"t_final = {t_final:g} and output_dt = {output_dt:g} ask for more than "
            f"{MAX_STEPS + 1} samples from t = {t0:g}, more than a run's {MAX_STEPS} steps"
        )
    n = int(math.floor(abs(span) / output_dt + 1e-9))
    times = t0 + sgn * output_dt * np.arange(n + 1)
    if abs(times[-1] - t_final) > 1e-12 * max(1.0, abs(t_final)):
        times = np.append(times, t_final)
    else:
        times[-1] = t_final
    return times


def integrate_trajectory(field: VelocityField, state0: QuantumState, lambda0,
                         t_final: float, output_dt: float,
                         rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> Trajectory:
    """Integrate one lambda trajectory, sampling every output_dt.

    The quantum state advances exactly through the cached eigendecomposition;
    only the lambda coordinates are stepped numerically. t_final may precede
    state0.time (backward integration). A trajectory that reaches a
    configuration with P <= node_floor is returned with whatever samples were
    recorded and status node_aborted rather than being regularized.
    """
    grid = _output_grid(state0.time, float(t_final), float(output_dt))
    return _integrate_on_grid(field, state0, lambda0, grid, rtol, atol)
