"""The guidance field v = J / P and lambda-trajectory integration.

The velocity field is v_ell = J_ell / P where P is the expectation of the
product of cell projectors and J_ell is the (ordering-averaged) expectation
of the current operator sandwiched between the other beables' projectors.
Inside a cell tuple P depends only on t and J_ell is affine in lambda_ell,
so each component obeys its own scalar linear ODE y' = a(t) y + b(t), with
a = X_ell / P and b = ((1/2 - n_ell) X_ell + Y_ell) / P, and the
right-hand side jumps only at half-integer cell boundaries. Integration
holds the cell assignment fixed during each step and takes one exponential
quadrature step (Hochbruck & Ostermann, Acta Numerica 19 (2010) 209) on
the six Radau IIA nodes t + c_i h, c = 0.0398.., 0.1980.., 0.4380..,
0.6955.., 0.9015.., 1:

    A_i = h sum_j S_ij a_j,  S_ij the integral of the Lagrange basis l_j
                             from 0 to c_i (its last row the weights w),
    y_new = exp(A_6) y + h sum_i w_i exp(A_6 - A_i) b_i,

with exp(A_6 - A_i) taken from the tails, the integrals of l_j from c_i
to 1. The local error estimate is the difference to the interpolatory rule
on the five nodes without the fourth, to first order,

    err = y_new h sum_i d_i a_i + h sum_i d_i exp(A_6 - A_i) b_i,

with d = w - w5. The tolerances bound that 5-node rule. The 6-node rule
delivered integrates polynomials of degree 10 exactly, against 4 for the
5-node rule, so its error is far smaller: at rtol 1e-7 the recorded
lambdas stay within about 1e-11 of the oracles on the presets. A step
whose y_new or error is not finite (exp overflows where P is small) is
rejected with the smallest factor. The step control places every cell
crossing to CROSSING_TOL in lambda by three rules:

1. Before a trial step, a component moving toward an interior cell
   boundary (never a domain end, where J = 0) whose linear prediction from
   the step's first stage f(t, y) reaches that boundary within the step
   shortens the step to land CROSSING_TOL / 2 past it. It crosses in place
   instead if it is already within CROSSING_TOL of the boundary, or if the
   shortened step would fall below the time resolution 1e-14 max(1, |t|).
2. An error-accepted trial that escapes its cell by more than CROSSING_TOL
   is retried from the same point, shortened to the first boundary contact
   of the step's cubic Hermite interpolant.
3. A trial that escapes by at most CROSSING_TOL is accepted; its escaped
   components are snapped onto their boundaries and step into the next
   cell. Escaping through a domain end raises NumericError.

Both integrators advance in passes. A pass starts at (t, y, cells) with
the controller's step size h and plans up to _PASS_STEPS steps of size h,
each clamped to the next record time (a pass runs on past record times and
records at the end of each clamped step), so that one evaluation of the
forms serves all of them. Its steps are taken in order, each the step
above with the rules above, and the pass ends at its first event: rule 1
aiming or crossing in place from the step's carried first stage, a node
row at the floor, an error rejection, or an escape (rules 2 and 3 then
apply to that step). The steps before the event are accepted and the rest
are dropped. Then h changes once: a rejection shrinks it from the rejected
step's error norm; otherwise the largest norm among the pass's accepted
steps of size h that no record time clamped sets the factor. An aimed or
retried step is a pass of one step: accepted, it leaves h unchanged;
rejected, it shrinks h like any rejected step. A pass depends only on its
own trajectory, and MAX_STEPS counts steps, not passes.

A step holds its cells and the state advances by known phases, so the
forms that P and J are made of depend on neither lambda nor the trajectory
and are known at all nodes of a pass before it starts. The one-trajectory
integrator takes them from one stacked product per pass; the ensemble
block reads them from per-tuple Chebyshev tables in time (see
tables.FormTables), which differ from the direct forms only by roundoff.
The forms are real: a tuple's operators are checked for Hermiticity once,
when they are built (VelocityField._tuple_ops). Either way the six node
rows meet the node floor once per step, in node order, and the step is
then L independent scalar quadratures. The one-trajectory step computes
them in Python floats (_float_step), the block on arrays (_block_step),
with the same arithmetic: each node sum runs in node order, elementwise,
never through BLAS, so a row's bits do not depend on the block; only the
exponential (math.exp against numpy's) may differ in the last bit. A
step's first stage f(t, y) is needed only by the crossing rules and the
first step size. It is FSAL: the last node's f(t + h, y_new) = a_6 y_new
+ b_6 in the cells the step held starts the next step unless the step
crossed a boundary, also after a step clamped to a record time.

P, the cell distribution and J are built in the beables' joint eigenbasis,
where cell projectors are 0/1 masks, and evaluated in the Hamiltonian
eigenbasis, where states advance by pure phases. The independent
dense-operator references of P and J live in verification; nothing here
calls them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .beables import BeableSet, LambdaConfig, cell_index, check_lambda_domain
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


@functools.cache
def _ordering_table(n_beables: int) -> np.ndarray:
    """r! s! / (r + s + 1)! for r, s = 0..L-1; read-only, built once per L."""
    table = np.array([[math.factorial(r) * math.factorial(s) / math.factorial(r + s + 1)
                       for s in range(n_beables)] for r in range(n_beables)])
    table.setflags(write=False)
    return table


def _ordering_weights(inside: np.ndarray, symmetrization: Symmetrization) -> np.ndarray:
    """Weights W (L, dim, dim): W[ell, a, b] is the weight of joint-basis
    pair (a, b) in the current J_ell sandwiched by the other beables' cell
    projectors; ``inside[m, a]`` says whether basis vector a lies in beable
    m's cell.

    Ordered: the projectors m < ell act on a, those m > ell on b. Symmetric
    average: W = 0 if another cell holds neither a nor b; cells holding both
    act as identity, and the r cells holding only a must all sit left of the
    current and the s holding only b right of it, which a uniform ordering
    does with probability r! s! / (r + s + 1)!. (Summing the subset weights
    over the free placements of the cells holding both gives the same.)
    """
    n_b = inside.shape[0]
    if symmetrization is Symmetrization.ORDERED_REAL_PART:
        return np.array([np.outer(inside[:ell].all(axis=0), inside[ell + 1:].all(axis=0))
                         for ell in range(n_b)], dtype=float)
    table = _ordering_table(n_b)
    ins = inside.astype(np.intp)
    only_a = ins[:, :, None] * (1 - ins)[:, None, :]
    neither = (1 - ins)[:, :, None] * (1 - ins)[:, None, :]
    r = only_a.sum(axis=0) - only_a
    return np.where(neither.sum(axis=0) == neither, table[r, r.transpose(0, 2, 1)], 0.0)


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
    for all nodes of a step at once (from one _forms call, or from tables in
    time filled by _forms calls) and check the node floor and combine them
    with lambda themselves.
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
        form. The bounds do not depend on lambda, so a lambda far outside
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


# The six Radau IIA nodes of a step, t + c h: the zeros of P_6(2c - 1) -
# P_5(2c - 1), with P_k the Legendre polynomials. With l_j the Lagrange basis
# of the nodes, the tails are the integrals of l_j from node i to 1 (i = 1..5),
# the weights w those from 0 to 1, and the error row is d = w - w5, w5 the
# interpolatory weights of the five nodes without the fourth (0 there). Each
# is a 60-digit value rounded to double (tests check them in exact rational
# arithmetic). They are Python floats, which _float_step reads as floats.
_RADAU_C = (0.03980985705146874, 0.19801341787360818, 0.43797481024738616,
            0.6954642733536361, 0.9014649142011736, 1.0)
_RADAU_TAIL = (
    (0.04984418163209981, 0.22735797371024602, 0.24677732016169926,
     0.25306363300053103, 0.15245972021361567, 0.03068731423033949),
    (-0.0074274662923182405, 0.10147514721862126, 0.2880024149501799,
     0.2251968470932568, 0.17147409850145107, 0.023265540655201023),
    (0.0030145225340950654, -0.014721583480941967, 0.1241487123217356,
     0.27234056022268116, 0.14346179776681833, 0.033781180388225654),
    (-0.001328182986193421, 0.0054747097828627906, -0.01593574478596034,
     0.11168757109844198, 0.18469667981007776, 0.01994069372713513),
    (0.0004631912417796185, -0.0017966413973845923, 0.004378019544449875,
     -0.010672340470080692, 0.06738984227455588, 0.038773014605506334),
)
_RADAU_W = (0.10079419262674041, 0.20845066715595387, 0.2604633915947875,
            0.24269359423448497, 0.15982037661025547, 0.027777777777777776)
_RADAU_ERR = (-0.037420088359264254, 0.12001642862179815, -0.19952147953524024,
              0.24269359423448497, -0.22422407101560066, 0.09845561605382204)
# a step's forms are taken at t + _STAGE_C h
_STAGE_C = np.array(_RADAU_C)
# the steps of one size per pass, whose forms come from one evaluation
_PASS_STEPS = 4
# node rows per table evaluation in an ensemble block (those of 256 one-step
# rows): its temporaries grow as node rows x (2L + 1), which the largest
# blocks would otherwise hold all at once
_FORMS_ROWS = 1536


def _float_step(field: VelocityField, vals: np.ndarray, cells: tuple, t: float,
                y: list, h: float):
    """One exponential Radau step of one trajectory from (t, y) with step h,
    in the cells it holds, with vals the forms (6, 2L + 1) at its six nodes
    (see _forms_at). Returns the solution, the error estimate and the last
    node's f(t + h, y_new), all lists of Python floats; a step whose
    exponential overflows returns NaN for all three, which its error norm
    rejects.

    The node rows meet the node floor once, in node order: a row at a node
    raises the NodeError of the first such node, at its time. Then the rows
    become lists, and every number is the one _block_step's elementwise
    arithmetic gives, but for the exponential (math.exp, not numpy's): per
    component a_j = X_j / P_j and b_j = (shift X_j + Y_j) / P_j (see
    _node_rates), then g_j = h a_j, and every quadrature sums its six node
    terms left to right, constant first. The nodes are written out one by
    one: the same arithmetic as loops and sums over the nodes took 2x the
    time at L = 1 and 3.5-3.9x at L = 5.
    """
    rows = vals.tolist()
    p = [row[0] for row in rows]
    if min(p) <= field.node_floor:
        node = next(i for i, q in enumerate(p) if q <= field.node_floor)
        raise NodeError(cells, p[node], t + _RADAU_C[node] * h)
    n_b = len(y)
    # each row is P, then the X forms (zip stops after L) and the Y forms
    (p1, *r1), (p2, *r2), (p3, *r3), (p4, *r4), (p5, *r5), (p6, *r6) = rows
    ((t11, t12, t13, t14, t15, t16), (t21, t22, t23, t24, t25, t26),
     (t31, t32, t33, t34, t35, t36), (t41, t42, t43, t44, t45, t46),
     (t51, t52, t53, t54, t55, t56)) = _RADAU_TAIL
    w1, w2, w3, w4, w5, w6 = _RADAU_W
    d1, d2, d3, d4, d5, d6 = _RADAU_ERR
    exp = math.exp
    y_new, err, f_last = [], [], []
    try:
        for u, n, x1, x2, x3, x4, x5, x6, c1, c2, c3, c4, c5, c6 in zip(
                y, cells, r1, r2, r3, r4, r5, r6,
                r1[n_b:], r2[n_b:], r3[n_b:], r4[n_b:], r5[n_b:], r6[n_b:]):
            s = 0.5 - n
            a6 = x6 / p6
            b6 = (s * x6 + c6) / p6
            g1, g2, g3, g4, g5, g6 = (h * (x1 / p1), h * (x2 / p2), h * (x3 / p3),
                                      h * (x4 / p4), h * (x5 / p5), h * a6)
            q1 = exp(t11 * g1 + t12 * g2 + t13 * g3 + t14 * g4 + t15 * g5 + t16 * g6) \
                * ((s * x1 + c1) / p1)
            q2 = exp(t21 * g1 + t22 * g2 + t23 * g3 + t24 * g4 + t25 * g5 + t26 * g6) \
                * ((s * x2 + c2) / p2)
            q3 = exp(t31 * g1 + t32 * g2 + t33 * g3 + t34 * g4 + t35 * g5 + t36 * g6) \
                * ((s * x3 + c3) / p3)
            q4 = exp(t41 * g1 + t42 * g2 + t43 * g3 + t44 * g4 + t45 * g5 + t46 * g6) \
                * ((s * x4 + c4) / p4)
            q5 = exp(t51 * g1 + t52 * g2 + t53 * g3 + t54 * g4 + t55 * g5 + t56 * g6) \
                * ((s * x5 + c5) / p5)
            v = exp(w1 * g1 + w2 * g2 + w3 * g3 + w4 * g4 + w5 * g5 + w6 * g6) * u \
                + h * (w1 * q1 + w2 * q2 + w3 * q3 + w4 * q4 + w5 * q5 + w6 * b6)
            y_new.append(v)
            err.append(v * (d1 * g1 + d2 * g2 + d3 * g3 + d4 * g4 + d5 * g5 + d6 * g6)
                       + h * (d1 * q1 + d2 * q2 + d3 * q3 + d4 * q4 + d5 * q5 + d6 * b6))
            f_last.append(a6 * v + b6)
    except OverflowError:
        nan = [math.nan] * n_b
        return nan, nan, nan
    return y_new, err, f_last


def _node_rates(forms: np.ndarray, shift: np.ndarray):
    """a = X / P and b = (shift X + Y) / P, each (..., L), from forms
    (..., 2L + 1) and shifts broadcast to (..., L): the ODE y' = a y + b of
    each component in a step's cells. b is the velocity at lambda = 0."""
    n_b = shift.shape[-1]
    x = forms[..., 1:n_b + 1]
    p = forms[..., :1]
    return x / p, (shift * x + forms[..., n_b + 1:]) / p


def _block_step(forms: np.ndarray, shift: np.ndarray, y: np.ndarray, h: np.ndarray):
    """_float_step for a pass of up to k consecutive steps of m rows: steps
    h (m, k), 0 after a row's last step, lambda shifts and starts y (m, L),
    and forms (6, p, 2L + 1) at the six nodes of the p nonzero steps of h in
    row-major order. Step j of a row starts from the solution of its step
    j - 1. Returns the solutions, error estimates and last-node
    f(t + h, y_new) of the p steps, each (p, L): with one step per row,
    h (m, 1), those of row i in row i. An overflowed exponential leaves inf
    or NaN in a step's solution and error, and in the steps after it.

    Every operation is elementwise, and each quadrature sums its node terms
    in node order with one array operation per node, never through BLAS,
    whose bits can depend on the shape of the call: a row's result does
    not depend on the other rows, and it is _float_step's to the bit but
    for the exponential. The parts that do not depend on y (exp(A_6), the
    b-quadratures, the error rates and the last node's rates) are computed
    for all p steps at once; then y is composed step by step with the
    arithmetic of one step, so each step's bits are those of a call for
    that step alone (a test checks this)."""
    m, k = h.shape
    n_b = y.shape[1]
    flat = h.ravel()
    pair = np.flatnonzero(flat)
    h_p = flat[pair][:, None]
    # rows: the five tails, then w and d; the b sums need w and d
    sums_g = np.array(_RADAU_TAIL + (_RADAU_W, _RADAU_ERR))[:, :, None, None]
    sums_q = sums_g[5:]
    # a step past a row's node (P at the floor, even 0) is computed, not used
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, b = _node_rates(forms, shift[pair // k])
        g = h_p * a
        acc = sums_g[:, 0] * g[0]
        for j in range(1, 6):
            acc = acc + sums_g[:, j] * g[j]
        q = np.exp(acc[:5]) * b[:5]
        quad = sums_q[:, 0] * q[0]
        for j in range(1, 5):
            quad = quad + sums_q[:, j] * q[j]
        quad = quad + sums_q[:, 5] * b[5]
        # y_new = exp(A_6) y + h quad; a step not taken keeps y (1 y + 0)
        stacked = np.ones((2, m * k, n_b))
        stacked[1] = 0.0
        stacked[0, pair], stacked[1, pair] = np.exp(acc[5]), h_p * quad[0]
        stacked = stacked.reshape(2, m, k, n_b)
        y_new = np.empty((m, k, n_b))
        for j in range(k):
            y = stacked[0, :, j] * y + stacked[1, :, j]
            y_new[:, j] = y
        y_new = y_new.reshape(-1, n_b)[pair]
        return y_new, y_new * acc[6] + h_p * quad[1], a[5] * y_new + b[5]


def _forms_at(field: VelocityField, coeff0: np.ndarray, m_e: np.ndarray, t0: float,
              cells: tuple, times: np.ndarray):
    """The forms (len(times), 2L + 1) and lambda shift of the state coeff0
    at t0 advanced to each of times by the phases exp(m_e (t - t0)), from
    one stacked _forms call."""
    return field._forms(coeff0 * np.exp(m_e * (times - t0)[:, None]), cells)


def _stage_nodes(field: VelocityField, p: np.ndarray):
    """The node floor on the node rows of m steps at once: p (S, m) holds
    P at the S node times of each step. Returns each step's first node at
    the floor (S if none), as one velocities call per node over the steps
    still live would find it, or None when no step meets the floor."""
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


def _start(t0: float, lam0: np.ndarray, cells: np.ndarray, record_times):
    """Shared set-up of both integrators for starts lam0 (n, L) in cells
    (n, L): the lambda and cell record buffers (n, n_rec, L) with the
    leading time recorded if it equals t0, the number recorded and the
    direction."""
    record_times = np.asarray(record_times, dtype=float)
    n_rec = record_times.size
    rec = np.empty((lam0.shape[0], n_rec, lam0.shape[1]))
    rec_cells = np.empty(rec.shape, dtype=np.intp)
    rec_i = 0
    if n_rec and record_times[0] == t0:
        rec[:, 0] = lam0
        rec_cells[:, 0] = cells
        rec_i = 1
    sgn = -1.0 if n_rec and record_times[-1] < t0 else 1.0
    return record_times, rec, rec_cells, rec_i, sgn


def _plan(t: float, h_try: float, clamped: bool, h: float, targets: list, rec_i: int,
          sgn: float, n_steps: int) -> list:
    """The steps of one pass in Python floats, as (start, step, clamped, end):
    the first of size h_try (clamped to its record time if clamped), then up
    to n_steps - 1 more of size h, each clamped to the next record time as
    the first is. Planning stops after the last record time and before a
    record time numerically at a step's start. _integrate_block plans each
    row's pass with the same arithmetic on arrays."""
    plan = []
    for j in range(n_steps):
        if j:
            if rec_i == len(targets):
                break
            h_try = h
            clamped = (t + h - targets[rec_i]) * sgn >= 0.0
            if clamped:
                h_try = targets[rec_i] - t
                if abs(h_try) < 1e-15 * max(1.0, abs(t)):
                    break
        end = targets[rec_i] if clamped else t + h_try
        plan.append((t, h_try, clamped, end))
        t = end
        rec_i += clamped
    return plan


def _pass_times(plan: list) -> np.ndarray:
    """The node times t + c h of every step of a pass, step by step."""
    steps = np.array(plan)
    return (steps[:, :1] + _STAGE_C * steps[:, 1:2]).ravel()


def _integrate_on_grid(field: VelocityField, state0: QuantumState, lambda0,
                       record_times, rtol: float, atol: float) -> Trajectory:
    """Drive d lambda/dt = v through the cells, recording at record_times.

    record_times must be monotone away from state0.time (either direction)
    and start at or beyond it; a leading time equal to state0.time records
    the initial configuration. Cell crossings follow the three rules of the
    module docstring. The one-trajectory path of `simulate`, `verify` and
    integrate_trajectory, and the oracle for _integrate_block. Lambda, the
    first stage and the error estimate are lists of Python floats, and a
    step, its node floor included, is float arithmetic on them
    (_float_step); numpy computes only the forms.

    The trajectory advances in passes (see the module docstring): up to
    _PASS_STEPS steps of the controller's size h, each clamped to the next
    record time, whose node forms (and a fresh first stage when one is
    needed) come from one _forms_at call. The pass ends at its first event:
    rule 1 aiming or crossing in place from a step's carried first stage, a
    node, a rejection or an escape. The steps before it are accepted, and h
    then adapts once, from the largest error norm of the pass's accepted
    unclamped steps of size h; a rejection shrinks it from the rejected
    step's norm. An aimed or retried step is a pass of its own and leaves h
    unchanged. MAX_STEPS counts steps.
    """
    beable_set = field.beable_set
    n_cells = beable_set.cell_counts
    t0 = state0.time
    y = np.array(_lambda_values(beable_set, lambda0, strict=True), dtype=float)
    n_b = len(beable_set)
    coeff0 = field.state_coefficients(state0)
    m_e = -1j * field._energies
    cells = tuple(cell_index(b, lam) for b, lam in zip(beable_set, y.tolist()))
    record_times, rec, rec_cells, rec_i, sgn = _start(t0, y[None], np.array([cells]),
                                                      record_times)
    rec, rec_cells = rec[0], rec_cells[0]
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
            target = targets[rec_i]
            h_try = h if retry is None else retry
            clamped = (t + h_try - target) * sgn >= 0.0
            if clamped:
                h_try = target - t
                if abs(h_try) < 1e-15 * max(1.0, abs(t)):
                    # target is numerically at t; record and move on
                    steps += 1
                    rec[rec_i], rec_cells[rec_i] = y, cells
                    rec_i += 1
                    retry = None
                    continue
            plan = _plan(t, h_try, clamped, h, targets, rec_i, sgn,
                         _PASS_STEPS if retry is None else 1)
            retry = None
            vals = None
            if f_now is None:
                # the fresh first stage and the node forms of the pass from
                # one call; the pass uses the latter unless rule 1 aims
                vals, shift = _forms_at(field, coeff0, m_e, t0, cells,
                                        np.concatenate(([t], _pass_times(plan))))
                f_now = field._velocities_of(vals[0], y, shift, cells, t).tolist()
                vals = vals[1:]
            h_aim, now = _aim(h_try, y, f_now, cells, n_cells, 1e-14 * max(1.0, abs(t)))
            if now:
                steps += 1
                y, cells = _cross(y, cells, now, n_cells, t)
                f_now = None
                continue
            if h_aim is not None and abs(h_aim) < abs(h_try):
                plan, vals = [(t, h_aim, False, t + h_aim)], None
            if vals is None:
                vals = _forms_at(field, coeff0, m_e, t0, cells, _pass_times(plan))[0]

            h_pass, worst = h, None
            for j, (t_j, h_j, clamped_j, end) in enumerate(plan):
                if j:
                    # rule 1 from the carried first stage ends the pass
                    h_aim, now = _aim(h_j, y, f_now, cells, n_cells,
                                      1e-14 * max(1.0, abs(t_j)))
                    if now or (h_aim is not None and abs(h_aim) < abs(h_j)):
                        break
                steps += 1
                if steps > MAX_STEPS:
                    raise NumericError(f"integration exceeded {MAX_STEPS} steps")
                y_new, err, k_last = _float_step(field, vals[6 * j:6 * j + 6], cells, t_j, y,
                                                 h_j)
                ratio = [e / (atol + rtol * max(abs(a), abs(b)))
                         for e, a, b in zip(err, y, y_new)]
                enorm = math.sqrt(sum([r * r for r in ratio]) / n_b)
                # a non-finite y_new makes its error non-finite, and a NaN or
                # infinite error norm rejects the step with the smallest factor
                if not enorm <= 1.0:
                    h = h_j * (max(0.2, 0.9 * enorm ** -0.2) if enorm < math.inf else 0.2)
                    if abs(h) < 1e-14 * max(1.0, abs(t)):
                        raise NumericError(
                            f"step size underflow at t = {t:.12g} (h = {h:.3e})"
                        )
                    worst = None
                    break
                esc = _escapes(y_new, cells)
                retry = _retry_step(y, y_new, f_now, k_last, h_j, esc)
                if retry is not None:
                    break

                t = end
                y, cells = _cross(y_new, cells, esc, n_cells, t) if esc else (y_new, cells)
                f_now = None if esc else k_last
                if clamped_j:
                    rec[rec_i], rec_cells[rec_i] = y, cells
                    rec_i += 1
                elif h_j == h_pass and (worst is None or enorm > worst):
                    # only a step of the controller's own size adapts it
                    worst = enorm
                if esc:
                    break
            if worst is not None:
                h = h_pass * (5.0 if worst == 0.0 else min(5.0, max(0.2, 0.9 * worst ** -0.2)))
    except NodeError as node:
        return _record(beable_set, record_times, rec, rec_cells, rec_i,
                       TrajectoryStatus.NODE_ABORTED, node.time, node.cells)
    return _record(beable_set, record_times, rec, rec_cells, rec_i, TrajectoryStatus.COMPLETED)


def _integrate_block(field: VelocityField, state0: QuantumState, lam0,
                     record_times, rtol: float, atol: float) -> list:
    """_integrate_on_grid for every row of lam0 (n, L) at once; returns one
    Trajectory per row.

    Rows advance in lockstep, one pass per row and iteration, each with its
    own t, step, cells and status, under the same rules: the pass rule, the
    exponential Radau step, error norm, accept and reject factors (h adapts
    once per pass), first step, clamping to record times, MAX_STEPS (which
    counts steps: an iteration counts its longest pass), the underflow
    check and the three crossing rules of the module docstring.
    (1) A row whose linear prediction reaches an interior boundary within
    its trial step aims the step CROSSING_TOL / 2 past it, or crosses in
    place when already within CROSSING_TOL or when the aimed step would
    fall below the time resolution. (2) An accepted step that escapes by
    more than CROSSING_TOL is retried, shortened to the first contact of its
    Hermite interpolant. (3) One that escapes by at most CROSSING_TOL is
    accepted and snapped into the next cell. Crossing rows stay in the
    block. Each lockstep iteration plans every stepping row's pass (the
    arithmetic of _plan on arrays), reads the forms at the six nodes of all
    planned steps from the Chebyshev tables of FormTables over [t0, last
    record time] in one evaluation (chunked per _FORMS_ROWS node rows),
    checks each step's six node rows against the node floor in node order
    (_stage_nodes: the node aborts and abort times of one velocities call per
    node) and takes the planned steps as array arithmetic (_block_step: the
    parts that do not depend on y for all of them, then y step by step).
    Each row's events, in step order, end its pass as in _integrate_on_grid.
    A first stage that is not carried over from the last step is one
    stacked VelocityField.velocities call per tuple. The per-row rules
    (_escapes, _retry_step with its Hermite bisection, and _cross for rule
    1's in-place crossings and rule 3's snaps) take each row they handle as
    lists of Python floats, as _integrate_on_grid holds its rows, and give
    the bits they give on numpy rows. A table depends only
    on its tuple, panel and the span, and every other operation is row by
    row (elementwise, a per-row product, or the GEMM inside _forms, whose
    rows are bit-identical in any block; each node sum of _block_step runs
    in node order, elementwise), so a row's result does not depend
    on the other rows of the block: any split of an ensemble into blocks
    gives bit-identical results.
    """
    beable_set = field.beable_set
    n_b = len(beable_set)
    n_cells = beable_set.cell_counts
    y = np.array(lam0, dtype=float)
    if y.ndim != 2 or y.shape[1] != n_b:
        raise InputError(f"starts must have shape (n, {n_b}), got {y.shape}")
    check_lambda_domain(y, beable_set)
    # cell_index's nearest cell, which the half-open domain keeps below the top
    cells = np.floor(y + 0.5).astype(np.intp)
    n = y.shape[0]
    t0 = state0.time
    coeff0 = field.state_coefficients(state0)
    m_e = -1j * field._energies
    record_times, rec, rec_cells, rec_start, sgn = _start(t0, y, cells, record_times)
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

    # the per-row rules loop over components and bisect in Python, so each
    # loop over rows converts its rows to lists once: the same arithmetic on
    # numpy scalars gives the same bits at about three times the cost
    def cross(row, y_row, cells_row, crossings, when):
        y[row], cells[row] = _cross(y_row, cells_row, crossings, n_cells, when)
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
    stops = np.append(record_times, sgn * np.inf)
    t = np.full(n, t0)
    f = np.zeros_like(y)
    fresh = np.zeros(n, dtype=bool)
    h = np.zeros(n)
    retry = np.full(n, np.nan)
    if running.any():
        rows = np.flatnonzero(running)
        f[rows], fresh[rows] = evaluate(rows, t[rows], y[rows])
        h[rows] = _first_step(f[rows], abs(record_times[-1] - t0), sgn)

    n_forms = 2 * n_b + 1
    n_pass = _PASS_STEPS
    steps = 0
    while running.any():
        # MAX_STEPS counts steps: an iteration counts the longest pass it tried
        steps += 1
        if steps > MAX_STEPS:
            raise NumericError(f"integration exceeded {MAX_STEPS} steps")
        act = np.flatnonzero(running)
        ta = t[act]
        target = record_times[rec_i[act]]
        h_try = retry[act]
        # a retried step is a pass of its own
        single = h_try == h_try
        h_try = np.where(single, h_try, h[act])
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
        sel = np.flatnonzero(now.any(axis=1))
        for row, y_row, cells_row, marks, ends, when in zip(
                act[sel].tolist(), y[act[sel]].tolist(), cells[act[sel]].tolist(),
                now[sel].tolist(), boundary[sel].tolist(), ta[sel].tolist()):
            cross(row, y_row, cells_row,
                  [(ell, end) for ell, (mark, end) in enumerate(zip(marks, ends)) if mark],
                  when)
        hit = aim < np.abs(h_try)
        h_try = np.where(hit, sgn * aim, h_try)
        clamped &= ~hit
        # an aimed step is a pass of its own
        single |= hit
        go[sel] = False
        act, ta, target, h_try, clamped, single = (
            a[go] for a in (act, ta, target, h_try, clamped, single))
        if not act.size:
            continue

        # each row's pass, as _plan plans it: the end of each of up to
        # n_pass steps and the index of the record time after it; stops
        # holds the record times and, past the last, one no step reaches
        # (e >= tgt is _plan's (e - tgt) sgn >= 0 for sgn = 1)
        m = act.size
        h_row = h[act]
        end = np.empty((m, n_pass))
        after = np.empty((m, n_pass), dtype=np.intp)
        t_j = end[:, 0] = np.where(clamped, target, ta + h_try)
        r_j = after[:, 0] = rec_i[act] + clamped
        for j in range(1, n_pass):
            tgt = stops[r_j]
            e = t_j + h_row
            c = e >= tgt if sgn > 0 else e <= tgt
            t_j = end[:, j] = np.where(c, tgt, e)
            r_j = after[:, j] = r_j + c
        # a row plans no step after its last record time, none after an
        # aimed or retried step and none from a record time numerically at
        # a later step's start on
        valid = np.empty((m, n_pass), dtype=bool)
        valid[:, 0] = True
        valid[:, 1:] = after[:, :-1] < n_rec
        valid[single, 1:] = False
        later_clamp = after[:, 1:] != after[:, :-1]
        if later_clamp.any():
            start = end[:, :-1]
            at = later_clamp & (np.abs(end[:, 1:] - start)
                                < 1e-15 * np.maximum(1.0, np.abs(start)))
            if at.any():
                valid[:, 1:] &= ~np.logical_or.accumulate(at, axis=1)

        # the p planned steps in row-major order, a row's from off on: their
        # start, step, end and clamp, the forms at their six nodes from one
        # table evaluation (per _FORMS_ROWS node rows), and the node floor
        # in node order
        pair = np.flatnonzero(valid)
        p_row, p_col = np.divmod(pair, n_pass)
        off = np.flatnonzero(p_col == 0)
        n_steps = np.diff(np.append(off, pair.size))
        p_end = end.ravel()[pair]
        p_start = np.empty(pair.size)
        p_start[1:] = p_end[:-1]
        p_start[off] = ta
        p_clamp = np.empty(pair.size, dtype=bool)
        p_after = after.ravel()[pair]
        p_clamp[1:] = p_after[1:] != p_after[:-1]
        p_clamp[off] = clamped
        p_step = np.where(p_clamp, p_end - p_start, h_row[p_row])
        p_step[off] = h_try
        frozen = cells[act]
        p_cells = frozen[p_row]
        node_t = p_start[:, None] + _STAGE_C * p_step[:, None]
        rows, x = tables.locate(code[act][p_row], node_t)
        rows, x = rows.T.ravel(), x.T.ravel()                       # node-major
        found = np.concatenate([tables.evaluate(rows[lo:lo + _FORMS_ROWS], x[lo:lo + _FORMS_ROWS])
                                for lo in range(0, rows.size, _FORMS_ROWS)])
        found = found.reshape(_STAGE_C.size, -1, n_forms)
        first = _stage_nodes(field, found[..., 0])

        # the steps, as array arithmetic, and their events: rule 1 from a
        # later step's carried first stage, a node, a rejection or an escape
        ya = y[act]
        step = np.zeros((m, n_pass))
        step.ravel()[pair] = p_step
        y_new, err, f_last = _block_step(found, 0.5 - frozen, ya, step)
        y_prev = np.empty_like(y_new)
        y_prev[1:] = y_new[:-1]
        y_prev[off] = ya
        scale = atol + rtol * np.maximum(np.abs(y_prev), np.abs(y_new))
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = err / scale
            enorm = np.sqrt((ratio * ratio).sum(axis=1) / n_b)
        # a non-finite y_new makes its error non-finite, and a NaN or
        # infinite error norm rejects the step with the smallest factor
        rejected = ~(enorm <= 1.0)
        excess = np.maximum(y_new - (p_cells + 0.5), (p_cells - 0.5) - y_new).max(axis=1)
        stop = rejected | (excess > 0.0)
        if first is not None:
            stop |= first < _STAGE_C.size
        aims = np.zeros(pair.size, dtype=bool)
        later = np.flatnonzero(p_col)
        if later.size:
            h_later = p_step[later]
            aim, now, _ = _aim_rows(h_later, y_prev[later], f_last[later - 1], p_cells[later],
                                    n_cells, 1e-14 * np.maximum(1.0, np.abs(p_start[later])))
            aims[later] = now.any(axis=1) | (aim < np.abs(h_later))
            stop |= aims
        # each row's first event, in step order, ends its pass
        last = np.minimum.reduceat(np.where(stop, p_col, n_pass), off)
        ended = last < n_pass
        ev = off + np.minimum(last, n_steps - 1)
        event = ended & ~aims[ev]
        at_node = event & (first[ev] < _STAGE_C.size) if first is not None else \
            np.zeros(m, dtype=bool)
        event &= ~at_node
        bad = event & rejected[ev]
        event &= ~bad
        far = event & (excess[ev] > CROSSING_TOL)
        snap = event & ~far
        n_acc = np.where(ended, last, n_steps) + snap
        steps += int((n_acc + (at_node | bad | far)).max()) - 1

        # rule 2: the retried step of an escape by more than CROSSING_TOL,
        # from the first stage the escaping step started with
        sel = np.flatnonzero(far)
        if sel.size:
            e = ev[sel]
            f0 = np.where((p_col[e] == 0)[:, None], f[act[sel]], f_last[e - 1])
            for row, y0, y1, f0_row, f1, h_e, cells_row in zip(
                    act[sel].tolist(), y_prev[e].tolist(), y_new[e].tolist(), f0.tolist(),
                    f_last[e].tolist(), p_step[e].tolist(), frozen[sel].tolist()):
                retry[row] = _retry_step(y0, y1, f0_row, f1, h_e, _escapes(y1, cells_row))

        # the accepted steps: the row moves to the end of its last one, whose
        # last node's f(t + h, y_new) in the old cells starts the next pass
        # (cross() clears it for a row that crossed), and records at the
        # end of each clamped one
        sel = np.flatnonzero(n_acc)
        e = off[sel] + n_acc[sel] - 1
        rows = act[sel]
        t[rows] = p_end[e]
        y[rows] = y_new[e]
        f[rows] = f_last[e]
        fresh[rows] = True
        sel = np.flatnonzero(snap)
        for row, y1, cells_row, when in zip(act[sel].tolist(), y_new[ev[sel]].tolist(),
                                            frozen[sel].tolist(), t[act[sel]].tolist()):
            cross(row, y1, cells_row, _escapes(y1, cells_row), when)
        took = p_col < n_acc[p_row]
        done = np.flatnonzero(took & p_clamp)
        if done.size:
            d_row = p_row[done]
            rows = act[d_row]
            # the records of a row in step order; a snapped last step
            # records the crossed row
            slot = rec_i[rows] + np.arange(done.size) - np.searchsorted(d_row, d_row)
            final = (p_col[done] == n_acc[d_row] - 1)[:, None]
            rec[rows, slot] = np.where(final, y[rows], y_new[done])
            rec_cells[rows, slot] = np.where(final, cells[rows], frozen[d_row])
            rec_i[act] += np.bincount(d_row, minlength=m)
            running[act] = rec_i[act] < n_rec
        for sel in np.flatnonzero(at_node).tolist():
            e = int(ev[sel])
            node = int(first[e])
            abort(int(act[sel]), NodeError(frozen[sel], found[node, e, 0], node_t[e, node]))

        # the step size adapts once per pass: a rejection shrinks it from the
        # rejected step's norm; otherwise the largest norm of the accepted
        # unclamped steps of the controller's own size grows or shrinks it
        sel = np.flatnonzero(bad)
        if sel.size:
            e = ev[sel]
            norm = enorm[e]
            with np.errstate(invalid="ignore"):
                h_new = p_step[e] * np.where(norm < np.inf, np.maximum(0.2, 0.9 * norm ** -0.2),
                                             0.2)
            tiny = np.flatnonzero(np.abs(h_new) < 1e-14 * np.maximum(1.0, np.abs(p_start[e])))
            if tiny.size:
                raise NumericError(
                    f"step size underflow at t = {p_start[e][tiny[0]]:.12g} "
                    f"(h = {h_new[tiny[0]]:.3e})"
                )
            h[act[sel]] = h_new
        own = took & ~p_clamp & (p_step == h_row[p_row])
        own[bad[p_row]] = False
        worst = np.maximum.reduceat(np.where(own, enorm, -1.0), off)
        sel = np.flatnonzero(worst >= 0.0)
        if sel.size:
            # a zero norm grows h by 5
            with np.errstate(divide="ignore"):
                grow = np.minimum(5.0, np.maximum(0.2, 0.9 * worst[sel] ** -0.2))
            h[act[sel]] = h_row[sel] * grow

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
