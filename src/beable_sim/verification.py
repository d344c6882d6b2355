"""Independent oracles and statistical equivariance tests.

Single-beable dynamics is integrable: the expectation of the lower
projector L(lambda(t)) is a constant of the motion, so lambda(t) follows
from monotone root-finding instead of ODE integration. That level-set
solution, the two-state sign formula built on it, and a finite-difference
continuity residual are the oracles everything else is checked against.
The oracles take what they read: the level-set inversion the cell weights
of an evolved state and the conserved level, the average-consistency check
the expectation value. So a caller that probes many trajectories at one
time evolves the state and takes its weights once for all of them, and
evaluates each trajectory's level once. The continuity residual gets the
field's forms at t and t +/- h from one stacked call.

Ensemble runs draw initial configurations from the exact joint cell
distribution (cell tuple from the enumerated distribution, then lambda
uniform in the cell), integrate them independently, and compare empirical
histograms against the evolved quantum distribution by total-variation
distance. Each trajectory draws from its own counter-based stream, a
splitmix64 hash of (seed, trajectory index, draw), so reports are
deterministic for a given seed regardless of worker count and block split.

The dense-operator references of P and J live here too: L(lambda), J(lambda)
and their expectations by the literal formulas, the ordering average as a
sum over subsets. They are the independent oracles of the field's forms,
and no integration path calls them.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .beables import BeableOperator, BeableSet, LambdaConfig, cell_index
from .dynamics import (
    CURRENT_IMAG_TOL,
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    Symmetrization,
    TrajectoryStatus,
    VelocityField,
    _integrate_block,
    quantum_distribution,
    _lambda_values,
)
from .errors import InputError, NumericError
from .linalg import Operator, Propagator, QuantumState, evolve

ENV_THREADS = "BEABLE_SIM_THREADS"


# ---------------------------------------------------------------------------
# initial-condition sampling

def _initial_cdf(state: QuantumState, beable_set: BeableSet):
    """Cell tuples and the clipped cumulative distribution they are drawn from."""
    tuples, probs = quantum_distribution(state, beable_set)
    probs = np.clip(probs, 0.0, None)
    return tuples, np.cumsum(probs / probs.sum())


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _hash(key: np.ndarray, x: np.ndarray) -> np.ndarray:
    """splitmix64's output for the state key + (x + 1) * golden, on uint64
    arrays, wrapping modulo 2**64."""
    z = key + (x + np.uint64(1)) * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniforms(seed, indices, n_draws: int) -> np.ndarray:
    """Counter-based uniforms on [0, 1) with 53 bits, (len(indices),
    n_draws): draw k of index i is a hash of (seed, i, k), so each index has
    its own stream, whatever other indices are drawn with it. seed is an int
    or a tuple of ints, folded into one key a part at a time."""
    parts = (seed if isinstance(seed, tuple) else (seed,))
    parts = np.array([int(part) % 2**64 for part in parts], dtype=np.uint64)
    key = np.zeros(1, dtype=np.uint64)
    for j in range(parts.size):
        key = _hash(key, parts[j:j + 1])
    streams = _hash(key, np.asarray(indices, dtype=np.uint64))[:, None]
    bits = _hash(streams, np.arange(n_draws, dtype=np.uint64))
    return (bits >> np.uint64(11)) * 2.0 ** -53


def _draw_starts(tuples: list, cum: np.ndarray, seed, indices) -> np.ndarray:
    """Raw lambda vectors (len(indices), L), one per index from its own
    stream (_uniforms): draw 0 picks a cell tuple from ``cum``, draws 1..L
    place each lambda uniformly in its cell [n - 1/2, n + 1/2)."""
    table = np.array(tuples, dtype=float)
    u = _uniforms(seed, indices, 1 + table.shape[1])
    cells = table[np.minimum(np.searchsorted(cum, u[:, 0], side="right"), len(tuples) - 1)]
    # n + (u - 1/2) can round up onto n + 1/2, outside the cell
    return np.minimum(cells + (u[:, 1:] - 0.5), np.nextafter(cells + 0.5, cells))


def sample_initial(state: QuantumState, beable_set: BeableSet, rng_seed) -> LambdaConfig:
    """Draw one initial lambda configuration.

    The cell tuple comes from the exact joint distribution (enumerated over
    all tuples, so beable correlations are respected), then each lambda is
    uniform on its cell [n - 1/2, n + 1/2). Deterministic for a given seed,
    an int or a tuple of ints: the start an ensemble of that seed draws for
    index 0.
    """
    start = _draw_starts(*_initial_cdf(state, beable_set), rng_seed, range(1))[0]
    return LambdaConfig(start, beable_set)


# ---------------------------------------------------------------------------
# single-beable exact solutions

def _cell_expectations(state: QuantumState, b: BeableOperator) -> np.ndarray:
    """Re <t|P(n)|t> for every cell n of one beable, from one product of the
    beable's stacked projectors with the state and one with its conjugate."""
    if state.dim != b.dim:
        raise InputError(f"dimension mismatch: state {state.dim}, beable {b.dim}")
    psi = state.amplitudes
    images = (b.stacked_projectors @ psi).reshape(b.n_cells, -1)
    return (images @ psi.conj()).real


def level_expectation(state: QuantumState, b: BeableOperator, lam: float) -> float:
    """<t|L(lambda)|t>, the conserved level value of one-beable dynamics:
    sum_{j<n} <P(j)> + (lambda - n + 1/2) <P(n)> with n the cell of lambda,
    from the cell projectors' expectations, with no dense L(lambda)."""
    n = cell_index(b, lam)
    weights = _cell_expectations(state, b)
    return float(sum(weights[:n].tolist()) + (lam - n + 0.5) * weights[n])


def cell_weights(state: QuantumState, b: BeableOperator) -> np.ndarray:
    """<t|P(n)|t> for every cell n of one beable, clipped at 0: what
    single_beable_levelset inverts. One vector serves every trajectory
    probed in the same state."""
    return np.clip(_cell_expectations(state, b), 0.0, None)


def single_beable_levelset(weights: np.ndarray, level0: float) -> float:
    """lambda(t) for one beable, by inverting <t|L(lambda)|t> = level0 in the
    evolved state, given by its cell weights (see cell_weights), where
    level0 = <0|L(lambda0)|0> is the conserved level of the start (see
    level_expectation).

    The level expectation is nondecreasing and piecewise linear in lambda,
    so the inversion walks the cells of the cumulative weights. This is the
    integration-free oracle for every L = 1 trajectory.
    """
    if not -1e-10 <= level0 <= 1.0 + 1e-10:
        raise InputError(
            f"initial level value {level0:.12g} outside [0, 1]; "
            "cell projectors are defective"
        )
    level0 = min(max(level0, 0.0), 1.0)
    n_cells = len(weights)
    cum = np.concatenate(([0.0], np.cumsum(weights)))
    cum /= cum[-1]
    n = int(np.searchsorted(cum, level0, side="right")) - 1
    n = min(max(n, 0), n_cells - 1)
    width = cum[n + 1] - cum[n]
    if width <= 0.0:
        # degenerate flat cell: the level set collapses to its lower edge
        lam = n - 0.5
    else:
        lam = n - 0.5 + (level0 - cum[n]) / width
    return float(min(max(lam, -0.5), n_cells - 0.5))


@dataclass(frozen=True)
class TwoStateOracle:
    """Closed-form two-cell beable motion xi(t) = sign(cos(omega t) - xi0).

    xi0 = 1 - 2 L0 is uniform on [-1, 1] when L0 is uniform on [0, 1];
    cos(omega t) is the resonant two-level expectation curve.
    """

    omega: float
    xi0: float

    def __post_init__(self):
        if not -1.0 <= self.xi0 <= 1.0:
            raise InputError(f"xi0 = {self.xi0:g} outside [-1, 1]")

    def curve(self, t: float) -> float:
        return math.cos(self.omega * t)

    def first_flip_time(self) -> float:
        """Earliest t > 0 with cos(omega t) = xi0."""
        return math.acos(self.xi0) / self.omega


def two_state_solution(oracle: TwoStateOracle, t: float) -> float:
    """The beable value at t; measure-zero ties resolve to +1."""
    return 1.0 if oracle.curve(t) - oracle.xi0 >= 0.0 else -1.0


def average_consistency(value: float, n_xi0: int) -> float:
    """Midpoint average of sign(value - xi0) over xi0 uniform on [-1, 1],
    ties to +1: the ensemble average of the two-state solution at a time
    where the expectation curve, scaled to [-1, 1], reads value.

    Must reproduce value within 2/n_xi0 + 1e-9.
    """
    if n_xi0 < 100:
        raise InputError("average_consistency needs n_xi0 >= 100")
    mids = -1.0 + (np.arange(n_xi0) + 0.5) * (2.0 / n_xi0)
    signs = np.where(value - mids >= 0.0, 1.0, -1.0)
    return float(signs.mean())


# ---------------------------------------------------------------------------
# dense-operator references: P and J from the literal operator formulas, the
# oracles of the field's joint-basis forms (dynamics.VelocityField)

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


def lower_projector(b: BeableOperator, lam: float) -> Operator:
    """L(lambda): weighted projector onto all states below lambda.

    L(lambda) = (lambda - n + 1/2) P(n) + sum_{j<n} P(j) with n the cell of
    lambda; continuous and piecewise linear, L(-1/2) = 0, L(K-1/2) = identity.
    The complement G(lambda) = identity - L(lambda) is never stored.
    """
    n = cell_index(b, lam)
    mat = sum((p.entries for p in b.projectors[:n]), (lam - n + 0.5) * b.projectors[n].entries)
    return Operator(mat, hermitian=True)


def current_operator(b: BeableOperator, lam: float, prop: Propagator) -> Operator:
    """J(lambda) = -(1/i)[L(lambda), H]; Hermitian, affine in lambda per cell.

    Vanishes at both ends of the lambda domain, where L is 0 or identity.
    """
    if b.dim != prop.dim:
        raise InputError(f"dimension mismatch: beable {b.dim}, propagator {prop.dim}")
    l_mat = lower_projector(b, lam).entries
    h = prop.hamiltonian.entries
    j = 1j * (l_mat @ h - h @ l_mat)
    # symmetrize away matmul roundoff so the hermitian flag is exact even
    # when the commutator is numerically zero
    j = (j + j.conj().T) / 2
    return Operator(j, hermitian=True)


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


# ---------------------------------------------------------------------------
# continuity residual (the central consistency requirement)

def continuity_residual(field: VelocityField, state: QuantumState, lambdas,
                        h: float = 1e-5) -> float | None:
    """|dP/dt + sum_ell dJ_ell/dlambda_ell| by central differences of the
    field's own probability and currents.

    dP/dt uses the states at t +/- h; each current derivative offsets one
    lambda component by +/- h with the state at t fixed. The forms of all
    three states come from one stacked _forms call, whose rows are
    bit-identical to single calls, and the 2L offsets share the third.
    Points within h of a cell boundary return None (skip signal) because the
    one-sided cells would make the differences meaningless.
    """
    lam = _lambda_values(field.beable_set, lambdas)
    cells = []
    for ell, b in enumerate(field.beable_set):
        n = cell_index(b, lam[ell])
        if min(lam[ell] - (n - 0.5), (n + 0.5) - lam[ell]) <= h:
            return None
        cells.append(n)
    cells = tuple(cells)
    coeff = field.state_coefficients(state)
    phase = np.exp(-1j * h * field.propagator.energies)
    vals, shift = field._forms(np.stack([coeff * phase, coeff * phase.conj(), coeff]), cells)
    dp_dt = (vals[0, 0] - vals[1, 0]) / (2.0 * h)
    n_b = len(cells)
    shifts = h * np.eye(n_b)
    j = field._currents_of(vals[2], np.concatenate([lam + shifts, lam - shifts]), shift)
    div = sum(j[ell, ell] - j[n_b + ell, ell] for ell in range(n_b)) / (2.0 * h)
    return abs(dp_dt + div)


# ---------------------------------------------------------------------------
# ensembles

@dataclass
class EnsembleReport:
    """Empirical-vs-quantum occupation statistics for one ensemble run."""

    n_trajectories: int
    seed: int
    times: np.ndarray
    cell_tuples: list
    empirical: np.ndarray      # int counts, shape (n_times, n_tuples)
    quantum: np.ndarray        # exact probabilities, same shape
    tv_distance: np.ndarray    # shape (n_times,)
    node_aborted_count: int
    n_completed: int

    def as_dict(self) -> dict:
        return {
            "n_trajectories": self.n_trajectories,
            "seed": self.seed,
            "times": [float(t) for t in self.times],
            "cell_tuples": [list(map(int, c)) for c in self.cell_tuples],
            "empirical_counts": self.empirical.tolist(),
            "quantum_probabilities": self.quantum.tolist(),
            # undefined (NaN) when no trajectory completed; JSON has no NaN
            "tv_distance": [None if math.isnan(v) else float(v) for v in self.tv_distance],
            "node_aborted_count": self.node_aborted_count,
            "n_completed": self.n_completed,
        }


def _resolve_workers(workers: int | None) -> int:
    """--workers, else BEABLE_SIM_THREADS, else the CPUs this process may run on.
    A count below 1 from either source raises InputError."""
    if workers is not None:
        if int(workers) < 1:
            raise InputError(f"the worker count (--workers) must be at least 1, got {workers}")
        return int(workers)
    env = os.environ.get(ENV_THREADS)
    if env:
        try:
            count = int(env)
        except ValueError as exc:
            raise InputError(f"{ENV_THREADS} must be an integer, got {env!r}") from exc
        if count < 1:
            raise InputError(f"{ENV_THREADS} must be at least 1, got {env!r}")
        return count
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunk(field: VelocityField, state0: QuantumState, times: np.ndarray,
               tuples: list, cum: np.ndarray, seed: int, indices: range,
               rtol: float, atol: float):
    """Integrate one block of trajectories; returns (counts, n_aborted).

    Every trajectory draws its start from the cell tuples and cumulative
    distribution ``cum`` of state0, computed once per ensemble, with its own
    stream (seed, index); the block draws them in one call (_draw_starts).
    The whole block is integrated in lockstep by _integrate_block, whose
    rows do not depend on each other, so the counts do not depend on how an
    ensemble is split into blocks. The histogram
    counts the cells the integrator recorded for each completed row."""
    n_b = len(field.beable_set)
    starts = _draw_starts(tuples, cum, seed, indices)
    done = [traj.cells for traj in _integrate_block(field, state0, starts, times, rtol, atol)
            if traj.status is TrajectoryStatus.COMPLETED]
    cells = np.array(done, dtype=np.intp).reshape(-1, times.size, n_b)
    flat = np.ravel_multi_index(cells.T, field.beable_set.cell_counts)   # (n_times, n_done)
    counts = np.zeros((times.size, len(tuples)), dtype=np.int64)
    np.add.at(counts, (np.arange(times.size)[:, None], flat), 1)
    return counts, len(indices) - len(done)


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy links, or
    None when its extension module exports no such symbols (another BLAS,
    which keeps its own threading)."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:     # numpy 1.x
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_")):
        get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def _single_threaded_blas():
    """Run the body with OpenBLAS at one thread, then restore the count.

    An ensemble's parallelism is its worker processes, this one included.
    Pinned here, before the pool forks, every worker inherits one thread,
    and this process integrates its own block at one thread; GEMMs that
    each started their own BLAS threads on top of the workers would
    oversubscribe the cores. So the pool always forks, whatever the
    platform's default start method (forkserver from Python 3.14 on
    Linux): a worker started in a fresh interpreter would load OpenBLAS
    with its default thread count. (Pinning inside each worker after the
    fork was measured slower.)"""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


# The ensemble's fixed inputs, (field, state0, times, tuples, cum),
# set once in each pool worker so that a submitted block carries only its
# seed, index range and tolerances.
_worker_inputs = None


def _init_worker(*inputs):
    global _worker_inputs
    _worker_inputs = inputs


def _run_worker_chunk(seed: int, indices: range, rtol: float, atol: float):
    return _run_chunk(*_worker_inputs, seed, indices, rtol, atol)


def ensemble_equivariance(field: VelocityField, state0: QuantumState, n: int,
                          times, seed: int,
                          rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                          workers: int | None = None) -> EnsembleReport:
    """Integrate n sampled trajectories and compare cell occupancies with the
    exact quantum distribution at each probe time.

    Node-aborted trajectories are excluded from the histograms but counted in
    the report; they are never silently resampled. The trajectories are split
    into one block per worker. At workers >= 2 a pool forks one worker for
    each block after the first, and this process integrates the first block
    itself while they run; the counts do not depend on the split. The
    integration runs with OpenBLAS pinned to one thread (see
    _single_threaded_blas), and the process's BLAS thread count is restored
    afterwards, also on an error, which propagates after the pool has shut
    down.
    """
    if n < 100:
        raise InputError("ensemble_equivariance needs n >= 100")
    times = np.sort(np.asarray(times, dtype=float))
    if times.size == 0:
        raise InputError("at least one probe time is required")
    if not np.isfinite(times).all():
        raise InputError(f"probe times must be finite, got {times.tolist()}")
    if times[0] < state0.time:
        raise InputError("probe times must not precede the initial state time")
    n_workers = min(_resolve_workers(workers), n)

    tuples, cum = _initial_cdf(state0, field.beable_set)
    quantum = np.empty((times.size, len(tuples)))
    for k, t in enumerate(times):
        state_t = evolve(state0, field.propagator, t - state0.time)
        _, quantum[k] = quantum_distribution(state_t, field.beable_set)

    inputs = (field, state0, times, tuples, cum)
    with _single_threaded_blas():
        if n_workers <= 1:
            counts, aborted = _run_chunk(*inputs, seed, range(n), rtol, atol)
        else:
            chunk = math.ceil(n / n_workers)
            blocks = [range(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
            with ProcessPoolExecutor(max_workers=len(blocks) - 1,
                                     mp_context=multiprocessing.get_context("fork"),
                                     initializer=_init_worker, initargs=inputs) as pool:
                futures = [
                    pool.submit(_run_worker_chunk, seed, blk, rtol, atol)
                    for blk in blocks[1:]
                ]
                counts, aborted = _run_chunk(*inputs, seed, blocks[0], rtol, atol)
                for fut in futures:
                    c, a = fut.result()
                    counts += c
                    aborted += a

    n_completed = n - aborted
    if n_completed > 0:
        tv = 0.5 * np.abs(counts / n_completed - quantum).sum(axis=1)
    else:
        tv = np.full(times.size, np.nan)
    return EnsembleReport(
        n_trajectories=n, seed=int(seed), times=times, cell_tuples=tuples,
        empirical=counts, quantum=quantum, tv_distance=tv,
        node_aborted_count=aborted, n_completed=n_completed,
    )
