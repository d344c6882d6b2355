"""Dense Hermitian operator algebra and exact unitary time evolution.

Everything downstream (beable construction, velocity fields, trajectory
integration) is built on the three types here. Units use hbar = 1
throughout, so time carries units of 1/energy.

Operators, states and propagators are immutable after construction (the
underlying arrays are marked read-only) and therefore safe to share across
concurrent trajectory workers.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericError

# Construction-time invariant tolerances (relative to max-norm where noted).
HERMITICITY_TOL = 1e-12
PROJECTOR_TOL = 1e-10
NORMALIZATION_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10


def _as_complex_matrix(entries) -> np.ndarray:
    a = np.array(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InputError(f"operator entries must be a square matrix, got shape {a.shape}")
    return a


def max_norm(a: np.ndarray) -> float:
    """Entrywise max-abs norm used by all invariant checks."""
    return float(np.max(np.abs(a))) if a.size else 0.0


class Operator:
    """A dense complex matrix on a finite-dimensional Hilbert space.

    Parameters
    ----------
    entries : array_like
        Square complex matrix.
    hermitian : bool
        Assert ``||A - A^dag||_max <= 1e-12 * ||A||_max`` at construction.
    projector : bool
        Additionally assert idempotence ``||A^2 - A||_max <= 1e-10``.
    """

    __slots__ = ("entries", "dim", "hermitian", "projector")

    def __init__(self, entries, *, hermitian: bool = False, projector: bool = False):
        a = _as_complex_matrix(entries)
        if hermitian:
            scale = max(max_norm(a), 1e-300)
            resid = max_norm(a - a.conj().T)
            if resid > HERMITICITY_TOL * scale:
                raise InputError(
                    f"is not Hermitian: ||A - A^dag||_max = {resid:.3e} exceeds "
                    f"{HERMITICITY_TOL:g}*||A||_max (||A||_max = {scale:.3e})"
                )
        if projector:
            if not hermitian:
                raise InputError("projector-flagged operators must also be hermitian-flagged")
            resid = max_norm(a @ a - a)
            if resid > PROJECTOR_TOL:
                raise InputError(
                    f"operator flagged projector violates ||A^2 - A|| <= "
                    f"{PROJECTOR_TOL:g} (residual {resid:.3e})"
                )
        a.setflags(write=False)
        self.entries = a
        self.dim = a.shape[0]
        self.hermitian = bool(hermitian)
        self.projector = bool(projector)

    def __repr__(self):
        flags = []
        if self.hermitian:
            flags.append("hermitian")
        if self.projector:
            flags.append("projector")
        tag = " " + ",".join(flags) if flags else ""
        return f"Operator(dim={self.dim}{tag})"


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=complex), hermitian=True, projector=True)


class QuantumState:
    """A normalized state vector together with its current time."""

    __slots__ = ("amplitudes", "dim", "time")

    def __init__(self, amplitudes, time: float = 0.0):
        v = np.array(amplitudes, dtype=complex)
        if v.ndim != 1 or v.size < 1:
            raise InputError(f"state amplitudes must be a vector, got shape {v.shape}")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            raise InputError(
                f"is not normalized: ||psi|| = {norm:.12g} "
                f"(tolerance {NORMALIZATION_TOL:g})"
            )
        v.setflags(write=False)
        self.amplitudes = v
        self.dim = v.size
        self.time = float(time)

    def __repr__(self):
        return f"QuantumState(dim={self.dim}, time={self.time:g})"


class Propagator:
    """Cached eigendecomposition of a Hamiltonian for exact time evolution.

    Holds ascending energies E, the unitary eigenvector matrix V (columns),
    and the Hamiltonian itself. Evolution over any dt is
    ``V exp(-i E dt) V^dag`` with hbar = 1.
    """

    __slots__ = ("energies", "basis", "hamiltonian", "dim")

    def __init__(self, energies, basis, hamiltonian: Operator):
        e = np.array(energies, dtype=float)
        v = np.array(basis, dtype=complex)
        h = hamiltonian.entries
        scale = max(max_norm(h), 1e-300)
        resid = max_norm((v * e) @ v.conj().T - h)
        if resid > RECONSTRUCTION_TOL * scale:
            raise NumericError(
                f"eigendecomposition reconstruction residual {resid:.3e} exceeds "
                f"{RECONSTRUCTION_TOL:g}*||H||"
            )
        unit = max_norm(v.conj().T @ v - np.eye(v.shape[0]))
        if unit > RECONSTRUCTION_TOL:
            raise NumericError(f"eigenvector matrix is not unitary (residual {unit:.3e})")
        e.setflags(write=False)
        v.setflags(write=False)
        self.energies = e
        self.basis = v
        self.hamiltonian = hamiltonian
        self.dim = hamiltonian.dim

    def __repr__(self):
        return f"Propagator(dim={self.dim})"


def _require_same_dim(*dims):
    first = dims[0]
    for d in dims[1:]:
        if d != first:
            raise InputError(f"dimension mismatch: {dims}")


def commutator(a: Operator, b: Operator) -> Operator:
    """[A, B] = AB - BA."""
    _require_same_dim(a.dim, b.dim)
    return Operator(a.entries @ b.entries - b.entries @ a.entries)


def expectation(state: QuantumState, a: Operator) -> complex:
    """<psi|A|psi>. Imaginary part is pure roundoff when A is Hermitian."""
    _require_same_dim(state.dim, a.dim)
    return complex(np.vdot(state.amplitudes, a.entries @ state.amplitudes))


def diagonalize(h: Operator) -> Propagator:
    """Eigendecompose a Hermitian-flagged operator into a Propagator.

    Eigenvalues come back ascending; degenerate eigenvalues are returned
    as-is (grouping them into cells is the beables module's job).
    """
    if not h.hermitian:
        raise InputError("diagonalize requires a hermitian-flagged operator")
    try:
        energies, basis = np.linalg.eigh(h.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    return Propagator(energies, basis, h)


def evolve(state: QuantumState, prop: Propagator, dt: float) -> QuantumState:
    """Propagate |t> to |t + dt> exactly; dt < 0 runs time backwards."""
    _require_same_dim(state.dim, prop.dim)
    if dt == 0.0:
        return state
    coeff = prop.basis.conj().T @ state.amplitudes
    coeff *= np.exp(-1j * prop.energies * dt)
    return QuantumState(prop.basis @ coeff, time=state.time + dt)
