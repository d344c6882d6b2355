import numpy as np
import pytest

import beable_sim as bs

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return bs.Operator((a + a.conj().T) / 2, hermitian=True)


def multinomial_tv_bound(quantum_rows, n, seed, quantile=0.999, reps=2000):
    """The largest quantile, over the rows, of the TV distance between n
    multinomial draws from a row (clipped at 0 and normalized) and the row
    itself: a direct simulation of the sampling-noise bound."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for q in quantum_rows:
        q = np.clip(q, 0.0, None)
        q = q / q.sum()
        draws = rng.multinomial(n, q, size=reps) / n
        tv = 0.5 * np.abs(draws - q).sum(axis=1)
        worst = max(worst, float(np.quantile(tv, quantile)))
    return worst


def stack_view(gemm):
    """The stored operators [Pi, X_0..X_{L-1}, interior Y_ell] as a
    (K, dim, dim) view of the (dim, K dim) matrix that _forms multiplies by,
    so that writing to it changes that matrix."""
    dim = gemm.shape[0]
    return gemm.reshape(dim, -1, dim).transpose(1, 2, 0)


def tuple_stack(field, cells):
    """The tuple's stored operators as a (K, dim, dim) view (stack_view)."""
    return stack_view(field._tuple_ops(cells)[0])


def build_with_defect(monkeypatch, field, slot, defect):
    """Make field build every tuple's stack with defect (dim, dim) added to
    its stored matrix at slot, before the build checks the stack."""
    build = field._tuple_stack

    def defective(cells):
        gemm, expand = build(cells)
        stack_view(gemm)[slot] += defect
        return gemm, expand
    monkeypatch.setattr(field, "_tuple_stack", defective)


def velocity(field, state, lambdas):
    """v = J / P of the field at one configuration, in the cells of lambdas
    (the closed top boundary K - 1/2 included), from
    VelocityField.velocities."""
    lam = np.asarray(lambdas, dtype=float)
    cells = tuple(bs.cell_index(b, x) for b, x in zip(field.beable_set, lam.tolist()))
    return field.velocities(field.state_coefficients(state), lam, cells, state.time)


def random_state(rng, dim, time=0.0):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return bs.QuantumState(v / np.linalg.norm(v), time=time)


class RabiModel:
    """H = (omega/2) sigma_x with the sigma_z beable, starting in |up>."""

    def __init__(self, omega=1.0):
        self.omega = omega
        self.hamiltonian = bs.Operator(0.5 * omega * SX, hermitian=True)
        self.propagator = bs.diagonalize(self.hamiltonian)
        self.beable = bs.from_hermitian(bs.Operator(SZ, hermitian=True), label="sz")
        self.beable_set = bs.validate_commuting_set([self.beable])
        self.state0 = bs.QuantumState([1.0, 0.0])
        self.field = bs.VelocityField(self.beable_set, self.propagator)

    def state(self, t):
        return bs.evolve(self.state0, self.propagator, t)


@pytest.fixture(scope="session")
def rabi():
    return RabiModel()


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
