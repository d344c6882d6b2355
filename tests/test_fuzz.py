"""Seeded fuzz models: random Hamiltonians, states and commuting beables.

Each model is drawn as follows: dim 2-8 and L = 1-3; every beable diagonal
in one shared Haar-random basis, with 2-3 distinct integer eigenvalues; a
random Hermitian H scaled by U(0.2, 2); a random state; rtol 1e-7 and
probe times 1, 2, 3. The block integrator must agree with the one-trajectory
path (statuses, cells, and recorded lambdas and abort times to 1e-12),
ensembles must not depend on the worker count, and every run must end in a
completion, a typed error, or a node abort in a cell tuple whose joint
projector is zero (rank 0), where P vanishes at every time. `verify` must
pass reversibility on three models whose own rtol 1e-7 would fail it.
"""

import numpy as np
import pytest

from beable_sim import TrajectoryStatus, ensemble_equivariance
from beable_sim.checks import PASS, run_checks
from beable_sim.config import build_model, matrix_to_pairs, parse_config, vector_to_pairs
from beable_sim.dynamics import DEFAULT_RTOL, _integrate_block, _integrate_on_grid
from beable_sim.errors import BeableSimError
from beable_sim.verification import _draw_starts, _initial_cdf

SEEDS = range(3001, 3021)
TIMES = np.array([1.0, 2.0, 3.0])
TOL = dict(rtol=1e-7, atol=1e-9)


def fuzz_config(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    n_beables = int(rng.integers(1, 4))
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    basis = q * (np.diag(r) / np.abs(np.diag(r)))
    beables = []
    for ell in range(n_beables):
        k = min(int(rng.integers(2, 4)), dim)
        values = rng.choice(np.arange(-3, 4), size=k, replace=False).astype(float)
        labels = np.concatenate([np.arange(k), rng.integers(0, k, dim - k)])
        rng.shuffle(labels)
        mat = (basis * values[labels]) @ basis.conj().T
        beables.append({"label": f"b{ell}",
                        "matrix": matrix_to_pairs(0.5 * (mat + mat.conj().T))})
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = rng.uniform(0.2, 2.0) * 0.5 * (a + a.conj().T)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return {
        "dimension": dim,
        "hamiltonian": matrix_to_pairs(h),
        "beables": beables,
        "initial_state": vector_to_pairs(psi / np.linalg.norm(psi)),
        "dynamics": {"rtol": TOL["rtol"], "atol": TOL["atol"]},
        "run": {"t_final": 3.0, "times": TIMES.tolist(), "seed": seed},
    }


def rank_zero(beable_set, cells) -> bool:
    return not (beable_set.labels == np.array(cells)[:, None]).all(axis=0).any()


def outcome(run):
    """run()'s result, or the type of the package error it raised."""
    try:
        return run()
    except BeableSimError as exc:
        return type(exc)


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_model(seed):
    try:
        model = build_model(parse_config(fuzz_config(seed)))
    except BeableSimError:
        return      # a typed error
    field, state0, bset = model.field, model.state0, model.beable_set
    starts = _draw_starts(*_initial_cdf(state0, bset), seed, range(10))

    scalar = [outcome(lambda: _integrate_on_grid(field, state0, lam, TIMES, **TOL))
              for lam in starts]
    block = outcome(lambda: _integrate_block(field, state0, starts, TIMES, **TOL))
    errors = [r for r in scalar if isinstance(r, type)]
    if errors:
        # a row that raises takes its whole block with it
        assert block in errors, seed
    else:
        assert not isinstance(block, type), seed
        for i, (a, b) in enumerate(zip(block, scalar)):
            assert a.status is b.status, (seed, i)
            assert a.abort_cells == b.abort_cells, (seed, i)
            assert np.array_equal(a.cells, b.cells), (seed, i)
            np.testing.assert_allclose(a.lambdas, b.lambdas, rtol=0.0, atol=1e-12,
                                       err_msg=f"seed {seed} start {i}")
            if a.status is TrajectoryStatus.NODE_ABORTED:
                assert abs(a.abort_time - b.abort_time) <= 1e-12, (seed, i)
                assert rank_zero(bset, a.abort_cells), (seed, i, a.abort_cells)

    reports = [outcome(lambda: ensemble_equivariance(field, state0, 100, TIMES, seed=seed,
                                                     workers=workers, **TOL))
               for workers in (1, 2)]
    if isinstance(reports[0], type):
        assert reports[1] is reports[0], seed
    else:
        assert np.array_equal(reports[0].empirical, reports[1].empirical), seed
        assert reports[0].node_aborted_count == reports[1].node_aborted_count, seed


@pytest.mark.parametrize("seed", [3012, 3013, 3019])
def test_verify_integrates_at_the_default_tolerances(seed):
    # at these models' own rtol 1e-7 the round trips drift by 1.0e-6 to
    # 1.7e-6, past the fixed reversibility threshold of 1e-6; verify
    # integrates at the default tolerances whatever the model sets
    model = build_model(parse_config(fuzz_config(seed)))
    assert model.config.dynamics.rtol == TOL["rtol"]
    result = next(r for r in run_checks(model) if r.name == "reversibility")
    assert result.status == PASS, result.line()
    assert f"rtol {DEFAULT_RTOL:g}" in result.detail
