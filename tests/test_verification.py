import os
from concurrent.futures import Future

import numpy as np
import pytest

import beable_sim as bs
import beable_sim.verification as verification
from beable_sim.config import build_model, parse_config
from beable_sim.dynamics import _integrate_block
from beable_sim.errors import InputError, NumericError
from beable_sim.verification import _draw_lambda, _initial_cdf, _resolve_workers

from conftest import (SZ, build_with_defect, multinomial_tv_bound, random_hermitian,
                      random_state)


class TestSampleInitial:
    def test_same_seed_identical(self, rabi):
        a = bs.sample_initial(rabi.state0, rabi.beable_set, 42)
        b = bs.sample_initial(rabi.state0, rabi.beable_set, 42)
        assert np.array_equal(a.values, b.values)

    def test_eigenstate_pins_the_cell(self, rabi):
        # |up> lives in cell 1, so every draw lands there, uniform in lambda
        draws = np.array([
            bs.sample_initial(rabi.state0, rabi.beable_set, s).values[0]
            for s in range(300)
        ])
        assert np.all(draws >= 0.5)
        assert np.all(draws < 1.5)
        assert draws.std() > 0.1  # spread out, not stuck

    def test_balanced_superposition_frequencies(self, rabi):
        state = bs.QuantumState(np.array([1.0, 1.0]) / np.sqrt(2))
        n = 2000
        cells = np.array([
            bs.cell_index(rabi.beable,
                          bs.sample_initial(state, rabi.beable_set, s).values[0])
            for s in range(n)
        ])
        frac0 = np.mean(cells == 0)
        assert abs(frac0 - 0.5) <= 3.0 / (2.0 * np.sqrt(n))

    def test_correlated_beables(self):
        # Bell-like state: only (1,1) and (0,0) tuples ever appear
        from conftest import I2
        a = bs.from_hermitian(bs.Operator(np.kron(SZ, I2), hermitian=True))
        b = bs.from_hermitian(bs.Operator(np.kron(I2, SZ), hermitian=True))
        bset = bs.validate_commuting_set([a, b])
        state = bs.QuantumState(np.array([1, 0, 0, 1]) / np.sqrt(2))
        for s in range(200):
            lam = bs.sample_initial(state, bset, s)
            cells = tuple(bs.cell_index(x, v) for x, v in zip(bset, lam.values))
            assert cells in {(0, 0), (1, 1)}


def reference_draw(state, bset, rng):
    """The per-trajectory draw, distribution recomputed on every call."""
    tuples, probs = bs.quantum_distribution(state, bset)
    probs = np.clip(probs, 0.0, None)
    cum = np.cumsum(probs / probs.sum())
    idx = min(int(np.searchsorted(cum, rng.random(), side="right")), len(tuples) - 1)
    cells = np.array(tuples[idx], dtype=float)
    return cells + rng.uniform(-0.5, 0.5, size=len(bset))


class TestSharedInitialDistribution:
    def test_precomputed_distribution_draws_bit_identically(self):
        m = build_model(parse_config({"preset": "two-qubit"}))
        state = bs.evolve(m.state0, m.propagator, 2.0)   # every tuple above 0.1
        initial = _initial_cdf(state, m.beable_set)
        seen = set()
        for seed in (0, 17):
            for i in range(100):
                shared = _draw_lambda(*initial, np.random.default_rng((seed, i)))
                own = bs.sample_initial(state, m.beable_set, (seed, i))
                ref = reference_draw(state, m.beable_set, np.random.default_rng((seed, i)))
                assert shared.tobytes() == own.values.tobytes() == ref.tobytes()
                seen.add(tuple(np.floor(ref + 0.5).astype(int)))
        assert len(seen) == 4


class TestTwoStateSolution:
    def test_positive_branch(self):
        oracle = bs.TwoStateOracle(omega=1.0, xi0=0.0)
        assert bs.two_state_solution(oracle, np.pi / 4) == 1.0

    def test_negative_branch(self):
        oracle = bs.TwoStateOracle(omega=1.0, xi0=0.0)
        assert bs.two_state_solution(oracle, 3 * np.pi / 4) == -1.0

    def test_initial_value(self):
        for xi0 in (-0.99, -0.3, 0.0, 0.7, 0.999):
            oracle = bs.TwoStateOracle(omega=2.0, xi0=xi0)
            assert bs.two_state_solution(oracle, 0.0) == 1.0

    def test_flip_time(self):
        oracle = bs.TwoStateOracle(omega=0.7, xi0=0.4)
        t_star = oracle.first_flip_time()
        assert bs.two_state_solution(oracle, t_star - 1e-6) == 1.0
        assert bs.two_state_solution(oracle, t_star + 1e-6) == -1.0

    def test_xi0_range_enforced(self):
        with pytest.raises(InputError):
            bs.TwoStateOracle(omega=1.0, xi0=1.5)


class TestSingleBeableLevelset:
    def test_conserved_beable_is_static(self, rng):
        h = random_hermitian(rng, 5)
        prop = bs.diagonalize(h)
        b = bs.from_hermitian(h)
        state = random_state(rng, 5)
        for t in (0.0, 1.7, 8.0):
            lam = bs.single_beable_levelset(bs.cell_weights(bs.evolve(state, prop, t), b),
                                            bs.level_expectation(state, b, 0.3))
            assert lam == pytest.approx(0.3, abs=1e-10)

    def test_bottom_boundary_fixed_point(self, rabi):
        state = bs.QuantumState(np.array([1.0, 1.0]) / np.sqrt(2))
        for t in (0.0, 0.9, 2.5):
            lam = bs.single_beable_levelset(
                bs.cell_weights(bs.evolve(state, rabi.propagator, t), rabi.beable),
                bs.level_expectation(state, rabi.beable, -0.5))
            assert lam == pytest.approx(-0.5, abs=1e-12)

    def test_matches_sign_formula(self, rabi):
        # the two closed forms of the one-beable solution must agree
        rng = np.random.default_rng(5)
        disagreements = 0
        for _ in range(1000):
            xi0 = rng.uniform(-0.999, 0.999)
            t = rng.uniform(0.0, 8.0)
            if abs(np.cos(t) - xi0) <= 1e-4:
                continue  # flip instant: cell assignment is degenerate there
            lam0 = 1.0 - xi0 / 2.0  # L0 = (1 - xi0)/2 inside cell 1
            oracle = bs.TwoStateOracle(omega=rabi.omega, xi0=xi0)
            lam_t = bs.single_beable_levelset(
                bs.cell_weights(rabi.state(t), rabi.beable),
                bs.level_expectation(rabi.state0, rabi.beable, lam0))
            xi_levelset = bs.eigenvalue_at(rabi.beable, lam_t)
            if xi_levelset != bs.two_state_solution(oracle, t):
                disagreements += 1
        assert disagreements == 0

    def test_out_of_domain_lambda_rejected(self, rabi):
        from beable_sim.errors import NumericError
        with pytest.raises(NumericError):
            bs.single_beable_levelset(bs.cell_weights(rabi.state(1.0), rabi.beable),
                                      bs.level_expectation(rabi.state0, rabi.beable, 3.7))

    def test_level_outside_unit_interval_rejected(self, rabi):
        for level0 in (-1e-6, 1.0 + 1e-6):
            with pytest.raises(InputError):
                bs.single_beable_levelset(bs.cell_weights(rabi.state0, rabi.beable), level0)


class TestAverageConsistency:
    def test_initial_time_is_exact(self):
        oracle = bs.TwoStateOracle(omega=1.0, xi0=0.0)
        assert bs.average_consistency(oracle.curve(0.0), 1000) == 1.0

    def test_half_period_is_exact(self):
        oracle = bs.TwoStateOracle(omega=1.0, xi0=0.0)
        assert bs.average_consistency(oracle.curve(np.pi), 1000) == -1.0

    def test_third_period(self):
        oracle = bs.TwoStateOracle(omega=1.0, xi0=0.0)
        avg = bs.average_consistency(oracle.curve(np.pi / 3), 1000)
        assert abs(avg - 0.5) <= 2.0 / 1000 + 1e-9

    def test_matches_curve_everywhere(self):
        oracle = bs.TwoStateOracle(omega=1.3, xi0=0.0)
        for t in np.linspace(0.1, 7.0, 9):
            avg = bs.average_consistency(oracle.curve(t), 2000)
            assert abs(avg - np.cos(1.3 * t)) <= 2.0 / 2000 + 1e-9

    def test_minimum_sample_count(self):
        with pytest.raises(InputError):
            bs.average_consistency(bs.TwoStateOracle(1.0, 0.0).curve(1.0), 50)


class TestContinuityResidual:
    def test_conserved_beable_vanishes(self, rng):
        h = random_hermitian(rng, 4)
        prop = bs.diagonalize(h)
        b = bs.from_hermitian(h)
        field = bs.VelocityField(bs.validate_commuting_set([b]), prop)
        state = random_state(rng, 4)
        resid = bs.continuity_residual(field, state, [0.1], h=1e-5)
        assert resid is not None and resid <= 1e-10

    def test_rabi_random_points(self, rabi):
        rng = np.random.default_rng(11)
        count = 0
        while count < 100:
            t = rng.uniform(0.0, 2.5)
            lam = rng.uniform(-0.5, 1.5)
            resid = bs.continuity_residual(rabi.field, rabi.state(t), [lam], h=1e-5)
            if resid is None:
                continue
            count += 1
            assert resid <= 1e-6

    def test_boundary_proximity_skips(self, rabi):
        assert bs.continuity_residual(rabi.field, rabi.state(0.5), [0.5 - 1e-7]) is None

    def test_ordering_independence(self, rng):
        # relabeling cells must not change the physics of the residual
        xi = random_hermitian(rng, 5)
        h = random_hermitian(rng, 5)
        prop = bs.diagonalize(h)
        state = random_state(rng, 5)
        asc = bs.from_hermitian(xi)
        perm = tuple(rng.permutation(asc.n_cells))
        shuffled = bs.from_hermitian(xi, ordering=perm)
        f_asc = bs.VelocityField(bs.validate_commuting_set([asc]), prop)
        f_shf = bs.VelocityField(bs.validate_commuting_set([shuffled]), prop)
        for _ in range(20):
            t = rng.uniform(0.0, 2.0)
            st = bs.evolve(state, prop, t)
            n_spec = rng.integers(0, asc.n_cells)
            frac = rng.uniform(-0.45, 0.45)
            r_asc = bs.continuity_residual(f_asc, st, [n_spec + frac], h=1e-6)
            r_shf = bs.continuity_residual(f_shf, st, [perm[n_spec] + frac], h=1e-6)
            if r_asc is None or r_shf is None:
                continue
            assert abs(r_asc - r_shf) <= 1e-6

    @pytest.mark.parametrize("preset", bs.PRESET_NAMES)
    def test_equals_single_call_central_differences(self, preset):
        # the residual takes its forms from stacked calls, bit for bit the
        # central differences of one probability or currents call per offset
        m = build_model(parse_config({"preset": preset}))
        field, h = m.field, 1e-5
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 20:
            state = bs.evolve(m.state0, m.propagator, float(rng.uniform(0.0, m.config.run.t_final)))
            lam = np.array([rng.uniform(-0.5, b.n_cells - 0.5) for b in field.beable_set])
            got = bs.continuity_residual(field, state, lam, h=h)
            if got is None:
                continue
            cells = tuple(bs.cell_index(b, x) for b, x in zip(field.beable_set, lam))
            coeff = field.state_coefficients(state)
            phase = np.exp(-1j * h * field.propagator.energies)
            dp_dt = (field.probability(coeff * phase, cells)
                     - field.probability(coeff * phase.conj(), cells)) / (2.0 * h)
            div = sum(field.currents(coeff, lam + d, cells)[ell]
                      - field.currents(coeff, lam - d, cells)[ell]
                      for ell, d in enumerate(h * np.eye(len(cells)))) / (2.0 * h)
            assert got == abs(dp_dt + div), f"{preset} t={state.time} lambda={lam}"
            checked += 1


class TestEnsembleEquivariance:
    def test_static_model_tv_is_sampling_noise(self, rng):
        h = random_hermitian(rng, 4)
        prop = bs.diagonalize(h)
        b = bs.from_hermitian(h)
        field = bs.VelocityField(bs.validate_commuting_set([b]), prop)
        state = random_state(rng, 4)
        n = 400
        rep = bs.ensemble_equivariance(field, state, n, [0.0, 1.0, 3.0],
                                       seed=9, workers=1)
        assert rep.node_aborted_count == 0
        c = len(rep.cell_tuples)
        assert np.all(rep.tv_distance <= 3.0 * np.sqrt(c / n))
        # static model: occupation counts never change between probe times
        assert np.array_equal(rep.empirical[0], rep.empirical[1])
        assert np.array_equal(rep.empirical[0], rep.empirical[2])

    def test_rabi_fraction(self, rabi):
        n = 1500
        rep = bs.ensemble_equivariance(rabi.field, rabi.state0, n,
                                       [np.pi / 2], seed=123, workers=1,
                                       rtol=1e-7, atol=1e-9)
        frac1 = rep.empirical[0, 1] / rep.n_completed
        assert abs(frac1 - 0.5) <= 3.0 * 0.5 / np.sqrt(n)

    def test_seeded_determinism(self, rabi):
        kwargs = dict(times=[0.5, 1.5], seed=77, rtol=1e-7, atol=1e-9)
        a = bs.ensemble_equivariance(rabi.field, rabi.state0, 150, workers=1, **kwargs)
        b = bs.ensemble_equivariance(rabi.field, rabi.state0, 150, workers=1, **kwargs)
        assert np.array_equal(a.empirical, b.empirical)
        assert np.array_equal(a.tv_distance, b.tv_distance)
        assert a.as_dict() == b.as_dict()

    def test_worker_count_does_not_change_results(self, rabi):
        kwargs = dict(times=[0.8], seed=31, rtol=1e-7, atol=1e-9)
        serial = bs.ensemble_equivariance(rabi.field, rabi.state0, 120, workers=1, **kwargs)
        parallel = bs.ensemble_equivariance(rabi.field, rabi.state0, 120, workers=2, **kwargs)
        assert np.array_equal(serial.empirical, parallel.empirical)

    def test_two_qubit_counts_do_not_depend_on_the_block_split(self):
        m = build_model(parse_config({"preset": "two-qubit"}))
        counts = [
            bs.ensemble_equivariance(m.field, m.state0, 150, [1.0, 2.5], seed=8,
                                     rtol=1e-7, atol=1e-9, workers=workers).empirical
            for workers in (1, 2, 3)
        ]
        assert np.array_equal(counts[0], counts[1])
        assert np.array_equal(counts[0], counts[2])

    @pytest.mark.parametrize("name", bs.PRESET_NAMES)
    def test_histogram_recounts_the_records_through_cell_index(self, name):
        # the report counts the cells the integrator recorded; the oracle
        # recounts the same rows' recorded lambdas through cell_index
        cfg = parse_config({"preset": name})
        m = build_model(cfg)
        rep = bs.ensemble_equivariance(m.field, m.state0, 100, cfg.run.times, seed=12,
                                       rtol=1e-7, atol=1e-9, workers=1)
        tuples, cum = _initial_cdf(m.state0, m.beable_set)
        starts = np.array([_draw_lambda(tuples, cum, np.random.default_rng((12, i)))
                           for i in range(100)])
        recount = np.zeros_like(rep.empirical)
        for traj in _integrate_block(m.field, m.state0, starts, rep.times, 1e-7, 1e-9):
            if traj.status is not bs.TrajectoryStatus.COMPLETED:
                continue
            for k, lam in enumerate(traj.lambdas):
                cells = tuple(bs.cell_index(b, x) for b, x in zip(m.beable_set, lam))
                recount[k, rep.cell_tuples.index(cells)] += 1
        assert np.array_equal(rep.empirical, recount)
        assert recount.sum(axis=1).tolist() == [rep.n_completed] * rep.times.size

    def test_pool_has_one_worker_per_block(self, rabi, monkeypatch):
        # 100 trajectories at 11 workers make 10 blocks of 10; an in-process
        # stand-in for the pool records its size and checks that the pool
        # would fork its workers
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                sizes.append(max_workers)
                assert mp_context.get_start_method() == "fork"
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        kwargs = dict(times=[0.8, 2.0], seed=5, rtol=1e-7, atol=1e-9)
        serial = bs.ensemble_equivariance(rabi.field, rabi.state0, 100, workers=1, **kwargs)
        monkeypatch.setattr(verification, "ProcessPoolExecutor", InlinePool)
        # the stand-in runs the pool initializer in this process
        monkeypatch.setattr(verification, "_worker_inputs", None)
        pooled = bs.ensemble_equivariance(rabi.field, rabi.state0, 100, workers=11, **kwargs)
        assert sizes == [10]
        assert np.array_equal(serial.empirical, pooled.empirical)

    def test_histogram_sums_to_completed(self, rabi):
        rep = bs.ensemble_equivariance(rabi.field, rabi.state0, 120,
                                       [0.3, 0.9], seed=3, workers=1,
                                       rtol=1e-7, atol=1e-9)
        assert np.all(rep.empirical.sum(axis=1) == rep.n_completed)
        assert np.all(np.abs(rep.quantum.sum(axis=1) - 1.0) <= 1e-8)

    def test_minimum_size_enforced(self, rabi):
        with pytest.raises(InputError):
            bs.ensemble_equivariance(rabi.field, rabi.state0, 10, [1.0], seed=1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_probe_times_must_be_finite(self, rabi, bad):
        # an infinite target is never reached, and NaN compares false
        with pytest.raises(InputError, match="probe times must be finite"):
            bs.ensemble_equivariance(rabi.field, rabi.state0, 100, [1.0, bad], seed=1,
                                     workers=1)

    def test_tv_consistent_with_sampling_noise(self, rabi):
        # tv at t=0 is pure multinomial noise by construction; later times
        # must stay on the same scale (no systematic drift with t)
        n = 2000
        rep = bs.ensemble_equivariance(rabi.field, rabi.state0, n,
                                       [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4],
                                       seed=404, workers=1, rtol=1e-7, atol=1e-9)
        assert np.all(rep.tv_distance <= multinomial_tv_bound(rep.quantum, n, seed=1))

    @pytest.mark.parametrize("seed", [1008, 1019, 1031, 666882578])
    def test_pair_toy_ensembles_complete(self, seed):
        # each of these seeds once raised NumericError: a trial step that
        # crossed into a fast cell overshot by many cells, where J was
        # evaluated far outside its cell
        cfg = parse_config({"preset": "pair-toy"})
        m = build_model(cfg)
        rep = bs.ensemble_equivariance(m.field, m.state0, 100, cfg.run.times, seed=seed,
                                       rtol=1e-7, atol=1e-9, workers=1)
        assert rep.n_completed == 100
        assert np.all(rep.tv_distance <= multinomial_tv_bound(rep.quantum, rep.n_completed, seed=1))


BLAS_THREADS = verification._openblas_threads()


def blas_threads():
    return BLAS_THREADS[0]()


@pytest.mark.skipif(BLAS_THREADS is None,
                    reason="numpy's BLAS exports no OpenBLAS thread-count symbols")
class TestSingleThreadedBlas:
    """An ensemble runs with OpenBLAS at one thread, set in this process
    before the pool forks, and restores the count it found."""

    @pytest.fixture(autouse=True)
    def two_threads(self):
        get, put = BLAS_THREADS
        before = get()
        put(2)
        yield
        put(before)

    def test_pinned_inside_and_restored_after(self):
        with verification._single_threaded_blas():
            assert blas_threads() == 1
        assert blas_threads() == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_block_runs_at_one_thread(self, rabi, monkeypatch, workers):
        def chunk(field, state0, times, tuples, cum, seed, indices, rtol, atol):
            # in a pool worker at workers = 2; the count comes back as "aborted"
            return np.zeros((times.size, len(tuples)), dtype=np.int64), blas_threads()

        monkeypatch.setattr(verification, "_run_chunk", chunk)
        rep = bs.ensemble_equivariance(rabi.field, rabi.state0, 100, [0.5], seed=1,
                                       workers=workers)
        assert rep.node_aborted_count == workers     # one block per worker, at 1 thread
        assert blas_threads() == 2

    def test_restored_when_the_ensemble_raises(self, monkeypatch):
        m = build_model(parse_config({"preset": "two-qubit"}))
        build_with_defect(monkeypatch, m.field, 1, 1e-3j * np.eye(m.beable_set.dim))
        with pytest.raises(NumericError, match="current component 0 "):
            bs.ensemble_equivariance(m.field, m.state0, 100, [0.5], seed=1, workers=1)
        assert blas_threads() == 2


class TestFlipTimeEncoding:
    def test_flip_time_recovers_xi0(self, rabi):
        # lambda is observable at hops: <t_j|xi|t_j> = xi0 at the flip
        for lam0, seed in [(1.3, 0), (0.8, 1), (1.45, 2)]:
            xi0 = 1.0 - 2.0 * bs.level_expectation(rabi.state0, rabi.beable, lam0)

            def lam_at(t):
                traj = bs.integrate_trajectory(rabi.field, rabi.state0, [lam0],
                                               t_final=t, output_dt=t)
                return traj.lambdas[-1, 0]

            lo, hi = 1e-3, 3.1
            assert lam_at(lo) > 0.5 > lam_at(hi)
            for _ in range(45):
                mid = 0.5 * (lo + hi)
                if lam_at(mid) > 0.5:
                    lo = mid
                else:
                    hi = mid
            t_flip = 0.5 * (lo + hi)
            assert abs(np.cos(rabi.omega * t_flip) - xi0) <= 1e-6


class TestWorkerResolution:
    def test_explicit_wins(self):
        assert _resolve_workers(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("BEABLE_SIM_THREADS", "5")
        assert _resolve_workers(None) == 5

    def test_default_counts_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.delenv("BEABLE_SIM_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _resolve_workers(None) == 1

    def test_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("BEABLE_SIM_THREADS", "lots")
        with pytest.raises(InputError):
            _resolve_workers(None)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_explicit_count_below_one_is_refused(self, workers):
        with pytest.raises(InputError, match=rf"\(--workers\) must be at least 1, got {workers}$"):
            _resolve_workers(workers)

    def test_env_count_below_one_is_refused(self, monkeypatch):
        monkeypatch.setenv("BEABLE_SIM_THREADS", "0")
        with pytest.raises(InputError, match="BEABLE_SIM_THREADS must be at least 1, got '0'"):
            _resolve_workers(None)
