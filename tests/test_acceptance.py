"""Acceptance suite: one test (and one printed verdict line) per criterion.

Everything here is oracle- or property-based at desk scale. The statistical
ensembles (criterion 2) run n = 10^4 trajectories at rtol 1e-7, which keeps
lambda errors around 1e-5, five orders of magnitude below the statistical
resolution of the histograms, while staying inside the per-preset runtime
budget; every tolerance asserted below is fixed here, not tuned at runtime.
"""

import time

import numpy as np
import pytest

import beable_sim as bs
from beable_sim.checks import run_checks
from beable_sim.cli import main
from beable_sim.config import build_model, parse_config
from beable_sim.presets import PRESET_NAMES, preset_config

from conftest import multinomial_tv_bound, random_hermitian, random_state

ENSEMBLE_RTOL, ENSEMBLE_ATOL = 1e-7, 1e-9


def announce(capsys, criterion, ok, text):
    with capsys.disabled():
        print(f"\n[acceptance] criterion {criterion}: "
              f"{'PASS' if ok else 'FAIL'} ({text})")
    assert ok, f"criterion {criterion}: {text}"


def built(name):
    return build_model(parse_config(preset_config(name)))


# -- 1. continuity-equation residual ----------------------------------------

@pytest.mark.parametrize("name", PRESET_NAMES)
def test_criterion_1_continuity(name, capsys):
    model = built(name)
    rng = np.random.default_rng((1, PRESET_NAMES.index(name)))
    t_final = model.config.run.t_final
    counts = [b.n_cells for b in model.beable_set]
    start = time.perf_counter()
    worst = 0.0
    collected = 0
    while collected < 100:
        t = float(rng.uniform(0.0, t_final))
        lam = np.array([rng.uniform(-0.5, k - 0.5) for k in counts])
        state = bs.evolve(model.state0, model.propagator, t)
        resid = bs.continuity_residual(model.field, state, lam, h=1e-5)
        if resid is None:
            continue
        collected += 1
        worst = max(worst, resid)
    elapsed = time.perf_counter() - start
    announce(capsys, 1, worst <= 1e-6 and elapsed < 10.0,
             f"{name}: max residual {worst:.2e} <= 1e-6 over 100 interior "
             f"points in {elapsed:.1f}s")


# -- 2. Born-rule equivariance at n = 10^4 -----------------------------------

def test_criterion_2_two_state_fraction(capsys):
    model = built("two-state-rabi")
    times = [np.pi / 4, np.pi / 2, 3 * np.pi / 4]
    start = time.perf_counter()
    rep = bs.ensemble_equivariance(model.field, model.state0, 10_000, times,
                                   seed=2024, rtol=ENSEMBLE_RTOL,
                                   atol=ENSEMBLE_ATOL)
    elapsed = time.perf_counter() - start
    fracs = rep.empirical[:, 1] / rep.n_completed
    expected = np.cos(np.asarray(times) / 2) ** 2
    worst = float(np.max(np.abs(fracs - expected)))
    ok = worst <= 0.015 and elapsed < 120.0 and rep.node_aborted_count == 0
    announce(capsys, 2, ok,
             f"two-state-rabi: max |cell-1 fraction - cos^2(wt/2)| = {worst:.4f} "
             f"<= 0.015 at n=10^4, {rep.node_aborted_count} aborts, {elapsed:.0f}s")


@pytest.mark.parametrize("name", ["two-qubit", "number-operator"])
def test_criterion_2_tv_distance(name, capsys):
    model = built(name)
    times = list(model.config.run.times)
    start = time.perf_counter()
    rep = bs.ensemble_equivariance(model.field, model.state0, 10_000, times,
                                   seed=2025, rtol=ENSEMBLE_RTOL,
                                   atol=ENSEMBLE_ATOL)
    elapsed = time.perf_counter() - start
    # the 0.03 budget must dominate pure multinomial sampling noise
    noise = multinomial_tv_bound(rep.quantum, rep.n_completed, seed=0)
    worst = float(np.max(rep.tv_distance))
    ok = (noise <= 0.03 and worst <= 0.03 and elapsed < 120.0
          and rep.node_aborted_count <= 5)
    announce(capsys, 2, ok,
             f"{name}: max TV {worst:.4f} <= 0.03 (sampling-noise 99.9% "
             f"quantile {noise:.4f}) at n=10^4 over times <= {max(times):.2f}, "
             f"{rep.node_aborted_count} aborts, {elapsed:.0f}s")


# -- 3. exact one-beable oracles --------------------------------------------

def test_criterion_3_levelset_agreement(capsys):
    rng = np.random.default_rng(33)
    worst = 0.0
    times = np.linspace(0.0, 10.0, 21)
    for k in range(20):
        dim = int(rng.integers(2, 9))
        h = random_hermitian(rng, dim)
        prop = bs.diagonalize(h)
        b = bs.from_hermitian(random_hermitian(rng, dim), label=f"r{k}")
        field = bs.VelocityField(bs.validate_commuting_set([b]), prop)
        state = random_state(rng, dim)
        lam0 = bs.sample_initial(state, field.beable_set, (33, k))
        from beable_sim.dynamics import _integrate_on_grid
        res = _integrate_on_grid(field, state, lam0, times, 1e-9, 1e-11)
        assert res.status is bs.TrajectoryStatus.COMPLETED, f"system {k} aborted"
        for j, t in enumerate(times):
            oracle = bs.single_beable_levelset(
                bs.cell_weights(bs.evolve(state, prop, float(t)), b),
                bs.level_expectation(state, b, float(lam0.values[0])))
            worst = max(worst, abs(res.lambdas[j, 0] - oracle))
    announce(capsys, 3, worst <= 1e-5,
             f"integration vs level-set oracle: max |dlambda| = {worst:.2e} "
             f"<= 1e-5 over 20 random dim<=8 systems, t in [0, 10]")


def test_criterion_3_sign_formula(capsys):
    model = built("two-state-rabi")
    rng = np.random.default_rng(303)
    disagreements = 0
    compared = 0
    for _ in range(1000):
        xi0 = float(rng.uniform(-0.999, 0.999))
        t = float(rng.uniform(0.05, 8.0))
        if abs(np.cos(t) - xi0) <= 1e-4:
            continue  # flip instant, excluded by the criterion
        compared += 1
        lam0 = 1.0 - xi0 / 2.0
        traj = bs.integrate_trajectory(model.field, model.state0, [lam0],
                                       t_final=t, output_dt=t)
        xi_int = traj.xis[-1, 0]
        oracle = bs.two_state_solution(bs.TwoStateOracle(omega=1.0, xi0=xi0), t)
        if xi_int != oracle:
            disagreements += 1
    announce(capsys, 3, disagreements == 0,
             f"two-state sign formula vs integrated occupancy: "
             f"{disagreements} disagreements over {compared} of 1000 points "
             f"away from flips")


# -- 4. ensemble-average consistency ----------------------------------------

def test_criterion_4_average_consistency(capsys):
    worst = 0.0
    for t in np.linspace(0.2, 3.0, 10):
        oracle = bs.TwoStateOracle(omega=1.0, xi0=0.0)
        avg = bs.average_consistency(oracle.curve(float(t)), 1000)
        worst = max(worst, abs(avg - np.cos(t)))
    announce(capsys, 4, worst <= 3e-3,
             f"midpoint average over 10^3 xi0 vs cos(wt): max error "
             f"{worst:.2e} <= 3e-3 at 10 times")


# -- 5. determinism and reversibility ---------------------------------------

def test_criterion_5_determinism(capsys):
    identical = True
    for name in PRESET_NAMES:
        model = built(name)
        lam_a = bs.sample_initial(model.state0, model.beable_set, 5)
        lam_b = bs.sample_initial(model.state0, model.beable_set, 5)
        identical &= np.array_equal(lam_a.values, lam_b.values)
        t_a = bs.integrate_trajectory(model.field, model.state0, lam_a,
                                      t_final=1.5, output_dt=0.1)
        t_b = bs.integrate_trajectory(model.field, model.state0, lam_b,
                                      t_final=1.5, output_dt=0.1)
        identical &= np.array_equal(t_a.lambdas, t_b.lambdas)
        rep_a = bs.ensemble_equivariance(model.field, model.state0, 120,
                                         [0.5, 1.0], seed=6, workers=2,
                                         rtol=ENSEMBLE_RTOL, atol=ENSEMBLE_ATOL)
        rep_b = bs.ensemble_equivariance(model.field, model.state0, 120,
                                         [0.5, 1.0], seed=6, workers=1,
                                         rtol=ENSEMBLE_RTOL, atol=ENSEMBLE_ATOL)
        identical &= rep_a.as_dict() == rep_b.as_dict()
    announce(capsys, 5, identical,
             "identical seeds give bit-identical trajectories and ensemble "
             "reports for every preset (worker count included)")


def test_criterion_5_reversibility(capsys):
    worst = 0.0
    for name in PRESET_NAMES:
        model = built(name)
        t_final = model.config.run.t_final
        for k in range(3):
            lam0 = bs.sample_initial(model.state0, model.beable_set, (50, k))
            fwd = bs.integrate_trajectory(model.field, model.state0, lam0,
                                          t_final=t_final, output_dt=t_final,
                                          rtol=1e-9, atol=1e-11)
            assert fwd.status is bs.TrajectoryStatus.COMPLETED
            state_t = bs.evolve(model.state0, model.propagator, t_final)
            back = bs.integrate_trajectory(model.field, state_t,
                                           fwd.final_lambdas, t_final=0.0,
                                           output_dt=t_final,
                                           rtol=1e-9, atol=1e-11)
            assert back.status is bs.TrajectoryStatus.COMPLETED
            worst = max(worst, float(np.max(np.abs(back.final_lambdas - lam0.values))))
    announce(capsys, 5, worst <= 1e-6,
             f"forward-then-backward at rtol 1e-9 recovers lambda(0) within "
             f"{worst:.2e} <= 1e-6 for all presets")


# -- 6. conservation ----------------------------------------------------------

def test_criterion_6_probability_normalization(capsys):
    worst = 0.0
    for name in PRESET_NAMES:
        model = built(name)
        probe = list(model.config.run.times) + list(
            np.linspace(0.0, model.config.run.t_final, 7))
        for t in probe:
            state = bs.evolve(model.state0, model.propagator, float(t))
            _, probs = bs.quantum_distribution(state, model.beable_set)
            worst = max(worst, abs(float(probs.sum()) - 1.0))
    announce(capsys, 6, worst <= 1e-8,
             f"sum of cell-tuple probabilities within {worst:.2e} <= 1e-8 "
             f"of 1 at all probed times, all presets")


def test_criterion_6_level_conservation(capsys):
    worst = 0.0
    times = np.linspace(0.0, 10.0, 51)
    for name in PRESET_NAMES:
        model = built(name)
        if len(model.beable_set) != 1:
            continue
        b = model.beable_set[0]
        lam0 = bs.sample_initial(model.state0, model.beable_set, 60)
        from beable_sim.dynamics import _integrate_on_grid
        res = _integrate_on_grid(model.field, model.state0, lam0, times,
                                 1e-9, 1e-11)
        assert res.status is bs.TrajectoryStatus.COMPLETED, f"{name} aborted"
        level0 = bs.level_expectation(model.state0, b, float(lam0.values[0]))
        for j, t in enumerate(times):
            state = bs.evolve(model.state0, model.propagator, float(t))
            level = bs.level_expectation(state, b, float(res.lambdas[j, 0]))
            worst = max(worst, abs(level - level0))
    announce(capsys, 6, worst <= 1e-6,
             f"single-beable level value drifts {worst:.2e} <= 1e-6 "
             f"over t in [0, 10] for every L=1 preset")


# -- 7. validation gates -------------------------------------------------------

def test_criterion_7_validation_gates(tmp_path, capsys):
    import json

    base = parse_config(preset_config("two-state-rabi"))
    from beable_sim.config import serialize_config

    def run_case(mutate, expect_text):
        raw = serialize_config(base)
        mutate(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code = main(["verify", "--config", str(path)])
        err = capsys.readouterr().err
        return code == 1 and expect_text in err

    def non_commuting(raw):
        raw["beables"].append({
            "label": "sx",
            "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        })

    def non_hermitian(raw):
        raw["hamiltonian"][0][1] = [0.5, 0.25]

    def unnormalized(raw):
        raw["initial_state"] = [[1.0, 0.0], [1.0, 0.0]]

    ok = (run_case(non_commuting, "do not commute")
          and run_case(non_hermitian, "not Hermitian")
          and run_case(unnormalized, "not normalized"))
    announce(capsys, 7, ok,
             "non-commuting beables, non-Hermitian Hamiltonians and "
             "unnormalized states all exit 1 with the offender named")


# -- release gate: the shipped check suite passes on every preset -------------

@pytest.mark.parametrize("name", PRESET_NAMES)
def test_verify_suite_passes_on_presets(name, capsys):
    results = run_checks(built(name), strict=False)
    failed = [r.name for r in results if r.status == "fail"]
    announce(capsys, "verify", not failed,
             f"{name}: {sum(r.status == 'pass' for r in results)} checks pass"
             + (f", failed: {failed}" if failed else ""))
