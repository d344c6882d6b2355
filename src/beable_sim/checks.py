"""The verification check suite behind `beable-sim verify`.

Each check measures one invariant of the configured model and compares it
against a fixed threshold; --strict tightens the thresholds that have
numerical headroom. Checks that need a single beable (or a two-cell one)
are skipped, not failed, on models where they do not apply. Reversibility,
level-set agreement and level conservation all read one pass over five
seeded trajectories, each integrated forward and back.

Each oracle input is computed once: the pass evolves the state and takes
its cell weights once per probe time and shares them across the
trajectories (the last state starts every backward leg), each trajectory
evaluates its conserved level once, each continuity point evaluates the
field's forms with one stacked call, and the average-consistency check
evaluates its expectation curve once per time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import BuiltModel
from .dynamics import _integrate_on_grid, TrajectoryStatus, quantum_distribution
from .errors import NumericError
from .linalg import evolve, expectation
from .verification import (
    average_consistency,
    cell_weights,
    continuity_residual,
    level_expectation,
    sample_initial,
    single_beable_levelset,
)

PASS, FAIL, SKIP = "pass", "fail", "skip"

# name -> (default threshold, strict threshold)
THRESHOLDS = {
    "probability_normalization": (1e-8, 1e-9),
    "continuity_residual": (1e-6, 1e-7),
    "reversibility": (1e-6, 1e-7),
    "levelset_agreement": (1e-5, 1e-5),
    "level_conservation": (1e-6, 1e-6),
    "average_consistency": (3e-3, 3e-3),
}


@dataclass
class CheckResult:
    name: str
    status: str
    measured: float | None
    threshold: float | None
    detail: str = ""

    def line(self) -> str:
        tag = self.status.upper()
        if self.status == SKIP:
            return f"SKIP {self.name}: {self.detail}"
        body = f"{tag} {self.name}: measured {self.measured:.3e} vs threshold {self.threshold:.3e}"
        if self.detail:
            body += f" ({self.detail})"
        return body

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "measured": self.measured,
            "threshold": self.threshold,
            "detail": self.detail,
        }


def _result(name, measured, strict, detail="") -> CheckResult:
    threshold = THRESHOLDS[name][1 if strict else 0]
    status = PASS if measured <= threshold else FAIL
    return CheckResult(name, status, float(measured), threshold, detail)


def _check_normalization(model: BuiltModel, strict: bool) -> CheckResult:
    t_final = model.config.run.t_final
    worst = 0.0
    for t in np.linspace(0.0, t_final, 9):
        state = evolve(model.state0, model.propagator, t)
        _, probs = quantum_distribution(state, model.beable_set)
        worst = max(worst, abs(float(probs.sum()) - 1.0))
    return _result("probability_normalization", worst, strict,
                   "sum over cell tuples at 9 times")


def _check_continuity(model: BuiltModel, strict: bool, n_points: int = 100) -> CheckResult:
    rng = np.random.default_rng((model.config.run.seed, 101))
    t_final = model.config.run.t_final
    counts = [b.n_cells for b in model.beable_set]
    worst = 0.0
    collected = 0
    attempts = 0
    while collected < n_points:
        attempts += 1
        if attempts > 200 * n_points:
            raise NumericError("could not find enough interior continuity points")
        # uniform between 0 and t_final, also for a backward run (t_final < 0)
        t = float(t_final * rng.random())
        lam = np.array([rng.uniform(-0.5, k - 0.5) for k in counts])
        state = evolve(model.state0, model.propagator, t)
        resid = continuity_residual(model.field, state, lam, h=1e-5)
        if resid is None:
            continue
        collected += 1
        worst = max(worst, resid)
    return _result("continuity_residual", worst, strict,
                   f"{n_points} random interior points, h=1e-5")


def _aborted(names, strict, detail) -> list:
    return [CheckResult(name, FAIL, float("nan"), THRESHOLDS[name][1 if strict else 0], detail)
            for name in names]


def _check_trajectories(model: BuiltModel, strict: bool, n_traj: int = 5) -> list:
    """Reversibility on every model, and level-set agreement and level
    conservation on single-beable ones, from one pass over n_traj seeded
    starts. Each start runs forward, recording 41 times when L = 1 and only
    t_final otherwise, then back to the start from its last sample. A node
    abort in either direction fails every check of the pass."""
    cfg = model.config
    t_final = cfg.run.t_final
    single = len(model.beable_set) == 1
    names = ("reversibility",) + (("levelset_agreement", "level_conservation") if single else ())
    times = np.linspace(0.0, t_final, 41) if single else np.array([t_final])
    # one evolved state per probe time, shared by every trajectory; the last
    # one starts the backward legs. On L = 1 the level-set oracle reads each
    # state's cell weights, also once per time
    states = [evolve(model.state0, model.propagator, float(t)) for t in times]
    b = model.beable_set[0]
    weights = [cell_weights(state, b) for state in states] if single else []
    worst = dict.fromkeys(names, 0.0)
    for i in range(n_traj):
        lam0 = sample_initial(model.state0, model.beable_set, (cfg.run.seed, 201, i)).values
        fwd = _integrate_on_grid(model.field, model.state0, lam0, times,
                                 cfg.dynamics.rtol, cfg.dynamics.atol)
        if fwd.status is not TrajectoryStatus.COMPLETED:
            return _aborted(names, strict, f"forward trajectory {i} aborted at a node")
        back = _integrate_on_grid(model.field, states[-1], fwd.final_lambdas,
                                  np.array([model.state0.time]),
                                  cfg.dynamics.rtol, cfg.dynamics.atol)
        if back.status is not TrajectoryStatus.COMPLETED:
            return _aborted(names, strict, f"backward trajectory {i} aborted at a node")
        worst["reversibility"] = max(worst["reversibility"],
                                     float(np.max(np.abs(back.lambdas[0] - lam0))))
        if not single:
            continue
        level0 = level_expectation(model.state0, b, float(lam0[0]))
        for k, state in enumerate(states):
            lam = float(fwd.lambdas[k, 0])
            oracle = single_beable_levelset(weights[k], level0)
            worst["levelset_agreement"] = max(worst["levelset_agreement"], abs(lam - oracle))
            worst["level_conservation"] = max(worst["level_conservation"],
                                              abs(level_expectation(state, b, lam) - level0))
    details = {
        "reversibility": f"{n_traj} forward/backward round trips to t={t_final:g}",
        "levelset_agreement": f"{n_traj} trajectories vs the level-set solution at 41 times",
        "level_conservation": "drift of the conserved level value along trajectories",
    }
    return [_result(name, worst[name], strict, details[name]) for name in names]


def _check_average_consistency(model: BuiltModel, strict: bool,
                               n_xi0: int = 1000) -> CheckResult:
    b = model.beable_set[0]
    lo, hi = float(b.eigenvalues.min()), float(b.eigenvalues.max())
    half_span = (hi - lo) / 2.0
    mid = (hi + lo) / 2.0
    t_final = model.config.run.t_final
    worst = 0.0
    for t in np.linspace(0.1 * t_final, t_final, 10):
        # the expectation curve of the beable, scaled to [-1, 1]
        raw = expectation(evolve(model.state0, model.propagator, float(t)), b.matrix).real
        value = (raw - mid) / half_span
        worst = max(worst, abs(average_consistency(value, n_xi0) - value))
    return _result("average_consistency", worst, strict,
                   f"midpoint average over {n_xi0} level constants at 10 times")


def run_checks(model: BuiltModel, strict: bool = False) -> list:
    """Run every applicable check; returns CheckResult objects in order."""
    results = [
        _check_normalization(model, strict),
        _check_continuity(model, strict),
        *_check_trajectories(model, strict),
    ]
    if len(model.beable_set) == 1:
        if model.beable_set[0].n_cells == 2:
            results.append(_check_average_consistency(model, strict))
        else:
            results.append(CheckResult("average_consistency", SKIP, None, None,
                                       "needs a two-cell beable"))
    else:
        for name in ("levelset_agreement", "level_conservation", "average_consistency"):
            results.append(CheckResult(name, SKIP, None, None,
                                       "needs a single-beable model"))
    return results
