"""Command-line front end.

Subcommands:
  simulate  integrate one trajectory and write it as CSV
  ensemble  run a seeded trajectory ensemble and write the comparison report
  verify    run the invariant check suite against a model

Exit codes: 0 success, 1 validation error, 2 numeric/node failure,
3 verification check failure. BEABLE_SIM_THREADS sets the ensemble
worker count when --workers is absent (default: available parallelism).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .checks import FAIL, run_checks
from .config import (
    SCHEMA_VERSION,
    build_model,
    config_hash,
    load_config,
    serialize_config,
    write_manifest,
)
from .dynamics import TrajectoryStatus, integrate_trajectory
from .errors import ConfigError, InputError, NumericError
from .verification import ensemble_equivariance, sample_initial


def _float_list(text: str, what: str) -> list:
    try:
        values = [float(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError as exc:
        raise InputError(f"could not parse {what} '{text}': {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise InputError(f"{what} must hold finite numbers, got '{text}'")
    return values


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config.run.seed = args.seed
    model = build_model(config)

    seed = config.run.seed
    if args.lambda0 is not None:
        lam0 = model.beable_set.lambda_config(_float_list(args.lambda0, "--lambda0"))
        seed_used = None
    else:
        lam0 = sample_initial(model.state0, model.beable_set, seed)
        seed_used = seed
    traj = integrate_trajectory(
        model.field, model.state0, lam0,
        t_final=config.run.t_final, output_dt=config.run.output_dt,
        rtol=config.dynamics.rtol, atol=config.dynamics.atol,
    )

    n_b = len(model.beable_set)
    header = (["t"]
              + [f"lambda_{ell}" for ell in range(n_b)]
              + [f"xi_{ell}" for ell in range(n_b)])
    rows = (
        [traj.times[k]] + list(traj.lambdas[k]) + list(traj.xis[k])
        for k in range(traj.times.size)
    )
    # the directory is made only once there is something to write, so a
    # rejected run leaves none behind
    os.makedirs(args.out, exist_ok=True)
    traj_path = os.path.join(args.out, "trajectory.csv")
    _write_csv(traj_path, header, rows)
    write_manifest(args.out, config, "simulate", seed_used, [traj_path])

    if traj.status is TrajectoryStatus.NODE_ABORTED:
        print(
            f"node abort at t = {traj.abort_time:.6g} in cells {traj.abort_cells}; "
            f"partial trajectory written to {traj_path}",
            file=sys.stderr,
        )
        return 2
    print(f"wrote {traj_path} ({traj.times.size} samples)")
    return 0


def cmd_ensemble(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config.run.seed = args.seed
    if args.trajectories is not None:
        config.run.n_trajectories = args.trajectories
    model = build_model(config)

    if args.times is not None:
        times = _float_list(args.times, "--times")
    elif config.run.times:
        times = list(config.run.times)
    else:
        times = [config.run.t_final]

    report = ensemble_equivariance(
        model.field, model.state0, config.run.n_trajectories, times,
        seed=config.run.seed, rtol=config.dynamics.rtol,
        atol=config.dynamics.atol, workers=args.workers,
    )

    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.json")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(config),
        **report.as_dict(),
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # long-format table for external plotting
    n_b = len(model.beable_set)
    header = (["time"] + [f"cell_{ell}" for ell in range(n_b)]
              + ["empirical_count", "empirical_probability", "quantum_probability"])
    denom = max(report.n_completed, 1)
    rows = []
    for k, t in enumerate(report.times):
        for j, cells in enumerate(report.cell_tuples):
            rows.append([t, *cells, report.empirical[k, j],
                         report.empirical[k, j] / denom, report.quantum[k, j]])
    table_path = os.path.join(args.out, "distributions.csv")
    _write_csv(table_path, header, rows)
    write_manifest(args.out, config, "ensemble", config.run.seed,
                   [report_path, table_path])

    # the TV distance is undefined at every time when no trajectory completed
    worst = f"{np.max(report.tv_distance):.4f}" if report.n_completed else "undefined"
    print(
        f"{report.n_completed}/{report.n_trajectories} trajectories completed, "
        f"{report.node_aborted_count} node-aborted; max TV distance {worst}"
    )
    if report.n_completed == 0:
        print("every trajectory aborted at a node", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    config = load_config(args.config)
    model = build_model(config)
    results = run_checks(model, strict=args.strict)
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config_hash": config_hash(config),
            "strict": bool(args.strict),
            "checks": [r.as_dict() for r in results],
            "passed": all(r.status != FAIL for r in results),
        }
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.status != FAIL for r in results) else 3


def cmd_config(args) -> int:
    """Emit the canonical expanded form of a config (or preset) to stdout."""
    if os.path.exists(args.config):
        config = load_config(args.config)
    else:
        from .presets import preset_config
        from .config import parse_config
        config = parse_config(preset_config(args.config))
    json.dump(serialize_config(config), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beable-sim",
        description="Deterministic pilot-wave trajectories for discrete-spectrum "
                    "observables, with equivariance verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate one trajectory")
    sim.add_argument("--config", required=True, help="model JSON file")
    sim.add_argument("--seed", type=int, default=None,
                     help="sample the initial lambda with this seed")
    sim.add_argument("--lambda0", default=None,
                     help="comma-separated initial lambda values (overrides --seed)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    ens = sub.add_parser("ensemble", help="run a trajectory ensemble")
    ens.add_argument("--config", required=True, help="model JSON file")
    ens.add_argument("--trajectories", type=int, default=None)
    ens.add_argument("--seed", type=int, default=None)
    ens.add_argument("--times", default=None,
                     help="comma-separated probe times (default: run.times)")
    ens.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: BEABLE_SIM_THREADS or the CPUs "
                          "available to the process)")
    ens.add_argument("--out", required=True, help="output directory")
    ens.set_defaults(func=cmd_ensemble)

    ver = sub.add_parser("verify", help="run the invariant check suite")
    ver.add_argument("--config", required=True, help="model JSON file")
    ver.add_argument("--strict", action="store_true",
                     help="tighten thresholds where there is numerical headroom")
    ver.add_argument("--json", action="store_true",
                     help="emit the machine-readable report on stdout")
    ver.set_defaults(func=cmd_verify)

    cfg = sub.add_parser("config", help="print the canonical form of a config or preset")
    cfg.add_argument("config", help="model JSON file or preset name")
    cfg.set_defaults(func=cmd_config)
    return parser


# one parser per process: building it costs about as much as a small model's
# set-up, and parse_args leaves it unchanged (every call fills a new namespace)
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("configuration is invalid:", file=sys.stderr)
        for msg in exc.messages:
            print(f"  - {msg}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
