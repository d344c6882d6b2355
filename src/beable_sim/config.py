"""Model-definition files: parsing, validation, canonical serialization.

One self-contained JSON file describes a run: the Hamiltonian, the beables,
the initial state, dynamics options, and run options. Complex numbers are
[re, im] pairs so files stay human-diffable and parser-free. A top-level
"preset" key (or a preset name in place of the hamiltonian/initial-state/
beable matrices) pulls fields from a shipped preset, with explicit keys
taking precedence.

Validation collects every violation before reporting so a broken config
fails once with the full list, and canonical serialization guarantees
serialize(parse(x)) is a fixed point (the round-trip contract the CLI's
manifest hashing relies on).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .beables import BeableSet, from_hermitian, validate_commuting_set
from .dynamics import (
    DEFAULT_ATOL,
    DEFAULT_NODE_FLOOR,
    DEFAULT_RTOL,
    Symmetrization,
    VelocityField,
)
from .errors import ConfigError, InputError
from .linalg import (
    HERMITICITY_TOL,
    NORMALIZATION_TOL,
    Operator,
    Propagator,
    QuantumState,
    diagonalize,
    max_norm,
)
from .presets import preset_config

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# [re, im] pair conversions

def pairs_to_matrix(obj, what: str) -> np.ndarray:
    try:
        a = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what}: expected nested [re, im] pairs: {exc}") from exc
    if a.ndim != 3 or a.shape[0] != a.shape[1] or a.shape[2] != 2:
        raise InputError(
            f"{what}: expected shape (dim, dim, 2) of [re, im] pairs, got {a.shape}"
        )
    return a[..., 0] + 1j * a[..., 1]


def pairs_to_vector(obj, what: str) -> np.ndarray:
    try:
        a = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what}: expected [re, im] pairs: {exc}") from exc
    if a.ndim != 2 or a.shape[1] != 2:
        raise InputError(f"{what}: expected shape (dim, 2) of [re, im] pairs, got {a.shape}")
    return a[:, 0] + 1j * a[:, 1]


def matrix_to_pairs(a: np.ndarray) -> list:
    a = np.asarray(a, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def vector_to_pairs(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


# ---------------------------------------------------------------------------
# parsed model

@dataclass
class BeableSpec:
    label: str
    matrix: np.ndarray
    ordering: tuple | None = None
    degeneracy_tol: float | None = None


@dataclass
class DynamicsOptions:
    symmetrization: str = Symmetrization.SYMMETRIC_AVERAGE.value
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    node_floor: float = DEFAULT_NODE_FLOOR


@dataclass
class RunOptions:
    t_final: float = 1.0
    output_dt: float = 0.05
    n_trajectories: int = 1000
    seed: int = 0
    times: tuple = ()


@dataclass
class ModelConfig:
    dimension: int
    hamiltonian: np.ndarray
    beables: list
    initial_state: np.ndarray
    dynamics: DynamicsOptions = field(default_factory=DynamicsOptions)
    run: RunOptions = field(default_factory=RunOptions)


def _merge_preset(raw: dict) -> dict:
    """Expand a top-level preset, per-section deep-merging explicit keys."""
    name = raw.get("preset")
    if name is None:
        return raw
    base = preset_config(name)
    merged = dict(base)
    for key, value in raw.items():
        if key == "preset":
            continue
        if key in ("dynamics", "run") and isinstance(value, dict):
            section = dict(base.get(key, {}))
            section.update(value)
            merged[key] = section
        else:
            merged[key] = value
    return merged


def _field_preset(value, section: str):
    """Resolve a string-valued hamiltonian/initial_state/beable matrix.

    A bare preset name takes that preset's field; a beable reference may
    select one of several beables with 'name#index'.
    """
    if not isinstance(value, str):
        return value
    if section == "beable":
        name, _, idx = value.partition("#")
        cfg = preset_config(name)
        entries = cfg["beables"]
        if idx:
            try:
                return entries[int(idx)]["matrix"]
            except (ValueError, IndexError) as exc:
                raise InputError(f"bad beable preset reference '{value}': {exc}") from exc
        if len(entries) != 1:
            raise InputError(
                f"preset '{name}' has {len(entries)} beables; "
                f"use '{name}#<index>' to pick one"
            )
        return entries[0]["matrix"]
    cfg = preset_config(value)
    return cfg["hamiltonian"] if section == "hamiltonian" else cfg["initial_state"]


def _options(cls, raw: dict, section: str, convert: dict):
    """cls from the keys that raw[section] states, each through its
    converter; every other field keeps the default declared on cls."""
    given = raw.get(section, {})
    if not isinstance(given, dict):
        raise InputError(f"{section} must be an object")
    return cls(**{key: conv(given[key]) for key, conv in convert.items() if key in given})


def parse_config(raw: dict) -> ModelConfig:
    """Turn a JSON-level dict into a ModelConfig (structural errors only;
    physics validation happens in validate_model)."""
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")
    raw = _merge_preset(raw)
    missing = [k for k in ("dimension", "hamiltonian", "beables", "initial_state")
               if k not in raw]
    if missing:
        raise InputError(f"config is missing required keys: {', '.join(missing)}")

    dim = raw["dimension"]
    if not isinstance(dim, int) or dim < 1:
        raise InputError(f"dimension must be a positive integer, got {dim!r}")

    h = pairs_to_matrix(_field_preset(raw["hamiltonian"], "hamiltonian"), "hamiltonian")
    state = pairs_to_vector(
        _field_preset(raw["initial_state"], "initial_state"), "initial_state")

    if not isinstance(raw["beables"], list) or not raw["beables"]:
        raise InputError("beables must be a non-empty list")
    beables = []
    for i, entry in enumerate(raw["beables"]):
        if not isinstance(entry, dict) or "matrix" not in entry:
            raise InputError(f"beables[{i}] must be an object with a 'matrix' key")
        mat = pairs_to_matrix(_field_preset(entry["matrix"], "beable"),
                              f"beables[{i}].matrix")
        ordering = entry.get("ordering")
        beables.append(BeableSpec(
            label=str(entry.get("label", f"beable_{i}")),
            matrix=mat,
            ordering=tuple(int(x) for x in ordering) if ordering is not None else None,
            degeneracy_tol=(float(entry["degeneracy_tol"])
                            if "degeneracy_tol" in entry else None),
        ))

    dyn = _options(DynamicsOptions, raw, "dynamics", {
        "symmetrization": str, "rtol": float, "atol": float, "node_floor": float})
    run = _options(RunOptions, raw, "run", {
        "t_final": float, "output_dt": float, "n_trajectories": int, "seed": int,
        "times": lambda times: tuple(float(t) for t in times)})
    return ModelConfig(dimension=dim, hamiltonian=h, beables=beables,
                       initial_state=state, dynamics=dyn, run=run)


def load_config(path) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def serialize_config(config: ModelConfig) -> dict:
    """Canonical JSON-level form; parse(serialize(c)) reproduces c exactly."""
    beables = []
    for spec in config.beables:
        entry = {"label": spec.label, "matrix": matrix_to_pairs(spec.matrix)}
        if spec.ordering is not None:
            entry["ordering"] = list(spec.ordering)
        if spec.degeneracy_tol is not None:
            entry["degeneracy_tol"] = spec.degeneracy_tol
        beables.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "dimension": config.dimension,
        "hamiltonian": matrix_to_pairs(config.hamiltonian),
        "beables": beables,
        "initial_state": vector_to_pairs(config.initial_state),
        "dynamics": {
            "symmetrization": config.dynamics.symmetrization,
            "rtol": config.dynamics.rtol,
            "atol": config.dynamics.atol,
            "node_floor": config.dynamics.node_floor,
        },
        "run": {
            "t_final": config.run.t_final,
            "output_dt": config.run.output_dt,
            "n_trajectories": config.run.n_trajectories,
            "seed": config.run.seed,
            "times": list(config.run.times),
        },
    }


def config_hash(config: ModelConfig) -> str:
    canonical = json.dumps(serialize_config(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# validation and building

def _check_model(config: ModelConfig) -> tuple:
    """(every violation as a human-readable message, the validated beable
    set or None); each beable and the joint eigenbasis are built once."""
    problems = []
    dim = config.dimension
    h = config.hamiltonian
    if h.shape != (dim, dim):
        problems.append(f"hamiltonian has shape {h.shape}, expected ({dim}, {dim})")
    else:
        scale = max(max_norm(h), 1e-300)
        resid = max_norm(h - h.conj().T)
        if resid > HERMITICITY_TOL * scale:
            problems.append(
                f"hamiltonian is not Hermitian (||H - H^dag||_max = {resid:.3e})"
            )

    if config.initial_state.shape != (dim,):
        problems.append(
            f"initial_state has shape {config.initial_state.shape}, expected ({dim},)"
        )
    else:
        norm = float(np.linalg.norm(config.initial_state))
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            problems.append(f"initial_state is not normalized (||psi|| = {norm:.12g})")

    built = []
    for i, spec in enumerate(config.beables):
        name = f"beable '{spec.label}' (index {i})"
        if spec.matrix.shape != (dim, dim):
            problems.append(f"{name} has shape {spec.matrix.shape}, expected ({dim}, {dim})")
            continue
        scale = max(max_norm(spec.matrix), 1e-300)
        resid = max_norm(spec.matrix - spec.matrix.conj().T)
        if resid > HERMITICITY_TOL * scale:
            problems.append(f"{name} is not Hermitian (residual {resid:.3e})")
            continue
        try:
            kwargs = {}
            if spec.degeneracy_tol is not None:
                kwargs["degeneracy_tol"] = spec.degeneracy_tol
            if spec.ordering is not None:
                kwargs["ordering"] = spec.ordering
            built.append(from_hermitian(Operator(spec.matrix, hermitian=True),
                                        label=spec.label, **kwargs))
        except InputError as exc:
            problems.append(f"{name}: {exc}")

    beable_set = None
    if len(built) == len(config.beables) and built:
        try:
            beable_set = validate_commuting_set(built)
        except InputError as exc:
            problems.append(str(exc))

    if config.dynamics.symmetrization not in {s.value for s in Symmetrization}:
        problems.append(
            f"dynamics.symmetrization must be one of "
            f"{sorted(s.value for s in Symmetrization)}, "
            f"got '{config.dynamics.symmetrization}'"
        )
    if config.dynamics.rtol <= 0 or config.dynamics.atol <= 0:
        problems.append("dynamics.rtol and dynamics.atol must be positive")
    if config.dynamics.node_floor < 0:
        problems.append("dynamics.node_floor must be non-negative")
    if config.run.output_dt <= 0:
        problems.append("run.output_dt must be positive")
    if config.run.n_trajectories < 1:
        problems.append("run.n_trajectories must be at least 1")
    return problems, beable_set


def validate_model(config: ModelConfig) -> list:
    """All violations at once, as human-readable messages."""
    return _check_model(config)[0]


@dataclass
class BuiltModel:
    config: ModelConfig
    hamiltonian: Operator
    propagator: Propagator
    beable_set: BeableSet
    state0: QuantumState
    field: VelocityField


def build_model(config: ModelConfig) -> BuiltModel:
    """Validate and assemble the runnable objects; every violation is
    reported together in one ConfigError."""
    problems, beable_set = _check_model(config)
    if problems:
        raise ConfigError(problems)
    h_op = Operator(config.hamiltonian, hermitian=True)
    prop = diagonalize(h_op)
    state0 = QuantumState(config.initial_state, time=0.0)
    vfield = VelocityField(
        beable_set, prop,
        symmetrization=Symmetrization(config.dynamics.symmetrization),
        node_floor=config.dynamics.node_floor,
    )
    return BuiltModel(config=config, hamiltonian=h_op, propagator=prop,
                      beable_set=beable_set, state0=state0, field=vfield)


# ---------------------------------------------------------------------------
# run manifests

def write_manifest(out_dir, config: ModelConfig, command: str, seed,
                   output_files) -> str:
    """Record what a run produced; data files are hashed so reruns with the
    same config hash and seed can be checked for bit-identical outputs."""
    import os

    outputs = []
    for path in output_files:
        with open(path, "rb") as fh:
            data = fh.read()
        outputs.append({
            "path": os.path.basename(str(path)),
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        })
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "command": command,
        "config_hash": config_hash(config),
        "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
    }
    path = os.path.join(str(out_dir), "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
