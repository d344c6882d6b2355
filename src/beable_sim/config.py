"""Model-definition files: parsing, validation, canonical serialization.

One self-contained JSON file describes a run: the Hamiltonian, the beables,
the initial state, dynamics options, and run options. Complex numbers are
[re, im] pairs so files stay human-diffable and parser-free. A top-level
"preset" key (or a preset name in place of the hamiltonian/initial-state/
beable matrices) pulls fields from a shipped preset, with explicit keys
taking precedence.

Parsing raises InputError on the first structural fault, naming the key
and its value. Validation then builds each input once, through the
constructor that owns its invariant (Operator for Hermiticity, QuantumState
for normalization, from_hermitian and validate_commuting_set for the
beables), and lists every violation once, with its offender named, in one
ConfigError. Canonical serialization guarantees serialize(parse(x)) is a
fixed point (the round-trip contract the CLI's manifest hashing relies on).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field
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
from .linalg import Operator, Propagator, QuantumState, diagonalize
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
    """Nested [re, im] pairs of a complex array, a matrix or a vector."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


vector_to_pairs = matrix_to_pairs


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


def _number(value, what: str) -> float:
    """value as a finite float; NaN and infinities fail every later check
    (NaN compares false) or never finish, so they are rejected here."""
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be a number, got {value!r}") from exc
    if not math.isfinite(out):
        raise InputError(f"{what} must be a finite number, got {value!r}")
    return out


def _integer(value, what: str) -> int:
    """value as an int; integral floats such as 7.0 pass, bools do not."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, float) and value.is_integer()):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _sequence(value, what: str, item) -> tuple:
    """A JSON list as a tuple, each entry through item(entry, 'what[i]')."""
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{what} must be a list, got {value!r}")
    return tuple(item(x, f"{what}[{i}]") for i, x in enumerate(value))


def _options(cls, raw: dict, section: str, convert: dict):
    """cls from the keys that raw[section] states, each through its
    converter; every other field keeps the default declared on cls."""
    given = raw.get(section, {})
    if not isinstance(given, dict):
        raise InputError(f"{section} must be an object")
    return cls(**{key: conv(given[key], f"{section}.{key}")
                  for key, conv in convert.items() if key in given})


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

    dim = _integer(raw["dimension"], "dimension")
    if dim < 1:
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
            ordering=(_sequence(ordering, f"beables[{i}].ordering", _integer)
                      if ordering is not None else None),
            degeneracy_tol=(_number(entry["degeneracy_tol"], f"beables[{i}].degeneracy_tol")
                            if "degeneracy_tol" in entry else None),
        ))

    dyn = _options(DynamicsOptions, raw, "dynamics", {
        "symmetrization": lambda value, what: str(value),
        "rtol": _number, "atol": _number, "node_floor": _number})
    run = _options(RunOptions, raw, "run", {
        "t_final": _number, "output_dt": _number, "n_trajectories": _integer,
        "seed": _integer, "times": lambda value, what: _sequence(value, what, _number)})
    return ModelConfig(dimension=dim, hamiltonian=h, beables=beables,
                       initial_state=state, dynamics=dyn, run=run)


def load_config(path) -> ModelConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def serialize_config(config: ModelConfig, array=matrix_to_pairs) -> dict:
    """Canonical JSON-level form; parse(serialize(c)) reproduces c exactly.
    Each complex array is given as array(a), called in the order H, each
    beable matrix, the initial state."""
    hamiltonian = array(config.hamiltonian)
    beables = []
    for spec in config.beables:
        entry = {"label": spec.label, "matrix": array(spec.matrix)}
        if spec.ordering is not None:
            entry["ordering"] = list(spec.ordering)
        if spec.degeneracy_tol is not None:
            entry["degeneracy_tol"] = spec.degeneracy_tol
        beables.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "dimension": config.dimension,
        "hamiltonian": hamiltonian,
        "beables": beables,
        "initial_state": array(config.initial_state),
        "dynamics": asdict(config.dynamics),
        "run": {**asdict(config.run), "times": list(config.run.times)},
    }


def config_hash(config: ModelConfig) -> str:
    """SHA-256 of serialize_config's canonical JSON (sorted keys, no
    whitespace) with each complex array replaced by its shape, followed by
    the arrays' little-endian complex128 bytes in serialization order: H,
    each beable matrix, the initial state. It covers every field the
    canonical form holds, so equal configs give equal digests, without
    formatting the arrays as text."""
    arrays = []

    def shape(a):
        arrays.append(np.ascontiguousarray(a, dtype="<c16"))
        return list(arrays[-1].shape)

    canonical = json.dumps(serialize_config(config, shape), sort_keys=True,
                           separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8"))
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# validation and building

def _built(problems: list, name: str, entries: np.ndarray, shape: tuple, build, **kwargs):
    """build(entries, **kwargs) if entries has the expected shape; else, or
    when build raises InputError, None with the fault listed under name."""
    if entries.shape != shape:
        problems.append(f"{name} has shape {entries.shape}, expected {shape}")
        return None
    try:
        return build(entries, **kwargs)
    except InputError as exc:
        problems.append(f"{name} {exc}")
        return None


def _check_model(config: ModelConfig) -> tuple:
    """(every violation as a human-readable message, the Hamiltonian
    Operator, the initial QuantumState, the BeableSet). Each input is built
    once, by the constructor that owns its check; one that failed is None."""
    problems = []
    dim = config.dimension
    h_op = _built(problems, "hamiltonian", config.hamiltonian, (dim, dim),
                  Operator, hermitian=True)
    state0 = _built(problems, "initial_state", config.initial_state, (dim,), QuantumState)
    built = []
    for i, spec in enumerate(config.beables):
        name = f"beable '{spec.label}' (index {i})"
        xi = _built(problems, name, spec.matrix, (dim, dim), Operator, hermitian=True)
        if xi is None:
            continue
        tol = {} if spec.degeneracy_tol is None else {"degeneracy_tol": spec.degeneracy_tol}
        try:
            built.append(from_hermitian(xi, ordering=spec.ordering, label=spec.label, **tol))
        except InputError as exc:
            problems.append(f"{name}: {exc}")

    beable_set = None
    # a commutation verdict on a set with a member missing would mislead
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
    return problems, h_op, state0, beable_set


def validate_model(config: ModelConfig) -> list:
    """All violations at once, as human-readable messages."""
    return _check_model(config)[0]


@dataclass
class BuiltModel:
    config: ModelConfig
    propagator: Propagator
    beable_set: BeableSet
    state0: QuantumState
    field: VelocityField


def build_model(config: ModelConfig) -> BuiltModel:
    """Validate and assemble the runnable objects; every violation is
    reported together in one ConfigError."""
    problems, h_op, state0, beable_set = _check_model(config)
    if problems:
        raise ConfigError(problems)
    prop = diagonalize(h_op)
    vfield = VelocityField(
        beable_set, prop,
        symmetrization=Symmetrization(config.dynamics.symmetrization),
        node_floor=config.dynamics.node_floor,
    )
    return BuiltModel(config=config, propagator=prop, beable_set=beable_set,
                      state0=state0, field=vfield)


# ---------------------------------------------------------------------------
# run manifests

def write_manifest(out_dir, digest: str, command: str, seed, output_files) -> str:
    """Record what a run produced. digest is the run config's config_hash,
    which the caller computes once per command and may also write into its
    report; data files are hashed so reruns with the same config hash and
    seed can be checked for bit-identical outputs."""
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
        "config_hash": digest,
        "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
    }
    path = os.path.join(str(out_dir), "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
