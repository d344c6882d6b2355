#!/usr/bin/env python3
"""The beable-sim benchmark: ensemble throughput, CLI latency and a per-layer trace.

    python3 bench/run.py --workload presets-ensemble --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; the package is imported from ./src and
nothing is installed. Scratch files go to ./.bench_run (removed at the end).
The last line of stdout is the result; the line before it records sample
counts, the end-to-end values before rescaling to the reference speed, a
hash of the seeded ensemble counts, the failures and the machine.

Set-up (parse_config + build_model over the workload's models, repeated;
setup_s is the median) runs first. Then the workload's phases share
--seconds, interleaved round by round:

  ensemble  seeded equivariance ensembles at workers = nproc, one call per
            model a round, each on a freshly built model as a CLI run gets
  simulate  in-process `beable-sim simulate`, one call per model a round
  verify    in-process `beable-sim verify --json`, one call per model a pass

  presets-ensemble  the presets; ensembles are library calls at the
                    acceptance tolerances (rtol 1e-7, atol 1e-9)
  qubits5-ensemble  sigma_z on 5 qubits (dim 32), one model drawn from
                    seed 0; ensembles are library calls as above
  cli-interactive   the presets; mostly `simulate`, and the ensembles
                    are small `beable-sim ensemble` calls at rtol 1e-9

pair-toy runs in set-up and `verify` only (see NO_TRAJECTORIES).

End-to-end metrics (--trace 0), every time in seconds at a reference
machine speed (see probe_seconds):

  setup_s      the median set-up repeat
  traj_per_s   completed trajectories over the summed wall time of every
               ensemble call; a call that raised completed none but keeps
               its time, and node-aborted trajectories do not count
  sim_ms_p50   the mean over models of each model's median `simulate`
  sim_ms_p90   see sim_percentiles
  verify_s     the sum over models of each model's median `verify`
  peak_rss_mb  the peak summed resident set of this process and its
               workers, sampled during ensemble calls (see RssSampler)

Every operation counts in the result's `attempted`. `failed` counts each
ensemble trajectory that aborts at a node or is lost to an exception (an
ensemble call that raises loses all of its trajectories), each CLI call that
exits nonzero, and each output check that fails. Only a failed output check
makes the run incorrect (`"correct": false`):

  - a `simulate` CSV without the expected number of rows;
  - a `verify --json` that does not report "passed": true;
  - an ensemble whose exact distribution differs from an independent
    dense-matrix reference by more than 1e-9;
  - per model and probe time, a TV distance of the pooled histogram beyond
    the multinomial sampling-noise quantile at the completed count. The
    quantile is family-wise: a correct program fails one of a run's TV
    checks with probability at most 1e-3, however many there are;
  - in a traced run, counts that differ between workers = nproc,
    workers = 1 and the traced pass.

--trace 1 prints the per-layer metrics instead. The phases run as above
for TRACE_SHARE of --seconds, untraced; then each round runs again at
workers = 1, untraced and traced in turn, and the run adds the first
velocity call per cell tuple on the sigma_z chain at L = 4, 5 and 6.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import struct
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "beable_sim" / "__init__.py").is_file():
    sys.exit(f"bench: no beable_sim package under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))

from beable_sim import checks, cli, config, dynamics, presets, verification  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer, counting_pool  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
ENSEMBLE_RTOL, ENSEMBLE_ATOL = 1e-7, 1e-9   # the acceptance-suite tolerances
TV_LEVEL = 1e-3               # family-wise false-alarm rate of one run's TV checks
TV_EXCEEDANCES = 20           # noise draws beyond the quantile that settle a check
QUANTUM_TOL = 1e-9            # reported vs reference exact probabilities
VERIFY_FAILED_EXIT = 3        # the CLI's exit code for a FAIL check
SETUP_REPEATS = 15
QUBITS5_TIMES = (0.5, 1.0, 1.5, 2.0)
SWEEP_QUBITS = (4, 5, 6)
SWEEP_TUPLES = 8
TRACE_SHARE = 0.25            # share of each phase budget a traced run measures
PROBE_S = 2.5e-3              # probe_seconds() at the reference speed
RSS_INTERVAL = 0.1            # seconds between resident-set samples
ENSEMBLE_SPAN = "verification.ensemble_equivariance"
VELOCITY_SPAN = "dynamics.velocities"
QDIST_SPAN = "verification.quantum_distribution"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "BEABLE_SIM_THREADS")


def probe_loop() -> float:
    """Seconds of a fixed reference loop of small numpy products driven from
    Python, the same mix as the velocity hot path; the fastest of three
    repeats, which discards one hit by an interrupt."""
    a = np.arange(16.0).reshape(4, 4) + 1j
    v = np.ones(4, dtype=complex)
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(1000):
            np.vdot(v, a @ v)
        best = min(best, perf_counter() - t0)
    return best


def probe_seconds(processes: int = 1) -> float:
    """probe_loop, run at once in `processes` processes (forked when more
    than one), averaged. On a shared machine the speed of a core drifts by
    tens of percent within seconds, and load from elsewhere slows the probe
    and the program alike, so every timing is rescaled by PROBE_S / (mean of
    the probes just before and after it) on as many processes as the timed
    work used. On a 2-core VM that cut the run-to-run spread (IQR / median)
    of a fixed `verify` from 0.34 to 0.10, and of presets-ensemble
    traj_per_s at 2 workers from 0.15 to 0.04, where a one-process probe
    left 0.08."""
    if processes == 1:
        return probe_loop()
    children = []
    try:
        for _ in range(processes):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read)
                    os.write(write, struct.pack("d", probe_loop()))
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read))
        total = 0.0
        for _, read in children:
            with os.fdopen(read, "rb", closefd=False) as fh:
                total += struct.unpack("d", fh.read())[0]
        return total / processes
    finally:
        for pid, read in children:
            os.close(read)
            os.waitpid(pid, 0)


def derive_seed(seed: int, *keys: int) -> int:
    """A seed below 2**31 for one operation, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0] >> 1)


# ---------------------------------------------------------------------------
# models and workloads

@dataclass
class Model:
    name: str
    raw: dict            # JSON-level config, as written to the model file
    times: tuple         # ensemble probe times
    path: str = ""       # model file in the run directory
    out: str = ""        # CLI output directory
    rows: int = 0        # trajectory.csv rows one `simulate` must write
    n_beables: int = 0
    reference: np.ndarray | None = None   # exact distribution at `times`
    trajectories: bool = True             # runs in the ensemble and simulate phases


def qubit_chain_config(n_qubits: int, seed: int) -> dict:
    """sigma_z on each of n qubits under H = U diag(E) U^dag, with U Haar
    random and the state random, both drawn from the seed, and E evenly
    spaced on [-1.5, 1.5]. The fixed spectrum keeps the cost of a trajectory
    within a few percent from seed to seed; a GUE draw of H spread it over
    10-17 ms at L = 5."""
    rng = np.random.default_rng([seed, n_qubits])
    dim = 2 ** n_qubits
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    h = (u * np.linspace(-1.5, 1.5, dim)) @ u.conj().T
    h = 0.5 * (h + h.conj().T)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    beables = []
    for k in range(n_qubits):
        diag = np.ones(1)
        for j in range(n_qubits):
            diag = np.kron(diag, [1.0, -1.0] if j == k else [1.0, 1.0])
        beables.append({"label": f"sz_{k}", "matrix": config.matrix_to_pairs(np.diag(diag))})
    return {
        "dimension": dim,
        "hamiltonian": config.matrix_to_pairs(h),
        "beables": beables,
        "initial_state": config.vector_to_pairs(psi),
        "run": {"t_final": QUBITS5_TIMES[-1], "output_dt": 0.05,
                "seed": derive_seed(seed, 3), "times": list(QUBITS5_TIMES)},
    }


# Presets left out of the ensemble and simulate phases, because their
# trajectories fail: on pair-toy, VelocityField.currents raises NumericError
# when a DP45 stage evaluates J far outside its cell near small P (the
# imaginary-part tolerance is absolute while |J| reaches 1e7). That hits
# about 1 trajectory in 1000 at rtol 1e-7, where it discards the whole
# ensemble call, and some `simulate` runs at rtol 1e-9. Its set-up and
# `verify` do not fail and still run. test_run.py reproduces the failure.
NO_TRAJECTORIES = frozenset({"pair-toy"})


def preset_models(seed: int) -> list:
    return [Model(name, {"preset": name}, tuple(presets.preset_config(name)["run"]["times"]),
                  trajectories=name not in NO_TRAJECTORIES)
            for name in presets.PRESET_NAMES]


def qubits5_models(seed: int) -> list:
    """One L = 5 model, drawn from seed 0 whatever the workload seed: the
    cost of a trajectory, a `simulate` and a `verify` moved by 20-40% from
    one random model to the next, which no run length here averages out.
    The workload seed still draws every trajectory."""
    return [Model("qubits5", qubit_chain_config(5, 0), QUBITS5_TIMES)]


@dataclass(frozen=True)
class Workload:
    models: Callable[[int], list]
    phases: tuple        # ((phase, share of --seconds), ...) in run order
    ensemble_n: int      # trajectories per ensemble call
    via_cli: bool        # ensembles through `beable-sim ensemble`, not the library


# Trajectories per ensemble call. Each call also pays for a fresh model, the
# pool's start-up, the field pickled and its tuple cache rebuilt in every
# block, and the exact distribution. The share of a call's wall time beyond
# the same trajectories' serial work / 2 workers, on a 2-core x86_64 VM:
#   qubits5   0.33 at n = 100, 0.24 at 400, 0.14 at 1000
#   presets   within the +-0.1 noise of that measurement at n = 100, 400
#             and 1000 alike
# Real callers use n = 1000 (the presets' run.n_trajectories) to 10000. The
# run-to-run spread (IQR / median) of qubits5 traj_per_s was 0.14-0.27 at
# n = 1000, with 3-4 calls a run, and 0.05 at n = 400, with 7-9, so qubits5
# runs n = 400 and its figure carries the larger per-call share. The
# presets, where n does not move the share, keep the library minimum so
# that a run holds several calls per preset.
WORKLOADS = {
    "presets-ensemble": Workload(
        preset_models, (("ensemble", 0.45), ("simulate", 0.35), ("verify", 0.2)),
        ensemble_n=100, via_cli=False),
    "qubits5-ensemble": Workload(
        qubits5_models, (("ensemble", 0.7), ("simulate", 0.15), ("verify", 0.15)),
        ensemble_n=400, via_cli=False),
    "cli-interactive": Workload(
        preset_models, (("simulate", 0.3), ("ensemble", 0.5), ("verify", 0.2)),
        ensemble_n=100, via_cli=True),
}


# ---------------------------------------------------------------------------
# independent oracles

def expected_rows(t_final: float, output_dt: float) -> int:
    """Samples on the grid 0, dt, 2 dt, ... plus t_final when off the grid."""
    n = int(math.floor(t_final / output_dt + 1e-9))
    off_grid = abs(n * output_dt - t_final) > 1e-12 * max(1.0, t_final)
    return n + 1 + int(off_grid)


def reference_distribution(cfg, times) -> np.ndarray:
    """Exact cell-tuple probabilities at each time, computed without the
    package: dense eigh of H and diagonal beables whose cells are their
    distinct eigenvalues in ascending order (the default cell ordering)."""
    labels, shape = [], []
    for spec in cfg.beables:
        m = spec.matrix
        if spec.ordering is not None or np.abs(m - np.diag(np.diag(m))).max() > 0.0:
            raise ValueError(f"reference needs a diagonal, default-ordered beable: {spec.label}")
        values = np.round(np.diag(m).real, 9)
        distinct = np.unique(values)
        labels.append(np.searchsorted(distinct, values))
        shape.append(distinct.size)
    flat = np.ravel_multi_index(labels, shape)
    energies, basis = np.linalg.eigh(cfg.hamiltonian)
    c0 = basis.conj().T @ cfg.initial_state
    rows = []
    for t in sorted(times):
        psi = basis @ (c0 * np.exp(-1j * energies * t))
        rows.append(np.bincount(flat, weights=np.abs(psi) ** 2, minlength=math.prod(shape)))
    return np.array(rows)


def tv_within_noise(observed: float, q: np.ndarray, n: int, level: float,
                    rng: np.random.Generator, chunk: int = 20_000) -> bool:
    """True when `observed` is at most the (1 - level) quantile of the TV
    distance between a multinomial(n, q) histogram and q, estimated from
    TV_EXCEEDANCES / level draws (stopping early once that many draws reach
    `observed`)."""
    q = np.clip(q, 0.0, None)
    q = q / q.sum()
    reps = math.ceil(TV_EXCEEDANCES / level)
    reached = drawn = 0
    while drawn < reps:
        k = min(chunk, reps - drawn)
        tv = 0.5 * np.abs(rng.multinomial(n, q, size=k) / n - q).sum(axis=1)
        reached += int(np.count_nonzero(tv >= observed))
        drawn += k
        if reached >= TV_EXCEEDANCES:
            return True
    return False


# ---------------------------------------------------------------------------
# one run

@dataclass
class Result:
    """One operation: its model, its measured seconds, the factor that
    rescales them to the reference speed and, for an ensemble, its
    trajectories, the completed ones and their counts (None when the call
    failed)."""
    model: int
    wall: float
    scale: float = 1.0
    n: int = 0
    completed: int = 0
    counts: np.ndarray | None = None

    def seconds(self) -> float:
        return self.wall * self.scale

    def raw_seconds(self) -> float:
        return self.wall


class Run:
    """A workload's models, scratch files and the outcome of every operation."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.models = self.spec.models(seed)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = []
        self.probes = {k: [probe_seconds(k)] for k in {1, NPROC}}   # by process count
        self.rss = RssSampler()
        for i, m in enumerate(self.models):
            m.path = str(workdir / f"model-{i}.json")
            m.out = str(workdir / f"out-{i}")
            with open(m.path, "w", encoding="utf-8") as fh:
                json.dump(m.raw, fh)
            cfg = config.parse_config(m.raw)
            m.rows = expected_rows(cfg.run.t_final, cfg.run.output_dt)
            m.n_beables = len(cfg.beables)
            m.reference = reference_distribution(cfg, m.times)

    def speed_scale(self, processes: int = 1) -> float:
        """PROBE_S over the mean of the last probe on as many processes and
        a new one; multiplies the seconds of the work done between the two
        on that many processes."""
        probes = self.probes[processes]
        probes.append(probe_seconds(processes))
        return PROBE_S / (0.5 * (probes[-2] + probes[-1]))

    def operation(self, what: str, attempted: int, failed: int):
        """Count operations that ran; `failed` of them raised, exited nonzero
        or aborted at a node."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(what)
            print(f"bench: FAILED {what}", file=sys.stderr)

    def check(self, ok: bool, what: str):
        """Count one output check; a failed one makes the run incorrect."""
        self.operation(what, 1, 0 if ok else 1)
        self.wrong += not ok


def cli_call(argv: list, tracer: Tracer | None):
    """Run the CLI in-process; returns (exit code, stdout text, seconds)."""
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span("cli." + argv[0]):
                rc = cli.main(argv)
    return rc, buf.getvalue(), perf_counter() - t0


def ensemble_job(run: Run, i: int, seed: int, workers: int,
                 tracer: Tracer | None) -> Result:
    m, n = run.models[i], run.spec.ensemble_n
    what = f"ensemble {m.name} seed {seed} workers {workers}"
    model = None if run.spec.via_cli else config.build_model(config.parse_config(m.raw))
    t0 = perf_counter()
    try:
        if run.spec.via_cli:
            with run.rss.sampling():
                rc, _, wall = cli_call(["ensemble", "--config", m.path, "--trajectories", str(n),
                                        "--seed", str(seed), "--workers", str(workers),
                                        "--out", m.out], tracer)
            if rc != 0:
                run.operation(f"{what}: exit code {rc}", n, n)
                return Result(i, wall, n=n)
            with open(os.path.join(m.out, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            counts = np.array(report["empirical_counts"], dtype=np.int64)
            quantum = np.array(report["quantum_probabilities"])
            aborted = int(report["node_aborted_count"])
        else:
            with run.rss.sampling():
                rep = verification.ensemble_equivariance(
                    model.field, model.state0, n, m.times, seed=seed,
                    rtol=ENSEMBLE_RTOL, atol=ENSEMBLE_ATOL, workers=workers)
            wall = perf_counter() - t0
            counts, quantum, aborted = rep.empirical, rep.quantum, rep.node_aborted_count
    except Exception:
        traceback.print_exc()
        run.operation(f"{what}: raised", n, n)
        return Result(i, perf_counter() - t0, n=n)
    run.operation(f"{what}: {aborted} node-aborted", n, aborted)
    gap = float(np.max(np.abs(quantum - m.reference)))
    run.check(gap <= QUANTUM_TOL, f"{what}: exact distribution off the reference by {gap:.2e}")
    return Result(i, wall, n=n, completed=n - aborted, counts=counts)


def simulate_job(run: Run, i: int, seed: int, tracer: Tracer | None) -> Result:
    m = run.models[i]
    rc, _, wall = cli_call(["simulate", "--config", m.path, "--seed", str(seed),
                            "--out", m.out], tracer)
    what = f"simulate {m.name} seed {seed}"
    run.operation(f"{what}: exit code {rc}", 1, int(rc != 0))
    if rc == 0:
        with open(os.path.join(m.out, "trajectory.csv"), encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        run.check(rows == m.rows, f"{what}: {rows} rows, want {m.rows}")
    return Result(i, wall)


def verify_job(run: Run, i: int, tracer: Tracer | None) -> Result:
    m = run.models[i]
    rc, out, wall = cli_call(["verify", "--json", "--config", m.path], tracer)
    try:
        passed = json.loads(out)["passed"] is True
    except (ValueError, KeyError):
        passed = False
    what = f"verify {m.name}: exit code {rc}, passed {passed}"
    if rc in (0, VERIFY_FAILED_EXIT):
        run.check(rc == 0 and passed, what)
    else:
        run.operation(what, 1, 1)
    return Result(i, wall)


def rounds_for(run: Run, phase: str):
    """The endless sequence of job rounds of a phase: one job per model,
    and in the ensemble and simulate phases only per model with trajectories."""
    r = 0
    while True:
        if phase == "verify":
            yield [(i,) for i in range(len(run.models))]
        else:
            tag = 1 if phase == "ensemble" else 2
            yield [(i, derive_seed(run.seed, tag, r, i))
                   for i, m in enumerate(run.models) if m.trajectories]
        r += 1


def run_round(run: Run, phase: str, jobs: list, workers: int = NPROC,
              tracer: Tracer | None = None) -> list:
    """One job per model. Each result's scale comes from the probes around
    its job, or around the whole round for the short `simulate`."""
    results = []
    for job in jobs:
        if phase == "ensemble":
            results.append(ensemble_job(run, *job, workers, tracer))
        elif phase == "simulate":
            results.append(simulate_job(run, *job, tracer))
            continue
        else:
            results.append(verify_job(run, *job, tracer))
        results[-1].scale = run.speed_scale(workers if phase == "ensemble" else 1)
    if phase == "simulate":
        scale = run.speed_scale()
        for r in results:
            r.scale = scale
    return results


def interleave(run: Run, seconds: float) -> dict:
    """Run rounds of the workload's phases for about `seconds`, each time
    the phase furthest behind its share of the time spent, so that every
    phase samples the whole run and a burst of load from elsewhere on the
    machine cannot land on one phase alone. Every phase runs at least once;
    no round starts that is due to end more than half a round late.
    Returns {phase: (rounds run, one result per job)}."""
    shares = dict(run.spec.phases)
    sources = {phase: rounds_for(run, phase) for phase in shares}
    spent = dict.fromkeys(shares, 0.0)
    out = {phase: ([], []) for phase in shares}
    start = perf_counter()
    while True:
        phase = min(shares, key=lambda p: (len(out[p][0]) > 0, spent[p] / shares[p]))
        rounds, results = out[phase]
        if rounds and perf_counter() - start + 0.5 * spent[phase] / len(rounds) >= seconds:
            return out
        jobs = next(sources[phase])
        t0 = perf_counter()
        results.extend(run_round(run, phase, jobs))
        spent[phase] += perf_counter() - t0
        rounds.append(jobs)


def setup_phase(run: Run, repeats: int) -> list:
    """parse_config + build_model over all models, one result per repeat."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for m in run.models:
            config.build_model(config.parse_config(m.raw))
        samples.append(Result(-1, perf_counter() - t0, run.speed_scale()))
    return samples


def check_tv(run: Run, results: list):
    """Pooled per-model histograms against the sampling-noise quantile."""
    n_checks = sum(len(m.times) for m in run.models if m.trajectories)
    level = 1.0 - (1.0 - TV_LEVEL) ** (1.0 / n_checks)
    rng = np.random.default_rng([run.seed, 7])
    for i, m in enumerate(run.models):
        done = [r for r in results if r.model == i and r.counts is not None]
        if not done:
            continue
        counts = sum(r.counts for r in done)
        completed = sum(r.completed for r in done)
        tv = 0.5 * np.abs(counts / completed - m.reference).sum(axis=1)
        for k, t in enumerate(sorted(m.times)):
            ok = tv_within_noise(float(tv[k]), m.reference[k], completed, level, rng)
            run.check(ok, f"TV {m.name} t={t:.4g}: {tv[k]:.4f} at n={completed} "
                           f"beyond the noise quantile at level {level:.2e}")


def counts_sha256(run: Run, results: list) -> str:
    """Hash of the first ensemble round's counts, which every run completes;
    equal hashes mean bit-identical seeded ensemble output."""
    digest = hashlib.sha256()
    for r in results[:sum(m.trajectories for m in run.models)]:
        digest.update(b"failed" if r.counts is None else r.counts.astype("<i8").tobytes())
    return digest.hexdigest()


def sim_percentiles(run: Run, results: list, seconds=Result.seconds) -> tuple:
    """p50: the mean over models of each model's median `simulate` latency,
    in ms (pooling raw latencies would put the median in the gap between
    presets). p90: that mean times the 90th percentile of latency over its
    model's median, pooled over models, so that the tail rests on all of
    the run's samples."""
    walls = [[seconds(r) for r in results if r.model == k]
             for k, m in enumerate(run.models) if m.trajectories]
    medians = [statistics.median(w) for w in walls]
    relative = [x / m for w, m in zip(walls, medians) for x in w]
    p50 = statistics.fmean(medians)
    return 1e3 * p50, 1e3 * p50 * float(np.percentile(relative, 90))


def wall_of(results: list, seconds=Result.seconds) -> float:
    return sum(map(seconds, results))


class RssSampler:
    """Peak of the summed resident sets of this process and its child
    processes (the pool's forked workers), sampled every RSS_INTERVAL while
    a `sampling()` block is open. Pages a worker shares with this process
    count in both, as they do in each one's own resident set."""

    def __init__(self):
        self.peak = 0
        self._page = os.sysconf("SC_PAGE_SIZE")

    def sample(self):
        pid = os.getpid()
        total = 0
        for entry in os.scandir("/proc"):
            if not entry.name.isdigit():
                continue
            try:
                with open(f"/proc/{entry.name}/stat", "rb") as fh:
                    fields = fh.read().rsplit(b")", 1)[1].split()
            except OSError:         # the process has ended
                continue
            if int(entry.name) == pid or int(fields[1]) == pid:
                total += int(fields[21]) * self._page
        self.peak = max(self.peak, total)

    @contextlib.contextmanager
    def sampling(self):
        stop = threading.Event()

        def loop():
            while not stop.wait(RSS_INTERVAL):
                self.sample()

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def peak_mb(self) -> float:
        """The sampled peak, or this process's own peak if that is higher."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        return max(self.peak, own) / 2**20


# ---------------------------------------------------------------------------
# the two kinds of run

def timed_metrics(run: Run, setup: list, phases: dict, seconds) -> dict:
    """The end-to-end times, each result's time read by `seconds`."""
    ens, verify = phases["ensemble"][1], phases["verify"][1]
    p50, p90 = sim_percentiles(run, phases["simulate"][1], seconds)
    return {
        "setup_s": (statistics.median(map(seconds, setup)), "s"),
        "traj_per_s": (sum(r.completed for r in ens) / wall_of(ens, seconds), "1/s"),
        "sim_ms_p50": (p50, "ms"),
        "sim_ms_p90": (p90, "ms"),
        "verify_s": (sum(statistics.median(seconds(r) for r in verify if r.model == i)
                         for i in range(len(run.models))), "s"),
    }


def measure(run: Run, seconds: float):
    """The untraced run: end-to-end metrics."""
    setup = setup_phase(run, SETUP_REPEATS)
    phases = interleave(run, seconds)
    ens = phases["ensemble"][1]
    metrics = timed_metrics(run, setup, phases, Result.seconds)
    metrics["peak_rss_mb"] = (run.rss.peak_mb(), "MB")
    check_tv(run, ens)
    raw = timed_metrics(run, setup, phases, Result.raw_seconds)
    samples = {
        "setup_repeats": len(setup),
        "ensemble_calls": len(ens),
        "trajectories": sum(r.n for r in ens),
        "completed": sum(r.completed for r in ens),
        "simulate_calls": len(phases["simulate"][1]),
        "verify_calls": len(phases["verify"][1]),
        "unscaled": {name: value for name, (value, _) in raw.items()},
    }
    return metrics, samples, counts_sha256(run, ens)


def first_velocity_sweep(seed: int) -> dict:
    """Median ms of the first velocities call per cell tuple on a fresh field,
    over SWEEP_TUPLES tuples of the sigma_z chain at each L."""
    out = {}
    for n_qubits in SWEEP_QUBITS:
        model = config.build_model(config.parse_config(qubit_chain_config(n_qubits, seed)))
        coeff = model.field.state_coefficients(model.state0)
        tuples = dynamics.all_cell_tuples(model.beable_set)
        walls = []
        for cells in tuples[::len(tuples) // SWEEP_TUPLES][:SWEEP_TUPLES]:
            t0 = perf_counter()
            model.field.velocities(coeff, np.array(cells, dtype=float), cells, 0.0)
            walls.append(perf_counter() - t0)
        out[f"dynamics.first_velocity_ms.L{n_qubits}"] = (1e3 * statistics.median(walls), "ms")
    return out


def install_spans(t: Tracer):
    """Wrap the public names each calling module uses, one span per layer boundary."""
    t.wrap(config, "parse_config", "config.parse_config")
    t.wrap(config, "build_model", "config.build_model")
    t.wrap(cli, "build_model", "config.build_model")
    t.wrap(cli, "load_config", "config.load_config")
    t.wrap(config, "diagonalize", "linalg.diagonalize")
    t.wrap(config, "from_hermitian", "beables.from_hermitian")
    t.wrap(config, "VelocityField", "dynamics.VelocityField")
    t.wrap(verification, "ensemble_equivariance", ENSEMBLE_SPAN)
    t.wrap(cli, "ensemble_equivariance", ENSEMBLE_SPAN)
    t.wrap(cli, "sample_initial", "verification.sample_initial")
    t.wrap(checks, "sample_initial", "verification.sample_initial")
    t.wrap(cli, "integrate_trajectory", "dynamics.integrate_trajectory")
    t.wrap(cli, "run_checks", "checks.run_checks")
    t.wrap(checks, "continuity_residual", "verification.continuity_residual")
    t.wrap_leaf(verification, "quantum_distribution", QDIST_SPAN)
    t.wrap_leaf(checks, "quantum_distribution", QDIST_SPAN)
    t.wrap_leaf(verification, "cell_index", "beables.cell_index")
    t.wrap_leaf(dynamics, "cell_index", "beables.cell_index")
    t.wrap_velocities(dynamics.VelocityField, VELOCITY_SPAN)


def paired_rounds(run: Run, phase: str, rounds: list, tracer: Tracer) -> tuple:
    """Replay each round at workers = 1 untraced and then traced, back to
    back, so that load from elsewhere on the machine hits both alike.
    Returns (untraced results, traced results)."""
    plain, traced = [], []
    for jobs in rounds:
        plain.extend(run_round(run, phase, jobs, workers=1))
        with tracer.patched():
            install_spans(tracer)
            traced.extend(run_round(run, phase, jobs, workers=1, tracer=tracer))
    return plain, traced


def measure_traced(run: Run, seconds: float):
    """The traced run: per-layer metrics. The phases run interleaved and
    untraced (ensembles at workers = nproc, their pool counting the pickled
    bytes it sends); then every round runs again at workers = 1, untraced
    and traced in turn."""
    metrics = first_velocity_sweep(run.seed)
    tracers = {"setup": Tracer()}
    untraced = wall_of(setup_phase(run, SETUP_REPEATS))
    with tracers["setup"].patched():
        install_spans(tracers["setup"])
        traced = wall_of(setup_phase(run, SETUP_REPEATS))

    sizes = []
    pool_class = verification.ProcessPoolExecutor
    verification.ProcessPoolExecutor = counting_pool(sizes)
    try:
        phases = interleave(run, TRACE_SHARE * seconds)
    finally:
        verification.ProcessPoolExecutor = pool_class
    replayed = {}
    for phase, (rounds, _) in phases.items():
        tracers[phase] = Tracer()
        replayed[phase] = paired_rounds(run, phase, rounds, tracers[phase])
        untraced += wall_of(replayed[phase][0])
        traced += wall_of(replayed[phase][1])
    parallel = phases["ensemble"][1]
    serial = replayed["ensemble"][0]
    for a, b, c in zip(parallel, serial, replayed["ensemble"][1]):
        outcome = [None if r.counts is None else r.counts.tobytes() for r in (a, b, c)]
        run.check(outcome[0] == outcome[1] == outcome[2],
                  f"ensemble {run.models[a.model].name}: counts differ between "
                  f"workers={NPROC}, workers=1 and the traced pass")
    check_tv(run, parallel)

    ens, setup, sim, ver = (tracers[k] for k in ("ensemble", "setup", "simulate", "verify"))
    n_traj = sum(r.n for r in parallel)
    calls = (ens.leaf_count(VELOCITY_SPAN, ENSEMBLE_SPAN)
             + ens.leaf_count(VELOCITY_SPAN + ".first", ENSEMBLE_SPAN))
    beables_built = SETUP_REPEATS * sum(m.n_beables for m in run.models)
    n_verify = ver.count("cli.verify")
    metrics.update({
        "linalg.diagonalize_us": (
            1e6 * setup.total("linalg.diagonalize") / setup.count("linalg.diagonalize"), "us"),
        "beables.from_hermitian_us": (
            1e6 * setup.total("beables.from_hermitian") / setup.count("beables.from_hermitian"), "us"),
        "beables.from_hermitian_calls_per_build": (
            setup.count("beables.from_hermitian") / beables_built, "count"),
        "dynamics.field_init_ms": (
            1e3 * setup.total("dynamics.VelocityField") / setup.count("dynamics.VelocityField"), "ms"),
        "config.build_model_self_ms": (
            1e3 * setup.self_time("config.build_model") / setup.count("config.build_model"), "ms"),
        "dynamics.velocity_us": (
            1e6 * ens.total(VELOCITY_SPAN) / ens.count(VELOCITY_SPAN), "us"),
        "dynamics.rhs_evals_per_traj": (calls / n_traj, "count"),
        "dynamics.integrator_self_ms_per_traj": (
            1e3 * ens.self_time(ENSEMBLE_SPAN) / n_traj, "ms"),
        "verification.quantum_distribution_us": (
            1e6 * ens.total(QDIST_SPAN) / ens.count(QDIST_SPAN), "us"),
        "verification.quantum_distribution_calls_per_traj": (
            ens.leaf_count(QDIST_SPAN, ENSEMBLE_SPAN) / n_traj, "count"),
        "verification.parallel_efficiency": (
            wall_of(serial) / (NPROC * wall_of(parallel)), "ratio"),
        "verification.ipc_kb_per_ensemble": (sum(sizes) / 1024.0 / len(parallel), "kB"),
        "checks.trajectories_per_verify": (
            ver.count("verification.sample_initial") / n_verify, "count"),
        "checks.continuity_ms": (
            1e3 * ver.total("verification.continuity_residual") / n_verify, "ms"),
        "cli.io_self_ms": (1e3 * sim.self_time("cli.simulate") / sim.count("cli.simulate"), "ms"),
        "tracing.overhead_frac": (traced / untraced - 1.0, "ratio"),
    })
    samples = {"trajectories": n_traj, "simulate_calls": sim.count("cli.simulate"),
               "verify_calls": n_verify}
    return metrics, samples, counts_sha256(run, parallel)


# ---------------------------------------------------------------------------
# entry point

def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    run_root = ROOT / ".bench_run"
    run_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run_root))
    try:
        run = Run(args.workload, args.seed, workdir)
        measure_fn = measure_traced if args.trace else measure
        metrics, samples, sha = measure_fn(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": samples, "counts_sha256": sha,
        "speed": PROBE_S / statistics.median(run.probes[1]),
        "failures": run.failures, "machine": machine_info(),
    }))
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
