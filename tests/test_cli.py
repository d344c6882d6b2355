import json
import warnings

import numpy as np
import pytest

from beable_sim.cli import main


def write_config(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def commuting_model():
    # H = sigma_z with the sigma_z beable: every velocity is exactly zero
    return {
        "dimension": 2,
        "hamiltonian": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
        "beables": [{"label": "sz",
                     "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}],
        "initial_state": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
        "run": {"t_final": 1.0, "output_dt": 0.1, "n_trajectories": 100, "seed": 1},
    }


class TestSimulate:
    def test_deterministic_reruns(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "two-state-rabi"})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--seed", "42",
                     "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--seed", "42",
                     "--out", str(out_b)]) == 0
        assert (out_a / "trajectory.csv").read_bytes() == \
               (out_b / "trajectory.csv").read_bytes()
        man_a = json.loads((out_a / "manifest.json").read_text())
        man_b = json.loads((out_b / "manifest.json").read_text())
        assert man_a["outputs"] == man_b["outputs"]
        assert man_a["config_hash"] == man_b["config_hash"]

    def test_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "two-qubit"})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--seed", "3",
                     "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,lambda_0,lambda_1,xi_0,xi_1"
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert len(first) == 5

    def test_flip_row_matches_oracle(self, tmp_path):
        # lambda0 = 1.3 implies xi0 = -0.6; the hop shows up within one output_dt
        # of t* = arccos(-0.6)
        cfg = write_config(tmp_path, {"preset": "two-state-rabi",
                                      "run": {"output_dt": 0.02, "t_final": 2.5}})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--lambda0", "1.3",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        t, xi = rows[:, 0], rows[:, 2]
        flips = np.where(np.diff(xi) != 0)[0]
        assert flips.size == 1
        t_star = np.arccos(-0.6)
        assert t[flips[0]] <= t_star <= t[flips[0] + 1]

    def test_commuting_model_lambda_constant(self, tmp_path):
        cfg = write_config(tmp_path, commuting_model())
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--lambda0", "0.3",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(rows[:, 1] - 0.3)) <= 1e-9

    def test_node_abort_exit_code_and_partial_output(self, tmp_path):
        # starting at a zero-probability cell aborts immediately but the
        # partial trajectory (the initial sample) is still written
        cfg = write_config(tmp_path, {"preset": "two-state-rabi"})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--lambda0", "0.2",
                     "--out", str(out)]) == 2
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2  # header plus the t=0 sample


class TestEnsemble:
    def test_report_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, {
            "preset": "two-state-rabi",
            "dynamics": {"rtol": 1e-7, "atol": 1e-9},
        })
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["ensemble", "--config", cfg, "--trajectories", "150",
                "--seed", "5", "--times", "0.8,1.6"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "distributions.csv").read_bytes() == \
               (out_b / "distributions.csv").read_bytes()

        report = json.loads((out_a / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["n_trajectories"] == 150
        assert report["node_aborted_count"] == 0
        assert len(report["times"]) == 2
        assert len(report["tv_distance"]) == 2
        counts = np.array(report["empirical_counts"])
        assert np.all(counts.sum(axis=1) == report["n_completed"])

    def test_all_aborted_report_is_strict_json(self, tmp_path, capsys):
        # every rabi start sits in a cell whose P is below 0.6 at t = 0 or
        # falls below it on the way, so no trajectory completes and the TV
        # distance is undefined: null in the report, never NaN
        cfg = write_config(tmp_path, {"preset": "two-state-rabi",
                                      "dynamics": {"node_floor": 0.6}})
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["ensemble", "--config", cfg, "--trajectories", "100",
                       "--out", str(out)])
        assert rc == 2
        assert "max TV distance undefined" in capsys.readouterr().out

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["n_completed"] == 0
        assert report["node_aborted_count"] == 100
        assert report["tv_distance"] == [None] * len(report["times"])

    def test_a_worker_count_below_one_exits_one(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, {"preset": "two-state-rabi"})
        args = ["ensemble", "--config", cfg, "--trajectories", "100", "--out", str(tmp_path / "a")]
        assert main(args + ["--workers", "-3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(--workers) must be at least 1, got -3" in err
        monkeypatch.setenv("BEABLE_SIM_THREADS", "0")
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "BEABLE_SIM_THREADS must be at least 1" in err
        assert "Traceback" not in err

    def test_long_format_table(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "two-state-rabi",
                                      "dynamics": {"rtol": 1e-7, "atol": 1e-9}})
        out = tmp_path / "run"
        assert main(["ensemble", "--config", cfg, "--trajectories", "120",
                     "--seed", "2", "--times", "1.0", "--out", str(out)]) == 0
        lines = (out / "distributions.csv").read_text().splitlines()
        assert lines[0] == ("time,cell_0,empirical_count,"
                            "empirical_probability,quantum_probability")
        assert len(lines) == 3  # one probe time x two cells


class TestVerify:
    def test_presets_pass(self, tmp_path):
        # two-state-rabi exercises every check; the others are covered by the
        # acceptance suite (verify on all presets is slower)
        cfg = write_config(tmp_path, {"preset": "two-state-rabi"})
        assert main(["verify", "--config", cfg]) == 0

    def test_json_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"preset": "two-state-rabi"})
        assert main(["verify", "--config", cfg, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert {"continuity_residual", "reversibility",
                "levelset_agreement", "average_consistency"} <= names
        for check in payload["checks"]:
            if check["status"] != "skip":
                assert check["measured"] <= check["threshold"]

    def test_non_commuting_config_rejected_with_pair_named(self, tmp_path, capsys):
        raw = commuting_model()
        raw["beables"].append({
            "label": "sx",
            "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        })
        cfg = write_config(tmp_path, raw)
        assert main(["verify", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "'sz'" in err and "'sx'" in err

    def test_invalid_inputs_exit_one(self, tmp_path, capsys):
        raw = commuting_model()
        raw["hamiltonian"][0][1] = [0.3, 0.1]  # not Hermitian
        raw["initial_state"] = [[1.0, 0.0], [1.0, 0.0]]  # not normalized
        cfg = write_config(tmp_path, raw)
        for command in (["verify", "--config", cfg],
                        ["simulate", "--config", cfg, "--out", str(tmp_path / "x")],
                        ["ensemble", "--config", cfg, "--out", str(tmp_path / "y")]):
            assert main(command) == 1
        err = capsys.readouterr().err
        assert "Hermitian" in err
        assert "normalized" in err

    def test_failing_check_exits_three(self, tmp_path, monkeypatch):
        import beable_sim.checks as checks
        monkeypatch.setitem(checks.THRESHOLDS, "continuity_residual", (1e-30, 1e-30))
        cfg = write_config(tmp_path, {"preset": "two-state-rabi"})
        assert main(["verify", "--config", cfg]) == 3

    def test_a_node_abort_fails_every_trajectory_check(self, tmp_path, capsys):
        # at node_floor 0.6 the seeded rabi starts abort on the way forward:
        # cell 1 empties as cos^2(t / 2) and cell 0 fills from zero
        raw = {"preset": "two-state-rabi",
               "dynamics": {"rtol": 1e-9, "atol": 1e-11, "node_floor": 0.6}}
        cfg = write_config(tmp_path, raw)
        assert main(["verify", "--config", cfg, "--json"]) == 3
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        for name in ("reversibility", "levelset_agreement", "level_conservation"):
            assert checks[name]["status"] == "fail"
            assert checks[name]["detail"] == "forward trajectory 0 aborted at a node"
        assert checks["continuity_residual"]["status"] == "pass"

    def test_a_backward_node_abort_is_named(self, tmp_path, capsys, monkeypatch):
        # the return leg starts at t_final; a floor above every probability
        # aborts it at its first velocity
        import beable_sim.checks as checks_module
        from beable_sim.dynamics import VelocityField

        integrate = checks_module._integrate_on_grid

        def floored_on_return(field, state, lam0, times, rtol, atol):
            if state.time > 0.0:
                field = VelocityField(field.beable_set, field.propagator, node_floor=2.0)
            return integrate(field, state, lam0, times, rtol, atol)

        monkeypatch.setattr(checks_module, "_integrate_on_grid", floored_on_return)
        for preset in ("two-state-rabi", "two-qubit"):
            cfg = write_config(tmp_path, {"preset": preset})
            assert main(["verify", "--config", cfg, "--json"]) == 3
            failed = {c["name"]: c["detail"] for c in json.loads(capsys.readouterr().out)["checks"]
                      if c["status"] == "fail"}
            want = ["reversibility"]
            if preset == "two-state-rabi":
                want += ["levelset_agreement", "level_conservation"]
            assert failed == {name: "backward trajectory 0 aborted at a node" for name in want}

    def test_strict_mode_passes_for_presets(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "two-state-rabi"})
        assert main(["verify", "--config", cfg, "--strict"]) == 0

    def test_a_backward_run_passes(self, tmp_path, capsys):
        # simulate and ensemble run backward; so does every check of verify
        cfg = write_config(tmp_path, {"preset": "two-state-rabi", "run": {"t_final": -1.5}})
        for strict in ([], ["--strict"]):
            assert main(["verify", "--config", cfg, "--json", *strict]) == 0
            checks = json.loads(capsys.readouterr().out)["checks"]
            assert all(c["status"] == "pass" for c in checks), checks


class TestInProcessCalls:
    """main builds its parser once per process; each call parses into a new
    namespace, so nothing one call sets reaches the next."""

    def test_the_parser_is_built_once(self, tmp_path, capsys):
        import beable_sim.cli as cli

        cfg = write_config(tmp_path, {"preset": "two-state-rabi"})
        cli._parser.cache_clear()
        for _ in range(3):
            assert main(["verify", "--config", cfg, "--json"]) == 0
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_strict_does_not_leak_into_the_next_call(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"preset": "two-state-rabi"})

        def thresholds(*flags):
            assert main(["verify", "--config", cfg, "--json", *flags]) == 0
            payload = json.loads(capsys.readouterr().out)
            return payload["strict"], {c["name"]: c["threshold"] for c in payload["checks"]}
        default = thresholds()
        strict = thresholds("--strict")
        assert default[0] is False and strict[0] is True and strict[1] != default[1]
        assert thresholds() == default

    def test_lambda0_does_not_leak_into_the_next_simulate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"preset": "two-state-rabi"})

        def manifest(*flags):
            out = tmp_path / f"run{len(flags)}"
            assert main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 0
            return json.loads((out / "manifest.json").read_text())
        assert manifest("--lambda0", "1.2")["seed"] is None
        assert manifest()["seed"] is not None


class TestConfigCommand:
    def test_expands_preset(self, capsys):
        assert main(["config", "two-state-rabi"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dimension"] == 2
        assert payload["schema_version"] == 1

    def test_unknown_name_fails(self, capsys):
        assert main(["config", "not-a-preset"]) == 1


def test_a_bad_option_value_exits_one_without_a_traceback(tmp_path, capsys):
    cfg = write_config(tmp_path, {"preset": "two-state-rabi", "run": {"t_final": "abc"}})
    assert main(["verify", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "run.t_final" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--lambda0", "9"],
    ["ensemble", "--trajectories", "100", "--times", "abc"],
    ["ensemble", "--trajectories", "100", "--workers", "-3"],
], ids=["lambda0-out-of-range", "unparsable-times", "workers-below-one"])
def test_a_rejected_run_leaves_no_output_directory(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, {"preset": "two-state-rabi"})
    out = tmp_path / "out"
    assert main([argv[0], "--config", cfg, *argv[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("t_final", [1e9, 1e300])
def test_a_grid_that_cannot_finish_exits_one(tmp_path, capsys, t_final):
    # every sample after the first costs a step, so more than MAX_STEPS + 1
    # samples cannot finish; the grid is refused before it is made
    cfg = write_config(tmp_path, {"preset": "two-state-rabi",
                                  "run": {"t_final": t_final, "output_dt": 1e-9}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "t_final" in err and "output_dt" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, override", [
    (["ensemble", "--trajectories", "100", "--times", "nan"], None),
    (["ensemble", "--trajectories", "100", "--times", "1.0,inf"], None),
    (["simulate"], {"run": {"t_final": float("inf")}}),
    (["simulate"], {"run": {"t_final": float("nan")}}),
    (["simulate"], {"run": {"output_dt": float("nan")}}),
    (["ensemble", "--trajectories", "100"], {"dynamics": {"rtol": float("nan")}}),
    (["ensemble", "--trajectories", "100"], {"dynamics": {"node_floor": float("nan")}}),
], ids=["times-nan", "times-inf", "t_final-inf", "t_final-nan", "output_dt-nan",
        "rtol-nan", "node_floor-nan"])
def test_a_non_finite_number_exits_one(tmp_path, capsys, argv, override):
    # NaN passes every `<=` check and an infinite time is never reached, so
    # each must be rejected by name before anything runs
    cfg = write_config(tmp_path, {"preset": "two-state-rabi", **(override or {})})
    out = tmp_path / "out"
    assert main([argv[0], "--config", cfg, *argv[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    key = "--times" if override is None else next(iter(next(iter(override.values()))))
    assert key in err and "finite" in err
    assert not out.exists()
