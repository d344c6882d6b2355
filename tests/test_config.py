import json

import numpy as np
import pytest

from beable_sim.config import (
    build_model,
    config_hash,
    load_config,
    parse_config,
    serialize_config,
    validate_model,
)
from beable_sim.errors import ConfigError, InputError
from beable_sim.presets import PRESET_NAMES, preset_config


def custom_config_dict():
    return {
        "dimension": 2,
        "hamiltonian": [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
        "beables": [{"label": "sz",
                     "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}],
        "initial_state": [[1.0, 0.0], [0.0, 0.0]],
        "run": {"t_final": 2.0, "output_dt": 0.1, "n_trajectories": 100, "seed": 3},
    }


class TestRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_serialization_fixed_point(self, name):
        cfg = parse_config(preset_config(name))
        once = serialize_config(cfg)
        again = serialize_config(parse_config(once))
        assert once == again
        assert config_hash(cfg) == config_hash(parse_config(once))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(custom_config_dict()))
        cfg = load_config(path)
        assert np.allclose(cfg.hamiltonian, 0.5 * np.array([[0, 1], [1, 0]]))
        assert cfg.run.seed == 3
        again = parse_config(serialize_config(cfg))
        assert serialize_config(again) == serialize_config(cfg)

    def test_complex_entries_survive(self):
        raw = custom_config_dict()
        raw["hamiltonian"] = [[[0.0, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.0, 0.0]]]
        cfg = parse_config(raw)
        assert cfg.hamiltonian[0, 1] == pytest.approx(-0.5j)
        back = serialize_config(cfg)
        assert back["hamiltonian"][0][1] == [0.0, -0.5]


class TestPresetExpansion:
    def test_top_level_preset(self):
        cfg = parse_config({"preset": "two-state-rabi"})
        assert cfg.dimension == 2
        assert cfg.run.seed == 7

    def test_override_merges_sections(self):
        cfg = parse_config({"preset": "two-state-rabi", "run": {"seed": 99}})
        assert cfg.run.seed == 99
        assert cfg.run.t_final == pytest.approx(2.5)  # other run keys kept

    def test_field_level_preset_strings(self):
        raw = custom_config_dict()
        raw["hamiltonian"] = "two-state-rabi"
        raw["initial_state"] = "two-state-rabi"
        raw["beables"] = [{"label": "sz", "matrix": "two-state-rabi"}]
        cfg = parse_config(raw)
        built = build_model(cfg)
        assert built.beable_set[0].n_cells == 2

    def test_beable_preset_index_selector(self):
        raw = custom_config_dict()
        raw["dimension"] = 4
        raw["hamiltonian"] = "two-qubit"
        raw["initial_state"] = "two-qubit"
        raw["beables"] = [{"label": "a", "matrix": "two-qubit#0"},
                          {"label": "b", "matrix": "two-qubit#1"}]
        built = build_model(parse_config(raw))
        assert built.beable_set.cell_counts == (2, 2)

    def test_ambiguous_beable_reference_rejected(self):
        raw = custom_config_dict()
        raw["beables"] = [{"matrix": "two-qubit"}]
        with pytest.raises(InputError, match="two-qubit"):
            parse_config(raw)

    def test_unknown_preset(self):
        with pytest.raises(InputError, match="unknown preset"):
            parse_config({"preset": "no-such-model"})


class TestValidation:
    def test_all_violations_reported_together(self):
        raw = custom_config_dict()
        raw["hamiltonian"][0][1] = [0.5, 0.3]   # breaks Hermiticity
        raw["initial_state"] = [[1.0, 0.0], [1.0, 0.0]]  # not normalized
        problems = validate_model(parse_config(raw))
        text = "\n".join(problems)
        assert "hamiltonian is not Hermitian" in text
        assert "not normalized" in text
        assert len(problems) >= 2

    def test_non_commuting_beables_named(self):
        raw = custom_config_dict()
        raw["beables"].append({
            "label": "sx",
            "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        })
        with pytest.raises(ConfigError) as err:
            build_model(parse_config(raw))
        assert "'sz'" in str(err.value) and "'sx'" in str(err.value)
        assert "do not commute" in str(err.value)

    def test_shape_mismatch(self):
        raw = custom_config_dict()
        raw["dimension"] = 3
        problems = validate_model(parse_config(raw))
        assert any("shape" in p for p in problems)

    def test_bad_symmetrization(self):
        raw = custom_config_dict()
        raw["dynamics"] = {"symmetrization": "alphabetical"}
        problems = validate_model(parse_config(raw))
        assert any("symmetrization" in p for p in problems)

    def test_missing_keys(self):
        with pytest.raises(InputError, match="missing required keys"):
            parse_config({"dimension": 2})

    def test_valid_presets_build(self):
        for name in PRESET_NAMES:
            built = build_model(parse_config(preset_config(name)))
            assert built.field.node_floor == pytest.approx(1e-12)


class TestConfigHash:
    def test_differs_on_change(self):
        a = parse_config(custom_config_dict())
        raw = custom_config_dict()
        raw["run"]["seed"] = 4
        b = parse_config(raw)
        assert config_hash(a) != config_hash(b)

    def test_stable_across_parses(self):
        a = parse_config(custom_config_dict())
        b = parse_config(custom_config_dict())
        assert config_hash(a) == config_hash(b)

    def test_omitted_options_take_the_documented_defaults(self):
        bare = custom_config_dict()
        del bare["run"]
        stated = dict(bare,
                      dynamics={"symmetrization": "symmetric_average", "rtol": 1e-9,
                                "atol": 1e-11, "node_floor": 1e-12},
                      run={"t_final": 1.0, "output_dt": 0.05, "n_trajectories": 1000,
                           "seed": 0, "times": []})
        assert serialize_config(parse_config(bare)) == serialize_config(parse_config(stated))
        assert config_hash(parse_config(bare)) == config_hash(parse_config(stated))
        partial = parse_config(dict(bare, dynamics={"rtol": 1e-6}, run={"seed": 4}))
        assert (partial.dynamics.rtol, partial.dynamics.atol) == (1e-6, 1e-11)
        assert (partial.run.seed, partial.run.output_dt) == (4, 0.05)

    def test_an_options_section_must_be_an_object(self):
        raw = custom_config_dict()
        raw["dynamics"] = [1e-9]
        with pytest.raises(InputError, match="dynamics must be an object"):
            parse_config(raw)
