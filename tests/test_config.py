import hashlib
import json
import struct

import numpy as np
import pytest

from beable_sim.config import (
    build_model,
    config_hash,
    load_config,
    matrix_to_pairs,
    parse_config,
    serialize_config,
    validate_model,
    vector_to_pairs,
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

    @pytest.mark.parametrize("raw", [custom_config_dict(), *map(preset_config, PRESET_NAMES)],
                             ids=["custom", *PRESET_NAMES])
    def test_the_digest_layout(self, raw):
        # written from the layout's description: the canonical JSON with each
        # array of [re, im] pairs replaced by its shape, then every array's
        # numbers as little-endian doubles, in the order H, beables, state
        def shape(pairs):
            return [len(pairs)] + (shape(pairs[0]) if isinstance(pairs[0][0], list) else [])

        def numbers(pairs):
            return [x for item in pairs
                    for x in (numbers(item) if isinstance(item[0], list) else item)]

        cfg = parse_config(raw)
        skeleton = serialize_config(cfg)
        arrays = [skeleton["hamiltonian"], *(b["matrix"] for b in skeleton["beables"]),
                  skeleton["initial_state"]]
        skeleton["hamiltonian"] = shape(skeleton["hamiltonian"])
        for entry in skeleton["beables"]:
            entry["matrix"] = shape(entry["matrix"])
        skeleton["initial_state"] = shape(skeleton["initial_state"])
        payload = json.dumps(skeleton, sort_keys=True, separators=(",", ":")).encode()
        for pairs in arrays:
            xs = numbers(pairs)
            payload += struct.pack(f"<{len(xs)}d", *xs)
        assert config_hash(cfg) == hashlib.sha256(payload).hexdigest()

    def test_a_pinned_digest(self):
        # a change of this value changes every recorded config_hash
        assert config_hash(parse_config(custom_config_dict())) == \
            "7202b4b908468ed127c79b849aabfa1f7f758ddd351d625263628a4b254dc958"

    def test_an_options_section_must_be_an_object(self):
        raw = custom_config_dict()
        raw["dynamics"] = [1e-9]
        with pytest.raises(InputError, match="dynamics must be an object"):
            parse_config(raw)


def elementwise_pairs(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


class TestPairConversions:
    @pytest.fixture
    def matrix(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m[0, 0] = complex(-0.0, 0.0)
        m[1, 2] = complex(0.0, -0.0)
        m[2, 1] = complex(5e-324, -2.2e-310)     # subnormals
        m[4, 5] = complex(-1e-320, 1e-308)
        return m

    def test_matrices(self, matrix):
        for a in (matrix, matrix.T, matrix[::2, 1::2], matrix.real):
            got = matrix_to_pairs(a)
            # repr tells -0.0 from 0.0 and a Python float from a numpy scalar
            assert repr(got) == repr(elementwise_pairs(a))

    def test_vectors(self, matrix):
        for v in (matrix[1], matrix[:, 2], matrix[::-1, 0], matrix[2].real):
            assert repr(vector_to_pairs(v)) == repr(elementwise_pairs(v))


class TestOptionValues:
    @pytest.mark.parametrize("path, value, key, shown", [
        (("run", "t_final"), "abc", "run.t_final", "'abc'"),
        (("run", "times"), 5, "run.times", "5"),
        (("dynamics", "rtol"), None, "dynamics.rtol", "None"),
        (("beables", 0, "ordering"), [0, "x"], "beables[0].ordering", "'x'"),
        (("beables", 0, "degeneracy_tol"), "a", "beables[0].degeneracy_tol", "'a'"),
        (("dimension",), True, "dimension", "True"),
        (("run", "n_trajectories"), 2.7, "run.n_trajectories", "2.7"),
    ])
    def test_a_bad_value_raises_input_error_naming_the_key(self, path, value, key, shown):
        raw = custom_config_dict()
        target = raw
        for step in path[:-1]:
            target = target.setdefault(step, {}) if isinstance(step, str) else target[step]
        target[path[-1]] = value
        with pytest.raises(InputError) as err:
            parse_config(raw)
        assert key in str(err.value) and shown in str(err.value)

    def test_integral_floats_keep_the_config_hash(self):
        raw = custom_config_dict()
        raw["dimension"] = 2.0
        raw["run"].update(n_trajectories=100.0, seed=3.0)
        raw["beables"][0]["ordering"] = [1.0, 0.0]
        exact = custom_config_dict()
        exact["beables"][0]["ordering"] = [1, 0]
        assert config_hash(parse_config(raw)) == config_hash(parse_config(exact))


NOT_HERMITIAN = [[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
SIGMA_X = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
THREE_BY_THREE = [[[1.0, 0.0]] * 3] * 3


class TestEachViolationOnce:
    def test_a_non_hermitian_beable_is_named_once(self):
        raw = custom_config_dict()
        raw["beables"][0]["matrix"] = NOT_HERMITIAN
        problems = validate_model(parse_config(raw))
        assert len(problems) == 1
        assert "beable 'sz' (index 0) is not Hermitian" in problems[0]

    @pytest.mark.parametrize("bad", [NOT_HERMITIAN, THREE_BY_THREE],
                             ids=["not-hermitian", "wrong-shape"])
    def test_no_commutation_verdict_while_a_beable_failed(self, bad):
        # sz and sx do not commute, but the set is incomplete without 'bad'
        raw = custom_config_dict()
        raw["beables"] += [{"label": "sx", "matrix": SIGMA_X},
                           {"label": "bad", "matrix": bad}]
        problems = validate_model(parse_config(raw))
        assert len(problems) == 1 and "beable 'bad' (index 2)" in problems[0]
        assert not any("do not commute" in p for p in problems)

    def test_every_kind_of_violation_is_listed_once(self):
        raw = custom_config_dict()
        raw["hamiltonian"][0][1] = [0.5, 0.3]
        raw["initial_state"] = [[1.0, 0.0], [1.0, 0.0]]
        raw["beables"].append({"label": "odd", "matrix": NOT_HERMITIAN})
        raw["dynamics"] = {"symmetrization": "alphabetical", "rtol": -1.0,
                           "node_floor": -1.0}
        cfg = parse_config(raw)
        problems = validate_model(cfg)
        expected = ["hamiltonian is not Hermitian", "initial_state is not normalized",
                    "beable 'odd' (index 1) is not Hermitian", "dynamics.symmetrization",
                    "dynamics.rtol", "dynamics.node_floor"]
        assert len(problems) == len(expected)
        for text in expected:
            assert sum(text in p for p in problems) == 1, text
        with pytest.raises(ConfigError) as err:
            build_model(cfg)
        assert err.value.messages == problems
