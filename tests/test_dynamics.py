import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import beable_sim as bs
from beable_sim.config import build_model, parse_config
from beable_sim.dynamics import (
    CROSSING_TOL,
    MAX_STEPS,
    Symmetrization,
    _aim,
    _aim_rows,
    _block_step,
    _cross,
    _escapes,
    _float_step,
    _forms_at,
    _hermite_first_contact,
    _integrate_block,
    _integrate_on_grid,
    _node_rates,
    _ordering_table,
    _ordering_weights,
    _output_grid,
    _pass_times,
    _PASS_STEPS,
    _plan,
    _RADAU_C,
    _RADAU_ERR,
    _RADAU_TAIL,
    _RADAU_W,
    _retry_step,
    _STAGE_C,
    _stage_nodes,
)
from beable_sim.errors import InputError, NodeError, NumericError
from beable_sim.tables import FormTables
from beable_sim.verification import _draw_starts, _initial_cdf, _subset_weights

from conftest import (I2, SZ, build_with_defect, random_hermitian, random_state, tuple_stack,
                      velocity)


def two_qubit_set():
    a = bs.from_hermitian(bs.Operator(np.kron(SZ, I2), hermitian=True), label="a")
    b = bs.from_hermitian(bs.Operator(np.kron(I2, SZ), hermitian=True), label="b")
    return bs.validate_commuting_set([a, b])


def random_model(rng, dim, n_beables):
    """Random Hamiltonian plus beables made commuting by sharing an eigenbasis."""
    h = random_hermitian(rng, dim)
    prop = bs.diagonalize(h)
    shared = np.linalg.eigh(random_hermitian(rng, dim).entries)[1]
    beables = []
    for i in range(n_beables):
        vals = np.sort(rng.normal(size=dim))
        mat = (shared * vals) @ shared.conj().T
        beables.append(bs.from_hermitian(
            bs.Operator((mat + mat.conj().T) / 2, hermitian=True), label=f"b{i}"))
    bset = bs.validate_commuting_set(beables)
    state = random_state(rng, dim)
    return h, prop, bset, state


class TestQuantumProbability:
    def test_joint_eigenstate(self):
        bset = two_qubit_set()
        up_up = bs.QuantumState([1, 0, 0, 0])
        for cells in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            p = bs.quantum_probability(up_up, bset, cells)
            assert p == pytest.approx(1.0 if cells == (1, 1) else 0.0, abs=1e-12)

    def test_balanced_superposition(self, rabi):
        s = bs.QuantumState(np.array([1, 1]) / np.sqrt(2))
        assert bs.quantum_probability(s, rabi.beable_set, [0]) == pytest.approx(0.5)

    def test_rabi_occupation(self, rabi):
        for t in (0.4, 1.3, 2.2):
            p1 = bs.quantum_probability(rabi.state(t), rabi.beable_set, [1])
            assert p1 == pytest.approx(np.cos(t / 2) ** 2, abs=1e-12)

    def test_sums_to_one(self, rng):
        _, _, bset, state = random_model(rng, 6, 2)
        _, probs = bs.quantum_distribution(state, bset)
        assert abs(probs.sum() - 1.0) <= 1e-8

    def test_cell_out_of_range(self, rabi):
        with pytest.raises(InputError):
            bs.quantum_probability(rabi.state0, rabi.beable_set, [2])

    def test_short_cell_tuple(self):
        with pytest.raises(InputError, match="one cell index per beable"):
            bs.quantum_probability(bs.QuantumState([1, 0, 0, 0]), two_qubit_set(), (0,))


class TestSymmetrizedCurrent:
    def test_l3_weights(self):
        w = _subset_weights(3)
        assert w == pytest.approx([2 / 6, 1 / 6, 2 / 6])
        # four subset terms of the L=3 expansion sum to 1
        assert w[0] + w[1] + w[1] + w[2] == pytest.approx(1.0)

    def test_closed_form_ordering_weight(self):
        # summing the subset weights over the free placements of the q other
        # projectors whose cell holds both basis vectors gives r! s! / (r+s+1)!
        for n_b in range(1, 9):
            w = _subset_weights(n_b)
            for r in range(n_b):
                for q in range(n_b - r):
                    s = n_b - 1 - r - q
                    total = sum(math.comb(q, j) * w[r + j] for j in range(q + 1))
                    assert total == pytest.approx(_subset_weights(r + s + 1)[r], rel=1e-12)

    def test_ordering_table_matches_the_subset_weights(self):
        # the one check that ties the field's ordering table to the
        # reference's subset weights; the two share no code
        for n_b in range(1, 9):
            table = _ordering_table(n_b)
            for r in range(n_b):
                for s in range(n_b):
                    assert table[r, s] == _subset_weights(r + s + 1)[r], (n_b, r, s)

    def test_single_beable_rabi(self, rabi):
        # J(0.5) = (omega/2) <sigma_y>, with <sigma_y>(t) = -sin(omega t)
        for t in (0.3, 1.0, 2.0):
            j = bs.symmetrized_current(rabi.state(t), rabi.beable_set, 0, [0.5],
                                       rabi.propagator)
            assert j == pytest.approx(-0.5 * np.sin(t), abs=1e-12)

    def test_zero_at_top_boundary(self, rng):
        _, prop, bset, state = random_model(rng, 5, 2)
        lam = np.array([0.1, bset[1].n_cells - 0.5])
        assert bs.symmetrized_current(state, bset, 1, lam, prop) == pytest.approx(0.0, abs=1e-12)

    def test_l3_matches_explicit_expansion(self, rng):
        sz3 = [np.kron(np.kron(SZ, I2), I2), np.kron(np.kron(I2, SZ), I2),
               np.kron(np.kron(I2, I2), SZ)]
        beables = [bs.from_hermitian(bs.Operator(m, hermitian=True), label=f"q{i}")
                   for i, m in enumerate(sz3)]
        bset = bs.validate_commuting_set(beables)
        h = random_hermitian(rng, 8)
        prop = bs.diagonalize(h)
        state = random_state(rng, 8)
        lam = np.array([0.3, -0.2, 0.9])

        j_mat = bs.current_operator(beables[0], lam[0], prop).entries
        p2 = beables[1].projectors[bs.cell_index(beables[1], lam[1])].entries
        p3 = beables[2].projectors[bs.cell_index(beables[2], lam[2])].entries
        explicit = (2 * j_mat @ p2 @ p3 + p2 @ j_mat @ p3
                    + p3 @ j_mat @ p2 + 2 * p2 @ p3 @ j_mat) / 6
        expected = np.vdot(state.amplitudes, explicit @ state.amplitudes)
        assert abs(expected.imag) <= 1e-9
        got = bs.symmetrized_current(state, bset, 0, lam, prop)
        assert got == pytest.approx(expected.real, abs=1e-12)

    def test_ordered_variant(self, rng):
        _, prop, bset, state = random_model(rng, 6, 2)
        lam = np.array([0.2, 0.7])
        j_mat = bs.current_operator(bset[0], lam[0], prop).entries
        p2 = bset[1].projectors[bs.cell_index(bset[1], lam[1])].entries
        expected = np.vdot(state.amplitudes, (j_mat @ p2) @ state.amplitudes).real
        got = bs.symmetrized_current(state, bset, 0, lam, prop,
                                     Symmetrization.ORDERED_REAL_PART)
        assert got == pytest.approx(expected, abs=1e-12)


class TestVelocity:
    def test_conserved_beables_are_static(self, rng):
        h = random_hermitian(rng, 5)
        prop = bs.diagonalize(h)
        b = bs.from_hermitian(h)  # commutes with H
        field = bs.VelocityField(bs.validate_commuting_set([b]), prop)
        state = random_state(rng, 5)
        for lam in rng.uniform(-0.5, b.n_cells - 0.5, size=10):
            v = velocity(field, state, [lam])
            assert np.max(np.abs(v)) <= 1e-10

    def test_rabi_ratio(self, rabi):
        t = 0.9
        st = rabi.state(t)
        v = velocity(rabi.field, st, [0.5])
        expected = (0.5 * -np.sin(t)) / np.cos(t / 2) ** 2
        assert v[0] == pytest.approx(expected, abs=1e-12)

    def test_zero_at_top_boundary(self, rabi):
        v = velocity(rabi.field, rabi.state(0.4), [1.5])
        assert v[0] == pytest.approx(0.0, abs=1e-12)

    def test_node_error_carries_context(self, rabi):
        # |up> puts zero probability in cell 0
        with pytest.raises(NodeError) as err:
            velocity(rabi.field, rabi.state0, [0.2])
        assert err.value.cells == (0,)
        assert err.value.probability <= 1e-12

    def test_matches_reference_path(self, rng):
        # compiled eigenbasis evaluation vs the raw-operator reference
        for dim, n_b in [(4, 1), (6, 2), (8, 3)]:
            _, prop, bset, state = random_model(rng, dim, n_b)
            field = bs.VelocityField(bset, prop)
            for _ in range(5):
                lam = np.array([rng.uniform(-0.5, b.n_cells - 0.5) for b in bset])
                cells = [bs.cell_index(b, x) for b, x in zip(bset, lam)]
                p = bs.quantum_probability(state, bset, cells)
                if p < 1e-6:
                    continue
                ref = np.array([
                    bs.symmetrized_current(state, bset, ell, lam, prop)
                    for ell in range(n_b)
                ]) / p
                got = velocity(field, state, lam)
                assert np.max(np.abs(got - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    def test_affine_within_cell(self, rng):
        _, prop, bset, state = random_model(rng, 6, 2)
        field = bs.VelocityField(bset, prop)
        tuples, probs = bs.quantum_distribution(state, bset)
        cells = tuples[int(np.argmax(probs))]
        offsets = (-0.45, 0.0, 0.25)
        vals = []
        for x in offsets:
            lam = np.array([cells[0] + x, float(cells[1])])
            vals.append(velocity(field, state, lam)[0])
        slope_a = (vals[1] - vals[0]) / (offsets[1] - offsets[0])
        slope_b = (vals[2] - vals[1]) / (offsets[2] - offsets[1])
        assert slope_a == pytest.approx(slope_b, abs=1e-10)


def l3_commuting_model(rng):
    """Three commuting beables with 2, 3 and 2 cells on dim 6, a random H and
    a random state."""
    shared = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    beables = []
    for ell, cell_of in enumerate(([0, 1, 0, 1, 0, 1], [0, 1, 2, 2, 1, 0], [0, 0, 1, 1, 1, 0])):
        values = np.array([-1.0, 0.5, 2.0])[cell_of]
        mat = (shared * values) @ shared.conj().T
        beables.append(bs.from_hermitian(
            bs.Operator((mat + mat.conj().T) / 2, hermitian=True), label=f"b{ell}"))
    bset = bs.validate_commuting_set(beables)
    prop = bs.diagonalize(random_hermitian(rng, 6))
    return bset, prop, random_state(rng, 6)


def sigma_z_chain(rng, n_qubits):
    """sigma_z on each of n qubits, a random H and a random state: every
    beable has two cells, so every cell is a bottom or a top cell."""
    dim = 2 ** n_qubits
    beables = []
    for k in range(n_qubits):
        diag = np.ones(1)
        for j in range(n_qubits):
            diag = np.kron(diag, [1.0, -1.0] if j == k else [1.0, 1.0])
        beables.append(bs.from_hermitian(bs.Operator(np.diag(diag), hermitian=True),
                                         label=f"sz_{k}"))
    bset = bs.validate_commuting_set(beables)
    return bset, bs.diagonalize(random_hermitian(rng, dim)), random_state(rng, dim)


def full_operator_stack(field, cells):
    """The (2L + 1, dim, dim) stack [Pi, X_0..X_{L-1}, Y_0..Y_{L-1}] with every
    Y_ell, built from the masks in the joint basis and rotated into the
    Hamiltonian eigenbasis."""
    rot = field._rotation
    labels = field.beable_set.labels
    column = np.asarray(cells)[:, None]
    inside = labels == column
    masks = (inside.astype(float), (labels < column).astype(float))
    occupied = rot[:, inside.all(axis=0)]
    ops = [[], []]
    for ell, w in enumerate(_ordering_weights(inside, field.symmetrization)):
        weighted = 1j * w * field._h_joint
        for mask, out in zip(masks, ops):
            d = mask[ell]
            out.append(rot @ (weighted * (d[:, None] - d[None, :])) @ rot.conj().T)
    return np.stack([occupied @ occupied.conj().T] + ops[0] + ops[1])


def gemm_forms(stack, rows):
    """The forms of stack (K, dim, dim) for rows (n >= 2, dim) by the
    contraction _forms makes: the images of every row from one GEMM, then
    each row's images times its conjugate."""
    dim = rows.shape[1]
    images = rows @ stack.transpose(2, 0, 1).reshape(dim, -1)
    return np.matmul(images.reshape(rows.shape[0], -1, dim), rows.conj()[:, :, None])[..., 0]


def stacked_models(rng):
    """(name, field, state) for every preset and the random L = 3 set."""
    out = []
    for name in bs.PRESET_NAMES:
        m = build_model(parse_config({"preset": name}))
        out.append((name, m.field, bs.evolve(m.state0, m.propagator, 0.7)))
    bset, prop, state = l3_commuting_model(rng)
    out.append(("random-l3", bs.VelocityField(bset, prop), state))
    return out


class TestStackedEvaluation:
    """velocities takes P and every J_ell from one stacked product; it must
    agree with the probability and currents views of the same forms."""

    def test_velocities_are_currents_over_probability(self, rng):
        for name, field, state in stacked_models(rng):
            coeff = field.state_coefficients(state)
            checked = 0
            for cells in bs.all_cell_tuples(field.beable_set):
                p = field.probability(coeff, cells)
                if p <= field.node_floor:
                    continue
                lam = np.array(cells) + rng.uniform(-0.5, 0.5, size=len(cells))
                want = field.currents(coeff, lam, cells) / p
                got = field.velocities(coeff, lam, cells, state.time)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0,
                                           err_msg=f"{name} {cells}")
                checked += 1
            assert checked >= 2, name

    def test_stacked_probability_and_currents_match_single_calls(self, rng):
        # a (n, dim) stack of states gives n probabilities and a (n, L) stack
        # of lambdas, with one state or a stack, n current vectors, each bit
        # for bit its single call
        for name, field, state in stacked_models(rng):
            coeff0 = field.state_coefficients(state)
            m_e = -1j * field.propagator.energies
            for cells in bs.all_cell_tuples(field.beable_set):
                coeff = coeff0 * np.exp(m_e * rng.uniform(0.0, 2.0, size=(4, 1)))
                np.testing.assert_array_equal(
                    field.probability(coeff, cells),
                    [field.probability(c, cells) for c in coeff], err_msg=f"{name} {cells}")
                lam = np.array(cells) + rng.uniform(-0.5, 0.5, size=(4, len(cells)))
                np.testing.assert_array_equal(
                    field.currents(coeff0, lam, cells),
                    [field.currents(coeff0, x, cells) for x in lam], err_msg=f"{name} {cells}")
                np.testing.assert_array_equal(
                    field.currents(coeff, lam, cells),
                    [field.currents(c, x, cells) for c, x in zip(coeff, lam)],
                    err_msg=f"{name} {cells}")

    def test_node_error_carries_cells_probability_and_time(self, rng):
        bset, prop, state = l3_commuting_model(rng)
        probe = bs.VelocityField(bset, prop)
        coeff = probe.state_coefficients(state)
        cells = bs.all_cell_tuples(bset)[3]
        p = probe.probability(coeff, cells)
        assert p > 0.0
        field = bs.VelocityField(bset, prop, node_floor=2.0 * p)
        with pytest.raises(NodeError) as err:
            field.velocities(coeff, np.array(cells, dtype=float), cells, 1.25)
        assert err.value.cells == cells
        assert err.value.probability == p
        assert err.value.time == 1.25

    def test_stacked_rows_take_one_float_time(self, rabi):
        # cell 0 is empty in |up> at t = 0: every row is at a node
        coeff = rabi.field.state_coefficients(rabi.state0)
        with pytest.raises(NodeError) as err:
            rabi.field.velocities(np.stack([coeff, coeff]), np.zeros((2, 1)), (0,), 0.0)
        assert (err.value.row, err.value.cells, err.value.time) == (0, (0,), 0.0)
        # away from a node, a float time is every row's time
        times = np.array([0.4, 0.4])
        stack = coeff * np.exp(-1j * rabi.propagator.energies * times[:, None])
        lam = np.array([[0.1], [-0.3]])
        np.testing.assert_array_equal(rabi.field.velocities(stack, lam, (0,), 0.4),
                                      rabi.field.velocities(stack, lam, (0,), times))

    @pytest.mark.parametrize("ell", [0, 2])
    def test_non_hermitian_tuple_operator_names_the_component(self, rng, monkeypatch, ell):
        bset, prop, state = l3_commuting_model(rng)
        coeff = bs.VelocityField(bset, prop).state_coefficients(state)
        tuples, probs = bs.quantum_distribution(state, bset)
        cells = tuples[int(np.argmax(probs))]
        lam = np.array(cells, dtype=float)
        for symmetrization in Symmetrization:
            field = bs.VelocityField(bset, prop, symmetrization)
            # X_ell += i/1000 in every tuple, as its stack is built
            build_with_defect(monkeypatch, field, 1 + ell, 1e-3j * np.eye(bset.dim))
            if symmetrization is Symmetrization.SYMMETRIC_AVERAGE:
                with pytest.raises(NumericError, match=f"current component {ell} "):
                    field.velocities(coeff, lam, cells, 0.0)
                # the tuple was not cached: every call raises
                with pytest.raises(NumericError, match=f"current component {ell} "):
                    field.probability(coeff, cells)
            else:
                # the ordered variant takes the real part by construction
                field.velocities(coeff, lam, cells, 0.0)

    @pytest.mark.parametrize("symmetrization", list(Symmetrization))
    def test_a_probability_defect_raises(self, rng, monkeypatch, symmetrization):
        bset, prop, state = l3_commuting_model(rng)
        field = bs.VelocityField(bset, prop, symmetrization)
        coeff = field.state_coefficients(state)
        build_with_defect(monkeypatch, field, 0, 1e-3j * np.eye(bset.dim))
        for cells in bs.all_cell_tuples(bset)[:3]:
            with pytest.raises(NumericError, match="probability has imaginary part"):
                field.probability(coeff, cells)

    @pytest.mark.parametrize("ell", [0, 2])
    def test_roundoff_in_the_forms_passes_far_outside_the_cell(self, rng, monkeypatch, ell):
        # a DP45 stage input can lie 4e7 cells away; there u = 4e7 magnifies
        # an imaginary roundoff of 1e-15 in X_ell to 4e-8 in J_ell, beyond the
        # tolerance, but the operators themselves are Hermitian to roundoff
        bset, prop, state = l3_commuting_model(rng)
        clean = bs.VelocityField(bset, prop)
        coeff = clean.state_coefficients(state)
        tuples, probs = bs.quantum_distribution(state, bset)
        cells = tuples[int(np.argmax(probs))]
        lam = np.array(cells, dtype=float)
        lam[ell] += 4e7
        field = bs.VelocityField(bset, prop)
        for slot in (0, 1 + ell):
            build_with_defect(monkeypatch, field, slot, 1e-15j * np.eye(bset.dim))
        assert 4e7 * 1e-15 * np.vdot(coeff, coeff).real > field._imag_tol
        np.testing.assert_allclose(field.velocities(coeff, lam, cells, 0.0),
                                   clean.velocities(coeff, lam, cells, 0.0), rtol=1e-12)
        rows = np.stack([coeff, coeff * np.exp(-0.3j * prop.energies)])
        np.testing.assert_allclose(field.velocities(rows, np.stack([lam, lam]), cells, 0.0),
                                   clean.velocities(rows, np.stack([lam, lam]), cells, 0.0),
                                   rtol=1e-12)

    def test_a_complex_ordering_weight_names_its_component(self, rng, monkeypatch):
        # a weight that is not real-symmetric makes X_1 and Y_1 non-Hermitian
        # where the stack is made, not after it
        import beable_sim.dynamics as dyn

        bset, prop, state = l3_commuting_model(rng)
        built = dyn._ordering_weights

        def skewed(inside, symmetrization):
            weights = built(inside, symmetrization).astype(complex)
            weights[1] = weights[1] * (1.0 + 1e-3j)
            return weights
        monkeypatch.setattr(dyn, "_ordering_weights", skewed)
        cells = (0, 1, 0)                   # an interior cell of beable 1
        for symmetrization in Symmetrization:
            field = bs.VelocityField(bset, prop, symmetrization)
            coeff = field.state_coefficients(state)
            if symmetrization is Symmetrization.SYMMETRIC_AVERAGE:
                with pytest.raises(NumericError, match="current component 1 "):
                    field.currents(coeff, np.array(cells, dtype=float), cells)
            else:
                field.currents(coeff, np.array(cells, dtype=float), cells)

    def test_y_bounds_are_read_through_the_expansion(self, rng, monkeypatch):
        # beable 1 of the L = 3 set has cells 0, 1 and 2. A defect in its
        # stored Y (interior cell 1) is named; a defect in X_1 worth 3/4 of
        # the tolerance passes in the bottom cell (Y = 0) and raises in the
        # top cell, where Y = -X counts it twice
        bset, prop, state = l3_commuting_model(rng)
        field = bs.VelocityField(bset, prop)
        coeff = field.state_coefficients(state)
        build_with_defect(monkeypatch, field, 1 + 3, 1e-3j * np.eye(bset.dim))
        with pytest.raises(NumericError, match="current component 1 "):
            field.probability(coeff, (0, 1, 0))
        field = bs.VelocityField(bset, prop)
        build_with_defect(monkeypatch, field, 1 + 1,
                          0.75j * field._imag_tol / bset.dim * np.eye(bset.dim))
        field.probability(coeff, (0, 0, 0))
        with pytest.raises(NumericError, match="current component 1 "):
            field.probability(coeff, (0, 2, 0))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(-16, 0))
    def test_the_build_bound_holds_for_every_unit_state(self, seed, dim, exponent):
        # |Im <psi|A|psi>| <= dim max|A - A^H| / 2 for unit psi: for random
        # states, and for the top eigenvector of the anti-Hermitian part,
        # which attains its largest value (plus the roundoff of the form)
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, dim).entries
        skew = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = a + 10.0 ** exponent * (skew - skew.conj().T)
        bound = 0.5 * dim * np.abs(a - a.conj().T).max()
        anti = (a - a.conj().T) / 2j
        states = [random_state(rng, dim).amplitudes for _ in range(20)]
        states.append(np.linalg.eigh(anti)[1][:, -1])
        for psi in states:
            assert abs(np.vdot(psi, a @ psi).imag) <= bound * (1.0 + 1e-12) + 1e-14

    @pytest.mark.parametrize("symmetrization", list(Symmetrization))
    def test_stack_keeps_only_interior_y_and_matches_the_full_stack(self, rng, symmetrization):
        # Y_ell is 0 in a bottom cell and -X_ell in a top cell, so a tuple
        # stores Pi, every X_ell and the Y_ell of its interior cells only;
        # the velocities still equal u X + Y of the full stack bit for bit.
        # The full stack's forms come from the same GEMM over the matrices the
        # tuple stores, in its order: a GEMM's bits for one matrix can depend
        # on the columns it sits at when dim is not a multiple of the BLAS
        # kernel's width (seen at dim 6)
        two_qubit = build_model(parse_config({"preset": "two-qubit"}))
        models = [("two-qubit", two_qubit.beable_set, two_qubit.propagator,
                   bs.evolve(two_qubit.state0, two_qubit.propagator, 0.7)),
                  ("sigma-z-5", *sigma_z_chain(rng, 5)),
                  ("random-l3", *l3_commuting_model(rng))]
        for name, bset, prop, state in models:
            field = bs.VelocityField(bset, prop, symmetrization)
            n_b = len(bset)
            tops = [k - 1 for k in bset.cell_counts]
            coeff = field.state_coefficients(state)
            rows = coeff * np.exp(-1j * prop.energies * np.array([0.0, 0.3, 1.1])[:, None])
            checked = 0
            for cells in bs.all_cell_tuples(bset):
                interior = [ell for ell, n in enumerate(cells) if 0 < n < tops[ell]]
                full = full_operator_stack(field, cells)
                kept = list(range(1 + n_b)) + [1 + n_b + ell for ell in interior]
                np.testing.assert_array_equal(tuple_stack(field, cells), full[kept],
                                              err_msg=f"{name} {cells}")
                for ell, n in enumerate(cells):
                    if n == 0:
                        assert not full[1 + n_b + ell].any(), (name, cells, ell)
                    elif n == tops[ell]:
                        np.testing.assert_array_equal(full[1 + n_b + ell], -full[1 + ell])

                def full_forms(rows):
                    got = gemm_forms(full[kept], rows)
                    out = np.zeros((rows.shape[0], 2 * n_b + 1), dtype=complex)
                    out[:, :1 + n_b] = got[:, :1 + n_b]
                    out[:, [1 + n_b + ell for ell in interior]] = got[:, 1 + n_b:]
                    for ell, n in enumerate(cells):
                        if 0 < n == tops[ell]:
                            out[:, 1 + n_b + ell] = -got[:, 1 + ell]
                    return out

                shift = 0.5 - np.asarray(cells, dtype=float)
                lam = np.array(cells) + rng.uniform(-0.5, 0.5, size=(rows.shape[0], n_b))
                vals = full_forms(np.stack([coeff, coeff]))[0]
                stacked = full_forms(rows)
                if min(vals[0].real, stacked[:, 0].real.min()) <= field.node_floor:
                    continue
                want = ((lam[0] + shift) * vals[1:n_b + 1] + vals[n_b + 1:]).real / vals[0].real
                np.testing.assert_array_equal(field.velocities(coeff, lam[0], cells, 0.0), want,
                                              err_msg=f"{name} {cells}")
                want = ((lam + shift) * stacked[:, 1:n_b + 1]
                        + stacked[:, n_b + 1:]).real / stacked[:, :1].real
                np.testing.assert_array_equal(field.velocities(rows, lam, cells, 0.0), want,
                                              err_msg=f"{name} {cells} stacked")
                checked += 1
            # every tuple that holds a joint basis vector
            assert checked == len(set(map(tuple, bset.labels.T.tolist()))), name


def assert_same_bits(got, want, msg=""):
    assert (got.dtype, got.shape) == (want.dtype, want.shape), msg
    assert got.tobytes() == want.tobytes(), msg


def looped_ordering_weights(inside, symmetrization):
    """The per-component loop that _ordering_weights replaced, kept as its
    oracle: one (dim, dim) weight matrix per beable, in a list, from a
    table rebuilt from factorials on every call."""
    n_b = inside.shape[0]
    if symmetrization is Symmetrization.ORDERED_REAL_PART:
        return [np.outer(inside[:ell].all(axis=0), inside[ell + 1:].all(axis=0)).astype(float)
                for ell in range(n_b)]
    table = np.array([[_subset_weights(r + s + 1)[r] for s in range(n_b)] for r in range(n_b)])
    ins = inside.astype(np.intp)
    only_a = ins[:, :, None] * (1 - ins)[:, None, :]
    neither = (1 - ins)[:, :, None] * (1 - ins)[:, None, :]
    r_all, n_all = only_a.sum(axis=0), neither.sum(axis=0)
    out = []
    for ell in range(n_b):
        r = r_all - only_a[ell]
        out.append(np.where(n_all == neither[ell], table[r, r.T], 0.0))
    return out


def looped_tuple_stack(field, cells):
    """The loop that VelocityField._tuple_stack replaced, kept as its oracle:
    each X_ell from its own 2-D products, with looped_ordering_weights.
    Returns (gemm, expand) as _tuple_stack does."""
    rot = field._rotation
    n_b = field.n_beables
    column = np.asarray(cells)[:, None]
    inside = field.beable_set.labels == column
    below = (field.beable_set.labels < column).astype(float)
    occupied = rot[:, inside.all(axis=0)]
    tops = [k - 1 for k in field.beable_set.cell_counts]
    n_interior = sum(0 < n < top for n, top in zip(cells, tops))
    dim = rot.shape[0]
    gemm = np.empty((dim, 1 + n_b + n_interior, dim), dtype=complex)
    stack = gemm.transpose(1, 2, 0)
    stack[0] = occupied @ occupied.conj().T
    expand = np.zeros((stack.shape[0], 2 * n_b + 1), dtype=complex)
    expand[:1 + n_b, :1 + n_b] = np.eye(1 + n_b)
    d_in = inside.astype(float)
    slot = 1 + n_b
    for ell, w in enumerate(looped_ordering_weights(inside, field.symmetrization)):
        weighted = 1j * w * field._h_joint
        x_mat = weighted * (d_in[ell][:, None] - d_in[ell][None, :])
        stack[1 + ell] = rot @ x_mat @ rot.conj().T
        if 0 < cells[ell] < tops[ell]:
            y_mat = weighted * (below[ell][:, None] - below[ell][None, :])
            stack[slot] = rot @ y_mat @ rot.conj().T
            expand[slot, 1 + n_b + ell] = 1.0
            slot += 1
        elif cells[ell] > 0:
            expand[1 + ell, 1 + n_b + ell] = -1.0
    return gemm.reshape(dim, -1), expand


class TestBatchedTupleBuild:
    """_ordering_weights gives all L weight matrices from one batched pass,
    and _tuple_stack takes them from that array; the loops they replaced
    are their oracles, bit for bit."""

    @pytest.mark.parametrize("n_b", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("symmetrization", list(Symmetrization))
    def test_weights_match_the_loop_on_random_masks(self, rng, n_b, symmetrization):
        for _ in range(40):
            dim = int(rng.integers(1, 17))
            inside = rng.random((n_b, dim)) < rng.uniform(0.2, 0.9)
            want = np.stack(looped_ordering_weights(inside, symmetrization))
            assert_same_bits(_ordering_weights(inside, symmetrization), want,
                             f"{inside.astype(int).tolist()}")

    @pytest.mark.parametrize("symmetrization", list(Symmetrization))
    def test_stacks_match_the_loop_on_every_tuple(self, rng, symmetrization):
        models = [(name, build_model(parse_config({"preset": name})))
                  for name in bs.PRESET_NAMES]
        models = [(name, m.beable_set, m.propagator) for name, m in models]
        models.append(("sigma-z-5", *sigma_z_chain(rng, 5)[:2]))
        for name, bset, prop in models:
            field = bs.VelocityField(bset, prop, symmetrization)
            for cells in bs.all_cell_tuples(bset):
                gemm, expand = field._tuple_stack(cells)
                want_gemm, want_expand = looped_tuple_stack(field, cells)
                assert_same_bits(gemm, want_gemm, f"{name} {cells}")
                assert_same_bits(expand, want_expand, f"{name} {cells}")


def row_independence_models(rng):
    """(name, field, state) for the sigma_z chain at L = 5 and 6, the
    number-operator and two-qubit presets and the random L = 3 set, whose
    dim 6 is no multiple of the BLAS kernel's width."""
    bset, prop, state = l3_commuting_model(rng)
    out = [("random-l3", bs.VelocityField(bset, prop), state)]
    for n in (5, 6):
        bset, prop, state = sigma_z_chain(rng, n)
        out.append((f"sigma-z-{n}", bs.VelocityField(bset, prop), state))
    for name in ("number-operator", "two-qubit"):
        m = build_model(parse_config({"preset": name}))
        out.append((name, m.field, m.state0))
    return out


class TestFormsRowIndependence:
    """_forms takes a tuple's images for all rows from one GEMM. A row's
    forms must not depend on the rows around it: every slice of a 1500-row
    block (which OpenBLAS may split over threads), and every single 1-D
    call, gives that row's forms bit for bit."""

    SIZES = list(range(1, 71)) + [255, 256, 257, 700]
    OFFSETS = (0, 3, 17)

    def test_rows_match_their_rows_of_a_large_block(self, rng):
        for name, field, state in row_independence_models(rng):
            coeff0 = field.state_coefficients(state)
            block = coeff0 * np.exp(-1j * field.propagator.energies
                                    * rng.uniform(0.0, 3.0, size=(1500, 1)))
            tuples = bs.all_cell_tuples(field.beable_set)
            for cells in (tuples[0], tuples[len(tuples) // 2], tuples[-1]):
                whole = field._forms(block, cells)[0]
                for n in self.SIZES:
                    for lo in self.OFFSETS:
                        np.testing.assert_array_equal(
                            field._forms(block[lo:lo + n], cells)[0], whole[lo:lo + n],
                            err_msg=f"{name} {cells} rows {lo}..{lo + n - 1}")
                for i in (0, 1, 2, 17, 256, 1499):
                    np.testing.assert_array_equal(field._forms(block[i], cells)[0], whole[i],
                                                  err_msg=f"{name} {cells} row {i} alone")


BLOCK_TOL = dict(rtol=1e-7, atol=1e-9)     # the ensemble tolerances


def block_models(rng):
    """(name, field, state0, probe times) for every preset and the random
    L = 3 set."""
    out = []
    for name in bs.PRESET_NAMES:
        cfg = parse_config({"preset": name})
        m = build_model(cfg)
        out.append((name, m.field, m.state0, np.array(cfg.run.times)))
    bset, prop, state = l3_commuting_model(rng)
    out.append(("random-l3", bs.VelocityField(bset, prop), state, np.array([0.5, 1.5, 3.0])))
    return out


def seeded_starts(field, state0, n, seed=2024):
    """n starts drawn as an ensemble draws them, one stream per index."""
    return _draw_starts(*_initial_cdf(state0, field.beable_set), seed, range(n))


def recorded_cells(field, res):
    return [tuple(bs.cell_index(b, lam[ell]) for ell, b in enumerate(field.beable_set))
            for lam in res.lambdas]


def assert_rows_identical(got, want):
    for a, b in zip(got, want, strict=True):
        assert (a.status, a.abort_time, a.abort_cells) == (b.status, b.abort_time, b.abort_cells)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.lambdas, b.lambdas)
        assert np.array_equal(a.cells, b.cells)
        assert np.array_equal(a.xis, b.xis)


class TestBlockIntegration:
    """_integrate_block advances a stack of starts in lockstep; the
    one-trajectory _integrate_on_grid is its oracle."""

    def test_matches_the_scalar_path(self, rng):
        for name, field, state0, times in block_models(rng):
            starts = seeded_starts(field, state0, 50)
            try:
                want = [_integrate_on_grid(field, state0, lam, times, **BLOCK_TOL)
                        for lam in starts]
            except NumericError:
                with pytest.raises(NumericError):
                    _integrate_block(field, state0, starts, times, **BLOCK_TOL)
                continue
            got = _integrate_block(field, state0, starts, times, **BLOCK_TOL)
            assert len(got) == len(starts)
            for i, (a, b) in enumerate(zip(got, want)):
                what = f"{name} start {i}"
                assert a.status is b.status, what
                assert np.array_equal(a.times, b.times), what
                assert a.abort_cells == b.abort_cells, what
                np.testing.assert_allclose(a.lambdas, b.lambdas,
                                           rtol=0.0, atol=1e-12, err_msg=what)
                assert recorded_cells(field, a) == recorded_cells(field, b), what
                # each path records the cells it held, the cells of its lambdas
                for res in (a, b):
                    assert res.cells.dtype.kind == "i", what
                    assert list(map(tuple, res.cells.tolist())) == recorded_cells(field, res), what

    def test_rows_do_not_depend_on_the_block(self, rng):
        for name, field, state0, times in block_models(rng):
            if name not in ("two-qubit", "random-l3"):
                continue
            starts = seeded_starts(field, state0, 50, seed=7)
            whole = _integrate_block(field, state0, starts, times, **BLOCK_TOL)
            ones = [r for lam in starts
                    for r in _integrate_block(field, state0, lam[None], times, **BLOCK_TOL)]
            sevens = [r for lo in range(0, 50, 7)
                      for r in _integrate_block(field, state0, starts[lo:lo + 7], times,
                                                **BLOCK_TOL)]
            assert_rows_identical(ones, whole)
            assert_rows_identical(sevens, whole)

    def test_rows_do_not_depend_on_the_forms_chunk(self, rng, monkeypatch):
        # the node forms of a pass come from the tables in chunks of
        # _FORMS_ROWS node rows; chunks of 3 node rows, and of one node row
        # less than a row's whole pass, must give the rows of one chunk
        import beable_sim.dynamics as dyn

        for name, field, state0, times in block_models(rng):
            if name not in ("two-qubit", "random-l3"):
                continue
            starts = seeded_starts(field, state0, 50, seed=7)
            whole = _integrate_block(field, state0, starts, times, **BLOCK_TOL)
            for chunk in (3, 6 * _PASS_STEPS - 1):
                with monkeypatch.context() as patch:
                    patch.setattr(dyn, "_FORMS_ROWS", chunk)
                    chunked = _integrate_block(field, state0, starts, times, **BLOCK_TOL)
                assert_rows_identical(chunked, whole)

    def test_rows_do_not_depend_on_dropped_tables(self, rng, monkeypatch):
        # number-operator's span holds 62 panels in 8 windows; with room for
        # 16 panels the tables are dropped and refilled over and over
        import beable_sim.tables as tab

        for name, field, state0, times in block_models(rng):
            if name != "number-operator":
                continue
            starts = seeded_starts(field, state0, 30, seed=7)
            whole = _integrate_block(field, state0, starts, times, **BLOCK_TOL)
            with monkeypatch.context() as patch:
                patch.setattr(tab, "_TABLE_PANELS", 16)
                dropped = _integrate_block(field, state0, starts, times, **BLOCK_TOL)
            assert_rows_identical(dropped, whole)

    def test_stacked_velocities_match_single_calls(self, rng):
        for name, field, state in stacked_models(rng):
            coeff0 = field.state_coefficients(state)
            m_e = -1j * field.propagator.energies
            for cells in bs.all_cell_tuples(field.beable_set):
                times = state.time + rng.uniform(0.0, 2.0, size=6)
                coeff = coeff0 * np.exp(m_e * (times - state.time)[:, None])
                lam = np.array(cells) + rng.uniform(-0.5, 0.5, size=(6, len(cells)))
                probs = [field.probability(c, cells) for c in coeff]
                if min(probs) <= field.node_floor:
                    continue
                got = field.velocities(coeff, lam, cells, times)
                want = [field.velocities(c, x, cells, t) for c, x, t in zip(coeff, lam, times)]
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0,
                                           err_msg=f"{name} {cells}")

    def test_stacked_node_error_names_the_row(self, rabi):
        # cell 0 is empty in |up> at t = 0 and fills as sin^2(t / 2)
        coeff = rabi.field.state_coefficients(rabi.state0)
        times = np.array([1.0, 0.0, 0.0])
        stack = coeff * np.exp(-1j * rabi.propagator.energies * times[:, None])
        with pytest.raises(NodeError) as err:
            rabi.field.velocities(stack, np.zeros((3, 1)), (0,), times)
        assert (err.value.row, err.value.cells, err.value.time) == (1, (0,), 0.0)

    def test_a_row_at_a_node_aborts_while_the_others_complete(self, rabi):
        # P(cell 1) = cos^2(t / 2): starts whose level sin^2(t / 2) is still
        # ahead when P falls to the floor abort there; 0.2 starts in the empty
        # cell 0; the rest cross into cell 0 above the floor and complete
        field = bs.VelocityField(rabi.beable_set, rabi.propagator, node_floor=0.2)
        starts = np.array([[0.2], [0.8], [1.0], [1.2], [1.45], [1.49]])
        times = np.array([0.0, 1.0, 2.0, 3.0])
        got = _integrate_block(field, rabi.state0, starts, times, **BLOCK_TOL)
        want = [_integrate_on_grid(field, rabi.state0, lam, times, **BLOCK_TOL)
                for lam in starts]
        statuses = [r.status for r in got]
        assert statuses == [bs.TrajectoryStatus.NODE_ABORTED] + \
            [bs.TrajectoryStatus.COMPLETED] * 3 + [bs.TrajectoryStatus.NODE_ABORTED] * 2
        assert got[0].abort_time == 0.0 and got[0].times.size == 1
        for a, b in zip(got, want):
            assert (a.status, a.times.size, a.abort_cells) == \
                (b.status, b.times.size, b.abort_cells)
            if b.abort_time is not None:
                # the abort is seen at a node time; the two paths round the
                # error estimate differently, so step sizes agree to ~1e-9
                assert a.abort_time == pytest.approx(b.abort_time, rel=0.0, abs=1e-9)
            np.testing.assert_allclose(a.lambdas, b.lambdas, rtol=0.0, atol=1e-12)
        # the aborts come at the first node after cos^2(t / 2) reaches the floor
        t_node = 2.0 * np.arccos(np.sqrt(0.2))
        for r in got[4:]:
            assert r.abort_cells == (1,)
            assert t_node <= r.abort_time < t_node + 0.1

    def test_non_hermitian_current_raises(self, rng, monkeypatch):
        bset, prop, state = l3_commuting_model(rng)
        tuples, probs = bs.quantum_distribution(state, bset)
        cells = tuples[int(np.argmax(probs))]
        starts = np.array(cells) + rng.uniform(-0.1, 0.1, size=(5, len(cells)))
        for symmetrization in Symmetrization:
            field = bs.VelocityField(bset, prop, symmetrization)
            # X_1 += i/1000 in every tuple, as its stack is built
            build_with_defect(monkeypatch, field, 1 + 1, 1e-3j * np.eye(bset.dim))
            if symmetrization is Symmetrization.SYMMETRIC_AVERAGE:
                with pytest.raises(NumericError, match="current component 1 "):
                    _integrate_block(field, state, starts, [0.5], **BLOCK_TOL)
            else:
                # the ordered variant takes the real part by construction
                _integrate_block(field, state, starts, [0.5], **BLOCK_TOL)

    def test_a_defect_that_appears_after_the_start_raises(self, rng, monkeypatch):
        # an anti-Hermitian defect in X_1 whose form has no imaginary part at
        # t = 0 but has one at later times: the build sees the operator, so
        # the first call raises, at t = 0
        bset, prop, state = l3_commuting_model(rng)
        tuples, probs = bs.quantum_distribution(state, bset)
        cells = tuples[int(np.argmax(probs))]
        starts = np.array(cells) + rng.uniform(-0.1, 0.1, size=(5, len(cells)))
        coeff0 = bs.VelocityField(bset, prop).state_coefficients(state)
        a, b = np.argsort(np.abs(coeff0))[-2:]
        unit = np.zeros((2, bset.dim, bset.dim), dtype=complex)
        unit[0, a, b] = unit[0, b, a] = 1e-3j
        unit[1, a, b], unit[1, b, a] = -1e-3, 1e-3
        im0 = [np.vdot(coeff0, d @ coeff0).imag for d in unit]
        defect = im0[1] * unit[0] - im0[0] * unit[1]
        assert abs(np.vdot(coeff0, defect @ coeff0).imag) < 1e-15
        later = coeff0 * np.exp(-1j * prop.energies * 0.1)
        assert abs(np.vdot(later, defect @ later).imag) > 1e-8
        for run in ("first call", "block"):
            field = bs.VelocityField(bset, prop)
            build_with_defect(monkeypatch, field, 1 + 1, defect)
            with pytest.raises(NumericError, match="current component 1 "):
                if run == "first call":
                    field.velocities(coeff0, starts[0], cells, state.time)
                else:
                    _integrate_block(field, state, starts, [0.3], **BLOCK_TOL)

    def test_step_underflow_raises_on_both_paths(self, rabi, monkeypatch):
        # an error estimate no step can satisfy must surface as a numeric
        # error instead of spinning forever
        import beable_sim.dynamics as dyn

        monkeypatch.setattr(dyn, "_RADAU_ERR", (1e30,) * 6)
        with pytest.raises(NumericError, match="underflow"):
            _integrate_on_grid(rabi.field, rabi.state0, [1.2], [1.0], **BLOCK_TOL)
        with pytest.raises(NumericError, match="underflow"):
            _integrate_block(rabi.field, rabi.state0, [[0.9], [1.2]], [1.0], **BLOCK_TOL)

    def test_starts_must_be_a_stack(self, rabi):
        with pytest.raises(InputError, match="shape"):
            _integrate_block(rabi.field, rabi.state0, [1.2], [1.0], **BLOCK_TOL)
        with pytest.raises(InputError, match="outside"):
            _integrate_block(rabi.field, rabi.state0, [[1.2], [1.5]], [1.0], **BLOCK_TOL)


TIGHT_TOL = dict(rtol=1e-12, atol=1e-14)


class TestCellCrossings:
    """Crossings located inside the step control, on both paths, against a
    tight-tolerance run of the same start."""

    def test_a_row_that_crosses_and_returns_within_one_step(self):
        # this start reaches lambda_0 = 0.5, crosses and comes back within
        # one controller step; a step left to run on in the old cell's field
        # ends about 2e-2 off
        cfg = parse_config({"preset": "two-qubit"})
        m = build_model(cfg)
        lam0 = _draw_starts(*_initial_cdf(m.state0, m.beable_set), 11, [172])[0]
        times = np.array(cfg.run.times)
        want = _integrate_on_grid(m.field, m.state0, lam0, times, **TIGHT_TOL)
        scalar = _integrate_on_grid(m.field, m.state0, lam0, times, **BLOCK_TOL)
        (block,) = _integrate_block(m.field, m.state0, lam0[None], times, **BLOCK_TOL)
        assert want.times.size == times.size
        for res in (scalar, block):
            assert res.times.size == times.size
            np.testing.assert_allclose(res.lambdas, want.lambdas, rtol=0.0, atol=1e-5)

    def test_a_boundary_closer_than_the_time_resolution(self):
        # near t = 5.02 |v| reaches about 4.5e5, so the boundary lies closer
        # than the resolution of t and the row crosses in place
        cfg = parse_config({"preset": "pair-toy"})
        m = build_model(cfg)
        lam0 = bs.sample_initial(m.state0, m.beable_set, 58)
        grid = _output_grid(m.state0.time, cfg.run.t_final, 0.05)
        tol = dict(rtol=1e-9, atol=1e-11)
        want = _integrate_on_grid(m.field, m.state0, lam0, grid, **TIGHT_TOL)
        scalar = _integrate_on_grid(m.field, m.state0, lam0, grid, **tol)
        (block,) = _integrate_block(m.field, m.state0, lam0.values[None], grid, **tol)
        assert grid.size == want.times.size == 127
        for res in (scalar, block):
            assert res.status is bs.TrajectoryStatus.COMPLETED
            assert res.times.size == grid.size
            np.testing.assert_allclose(res.lambdas, want.lambdas, rtol=0.0, atol=1e-5)

    def test_aiming_skips_domain_ends(self):
        # one beable with two cells: lambda = 1.2 lies in the top cell
        assert _aim(1.0, [1.2], [1.0], (1,), (2,), 1e-14) == (None, [])
        assert _aim(1.0, [1.2], [-1.0], (1,), (2,), 1e-14) == \
            ((0.5 - 1.2 - 0.5 * CROSSING_TOL) / -1.0, [])
        # within CROSSING_TOL, or an aimed step below the resolution
        assert _aim(1.0, [0.5 + 0.9 * CROSSING_TOL], [-1.0], (1,), (2,), 1e-14) == \
            (None, [(0, 0.5)])
        assert _aim(1.0, [0.5 + 1e-6], [-1e9], (1,), (2,), 1e-14) == (None, [(0, 0.5)])

    def test_an_escape_is_retried_up_to_the_interpolant_contact(self):
        # a straight step from 0.2 to 0.8 over h = 0.5 meets 0.5 half way
        y0, y1, v = np.array([0.2]), np.array([0.8]), np.array([1.2])
        retry = _retry_step(y0, y1, v, v, 0.5, _escapes(y1, (0,)))
        assert retry == pytest.approx(0.25, rel=0.0, abs=1e-15)
        # an escape of at most CROSSING_TOL is accepted and snapped instead
        y1 = np.array([0.5 + 0.5 * CROSSING_TOL])
        assert _retry_step(y0, y1, v, v, 0.5, _escapes(y1, (0,))) is None

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from([1, -1]),
           st.floats(-6.0, 0.0))
    def test_rules_give_the_same_bits_on_numpy_rows_and_float_lists(self, seed, n_b,
                                                                     direction, log_h):
        # the block hands its per-row rules lists of Python floats where it
        # once handed numpy rows; escapes up (direction 1) and down (-1),
        # through interior boundaries and domain ends, steps of 1e-6 to 1
        rng = np.random.default_rng(seed)
        n_cells = tuple(rng.integers(1, 5, size=n_b).tolist())
        cells = tuple(int(rng.integers(k)) for k in n_cells)
        at = np.array(cells, dtype=float)
        move = rng.integers(-1, 2, size=n_b)
        move[0] = direction
        excess = 10.0 ** rng.uniform(-13.0, -0.3, size=n_b)
        y1 = np.where(move > 0, at + 0.5 + excess,
                      np.where(move < 0, at - 0.5 - excess, at + rng.uniform(-0.5, 0.5, n_b)))
        y0 = at + rng.uniform(-0.5, 0.5, size=n_b)
        f0, f1 = rng.normal(size=(2, n_b)) * 10.0 ** rng.uniform(-2.0, 3.0)
        h = 10.0 ** log_h
        rows = np.stack([y0, y1, f0, f1])
        lists = rows.tolist()

        def bits(value):
            if isinstance(value, (tuple, list, np.ndarray)):
                return [bits(v) for v in value]
            return value if value is None or isinstance(value, int) else float(value).hex()

        def crossed(y, esc):
            try:
                return bits(_cross(y, cells, esc, n_cells, 0.25))
            except NumericError as exc:
                return str(exc)

        esc_np, esc = _escapes(rows[1], cells), _escapes(lists[1], cells)
        assert esc and bits(esc_np) == bits(esc)
        assert all(type(x) is float for e in esc for x in e[1:])
        assert bits(_hermite_first_contact(*rows, np.float64(h), esc_np)) == \
            bits(_hermite_first_contact(*lists, h, esc))
        assert bits([_retry_step(*rows, np.float64(h), esc_np)]) == \
            bits([_retry_step(*lists, h, esc)])
        assert crossed(rows[1], esc_np) == crossed(lists[1], esc)

    def test_the_block_hands_its_rules_python_floats(self, monkeypatch):
        import beable_sim.dynamics as dyn

        calls = {"_retry_step": 0, "_cross": 0}

        def spy(name):
            rule = getattr(dyn, name)

            def checked(*args):
                calls[name] += 1
                if name == "_retry_step":        # (y, y_new, f0, f1, h, escapes)
                    rows, scalars, crossings = args[:4], args[4:5], args[5]
                else:                           # (y, cells, crossings, n_cells, t)
                    rows, scalars, crossings = args[:1], args[4:], args[2]
                for row in rows:
                    assert type(row) is list and all(type(x) is float for x in row), (name, row)
                assert all(type(x) is float for x in scalars), (name, scalars)
                assert all(type(x) is float for e in crossings for x in e[1:]), (name, crossings)
                return rule(*args)
            monkeypatch.setattr(dyn, name, checked)

        for name in calls:
            spy(name)
        cfg = parse_config({"preset": "two-qubit"})
        m = build_model(cfg)
        starts = seeded_starts(m.field, m.state0, 100)
        _integrate_block(m.field, m.state0, starts, np.array(cfg.run.times), **BLOCK_TOL)
        assert calls["_retry_step"] > 0 and calls["_cross"] > 0, calls

    def test_rule_1_has_one_arithmetic_on_both_paths(self, rng):
        n_cells = (2, 3, 1, 4)
        for _ in range(300):
            cells = tuple(int(rng.integers(k)) for k in n_cells)
            y = np.array(cells) + rng.uniform(-0.5, 0.5, size=4)
            near = rng.random(4) < 0.3       # some components hug a boundary
            y[near] = np.array(cells)[near] + rng.choice([-0.5, 0.5], near.sum()) \
                * (1.0 - rng.uniform(0.0, 2.0 * CROSSING_TOL, near.sum()))
            f = rng.normal(size=4) * 10.0 ** rng.integers(-3, 8, size=4)
            h = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 0.0)
            res = 10.0 ** rng.uniform(-16.0, -12.0)
            h_aim, now = _aim(h, y.tolist(), f.tolist(), cells, n_cells, res)
            aim, now_rows, boundary = _aim_rows(
                np.array([h]), y[None], f[None], np.array(cells, dtype=float)[None], n_cells,
                np.array([res]))
            assert now == [(ell, boundary[0, ell]) for ell in np.flatnonzero(now_rows[0])]
            assert aim[0] == (np.inf if h_aim is None else abs(h_aim))


def table_forms(tables, cells, times):
    """The tables' forms (n, 2L + 1) of one cell tuple at times (n,)."""
    code = np.ravel_multi_index(cells, tables.field.beable_set.cell_counts)
    rows, x = tables.locate(np.array([code]), np.asarray(times, dtype=float)[None])
    return tables.evaluate(rows[0], x[0])


def direct_forms(field, state0, cells, times):
    coeff0 = field.state_coefficients(state0)
    return _forms_at(field, coeff0, -1j * field._energies, state0.time, cells,
                     np.asarray(times, dtype=float))[0]


class TestFormTables:
    """The block path reads its stage forms from per-tuple Chebyshev tables
    in time; _forms at the same times is their reference."""

    def table_models(self, rng):
        """(name, field, state0, span end) with many panels among them."""
        out = [(name, field, state0, times[-1]) for name, field, state0, times
               in block_models(rng)]
        bset, prop, state = sigma_z_chain(rng, 5)
        out.append(("sz-chain-5", bs.VelocityField(bset, prop), state, 2.0))
        m = build_model(parse_config({"preset": "number-operator"}))
        out.append(("number-operator-t20", m.field, m.state0, 20.0))
        return out

    def test_tables_match_the_forms(self, rng):
        draw = np.random.default_rng(41)
        for name, field, state0, t_end in self.table_models(rng):
            tables = FormTables(field, field.state_coefficients(state0), state0.time, t_end)
            tuples = bs.all_cell_tuples(field.beable_set)
            for cells in (tuples[0], tuples[len(tuples) // 2], tuples[-1]):
                times = state0.time + draw.uniform(0.0, 1.0, 200) * (t_end - state0.time)
                got = table_forms(tables, cells, times)
                want = direct_forms(field, state0, cells, times)
                # each time's panel, and the largest |form| at its nodes
                panel = np.minimum(((times - state0.time) / tables.width).astype(int),
                                   tables.n_panels - 1)
                nodes = state0.time + tables.width * (panel[:, None] + tables.node_frac)
                scale = np.abs(direct_forms(field, state0, cells, nodes.ravel())).reshape(
                    times.size, -1).max(axis=1)
                # plus the roundoff of _forms itself where a form cancels to
                # far below its terms (near a node, P ~ 1e-9 from O(1) terms)
                err = np.abs(got - want).max(axis=1)
                assert np.all(err <= 1e-13 * scale + 1e-15), (name, cells)
            if name == "number-operator-t20":
                assert tables.n_panels > 200 and tables.n_windows > 1

    def test_interior_cells_are_tabulated(self, rng):
        # the random L = 3 set's middle beable has an interior cell
        name, field, state0, times = block_models(rng)[-1]
        tables = FormTables(field, field.state_coefficients(state0), state0.time, times[-1])
        cells = (0, 1, 0)
        t = state0.time + np.linspace(0.0, times[-1], 201)
        np.testing.assert_allclose(table_forms(tables, cells, t),
                                   direct_forms(field, state0, cells, t), rtol=0.0, atol=1e-13)

    def test_a_zero_span_and_a_degenerate_spectrum(self, rabi):
        tables = FormTables(rabi.field, rabi.field.state_coefficients(rabi.state0), 0.0, 0.0)
        assert tables.n_panels == 1 and tables.width == 0.0
        np.testing.assert_allclose(table_forms(tables, (1,), [0.0, 0.0]),
                                   direct_forms(rabi.field, rabi.state0, (1,), [0.0, 0.0]),
                                   rtol=0.0, atol=1e-13)
        # omega = 0: every energy equal, so every form is constant in time
        prop = bs.diagonalize(bs.Operator(0.7 * I2, hermitian=True))
        field = bs.VelocityField(rabi.beable_set, prop)
        state = bs.QuantumState(np.array([0.6, 0.8j]))
        tables = FormTables(field, field.state_coefficients(state), 0.0, 5.0)
        assert tables.n_panels == 1
        t = np.linspace(0.0, 5.0, 200)
        for cells in ((0,), (1,)):
            np.testing.assert_allclose(table_forms(tables, cells, t),
                                       direct_forms(field, state, cells, t),
                                       rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("t0, t_end", [(0.0, 2.5), (1.0, -2.0)])
    def test_a_time_beyond_the_span_raises(self, rabi, t0, t_end):
        state = rabi.state(t0)
        tables = FormTables(rabi.field, rabi.field.state_coefficients(state), t0, t_end)
        step = np.spacing(max(abs(t0), abs(t_end)))
        # the rounding of t + c h may pass the end by an ulp or two
        for t in (t0, t_end, t_end + np.sign(t_end - t0) * step):
            table_forms(tables, (1,), [t])
        for t in (t_end + np.sign(t_end - t0) * 1e-9, t0 - np.sign(t_end - t0) * 1e-9):
            with pytest.raises(NumericError, match="outside the tabulated span"):
                table_forms(tables, (1,), [t])

    @staticmethod
    def per_stage_calls(field, vals):
        """Each row's first stage at a node (S if none) from one stacked
        _velocities_of call per stage over the rows still live, retried
        without each row at a node, and the velocities (S, m, 1) of those
        calls (nan where a row is not live)."""
        n_stages, m = vals.shape[:2]
        first = np.full(m, n_stages)
        v = np.full((n_stages, m, 1), np.nan)
        lam, shift = np.zeros((m, 1)), np.full((m, 1), 0.5)
        for s in range(n_stages):
            live = np.flatnonzero(first == n_stages)
            while live.size:
                try:
                    v[s, live] = field._velocities_of(vals[s, live], lam[live], shift[live],
                                                      (1,), 0.0)
                    break
                except NodeError as node:
                    first[live[node.row]] = s
                    live = np.delete(live, node.row)
        return first.tolist(), v

    @pytest.mark.parametrize("defect, seen", [
        (None, False), (("P", 0, 1), True), (("P", 0, 2), False), (("X", 0, 1), False),
        (("X", 0, 0), True), (("X", 1, 3), True)])
    def test_stage_checks_follow_one_call_per_stage(self, rabi, defect, seen):
        # row 0 meets a node at stage 1; a defect at (form, row, stage), a
        # shift of 1/1000 there, is seen by a stage call only while its row is
        # live there: P decides the node (here lifting row 0 off it), the
        # currents follow it. The stacked node rows, _stage_nodes and then
        # _node_rates where a row is live (b is the velocity at lambda = 0),
        # give what the stage calls give
        vals = np.full((6, 2, 3), 0.5)
        vals[1, 0, 0] = 0.0
        clean = self.per_stage_calls(rabi.field, vals)
        if defect is not None:
            form, row, stage = defect
            vals[stage, row, 0 if form == "P" else 1] += 1e-3
        want_first, want_v = self.per_stage_calls(rabi.field, vals)
        first = _stage_nodes(rabi.field, vals[..., 0])
        first = [6, 6] if first is None else first.tolist()
        assert first == want_first
        with np.errstate(divide="ignore", invalid="ignore"):  # P = 0 at the node, masked below
            got_v = _node_rates(vals, np.full((2, 1), 0.5))[1]
        live = np.arange(6)[:, None] < np.array(first)
        np.testing.assert_array_equal(np.where(live[..., None], got_v, np.nan), want_v)
        changed = want_first != clean[0] or not np.array_equal(want_v, clean[1], equal_nan=True)
        assert changed == seen and (seen or want_first == [1, 6])

    def test_stage_nodes_follow_one_call_per_stage(self, rabi):
        # rows at a node at some (stage, row) pairs: each row's first stage
        # at a node is the one where a velocities call per stage, over the
        # rows still live, aborts it
        layouts = [(), ((1, 0),), ((1, 0), (3, 0), (2, 1)), ((0, 1), (4, 1), (4, 0))]
        for nodes in layouts:
            vals = np.full((5, 2, 3), 0.5)
            for stage, row in nodes:
                vals[stage, row, 0] = 0.0
            want = self.per_stage_calls(rabi.field, vals)[0]
            got = _stage_nodes(rabi.field, vals[..., 0])
            assert (got is None and want == [5, 5]) or got.tolist() == want, nodes

    @pytest.mark.parametrize("ell", [0, 2])
    def test_a_defect_in_x_gives_the_per_stage_message(self, rng, monkeypatch, ell):
        # the tables fill from _forms, so a defect raises there, with the
        # message of a velocities call
        bset, prop, state = l3_commuting_model(rng)
        tuples, probs = bs.quantum_distribution(state, bset)
        cells = tuples[int(np.argmax(probs))]
        field = bs.VelocityField(bset, prop)
        build_with_defect(monkeypatch, field, 1 + ell, 1e-3j * np.eye(bset.dim))
        coeff0 = field.state_coefficients(state)
        tables = FormTables(field, coeff0, 0.0, 1.0)
        stage_t = 0.4 + _STAGE_C * 0.05
        with pytest.raises(NumericError, match=f"current component {ell} ") as got:
            table_forms(tables, cells, stage_t)
        lam = np.array(cells, dtype=float)
        with pytest.raises(NumericError) as want:
            field.velocities(coeff0 * np.exp(-1j * field._energies * stage_t[0]), lam, cells,
                             stage_t[0])
        assert str(got.value) == str(want.value)


def legendre_difference(x):
    """P_6(2x - 1) - P_5(2x - 1) at a rational x, exactly (Bonnet's recurrence)."""
    u = 2 * x - 1
    prev, cur = Fraction(1), u
    for n in range(1, 6):
        prev, cur = cur, ((2 * n + 1) * u * cur - n * prev) / (n + 1)
    return cur - prev


class TestRadauStep:
    """The exponential Radau step of both integrators: its constants, its
    arithmetic on both paths and the outcomes of a step."""

    @staticmethod
    def random_step(rng, field):
        """Random cells, y, h and real node forms (6, 2L + 1), with P in
        [0.2, 1] and normal X and Y, for a step of field."""
        n_b = field.n_beables
        cells = tuple(int(rng.integers(k)) for k in field.beable_set.cell_counts)
        vals = rng.normal(size=(6, 2 * n_b + 1))
        vals[:, 0] = rng.uniform(0.2, 1.0, size=6)
        y = np.array(cells) + rng.uniform(-0.5, 0.5, size=n_b)
        h = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 0.0))
        return cells, vals, y, h

    def test_the_quadrature_constants_are_exact(self):
        # in exact rational arithmetic on the doubles: each node lies within
        # an ulp of a root of the Radau polynomial; the weights integrate
        # s^k for k <= 10 (not 11, the rule's degree is 2 * 6 - 2), the tails
        # and S = w - tail (the integrals from 0 to each node) integrate s^k
        # for k <= 5, and w - d, zero at the fourth node, is the interpolatory
        # rule of the other five
        assert _STAGE_C.tolist() == list(_RADAU_C) and _RADAU_C[-1] == 1.0
        for node in _RADAU_C[:-1]:
            below, above = (legendre_difference(Fraction(np.nextafter(node, end)))
                            for end in (0.0, 1.0))
            assert below * above <= 0, node
        c = [Fraction(x) for x in _RADAU_C]
        w = [Fraction(x) for x in _RADAU_W]
        tol = Fraction(1, 10 ** 16)

        def quad(weights, k, lo=0, hi=1):
            return abs(sum(wj * cj ** k for wj, cj in zip(weights, c))
                       - (hi ** (k + 1) - lo ** (k + 1)) / (k + 1))
        assert all(quad(w, k) <= tol for k in range(11))
        assert quad(w, 11) > 1e-8
        for i, tail in enumerate(_RADAU_TAIL):
            tail = [Fraction(x) for x in tail]
            s_row = [wj - tj for wj, tj in zip(w, tail)]
            for k in range(6):
                assert quad(tail, k, lo=c[i]) <= tol, (i, k)
                assert quad(s_row, k, hi=c[i]) <= tol, (i, k)
        w5 = [wj - Fraction(dj) for wj, dj in zip(w, _RADAU_ERR)]
        assert w5[3] == 0
        assert all(quad(w5, k) <= tol for k in range(5))
        assert quad(w5, 5) > 1e-6

    @pytest.mark.parametrize("a, b", [(0.8, 0.0), (-2.5, 0.0), (0.0, 0.7), (0.0, -3.0),
                                      (0.9, 0.4), (-1.3, 2.0)])
    def test_constant_rates_step_exactly(self, rabi, a, b):
        # y' = a y + b with constant a, b: exp(a h) y + b (exp(a h) - 1) / a,
        # or y + h b when a = 0, on both paths, and the last node is a y_new
        # + b (the step reads only the node floor of its field). With a and b
        # both nonzero the rule integrates exp(a h (1 - s)) b, exactly to
        # roundoff while |a h| <= 1 (its error grows as (a h)^12), and the
        # error estimate is the 5-node rule's error there; with a or b zero it
        # is exact for any step, and the estimate is roundoff
        field = rabi.field
        cells, shift = (1, 0), np.array([-0.5, 0.5])
        p = 0.5
        x = np.full(2, a * p)
        vals = np.tile(np.concatenate(([p], x, b * p - shift * x)), (6, 1))
        y = np.array([1.2, -0.3])
        for h in (0.3, -0.7, 1.0, -5.0):
            if a and b and abs(a * h) > 1.0:
                continue
            e = math.exp(a * h)
            want = e * y + (b * (e - 1.0) / a if a else h * b)
            got = _float_step(field, vals, cells, 0.0, y.tolist(), h)
            block = _block_step(vals[:, None], shift[None], y[None], np.array([[h]]))
            for y_new, err, f_last in (got, [r[0] for r in block]):
                np.testing.assert_allclose(y_new, want, rtol=1e-14, atol=1e-15)
                if a == 0.0 or b == 0.0:
                    assert np.all(np.abs(err) <= 1e-15 * (np.abs(want) + abs(h * b)))
                np.testing.assert_allclose(f_last, a * np.array(y_new) + b,
                                           rtol=1e-15, atol=1e-15)

    def test_the_float_step_is_the_block_step(self, rng, monkeypatch):
        # fed the same forms and h, the one-trajectory step returns Python
        # floats that match the block's row; with numpy's exponential in
        # both, bit for bit
        import beable_sim.dynamics as dyn

        field = bs.VelocityField(*l3_commuting_model(rng)[:2])
        steps = [self.random_step(rng, field) for _ in range(1000)]
        for cells, vals, y, h in steps:
            vals *= 10.0 ** rng.uniform(-3.0, 3.0, size=vals.shape[1])
        # 200 steps whose exponents |h X / P| stay below 50, far from overflow
        steps = [s for s in steps
                 if np.abs(s[3] * s[1][:, 1:4] / s[1][:, :1]).max() < 50.0][:200]
        assert len(steps) == 200
        for same_exp in (False, True):
            if same_exp:
                monkeypatch.setattr(dyn.math, "exp", lambda x: float(np.exp(x)))
            for cells, vals, y, h in steps:
                got = _float_step(field, vals, cells, 0.4, y.tolist(), h)
                want = _block_step(vals[:, None], (0.5 - np.array(cells))[None], y[None],
                                   np.array([[h]]))
                for a, b in zip(got, want, strict=True):
                    assert all(type(v) is float for v in a)
                    if same_exp:
                        assert np.array_equal(a, b[0])
                    else:
                        np.testing.assert_allclose(a, b[0], rtol=1e-12, atol=1e-12 * abs(h))

    def test_rows_of_the_block_step_do_not_depend_on_the_block(self, rng):
        field = bs.VelocityField(*l3_commuting_model(rng)[:2])
        steps = [self.random_step(rng, field) for _ in range(37)]
        forms = np.stack([s[1] for s in steps], axis=1)
        shift = 0.5 - np.array([s[0] for s in steps])
        y = np.array([s[2] for s in steps])
        h = np.array([[s[3]] for s in steps])
        whole = _block_step(forms, shift, y, h)
        for lo, hi in ((0, 1), (3, 4), (5, 12), (12, 37)):
            part = _block_step(forms[:, lo:hi], shift[lo:hi], y[lo:hi], h[lo:hi])
            for a, b in zip(part, whole, strict=True):
                assert np.array_equal(a, b[lo:hi])

    def test_a_node_at_a_given_node_row(self, rabi):
        # P(cell 1) = cos^2(t / 2) falls to the floor 0.2 between the second
        # and third node of the first row's step; both paths abort it at the
        # third node, as one velocities call per node would, and the second
        # row stays clear
        field = bs.VelocityField(rabi.beable_set, rabi.propagator, node_floor=0.2)
        coeff0 = field.state_coefficients(rabi.state0)
        m_e = -1j * field._energies
        h = 0.1
        starts = np.array([2.0 * np.arccos(np.sqrt(0.2)) - 0.3 * h, 0.3])
        node_t = starts[:, None] + _STAGE_C * h
        tables = FormTables(field, coeff0, 0.0, 3.0)
        rows, x = tables.locate(np.array([1, 1]), node_t)
        p = np.array([tables.evaluate(r, xi)[:, 0] for r, xi in zip(rows.T, x.T)])
        assert _stage_nodes(field, p).tolist() == [2, 6]
        assert _stage_nodes(field, p[:, 1:]) is None
        field.velocities(coeff0 * np.exp(m_e * node_t[0, 1]), np.array([1.2]), (1,),
                         node_t[0, 1])
        with pytest.raises(NodeError) as per_node:
            field.velocities(coeff0 * np.exp(m_e * node_t[0, 2]), np.array([1.2]), (1,),
                             node_t[0, 2])
        vals = _forms_at(field, coeff0, m_e, 0.0, (1,), node_t[0])[0]
        with pytest.raises(NodeError) as step:
            _float_step(field, vals, (1,), starts[0], [1.2], h)
        assert (step.value.cells, step.value.time) == ((1,), node_t[0, 2])
        assert step.value.probability == per_node.value.probability
        assert step.value.probability == pytest.approx(p[2, 0], rel=0.0, abs=1e-13)
        # a node row exactly at the floor is at a node, as in a velocities call
        vals[:, 0] = 0.5
        vals[4, 0] = field.node_floor
        with pytest.raises(NodeError) as at_floor:
            _float_step(field, vals, (1,), 0.0, [1.2], h)
        assert at_floor.value.time == _RADAU_C[4] * h
        assert _stage_nodes(field, vals[:, :1]).tolist() == [4]

    def test_an_overflowing_step_is_not_finite_on_both_paths(self, rng):
        # X / P = 1e6 over a unit step: the exponential overflows, which the
        # float step reports as NaN and the block step as inf or NaN
        field = bs.VelocityField(*l3_commuting_model(rng)[:2])
        cells, vals, y, _ = self.random_step(rng, field)
        vals[:, 0] = 1e-6
        vals[:, 1:4] = 1.0
        got = _float_step(field, vals, cells, 0.0, y.tolist(), 1.0)
        assert all(math.isnan(v) for part in got for v in part)
        y_new, err, _ = _block_step(vals[:, None], (0.5 - np.array(cells))[None], y[None],
                                    np.array([[1.0]]))
        assert not np.isfinite(y_new).all() and not np.isfinite(err).all()

    @pytest.mark.parametrize("path", ["one trajectory", "block"])
    def test_a_non_finite_step_is_rejected_with_the_smallest_factor(self, rabi, monkeypatch,
                                                                   path):
        # the first trial step comes back NaN (one trajectory) or inf (block):
        # it is rejected, the next trial is a fifth of it, and the run goes on
        import beable_sim.dynamics as dyn

        trials = []
        if path == "one trajectory":
            step = dyn._float_step

            def spy(field, vals, cells, t, y, h):
                trials.append(h)
                if len(trials) == 1:
                    return [math.nan], [math.nan], [math.nan]
                return step(field, vals, cells, t, y, h)
            monkeypatch.setattr(dyn, "_float_step", spy)
            run = _integrate_on_grid(rabi.field, rabi.state0, [1.2], [0.0, 1.0], **BLOCK_TOL)
        else:
            step = dyn._block_step

            def spy(forms, shift, y, h):
                trials.append(float(h[0, 0]))
                y_new, err, f_last = step(forms, shift, y, h)
                if len(trials) == 1:
                    y_new, err = np.full_like(y_new, np.inf), np.full_like(err, np.inf)
                return y_new, err, f_last
            monkeypatch.setattr(dyn, "_block_step", spy)
            (run,) = _integrate_block(rabi.field, rabi.state0, [[1.2]], [0.0, 1.0], **BLOCK_TOL)
        assert trials[1] == 0.2 * trials[0]
        assert run.status is bs.TrajectoryStatus.COMPLETED and run.times.size == 2
        assert np.isfinite(run.lambdas).all()

    @pytest.mark.parametrize("ell", [0, 2])
    def test_the_step_forms_check_the_current_forms(self, rng, monkeypatch, ell):
        # a defect in X_ell raises the error of one velocities call on the
        # forms of a step's nodes too
        bset, prop, state = l3_commuting_model(rng)
        tuples, probs = bs.quantum_distribution(state, bset)
        cells = tuples[int(np.argmax(probs))]
        lam = np.array(cells, dtype=float)
        t, h = 0.4, 0.05
        for symmetrization in Symmetrization:
            field = bs.VelocityField(bset, prop, symmetrization)
            coeff0 = field.state_coefficients(state)
            m_e = -1j * field._energies
            build_with_defect(monkeypatch, field, 1 + ell, 1e-3j * np.eye(bset.dim))
            step_forms = lambda: _forms_at(field, coeff0, m_e, 0.0, cells,
                                           t + _STAGE_C * h)
            if symmetrization is Symmetrization.SYMMETRIC_AVERAGE:
                with pytest.raises(NumericError, match=f"current component {ell} ") as got:
                    step_forms()
                field._tuple_cache.clear()
                with pytest.raises(NumericError) as want:
                    field.velocities(coeff0 * np.exp(m_e * t), lam, cells, t)
                assert str(got.value) == str(want.value)
            else:
                # the ordered variant takes the real part by construction
                step_forms()


class TestAccuracyAtTheEnsembleTolerance:
    """At the ensembles' rtol 1e-7 both integrators deliver lambda far more
    accurately than the tolerance, which bounds the 5-node rule: within 1e-9
    of an independent oracle at 41 times over each preset's run."""

    @pytest.mark.parametrize("name", ["number-operator", "pair-toy", "two-state-rabi"])
    def test_single_beable_presets_follow_the_level_set(self, name):
        cfg = parse_config({"preset": name})
        m = build_model(cfg)
        b = m.beable_set[0]
        times = np.linspace(m.state0.time, cfg.run.t_final, 41)
        starts = seeded_starts(m.field, m.state0, 20)
        weights = [bs.cell_weights(bs.evolve(m.state0, m.propagator, t - m.state0.time), b)
                   for t in times.tolist()]
        scalar = [_integrate_on_grid(m.field, m.state0, lam, times, **BLOCK_TOL)
                  for lam in starts]
        block = _integrate_block(m.field, m.state0, starts, times, **BLOCK_TOL)
        for i, lam in enumerate(starts):
            level = bs.level_expectation(m.state0, b, float(lam[0]))
            oracle = [bs.single_beable_levelset(w, level) for w in weights]
            for res in (scalar[i], block[i]):
                assert res.status is bs.TrajectoryStatus.COMPLETED, i
                np.testing.assert_allclose(res.lambdas[:, 0], oracle, rtol=0.0, atol=1e-9,
                                           err_msg=f"{name} start {i}")

    def test_two_qubit_follows_a_tight_run(self):
        cfg = parse_config({"preset": "two-qubit"})
        m = build_model(cfg)
        times = np.linspace(m.state0.time, cfg.run.t_final, 41)
        starts = seeded_starts(m.field, m.state0, 20)
        block = _integrate_block(m.field, m.state0, starts, times, **BLOCK_TOL)
        for i, lam in enumerate(starts):
            want = _integrate_on_grid(m.field, m.state0, lam, times, **TIGHT_TOL)
            scalar = _integrate_on_grid(m.field, m.state0, lam, times, **BLOCK_TOL)
            for res in (scalar, block[i]):
                assert res.status is want.status and res.times.size == want.times.size, i
                assert np.array_equal(res.cells, want.cells), i
                np.testing.assert_allclose(res.lambdas, want.lambdas, rtol=0.0, atol=1e-9,
                                           err_msg=f"start {i}")


class TestCarriedStage:
    """Both integrators start a step with the last stage of the step before
    it unless that step crossed a boundary, also after a step clamped to a
    record time."""

    def test_no_fresh_first_stage_at_a_record_time(self, monkeypatch):
        # from t = 0.1, a step clamped to 0.43 ends at 0.1 + (0.43 - 0.1) =
        # 0.42999999999999994, and its last stage still starts the next step
        import beable_sim.dynamics as dyn

        m = build_model(parse_config({"preset": "number-operator"}))
        state = bs.evolve(m.state0, m.propagator, 0.1)
        grid = np.array([0.43, 1.0, 6.0])
        starts = seeded_starts(m.field, state, 5)
        forms_at, velocities = dyn._forms_at, m.field.velocities
        first_stage_times = []

        def spy_forms_at(field, coeff0, m_e, t0, cells, times):
            # a fresh first stage of the one-trajectory path leads the call
            # of its pass's node forms, at the pass's start t; a call without
            # one leads with the first node t + c_1 h, never a record time
            first_stage_times.append(float(times[0]))
            return forms_at(field, coeff0, m_e, t0, cells, times)

        def spy_velocities(coeff, lam, cells, time):
            first_stage_times.extend(np.atleast_1d(time).tolist())
            return velocities(coeff, lam, cells, time)

        monkeypatch.setattr(dyn, "_forms_at", spy_forms_at)
        monkeypatch.setattr(m.field, "velocities", spy_velocities)
        want = [_integrate_on_grid(m.field, state, lam, grid, **BLOCK_TOL) for lam in starts]
        got = _integrate_block(m.field, state, starts, grid, **BLOCK_TOL)
        assert 0.1 in first_stage_times
        assert 0.43 not in first_stage_times
        for i, (a, b) in enumerate(zip(got, want, strict=True)):
            assert a.status is b.status, i
            assert np.array_equal(a.cells, b.cells), i
            np.testing.assert_allclose(a.lambdas, b.lambdas, rtol=0.0, atol=1e-12,
                                       err_msg=f"start {i}")


class TestPasses:
    """Both integrators take up to _PASS_STEPS steps of one size from one
    evaluation of the forms. In a stretch without events a pass only
    batches: its steps have the bits of single steps of the same size."""

    def test_a_pass_of_float_steps_is_its_single_steps(self, rng):
        for name, field, state0, _ in block_models(rng):
            if name not in ("two-qubit", "random-l3"):
                continue
            coeff0 = field.state_coefficients(state0)
            m_e = -1j * field._energies
            lam = seeded_starts(field, state0, 1, seed=3)[0]
            cells = tuple(bs.cell_index(b, v) for b, v in zip(field.beable_set, lam))
            # a record time inside the pass clamps its third step
            t, h = 0.3, 1e-3
            plan = _plan(t, h, False, h, [t + 2.5 * h, 1.0], 0, 1.0, _PASS_STEPS)
            assert [p[2] for p in plan] == [False, False, True, False]
            assert len(plan) == _PASS_STEPS
            times = _pass_times(plan)
            vals = _forms_at(field, coeff0, m_e, state0.time, cells, times)[0]
            y_pass = y_one = lam.tolist()
            for j, (t_j, h_j, _, end) in enumerate(plan):
                node_t = t_j + _STAGE_C * h_j
                assert np.array_equal(times[6 * j:6 * j + 6], node_t)
                got = _float_step(field, vals[6 * j:6 * j + 6], cells, t_j, y_pass, h_j)
                one = _forms_at(field, coeff0, m_e, state0.time, cells, node_t)[0]
                want = _float_step(field, one, cells, t_j, y_one, h_j)
                assert got == want, (name, j)
                y_pass, y_one = got[0], want[0]
                # no event: the stretch stays in its cells
                assert not _escapes(y_pass, cells), (name, j)

    def test_a_block_pass_is_its_single_steps(self, rng):
        # 9 rows with passes of 1 to 4 steps (0 after a row's last): each
        # step of the pass has the bits of a one-step call on its rows
        field = bs.VelocityField(*l3_commuting_model(rng)[:2])
        n_b, m, k = field.n_beables, 9, _PASS_STEPS
        n_steps = np.array([1, 4, 2, 4, 3, 1, 4, 4, 2])
        h = rng.choice([-1.0, 1.0], size=(m, 1)) * 10.0 ** rng.uniform(-3.0, -1.0, size=(m, k))
        h[np.arange(k) >= n_steps[:, None]] = 0.0
        forms = rng.normal(size=(6, int(n_steps.sum()), 2 * n_b + 1))
        forms[..., 0] = rng.uniform(0.2, 1.0, size=forms.shape[:2])
        cells = np.array([[int(rng.integers(c)) for c in field.beable_set.cell_counts]
                          for _ in range(m)])
        shift = 0.5 - cells
        y = cells + rng.uniform(-0.5, 0.5, size=(m, n_b))
        got = _block_step(forms, shift, y, h)
        off = np.cumsum(n_steps) - n_steps
        for j in range(k):
            rows = np.flatnonzero(n_steps > j)
            want = _block_step(forms[:, off[rows] + j], shift[rows], y[rows], h[rows, j:j + 1])
            for part_got, part_want in zip(got, want, strict=True):
                assert np.array_equal(part_got[off[rows] + j], part_want), j
            y[rows] = want[0]

    @pytest.mark.parametrize("grid", ["dense", "backward"])
    def test_the_block_plans_its_passes_as_the_scalar_path(self, grid):
        # record times closer than a pass (several clamped steps in one pass)
        # and a backward run: the block's passes end, record and adapt h as
        # _integrate_on_grid's do
        for name in ("two-qubit", "number-operator"):
            cfg = parse_config({"preset": name})
            m = build_model(cfg)
            times = np.linspace(0.0, 2.0, 161) if grid == "dense" else \
                np.array([-0.3, -0.9, -1.0, -2.5])
            starts = seeded_starts(m.field, m.state0, 20, seed=13)
            got = _integrate_block(m.field, m.state0, starts, times, **BLOCK_TOL)
            for i, (a, lam) in enumerate(zip(got, starts)):
                b = _integrate_on_grid(m.field, m.state0, lam, times, **BLOCK_TOL)
                what = f"{name} {grid} start {i}"
                assert a.status is b.status and a.abort_cells == b.abort_cells, what
                assert np.array_equal(a.times, b.times), what
                assert np.array_equal(a.cells, b.cells), what
                np.testing.assert_allclose(a.lambdas, b.lambdas, rtol=0.0, atol=1e-12,
                                           err_msg=what)

    def test_a_trajectory_takes_its_forms_once_per_pass(self, monkeypatch):
        # on a seeded two-qubit simulate trajectory at rtol 1e-9, one
        # _forms_at call serves several _float_step calls; one call per step
        # would fail this
        import beable_sim.dynamics as dyn

        cfg = parse_config({"preset": "two-qubit"})
        m = build_model(cfg)
        counts = {"forms": 0, "steps": 0}
        forms_at, step = dyn._forms_at, dyn._float_step

        def count_forms(*args):
            counts["forms"] += 1
            return forms_at(*args)

        def count_steps(*args):
            counts["steps"] += 1
            return step(*args)

        monkeypatch.setattr(dyn, "_forms_at", count_forms)
        monkeypatch.setattr(dyn, "_float_step", count_steps)
        lam = seeded_starts(m.field, m.state0, 1, seed=11)[0]
        run = bs.integrate_trajectory(m.field, m.state0, lam, cfg.run.t_final,
                                      cfg.run.output_dt, rtol=1e-9, atol=1e-11)
        assert run.status is bs.TrajectoryStatus.COMPLETED
        assert counts["steps"] > 50
        assert counts["forms"] <= 0.6 * counts["steps"], counts

    def test_a_block_evaluates_its_forms_once_per_pass(self, monkeypatch):
        # a seeded 50-row two-qubit block evaluates each stepping row's
        # forms once per pass: fewer row evaluations than the steps
        # _block_step takes from them; one step per evaluation would fail
        import beable_sim.dynamics as dyn

        cfg = parse_config({"preset": "two-qubit"})
        m = build_model(cfg)
        counts = {"rows": 0, "steps": 0}
        step = dyn._block_step

        def count(forms, shift, y, h):
            counts["rows"] += h.shape[0]
            counts["steps"] += np.count_nonzero(h)
            assert forms.shape[1] == np.count_nonzero(h)
            return step(forms, shift, y, h)

        monkeypatch.setattr(dyn, "_block_step", count)
        starts = seeded_starts(m.field, m.state0, 50, seed=11)
        runs = _integrate_block(m.field, m.state0, starts, np.array(cfg.run.times),
                                **BLOCK_TOL)
        assert all(r.status is bs.TrajectoryStatus.COMPLETED for r in runs)
        assert counts["rows"] <= 0.6 * counts["steps"], counts


class TestIntegrateTrajectory:
    def test_conserved_beables_stay_put(self, rng):
        h = random_hermitian(rng, 4)
        prop = bs.diagonalize(h)
        b = bs.from_hermitian(h)
        field = bs.VelocityField(bs.validate_commuting_set([b]), prop)
        state = random_state(rng, 4)
        lam0 = 0.25
        traj = bs.integrate_trajectory(field, state, [lam0], t_final=5.0, output_dt=0.5)
        assert traj.status is bs.TrajectoryStatus.COMPLETED
        assert np.max(np.abs(traj.lambdas - lam0)) <= 1e-8
        assert np.all(traj.xis == traj.xis[0, 0])

    def test_flip_time_matches_two_state_oracle(self, rabi):
        # lambda0 = 1.3 -> L0 = 0.8 -> xi0 = -0.6; flip when cos t = xi0
        t_star = np.arccos(-0.6)

        def lam_at(t):
            traj = bs.integrate_trajectory(rabi.field, rabi.state0, [1.3],
                                           t_final=t, output_dt=t)
            return traj.lambdas[-1, 0]

        lo, hi = 2.0, 2.4
        assert lam_at(lo) > 0.5 > lam_at(hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if lam_at(mid) > 0.5:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - t_star) <= 1e-6

    def test_xis_track_lambda_cells(self, rabi):
        traj = bs.integrate_trajectory(rabi.field, rabi.state0, [1.3],
                                       t_final=2.5, output_dt=0.05)
        assert traj.status is bs.TrajectoryStatus.COMPLETED
        assert np.all(np.diff(traj.times) > 0)
        for k in range(traj.times.size):
            assert traj.xis[k, 0] == bs.eigenvalue_at(rabi.beable, traj.lambdas[k, 0])
        # the flip to -1 happened and is within one output step of the oracle
        flips = np.where(np.diff(traj.xis[:, 0]) != 0)[0]
        assert flips.size == 1
        t_star = np.arccos(-0.6)
        assert traj.times[flips[0]] <= t_star <= traj.times[flips[0] + 1]

    def test_forward_backward_roundtrip(self, rabi):
        lam0 = 1.1
        fwd = bs.integrate_trajectory(rabi.field, rabi.state0, [lam0],
                                      t_final=2.5, output_dt=2.5)
        state_t = rabi.state(2.5)
        back = bs.integrate_trajectory(rabi.field, state_t, fwd.final_lambdas,
                                       t_final=0.0, output_dt=2.5)
        assert back.times[-1] == 0.0
        assert abs(back.final_lambdas[0] - lam0) <= 1e-6

    def test_node_abort_status(self, rabi):
        # cell 0 has zero probability in |up>, so the velocity is undefined
        traj = bs.integrate_trajectory(rabi.field, rabi.state0, [0.2],
                                       t_final=1.0, output_dt=0.1)
        assert traj.status is bs.TrajectoryStatus.NODE_ABORTED
        assert traj.abort_cells == (0,)
        assert traj.abort_time == 0.0
        assert traj.times.size == 1  # the initial sample was still recorded

    def test_multi_cell_hopping(self, rng):
        # driven truncated oscillator: the beable walks through several cells
        dim = 6
        number = bs.Operator(np.diag(np.arange(float(dim))), hermitian=True)
        lower = np.zeros((dim, dim))
        for n in range(1, dim):
            lower[n - 1, n] = np.sqrt(n)
        h = bs.Operator(number.entries + 0.9 * (lower + lower.T), hermitian=True)
        prop = bs.diagonalize(h)
        b = bs.from_hermitian(number, label="n")
        field = bs.VelocityField(bs.validate_commuting_set([b]), prop)
        state = bs.QuantumState(np.eye(dim)[0])
        traj = bs.integrate_trajectory(field, state, [0.2], t_final=4.0, output_dt=0.02)
        assert traj.status is bs.TrajectoryStatus.COMPLETED
        assert len(np.unique(traj.xis)) >= 3
        assert np.all(traj.lambdas >= -0.5)
        assert np.all(traj.lambdas < dim - 0.5)
        # the conserved level value drifts only at integrator tolerance
        level0 = bs.level_expectation(state, b, 0.2)
        for k in (10, 100, -1):
            st = bs.evolve(state, prop, traj.times[k])
            level = bs.level_expectation(st, b, traj.lambdas[k, 0])
            assert abs(level - level0) <= 1e-6

    def test_two_beable_integration_continuity(self, rng):
        _, prop, bset, state = random_model(rng, 4, 2)
        field = bs.VelocityField(bset, prop)
        lam0 = bs.sample_initial(state, bset, 3)
        traj = bs.integrate_trajectory(field, state, lam0, t_final=3.0, output_dt=0.05)
        if traj.status is bs.TrajectoryStatus.COMPLETED:
            steps = np.abs(np.diff(traj.lambdas, axis=0))
            assert np.max(steps) < 0.5  # no teleporting between samples

    def test_step_underflow_raises(self, rabi, monkeypatch):
        # a right-hand side the error control can never satisfy must surface
        # as a numeric error instead of spinning forever
        import beable_sim.dynamics as dyn

        def hopeless_step(field, vals, cells, t, y, h):
            return list(y), [1e6] * len(y), [0.0] * len(y)

        monkeypatch.setattr(dyn, "_float_step", hopeless_step)
        from beable_sim.errors import NumericError
        with pytest.raises(NumericError, match="underflow"):
            bs.integrate_trajectory(rabi.field, rabi.state0, [1.2],
                                    t_final=1.0, output_dt=0.5)

    def test_output_dt_must_be_positive(self, rabi):
        with pytest.raises(InputError):
            bs.integrate_trajectory(rabi.field, rabi.state0, [1.2],
                                    t_final=1.0, output_dt=0.0)

    def test_a_grid_longer_than_the_step_limit_is_refused(self):
        # MAX_STEPS + 1 samples can finish, one more cannot, either way in time
        assert _output_grid(0.0, 0.5 * MAX_STEPS, 0.5).size == MAX_STEPS + 1
        for t_final in (0.5 * MAX_STEPS + 0.5, -0.5 * MAX_STEPS - 0.5, 1e300):
            with pytest.raises(InputError, match="t_final .* output_dt"):
                _output_grid(0.0, t_final, 0.5)


class TestContinuityEquation:
    def test_random_systems(self, rng):
        # the central consistency requirement: dP/dt = -div J
        total = 0
        for dim, n_b in [(4, 1), (6, 2), (8, 3)]:
            _, prop, bset, state = random_model(rng, dim, n_b)
            field = bs.VelocityField(bset, prop)
            checked = 0
            tries = 0
            while checked < 34 and tries < 2000:
                tries += 1
                t = rng.uniform(0.0, 3.0)
                st = bs.evolve(state, prop, t)
                lam = np.array([rng.uniform(-0.5, b.n_cells - 0.5) for b in bset])
                resid = bs.continuity_residual(field, st, lam, h=1e-5)
                if resid is None:
                    continue
                checked += 1
                h = 1e-5
                s_p = bs.evolve(st, prop, h)
                s_m = bs.evolve(st, prop, -h)
                cells = [bs.cell_index(b, x) for b, x in zip(bset, lam)]
                dpdt = (bs.quantum_probability(s_p, bset, cells)
                        - bs.quantum_probability(s_m, bset, cells)) / (2 * h)
                assert resid <= 1e-6 * max(1.0, abs(dpdt))
            total += checked
        assert total >= 100


# values whose sums coincide across beables: 0.37 + 3.76 == 1.5 + 2.63, the
# accidental degeneracy that breaks a basis taken from one linear combination
ACCIDENTAL_VALUES = ((0.37, 1.5), (3.76, 2.63))

model_specs = st.tuples(
    st.integers(0, 2**32 - 1),                          # numpy seed
    st.integers(2, 12),                                 # dimension
    st.lists(st.integers(1, 4), min_size=1, max_size=4),  # cells per beable
    st.booleans(),                                      # accidental-sum values
)


def commuting_model(spec):
    """A random commuting set with random degeneracies, cell orderings and a
    random common eigenbasis, plus a random Hamiltonian and state."""
    seed, dim, counts, accidental = spec
    rng = np.random.default_rng(seed)
    shared = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    beables = []
    for ell, k in enumerate(counts):
        k = min(k, dim)
        if accidental and ell < 2 and len(counts) >= 2:
            k, values = 2, np.array(ACCIDENTAL_VALUES[ell])
        else:
            values = np.cumsum(rng.uniform(0.2, 1.5, size=k))
        cell_of = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, dim - k)]))
        mat = (shared * values[cell_of]) @ shared.conj().T
        beables.append(bs.from_hermitian(
            bs.Operator((mat + mat.conj().T) / 2, hermitian=True),
            ordering=tuple(rng.permutation(k)), label=f"b{ell}"))
    bset = bs.validate_commuting_set(beables)
    prop = bs.diagonalize(random_hermitian(rng, dim))
    return rng, bset, prop, random_state(rng, dim)


class TestJointBasisProperties:
    """The joint-eigenbasis production path against the projector-chain and
    brute-force ordering-sum references."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(model_specs)
    @example((7, 4, [2, 2], True))
    def test_distribution_matches_projector_chain(self, spec):
        _, bset, _, state = commuting_model(spec)
        tuples, probs = bs.quantum_distribution(state, bset)
        ref = [bs.quantum_probability(state, bset, c) for c in tuples]
        np.testing.assert_allclose(probs, ref, rtol=0.0, atol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(model_specs, st.sampled_from(list(Symmetrization)))
    @example((7, 4, [2, 2], True), Symmetrization.SYMMETRIC_AVERAGE)
    def test_currents_match_ordering_sum(self, spec, symmetrization):
        rng, bset, prop, state = commuting_model(spec)
        field = bs.VelocityField(bset, prop, symmetrization)
        coeff = field.state_coefficients(state)
        tuples = bs.all_cell_tuples(bset)
        for _ in range(3):
            cells = tuples[rng.integers(len(tuples))]
            lam = np.array(cells) + rng.uniform(-0.5, 0.5, size=len(bset))
            got = field.currents(coeff, lam, cells)
            ref = [bs.symmetrized_current(state, bset, ell, lam, prop, symmetrization)
                   for ell in range(len(bset))]
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-10)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(model_specs, st.sampled_from(list(Symmetrization)))
    def test_current_vanishes_at_domain_ends(self, spec, symmetrization):
        rng, bset, prop, state = commuting_model(spec)
        field = bs.VelocityField(bset, prop, symmetrization)
        coeff = field.state_coefficients(state)
        cells = bs.all_cell_tuples(bset)[0]
        for ell, b in enumerate(bset):
            for n, edge in ((0, -0.5), (b.n_cells - 1, b.n_cells - 0.5)):
                tup = cells[:ell] + (n,) + cells[ell + 1:]
                lam = np.array(tup, dtype=float)
                lam[ell] = edge
                assert abs(field.currents(coeff, lam, tup)[ell]) <= 1e-12
