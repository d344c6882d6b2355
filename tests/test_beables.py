import numpy as np
import pytest

import beable_sim as bs
from beable_sim.errors import InputError, NumericError

from conftest import I2, SX, SZ, random_hermitian


def sz_beable():
    return bs.from_hermitian(bs.Operator(SZ, hermitian=True), label="sz")


class TestFromHermitian:
    def test_pauli_z(self):
        b = sz_beable()
        assert b.n_cells == 2
        assert np.allclose(b.eigenvalues, [-1.0, 1.0])
        assert np.allclose(b.projectors[0].entries, np.diag([0.0, 1.0]))
        assert np.allclose(b.projectors[1].entries, np.diag([1.0, 0.0]))

    def test_identity_is_one_cell(self):
        b = bs.from_hermitian(bs.identity(3))
        assert b.n_cells == 1
        assert np.allclose(b.projectors[0].entries, np.eye(3))

    def test_tensor_degeneracy(self):
        # sigma_z (x) I on two qubits: two cells, each projector rank 2
        xi = bs.Operator(np.kron(SZ, I2), hermitian=True)
        b = bs.from_hermitian(xi)
        assert b.n_cells == 2
        for p in b.projectors:
            assert np.trace(p.entries).real == pytest.approx(2.0)
        assert np.allclose(b.matrix.entries, xi.entries, atol=1e-12)

    def test_requires_hermitian(self):
        with pytest.raises(InputError):
            bs.from_hermitian(bs.Operator(SZ))

    def test_bad_ordering_rejected(self):
        with pytest.raises(InputError):
            bs.from_hermitian(bs.Operator(SZ, hermitian=True), ordering=[0, 2])
        with pytest.raises(InputError):
            bs.from_hermitian(bs.Operator(SZ, hermitian=True), ordering=[0, 0])

    def test_reordering_is_coherent(self, rng):
        xi = random_hermitian(rng, 5)
        asc = bs.from_hermitian(xi)
        perm = tuple(rng.permutation(asc.n_cells))
        shuffled = bs.from_hermitian(xi, ordering=perm)
        for spectral, cell in enumerate(perm):
            assert shuffled.eigenvalues[cell] == pytest.approx(asc.eigenvalues[spectral])
            assert np.allclose(shuffled.projectors[cell].entries,
                               asc.projectors[spectral].entries, atol=1e-12)
            # the physical value in the relabeled cell is unchanged
            assert bs.eigenvalue_at(shuffled, float(cell)) == pytest.approx(
                bs.eigenvalue_at(asc, float(spectral)))

    def test_projector_invariants_random(self, rng):
        for dim in (2, 5, 12):
            for _ in range(4):
                b = bs.from_hermitian(random_hermitian(rng, dim))
                total = sum(p.entries for p in b.projectors)
                assert np.max(np.abs(total - np.eye(dim))) <= 1e-10
                for i in range(b.n_cells):
                    for j in range(i + 1, b.n_cells):
                        prod = b.projectors[i].entries @ b.projectors[j].entries
                        assert np.max(np.abs(prod)) <= 1e-10
                recon = sum(e * p.entries
                            for e, p in zip(b.eigenvalues, b.projectors))
                assert np.max(np.abs(recon - b.matrix.entries)) <= 1e-9

    def test_stacked_projectors_are_built_once_read_only_and_shared(self, rng):
        b = bs.from_hermitian(random_hermitian(rng, 5))
        np.testing.assert_array_equal(
            b.stacked_projectors, np.concatenate([p.entries for p in b.projectors]))
        with pytest.raises(ValueError, match="read-only"):
            b.stacked_projectors[0, 0] = 1.0
        for p in b.projectors:
            assert p.entries.base is b.stacked_projectors


class TestCommutingSet:
    def test_disjoint_tensor_factors(self):
        a = bs.from_hermitian(bs.Operator(np.kron(SZ, I2), hermitian=True), label="a")
        b = bs.from_hermitian(bs.Operator(np.kron(I2, SZ), hermitian=True), label="b")
        s = bs.validate_commuting_set([a, b])
        assert s.cell_counts == (2, 2)

    def test_non_commuting_pair_named(self):
        a = bs.from_hermitian(bs.Operator(SZ, hermitian=True), label="sz")
        b = bs.from_hermitian(bs.Operator(SX, hermitian=True), label="sx")
        with pytest.raises(InputError, match="'sz'.*'sx'.*do not commute"):
            bs.validate_commuting_set([a, b])

    def test_duplicates_allowed(self):
        b = sz_beable()
        assert len(bs.validate_commuting_set([b, b])) == 2

    def test_mixed_dimension_rejected(self):
        with pytest.raises(InputError):
            bs.validate_commuting_set([sz_beable(), bs.from_hermitian(bs.identity(3))])


class TestCellIndex:
    @pytest.mark.parametrize("lam,expected", [
        (0.49, 0),    # nearest integer
        (0.5, 1),     # exact half rounds up
        (-0.3, 0),
        (-0.5, 0),
        (1.49, 1),
        (1.5, 1),     # closed top boundary belongs to the top cell
    ])
    def test_values(self, lam, expected):
        assert bs.cell_index(sz_beable(), lam) == expected

    @pytest.mark.parametrize("lam", [-0.51, 1.51, 7.0])
    def test_out_of_range(self, lam):
        with pytest.raises(NumericError):
            bs.cell_index(sz_beable(), lam)


class TestEigenvalueAt:
    def test_cells(self):
        b = sz_beable()
        assert bs.eigenvalue_at(b, 0.2) == -1.0
        assert bs.eigenvalue_at(b, 1.2) == 1.0

    def test_single_cell(self):
        b = bs.from_hermitian(bs.Operator(2.5 * np.eye(2), hermitian=True))
        for lam in (-0.5, -0.1, 0.3, 0.5):
            assert bs.eigenvalue_at(b, lam) == pytest.approx(2.5)

    def test_piecewise_constant(self):
        b = sz_beable()
        assert bs.eigenvalue_at(b, -0.49) == bs.eigenvalue_at(b, 0.49)


class TestLowerProjector:
    def test_bottom_is_zero(self):
        assert np.max(np.abs(bs.lower_projector(sz_beable(), -0.5).entries)) == 0.0

    def test_top_is_identity(self):
        l_top = bs.lower_projector(sz_beable(), 1.5)
        assert np.allclose(l_top.entries, np.eye(2))

    def test_half_filled_upper_cell(self):
        # L(1.0) = P(0) + (1/2) P(1) by direct substitution
        b = sz_beable()
        expected = b.projectors[0].entries + 0.5 * b.projectors[1].entries
        assert np.allclose(bs.lower_projector(b, 1.0).entries, expected)

    def test_continuous_at_boundary(self, rng):
        b = bs.from_hermitian(random_hermitian(rng, 6))
        for n in range(b.n_cells - 1):
            edge = n + 0.5
            below = bs.lower_projector(b, edge - 1e-13).entries
            at = bs.lower_projector(b, edge).entries
            assert np.max(np.abs(at - below)) <= 1e-12

    def test_complement_is_identity(self, rng):
        # G is never stored; identity - L must hold at any lambda
        b = bs.from_hermitian(random_hermitian(rng, 7))
        for lam in rng.uniform(-0.5, b.n_cells - 0.5, size=100):
            l_mat = bs.lower_projector(b, lam).entries
            g_mat = np.eye(b.dim) - l_mat
            assert np.max(np.abs(l_mat + g_mat - np.eye(b.dim))) == 0.0
            # weighted projector sums stay positive semidefinite
            assert np.linalg.eigvalsh(l_mat).min() >= -1e-12
            assert np.linalg.eigvalsh(g_mat).min() >= -1e-12


class TestCurrentOperator:
    def test_vanishes_at_domain_ends(self, rng):
        h = random_hermitian(rng, 6)
        prop = bs.diagonalize(h)
        b = bs.from_hermitian(random_hermitian(rng, 6))
        for lam in (-0.5, b.n_cells - 0.5):
            j = bs.current_operator(b, lam, prop)
            assert np.max(np.abs(j.entries)) <= 1e-12 * max(1.0, np.max(np.abs(h.entries)))

    def test_rabi_sigma_y(self, rabi):
        # J(0.5) = -(1/i)[P(0), H] = (omega/2) sigma_y, hand-checked
        j = bs.current_operator(rabi.beable, 0.5, rabi.propagator)
        sy = np.array([[0, -1j], [1j, 0]])
        assert np.allclose(j.entries, 0.5 * rabi.omega * sy, atol=1e-14)

    def test_conserved_beable_has_zero_current(self, rng):
        # beable commuting with H: spectral projectors of H itself
        h = random_hermitian(rng, 5)
        prop = bs.diagonalize(h)
        b = bs.from_hermitian(h)
        for lam in rng.uniform(-0.5, b.n_cells - 0.5, size=20):
            j = bs.current_operator(b, lam, prop)
            assert np.max(np.abs(j.entries)) <= 1e-12 * max(1.0, np.max(np.abs(h.entries)))

    def test_divergence_identity(self, rng):
        # dJ/dlambda -> -(1/i)[P(n), H] within each cell
        h = random_hermitian(rng, 6)
        prop = bs.diagonalize(h)
        b = bs.from_hermitian(random_hermitian(rng, 6))
        dlam = 1e-6
        for n in range(b.n_cells):
            lam = n - 0.2
            diff = (bs.current_operator(b, lam + dlam, prop).entries
                    - bs.current_operator(b, lam, prop).entries) / dlam
            expected = 1j * (b.projectors[n].entries @ h.entries
                             - h.entries @ b.projectors[n].entries)
            assert np.max(np.abs(diff - expected)) <= 1e-8

    def test_affine_within_cell(self, rng):
        h = random_hermitian(rng, 4)
        prop = bs.diagonalize(h)
        b = bs.from_hermitian(random_hermitian(rng, 4))
        j0 = bs.current_operator(b, 0.1, prop).entries
        j1 = bs.current_operator(b, 0.2, prop).entries
        j2 = bs.current_operator(b, 0.4, prop).entries
        assert np.max(np.abs((j1 - j0) / 0.1 - (j2 - j1) / 0.2)) <= 1e-9


class TestLambdaConfig:
    def test_range_enforced(self):
        s = bs.validate_commuting_set([sz_beable()])
        bs.LambdaConfig([1.2], s)
        with pytest.raises(InputError):
            bs.LambdaConfig([1.5], s)  # half-open top
        with pytest.raises(InputError):
            bs.LambdaConfig([-0.6], s)

    def test_length_enforced(self):
        s = bs.validate_commuting_set([sz_beable()])
        with pytest.raises(InputError):
            bs.LambdaConfig([0.1, 0.2], s)
