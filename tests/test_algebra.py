import numpy as np
import pytest

from conftest import choi_of_unitary, process_fidelity
from qugray import algebra
from qugray.errors import ContractViolationError, InvalidDimensionError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestGellMann:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_count_traceless_orthogonal(self, d):
        basis = algebra.gell_mann_basis(d)
        assert len(basis) == d * d - 1
        for A in basis.elements:
            assert abs(np.trace(A)) <= 1e-12
            assert np.abs(A - A.conj().T).max() <= 1e-12
        gram = np.array([[np.trace(A @ B) for B in basis.elements]
                         for A in basis.elements])
        assert np.abs(gram - 2.0 * np.eye(d * d - 1)).max() <= 1e-10

    def test_d2_is_pauli_set(self):
        basis = algebra.gell_mann_basis(2)
        np.testing.assert_allclose(basis.elements[0], PAULI_X, atol=1e-15)
        np.testing.assert_allclose(basis.elements[1], PAULI_Y, atol=1e-15)
        np.testing.assert_allclose(basis.elements[2], PAULI_Z, atol=1e-15)

    def test_d3_diagonal_l2(self):
        basis = algebra.gell_mann_basis(3)
        expected = np.sqrt(1.0 / 3.0) * np.diag([1.0, 1.0, -2.0])
        np.testing.assert_allclose(basis.elements[-1], expected, atol=1e-15)

    def test_ordering_symmetric_antisymmetric_diagonal(self):
        basis = algebra.gell_mann_basis(3)
        # first block symmetric (real), then antisymmetric (imaginary)
        for A in basis.elements[:3]:
            assert np.abs(A.imag).max() == 0.0
        for A in basis.elements[3:6]:
            assert np.abs(A.real).max() == 0.0
        for A in basis.elements[6:]:
            assert np.abs(A - np.diag(np.diag(A))).max() == 0.0

    def test_eigensystems(self):
        basis = algebra.gell_mann_basis(3)
        for A, evals, evecs in zip(basis.elements, basis.eigenvalues,
                                   basis.eigenvectors):
            np.testing.assert_allclose(A @ evecs, evecs * evals, atol=1e-12)
            np.testing.assert_allclose(evecs.conj().T @ evecs, np.eye(3),
                                       atol=1e-12)

    def test_phase_convention(self):
        basis = algebra.gell_mann_basis(4)
        for evecs in basis.eigenvectors:
            for col in evecs.T:
                lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
                assert abs(lead.imag) <= 1e-12 and lead.real > 0

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimensionError):
            algebra.gell_mann_basis(1)

    def test_expand_roundtrip(self):
        basis = algebra.gell_mann_basis(3)
        rng = np.random.default_rng(0)
        coeff = rng.normal(size=8)
        H = sum(c * A for c, A in zip(coeff, basis.elements))
        np.testing.assert_allclose(basis.expand(H), coeff, atol=1e-12)


class TestClockShift:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_relations_exact(self, d):
        shift, clock, _, _ = algebra.clock_shift_basis(d)
        omega = np.exp(2j * np.pi / d)
        assert np.abs(shift @ clock - omega * clock @ shift).max() <= 1e-12
        assert np.abs(np.linalg.matrix_power(shift, d) - np.eye(d)).max() <= 1e-12
        assert np.abs(np.linalg.matrix_power(clock, d) - np.eye(d)).max() <= 1e-12

    def test_d2_matrices(self):
        shift, clock, gates, _ = algebra.clock_shift_basis(2)
        np.testing.assert_allclose(shift, PAULI_X, atol=1e-15)
        np.testing.assert_allclose(clock, PAULI_Z, atol=1e-15)
        np.testing.assert_allclose(gates[1][1], PAULI_X @ PAULI_Z, atol=1e-15)

    def test_identity_element(self):
        _, _, gates, herm = algebra.clock_shift_basis(3)
        np.testing.assert_allclose(gates[0][0], np.eye(3), atol=1e-15)
        np.testing.assert_allclose(herm[0], np.eye(3), atol=1e-15)
        np.testing.assert_allclose(herm[1], np.zeros((3, 3)), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_hermitianization_reconstructs(self, d):
        _, _, gates, herm = algebra.clock_shift_basis(d)
        assert len(herm) == 2 * d * d
        for j in range(d):
            for k in range(d):
                H = herm[2 * (j * d + k)]
                A = herm[2 * (j * d + k) + 1]
                assert np.abs(H - H.conj().T).max() <= 1e-12
                assert np.abs(A - A.conj().T).max() <= 1e-12
                np.testing.assert_allclose(H + 1j * A, gates[j][k], atol=1e-14)


class TestExpmSkew:
    def test_zero_generator(self):
        np.testing.assert_allclose(
            algebra.expm_skew(np.zeros((3, 3)), 0.7), np.eye(3), atol=1e-15)

    def test_pauli_x_half_pi(self):
        U = algebra.expm_skew(PAULI_X, np.pi / 2)
        np.testing.assert_allclose(U, -1j * PAULI_X, atol=1e-14)

    def test_against_eigendecomposition_oracle(self):
        rng = np.random.default_rng(3)
        H = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        H = H + H.conj().T
        dt = 0.37
        evals, evecs = np.linalg.eigh(H)
        oracle = evecs @ np.diag(np.exp(-1j * evals * dt)) @ evecs.conj().T
        U = algebra.expm_skew(H, dt)
        np.testing.assert_allclose(U, oracle, atol=1e-12)
        assert np.linalg.norm(U @ algebra.expm_skew(H, -dt) - np.eye(3)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_unitarity_and_additivity(self, seed):
        rng = np.random.default_rng(seed)
        H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = H + H.conj().T
        a, b = rng.uniform(0.1, 1.0, size=2)
        Ua, Ub = algebra.expm_skew(H, a), algebra.expm_skew(H, b)
        assert np.linalg.norm(Ua.conj().T @ Ua - np.eye(4)) <= 1e-10
        np.testing.assert_allclose(Ua @ Ub, algebra.expm_skew(H, a + b),
                                   atol=1e-9)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ContractViolationError):
            algebra.expm_skew(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)


class TestEmbedTwoLevel:
    def test_x_block(self):
        out = algebra.embed_two_level(PAULI_X, 0, 1, 3)
        expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_identity(self):
        np.testing.assert_allclose(
            algebra.embed_two_level(np.eye(2), 0, 2, 3), np.eye(3), atol=1e-15)

    def test_hadamard_02(self):
        H2 = (PAULI_X + PAULI_Z) / np.sqrt(2)
        out = algebra.embed_two_level(H2, 0, 2, 3)
        assert abs(out[1, 1] - 1.0) <= 1e-15
        assert np.abs(out[1, [0, 2]]).max() == 0.0
        assert np.abs(out[[0, 2], 1]).max() == 0.0
        np.testing.assert_allclose(out[np.ix_([0, 2], [0, 2])], H2, atol=1e-15)
        assert np.linalg.norm(out.conj().T @ out - np.eye(3)) <= 1e-12

    def test_index_errors(self):
        with pytest.raises(InvalidDimensionError):
            algebra.embed_two_level(PAULI_X, 1, 1, 3)
        with pytest.raises(InvalidDimensionError):
            algebra.embed_two_level(PAULI_X, 0, 3, 3)


class TestChoiAndFidelity:
    def test_choi_identity_is_bell_projector(self):
        J = choi_of_unitary(np.eye(2))
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / np.sqrt(2)
        np.testing.assert_allclose(J, np.outer(bell, bell.conj()), atol=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_choi_trace_and_rank(self, seed):
        rng = np.random.default_rng(seed)
        H = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        U = algebra.expm_skew(H + H.conj().T, 0.9)
        J = choi_of_unitary(U)
        assert abs(np.trace(J) - 1.0) <= 1e-12
        evals = np.linalg.eigvalsh(J)
        assert (evals > 1e-10).sum() == 1  # rank one for a unitary channel

    def test_identical_channels(self):
        J = choi_of_unitary(algebra.expm_skew(PAULI_Y, 0.4))
        assert abs(process_fidelity(J, J) - 1.0) <= 1e-12

    def test_orthogonal_channels(self):
        JI = choi_of_unitary(np.eye(2))
        JX = choi_of_unitary(PAULI_X)
        assert process_fidelity(JI, JX) <= 1e-12

    @pytest.mark.parametrize("theta", [0.3, 1.2, 2.5])
    def test_z_rotation_closed_form(self, theta):
        # rank-1 Choi overlap: F = |tr(Rz)| / d = |cos(theta/2)|
        JI = choi_of_unitary(np.eye(2))
        Rz = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        F = process_fidelity(JI, choi_of_unitary(Rz))
        assert abs(F - abs(np.cos(theta / 2))) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        mats = []
        for _ in range(2):
            H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            mats.append(choi_of_unitary(
                algebra.expm_skew(H + H.conj().T, 0.6)))
        a = process_fidelity(mats[0], mats[1])
        b = process_fidelity(mats[1], mats[0])
        assert abs(a - b) <= 1e-10

    def test_bad_trace_rejected(self):
        J = choi_of_unitary(np.eye(2))
        with pytest.raises(ContractViolationError):
            process_fidelity(J, 1.01 * J)
