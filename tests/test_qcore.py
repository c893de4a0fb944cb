import numpy as np
import pytest

from qent import qcore

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_density(n, rng, rank=None):
    """Random mixed state: normalized A A^dagger with Gaussian A."""
    dim = 1 << n
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def partial_trace_oracle(rho, traced, n):
    """Direct summation over the traced qubits' basis, bit by bit."""
    traced = sorted(traced)
    kept = [q for q in range(n) if q not in traced]
    dim_out = 1 << len(kept)
    out = np.zeros((dim_out, dim_out), dtype=complex)
    for i in range(dim_out):
        for j in range(dim_out):
            acc = 0.0 + 0.0j
            for k in range(1 << len(traced)):
                r = c = 0
                for pos, q in enumerate(kept):
                    r |= ((i >> pos) & 1) << q
                    c |= ((j >> pos) & 1) << q
                for pos, q in enumerate(traced):
                    bit = (k >> pos) & 1
                    r |= bit << q
                    c |= bit << q
                acc += rho[r, c]
            out[i, j] = acc
    return out


class TestKron:
    """kron_all on two factors: the left factor occupies the more significant bits."""

    def test_identity(self):
        assert np.array_equal(qcore.kron_all([np.eye(2), np.eye(2)]), np.eye(4))

    def test_x_on_high_qubit(self):
        # left factor acts on the more significant bit: |00> -> |10>
        v = np.zeros(4, dtype=complex)
        v[0] = 1
        assert np.allclose(qcore.kron_all([X, np.eye(2)]) @ v, [0, 0, 1, 0])

    def test_diagonal_expansion(self):
        got = qcore.kron_all([np.diag([1, 2]), np.diag([3, 4])])
        assert np.allclose(got, np.diag([3, 4, 6, 8]))

    def test_associative(self):
        rng = np.random.default_rng(1)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        left = qcore.kron_all([qcore.kron_all([a, b]), c])
        right = qcore.kron_all([a, qcore.kron_all([b, c])])
        assert np.max(np.abs(left - right)) < 1e-12

    def test_kron_all_order(self):
        got = qcore.kron_all([np.diag([1, 2]), np.diag([1, 1]), np.diag([1, 3])])
        assert np.allclose(got, np.diag([1, 3, 1, 3, 2, 6, 2, 6]))


class TestPartialTrace:
    def test_product_state_reduces(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1  # |00><00|
        assert np.allclose(qcore.partial_trace(rho, [1]), [[1, 0], [0, 0]])

    def test_bell_marginal_is_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        assert np.allclose(qcore.partial_trace(rho, [1]), np.eye(2) / 2)

    def test_kron_factor_recovery(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            rho_a = random_density(1, rng)
            rho_b = random_density(1, rng)
            got = qcore.partial_trace(qcore.kron_all([rho_b, rho_a]), [1])
            assert np.max(np.abs(got - rho_a)) < 1e-10

    @pytest.mark.parametrize("n,traced", [(2, [0]), (3, [1]), (3, [0, 2]), (4, [1, 3])])
    def test_matches_direct_summation(self, n, traced):
        rng = np.random.default_rng(n * 10 + len(traced))
        for _ in range(5):
            rho = random_density(n, rng)
            got = qcore.partial_trace(rho, traced)
            want = partial_trace_oracle(rho, traced, n)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(3)
        rho = random_density(3, rng)
        red = qcore.partial_trace(rho, [0, 2])
        assert abs(np.trace(red) - 1) < 1e-12
        assert np.max(np.abs(red - red.conj().T)) < 1e-12

    def test_rejects_empty_and_full_sets(self):
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError):
            qcore.partial_trace(rho, [])
        with pytest.raises(ValueError):
            qcore.partial_trace(rho, [0, 1])


class TestHermitianEigenvalues:
    def test_diagonal_sorted_ascending(self):
        assert np.allclose(qcore.hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_pauli_x_spectrum(self):
        # characteristic polynomial by hand: lambda^2 - 1 = 0
        assert np.allclose(qcore.hermitian_eigenvalues(X), [-1, 1])

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4, 5):
            rho = random_density(n, rng)
            evs = qcore.hermitian_eigenvalues(rho)
            assert len(evs) == 1 << n
            assert abs(evs.sum() - np.trace(rho).real) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            qcore.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_stack_bit_equal_to_single_calls(self):
        rng = np.random.default_rng(6)
        for n in (3, 5):
            stack = np.stack([random_density(n, rng) for _ in range(4)])
            want = np.stack([qcore.hermitian_eigenvalues(m) for m in stack])
            assert np.array_equal(qcore.hermitian_eigenvalues(stack), want)

    def test_stack_rejects_one_non_hermitian(self):
        rng = np.random.default_rng(7)
        stack = np.stack([random_density(2, rng) for _ in range(3)])
        stack[1, 0, 3] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            qcore.hermitian_eigenvalues(stack)
        with pytest.raises(ValueError):
            qcore.hermitian_eigenvalues(np.zeros((3, 4, 2), dtype=complex))


class TestPermuteQubits:
    def test_identity(self):
        rng = np.random.default_rng(5)
        rho = random_density(3, rng)
        assert np.array_equal(qcore.permute_qubits(rho, [0, 1, 2]), rho)

    def test_swap_basis_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1  # |01><01|, qubit 0 set
        got = qcore.permute_qubits(rho, [1, 0])
        want = np.zeros((4, 4), dtype=complex)
        want[2, 2] = 1  # |10><10|
        assert np.array_equal(got, want)

    def test_spectrum_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            rho = random_density(n, rng)
            perm = rng.permutation(n)
            before = qcore.hermitian_eigenvalues(rho)
            after = qcore.hermitian_eigenvalues(qcore.permute_qubits(rho, perm))
            assert np.max(np.abs(before - after)) < 1e-10

    def test_group_action_composition(self):
        rng = np.random.default_rng(7)
        rho = random_density(3, rng)
        sigma = [1, 2, 0]
        tau = [2, 0, 1]
        composed = [tau[sigma[q]] for q in range(3)]
        via_two = qcore.permute_qubits(qcore.permute_qubits(rho, sigma), tau)
        direct = qcore.permute_qubits(rho, composed)
        assert np.max(np.abs(via_two - direct)) < 1e-14

    def test_rejects_non_bijection(self):
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError):
            qcore.permute_qubits(rho, [0, 0])

    def test_channel_stack_keeps_dtype(self):
        rng = np.random.default_rng(8)
        rhos = np.stack([random_density(3, rng) for _ in range(3)])
        x = np.stack([rhos.real, rhos.imag], axis=1)  # [B, 2, K, K] float64
        perm = [2, 0, 1]
        out = qcore.permute_qubits(x, perm)
        assert out.dtype == np.float64 and out.shape == x.shape
        for i in range(3):
            for c in range(2):
                assert np.array_equal(out[i, c], qcore.permute_qubits(x[i, c], perm))
            want = qcore.permute_qubits(rhos[i], perm)
            assert np.array_equal(out[i, 0] + 1j * out[i, 1], want)


class TestValidation:
    def test_density_matrix_checks(self):
        rng = np.random.default_rng(8)
        qcore.validate_density_matrix(random_density(3, rng))
        with pytest.raises(ValueError):
            qcore.validate_density_matrix(np.eye(4, dtype=complex))  # trace 4
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            qcore.validate_density_matrix(bad)

    @pytest.mark.parametrize(
        "bad,match",
        [
            (np.eye(8, dtype=complex), "trace"),
            (np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex), "negative eigenvalue"),
            (np.eye(8) / 8 + 0.01 * np.triu(np.ones((8, 8)), 1), "Hermitian"),
            (np.full((8, 8), np.nan), "non-finite"),
        ],
    )
    def test_stack_rejects_any_bad_matrix(self, bad, match):
        rng = np.random.default_rng(9)
        stack = np.stack([random_density(3, rng) for _ in range(4)])
        qcore.validate_density_matrix(stack)
        qcore.validate_density_matrix(stack[:0])
        stack[2] = bad
        with pytest.raises(ValueError, match=match):
            qcore.validate_density_matrix(stack)
