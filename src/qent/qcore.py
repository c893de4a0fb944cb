"""Complex linear-algebra substrate for small qubit registers.

Conventions used across the whole package:

* States live in a ``2**n``-dimensional Hilbert space, stored as dense
  ``complex128`` numpy arrays (vectors of length ``2**n``, matrices of shape
  ``(2**n, 2**n)``).
* Qubit 0 is the least-significant bit of the computational-basis index,
  so basis index ``b`` encodes the register as ``(b_{n-1} ... b_1 b_0)``.
* Tolerances below account for rounding accumulated through Kronecker and
  eigendecomposition chains; exact-zero checks are deliberately avoided.
"""

import numpy as np

# Validation tolerances (matrices are at most 32 x 32 here).
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_SLACK = 1e-9
# Looser Hermiticity bound accepted by the eigensolver entry point.
EIG_HERMITICITY_ATOL = 1e-9


def num_qubits(dim: int) -> int:
    """Number of qubits for a Hilbert-space dimension, validating 2**n."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor occupies the more significant bits."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence, left-to-right (first factor = MSB)."""
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def partial_trace(rho: np.ndarray, traced_qubits) -> np.ndarray:
    """Trace out a set of qubits from a density matrix.

    The surviving qubits keep their relative order and are re-indexed
    compactly (survivor with the k-th smallest index becomes qubit k).
    Trace and Hermiticity are preserved.
    """
    rho = np.asarray(rho, dtype=complex)
    n = num_qubits(rho.shape[0])
    traced = sorted(set(int(q) for q in traced_qubits))
    if not traced:
        raise ValueError("traced qubit set is empty")
    if any(q < 0 or q >= n for q in traced):
        raise ValueError(f"traced qubits {traced} out of range for {n} qubits")
    if len(traced) == n:
        raise ValueError("cannot trace out every qubit")

    # Axis k of the reshaped tensor corresponds to qubit n-1-k (row block)
    # and axis n+k to the same qubit on the column side.
    t = rho.reshape([2] * (2 * n))
    row_sub = [0] * n
    col_sub = [0] * n
    next_sym = 0
    for axis in range(n):
        q = n - 1 - axis
        if q in traced:
            row_sub[axis] = next_sym
            col_sub[axis] = next_sym
            next_sym += 1
        else:
            row_sub[axis] = next_sym
            col_sub[axis] = next_sym + 1
            next_sym += 2
    out_sub = [row_sub[ax] for ax in range(n) if (n - 1 - ax) not in traced]
    out_sub += [col_sub[ax] for ax in range(n) if (n - 1 - ax) not in traced]
    reduced = np.einsum(t, row_sub + col_sub, out_sub)
    dim = 1 << (n - len(traced))
    return reduced.reshape(dim, dim)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, or of a ``[..., K, K]`` stack, ascending.

    A stack is diagonalized in one call (one eigenvalue row per matrix).
    Raises ValueError when any matrix deviates from Hermiticity by more than
    ``EIG_HERMITICITY_ATOL`` in max-norm.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1] or m.size == 0:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    if np.max(np.abs(m - np.swapaxes(m, -1, -2).conj())) > EIG_HERMITICITY_ATOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)


def permute_qubits(rho: np.ndarray, perm) -> np.ndarray:
    """Relabel qubits of a matrix or a ``[..., K, K]`` stack: qubit q moves to perm[q].

    Both row and column basis indices are re-bitted, so the spectrum is
    unchanged.  The input dtype is kept, so real channel stacks stay real.
    ``perm`` must be a bijection on ``range(n)``.
    """
    rho = np.asarray(rho)
    n = num_qubits(rho.shape[-1])
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    idx = np.arange(1 << n)
    new_idx = np.zeros_like(idx)
    for q in range(n):
        new_idx |= ((idx >> q) & 1) << perm[q]
    out = np.empty_like(rho)
    out[..., new_idx[:, None], new_idx[None, :]] = rho
    return out


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and PSD (with slack).

    A ``[..., K, K]`` stack is checked matrix by matrix in one pass.
    """
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-2] != rho.shape[-1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    num_qubits(rho.shape[-1])
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    if np.max(np.abs(rho - np.swapaxes(rho, -1, -2).conj()), initial=0.0) > HERMITICITY_ATOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    bad = (np.abs(tr.imag) > TRACE_ATOL) | (np.abs(tr.real - 1.0) > TRACE_ATOL)
    if np.any(bad):
        raise ValueError(f"density matrix trace {complex(tr[bad].flat[0])} != 1")
    if np.any(np.linalg.eigvalsh(rho)[..., 0] < -PSD_SLACK):
        raise ValueError("density matrix has a negative eigenvalue beyond slack")
