"""Bipartite entanglement machinery.

Bipartitions, partial transpose, negativity, the labeling strategies built
on them, and three families of states that stay positive under partial
transposition while being entangled (the cases negativity cannot certify).

A bipartition of n qubits is canonically encoded by the bitmask of its B
side; qubit 0 is pinned to side A, so masks are the even numbers in
``[2, 2**n - 2]`` and the canonical (1-based) index is ``mask >> 1``.
Label arrays are indexed by ``index - 1``.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import hermitian_eigenvalues, num_qubits
from .stategen import randomize_local

# Eigenvalues of a partial transpose below -NPT_THRESHOLD count as genuinely
# negative; anything closer to zero is eigensolver noise at 32x32 scale.
NPT_THRESHOLD = 1e-7


@dataclass(frozen=True)
class Bipartition:
    """A|B split of a qubit register, addressed by the side-B bitmask."""

    num_qubits: int
    side_b_mask: int

    def __post_init__(self):
        n, mask = self.num_qubits, self.side_b_mask
        if n < 2:
            raise ValueError("bipartitions need at least 2 qubits")
        if mask <= 0 or mask >= (1 << n) or (mask & 1):
            raise ValueError(
                f"side-B mask {mask:#b} invalid for {n} qubits (qubit 0 stays in A)"
            )

    @property
    def index(self) -> int:
        """Canonical 1-based index; label arrays use ``index - 1``."""
        return self.side_b_mask >> 1

    @property
    def side_b(self) -> tuple:
        return tuple(q for q in range(self.num_qubits) if self.side_b_mask >> q & 1)

    @property
    def side_a(self) -> tuple:
        return tuple(q for q in range(self.num_qubits) if not self.side_b_mask >> q & 1)

    def __str__(self):
        return "{}|{}".format(
            "".join(map(str, self.side_a)), "".join(map(str, self.side_b))
        )


def num_bipartitions(n: int) -> int:
    return (1 << (n - 1)) - 1


def enumerate_bipartitions(n: int) -> list:
    """All 2**(n-1) - 1 bipartitions, ascending side-B mask."""
    if n < 2:
        raise ValueError("need at least 2 qubits")
    return [Bipartition(n, mask) for mask in range(2, 1 << n, 2)]


@lru_cache(maxsize=None)
def _pt_index(n: int) -> np.ndarray:
    """Read-only ``[cuts, K, K]`` gather table of every cut's partial transpose.

    Entry ``[c, i, j]`` is the flat index into an n-qubit density matrix of
    element ``(i, j)`` of its partial transpose on canonical cut ``c + 1``:
    row and column swap their side-B bits.
    """
    k = 1 << n
    i = np.arange(k)[:, None]
    j = np.arange(k)[None, :]
    masks = np.array([bp.side_b_mask for bp in enumerate_bipartitions(n)])[:, None, None]
    swap = (i ^ j) & masks
    idx = (i ^ swap) * k + (j ^ swap)
    idx.flags.writeable = False
    return idx


def _partial_transposes(rho: np.ndarray, n: int, cut=slice(None)) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (1 << n, 1 << n):
        raise ValueError(f"expected {1 << n}x{1 << n} density matrices, got shape {rho.shape}")
    return rho.reshape(*rho.shape[:-2], -1)[..., _pt_index(n)[cut]]


def partial_transpose(rho: np.ndarray, bp: Bipartition) -> np.ndarray:
    """Transpose the side-B indices of a density matrix.

    One slice of the cached gather table :func:`_pt_index`, so it is
    element for element the matrix :func:`negativity_vector` diagonalizes.
    Hermiticity and trace survive; positivity generally does not, which is
    the whole point.
    """
    n = num_qubits(np.asarray(rho).shape[0])
    if bp.num_qubits != n:
        raise ValueError(f"bipartition is for {bp.num_qubits} qubits, state has {n}")
    return _partial_transposes(rho, n, bp.index - 1)


def _negative_mass(evs: np.ndarray) -> float:
    neg = evs[evs < -NPT_THRESHOLD]
    return float(-neg.sum()) + 0.0  # normalize -0.0 away


def negativity(rho: np.ndarray, bp: Bipartition) -> float:
    """Sum of |eigenvalue| over the negative spectrum of the partial transpose."""
    return _negative_mass(hermitian_eigenvalues(partial_transpose(rho, bp)))


def negativity_vector(rho: np.ndarray) -> np.ndarray:
    """Negativity of every bipartition, in canonical order; ``[..., K, K]`` gives ``[..., cuts]``.

    All partial transposes come from one gather and are diagonalized by one
    stacked eigensolver call, which runs LAPACK once per matrix, so each row
    of a stack is bit-equal to a call on its matrix alone.  The negatives of
    an ascending spectrum lead it, and numpy sums fewer than 8 terms in
    order, so a ``cumsum`` over the spectrum with the rest zeroed gives
    ``_negative_mass``'s sum; rows with 8 or more negatives take
    ``_negative_mass`` itself.
    """
    n = num_qubits(np.asarray(rho).shape[-1])
    evs = hermitian_eigenvalues(_partial_transposes(rho, n))
    neg = evs < -NPT_THRESHOLD
    negs = -np.cumsum(np.where(neg, evs, 0.0), axis=-1)[..., -1] + 0.0  # normalize -0.0 away
    for at in zip(*np.nonzero(neg.sum(axis=-1) >= 8)):
        negs[at] = _negative_mass(evs[at])
    return negs


def label_by_negativity(rho: np.ndarray) -> tuple:
    """Entanglement labels straight from the negativity: 1 where it certifies.

    Returns ``(labels, neg_values)``.  A zero label on a mixed state is
    inconclusive; this strategy trusts it anyway.
    """
    negs = negativity_vector(rho)
    return (negs > NPT_THRESHOLD).astype(np.uint8), negs


def bridged_cuts(circuit, n: int, surviving_qubits=None) -> np.ndarray:
    """Which of the n-qubit state's cuts a controlled gate of ``circuit`` connects.

    Cut c is bridged when some gate's control and target bits differ in its
    side-B mask.  Only gates whose endpoints both survive count;
    ``surviving_qubits`` lists the distinct circuit qubit behind each state
    qubit and defaults to the identity.
    """
    if surviving_qubits is None:
        surviving_qubits = list(range(n))
    surviving_qubits = [int(q) for q in surviving_qubits]
    if len(surviving_qubits) != n:
        raise ValueError("need one circuit qubit per state qubit")
    if len(set(surviving_qubits)) != n:
        raise ValueError(f"duplicate surviving qubits in {surviving_qubits}")
    if any(q < 0 or q >= circuit.num_qubits for q in surviving_qubits):
        raise ValueError("surviving qubits outside the circuit register")

    state_qubit = np.full(circuit.num_qubits, -1)
    state_qubit[surviving_qubits] = np.arange(n)
    cu = circuit.controls >= 0
    a = state_qubit[circuit.controls[cu]]
    b = state_qubit[circuit.targets[cu]]
    live = (a >= 0) & (b >= 0)
    masks = np.arange(2, 1 << n, 2)[:, None]  # side-B masks, canonical order
    return (((masks >> a[live]) ^ (masks >> b[live])) & 1).any(axis=1)


def label_weakly(rho: np.ndarray, circuit, surviving_qubits=None) -> tuple:
    """Labels from negativity where conclusive, circuit connectivity elsewhere.

    A bipartition the partial transpose cannot certify is marked entangled
    iff it is one of the :func:`bridged_cuts` of the generating circuit.
    Returns ``(labels, neg_values)``.
    """
    rho = np.asarray(rho, dtype=complex)
    bridged = bridged_cuts(circuit, num_qubits(rho.shape[0]), surviving_qubits)
    labels, negs = label_by_negativity(rho)
    labels[bridged] = 1
    return labels, negs


def permuted_bipartition_index(j: int, perm, n: int) -> int:
    """Canonical index of a bipartition's image under a qubit permutation.

    If the image mask captures qubit 0 the complementary mask is used, since
    an A|B split is unordered.  Composes like the permutations themselves.
    """
    m = num_bipartitions(n)
    if not 1 <= j <= m:
        raise ValueError(f"bipartition index {j} outside [1, {m}]")
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    mask = j << 1
    image = 0
    for q in range(n):
        if mask >> q & 1:
            image |= 1 << perm[q]
    if image & 1:
        image ^= (1 << n) - 1
    return image >> 1


# --- Families that are PPT on (some or all) cuts yet entangled ------------


def horodecki_state(b: float, n: int) -> np.ndarray:
    """Bound-entangled 2 x 2**(n-1) family, parameterized by b in (0, 1).

    The distinguished qubit is the most significant one (qubit n-1); the cut
    separating it from the rest is positive under partial transpose although
    the state is entangled there.  Every other cut happens to be certifiably
    entangled for b in (0, 1).  Built as a sum of projectors:
    ladder terms |0,i> + |1,i+1>, the lone |0, D-1> term, and one anchor
    mixing |1, 0> with |1, D-1>.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"parameter b={b} outside (0, 1)")
    if n < 3:
        raise ValueError("family is defined for 3 or more qubits")
    d = 1 << (n - 1)
    dim = 2 * d
    rho = np.zeros((dim, dim), dtype=complex)
    for i in range(d - 1):
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0  # |0, i>
        v[d + i + 1] = 1.0  # |1, i+1>
        rho += b * np.outer(v, v)
    rho[d - 1, d - 1] += b  # |0, D-1>
    anchor = np.zeros(dim, dtype=complex)
    anchor[d] = np.sqrt((1 + b) / 2)  # |1, 0>
    anchor[dim - 1] = np.sqrt((1 - b) / 2)  # |1, D-1>
    rho += np.outer(anchor, anchor)
    return rho / np.trace(rho).real


def horodecki_ppt_cut(n: int) -> Bipartition:
    """The cut on which the 2 x 2**(n-1) family hides from the PPT test."""
    return Bipartition(n, 1 << (n - 1))


def acin_state(a: float, b: float, c: float) -> np.ndarray:
    """Three-qubit family that is PPT across every cut for any positive a, b, c.

    A GHZ projector plus diagonal weights paired so that each coherence the
    partial transpose moves lands on a 2x2 block with unit determinant.
    """
    if min(a, b, c) <= 0:
        raise ValueError("parameters must be positive")
    g = np.zeros(8, dtype=complex)
    g[0] = g[7] = 1.0 / np.sqrt(2.0)
    rho = 2.0 * np.outer(g, g)
    for idx, w in ((1, a), (2, b), (4, c), (6, 1 / a), (5, 1 / b), (3, 1 / c)):
        rho[idx, idx] += w
    return rho / np.trace(rho).real


_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)
_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def upb_members() -> list:
    """The four mutually orthogonal product states of the unextendible basis."""
    triples = [
        (_KET0, _KET1, _PLUS),
        (_KET1, _PLUS, _KET0),
        (_PLUS, _KET0, _KET1),
        (_MINUS, _MINUS, _MINUS),
    ]
    return [np.kron(x, np.kron(y, z)) for x, y, z in triples]


def upb_state() -> np.ndarray:
    """Normalized projector onto the complement of the unextendible product basis.

    Rank 4 (= 8 - 4), trace 1, PPT across every cut, yet entangled: no
    product state fits in the complement.
    """
    proj = np.zeros((8, 8), dtype=complex)
    for v in upb_members():
        proj += np.outer(v, v.conj())
    return (np.eye(8, dtype=complex) - proj) / 4.0


PPTES_FAMILIES = ("horodecki", "acin", "upb")


def pptes_state(family: str, rng, n: int = 3) -> np.ndarray:
    """One state from the named family with random parameters, locally randomized."""
    if family == "horodecki":
        rho = horodecki_state(rng.uniform(0.02, 0.98), n)
    elif family == "acin":
        if n != 3:
            raise ValueError("acin family is 8x8 only")
        # log-uniform on [1/4, 4], symmetric around the separable-ish center
        a, b, c = np.exp(rng.uniform(-np.log(4.0), np.log(4.0), size=3))
        rho = acin_state(a, b, c)
    elif family == "upb":
        if n != 3:
            raise ValueError("upb family is 8x8 only")
        rho = upb_state()
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {PPTES_FAMILIES}")
    return randomize_local(rho, rng)


def pptes_defining_labels(family: str, n: int = 3) -> np.ndarray:
    """Entanglement labels the family guarantees (1 on its defining cuts)."""
    m = num_bipartitions(n)
    if family == "horodecki":
        labels = np.zeros(m, dtype=np.uint8)
        labels[horodecki_ppt_cut(n).index - 1] = 1
        return labels
    if family in ("acin", "upb"):
        return np.ones(m, dtype=np.uint8)
    raise ValueError(f"unknown family {family!r}")
