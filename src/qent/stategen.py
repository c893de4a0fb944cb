"""Random pure- and mixed-state generators.

Pure states come from parameterized gate circuits or from direct uniform
(Haar) sampling; mixed states come from explicit convex mixtures, from
tracing out part of a larger pure register, or from Kronecker products of
single-qubit mixed factors.  Every generator takes an explicit
``numpy.random.Generator`` and is a pure function of it.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .qcore import kron_all, num_qubits, partial_trace

TAU = 2.0 * np.pi


@dataclass
class CircuitSpec:
    """A gate circuit on a register, one array row per gate in application order.

    ``targets[m]`` and ``controls[m]`` are qubit indices, the control -1 on a
    single-qubit gate; ``angles[m, 4]`` holds (theta, phi, lam, gamma) in
    radians, gamma 0 on a single-qubit gate.
    """

    num_qubits: int
    targets: np.ndarray
    controls: np.ndarray
    angles: np.ndarray

    @property
    def cu_pairs(self) -> frozenset:
        """Unordered qubit pairs touched by any controlled gate."""
        cu = self.controls >= 0
        pairs = zip(self.controls[cu].tolist(), self.targets[cu].tolist())
        return frozenset(map(frozenset, pairs))


def _u_gates(angles) -> np.ndarray:
    """``[m, 2, 2]`` single-qubit rotations from ``[m, 3]`` rows of (theta, phi, lam)."""
    theta, phi, lam = np.asarray(angles, dtype=float).T
    c = np.cos(theta / 2)
    s = np.sin(theta / 2)
    g = np.empty((len(c), 2, 2), dtype=complex)
    g[:, 0, 0] = c
    g[:, 0, 1] = -np.exp(1j * lam) * s
    g[:, 1, 0] = np.exp(1j * phi) * s
    g[:, 1, 1] = np.exp(1j * (phi + lam)) * c
    return g


def _controlled(u: np.ndarray, gamma) -> np.ndarray:
    """``[k, 4, 4]`` controlled gates: identity block, then ``exp(i*gamma[j]) * u[j]``."""
    g = np.zeros((len(u), 4, 4), dtype=complex)
    g[:, 0, 0] = g[:, 1, 1] = 1.0
    g[:, 2:, 2:] = np.exp(1j * np.asarray(gamma, dtype=float))[:, None, None] * u
    return g


def u_gate(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit rotation from three Euler angles (2x2 unitary)."""
    return _u_gates([(theta, phi, lam)])[0]


def cu_gate(theta: float, phi: float, lam: float, gamma: float) -> np.ndarray:
    """Controlled single-qubit rotation with an extra phase on the active block.

    Basis order is |control target>, control being the more significant bit:
    the upper-left 2x2 block is the identity, the lower-right block is
    ``exp(i*gamma) * u_gate(theta, phi, lam)``.
    """
    return _controlled(_u_gates([(theta, phi, lam)]), [gamma])[0]


@lru_cache(maxsize=None)
def _gate_index(n: int, targets: tuple) -> np.ndarray:
    """Read-only ``[2**(n-t), 2**t]`` table of state indices for a gate's rows.

    Row r lists the 2**t amplitudes one gate application mixes, in the
    gate's own basis order (column j has bit k of j equal to the bit of
    ``targets[k]``); rows run over the other qubits in ascending order.
    Invalid targets raise here, and a raising call is never cached.
    """
    t = len(targets)
    if len(set(targets)) != t:
        raise ValueError(f"duplicate target qubits in {list(targets)}")
    if any(q < 0 or q >= n for q in targets):
        raise ValueError(f"targets {list(targets)} out of range for {n} qubits")
    # Axis n-1-q of the [2]*n index tensor is qubit q; move the gate axes
    # last so the flattened trailing index reads (targets[t-1], ..., targets[0]).
    src = [n - 1 - targets[j] for j in reversed(range(t))]
    idx = np.moveaxis(np.arange(1 << n).reshape([2] * n), src, range(n - t, n))
    idx = idx.reshape(-1, 1 << t)
    idx.flags.writeable = False
    return idx


def _apply(psi: np.ndarray, gate: np.ndarray, idx: np.ndarray) -> np.ndarray:
    out = np.empty_like(psi)
    out[idx] = psi[idx] @ gate.T
    return out


def apply_gate(state: np.ndarray, gate: np.ndarray, targets) -> np.ndarray:
    """Apply a 2**t-dimensional gate to the listed qubits of a state vector.

    ``targets[j]`` supplies bit j of the gate's own basis index, so for a
    controlled gate built by :func:`cu_gate` pass ``[target, control]``.
    The state is gathered through an index table cached per
    ``(n, targets)`` into contiguous ``[2**(n-t), 2**t]`` rows, multiplied
    by ``gate.T`` and scattered back through the same table.
    """
    state = np.asarray(state, dtype=complex)
    n = num_qubits(state.shape[0])
    targets = tuple(int(q) for q in targets)
    idx = _gate_index(n, targets)
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (idx.shape[1], idx.shape[1]):
        raise ValueError(f"gate shape {gate.shape} does not act on {len(targets)} qubit(s)")
    return _apply(state, gate, idx)


def run_circuit(spec: CircuitSpec) -> np.ndarray:
    """Run a circuit on the all-zeros register and return the state vector.

    Every gate is built up front: one stacked U formula for all rows, then
    one controlled-gate stack for the rows with a control.
    """
    n = spec.num_qubits
    u = _u_gates(spec.angles[:, :3])
    gates = list(u)
    cu = np.flatnonzero(spec.controls >= 0)
    for i, g in zip(cu.tolist(), _controlled(u[cu], spec.angles[cu, 3])):
        gates[i] = g
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for t, c, g in zip(spec.targets.tolist(), spec.controls.tolist(), gates):
        psi = _apply(psi, g, _gate_index(n, (t,) if c < 0 else (t, c)))
    return psi


def random_circuit_state(n: int, entangling: bool, rng) -> tuple:
    """Random circuit state: local layer, optional controlled gates, local layer.

    With ``entangling`` the number of controlled gates is uniform on
    ``[1, 2*C(n,2))`` and each lands on a uniformly random ordered
    (control, target) pair; without it the circuit stays a product state.
    The draws, in order: the first layer's ``(n, 3)`` angles; with
    ``entangling`` the gate count k, then per controlled gate its control,
    its target among the other qubits and its 4 angles; the last layer's
    ``(n, 3)`` angles.  Returns ``(state, CircuitSpec)``.
    """
    if n < 2:
        raise ValueError("need at least 2 qubits")
    first = rng.uniform(0.0, TAU, size=(n, 3))
    k = int(rng.integers(1, 2 * comb(n, 2))) if entangling else 0
    targets = np.concatenate([np.arange(n), np.zeros(k, dtype=int), np.arange(n)])
    controls = np.full(2 * n + k, -1)
    angles = np.zeros((2 * n + k, 4))
    angles[:n, :3] = first
    for j in range(n, n + k):
        c = int(rng.integers(n))
        t = int(rng.integers(n - 1))
        targets[j], controls[j] = t + (t >= c), c  # t skips over c
        angles[j] = rng.uniform(0.0, TAU, size=4)
    angles[n + k:, :3] = rng.uniform(0.0, TAU, size=(n, 3))
    spec = CircuitSpec(n, targets, controls, angles)
    return run_circuit(spec), spec


def haar_state(n: int, rng) -> np.ndarray:
    """Uniformly random pure state on n qubits.

    Moduli come from normalized exponential variates ``y_i = -log(x_i)`` with
    ``x_i`` uniform on (0, 1]; phases are uniform on [0, 2*pi).
    """
    if n < 1:
        raise ValueError("need at least 1 qubit")
    k = 1 << n
    x = 1.0 - rng.random(k)  # uniform on (0, 1]
    y = -np.log(x)
    gamma = TAU * rng.random(k)
    return np.sqrt(y / y.sum()) * np.exp(1j * gamma)


def ghz_state(n: int) -> np.ndarray:
    """(|0...0> + |1...1>) / sqrt(2)."""
    if n < 2:
        raise ValueError("need at least 2 qubits")
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2.0)
    return psi


def w_state(n: int) -> np.ndarray:
    """Uniform superposition of all single-excitation basis states."""
    if n < 2:
        raise ValueError("need at least 2 qubits")
    psi = np.zeros(1 << n, dtype=complex)
    for q in range(n):
        psi[1 << q] = 1.0 / np.sqrt(n)
    return psi


def _random_local_gates(n: int, rng) -> np.ndarray:
    """``[n, 2, 2]``: one random single-qubit rotation per qubit, qubit 0 first."""
    return _u_gates(rng.uniform(0.0, TAU, size=(n, 3)))


def random_local_unitary(n: int, rng) -> np.ndarray:
    """Product of independent random single-qubit rotations, as one 2**n unitary."""
    return kron_all(list(reversed(_random_local_gates(n, rng))))  # qubit n-1 factor first


def randomize_local(obj: np.ndarray, rng) -> np.ndarray:
    """Apply an independent random single-qubit rotation to every qubit.

    Accepts a state vector or a density matrix; a density matrix is
    conjugated by the product unitary, leaving its spectrum (and every
    bipartite negativity) unchanged.  Both draw the same rotations from
    the same ``rng`` state.
    """
    obj = np.asarray(obj, dtype=complex)
    if obj.ndim not in (1, 2):
        raise ValueError("expected a state vector or a density matrix")
    n = num_qubits(obj.shape[0])
    if obj.ndim == 2:
        v = random_local_unitary(n, rng)
        return v @ obj @ v.conj().T
    for q, gate in enumerate(_random_local_gates(n, rng)):
        obj = _apply(obj, gate, _gate_index(n, (q,)))
    return obj


def random_probs(d: int, rng) -> np.ndarray:
    """Mixture weights: i.i.d. uniform-(0,1] samples, normalized."""
    u = 1.0 - rng.random(d)
    return u / u.sum()


def mix_states(probs, components) -> np.ndarray:
    """Density matrix of a convex mixture: sum of weighted pure projectors."""
    dim = components[0].shape[0]
    rho = np.zeros((dim, dim), dtype=complex)
    for p, psi in zip(probs, components, strict=True):
        rho += p * np.outer(psi, psi.conj())
    return rho


def traced_mixed_state(n_target: int, n_extra: int, rng) -> tuple:
    """Mixed state from tracing the top ``n_extra`` qubits of a larger circuit state.

    The surviving qubits are 0..n_target-1, so the returned circuit's gate
    connectivity maps onto them unchanged.  Returns ``(rho, CircuitSpec)``
    where the circuit acts on the full ``n_target + n_extra`` register.
    """
    if n_extra < 1:
        raise ValueError("need at least one traced qubit")
    psi, spec = random_circuit_state(n_target + n_extra, True, rng)
    rho = np.outer(psi, psi.conj())
    reduced = partial_trace(rho, range(n_target, n_target + n_extra))
    return reduced, spec


def random_single_qubit_mixed(rng) -> np.ndarray:
    """Random mixed qubit state: marginal of a uniformly random two-qubit pure state."""
    psi = haar_state(2, rng)
    return partial_trace(np.outer(psi, psi.conj()), [1])


def assemble_kron_mixture(probs, factor_groups) -> np.ndarray:
    """Mixture of products: sum_i p_i (rho_0^i x ... x rho_{n-1}^i).

    ``factor_groups[i][q]`` is the single-qubit factor of term i on qubit q.
    """
    terms = []
    for factors in factor_groups:
        terms.append(kron_all(list(reversed(list(factors)))))
    rho = np.zeros_like(terms[0])
    for p, t in zip(probs, terms):
        rho += p * t
    return rho


def kron_separable_mixed(n: int, rng, d: int | None = None) -> np.ndarray:
    """Separable-by-construction mixture of products of random mixed qubits."""
    if n < 2:
        raise ValueError("need at least 2 qubits")
    if d is None:
        d = int(rng.integers(1, (1 << n) + 1))
    probs = random_probs(d, rng)
    groups = [[random_single_qubit_mixed(rng) for _ in range(n)] for _ in range(d)]
    return assemble_kron_mixture(probs, groups)
