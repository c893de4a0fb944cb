import numpy as np
import pytest

from qent import qcore, stategen as sg

TAU = 2 * np.pi


def embed_oracle(gate, targets, n):
    """Full 2**n operator for a gate on given qubits, built from Kronecker factors.

    Independent of apply_gate: permutes the gate's axes into register order
    and pads with identities via explicit index arithmetic.
    """
    t = len(targets)
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n) if q not in targets]
    for r in range(dim):
        for c in range(dim):
            if any((r >> q) & 1 != (c >> q) & 1 for q in rest):
                continue
            gr = sum(((r >> q) & 1) << j for j, q in enumerate(targets))
            gc = sum(((c >> q) & 1) << j for j, q in enumerate(targets))
            full[r, c] = gate[gr, gc]
    return full


class TestGates:
    def test_u_identity_at_zero(self):
        assert np.allclose(sg.u_gate(0, 0, 0), np.eye(2))

    def test_u_pauli_x(self):
        # theta=pi, phi=0, lam=pi: off-diagonal cos terms vanish, signs cancel
        got = sg.u_gate(np.pi, 0, np.pi)
        assert np.max(np.abs(got - np.array([[0, 1], [1, 0]]))) < 1e-12

    def test_u_unitary_many(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            u = sg.u_gate(*rng.uniform(0, TAU, 3))
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_cu_identity_at_zero(self):
        assert np.allclose(sg.cu_gate(0, 0, 0, 0), np.eye(4))

    def test_cu_block_structure(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = sg.cu_gate(*rng.uniform(0, TAU, 4))
            assert np.array_equal(g[:2, :2], np.eye(2))
            assert np.all(g[:2, 2:] == 0) and np.all(g[2:, :2] == 0)
            assert np.max(np.abs(g.conj().T @ g - np.eye(4))) < 1e-12

    def test_cu_active_block_phase(self):
        th, ph, la, ga = 1.2, 0.4, 2.5, 1.9
        g = sg.cu_gate(th, ph, la, ga)
        assert np.allclose(g[2:, 2:], np.exp(1j * ga) * sg.u_gate(th, ph, la))


def u_reference(theta, phi, lam):
    """The single-qubit gate formula written out per element, one gate at a time."""
    c = np.cos(theta / 2)
    s = np.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def cu_reference(theta, phi, lam, gamma):
    g = np.eye(4, dtype=complex)
    g[2:, 2:] = np.exp(1j * gamma) * u_reference(theta, phi, lam)
    return g


class TestBatchedGates:
    """The stacked gate builders and draws are bit-equal to one-at-a-time ones."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matrix_draw_equals_row_draws(self, n):
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        rows = [b.uniform(0.0, TAU, size=3) for _ in range(n)]
        assert a.uniform(0.0, TAU, size=(n, 3)).tobytes() == np.array(rows).tobytes()
        assert a.random() == b.random()  # both streams end at the same place

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 33])
    def test_u_gates_rows_equal_u_gate(self, m):
        angles = np.random.default_rng(m).uniform(0.0, TAU, size=(m, 3))
        angles[0, 0] = 0.0  # theta = 0: the sin factor is an exact zero
        stack = sg._u_gates(angles)
        assert stack.shape == (m, 2, 2) and stack.dtype == complex
        for row, a in zip(stack, angles):
            assert row.tobytes() == sg.u_gate(*a).tobytes()
            assert row.tobytes() == u_reference(*a).tobytes()
            assert row.tobytes() == u_reference(*a.tolist()).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 5, 19])
    def test_controlled_rows_equal_cu_gate(self, k):
        angles = np.random.default_rng(50 + k).uniform(0.0, TAU, size=(k, 4))
        stack = sg._controlled(sg._u_gates(angles[:, :3]), angles[:, 3])
        assert stack.shape == (k, 4, 4)
        for row, a in zip(stack, angles):
            assert row.tobytes() == sg.cu_gate(*a).tobytes()
            assert row.tobytes() == cu_reference(*a).tobytes()

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("entangling", [True, False])
    def test_circuit_equals_public_replay(self, n, entangling):
        """Replaying the returned spec gate by gate through apply_gate gives the same bytes."""
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            psi, spec = sg.random_circuit_state(n, entangling, rng)
            want = np.zeros(1 << n, dtype=complex)
            want[0] = 1.0
            assert np.all((spec.angles >= 0.0) & (spec.angles < TAU))
            for t, c, a in zip(spec.targets, spec.controls, spec.angles):
                if c < 0:
                    assert a[3] == 0.0
                    want = sg.apply_gate(want, sg.u_gate(*a[:3]), [t])
                else:
                    want = sg.apply_gate(want, sg.cu_gate(*a), [t, c])
            assert psi.tobytes() == want.tobytes()
            assert sg.run_circuits([spec])[0].tobytes() == want.tobytes()


def replay(spec, psi=None):
    """One circuit gate by gate through the public apply_gate."""
    if psi is None:
        psi = np.zeros(1 << spec.num_qubits, dtype=complex)
        psi[0] = 1.0
    for t, c, a in zip(spec.targets, spec.controls, spec.angles):
        psi = sg.apply_gate(psi, sg.u_gate(*a[:3]) if c < 0 else sg.cu_gate(*a), [t] if c < 0 else [t, c])
    return psi


class TestRunCircuits:
    """A stacked run gives each circuit exactly the bytes of its lone run."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rows_equal_lone_runs(self, n):
        rng = np.random.default_rng(200 + n)
        specs = [sg.draw_circuit(n, i % 4 != 0, rng) for i in range(24)]  # k = 0 every fourth
        assert any(len(s.targets) == 2 * n for s in specs)
        # some gate position mixes (target, control) pairs and gate sizes
        at = [{(int(s.targets[j]), int(s.controls[j])) for s in specs if len(s.targets) > j}
              for j in range(max(len(s.targets) for s in specs))]
        assert max(len(pairs) for pairs in at) > n
        want = [replay(s).tobytes() for s in specs]
        for lo, hi in ((0, 1), (3, 5), (0, 24)):
            got = sg.run_circuits(specs[lo:hi])
            assert got.shape == (hi - lo, 1 << n)
            assert [row.tobytes() for row in got] == want[lo:hi]

    def test_start_states(self):
        rng = np.random.default_rng(7)
        specs = [sg.draw_circuit(3, True, rng) for _ in range(5)]
        starts = np.stack([sg.haar_state(3, rng) for _ in range(5)])
        got = sg.run_circuits(specs, starts)
        assert [row.tobytes() for row in got] == [replay(s, p).tobytes() for s, p in zip(specs, starts)]

    def test_rejects_mixed_register_sizes(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            sg.run_circuits([sg.draw_circuit(3, True, rng), sg.draw_circuit(4, True, rng)])


class TestApplyGate:
    def test_identity_gate(self):
        rng = np.random.default_rng(2)
        psi = sg.haar_state(3, rng)
        assert np.allclose(sg.apply_gate(psi, np.eye(2), [1]), psi)

    def test_x_on_lsb(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1
        out = sg.apply_gate(psi, np.array([[0, 1], [1, 0]], dtype=complex), [0])
        assert abs(out[1] - 1) < 1e-14

    def test_cu_control_semantics(self):
        cu = sg.cu_gate(0.9, 1.1, 0.3, 0.0)
        on = np.zeros(4, dtype=complex)
        on[2] = 1  # |10>: control qubit 1 set
        off = np.zeros(4, dtype=complex)
        off[0] = 1
        assert np.allclose(sg.apply_gate(off, cu, [0, 1]), off)
        moved = sg.apply_gate(on, cu, [0, 1])
        assert abs(moved[2]) < 1 and abs(moved[3]) > 0

    def test_matches_embedded_operator(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            psi = sg.haar_state(n, rng)
            if rng.random() < 0.5:
                gate = sg.u_gate(*rng.uniform(0, TAU, 3))
                targets = [int(rng.integers(n))]
            else:
                gate = sg.cu_gate(*rng.uniform(0, TAU, 4))
                a = int(rng.integers(n))
                b = int(rng.integers(n - 1))
                b += b >= a
                targets = [a, b]
            got = sg.apply_gate(psi, gate, targets)
            want = embed_oracle(gate, targets, n) @ psi
            assert np.max(np.abs(got - want)) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        psi = sg.haar_state(4, rng)
        out = sg.apply_gate(psi, sg.cu_gate(*rng.uniform(0, TAU, 4)), [3, 1])
        assert abs(np.linalg.norm(out) - 1) < 1e-12

    @pytest.mark.parametrize("n", [6, 7])
    def test_matches_embedded_operator_wide_registers(self, n):
        rng = np.random.default_rng(n)
        psi = sg.haar_state(n, rng)
        plans = [[0], [n - 1], [3], [0, n - 1], [n - 1, 0], [2, 5], [4, 1]]
        for targets in plans:
            if len(targets) == 1:
                gate = sg.u_gate(*rng.uniform(0, TAU, 3))
            else:
                gate = sg.cu_gate(*rng.uniform(0, TAU, 4))
            got = sg.apply_gate(psi, gate, targets)
            want = embed_oracle(gate, targets, n) @ psi
            assert np.max(np.abs(got - want)) < 1e-12
            psi = got

    def test_bad_targets_rejected_after_cached_valid_key(self):
        psi = sg.haar_state(3, np.random.default_rng(9))
        cu = sg.cu_gate(0.3, 0.6, 0.9, 1.2)
        first = sg.apply_gate(psi, cu, [0, 2])
        for bad in ([2, 2], [0, 3], [-1, 0]):
            with pytest.raises(ValueError):
                sg.apply_gate(psi, cu, bad)
        with pytest.raises(ValueError):
            sg.apply_gate(psi, np.eye(2, dtype=complex), [0, 2])
        assert np.array_equal(sg.apply_gate(psi, cu, [0, 2]), first)

    def test_rejects_bad_dimensions(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1
        with pytest.raises(ValueError):
            sg.apply_gate(psi, np.eye(4, dtype=complex), [0])
        with pytest.raises(ValueError):
            sg.apply_gate(psi, np.eye(4, dtype=complex), [1, 1])


class TestRandomCircuit:
    def test_separable_has_no_cu(self):
        rng = np.random.default_rng(5)
        psi, spec = sg.random_circuit_state(3, False, rng)
        assert spec.cu_pairs == frozenset()
        # product state: each marginal is pure
        rho = np.outer(psi, psi.conj())
        for q in range(3):
            red = qcore.partial_trace(rho, [p for p in range(3) if p != q])
            purity = np.trace(red @ red).real
            assert purity > 1 - 1e-10

    def test_cu_count_range_three_qubits(self):
        rng = np.random.default_rng(6)
        counts = set()
        for _ in range(400):
            _, spec = sg.random_circuit_state(3, True, rng)
            counts.add(int(np.count_nonzero(spec.controls >= 0)))
        assert counts == {1, 2, 3, 4, 5}

    def test_unit_norm_many(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            psi, _ = sg.random_circuit_state(3, True, rng)
            assert abs(np.linalg.norm(psi) - 1) < 1e-12

    def test_seeded_determinism(self):
        a, _ = sg.random_circuit_state(4, True, np.random.default_rng(42))
        b, _ = sg.random_circuit_state(4, True, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_draw_order(self):
        """The spec's rows are the documented draws, and no other draw is made."""
        n = 4
        rng = np.random.default_rng(21)
        _, spec = sg.random_circuit_state(n, True, rng)
        ref = np.random.default_rng(21)
        first = ref.uniform(0.0, TAU, size=(n, 3))
        k = int(ref.integers(1, 2 * 6))  # 2 * C(4, 2)
        pairs, cu_angles = [], []
        for _ in range(k):
            c = int(ref.integers(n))
            t = int(ref.integers(n - 1))
            pairs.append((c, t + 1 if t >= c else t))
            cu_angles.append(ref.uniform(0.0, TAU, size=4))
        last = ref.uniform(0.0, TAU, size=(n, 3))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert spec.num_qubits == n and len(spec.targets) == 2 * n + k
        assert list(spec.targets[:n]) == list(spec.targets[n + k:]) == list(range(n))
        assert np.all(spec.controls[:n] == -1) and np.all(spec.controls[n + k:] == -1)
        assert list(zip(spec.controls[n:n + k], spec.targets[n:n + k])) == pairs
        assert np.array_equal(spec.angles[:n, :3], first)
        assert np.array_equal(spec.angles[n:n + k], np.array(cu_angles))
        assert np.array_equal(spec.angles[n + k:, :3], last)
        assert not spec.angles[:n, 3].any() and not spec.angles[n + k:, 3].any()

    def test_run_circuit_rejects_bad_qubits(self):
        angles = np.full((1, 4), 1.0)
        with pytest.raises(ValueError):  # control == target
            sg.run_circuits([sg.CircuitSpec(3, np.array([1]), np.array([1]), angles)])
        with pytest.raises(ValueError):  # target out of range
            sg.run_circuits([sg.CircuitSpec(3, np.array([3]), np.array([-1]), angles)])
        with pytest.raises(ValueError):  # control out of range
            sg.run_circuits([sg.CircuitSpec(3, np.array([0]), np.array([5]), angles)])


class _StubRng:
    """Feeds fixed values to haar_state: rng.random(k) is called twice."""

    def __init__(self, x, gamma):
        self.seq = [x, gamma]

    def random(self, k):
        return self.seq.pop(0)


class TestHaar:
    def test_unit_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            psi = sg.haar_state(3, rng)
            assert abs(np.linalg.norm(psi) - 1) < 1e-12

    def test_forced_uniform_moduli(self):
        k = 8
        # x_i = e^{-1} makes every y_i = 1; zero phases
        stub = _StubRng(1.0 - np.full(k, np.exp(-1.0)), np.zeros(k))
        psi = sg.haar_state(3, stub)
        assert np.allclose(psi, np.full(k, 1 / np.sqrt(k)))

    def test_mean_amplitude_square_uniform(self):
        rng = np.random.default_rng(9)
        k = 8
        acc = np.zeros(k)
        draws = 10_000
        for _ in range(draws):
            acc += np.abs(sg.haar_state(3, rng)) ** 2
        acc /= draws
        assert np.max(np.abs(acc - 1 / k)) < 0.05 / k


class TestNamedStates:
    def test_ghz_amplitudes(self):
        psi = sg.ghz_state(3)
        assert abs(psi[0] - 1 / np.sqrt(2)) < 1e-15
        assert abs(psi[7] - 1 / np.sqrt(2)) < 1e-15
        assert np.all(psi[1:7] == 0)

    def test_w_amplitudes(self):
        psi = sg.w_state(3)
        hot = {1, 2, 4}
        for i in range(8):
            want = 1 / np.sqrt(3) if i in hot else 0.0
            assert abs(psi[i] - want) < 1e-15

    def test_norms(self):
        for n in (2, 3, 4):
            assert abs(np.linalg.norm(sg.ghz_state(n)) - 1) < 1e-12
            assert abs(np.linalg.norm(sg.w_state(n)) - 1) < 1e-12


class TestRandomizeLocal:
    def test_spectrum_preserved(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            rho, _ = sg.traced_mixed_state(2, 1, rng)
            before = qcore.hermitian_eigenvalues(rho)
            after = qcore.hermitian_eigenvalues(sg.randomize_local(rho, rng))
            assert np.max(np.abs(before - after)) < 1e-10

    def test_pure_stays_pure(self):
        rng = np.random.default_rng(11)
        psi = sg.ghz_state(3)
        rho = sg.randomize_local(np.outer(psi, psi.conj()), rng)
        assert abs(np.trace(rho @ rho).real - 1) < 1e-10

    def test_vector_and_matrix_paths_agree(self):
        psi = sg.w_state(3)
        v_out = sg.randomize_local(psi, np.random.default_rng(12))
        m_out = sg.randomize_local(np.outer(psi, psi.conj()), np.random.default_rng(12))
        assert np.max(np.abs(np.outer(v_out, v_out.conj()) - m_out)) < 1e-12


class TestMixtures:
    def test_single_component_projector(self):
        psi = sg.ghz_state(2)
        rho = sg.mix_states([1.0], [psi])
        assert np.allclose(rho, np.outer(psi, psi.conj()))
        with pytest.raises(ValueError):  # one weight per component
            sg.mix_states([0.5, 0.5], [psi])

    def test_equal_mixture_is_maximally_mixed(self):
        zero = np.array([1, 0], dtype=complex)
        one = np.array([0, 1], dtype=complex)
        rho = sg.mix_states([0.5, 0.5], [zero, one])
        assert np.allclose(rho, np.eye(2) / 2)

    def test_trace_one_random_specs(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            probs = sg.random_probs(d, rng)
            rho = sg.mix_states(probs, [sg.haar_state(3, rng) for _ in range(d)])
            assert abs(np.trace(rho) - 1) < 1e-12


class TestTracedMixed:
    def test_ghz_marginal_by_hand(self):
        rho = np.outer(sg.ghz_state(3), sg.ghz_state(3).conj())
        red = qcore.partial_trace(rho, [2])
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = want[3, 3] = 0.5
        assert np.allclose(red, want)

    def test_valid_density_matrix(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            rho, spec = sg.traced_mixed_state(3, int(rng.integers(1, 3)), rng)
            qcore.validate_density_matrix(rho)
            assert spec.num_qubits in (4, 5)

    def test_mostly_mixed_marginals(self):
        # a circuit whose controlled gates all avoid the traced qubits leaves
        # a pure marginal; two traced qubits make that rare (measured ~97%),
        # one traced qubit less so (measured ~91%)
        rng = np.random.default_rng(15)
        draws = 200
        for n_extra, floor in ((2, 0.95), (1, 0.85)):
            mixed = 0
            for _ in range(draws):
                rho, _ = sg.traced_mixed_state(3, n_extra, rng)
                if np.trace(rho @ rho).real < 1 - 1e-6:
                    mixed += 1
            assert mixed >= floor * draws


class TestKronSeparableMixed:
    def test_all_zero_factors(self):
        zero = np.array([[1, 0], [0, 0]], dtype=complex)
        rho = sg.assemble_kron_mixture([1.0], [[zero, zero, zero]])
        want = np.zeros((8, 8), dtype=complex)
        want[0, 0] = 1
        assert np.allclose(rho, want)

    def test_valid_density_matrix(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            qcore.validate_density_matrix(sg.kron_separable_mixed(3, rng))

    def test_seeded_determinism(self):
        a = sg.kron_separable_mixed(3, np.random.default_rng(17))
        b = sg.kron_separable_mixed(3, np.random.default_rng(17))
        assert np.array_equal(a, b)
