import numpy as np
import pytest

from qent import entanglement as ent
from qent import qcore, stategen as sg


def pt_oracle(rho, b_mask, n):
    """Partial transpose by explicit index-bit surgery (independent of reshape path)."""
    dim = 1 << n
    out = np.empty_like(rho)
    keep = ((dim - 1) ^ b_mask)
    for r in range(dim):
        for c in range(dim):
            rr = (r & keep) | (c & b_mask)
            cc = (c & keep) | (r & b_mask)
            out[r, c] = rho[rr, cc]
    return out


def bell_rho():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def random_mixed(n, rng):
    rho, _ = sg.traced_mixed_state(n, int(rng.integers(1, 3)), rng)
    return rho


class TestBipartitions:
    @pytest.mark.parametrize("n,m", [(2, 1), (3, 3), (4, 7), (5, 15)])
    def test_counts(self, n, m):
        bps = ent.enumerate_bipartitions(n)
        assert len(bps) == m
        assert [bp.index for bp in bps] == list(range(1, m + 1))

    def test_masks_exclude_qubit_zero(self):
        for bp in ent.enumerate_bipartitions(4):
            assert bp.side_b_mask % 2 == 0
            assert 0 in bp.side_a

    def test_invalid_masks_rejected(self):
        with pytest.raises(ValueError):
            ent.Bipartition(3, 0)
        with pytest.raises(ValueError):
            ent.Bipartition(3, 3)  # bit 0 set
        with pytest.raises(ValueError):
            ent.Bipartition(3, 8)

    def test_str_label(self):
        assert str(ent.Bipartition(3, 0b110)) == "0|12"


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(0)
        psi_a = sg.haar_state(1, rng)
        psi_b = sg.haar_state(1, rng)
        rho_a = np.outer(psi_a, psi_a.conj())
        rho_b = np.outer(psi_b, psi_b.conj())
        rho = np.kron(rho_b, rho_a)
        pt = ent.partial_transpose(rho, ent.Bipartition(2, 0b10))
        assert np.allclose(pt, np.kron(rho_b.T, rho_a))
        assert qcore.hermitian_eigenvalues(pt).min() > -1e-12

    def test_involution_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            rho = random_mixed(n, rng)
            for bp in ent.enumerate_bipartitions(n):
                back = ent.partial_transpose(ent.partial_transpose(rho, bp), bp)
                assert np.array_equal(back, rho)

    def test_bell_spectrum(self):
        pt = ent.partial_transpose(bell_rho(), ent.Bipartition(2, 0b10))
        evs = qcore.hermitian_eigenvalues(pt)
        assert np.allclose(evs, [-0.5, 0.5, 0.5, 0.5])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_bit_surgery_oracle(self, n):
        rng = np.random.default_rng(n)
        rho = random_mixed(n, rng)
        for bp in ent.enumerate_bipartitions(n):
            got = ent.partial_transpose(rho, bp)
            want = pt_oracle(rho, bp.side_b_mask, n)
            assert np.array_equal(got, want)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(5)
        rho = random_mixed(3, rng)
        for bp in ent.enumerate_bipartitions(3):
            pt = ent.partial_transpose(rho, bp)
            assert abs(np.trace(pt) - 1) < 1e-10
            assert np.max(np.abs(pt - pt.conj().T)) < 1e-10


class TestNegativity:
    def test_bell_half(self):
        assert abs(ent.negativity(bell_rho(), ent.Bipartition(2, 0b10)) - 0.5) < 1e-12

    def test_ghz3_half_every_cut(self):
        rho = np.outer(sg.ghz_state(3), sg.ghz_state(3).conj())
        for bp in ent.enumerate_bipartitions(3):
            assert abs(ent.negativity(rho, bp) - 0.5) < 1e-12

    def test_separable_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            rho = sg.kron_separable_mixed(3, rng)
            assert np.all(ent.negativity_vector(rho) < 1e-9)

    def test_invariant_under_local_rotations(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rho = random_mixed(3, rng)
            before = ent.negativity_vector(rho)
            after = ent.negativity_vector(sg.randomize_local(rho, rng))
            assert np.max(np.abs(before - after)) < 1e-8

    def test_tracks_permuted_cut(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(3, 5))
            rho = random_mixed(n, rng)
            perm = [int(p) for p in rng.permutation(n)]
            permuted = qcore.permute_qubits(rho, perm)
            for bp in ent.enumerate_bipartitions(n):
                j_img = ent.permuted_bipartition_index(bp.index, perm, n)
                bp_img = ent.Bipartition(n, j_img << 1)
                assert abs(ent.negativity(rho, bp) - ent.negativity(permuted, bp_img)) < 1e-8


def negativity_reference(rho):
    """Per-cut negativity: swapaxes partial transpose, one eigvalsh per cut."""
    n = qcore.num_qubits(rho.shape[0])
    out = []
    for bp in ent.enumerate_bipartitions(n):
        t = rho.reshape([2] * (2 * n))
        for q in bp.side_b:
            t = np.swapaxes(t, n - 1 - q, 2 * n - 1 - q)
        evs = np.linalg.eigvalsh(t.reshape(rho.shape))
        out.append(float(-evs[evs < -ent.NPT_THRESHOLD].sum()) + 0.0)
    return np.array(out)


class TestNegativityVectorKernel:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_bit_equal_to_per_cut_reference(self, n):
        rng = np.random.default_rng(30 + n)
        product = qcore.kron_all([np.outer(v, v.conj()) for v in (sg.haar_state(1, rng) for _ in range(n))])
        horodecki = sg.randomize_local(ent.horodecki_state(0.4, n), rng)
        rhos = [product, horodecki, sg.kron_separable_mixed(n, rng)]
        rhos += [random_mixed(n, rng) for _ in range(4)]
        for _ in range(3):
            psi = sg.haar_state(n, rng)
            rhos.append(np.outer(psi, psi.conj()))
        for rho in rhos:
            got = ent.negativity_vector(rho)
            want = negativity_reference(rho)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got, want)
            assert not np.any(np.signbit(got))
            for bp in ent.enumerate_bipartitions(n):
                assert ent.negativity(rho, bp) == got[bp.index - 1]
        assert np.all(ent.negativity_vector(product) == 0.0)
        ppt = ent.negativity_vector(horodecki)[ent.horodecki_ppt_cut(n).index - 1]
        assert ppt == 0.0 and not np.signbit(ppt)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_stack_rows_equal_lone_calls(self, n):
        rng = np.random.default_rng(40 + n)
        rhos = []
        for d in (1, 2, 3, 4, 6, 9, 20, 1, 2, 3, 5, 40):
            psis = [sg.haar_state(n, rng) for _ in range(d)]
            rhos.append(sg.mix_states(sg.random_probs(d, rng), psis))
        rhos = np.stack(rhos + [random_mixed(n, rng) for _ in range(4)])
        got = ent.negativity_vector(rhos)
        assert got.shape == (len(rhos), ent.num_bipartitions(n))
        for rho, row in zip(rhos, got):
            assert row.tobytes() == negativity_reference(rho).tobytes()
            assert row.tobytes() == ent.negativity_vector(rho).tobytes()
        assert ent.negativity_vector(rhos.reshape(2, -1, *rhos.shape[1:])).tobytes() == got.tobytes()
        pt = np.stack([[ent.partial_transpose(r, bp) for bp in ent.enumerate_bipartitions(n)] for r in rhos])
        most = (np.linalg.eigvalsh(pt) < -ent.NPT_THRESHOLD).sum(axis=-1).max()
        if n == 5:
            assert most >= 8  # rows that sum 8 or more negatives pairwise are covered

    def test_non_hermitian_rejected(self):
        rho = random_mixed(3, np.random.default_rng(11))
        rho[0, 5] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            ent.negativity_vector(rho)
        with pytest.raises(ValueError):
            ent.negativity(rho, ent.Bipartition(3, 0b100))

    def test_shape_mismatch_rejected(self):
        rho = random_mixed(3, np.random.default_rng(12))
        with pytest.raises(ValueError):
            ent.partial_transpose(rho, ent.Bipartition(2, 0b10))
        with pytest.raises(ValueError):
            ent.negativity_vector(rho[:, :4])


class TestLabeling:
    def test_separable_circuit_all_zero(self):
        rng = np.random.default_rng(9)
        psi, _ = sg.random_circuit_state(3, False, rng)
        labels, negs = ent.label_by_negativity(np.outer(psi, psi.conj()))
        assert not labels.any()
        assert np.all(negs < 1e-9)

    def test_ghz_all_ones(self):
        rho = np.outer(sg.ghz_state(3), sg.ghz_state(3).conj())
        labels, _ = ent.label_by_negativity(rho)
        assert list(labels) == [1, 1, 1]

    def test_bound_entangled_cut_missed(self):
        # the known failure mode: entangled but labeled separable on the hidden cut
        rho = ent.horodecki_state(0.5, 3)
        labels, _ = ent.label_by_negativity(rho)
        assert labels[ent.horodecki_ppt_cut(3).index - 1] == 0

    def test_weak_labels_from_connectivity(self):
        rng = np.random.default_rng(10)
        psi, _ = sg.random_circuit_state(3, False, rng)
        rho = np.outer(psi, psi.conj())
        local = sg.CircuitSpec(3, np.arange(3), np.full(3, -1), np.ones((3, 4)))
        labels, _ = ent.label_weakly(rho, local)
        assert not labels.any()

        bridged = sg.CircuitSpec(3, np.array([1]), np.array([0]), np.ones((1, 4)))
        labels, _ = ent.label_weakly(rho, bridged)
        # cuts separating qubits 0 and 1 get the weak mark; 2|{0,1} stays 0
        assert list(labels) == [1, 0, 1]

    def test_weak_labels_keep_npt_ones(self):
        rng = np.random.default_rng(11)
        rho, spec = sg.traced_mixed_state(3, 1, rng)
        weak, negs = ent.label_weakly(rho, spec, range(3))
        nl = (negs > ent.NPT_THRESHOLD).astype(int)
        assert np.all(weak >= nl)

    def test_weak_ignores_pairs_with_traced_qubits(self):
        rng = np.random.default_rng(12)
        psi, _ = sg.random_circuit_state(2, False, rng)
        rho = np.outer(psi, psi.conj())
        # the only CU touches a qubit beyond the surviving register
        spec = sg.CircuitSpec(3, np.array([2]), np.array([0]), np.ones((1, 4)))
        labels, _ = ent.label_weakly(rho, spec, [0, 1])
        assert not labels.any()

    def test_weak_matches_pair_loop(self):
        """The array expression agrees with a loop over cu_pairs and cuts."""
        rng = np.random.default_rng(13)
        for _ in range(40):
            rho, spec = sg.traced_mixed_state(3, int(rng.integers(1, 3)), rng)
            surviving = [int(q) for q in rng.permutation(spec.num_qubits)[:3]]
            labels, negs = ent.label_weakly(rho, spec, surviving)
            want = (negs > ent.NPT_THRESHOLD).astype(np.uint8)
            state_qubit = {cq: sq for sq, cq in enumerate(surviving)}
            for i, bp in enumerate(ent.enumerate_bipartitions(3)):
                for a, b in map(tuple, spec.cu_pairs):
                    if a in state_qubit and b in state_qubit and (
                        (state_qubit[a] in bp.side_b) != (state_qubit[b] in bp.side_b)
                    ):
                        want[i] = 1
            assert np.array_equal(labels, want)

    def test_weak_rejects_bad_surviving_qubits(self):
        rho = np.outer(sg.ghz_state(3), sg.ghz_state(3).conj())
        spec = sg.CircuitSpec(4, np.array([2]), np.array([0]), np.ones((1, 4)))
        for surviving in ([0, 1], [0, 1, 4], [0, -1, 2], [0, 0, 1]):
            with pytest.raises(ValueError):
                ent.label_weakly(rho, spec, surviving)


class TestPermutedIndex:
    def test_identity(self):
        for j in (1, 2, 3):
            assert ent.permuted_bipartition_index(j, [0, 1, 2], 3) == j

    def test_swap_last_two(self):
        # swapping qubits 1 and 2 exchanges the single-qubit-B cuts
        perm = [0, 2, 1]
        assert ent.permuted_bipartition_index(1, perm, 3) == 2
        assert ent.permuted_bipartition_index(2, perm, 3) == 1
        assert ent.permuted_bipartition_index(3, perm, 3) == 3

    def test_complement_when_qubit0_lands_in_b(self):
        # B={q1} with qubit 0 <-> 1 swapped maps to B={q0}, canonically {q1,q2}
        assert ent.permuted_bipartition_index(1, [1, 0, 2], 3) == 3

    def test_composition(self):
        rng = np.random.default_rng(14)
        for n in (3, 4):
            for _ in range(50):
                sigma = [int(p) for p in rng.permutation(n)]
                tau = [int(p) for p in rng.permutation(n)]
                composed = [tau[sigma[q]] for q in range(n)]
                for j in range(1, ent.num_bipartitions(n) + 1):
                    two_step = ent.permuted_bipartition_index(
                        ent.permuted_bipartition_index(j, sigma, n), tau, n
                    )
                    assert two_step == ent.permuted_bipartition_index(j, composed, n)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ent.permuted_bipartition_index(0, [0, 1, 2], 3)
        with pytest.raises(ValueError):
            ent.permuted_bipartition_index(1, [0, 0, 2], 3)


class TestPptFamilies:
    @pytest.mark.parametrize("b", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_horodecki_properties(self, b):
        rho = ent.horodecki_state(b, 3)
        qcore.validate_density_matrix(rho)
        assert ent.negativity(rho, ent.horodecki_ppt_cut(3)) == 0.0

    def test_horodecki_other_cuts_certified(self):
        negs = ent.negativity_vector(ent.horodecki_state(0.5, 3))
        hidden = ent.horodecki_ppt_cut(3).index - 1
        for i, v in enumerate(negs):
            assert (v == 0) if i == hidden else (v > 1e-3)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_horodecki_scales(self, n):
        rho = ent.horodecki_state(0.4, n)
        qcore.validate_density_matrix(rho)
        assert ent.negativity(rho, ent.horodecki_ppt_cut(n)) == 0.0

    def test_horodecki_ppt_survives_local_rotation(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            rho = sg.randomize_local(ent.horodecki_state(0.6, 3), rng)
            assert ent.negativity(rho, ent.horodecki_ppt_cut(3)) < 1e-9

    def test_horodecki_rejects_bad_b(self):
        for b in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                ent.horodecki_state(b, 3)

    def test_acin_all_cuts_ppt(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            a, b, c = np.exp(rng.uniform(-1.2, 1.2, 3))
            rho = ent.acin_state(a, b, c)
            qcore.validate_density_matrix(rho)
            assert np.all(ent.negativity_vector(rho) < 1e-9)

    def test_acin_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ent.acin_state(0.0, 1.0, 1.0)

    def test_upb_members_orthonormal(self):
        members = ent.upb_members()
        gram = np.array([[np.vdot(u, v) for v in members] for u in members])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_upb_state_properties(self):
        rho = ent.upb_state()
        qcore.validate_density_matrix(rho)
        evs = qcore.hermitian_eigenvalues(rho)
        assert np.sum(evs > 1e-9) == 4  # rank 8 - 4
        assert np.all(ent.negativity_vector(rho) < 1e-9)
        # the basis members span the kernel
        for v in ent.upb_members():
            assert np.linalg.norm(rho @ v) < 1e-12

    def test_upb_randomized_stays_ppt(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rho = sg.randomize_local(ent.upb_state(), rng)
            assert np.all(ent.negativity_vector(rho) < 1e-9)

    def test_family_dispatch_and_validation(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError):
            ent.pptes_state("unknown", rng)
        with pytest.raises(ValueError):
            ent.pptes_state("acin", rng, n=4)
        labels = ent.pptes_defining_labels("horodecki", 4)
        assert labels.sum() == 1
        assert labels[ent.horodecki_ppt_cut(4).index - 1] == 1
        assert ent.pptes_defining_labels("upb").sum() == 3
