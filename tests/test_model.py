import numpy as np
import pytest

from qent import autograd as ag
from qent import entanglement as ent
from qent import model as mdl
from qent import stategen as sg


def small_arch(n=3):
    # narrow head keeps unit tests quick; shape logic is identical
    return mdl.ArchConfig(n_qubits=n, r1=4.0, fc_layers=2, fc_units=16)


def bce_oracle(probs, labels, eps=1e-7):
    """Scalar reimplementation of the clamped mean cross entropy."""
    total = 0.0
    n, m = probs.shape
    for i in range(n):
        for j in range(m):
            p = min(max(probs[i, j], eps), 1 - eps)
            q = labels[i, j]
            total += q * np.log(p) + (1 - q) * np.log(1 - p)
    return -total / (n * m)


class TestArchConfig:
    def test_default_channel_recurrence(self):
        arch = mdl.ArchConfig(n_qubits=3)
        assert arch.channel_widths() == [32, 128, 256]
        assert arch.spatial_sizes() == [8, 7, 6, 5]
        assert arch.flatten_size == 6400

    def test_output_lengths_by_qubits(self):
        assert [mdl.ArchConfig(n_qubits=n).num_outputs for n in (3, 4, 5)] == [3, 7, 15]

    def test_r1_changes_widths_exactly(self):
        arch = mdl.ArchConfig(n_qubits=3, r1=9.0)
        # floor(9*2)=18, floor(3*18)=54, floor(sqrt(3)*54)=93
        assert arch.channel_widths() == [18, 54, 93]

    def test_spatial_underflow_rejected(self):
        with pytest.raises(ValueError):
            mdl.ArchConfig(n_qubits=2, conv_layers=3, kernel=3).validate()

    def test_kernel3_depth3_fits_eight(self):
        mdl.ArchConfig(n_qubits=3, conv_layers=3, kernel=3).validate()


class TestEncode:
    def test_real_diagonal_empty_imag_channel(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        x = mdl.encode_input(rho)
        assert x.shape == (2, 4, 4)
        assert np.all(x[1] == 0)

    def test_hermiticity_relation(self):
        rng = np.random.default_rng(0)
        rho, _ = sg.traced_mixed_state(2, 1, rng)
        x = mdl.encode_input(rho)
        assert np.allclose(x[0], x[0].T)
        assert np.allclose(x[1], -x[1].T)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        rho, _ = sg.traced_mixed_state(3, 1, rng)
        assert np.array_equal(mdl.decode_input(mdl.encode_input(rho)), rho)

    def test_batch_shape(self):
        rng = np.random.default_rng(2)
        rhos = np.stack([sg.kron_separable_mixed(3, rng) for _ in range(4)])
        assert mdl.encode_batch(rhos).shape == (4, 2, 8, 8)


class TestForward:
    def test_probabilities_in_open_interval(self):
        model = mdl.build_cnn(small_arch(), seed=0)
        rng = np.random.default_rng(3)
        p = mdl.predict(model, sg.kron_separable_mixed(3, rng))
        assert p.shape == (3,)
        assert np.all((p > 0) & (p < 1))

    def test_deterministic_forward(self):
        model = mdl.build_cnn(small_arch(), seed=0)
        rho = ent.upb_state()
        assert np.array_equal(mdl.predict(model, rho), mdl.predict(model, rho))

    def test_wrong_register_size_rejected(self):
        model = mdl.build_cnn(small_arch(), seed=0)
        with pytest.raises(ValueError):
            mdl.predict(model, np.eye(16, dtype=complex) / 16)

    def test_same_seed_same_init(self):
        a = mdl.build_cnn(small_arch(), seed=5)
        b = mdl.build_cnn(small_arch(), seed=5)
        for pa, pb in zip(a.param_arrays(), b.param_arrays()):
            assert np.array_equal(pa, pb)


class TestLosses:
    @pytest.fixture()
    def batch(self):
        rng = np.random.default_rng(4)
        rhos, labels = [], []
        for _ in range(6):
            rho, _ = sg.traced_mixed_state(3, 1, rng)
            lab, _ = ent.label_by_negativity(rho)
            rhos.append(rho)
            labels.append(lab)
        return mdl.encode_batch(np.stack(rhos)), np.stack(labels).astype(float)

    def test_cnn_loss_matches_scalar_oracle(self, batch):
        x, q = batch
        model = mdl.build_cnn(small_arch(), seed=1)
        got = mdl.cnn_loss(model, x, q).item()
        probs = mdl.predict_encoded(model, x)
        assert abs(got - bce_oracle(probs, q)) < 1e-12

    def test_constant_half_is_log_two(self):
        q = np.array([[0.0, 1.0, 1.0]])
        loss = ag.bce_mean(ag.Tensor(np.full((1, 3), 0.5)), q).item()
        assert abs(loss - np.log(2)) < 1e-12

    def test_siamese_zero_weights_equals_cnn(self, batch):
        x, q = batch
        model = mdl.build_cnn(small_arch(), seed=1)
        rng = np.random.default_rng(5)
        assert mdl.siamese_loss(model, x, q, 0.0, 0.0, rng).item() == mdl.cnn_loss(model, x, q).item()

    def test_siamese_identity_transforms_add_nothing(self, batch):
        x, q = batch

        class IdentityDraws:
            def uniform(self, lo, hi, size=None):
                return np.zeros(size)

            def permutation(self, n):
                return np.arange(n)

        model = mdl.build_cnn(small_arch(), seed=1)
        base = mdl.cnn_loss(model, x, q).item()
        got = mdl.siamese_loss(model, x, q, 0.7, 0.3, IdentityDraws()).item()
        assert abs(got - base) < 1e-12

    def test_siamese_dominates_cnn_term(self, batch):
        x, q = batch
        model = mdl.build_cnn(small_arch(), seed=1)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            base = mdl.cnn_loss(model, x, q).item()
            assert mdl.siamese_loss(model, x, q, 0.5, 0.5, rng).item() >= base

    def test_siamese_consistency_targets_permuted_indices(self, batch):
        x, q = batch
        model = mdl.build_cnn(small_arch(), seed=1)

        class FixedPerm:
            def __init__(self, perm):
                self._perm = np.array(perm)

            def uniform(self, lo, hi, size=None):
                return np.zeros(size)

            def permutation(self, n):
                return self._perm

        perm = [0, 2, 1]
        got = mdl.siamese_loss(model, x, q, 0.0, 1.0, FixedPerm(perm)).item()
        p1 = mdl.predict_encoded(model, x)
        p3 = mdl.predict_encoded(model, mdl.permute_batch(x, perm))
        remap = [ent.permuted_bipartition_index(j, perm, 3) - 1 for j in (1, 2, 3)]
        want = bce_oracle(p1, q) + np.abs(p1 - p3[:, remap]).mean()
        assert abs(got - want) < 1e-12

    def test_locc_batch_is_unitary_conjugation(self, batch):
        x, _ = batch
        rng = np.random.default_rng(6)
        v = sg.random_local_unitary(3, rng)
        out = mdl.locc_batch(x, v)
        direct = v @ mdl.decode_input(x[0]) @ v.conj().T
        assert np.max(np.abs(mdl.decode_input(out[0]) - direct)) < 1e-12

    def test_gradients_flow_through_all_branches(self, batch):
        x, q = batch
        model = mdl.build_cnn(small_arch(), seed=1)
        loss = mdl.siamese_loss(model, x, q, 0.5, 0.5, np.random.default_rng(7))
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())


class TestCheckpointing:
    def test_save_load_round_trip(self, tmp_path):
        model = mdl.build_cnn(small_arch(), seed=2)
        path = tmp_path / "model.ckpt"
        mdl.save_model(model, path)
        back = mdl.load_model(path)
        assert back.arch == model.arch
        for a, b in zip(model.param_arrays(), back.param_arrays()):
            assert np.array_equal(a, b)
        rho = ent.upb_state()
        assert np.array_equal(mdl.predict(model, rho), mdl.predict(back, rho))

    @pytest.mark.parametrize(
        "edit,key",
        [
            (lambda text: text.replace("fc_units=", "units="), "fc_units"),
            (lambda text: text.replace("kernel=2", "kernel=two"), "kernel"),
        ],
    )
    def test_malformed_sidecar_names_key(self, tmp_path, edit, key):
        path = tmp_path / "model.ckpt"
        mdl.save_model(mdl.build_cnn(small_arch(), seed=2), path)
        sidecar = tmp_path / "model.ckpt.arch"
        sidecar.write_text(edit(sidecar.read_text()))
        with pytest.raises(ValueError, match=key):
            mdl.load_model(path)
