import struct
import weakref

import numpy as np
import pytest

from qent import autograd as ag
from qent import model as mdl

EPS = 1e-5
REL_TOL = 1e-4


def finite_diff_check(build_loss, params, rng, probes=4):
    """Central finite differences against analytic gradients at random entries."""
    for p in params:
        p.zero_grad()
    loss = build_loss()
    loss.backward()
    grads = [p.grad.copy() for p in params]
    for p, g in zip(params, grads):
        flat = p.data.reshape(-1)
        idxs = rng.choice(flat.size, size=min(probes, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + EPS
            hi = build_loss().item()
            flat[i] = orig - EPS
            lo = build_loss().item()
            flat[i] = orig
            fd = (hi - lo) / (2 * EPS)
            an = g.reshape(-1)[i]
            denom = max(abs(fd), abs(an), 1e-8)
            assert abs(fd - an) / denom < REL_TOL, (fd, an)


def rand_tensor(rng, shape, scale=1.0, grad=True):
    return ag.Tensor(rng.normal(size=shape) * scale, requires_grad=grad)


class TestElementwise:
    def test_relu_values(self):
        t = ag.relu(ag.Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(t.data, [0.0, 0.0, 2.0])

    def test_sigmoid_values(self):
        t = ag.sigmoid(ag.Tensor([0.0, 10.0, -10.0]))
        assert t.data[0] == 0.5
        assert 0.0 < t.data[2] < t.data[1] < 1.0

    def test_square_values_and_grad(self):
        x = ag.Tensor([-2.0, 3.0], requires_grad=True)
        out = ag.mean(ag.square(x))
        assert np.array_equal(out.data, np.array(6.5))
        out.backward()
        assert np.allclose(x.grad, [-2.0, 3.0])

    def test_relu_zeros_are_positive(self):
        t = ag.relu(ag.Tensor([-0.0, 0.0, -1.0, 2.0]))
        assert np.array_equal(t.data, [0.0, 0.0, 0.0, 2.0])
        assert not np.signbit(t.data).any()

    def test_relu_passes_nan_to_bce_check(self):
        h = ag.relu(ag.Tensor([[np.nan, 1.0]]))
        assert np.isnan(h.data[0, 0])
        with pytest.raises(ArithmeticError):
            ag.bce_mean(ag.sigmoid(h), np.array([[1.0, 0.0]]))

    def test_inputs_not_mutated(self):
        x = ag.Tensor([-1.0, 2.0], requires_grad=True)
        snapshot = x.data.copy()
        out = ag.mean(ag.absolute(ag.sigmoid(ag.relu(x))))
        out.backward()
        assert np.array_equal(x.data, snapshot)


class TestDense:
    def test_identity_weights(self):
        x = ag.Tensor([[1.0, 2.0], [3.0, 4.0]])
        w = ag.Tensor(np.eye(2))
        b = ag.Tensor(np.zeros(2))
        assert np.array_equal(ag.dense(x, w, b).data, x.data)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ag.dense(ag.Tensor(np.ones((2, 3))), ag.Tensor(np.ones((2, 2))), ag.Tensor(np.ones(2)))


class TestConv2d:
    def test_one_by_one_identity(self):
        rng = np.random.default_rng(0)
        x = ag.Tensor(rng.normal(size=(2, 1, 4, 4)))
        k = ag.Tensor(np.ones((1, 1, 1, 1)))
        b = ag.Tensor(np.zeros(1))
        assert np.allclose(ag.conv2d(x, k, b).data, x.data)

    def test_stacked_spatial_sizes(self):
        rng = np.random.default_rng(1)
        h = ag.Tensor(rng.normal(size=(1, 2, 8, 8)))
        sizes = []
        for c_in, c_out in ((2, 3), (3, 4), (4, 5)):
            h = ag.conv2d(h, rand_tensor(rng, (c_out, c_in, 2, 2), grad=False), ag.Tensor(np.zeros(c_out)))
            sizes.append(h.shape[2])
        assert sizes == [7, 6, 5]

    def test_hand_computed_window(self):
        x = ag.Tensor(np.arange(9, dtype=float).reshape(1, 1, 3, 3))
        k = ag.Tensor(np.array([[[[1.0, 0.0], [0.0, 1.0]]]]))
        b = ag.Tensor(np.array([1.0]))
        # windows [[0,1,3,4],[1,2,4,5],[3,4,6,7],[4,5,7,8]] dotted with diag mask
        want = np.array([[0 + 4, 1 + 5], [3 + 7, 4 + 8]], dtype=float) + 1.0
        assert np.array_equal(ag.conv2d(x, k, b).data[0, 0], want)

    def test_rejects_oversized_kernel(self):
        with pytest.raises(ValueError):
            ag.conv2d(
                ag.Tensor(np.zeros((1, 1, 2, 2))),
                ag.Tensor(np.zeros((1, 1, 3, 3))),
                ag.Tensor(np.zeros(1)),
            )

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 5, 6))
        k = rng.normal(size=(4, 3, 2, 2))
        b = rng.normal(size=4)
        got = ag.conv2d(ag.Tensor(x), ag.Tensor(k), ag.Tensor(b)).data
        want = np.zeros((2, 4, 4, 5))
        for bi in range(2):
            for o in range(4):
                for i in range(4):
                    for j in range(5):
                        want[bi, o, i, j] = (
                            np.sum(x[bi, :, i : i + 2, j : j + 2] * k[o]) + b[o]
                        )
        assert np.max(np.abs(got - want)) < 1e-12


def naive_conv_grads(x, k, g):
    """Kernel and input gradients of sum(conv2d(x, k) * g) by explicit loops."""
    bsz, c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    ho, wo = h - kh + 1, w - kw + 1
    gk = np.zeros_like(k)
    gx = np.zeros_like(x)
    for b in range(bsz):
        for o in range(c_out):
            for c in range(c_in):
                for a in range(kh):
                    for e in range(kw):
                        for i in range(ho):
                            for j in range(wo):
                                gk[o, c, a, e] += g[b, o, i, j] * x[b, c, i + a, j + e]
                                gx[b, c, i + a, j + e] += g[b, o, i, j] * k[o, c, a, e]
    return gk, gx


class TestConv2dGradients:
    @pytest.mark.parametrize(
        "x_shape,k_shape",
        [
            ((2, 3, 4, 5), (4, 3, 2, 3)),  # non-square kernel
            ((2, 3, 4, 5), (2, 3, 1, 1)),  # 1x1 kernel
            ((3, 2, 3, 4), (2, 2, 3, 4)),  # kernel covers the whole input
        ],
    )
    def test_matches_naive_loops(self, x_shape, k_shape):
        rng = np.random.default_rng(60)
        x = rand_tensor(rng, x_shape)
        k = rand_tensor(rng, k_shape)
        b = rand_tensor(rng, (k_shape[0],))
        out = ag.conv2d(x, k, b)
        g = rng.normal(size=out.shape)
        # sum(out * g) as a 1x1 dense product, so d loss / d out is exactly g
        flat = out.reshape((1, -1))
        ag.dense(flat, ag.Tensor(g.reshape(-1, 1)), ag.Tensor(np.zeros(1))).reshape(()).backward()
        want_k, want_x = naive_conv_grads(x.data, k.data, g)
        assert np.max(np.abs(k.grad - want_k)) < 1e-12
        assert np.max(np.abs(x.grad - want_x)) < 1e-12
        assert np.max(np.abs(b.grad - g.sum(axis=(0, 2, 3)))) < 1e-12


class TestGradients:
    @pytest.mark.parametrize("trial", range(6))
    def test_conv2d_finite_diff(self, trial):
        rng = np.random.default_rng(10 + trial)
        bsz, c_in, c_out = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 4)
        h = int(rng.integers(3, 7))
        k = int(rng.integers(1, 3))
        x = rand_tensor(rng, (bsz, c_in, h, h))
        kern = rand_tensor(rng, (c_out, c_in, k, k), 0.5)
        bias = rand_tensor(rng, (c_out,), 0.2)
        w = rand_tensor(rng, ((h - k + 1) ** 2 * c_out, 3), 0.3)
        q = (rng.random((int(bsz), 3)) > 0.5).astype(float)

        def loss():
            hmid = ag.relu(ag.conv2d(x, kern, bias))
            flat = hmid.reshape((int(bsz), -1))
            return ag.bce_mean(ag.sigmoid(ag.dense(flat, w, ag.Tensor(np.zeros(3)))), q)

        finite_diff_check(loss, [x, kern, bias, w], rng)

    @pytest.mark.parametrize("trial", range(6))
    def test_dense_chain_finite_diff(self, trial):
        rng = np.random.default_rng(30 + trial)
        x = rand_tensor(rng, (4, 6))
        w1 = rand_tensor(rng, (6, 5), 0.5)
        b1 = rand_tensor(rng, (5,), 0.2)
        w2 = rand_tensor(rng, (5, 2), 0.5)
        b2 = rand_tensor(rng, (2,), 0.2)
        q = (rng.random((4, 2)) > 0.5).astype(float)

        def loss():
            hmid = ag.relu(ag.dense(x, w1, b1))
            return ag.bce_mean(ag.sigmoid(ag.dense(hmid, w2, b2)), q)

        finite_diff_check(loss, [x, w1, b1, w2, b2], rng)

    def test_abs_mean_and_columns_finite_diff(self):
        rng = np.random.default_rng(50)
        a = rand_tensor(rng, (5, 3))
        b = rand_tensor(rng, (5, 3))
        idx = np.array([2, 0, 1])

        def loss():
            return ag.mean(ag.absolute(a - ag.take_columns(b, idx)))

        finite_diff_check(loss, [a, b], rng, probes=6)

    def test_additive_accumulation_two_paths(self):
        rng = np.random.default_rng(51)
        x = rand_tensor(rng, (3, 3))
        y1 = ag.mean(ag.absolute(x))
        y2 = ag.mean(x)
        total = y1 + y2
        total.backward()
        two_path = x.grad.copy()
        x.zero_grad()
        ag.mean(ag.absolute(x)).backward()
        first = x.grad.copy()
        x.zero_grad()
        ag.mean(x).backward()
        second = x.grad.copy()
        assert np.allclose(two_path, first + second)

    def test_shared_parameters_sum_branch_gradients(self):
        rng = np.random.default_rng(53)
        x = rand_tensor(rng, (4, 3))
        w = rand_tensor(rng, (3, 2))
        b = rand_tensor(rng, (2,))

        def branch():
            return ag.mean(ag.relu(ag.dense(x, w, b)))

        (branch() + 3.0 * branch()).backward()
        both = [t.grad.copy() for t in (x, w, b)]
        for t in (x, w, b):
            t.zero_grad()
        branch().backward()
        for t, g in zip((x, w, b), both):
            assert np.allclose(g, 4.0 * t.grad, rtol=1e-14, atol=0.0)

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            ag.Tensor(np.ones(3), requires_grad=True).backward()


class TestBce:
    def test_perfect_predictions_tiny_loss(self):
        q = np.array([[0.0, 1.0]])
        p = ag.Tensor(q.copy())
        loss = ag.bce_mean(p, q).item()
        assert 0 <= loss <= 2e-7  # clamp floor: -log(1 - 1e-7)

    def test_coin_flip_is_log_two(self):
        q = np.array([[0.0, 1.0], [1.0, 0.0]])
        loss = ag.bce_mean(ag.Tensor(np.full((2, 2), 0.5)), q).item()
        assert abs(loss - np.log(2)) < 1e-12

    def test_gradient_matches_finite_diff(self):
        rng = np.random.default_rng(52)
        p = ag.Tensor(rng.uniform(0.05, 0.95, size=(4, 3)), requires_grad=True)
        q = (rng.random((4, 3)) > 0.5).astype(float)
        finite_diff_check(lambda: ag.bce_mean(p, q), [p], rng, probes=6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ag.bce_mean(ag.Tensor(np.full((1, 2), 0.5)), np.zeros((2, 2)))

    def test_non_finite_raises(self):
        p = ag.Tensor(np.array([[np.nan]]))
        with pytest.raises(ArithmeticError):
            ag.bce_mean(p, np.array([[1.0]]))

    def test_clamp_gates_in_float32(self):
        # 1 - 1e-7 rounds to 1 - 2**-23 in float32, still below 1
        assert np.float32(1.0 - ag.BCE_CLAMP) == 1.0 - 2.0**-23
        for q in ([[0.0, 1.0]], [[1.0, 0.0]]):
            p = ag.Tensor(np.array([[0.0, 1.0]], dtype=np.float32), requires_grad=True)
            loss = ag.bce_mean(p, np.array(q))
            assert loss.data.dtype == np.float32 and np.isfinite(loss.item())
            loss.backward()
            assert p.grad.dtype == np.float32 and np.array_equal(p.grad, [[0.0, 0.0]])


class TestAdam:
    def test_zero_gradient_no_motion(self):
        p = ag.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        before = p.data.copy()
        opt = ag.Adam([p], lr=0.1)
        for _ in range(5):
            opt.step()
        assert np.max(np.abs(p.data - before)) < 1e-12

    def test_quadratic_convergence(self):
        p = ag.Tensor(np.array([3.0]), requires_grad=True)
        opt = ag.Adam([p], lr=3e-2)
        for _ in range(500):
            loss = ag.mean(ag.square(p - ag.Tensor(np.array([1.0]))))
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert abs(p.data[0] - 1.0) < 1e-3

    def test_deterministic_runs(self):
        def run():
            rng = np.random.default_rng(7)
            p = ag.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            opt = ag.Adam([p], lr=1e-3)
            x = ag.Tensor(rng.normal(size=(4, 4)))
            for _ in range(50):
                loss = ag.mean(ag.absolute(p - x))
                opt.zero_grad()
                loss.backward()
                opt.step()
            return p.data

        assert np.array_equal(run(), run())

    def test_bit_equal_to_textbook_reference(self):
        rng = np.random.default_rng(61)
        shapes = [(3, 4), (5,), (2, 2, 2)]
        # parameters start small next to the steps, so every rounding of the
        # update shows in their bits
        params = [ag.Tensor(1e-4 * rng.normal(size=s), requires_grad=True) for s in shapes]
        lr, b1, b2, eps = 0.0123, 0.85, 0.995, 1e-3
        opt = ag.Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        ref_p = [p.data.copy() for p in params]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        for t in range(1, 6):
            grads = [rng.normal(size=s) for s in shapes]
            grads[1] = None  # a parameter the loss did not reach
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            for i, g in enumerate(grads):
                g = np.zeros(shapes[i]) if g is None else g
                ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
                ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * g**2
                v_hat = ref_v[i] / (1.0 - b2**t)
                ref_p[i] = ref_p[i] - ref_m[i] / (np.sqrt(v_hat) + eps) * (lr / (1.0 - b1**t))
            for p, want in zip(params, ref_p):
                assert np.array_equal(p.data, want)

    def test_updates_parameter_arrays_in_place(self):
        p = ag.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        held = p.data
        p.grad = np.array([1.0, -1.0])
        ag.Adam([p], lr=0.1).step()
        assert p.data is held
        assert not np.array_equal(held, [1.0, 2.0])


def tiny_model(seed=1):
    return mdl.build_cnn(mdl.ArchConfig(n_qubits=3, r1=4.0, fc_layers=2, fc_units=16), seed=seed)


def encoded_batch(rows, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 2, 8, 8))
    q = (rng.random((rows, 3)) > 0.5).astype(np.float64)
    return x, q


def batch_loss(model, kind, x, q, rng):
    if kind == "cnn":
        return mdl.cnn_loss(model, x, q)
    return mdl.siamese_loss(model, x, q, 0.5, 0.5, rng)


class TestReleasedGraph:
    @pytest.mark.parametrize("kind", ["cnn", "siamese"])
    def test_inner_activations_freed_by_backward(self, kind, monkeypatch):
        made = []
        relu = ag.relu

        def recording_relu(a):
            out = relu(a)
            made.append((weakref.ref(out), weakref.ref(out.data)))
            return out

        monkeypatch.setattr(ag, "relu", recording_relu)
        model = tiny_model()
        x, q = encoded_batch(8)
        loss = batch_loss(model, kind, x, q, np.random.default_rng(2))
        assert made and all(t() is not None for t, _ in made)  # the graph holds them
        loss.backward()
        assert all(t() is None and d() is None for t, d in made)

    def test_second_backward_raises(self):
        model = tiny_model()
        x, q = encoded_batch(4)
        loss = mdl.cnn_loss(model, x, q)
        loss.backward()
        grads = [p.grad.copy() for p in model.parameters()]
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        assert all(np.array_equal(p.grad, g) for p, g in zip(model.parameters(), grads))

    def test_released_node_in_a_new_graph_raises(self):
        x = ag.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        h = ag.square(x)
        ag.mean(h).backward()
        with pytest.raises(RuntimeError, match="released"):
            ag.mean(ag.absolute(h)).backward()

    def test_leaf_and_parameter_gradients_stay_readable(self):
        rng = np.random.default_rng(71)
        x = rand_tensor(rng, (5, 3))
        w = rand_tensor(rng, (3, 2))
        b = rand_tensor(rng, (2,))
        ag.mean(ag.relu(ag.dense(x, w, b))).backward()
        g = (x.data @ w.data + b.data > 0) / 10.0  # d mean / d pre-activation
        assert np.allclose(x.grad, g @ w.data.T, rtol=1e-14, atol=0.0)
        assert np.allclose(w.grad, x.data.T @ g, rtol=1e-14, atol=0.0)
        assert np.allclose(b.grad, g.sum(axis=0), rtol=1e-14, atol=0.0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        arrays = [rng.normal(size=s) for s in ((3, 4), (7,), (2, 2, 2, 2))]
        arrays.append(rng.normal(size=(5, 4)).astype(np.float32))  # upcast to <f8 exactly
        path = tmp_path / "p.ckpt"
        ag.save_params(path, arrays)
        back = ag.load_params(path)
        assert len(back) == 4
        for a, b in zip(arrays, back):
            assert a.shape == b.shape and b.dtype == np.float64
            assert np.array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            ag.load_params(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(9)
        path = tmp_path / "p.ckpt"
        ag.save_params(path, [rng.normal(size=(2, 3)), rng.normal(size=(4,))])
        raw = path.read_bytes()
        for cut in range(len(raw)):  # inside the header, an array header or a payload
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError):
                ag.load_params(path)
        path.write_bytes(raw[:8] + struct.pack("<I", 99) + raw[12:])  # array count too large
        with pytest.raises(ValueError, match="truncated"):
            ag.load_params(path)
        ndim = 12  # first array's ndim
        path.write_bytes(raw[:ndim] + struct.pack("<I", 2**32 - 1) + raw[ndim + 4 :])
        with pytest.raises(ValueError, match="truncated"):
            ag.load_params(path)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "p.ckpt"
        ag.save_params(path, [np.arange(6.0).reshape(2, 3)])
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0x01  # last payload byte, just before the CRC tail
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="checksum"):
            ag.load_params(path)

    def test_version_1_raises_version_error(self, tmp_path):
        # version 1: the same layout without the CRC tail
        a = np.arange(3.0)
        path = tmp_path / "v1.ckpt"
        path.write_bytes(
            struct.pack("<4sIIII", ag.CHECKPOINT_MAGIC, 1, 1, 1, 3) + a.astype("<f8").tobytes()
        )
        with pytest.raises(ValueError, match="version 1, expected 2"):
            ag.load_params(path)
