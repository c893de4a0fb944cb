"""Minimal reverse-mode autodiff over float32 or float64 numpy arrays.

Exactly the layers the classifiers need: valid-padding 2-D cross-correlation,
dense affine maps, ReLU, sigmoid, binary cross entropy, and a handful of
elementwise/reduction ops for composing consistency penalties.  Heavy
contractions are phrased as matrix products so BLAS does the work.

Graphs are built eagerly; ``backward()`` on a scalar accumulates gradients
into every reachable tensor with ``requires_grad`` and releases the graph as
it goes: once a node's gradient has been passed to its parents, the node
drops its backward closure and its parent links, so activations, masks and
im2col matrices are freed during the backward pass rather than when the
next step rebinds the loss.  A released graph cannot be differentiated
again.  No op mutates its inputs; gradients are cleared explicitly, and
``Adam.step`` updates the parameter arrays in place.

Convolutions are im2col products (Chellapilla, Puri & Simard 2006): the
forward pass is one GEMM over the unrolled input windows, and the input
gradient is one GEMM into window space followed by the col2im scatter-add
of each kernel offset into its shifted input slice.

Ops follow the dtype of their inputs: a float32 graph computes, stores its
gradients and keeps Adam's moments in float32, and a tensor made from
non-float data holds float64.
"""

import math
import struct
import zlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BCE_CLAMP = 1e-7

CHECKPOINT_MAGIC = b"QENM"
CHECKPOINT_VERSION = 2

_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


def _released(g):
    """Backward closure left on a node whose graph has been released."""
    raise RuntimeError("backward() already ran through this graph and released it")


class Tensor:
    """Array node of the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOATS else data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        # The first contribution is adopted as this tensor's gradient when the
        # op made g for this call alone (fresh).  Otherwise it is copied,
        # because g may be another node's gradient or a view of one.
        if self.grad is None:
            self.grad = g if fresh else np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-accumulate gradients from a scalar node, releasing the graph.

        Each node drops its backward closure and parent links right after
        passing its gradient on, so what the closure saved is freed as the
        pass proceeds.  Gradients stay on every tensor still referenced.
        Raises RuntimeError on a graph an earlier call released.
        """
        if self.data.size != 1:
            raise ValueError("backward() starts from a scalar loss")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node._backward = _released
                node._parents = ()

    # small composition helpers -------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, scalar):
        return scale(self, scalar)

    __rmul__ = __mul__

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _node(data, parents, backward) -> Tensor:
    """Result tensor; graph edges only where a parent can want gradients."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)

    return _node(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(-g)

    return _node(a.data - b.data, (a, b), bwd)


def scale(a: Tensor, scalar) -> Tensor:
    s = float(scalar)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(s * g)

    return _node(s * a.data, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape

    def bwd(g):
        if a.requires_grad:
            # copied in the input's memory order, so a channels-last conv
            # activation gets a channels-last gradient
            ga = np.empty_like(a.data)
            np.copyto(ga, g.reshape(orig))
            a.accumulate(ga, fresh=True)

    return _node(a.data.reshape(shape), (a,), bwd)


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * sign)

    return _node(np.abs(a.data), (a,), bwd)


def square(a: Tensor) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            a.accumulate(2.0 * g * a.data)

    return _node(np.square(a.data), (a,), bwd)


def mean(a: Tensor) -> Tensor:
    n = a.data.size

    def bwd(g):
        if a.requires_grad:
            a.accumulate(np.full_like(a.data, float(g) / n))

    return _node(np.array(a.data.mean()), (a,), bwd)


def take_columns(a: Tensor, idx) -> Tensor:
    """Reorder/select columns of a 2-D tensor (used for label-index remaps)."""
    idx = np.asarray(idx, dtype=np.intp)
    if a.data.ndim != 2:
        raise ValueError("take_columns expects a 2-D tensor")

    def bwd(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            np.add.at(ga, (slice(None), idx), g)
            a.accumulate(ga)

    return _node(a.data[:, idx], (a,), bwd)


def relu(a: Tensor) -> Tensor:
    """max(a, 0); negative zeros come out as +0.0.

    NaN inputs pass through as NaN (they are not zeroed), so a poisoned
    activation reaches :func:`bce_mean`, whose finite check raises.
    """
    mask = a.data > 0

    def bwd(g):
        if a.requires_grad:
            # in the input's memory order, as the mask is
            a.accumulate(np.multiply(g, mask, out=np.empty_like(a.data)), fresh=True)

    return _node(np.maximum(a.data, 0.0), (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * out * (1.0 - out))

    return _node(out, (a,), bwd)


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map: rows of x through weight matrix w plus bias b."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ValueError("dense expects x[B,F], w[F,U], b[U]")
    if x.data.shape[1] != w.data.shape[0] or w.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"dense: incompatible shapes x{x.data.shape} w{w.data.shape} b{b.data.shape}"
        )

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g @ w.data.T, fresh=True)
        if w.requires_grad:
            w.accumulate(x.data.T @ g, fresh=True)
        if b.requires_grad:
            b.accumulate(g.sum(axis=0))

    out = x.data @ w.data
    out += b.data
    return _node(out, (x, w, b), bwd)


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Valid-padding cross-correlation: x[B,C,H,W] * kernels[O,C,kh,kw] + bias[O].

    Output spatial size is (H-kh+1, W-kw+1).  The input gradient is the
    output gradient taken back to window space by one product with the
    kernels, then scatter-added offset by offset into shifted input slices
    (col2im).
    """
    if x.data.ndim != 4 or kernels.data.ndim != 4 or bias.data.ndim != 1:
        raise ValueError("conv2d expects x[B,C,H,W], kernels[O,C,kh,kw], bias[O]")
    bsz, c_in, h, w = x.data.shape
    c_out, c_k, kh, kw = kernels.data.shape
    if c_k != c_in:
        raise ValueError(f"conv2d: {c_in} input channels vs kernels for {c_k}")
    if bias.data.shape[0] != c_out:
        raise ValueError("conv2d: bias length must equal output channels")
    if kh > h or kw > w:
        raise ValueError(f"conv2d: kernel ({kh},{kw}) larger than input ({h},{w})")
    ho, wo = h - kh + 1, w - kw + 1

    cols = kh * kw * c_in
    # im2col with window columns ordered (kh, kw, C): conv outputs are laid out
    # channels-last in memory, so each window copies contiguous channel runs.
    win = sliding_window_view(x.data, (kh, kw), axis=(2, 3))
    wmat = win.transpose(0, 2, 3, 4, 5, 1).reshape(-1, cols)
    kmat = kernels.data.transpose(0, 2, 3, 1).reshape(c_out, cols)
    out = wmat @ kmat.T
    out += bias.data
    out = out.reshape(bsz, ho, wo, c_out).transpose(0, 3, 1, 2)

    def bwd(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        if kernels.requires_grad:
            gk = (gmat.T @ wmat).reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
            # same layout as the kernels, so Adam's elementwise passes run unstrided
            kernels.accumulate(np.ascontiguousarray(gk), fresh=True)
        if bias.requires_grad:
            bias.accumulate(gmat.sum(axis=0))
        if x.requires_grad:
            gcol = (gmat @ kmat).reshape(bsz, ho, wo, kh, kw, c_in)
            gx = np.zeros((bsz, h, w, c_in), dtype=x.data.dtype)
            for i in range(kh):
                for j in range(kw):
                    gx[:, i : i + ho, j : j + wo] += gcol[:, :, :, i, j]
            x.accumulate(gx.transpose(0, 3, 1, 2), fresh=True)

    return _node(out, (x, kernels, bias), bwd)


def bce_mean(p: Tensor, targets) -> Tensor:
    """Binary cross entropy averaged over every element.

    Probabilities are clamped to [BCE_CLAMP, 1 - BCE_CLAMP] before the logs;
    the clamp is treated as a hard gate in the backward pass.  Targets are
    cast to the dtype of ``p``, and the loss and gradient keep it.  Raises
    ArithmeticError when the loss comes out non-finite (NaN poisoning is
    caught here rather than mid-graph).
    """
    q = np.asarray(targets, dtype=p.data.dtype)
    if q.shape != p.data.shape:
        raise ValueError(f"bce_mean: targets {q.shape} vs predictions {p.data.shape}")
    pc = np.clip(p.data, BCE_CLAMP, 1.0 - BCE_CLAMP)
    loss = -(q * np.log(pc) + (1.0 - q) * np.log(1.0 - pc)).mean()
    if not np.isfinite(loss):
        raise ArithmeticError("binary cross entropy is not finite")

    def bwd(g):
        if p.requires_grad:
            inside = (p.data > BCE_CLAMP) & (p.data < 1.0 - BCE_CLAMP)
            grad = np.where(inside, -(q / pc - (1.0 - q) / (1.0 - pc)), 0.0)
            p.accumulate(float(g) * grad / q.size)

    return _node(np.array(loss), (p,), bwd)


class Adam:
    """Adaptive-moment gradient descent over a fixed parameter list (Kingma & Ba 2015).

    ``step`` updates the moments and every parameter's ``data`` array in
    place, so references to those arrays see the new values.  The moments
    take each parameter's dtype.  The only temporary is one scratch buffer,
    sized in bytes to the largest parameter, shared by all of them and
    viewed at each one's dtype; it lives for one step, so it adds nothing
    to the memory held while the next batch runs.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        scratch = np.empty(max((m.nbytes for m in self._m), default=0), dtype=np.uint8)
        for p, m, v in zip(self.params, self._m, self._v):
            g = 0.0 if p.grad is None else p.grad
            s = scratch[: m.nbytes].view(m.dtype).reshape(m.shape)
            np.multiply(g, 1.0 - self.beta1, out=s)
            m *= self.beta1
            m += s
            np.square(g, out=s)
            s *= 1.0 - self.beta2
            v *= self.beta2
            v += s
            np.divide(v, c2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, s, out=s)
            s *= self.lr / c1
            p.data -= s

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def save_params(path, arrays) -> None:
    """Write arrays as float64 with a CRC-32 tail; round-trips bit-exactly.

    float32 arrays are upcast, which is exact, so they also come back
    bit for bit once cast down again.
    """
    blob = [struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(arrays))]
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<f8")
        blob.append(struct.pack(f"<I{a.ndim}I", a.ndim, *a.shape))
        blob.append(a.tobytes())
    blob = b"".join(blob)
    with open(path, "wb") as f:
        f.write(blob)
        f.write(struct.pack("<I", zlib.crc32(blob)))


def load_params(path) -> list:
    """Read a checkpoint's arrays as float64.

    Raises ValueError naming the fault: bad magic, another version, a
    structure that runs past the file (truncated), trailing bytes, or a
    checksum mismatch.  The structure is checked before the checksum.
    """
    with open(path, "rb") as f:
        raw = f.read()
    head = struct.calcsize("<4sII")
    if len(raw) < head:
        raise ValueError(f"{path}: not a checkpoint (too short)")
    magic, version, n_arrays = struct.unpack_from("<4sII", raw)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    end = len(raw) - 4  # the CRC tail
    if end < head:
        raise ValueError(f"{path}: checkpoint truncated")

    def unpack(fmt, off):
        if off + struct.calcsize(fmt) > end:
            raise ValueError(f"{path}: checkpoint truncated")
        return struct.unpack_from(fmt, raw, off)

    arrays = []
    off = head
    for _ in range(n_arrays):
        (ndim,) = unpack("<I", off)
        shape = unpack(f"<{ndim}I", off + 4)
        off += 4 + 4 * ndim
        count = math.prod(shape)
        if off + 8 * count > end:
            raise ValueError(f"{path}: checkpoint truncated")
        arrays.append(
            np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(shape).copy()
        )
        off += 8 * count
    if off != end:
        raise ValueError(f"{path}: {end - off} trailing bytes")
    (crc_stored,) = struct.unpack_from("<I", raw, end)
    if zlib.crc32(memoryview(raw)[:end]) != crc_stored:
        raise ValueError(f"{path}: checkpoint checksum mismatch")
    return arrays
