"""CNN entanglement classifier and its triple-branch symmetry-regularized loss.

The network maps a density matrix, split into real and imaginary channels,
through a stack of 2x2 valid convolutions whose widths grow by a square-root
decaying ratio, then through a fully-connected head onto one sigmoid output
per bipartition.

The Siamese variant runs the same (single-copy) parameters on an original
batch, a locally rotated batch and a qubit-permuted batch, and penalizes
prediction differences; permuting qubits also permutes which output index
refers to which bipartition, so the comparison re-indexes the outputs.
"""

from dataclasses import dataclass, fields
from math import sqrt

import numpy as np

from . import autograd as ag
from .dataset import read_kv, write_kv
from .entanglement import num_bipartitions, permuted_bipartition_index
from .qcore import num_qubits, permute_qubits
from .stategen import random_local_unitary


@dataclass
class ArchConfig:
    """Shape of the classifier; defaults follow the reference architecture."""

    n_qubits: int
    conv_layers: int = 3
    kernel: int = 2
    r1: float = 16.0
    fc_layers: int = 5
    fc_units: int = 128

    @property
    def input_dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def num_outputs(self) -> int:
        return num_bipartitions(self.n_qubits)

    def channel_widths(self) -> list:
        """Conv widths: c_i = floor(r_i * c_{i-1}) with r_i = sqrt(r_{i-1}), c_0 = 2."""
        widths = []
        c, r = 2, self.r1
        for _ in range(self.conv_layers):
            c = int(r * c)
            widths.append(c)
            r = sqrt(r)
        return widths

    def spatial_sizes(self) -> list:
        sizes = [self.input_dim]
        for _ in range(self.conv_layers):
            sizes.append(sizes[-1] - self.kernel + 1)
        return sizes

    @property
    def flatten_size(self) -> int:
        side = self.spatial_sizes()[-1]
        return side * side * self.channel_widths()[-1]

    def validate(self) -> None:
        if self.n_qubits < 2:
            raise ValueError("need at least 2 qubits")
        if self.conv_layers < 1 or self.kernel < 1 or self.fc_layers < 1:
            raise ValueError("layer counts and kernel size must be positive")
        if self.spatial_sizes()[-1] < 1:
            raise ValueError(
                f"{self.conv_layers} conv layers with kernel {self.kernel} underflow "
                f"a {self.input_dim}x{self.input_dim} input"
            )


@dataclass
class TrainConfig:
    """Knobs of a training run; consistency weights only matter to the Siamese loss."""

    epochs: int
    seed: int
    batch_size: int = 64
    learning_rate: float = 1e-3
    lambda1: float = 0.5
    lambda2: float = 0.5

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("consistency weights must be nonnegative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")


class CnnClassifier:
    """Convolutional classifier with one sigmoid output per bipartition."""

    def __init__(self, arch: ArchConfig, seed: int):
        arch.validate()
        self.arch = arch
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9,)))

        def init(shape, fan_in):
            bound = sqrt(1.0 / fan_in)
            return ag.Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

        k = arch.kernel
        self.conv_kernels, self.conv_biases = [], []
        c_prev = 2
        for c in arch.channel_widths():
            fan = c_prev * k * k
            self.conv_kernels.append(init((c, c_prev, k, k), fan))
            self.conv_biases.append(init((c,), fan))
            c_prev = c
        self.fc_weights, self.fc_biases = [], []
        f_prev = arch.flatten_size
        for _ in range(arch.fc_layers):
            self.fc_weights.append(init((f_prev, arch.fc_units), f_prev))
            self.fc_biases.append(init((arch.fc_units,), f_prev))
            f_prev = arch.fc_units
        self.out_weight = init((f_prev, arch.num_outputs), f_prev)
        self.out_bias = init((arch.num_outputs,), f_prev)

    @property
    def n_qubits(self) -> int:
        return self.arch.n_qubits

    def parameters(self) -> list:
        params = []
        for kern, b in zip(self.conv_kernels, self.conv_biases):
            params += [kern, b]
        for w, b in zip(self.fc_weights, self.fc_biases):
            params += [w, b]
        params += [self.out_weight, self.out_bias]
        return params

    def forward(self, x: ag.Tensor) -> ag.Tensor:
        """Probabilities for a [B, 2, K, K] channel batch."""
        if x.shape[1:] != (2, self.arch.input_dim, self.arch.input_dim):
            raise ValueError(
                f"expected input [B, 2, {self.arch.input_dim}, {self.arch.input_dim}], got {x.shape}"
            )
        h = x
        for kern, b in zip(self.conv_kernels, self.conv_biases):
            h = ag.relu(ag.conv2d(h, kern, b))
        h = h.reshape((h.shape[0], -1))
        for w, b in zip(self.fc_weights, self.fc_biases):
            h = ag.relu(ag.dense(h, w, b))
        return ag.sigmoid(ag.dense(h, self.out_weight, self.out_bias))

    def param_arrays(self) -> list:
        return [p.data for p in self.parameters()]

    def set_param_arrays(self, arrays) -> None:
        params = self.parameters()
        if len(arrays) != len(params):
            raise ValueError(f"expected {len(params)} arrays, got {len(arrays)}")
        for p, a in zip(params, arrays):
            if a.shape != p.data.shape:
                raise ValueError(f"array shape {a.shape} != parameter shape {p.data.shape}")
            p.data = np.array(a, dtype=np.float64)


def build_cnn(cfg: ArchConfig, seed: int = 0) -> CnnClassifier:
    return CnnClassifier(cfg, seed)


def encode_input(rho: np.ndarray) -> np.ndarray:
    """Split a density matrix into [2, K, K] real/imaginary channels."""
    rho = np.asarray(rho, dtype=complex)
    return np.stack([rho.real, rho.imag])


def decode_input(channels: np.ndarray) -> np.ndarray:
    return channels[0] + 1j * channels[1]


def encode_batch(rhos) -> np.ndarray:
    """[B, 2, K, K] channel batch from a stack or list of density matrices."""
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim == 2:
        rhos = rhos[None]
    return np.stack([rhos.real, rhos.imag], axis=1)


def predict(model: CnnClassifier, rho: np.ndarray) -> np.ndarray:
    """Per-bipartition entanglement probabilities for one density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if num_qubits(rho.shape[0]) != model.n_qubits:
        raise ValueError(
            f"model expects {model.n_qubits}-qubit states, got dimension {rho.shape[0]}"
        )
    return model.forward(ag.Tensor(encode_batch(rho))).data[0].copy()


def predict_encoded(model: CnnClassifier, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Probabilities for a pre-encoded [B, 2, K, K] batch, evaluated in chunks."""
    outs = []
    for lo in range(0, x.shape[0], batch_size):
        outs.append(model.forward(ag.Tensor(x[lo : lo + batch_size])).data)
    return np.concatenate(outs, axis=0)


def cnn_loss(model: CnnClassifier, x: np.ndarray, labels: np.ndarray) -> ag.Tensor:
    """Cross entropy of the batch predictions, averaged over samples and cuts."""
    return ag.bce_mean(model.forward(ag.Tensor(x)), labels)


def locc_batch(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Conjugate every encoded state by the product unitary v."""
    m = x[:, 0] + 1j * x[:, 1]
    m = np.einsum("ij,bjk,lk->bil", v, m, v.conj(), optimize=True)
    return np.stack([m.real, m.imag], axis=1)


def permute_batch(x: np.ndarray, perm) -> np.ndarray:
    """Relabel qubits of every encoded state: qubit q moves to perm[q].

    A name of its own so that the bench's tracer can time the Siamese
    permutation step apart from other relabelings.
    """
    return permute_qubits(x, perm)


def siamese_loss(
    model: CnnClassifier,
    x: np.ndarray,
    labels: np.ndarray,
    lambda1: float,
    lambda2: float,
    rng,
) -> ag.Tensor:
    """Cross entropy plus symmetry-consistency penalties on a batch.

    One random local rotation layer and one random qubit permutation are
    drawn per batch.  All three branches share the model's single parameter
    set and all contribute gradients.  Weights of zero skip their branch
    entirely, reducing exactly to :func:`cnn_loss`.
    """
    n = model.n_qubits
    p_orig = model.forward(ag.Tensor(x))
    loss = ag.bce_mean(p_orig, labels)
    if lambda1 > 0:
        v = random_local_unitary(n, rng)
        p_locc = model.forward(ag.Tensor(locc_batch(x, v)))
        loss = loss + lambda1 * ag.mean(ag.absolute(p_orig - p_locc))
    if lambda2 > 0:
        perm = [int(q) for q in rng.permutation(n)]
        p_perm = model.forward(ag.Tensor(permute_batch(x, perm)))
        remap = np.array(
            [permuted_bipartition_index(j, perm, n) - 1 for j in range(1, model.arch.num_outputs + 1)]
        )
        loss = loss + lambda2 * ag.mean(ag.absolute(p_orig - ag.take_columns(p_perm, remap)))
    return loss


def save_model(model: CnnClassifier, path) -> None:
    """Checkpoint the parameters plus an architecture sidecar (key=value)."""
    ag.save_params(path, model.param_arrays())
    arch = {f.name: f.type(getattr(model.arch, f.name)) for f in fields(ArchConfig)}
    write_kv(str(path) + ".arch", arch)


def load_model(path) -> CnnClassifier:
    """Rebuild a checkpointed model; ValueError names a missing or bad sidecar key.

    A sidecar line without ``=`` raises DatasetFormatError (see ``read_kv``).
    """
    sidecar = str(path) + ".arch"
    entries = read_kv(sidecar)
    values = {}
    for field in fields(ArchConfig):
        if field.name not in entries:
            raise ValueError(f"{sidecar}: missing key {field.name!r}")
        try:
            values[field.name] = field.type(entries[field.name])
        except ValueError:
            raise ValueError(
                f"{sidecar}: cannot parse {field.name}={entries[field.name]!r}"
            ) from None
    model = CnnClassifier(ArchConfig(**values), seed=0)
    model.set_param_arrays(ag.load_params(path))
    return model
