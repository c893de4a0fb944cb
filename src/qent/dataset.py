"""Corpus assembly and persistence.

Builders assemble training / validation / test corpora from the state
generators, apply one of the three labeling strategies to the groups whose
entanglement is not known by construction, and persist everything in a
fixed-stride little-endian binary format (magic ``QENT``) that round-trips
bit-exactly.

Every sample is produced from its own derived RNG stream
``(master_seed, set_tag, section_tag, index)``, so corpora are byte-identical
for identical build parameters regardless of generation order.
"""

import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import entanglement as ent
from . import stategen as sg
from .qcore import kron_all
from .qcore import num_qubits as dim_to_qubits
from .qcore import validate_density_matrix
from .rng import seeded_rng

FORMAT_VERSION = 1
MAGIC = b"QENT"

STRATEGIES = ("negativity", "verified", "weakly")
# "family" marks sets whose labels come from a bound-entangled family
# definition rather than one of the three mixed-state strategies.
_STRATEGY_CODES = {"negativity": 0, "verified": 1, "weakly": 2, "family": 3}
_STRATEGY_NAMES = {v: k for k, v in _STRATEGY_CODES.items()}

# Generator tags stored per record.
GEN_PURE_SEP_CIRCUIT = 0
GEN_PURE_ENT_CIRCUIT = 1
GEN_PURE_HAAR = 2
GEN_PURE_GHZ = 3
GEN_PURE_W = 4
GEN_MIXED_SEP_MIXTURE = 5
GEN_MIXED_SEP_KRON = 6
GEN_MIXED_DEF_CIRCUIT = 7
GEN_MIXED_DEF_HAAR = 8
GEN_MIXED_TRACED = 9
GEN_PPTES_HORODECKI = 10
GEN_PPTES_ACIN = 11
GEN_PPTES_UPB = 12
GEN_PURE_SEP_PRODUCT = 13

PPTES_GEN = {
    "horodecki": GEN_PPTES_HORODECKI,
    "acin": GEN_PPTES_ACIN,
    "upb": GEN_PPTES_UPB,
}

# Largest mixture size d in the test sets; chosen so a non-negligible
# fraction of entangled-pure mixtures still has a negative partial transpose.
TEST_D_CAPS = {3: 30, 4: 70, 5: 190}

# Attempts any rejection loop may make before it gives up on a sample.
MAX_ATTEMPTS = 10_000

# Derived-stream set tags.
_SET_TRAIN = 0
_SET_VALID = 1
_SET_TEST_PURE = 2
_SET_TEST_MIXED = 3
_SET_PPTES = 4
_SET_EXTENSION = 5


class DatasetError(Exception):
    """Base class for corpus generation and persistence failures."""


class DatasetFormatError(DatasetError):
    pass


class DatasetVersionError(DatasetError):
    pass


class DatasetTruncatedError(DatasetError):
    pass


class DatasetChecksumError(DatasetError):
    pass


class DatasetIntegrityError(DatasetError):
    pass


def qubit_pairs(n: int) -> list:
    """Fixed pair order used by the connectivity bitmask: (0,1), (0,2), ..."""
    return [(a, b) for a in range(n - 1) for b in range(a + 1, n)]


def pairs_to_mask(pairs, n: int) -> int:
    """Bitmask of unordered qubit pairs, dropping pairs outside 0..n-1."""
    order = {p: i for i, p in enumerate(qubit_pairs(n))}
    mask = 0
    for pair in pairs:
        a, b = sorted(pair)
        if b < n:
            mask |= 1 << order[(a, b)]
    return mask


@dataclass(frozen=True)
class Provenance:
    """How a sample was produced: generator tag, mixture size, gate connectivity."""

    generator: int
    d: int = 0
    cu_pairs_mask: int = 0


@dataclass
class LabeledState:
    """Density matrix plus per-bipartition labels, negativities and provenance."""

    rho: np.ndarray
    labels: np.ndarray
    neg_values: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        self.rho = np.ascontiguousarray(self.rho, dtype=complex)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint8)
        self.neg_values = np.ascontiguousarray(self.neg_values, dtype=np.float64)
        m = ent.num_bipartitions(self.num_qubits)
        if self.labels.shape != (m,) or self.neg_values.shape != (m,):
            raise ValueError(f"expected {m} labels/negativities per state")
        if np.any(self.neg_values < 0):
            raise ValueError("negativities must be nonnegative")

    @property
    def num_qubits(self) -> int:
        return dim_to_qubits(self.rho.shape[0])


@dataclass
class DatasetManifest:
    num_qubits: int
    strategy: str
    sections: dict
    master_seed: int
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        if self.strategy not in _STRATEGY_CODES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if any(c < 0 for c in self.sections.values()):
            raise ValueError("section counts must be nonnegative")

    @property
    def count(self) -> int:
        return sum(self.sections.values())


# Dataset columns, in v1 record order.
COLUMNS = ("channels", "labels", "negs", "generator", "d", "mask")


@dataclass
class Dataset:
    """A corpus as columns; row i of every column belongs to sample i.

    ``channels`` [N, 2, K, K] float64 holds the real and imaginary planes of
    each density matrix, the layout the classifier reads.  ``labels`` [N, m]
    uint8 and ``negs`` [N, m] float64 hold the per-cut labels and
    negativities; ``generator`` (uint8), ``d`` (uint16) and ``mask`` (uint32,
    the gate-pair bitmask) hold the provenance.
    """

    manifest: DatasetManifest
    channels: np.ndarray
    labels: np.ndarray
    negs: np.ndarray
    generator: np.ndarray
    d: np.ndarray
    mask: np.ndarray

    @classmethod
    def from_states(cls, manifest: DatasetManifest, states) -> "Dataset":
        """Stack per-sample records into columns, in order."""
        count, k = len(states), 1 << manifest.num_qubits
        m = ent.num_bipartitions(manifest.num_qubits)
        rhos = np.array([s.rho for s in states], dtype=complex).reshape(count, k, k)
        provs = [s.provenance for s in states]
        return cls(
            manifest,
            np.stack([rhos.real, rhos.imag], axis=1),
            np.array([s.labels for s in states], dtype=np.uint8).reshape(count, m),
            np.array([s.neg_values for s in states], dtype=np.float64).reshape(count, m),
            np.array([p.generator for p in provs], dtype=np.uint8),
            np.array([p.d for p in provs], dtype=np.uint16),
            np.array([p.cu_pairs_mask for p in provs], dtype=np.uint32),
        )

    def __len__(self):
        return len(self.labels)

    @property
    def num_qubits(self) -> int:
        return self.manifest.num_qubits

    @property
    def states(self) -> "StateView":
        return StateView(self)

    def arrays(self) -> tuple:
        """(complex rhos, labels, negativities) arrays, copied from the columns."""
        rhos = np.empty((len(self),) + self.channels.shape[2:], dtype=complex)
        rhos.real, rhos.imag = self.channels[:, 0], self.channels[:, 1]
        return rhos, self.labels.copy(), self.negs.copy()


class StateView(Sequence):
    """Read-only sequence over a Dataset's rows; ``[i]`` builds LabeledState i only."""

    def __init__(self, ds: Dataset):
        self._ds = ds

    def __len__(self):
        return len(self._ds)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        ds, i = self._ds, range(len(self))[i]
        rho = np.empty(ds.channels.shape[2:], dtype=complex)
        rho.real, rho.imag = ds.channels[i]
        prov = Provenance(int(ds.generator[i]), int(ds.d[i]), int(ds.mask[i]))
        try:
            return LabeledState(rho, ds.labels[i].copy(), ds.negs[i].copy(), prov)
        except ValueError as exc:
            raise DatasetIntegrityError(f"row {i}: {exc}") from None


# --- section generators ----------------------------------------------------


def _as_rho(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def _attempts(generator: str, n: int):
    """Attempt indices for a rejection loop; raises once MAX_ATTEMPTS are spent."""
    yield from range(MAX_ATTEMPTS)
    raise DatasetError(
        f"{generator}: no {n}-qubit state accepted in {MAX_ATTEMPTS} attempts"
    )


def _pure_separable(n: int, rng) -> LabeledState:
    psi, _ = sg.random_circuit_state(n, False, rng)
    rho = _as_rho(psi)
    labels, negs = ent.label_by_negativity(rho)
    return LabeledState(rho, labels, negs, Provenance(GEN_PURE_SEP_CIRCUIT, d=1))


def _pure_product(n: int, rng) -> LabeledState:
    factors = [sg.haar_state(1, rng) for _ in range(n)]
    psi = kron_all(list(reversed(factors)))
    rho = _as_rho(psi)
    labels, negs = ent.label_by_negativity(rho)
    return LabeledState(rho, labels, negs, Provenance(GEN_PURE_SEP_PRODUCT, d=1))


def _pure_entangled(n: int, rng, ghz_w_fraction: float = 0.1) -> LabeledState:
    """One pure state with at least one certified-entangled cut.

    Pool mix: random entangling circuits and Haar states in equal measure,
    plus a locally randomized GHZ / W slice (``ghz_w_fraction`` each).
    """
    for _ in _attempts("_pure_entangled", n):
        r = rng.random()
        mask = 0
        if r < 2 * ghz_w_fraction:
            base = sg.ghz_state(n) if r < ghz_w_fraction else sg.w_state(n)
            gen = GEN_PURE_GHZ if r < ghz_w_fraction else GEN_PURE_W
            psi = sg.randomize_local(base, rng)
        elif r < 0.5 + ghz_w_fraction:
            psi, spec = sg.random_circuit_state(n, True, rng)
            gen = GEN_PURE_ENT_CIRCUIT
            mask = pairs_to_mask(spec.cu_pairs, n)
        else:
            psi = sg.haar_state(n, rng)
            gen = GEN_PURE_HAAR
        rho = _as_rho(psi)
        labels, negs = ent.label_by_negativity(rho)
        if labels.any():
            return LabeledState(rho, labels, negs, Provenance(gen, d=1, cu_pairs_mask=mask))


def sample_entangled_pure(n: int, pool: str, rng) -> np.ndarray:
    """Pure state entangled on every cut, from the 'circuit' or 'haar' pool."""
    for _ in _attempts("sample_entangled_pure", n):
        if pool == "circuit":
            psi, _ = sg.random_circuit_state(n, True, rng)
        elif pool == "haar":
            psi = sg.haar_state(n, rng)
        else:
            raise ValueError(f"unknown pool {pool!r}")
        negs = ent.negativity_vector(_as_rho(psi))
        if np.all(negs > ent.NPT_THRESHOLD):
            return psi


def mixture_of_entangled(n: int, d: int, pool: str, rng) -> np.ndarray:
    """Mixture of d fully entangled pure states with random weights."""
    probs = sg.random_probs(d, rng)
    comps = [sample_entangled_pure(n, pool, rng) for _ in range(d)]
    return sg.mix_states(probs, comps)


def mixture_of_separable(n: int, d: int, rng) -> np.ndarray:
    """Mixture of d product pure states; separable by construction."""
    probs = sg.random_probs(d, rng)
    comps = [sg.random_circuit_state(n, False, rng)[0] for _ in range(d)]
    return sg.mix_states(probs, comps)


def _mixed_separable_mixture(n: int, rng, d_max: int) -> LabeledState:
    d = int(rng.integers(2, d_max + 1))
    rho = mixture_of_separable(n, d, rng)
    negs = ent.negativity_vector(rho)
    labels = np.zeros_like(negs, dtype=np.uint8)  # separable by construction
    return LabeledState(rho, labels, negs, Provenance(GEN_MIXED_SEP_MIXTURE, d=d))


def _mixed_separable_kron(n: int, rng) -> LabeledState:
    d = int(rng.integers(1, (1 << n) + 1))
    rho = sg.kron_separable_mixed(n, rng, d=d)
    negs = ent.negativity_vector(rho)
    labels = np.zeros_like(negs, dtype=np.uint8)
    return LabeledState(rho, labels, negs, Provenance(GEN_MIXED_SEP_KRON, d=d))


def _mixed_entangled_def(n: int, rng, d_max: int, keep: str) -> LabeledState:
    """Mixture of entangled pure states, kept when negativity certifies it.

    ``keep='any'`` requires one certified cut (labels are then the negativity
    labels, possibly zero on others); ``keep='all'`` requires every cut to be
    certified, which is what the correct-labels-only strategy demands.
    """
    for _ in _attempts("_mixed_entangled_def", n):
        pool = "circuit" if rng.random() < 0.5 else "haar"
        d = int(rng.integers(2, d_max + 1))
        rho = mixture_of_entangled(n, d, pool, rng)
        labels, negs = ent.label_by_negativity(rho)
        ok = labels.all() if keep == "all" else labels.any()
        if ok:
            gen = GEN_MIXED_DEF_CIRCUIT if pool == "circuit" else GEN_MIXED_DEF_HAAR
            return LabeledState(rho, labels, negs, Provenance(gen, d=d))


def _mixed_entangled_traced(n: int, rng, strategy: str) -> LabeledState:
    """Marginal of a larger entangled circuit state, labeled per strategy."""
    for _ in _attempts("_mixed_entangled_traced", n):
        n_extra = int(rng.integers(1, 3))
        rho, spec = sg.traced_mixed_state(n, n_extra, rng)
        if strategy == "weakly":
            labels, negs = ent.label_weakly(rho, spec, range(n))
        else:
            labels, negs = ent.label_by_negativity(rho)
            if strategy == "verified" and not labels.all():
                continue  # a cut the criterion cannot certify: drop the state
        mask = pairs_to_mask(spec.cu_pairs, n)
        return LabeledState(rho, labels, negs, Provenance(GEN_MIXED_TRACED, d=0, cu_pairs_mask=mask))


# --- corpus builders -------------------------------------------------------

_TRAIN_SECTIONS = (
    ("pure_separable", 40_000),
    ("pure_entangled", 60_000),
    ("mixed_separable_mixture", 60_000),
    ("mixed_separable_kron", 20_000),
    ("mixed_entangled_def", 90_000),
    ("mixed_entangled_traced", 60_000),
)


def _scaled(count: int, scale: float) -> int:
    return int(round(count * scale))


def _check_build_args(n_qubits: int, scale: float) -> None:
    if n_qubits not in TEST_D_CAPS:
        raise ValueError(f"corpus builders support 3..5 qubits, got {n_qubits}")
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale {scale} outside (0, 1]")


def _build_sections(n_qubits, strategy, scale, seed, set_tag, plan) -> Dataset:
    """Corpus of ``plan``'s ``(name, full count, maker)`` sections, scaled.

    Sample i of section ``tag`` is made from stream ``(seed, set_tag, tag, i)``.
    """
    sections = {}
    states = []
    for tag, (name, full, make) in enumerate(plan):
        count = _scaled(full, scale)
        sections[name] = count
        for i in range(count):
            states.append(make(seeded_rng(seed, set_tag, tag, i)))
    return Dataset.from_states(DatasetManifest(n_qubits, strategy, sections, seed), states)


def _build_table_set(n_qubits, strategy, scale, seed, set_tag) -> Dataset:
    d_max = 1 << n_qubits
    makers = {
        "pure_separable": lambda rng: _pure_separable(n_qubits, rng),
        "pure_entangled": lambda rng: _pure_entangled(n_qubits, rng),
        "mixed_separable_mixture": lambda rng: _mixed_separable_mixture(n_qubits, rng, d_max),
        "mixed_separable_kron": lambda rng: _mixed_separable_kron(n_qubits, rng),
        "mixed_entangled_def": lambda rng: _mixed_entangled_def(
            n_qubits, rng, d_max, keep="all" if strategy == "verified" else "any"
        ),
        "mixed_entangled_traced": lambda rng: _mixed_entangled_traced(n_qubits, rng, strategy),
    }
    plan = [(name, full, makers[name]) for name, full in _TRAIN_SECTIONS]
    return _build_sections(n_qubits, strategy, scale, seed, set_tag, plan)


def build_training_set(n_qubits: int, strategy: str, scale: float, seed: int) -> Dataset:
    """Training corpus: the full composition table scaled down by ``scale``."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    _check_build_args(n_qubits, scale)
    return _build_table_set(n_qubits, strategy, scale, seed, _SET_TRAIN)


def build_validation_set(n_qubits: int, scale: float, seed: int) -> Dataset:
    """Correct-labels-only corpus at 10% of the training composition."""
    _check_build_args(n_qubits, scale)
    return _build_table_set(n_qubits, "verified", scale * 0.1, seed, _SET_VALID)


def build_test_sets(n_qubits: int, scale: float, seed: int) -> tuple:
    """(pure, mixed) test corpora; mixed entangled states are NPT on every cut."""
    _check_build_args(n_qubits, scale)
    d_cap = TEST_D_CAPS[n_qubits]

    def pure_sep(rng):
        if rng.random() < 0.5:
            return _pure_separable(n_qubits, rng)
        return _pure_product(n_qubits, rng)

    def pure_ent(rng):
        return _pure_entangled(n_qubits, rng, ghz_w_fraction=0.0)

    def mixed_sep(rng):
        if rng.random() < 0.5:
            return _mixed_separable_mixture(n_qubits, rng, d_cap)
        return _mixed_separable_kron(n_qubits, rng)

    def mixed_ent(rng):
        if rng.random() < 0.5:
            return _mixed_entangled_def(n_qubits, rng, d_cap, keep="all")
        return _mixed_entangled_traced(n_qubits, rng, "verified")

    pure_plan = (("pure_separable", 15_000, pure_sep), ("pure_entangled", 15_000, pure_ent))
    mixed_plan = (("mixed_separable", 20_000, mixed_sep), ("mixed_entangled", 20_000, mixed_ent))
    return (
        _build_sections(n_qubits, "verified", scale, seed, _SET_TEST_PURE, pure_plan),
        _build_sections(n_qubits, "verified", scale, seed, _SET_TEST_MIXED, mixed_plan),
    )


def make_pptes_testset(family: str, count: int, rng, n_qubits: int = 3) -> list:
    """Locally randomized states from one bound-entangled family.

    Labels carry 1 on the family's defining entangled cuts, plus any cut the
    negativity oracle happens to certify on top of that.
    """
    if count < 1:
        raise ValueError("count must be positive")
    defining = ent.pptes_defining_labels(family, n_qubits)
    gen = PPTES_GEN[family]
    states = []
    for _ in range(count):
        rho = ent.pptes_state(family, rng, n_qubits)
        negs = ent.negativity_vector(rho)
        labels = np.maximum(defining, (negs > ent.NPT_THRESHOLD).astype(np.uint8))
        states.append(LabeledState(rho, labels, negs, Provenance(gen)))
    return states


def build_pptes_testset(family: str, count: int, seed: int, n_qubits: int = 3) -> Dataset:
    """A persistable corpus wrapping :func:`make_pptes_testset`."""
    if family not in PPTES_GEN:
        raise ValueError(f"unknown PPTES family {family!r}; expected one of {ent.PPTES_FAMILIES}")
    states = make_pptes_testset(family, count, seeded_rng(seed, _SET_PPTES, PPTES_GEN[family]), n_qubits)
    manifest = DatasetManifest(n_qubits, "family", {f"pptes_{family}": count}, seed)
    return Dataset.from_states(manifest, states)


def build_pptes_extension(scale: float, seed: int) -> Dataset:
    """Retraining extension: unextendible-basis plus GHZ-diagonal family states."""
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale {scale} outside (0, 1]")
    plan = (("pptes_upb", 20_000, "upb"), ("pptes_acin", 30_000, "acin"))
    sections = {}
    states = []
    for tag, (name, full, family) in enumerate(plan):
        count = _scaled(full, scale)
        sections[name] = count
        if count:
            states += make_pptes_testset(
                family, count, seeded_rng(seed, _SET_EXTENSION, 100 + tag), 3
            )
    return Dataset.from_states(DatasetManifest(3, "family", sections, seed), states)


# --- binary persistence ----------------------------------------------------

_HEADER = struct.Struct("<4sIBBQQ")
_SIDECAR_KEYS = ("format_version", "num_qubits", "strategy", "master_seed", "count")


def _record_dtype(n: int) -> np.dtype:
    """One packed v1 record: planes, labels, negativities, provenance."""
    k, m = 1 << n, ent.num_bipartitions(n)
    formats = (("<f8", (2, k, k)), ("u1", (m,)), ("<f8", (m,)), ("u1", ()), ("<u2", ()), ("<u4", ()))
    return np.dtype([(name, *fmt) for name, fmt in zip(COLUMNS, formats)])


def save_dataset(ds: Dataset, path) -> None:
    """Write the corpus (binary, crc-tailed) plus a human-readable manifest sidecar."""
    man = ds.manifest
    if len(ds) != man.count:
        raise DatasetIntegrityError(f"manifest says {man.count} states, dataset holds {len(ds)}")
    k = 1 << man.num_qubits
    if ds.channels.shape[1:] != (2, k, k):
        raise DatasetIntegrityError("state qubit count differs from manifest")
    records = np.empty(len(ds), dtype=_record_dtype(man.num_qubits))
    for name in COLUMNS:
        if not np.can_cast(getattr(ds, name).dtype, records.dtype[name].base, "safe"):
            raise DatasetIntegrityError(f"column {name} does not fit {records.dtype[name].base}")
        records[name] = getattr(ds, name)
    blob = _HEADER.pack(
        MAGIC,
        man.format_version,
        man.num_qubits,
        _STRATEGY_CODES[man.strategy],
        man.count,
        man.master_seed,
    ) + records.tobytes()
    with open(path, "wb") as f:
        f.write(blob)
        f.write(struct.pack("<I", zlib.crc32(blob)))
    side = {key: getattr(man, key) for key in _SIDECAR_KEYS}
    side.update((f"section.{name}", c) for name, c in man.sections.items())
    write_kv(str(path) + ".manifest", side)


def write_kv(path, mapping) -> None:
    """Write a ``key=value`` sidecar, one entry per line, each value as ``str``."""
    with open(path, "w") as f:
        for k, v in mapping.items():
            f.write(f"{k}={v}\n")


def read_kv(path) -> dict:
    """Read a ``key=value`` sidecar into a str-to-str dict, skipping blank lines.

    A non-blank line without ``=`` raises DatasetFormatError quoting the line.
    """
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            k, sep, v = line.partition("=")
            if not sep:
                raise DatasetFormatError(f"{path}: no '=' in line {line!r}")
            out[k] = v
    return out


def _sidecar_int(sidecar, key, value) -> int:
    try:
        return int(value)
    except ValueError:
        raise DatasetFormatError(f"{sidecar}: {key}={value!r} is not an integer") from None


def _sidecar_sections(path, header: dict) -> dict:
    """Section counts from the ``.manifest`` sidecar, checked against the header.

    A missing sidecar gives one section ``all``.  A header key whose value
    differs from ``header`` raises DatasetIntegrityError naming the key.
    """
    sidecar = str(path) + ".manifest"
    try:
        side = read_kv(sidecar)
    except OSError:
        side = {}
    sections = {}
    for key, v in side.items():
        if key.startswith("section."):
            sections[key[len("section."):]] = _sidecar_int(sidecar, key, v)
        elif key in header:
            got = v if key == "strategy" else _sidecar_int(sidecar, key, v)
            if got != header[key]:
                raise DatasetIntegrityError(f"{sidecar}: {key}={v!r}, header says {header[key]!r}")
    if sections and sum(sections.values()) != header["count"]:
        raise DatasetIntegrityError(
            f"{path}: sidecar sections sum to {sum(sections.values())}, header says {header['count']}"
        )
    return sections or {"all": header["count"]}


def load_dataset(path) -> Dataset:
    """Read a corpus back; raises a distinct error per corruption mode.

    Density matrices that are not Hermitian, unit-trace and positive
    semidefinite raise DatasetIntegrityError.  Labels and negativities are
    returned as stored.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size + 4:
        raise DatasetTruncatedError(f"{path}: shorter than a header")
    magic = raw[:4]
    if magic != MAGIC:
        raise DatasetFormatError(f"{path}: bad magic {magic!r}")
    _, version, n, strat_code, count, master_seed = _HEADER.unpack_from(raw)
    if version != FORMAT_VERSION:
        raise DatasetVersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    if strat_code not in _STRATEGY_NAMES:
        raise DatasetFormatError(f"{path}: unknown strategy code {strat_code}")
    if not 2 <= n <= 8:
        raise DatasetFormatError(f"{path}: implausible qubit count {n}")
    record = _record_dtype(n)
    expected = _HEADER.size + count * record.itemsize + 4
    if len(raw) < expected:
        raise DatasetTruncatedError(
            f"{path}: {len(raw)} bytes, need {expected} for {count} records"
        )
    if len(raw) > expected:
        raise DatasetIntegrityError(f"{path}: {len(raw) - expected} trailing bytes")
    (crc_stored,) = struct.unpack_from("<I", raw, expected - 4)
    if zlib.crc32(memoryview(raw)[: expected - 4]) != crc_stored:
        raise DatasetChecksumError(f"{path}: checksum mismatch")

    strategy = _STRATEGY_NAMES[strat_code]
    header = dict(zip(_SIDECAR_KEYS, (version, n, strategy, master_seed, count)))
    sections = _sidecar_sections(path, header)
    records = np.frombuffer(raw, dtype=record, count=count, offset=_HEADER.size)
    ds = Dataset(
        DatasetManifest(n, strategy, sections, master_seed),
        *(records[name].copy() for name in COLUMNS),
    )
    try:
        validate_density_matrix(ds.channels[:, 0] + 1j * ds.channels[:, 1])
    except ValueError as exc:
        raise DatasetIntegrityError(f"{path}: {exc}") from None
    return ds
