"""Corpus assembly and persistence.

Builders assemble training / validation / test corpora from the state
generators, apply one of the three labeling strategies to the groups whose
entanglement is not known by construction, and persist everything in a
fixed-stride little-endian binary format (magic ``QENT``) that round-trips
bit-exactly.

Every sample of the training, validation and test sets is produced from its
own derived RNG stream ``(master_seed, set_tag, section_tag, index)``, and
each section of a family set from one stream, so corpora are byte-identical
for identical build parameters.
"""

import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from . import entanglement as ent
from . import stategen as sg
from .qcore import kron_all, partial_trace
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


def check_labels(ds: Dataset) -> None:
    """Raise DatasetIntegrityError at the first row whose labels or negativities are bad.

    Bad is a label outside {0, 1}, or a negativity that is not finite or is
    negative.  The message names the column and the row.
    """
    bad_labels = (ds.labels != 0) & (ds.labels != 1)
    bad_negs = ~(np.isfinite(ds.negs) & (ds.negs >= 0))
    for name, bad in (("labels", bad_labels), ("negs", bad_negs)):
        rows = np.flatnonzero(bad.any(axis=1))
        if rows.size:
            raise DatasetIntegrityError(f"column {name}, row {rows[0]}: {getattr(ds, name)[rows[0]]}")


# --- section generators ----------------------------------------------------
#
# Each maker is a coroutine that makes its sample's draws in order and
# returns one row: (rho, labels, negs, generator, d, mask).  It yields its
# array work as ``(fn, batch)``: ``sg.run_circuits`` with a list of circuit
# specs, ``ent.negativity_vector`` or ``ent.label_by_negativity`` with an
# ``[m, K, K]`` stack, or ``_pure_negativities`` with ``[m, K]`` states,
# and is sent back ``fn``'s result for its batch.

# Samples run side by side in one group of waves, and rows per stacked call,
# at most.  A negativity call holds at most WAVE rows of 8x8 matrices' worth
# of elements (2 rows at 5 qubits), so the streams and partial-transpose
# stacks held at once stay small at any scale.
WAVE = 32


def _waves(makers) -> list:
    """Run maker coroutines side by side; returns the rows they return, in order.

    Pending requests with the same function and row size run as stacked
    calls of at most WAVE rows, circuit runs before negativities, so a
    circuit and its labels share a wave.  Each sample draws only from its
    own stream, so no row depends on which samples share a call.
    """
    rows = [None] * len(makers)
    pending = {}

    def advance(i, result):
        try:
            fn, batch = makers[i].send(result)
        except StopIteration as done:
            rows[i] = done.value
            return
        size = batch[0].num_qubits if isinstance(batch, list) else batch.shape[1:]
        pending.setdefault((fn, size), []).append((i, batch))

    for i in range(len(makers)):
        advance(i, None)
    while pending:
        fn, size = min(pending, key=lambda key: key[0] is not sg.run_circuits)
        requests = pending.pop((fn, size))
        limit = WAVE if isinstance(size, int) else max(1, WAVE * 64 // size[-1] ** 2)
        for (i, _), result in zip(requests, _stacked(fn, [b for _, b in requests], limit)):
            advance(i, result)
    return rows


def _stacked(fn, batches, limit) -> list:
    """``fn`` over the joined batches in calls of at most ``limit`` rows, split back per batch."""
    if isinstance(batches[0], np.ndarray):
        joined = np.concatenate(batches)
    else:
        joined = [spec for batch in batches for spec in batch]
    outs = [fn(joined[lo : lo + limit]) for lo in range(0, len(joined), limit)]
    parts = [np.concatenate(p) for p in zip(*outs)] if isinstance(outs[0], tuple) else [np.concatenate(outs)]
    ends = np.cumsum([len(b) for b in batches]).tolist()
    cut = [[p[hi - len(b) : hi] for p in parts] for b, hi in zip(batches, ends)]
    return [tuple(c) if len(parts) > 1 else c[0] for c in cut]


def _as_rho(psi: np.ndarray) -> np.ndarray:
    """Projector of a state vector, or ``[m, K, K]`` projectors of ``[m, K]`` states."""
    return psi[..., :, None] * psi.conj()[..., None, :]


def _gave_up(generator: str, n: int) -> DatasetError:
    return DatasetError(f"{generator}: no {n}-qubit state accepted in {MAX_ATTEMPTS} attempts")


def _attempts(generator: str, n: int):
    """Attempt indices for a rejection loop; raises once MAX_ATTEMPTS are spent."""
    yield from range(MAX_ATTEMPTS)
    raise _gave_up(generator, n)


def _circuits(n: int, entangling: bool, count: int, rng):
    """``count`` circuits drawn in order and run in one request; returns (states, specs)."""
    specs = [sg.draw_circuit(n, entangling, rng) for _ in range(count)]
    return (yield sg.run_circuits, specs), specs


def _pure_negativities(psis: np.ndarray) -> np.ndarray:
    """``negativity_vector`` of the projectors of ``[m, K]`` state vectors."""
    return ent.negativity_vector(_as_rho(psis))


def _label(rho: np.ndarray):
    labels, negs = yield ent.label_by_negativity, rho[None]
    return labels[0], negs[0]


def _negativities(rho: np.ndarray):
    return (yield ent.negativity_vector, rho[None])[0]


def _pure_separable(n: int, rng):
    (psi,), _ = yield from _circuits(n, False, 1, rng)
    rho = _as_rho(psi)
    return (rho, *(yield from _label(rho)), GEN_PURE_SEP_CIRCUIT, 1, 0)


def _pure_product(n: int, rng):
    factors = [sg.haar_state(1, rng) for _ in range(n)]
    rho = _as_rho(kron_all(list(reversed(factors))))
    return (rho, *(yield from _label(rho)), GEN_PURE_SEP_PRODUCT, 1, 0)


def _pure_entangled(n: int, rng, ghz_w_fraction: float = 0.1):
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
            (psi,), (spec,) = yield from _circuits(n, True, 1, rng)
            gen = GEN_PURE_ENT_CIRCUIT
            mask = pairs_to_mask(spec.cu_pairs, n)
        else:
            psi = sg.haar_state(n, rng)
            gen = GEN_PURE_HAAR
        rho = _as_rho(psi)
        labels, negs = yield from _label(rho)
        if labels.any():
            return rho, labels, negs, gen, 1, mask


def _entangled_pures(n: int, d: int, pool: str, rng):
    """d pure states entangled on every cut, from the 'circuit' or 'haar' pool.

    Attempts come in deficit batches of ``d - accepted``.  Drawn one at a
    time, the components would take every one of those attempts too, so the
    stream ends where it would.  MAX_ATTEMPTS failures in a row give up.
    """
    if pool not in ("circuit", "haar"):
        raise ValueError(f"unknown pool {pool!r}")
    comps, failures = [], 0
    while len(comps) < d:
        m = d - len(comps)
        if pool == "circuit":
            psis, _ = yield from _circuits(n, True, m, rng)
        else:
            psis = np.stack([sg.haar_state(n, rng) for _ in range(m)])
        negs = yield _pure_negativities, psis
        for psi, ok in zip(psis, (negs > ent.NPT_THRESHOLD).all(axis=1)):
            failures = 0 if ok else failures + 1
            if failures == MAX_ATTEMPTS:
                raise _gave_up("sample_entangled_pure", n)
            if ok:
                comps.append(psi)
    return comps


def _entangled_mixture(n: int, d: int, pool: str, rng):
    probs = sg.random_probs(d, rng)
    return sg.mix_states(probs, (yield from _entangled_pures(n, d, pool, rng)))


def _separable_mixture(n: int, d: int, rng):
    probs = sg.random_probs(d, rng)
    psis, _ = yield from _circuits(n, False, d, rng)
    return sg.mix_states(probs, psis)


def sample_entangled_pure(n: int, pool: str, rng) -> np.ndarray:
    """Pure state entangled on every cut, from the 'circuit' or 'haar' pool."""
    return _waves([_entangled_pures(n, 1, pool, rng)])[0][0]


def mixture_of_entangled(n: int, d: int, pool: str, rng) -> np.ndarray:
    """Mixture of d fully entangled pure states with random weights."""
    return _waves([_entangled_mixture(n, d, pool, rng)])[0]


def mixture_of_separable(n: int, d: int, rng) -> np.ndarray:
    """Mixture of d product pure states; separable by construction."""
    return _waves([_separable_mixture(n, d, rng)])[0]


def _mixed_separable_mixture(n: int, rng, d_max: int):
    d = int(rng.integers(2, d_max + 1))
    rho = yield from _separable_mixture(n, d, rng)  # separable by construction: labels 0
    return rho, 0, (yield from _negativities(rho)), GEN_MIXED_SEP_MIXTURE, d, 0


def _mixed_separable_kron(n: int, rng):
    d = int(rng.integers(1, (1 << n) + 1))
    rho = sg.kron_separable_mixed(n, rng, d=d)
    return rho, 0, (yield from _negativities(rho)), GEN_MIXED_SEP_KRON, d, 0


def _mixed_entangled_def(n: int, rng, d_max: int, keep: str):
    """Mixture of entangled pure states, kept when negativity certifies it.

    ``keep='any'`` requires one certified cut (labels are then the negativity
    labels, possibly zero on others); ``keep='all'`` requires every cut to be
    certified, which is what the correct-labels-only strategy demands.
    """
    for _ in _attempts("_mixed_entangled_def", n):
        pool = "circuit" if rng.random() < 0.5 else "haar"
        d = int(rng.integers(2, d_max + 1))
        rho = yield from _entangled_mixture(n, d, pool, rng)
        labels, negs = yield from _label(rho)
        ok = labels.all() if keep == "all" else labels.any()
        if ok:
            gen = GEN_MIXED_DEF_CIRCUIT if pool == "circuit" else GEN_MIXED_DEF_HAAR
            return rho, labels, negs, gen, d, 0


def _mixed_entangled_traced(n: int, rng, strategy: str):
    """Marginal of a larger entangled circuit state, labeled per strategy.

    The state is :func:`stategen.traced_mixed_state`'s: the top qubits of the
    circuit register are traced out; ``weakly`` labels add its bridged cuts.
    """
    for _ in _attempts("_mixed_entangled_traced", n):
        n_extra = int(rng.integers(1, 3))
        (psi,), (spec,) = yield from _circuits(n + n_extra, True, 1, rng)
        rho = partial_trace(_as_rho(psi), range(n, n + n_extra))
        labels, negs = yield from _label(rho)
        if strategy == "weakly":
            labels[ent.bridged_cuts(spec, n)] = 1
        elif strategy == "verified" and not labels.all():
            continue  # a cut the criterion cannot certify: drop the state
        return rho, labels, negs, GEN_MIXED_TRACED, 0, pairs_to_mask(spec.cu_pairs, n)


def _family_state(family: str, n: int, rng):
    """One locally randomized state from a bound-entangled family.

    Labels carry 1 on the family's defining entangled cuts, plus any cut the
    negativity oracle happens to certify on top of that.
    """
    rho = ent.pptes_state(family, rng, n)
    negs = yield from _negativities(rho)
    labels = ent.pptes_defining_labels(family, n) | (negs > ent.NPT_THRESHOLD)
    return rho, labels, negs, PPTES_GEN[family], 0, 0


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


def _build_sections(n_qubits, strategy, seed, plan) -> Dataset:
    """Corpus of ``plan``'s ``(name, count, make, rngs, width)`` sections, in order.

    Row j of a section is the row of the maker ``make(rngs[j])``.  Makers run
    ``width`` at a time through :func:`_waves`: WAVE when every sample has
    its own stream, made just before its group, and 1 when a section chains
    one stream.  Rows go straight into columns preallocated in the v1
    record layout.
    """
    manifest = DatasetManifest(n_qubits, strategy, {name: c for name, c, *_ in plan}, seed)
    fields = _record_dtype(n_qubits)
    cols = [np.empty((manifest.count, *fields[c].shape), fields[c].base) for c in COLUMNS]
    row = 0
    for _, count, make, rngs, width in plan:
        for lo in range(0, count, width):
            for rho, *values in _waves([make(next(rngs)) for _ in range(min(width, count - lo))]):
                cols[0][row] = rho.real, rho.imag
                for col, value in zip(cols[1:], values):
                    col[row] = value
                row += 1
    return Dataset(manifest, *cols)


def _scaled_plan(plan, scale, seed, set_tag) -> list:
    """``(name, full count, make)`` sections, scaled.

    Sample i of section ``tag`` draws from its own stream
    ``(seed, set_tag, tag, i)``.
    """
    out = []
    for tag, (name, full, make) in enumerate(plan):
        count = _scaled(full, scale)
        rngs = map(partial(seeded_rng, seed, set_tag, tag), range(count))
        out.append((name, count, make, rngs, WAVE))
    return out


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
    return _build_sections(n_qubits, strategy, seed, _scaled_plan(plan, scale, seed, set_tag))


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
    return tuple(
        _build_sections(n_qubits, "verified", seed, _scaled_plan(plan, scale, seed, set_tag))
        for plan, set_tag in ((pure_plan, _SET_TEST_PURE), (mixed_plan, _SET_TEST_MIXED))
    )


def build_pptes_testset(family: str, count: int, seed: int, n_qubits: int = 3) -> Dataset:
    """``count`` states of one bound-entangled family, all from one stream."""
    if family not in PPTES_GEN:
        raise ValueError(f"unknown PPTES family {family!r}; expected one of {ent.PPTES_FAMILIES}")
    if count < 1:
        raise ValueError("count must be positive")
    rngs = repeat(seeded_rng(seed, _SET_PPTES, PPTES_GEN[family]), count)
    plan = [(f"pptes_{family}", count, partial(_family_state, family, n_qubits), rngs, 1)]
    return _build_sections(n_qubits, "family", seed, plan)


def build_pptes_extension(scale: float, seed: int) -> Dataset:
    """Retraining extension: unextendible-basis plus GHZ-diagonal family states.

    Each section draws all of its states from one stream.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale {scale} outside (0, 1]")
    plan = []
    sections = (("pptes_upb", 20_000, "upb"), ("pptes_acin", 30_000, "acin"))
    for tag, (name, full, family) in enumerate(sections):
        count = _scaled(full, scale)
        rngs = repeat(seeded_rng(seed, _SET_EXTENSION, 100 + tag), count)
        plan.append((name, count, partial(_family_state, family, 3), rngs, 1))
    return _build_sections(3, "family", seed, plan)


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
        FORMAT_VERSION,
        man.num_qubits,
        _STRATEGY_CODES[man.strategy],
        man.count,
        man.master_seed,
    ) + records.tobytes()
    with open(path, "wb") as f:
        f.write(blob)
        f.write(struct.pack("<I", zlib.crc32(blob)))
    values = (FORMAT_VERSION, man.num_qubits, man.strategy, man.master_seed, man.count)
    side = dict(zip(_SIDECAR_KEYS, values))
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
            count = _sidecar_int(sidecar, key, v)
            if count < 0:
                raise DatasetIntegrityError(f"{sidecar}: {key}={v!r} is negative")
            sections[key[len("section."):]] = count
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
