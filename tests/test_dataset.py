import struct
import zlib

import numpy as np
import pytest

from qent import dataset as dsm
from qent import entanglement as ent
from qent import qcore
from qent import stategen as sg
from qent.rng import seeded_rng


@pytest.fixture(scope="module")
def small_train():
    return dsm.build_training_set(3, "negativity", 0.002, seed=100)


class TestPairMask:
    def test_round_trip(self):
        pairs = [(0, 2), (1, 3)]
        mask = dsm.pairs_to_mask(pairs, 4)
        decoded = [p for i, p in enumerate(dsm.qubit_pairs(4)) if mask >> i & 1]
        assert decoded == pairs

    def test_drops_out_of_range(self):
        assert dsm.pairs_to_mask([(0, 5)], 3) == 0

    def test_fixed_order(self):
        assert dsm.qubit_pairs(3) == [(0, 1), (0, 2), (1, 2)]


class TestCompositions:
    def test_scaled_counts(self, small_train):
        want = {
            "pure_separable": 80,
            "pure_entangled": 120,
            "mixed_separable_mixture": 120,
            "mixed_separable_kron": 40,
            "mixed_entangled_def": 180,
            "mixed_entangled_traced": 120,
        }
        assert small_train.manifest.sections == want
        assert len(small_train) == 660

    def test_one_percent_totals(self):
        # per-section rounding at scale 0.01 reproduces 1% of the full table
        counts = [dsm._scaled(full, 0.01) for _, full in dsm._TRAIN_SECTIONS]
        assert sum(counts) == 3300

    def test_validation_is_tenth(self):
        ds = dsm.build_validation_set(3, 0.02, seed=3)
        assert len(ds) == 660
        assert ds.manifest.strategy == "verified"

    def test_test_set_sizes_and_caps(self):
        pure, mixed = dsm.build_test_sets(3, 0.004, seed=4)
        assert len(pure) == 120 and len(mixed) == 160
        for s in mixed.states:
            if s.provenance.generator in (dsm.GEN_MIXED_DEF_CIRCUIT, dsm.GEN_MIXED_DEF_HAAR):
                assert 2 <= s.provenance.d <= dsm.TEST_D_CAPS[3]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            dsm.build_training_set(3, "nonsense", 0.01, seed=0)
        with pytest.raises(ValueError):
            dsm.build_training_set(6, "verified", 0.01, seed=0)
        with pytest.raises(ValueError):
            dsm.build_training_set(3, "verified", 0.0, seed=0)


class TestLabelingStrategies:
    def test_negativity_strategy_matches_oracle(self, small_train):
        for s in small_train.states:
            if s.provenance.generator in (dsm.GEN_MIXED_SEP_MIXTURE, dsm.GEN_MIXED_SEP_KRON):
                assert not s.labels.any()
            elif s.provenance.generator != dsm.GEN_MIXED_TRACED:
                want = (s.neg_values > ent.NPT_THRESHOLD).astype(np.uint8)
                assert np.array_equal(s.labels, want)

    def test_verified_strategy_certifies_everything(self):
        ds = dsm.build_training_set(3, "verified", 0.001, seed=5)
        for s in ds.states:
            certified = (s.neg_values > ent.NPT_THRESHOLD)
            assert np.all(certified[s.labels == 1])
            if s.provenance.generator in (dsm.GEN_MIXED_DEF_CIRCUIT, dsm.GEN_MIXED_DEF_HAAR, dsm.GEN_MIXED_TRACED):
                assert s.labels.all()

    def test_weak_strategy_dominates_negativity(self):
        ds = dsm.build_training_set(3, "weakly", 0.001, seed=6)
        for s in ds.states:
            if s.provenance.generator == dsm.GEN_MIXED_TRACED:
                nl = (s.neg_values > ent.NPT_THRESHOLD).astype(np.uint8)
                assert np.all(s.labels >= nl)
                # weak marks require a crossing gate pair
                mask = s.provenance.cu_pairs_mask
                pairs = [p for i, p in enumerate(dsm.qubit_pairs(3)) if mask >> i & 1]
                for i, bp in enumerate(ent.enumerate_bipartitions(3)):
                    if s.labels[i] and not nl[i]:
                        crosses = any(
                            (min(p) in bp.side_a) != (max(p) in bp.side_a) for p in pairs
                        )
                        assert crosses

    def test_entangled_mixtures_kept_npt(self, small_train):
        for s in small_train.states:
            if s.provenance.generator in (dsm.GEN_MIXED_DEF_CIRCUIT, dsm.GEN_MIXED_DEF_HAAR):
                assert s.labels.any()
                assert 2 <= s.provenance.d <= 8

    def test_pure_states_are_pure(self, small_train):
        for s in small_train.states:
            if s.provenance.generator in (
                dsm.GEN_PURE_SEP_CIRCUIT,
                dsm.GEN_PURE_ENT_CIRCUIT,
                dsm.GEN_PURE_HAAR,
                dsm.GEN_PURE_GHZ,
                dsm.GEN_PURE_W,
            ):
                purity = np.trace(s.rho @ s.rho).real
                assert purity > 1 - 1e-9


class TestRejectionCap:
    """Every rejection loop gives up after MAX_ATTEMPTS with a DatasetError."""

    @staticmethod
    def never_certify(rho):
        """Zero labels and negativities for a density matrix or a ``[..., K, K]`` stack."""
        negs = np.zeros(rho.shape[:-2] + (ent.num_bipartitions(qcore.num_qubits(rho.shape[-1])),))
        return negs.astype(np.uint8), negs

    @pytest.mark.parametrize(
        "name,make",
        [
            ("_pure_entangled", lambda rng: dsm._pure_entangled(3, rng)),
            ("_mixed_entangled_def", lambda rng: dsm._mixed_entangled_def(3, rng, 4, keep="any")),
            ("_mixed_entangled_traced", lambda rng: dsm._mixed_entangled_traced(3, rng, "verified")),
        ],
    )
    def test_uncertified_labels_exhaust_cap(self, monkeypatch, name, make):
        monkeypatch.setattr(dsm, "MAX_ATTEMPTS", 3)
        monkeypatch.setattr(ent, "label_by_negativity", self.never_certify)
        with pytest.raises(dsm.DatasetError, match=rf"^{name}: no 3-qubit state accepted in 3 attempts"):
            dsm._waves([make(seeded_rng(1, 0, 0, 0))])

    def test_entangled_pure_sampler_exhausts_cap(self, monkeypatch):
        monkeypatch.setattr(dsm, "MAX_ATTEMPTS", 4)
        monkeypatch.setattr(ent, "negativity_vector", lambda rho: self.never_certify(rho)[1])
        for pool in ("circuit", "haar"):
            with pytest.raises(dsm.DatasetError, match=r"^sample_entangled_pure: no 4-qubit state accepted in 4 attempts"):
                dsm.sample_entangled_pure(4, pool, seeded_rng(1, 0, 0, 0))


def sequential_mixture(n, d, pool, rng):
    """Mixture of entangled pure states, one component attempt at a time."""
    probs = sg.random_probs(d, rng)
    comps = []
    while len(comps) < d:
        psi = sg.random_circuit_state(n, True, rng)[0] if pool == "circuit" else sg.haar_state(n, rng)
        if np.all(ent.negativity_vector(np.outer(psi, psi.conj())) > ent.NPT_THRESHOLD):
            comps.append(psi)
    return sg.mix_states(probs, comps)


class TestDeficitBatches:
    @pytest.mark.parametrize("n,pool", [(3, "circuit"), (3, "haar"), (4, "circuit"), (5, "haar")])
    @pytest.mark.parametrize("d", [1, 2, 7, 40])
    def test_mixture_stream_ends_where_sequential_does(self, n, pool, d):
        rng, ref = seeded_rng(60, n, d), seeded_rng(60, n, d)
        rho = dsm.mixture_of_entangled(n, d, pool, rng)
        assert rho.tobytes() == sequential_mixture(n, d, pool, ref).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestPptesSets:
    def test_counts_and_ppt(self):
        ds = dsm.build_pptes_testset("upb", 30, seed=7)
        assert len(ds) == 30 and ds.manifest.sections == {"pptes_upb": 30}
        assert np.all(ds.generator == dsm.GEN_PPTES_UPB)
        for s in ds.states:
            assert np.all(s.neg_values < 1e-9)
            assert s.labels.all()

    def test_horodecki_defining_label(self):
        ds = dsm.build_pptes_testset("horodecki", 10, seed=8)
        hidden = ent.horodecki_ppt_cut(3).index - 1
        for s in ds.states:
            assert s.labels[hidden] == 1
            assert s.neg_values[hidden] < 1e-9

    def test_extension_composition(self):
        ds = dsm.build_pptes_extension(0.002, seed=9)
        assert ds.manifest.sections == {"pptes_upb": 40, "pptes_acin": 60}
        assert len(ds) == 100

    def test_every_state_valid(self):
        ds = dsm.build_pptes_testset("acin", 25, seed=10)
        for s in ds.states:
            qcore.validate_density_matrix(s.rho)


class TestSampleStreams:
    """Per-section accounting reads one ``seeded_rng(seed, set, section, i)``
    call per row, in section and index order, and counts every negativity
    toward the section of the last such call: so no stream call or
    negativity of one section may fall between the calls of another."""

    @pytest.fixture
    def events(self, monkeypatch):
        events = []
        rng_fn, neg_fn = dsm.seeded_rng, ent.negativity_vector

        def recorder(*key):
            events.append(("rng", key))
            return rng_fn(*key)

        def negativity(rho):
            events.append(("neg", neg_fn(rho)))
            return events[-1][1]

        monkeypatch.setattr(dsm, "seeded_rng", recorder)
        monkeypatch.setattr(ent, "negativity_vector", negativity)
        return events

    @staticmethod
    def build():
        built = [(dsm._SET_TRAIN, dsm.build_training_set(3, "negativity", 0.0005, seed=30))]
        tests = dsm.build_test_sets(3, 0.0005, seed=30)
        return built + list(zip((dsm._SET_TEST_PURE, dsm._SET_TEST_MIXED), tests))

    def test_one_call_per_row_before_the_row(self, events):
        built = self.build()
        calls = [j for j, (kind, key) in enumerate(events) if kind == "rng" and len(key) == 4]
        assert [events[j][1] for j in calls] == [
            (30, set_tag, tag, i)
            for set_tag, ds in built
            for tag, count in enumerate(ds.manifest.sections.values())
            for i in range(count)
        ]
        # Each stored negativity is computed after its section's first stream
        # call and before the next section's first one.
        assert calls[0] == 0
        first = {}
        for j in calls:
            first.setdefault(events[j][1][1:3], j)
        ends = list(first.values())[1:] + [len(events)]
        stored = {}
        for set_tag, ds in built:
            lo = 0
            for tag, count in enumerate(ds.manifest.sections.values()):
                stored[(set_tag, tag)] = ds.negs[lo : lo + count]
                lo += count
        for (section, lo), hi in zip(first.items(), ends):
            seen = {row.tobytes() for kind, v in events[lo:hi] if kind == "neg"
                    for row in v.reshape(-1, v.shape[-1])}
            assert all(row.tobytes() in seen for row in stored[section]), section

    def test_stored_negativities_equal_a_lone_call(self):
        for _, ds in self.build():
            rhos, _, negs = ds.arrays()
            for rho, row in zip(rhos, negs):
                assert ent.negativity_vector(rho).tobytes() == row.tobytes()

    def test_family_sets_make_no_sample_calls(self, events):
        dsm.build_pptes_testset("acin", 4, seed=31)
        dsm.build_pptes_extension(0.0002, seed=31)
        keys = [key for kind, key in events if kind == "rng"]
        assert keys and all(len(key) == 3 for key in keys)


class TestColumns:
    def test_columns_shapes_and_dtypes(self, small_train):
        n = len(small_train)
        assert small_train.channels.shape == (n, 2, 8, 8) and small_train.channels.dtype == np.float64
        assert small_train.labels.shape == (n, 3) and small_train.labels.dtype == np.uint8
        assert small_train.negs.shape == (n, 3) and small_train.negs.dtype == np.float64
        for name, dtype in (("generator", np.uint8), ("d", np.uint16), ("mask", np.uint32)):
            assert getattr(small_train, name).shape == (n,)
            assert getattr(small_train, name).dtype == dtype

    def test_arrays_keep_every_bit_of_the_planes(self, small_train):
        rhos, labels, negs = small_train.arrays()
        planes = np.stack([rhos.real, rhos.imag], axis=1)
        assert np.array_equal(planes.view(np.uint64), small_train.channels.view(np.uint64))
        assert np.array_equal(labels, small_train.labels)
        assert np.array_equal(negs, small_train.negs)

    def test_states_view_builds_rows(self, small_train):
        rhos, labels, negs = small_train.arrays()
        view = small_train.states
        assert len(view) == len(small_train)
        for i in (0, 7, -1):
            s = view[i]
            assert np.array_equal(s.rho, rhos[i])
            assert np.array_equal(s.labels, labels[i]) and np.array_equal(s.neg_values, negs[i])
            assert s.provenance == dsm.Provenance(
                int(small_train.generator[i]), int(small_train.d[i]), int(small_train.mask[i])
            )
        assert [s.provenance for s in view[2:5]] == [view[j].provenance for j in (2, 3, 4)]
        with pytest.raises(IndexError):
            view[len(small_train)]
        with pytest.raises(TypeError):
            view[0] = view[1]


class TestPersistence:
    def test_round_trip_exact(self, small_train, tmp_path):
        path = tmp_path / "t.qent"
        dsm.save_dataset(small_train, path)
        back = dsm.load_dataset(path)
        assert back.manifest == small_train.manifest
        for a, b in zip(small_train.states, back.states):
            assert np.array_equal(a.rho, b.rho)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.neg_values, b.neg_values)
            assert a.provenance == b.provenance

    def test_same_seed_byte_identical(self, small_train, tmp_path):
        again = dsm.build_training_set(3, "negativity", 0.002, seed=100)
        p1, p2 = tmp_path / "a.qent", tmp_path / "b.qent"
        dsm.save_dataset(small_train, p1)
        dsm.save_dataset(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self, small_train, tmp_path):
        other = dsm.build_training_set(3, "negativity", 0.002, seed=101)
        p1, p2 = tmp_path / "a.qent", tmp_path / "b.qent"
        dsm.save_dataset(small_train, p1)
        dsm.save_dataset(other, p2)
        assert p1.read_bytes() != p2.read_bytes()

    def test_loaded_states_satisfy_invariants(self, small_train, tmp_path):
        path = tmp_path / "t.qent"
        dsm.save_dataset(small_train, path)
        back = dsm.load_dataset(path)
        for s in back.states[::37]:
            qcore.validate_density_matrix(s.rho)

    def test_corruption_error_taxonomy(self, small_train, tmp_path):
        path = tmp_path / "t.qent"
        dsm.save_dataset(small_train, path)
        raw = bytearray(path.read_bytes())

        bad = tmp_path / "bad.qent"
        bad.write_bytes(b"XENT" + bytes(raw[4:]))
        with pytest.raises(dsm.DatasetFormatError):
            dsm.load_dataset(bad)

        wrong_version = bytearray(raw)
        wrong_version[4] = 99
        bad.write_bytes(bytes(wrong_version))
        with pytest.raises(dsm.DatasetVersionError):
            dsm.load_dataset(bad)

        zero_qubits = bytearray(raw)
        zero_qubits[8] = 0  # qubit-count byte
        bad.write_bytes(bytes(zero_qubits))
        with pytest.raises(dsm.DatasetFormatError):
            dsm.load_dataset(bad)

        bad.write_bytes(bytes(raw[:-200]))
        with pytest.raises(dsm.DatasetTruncatedError):
            dsm.load_dataset(bad)

        flipped = bytearray(raw)
        flipped[len(raw) // 2] ^= 0xFF
        bad.write_bytes(bytes(flipped))
        with pytest.raises(dsm.DatasetChecksumError):
            dsm.load_dataset(bad)

        bad.write_bytes(bytes(raw) + b"junk")
        with pytest.raises(dsm.DatasetIntegrityError):
            dsm.load_dataset(bad)

    def test_sidecar_count_mismatch(self, small_train, tmp_path):
        path = tmp_path / "t.qent"
        dsm.save_dataset(small_train, path)
        side = path.with_name("t.qent.manifest")
        text = side.read_text().replace("section.pure_separable=80", "section.pure_separable=81")
        side.write_text(text)
        with pytest.raises(dsm.DatasetIntegrityError):
            dsm.load_dataset(path)

    @pytest.mark.parametrize(
        "edit,key",
        [
            (lambda text: text.replace("section.pure_separable=80", "section.pure_separable=8x"),
             "section.pure_separable"),
            (lambda text: text.replace("section.mixed_separable_kron=", "section.mixed_separable_kron "),
             "section.mixed_separable_kron"),
        ],
    )
    def test_malformed_sidecar_names_key(self, small_train, tmp_path, edit, key):
        path = tmp_path / "t.qent"
        dsm.save_dataset(small_train, path)
        side = path.with_name("t.qent.manifest")
        side.write_text(edit(side.read_text()))
        with pytest.raises(dsm.DatasetFormatError, match=key):
            dsm.load_dataset(path)

    def test_record_dtype_is_v1_record(self):
        assert [dsm._record_dtype(n).itemsize for n in (3, 4, 5)] == [1058, 4166, 16526]

    @pytest.mark.parametrize(
        "edits,error,key",
        [
            ({"format_version": "2"}, dsm.DatasetIntegrityError, "format_version"),
            ({"num_qubits": "4"}, dsm.DatasetIntegrityError, "num_qubits"),
            ({"strategy": "weakly"}, dsm.DatasetIntegrityError, "strategy"),
            ({"master_seed": "99"}, dsm.DatasetIntegrityError, "master_seed"),
            ({"count": "4"}, dsm.DatasetIntegrityError, "count"),
            ({"strategy": "weakly", "num_qubits": "5", "master_seed": "99"},
             dsm.DatasetIntegrityError, "num_qubits"),
            ({"format_version": "v1"}, dsm.DatasetFormatError, "format_version"),
            ({"num_qubits": "3.0"}, dsm.DatasetFormatError, "num_qubits"),
            ({"master_seed": "x"}, dsm.DatasetFormatError, "master_seed"),
            ({"count": ""}, dsm.DatasetFormatError, "count"),
            # a negative section whose sum still matches the header's count
            ({"section.pptes_upb": "5", "section.extra": "-2"},
             dsm.DatasetIntegrityError, "section.extra"),
        ],
    )
    def test_sidecar_must_match_header(self, tmp_path, edits, error, key):
        path = tmp_path / "u.qent"
        dsm.save_dataset(dsm.build_pptes_testset("upb", 3, seed=12), path)
        side = path.with_name("u.qent.manifest")
        dsm.write_kv(side, {**dsm.read_kv(side), **edits})
        with pytest.raises(error, match=rf"{key}="):
            dsm.load_dataset(path)

    @pytest.mark.parametrize(
        "edit,match",
        [
            (lambda planes: planes[0].__imul__(2.0), "trace"),  # every entry doubled: trace 2
            (lambda planes: planes[0, 0].__setitem__(1, planes[0, 0, 1] + 0.1), "Hermitian"),
        ],
    )
    def test_loaded_matrices_validated(self, small_train, tmp_path, edit, match):
        """A CRC-valid file whose first record is no density matrix raises."""
        path = tmp_path / "t.qent"
        dsm.save_dataset(small_train, path)
        raw = bytearray(path.read_bytes()[:-4])
        at = dsm._HEADER.size
        planes = np.frombuffer(raw, "<f8", count=2 * 64, offset=at).reshape(2, 8, 8).copy()
        edit(planes)
        raw[at : at + planes.nbytes] = planes.tobytes()
        path.write_bytes(bytes(raw) + struct.pack("<I", zlib.crc32(raw)))
        with pytest.raises(dsm.DatasetIntegrityError, match=match):
            dsm.load_dataset(path)

    def test_save_rejects_unsafe_column_cast(self, tmp_path):
        """A column that does not fit its record field raises, naming the column."""
        ds = dsm.build_pptes_testset("upb", 3, seed=12)
        ds.labels = ds.labels.astype(np.int64)
        ds.labels[0, 0] = 256
        path = tmp_path / "u.qent"
        with pytest.raises(dsm.DatasetIntegrityError, match="column labels"):
            dsm.save_dataset(ds, path)
        assert not path.exists()

    def test_negative_negativity_row_raises_on_access(self, tmp_path):
        """A CRC-valid file with a negative negativity loads; its row raises when read."""
        path = tmp_path / "u.qent"
        dsm.save_dataset(dsm.build_pptes_testset("upb", 3, seed=12), path)
        raw = bytearray(path.read_bytes()[:-4])
        at = dsm._HEADER.size + dsm._record_dtype(3).fields["negs"][1]
        raw[at : at + 8] = struct.pack("<d", -0.5)
        path.write_bytes(bytes(raw) + struct.pack("<I", zlib.crc32(raw)))
        ds = dsm.load_dataset(path)
        assert ds.negs[0, 0] == -0.5
        with pytest.raises(dsm.DatasetIntegrityError, match="row 0"):
            ds.states[0]
        assert ds.states[1].neg_values.shape == (3,)

    def test_manifest_must_match_states(self, small_train, tmp_path):
        columns = (getattr(small_train, c)[:-1] for c in dsm.COLUMNS)
        broken = dsm.Dataset(small_train.manifest, *columns)
        with pytest.raises(dsm.DatasetIntegrityError):
            dsm.save_dataset(broken, tmp_path / "x.qent")
