import numpy as np
import pytest

from qent import dataset as dsm
from qent import entanglement as ent
from qent import qcore
from qent.rng import seeded_rng


@pytest.fixture(scope="module")
def small_train():
    return dsm.build_training_set(3, "negativity", 0.002, seed=100)


class TestPairMask:
    def test_round_trip(self):
        pairs = [(0, 2), (1, 3)]
        mask = dsm.pairs_to_mask(pairs, 4)
        assert dsm.mask_to_pairs(mask, 4) == frozenset(frozenset(p) for p in pairs)

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
                pairs = dsm.mask_to_pairs(s.provenance.cu_pairs_mask, 3)
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
        negs = np.zeros(ent.num_bipartitions(qcore.num_qubits(rho.shape[0])))
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
            make(seeded_rng(1, 0, 0, 0))

    def test_entangled_pure_sampler_exhausts_cap(self, monkeypatch):
        monkeypatch.setattr(dsm, "MAX_ATTEMPTS", 4)
        monkeypatch.setattr(ent, "negativity_vector", lambda rho: self.never_certify(rho)[1])
        for pool in ("circuit", "haar"):
            with pytest.raises(dsm.DatasetError, match=r"^sample_entangled_pure: no 4-qubit state accepted in 4 attempts"):
                dsm.sample_entangled_pure(4, pool, seeded_rng(1, 0, 0, 0))


class TestPptesSets:
    def test_counts_and_ppt(self):
        states = dsm.make_pptes_testset("upb", 30, seeded_rng(7, 1))
        assert len(states) == 30
        for s in states:
            assert np.all(s.neg_values < 1e-9)
            assert s.labels.all()

    def test_horodecki_defining_label(self):
        states = dsm.make_pptes_testset("horodecki", 10, seeded_rng(8, 1))
        hidden = ent.horodecki_ppt_cut(3).index - 1
        for s in states:
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

    def test_manifest_must_match_states(self, small_train, tmp_path):
        broken = dsm.Dataset(small_train.manifest, small_train.states[:-1])
        with pytest.raises(dsm.DatasetIntegrityError):
            dsm.save_dataset(broken, tmp_path / "x.qent")
