import numpy as np
import pytest

from qent import dataset as dsm
from qent import entanglement as ent
from qent import harness as hn
from qent import model as mdl
from qent.rng import seeded_rng


def tiny_arch(n=3):
    return mdl.ArchConfig(n_qubits=n, r1=4.0, fc_layers=2, fc_units=16)


class _FixedModel:
    """Stub classifier emitting preset probabilities, row-matched to a dataset."""

    def __init__(self, probs, n_qubits=3):
        self._probs = np.asarray(probs, dtype=float)
        self._row = 0
        self.n_qubits = n_qubits

    def forward(self, x):
        out = self._probs[self._row : self._row + x.shape[0]]
        self._row = (self._row + x.shape[0]) % len(self._probs)
        import qent.autograd as ag

        return ag.Tensor(out)


@pytest.fixture(scope="module")
def mixed_sets():
    return dsm.build_test_sets(3, 0.002, seed=50)


class TestAccuracy:
    def test_perfect_predictions(self, mixed_sets):
        _, mixed = mixed_sets
        _, labels, _ = mixed.arrays()
        model = _FixedModel(labels.astype(float))
        report = hn.evaluate_accuracy(model, mixed, "mixed")
        assert report.accuracy == 1.0
        for bp in report.per_bipartition:
            assert bp.fp == bp.fn == 0
            assert bp.total == len(mixed)

    def test_inverted_predictions(self, mixed_sets):
        _, mixed = mixed_sets
        _, labels, _ = mixed.arrays()
        model = _FixedModel(1.0 - labels.astype(float))
        assert hn.evaluate_accuracy(model, mixed, "mixed").accuracy == 0.0

    def test_constant_guess_on_balanced_labels(self):
        rng = seeded_rng(51, 0)
        rhos = np.stack([dsm.mixture_of_separable(3, 2, rng) for _ in range(4)])
        labels = np.zeros((4, 3), dtype=np.uint8)
        labels[:, 0] = [0, 1, 0, 1]
        negs = np.stack([ent.negativity_vector(rho) for rho in rhos])
        ds = dsm.Dataset(
            dsm.DatasetManifest(3, "negativity", {"all": 4}, 51),
            np.stack([rhos.real, rhos.imag], axis=1),
            labels,
            negs,
            np.zeros(4, np.uint8),
            np.zeros(4, np.uint16),
            np.zeros(4, np.uint32),
        )
        model = _FixedModel(np.full((4, 3), 0.45))
        mask = np.zeros((4, 3), dtype=bool)
        mask[:, 0] = True
        report = hn.evaluate_accuracy(model, ds, mask=mask)
        assert report.accuracy == 0.5

    def test_matches_independent_recount(self, mixed_sets):
        pure, _ = mixed_sets
        model = mdl.build_cnn(tiny_arch(), seed=3)
        report = hn.evaluate_accuracy(model, pure, "pure")
        _, labels, _ = pure.arrays()
        preds = (report.probabilities >= 0.5).astype(int)
        recount = sum(
            int(preds[i, j] == labels[i, j])
            for i in range(labels.shape[0])
            for j in range(labels.shape[1])
        ) / labels.size
        assert abs(report.accuracy - recount) < 1e-12

    def test_confusion_counts_sum(self, mixed_sets):
        _, mixed = mixed_sets
        model = mdl.build_cnn(tiny_arch(), seed=4)
        report = hn.evaluate_accuracy(model, mixed)
        for bp in report.per_bipartition:
            assert bp.tp + bp.tn + bp.fp + bp.fn == len(mixed)

    @pytest.mark.filterwarnings("error")
    def test_empty_test_set(self):
        pure, _ = dsm.build_test_sets(3, 0.00001, seed=52)
        model = mdl.build_cnn(tiny_arch(), seed=5)
        report = hn.evaluate_accuracy(model, pure, "pure")
        assert report.num_samples == 0 and np.isnan(report.accuracy)
        assert report.probabilities.shape == (0, 3)


class TestConvNeg:
    def test_indicator_predictions_score_one(self, mixed_sets):
        _, mixed = mixed_sets
        _, _, negs = mixed.arrays()
        model = _FixedModel((negs > ent.NPT_THRESHOLD).astype(float))
        assert hn.evaluate_accuracy(model, mixed).conv_neg == 1.0

    def test_inverted_indicator_scores_zero(self, mixed_sets):
        _, mixed = mixed_sets
        _, _, negs = mixed.arrays()
        model = _FixedModel(1.0 - (negs > ent.NPT_THRESHOLD).astype(float))
        assert hn.evaluate_accuracy(model, mixed).conv_neg == 0.0

    def test_equals_accuracy_on_negativity_consistent_labels(self, mixed_sets):
        _, mixed = mixed_sets
        model = mdl.build_cnn(tiny_arch(), seed=5)
        report = hn.evaluate_accuracy(model, mixed)
        assert abs(report.conv_neg - report.accuracy) < 1e-12

    def test_bounded(self, mixed_sets):
        pure, _ = mixed_sets
        model = mdl.build_cnn(tiny_arch(), seed=6)
        v = hn.evaluate_accuracy(model, pure).conv_neg
        assert 0.0 <= v <= 1.0


class TestCombined:
    def test_npt_cut_overrides_network(self):
        rng = seeded_rng(52, 0)
        model = _FixedModel(np.zeros((1, 3)))
        rho = dsm.mixture_of_entangled(3, 2, "haar", rng)
        negs = ent.negativity_vector(rho)
        assert np.all(negs > ent.NPT_THRESHOLD)
        out = hn.combined_classify(model, rho)
        assert list(out) == [1, 1, 1]

    def test_separable_with_low_network_output(self):
        rng = seeded_rng(53, 0)
        model = _FixedModel(np.full((1, 3), 0.2))
        out = hn.combined_classify(model, dsm.mixture_of_separable(3, 3, rng))
        assert not out.any()

    def test_perfect_on_npt_only_entangled_cuts(self, mixed_sets):
        _, mixed = mixed_sets
        model = mdl.build_cnn(tiny_arch(), seed=7)
        report = hn.evaluate_accuracy(model, mixed, combined=True)
        _, labels, _ = mixed.arrays()
        ent_mask = labels == 1
        preds = np.maximum(
            (report.probabilities >= 0.5).astype(np.uint8),
            (mixed.arrays()[2] > ent.NPT_THRESHOLD).astype(np.uint8),
        )
        assert np.all(preds[ent_mask] == 1)

    def test_combined_never_below_plain_on_entangled(self, mixed_sets):
        _, mixed = mixed_sets
        model = mdl.build_cnn(tiny_arch(), seed=8)
        plain = hn.evaluate_accuracy(model, mixed)
        comb = hn.evaluate_accuracy(model, mixed, combined=True)
        assert comb.accuracy >= plain.accuracy - 1e-12


class TestTraining:
    def test_loss_decreases(self):
        ds = dsm.build_training_set(3, "negativity", 0.0015, seed=54)
        model = mdl.build_cnn(tiny_arch(), seed=9)
        cfg = mdl.TrainConfig(epochs=6, seed=9, batch_size=32)
        res = hn.train_model(model, ds, None, cfg, kind="cnn")
        first = np.mean(res.step_losses[: len(res.step_losses) // 6])
        last = np.mean(res.step_losses[-len(res.step_losses) // 6 :])
        assert last < first

    def test_deterministic_training(self):
        ds = dsm.build_training_set(3, "negativity", 0.0006, seed=55)

        def run(kind):
            model = mdl.build_cnn(tiny_arch(), seed=10)
            cfg = mdl.TrainConfig(epochs=2, seed=10, batch_size=16, lambda1=0.5, lambda2=0.5)
            res = hn.train_model(model, ds, None, cfg, kind=kind)
            return res.step_losses, model.param_arrays()

        l1, p1 = run("cnn")
        l2, p2 = run("cnn")
        assert l1 == l2
        assert all(np.array_equal(a, b) for a, b in zip(p1, p2))
        s1, _ = run("siamese")
        s2, _ = run("siamese")
        assert s1 == s2

    def test_siamese_zero_weights_reproduces_cnn_steps(self):
        ds = dsm.build_training_set(3, "negativity", 0.0006, seed=56)

        def run(kind, lam):
            model = mdl.build_cnn(tiny_arch(), seed=11)
            cfg = mdl.TrainConfig(epochs=2, seed=11, batch_size=16, lambda1=lam, lambda2=lam)
            return hn.train_model(model, ds, None, cfg, kind=kind).step_losses

        cnn = run("cnn", 0.5)  # lambdas unused by the cnn path
        siam = run("siamese", 0.0)
        assert len(cnn) == len(siam)
        assert all(abs(a - b) < 1e-10 for a, b in zip(cnn, siam))

    def test_validation_selects_best_epoch(self):
        train = dsm.build_training_set(3, "negativity", 0.001, seed=57)
        valid = dsm.build_validation_set(3, 0.01, seed=57)
        model = mdl.build_cnn(tiny_arch(), seed=12)
        cfg = mdl.TrainConfig(epochs=3, seed=12, batch_size=32)
        res = hn.train_model(model, train, valid, cfg, kind="cnn")
        assert len(res.val_accuracies) == 3
        assert res.best_epoch == int(np.argmax(res.val_accuracies))

    @pytest.mark.parametrize("kind", ["cnn", "siamese"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_one_epoch_smoke(self, n, kind):
        train = dsm.build_training_set(n, "negativity", 0.0002, seed=58)
        valid = dsm.build_validation_set(n, 0.0002, seed=58)
        model = mdl.build_cnn(tiny_arch(n), seed=13)
        cfg = mdl.TrainConfig(epochs=1, seed=13, batch_size=32)
        res = hn.train_model(model, train, valid, cfg, kind=kind)
        assert len(res.step_losses) == -(-len(train) // 32)
        assert np.all(np.isfinite(res.step_losses))
        assert len(res.val_accuracies) == 1 and res.best_epoch == 0

        m = ent.num_bipartitions(n)
        report = hn.evaluate_accuracy(model, valid, "valid", combined=True)
        assert (report.num_samples, report.num_bipartitions) == (len(valid), m)
        assert len(report.per_bipartition) == m
        assert all(bp.total == len(valid) for bp in report.per_bipartition)
        for value in (report.accuracy, report.conv_neg, report.npt_fraction):
            assert 0.0 <= value <= 1.0
        assert report.probabilities.shape == (len(valid), m)
        assert np.all(np.isfinite(report.probabilities))

    def test_qubit_mismatch_rejected(self):
        ds = dsm.build_training_set(3, "negativity", 0.0003, seed=58)
        model = mdl.build_cnn(tiny_arch(4), seed=13)
        with pytest.raises(ValueError):
            hn.train_model(model, ds, None, mdl.TrainConfig(epochs=1, seed=13), kind="cnn")


class TestTransition:
    def test_curve_shapes_and_separable_zero(self):
        curves = hn.transition_analysis(None, 3, [2, 10, 30], 40, seeded_rng(59, 0))
        assert curves.d_values == [2, 10, 30]
        sep = curves.series["separable"]["npt_fraction"]
        assert sep == [0.0, 0.0, 0.0]
        ent_frac = curves.series["entangled_circuit"]["npt_fraction"]
        assert ent_frac[0] > 0.9
        assert ent_frac[-1] < ent_frac[0]

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            hn.transition_analysis(None, 3, [2, 40], 5, seeded_rng(60, 0))

    def test_empty_inputs_name_the_argument(self):
        with pytest.raises(ValueError, match="samples_per_d"):
            hn.transition_analysis(None, 3, [2, 5], 0, seeded_rng(60, 1))
        with pytest.raises(ValueError, match="d_values"):
            hn.transition_analysis(None, 3, [], 5, seeded_rng(60, 1))

    def test_haar_pool_keeps_npt_mass_at_cap(self):
        # the cap is sized so a non-negligible NPT slice survives the mixing
        curves = hn.transition_analysis(
            None, 3, [dsm.TEST_D_CAPS[3]], 300, seeded_rng(64, 0)
        )
        assert curves.series["entangled_haar"]["npt_fraction"][0] >= 0.1

    def test_conv_neg_series_with_model(self):
        model = mdl.build_cnn(tiny_arch(), seed=14)
        curves = hn.transition_analysis(model, 3, [2, 5], 10, seeded_rng(61, 0))
        for pool in ("entangled_circuit", "entangled_haar", "separable"):
            for v in curves.series[pool]["conv_neg"]:
                assert 0.0 <= v <= 1.0


class TestPptesMask:
    def test_mask_covers_defining_and_certified(self):
        ds = dsm.build_pptes_testset("horodecki", 15, seed=62)
        mask = hn.pptes_eval_mask(ds)
        hidden = ent.horodecki_ppt_cut(3).index - 1
        assert mask[:, hidden].all()
        _, _, negs = ds.arrays()
        assert np.all(mask[negs > ent.NPT_THRESHOLD])


class TestDataChecks:
    """Training and scoring refuse corpora with bad labels or negativities."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return dsm.build_pptes_testset("horodecki", 6, seed=63)

    @staticmethod
    def corrupted(ds, column, row, value):
        cols = {c: getattr(ds, c).copy() for c in dsm.COLUMNS}
        cols[column][row, 1] = value
        return dsm.Dataset(ds.manifest, *(cols[c] for c in dsm.COLUMNS))

    @pytest.mark.parametrize("column,value", [("labels", 2), ("negs", np.nan), ("negs", np.inf), ("negs", -0.5)])
    def test_every_user_names_column_and_first_row(self, corpus, column, value):
        bad = self.corrupted(self.corrupted(corpus, column, 4, value), column, 3, value)
        model = mdl.build_cnn(tiny_arch(), seed=1)
        cfg = mdl.TrainConfig(epochs=1, seed=1, batch_size=4)
        calls = [
            lambda: hn.train_model(model, bad, None, cfg),
            lambda: hn.train_model(model, corpus, bad, cfg),
            lambda: hn.evaluate_accuracy(model, bad),
            lambda: hn.pptes_eval_mask(bad),
        ]
        for call in calls:
            with pytest.raises(dsm.DatasetIntegrityError, match=rf"^column {column}, row 3: "):
                call()

    def test_negative_label_in_signed_column(self, corpus):
        cols = {c: getattr(corpus, c) for c in dsm.COLUMNS}
        cols["labels"] = cols["labels"].astype(np.int16)
        cols["labels"][2, 0] = -1
        with pytest.raises(dsm.DatasetIntegrityError, match=r"^column labels, row 2: "):
            dsm.check_labels(dsm.Dataset(corpus.manifest, *(cols[c] for c in dsm.COLUMNS)))

    def test_clean_corpus_passes(self, corpus):
        dsm.check_labels(corpus)
        assert hn.pptes_eval_mask(corpus).shape == corpus.labels.shape

    def test_epoch_timing(self, corpus):
        model = mdl.build_cnn(tiny_arch(), seed=2)
        res = hn.train_model(model, corpus, corpus, mdl.TrainConfig(epochs=3, seed=2, batch_size=4))
        assert len(res.epoch_seconds) == len(res.epoch_samples_per_s) == 3
        assert all(s > 0 for s in res.epoch_seconds) and sum(res.epoch_seconds) <= res.seconds
        for s, rate in zip(res.epoch_seconds, res.epoch_samples_per_s):
            assert rate == len(corpus) / s


class TestConcat:
    def test_saved_concat_equals_parts_in_order(self, mixed_sets, tmp_path):
        pure, mixed = mixed_sets
        path = tmp_path / "both.qent"
        dsm.save_dataset(hn.concat_datasets(pure, mixed), path)
        back = dsm.load_dataset(path)
        assert back.manifest.sections == {**pure.manifest.sections, **mixed.manifest.sections}
        assert len(back) == len(pure) + len(mixed)
        for got, a, b in zip(back.arrays(), pure.arrays(), mixed.arrays()):
            assert np.array_equal(got, np.concatenate([a, b]))
        parts = [s.provenance for s in pure.states] + [s.provenance for s in mixed.states]
        assert [s.provenance for s in back.states] == parts


class TestWriters:
    def test_writers(self, tmp_path):
        reports = [
            hn.MetricsReport("a", 1, 3, 0.5, [], 0.25, 0.1, 1.0),
            hn.MetricsReport("b", 2, 3, 0.75, [], 0.5, 0.2, 2.0),
        ]
        hn.write_metrics_csv(tmp_path / "m.csv", reports)
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0] == "dataset,accuracy,convneg,npt_fraction,seconds"
        assert len(lines) == 3
        curves = hn.TransitionCurves(
            [2, 3],
            {"separable": {"npt_fraction": [0.0, 0.0], "conv_neg": [1.0, 0.5]}},
        )
        hn.write_transition_csv(tmp_path / "t.csv", curves)
        top = (tmp_path / "t.csv").read_text().splitlines()[0]
        assert top == "d,convneg_separable,npt_fraction_separable"
