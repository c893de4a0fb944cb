import numpy as np
import pytest

from qent import cli
from qent import dataset as dsm


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated corpora plus a trained checkpoint shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run(["gen", "--qubits", 3, "--strategy", "negativity", "--scale", 0.001,
                "--seed", 11, "--out", data]) == 0
    assert run(["gen", "--qubits", 3, "--scale", 0.001, "--seed", 11, "--out", data,
                "--set", "valid"]) == 0
    assert run(["gen", "--qubits", 3, "--scale", 0.001, "--seed", 11, "--out", data,
                "--set", "test"]) == 0
    assert run(["gen", "--qubits", 3, "--scale", 0.002, "--seed", 11, "--out", data,
                "--set", "pptes:upb"]) == 0
    ckpt = root / "model.ckpt"
    assert run(["train", "--data", data / "train.qent", "--valid", data / "valid.qent",
                "--model", "cnn", "--epochs", 2, "--seed", 12, "--batch-size", 32,
                "--out", ckpt]) == 0
    return root


class TestGen:
    def test_summary_reports_rate(self, tmp_path, capsys):
        assert run(["gen", "--qubits", 3, "--scale", 0.002, "--seed", 16, "--out", tmp_path,
                    "--set", "pptes:acin"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith(f"wrote {tmp_path / 'pptes_acin.qent'}: 20 states (")
        assert line.endswith(" states/s)") and float(line.split()[-2]) > 0

    def test_outputs_exist_with_manifests(self, workspace):
        data = workspace / "data"
        for name in ("train.qent", "valid.qent", "test_pure.qent", "test_mixed.qent",
                     "pptes_upb.qent"):
            assert (data / name).exists()
            assert (data / (name + ".manifest")).exists()
        assert len(dsm.load_dataset(data / "train.qent")) == 330
        assert len(dsm.load_dataset(data / "pptes_upb.qent")) == 20

    def test_config_snapshot_written(self, workspace):
        text = (workspace / "data" / "config_gen_train.txt").read_text()
        assert "seed=11" in text and "scale=0.001" in text

    def test_repeat_invocation_byte_identical(self, workspace, tmp_path):
        again = tmp_path / "again"
        assert run(["gen", "--qubits", 3, "--strategy", "negativity", "--scale", 0.001,
                    "--seed", 11, "--out", again]) == 0
        a = (workspace / "data" / "train.qent").read_bytes()
        b = (again / "train.qent").read_bytes()
        assert a == b

    def test_bad_flags_fail(self, tmp_path, capsys):
        assert run(["gen", "--qubits", 3, "--scale", 2.0, "--seed", 1,
                    "--out", tmp_path / "x"]) == 1
        capsys.readouterr()
        assert run(["gen", "--qubits", 3, "--scale", 0.001, "--seed", 1,
                    "--out", tmp_path / "x", "--set", "pptes:foo"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'foo'" in err and "'horodecki'" in err
        for scale in (-1, 7):
            assert run(["gen", "--qubits", 3, "--scale", scale, "--seed", 1,
                        "--out", tmp_path / "x", "--set", "pptes:acin"]) == 1
            assert capsys.readouterr().err == f"error: scale {float(scale)} outside (0, 1]\n"
        assert not (tmp_path / "x" / "pptes_acin.qent").exists()
        with pytest.raises(SystemExit):
            run(["gen", "--qubits", 3, "--scale", 0.01, "--out", tmp_path / "x"])  # no seed


class TestTrain:
    def test_checkpoint_and_log(self, workspace):
        ckpt = workspace / "model.ckpt"
        assert ckpt.exists() and (workspace / "model.ckpt.arch").exists()
        log = (workspace / "model.ckpt.log.csv").read_text().splitlines()
        assert log[0] == "epoch,mean_loss,val_accuracy,seconds,samples_per_s"
        assert len(log) == 3
        for line in log[1:]:
            seconds, rate = map(float, line.split(",")[3:])
            assert seconds > 0 and rate > 0

    def test_siamese_zero_lambdas_match_cnn_losses(self, workspace, tmp_path):
        data = workspace / "data"
        args = ["--data", data / "train.qent", "--epochs", 1, "--seed", 13,
                "--batch-size", 32]
        c1 = tmp_path / "a.ckpt"
        c2 = tmp_path / "b.ckpt"
        assert run(["train", *args, "--model", "cnn", "--out", c1]) == 0
        assert run(["train", *args, "--model", "siamese", "--lambda1", 0, "--lambda2", 0,
                    "--out", c2]) == 0
        # epoch, loss and accuracy columns; the timing columns differ run to run
        l1 = [line.split(",")[:3] for line in (tmp_path / "a.ckpt.log.csv").read_text().splitlines()]
        l2 = [line.split(",")[:3] for line in (tmp_path / "b.ckpt.log.csv").read_text().splitlines()]
        assert l1 == l2 and len(l1) == 2

    def test_resume_with_extra_data(self, workspace, tmp_path):
        data = workspace / "data"
        out = tmp_path / "retrained.ckpt"
        assert run(["train", "--data", data / "train.qent", "--extra-data",
                    data / "pptes_upb.qent", "--resume", workspace / "model.ckpt",
                    "--epochs", 1, "--seed", 14, "--batch-size", 32, "--out", out]) == 0
        assert out.exists()

    def test_resume_qubit_mismatch_fails(self, workspace, tmp_path):
        # a 4-qubit corpus cannot resume a 3-qubit checkpoint
        data4 = tmp_path / "d4"
        assert run(["gen", "--qubits", 4, "--strategy", "negativity", "--scale", 0.0001,
                    "--seed", 15, "--out", data4]) == 0
        rc = run(["train", "--data", data4 / "train.qent", "--resume", workspace / "model.ckpt",
                  "--epochs", 1, "--seed", 15, "--out", tmp_path / "x.ckpt"])
        assert rc == 1

    def test_missing_data_fails(self, tmp_path):
        rc = run(["train", "--data", tmp_path / "none.qent", "--epochs", 1,
                  "--seed", 1, "--out", tmp_path / "x.ckpt"])
        assert rc == 1


class TestEval:
    def test_metrics_written(self, workspace, tmp_path):
        data = workspace / "data"
        out = tmp_path / "eval"
        assert run(["eval", "--ckpt", workspace / "model.ckpt", "--data",
                    data / "test_pure.qent", data / "test_mixed.qent",
                    "--combined", "--out", out]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "dataset,accuracy,convneg,npt_fraction,seconds"
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names == ["test_pure", "test_pure_combined", "test_mixed", "test_mixed_combined"]
        assert (out / "summary.txt").exists()

    def test_family_sets_get_masked_eval(self, workspace, tmp_path):
        data = workspace / "data"
        out = tmp_path / "eval_pptes"
        assert run(["eval", "--ckpt", workspace / "model.ckpt", "--data",
                    data / "pptes_upb.qent", "--out", out]) == 0
        line = (out / "metrics.csv").read_text().splitlines()[1]
        acc = float(line.split(",")[1])
        assert 0.0 <= acc <= 1.0

    @pytest.mark.filterwarnings("error")
    def test_empty_corpora_evaluate(self, workspace, tmp_path):
        data = tmp_path / "data"
        assert run(["gen", "--qubits", 3, "--scale", 0.00001, "--seed", 11, "--out", data,
                    "--set", "test"]) == 0
        out = tmp_path / "eval"
        assert run(["eval", "--ckpt", workspace / "model.ckpt", "--data",
                    data / "test_pure.qent", data / "test_mixed.qent", "--out", out]) == 0
        rows = [ln.split(",") for ln in (out / "metrics.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [("test_pure", "nan"), ("test_mixed", "nan")]

    def test_truncated_arch_sidecar_fails_cleanly(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes((workspace / "model.ckpt").read_bytes())
        arch = (workspace / "model.ckpt.arch").read_text().splitlines()
        (tmp_path / "model.ckpt.arch").write_text("\n".join(arch[:3]) + "\n")
        capsys.readouterr()
        assert run(["eval", "--ckpt", ckpt, "--data", workspace / "data" / "valid.qent",
                    "--out", tmp_path / "eval"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "'r1'" in err

    def test_corrupt_checkpoint_header_fails_cleanly(self, workspace, tmp_path, capsys):
        raw = (workspace / "model.ckpt").read_bytes()
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(raw[:8] + (99).to_bytes(4, "little") + raw[12:])  # array count
        (tmp_path / "model.ckpt.arch").write_bytes((workspace / "model.ckpt.arch").read_bytes())
        capsys.readouterr()
        assert run(["eval", "--ckpt", ckpt, "--data", workspace / "data" / "valid.qent",
                    "--out", tmp_path / "eval"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "checkpoint truncated" in err


class TestSweepAndConvneg:
    def test_sweep_grid_rows(self, workspace, tmp_path):
        data = workspace / "data"
        out = tmp_path / "sweep"
        assert run(["sweep", "--data", data / "train.qent", "--valid", data / "valid.qent",
                    "--epochs", 1, "--seed", 16, "--depths", "1,2", "--kernels", "2",
                    "--batch-size", 32, "--out", out]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "conv_layers,kernel,best_val_accuracy,best_epoch,seconds"
        assert len(lines) == 3  # one row per valid grid point

    def test_convneg_curve(self, workspace, tmp_path):
        out = tmp_path / "curve"
        assert run(["convneg", "--ckpt", workspace / "model.ckpt", "--qubits", 3,
                    "--dmax", 10, "--points", 3, "--samples-per-d", 5,
                    "--seed", 17, "--out", out]) == 0
        lines = (out / "transition.csv").read_text().splitlines()
        assert lines[0].startswith("d,convneg_entangled_circuit")
        assert len(lines) == 4

    @pytest.mark.parametrize("flag,value,name", [("--points", 0, "d_values"),
                                                  ("--samples-per-d", 0, "samples_per_d")])
    def test_convneg_empty_inputs_fail(self, workspace, tmp_path, capsys, flag, value, name):
        assert run(["convneg", "--ckpt", workspace / "model.ckpt", "--qubits", 3,
                    "--dmax", 10, flag, value, "--seed", 17, "--out", tmp_path / "x"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    def test_convneg_qubit_mismatch(self, workspace, tmp_path):
        rc = run(["convneg", "--ckpt", workspace / "model.ckpt", "--qubits", 4,
                  "--dmax", 10, "--seed", 18, "--out", tmp_path / "x"])
        assert rc == 1
