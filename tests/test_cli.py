"""Command-line surface tests: the synth/split/train/eval flow, exit-code
contract, and gradcheck reporting."""
import contextlib
import io
import json
import subprocess
import sys

import pytest

import dcswin.cli as cli_mod
from dcswin.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VERIFY, main
from dcswin.gradcheck import GradCheckResult
from dcswin.model import ModelConfig
from dcswin.serialization import load_checkpoint, save_checkpoint
from dcswin.trainer import TrainConfig, write_run_config


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth-data + split executed once; downstream tests build on them."""
    root = tmp_path_factory.mktemp("cliflow")
    data = root / "data"
    rc = main(["synth-data", "--classes", "2", "--per-class", "6",
               "--size", "16", "--seed", "0", "--out", str(data)])
    assert rc == EXIT_OK
    rc = main(["split", "--manifest", str(data / "manifest.json"),
               "--train-frac", "0.75", "--labeled-frac", "0.4",
               "--seed", "0", "--out", str(root / "split.json")])
    assert rc == EXIT_OK
    cfg = root / "run.cfg"
    write_run_config(cfg, ModelConfig.micro(num_classes=2),
                     TrainConfig(epochs=2, initial_lr=3e-3, batch_size=3,
                                 tau=0.5, warmup_epochs=1, num_runs=1,
                                 seed=0), seeds=[0])
    return root


@pytest.fixture(scope="module")
def trained(workspace):
    """`dcswin train` of the workspace config into `workspace/run`, run
    once for the tests that read that run; returns its stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(["train", "--config", str(workspace / "run.cfg"),
                   "--split", str(workspace / "split.json"),
                   "--out", str(workspace / "run")])
    assert rc == EXIT_OK
    return stdout.getvalue()


class TestSynthAndSplit:
    def test_synth_reports_manifest(self, tmp_path, capsys):
        rc = main(["synth-data", "--classes", "2", "--per-class", "2",
                   "--size", "16", "--out", str(tmp_path / "d")])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert str(tmp_path / "d" / "manifest.json") in out
        assert "4 images, 2 classes" in out
        assert (tmp_path / "d" / "manifest.json").is_file()

    def test_split_audit_table_sums(self, workspace, capsys):
        rc = main(["split", "--manifest",
                   str(workspace / "data" / "manifest.json"),
                   "--train-frac", "0.75", "--labeled-frac", "0.4",
                   "--out", str(workspace / "split2.json")])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        # per class of 6: 5 train (2 labeled, 3 unlabeled), 1 test
        rows = [line.split() for line in out.splitlines()[1:]]
        assert rows[0] == ["class0", "6", "2", "3", "1"]
        assert rows[-1] == ["all", "12", "4", "6", "2"]
        payload = json.loads((workspace / "split2.json").read_text())
        assert payload["manifest"].endswith("manifest.json")

    def test_synth_bad_classes_is_usage_error(self, tmp_path, capsys):
        rc = main(["synth-data", "--classes", "5",
                   "--out", str(tmp_path / "d")])
        assert rc == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,key", [
        ("--seed", "-1", "seed"), ("--size", "0", "image_size"),
        ("--size", "-4", "image_size")])
    def test_synth_bad_seed_or_size_is_usage_error_before_writing(
            self, tmp_path, capsys, flag, value, key):
        rc = main(["synth-data", "--classes", "2", "--per-class", "2",
                   flag, value, "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "d").exists()

    def test_split_negative_seed_is_usage_error(self, workspace, tmp_path,
                                                capsys):
        rc = main(["split", "--manifest",
                   str(workspace / "data" / "manifest.json"),
                   "--seed", "-1", "--out", str(tmp_path / "split.json")])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error:") and "seed" in err
        assert not (tmp_path / "split.json").exists()

    def test_split_bad_fraction_is_usage_error(self, workspace, capsys):
        rc = main(["split", "--manifest",
                   str(workspace / "data" / "manifest.json"),
                   "--train-frac", "1.5",
                   "--out", str(workspace / "bad.json")])
        assert rc == EXIT_USAGE
        assert "train_frac" in capsys.readouterr().err


class TestTrainEval:
    def test_train_then_eval_flow(self, workspace, trained, capsys):
        out_dir = workspace / "run"
        assert "report:" in trained
        assert (out_dir / "report.json").is_file()
        assert (out_dir / "run_config.txt").is_file()
        assert (out_dir / "seed0" / "state.dcsm").is_file()
        log = (out_dir / "seed0" / "epochs.jsonl").read_text().splitlines()
        assert len(log) == 2

        report = workspace / "eval" / "report.json"
        rc = main(["eval", "--checkpoint", str(out_dir / "seed0/state.dcsm"),
                   "--manifest", str(workspace / "data" / "manifest.json"),
                   "--split", str(workspace / "split.json"),
                   "--pool", "test", "--out", str(report)])
        stdout = capsys.readouterr().out
        assert rc == EXIT_OK
        values = json.loads(report.read_text())
        assert set(values) == {"auc_roc", "balanced_accuracy", "f1",
                               "cohens_kappa"}
        for name in values:
            assert name in stdout
        assert (report.parent / "confusion.csv").is_file()
        assert (report.parent / "predictions.jsonl").is_file()

    @pytest.mark.usefixtures("trained")
    def test_repeated_eval_bit_identical(self, workspace):
        report = workspace / "eval2" / "report.json"
        argv = ["eval", "--checkpoint",
                str(workspace / "run" / "seed0" / "state.dcsm"),
                "--manifest", str(workspace / "data" / "manifest.json"),
                "--split", str(workspace / "split.json"), "--out", str(report)]
        assert main(argv) == EXIT_OK
        first = report.read_bytes()
        preds = (report.parent / "predictions.jsonl").read_bytes()
        assert main(argv) == EXIT_OK
        assert report.read_bytes() == first
        assert (report.parent / "predictions.jsonl").read_bytes() == preds

    @pytest.mark.usefixtures("trained")
    def test_eval_ids_file(self, workspace):
        split = json.loads((workspace / "split.json").read_text())
        ids_file = workspace / "ids.txt"
        ids_file.write_text("\n".join(split["labeled"]) + "\n")
        report = workspace / "eval3" / "report.json"
        rc = main(["eval", "--checkpoint",
                   str(workspace / "run" / "seed0" / "state.dcsm"),
                   "--manifest", str(workspace / "data" / "manifest.json"),
                   "--ids", str(ids_file), "--out", str(report)])
        assert rc == EXIT_OK
        assert report.is_file()

    def test_supervised_only_flag_sets_tau(self, workspace):
        out_dir = workspace / "run_sup"
        rc = main(["train", "--config", str(workspace / "run.cfg"),
                   "--split", str(workspace / "split.json"),
                   "--out", str(out_dir), "--supervised-only",
                   "--seeds", "0"])
        assert rc == EXIT_OK
        cfg_text = (out_dir / "run_config.txt").read_text()
        assert "train.tau = 1.0" in cfg_text
        assert "run.supervised_only = True" in cfg_text
        log = [json.loads(line) for line in
               (out_dir / "seed0" / "epochs.jsonl").read_text().splitlines()]
        assert all(r["pseudo_count"] == 0 for r in log)

    def test_ablation_arm_recorded(self, workspace):
        out_dir = workspace / "run_base"
        rc = main(["train", "--config", str(workspace / "run.cfg"),
                   "--split", str(workspace / "split.json"),
                   "--out", str(out_dir), "--ablation", "baseline",
                   "--seeds", "0"])
        assert rc == EXIT_OK
        cfg_text = (out_dir / "run_config.txt").read_text()
        assert "run.arm = baseline" in cfg_text
        assert "model.dynamic_window = false" in cfg_text
        assert "model.cross_scale = false" in cfg_text

    def test_rerun_config_records_its_own_arm(self, workspace):
        first = workspace / "run_base_sup"
        rc = main(["train", "--config", str(workspace / "run.cfg"),
                   "--split", str(workspace / "split.json"),
                   "--out", str(first), "--ablation", "baseline",
                   "--supervised-only", "--seeds", "0"])
        assert rc == EXIT_OK
        # the written config carries the arm; no flag is needed to re-run it
        again = workspace / "run_base_sup_again"
        rc = main(["train", "--config", str(first / "run_config.txt"),
                   "--split", str(workspace / "split.json"),
                   "--out", str(again)])
        assert rc == EXIT_OK
        cfg_text = (again / "run_config.txt").read_text()
        assert "model.dynamic_window = false" in cfg_text
        assert "run.arm = baseline" in cfg_text
        assert "train.tau = 1.0" in cfg_text
        assert "run.supervised_only = True" in cfg_text
        assert cfg_text == (first / "run_config.txt").read_text()

    def test_ablation_full_switches_mechanisms_back_on(self, workspace,
                                                       tmp_path):
        cfg = tmp_path / "baseline.cfg"
        write_run_config(cfg, ModelConfig.micro(num_classes=2)
                         .ablated("baseline"),
                         TrainConfig(epochs=1, initial_lr=3e-3, batch_size=3,
                                     tau=0.5, warmup_epochs=1, num_runs=1,
                                     seed=0), seeds=[0])
        out_dir = tmp_path / "out"
        rc = main(["train", "--config", str(cfg),
                   "--split", str(workspace / "split.json"),
                   "--out", str(out_dir), "--ablation", "full"])
        assert rc == EXIT_OK
        cfg_text = (out_dir / "run_config.txt").read_text()
        assert "model.dynamic_window = true" in cfg_text
        assert "model.cross_scale = true" in cfg_text
        assert "run.arm = full" in cfg_text

    @pytest.mark.parametrize("pool,ids,needle", [
        ("unlabeled", ["class0/missing"], "'class0/missing'"),
        ("test", [], "test pool is empty"),
    ])
    def test_hostile_split_is_runtime_error(self, workspace, tmp_path, capsys,
                                            pool, ids, needle):
        payload = json.loads((workspace / "split.json").read_text())
        payload[pool] = ids
        bad = tmp_path / "bad_split.json"
        bad.write_text(json.dumps(payload))
        out_dir = tmp_path / "out"
        rc = main(["train", "--config", str(workspace / "run.cfg"),
                   "--split", str(bad), "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert rc == EXIT_RUNTIME
        assert err.startswith("error:") and needle in err
        assert "Traceback" not in err
        assert not list(out_dir.glob("seed*"))

    def test_train_missing_config_is_runtime_error(self, workspace, capsys):
        rc = main(["train", "--config", str(workspace / "absent.cfg"),
                   "--split", str(workspace / "split.json"),
                   "--out", str(workspace / "nowhere")])
        assert rc == EXIT_RUNTIME
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["train.epochs = abc",
                                      "train.bogus = 1"])
    def test_bad_train_key_is_runtime_error(self, workspace, tmp_path,
                                            capsys, line):
        key = line.split("=")[0].strip()
        kept = [k for k in (workspace / "run.cfg").read_text().splitlines()
                if k.split("=")[0].strip() != key]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(kept + [line]) + "\n")
        rc = main(["train", "--config", str(cfg),
                   "--split", str(workspace / "split.json"),
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == EXIT_RUNTIME
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_run_seeds_used_without_seeds_flag(self, workspace, tmp_path):
        cfg = tmp_path / "seeds.cfg"
        write_run_config(cfg, ModelConfig.micro(num_classes=2),
                         TrainConfig(epochs=1, initial_lr=3e-3, batch_size=3,
                                     tau=0.5, warmup_epochs=1, num_runs=1,
                                     seed=0), seeds=[5, 7])
        out_dir = tmp_path / "out"
        rc = main(["train", "--config", str(cfg),
                   "--split", str(workspace / "split.json"),
                   "--out", str(out_dir)])
        assert rc == EXIT_OK
        assert sorted(p.name for p in out_dir.glob("seed*")) == \
            ["seed5", "seed7"]
        assert "run.seeds = 5,7" in (out_dir / "run_config.txt").read_text()
        assert json.loads((out_dir / "report.json").read_text())["seeds"] \
            == [5, 7]

    @pytest.mark.parametrize("source", ["--seeds", "train.seed"])
    def test_negative_seed_is_runtime_error_before_writing(
            self, workspace, tmp_path, capsys, source):
        argv = ["train", "--split", str(workspace / "split.json"),
                "--out", str(tmp_path / "out")]
        if source == "--seeds":
            argv += ["--config", str(workspace / "run.cfg"), "--seeds=-1"]
        else:
            # without run.seeds the seeds count up from train.seed
            cfg = tmp_path / "neg.cfg"
            lines = (workspace / "run.cfg").read_text().splitlines()
            cfg.write_text("\n".join(
                "train.seed = -2" if line.startswith("train.seed ") else line
                for line in lines if not line.startswith("run.seeds"))
                + "\n")
            argv += ["--config", str(cfg)]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == EXIT_RUNTIME
        assert err.startswith("error:") and "seed" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", ["5,x", " , "])
    def test_malformed_run_seeds_is_runtime_error(self, workspace, tmp_path,
                                                  capsys, seeds):
        cfg = tmp_path / "seeds.cfg"
        text = (workspace / "run.cfg").read_text()
        cfg.write_text(text.replace("run.seeds = 0", f"run.seeds = {seeds}"))
        rc = main(["train", "--config", str(cfg),
                   "--split", str(workspace / "split.json"),
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == EXIT_RUNTIME
        assert err.startswith("error:") and "run.seeds" in err

    @pytest.mark.usefixtures("trained")
    def test_eval_class_mismatch_is_runtime_error(self, workspace, tmp_path,
                                                  capsys):
        other = tmp_path / "threeclass"
        assert main(["synth-data", "--classes", "3", "--per-class", "2",
                     "--size", "16", "--out", str(other)]) == EXIT_OK
        capsys.readouterr()
        rc = main(["eval", "--checkpoint",
                   str(workspace / "run" / "seed0" / "state.dcsm"),
                   "--manifest", str(other / "manifest.json"),
                   "--split", str(workspace / "split.json"),
                   "--out", str(tmp_path / "report.json")])
        assert rc == EXIT_RUNTIME
        assert "do not match" in capsys.readouterr().err

    @pytest.mark.usefixtures("trained")
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_manifest_is_runtime_error(self, workspace, tmp_path,
                                             capsys, command):
        empty = tmp_path / "manifest.json"
        empty.write_text(json.dumps({"classes": ["class0", "class1"],
                                     "records": []}))
        if command == "train":
            argv = ["train", "--config", str(workspace / "run.cfg")]
        else:
            argv = ["eval", "--checkpoint",
                    str(workspace / "run" / "seed0" / "state.dcsm")]
        rc = main(argv + ["--manifest", str(empty),
                          "--split", str(workspace / "split.json"),
                          "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == EXIT_RUNTIME
        assert err.startswith("error:") and "no records" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.usefixtures("trained")
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_manifest_path_outside_its_directory_is_runtime_error(
            self, workspace, tmp_path, capsys, command):
        payload = json.loads((workspace / "data" / "manifest.json").read_text())
        payload["records"][0]["path"] = "../" + payload["records"][0]["path"]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(payload))
        if command == "train":
            argv = ["train", "--config", str(workspace / "run.cfg")]
        else:
            argv = ["eval", "--checkpoint",
                    str(workspace / "run" / "seed0" / "state.dcsm")]
        rc = main(argv + ["--manifest", str(manifest),
                          "--split", str(workspace / "split.json"),
                          "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == EXIT_RUNTIME
        assert err.startswith("error:") and "'records[0].path'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.usefixtures("trained")
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_missing_record_file_is_runtime_error(self, workspace, tmp_path,
                                                  capsys, command):
        """The manifest's directory holds none of its records' files."""
        payload = json.loads((workspace / "data" / "manifest.json").read_text())
        record = payload["records"][0]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(payload))
        if command == "train":
            argv = ["train", "--config", str(workspace / "run.cfg")]
        else:
            argv = ["eval", "--checkpoint",
                    str(workspace / "run" / "seed0" / "state.dcsm")]
        rc = main(argv + ["--manifest", str(manifest),
                          "--split", str(workspace / "split.json"),
                          "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == EXIT_RUNTIME
        assert err.startswith(f"error: record {record['id']!r}: cannot read "
                              f"{tmp_path / record['path']}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.usefixtures("trained")
    @pytest.mark.parametrize("key,value", [
        pytest.param("norm.mean", "[0.5, oops", id="mean-not-json"),
        pytest.param("norm.std", "[0.5, 0.5]", id="std-two-values"),
        pytest.param("norm.std", "[-0.25, -0.25, -0.25]", id="std-negative"),
        pytest.param("norm.std", "[0.25, 0.0, 0.25]", id="std-zero"),
        pytest.param("data.classes", "3", id="classes-not-a-list"),
    ])
    def test_eval_bad_metadata_is_runtime_error(self, workspace, tmp_path,
                                                capsys, key, value):
        config, tensors = load_checkpoint(
            workspace / "run" / "seed0" / "state.dcsm")
        config[key] = value
        state = tmp_path / "state.dcsm"
        save_checkpoint(state, config, tensors)
        rc = main(["eval", "--checkpoint", str(state),
                   "--manifest", str(workspace / "data" / "manifest.json"),
                   "--split", str(workspace / "split.json"),
                   "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert rc == EXIT_RUNTIME
        assert err.startswith("error:") and key in err
        assert "Traceback" not in err

    @pytest.mark.usefixtures("trained")
    @pytest.mark.parametrize("source,needle", [
        pytest.param("ids", "'class0/missing'", id="ids-unknown-id"),
        pytest.param("ids-bytes", "not UTF-8", id="ids-not-utf8"),
        pytest.param("split", "'class0/missing'", id="split-unknown-id"),
    ])
    def test_eval_bad_ids_is_runtime_error(self, workspace, tmp_path, capsys,
                                           monkeypatch, source, needle):
        forwards = []
        monkeypatch.setattr(cli_mod, "evaluate_model",
                            lambda *a, **k: forwards.append(a))
        split = json.loads((workspace / "split.json").read_text())
        if source == "split":
            split["test"] = split["test"] + ["class0/missing"]
            bad = tmp_path / "split.json"
            bad.write_text(json.dumps(split))
            ids_args = ["--split", str(bad), "--pool", "test"]
        else:
            bad = tmp_path / "ids.txt"
            if source == "ids":
                bad.write_text("\n".join(split["test"] + ["class0/missing"]))
            else:
                bad.write_bytes(b"class0/\xff\xfe\n")
            ids_args = ["--ids", str(bad)]
        rc = main(["eval", "--checkpoint",
                   str(workspace / "run" / "seed0" / "state.dcsm"),
                   "--manifest", str(workspace / "data" / "manifest.json"),
                   *ids_args, "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert rc == EXIT_RUNTIME
        assert err.startswith("error:") and needle in err
        assert "Traceback" not in err
        assert forwards == []

    def test_train_config_not_utf8_is_runtime_error(self, workspace,
                                                    tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes((workspace / "run.cfg").read_bytes() + b"# \xff\n")
        rc = main(["train", "--config", str(cfg),
                   "--split", str(workspace / "split.json"),
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == EXIT_RUNTIME
        assert err.startswith("error:") and "not UTF-8" in err
        assert not (tmp_path / "out").exists()

    def test_corrupt_checkpoint_is_runtime_error(self, workspace, tmp_path,
                                                 capsys):
        argv = ["train", "--config", str(workspace / "run.cfg"),
                "--split", str(workspace / "split.json"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        state = tmp_path / "out" / "seed0" / "state.dcsm"
        config, tensors = load_checkpoint(state)
        config["opt.step"] = "abc"
        save_checkpoint(state, config, tensors)
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == EXIT_RUNTIME
        assert err.startswith("error:") and "opt.step" in err
        assert "Traceback" not in err


class TestGradcheckCommand:
    def test_single_op_prints_worst_error(self, capsys):
        rc = main(["gradcheck", "--op", "softmax"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "softmax" in out
        assert "worst rel err" in out
        assert "ok" in out

    def test_micro_model_check_passes(self, capsys):
        rc = main(["gradcheck", "--model", "micro"])
        assert rc == EXIT_OK
        assert "model[micro]" in capsys.readouterr().out

    def test_failure_maps_to_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli_mod, "run_op_check",
            lambda name: GradCheckResult(name, worst_rel=1.0))
        rc = main(["gradcheck", "--op", "softmax"])
        assert rc == EXIT_VERIFY
        assert "FAIL" in capsys.readouterr().out


class TestArgumentErrors:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["destroy-everything"])
        assert exc.value.code == 2

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-c",
                               "import sys; from dcswin.cli import main; "
                               "sys.exit(main(['--help']))"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("synth-data", "split", "train", "eval", "gradcheck"):
            assert sub in proc.stdout

    def test_console_script_usage_error(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c",
                               "import sys; from dcswin.cli import main; "
                               "sys.exit(main())"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()
