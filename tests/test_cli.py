import contextlib
import dataclasses
import io
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molseq.cli import main
from molseq.data import SyntheticSpec, load_manifest, prepare_split
from molseq.errors import ConfigError
from molseq.files import config_from_json, load_checkpoint, read_config, save_checkpoint
from molseq.train import TrainConfig, eval_set, evaluate


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "data"
    spec = root.parent / "spec.txt"
    spec.write_text(
        "num_moas=2\ndrugs_per_moa=2\nsamples_per_drug=10\nT=3\nf=6\nseed=11\n"
        "separability=2.5\nconfounding=0.2\n"
    )
    assert main(["gen-data", "--spec", str(spec), "--out", str(root)]) == 0
    return root


@pytest.fixture(scope="module")
def train_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-cfg") / "train.cfg"
    path.write_text(
        "epochs=6\nbatch_p=2\nbatch_k=2\nlearning_rate=0.01\neval_every=3\nseed=11\n"
        "embed_dim=8\ntoken_dim=6\nmol_hidden=8\nseq_hidden=8\nmax_tokens=40\n"
    )
    return path


class TestGenData:
    def test_dataset_is_loadable(self, dataset_dir):
        samples = load_manifest(dataset_dir)
        assert len(samples) == 40
        assert (dataset_dir / "manifest.csv").exists()
        assert sorted((dataset_dir / "frames").iterdir())


class TestTrainEval:
    def test_train_then_eval(self, dataset_dir, train_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(train_config), "--data", str(dataset_dir),
                     "--out", str(out)]) == 0
        ckpt = out / "checkpoint.npz"
        assert ckpt.exists()
        assert (out / "loss_history.csv").exists()
        assert (out / "metric_history.csv").exists()
        capsys.readouterr()

        assert main(["eval", "--ckpt", str(ckpt), "--data", str(dataset_dir)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "accuracy,rank1,rank5,rank10,map"
        values = [float(x) for x in lines[1].split(",")]
        assert len(values) == 5
        cmc_file = out / "cmc.csv"
        assert cmc_file.exists()
        assert cmc_file.read_text().splitlines()[0] == "rank,cmc"

    @pytest.mark.parametrize("stage", ["pretrain_drug", "finetune_moa"])
    def test_eval_reproduces_final_metrics_row(self, dataset_dir, train_config, tmp_path, capsys, stage):
        config = tmp_path / "stage.cfg"
        config.write_text(train_config.read_text() + f"stage={stage}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--data", str(dataset_dir), "--out", str(out)]) == 0
        assert main(["eval", "--ckpt", str(out / "checkpoint.npz"), "--data", str(dataset_dir)]) == 0
        printed = capsys.readouterr().out.splitlines()
        history = (out / "metric_history.csv").read_text().splitlines()
        assert printed[-3] == history[0].split(",", 1)[1]
        assert printed[-2] == history[-1].split(",", 1)[1]

    def test_eval_on_more_classes_than_the_head_fails(self, trained_checkpoint, tmp_path, capsys):
        # The checkpoint's head has the 4 drug classes of a 2 x 2 spec; a 3 x 2 spec labels 6 drugs.
        spec = tmp_path / "spec.txt"
        spec.write_text("num_moas=3\ndrugs_per_moa=2\nsamples_per_drug=10\nT=3\nf=6\nseed=11\n")
        wider = tmp_path / "wider"
        assert main(["gen-data", "--spec", str(spec), "--out", str(wider)]) == 0
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(trained_checkpoint), "--data", str(wider)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: label 4 out of range for 4 classes\n"

    def test_unknown_checkpoint_config_key_fails(self, dataset_dir, train_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(train_config), "--data", str(dataset_dir), "--out", str(out)]) == 0
        ckpt = load_checkpoint(out / "checkpoint.npz")
        save_checkpoint(out / "checkpoint.npz", replace(ckpt, extra_config={**ckpt.extra_config, "bogus": 1}))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(out / "checkpoint.npz"), "--data", str(dataset_dir)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_invalid_checkpoint_stage_fails(self, dataset_dir, train_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(train_config), "--data", str(dataset_dir), "--out", str(out)]) == 0
        ckpt = load_checkpoint(out / "checkpoint.npz")
        save_checkpoint(out / "checkpoint.npz",
                        replace(ckpt, extra_config={**ckpt.extra_config, "stage": "pretrain_moa"}))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(out / "checkpoint.npz"), "--data", str(dataset_dir)]) == 1
        assert "stage must be one of" in capsys.readouterr().err

    def test_cmc_csv_holds_plain_numbers(self, dataset_dir, train_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(train_config), "--data", str(dataset_dir), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(out / "checkpoint.npz"), "--data", str(dataset_dir)]) == 0
        printed = capsys.readouterr().out.splitlines()
        rank1 = float(printed[1].split(",")[1])
        lines = (out / "cmc.csv").read_text().splitlines()
        assert lines[0] == "rank,cmc"
        ranks = [int(line.split(",")[0]) for line in lines[1:]]
        cmc = [float(line.split(",")[1]) for line in lines[1:]]
        ckpt = load_checkpoint(out / "checkpoint.npz")
        config = config_from_json(TrainConfig, ckpt.extra_config)
        split = prepare_split(load_manifest(dataset_dir), ratio=config.split_ratio, seed=config.seed)
        _, result = evaluate(ckpt.build_model(), eval_set(split, config.label_kind, config.seed))
        assert ranks == list(range(1, len(result.cmc) + 1))
        assert cmc == result.cmc.tolist()
        assert cmc[0] == rank1

    @pytest.mark.parametrize("saved_before", [False, True])
    def test_failed_cmc_write_leaves_only_whole_files(self, dataset_dir, train_config, tmp_path, capsys,
                                                      fail_text_writes, saved_before):
        out = tmp_path / "run"
        assert main(["train", "--config", str(train_config), "--data", str(dataset_dir), "--out", str(out)]) == 0
        eval_args = ["eval", "--ckpt", str(out / "checkpoint.npz"), "--data", str(dataset_dir)]
        if saved_before:
            assert main(eval_args) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert ("cmc.csv" in before) == saved_before
        fail_text_writes("cmc")
        capsys.readouterr()
        assert main(eval_args) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_wrong_typed_checkpoint_value_fails(self, dataset_dir, train_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(train_config), "--data", str(dataset_dir), "--out", str(out)]) == 0
        ckpt = load_checkpoint(out / "checkpoint.npz")
        save_checkpoint(out / "checkpoint.npz", replace(ckpt, extra_config={**ckpt.extra_config, "epochs": "abc"}))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(out / "checkpoint.npz"), "--data", str(dataset_dir)]) == 1
        assert f"error: {out / 'checkpoint.npz'}: extra_config: epochs: " in capsys.readouterr().err

    def test_train_with_init(self, dataset_dir, train_config, tmp_path):
        first = tmp_path / "first"
        assert main(["train", "--config", str(train_config), "--data", str(dataset_dir),
                     "--out", str(first)]) == 0
        again = tmp_path / "again"
        assert main(["train", "--config", str(train_config), "--data", str(dataset_dir),
                     "--init", str(first / "checkpoint.npz"), "--out", str(again)]) == 0
        assert load_checkpoint(again / "checkpoint.npz").extra_config["epochs"] == 6

    def test_init_of_other_widths_fails_naming_checkpoint_and_parameter(self, trained_checkpoint, dataset_dir,
                                                                         train_config, tmp_path, capsys):
        config = tmp_path / "wide.cfg"
        config.write_text(train_config.read_text() + "embed_dim=16\n")
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--data", str(dataset_dir), "--init", str(trained_checkpoint),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: {trained_checkpoint}: param/mol.w2: shape (8, 8), "
                                           f"the stage's model registers (8, 16) ({config})\n")
        assert not out.exists()

    def test_unknown_config_key_fails(self, dataset_dir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense=1\n")
        assert main(["train", "--config", str(bad), "--data", str(dataset_dir),
                     "--out", str(tmp_path / "x")]) == 1
        assert "nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["margin=nan", "learning_rate=nan", "center_alpha=nan", "temperature=inf"])
    def test_non_finite_config_value_fails(self, dataset_dir, train_config, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(train_config.read_text() + line + "\n")
        assert main(["train", "--config", str(bad), "--data", str(dataset_dir),
                     "--out", str(tmp_path / "x")]) == 1
        assert f"error: {line.split('=')[0]} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_fails_naming_stage_and_step(self, dataset_dir, train_config, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(train_config.read_text() + "learning_rate=1e300\n")
        assert main(["train", "--config", str(bad), "--data", str(dataset_dir),
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*NaN or Inf \(stage pretrain_drug, step \d+\)\n", err), err
        assert not (tmp_path / "x").exists()


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


@pytest.fixture(scope="module")
def trained_checkpoint(dataset_dir, train_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-ckpt")
    assert main(["train", "--config", str(train_config), "--data", str(dataset_dir), "--out", str(out)]) == 0
    return out / "checkpoint.npz"


class TestConfigValues:
    @pytest.mark.parametrize("command, line, message", [
        ("train", "seed=-3", "seed must be >= 0, got -3"),
        ("gen-data", "seed=-1", "seed must be >= 0, got -1"),
        ("train", "embed_dim=0", "embed_dim must be >= 1, got 0"),
        ("train", "token_dim=0", "token_dim must be >= 1, got 0"),
        ("train", "mol_hidden=0", "mol_hidden must be >= 1, got 0"),
        ("train", "seq_hidden=0", "seq_hidden must be >= 1, got 0"),
        ("train", "max_tokens=0", "max_tokens must be >= 1, got 0"),
        ("train", "epochs=0", "epochs must be >= 1"),
        ("train", "temperature=-1", "temperature must be positive"),
        ("gen-data", "num_moas=0", "all synthetic counts must be >= 1"),
    ])
    def test_value_that_cannot_run_fails_at_load_naming_key_and_file(self, dataset_dir, train_config, tmp_path,
                                                                     capsys, command, line, message):
        path = tmp_path / "bad.cfg"
        out = tmp_path / "out"
        if command == "train":
            path.write_text(train_config.read_text() + line + "\n")
            argv = ["train", "--config", str(path), "--data", str(dataset_dir), "--out", str(out)]
        else:
            path.write_text("num_moas=2\ndrugs_per_moa=2\nsamples_per_drug=10\nT=3\nf=6\n" + line + "\n")
            argv = ["gen-data", "--spec", str(path), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message} ({path})\n"
        assert not out.exists()

    def test_one_class_batch_names_key_and_file(self, dataset_dir, train_config, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        out = tmp_path / "out"
        path.write_text(train_config.read_text() + "batch_p=1\n")
        assert main(["train", "--config", str(path), "--data", str(dataset_dir), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: batch_p=1: every anchor needs at least one positive and one negative ({path})\n")
        assert not out.exists()


class TestCheckpointMetadata:
    @pytest.mark.parametrize("rewrite, message", [
        pytest.param(lambda meta: meta.pop("vocabulary"), "__meta__ has no 'vocabulary' entry", id="no-vocabulary"),
        pytest.param(lambda meta: meta.pop("trainable"), "__meta__ has no 'trainable' entry", id="no-trainable"),
        pytest.param(lambda meta: meta["model_config"].pop("frame_dim"),
                     "model_config: missing config key 'frame_dim'", id="no-model-field"),
        pytest.param(lambda meta: meta["model_config"].update(embed_dim="abc"),
                     "model_config: embed_dim: invalid literal for int() with base 10: 'abc'", id="wrong-type"),
        pytest.param(lambda meta: meta["model_config"].update(seq_hidden=0),
                     "model_config: seq_hidden must be >= 1, got 0", id="zero-size"),
        pytest.param(lambda meta: meta["model_config"].update(seed=-1),
                     "model_config: seed must be >= 0, got -1", id="negative-seed"),
        pytest.param(lambda meta: meta.update(model_config=[]),
                     "model_config must be a JSON object, found list", id="model-config-list"),
        pytest.param(lambda meta: meta.update(trainable=[]),
                     "trainable must be a JSON object, found list", id="trainable-list"),
        pytest.param(lambda meta: meta.update(vocabulary="C"),
                     "vocabulary must be a JSON object, found str", id="vocabulary-string"),
        pytest.param(lambda meta: meta.update(center_alpha="x"),
                     "center_alpha must be null or a number in (0, 1], found 'x'", id="center-alpha-string"),
        pytest.param(lambda meta: meta.update(center_alpha=0),
                     "center_alpha must be null or a number in (0, 1], found 0", id="center-alpha-zero"),
        pytest.param(lambda meta: meta.update(center_alpha=float("nan")),
                     "center_alpha must be null or a number in (0, 1], found nan", id="center-alpha-nan"),
        pytest.param(lambda meta: meta.pop("extra_config"), "__meta__ has no 'extra_config' entry",
                     id="no-extra-config"),
        pytest.param(lambda meta: meta.update(extra_config=[]),
                     "extra_config must be a JSON object, found list", id="extra-config-list"),
        pytest.param(lambda meta: meta["vocabulary"].pop("<pad>"),
                     "vocabulary: reserved tokens must map '<pad>' to 0 and '<unk>' to 1", id="vocabulary-no-pad"),
        pytest.param(lambda meta: meta["vocabulary"].update(C="x"),
                     "vocabulary: 'C' must be an int id, found 'x'", id="vocabulary-string-id"),
        pytest.param(lambda meta: meta["vocabulary"].update(C=1.7),
                     "vocabulary: 'C' must be an int id, found 1.7", id="vocabulary-float-id"),
        pytest.param(lambda meta: meta["vocabulary"].update(C=meta["model_config"]["vocab_size"]),
                     "vocabulary: ids must be distinct and below vocab_size 13", id="vocabulary-id-too-large"),
        pytest.param(lambda meta: meta["vocabulary"].update(C=1),
                     "vocabulary: ids must be distinct and below vocab_size 13", id="vocabulary-repeated-id"),
        pytest.param(lambda meta: meta["trainable"].update({"seq.w1": "false"}),
                     "trainable: 'seq.w1' must be true or false, found 'false'", id="trainable-string"),
    ])
    def test_malformed_metadata_fails_naming_the_key(self, trained_checkpoint, dataset_dir, tmp_path, capsys,
                                                     rewrite, message):
        with np.load(trained_checkpoint) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["__meta__"]))
        rewrite(meta)
        path = tmp_path / "checkpoint.npz"
        np.savez(path, **{**arrays, "__meta__": np.array(json.dumps(meta))})
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(path), "--data", str(dataset_dir)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


    @pytest.mark.parametrize("rewrite, message", [
        pytest.param(lambda arrays: arrays.pop("param/seq.w1"),
                     "param/seq.w1: missing, and model_config registers it", id="missing-parameter"),
        pytest.param(lambda arrays: arrays.update({"param/seq.w1": np.zeros((2, 2))}),
                     "param/seq.w1: shape (2, 2), model_config registers ", id="wrong-shape"),
        pytest.param(lambda arrays: arrays.update({"param/seq.w1": np.array([None, 1.0], dtype=object)}),
                     "unreadable archive member: Object arrays cannot be loaded", id="object-dtype"),
        pytest.param(lambda arrays: arrays.update({"param/seq.w1": np.full(arrays["param/seq.w1"].shape, "x")}),
                     "param/seq.w1: dtype <U1, expected float64", id="string-parameter"),
        pytest.param(lambda arrays: arrays.update({"param/seq.w1": arrays["param/seq.w1"].astype(np.int64)}),
                     "param/seq.w1: dtype int64, expected float64", id="int-parameter"),
        pytest.param(lambda arrays: arrays.update({"param/seq.w1": arrays["param/seq.w1"] > 0}),
                     "param/seq.w1: dtype bool, expected float64", id="bool-parameter"),
        pytest.param(lambda arrays: arrays.update({"param/seq.w1": arrays["param/seq.w1"].astype(np.float32)}),
                     "param/seq.w1: dtype float32, expected float64", id="float32-parameter"),
        pytest.param(lambda arrays: arrays.update({"param/seq.w1": arrays["param/seq.w1"] * 1j}),
                     "param/seq.w1: dtype complex128, expected float64", id="complex-parameter"),
        pytest.param(lambda arrays: arrays.update(centers=np.full(arrays["centers"].shape, "x")),
                     "centers: dtype <U1, expected float64", id="string-centers"),
        pytest.param(lambda arrays: arrays.update(centers=np.zeros(7)),
                     "centers: shape (7,), model_config registers (4, 8)", id="centers-wrong-shape"),
        pytest.param(lambda arrays: arrays.update(__meta__=np.array("[1, 2]")),
                     "__meta__ must be a JSON object, found list", id="meta-list"),
        pytest.param(lambda arrays: arrays.update(__meta__=np.array("not json")),
                     "__meta__ is not JSON: Expecting value: line 1 column 1 (char 0)", id="meta-not-json"),
    ])
    def test_bad_parameter_array_fails_naming_the_file(self, trained_checkpoint, dataset_dir, tmp_path, capsys,
                                                       rewrite, message):
        with np.load(trained_checkpoint) as data:
            arrays = {k: data[k] for k in data.files}
        rewrite(arrays)
        path = tmp_path / "checkpoint.npz"
        np.savez(path, **arrays)
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(path), "--data", str(dataset_dir)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("contents", [
        pytest.param(lambda archive: b"", id="empty"),
        pytest.param(lambda archive: npy_bytes(np.zeros(3)), id="npy-array"),
        pytest.param(lambda archive: b"epochs=6\n", id="text"),
        pytest.param(lambda archive: archive[:len(archive) // 2], id="truncated-archive"),
    ])
    def test_file_that_is_not_an_npz_archive_fails(self, trained_checkpoint, dataset_dir, tmp_path, capsys,
                                                    contents):
        path = tmp_path / "checkpoint.npz"
        path.write_bytes(contents(trained_checkpoint.read_bytes()))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(path), "--data", str(dataset_dir)]) == 1
        assert capsys.readouterr().err == f"error: {path}: not an .npz archive\n"
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "missing.npz")

    @pytest.mark.parametrize("key, value, message", [
        ("seed", -1, "seed must be >= 0, got -1"),
        ("stage", "pretrain_moa", "stage must be one of ('pretrain_drug', 'finetune_moa')"),
        ("bogus", 1, "unknown config key 'bogus'"),
        ("epochs", "abc", "epochs: invalid literal for int() with base 10: 'abc'"),
        ("use_molecule_branch", None, "use_molecule_branch: expected a boolean, got None"),
    ])
    def test_bad_config_echo_fails_naming_the_checkpoint(self, trained_checkpoint, dataset_dir, tmp_path, capsys,
                                                         key, value, message):
        ckpt = load_checkpoint(trained_checkpoint)
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(path, replace(ckpt, extra_config={**ckpt.extra_config, key: value}))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(path), "--data", str(dataset_dir)]) == 1
        assert capsys.readouterr().err == f"error: {path}: extra_config: {message}\n"

    def test_extra_parameter_array_is_allowed(self, trained_checkpoint, dataset_dir, tmp_path, capsys):
        with np.load(trained_checkpoint) as data:
            arrays = {k: data[k] for k in data.files}
        path = tmp_path / "checkpoint.npz"
        np.savez(path, **arrays, **{"param/not.registered": np.zeros(3)})
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(path), "--data", str(dataset_dir)]) == 0


class TestStrategySweep:
    def test_strategy_s1(self, dataset_dir, train_config, capsys):
        assert main(["strategy", "--id", "S1", "--data", str(dataset_dir),
                     "--config", str(train_config), "--epochs", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "strategy,rank1,map,accuracy"
        assert out[1].startswith("S1,")

    def test_strategy_zero_epochs_fails(self, dataset_dir, train_config, capsys):
        assert main(["strategy", "--id", "S1", "--data", str(dataset_dir),
                     "--config", str(train_config), "--epochs", "0"]) == 1
        assert "epochs must be >= 1" in capsys.readouterr().err

    def test_sweep_two_weights(self, dataset_dir, train_config, tmp_path, capsys):
        assert main(["sweep", "--config", str(train_config), "--weights", "0.0,0.1",
                     "--data", str(dataset_dir), "--out", str(tmp_path / "sweep")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "weight,rank1,map,accuracy"
        assert len(out) == 3
        assert (tmp_path / "sweep" / "sweep.csv").exists()

    def test_sweep_empty_weights_fails(self, dataset_dir, train_config, tmp_path, capsys):
        assert main(["sweep", "--config", str(train_config), "--weights", "",
                     "--data", str(dataset_dir), "--out", str(tmp_path / "sweep")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("weights, message", [("0.1,,0.2", "item 2 ('')"), ("0.1,abc", "item 2 ('abc')")])
    def test_sweep_bad_weight_is_named(self, dataset_dir, train_config, tmp_path, capsys, weights, message):
        assert main(["sweep", "--config", str(train_config), "--weights", weights,
                     "--data", str(dataset_dir), "--out", str(tmp_path / "sweep")]) == 1
        assert capsys.readouterr().err == f"error: --weights: {message} is not a number\n"
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
    def test_sweep_non_finite_or_negative_weight_fails_before_training(self, dataset_dir, train_config, tmp_path,
                                                                       capsys, bad):
        assert main(["sweep", "--config", str(train_config), "--weights", f"0.1,{bad}",
                     "--data", str(dataset_dir), "--out", str(tmp_path / "sweep")]) == 1
        assert capsys.readouterr().err == f"error: weights must be finite and non-negative, got {bad}\n"
        assert not (tmp_path / "sweep").exists()


class TestGradcheckCommand:
    def test_exit_zero_and_report(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestLinewiseCommands:
    def test_tokenize_file(self, tmp_path, capsys):
        f = tmp_path / "in.smi"
        f.write_text("CCO\nClc1ccccc1\n")
        assert main(["tokenize", str(f)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["C C O", "Cl c 1 c c c c c 1"]

    def test_canonicalize_file(self, tmp_path, capsys):
        f = tmp_path / "in.smi"
        f.write_text("OCC\nCCO\n")
        assert main(["canonicalize", str(f)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == out[1]

    def test_failure_diagnostic_and_exit_code(self, tmp_path, capsys):
        f = tmp_path / "in.smi"
        f.write_text("CCO\nC?C\nCCC\n")
        assert main(["canonicalize", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["CCO"]  # stops at first failure
        assert "line 2" in captured.err
        assert "column 1" in captured.err

    def test_skip_invalid_emits_blank_lines(self, tmp_path, capsys):
        f = tmp_path / "in.smi"
        f.write_text("CCO\nC?C\nOCC\n")
        assert main(["tokenize", str(f), "--skip-invalid"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["C C O", "", "O C C"]

    @pytest.mark.parametrize("command", ["canonicalize", "tokenize"])
    def test_bytes_that_are_not_utf8_name_file_and_line(self, tmp_path, capsys, command):
        f = tmp_path / "in.smi"
        f.write_bytes(b"CCO\nC\xffC\nCCC\n")
        assert main([command, str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: byte 0xff is not UTF-8 ({f} line 2)\n"

    @pytest.mark.parametrize("command, raw, expected", [
        # "\r\n" and "\r" line ends, a blank line and no final line end.
        ("canonicalize", b"CCO\r\nc1ccccc1\rOCC\n\nClC(=O)C", "CCO\nc1ccccc1\nCCO\n\nCC(Cl)=O\n"),
        ("tokenize", b"CCO\r\nc1ccccc1\rOCC\n\nClC(=O)C", "C C O\nc 1 c c c c c 1\nO C C\n\nCl C ( = O ) C\n"),
        ("canonicalize", b"", ""),
        ("tokenize", b"", ""),
    ])
    def test_line_ends_and_empty_file(self, tmp_path, capsys, command, raw, expected):
        f = tmp_path / "in.smi"
        f.write_bytes(raw)
        assert main([command, str(f), "--skip-invalid"]) == 0
        assert capsys.readouterr().out == expected

    @staticmethod
    def stdin(monkeypatch, raw: bytes):
        """Standard input as a process gets it: text over a binary buffer."""
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))

    def test_stdin(self, monkeypatch, capsys):
        self.stdin(monkeypatch, b"CCO\n")
        assert main(["tokenize"]) == 0
        assert capsys.readouterr().out.splitlines() == ["C C O"]

    @pytest.mark.parametrize("command, raw, expected", [
        ("canonicalize", b"CCO\r\n", "CCO\n"),
        # "\r\n" and "\r" line ends, a blank line and no final line end.
        ("canonicalize", b"CCO\r\nc1ccccc1\rOCC\n\nClC(=O)C", "CCO\nc1ccccc1\nCCO\n\nCC(Cl)=O\n"),
        ("tokenize", b"CCO\r\nc1ccccc1\rOCC\n\nClC(=O)C", "C C O\nc 1 c c c c c 1\nO C C\n\nCl C ( = O ) C\n"),
        ("canonicalize", b"CCO\r\r\nOCC\r", "CCO\n\nCCO\n"),
        ("tokenize", b"", ""),
    ])
    def test_stdin_line_ends_as_in_a_file(self, monkeypatch, tmp_path, capsys, command, raw, expected):
        self.stdin(monkeypatch, raw)
        assert main([command, "--skip-invalid"]) == 0
        assert capsys.readouterr().out == expected
        f = tmp_path / "in.smi"
        f.write_bytes(raw)
        assert main([command, str(f), "--skip-invalid"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("command", ["canonicalize", "tokenize"])
    def test_stdin_bytes_that_are_not_utf8_name_stdin_and_line(self, monkeypatch, capsys, command):
        self.stdin(monkeypatch, b"CCO\nC\xffC\nCCC\n")
        assert main([command]) == 1
        captured = capsys.readouterr()
        assert captured.out == {"canonicalize": "CCO\n", "tokenize": "C C O\n"}[command]  # read before the bad line
        assert captured.err == "error: byte 0xff is not UTF-8 (<stdin> line 2)\n"

    def test_canonicalize_chain_deeper_than_recursion_limit(self, monkeypatch, capsys):
        # Distinct charges keep the Morgan refinement to one pass.
        atoms = ["C", "[C+]"] + [f"[C+{q}]" for q in range(2, 1500)]
        canonical = "".join(atoms)
        self.stdin(monkeypatch, f"{canonical}\n{''.join(reversed(atoms))}\n".encode())
        assert main(["canonicalize"]) == 0
        assert capsys.readouterr().out.splitlines() == [canonical, canonical]


# Config lines as raw bytes: known keys or random ones, values that parse, fail to parse or fail
# validation, and bytes that are not UTF-8, joined by any of the three line ends.
_KEYS = sorted({f.name.encode() for cls in (TrainConfig, SyntheticSpec) for f in dataclasses.fields(cls)})
_VALUES = [b"1", b"0", b"-1", b"2.5", b"nan", b"-inf", b"1e400", b"true", b"no", b"maybe", b"", b"abc", b" 7 ",
           b"1_0", b"\xff", b"\xc3\x28", b"\xe2\x80\xa8", b"CCO", b"finetune_moa", b"row", b"moa"]
_LINE = st.one_of(
    st.tuples(st.sampled_from(_KEYS) | st.binary(max_size=5), st.sampled_from(_VALUES) | st.binary(max_size=6))
    .map(b"=".join),
    st.binary(max_size=10).map(lambda text: b"#" + text),
    st.binary(max_size=10),
)


class TestReaderFuzz:
    @given(st.lists(_LINE, max_size=6), st.sampled_from([b"\n", b"\r\n", b"\r"]))
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_load_or_raise_config_error_naming_the_path(self, tmp_path_factory, lines, end):
        raw = end.join(lines)
        path = tmp_path_factory.mktemp("reader") / "input.txt"
        path.write_bytes(raw)
        try:
            text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        except UnicodeDecodeError:
            text = None
        utf8 = text is not None
        for cls in (TrainConfig, SyntheticSpec):
            try:
                config = read_config(path, cls)
            except ConfigError as exc:
                assert str(path) in str(exc)
                assert utf8 or "is not UTF-8" in str(exc)
            else:
                assert utf8 and isinstance(config, cls)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["canonicalize", str(path), "--skip-invalid"])
        if utf8:
            assert (code, err.getvalue()) == (0, "")
            assert out.getvalue().count("\n") == (len(text.removesuffix("\n").split("\n")) if text else 0)
        else:
            assert (code, out.getvalue()) == (1, "")
            assert re.fullmatch(rf"error: byte 0x[0-9a-f]{{2}} is not UTF-8 \({re.escape(str(path))} line \d+\)\n",
                                err.getvalue())
