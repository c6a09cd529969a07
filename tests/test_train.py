import dataclasses
import hashlib
import itertools
import json
import warnings

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from molseq import autodiff as ad
from molseq import data
from molseq import losses as ls
from molseq import train as tr
from molseq.data import InsufficientClasses, SyntheticSpec, generate_synthetic, prepare_split
from molseq.errors import ConfigError, NonFiniteValue
from molseq.files import config_from_json, load_checkpoint, read_config
from molseq.losses import CenterState
from molseq.model import Model, ModelConfig, ParameterSet, SequenceEncoder


def tiny_config(**overrides):
    base = dict(epochs=6, batch_p=2, batch_k=2, eval_every=3, seed=5,
                embed_dim=8, token_dim=6, mol_hidden=8, seq_hidden=8, max_tokens=40,
                learning_rate=0.01)
    base.update(overrides)
    return tr.TrainConfig(**base)


class TestTrainConfig:
    def test_reference_recipe_defaults(self):
        cfg = tr.TrainConfig()
        assert cfg.epochs == 500
        assert cfg.batch_size == 64 and (cfg.batch_p, cfg.batch_k) == (16, 4)
        assert cfg.learning_rate == 0.001
        assert cfg.momentum == 0.9
        assert cfg.w_center == 0.1 and cfg.w_msc == cfg.w_triplet == cfg.w_cls == 1.0
        assert cfg.margin == 0.3
        assert cfg.temperature == 0.07

    def test_epochs_zero_rejected(self):
        with pytest.raises(tr.ConfigError):
            tr.TrainConfig(epochs=0).validate()

    def test_finetune_freezes_by_default(self):
        assert tr.TrainConfig(stage="finetune_moa").resolved_freeze is True
        assert tr.TrainConfig(stage="pretrain_drug").resolved_freeze is False
        assert tr.TrainConfig(stage="finetune_moa", freeze_molecule_encoder=False).resolved_freeze is False

    def test_label_kind(self):
        assert tr.TrainConfig(stage="pretrain_drug").label_kind == "drug"
        assert tr.TrainConfig(stage="finetune_moa").label_kind == "moa"

    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("epochs=20\nlearning_rate=0.01\nstage=finetune_moa\n"
                        "freeze_molecule_encoder=false\n# comment line\nw_center=0.3\n")
        cfg = read_config(path, tr.TrainConfig)
        assert cfg.epochs == 20
        assert cfg.learning_rate == 0.01
        assert cfg.stage == "finetune_moa"
        assert cfg.freeze_molecule_encoder is False
        assert cfg.w_center == 0.3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("learning_rat=0.01\n")
        with pytest.raises(tr.ConfigError):
            read_config(path, tr.TrainConfig)

    def test_bad_bool(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("temperature_trainable=maybe\n")
        with pytest.raises(tr.ConfigError):
            read_config(path, tr.TrainConfig)

    def test_invalid_values(self):
        for bad in (dict(batch_k=1), dict(learning_rate=0), dict(stage="bogus"),
                    dict(msc_direction="up"), dict(temperature=0.0), dict(w_center=-1.0)):
            with pytest.raises(tr.ConfigError):
                tr.TrainConfig(**bad).validate()

    @pytest.mark.parametrize("overrides, message", [
        (dict(class_matrix_labels="drug"), "class_matrix_labels must be 'stage' or 'moa'"),
        (dict(eval_every=0), "eval_every must be >= 1"),
        (dict(split_ratio=1.0), "split_ratio must lie in (0, 1)"),
    ])
    def test_invalid_value_message(self, overrides, message):
        with pytest.raises(tr.ConfigError) as err:
            tr.TrainConfig(**overrides).validate()
        assert str(err.value) == message

    @pytest.mark.parametrize("momentum", [-0.0, -0.5])
    def test_momentum_with_sign_bit_rejected(self, momentum):
        # sgd_step starts the velocity at -0.0, which a -0.0 momentum would turn into +0.0.
        with pytest.raises(tr.ConfigError, match="^momentum must be >= 0 with its sign bit clear"):
            tr.TrainConfig(momentum=momentum).validate()
        tr.TrainConfig(momentum=0.0).validate()

    @pytest.mark.parametrize("line", ["margin=nan", "learning_rate=nan", "center_alpha=nan",
                                      "temperature=inf", "w_center=-inf"])
    def test_non_finite_value_rejected(self, tmp_path, line):
        path = tmp_path / "cfg.txt"
        path.write_text(line + "\n")
        key = line.split("=")[0]
        with pytest.raises(tr.ConfigError, match=f"^{key} must be finite"):
            read_config(path, tr.TrainConfig)

    @pytest.mark.parametrize("line, message", [
        ("batch_p=x", "batch_p: invalid literal for int() with base 10: 'x'"),
        ("temperature_trainable=maybe", "temperature_trainable: expected a boolean, got 'maybe'"),
        ("learning_rat=0.01", "unknown config key 'learning_rat'"),
        ("just words", "expected key=value, got 'just words'"),
        # Lines end at "\n" only, so the form feed stays inside the value.
        ("epochs=3\x0c0", "epochs: invalid literal for int() with base 10: '3\\x0c0'"),
    ])
    def test_error_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "cfg.txt"
        path.write_text(f"epochs=20\n# comment\n\n{line}\nseed=1\n")
        with pytest.raises(tr.ConfigError) as err:
            read_config(path, tr.TrainConfig)
        assert str(err.value) == f"{message} ({path} line 4)"

    def test_bytes_that_are_not_utf8_name_file_and_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"epochs=20\r\n# comment\r\nstage=pre\xfftrain\n")
        with pytest.raises(tr.ConfigError) as err:
            read_config(path, tr.TrainConfig)
        assert str(err.value) == f"byte 0xff is not UTF-8 ({path} line 3)"

    def test_repeated_key_takes_last_value(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("epochs=abc\nepochs=7\n")
        assert read_config(path, tr.TrainConfig).epochs == 7

    @pytest.mark.parametrize("freeze", [None, True, False])
    def test_json_round_trip(self, freeze):
        cfg = tr.TrainConfig(epochs=3, learning_rate=0.1 + 0.2, temperature=1e-05, temperature_trainable=True,
                             stage="finetune_moa", freeze_molecule_encoder=freeze, use_molecule_branch=False,
                             msc_direction="row", split_ratio=0.7)
        assert config_from_json(tr.TrainConfig, json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg

    @pytest.mark.parametrize("key, value", [("epochs", "abc"), ("epochs", 2.5), ("epochs", None),
                                            ("temperature_trainable", "maybe"), ("learning_rate", [0.1]),
                                            ("temperature_trainable", None), ("use_molecule_branch", None)])
    def test_json_wrong_typed_value_rejected(self, key, value):
        with pytest.raises(tr.ConfigError, match=f"^{key}: "):
            config_from_json(tr.TrainConfig, {**dataclasses.asdict(tr.TrainConfig()), key: value})


class TestSgdStep:
    def _params(self, value):
        model = Model(ModelConfig(vocab_size=4, frame_dim=2, num_classes=2, embed_dim=2, seed=0,
                                  include_molecule=False))
        model.params.add("p", np.array(value, dtype=np.float64))
        return model.params

    @staticmethod
    def _state(params):
        """A velocity at its -0.0 start and a work vector, as ``run_stage`` makes them."""
        return np.full_like(params.flat, -0.0), np.empty_like(params.flat)

    def _step(self, params, state, grad, lr, momentum):
        """One ``sgd_step`` over a fresh leaf for p, the last span of ``params.flat``."""
        leaves = params.as_leaves(["p"])
        leaves["p"].grad = np.array(grad, dtype=np.float64)
        tr.sgd_step(params, leaves, lr, momentum, *state)

    def test_plain_step(self):
        params = self._params([0.0])
        self._step(params, self._state(params), [1.0], lr=0.1, momentum=0.0)
        assert params["p"].value.tolist() == [-0.1]

    def test_zero_grad_from_rest_leaves_params(self):
        params = self._params([1.5])
        state = self._state(params)
        self._step(params, state, [0.0], lr=0.1, momentum=0.9)
        assert params["p"].value.tolist() == [1.5]
        assert state[0][params["p"].span].tobytes() == np.array([0.0]).tobytes()

    def test_velocity_decays_by_momentum(self):
        params = self._params([0.0])
        state = self._state(params)
        self._step(params, state, [2.0], lr=0.1, momentum=0.9)  # a first update sets the velocity to g
        self._step(params, state, [0.0], lr=0.1, momentum=0.9)
        assert state[0][params["p"].span].tolist() == [1.8]

    def test_two_step_momentum_unroll(self):
        # constant grad g: v1 = g, v2 = 1.9 g; total displacement lr*g*(1 + 1.9)
        params = self._params([0.0])
        state = self._state(params)
        g = np.array([1.0])
        self._step(params, state, g, lr=0.1, momentum=0.9)
        self._step(params, state, g, lr=0.1, momentum=0.9)
        assert params["p"].value[0] == pytest.approx(-0.1 * (1 + 1.9), abs=1e-15)

    @pytest.mark.parametrize("momentum", [0.0, 0.5, 0.9])
    def test_first_update_from_minus_zero_sets_velocity_to_g(self, momentum):
        # momentum * -0.0 + g is g bit for bit, signed zeros and subnormals included.
        g = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308])
        value = np.random.default_rng(3).normal(size=g.size)
        params = self._params(value)
        state = self._state(params)
        self._step(params, state, g, lr=0.1, momentum=momentum)
        assert state[0][params["p"].span].tobytes() == g.tobytes()
        assert params["p"].value.tobytes() == (value - 0.1 * g).tobytes()

    @pytest.mark.parametrize("first", ["mol.emb", "seq.w1"])
    def test_matches_a_per_parameter_update(self, first):
        # Every leaf holds a gradient, and the leaves run from ``first`` to the last
        # parameter: all of them, or the tail a stage with a frozen molecule encoder
        # trains.  -0.0 gradients on -0.0 values tell a copied first velocity from a
        # zero-filled one.
        rng = np.random.default_rng(5)
        params = Model(ModelConfig(vocab_size=5, frame_dim=3, num_classes=3, embed_dim=4, token_dim=2,
                                   mol_hidden=3, seq_hidden=3, seed=2)).params
        params["seq.b1"].value = np.full(3, -0.0)
        names = params.names()[params.names().index(first):]
        velocity, scratch = self._state(params)
        reference = {n: (p.value.copy(), None) for n, p in params.items()}
        for _ in range(8):
            leaves = params.as_leaves(names)
            for leaf in leaves.values():
                leaf.grad = np.where(rng.random(leaf.shape) < 0.3, -0.0, rng.normal(size=leaf.shape))
            tr.sgd_step(params, leaves, 0.05, 0.9, velocity, scratch)
            for name, leaf in leaves.items():
                value, v = reference[name]
                v = leaf.grad.copy() if v is None else 0.9 * v + leaf.grad
                reference[name] = (value - 0.05 * v, v)
            for name, p in params.items():
                value, v = reference[name]
                assert p.value.tobytes() == value.tobytes()
                # A parameter that no update has reached keeps the -0.0 start.
                expected = np.full(p.value.shape, -0.0) if v is None else v
                assert velocity[p.span].tobytes() == expected.tobytes()


class TestRunStage:
    def test_short_run_metrics_exist(self, tiny_split):
        result = tr.run_stage(tiny_config(), tiny_split)
        assert result.history and result.loss_log
        assert set(result.final) == {"epoch", "accuracy", "rank1", "rank5", "rank10", "map"}
        steps_per_epoch = len(tiny_split.train) // 4
        assert len(result.loss_log) == 6 * steps_per_epoch

    def test_determinism_bitwise(self, tiny_split):
        a = tr.run_stage(tiny_config(), tiny_split)
        b = tr.run_stage(tiny_config(), tiny_split)
        assert a.metrics_csv() == b.metrics_csv()
        assert a.loss_csv() == b.loss_csv()
        for name in a.model.params.names():
            assert (a.model.params[name].value == b.model.params[name].value).all()

    def test_stage_model_keeps_no_velocity(self, tiny_split):
        # The SGD state lives in run_stage's loop; the stage's ParameterSet holds parameters only.
        result = tr.run_stage(tiny_config(), tiny_split)
        assert result.loss_log
        assert set(vars(result.model.params)) == {"_params", "flat"}

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_split_rejected(self, tiny_split, empty):
        split = replace(tiny_split, **{empty: []})
        with pytest.raises(ValueError, match="^run_stage needs non-empty train and test sets$"):
            tr.run_stage(tiny_config(), split)

    def test_checkpoint_arrays_do_not_follow_the_model(self, tiny_split):
        result = tr.run_stage(tiny_config(epochs=1), tiny_split)
        ckpt = result.checkpoint
        saved = {n: v.tobytes() for n, v in ckpt.parameters.items()}
        leaves = result.model.params.as_leaves()
        for leaf in leaves.values():
            leaf.grad = np.ones_like(leaf.data)
        flat = result.model.params.flat
        tr.sgd_step(result.model.params, leaves, 0.1, 0.9, np.full_like(flat, -0.0), np.empty_like(flat))
        assert result.model.params["seq.w1"].value.tobytes() != saved["seq.w1"]
        assert {n: v.tobytes() for n, v in ckpt.parameters.items()} == saved

    @pytest.mark.parametrize("stage, read", [("pretrain_drug", ("mol.", "seq.", "head.")),
                                             ("finetune_moa", ("seq.", "head."))])
    def test_steps_build_leaves_only_for_what_they_read(self, tiny_split, monkeypatch, stage, read):
        # A fine-tuning step reads the frozen molecule encoder's precomputed embeddings, not its parameters.
        steps, original = [], tr.sgd_step

        def recording(params, leaves, *args):
            steps.append(list(leaves))
            return original(params, leaves, *args)

        monkeypatch.setattr(tr, "sgd_step", recording)
        result = tr.run_stage(tiny_config(stage=stage, epochs=2), tiny_split)
        names = [n for n in result.model.params.names() if n.startswith(read)]
        assert steps and all(step == names for step in steps)

    def test_seed_changes_results(self, tiny_split):
        a = tr.run_stage(tiny_config(), tiny_split)
        b = tr.run_stage(tiny_config(seed=6), tiny_split)
        assert a.loss_csv() != b.loss_csv()

    def test_total_is_weighted_sum_of_components_each_step(self, tiny_split):
        cfg = tiny_config(w_msc=0.7, w_triplet=1.3, w_center=0.05, w_cls=2.0)
        result = tr.run_stage(cfg, tiny_split)
        for row in result.loss_log:
            expected = (0.7 * row["msc"] + 1.3 * row["triplet"] + 0.05 * row["center"] + 2.0 * row["cls"])
            assert row["total"] == pytest.approx(expected, rel=1e-12)

    def test_zero_weights_freeze_everything(self, tiny_split):
        cfg = tiny_config(w_msc=0.0, w_triplet=0.0, w_center=0.0, w_cls=0.0, epochs=4)
        result = tr.run_stage(cfg, tiny_split)
        fresh = tr.run_stage(replace(cfg, epochs=1), tiny_split)
        for name in result.model.params.names():
            assert (result.model.params[name].value == fresh.model.params[name].value).all()

    def test_frozen_molecule_encoder_bitwise_unchanged(self, tiny_split):
        pre = tr.run_stage(tiny_config(stage="pretrain_drug"), tiny_split)
        ckpt = pre.checkpoint
        fin_cfg = tiny_config(stage="finetune_moa", batch_p=2, batch_k=2)
        fin = tr.run_stage(fin_cfg, tiny_split, init=ckpt)
        assert fin.config.resolved_freeze
        for name in ("mol.emb", "mol.w1", "mol.b1", "mol.w2", "mol.b2"):
            assert (fin.model.params[name].value == pre.model.params[name].value).all()
        assert not (fin.model.params["seq.w1"].value == pre.model.params["seq.w1"].value).all()

    def test_frozen_pretraining_stage_keeps_the_fresh_molecule_encoder(self, tiny_split):
        result = tr.run_stage(tiny_config(stage="pretrain_drug", freeze_molecule_encoder=True), tiny_split)
        fresh = Model(result.model.config)
        mol = ["mol.emb", "mol.w1", "mol.b1", "mol.w2", "mol.b2"]
        for name in mol:
            assert result.model.params[name].value.tobytes() == fresh.params[name].value.tobytes()
        assert result.model.params["seq.w1"].value.tobytes() != fresh.params["seq.w1"].value.tobytes()
        assert [n for n, flag in result.checkpoint.trainable.items() if not flag] == mol

    def test_sequence_only_checkpoint_warm_starts_only_seq(self, tiny_split):
        # run_stage always loads mol.* and seq.* from init; a sequence-only
        # stage has no mol.* to load, so only its sequence encoder carries over.
        cfg = tiny_config(epochs=1, use_molecule_branch=False, temperature_trainable=True)
        ckpt = tr.run_stage(cfg, tiny_split).checkpoint
        assert {name.split(".")[0] for name in ckpt.parameters} == {"seq", "head"}

    def test_stage_files(self, tiny_split, tmp_path):
        result = tr.run_stage(tiny_config(), tiny_split, out_dir=tmp_path / "run")
        assert (tmp_path / "run" / "loss_history.csv").exists()
        assert (tmp_path / "run" / "metric_history.csv").exists()
        assert (tmp_path / "run" / "checkpoint.npz").exists()
        header = (tmp_path / "run" / "loss_history.csv").read_text().splitlines()[0]
        assert header == "step,msc,triplet,center,cls,total"
        assert result.metrics_csv().splitlines()[0] == "epoch,accuracy,rank1,rank5,rank10,map"

    @pytest.mark.parametrize("saved_before", [False, True])
    def test_failed_checkpoint_write_leaves_only_whole_files(self, tiny_split, tmp_path, monkeypatch, saved_before):
        result = tr.run_stage(tiny_config(epochs=1), tiny_split)
        out = tmp_path / "run"
        if saved_before:
            result.save(out)
        before = {p.name: p.read_bytes() for p in out.iterdir()} if saved_before else {
            "loss_history.csv": result.loss_csv().encode(), "metric_history.csv": result.metrics_csv().encode()}

        def failing(path, ckpt):
            path.write_bytes(b"PK\x03\x04 part of an archive")
            raise OSError("disk full")

        monkeypatch.setattr(tr, "save_checkpoint", failing)
        with pytest.raises(OSError, match="^disk full$"):
            result.save(out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_saved_checkpoint_round_trips(self, tiny_split, tmp_path):
        pre = tr.run_stage(tiny_config(epochs=2, center_alpha=0.25), tiny_split)
        cfg = tiny_config(stage="finetune_moa", epochs=2, center_alpha=0.75)
        result = tr.run_stage(cfg, tiny_split, init=pre.checkpoint, out_dir=tmp_path / "run")
        saved, loaded = result.checkpoint, load_checkpoint(tmp_path / "run" / "checkpoint.npz")
        assert loaded.model_config == saved.model_config
        assert list(loaded.parameters) == list(saved.parameters)
        for name, value in saved.parameters.items():
            got = loaded.parameters[name]
            assert (got.dtype, got.shape, got.tobytes()) == (value.dtype, value.shape, value.tobytes())
        assert loaded.trainable == saved.trainable
        assert {n for n, flag in loaded.trainable.items() if not flag} == {
            "mol.emb", "mol.w1", "mol.b1", "mol.w2", "mol.b2"}
        assert (loaded.centers.shape, loaded.centers.tobytes()) == (saved.centers.shape, saved.centers.tobytes())
        assert loaded.center_alpha == saved.center_alpha == 0.75
        assert loaded.extra_config == saved.extra_config == dataclasses.asdict(cfg)
        assert loaded.vocabulary == saved.vocabulary == pre.vocab

    def test_trainable_temperature_runs(self, tiny_split):
        cfg = tiny_config(temperature_trainable=True, epochs=3)
        result = tr.run_stage(cfg, tiny_split)
        assert "align.log_inv_temp" in result.model.params
        assert result.model.params["align.log_inv_temp"].value != pytest.approx(np.log(1 / 0.07))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("use_molecule_branch", [True, False])
    def test_overflowing_parameter_raises_before_backward(self, tiny_split, monkeypatch, use_molecule_branch):
        # linear skips the non-finite scan; the loss nodes behind it must not.
        ckpt = tr.run_stage(tiny_config(epochs=1), tiny_split).checkpoint
        ckpt.parameters["seq.w1"] = np.full_like(ckpt.parameters["seq.w1"], 1e308)
        backward_calls = []
        monkeypatch.setattr(ad, "backward", backward_calls.append)
        cfg = tiny_config(use_molecule_branch=use_molecule_branch)
        with pytest.raises(NonFiniteValue) as err:
            tr.run_stage(cfg, tiny_split, init=ckpt)
        assert backward_calls == []
        assert (err.value.stage, err.value.step) == ("pretrain_drug", 0)
        assert "(stage pretrain_drug, step 0)" in str(err.value)

    def test_diverging_stage_raises_without_numpy_warnings(self, tiny_split):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as err:
                tr.run_stage(tiny_config(learning_rate=1e300), tiny_split)
        assert (err.value.stage, err.value.step) == ("pretrain_drug", 1)
        assert "(stage pretrain_drug, step 1)" in str(err.value)

    @pytest.mark.parametrize("overrides, op, component, step", [
        (dict(learning_rate=1e150), "half_sq_error", "center", 1),
        (dict(margin=1e308), "batch_hard_triplet", "triplet", 0),
        (dict(temperature=1e-310), "cosine_logits", "msc", 0),
    ])
    def test_non_finite_loss_names_its_component(self, tiny_split, overrides, op, component, step):
        with pytest.raises(NonFiniteValue) as err:
            tr.run_stage(tiny_config(**overrides), tiny_split)
        assert (err.value.op, err.value.component, err.value.stage, err.value.step) == (
            op, component, "pretrain_drug", step)
        assert str(err.value) == f"{component}: {op}: result contains NaN or Inf (stage pretrain_drug, step {step})"

    def test_moa_class_matrix_flag(self, tiny_split):
        cfg = tiny_config(class_matrix_labels="moa", epochs=2)
        result = tr.run_stage(cfg, tiny_split)
        assert len(result.loss_log) > 0

    @staticmethod
    def own_schedule(config, train):
        classes = data.pk_classes(data.pk_groups(data.labels_of(train, config.label_kind)), config.batch_p,
                                  config.batch_k)
        return tr._pk_schedule(classes, config.batch_p, config.batch_k, config.seed, tr._stage_steps(config, train))

    def test_given_schedule_is_the_one_trained_on(self, tiny_split):
        cfg = tiny_config(epochs=2)
        batches = self.own_schedule(cfg, tiny_split.train)
        assert batches.shape == (2 * (len(tiny_split.train) // cfg.batch_size), cfg.batch_size)
        own = tr.run_stage(cfg, tiny_split)
        assert tr.run_stage(cfg, tiny_split, batches=batches).loss_log == own.loss_log
        assert tr.run_stage(cfg, tiny_split, batches=batches[::-1].copy()).loss_log != own.loss_log

    @pytest.mark.parametrize("edit, match", [
        (lambda b: b[1:], r"^batches must have shape \(16, 4\), got \(15, 4\)$"),
        (lambda b: b[:, :3], r"^batches must have shape \(16, 4\), got \(16, 3\)$"),
        (lambda b: b.reshape(-1), r"^batches must have shape \(16, 4\), got \(64,\)$"),
        (lambda b: np.where(np.arange(b.size).reshape(b.shape) == 37, 32, b), r"positions in \[0, 32\)$"),
        (lambda b: np.where(np.arange(b.size).reshape(b.shape) == 5, -1, b), r"positions in \[0, 32\)$"),
        (lambda b: b.astype(np.float64), r"positions in \[0, 32\)$"),
        (lambda b: b.tolist(), r"^batches must have shape \(16, 4\), got <class 'list'>$"),
    ])
    def test_bad_schedule_rejected_before_any_step(self, tiny_split, monkeypatch, edit, match):
        cfg = tiny_config(epochs=2)
        batches = edit(self.own_schedule(cfg, tiny_split.train))

        def no_call(*args):
            raise AssertionError("the stage went on past a bad schedule")

        for name in ("Model", "pk_sample_indices", "sgd_step"):
            monkeypatch.setattr(tr, name, no_call)
        with pytest.raises(ValueError, match=match):
            tr.run_stage(cfg, tiny_split, batches=batches)


class TestPkSchedule:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_s_is_the_draw_at_step_s(self, draw):
        k = draw.draw(st.integers(1, 5), "k")
        p = draw.draw(st.integers(1, 4), "p")
        # One class holds exactly K samples, the rest at least K, and some too few to draw from.
        sizes = [k] + draw.draw(st.lists(st.integers(k, k + 4), min_size=p - 1, max_size=p + 2), "sizes")
        sizes += draw.draw(st.lists(st.integers(1, k - 1), max_size=2), "small") if k > 1 else []
        labels = np.random.default_rng(len(sizes)).permutation(np.repeat(np.arange(len(sizes)), sizes))
        classes = data.pk_classes(data.pk_groups(labels), p, k)
        seed, steps = draw.draw(st.integers(0, 2**32), "seed"), draw.draw(st.integers(0, 12), "steps")
        batches = tr._pk_schedule(classes, p, k, seed, steps)
        assert batches.shape == (steps, p * k) and batches.dtype == np.int32
        for step, row in enumerate(batches):
            assert row.tolist() == data.pk_sample_indices(classes, p, k, seed, step).tolist()


def pk_labels(rng, p, k, num_classes):
    """Labels of a PK batch: P distinct classes in random order, K in a row each."""
    return np.repeat(rng.choice(num_classes, size=p, replace=False), k)


def objective_bits(config, model, s0, pooled, labels, class_labels, centers, *constants):
    """Loss value, report and every gradient of one ``_objective`` step, as bytes."""
    leaves = {n: ad.Tensor(p.value, requires_grad=True) for n, p in model.params.items()}
    s_emb = None if s0 is None else ad.Tensor(s0, requires_grad=True)
    v_emb = model.sequence.forward(pooled, leaves)
    total, report = tr._objective(config, model, leaves, s_emb, v_emb, labels, class_labels, centers, *constants)
    ad.backward(total)
    grads = [(n, t.grad.tobytes()) for n, t in leaves.items() if t.grad is not None]
    return total.data.tobytes(), report, grads, None if s_emb is None else s_emb.grad.tobytes()


class TestStageConstants:
    """The stage's PK constants give the bits of building them at every step."""

    @pytest.mark.parametrize("overrides", [
        dict(msc_direction="both"), dict(msc_direction="row"), dict(msc_direction="col"),
        dict(class_matrix_labels="moa"), dict(use_molecule_branch=False), dict(temperature_trainable=True),
    ])
    def test_bitwise_equal_to_per_step_build(self, overrides):
        rng = np.random.default_rng(20261019)
        for trial in range(12):
            p, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            num_classes = p + int(rng.integers(0, 4))
            config = tr.TrainConfig(batch_p=p, batch_k=k, embed_dim=6, seq_hidden=7, seed=trial, **overrides)
            model = Model(ModelConfig(vocab_size=5, frame_dim=3, num_classes=num_classes, embed_dim=6,
                                      token_dim=4, mol_hidden=5, seq_hidden=7, seed=trial))
            if config.temperature_trainable:
                model.params.add("align.log_inv_temp", np.array(np.log(1.0 / config.temperature)))
            labels = pk_labels(rng, p, k, num_classes)
            class_labels = labels if config.class_matrix_labels == "stage" else rng.integers(0, 3, size=p * k)
            s0 = rng.normal(size=(p * k, 6)) if config.use_molecule_branch else None
            pooled = rng.normal(size=(p * k, 6))
            centers = CenterState(centers=rng.normal(size=(num_classes, 6)))
            targets, masks = tr._pk_constants(config)
            assert (targets is None) == (not config.use_molecule_branch or config.class_matrix_labels == "moa")
            built = objective_bits(config, model, s0, pooled, labels, class_labels, centers)
            passed = objective_bits(config, model, s0, pooled, labels, class_labels, centers, targets, masks)
            assert passed == built

    def test_classifier_skips_an_exact_normalization(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            b, classes = int(rng.integers(1, 30)), int(rng.integers(1, 9))
            logits0 = rng.normal(size=(b, classes)) * 4.0
            labels = rng.integers(0, classes, size=b)
            onehot = np.eye(classes)[labels]
            runs = []
            for loss in (lambda x: ls.classification_ce(x, labels),
                         lambda x: ad.soft_target_ce(x, ad.soft_targets((onehot,), "row"))):
                x = ad.Tensor(logits0, requires_grad=True)
                out = loss(x)
                ad.backward(out)
                runs.append((out.data.tobytes(), x.grad.tobytes()))
            assert runs[0] == runs[1]

    def test_frozen_embeddings_gathered_equal_a_per_batch_forward(self):
        # 384 train rows in 64-row batches, the acceptance spec's sizes.  Row bits of
        # one GEMM over every row equal a batch's GEMM with numpy 2.4 and OpenBLAS 0.3
        # on x86-64, the platform TestGoldenBits was recorded on.
        rng = np.random.default_rng(3)
        model = Model(ModelConfig(vocab_size=30, frame_dim=32, num_classes=4, seed=3))
        counts = rng.random(size=(384, 30))
        counts /= counts.sum(axis=1, keepdims=True)
        leaves = model.params.as_leaves()
        table = model.molecule.forward_counts(counts, leaves).data
        for _ in range(50):
            idx = rng.choice(384, size=64, replace=False)
            assert table[idx].tobytes() == model.molecule.forward_counts(counts[idx], leaves).data.tobytes()

    def test_one_class_stage_raises_before_any_update(self, tiny_split, monkeypatch):
        updates = []
        monkeypatch.setattr(tr, "sgd_step", lambda *args: updates.append(args))
        with pytest.raises(ls.DegenerateBatch) as per_step:
            ad.batch_hard_triplet(ad.constant(np.zeros((2, 3))), [4, 4], 0.3)
        with pytest.raises(ls.DegenerateBatch) as err:
            tr.run_stage(tiny_config(batch_p=1, batch_k=2), tiny_split)
        assert str(err.value) == str(per_step.value) == "every anchor needs at least one positive and one negative"
        assert updates == []


class TestObjective:
    def test_overflowing_logits_name_cls_while_msc_is_finite(self):
        # soft_target_ce builds both the alignment and the classification term; the error names the second.
        rng = np.random.default_rng(3)
        model = Model(ModelConfig(vocab_size=9, frame_dim=4, num_classes=2, embed_dim=6, token_dim=4,
                                  mol_hidden=5, seq_hidden=5))
        model.params["head.w"].value = np.full((6, 2), 1e308)
        s_emb, v_emb = ad.constant(rng.normal(size=(4, 6))), ad.constant(rng.uniform(0.5, 1.0, size=(4, 6)))
        labels = np.array([0, 0, 1, 1])
        cfg = tr.TrainConfig()
        msc = ls.msc_loss(ls.similarity(s_emb, v_emb, cfg.temperature), ls.build_supervision(labels))
        assert np.isfinite(msc.data)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteValue) as err:
            tr._objective(cfg, model, model.params.as_leaves(), s_emb, v_emb, labels, labels,
                          CenterState(rng.normal(size=(2, 6))))
        assert (err.value.op, err.value.component) == ("soft_target_ce", "cls")
        assert str(err.value) == "cls: soft_target_ce: result contains NaN or Inf"


class TestEvaluate:
    @pytest.mark.parametrize("kind", ["drug", "moa"])
    def test_one_leaf_set_and_one_forward_per_call(self, tiny_split, monkeypatch, kind):
        model = Model(ModelConfig(vocab_size=4, frame_dim=6, num_classes=4, embed_dim=5, seed=0))
        inputs = tr.eval_set(tiny_split, kind, 0)
        calls = []
        for owner, name in ((ParameterSet, "as_leaves"), (SequenceEncoder, "forward")):
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        tr.evaluate(model, inputs)
        assert sorted(calls) == ["as_leaves", "forward"]

    @pytest.mark.parametrize("kind", ["drug", "moa"])
    def test_rows_of_one_forward_score_as_separate_forwards(self, tiny_split, kind):
        # The query and gallery rows of the one test-set forward carry the bits of
        # embedding each subset on its own.
        model = Model(ModelConfig(vocab_size=4, frame_dim=6, num_classes=4, embed_dim=5, seed=1))
        pooled, labels, query = tr.eval_set(tiny_split, kind, 3)
        gallery = np.setdiff1d(np.arange(len(labels)), query)
        row, result = tr.evaluate(model, (pooled, labels, query))
        separate = tr.evaluate_retrieval(model.sequence_embeddings(pooled[query]), labels[query],
                                         model.sequence_embeddings(pooled[gallery]), labels[gallery])
        assert result.average_precisions.tobytes() == separate.average_precisions.tobytes()
        assert result.cmc.tobytes() == separate.cmc.tobytes()
        assert row["map"] == separate.map and row["rank1"] == separate.rank1


class TestGoldenBits:
    """Loss and metric logs of a short pipeline, pinned to the bit.

    The digests were recorded with the training step built from primitive
    ops only (matmul, add, l2_normalize_rows, row_log_softmax, ...), before
    the fused nodes existed.  Any change to the arithmetic or to the order
    in which gradients are accumulated changes them.  They depend on
    numpy's and the BLAS library's floating-point paths (recorded with
    numpy 2.4 and OpenBLAS 0.3, x86-64).
    """

    GOLDEN = {
        "default": "6d5e7bce2c4fdfe5699bf255ab6ab3259e9d8d6649b9051a5d875f9aa6c661c8",
        "temperature_trainable": "229137f0114728e49590ba20e607b54acb693ed3fe4e9d36c2d3a4fdda2dc1f4",
        "msc_direction_row": "9fe572fbf3f99225fa31cda51643ddbdc951f0ee7bf6a228f9d4d3837be5120e",
        "msc_direction_col": "6698616b24974e495b8f5f4dd1ec6555bc1f5b3fb990429527259280a1a84ae5",
        "class_matrix_moa": "ac794134c1fc41b08a86967ff70e7f6a3d9c320defd16a5bf6648d0e87615a5e",
    }
    OVERRIDES = {
        "default": {},
        "temperature_trainable": dict(temperature_trainable=True),
        "msc_direction_row": dict(msc_direction="row"),
        "msc_direction_col": dict(msc_direction="col"),
        "class_matrix_moa": dict(class_matrix_labels="moa"),
    }

    @pytest.mark.parametrize("variant", sorted(GOLDEN))
    def test_pipeline_logs_match_golden_digest(self, tiny_split, variant):
        result = tr.run_pipeline(tiny_split, tiny_config(**self.OVERRIDES[variant]))
        text = "".join(st.loss_csv() + st.metrics_csv() for st in (result.warmup, result.pretrain, result.finetune))
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[variant]


def tree_digest(root, report=None) -> str:
    """sha256 over the sorted relative paths under ``root``, each file's bytes, and ``report`` as JSON."""
    h = hashlib.sha256()
    for path in sorted((p for p in root.rglob("*") if p.is_file()), key=lambda p: p.relative_to(root).as_posix()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    h.update(json.dumps(report, sort_keys=True).encode())
    return h.hexdigest()


class TestGoldenLayout:
    """Every file the pipeline and the strategies write, with its path, pinned to the bit.

    Besides the loss and metric logs, this pins the stage directory names,
    the checkpoint bytes (parameters, centers, config echo and vocabulary)
    and the strategy reports.  Recorded with numpy 2.4 and OpenBLAS 0.3,
    x86-64, like ``TestGoldenBits``.
    """

    GOLDEN = {
        "pipeline": "7a7291d5962265eaf1dcfacf80419ed52e73843f3532caac609fa9c94d7236eb",
        "pipeline_seq_only_base_frozen": "2f214f61af5937b2f4d216fcb917ac7ee92208a565992afce7134dd7c410f274",
        "S1": "92ead6631cc757fbdd89acd8f47d403bb595916439af9291d91819e76c183f52",
        "S2": "331a977c8b9cf1c621757750e6d84bc76d6ff1b3adc20981fc164531fc8efce2",
        "S3": "df1c32085d851a6a35d855a690b1dc00526d54ab3564a403d368161bbcd73634",
        "sweep": "852166fc1d3e35bd34fd18d49de4d5db3a77fb13f733051079fcb86fe8f13b09",
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_files_and_report_match_golden_digest(self, tiny_split, tmp_path, case):
        report = None
        if case == "pipeline":
            tr.run_pipeline(tiny_split, tiny_config(), out_dir=tmp_path)
        elif case == "pipeline_seq_only_base_frozen":
            # drug stages keep the base freeze flag; fine-tuning keeps the base branch flag
            cfg = tiny_config(use_molecule_branch=False, freeze_molecule_encoder=True)
            tr.run_pipeline(tiny_split, cfg, out_dir=tmp_path)
        elif case == "sweep":
            report = tr.sweep_center_weight(tiny_config(epochs=3), [0.0, 0.25], tiny_split, out_dir=tmp_path)
        else:
            report, _ = tr.run_strategy(case, tiny_split, tiny_config(), out_dir=tmp_path)
        assert tree_digest(tmp_path, report) == self.GOLDEN[case]


class TestStrategiesAndPipeline:
    def test_s1_omits_alignment_history(self, tiny_split):
        report, result = tr.run_strategy("S1", tiny_split, tiny_config())
        assert result.config.use_molecule_branch is False
        assert "msc" not in result.loss_csv().splitlines()[0]
        assert result.model.molecule is None
        assert set(report) == {"strategy", "initialization", "accuracy", "rank1", "rank5", "rank10", "map"}
        assert report["initialization"] == "fresh"

    def test_s2_runs_dual_branch(self, tiny_split):
        _, result = tr.run_strategy("S2", tiny_split, tiny_config(epochs=2))
        assert result.config.use_molecule_branch is True
        assert "msc" in result.loss_csv().splitlines()[0]

    def test_s3_loads_s1_weights_without_shape_errors(self, tiny_split):
        report, result = tr.run_strategy("S3", tiny_split, tiny_config(epochs=3))
        assert report["strategy"] == "S3"
        assert result.config.use_molecule_branch is True

    def test_unknown_strategy(self, tiny_split):
        with pytest.raises(ValueError):
            tr.run_strategy("S9", tiny_split, tiny_config())

    def test_pipeline_chains_three_stages(self, tiny_split, tmp_path):
        result = tr.run_pipeline(tiny_split, tiny_config(epochs=3), out_dir=tmp_path)
        assert result.warmup.config.stage == "pretrain_drug"
        assert result.pretrain.config.stage == "pretrain_drug"
        assert result.finetune.config.stage == "finetune_moa"
        # molecule encoder carried frozen from pretrain into finetune
        for name in ("mol.emb", "mol.w2"):
            assert (result.finetune.model.params[name].value == result.pretrain.model.params[name].value).all()
        for sub in ("warmup", "pretrain", "finetune"):
            assert (tmp_path / sub / "checkpoint.npz").exists()

    def test_s1_and_s3_stages_are_the_pipeline_stages_byte_for_byte(self, tiny_split, tmp_path):
        # Every plan is a chain from the same sequence-only stage, so S1, S3's first stage and warmup
        # are one stage, and S3's second stage is pretrain.
        tr.run_strategy("S1", tiny_split, tiny_config(), out_dir=tmp_path / "S1")
        tr.run_strategy("S3", tiny_split, tiny_config(), out_dir=tmp_path / "S3")
        tr.run_pipeline(tiny_split, tiny_config(), out_dir=tmp_path / "pipeline")
        for a, b in [("S1/seq_only", "S3/seq_only"), ("S1/seq_only", "pipeline/warmup"),
                     ("S3/dual_warm", "pipeline/pretrain")]:
            for name in ("loss_history.csv", "metric_history.csv", "checkpoint.npz"):
                assert (tmp_path / a / name).read_bytes() == (tmp_path / b / name).read_bytes(), (a, b, name)

    def test_every_stage_is_checked_before_the_first_trains(self, tmp_path):
        # MoA 3 keeps one drug: 10 training samples, too few for fine-tuning's 4 x 16 batch,
        # while each drug stage can still draw 8 x 8.
        samples = generate_synthetic(SyntheticSpec(num_moas=4, drugs_per_moa=3, samples_per_drug=12, T=3, f=6, seed=3))
        split = prepare_split([s for s in samples if s.moa_label != 3 or s.drug_label == 9], ratio=0.8, seed=3)
        with pytest.raises(InsufficientClasses, match=r"^stage finetune: need 4 classes with >= 16 samples, found 3$"):
            tr.run_pipeline(split, tiny_config(batch_p=16, batch_k=4), out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_one_class_stage_is_named_before_the_first_trains(self, tmp_path, monkeypatch):
        # The train set holds one MoA, so fine-tuning fits P = 1, while each drug stage still draws 2 x 2.
        samples = generate_synthetic(SyntheticSpec(num_moas=2, drugs_per_moa=3, samples_per_drug=12, T=3, f=6, seed=3))
        split = prepare_split([s for s in samples if s.moa_label == 0], ratio=0.8, seed=3)
        updates = []
        monkeypatch.setattr(tr, "sgd_step", lambda *args: updates.append(args))
        with pytest.raises(ls.DegenerateBatch,
                           match=r"^stage finetune: every anchor needs at least one positive and one negative$"):
            tr.run_pipeline(split, tiny_config(), out_dir=tmp_path / "run")
        assert updates == []
        assert not (tmp_path / "run").exists()

    def test_pk_autofit(self, tiny_split):
        cfg = tr.TrainConfig(epochs=2, batch_p=16, batch_k=4, embed_dim=8, token_dim=4,
                             mol_hidden=8, seq_hidden=8, eval_every=2, seed=1)
        fitted = tr._fit_pk(cfg, tiny_split)
        assert fitted.batch_size == 64
        assert fitted.batch_p <= 4  # only 4 drugs exist

    def test_stage_check_draws_no_batch(self, tiny_split, monkeypatch):
        def no_draw(*args):
            raise AssertionError("molseq.data.pk_sample_indices was called")

        monkeypatch.setattr(data, "pk_sample_indices", no_draw)
        assert tr.run_pipeline(tiny_split, tiny_config(epochs=2)).finetune.loss_log

    @pytest.mark.parametrize("name", ["pk_sample_indices", "sgd_step", "update_centers"])
    def test_one_call_per_training_step(self, tiny_split, monkeypatch, name):
        # The benchmark's tracer times the SGD update and the center update, and the PK
        # draw, each looked up in molseq.train.  The first two run once per step.  The
        # draws run before a stage's loop, and warmup and pretrain share one schedule, so
        # a pipeline draws one batch per warmup step and one per finetune step.
        calls, original = [], getattr(tr, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(tr, name, counting)
        result = tr.run_pipeline(tiny_split, tiny_config(epochs=2))
        stages = (result.warmup, result.finetune) if name == "pk_sample_indices" else \
            (result.warmup, result.pretrain, result.finetune)
        assert len(calls) == sum(len(stage.loss_log) for stage in stages) > 0

    @pytest.mark.parametrize("plan, shared", [(tr.PIPELINE, [("warmup", "pretrain"), ("finetune",)]),
                                              (tr.STRATEGIES["S3"], [("seq_only", "dual_warm")]),
                                              (tr.STRATEGIES["S2"], [("dual_fresh",)])])
    def test_each_schedule_is_drawn_before_the_stages_that_share_it(self, tiny_split, monkeypatch, plan, shared):
        events = []
        draw, step = tr.pk_sample_indices, tr.sgd_step
        monkeypatch.setattr(tr, "pk_sample_indices", lambda *args: events.append("draw") or draw(*args))
        monkeypatch.setattr(tr, "sgd_step", lambda *args: events.append("step") or step(*args))
        results = tr._run_plan(plan, tiny_split, tiny_config(epochs=2))
        runs = [(kind, len(list(group))) for kind, group in itertools.groupby(events)]
        expected = []
        for names in shared:
            steps = [len(results[name].loss_log) for name in names]
            assert len(set(steps)) == 1
            expected += [("draw", steps[0]), ("step", sum(steps))]
        assert runs == expected

    def test_invalid_config_fails_before_any_draw(self, tiny_split, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(tr, "pk_sample_indices", no_draw)
        with pytest.raises(ConfigError, match="^epochs must be >= 1$"):
            tr.run_pipeline(tiny_split, tiny_config(epochs=0))


class TestSweep:
    def test_rows_and_files(self, tiny_split, tmp_path):
        rows = tr.sweep_center_weight(tiny_config(epochs=2), [0.0, 0.1], tiny_split, out_dir=tmp_path)
        assert len(rows) == 2
        assert [row["weight"] for row in rows] == [0.0, 0.1]
        content = (tmp_path / "sweep.csv").read_text().splitlines()
        assert content[0] == "weight,rank1,map,accuracy"
        assert len(content) == 3

    def test_single_weight(self, tiny_split):
        rows = tr.sweep_center_weight(tiny_config(epochs=2), [0.5], tiny_split)
        assert len(rows) == 1 and rows[0]["weight"] == 0.5

    @pytest.mark.parametrize("saved_before", [False, True])
    def test_failed_sweep_csv_write_leaves_only_whole_files(self, tiny_split, tmp_path, fail_text_writes,
                                                            saved_before):
        if saved_before:
            tr.sweep_center_weight(tiny_config(epochs=2), [0.1], tiny_split, out_dir=tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        assert ("sweep.csv" in before) == saved_before
        fail_text_writes("sweep")
        with pytest.raises(OSError, match="^disk full$"):
            tr.sweep_center_weight(tiny_config(epochs=2), [0.1], tiny_split, out_dir=tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before

    @pytest.mark.parametrize("weights", [[0.1, 0.10], [0.3, 0.1, 0.1000001]])
    def test_weights_sharing_a_directory_rejected(self, tiny_split, tmp_path, weights):
        with pytest.raises(ValueError, match="^weights must give distinct directory names"):
            tr.sweep_center_weight(tiny_config(epochs=2), weights, tiny_split, out_dir=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_weight_rejected_before_any_pipeline(self, tiny_split, tmp_path, monkeypatch, bad):
        def no_call(*args, **kwargs):
            raise AssertionError("a pipeline ran before the weights were checked")

        monkeypatch.setattr(tr, "run_pipeline", no_call)
        with pytest.raises(ValueError, match=f"^weights must be finite and non-negative, got {bad:g}$"):
            tr.sweep_center_weight(tiny_config(epochs=2), [0.1, bad], tiny_split, out_dir=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_empty_weights_rejected(self, tiny_split):
        with pytest.raises(ValueError):
            tr.sweep_center_weight(tiny_config(), [], tiny_split)

    def test_default_schedule(self):
        assert tr.DEFAULT_SWEEP_WEIGHTS == [0.01, 0.02, 0.04, 0.06, 0.08, 0.1, 0.3, 0.5, 0.7, 0.9]


class TestGradientSuite:
    def test_all_checks_pass(self):
        checks = tr.gradient_check_suite()
        names = {name for name, _ in checks}
        assert {"msc_loss", "hard_triplet_loss", "center_loss", "classification_ce",
                "molecule_encoder", "sequence_encoder", "full_model_total"} <= names
        for name, err in checks:
            assert err <= tr.GRAD_TOLERANCE, name
