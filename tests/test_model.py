import gc
import json
import weakref
import zipfile

import numpy as np
import pytest

from molseq import autodiff as ad
from molseq import files
from molseq import model as md
from molseq.errors import NonFiniteValue, ShapeMismatch
from molseq.smiles import build_vocabulary
from molseq import train as tr


def small_model(seed=0, include_molecule=True, num_classes=3):
    return md.Model(md.ModelConfig(
        vocab_size=9, frame_dim=4, num_classes=num_classes, embed_dim=6,
        token_dim=4, mol_hidden=5, seq_hidden=5, seed=seed,
        include_molecule=include_molecule,
    ))


def bare_checkpoint(model, vocab, **fields) -> files.Checkpoint:
    """A model's parameters as a checkpoint record that trained every one, with an empty config echo."""
    return files.Checkpoint(model_config=model.config, extra_config=fields.pop("extra_config", {}), vocabulary=vocab,
                            parameters={n: p.value for n, p in model.params.items()},
                            trainable=fields.pop("trainable", dict.fromkeys(model.params.names(), True)), **fields)


def encode_ids(model, ids):
    counts = md.token_count_matrix(np.asarray(ids), model.config.vocab_size)
    return model.molecule.forward_counts(counts, model.params.as_leaves())


def encode_frames(model, frames):
    return model.sequence.forward(md.pool_frames(frames)[None], model.params.as_leaves())


def classify(model, embedding):
    return model.head.forward(embedding, model.params.as_leaves())


class TestTokenCounts:
    def test_all_padding(self):
        with pytest.raises(md.AllPadding):
            md.token_count_matrix(np.array([[0, 0, 0]]), 9)

    def test_id_out_of_range(self):
        with pytest.raises(md.IdOutOfRange):
            md.token_count_matrix(np.array([[1, 9]]), 9)

    @pytest.mark.parametrize("ids", [np.array([2, 3]), np.ones((2, 2, 2), dtype=np.int64)], ids=["1-d", "3-d"])
    def test_ids_must_be_two_dimensional(self, ids):
        with pytest.raises(ShapeMismatch) as err:
            md.token_count_matrix(ids, 5)
        assert err.value.op == "token_count_matrix" and err.value.shapes == (ids.shape,)

    def test_rows_sum_to_one(self):
        counts = md.token_count_matrix(np.array([[2, 2, 3, 0], [4, 0, 0, 0]]), 5)
        np.testing.assert_allclose(counts.sum(axis=1), 1.0)
        assert counts[0, 2] == pytest.approx(2 / 3)
        assert (counts[:, 0] == 0).all()  # PAD never counted


class TestMoleculeEncoder:
    def test_identical_ids_any_length(self):
        model = small_model()
        one = encode_ids(model, [[3]]).data
        many = encode_ids(model, [[3, 3, 3, 3, 3]]).data
        assert (one == many).all()

    def test_trailing_pads_are_ignored(self):
        model = small_model()
        bare = encode_ids(model, [[2, 5, 7]]).data
        padded = encode_ids(model, [[2, 5, 7, 0, 0, 0]]).data
        assert (bare == padded).all()

    def test_output_shape_and_finite(self):
        model = small_model()
        out = encode_ids(model, [[2, 3, 4], [5, 6, 0]])
        assert out.shape == (2, 6)
        assert np.isfinite(out.data).all()

    def test_gradient_through_embedding_table(self):
        model = small_model()
        ids = np.array([[2, 3, 3, 0], [4, 5, 6, 7]])
        counts = md.token_count_matrix(ids, model.config.vocab_size)
        proj = np.random.default_rng(0).normal(size=(6, 1))
        names = ["mol.emb", "mol.w1", "mol.b1", "mol.w2", "mol.b2"]
        values = [model.params[n].value for n in names]

        def f(leaves):
            lv = dict(zip(names, leaves))
            enc = model.molecule.forward_counts(counts, lv)
            return ad.sum_(ad.matmul(enc, ad.constant(proj)))

        assert ad.finite_difference_check(f, values) <= 1e-5


class TestSequenceEncoder:
    def test_pool_single_frame(self):
        frame = np.array([[1.0, -2.0, 3.0, 0.5]])
        pooled = md.pool_frames(frame)
        np.testing.assert_array_equal(pooled[:4], frame[0])
        np.testing.assert_array_equal(pooled[4:], frame[0])

    def test_duplicating_frames_changes_nothing(self, rng):
        frames = rng.normal(size=(5, 4))
        doubled = np.repeat(frames, 2, axis=0)
        np.testing.assert_allclose(md.pool_frames(frames), md.pool_frames(doubled), atol=1e-12)

    def test_frame_order_invariance(self, rng):
        frames = rng.normal(size=(6, 4))
        shuffled = frames[rng.permutation(6)]
        np.testing.assert_allclose(md.pool_frames(frames), md.pool_frames(shuffled), atol=1e-12)

    def test_empty_sequence(self):
        with pytest.raises(md.EmptySequence):
            md.pool_frames(np.zeros((0, 4)))

    def test_encode_shape_and_finite(self, rng):
        model = small_model()
        out = encode_frames(model, rng.normal(size=(16, 4)))
        assert out.shape == (1, 6)
        assert np.isfinite(out.data).all()

    def test_wide_embedding_shape_contract(self, rng):
        model = md.Model(md.ModelConfig(vocab_size=4, frame_dim=8, num_classes=2, embed_dim=2048, seed=0))
        out = encode_frames(model, rng.normal(size=(3, 8)))
        assert out.shape == (1, 2048)

    def test_dimension_mismatch(self):
        model = small_model()
        with pytest.raises(ShapeMismatch):
            model.sequence.forward(np.zeros((2, 7)), model.params.as_leaves())


class TestClassifierHead:
    def test_zero_weights_zero_logits(self, rng):
        model = small_model()
        model.params["head.w"].value = np.zeros((6, 3))
        model.params["head.b"].value = np.zeros(3)
        emb = ad.constant(rng.normal(size=(4, 6)))
        assert (classify(model, emb).data == 0).all()

    def test_identity_weights_pass_through(self, rng):
        model = md.Model(md.ModelConfig(vocab_size=4, frame_dim=4, num_classes=6, embed_dim=6, seed=0))
        model.params["head.w"].value = np.eye(6)
        model.params["head.b"].value = np.zeros(6)
        emb = rng.normal(size=(2, 6))
        np.testing.assert_array_equal(classify(model, ad.constant(emb)).data, emb)

    def test_dimension_mismatch(self):
        model = small_model()
        with pytest.raises(ShapeMismatch):
            classify(model, ad.constant(np.zeros((2, 7))))


class TestFlatStorage:
    def test_parameters_are_views_of_one_vector(self):
        model = small_model()
        params = model.params
        assert params.flat.size == sum(p.value.size for _, p in params.items())
        for _, p in params.items():
            assert np.shares_memory(p.value, params.flat)
        params["head.b"].value = [7.0, 8.0, 9.0]
        assert params.flat[-3:].tolist() == [7.0, 8.0, 9.0]

    def test_duplicate_parameter_rejected(self):
        params = small_model().params
        with pytest.raises(ValueError, match="^duplicate parameter 'head.b'$"):
            params.add("head.b", np.zeros(3))

    def test_added_parameter_keeps_earlier_values(self):
        model = small_model()
        before = {n: p.value.copy() for n, p in model.params.items()}
        model.params.add("extra", np.array(2.5))
        for name, value in before.items():
            assert model.params[name].value.tobytes() == value.tobytes()
            assert np.shares_memory(model.params[name].value, model.params.flat)
        assert model.params["extra"].value.shape == () and model.params.flat[-1] == 2.5

    def test_misshapen_value_rejected(self):
        model = small_model()
        with pytest.raises(ShapeMismatch):
            model.params["head.w"].value = np.zeros(3)

    def test_nan_assigned_through_value_is_caught_by_as_leaves(self):
        model = small_model()
        w = model.params["head.w"].value.copy()
        w[1, 2] = np.nan
        model.params["head.w"].value = w
        with pytest.raises(NonFiniteValue) as err:
            model.params.as_leaves()
        assert err.value.op == "leaf"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_leaf_names_its_parameter(self, bad):
        model = small_model()
        name = model.params.names()[2]  # neither the first nor the last span
        value = model.params[name].value.copy()
        value.flat[-1] = bad
        model.params[name].value = value
        with pytest.raises(NonFiniteValue, match=rf"^leaf: result contains NaN or Inf \(parameter '{name}'\)$") as err:
            model.params.as_leaves()
        assert (err.value.op, err.value.parameter) == ("leaf", name)

    def test_freed_without_the_cycle_collector(self):
        # A parameter referring back to its set would make a cycle, and a finished
        # stage's vectors would then stay in memory until the cycle collector ran.
        params = small_model().params
        ref = weakref.ref(params)
        gc.disable()
        try:
            del params
            assert ref() is None
        finally:
            gc.enable()

    def test_named_leaves_only(self):
        model = small_model()
        leaves = model.params.as_leaves(["seq.w1", "head.b"])
        assert list(leaves) == ["seq.w1", "head.b"]
        assert leaves["head.b"].data.tobytes() == model.params["head.b"].value.tobytes()


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a, b = small_model(seed=3), small_model(seed=3)
        for name in a.params.names():
            assert (a.params[name].value == b.params[name].value).all()

    def test_different_seed_differs(self):
        a, b = small_model(seed=3), small_model(seed=4)
        assert not (a.params["seq.w1"].value == b.params["seq.w1"].value).all()


@pytest.fixture(scope="module")
def saved_stage(tiny_split, tmp_path_factory):
    """The checkpoint record of a short stage on ``tiny_split`` and the file ``StageResult.save`` wrote for it."""
    config = tr.TrainConfig(epochs=2, batch_p=2, batch_k=2, eval_every=1, seed=11, embed_dim=8, token_dim=6,
                            mol_hidden=8, seq_hidden=8, max_tokens=40)
    result = tr.run_stage(config, tiny_split)
    out = tmp_path_factory.mktemp("stage")
    result.save(out)
    return result.checkpoint, out / "checkpoint.npz"


def assert_same_checkpoint(got: files.Checkpoint, want: files.Checkpoint) -> None:
    assert got.parameters.keys() == want.parameters.keys()
    for name, value in want.parameters.items():
        assert (got.parameters[name].dtype, got.parameters[name].tobytes()) == (value.dtype, value.tobytes())
    assert (got.centers.dtype, got.centers.tobytes()) == (want.centers.dtype, want.centers.tobytes())
    assert (got.model_config, got.extra_config, got.trainable, got.center_alpha) == \
        (want.model_config, want.extra_config, want.trainable, want.center_alpha)
    assert got.vocabulary.token_to_id == want.vocabulary.token_to_id


class TestCheckpoint:
    def test_any_flipped_byte_loads_or_raises_typed(self, saved_stage, tmp_path):
        # Every byte of the central directory and its end record, where a
        # changed length or name can hide a member, plus 300 drawn offsets.
        written, source = saved_stage
        raw = source.read_bytes()
        assert_same_checkpoint(files.load_checkpoint(source), written)
        with zipfile.ZipFile(source) as archive:
            directory = range(archive.start_dir, len(raw))
        drawn = np.random.default_rng(0).integers(0, len(raw), 300).tolist()
        path = tmp_path / "checkpoint.npz"
        for offset in sorted({*drawn, *directory}):
            flipped = bytearray(raw)
            flipped[offset] ^= 0xFF
            path.write_bytes(bytes(flipped))
            try:
                loaded = files.load_checkpoint(path)
            except files.CheckpointFormatError as err:
                assert str(err).startswith(f"{path}: "), (offset, str(err))
                continue
            assert_same_checkpoint(loaded, written)

    def test_round_trip(self, tmp_path, rng):
        model = small_model(seed=9)
        trainable = {n: not n.startswith("mol.") for n in model.params.names()}
        vocab = build_vocabulary(["CCO", "c1ccccc1"])
        centers = rng.normal(size=(3, 6))
        path = tmp_path / "ckpt.npz"
        files.save_checkpoint(path, bare_checkpoint(model, vocab, extra_config={"stage": "pretrain_drug"},
                                                    trainable=trainable, centers=centers, center_alpha=0.5))
        ckpt = files.load_checkpoint(path)
        assert ckpt.trainable == trainable
        assert ckpt.vocabulary.token_to_id == vocab.token_to_id
        assert ckpt.extra_config == {"stage": "pretrain_drug"}
        assert ckpt.center_alpha == 0.5
        np.testing.assert_array_equal(ckpt.centers, centers)
        rebuilt = ckpt.build_model()
        for name in model.params.names():
            np.testing.assert_array_equal(rebuilt.params[name].value, model.params[name].value)

    def test_format_tag_mismatch_fails_loudly(self, tmp_path):
        model = small_model()
        vocab = build_vocabulary(["CCO"])
        path = tmp_path / "ckpt.npz"
        files.save_checkpoint(path, bare_checkpoint(model, vocab))
        import json

        import numpy as np_

        with np_.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["__meta__"]))
        meta["format"] = "something-else"
        arrays["__meta__"] = np_.array(json.dumps(meta))
        np_.savez(path, **arrays)
        with pytest.raises(files.CheckpointFormatError):
            files.load_checkpoint(path)

    def test_missing_meta_fails_loudly(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        np.savez(path, **{"param/seq.w1": np.zeros((2, 2))})
        with pytest.raises(files.CheckpointFormatError, match="__meta__"):
            files.load_checkpoint(path)

    def test_unknown_model_config_key_fails_loudly(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        files.save_checkpoint(path, bare_checkpoint(small_model(), build_vocabulary(["CCO"])))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["__meta__"]))
        meta["model_config"]["bogus"] = 1
        arrays["__meta__"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)
        with pytest.raises(files.CheckpointFormatError, match="bogus"):
            files.load_checkpoint(path)

    def test_null_model_config_boolean_fails_loudly(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        files.save_checkpoint(path, bare_checkpoint(small_model(), build_vocabulary(["CCO"])))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["__meta__"]))
        meta["model_config"]["include_molecule"] = None
        arrays["__meta__"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)
        with pytest.raises(files.CheckpointFormatError) as err:
            files.load_checkpoint(path)
        assert str(err.value) == f"{path}: model_config: include_molecule: expected a boolean, got None"

    def test_load_parameters_shape_mismatch(self):
        model = small_model()
        with pytest.raises(ShapeMismatch):
            model.load_parameters({"seq.w1": np.zeros((2, 2))})

    def test_load_parameters_prefix_filter(self):
        src = small_model(seed=1)
        dst = small_model(seed=2)
        saved = {n: p.value for n, p in src.params.items()}
        loaded = dst.load_parameters(saved, prefixes=("seq.",))
        assert all(n.startswith("seq.") for n in loaded)
        np.testing.assert_array_equal(dst.params["seq.w1"].value, src.params["seq.w1"].value)
        assert not (dst.params["mol.emb"].value == src.params["mol.emb"].value).all()
