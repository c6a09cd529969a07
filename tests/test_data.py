import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from molseq import data as dp
from molseq import files
from molseq import smiles as sk
from reference import reference_read_lines

# Line boundaries of str.splitlines() other than "\n" and "\r"; the readers
# keep them inside a line.
SPLITLINES_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def ncm_accuracy(train, test, label_attr):
    """Nearest-class-mean on mean-pooled frames; independent sanity check."""
    tr = np.stack([s.frames.mean(axis=0) for s in train])
    te = np.stack([s.frames.mean(axis=0) for s in test])
    tr_lab = np.array([getattr(s, label_attr) for s in train])
    te_lab = np.array([getattr(s, label_attr) for s in test])
    means = np.stack([tr[tr_lab == c].mean(axis=0) for c in np.unique(tr_lab)])
    classes = np.unique(tr_lab)
    pred = classes[((te[:, None, :] - means[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)]
    return (pred == te_lab).mean()


class TestPool:
    def test_pool_size_and_uniqueness(self):
        pool = dp.load_smiles_pool()
        assert len(pool) >= 200
        assert len(set(pool)) == len(pool)

    def test_pool_entries_are_canonical(self):
        pool = dp.load_smiles_pool()
        for s in pool[::7]:
            assert sk.canonical_smiles(s) == s


class TestGenerateSynthetic:
    def test_counts_and_shapes(self):
        spec = dp.SyntheticSpec(num_moas=4, drugs_per_moa=3, samples_per_drug=40, T=16, f=32, seed=7)
        samples = dp.generate_synthetic(spec)
        assert len(samples) == 480
        assert len({s.drug_id for s in samples}) == 12
        assert len({s.moa_label for s in samples}) == 4
        assert all(s.frames.shape == (16, 32) for s in samples)

    def test_deterministic(self, tiny_spec):
        a = dp.generate_synthetic(tiny_spec)
        b = dp.generate_synthetic(tiny_spec)
        assert [s.sample_id for s in a] == [s.sample_id for s in b]
        assert all((x.frames == y.frames).all() and x.smiles == y.smiles for x, y in zip(a, b))

    def test_drug_moa_functional_constraint(self, tiny_samples):
        mapping = {}
        for s in tiny_samples:
            assert mapping.setdefault(s.drug_label, s.moa_label) == s.moa_label
            assert mapping.setdefault(s.drug_id, s.moa_label) == s.moa_label

    def test_distinct_smiles_per_drug(self, tiny_samples):
        by_drug = {}
        for s in tiny_samples:
            by_drug.setdefault(s.drug_id, set()).add(s.smiles)
        assert all(len(v) == 1 for v in by_drug.values())
        assert len({next(iter(v)) for v in by_drug.values()}) == len(by_drug)

    def test_pool_exhausted(self):
        spec = dp.SyntheticSpec(num_moas=300, drugs_per_moa=1, samples_per_drug=1)
        with pytest.raises(dp.PoolExhausted):
            dp.generate_synthetic(spec)

    def test_separable_regime_ncm(self):
        # confounding 0 and separability >= 3 must give an easy drug task
        spec = dp.SyntheticSpec(num_moas=4, drugs_per_moa=3, samples_per_drug=40, seed=3,
                                separability=3.0, confounding=0.0)
        train, test = dp.split_train_test(dp.generate_synthetic(spec), 0.8, seed=3)
        assert ncm_accuracy(train, test, "drug_label") >= 0.95

    def test_zero_separability_is_chance(self):
        spec = dp.SyntheticSpec(num_moas=4, drugs_per_moa=3, samples_per_drug=40, seed=5,
                                separability=0.0, confounding=0.0)
        train, test = dp.split_train_test(dp.generate_synthetic(spec), 0.8, seed=5)
        acc = ncm_accuracy(train, test, "moa_label")
        assert abs(acc - 0.25) <= 0.10

    def test_zero_separability_trained_pipeline_is_chance(self):
        from molseq.train import TrainConfig, run_stage

        spec = dp.SyntheticSpec(num_moas=4, drugs_per_moa=3, samples_per_drug=20, T=4, f=8,
                                seed=5, separability=0.0, confounding=0.0)
        split = dp.prepare_split(dp.generate_synthetic(spec), ratio=0.8, seed=5)
        cfg = TrainConfig(epochs=30, batch_p=4, batch_k=8, stage="finetune_moa",
                          embed_dim=16, token_dim=8, mol_hidden=16, seq_hidden=16,
                          eval_every=30, seed=5, learning_rate=0.01)
        result = run_stage(cfg, split)
        assert abs(result.final["accuracy"] - 0.25) <= 0.10

    def test_many_class_query_split(self):
        # one query per MoA also at a 38-class scale
        spec = dp.SyntheticSpec(num_moas=38, drugs_per_moa=1, samples_per_drug=10, T=2, f=4, seed=2)
        split = dp.prepare_split(dp.generate_synthetic(spec), ratio=0.8, seed=2)
        assert len(split.query) == 38

    def test_validation(self):
        with pytest.raises(ValueError):
            dp.SyntheticSpec(num_moas=0).validate()
        with pytest.raises(ValueError):
            dp.SyntheticSpec(confounding=1.5).validate()

    def test_spec_from_file(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("num_moas=3\ndrugs_per_moa=2\nseparability=1.5\n# comment\n")
        spec = files.read_config(path, dp.SyntheticSpec)
        assert (spec.num_moas, spec.drugs_per_moa, spec.separability) == (3, 2, 1.5)
        path.write_text("bogus=1\n")
        with pytest.raises(ValueError):
            files.read_config(path, dp.SyntheticSpec)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_spec_non_finite_separability_rejected(self, tmp_path, value):
        path = tmp_path / "spec.txt"
        path.write_text(f"separability={value}\n")
        with pytest.raises(ValueError, match="separability must be finite"):
            files.read_config(path, dp.SyntheticSpec)

    def test_spec_bad_value_names_its_key(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("num_moas=3\nT=abc\n")
        with pytest.raises(ValueError, match=r"^T: invalid literal for int\(\)"):
            files.read_config(path, dp.SyntheticSpec)

    @pytest.mark.parametrize("char", SPLITLINES_BREAKS)
    def test_spec_lines_end_at_newline_only(self, tmp_path, char):
        path = tmp_path / "spec.txt"
        path.write_text(f"num_moas=3\n# note{char}T=abc\nT=x\n")
        with pytest.raises(ValueError) as err:
            files.read_config(path, dp.SyntheticSpec)
        assert str(err.value) == f"T: invalid literal for int() with base 10: 'x' ({path} line 3)"

    def test_spec_bytes_that_are_not_utf8_name_file_and_line(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_bytes(b"num_moas=3\rT=\xff\n")
        with pytest.raises(dp.ConfigError) as err:
            files.read_config(path, dp.SyntheticSpec)
        assert str(err.value) == f"byte 0xff is not UTF-8 ({path} line 2)"

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_spec_with_crlf_or_cr_lines_loads(self, tmp_path, newline):
        path = tmp_path / "spec.txt"
        path.write_bytes(newline.join([b"num_moas=3", b"# comment", b"drugs_per_moa=2", b""]))
        spec = files.read_config(path, dp.SyntheticSpec)
        assert (spec.num_moas, spec.drugs_per_moa) == (3, 2)


class TestManifestRoundTrip:
    def test_write_then_load(self, tiny_samples, tmp_path):
        dp.write_dataset(tiny_samples, tmp_path / "ds")
        loaded = dp.load_manifest(tmp_path / "ds")
        assert len(loaded) == len(tiny_samples)
        for orig, back in zip(tiny_samples, loaded):
            assert back.sample_id == orig.sample_id
            assert back.drug_id == orig.drug_id
            assert back.smiles == orig.smiles  # pool entries are already canonical
            assert (back.drug_label, back.moa_label) == (orig.drug_label, orig.moa_label)
            np.testing.assert_array_equal(back.frames, orig.frames)

    @pytest.mark.parametrize("written_before", [False, True])
    def test_failed_manifest_write_leaves_only_whole_files(self, tiny_samples, tmp_path, fail_text_writes,
                                                           written_before):
        # Into a fresh directory, or over the same samples written before.
        root = tmp_path / "ds"
        root.mkdir()
        if written_before:
            dp.write_dataset(tiny_samples, root)
        before = {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()}
        fail_text_writes("manifest")
        with pytest.raises(OSError, match="^disk full$"):
            dp.write_dataset(tiny_samples, root)
        assert {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()} == before
        if written_before:
            loaded = dp.load_manifest(root)
            assert [s.sample_id for s in loaded] == [s.sample_id for s in tiny_samples]
            assert all(np.array_equal(s.frames, t.frames) for s, t in zip(loaded, tiny_samples))

    def test_non_canonical_smiles_get_canonicalized(self, tmp_path):
        root = tmp_path / "ds"
        (root / "frames").mkdir(parents=True)
        dp._write_frames(root / "frames" / "a.bin", np.zeros((2, 3)))
        (root / "manifest.csv").write_text("a,d0,OCC,0,0,frames/a.bin\n")
        sample = dp.load_manifest(root)[0]
        assert sample.smiles == sk.canonical_smiles("CCO")

    def test_each_distinct_smiles_canonicalized_once(self, tiny_samples, tmp_path, monkeypatch):
        dp.write_dataset(tiny_samples, tmp_path / "ds")
        calls = []

        def counting(smiles):
            calls.append(smiles)
            return sk.canonical_smiles(smiles)

        monkeypatch.setattr(dp, "canonical_smiles", counting)
        loaded = dp.load_manifest(tmp_path / "ds")
        distinct = {s.smiles for s in tiny_samples}
        assert len(loaded) > len(distinct)
        assert sorted(calls) == sorted(distinct)
        assert [s.smiles for s in loaded] == [s.smiles for s in tiny_samples]


# Manifest fields: well-formed values, the loader's edge cases, and printable
# junk with the characters that str.splitlines() breaks at but "\n" does not.
JUNK = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters=",",
                             include_characters=SPLITLINES_BREAKS), max_size=8)
LABELS = st.sampled_from(["0", "1", "2", "007", " 3 ", "1_0", "+1", "-1", "1.0", "", "x", "\u0663", "\u00b2",
                          "9223372036854775807", "9223372036854775808", "99999999999999999999"])
SMILES = st.sampled_from(["CCO", "OCC", "c1ccccc1", "[Na+].[Cl-]", "C(C", "C1CC", "Q", ""])
FRAME_PATHS = st.sampled_from(["frames/a.bin", "frames/b.bin", "frames/missing.bin", "", " ", ".", "frames",
                               "frames/a.bin/x", "/dev/null", "x" * 300])


@st.composite
def manifest_lines(draw):
    fields = [draw(st.sampled_from(["a", "b", "c"]) | JUNK), draw(st.sampled_from(["d0", "d1"]) | JUNK),
              draw(SMILES | JUNK), draw(LABELS | JUNK), draw(LABELS | JUNK), draw(FRAME_PATHS | JUNK)]
    count = draw(st.sampled_from([6, 6, 6, 5, 7]))
    return ",".join((fields + ["extra"])[:count])


class TestManifestErrors:
    def _write(self, tmp_path, lines, with_frames=("a", "b")):
        root = tmp_path / "ds"
        (root / "frames").mkdir(parents=True)
        for name in with_frames:
            dp._write_frames(root / "frames" / f"{name}.bin", np.zeros((2, 3)))
        (root / "manifest.csv").write_text("\n".join(lines) + "\n")
        return root

    def test_no_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=f"^no manifest.csv under {re.escape(str(tmp_path))}$"):
            dp.load_manifest(tmp_path)

    def test_schema_error_field_count(self, tmp_path):
        root = self._write(tmp_path, ["a,d0,CCO,0,0"])
        with pytest.raises(dp.SchemaError) as err:
            dp.load_manifest(root)
        assert err.value.line == 1

    def test_schema_error_bad_label(self, tmp_path):
        root = self._write(tmp_path, ["a,d0,CCO,x,0,frames/a.bin"])
        with pytest.raises(dp.SchemaError):
            dp.load_manifest(root)

    def test_inconsistent_drug(self, tmp_path):
        root = self._write(tmp_path, [
            "a,d0,CCO,0,0,frames/a.bin",
            "b,d0,CCO,0,1,frames/b.bin",
        ])
        with pytest.raises(dp.InconsistentDrug):
            dp.load_manifest(root)

    def test_drug_label_to_moa_function(self, tmp_path):
        root = self._write(tmp_path, [
            "a,d0,CCO,0,0,frames/a.bin",
            "b,d1,CCC,0,1,frames/b.bin",
        ])
        with pytest.raises(dp.InconsistentDrug):
            dp.load_manifest(root)

    def test_repeated_sample_id(self, tmp_path):
        root = self._write(tmp_path, [
            "a,d0,CCO,0,0,frames/a.bin",
            "b,d0,CCO,0,0,frames/b.bin",
            "a,d1,CCC,1,1,frames/b.bin",
        ])
        with pytest.raises(dp.SchemaError, match=r"^manifest line 3: sample_id 'a' repeats line 1$") as err:
            dp.load_manifest(root)
        assert err.value.line == 3

    def test_bad_smiles(self, tmp_path):
        root = self._write(tmp_path, ["a,d0,C(C,0,0,frames/a.bin"])
        with pytest.raises(dp.SmilesRecordError) as err:
            dp.load_manifest(root)
        assert err.value.line == 1
        assert isinstance(err.value.cause, sk.UnclosedBranch)

    def test_repeated_bad_smiles_reports_first_line(self, tmp_path):
        root = self._write(tmp_path, [
            "a,d0,CCO,0,0,frames/a.bin",
            "b,d1,C(C,1,0,frames/b.bin",
            "a,d1,C(C,1,0,frames/a.bin",
        ])
        with pytest.raises(dp.SmilesRecordError) as err:
            dp.load_manifest(root)
        assert err.value.line == 2

    def test_missing_feature_file(self, tmp_path):
        root = self._write(tmp_path, ["a,d0,CCO,0,0,frames/missing.bin"])
        with pytest.raises(dp.MissingFeatureFile):
            dp.load_manifest(root)

    def test_truncated_frames(self, tmp_path):
        root = self._write(tmp_path, ["a,d0,CCO,0,0,frames/a.bin"])
        (root / "frames" / "a.bin").write_bytes(b"\x02\x00\x00\x00\x03\x00\x00\x00" + b"\x00" * 8)
        with pytest.raises(dp.SchemaError):
            dp.load_manifest(root)

    def test_zero_frames(self, tmp_path):
        root = self._write(tmp_path, ["a,d0,CCO,0,0,frames/a.bin", "b,d0,CCO,0,0,frames/b.bin"])
        dp._write_frames(root / "frames" / "b.bin", np.zeros((0, 3)))
        with pytest.raises(dp.SchemaError) as err:
            dp.load_manifest(root)
        assert err.value.line == 2

    def test_zero_width_frames(self, tmp_path):
        root = self._write(tmp_path, ["a,d0,CCO,0,0,frames/a.bin"])
        dp._write_frames(root / "frames" / "a.bin", np.zeros((2, 0)))
        with pytest.raises(dp.SchemaError) as err:
            dp.load_manifest(root)
        assert err.value.line == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_value(self, tmp_path, value):
        root = self._write(tmp_path, ["a,d0,CCO,0,0,frames/a.bin", "b,d0,CCO,0,0,frames/b.bin"])
        frames = np.zeros((2, 3))
        frames[1, 2] = value
        dp._write_frames(root / "frames" / "b.bin", frames)
        with pytest.raises(dp.SchemaError) as err:
            dp.load_manifest(root)
        assert err.value.line == 2

    def test_frame_width_differs_from_earlier_rows(self, tmp_path):
        root = self._write(tmp_path, ["a,d0,CCO,0,0,frames/a.bin", "", "b,d0,CCO,0,0,frames/b.bin"])
        dp._write_frames(root / "frames" / "b.bin", np.zeros((2, 4)))
        with pytest.raises(dp.SchemaError) as err:
            dp.load_manifest(root)
        assert err.value.line == 3

    def test_payload_not_whole_float64s(self, tmp_path):
        root = self._write(tmp_path, ["a,d0,CCO,0,0,frames/a.bin", "b,d0,CCO,0,0,frames/b.bin"])
        path = root / "frames" / "b.bin"
        path.write_bytes(np.array([1, 2], dtype="<u4").tobytes() + bytes(13))
        with pytest.raises(dp.SchemaError) as err:
            dp.load_manifest(root)
        assert err.value.line == 2
        assert f"{path}: payload of 13 bytes" in str(err.value)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_frame_bytes_load_or_raise_typed(self, tmp_path_factory, data):
        # Header (T, f) small or huge; a payload of T*f values or not, NaN and
        # Inf included; then bytes cut off the end or zero bytes added.
        dim = st.integers(0, 4) | st.sampled_from([2**16, 2**31, 2**32 - 1])
        t, f = data.draw(dim), data.draw(dim)
        count = data.draw(st.just(min(t * f, 20)) | st.integers(0, 20))
        elements = st.floats(-1e6, 1e6) | st.floats(width=64)
        raw = np.array([t, f], dtype="<u4").tobytes() + data.draw(hnp.arrays("<f8", count, elements=elements)).tobytes()
        resize = data.draw(st.just(0) | st.integers(-len(raw), 7))
        raw = raw[:len(raw) + resize] if resize < 0 else raw + bytes(resize)
        root = self._write(tmp_path_factory.mktemp("fuzz"), ["a,d0,CCO,0,0,frames/a.bin"])
        (root / "frames" / "a.bin").write_bytes(raw)
        try:
            samples = dp.load_manifest(root)
        except (dp.SchemaError, dp.MissingFeatureFile, dp.SmilesRecordError, dp.InconsistentDrug):
            return
        assert samples[0].frames.shape == (t, f)
        assert samples[0].frames.tobytes() == raw[8:]
        assert np.isfinite(samples[0].frames).all()

    @given(st.lists(manifest_lines(), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_any_lines_load_or_raise_typed_naming_the_line(self, tmp_path_factory, lines):
        root = self._write(tmp_path_factory.mktemp("lines"), lines)
        try:
            samples = dp.load_manifest(root)
        except (dp.SchemaError, dp.MissingFeatureFile, dp.SmilesRecordError, dp.InconsistentDrug) as err:
            assert 1 <= err.line <= len(lines)
            assert f"manifest line {err.line}: " in str(err)
            return
        rows = [line.split(",") for line in lines]
        assert len(samples) == len(rows)
        for sample, row in zip(samples, rows):
            assert (sample.drug_label, sample.moa_label) == (int(row[3]), int(row[4]))
            assert row[3].strip().isdigit() and row[4].strip().isdigit()
        assert dp.labels_of(samples, "drug").tolist() == [s.drug_label for s in samples]

    @pytest.mark.parametrize("line, detail", [
        ("a,d0,CCO,0,0,", "does not name a regular file"),
        ("a,d0,CCO,0,0,frames", "does not name a regular file"),
        ("a,d0,CCO,1_0,0,frames/a.bin", "decimal digits"),
        ("a,d0,CCO,0,+1,frames/a.bin", "decimal digits"),
        ("a,d0,CCO,99999999999999999999,0,frames/a.bin", "fit in int64"),
    ])
    def test_bad_field_is_a_schema_error_naming_the_line(self, tmp_path, line, detail):
        root = self._write(tmp_path, ["b,d1,CCC,1,1,frames/b.bin", line])
        with pytest.raises(dp.SchemaError, match=r"^manifest line 2: ") as err:
            dp.load_manifest(root)
        assert err.value.line == 2 and detail in str(err.value)

    @pytest.mark.parametrize("char", SPLITLINES_BREAKS)
    def test_lines_end_at_newline_only(self, tmp_path, char):
        lines = ["a,d0,CCO,0,0,frames/a.bin", f"b,d{char}1,CCC,1,1,frames/b.bin"]
        samples = dp.load_manifest(self._write(tmp_path, lines))
        assert [s.drug_id for s in samples] == ["d0", f"d{char}1"]
        root = self._write(tmp_path / "more", lines + ["c,d2,CCN,2,2"])
        with pytest.raises(dp.SchemaError, match=r"^manifest line 3: expected 6 fields, found 5$"):
            dp.load_manifest(root)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_or_cr_manifest_loads(self, tmp_path, newline):
        lines = ["a,d0,CCO,0,0,frames/a.bin", "", "b,d1,CCC,1,1,frames/b.bin"]
        expected = dp.load_manifest(self._write(tmp_path, lines))
        root = self._write(tmp_path / "other", lines)
        (root / "manifest.csv").write_bytes((newline.join(lines) + newline).encode())
        samples = dp.load_manifest(root)
        assert [(s.sample_id, s.drug_id, s.smiles, s.drug_label, s.moa_label) for s in samples] == \
            [(s.sample_id, s.drug_id, s.smiles, s.drug_label, s.moa_label) for s in expected]
        assert all(np.array_equal(s.frames, e.frames) for s, e in zip(samples, expected))

    def test_bytes_that_are_not_utf8_name_file_and_line(self, tmp_path):
        root = self._write(tmp_path, [])
        (root / "manifest.csv").write_bytes(b"a,d0,CCO,0,0,frames/a.bin\r\nb,d\xc31,CCC,1,1,frames/b.bin\n")
        with pytest.raises(dp.SchemaError) as err:
            dp.load_manifest(root)
        assert err.value.line == 2
        assert str(err.value) == f"manifest line 2: {root / 'manifest.csv'}: byte 0xc3 is not UTF-8"

    def test_largest_int64_label_loads(self, tmp_path):
        root = self._write(tmp_path, ["a,d0,CCO,9223372036854775807,0,frames/a.bin"])
        samples = dp.load_manifest(root)
        assert dp.labels_of(samples, "drug").tolist() == [np.iinfo(np.int64).max]

    def test_missing_file_and_inconsistent_drug_name_the_line(self, tmp_path):
        root = self._write(tmp_path, ["a,d0,CCO,0,0,frames/a.bin", "b,d1,CCC,0,1,frames/b.bin"])
        with pytest.raises(dp.InconsistentDrug, match=r"^manifest line 2: drug 'd1'"):
            dp.load_manifest(root)
        root = self._write(tmp_path / "more", ["a,d0,CCO,0,0,frames/a.bin", "b,d0,CCO,0,0,frames/none.bin"])
        with pytest.raises(dp.MissingFeatureFile, match=r"^manifest line 2: frame feature file not found: ") as err:
            dp.load_manifest(root)
        assert err.value.line == 2


class TestSplitTrainTest:
    def test_single_drug_ratio(self):
        spec = dp.SyntheticSpec(num_moas=1, drugs_per_moa=1, samples_per_drug=40, T=2, f=3, seed=0)
        train, test = dp.split_train_test(dp.generate_synthetic(spec), 0.8, seed=0)
        assert (len(train), len(test)) == (32, 8)

    def test_deterministic(self, tiny_samples):
        a = dp.split_train_test(tiny_samples, 0.8, seed=4)
        b = dp.split_train_test(tiny_samples, 0.8, seed=4)
        assert [s.sample_id for s in a[0]] == [s.sample_id for s in b[0]]

    def test_per_drug_proportions(self):
        spec = dp.SyntheticSpec(num_moas=4, drugs_per_moa=3, samples_per_drug=40, T=2, f=3, seed=1)
        samples = dp.generate_synthetic(spec)
        train, test = dp.split_train_test(samples, 0.8, seed=1)
        for drug in {s.drug_id for s in samples}:
            n_train = sum(s.drug_id == drug for s in train)
            assert abs(n_train - 32) <= 1

    def test_partition(self, tiny_samples):
        train, test = dp.split_train_test(tiny_samples, 0.8, seed=2)
        train_ids = {s.sample_id for s in train}
        test_ids = {s.sample_id for s in test}
        assert not (train_ids & test_ids)
        assert train_ids | test_ids == {s.sample_id for s in tiny_samples}

    def test_drug_disjoint_mode(self, tiny_samples):
        train, test = dp.split_train_test(tiny_samples, 0.5, seed=2, drug_disjoint=True)
        assert not ({s.drug_id for s in train} & {s.drug_id for s in test})

    # Train and test drugs of a 6-drug, 2-sample-per-drug set at ratio 0.5, as drawn since the
    # split was written; each drug's samples s000 and s001 go with it.
    DISJOINT_DRAWS = {0: ((0, 2, 5), (1, 3, 4)), 1: ((1, 4, 5), (0, 2, 3)), 2: ((1, 2, 4), (0, 3, 5))}

    @pytest.mark.parametrize("seed", sorted(DISJOINT_DRAWS))
    def test_drug_disjoint_draws_pinned(self, seed):
        spec = dp.SyntheticSpec(num_moas=3, drugs_per_moa=2, samples_per_drug=2, T=1, f=2, seed=0)
        train, test = dp.split_train_test(dp.generate_synthetic(spec), 0.5, seed=seed, drug_disjoint=True)
        for got, drugs in zip((train, test), self.DISJOINT_DRAWS[seed]):
            assert [s.sample_id for s in got] == [f"drug{d:03d}_s{k:03d}" for d in drugs for k in range(2)]

    def test_empty_input(self):
        with pytest.raises(dp.EmptyInput):
            dp.split_train_test([], 0.8, seed=0)

    def test_ratio_validation(self, tiny_samples):
        with pytest.raises(ValueError):
            dp.split_train_test(tiny_samples, 1.0, seed=0)


class TestQueryGallery:
    def test_one_query_per_moa(self, tiny_split):
        moas = dp.labels_of(tiny_split.test, "moa")
        assert len(tiny_split.query) == len(set(moas.tolist()))
        assert set(moas[tiny_split.query].tolist()) == set(moas.tolist())

    def test_partition(self, tiny_split):
        # Queries are distinct ascending test positions; the gallery is every other position.
        query = tiny_split.query
        positions = np.arange(len(tiny_split.test))
        gallery = positions[~np.isin(positions, query)]
        assert (np.diff(query) > 0).all() and np.isin(query, positions).all()
        assert not np.intersect1d(query, gallery).size
        assert np.array_equal(np.union1d(query, gallery), positions)

    def test_drug_kind(self, tiny_split):
        query = dp.split_query_gallery(tiny_split.test, seed=0, label_kind="drug")
        drugs = dp.labels_of(tiny_split.test, "drug")
        assert len(query) == len(set(drugs.tolist()))
        assert set(drugs[query].tolist()) == set(drugs.tolist())

    def test_singleton_class(self, tiny_samples):
        lone = [s for s in tiny_samples if s.moa_label == 0][:1]
        rest = [s for s in tiny_samples if s.moa_label == 1][:4]
        with pytest.raises(dp.SingletonMoA):
            dp.split_query_gallery(lone + rest, seed=0)

    def test_empty_test_set(self):
        with pytest.raises(dp.EmptyInput, match="^empty test set$"):
            dp.split_query_gallery([])

    def test_deterministic(self, tiny_split):
        a = dp.split_query_gallery(tiny_split.test, seed=6)
        b = dp.split_query_gallery(tiny_split.test, seed=6)
        assert np.array_equal(a, b)

    # Query sample ids drawn from the tiny split's test set since the split was written.
    QUERY_DRAWS = {
        ("drug", 0): ["drug000_s006", "drug001_s001", "drug002_s009", "drug003_s003"],
        ("drug", 1): ["drug000_s001", "drug001_s001", "drug002_s008", "drug003_s004"],
        ("drug", 2): ["drug000_s006", "drug001_s001", "drug002_s009", "drug003_s003"],
        ("moa", 0): ["drug001_s000", "drug003_s003"],
        ("moa", 1): ["drug000_s006", "drug003_s004"],
        ("moa", 2): ["drug001_s001", "drug003_s004"],
    }

    @pytest.mark.parametrize("kind, seed", sorted(QUERY_DRAWS))
    def test_query_draws_pinned(self, tiny_split, kind, seed):
        query = dp.split_query_gallery(tiny_split.test, seed=seed, label_kind=kind)
        assert [tiny_split.test[i].sample_id for i in query] == self.QUERY_DRAWS[kind, seed]


class TestLabelsOf:
    def test_drug_and_moa(self, tiny_split):
        for kind, attr in (("drug", "drug_label"), ("moa", "moa_label")):
            labels = dp.labels_of(tiny_split.test, kind)
            assert labels.dtype == np.int64
            assert labels.tolist() == [getattr(s, attr) for s in tiny_split.test]

    def test_unknown_kind(self, tiny_split):
        with pytest.raises(ValueError, match="label_kind"):
            dp.labels_of(tiny_split.test, "target")


class TestLineReaders:
    # Line ends, a two-byte character, a cut one, a byte that is never UTF-8 and U+2028.
    @given(st.lists(st.sampled_from([b"C", b"O", b"\n", b"\r", b"\r\n", b"\xc3\xa9", b"\xc3", b"\xff",
                                     b"\xe2\x80\xa8"]), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_stream_reads_what_the_file_reader_reads(self, tmp_path_factory, pieces):
        raw = b"".join(pieces)
        path = tmp_path_factory.mktemp("lines") / "in.txt"
        path.write_bytes(raw)
        try:
            expected = files.read_lines(path)
        except dp.ConfigError as exc:
            with pytest.raises(dp.ConfigError, match=f"^{re.escape(str(exc))}$"):
                list(files.iter_lines(io.BytesIO(raw), str(path)))
        else:
            assert list(files.iter_lines(io.BytesIO(raw), str(path))) == expected

    # "a", the two bytes of "\u00e9" (whole, cut or swapped), both line ends and a byte that is never UTF-8.
    @given(st.lists(st.sampled_from([b"a", b"\xc3", b"\xa9", b"\r", b"\n", b"\xff"]), max_size=16),
           st.sampled_from([None, dp.SchemaError]))
    @settings(max_examples=300, deadline=None)
    def test_one_reader_reads_what_the_reference_reads(self, tmp_path_factory, pieces, error):
        raw = b"".join(pieces)
        path = tmp_path_factory.mktemp("lines") / "in.txt"
        path.write_bytes(raw)

        def outcome(read):
            try:
                return read()
            except ValueError as exc:
                return type(exc), str(exc), getattr(exc, "line", None)

        expected = outcome(lambda: reference_read_lines(raw, path, error))
        assert outcome(lambda: files.read_lines(path, error)) == expected
        assert outcome(lambda: list(files.iter_lines(io.BytesIO(raw), path, error))) == expected


class TestPkSampling:
    @staticmethod
    def pk_batch(samples, p, k, label_kind, seed, step):
        groups = dp.pk_groups(dp.labels_of(samples, label_kind))
        return [samples[i] for i in dp.pk_sample_indices(dp.pk_classes(groups, p, k), p, k, seed, step)]

    def test_shape_and_composition(self, tiny_split):
        batch = self.pk_batch(tiny_split.train, 2, 3, "drug", seed=0, step=0)
        assert len(batch) == 6
        counts = {}
        for s in batch:
            counts[s.drug_label] = counts.get(s.drug_label, 0) + 1
        assert sorted(counts.values()) == [3, 3] and len(counts) == 2

    @staticmethod
    def drug_groups(samples):
        return dp.pk_groups([s.drug_label for s in samples])

    def test_deterministic_in_seed_and_step(self, tiny_split):
        groups = self.drug_groups(tiny_split.train)
        classes = dp.pk_classes(groups, 2, 3)
        a = dp.pk_sample_indices(classes, 2, 3, seed=1, step=5)
        b = dp.pk_sample_indices(classes, 2, 3, seed=1, step=5)
        c = dp.pk_sample_indices(classes, 2, 3, seed=1, step=6)
        assert (a == b).all()
        assert not (a == c).all()

    @staticmethod
    def loop_pk_sample_indices(train, p, k, label_kind, seed, step):
        """Reference: class groups rebuilt from the sample list on every call."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, 17, step]))
        groups = {}
        for i, s in enumerate(train):
            groups.setdefault(s.drug_label if label_kind == "drug" else s.moa_label, []).append(i)
        eligible = sorted(label for label, members in groups.items() if len(members) >= k)
        chosen = rng.choice(np.array(eligible), size=p, replace=False)
        return np.concatenate([rng.choice(np.array(groups[int(c)]), size=k, replace=False) for c in chosen])

    @pytest.mark.parametrize("p,k,label_kind", [(2, 3, "drug"), (4, 2, "drug"), (2, 5, "moa")])
    def test_same_draws_as_per_sample_grouping(self, tiny_split, p, k, label_kind):
        labels = [s.drug_label if label_kind == "drug" else s.moa_label for s in tiny_split.train]
        groups = dp.pk_groups(labels)
        for seed, step in [(0, 0), (1, 5), (7, 123), (3, 10_000)]:
            expected = self.loop_pk_sample_indices(tiny_split.train, p, k, label_kind, seed, step)
            assert dp.pk_sample_indices(dp.pk_classes(groups, p, k), p, k, seed, step).tolist() == expected.tolist()

    def test_groups_keyed_by_sorted_label_with_ascending_positions(self):
        groups = dp.pk_groups([2, 0, 2, 1, 0])
        assert list(groups) == [0, 1, 2]
        assert [members.tolist() for members in groups.values()] == [[1, 4], [3], [0, 2]]

    def test_no_replacement_within_batch(self, tiny_split):
        idx = dp.pk_sample_indices(dp.pk_classes(self.drug_groups(tiny_split.train), 4, 4), 4, 4, seed=2, step=3)
        assert len(set(idx.tolist())) == len(idx)

    def test_triplet_preconditions_hold(self, tiny_split):
        for step in range(20):
            batch = self.pk_batch(tiny_split.train, 2, 2, "moa", seed=3, step=step)
            labels = [s.moa_label for s in batch]
            for lab in labels:
                assert labels.count(lab) >= 2
                assert len(labels) - labels.count(lab) >= 1

    def test_insufficient_classes(self, tiny_split):
        with pytest.raises(dp.InsufficientClasses):
            self.pk_batch(tiny_split.train, 99, 2, "drug", seed=0, step=0)

    def test_groups_need_1d_labels(self):
        with pytest.raises(ValueError, match="^labels must be a 1-D sequence$"):
            dp.pk_groups(np.zeros((2, 2), dtype=int))

    @pytest.mark.parametrize("p, k", [(0, 2), (2, 0)])
    def test_classes_need_p_and_k_of_1(self, tiny_split, p, k):
        with pytest.raises(ValueError, match="^P and K must be >= 1$"):
            dp.pk_classes(self.drug_groups(tiny_split.train), p, k)

    def test_full_scale_batch(self):
        spec = dp.SyntheticSpec(num_moas=8, drugs_per_moa=4, samples_per_drug=8, T=2, f=3, seed=9)
        samples = dp.generate_synthetic(spec)
        batch = self.pk_batch(samples, 16, 4, "drug", seed=0, step=0)
        assert len(batch) == 64


class TestChoosePk:
    @pytest.mark.parametrize("batch,classes,expected", [
        (64, 12, (8, 8)),
        (64, 4, (4, 16)),
        (64, 100, (16, 4)),
        (4, 2, (2, 2)),
    ])
    def test_cases(self, batch, classes, expected):
        assert dp.choose_pk(batch, classes) == expected

    def test_batch_too_small(self):
        with pytest.raises(ValueError, match="^cannot fit a PK batch of 1 with 5 classes$"):
            dp.choose_pk(1, 5)
