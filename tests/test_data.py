import numpy as np
import pytest

from molseq import data as dp
from molseq import smiles as sk


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
        spec = dp.SyntheticSpec.from_file(path)
        assert (spec.num_moas, spec.drugs_per_moa, spec.separability) == (3, 2, 1.5)
        path.write_text("bogus=1\n")
        with pytest.raises(ValueError):
            dp.SyntheticSpec.from_file(path)


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

    def test_non_canonical_smiles_get_canonicalized(self, tmp_path):
        root = tmp_path / "ds"
        (root / "frames").mkdir(parents=True)
        dp._write_frames(root / "frames" / "a.bin", np.zeros((2, 3)))
        (root / "manifest.csv").write_text("a,d0,OCC,0,0,frames/a.bin\n")
        sample = dp.load_manifest(root)[0]
        assert sample.smiles == sk.canonical_smiles("CCO")


class TestManifestErrors:
    def _write(self, tmp_path, lines, with_frames=("a", "b")):
        root = tmp_path / "ds"
        (root / "frames").mkdir(parents=True)
        for name in with_frames:
            dp._write_frames(root / "frames" / f"{name}.bin", np.zeros((2, 3)))
        (root / "manifest.csv").write_text("\n".join(lines) + "\n")
        return root

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

    def test_bad_smiles(self, tmp_path):
        root = self._write(tmp_path, ["a,d0,C(C,0,0,frames/a.bin"])
        with pytest.raises(dp.SmilesRecordError) as err:
            dp.load_manifest(root)
        assert err.value.line == 1
        assert isinstance(err.value.cause, sk.UnclosedBranch)

    def test_missing_feature_file(self, tmp_path):
        root = self._write(tmp_path, ["a,d0,CCO,0,0,frames/missing.bin"])
        with pytest.raises(dp.MissingFeatureFile):
            dp.load_manifest(root)

    def test_truncated_frames(self, tmp_path):
        root = self._write(tmp_path, ["a,d0,CCO,0,0,frames/a.bin"])
        (root / "frames" / "a.bin").write_bytes(b"\x02\x00\x00\x00\x03\x00\x00\x00" + b"\x00" * 8)
        with pytest.raises(dp.SchemaError):
            dp.load_manifest(root)


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

    def test_empty_input(self):
        with pytest.raises(dp.EmptyInput):
            dp.split_train_test([], 0.8, seed=0)

    def test_ratio_validation(self, tiny_samples):
        with pytest.raises(ValueError):
            dp.split_train_test(tiny_samples, 1.0, seed=0)


class TestQueryGallery:
    def test_one_query_per_moa(self, tiny_split):
        moas = {s.moa_label for s in tiny_split.test}
        assert len(tiny_split.query) == len(moas)
        assert {s.moa_label for s in tiny_split.query} == moas

    def test_partition(self, tiny_split):
        q = {s.sample_id for s in tiny_split.query}
        g = {s.sample_id for s in tiny_split.gallery}
        assert not (q & g)
        assert q | g == {s.sample_id for s in tiny_split.test}

    def test_drug_kind(self, tiny_split):
        query, gallery = dp.split_query_gallery(tiny_split.test, seed=0, label_kind="drug")
        assert len(query) == len({s.drug_label for s in tiny_split.test})

    def test_singleton_class(self, tiny_samples):
        lone = [s for s in tiny_samples if s.moa_label == 0][:1]
        rest = [s for s in tiny_samples if s.moa_label == 1][:4]
        with pytest.raises(dp.SingletonMoA):
            dp.split_query_gallery(lone + rest, seed=0)

    def test_deterministic(self, tiny_split):
        a = dp.split_query_gallery(tiny_split.test, seed=6)
        b = dp.split_query_gallery(tiny_split.test, seed=6)
        assert [s.sample_id for s in a[0]] == [s.sample_id for s in b[0]]


class TestPkSampling:
    def test_shape_and_composition(self, tiny_split):
        batch = dp.pk_sample(tiny_split.train, 2, 3, "drug", seed=0, step=0)
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
        a = dp.pk_sample_indices(groups, 2, 3, seed=1, step=5)
        b = dp.pk_sample_indices(groups, 2, 3, seed=1, step=5)
        c = dp.pk_sample_indices(groups, 2, 3, seed=1, step=6)
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
            assert dp.pk_sample_indices(groups, p, k, seed, step).tolist() == expected.tolist()

    def test_groups_keyed_by_sorted_label_with_ascending_positions(self):
        groups = dp.pk_groups([2, 0, 2, 1, 0])
        assert list(groups) == [0, 1, 2]
        assert [members.tolist() for members in groups.values()] == [[1, 4], [3], [0, 2]]

    def test_no_replacement_within_batch(self, tiny_split):
        idx = dp.pk_sample_indices(self.drug_groups(tiny_split.train), 4, 4, seed=2, step=3)
        assert len(set(idx.tolist())) == len(idx)

    def test_triplet_preconditions_hold(self, tiny_split):
        for step in range(20):
            batch = dp.pk_sample(tiny_split.train, 2, 2, "moa", seed=3, step=step)
            labels = [s.moa_label for s in batch]
            for lab in labels:
                assert labels.count(lab) >= 2
                assert len(labels) - labels.count(lab) >= 1

    def test_insufficient_classes(self, tiny_split):
        with pytest.raises(dp.InsufficientClasses):
            dp.pk_sample(tiny_split.train, 99, 2, "drug", seed=0, step=0)

    def test_full_scale_batch(self):
        spec = dp.SyntheticSpec(num_moas=8, drugs_per_moa=4, samples_per_drug=8, T=2, f=3, seed=9)
        samples = dp.generate_synthetic(spec)
        batch = dp.pk_sample(samples, 16, 4, "drug", seed=0, step=0)
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
