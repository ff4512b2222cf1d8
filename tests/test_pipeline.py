"""Two-phase composition: specs, transform, training, serialization."""

import dataclasses
import json
import os
import re
import shutil
import warnings

import numpy as np
import pytest

import deeplda.pipeline
from conftest import make_gaussians, traced_peak, write_clinical_csv
from deeplda import (
    DataError,
    DataSchema,
    Dataset,
    Network,
    NumericalError,
    ShapeError,
    Standardizer,
    TrainConfig,
    TwoPhaseModel,
    apply_standardizer,
    build_phase1_spec,
    build_phase2_spec,
    clean,
    confusion,
    dense,
    fit,
    fit_standardizer,
    init_network,
    layer_param_counts,
    load_csv,
    load_schema,
    load_two_phase,
    param_count,
    predict,
    predict_two_phase,
    save_network,
    save_two_phase,
    train_two_phase,
)
from deeplda.data import _medians, read_blocks
from deeplda.network import ROWS, NetworkSpec
from deeplda.pipeline import PREPROCESSING, TWO_PHASE_FORMAT, evaluate_two_phase, replacing
from deeplda.rng import SplitMix64

FAST = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=64)


def _identity(width):
    """The identity preprocessing of ``width`` features, as TwoPhaseModel's keywords."""
    return dict(standardizer=Standardizer(np.zeros(width), np.ones(width), np.zeros(width),
                                          tuple(f"f{i}" for i in range(width))))


def _model(input_dim=5, seed=0):
    """A model with the identity preprocessing."""
    p1 = init_network(build_phase1_spec(input_dim), SplitMix64(seed))
    p2 = init_network(build_phase2_spec(), SplitMix64(seed + 1))
    return TwoPhaseModel(phase1=p1, phase2=p2, **_identity(input_dim))


def _fitted(train):
    """A training set's standardizer, with its medians, as load_split fits it."""
    return fit_standardizer(train, _medians(train.x, train.feature_names))


class TestSpecs:
    def test_default_phase1_parameters(self):
        spec = build_phase1_spec()
        assert spec.input_dim == 41
        assert layer_param_counts(spec) == [43008, 1049600, 1049600, 1025]
        assert param_count(spec) == 2_143_233

    def test_narrow_phase1_first_layer(self):
        assert layer_param_counts(build_phase1_spec(1))[0] == 2048

    def test_phase2_parameters(self):
        spec = build_phase2_spec()
        assert layer_param_counts(spec) == [200, 0, 101]
        assert param_count(spec) == 301

    def test_phase1_l2_on_hidden_kernels_only(self):
        spec = build_phase1_spec(41, l2_lambda=0.02)
        lambdas = [l.l2_lambda for l in spec.layers]
        assert lambdas == [0.02, 0.02, 0.02, 0.0]

    def test_phase2_has_no_l2(self):
        assert all(l.l2_lambda == 0.0 for l in build_phase2_spec().layers)

    def test_model_shape_contracts(self):
        wide_out = init_network(
            NetworkSpec(3, (dense(4, "sigmoid"), dense(1, "sigmoid"))), SplitMix64(0)
        )
        with pytest.raises(ShapeError):
            TwoPhaseModel(
                phase1=wide_out,
                phase2=init_network(
                    NetworkSpec(2, (dense(1, "sigmoid"),)), SplitMix64(1)
                ),
                **_identity(3),
            )

    def test_mismatched_preprocessing_is_refused_before_anything_is_written(self, tmp_path):
        # Two feature names, a three-feature standardizer and five medians
        # once made a model that saved but did not load; now a standardizer for
        # another width than phase 1's is the one mismatch left.
        with pytest.raises(ShapeError, match="phase 1's 2 inputs need 2 feature names, got 3"):
            save_two_phase(TwoPhaseModel(phase1=init_network(build_phase1_spec(2), SplitMix64(0)),
                                         phase2=_model().phase2, **_identity(3)),
                           tmp_path / "model")
        assert list(tmp_path.iterdir()) == []

    def test_a_model_is_frozen(self):
        model = _model()
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.standardizer = _identity(5)["standardizer"]


class TestTransform:
    """Phase 1's infer-mode probabilities, the (n, 1) input phase 2 takes."""

    def test_output_width_one_and_in_unit_interval(self):
        model = _model()
        x = np.random.default_rng(0).normal(size=(17, 5))
        z = predict(model.phase1, x)[0]
        assert z.shape == (17, 1)
        assert np.all((z > 0.0) & (z < 1.0))

    def test_zero_weight_phase1_gives_constant_half(self):
        spec = build_phase1_spec(3)
        shapes = spec.dense_shapes()
        net = Network(spec, [np.zeros(s) for s in shapes],
                      [np.zeros((1, s[1])) for s in shapes])
        model = TwoPhaseModel(phase1=net, phase2=_model().phase2, **_identity(3))
        z = predict(model.phase1, np.random.default_rng(1).normal(size=(4, 3)))[0]
        assert np.all(z == 0.5)


class TestTrainTwoPhase:
    def _sets(self, seed=0):
        train = make_gaussians(30, 5, 3.0, seed=seed)
        val = make_gaussians(10, 5, 3.0, seed=seed + 50)
        return train, val

    def test_history_lengths_follow_configs(self):
        train, val = self._sets()
        cfg2 = TrainConfig(learning_rate=1e-3, epochs=5, batch_size=64)
        _, h1, h2 = train_two_phase(train, val, FAST, cfg2, SplitMix64(0), _fitted(train))
        assert len(h1.records) == FAST.epochs
        assert len(h2.records) == 5

    def test_same_seed_identical_history_pair(self):
        train, val = self._sets(seed=1)

        def run():
            _, h1, h2 = train_two_phase(train, val, FAST, FAST, SplitMix64(21), _fitted(train))
            return ([(r.loss, r.val_loss) for r in h1.records],
                    [(r.loss, r.val_loss) for r in h2.records])

        assert run() == run()

    def test_phase2_history_measured_on_transformed_validation(self):
        train, val = self._sets(seed=2)
        model, _, h2 = train_two_phase(train, val, FAST, FAST, SplitMix64(5), _fitted(train))
        z_val = predict(model.phase1, val.x)[0]
        probs, _ = predict(model.phase2, z_val, model.config2.threshold)
        acc = float(np.mean((probs[:, 0] >= 0.5) == (val.y >= 0.5)))
        assert abs(h2.records[-1].val_accuracy - acc) < 1e-12

    def test_histories_keep_the_final_validation_probabilities(self):
        train, val = self._sets(seed=3)
        model, h1, h2 = train_two_phase(train, val, FAST, FAST, SplitMix64(6), _fitted(train))
        assert np.array_equal(h1.val_probs, predict(model.phase1, val.x)[0])
        assert np.array_equal(h2.val_probs, predict_two_phase(model, val.x)[0])

    def test_phase1_is_returned_without_adam_moments(self, tmp_path):
        # As load_two_phase gives it back; phase 2 keeps its moments.
        train, val = self._sets(seed=5)
        model, h1, h2 = train_two_phase(train, val, FAST, FAST, SplitMix64(7), _fitted(train))
        assert model.phase1.moments is None and model.phase2.moments is not None
        save_two_phase(model, tmp_path / "m")
        back = load_two_phase(tmp_path / "m")
        assert back.phase1.moments is None
        assert np.array_equal(predict_two_phase(back, val.x)[0], h2.val_probs)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_names_phase_epoch_and_batch(self):
        train, val = self._sets(seed=4)
        wild = TrainConfig(learning_rate=1e300, epochs=2, batch_size=16)
        with pytest.raises(NumericalError, match=r"phase 1: .*epoch 1, batch 2"):
            train_two_phase(train, val, wild, FAST, SplitMix64(0), _fitted(train))

    def test_feature_width_mismatch_rejected(self):
        train, _ = self._sets()
        bad_val = make_gaussians(5, 4, 1.0, seed=9)
        with pytest.raises(ShapeError):
            train_two_phase(train, bad_val, FAST, FAST, SplitMix64(0), _fitted(train))

    @pytest.mark.parametrize("standardizer", [
        _identity(4)["standardizer"],
        Standardizer(np.zeros(5), np.ones(5), np.zeros(5)),  # without names
    ], ids=["standardizer-narrow", "standardizer-unnamed"])
    def test_preprocessing_the_model_refuses_costs_no_training(self, monkeypatch, standardizer):
        # train_two_phase refuses it before phase 1 is made, by the model's own rule.
        train, val = self._sets()
        with pytest.raises(ValueError) as built:
            dataclasses.replace(_model(), standardizer=standardizer)
        made = []
        monkeypatch.setattr(deeplda.pipeline, "init_network", lambda *args: made.append(args))
        with pytest.raises(type(built.value), match=re.escape(str(built.value))):
            train_two_phase(train, val, FAST, FAST, SplitMix64(0), standardizer)
        assert made == []

    def test_phase1_untouched_by_phase2_retraining(self, tmp_path):
        train, val = self._sets(seed=3)
        model, _, _ = train_two_phase(train, val, FAST, FAST, SplitMix64(8), _fitted(train))
        before = tmp_path / "before.npz"
        save_network(model.phase1, before)
        z_train = predict(model.phase1, train.x)[0]
        z_val = predict(model.phase1, val.x)[0]
        retrain = init_network(build_phase2_spec(), SplitMix64(999))
        fit(retrain,
            Dataset(x=z_train, y=train.y, feature_names=("p",)),
            Dataset(x=z_val, y=val.y, feature_names=("p",)),
            FAST, SplitMix64(999))
        after = tmp_path / "after.npz"
        save_network(model.phase1, after)
        assert before.read_bytes() == after.read_bytes()


class TestPredictTwoPhase:
    def test_composition_equality(self):
        model = _model(seed=6)
        x = np.random.default_rng(3).normal(size=(11, 5))
        probs, labels = predict_two_phase(model, x, 0.5)
        ref_probs, ref_labels = predict(model.phase2, predict(model.phase1, x)[0], 0.5)
        assert np.array_equal(probs, ref_probs)
        assert np.array_equal(labels, ref_labels)

    def test_label_count_matches_rows(self):
        model = _model(seed=7)
        x = np.random.default_rng(4).normal(size=(23, 5))
        probs, labels = predict_two_phase(model, x)
        assert probs.shape == (23, 1)
        assert labels.shape == (23,)

    def test_equal_phase1_outputs_imply_equal_final_predictions(self):
        # the head sees only the scalar, so duplicated rows must agree
        model = _model(seed=8)
        row = np.random.default_rng(5).normal(size=(1, 5))
        x = np.vstack([row, row, row])
        probs, labels = predict_two_phase(model, x)
        assert probs[0, 0] == probs[1, 0] == probs[2, 0]
        assert labels[0] == labels[1] == labels[2]


def _write_csv(ds: Dataset, path):
    """``ds`` as a CSV file whose cells parse back to the same bits."""
    lines = [",".join(ds.feature_names) + ",label"]
    lines += [",".join(map(repr, row)) + f",{int(y)}" for row, y in zip(ds.x.tolist(), ds.y)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestEvaluateTwoPhase:
    SCHEMA = DataSchema(target="label")

    @pytest.mark.parametrize("n", [1, ROWS, ROWS + 1, 2 * ROWS + 1, 2 * ROWS + 5])
    def test_counts_are_predict_two_phases_on_the_loaded_features(self, tmp_path, n):
        ds = make_gaussians(n, 5, 1.0, seed=n)  # n rows a class, of which n are kept
        ds = Dataset(x=ds.x[:n], y=ds.y[:n], feature_names=ds.feature_names)
        path = _write_csv(ds, tmp_path / "t.csv")
        model = dataclasses.replace(_model(seed=n), standardizer=_fitted(ds))
        x = apply_standardizer(model.standardizer, clean(load_csv(path, self.SCHEMA),
                                                         self.SCHEMA)).x
        probs, _ = predict_two_phase(model, x)
        # A threshold inside the probabilities, so both labels occur.
        model = dataclasses.replace(model, config2=TrainConfig(threshold=float(np.median(probs))))
        labels = probs[:, 0] >= model.config2.threshold
        assert evaluate_two_phase(model, path, self.SCHEMA) == confusion(labels, ds.y)

    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        paths = {rows: write_clinical_csv(tmp_path / f"{rows}.csv", tmp_path / "schema.json",
                                          n_rows=rows, n_positive=rows // 3)[0]
                 for rows in (2000, 8000)}
        schema = load_schema(tmp_path / "schema.json")
        ds = clean(load_csv(paths[2000], schema), schema)
        model = dataclasses.replace(_model(input_dim=41, seed=11), standardizer=_fitted(ds))
        del ds

        def read(path):
            for _ in read_blocks(path, schema, ROWS, model.standardizer):
                pass

        def evaluate(path):
            evaluate_two_phase(model, path, schema)

        peaks = {}
        for rows, path in paths.items():
            for run in (read, evaluate):
                with traced_peak() as read_peak:
                    run(path)
                    peaks[run.__name__, rows] = read_peak()
        one_block = ROWS * 41 * 8
        assert peaks["evaluate", 8000] - peaks["evaluate", 2000] < one_block
        assert peaks["read", 8000] - peaks["read", 2000] < one_block
        # What scoring adds to reading: two buffers of ROWS + 1 rows a phase,
        # 2.3 MB, within phase-1 predict's bound.
        assert peaks["evaluate", 8000] - peaks["read", 8000] < 2.5e6


class TestSaveLoad:
    def test_medians_round_trip_exactly(self, tmp_path):
        s = _identity(5)["standardizer"]
        medians = np.random.default_rng(7).normal(size=5) * 1e3
        model = dataclasses.replace(_model(seed=12), standardizer=Standardizer(
            s.mean, s.std, medians, s.names))
        save_two_phase(model, tmp_path / "m")
        back = load_two_phase(tmp_path / "m").standardizer.medians
        assert back.view(np.uint64).tolist() == medians.view(np.uint64).tolist()

    @pytest.mark.parametrize("key", PREPROCESSING)
    @pytest.mark.parametrize("existing", [False, True])
    def test_a_model_without_preprocessing_is_refused(self, tmp_path, key, existing):
        # At construction, of a built model or a loaded one, so no model
        # without it reaches save_two_phase or evaluate_two_phase.
        out = tmp_path / "model"
        if existing:
            save_two_phase(_model(seed=16), out)
        before = {p.name: p.read_bytes() for p in out.iterdir()} if existing else None
        model = load_two_phase(out) if existing else _model(seed=17)
        s = model.standardizer
        without = {  # each part of the one record, left out
            "feature_names": lambda: dataclasses.replace(
                model, standardizer=Standardizer(s.mean, s.std, s.medians)),
            "standardizer": lambda: dataclasses.replace(model, standardizer=None),
            "medians": lambda: Standardizer(s.mean, s.std, None, s.names),
        }
        message = {"feature_names": "phase 1's 5 inputs need 5 feature names, got 0",
                   "standardizer": "phase 1's 5 inputs need 5 feature names, got none",
                   "medians": "means, deviations and medians have shapes"}[key]
        with pytest.raises(ShapeError, match=re.escape(message)):
            without[key]()
        assert sorted(p.name for p in tmp_path.iterdir()) == (["model"] if existing else [])
        if existing:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_directory_round_trip(self, tmp_path):
        train = make_gaussians(20, 4, 2.0, seed=30)
        val = make_gaussians(8, 4, 2.0, seed=31)
        std = _fitted(train)
        model, _, _ = train_two_phase(train, val, FAST, FAST, SplitMix64(2), std, 2)
        out = tmp_path / "model"
        save_two_phase(model, out)
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "phase1.npz", "phase2.npz",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model"]
        back = load_two_phase(out)
        for a, b in zip(model.phase1.weights, back.phase1.weights):
            assert np.array_equal(a, b)
        for a, b in zip(model.phase2.weights, back.phase2.weights):
            assert np.array_equal(a, b)
        assert back.config1 == model.config1
        assert back.config2 == model.config2
        assert back.seed == 2
        assert back.standardizer.names == std.names == train.feature_names
        assert np.array_equal(back.standardizer.mean, std.mean)
        assert np.array_equal(back.standardizer.std, std.std)
        assert np.array_equal(back.standardizer.medians, std.medians)

    def test_param_parity_after_round_trip(self, tmp_path):
        model = _model(input_dim=41, seed=9)
        save_two_phase(model, tmp_path / "m")
        back = load_two_phase(tmp_path / "m")
        assert param_count(back.phase1.spec) == 2_143_233
        assert param_count(back.phase2.spec) == 301

    def test_predictions_survive_round_trip(self, tmp_path):
        model = _model(seed=10)
        save_two_phase(model, tmp_path / "m")
        back = load_two_phase(tmp_path / "m")
        x = np.random.default_rng(6).normal(size=(12, 5))
        p1, l1 = predict_two_phase(model, x)
        p2, l2 = predict_two_phase(back, x)
        assert np.array_equal(p1, p2)
        assert np.array_equal(l1, l2)

    def test_save_replaces_an_existing_model(self, tmp_path):
        out = tmp_path / "model"
        save_two_phase(_model(seed=11), out)
        (out / "stray.txt").write_text("left by hand")
        replacement = _model(seed=12)
        save_two_phase(replacement, out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model"]
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "phase1.npz", "phase2.npz",
        ]
        back = load_two_phase(out)
        assert np.array_equal(back.phase1.weights[0], replacement.phase1.weights[0])

    def test_save_onto_a_link_replaces_the_link_and_keeps_its_target(self, tmp_path):
        real = tmp_path / "real"
        save_two_phase(_model(seed=11), real)
        before = {p.name: p.read_bytes() for p in real.iterdir()}
        out = tmp_path / "model"
        out.symlink_to(real, target_is_directory=True)
        replacement = _model(seed=12)
        save_two_phase(replacement, out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model", "real"]
        assert not out.is_symlink()
        assert {p.name: p.read_bytes() for p in real.iterdir()} == before
        back = load_two_phase(out)
        assert np.array_equal(back.phase1.weights[0], replacement.phase1.weights[0])

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_save_leaves_nothing_partial(self, tmp_path, monkeypatch, existing):
        out = tmp_path / "model"
        if existing:
            save_two_phase(_model(seed=13), out)
            before = {p.name: p.read_bytes() for p in out.iterdir()}
        real = deeplda.pipeline.save_network
        calls = []

        def save_then_fail(net, path):
            if calls:
                raise OSError("disk full")
            calls.append(path)
            real(net, path)

        monkeypatch.setattr(deeplda.pipeline, "save_network", save_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_two_phase(_model(seed=14), out)
        assert len(calls) == 1  # phase 1 was written before the failure
        if existing:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["model"]
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        else:
            assert list(tmp_path.iterdir()) == []


class TestReplacing:
    """``replacing`` with a fault injected at each file-system call it makes."""

    CALLS = ((os, "mkdir"), (os, "fsync"), (os, "replace"), (os, "unlink"), (shutil, "rmtree"))

    @staticmethod
    def _prepare(root, kind):
        """``root/out`` as a fresh path, a previous run, or a link to one."""
        root.mkdir()
        out = root / "out"
        if kind != "fresh":
            previous = root / ("real" if kind == "link" else "out")
            previous.mkdir()
            (previous / "old.txt").write_text("previous run")
            if kind == "link":
                out.symlink_to(previous, target_is_directory=True)
        return out

    def _land(self, out, monkeypatch, fail_at, fault=OSError):
        """Land a one-file run at ``out``; call number ``fail_at`` of
        ``CALLS`` raises ``fault``. An OSError is raised in place of the
        call; a KeyboardInterrupt after it has done its work, as a signal
        handler runs when the call returns. Returns the number of calls made,
        whether the block raised, and the messages of the warnings it gave."""
        count, raised = [0], False

        def faulty(real):
            def call(*args, **kwargs):
                count[0] += 1
                if count[0] != fail_at:
                    return real(*args, **kwargs)
                if fault is KeyboardInterrupt:
                    real(*args, **kwargs)
                raise fault("injected fault")
            return call

        with monkeypatch.context() as patch:
            for module, name in self.CALLS:
                patch.setattr(module, name, faulty(getattr(module, name)))
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with replacing(out) as tmp:
                        with open(os.path.join(tmp, "new.txt"), "w") as fh:
                            fh.write("new run")
            except (OSError, KeyboardInterrupt) as exc:
                assert type(exc) is fault and str(exc) == "injected fault"
                raised = True
        return count[0], raised, [str(w.message) for w in caught]

    @staticmethod
    def _holds(out, root, kind):
        """Whether ``out`` holds the new run and whether it holds the previous one."""
        files = {p.name: p.read_text() for p in out.iterdir()} if os.path.isdir(out) else None
        new = not out.is_symlink() and files == {"new.txt": "new run"}
        if kind == "fresh":
            previous = not os.path.lexists(out)
        else:
            previous = files == {"old.txt": "previous run"} and (
                os.readlink(out) == str(root / "real") if kind == "link"
                else not out.is_symlink())
        return new, previous

    @pytest.mark.parametrize("kind", ["fresh", "previous", "link"])
    def test_out_holds_the_previous_or_the_new_run_whatever_call_fails(
            self, tmp_path, monkeypatch, kind):
        calls, raised, warned = self._land(self._prepare(tmp_path / "0", kind), monkeypatch,
                                           fail_at=0)
        assert calls >= 3 and not raised and not warned
        for fail_at in range(1, calls + 1):
            root = tmp_path / str(fail_at)
            out = self._prepare(root, kind)
            _, raised, warned = self._land(out, monkeypatch, fail_at)
            new, previous = self._holds(out, root, kind)
            assert new or previous, fail_at
            # Once the new run is in place the call succeeds, and a previous
            # run it could not remove is named in a warning.
            if new:
                assert not raised, fail_at
                for p in root.iterdir():
                    if ".tmp-" in p.name:
                        assert any(str(p) in message for message in warned), (fail_at, p)
            if kind == "link":
                assert (root / "real" / "old.txt").read_text() == "previous run"

    @pytest.mark.parametrize("kind", ["fresh", "previous", "link"])
    def test_an_interrupt_after_any_call_leaves_one_run_and_no_sibling(
            self, tmp_path, monkeypatch, kind):
        # An interrupt just after a rename once stranded the previous run in
        # the sibling it was moved to, or tried to move it back over the new one.
        calls, _, _ = self._land(self._prepare(tmp_path / "0", kind), monkeypatch, fail_at=0)
        for fail_at in range(1, calls + 1):
            root = tmp_path / str(fail_at)
            out = self._prepare(root, kind)
            _, raised, _ = self._land(out, monkeypatch, fail_at, KeyboardInterrupt)
            new, previous = self._holds(out, root, kind)
            assert new or previous, fail_at
            # The only call that completes without being interrupted is
            # makedirs' mkdir of the existing parent, which fails.
            assert raised or fail_at == 1, fail_at
            assert [p.name for p in root.iterdir() if ".tmp-" in p.name] == [], fail_at
            if kind == "link":
                assert (root / "real" / "old.txt").read_text() == "previous run"

    def test_a_directory_that_cannot_be_listed_stops_the_swap(self, tmp_path, monkeypatch):
        # Its files could not be synced, so the previous run stays.
        out = self._prepare(tmp_path / "root", "previous")
        real_scandir, failed = os.scandir, []

        def scandir(path="."):
            if not failed and os.fspath(path).endswith(f".tmp-{os.getpid()}"):
                failed.append(path)
                raise OSError("injected fault")
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        with pytest.raises(OSError, match="injected fault"):
            with replacing(out) as tmp:
                with open(os.path.join(tmp, "new.txt"), "w") as fh:
                    fh.write("new run")
        assert failed
        assert {p.name: p.read_text() for p in out.iterdir()} == {"old.txt": "previous run"}
        assert [p.name for p in out.parent.iterdir()] == ["out"]

    def test_every_file_is_synced_before_the_first_rename(self, tmp_path, monkeypatch):
        # Crash durability itself needs a power cut to test; the order of the
        # calls that give it does not. Files are known by inode, which a
        # rename keeps.
        out = self._prepare(tmp_path / "root", "previous")
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            events.append(("fsync", (st.st_dev, st.st_ino)))
            real_fsync(fd)

        def replace(*args, **kwargs):
            events.append(("replace", None))
            real_replace(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", fsync)
            patch.setattr(os, "replace", replace)
            with replacing(out) as tmp:
                os.mkdir(os.path.join(tmp, "model"))
                for name in ("new.txt", os.path.join("model", "phase1.npz")):
                    with open(os.path.join(tmp, name), "w") as fh:
                        fh.write("new run")

        def inode(path):
            st = os.stat(path)
            return st.st_dev, st.st_ino

        first = events.index(("replace", None))
        last = len(events) - 1 - events[::-1].index(("replace", None))
        assert first < last  # the previous run was moved aside, then the new one landed
        landed = [out, out / "model", out / "new.txt", out / "model" / "phase1.npz"]
        assert sorted(str(p) for p in out.rglob("*")) == sorted(str(p) for p in landed[1:])
        synced = {key for kind, key in events[:first] if kind == "fsync"}
        assert all(inode(p) in synced for p in landed)
        assert ("fsync", inode(out.parent)) in events[last + 1 :]


def _edit_manifest(directory, edit):
    path = directory / "manifest.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


class TestMalformedModel:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("saved") / "model"
        model = dataclasses.replace(
            _model(seed=15), standardizer=_fitted(make_gaussians(10, 5, 1.0, seed=34)))
        save_two_phase(model, out)
        return out

    @pytest.fixture
    def copy(self, saved, tmp_path):
        out = tmp_path / "model"
        out.mkdir()
        for p in saved.iterdir():
            (out / p.name).write_bytes(p.read_bytes())
        return out

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("config1"),
        lambda d: d.pop("standardizer"),
        lambda d: d.pop("seed"),
        lambda d: d.update(config1=[1, 2]),
        lambda d: d.update(config2={"learning_rate": "fast"}),
        lambda d: d.update(config1={"momentum": 0.9}),
        lambda d: d.update(config2={"threshold": 2.0}),
        lambda d: d.update(standardizer={"mean": [0.0]}),
        lambda d: d.update(standardizer={"mean": ["a"], "std": [1.0]}),
        lambda d: d.update(standardizer=[0.0]),
        lambda d: d.update(feature_names="abc"),
        lambda d: d.update(feature_names=[1, 2]),
        lambda d: d.update(seed="7"),
        lambda d: d.update(format="deeplda.two-phase/9"),
        lambda d: d.update(format=["deeplda.two-phase/2"]),
        lambda d: d.update(seed=True),
        lambda d: d.update(format="deeplda.two-phase/1"),
        lambda d: d["config1"].update(epochs=2.7),
        lambda d: d["config2"].update(batch_size=True),
        lambda d: d["config1"].update(l2_lambda=float("nan")),
        lambda d: d["config2"].update(epochs=0),
        lambda d: d["standardizer"].update(mean=["0.5"] * 5),
        lambda d: d["standardizer"].update(std=[True] * 5),
        lambda d: d["standardizer"].update(mean=[[0.0] * 5]),
        lambda d: d["standardizer"].update(mean=10**400),
        lambda d: d["standardizer"].update(mean=[10**400] * 5),
        lambda d: d["standardizer"].update(std=[1.0] * 4),
        lambda d: d.update(standardizer={"mean": [0.0] * 4, "std": [1.0] * 4},
                           feature_names=list("abcde")),
        lambda d: d.update(feature_names=list("abcdef")),
        lambda d: d.update(medians=[0.0] * 4),
        lambda d: d.update(medians=[0.0] * 6),
        lambda d: d.update(medians=[[0.0] * 5]),
        lambda d: d.update(medians=[10**400] * 5),
        lambda d: d.update(medians=[float("inf")] * 5),
        lambda d: d.update(medians=5),
        lambda d: d.pop("feature_names"),
        lambda d: d.pop("medians"),
        lambda d: d.update(feature_names=None),
        lambda d: d.update(standardizer=None),
        lambda d: d.update(medians=None),
    ])
    def test_bad_manifest_is_data_error(self, copy, edit):
        _edit_manifest(copy, edit)
        with pytest.raises(DataError) as info:
            load_two_phase(copy)
        assert str(copy / "manifest.json") in str(info.value)
        found = json.loads((copy / "manifest.json").read_text())["format"]
        if found != TWO_PHASE_FORMAT:
            assert repr(found) in str(info.value)
            assert repr(TWO_PHASE_FORMAT) in str(info.value)

    def test_every_key_written_is_one_load_requires(self, saved, copy):
        # The manifest save writes loads whole, and without any one of its
        # keys it is refused, naming that key.
        manifest = json.loads((saved / "manifest.json").read_text())
        assert set(manifest) == {"format", "config1", "config2", "seed", "feature_names",
                                 "standardizer", "medians"}
        assert set(manifest["standardizer"]) == {"mean", "std"}
        assert set(PREPROCESSING) == set(manifest) - {"format", "config1", "config2", "seed"}
        load_two_phase(saved)
        for key in manifest:
            (copy / "manifest.json").write_text(
                json.dumps({k: v for k, v in manifest.items() if k != key}))
            want = "format=None" if key == "format" else f"lacks the key '{key}'"
            with pytest.raises(DataError, match=re.escape(want)):
                load_two_phase(copy)

    @pytest.mark.parametrize("content", ["", "[]", "{not json", "\ufffe"])
    def test_unreadable_manifest_is_data_error(self, copy, content):
        (copy / "manifest.json").write_text(content)
        with pytest.raises(DataError):
            load_two_phase(copy)

    def test_missing_network_file_is_data_error(self, copy):
        (copy / "phase2.npz").unlink()
        with pytest.raises(DataError, match="phase2.npz"):
            load_two_phase(copy)

    @pytest.mark.parametrize("source, target, refusal", [
        ("phase1.npz", "phase2.npz", "phase 2 must consume a single column"),
        ("phase2.npz", "phase1.npz", "phase 1's 1 inputs need 1 feature names, got 5"),
    ], ids=["phase1-as-phase2", "phase2-as-phase1"])
    def test_a_network_in_the_wrong_phase_is_data_error(self, copy, source, target, refusal):
        (copy / target).write_bytes((copy / source).read_bytes())
        with pytest.raises(DataError) as info:
            load_two_phase(copy)
        assert str(info.value) == (f"{copy / 'manifest.json'} does not describe the networks "
                                   f"in {copy}: {refusal}")

    def test_truncated_network_file_is_data_error(self, copy):
        blob = (copy / "phase1.npz").read_bytes()
        (copy / "phase1.npz").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataError, match="phase1.npz"):
            load_two_phase(copy)
