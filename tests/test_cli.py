from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import typing
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from ercml.checkpoint import load_checkpoint, save_checkpoint
from ercml.classifier import init_classifier, save_classifier
from ercml.cli import build_parser, main, read_config_file
from ercml.corpus import EMOTION_IDS, SPLITS, Corpus, load_split, utt_key
from ercml.embeddings import hash_store_for_corpus, load_sentence_embeddings, save_sentence_embeddings
from ercml.errors import ConfigError, NonFinite
from ercml.llm import UNPARSABLE_POLICIES
from ercml.metrics import F1_POLICIES, NEUTRAL_POLICIES
from ercml.training import CHOICES, TrainConfig, train_contextual

DATA = str(Path(__file__).parent / "data" / "mini")


@pytest.fixture(scope="module")
def store_file(tmp_path_factory) -> str:
    """One hash-embedding export covering all three mini splits."""
    dialogs = []
    for split in ("train", "validation", "test"):
        dialogs.extend(load_split(DATA, split).dialogs)
    store = hash_store_for_corpus(
        Corpus(split="train", dialogs=tuple(dialogs)), dim=16, seed=0
    )
    path = tmp_path_factory.mktemp("store") / "store.jsonl"
    save_sentence_embeddings(store, path)
    return str(path)


FAST_TRAIN = [
    "--epochs", "1", "--max-steps", "2", "--pretrain-steps", "3", "--seed", "0",
]


class TestStats:
    def test_report(self, capsys, tmp_path):
        out_file = tmp_path / "stats.txt"
        rc = main(["stats", "--data", DATA, "--split", "train", "--out", str(out_file)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "n_dialogs = 20" in captured
        assert "max_utt_per_dialog = 6" in captured
        assert out_file.read_text() == captured

    def test_missing_data_dir_exits_one(self, tmp_path):
        rc = main(["stats", "--data", str(tmp_path / "nope"), "--split", "train"])
        assert rc == 1

    def test_bad_usage_exits_two(self):
        assert main(["stats"]) == 2
        assert main(["no-such-command"]) == 2


class TestTrainEval:
    def test_train_writes_artifacts(self, store_file, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main([
            "train", "--data", DATA, "--store", store_file,
            "--out", str(out), "--eval-split", "test", *FAST_TRAIN,
        ])
        assert rc == 0
        assert (out / "model.npz").exists()
        assert (out / "train.log").exists()
        doc = json.loads((out / "metrics.json").read_text())
        for field in ("macro_f1_star", "micro_f1_star", "mcc", "per_label",
                      "confusion", "n_scored", "config_echo", "seed"):
            assert field in doc
        assert doc["config_echo"]["train_config"]["seed"] == 0
        records = [json.loads(line) for line in (out / "train.log").read_text().splitlines()]
        assert records[0] == {"config_echo": doc["config_echo"]}
        assert [r["step"] for r in records[1:]] == [1, 2]
        for r in records[1:]:
            assert set(r) == {"step", "epoch", "ce", "triplet", "active", "triplet_skipped"}

    def test_train_byte_identical_metrics(self, store_file, tmp_path):
        out = tmp_path / "run"
        args = ["train", "--data", DATA, "--store", store_file,
                "--out", str(out), *FAST_TRAIN]
        docs = []
        for _ in range(2):
            assert main(args) == 0
            docs.append((out / "metrics.json").read_bytes())
        assert docs[0] == docs[1]

    def test_failed_rerun_leaves_no_earlier_results(self, store_file, tmp_path, capsys, monkeypatch):
        # A rerun into a finished run's directory that dies leaves neither
        # the earlier model nor the metrics.json that marks a finished run.
        from ercml import cli

        out = tmp_path / "run"
        argv = ["train", "--data", DATA, "--store", store_file, "--out", str(out), *FAST_TRAIN]
        assert main(argv) == 0
        assert (out / "metrics.json").is_file() and (out / "model.npz").is_file()

        def dies(*args, **kwargs):
            raise NonFinite("optimizer step 1: gradient 'head.w' is not finite")

        monkeypatch.setattr(cli, "train_contextual", dies)
        capsys.readouterr()
        assert main(argv) == 1
        assert "NonFinite" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()
        assert not (out / "model.npz").exists()
        assert len((out / "train.log").read_text().splitlines()) == 1  # the config echo only

    def test_eval_on_saved_model(self, store_file, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--data", DATA, "--store", store_file, "--out", str(out), *FAST_TRAIN])
        metrics_path = tmp_path / "eval.json"
        rc = main([
            "eval", "--model", str(out / "model.npz"), "--data", DATA,
            "--store", store_file, "--split", "test", "--out", str(metrics_path),
        ])
        assert rc == 0
        doc = json.loads(metrics_path.read_text())
        assert doc["split"] == "test"
        assert "macro_f1_star" in doc
        assert "macroF1*" in capsys.readouterr().out

    def test_eval_include_neutral_marked(self, store_file, tmp_path):
        out = tmp_path / "run"
        main(["train", "--data", DATA, "--store", store_file, "--out", str(out), *FAST_TRAIN])
        metrics_path = tmp_path / "eval_n.json"
        rc = main([
            "eval", "--model", str(out / "model.npz"), "--data", DATA,
            "--store", store_file, "--split", "test", "--neutral-policy", "include",
            "--out", str(metrics_path),
        ])
        assert rc == 0
        doc = json.loads(metrics_path.read_text())
        assert doc["comparable"] is False
        assert doc["includes_neutral"] is True
        assert doc["neutral_policy"] == "include"

    def test_eval_include_neutral_on_six_labels_exits_one(self, store_file, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--data", DATA, "--store", store_file, "--out", str(out),
              "--label-space", "6", *FAST_TRAIN])
        metrics_path = tmp_path / "eval_n.json"
        capsys.readouterr()
        rc = main([
            "eval", "--model", str(out / "model.npz"), "--data", DATA,
            "--store", store_file, "--split", "test", "--neutral-policy", "include",
            "--out", str(metrics_path),
        ])
        assert rc == 1
        assert "NoNeutralInSpace" in capsys.readouterr().err
        assert not metrics_path.exists()

    def test_retired_include_neutral_flag_exits_two(self, store_file, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--data", DATA, "--store", store_file, "--out", str(out), *FAST_TRAIN])
        metrics_path = tmp_path / "eval_n.json"
        capsys.readouterr()
        rc = main([
            "eval", "--model", str(out / "model.npz"), "--data", DATA,
            "--store", store_file, "--include-neutral", "--out", str(metrics_path),
        ])
        assert rc == 2
        assert "unrecognized arguments: --include-neutral" in capsys.readouterr().err
        assert not metrics_path.exists()

    def test_train_refuses_include_policy(self, store_file, tmp_path, capsys):
        # `include` would fail only after training on a 6-label run
        out = tmp_path / "run"
        rc = main(["train", "--data", DATA, "--store", store_file, "--out", str(out),
                   "--neutral-policy", "include", *FAST_TRAIN])
        assert rc == 2
        assert "invalid choice: 'include'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_exits_one(self, store_file, tmp_path):
        rc = main([
            "eval", "--model", str(tmp_path / "none.npz"), "--data", DATA,
            "--store", store_file,
        ])
        assert rc == 1

    def test_eval_bad_checkpoint_exits_one(self, store_file, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--data", DATA, "--store", store_file, "--out", str(out), *FAST_TRAIN])
        kind, tensors, meta = load_checkpoint(out / "model.npz")
        del tensors["classifier.encoder.w_v"]
        bad = save_checkpoint(tmp_path / "bad.npz", kind, tensors, meta)
        capsys.readouterr()
        rc = main(["eval", "--model", str(bad), "--data", DATA, "--store", store_file])
        assert rc == 1
        assert "CheckpointError" in capsys.readouterr().err

    def test_store_gap_exits_one_before_scoring(self, tmp_path, capsys):
        # a store covering train but not test: training fails before its
        # first step, eval and predict before scoring
        store = hash_store_for_corpus(load_split(DATA, "train"), dim=16, seed=0)
        store_path = save_sentence_embeddings(store, tmp_path / "train_only.jsonl")
        out = tmp_path / "run"
        rc = main(["train", "--data", DATA, "--store", str(store_path), "--out", str(out), *FAST_TRAIN])
        assert rc == 1
        assert not (out / "model.npz").exists()
        main(["train", "--data", DATA, "--store", str(store_path), "--out", str(out),
              "--eval-split", "train", *FAST_TRAIN])
        capsys.readouterr()
        for command in ("eval", "predict"):
            rc = main([command, "--model", str(out / "model.npz"), "--data", DATA,
                       "--store", str(store_path), "--split", "test"])
            assert rc == 1
            captured = capsys.readouterr()
            assert "MissingEmbedding" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_store_of_another_provider_exits_one(self, store_file, tmp_path, capsys, command):
        # same dim and keys, vectors from another model: nothing but the
        # provider name tells the stores apart
        out = tmp_path / "run"
        main(["train", "--data", DATA, "--store", store_file, "--out", str(out), *FAST_TRAIN])
        other = replace(load_sentence_embeddings(store_file), provider_name="other")
        other_path = save_sentence_embeddings(other, tmp_path / "other.jsonl")
        result = tmp_path / "result"
        capsys.readouterr()
        rc = main([command, "--model", str(out / "model.npz"), "--data", DATA,
                   "--store", str(other_path), "--split", "test", "--out", str(result)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "ProviderMismatch" in captured.err
        assert "'other'" in captured.err and "'hash'" in captured.err
        assert captured.out == ""
        assert not result.exists()

    @pytest.mark.parametrize("flags", [
        ["--loss-mode", "summed", "--summed-lambda", "nan"], ["--margin", "inf"], ["--learning-rate", "inf"],
    ])
    def test_non_finite_loss_setting_exits_one_before_any_work(self, store_file, tmp_path, capsys, flags):
        out = tmp_path / "run"
        rc = main(["train", "--data", DATA, "--store", store_file, "--out", str(out), *FAST_TRAIN, *flags])
        assert rc == 1
        assert "ConfigError" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_grad_clip_is_recorded_as_null(self, store_file, tmp_path):
        # `--grad-clip inf` and a config file's `grad_clip = none` both mean
        # "no clipping": one recorded value, strict JSON, the same model
        def strict_json(text: str):
            def refuse(constant):
                raise ValueError(f"{constant} is not JSON")
            return json.loads(text, parse_constant=refuse)

        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {DATA}\nstore = {store_file}\ngrad_clip = none\n")
        flag, config = tmp_path / "flag", tmp_path / "config"
        assert main(["train", "--data", DATA, "--store", store_file, "--out", str(flag), *FAST_TRAIN,
                     "--grad-clip", "inf"]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(config), *FAST_TRAIN]) == 0
        for run in (flag, config):
            log = [strict_json(line) for line in (run / "train.log").read_text().splitlines()]
            with np.load(run / "model.npz") as archive:
                meta = strict_json(str(archive["__meta__"]))
            for echo in (strict_json((run / "metrics.json").read_text())["config_echo"], log[0]["config_echo"],
                         meta["config_echo"]):
                assert echo["train_config"]["grad_clip"] is None
        tensors = [load_checkpoint(run / "model.npz")[1] for run in (flag, config)]
        assert tensors[0].keys() == tensors[1].keys()
        assert all(np.array_equal(tensors[0][name], tensors[1][name]) for name in tensors[0])

    def test_label_space_outside_six_and_seven_exits_one(self, store_file, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", "--data", DATA, "--store", store_file, "--out", str(out), *FAST_TRAIN,
                   "--label-space", "5"])
        assert rc == 1
        assert "ConfigError: label_space_size must be 6 or 7, got 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad, error", [
        ("store", "MissingFile"), ("eval_store", "MissingEmbedding"), ("classifier", "CheckpointError"),
    ])
    def test_bad_input_exits_one_before_out_is_made(self, store_file, tmp_path, capsys, bad, error):
        # a missing store, a store covering train but not the eval split,
        # or a missing classifier: nothing is written, not even train.log
        train_only = hash_store_for_corpus(load_split(DATA, "train"), dim=16, seed=0)
        inputs = {
            "store": ["--store", str(tmp_path / "missing.jsonl")],
            "eval_store": ["--store", str(save_sentence_embeddings(train_only, tmp_path / "train_only.jsonl"))],
            "classifier": ["--store", store_file, "--classifier", str(tmp_path / "missing.npz")],
        }
        out = tmp_path / "run"
        rc = main(["train", "--data", DATA, *inputs[bad], "--out", str(out), *FAST_TRAIN])
        assert rc == 1
        assert error in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture(scope="class")
    def finished_run(self, store_file, tmp_path_factory) -> Path:
        out = tmp_path_factory.mktemp("finished") / "run"
        assert main(["train", "--data", DATA, "--store", store_file, "--out", str(out), *FAST_TRAIN]) == 0
        return out

    @pytest.mark.parametrize("bad, error", [
        ("heads", "BadHeadCount"), ("classifier_dim", "DimMismatch"), ("classifier_labels", "ConfigError"),
    ])
    def test_bad_setting_leaves_out_untouched(self, store_file, finished_run, tmp_path, capsys, bad, error):
        # --heads not dividing the store's dim, or a head of another width
        # or label space: a fresh --out is not made, and a finished run's
        # three files keep their bytes
        if bad == "heads":
            flags = ["--heads", "5"]
        else:
            head = init_classifier(8) if bad == "classifier_dim" else init_classifier(16, EMOTION_IDS)
            flags = ["--classifier", str(save_classifier(tmp_path / "head.npz", head, "hash", {}, 0))]
        before = {p.name: p.read_bytes() for p in finished_run.iterdir()}
        assert sorted(before) == ["metrics.json", "model.npz", "train.log"]
        for out in (tmp_path / "fresh", finished_run):
            capsys.readouterr()
            rc = main(["train", "--data", DATA, "--store", store_file, "--out", str(out), *FAST_TRAIN, *flags])
            assert rc == 1
            assert error in capsys.readouterr().err
        assert not (tmp_path / "fresh").exists()
        assert {p.name: p.read_bytes() for p in finished_run.iterdir()} == before

    def test_step_lines_go_to_train_log_only(self, store_file, tmp_path):
        # A fresh interpreter, so the root handler is the CLI's own
        # stderr one and not the test runner's capture.
        out = tmp_path / "run"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "ercml.cli", "train", "--data", DATA, "--store", store_file,
             "--out", str(out), *FAST_TRAIN],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        steps = [json.loads(line) for line in (out / "train.log").read_text().splitlines()[1:]]
        assert [r["step"] for r in steps] == [1, 2]
        assert proc.stderr == ""

    @pytest.mark.parametrize("flag, value", [
        ("--model-kind", "isolated"), ("--word-table", "vectors.txt"),
        ("--subnetwork", "lstm"), ("--rep-dim", "4"),
    ])
    def test_retired_isolated_options_exit_two(self, store_file, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        rc = main(["train", "--data", DATA, "--store", store_file, "--out", str(out),
                   *FAST_TRAIN, flag, value])
        assert rc == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()


# The C13 recipe on the fixture corpus
C13_TRAIN = ["--epochs", "1", "--max-steps", "5", "--pretrain-steps", "10", "--seed", "7"]


class TestRunRecords:
    """`train.log` is the JSON lines of the config echo and the step
    records `train_contextual` hands its `log_hook`."""

    def train(self, store_file, out, *flags) -> list[dict]:
        assert main(["train", "--data", DATA, "--store", store_file, "--out", str(out), *flags]) == 0
        return [json.loads(line) for line in (out / "train.log").read_text().splitlines()]

    def test_config_echo_then_the_library_records(self, store_file, tmp_path):
        out = tmp_path / "run"
        records = self.train(store_file, out, *C13_TRAIN)
        metrics = json.loads((out / "metrics.json").read_text())
        assert records[0] == {"config_echo": metrics["config_echo"]}
        config = TrainConfig(**metrics["config_echo"]["train_config"])
        library: list[dict] = []
        train_contextual(load_split(DATA, "train"), load_sentence_embeddings(store_file), config,
                         log_hook=library.append)
        assert records[1:] == library
        assert len(library) == 3  # 20 dialogs in batches of 8

    def test_skipped_triplet_step_is_recorded(self, store_file, tmp_path):
        records = self.train(store_file, tmp_path / "run", *C13_TRAIN,
                             "--label-space", "6", "--sampling-strategy", "batch-hard")
        skipped = [r["step"] for r in records[1:] if r["triplet_skipped"]]
        assert skipped == [3]
        assert records[3]["triplet"] == 0.0 and records[3]["active"] == 0


class TestPretrain:
    def test_writes_classifier_checkpoint(self, store_file, tmp_path):
        out = tmp_path / "pre"
        rc = main([
            "pretrain", "--data", DATA, "--store", store_file,
            "--out", str(out), "--pretrain-steps", "4", "--seed", "1",
        ])
        assert rc == 0
        assert (out / "classifier.npz").exists()
        doc = json.loads((out / "pretrain.json").read_text())
        assert doc["seed"] == 1

    def test_train_with_pretrained_classifier(self, store_file, tmp_path):
        # pretraining is seeded, so `train --classifier` on what `pretrain`
        # wrote with the same flags writes the tensors `train` alone does
        pre = tmp_path / "pre"
        assert main(["pretrain", "--data", DATA, "--store", store_file, "--out", str(pre), *FAST_TRAIN]) == 0
        models = []
        for extra in ([], ["--classifier", str(pre / "classifier.npz")]):
            out = tmp_path / f"run{len(models)}"
            assert main(["train", "--data", DATA, "--store", store_file, "--out", str(out), *FAST_TRAIN, *extra]) == 0
            models.append(load_checkpoint(out / "model.npz")[1])
        alone, pretrained = models
        assert alone.keys() == pretrained.keys()
        for name, arr in alone.items():
            np.testing.assert_array_equal(pretrained[name], arr, err_msg=name)


    def test_classifier_checkpoint_as_model_exits_one(self, store_file, tmp_path, capsys):
        out = tmp_path / "pre"
        assert main(["pretrain", "--data", DATA, "--store", store_file, "--out", str(out), *FAST_TRAIN]) == 0
        capsys.readouterr()
        rc = main(["eval", "--model", str(out / "classifier.npz"), "--data", DATA, "--store", store_file])
        assert rc == 1
        assert "error: CheckpointError: " in (err := capsys.readouterr().err)
        assert "checkpoint kind 'classifier', expected 'contextual'" in err

    def test_classifier_of_another_provider_exits_one(self, store_file, tmp_path, capsys):
        # the head was pretrained on the `hash` store; a store of the same
        # dim and keys from another provider is refused before any step
        pre = tmp_path / "pre"
        main(["pretrain", "--data", DATA, "--store", store_file, "--out", str(pre), "--pretrain-steps", "4"])
        other = replace(load_sentence_embeddings(store_file), provider_name="other")
        other_path = save_sentence_embeddings(other, tmp_path / "other.jsonl")
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main(["train", "--data", DATA, "--store", str(other_path), "--out", str(out),
                   "--classifier", str(pre / "classifier.npz"), *FAST_TRAIN])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ProviderMismatch" in err
        assert "'other'" in err and "'hash'" in err
        assert not out.exists()  # refused before anything is written

    def test_classifier_without_provider_exits_one(self, store_file, tmp_path, capsys):
        # a head file written before the provider was recorded
        pre = tmp_path / "pre"
        main(["pretrain", "--data", DATA, "--store", store_file, "--out", str(pre), "--pretrain-steps", "4"])
        kind, tensors, meta = load_checkpoint(pre / "classifier.npz")
        del meta["provider"]
        old = save_checkpoint(tmp_path / "old.npz", kind, tensors, meta)
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main(["train", "--data", DATA, "--store", store_file, "--out", str(out),
                   "--classifier", str(old), *FAST_TRAIN])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ProviderMismatch" in err
        assert "'hash'" in err and "'unknown'" in err
        assert not (out / "model.npz").exists()

    def test_classifier_of_another_label_space_exits_one(self, store_file, tmp_path, capsys):
        pre = tmp_path / "pre"
        main(["pretrain", "--data", DATA, "--store", store_file,
              "--out", str(pre), "--pretrain-steps", "4"])
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main([
            "train", "--data", DATA, "--store", store_file, "--out", str(out),
            "--classifier", str(pre / "classifier.npz"), "--label-space", "6", *FAST_TRAIN,
        ])
        assert rc == 1
        assert "ConfigError" in capsys.readouterr().err
        assert not (out / "model.npz").exists()


class TestPredict:
    def test_jsonl_output(self, store_file, tmp_path):
        out = tmp_path / "run"
        main(["train", "--data", DATA, "--store", store_file, "--out", str(out), *FAST_TRAIN])
        pred_path = tmp_path / "preds.jsonl"
        rc = main([
            "predict", "--model", str(out / "model.npz"), "--data", DATA,
            "--store", store_file, "--split", "test", "--out", str(pred_path),
        ])
        assert rc == 0
        lines = pred_path.read_text().strip().split("\n")
        test_corpus = load_split(DATA, "test")
        assert len(lines) == test_corpus.n_utterances
        record = json.loads(lines[0])
        assert set(record) == {"key", "pred", "gold"}

    @pytest.mark.parametrize("label_space", ["7", "6"])
    def test_lines_agree_with_eval_confusion(self, store_file, tmp_path, label_space):
        out = tmp_path / "run"
        main(["train", "--data", DATA, "--store", store_file, "--out", str(out),
              "--label-space", label_space, *FAST_TRAIN])
        scoring = ["--model", str(out / "model.npz"), "--data", DATA, "--store", store_file, "--split", "test"]
        assert main(["predict", *scoring, "--out", str(tmp_path / "preds.jsonl")]) == 0
        assert main(["eval", *scoring, "--out", str(tmp_path / "eval.json")]) == 0
        doc = json.loads((tmp_path / "eval.json").read_text())
        names = doc["label_space"]
        counts = [[0] * len(names) for _ in names]
        for line in (tmp_path / "preds.jsonl").read_text().splitlines():
            record = json.loads(line)
            if record["gold"] in names:  # a 6-label model scores no gold neutral
                counts[names.index(record["gold"])][names.index(record["pred"])] += 1
        assert counts == doc["confusion"]
        assert sum(map(sum, counts)) == doc["n_scored"] > 0


STORE_HEADER = json.dumps({"provider": "hash", "dim": 2}).encode() + b"\n"


class TestUnreadableInputs:
    """A missing or malformed file named on the command line exits 1 with
    the error's type, raised where the file is read. An input given as a
    dict is a directory holding those files."""

    COMMANDS = {
        "stats": ["stats", "--split", "test"],
        "train": ["train", "--data", DATA],
        "pretrain": ["pretrain", "--data", DATA],
        "llm-eval": ["llm-eval", "--data", DATA, "--parallelism", "1"],
    }

    @pytest.mark.parametrize("command, flag, data, error", [
        ("train", "--config", None, "MissingFile"),
        ("pretrain", "--store", None, "MissingFile"),
        ("llm-eval", "--replay", None, "MissingFile"),
        ("pretrain", "--store", STORE_HEADER + b'{"key": "k", "vector": ["x", 1.0]}\n', "MalformedRecord"),
        ("pretrain", "--store", STORE_HEADER + b'{"key": "k", "vector": [{}, 1.0]}\n', "MalformedRecord"),
        ("pretrain", "--store", b'{"provider": "hash", "dim": "two"}\n', "MalformedRecord"),
        ("pretrain", "--store", b'{"provider": "hash", "dim": 1.5}\n', "MalformedRecord"),
        ("pretrain", "--store", b'{"provider": "hash", "dim": null}\n', "MalformedRecord"),
        ("llm-eval", "--replay", b"not json\n", "MalformedRecord"),
        ("llm-eval", "--replay", b'{"text": "joy"}\n', "MalformedRecord"),
        ("llm-eval", "--replay", b'{"key": "*"}\n', "MalformedRecord"),
        ("llm-eval", "--replay", b'["*", "joy"]\n', "MalformedRecord"),
        ("llm-eval", "--replay", b'{"key": "*", "text": "caf\xe9"}\n', "MalformedRecord"),
        ("train", "--config", b"[run]\n# caf\xe9\nepochs = 1\n", "ConfigError"),
        ("train", "--config", b"epochs = 1\nepochs = 2\n", "ConfigError"),
        ("train", "--config", b"epochs = 1\nnot a pair\n", "ConfigError"),
        ("stats", "--data", {"dialogues_test.txt": b"caf\xe9 __eou__\n", "dialogues_emotion_test.txt": b"0\n"},
         "MalformedRecord"),
        ("llm-eval", "--template", {}, "BadTemplate"),
        ("llm-eval", "--template", b"{dialog} {labels} {last_utterance} caf\xe9\n", "BadTemplate"),
    ], ids=[
        "no-config", "no-store", "no-replay", "store-string-coordinate", "store-object-coordinate",
        "store-string-dim", "store-float-dim", "store-null-dim", "replay-not-json", "replay-no-key",
        "replay-no-text", "replay-not-object", "replay-not-utf8", "config-not-utf8",
        "config-headerless-duplicate", "config-headerless-no-pair", "corpus-not-utf8",
        "template-directory", "template-not-utf8",
    ])
    def test_exits_one_with_typed_error(self, tmp_path, capsys, command, flag, data, error):
        path = tmp_path / "input"
        if isinstance(data, dict):
            path.mkdir()
            for name, content in data.items():
                (path / name).write_bytes(content)
        elif data is not None:
            path.write_bytes(data)
        out = tmp_path / "out"
        rc = main([*self.COMMANDS[command], "--out", str(out), flag, str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert f"error: {error}: " in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestSampleTriplets:
    def test_jsonl_and_determinism(self, tmp_path, capsys):
        args = ["sample-triplets", "--data", DATA, "--split", "train",
                "--count", "25", "--seed", "9"]
        rc = main(args)
        assert rc == 0
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first
        lines = first.strip().split("\n")
        assert len(lines) == 25
        assert set(json.loads(lines[0])) == {"a", "p", "n"}

    @pytest.mark.parametrize("include_neutral", [False, True])
    def test_neutral_is_drawn_only_when_included(self, capsys, include_neutral):
        labels = {utt_key(d.id, u.index): u.label for d, u in load_split(DATA, "train").iter_utterances()}
        flag = "--include-neutral" if include_neutral else "--no-include-neutral"
        assert main(["sample-triplets", "--data", DATA, "--count", "200", "--smooth-counts", "2", flag]) == 0
        drawn = {labels[key] for line in capsys.readouterr().out.splitlines() for key in json.loads(line).values()}
        assert (0 in drawn) is include_neutral

    @pytest.mark.parametrize("flag, message", [
        ("--seed", "seed must be >= 0"),
        ("--count", "count must be > 0"),
        ("--smooth-counts", "smooth_counts must be >= 0"),
    ])
    def test_negative_option_exits_one_with_config_error(self, tmp_path, capsys, flag, message):
        out = tmp_path / "triplets.jsonl"
        rc = main(["sample-triplets", "--data", DATA, "--out", str(out), flag, "-1"])
        assert rc == 1
        assert f"ConfigError: {message}, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestLlmEval:
    def test_replay_run(self, tmp_path, capsys):
        corpus = load_split(DATA, "test")
        replay = tmp_path / "replay.jsonl"
        with replay.open("w") as fh:
            fh.write(json.dumps({"key": "*", "text": "happiness"}) + "\n")
        out = tmp_path / "llm"
        rc = main([
            "llm-eval", "--data", DATA, "--split", "test",
            "--replay", str(replay), "--out", str(out), "--parallelism", "1",
        ])
        assert rc == 0
        doc = json.loads((out / "llm_metrics.json").read_text())
        assert doc["modal_share"] == 1.0
        assert doc["collapse_flagged"] is True
        log_lines = (out / "generations.jsonl").read_text().strip().split("\n")
        assert len(log_lines) == len(corpus.dialogs)
        assert set(json.loads(log_lines[0])) == {"key", "prompt_sha256", "raw_output", "parsed_label", "status"}

    @pytest.mark.parametrize("flag, value, message", [
        ("--parallelism", "0", "parallelism must be > 0"),
        ("--max-retries", "-1", "max_retries must be >= 0"),
        ("--max-new-tokens", "0", "max_new_tokens must be > 0"),
    ])
    def test_out_of_bounds_option_exits_one_with_config_error(self, tmp_path, capsys, flag, value, message):
        replay = tmp_path / "replay.jsonl"
        replay.write_text(json.dumps({"key": "*", "text": "happiness"}) + "\n")
        out = tmp_path / "llm"
        rc = main(["llm-eval", "--data", DATA, "--replay", str(replay), "--out", str(out), flag, value])
        assert rc == 1
        assert f"ConfigError: {message}, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_client_source(self, tmp_path):
        rc = main(["llm-eval", "--data", DATA, "--out", str(tmp_path / "x")])
        assert rc == 1

    @pytest.mark.parametrize("endpoint", ["notaurl", "file:answers.json"])
    def test_endpoint_not_http_exits_one_with_config_error(self, tmp_path, capsys, endpoint):
        out = tmp_path / "llm"
        rc = main(["llm-eval", "--data", DATA, "--endpoint", endpoint, "--out", str(out)])
        assert rc == 1
        assert f"ConfigError: endpoint {endpoint!r} is not an http or https URL" in capsys.readouterr().err
        assert not out.exists()


class TestImport:
    def test_cli_import_loads_no_scipy_and_builds_nothing(self):
        # scipy.special costs a process tens of MB; only the compiler-less
        # fallback of GELU's gate imports it, and no import builds the kernels.
        # The HTTP stack and the thread pool's module (a few MB) are loaded
        # only by the LLM harness's calls that use them.
        probe = (
            "import json, subprocess, sys\n"
            "started = []\n"
            "popen = subprocess.Popen.__init__\n"
            "def record(self, args, *rest, **kw):\n"
            "    started.append(args)\n"
            "    popen(self, args, *rest, **kw)\n"
            "subprocess.Popen.__init__ = record\n"
            "import ercml.cli\n"
            "def loaded(*names):\n"
            "    return sorted(m for m in sys.modules if any(m == n or m.startswith(n + '.') for n in names))\n"
            "print(json.dumps({'scipy': loaded('scipy'),\n"
            "                  'http_stack': loaded('ssl', 'http', 'email', 'socket', 'urllib.request', 'concurrent'),\n"
            "                  'started': started}))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"scipy": [], "http_stack": [], "started": []}


class TestConfigFile:
    @pytest.mark.parametrize("text, line", [
        ("epochs = 1\nepochs = 2\n", 2),
        ("epochs = 1\nnot a pair\n", 2),
        ("# a comment\n\nseed = 1\n[train]\nseed = 2\n[run]\n", 6),
        ("[train]\nepochs = 1\nepochs = 2\n", 3),
    ], ids=["headerless-duplicate", "headerless-no-pair", "headerless-duplicate-section", "duplicate"])
    def test_parse_error_names_the_file_and_its_line(self, store_file, tmp_path, capsys, text, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out), "--data", DATA, "--store", store_file]) == 1
        err = capsys.readouterr().err
        assert f"ConfigError: cannot parse config {cfg}: " in err
        assert re.search(rf"{re.escape(repr(str(cfg)))}.*\[line +{line}\]", err, re.DOTALL), err
        assert "<string>" not in err
        assert not out.exists()

    def test_sections_and_overrides(self, store_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[data]\n"
            f"data = {DATA}\n"
            f"store = {store_file}\n"
            "[train]\n"
            "epochs = 1\n"
            "max-steps = 2\n"
            "pretrain_steps = 3\n"
            "seed = 5\n"
            "margin = 0.7\n"
            "weighted_ce = false\n"
            "grad_clip = none\n"
        )
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--out", str(out), "--seed", "6"])
        assert rc == 0
        doc = json.loads((out / "metrics.json").read_text())
        echo = doc["config_echo"]["train_config"]
        assert echo["seed"] == 6          # flag overrides file
        assert echo["margin"] == 0.7      # file value used
        assert echo["weighted_ce"] is False
        assert echo["grad_clip"] is None  # `none`: no clipping

    def test_unknown_distance_exits_one_before_pretraining(self, store_file, tmp_path, capsys, monkeypatch):
        from ercml import training

        def no_pretraining(*args, **kwargs):
            raise AssertionError("pretraining started")

        monkeypatch.setattr(training, "pretrain_classifier", no_pretraining)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {DATA}\nstore = {store_file}\ndistance = manhattan\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out), *FAST_TRAIN]) == 1
        assert "ConfigError" in capsys.readouterr().err
        assert not (out / "model.npz").exists()

    def test_unknown_loss_mode_exits_one_before_loading_data(self, store_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {DATA}\nstore = {store_file}\nloss_mode = bogus\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert "ConfigError: loss_mode must be one of ('alternating', 'summed')" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_batch_size_exits_one_without_traceback(self, store_file, tmp_path):
        out = tmp_path / "run"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "ercml.cli", "train", "--data", DATA, "--store", store_file,
             "--out", str(out), *FAST_TRAIN, "--batch-size", "0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "ConfigError: batch_size must be > 0" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / "model.npz").exists()

    @pytest.mark.parametrize("command", ["train", "pretrain"])
    def test_empty_store_is_unset(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {DATA}\nstore =\n")
        assert read_config_file(cfg) == {"data": DATA}
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out), *FAST_TRAIN]) == 1
        assert "ConfigError: missing required option --store (flag or config file)" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_types(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("[a]\nepochs=3\nlearning_rate=0.01\ntriplet_enabled=no\nffn_dim=none\n")
        opts = read_config_file(cfg)
        assert opts == {"epochs": 3, "learning_rate": 0.01,
                        "triplet_enabled": False, "ffn_dim": None}

    def test_percent_is_read_literally(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("store = /tmp/100%store.jsonl\ndata = %(x)s\n")
        assert read_config_file(cfg) == {"store": "/tmp/100%store.jsonl", "data": "%(x)s"}

    @pytest.mark.parametrize("line", ["weighted_ce=maybe", "epochs=abc", "learning_rate=fast", "batch_size=1.5"])
    def test_bad_value_raises(self, tmp_path, line):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"[a]\n{line}\n")
        key, raw = line.split("=")
        with pytest.raises(ConfigError, match=f"config key {key}: cannot parse .* from '{re.escape(raw)}'"):
            read_config_file(cfg)

    def test_bad_value_exits_one_without_traceback(self, store_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {DATA}\nstore = {store_file}\nepochs = abc\n")
        out = tmp_path / "run"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "ercml.cli", "train", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "ConfigError: config key epochs: cannot parse int from 'abc'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / "model.npz").exists()

    @pytest.mark.parametrize("key, value", [("label-space", 6), ("epoch", 2)])
    def test_unknown_key_exits_one_before_loading_data(self, store_file, tmp_path, capsys, monkeypatch, key, value):
        from ercml import cli

        def no_loading(*args, **kwargs):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli, "load_split", no_loading)
        monkeypatch.setattr(cli, "load_sentence_embeddings", no_loading)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {DATA}\nstore = {store_file}\n{key} = {value}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out), *FAST_TRAIN]) == 1
        assert f"ConfigError: config {cfg}: unknown key '{key}'" in capsys.readouterr().err
        assert not (out / "model.npz").exists()

    @pytest.mark.parametrize("key", ["weighted_ce", "epochs"])
    def test_none_for_a_required_field_exits_one_before_loading_data(
        self, store_file, tmp_path, capsys, monkeypatch, key
    ):
        from ercml import cli

        def no_loading(*args, **kwargs):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli, "load_split", no_loading)
        monkeypatch.setattr(cli, "load_sentence_embeddings", no_loading)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {DATA}\nstore = {store_file}\n{key} = none\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"ConfigError: {key} must not be None" in capsys.readouterr().err
        assert not (out / "model.npz").exists()

    def test_every_train_field_has_a_flag_and_parses_to_its_type(self, tmp_path):
        hints = typing.get_type_hints(TrainConfig)
        declared = {  # int, float, bool or str, with `| None` dropped
            name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
            for name, hint in hints.items()
        }
        defaults = {f.name: f.default for f in fields(TrainConfig)}
        samples = {int: "3", float: "0.5", bool: "false"}
        lines = []
        for name, kind in declared.items():
            raw = defaults[name] if kind is str else samples[kind]
            flag = "--" + name.replace("_", "-")
            argv = ["train", "--out", "x", flag] + ([] if kind is bool else [raw])
            parsed = getattr(build_parser().parse_args(argv), name)
            assert type(parsed) is kind, (flag, parsed)
            lines.append(f"{name} = {raw}")
        cfg = tmp_path / "all.cfg"
        cfg.write_text("[train]\n" + "\n".join(lines) + "\n")
        opts = read_config_file(cfg)
        assert set(opts) == set(defaults)
        for name, kind in declared.items():
            assert type(opts[name]) is kind, (name, opts[name])


class TestOfferedChoices:
    """Each flag with a fixed list of values offers the library's list."""

    @staticmethod
    def choices() -> dict[tuple[str, str], tuple | None]:
        """(subcommand, flag) -> the values the flag offers, for every flag."""
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        return {
            (command, flag): action.choices
            for command, parser in sub.choices.items() for action in parser._actions for flag in action.option_strings
        }

    @pytest.mark.parametrize("command", ["pretrain", "train"])
    def test_train_config_fields(self, command):
        offered = self.choices()
        for name, allowed in CHOICES.items():
            assert offered[command, "--" + name.replace("_", "-")] == allowed
        assert offered[command, "--label-space"] is None  # 5 exits 1 with ConfigError, not 2

    def test_splits_and_policies(self):
        offered = self.choices()
        assert {key: values for key, values in offered.items() if "split" in key[1]} == {
            ("stats", "--split"): SPLITS, ("train", "--eval-split"): SPLITS, ("eval", "--split"): SPLITS,
            ("predict", "--split"): SPLITS, ("sample-triplets", "--split"): SPLITS, ("llm-eval", "--split"): SPLITS,
        }
        assert offered["llm-eval", "--policy"] == UNPARSABLE_POLICIES
        assert offered["train", "--neutral-policy"] == F1_POLICIES
        assert offered["eval", "--neutral-policy"] == NEUTRAL_POLICIES
