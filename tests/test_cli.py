from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import typing
from dataclasses import fields, replace
from pathlib import Path

import pytest

from ercml.checkpoint import load_checkpoint, save_checkpoint
from ercml.cli import build_parser, main, read_config_file
from ercml.corpus import Corpus, load_split
from ercml.embeddings import hash_store_for_corpus, load_sentence_embeddings, save_sentence_embeddings
from ercml.errors import ConfigError
from ercml.training import TrainConfig, train_contextual

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
        pre = tmp_path / "pre"
        main(["pretrain", "--data", DATA, "--store", store_file,
              "--out", str(pre), "--pretrain-steps", "4"])
        out = tmp_path / "run"
        rc = main([
            "train", "--data", DATA, "--store", store_file, "--out", str(out),
            "--classifier", str(pre / "classifier.npz"), *FAST_TRAIN,
        ])
        assert rc == 0


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

    def test_requires_client_source(self, tmp_path):
        rc = main(["llm-eval", "--data", DATA, "--out", str(tmp_path / "x")])
        assert rc == 1


class TestConfigFile:
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
        )
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--out", str(out), "--seed", "6"])
        assert rc == 0
        doc = json.loads((out / "metrics.json").read_text())
        echo = doc["config_echo"]["train_config"]
        assert echo["seed"] == 6          # flag overrides file
        assert echo["margin"] == 0.7      # file value used
        assert echo["weighted_ce"] is False

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

    def test_parse_types(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("[a]\nepochs=3\nlearning_rate=0.01\ntriplet_enabled=no\nffn_dim=none\n")
        opts = read_config_file(cfg)
        assert opts == {"epochs": 3, "learning_rate": 0.01,
                        "triplet_enabled": False, "ffn_dim": None}

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
