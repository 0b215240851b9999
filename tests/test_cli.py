from __future__ import annotations

import json
import os
import subprocess
import sys
import typing
from dataclasses import fields
from pathlib import Path

import pytest

from ercml.checkpoint import load_checkpoint, save_checkpoint
from ercml.cli import build_parser, main, read_config_file
from ercml.corpus import Corpus, load_split
from ercml.embeddings import hash_store_for_corpus, save_sentence_embeddings
from ercml.errors import ConfigError
from ercml.training import TrainConfig

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
        log_lines = (out / "train.log").read_text().strip().split("\n")
        assert any("ce=" in line and "triplet=" in line for line in log_lines)

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
            "--store", store_file, "--split", "test", "--include-neutral",
            "--out", str(metrics_path),
        ])
        assert rc == 0
        doc = json.loads(metrics_path.read_text())
        assert doc["comparable"] is False
        assert doc["includes_neutral"] is True

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
        steps = [line for line in (out / "train.log").read_text().splitlines() if line.startswith("step=")]
        assert len(steps) == 2
        assert "step=" not in proc.stderr

    def test_bad_isolated_checkpoint_exits_one(self, tmp_path, capsys):
        table = tmp_path / "words.txt"
        table.write_text("the 0.1 0.2 0.3 0.4\nand 0.4 0.3 0.2 0.1\n")
        out = tmp_path / "iso"
        main(["train", "--data", DATA, "--model-kind", "isolated", "--word-table", str(table),
              "--out", str(out), "--epochs", "1", "--max-steps", "1", "--rep-dim", "4", "--seed", "0"])
        kind, tensors, meta = load_checkpoint(out / "model.npz")
        del tensors["w"]
        save_checkpoint(tmp_path / "bad.npz", kind, tensors, meta)
        capsys.readouterr()
        for command in ("eval", "predict"):
            rc = main([command, "--model", str(tmp_path / "bad.npz"), "--data", DATA,
                       "--store", str(table), "--split", "test"])
            assert rc == 1
            assert "CheckpointError" in capsys.readouterr().err

    def test_isolated_training(self, tmp_path):
        table = tmp_path / "words.txt"
        table.write_text("the 0.1 0.2 0.3 0.4\nand 0.4 0.3 0.2 0.1\n")
        out = tmp_path / "iso"
        rc = main([
            "train", "--data", DATA, "--model-kind", "isolated",
            "--word-table", str(table), "--out", str(out),
            "--epochs", "1", "--max-steps", "2", "--rep-dim", "4", "--seed", "0",
        ])
        assert rc == 0
        assert (out / "model.npz").exists()
        assert json.loads((out / "summary.json").read_text())["model_kind"] == "isolated"


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

    def test_parse_types(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("[a]\nepochs=3\nlearning_rate=0.01\ntriplet_enabled=no\nffn_dim=none\n")
        opts = read_config_file(cfg)
        assert opts == {"epochs": 3, "learning_rate": 0.01,
                        "triplet_enabled": False, "ffn_dim": None}

    def test_bad_bool_raises(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("[a]\nweighted_ce=maybe\n")
        with pytest.raises(ConfigError):
            read_config_file(cfg)

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
