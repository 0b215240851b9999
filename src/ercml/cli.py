"""Command-line entry point.

Subcommands: stats, pretrain, train, eval, predict, sample-triplets,
llm-eval. Options resolve as defaults < config file < flags; the fully
resolved configuration (plus the seed) is echoed verbatim into every
artifact written. Exit codes: 0 success, 1 data/model error, 2 usage.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import sys
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import classifier_from_tensors, classifier_to_tensors
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import LABEL_NAMES, corpus_stats, format_stats, label_weights, load_split, utt_key
from .embeddings import load_sentence_embeddings, load_word_table
from .errors import ConfigError, ErcmlError
from .llm import HttpGenerationClient, ReplayClient, evaluate_llm, resolve_template, write_generation_log
from .metrics import format_report
from .training import (
    LOSS_MODES,
    SAMPLING_STRATEGIES,
    ContextualModel,
    TrainConfig,
    evaluate_model,
    predict,
    pretrain_from_config,
    save_isolated,
    train_contextual,
    train_isolated,
)
from .triplets import corpus_pool, sample_triplets

logger = logging.getLogger(__name__)

# TrainConfig field -> int, float, bool or str, read off its type hint
# with any `| None` dropped; the flags and the config-file parser follow it.
_TRAIN_FIELDS = {
    name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    for name, hint in typing.get_type_hints(TrainConfig).items()
}
_CHOICES = {
    "distance": ("euclidean", "cosine"),
    "sampling_strategy": SAMPLING_STRATEGIES,
    "loss_mode": LOSS_MODES,
    "subnetwork": ("linear", "lstm"),
}


def _parse_config_value(key: str, raw: str):
    raw = raw.strip()
    if raw.lower() in ("none", ""):
        return None
    kind = _TRAIN_FIELDS[key]
    if kind is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key}: cannot parse boolean from {raw!r}")
    return kind(raw)


def read_config_file(path: str | Path) -> dict:
    """Flat key=value file with sections; section names are cosmetic."""
    parser = configparser.ConfigParser()
    text = Path(path).read_text(encoding="utf-8")
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError:
        parser.read_string("[run]\n" + text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    merged: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            key = key.replace("-", "_")
            if key in _TRAIN_FIELDS:
                merged[key] = _parse_config_value(key, raw)
            else:
                merged[key] = raw.strip()
    return merged


def build_train_config(args: argparse.Namespace, file_options: dict) -> TrainConfig:
    resolved = {k: v for k, v in file_options.items() if k in _TRAIN_FIELDS}
    for name in _TRAIN_FIELDS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            resolved[name] = flag_value
    return TrainConfig(**resolved)


def _resolve_path_option(args: argparse.Namespace, file_options: dict, key: str, required: bool = False):
    """Paths resolve as flag > config file; `required` errors when absent."""
    value = getattr(args, key, None)
    if value is None:
        value = file_options.get(key)
        if value is not None:
            setattr(args, key, value)
    if required and value is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')} (flag or config file)")
    return value


def _add_train_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("training options (override the config file)")
    for name, kind in _TRAIN_FIELDS.items():
        flags = [f"--{name.replace('_', '-')}"]
        if name == "label_space_size":
            flags.append("--label-space")
        if kind is bool:
            group.add_argument(*flags, action=argparse.BooleanOptionalAction, default=None, dest=name)
        else:
            group.add_argument(*flags, type=kind, choices=_CHOICES.get(name), default=None, dest=name)


def _config_echo(args: argparse.Namespace, train_config: TrainConfig | None = None) -> dict:
    echo = {
        "command": args.command,
        "version": __version__,
    }
    for key, value in sorted(vars(args).items()):
        if key in ("command", "func") or value is None:
            continue
        if key in _TRAIN_FIELDS:
            continue  # captured via the resolved train config below
        echo[key] = str(value) if isinstance(value, Path) else value
    if train_config is not None:
        echo["train_config"] = train_config.as_echo()
    return echo


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- subcommands -------------------------------------------------------------

def cmd_stats(args) -> int:
    corpus = load_split(args.data, args.split)
    text = format_stats(corpus_stats(corpus))
    sys.stdout.write(text)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return 0


def cmd_pretrain(args) -> int:
    file_options = read_config_file(args.config) if args.config else {}
    config = build_train_config(args, file_options)
    _resolve_path_option(args, file_options, "data", required=True)
    _resolve_path_option(args, file_options, "store", required=True)
    corpus = load_split(args.data, "train")
    store = load_sentence_embeddings(args.store)
    params = pretrain_from_config(corpus, store, config)
    out = _out_dir(args)
    tensors, meta = classifier_to_tensors(params)
    echo = _config_echo(args, config)
    meta["config_echo"] = echo
    meta["seed"] = config.seed
    save_checkpoint(out / "classifier.npz", "classifier", tensors, meta)
    _write_json(out / "pretrain.json", {
        "steps": config.resolved_pretrain_steps(corpus), "config_echo": echo, "seed": config.seed,
    })
    print(f"classifier checkpoint written to {out / 'classifier.npz'}")
    return 0


def cmd_train(args) -> int:
    file_options = read_config_file(args.config) if args.config else {}
    config = build_train_config(args, file_options)
    _resolve_path_option(args, file_options, "data", required=True)
    if args.model_kind == "isolated":
        _resolve_path_option(args, file_options, "word_table", required=True)
    else:
        _resolve_path_option(args, file_options, "store", required=True)
    echo = _config_echo(args, config)
    out = _out_dir(args)
    train_corpus = load_split(args.data, "train")

    log_path = out / "train.log"
    log_path.write_text(
        "config_echo = " + json.dumps(echo, sort_keys=True) + "\n", encoding="utf-8"
    )
    handler = logging.FileHandler(log_path, mode="a", encoding="utf-8")
    handler.setFormatter(logging.Formatter("%(message)s"))
    handler.setLevel(logging.INFO)
    training_logger = logging.getLogger("ercml.training")
    previous_level, previous_propagate = training_logger.level, training_logger.propagate
    training_logger.addHandler(handler)
    training_logger.setLevel(logging.INFO)
    # step lines go to train.log only, not also to the root handler's stderr
    training_logger.propagate = False
    try:
        if args.model_kind == "isolated":
            table = load_word_table(args.word_table)
            model = train_isolated(train_corpus, table, config)
            save_isolated(model, out / "model.npz")
            _write_json(out / "summary.json", {
                "model_kind": "isolated",
                "subnetwork": model.kind,
                "config_echo": echo,
                "seed": config.seed,
            })
            print(f"isolated model written to {out / 'model.npz'}")
            return 0

        store = load_sentence_embeddings(args.store)
        eval_corpus = load_split(args.data, args.eval_split)
        store.check_covers(eval_corpus)
        classifier = None
        if args.classifier:
            _, tensors, meta = load_checkpoint(args.classifier, expect_kind="classifier")
            classifier = classifier_from_tensors(tensors, meta)
        model = train_contextual(train_corpus, store, config, classifier=classifier)
        model.config_echo = echo
        model.save(out / "model.npz")
        report = evaluate_model(model, eval_corpus, store, neutral_policy=args.neutral_policy)
        doc = report.to_dict(config_echo=echo)
        doc["seed"] = config.seed
        doc["split"] = args.eval_split
        _write_json(out / "metrics.json", doc)
        sys.stdout.write(format_report(report))
        print(f"model written to {out / 'model.npz'}; metrics to {out / 'metrics.json'}")
        return 0
    finally:
        training_logger.removeHandler(handler)
        training_logger.setLevel(previous_level)
        training_logger.propagate = previous_propagate
        handler.close()


def cmd_eval(args) -> int:
    model = ContextualModel.load(args.model)
    corpus = load_split(args.data, args.split)
    store = load_sentence_embeddings(args.store)
    store.check_covers(corpus)
    echo = _config_echo(args)
    if args.include_neutral:
        from .metrics import confusion, report_from_confusion
        from .training import predict_corpus

        preds, golds = predict_corpus(model, corpus, store)
        names = tuple(LABEL_NAMES[i] for i in model.classifier.label_space)
        report = report_from_confusion(
            confusion(preds, golds, names),
            extras={"comparable": False},
            score_all_labels=True,
        )
    else:
        report = evaluate_model(model, corpus, store, neutral_policy=args.neutral_policy)
    doc = report.to_dict(config_echo=echo)
    doc["split"] = args.split
    doc["seed"] = model.config_echo.get("train_config", {}).get("seed", model.config_echo.get("seed"))
    sys.stdout.write(format_report(report))
    if args.out:
        _write_json(Path(args.out), doc)
    return 0


def cmd_predict(args) -> int:
    model = ContextualModel.load(args.model)
    corpus = load_split(args.data, args.split)
    store = load_sentence_embeddings(args.store)
    store.check_covers(corpus)
    lines = []
    for dialog in corpus.dialogs:
        for utt, pred in zip(dialog.utterances, predict(model, dialog, store)):
            lines.append(json.dumps({
                "key": utt_key(dialog.id, utt.index),
                "pred": LABEL_NAMES[pred],
                "gold": LABEL_NAMES[utt.label],
            }, sort_keys=True))
    text = "\n".join(lines) + "\n"
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_sample_triplets(args) -> int:
    corpus = load_split(args.data, args.split)
    include_neutral = args.include_neutral
    pool = corpus_pool(corpus, include_neutral=include_neutral)
    weights = label_weights(corpus, include_neutral=include_neutral, smooth_counts=args.smooth_counts)
    rng = np.random.default_rng(args.seed)
    triplets = sample_triplets(pool, count=args.count, weights=weights, rng=rng)
    lines = [
        json.dumps({"a": t.anchor.key, "p": t.positive.key, "n": t.negative.key})
        for t in triplets
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_llm_eval(args) -> int:
    corpus = load_split(args.data, args.split)
    template = resolve_template(args.template)
    if args.replay:
        client = ReplayClient.from_file(args.replay)
    elif args.endpoint:
        client = HttpGenerationClient(
            url=args.endpoint,
            max_retries=args.max_retries,
            max_new_tokens=args.max_new_tokens,
        )
    else:
        raise ConfigError("llm-eval needs --replay FILE or --endpoint URL")
    result = evaluate_llm(
        client, corpus, template,
        unparsable_policy=args.policy,
        parallelism=args.parallelism,
    )
    out = _out_dir(args)
    echo = _config_echo(args)
    doc = result.report.to_dict(config_echo=echo)
    _write_json(out / "llm_metrics.json", doc)
    write_generation_log(result.records, out / "generations.jsonl")
    sys.stdout.write(format_report(result.report))
    print(
        f"dialogs={result.n_dialogs} failed={result.n_failed} unparsable={result.n_unparsable} "
        f"modal={result.modal_label} share={result.modal_share:.2%} collapse={result.collapse_flagged}"
    )
    return 0


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ercml",
        description="Contextual metric learning for emotion recognition in conversation.",
    )
    parser.add_argument("--version", action="version", version=f"ercml {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="corpus statistics report")
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--split", default="train", choices=("train", "validation", "test"))
    p.add_argument("--out", default=None, help="also write the report to this file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("pretrain", help="pretrain the emotion classifier standalone")
    p.add_argument("--data", default=None)
    p.add_argument("--store", default=None, help="sentence-embedding JSONL export")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="key=value config file")
    _add_train_options(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="train the contextual model (or the isolated baseline)")
    p.add_argument("--data", default=None)
    p.add_argument("--store", default=None, help="sentence-embedding JSONL export (contextual)")
    p.add_argument("--word-table", default=None, dest="word_table", help="word-vector table (isolated)")
    p.add_argument("--model-kind", default="contextual", choices=("contextual", "isolated"), dest="model_kind")
    p.add_argument("--classifier", default=None, help="pretrained classifier checkpoint")
    p.add_argument("--eval-split", default="test", choices=("train", "validation", "test"), dest="eval_split")
    p.add_argument("--neutral-policy", default="attribute", choices=("attribute", "drop"), dest="neutral_policy")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None)
    _add_train_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model on a split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--split", default="test", choices=("train", "validation", "test"))
    p.add_argument("--neutral-policy", default="attribute", choices=("attribute", "drop"), dest="neutral_policy")
    p.add_argument(
        "--include-neutral", action="store_true", dest="include_neutral",
        help="diagnostics only: score neutral as a class; report marked non-comparable",
    )
    p.add_argument("--out", default=None, help="metrics JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="per-utterance predictions as JSON lines")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--split", default="test", choices=("train", "validation", "test"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sample-triplets", help="emit weighted-random triplets as JSON lines")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="train", choices=("train", "validation", "test"))
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--include-neutral", action=argparse.BooleanOptionalAction, default=False,
        dest="include_neutral",
    )
    p.add_argument("--smooth-counts", type=int, default=None, dest="smooth_counts")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample_triplets)

    p = sub.add_parser("llm-eval", help="zero-shot generation baseline on last utterances")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "validation", "test"))
    p.add_argument("--template", default="llama-style", help="builtin name or template file")
    p.add_argument("--endpoint", default=None, help="HTTP JSON generation endpoint")
    p.add_argument("--replay", default=None, help="JSONL replay fixture for offline runs")
    p.add_argument("--policy", default="count-as-wrong", choices=("count-as-wrong", "map-to-neutral"))
    p.add_argument("--parallelism", type=int, default=4)
    p.add_argument("--max-retries", type=int, default=2, dest="max_retries")
    p.add_argument("--max-new-tokens", type=int, default=16, dest="max_new_tokens")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_llm_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ErcmlError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
