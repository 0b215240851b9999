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
from .corpus import (
    ALL_LABEL_IDS, EMOTION_IDS, LABEL_NAMES, Corpus, corpus_stats, format_stats, label_weights, load_split, utt_key,
)
from .embeddings import SentenceEmbeddingStore, load_sentence_embeddings
from .errors import ConfigError, ErcmlError, ProviderMismatch
from .llm import HttpGenerationClient, ReplayClient, evaluate_llm, resolve_template, write_generation_log
from .metrics import NEUTRAL_POLICIES, format_report
from .training import (
    DISTANCES,
    LOSS_MODES,
    LOWER_BOUNDS,
    SAMPLING_STRATEGIES,
    ContextualModel,
    TrainConfig,
    check_lower_bound,
    evaluate_model,
    predict,
    pretrain_from_config,
    train_contextual,
)
from .triplets import corpus_pool, sample_triplets

# TrainConfig field -> int, float, bool or str, read off its type hint
# with any `| None` dropped; the flags and the config-file parser follow it.
_TRAIN_FIELDS = {
    name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    for name, hint in typing.get_type_hints(TrainConfig).items()
}
_CHOICES = {
    "distance": DISTANCES,
    "sampling_strategy": SAMPLING_STRATEGIES,
    "loss_mode": LOSS_MODES,
}
# Config-file keys besides the TrainConfig fields: the paths that
# `_resolve_path_option` reads.
_PATH_KEYS = ("data", "store")
_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True), **dict.fromkeys(("0", "false", "no", "off"), False)}


def _parse_config_value(key: str, raw: str):
    raw = raw.strip()
    if raw.lower() in ("none", ""):
        return None
    kind = _TRAIN_FIELDS[key]
    try:
        return _BOOLS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"config key {key}: cannot parse {kind.__name__} from {raw!r}") from None


def read_config_file(path: str | Path) -> dict:
    """Flat key=value file with sections; section names are cosmetic.

    Raises:
        ConfigError: a key that is neither a TrainConfig field nor a path
            option, or a value that does not parse as its field's type.
    """
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
        for name, raw in parser.items(section):
            key = name.replace("-", "_")
            if key in _TRAIN_FIELDS:
                merged[key] = _parse_config_value(key, raw)
            elif key in _PATH_KEYS:
                merged[key] = raw.strip()
            else:
                raise ConfigError(f"config {path}: unknown key {name!r}")
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


def _write_text(path: str | Path | None, text: str) -> None:
    """Writes `text` to the file `path`, making its directory, or to
    stdout when `path` is None."""
    if path is None:
        sys.stdout.write(text)
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_json(path: str | Path, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


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
        _write_text(args.out, text)
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
    _resolve_path_option(args, file_options, "store", required=True)
    echo = _config_echo(args, config)
    out = _out_dir(args)
    train_corpus = load_split(args.data, "train")
    # train.log: one JSON line per record, the config echo and then each
    # step; line-buffered, so the log of a running job is current
    with open(out / "train.log", "w", encoding="utf-8", buffering=1) as log:
        def log_hook(record: dict) -> None:
            log.write(json.dumps(record, sort_keys=True) + "\n")

        log_hook({"config_echo": echo})
        store = load_sentence_embeddings(args.store)
        eval_corpus = load_split(args.data, args.eval_split)
        store.check_covers(eval_corpus)
        classifier = None
        if args.classifier:
            _, tensors, meta = load_checkpoint(args.classifier, expect_kind="classifier")
            classifier = classifier_from_tensors(tensors, meta)
        model = train_contextual(train_corpus, store, config, classifier=classifier, log_hook=log_hook)
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


def _load_scoring_inputs(args) -> tuple[ContextualModel, Corpus, SentenceEmbeddingStore]:
    """The model, split and store that `eval` and `predict` score.

    Raises:
        ProviderMismatch: the store's provider is not the one the model's
            checkpoint records.
        MissingEmbedding: the store does not cover the split.
    """
    model = ContextualModel.load(args.model)
    corpus = load_split(args.data, args.split)
    store = load_sentence_embeddings(args.store)
    if store.provider_name != model.provider_name:
        raise ProviderMismatch(
            f"store {args.store} has provider {store.provider_name!r}; "
            f"model {args.model} was trained on {model.provider_name!r}"
        )
    store.check_covers(corpus)
    return model, corpus, store


def cmd_eval(args) -> int:
    model, corpus, store = _load_scoring_inputs(args)
    echo = _config_echo(args)
    report = evaluate_model(model, corpus, store, neutral_policy=args.neutral_policy)
    doc = report.to_dict(config_echo=echo)
    doc["split"] = args.split
    doc["seed"] = model.config_echo.get("train_config", {}).get("seed", model.config_echo.get("seed"))
    sys.stdout.write(format_report(report))
    if args.out:
        _write_json(args.out, doc)
    return 0


def cmd_predict(args) -> int:
    model, corpus, store = _load_scoring_inputs(args)
    lines = []
    for dialog in corpus.dialogs:
        for utt, pred in zip(dialog.utterances, predict(model, dialog, store)):
            lines.append(json.dumps({
                "key": utt_key(dialog.id, utt.index),
                "pred": LABEL_NAMES[pred],
                "gold": LABEL_NAMES[utt.label],
            }, sort_keys=True))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_sample_triplets(args) -> int:
    for name in ("seed", "smooth_counts"):
        check_lower_bound(name, getattr(args, name), LOWER_BOUNDS[name])
    check_lower_bound("count", args.count, strict=True)
    corpus = load_split(args.data, args.split)
    labels = ALL_LABEL_IDS if args.include_neutral else EMOTION_IDS
    pool = corpus_pool(corpus, labels=labels)
    weights = label_weights(corpus, labels=labels, smooth_counts=args.smooth_counts)
    rng = np.random.default_rng(args.seed)
    triplets = sample_triplets(pool, count=args.count, weights=weights, rng=rng)
    lines = [
        json.dumps({"a": t.anchor.key, "p": t.positive.key, "n": t.negative.key})
        for t in triplets
    ]
    _write_text(args.out, "\n".join(lines) + "\n")
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

    p = sub.add_parser("train", help="train the contextual model")
    p.add_argument("--data", default=None)
    p.add_argument("--store", default=None, help="sentence-embedding JSONL export")
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
    p.add_argument(
        "--neutral-policy", default="attribute", choices=NEUTRAL_POLICIES, dest="neutral_policy",
        help="`include` is diagnostics only: neutral is scored as a class, the report is "
        "marked non-comparable, and a 6-label model exits 1",
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
