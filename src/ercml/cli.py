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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import load_classifier, save_classifier
from .corpus import LABEL_NAMES, Corpus, corpus_stats, format_stats, load_split, read_utf8, utt_key, write_atomic
from .embeddings import SentenceEmbeddingStore, load_sentence_embeddings
from .errors import ConfigError, ErcmlError, MissingFile, ProviderMismatch
from .llm import HttpGenerationClient, ReplayClient, evaluate_llm, resolve_template
from .metrics import NEUTRAL_POLICIES, format_report
from .training import (
    DISTANCES,
    FIELD_TYPES,
    LOSS_MODES,
    SAMPLING_STRATEGIES,
    ContextualModel,
    TrainConfig,
    check_lower_bound,
    evaluate_model,
    predict_dialogs,
    pretrain_from_config,
    train_contextual,
)
from .triplets import UttRef, sample_triplets

_CHOICES = {
    "distance": DISTANCES,
    "sampling_strategy": SAMPLING_STRATEGIES,
    "loss_mode": LOSS_MODES,
}
# Config-file keys besides the TrainConfig fields: the paths that
# `_resolve_run` reads.
_PATH_KEYS = ("data", "store")


def _parse_config_value(key: str, raw: str):
    """`raw` as its field's type; `none` or an empty value is None, which
    TrainConfig accepts only for its optional fields."""
    raw = raw.strip()
    if raw.lower() in ("none", ""):
        return None
    kind, _ = FIELD_TYPES[key]
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"config key {key}: cannot parse {kind.__name__} from {raw!r}") from None


def _without_header_line(exc: configparser.Error) -> configparser.Error:
    """`exc` with the file's own line numbers, for a file read with a
    `[run]` line prepended."""
    if isinstance(exc, configparser.ParsingError):
        moved = configparser.ParsingError(exc.source)
        for lineno, line in exc.errors:
            moved.append(lineno - 1, line)
        return moved
    if isinstance(exc, (configparser.DuplicateSectionError, configparser.DuplicateOptionError)):
        return type(exc)(*exc.args[:-1], exc.lineno - 1)
    return exc


def read_config_file(path: str | Path) -> dict:
    """Flat key=value file with sections; section names are cosmetic.

    Raises:
        MissingFile: no file at `path`.
        ConfigError: a file that is not UTF-8 key=value text, a key that is neither
            a TrainConfig field nor a path option, or a value that does
            not parse as its field's type.

    An empty path value is left out, as if the key were absent.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)  # a `%` is read as written
    text = read_utf8(path, ConfigError)
    try:
        try:
            parser.read_string(text, source=str(path))
        except configparser.MissingSectionHeaderError:
            try:
                parser.read_string("[run]\n" + text, source=str(path))
            except configparser.Error as exc:
                raise _without_header_line(exc) from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    merged: dict = {}
    for section in parser.sections():
        for name, raw in parser.items(section):
            key = name.replace("-", "_")
            if key in FIELD_TYPES:
                merged[key] = _parse_config_value(key, raw)
            elif key in _PATH_KEYS:
                if raw.strip():  # an empty path is unset, not the directory `.`
                    merged[key] = raw.strip()
            else:
                raise ConfigError(f"config {path}: unknown key {name!r}")
    return merged


def _resolve_run(args: argparse.Namespace) -> TrainConfig:
    """The settings of a `pretrain` or `train` run: TrainConfig's defaults,
    then the config file, then the flags. `--data` and `--store` come from
    the flag or else the file; a path taken from the file is written back
    to `args`, so the config echo records it.

    Raises:
        MissingFile, ConfigError: see :func:`read_config_file`.
        ConfigError: a setting TrainConfig refuses, or neither the flag
            nor the file sets `--data` or `--store`; a bad setting is
            reported first.
    """
    options = read_config_file(args.config) if args.config else {}
    settings = {k: v for k, v in options.items() if k not in _PATH_KEYS}
    settings.update((name, getattr(args, name)) for name in FIELD_TYPES if getattr(args, name) is not None)
    config = TrainConfig(**settings)
    for key in _PATH_KEYS:
        if getattr(args, key) is None:
            if key not in options:
                raise ConfigError(f"missing required option --{key} (flag or config file)")
            setattr(args, key, options[key])
    return config


def _config_echo(args: argparse.Namespace, train_config: TrainConfig | None = None) -> dict:
    echo = {
        "command": args.command,
        "version": __version__,
    }
    for key, value in sorted(vars(args).items()):
        if key in ("command", "func") or value is None:
            continue
        if key in FIELD_TYPES:
            continue  # captured via the resolved train config below
        echo[key] = str(value) if isinstance(value, Path) else value
    if train_config is not None:
        echo["train_config"] = train_config.as_echo()
    return echo


def _write_text(path: str | Path | None, text: str) -> None:
    """Writes `text` to the file `path`, whole or not at all, or to
    stdout when `path` is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        write_atomic(path, lambda fh: fh.write(text.encode("utf-8")))


def _write_json(path: str | Path, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# --- subcommands -------------------------------------------------------------

def cmd_stats(args) -> int:
    corpus = load_split(args.data, args.split)
    text = format_stats(corpus_stats(corpus))
    sys.stdout.write(text)
    if args.out:
        _write_text(args.out, text)
    return 0


def cmd_pretrain(args) -> int:
    config = _resolve_run(args)
    corpus = load_split(args.data, "train")
    store = load_sentence_embeddings(args.store)
    store.check_covers(corpus)
    params = pretrain_from_config(corpus, store, config)
    out = Path(args.out)
    echo = _config_echo(args, config)
    save_classifier(out / "classifier.npz", params, store.provider_name, echo, config.seed)
    _write_json(out / "pretrain.json", {
        "steps": config.resolved_pretrain_steps(corpus), "config_echo": echo, "seed": config.seed,
    })
    print(f"classifier checkpoint written to {out / 'classifier.npz'}")
    return 0


def cmd_train(args) -> int:
    config = _resolve_run(args)
    echo = _config_echo(args, config)
    # Every input is loaded and checked before `--out` is made, so a bad
    # input leaves no half-written run behind.
    train_corpus = load_split(args.data, "train")
    eval_corpus = load_split(args.data, args.eval_split)
    store = load_sentence_embeddings(args.store)
    store.check_covers(train_corpus)
    store.check_covers(eval_corpus)
    classifier = None
    if args.classifier:
        classifier, provider = load_classifier(args.classifier)
        _check_provider(store, args.store, provider, args.classifier)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # An earlier run's results go before its log does, so a rerun that dies
    # leaves no directory that looks finished; metrics.json marks a finished run.
    for name in ("metrics.json", "model.npz"):
        (out / name).unlink(missing_ok=True)
    # train.log: one JSON line per record, the config echo and then each
    # step; line-buffered, so the log of a running job is current
    with open(out / "train.log", "w", encoding="utf-8", buffering=1) as log:
        def log_hook(record: dict) -> None:
            log.write(json.dumps(record, sort_keys=True) + "\n")

        log_hook({"config_echo": echo})
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


def _check_provider(store: SentenceEmbeddingStore, store_path, provider: str, model_path) -> None:
    """Raises ProviderMismatch unless `store` comes from `provider`, the
    provider the checkpoint at `model_path` records."""
    if store.provider_name != provider:
        raise ProviderMismatch(
            f"store {store_path} has provider {store.provider_name!r}; "
            f"model {model_path} was trained on {provider!r}"
        )


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
    _check_provider(store, args.store, model.provider_name, args.model)
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
    lines = [
        json.dumps({
            "key": utt_key(dialog.id, utt.index), "pred": LABEL_NAMES[pred], "gold": LABEL_NAMES[utt.label],
        }, sort_keys=True)
        for dialog, labels in predict_dialogs(model, corpus.dialogs, store)
        for utt, pred in zip(dialog.utterances, labels)
    ]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_sample_triplets(args) -> int:
    config = TrainConfig(
        seed=args.seed, smooth_counts=args.smooth_counts, label_space_size=7 if args.include_neutral else 6
    )
    check_lower_bound("count", args.count, strict=True)
    corpus = load_split(args.data, args.split)
    pool = [(UttRef(d.id, u.index), u.label) for d, u in corpus.iter_utterances() if u.label in config.label_space()]
    rng = np.random.default_rng(config.seed)
    triplets = sample_triplets(pool, count=args.count, weights=config.class_weights(corpus), rng=rng)
    lines = [
        json.dumps({"a": t.anchor.key, "p": t.positive.key, "n": t.negative.key})
        for t in triplets
    ]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_llm_eval(args) -> int:
    check_lower_bound("parallelism", args.parallelism, strict=True)
    check_lower_bound("max_retries", args.max_retries, strict=False)
    check_lower_bound("max_new_tokens", args.max_new_tokens, strict=True)
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
    out = Path(args.out)
    echo = _config_echo(args)
    doc = result.report.to_dict(config_echo=echo)
    _write_json(out / "llm_metrics.json", doc)
    lines = [json.dumps(asdict(record), sort_keys=True) + "\n" for record in result.records]
    _write_text(out / "generations.jsonl", "".join(lines))
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

    # the flags `pretrain` and `train` share
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--data", default=None)
    run.add_argument("--store", default=None, help="sentence-embedding JSONL export")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--config", default=None, help="key=value config file")
    group = run.add_argument_group("training options (override the config file)")
    for name, (kind, _) in FIELD_TYPES.items():
        flags = [f"--{name.replace('_', '-')}"]
        if name == "label_space_size":
            flags.append("--label-space")
        if kind is bool:
            group.add_argument(*flags, action=argparse.BooleanOptionalAction, default=None, dest=name)
        else:
            group.add_argument(*flags, type=kind, choices=_CHOICES.get(name), default=None, dest=name)

    # the flags `eval` and `predict` share
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--model", required=True)
    scoring.add_argument("--data", required=True)
    scoring.add_argument("--store", required=True)
    scoring.add_argument("--split", default="test", choices=("train", "validation", "test"))

    p = sub.add_parser("stats", help="corpus statistics report")
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--split", default="train", choices=("train", "validation", "test"))
    p.add_argument("--out", default=None, help="also write the report to this file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("pretrain", parents=[run], help="pretrain the emotion classifier standalone")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", parents=[run], help="train the contextual model")
    p.add_argument("--classifier", default=None, help="pretrained classifier checkpoint")
    p.add_argument("--eval-split", default="test", choices=("train", "validation", "test"), dest="eval_split")
    p.add_argument("--neutral-policy", default="attribute", choices=("attribute", "drop"), dest="neutral_policy")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[scoring], help="evaluate a trained model on a split")
    p.add_argument(
        "--neutral-policy", default="attribute", choices=NEUTRAL_POLICIES, dest="neutral_policy",
        help="`include` is diagnostics only: neutral is scored as a class, the report is "
        "marked non-comparable, and a 6-label model exits 1",
    )
    p.add_argument("--out", default=None, help="metrics JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", parents=[scoring], help="per-utterance predictions as JSON lines")
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
