"""DailyDialog-format corpus parsing, validation, and label statistics.

The on-disk format is the official distribution layout: one dialog per
line, utterances delimited by the literal token ``__eou__``, and a
parallel label file carrying one space-separated integer sequence per
line. Label ids follow the official dataset convention and are the
single source of truth for every other module:

    0=neutral 1=anger 2=disgust 3=fear 4=happiness 5=sadness 6=surprise
"""

from __future__ import annotations

import contextlib
import logging
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

from .errors import (
    BadLabel,
    CountMismatch,
    EmptyCorpus,
    ErcmlError,
    LineCountMismatch,
    MalformedRecord,
    MissingFile,
    ZeroCount,
)

logger = logging.getLogger(__name__)

EOU = "__eou__"

LABEL_NAMES: tuple[str, ...] = (
    "neutral",
    "anger",
    "disgust",
    "fear",
    "happiness",
    "sadness",
    "surprise",
)
EMOTION_IDS: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
ALL_LABEL_IDS: tuple[int, ...] = tuple(range(len(LABEL_NAMES)))

SPLITS = ("train", "validation", "test")

# Dataset statistic, not a format constraint: longer dialogs only warn.
MAX_EXPECTED_DIALOG_LEN = 35


def read_utf8(path: Path, error: type[ErcmlError]) -> str:
    """The text of the file `path`; raises `error` when it is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.object[exc.start:exc.end]!r}: {exc.reason})") from None


def write_atomic(path: str | Path, write: Callable[[BinaryIO], object]) -> Path:
    """Writes the file `path` whole or not at all, making its directory.

    `write(fh)` fills a new temporary file beside `path`, which then
    replaces `path`; on any failure the temporary file is removed and the
    error re-raised, so `path` keeps what it held. The file's mode
    follows the umask, as a plain `open` does.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with tmp.open("xb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    return path


def utt_key(dialog_id: str, index: int) -> str:
    """Canonical utterance key, shared with the embedding store format."""
    return f"{dialog_id}#{index}"


@dataclass(frozen=True)
class Utterance:
    """One message of a dialog: position, trimmed text, label id."""

    index: int
    text: str
    label: int

    def __post_init__(self):
        if not self.text.strip():
            raise CountMismatch(f"utterance {self.index}: empty text segment")
        if not 0 <= self.label < len(LABEL_NAMES):
            raise BadLabel(f"utterance {self.index}: label {self.label} outside [0, 6]")


@dataclass(frozen=True)
class Dialog:
    """Ordered conversation with one emotion label per utterance."""

    id: str
    utterances: tuple[Utterance, ...]

    def __len__(self) -> int:
        return len(self.utterances)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(u.label for u in self.utterances)


@dataclass(frozen=True)
class Corpus:
    """A dataset split: dialogs plus the label histogram over all utterances."""

    split: str
    dialogs: tuple[Dialog, ...]
    label_histogram: dict[int, int] = field(init=False)

    def __post_init__(self):
        hist = {lid: 0 for lid in ALL_LABEL_IDS}
        for dialog in self.dialogs:
            for utt in dialog.utterances:
                hist[utt.label] += 1
        object.__setattr__(self, "label_histogram", hist)

    @property
    def n_utterances(self) -> int:
        return sum(self.label_histogram.values())

    def iter_utterances(self):
        """Yield (dialog, utterance) pairs in corpus order."""
        for dialog in self.dialogs:
            for utt in dialog.utterances:
                yield dialog, utt


@dataclass(frozen=True)
class CorpusStats:
    split: str
    n_dialogs: int
    n_utterances: int
    max_utt_per_dialog: int
    mean_utt_per_dialog: float
    mean_utt_rounded: int
    label_histogram: dict[int, int]


def parse_dialog_line(text_line: str, label_line: str, dialog_id: str) -> Dialog:
    """Parse one parallel (text, labels) line pair into a Dialog.

    The trailing empty segment after the final ``__eou__`` is ignored.

    Raises:
        CountMismatch: segment count differs from label count, or a
            segment is empty after trimming.
        BadLabel: a label token is not an integer in [0, 6].
    """
    segments = text_line.split(EOU)
    if segments and not segments[-1].strip():
        segments = segments[:-1]
    labels: list[int] = []
    for token in label_line.split():
        try:
            value = int(token)
        except ValueError:
            raise BadLabel(f"dialog {dialog_id}: non-integer label token {token!r}") from None
        if not 0 <= value < len(LABEL_NAMES):
            raise BadLabel(f"dialog {dialog_id}: label {value} outside [0, 6]")
        labels.append(value)
    if len(segments) != len(labels):
        raise CountMismatch(
            f"dialog {dialog_id}: {len(segments)} utterances vs {len(labels)} labels"
        )
    if not segments:
        raise CountMismatch(f"dialog {dialog_id}: no utterances")
    for i, seg in enumerate(segments):
        if not seg.strip():
            raise CountMismatch(f"dialog {dialog_id}: utterance {i}: empty text segment")
    utterances = tuple(
        Utterance(index=i, text=seg.strip(), label=lab)
        for i, (seg, lab) in enumerate(zip(segments, labels))
    )
    if len(utterances) > MAX_EXPECTED_DIALOG_LEN:
        logger.warning(
            "dialog %s has %d utterances (dataset max is %d)",
            dialog_id, len(utterances), MAX_EXPECTED_DIALOG_LEN,
        )
    return Dialog(id=dialog_id, utterances=utterances)


def _resolve_split_files(directory: Path, split: str) -> tuple[Path, Path]:
    """Locate the dialog-text and emotion-label files for a split.

    Accepts the official zip layout (per-split subdirectories) as well as
    a flattened directory.
    """
    candidates = [
        (directory / split / f"dialogues_{split}.txt",
         directory / split / f"dialogues_emotion_{split}.txt"),
        (directory / f"dialogues_{split}.txt",
         directory / f"dialogues_emotion_{split}.txt"),
    ]
    for text_path, label_path in candidates:
        if text_path.is_file() and label_path.is_file():
            return text_path, label_path
    tried = ", ".join(str(c[0]) for c in candidates)
    raise MissingFile(f"no dialog/label file pair for split {split!r} under {directory} (tried {tried})")


def load_split(directory: str | Path, split: str) -> Corpus:
    """Load one DailyDialog split from `directory`.

    Raises:
        MissingFile: split files absent.
        MalformedRecord: a split file is not UTF-8 text.
        LineCountMismatch: text and label files differ in line count.
    """
    if split not in SPLITS:
        raise MissingFile(f"unknown split {split!r}; expected one of {SPLITS}")
    directory = Path(directory)
    text_path, label_path = _resolve_split_files(directory, split)
    text_lines = read_utf8(text_path, MalformedRecord).splitlines()
    label_lines = read_utf8(label_path, MalformedRecord).splitlines()
    # Trailing blank lines are a packaging artifact, not dialogs.
    while text_lines and not text_lines[-1].strip():
        text_lines.pop()
    while label_lines and not label_lines[-1].strip():
        label_lines.pop()
    if len(text_lines) != len(label_lines):
        raise LineCountMismatch(
            f"{text_path.name}: {len(text_lines)} lines vs {label_path.name}: {len(label_lines)} lines"
        )
    dialogs = tuple(
        parse_dialog_line(text, labels, dialog_id=f"{split}:{lineno}")
        for lineno, (text, labels) in enumerate(zip(text_lines, label_lines))
    )
    return Corpus(split=split, dialogs=dialogs)


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Exact per-split statistics; mean reported unrounded and rounded.

    Raises:
        EmptyCorpus: corpus has no dialogs.
    """
    if not corpus.dialogs:
        raise EmptyCorpus(f"split {corpus.split!r} has no dialogs")
    lengths = [len(d) for d in corpus.dialogs]
    mean = sum(lengths) / len(lengths)
    return CorpusStats(
        split=corpus.split,
        n_dialogs=len(corpus.dialogs),
        n_utterances=corpus.n_utterances,
        max_utt_per_dialog=max(lengths),
        mean_utt_per_dialog=mean,
        mean_utt_rounded=round(mean),
        label_histogram=dict(corpus.label_histogram),
    )


def format_stats(stats: CorpusStats) -> str:
    """Render stats as the key/value report emitted by the CLI."""
    lines = [
        f"split = {stats.split}",
        f"n_dialogs = {stats.n_dialogs}",
        f"n_utterances = {stats.n_utterances}",
        f"max_utt_per_dialog = {stats.max_utt_per_dialog}",
        f"mean_utt_per_dialog = {stats.mean_utt_per_dialog:.2f}",
        f"mean_utt_rounded = {stats.mean_utt_rounded}",
    ]
    for lid in ALL_LABEL_IDS:
        lines.append(f"count_{LABEL_NAMES[lid]} = {stats.label_histogram.get(lid, 0)}")
    return "\n".join(lines) + "\n"


def label_weights(
    corpus: Corpus,
    labels: tuple[int, ...] = EMOTION_IDS,
    smooth_counts: int | None = None,
) -> dict[int, float]:
    """Inverse-frequency label weights, normalized to sum 1.

    Weight of label l is proportional to 1/count(l) over `labels`: the
    six emotions by default, a label space, or a subset (how a caller
    drops zero-count labels).

    Args:
        smooth_counts: when set, adds this pseudo-count to every included
            label so tiny fixtures with absent labels stay well defined.

    Raises:
        ZeroCount: an included label never occurs and no smoothing given.
    """
    counts: dict[int, int] = {}
    for lid in labels:
        c = corpus.label_histogram.get(lid, 0)
        if smooth_counts is not None:
            c += smooth_counts
        if c <= 0:
            raise ZeroCount(
                f"label {LABEL_NAMES[lid]!r} has zero count; drop it or pass smooth_counts"
            )
        counts[lid] = c
    inverse = {lid: 1.0 / c for lid, c in counts.items()}
    total = sum(inverse.values())
    return {lid: w / total for lid, w in inverse.items()}
