"""Zero-shot generation baseline over dialog prompts.

Builds a prompt asking for the last utterance's emotion, sends it to a
pluggable text-generation endpoint, parses the first mentioned emotion
out of the raw output, and scores predictions with the shared metrics.
A modal-share detector flags degenerate generators that collapse onto
one label.

Two endpoints: an HTTP JSON client, whose malformed responses count as
failed attempts, and an offline replay fixture, read by the embedding
store's JSON-lines reader (lines counted from 1, blank lines skipped,
a line that is not UTF-8 JSON raises MalformedRecord). Every dialog runs
through one thread pool, whose map keeps corpus order. The HTTP stack and
the pool's module are imported where they are used, so a run that makes
no request loads neither.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
import urllib.parse
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .corpus import LABEL_NAMES, Corpus, Dialog, read_utf8
from .embeddings import _decode, _non_blank
from .errors import BadTemplate, ConfigError, EmptyDialog, EndpointFailure, MalformedRecord, MissingFile
from .metrics import MetricsReport, confusion, report_from_confusion
from .training import check_lower_bound

logger = logging.getLogger(__name__)

UNPARSABLE = "__unparsable__"
UNPARSABLE_POLICIES = ("count-as-wrong", "map-to-neutral")

PLACEHOLDERS = ("{dialog}", "{labels}", "{last_utterance}")

# A modal share at or above this flags the run as collapsed onto one label.
COLLAPSE_THRESHOLD = 0.8

# HTTP endpoint: seconds a request may take, and seconds between attempts.
TIMEOUT_S = 30.0
RETRY_WAIT_S = 0.5

# Shipped defaults. These are reconstructions of the chat-style prompt
# skeletons used with instruction-tuned models, not replicas of any
# particular prompt; supply a template file to control the exact text.
LLAMA_STYLE = (
    "[INST] <<SYS>>\n"
    "You are an expert annotator of emotions in conversations.\n"
    "<</SYS>>\n"
    "Here is a conversation between two speakers:\n"
    "{dialog}\n"
    "The possible emotion labels are: {labels}.\n"
    "Which emotion label best describes the last utterance: \"{last_utterance}\"?\n"
    "Answer with exactly one label. [/INST]"
)
FALCON_STYLE = (
    "Conversation:\n"
    "{dialog}\n"
    "Labels: {labels}\n"
    "Question: what is the emotion of the last utterance, \"{last_utterance}\"?\n"
    "Answer with one label only.\n"
    "Answer:"
)


@dataclass(frozen=True)
class PromptTemplate:
    """Template text carrying each placeholder exactly once."""

    name: str
    template: str

    def __post_init__(self):
        for ph in PLACEHOLDERS:
            n = self.template.count(ph)
            if n != 1:
                raise BadTemplate(f"template {self.name!r} has {n} occurrences of {ph} (need 1)")

    @classmethod
    def from_file(cls, path: str | Path) -> "PromptTemplate":
        """Raises BadTemplate on a file that is not UTF-8 text."""
        path = Path(path)
        return cls(name=path.stem, template=read_utf8(path, BadTemplate))


BUILTIN_TEMPLATES = {
    "llama-style": PromptTemplate(name="llama-style", template=LLAMA_STYLE),
    "falcon-style": PromptTemplate(name="falcon-style", template=FALCON_STYLE),
}


def build_prompt(dialog: Dialog, template: PromptTemplate) -> str:
    """Render a dialog turn-per-line with alternating A:/B: speaker tags.

    Raises:
        EmptyDialog: dialog has no utterances.
    """
    if len(dialog) == 0:
        raise EmptyDialog(f"dialog {dialog.id} has no utterances")
    turns = "\n".join(
        f"{'A' if utt.index % 2 == 0 else 'B'}: {utt.text}" for utt in dialog.utterances
    )
    labels = ", ".join(LABEL_NAMES)
    # Literal replacement, not str.format: dialog text may contain braces.
    return (
        template.template
        .replace("{dialog}", turns)
        .replace("{labels}", labels)
        .replace("{last_utterance}", dialog.utterances[-1].text)
    )


def parse_label(generated: str) -> str:
    """First emotion name mentioned in the output, case-insensitive.

    Total: returns UNPARSABLE when no label name occurs. Equal start
    offsets (not reachable with the canonical names) break toward the
    lower label index.
    """
    haystack = generated.lower()
    best: str | None = None
    best_offset = len(haystack) + 1
    for name in LABEL_NAMES:
        offset = haystack.find(name.lower())
        if offset >= 0 and offset < best_offset:
            best, best_offset = name, offset
    return best if best is not None else UNPARSABLE


@dataclass
class ReplayClient:
    """Offline client serving canned outputs from a JSON-lines fixture.

    Each fixture record is `{"key": <dialog id>, "text": <output>}`; a
    `default` entry (key "*") answers dialogs missing from the fixture.
    """

    responses: dict[str, str]
    default: str | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayClient":
        """Raises MissingFile when `path` is absent, MalformedRecord on a
        line that is not a UTF-8 JSON object with `key` and `text`."""
        path = Path(path)
        if not path.is_file():
            raise MissingFile(f"replay fixture not found: {path}")
        responses: dict[str, str] = {}
        with path.open("rb") as fh:
            for lineno, line in _non_blank(fh):
                record = _decode(line, path.name, lineno)
                if not isinstance(record, dict) or "key" not in record or "text" not in record:
                    raise MalformedRecord(f"{path.name}:{lineno}: record needs 'key' and 'text'")
                responses[str(record["key"])] = str(record["text"])
        return cls(responses=responses, default=responses.pop("*", None))

    def generate(self, prompt: str, key: str | None = None) -> str:
        if key is not None and key in self.responses:
            return self.responses[key]
        if self.default is not None:
            return self.default
        raise EndpointFailure(f"replay fixture has no response for key {key!r}")


@dataclass
class HttpGenerationClient:
    """Minimal HTTP JSON endpoint client.

    Request: `{"prompt": str, "max_new_tokens": int}`; response:
    `{"text": str}`. A transport error or a body that is not UTF-8 JSON
    with a string `text` is a failed attempt; after `max_retries` extra
    attempts, `RETRY_WAIT_S` apart, it raises EndpointFailure.

    Raises:
        ConfigError: `url` is not an http or https URL, or a count is out of bounds.
    """

    url: str
    max_retries: int = 2
    max_new_tokens: int = 16

    def __post_init__(self):
        if urllib.parse.urlsplit(self.url).scheme not in ("http", "https"):
            raise ConfigError(f"endpoint {self.url!r} is not an http or https URL")
        check_lower_bound("max_retries", self.max_retries, strict=False)
        check_lower_bound("max_new_tokens", self.max_new_tokens, strict=True)

    def generate(self, prompt: str, key: str | None = None) -> str:
        import http.client
        import urllib.request

        payload = json.dumps(
            {"prompt": prompt, "max_new_tokens": self.max_new_tokens}
        ).encode("utf-8")
        request = urllib.request.Request(self.url, data=payload, headers={"Content-Type": "application/json"})
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            try:
                with urllib.request.urlopen(request, timeout=TIMEOUT_S) as response:
                    body = json.loads(response.read().decode("utf-8"))
                text = body.get("text") if isinstance(body, dict) else None
                if not isinstance(text, str):
                    raise ValueError("response is not a JSON object with a string 'text'")
                return text
            except (OSError, ValueError, http.client.HTTPException) as exc:
                last_error = exc
                logger.warning("generation attempt %d failed: %s", attempt, exc)
                if attempt < self.max_retries:
                    time.sleep(RETRY_WAIT_S)
        raise EndpointFailure(f"endpoint {self.url} failed after {self.max_retries + 1} attempts: {last_error}")


@dataclass(frozen=True)
class GenerationRecord:
    """One line of the generation log."""

    key: str
    prompt_sha256: str
    raw_output: str
    parsed_label: str
    status: str  # "ok", "unparsable", or "failed"


@dataclass
class LlmEvalResult:
    """Metrics over last-utterance predictions plus the full log.

    The scored population is one utterance per dialog (the last one),
    minus endpoint failures; reports from this harness are not
    comparable to whole-corpus utterance-level reports.
    """

    report: MetricsReport
    records: list[GenerationRecord]
    n_dialogs: int
    n_failed: int
    n_unparsable: int
    modal_label: str | None
    modal_share: float
    collapse_flagged: bool


def evaluate_llm(
    client,
    corpus: Corpus,
    template: PromptTemplate,
    unparsable_policy: str = "count-as-wrong",
    parallelism: int = 4,
) -> LlmEvalResult:
    """One generation per dialog, scored on the last utterance's gold label.

    `count-as-wrong` keeps unparsable outputs as a reserved pseudo-label
    that can never match gold; `map-to-neutral` folds them into neutral.
    Endpoint failures (after the client's retries) exclude the dialog
    from scoring and are counted in the result. `parallelism` is the
    number of requests in flight. An unknown policy or a `parallelism`
    below 1 raises ConfigError before any request.
    """
    from concurrent.futures import ThreadPoolExecutor

    if unparsable_policy not in UNPARSABLE_POLICIES:
        raise ConfigError(f"unknown unparsable policy {unparsable_policy!r}")
    check_lower_bound("parallelism", parallelism, strict=True)
    to_neutral = unparsable_policy == "map-to-neutral"

    def run_one(dialog: Dialog) -> GenerationRecord:
        prompt = build_prompt(dialog, template)
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        try:
            raw = client.generate(prompt, key=dialog.id)
        except EndpointFailure as exc:
            logger.warning("dialog %s failed: %s", dialog.id, exc)
            return GenerationRecord(dialog.id, digest, "", UNPARSABLE, "failed")
        parsed = parse_label(raw)
        return GenerationRecord(dialog.id, digest, raw, parsed, "ok" if parsed != UNPARSABLE else "unparsable")

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        records = list(pool.map(run_one, corpus.dialogs))

    statuses: Counter[str] = Counter()
    preds: list[str] = []
    golds: list[str] = []
    for dialog, record in zip(corpus.dialogs, records):
        statuses[record.status] += 1
        if record.status != "failed":
            preds.append("neutral" if to_neutral and record.status == "unparsable" else record.parsed_label)
            golds.append(LABEL_NAMES[dialog.utterances[-1].label])
    tally = Counter(preds)
    modal_label = max(sorted(tally), key=tally.__getitem__) if preds else None
    modal_share = tally[modal_label] / len(preds) if preds else 0.0
    counts = dict(
        n_dialogs=len(records), n_failed=statuses["failed"], n_unparsable=statuses["unparsable"],
        modal_label=modal_label, modal_share=modal_share, collapse_flagged=modal_share >= COLLAPSE_THRESHOLD,
    )
    label_space = LABEL_NAMES if to_neutral else LABEL_NAMES + (UNPARSABLE,)
    report = report_from_confusion(
        confusion(preds, golds, label_space), extras={"population": "last-utterance-per-dialog", **counts})
    return LlmEvalResult(report=report, records=records, **counts)


def resolve_template(name_or_path: str) -> PromptTemplate:
    """A builtin name ('llama-style', 'falcon-style') or a file path."""
    if name_or_path in BUILTIN_TEMPLATES:
        return BUILTIN_TEMPLATES[name_or_path]
    path = Path(name_or_path)
    if path.is_file():
        return PromptTemplate.from_file(path)
    raise BadTemplate(
        f"{name_or_path!r} is neither a builtin template "
        f"({', '.join(sorted(BUILTIN_TEMPLATES))}) nor a file"
    )
