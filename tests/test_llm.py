from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from ercml import llm
from ercml.cli import main
from ercml.corpus import Corpus, Dialog, LABEL_NAMES, Utterance, load_split
from ercml.embeddings import load_sentence_embeddings
from ercml.errors import BadTemplate, ConfigError, EmptyDialog, EndpointFailure, MalformedRecord
from ercml.llm import (
    BUILTIN_TEMPLATES,
    UNPARSABLE,
    GenerationRecord,
    HttpGenerationClient,
    PromptTemplate,
    ReplayClient,
    build_prompt,
    evaluate_llm,
    parse_label,
    resolve_template,
)

FIXTURE_TEMPLATE = PromptTemplate(
    name="fixture",
    template="DIALOG:\n{dialog}\nLABELS: {labels}\nLAST: {last_utterance}\nANSWER:",
)


def dialog_of(texts_labels, dialog_id="d0"):
    return Dialog(
        id=dialog_id,
        utterances=tuple(
            Utterance(index=i, text=t, label=lab) for i, (t, lab) in enumerate(texts_labels)
        ),
    )


def corpus_of(dialogs):
    return Corpus(split="test", dialogs=tuple(dialogs))


@dataclass
class RecordingClient(ReplayClient):
    """A replay client that records the key of every request."""

    keys: list = field(default_factory=list)

    def generate(self, prompt, key=None):
        self.keys.append(key)
        return super().generate(prompt, key)


class TestPromptTemplate:
    def test_builtin_templates_valid(self):
        assert set(BUILTIN_TEMPLATES) == {"llama-style", "falcon-style"}

    def test_missing_placeholder_rejected(self):
        with pytest.raises(BadTemplate):
            PromptTemplate(name="bad", template="{dialog} {labels}")

    def test_duplicated_placeholder_rejected(self):
        with pytest.raises(BadTemplate):
            PromptTemplate(name="bad", template="{dialog} {dialog} {labels} {last_utterance}")

    def test_resolve_from_file(self, tmp_path):
        path = tmp_path / "custom.txt"
        path.write_text(FIXTURE_TEMPLATE.template)
        template = resolve_template(str(path))
        assert template.name == "custom"

    def test_resolve_unknown(self):
        with pytest.raises(BadTemplate):
            resolve_template("no-such-template")


class TestBuildPrompt:
    def test_contains_utterances_and_labels(self):
        d = dialog_of([("How are you ?", 0), ("Great , thanks !", 4)])
        prompt = build_prompt(d, BUILTIN_TEMPLATES["llama-style"])
        assert "How are you ?" in prompt
        assert "Great , thanks !" in prompt
        for name in LABEL_NAMES:
            assert name in prompt

    def test_single_utterance_dialog_body_is_last(self):
        d = dialog_of([("Only line .", 0)])
        prompt = build_prompt(d, FIXTURE_TEMPLATE)
        assert "DIALOG:\nA: Only line .\n" in prompt
        assert "LAST: Only line .\n" in prompt

    def test_alternating_speaker_tags(self):
        d = dialog_of([("one", 0), ("two", 0), ("three", 0)])
        prompt = build_prompt(d, FIXTURE_TEMPLATE)
        assert "A: one\nB: two\nA: three" in prompt

    def test_golden_output(self):
        d = dialog_of([("Hi !", 0), ("Hello .", 4)])
        expected = (
            "DIALOG:\n"
            "A: Hi !\n"
            "B: Hello .\n"
            "LABELS: neutral, anger, disgust, fear, happiness, sadness, surprise\n"
            "LAST: Hello .\n"
            "ANSWER:"
        )
        assert build_prompt(d, FIXTURE_TEMPLATE) == expected

    def test_empty_dialog(self):
        d = Dialog(id="e", utterances=())
        with pytest.raises(EmptyDialog):
            build_prompt(d, FIXTURE_TEMPLATE)

    def test_braces_in_dialog_text_survive(self):
        d = dialog_of([("set {x} to {y}", 0)])
        prompt = build_prompt(d, FIXTURE_TEMPLATE)
        assert "set {x} to {y}" in prompt


class TestParseLabel:
    def test_single_mention(self):
        assert parse_label("I think the emotion is sadness.") == "sadness"

    def test_first_mention_wins(self):
        assert parse_label("Mostly happiness, with a hint of anger") == "happiness"

    def test_unparsable(self):
        assert parse_label("No idea.") == UNPARSABLE

    def test_case_insensitive(self):
        assert parse_label("ANGER!!!") == "anger"

    def test_total_on_arbitrary_strings(self):
        rng = np.random.default_rng(0)
        alphabet = "abcdefghijklmnopqrstuvwxyz .!?"
        for _ in range(200):
            text = "".join(rng.choice(list(alphabet), size=rng.integers(0, 40)))
            out = parse_label(text)
            assert out == UNPARSABLE or out in LABEL_NAMES


def six_emotion_corpus():
    """Every emotion appears as the gold label of some last utterance."""
    dialogs = []
    for i, lab in enumerate([1, 2, 3, 4, 5, 6, 1, 4]):
        dialogs.append(dialog_of(
            [(f"lead in {i} .", 0), (f"final line {i} .", lab)],
            dialog_id=f"t:{i}",
        ))
    return corpus_of(dialogs)


class TestEvaluateLlm:
    def test_gold_echo_scores_one(self):
        corpus = six_emotion_corpus()
        responses = {
            d.id: f"The emotion is {LABEL_NAMES[d.utterances[-1].label]}."
            for d in corpus.dialogs
        }
        client = ReplayClient(responses=responses)
        result = evaluate_llm(client, corpus, FIXTURE_TEMPLATE, parallelism=1)
        assert result.report.macro_f1_star == pytest.approx(1.0)
        assert result.report.micro_f1_star == pytest.approx(1.0)
        assert result.n_failed == 0
        assert result.n_unparsable == 0

    def test_one_request_per_dialog(self):
        corpus = six_emotion_corpus()
        client = RecordingClient(responses={}, default="anger")
        evaluate_llm(client, corpus, FIXTURE_TEMPLATE, parallelism=1)
        assert client.keys == [d.id for d in corpus.dialogs]

    def test_constant_output_triggers_collapse_flag(self):
        corpus = six_emotion_corpus()
        client = ReplayClient(responses={}, default="happiness")
        result = evaluate_llm(client, corpus, FIXTURE_TEMPLATE, parallelism=1)
        assert result.modal_label == "happiness"
        assert result.modal_share == pytest.approx(1.0)
        assert result.collapse_flagged
        assert result.report.mcc == 0.0

    def test_unparsable_count_as_wrong(self):
        corpus = six_emotion_corpus()
        client = ReplayClient(responses={}, default="beats me entirely")
        result = evaluate_llm(client, corpus, FIXTURE_TEMPLATE, parallelism=1)
        assert result.n_unparsable == len(corpus.dialogs)
        assert result.report.micro_f1_star == 0.0
        assert UNPARSABLE in result.report.confusion.label_space

    def test_unparsable_map_to_neutral(self):
        corpus = six_emotion_corpus()
        client = ReplayClient(responses={}, default="beats me entirely")
        result = evaluate_llm(
            client, corpus, FIXTURE_TEMPLATE, unparsable_policy="map-to-neutral", parallelism=1
        )
        assert UNPARSABLE not in result.report.confusion.label_space
        assert result.modal_label == "neutral"

    def test_failures_excluded_and_counted(self):
        corpus = six_emotion_corpus()

        class FlakyClient:
            def generate(self, prompt, key=None):
                if key in ("t:0", "t:3"):
                    raise EndpointFailure("boom")
                return "sadness"

        result = evaluate_llm(FlakyClient(), corpus, FIXTURE_TEMPLATE, parallelism=1)
        assert result.n_failed == 2
        assert result.report.n_scored == len(corpus.dialogs) - 2
        statuses = {r.key: r.status for r in result.records}
        assert statuses["t:0"] == "failed"
        assert statuses["t:1"] == "ok"

    def test_deterministic_order_with_parallelism(self):
        corpus = six_emotion_corpus()
        client = ReplayClient(
            responses={d.id: LABEL_NAMES[d.utterances[-1].label] for d in corpus.dialogs}
        )
        r1 = evaluate_llm(client, corpus, FIXTURE_TEMPLATE, parallelism=4)
        r2 = evaluate_llm(client, corpus, FIXTURE_TEMPLATE, parallelism=1)
        assert [x.key for x in r1.records] == [x.key for x in r2.records]
        assert r1.report.macro_f1_star == r2.report.macro_f1_star

    @pytest.mark.parametrize("setting, message", [
        ({"parallelism": 0}, "parallelism must be > 0, got 0"),
        ({"unparsable_policy": "guess"}, "unknown unparsable policy 'guess'"),
    ], ids=["parallelism", "policy"])
    def test_bad_setting_is_refused_before_any_request(self, setting, message):
        client = RecordingClient(responses={}, default="anger")
        with pytest.raises(ConfigError, match=message):
            evaluate_llm(client, six_emotion_corpus(), FIXTURE_TEMPLATE, **setting)
        assert client.keys == []


class TestGenerationLog:
    def test_jsonl_round_trip(self, tmp_path, capsys):
        data = str(Path(__file__).parent / "data" / "mini")
        corpus = load_split(data, "test")
        first = corpus.dialogs[0].id
        replay = tmp_path / "replay.jsonl"
        replay.write_text(
            json.dumps({"key": first, "text": "no idea"}) + "\n"
            + json.dumps({"key": "*", "text": "happiness"}) + "\n"
        )
        out = tmp_path / "llm"
        rc = main(["llm-eval", "--data", data, "--split", "test", "--template", "falcon-style",
                   "--replay", str(replay), "--out", str(out), "--parallelism", "2"])
        assert rc == 0
        lines = (out / "generations.jsonl").read_text().strip().split("\n")
        assert len(lines) == len(corpus.dialogs)
        parsed = [json.loads(line) for line in lines]
        assert set(parsed[0]) == {"key", "prompt_sha256", "raw_output", "parsed_label", "status"}
        records = [GenerationRecord(**doc) for doc in parsed]
        expected = evaluate_llm(
            ReplayClient.from_file(replay), corpus, resolve_template("falcon-style"), parallelism=1
        ).records
        assert records == expected
        assert records[0].parsed_label == UNPARSABLE and records[0].status == "unparsable"


class TestReplayClientFile:
    def test_from_file(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        path.write_text(
            json.dumps({"key": "a", "text": "anger"}) + "\n"
            + json.dumps({"key": "*", "text": "fallback fear"}) + "\n"
        )
        client = ReplayClient.from_file(path)
        assert client.generate("p", key="a") == "anger"
        assert client.generate("p", key="missing") == "fallback fear"

    def test_missing_key_no_default(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        path.write_text(json.dumps({"key": "a", "text": "anger"}) + "\n")
        client = ReplayClient.from_file(path)
        with pytest.raises(EndpointFailure):
            client.generate("p", key="other")

    # After two blank lines, a line that is both a store header and a
    # replay record, then a blank line and the bad line: line 5 of each.
    @pytest.mark.parametrize("bad", [b"not json", b'{"key": "caf\xff"}', b"[1, 2]"],
                             ids=["not-json", "not-utf8", "not-object"])
    def test_bad_line_named_as_the_store_names_it(self, tmp_path, bad):
        path = tmp_path / "shared.jsonl"
        path.write_bytes(b'\n  \n{"dim": 2, "key": "*", "text": "joy"}\n\n' + bad + b"\n")
        for read in (ReplayClient.from_file, load_sentence_embeddings):
            with pytest.raises(MalformedRecord, match=r"^shared\.jsonl:5: "):
                read(path)


class _Handler(BaseHTTPRequestHandler):
    fail_first = 0
    seen = []
    body = None  # bytes to answer with instead of a well-formed response
    missing = 0  # bytes the declared Content-Length promises beyond the body

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        type(self).seen.append(payload)
        if type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(500)
            self.end_headers()
            return
        body = type(self).body or json.dumps({"text": f"surely {payload['prompt'][:0]}sadness"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body) + type(self).missing))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server(monkeypatch):
    monkeypatch.setattr(llm, "RETRY_WAIT_S", 0.01)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    _Handler.fail_first = 0
    _Handler.seen = []
    _Handler.body = None
    _Handler.missing = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/generate"
    server.shutdown()


class TestHttpClient:
    @pytest.mark.parametrize("setting, message", [
        ({"max_retries": -1}, "max_retries must be >= 0, got -1"),
        ({"max_new_tokens": 0}, "max_new_tokens must be > 0, got 0"),
    ], ids=["max_retries", "max_new_tokens"])
    def test_out_of_bounds_count_is_refused(self, setting, message):
        with pytest.raises(ConfigError, match=message):
            HttpGenerationClient(url="http://127.0.0.1:9/generate", **setting)

    def test_round_trip(self, http_server):
        client = HttpGenerationClient(url=http_server, max_new_tokens=8)
        out = client.generate("what is the emotion?")
        assert "sadness" in out
        assert _Handler.seen[-1] == {"prompt": "what is the emotion?", "max_new_tokens": 8}

    def test_retries_then_succeeds(self, http_server):
        _Handler.fail_first = 2
        client = HttpGenerationClient(url=http_server, max_retries=2)
        assert "sadness" in client.generate("x")

    def test_exhausted_retries_raise(self, http_server):
        _Handler.fail_first = 10
        client = HttpGenerationClient(url=http_server, max_retries=1)
        with pytest.raises(EndpointFailure):
            client.generate("x")

    @pytest.mark.parametrize("body", [b"[1, 2]", b'{"text": "caf\xff"}', b'{"text": 3}', b"{}"],
                             ids=["list", "not-utf8", "text-not-string", "no-text"])
    def test_malformed_body_is_a_failed_attempt(self, http_server, body):
        _Handler.body = body
        client = HttpGenerationClient(url=http_server, max_retries=1)
        with pytest.raises(EndpointFailure, match="after 2 attempts"):
            client.generate("x")
        assert len(_Handler.seen) == 2

    def test_truncated_body_is_a_failed_attempt(self, http_server):
        _Handler.missing = 5
        client = HttpGenerationClient(url=http_server, max_retries=1)
        with pytest.raises(EndpointFailure, match="IncompleteRead"):
            client.generate("x")
        assert len(_Handler.seen) == 2

    def test_malformed_body_fails_its_dialog_only(self, http_server):
        class OneBadBody(HttpGenerationClient):
            def generate(self, prompt, key=None):
                _Handler.body = b"[1, 2]" if key == "t:3" else None
                return super().generate(prompt, key)

        client = OneBadBody(url=http_server, max_retries=0)
        result = evaluate_llm(client, six_emotion_corpus(), FIXTURE_TEMPLATE, parallelism=1)
        assert [r.key for r in result.records if r.status == "failed"] == ["t:3"]
        assert result.n_failed == 1
