from __future__ import annotations

import numpy as np
import pytest

from ercml.corpus import (
    ALL_LABEL_IDS,
    Corpus,
    Dialog,
    Utterance,
    corpus_stats,
    label_weights,
    load_split,
    parse_dialog_line,
)
from ercml.errors import (
    BadLabel,
    CountMismatch,
    EmptyCorpus,
    LineCountMismatch,
    MissingFile,
    ZeroCount,
)

from support import write_split


def make_corpus(label_lists: list[list[int]], split: str = "train") -> Corpus:
    dialogs = []
    for di, labels in enumerate(label_lists):
        utts = tuple(
            Utterance(index=i, text=f"utterance {di} {i}", label=lab)
            for i, lab in enumerate(labels)
        )
        dialogs.append(Dialog(id=f"{split}:{di}", utterances=utts))
    return Corpus(split=split, dialogs=tuple(dialogs))


class TestParseDialogLine:
    def test_basic_two_utterances(self):
        d = parse_dialog_line("Hi ! __eou__ Hello . __eou__", "0 4", "train:0")
        assert len(d) == 2
        assert d.utterances[0].text == "Hi !"
        assert d.utterances[1].text == "Hello ."
        assert d.labels == (0, 4)  # neutral, happiness

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch):
            parse_dialog_line("Hi ! __eou__", "0 4", "x")

    def test_three_labels_in_order(self):
        # oracle: manual split on the delimiter gives segments A, B, C
        d = parse_dialog_line("A __eou__ B __eou__ C __eou__", "6 1 3", "t:7")
        assert d.labels == (6, 1, 3)  # surprise, anger, fear
        assert [u.text for u in d.utterances] == ["A", "B", "C"]

    def test_no_trailing_delimiter_also_accepted(self):
        d = parse_dialog_line("Hi there .", "0", "t:0")
        assert len(d) == 1

    def test_label_out_of_range(self):
        with pytest.raises(BadLabel):
            parse_dialog_line("A __eou__", "7", "t:1")

    def test_non_integer_label(self):
        with pytest.raises(BadLabel):
            parse_dialog_line("A __eou__", "joy", "t:2")

    def test_empty_line_rejected(self):
        with pytest.raises(CountMismatch):
            parse_dialog_line("", "", "t:3")

    def test_long_dialog_warns_but_parses(self, caplog):
        text = " __eou__ ".join(f"turn {i}" for i in range(36)) + " __eou__"
        labels = " ".join("0" for _ in range(36))
        with caplog.at_level("WARNING", logger="ercml.corpus"):
            d = parse_dialog_line(text, labels, "t:4")
        assert len(d) == 36
        assert any("35" in rec.message for rec in caplog.records)


class TestLoadSplit:
    def test_fixture_three_pairs(self, tmp_path):
        (tmp_path / "dialogues_train.txt").write_text(
            "A __eou__ B __eou__\nC __eou__\nD __eou__ E __eou__ F __eou__\n"
        )
        (tmp_path / "dialogues_emotion_train.txt").write_text("0 1\n4\n0 0 5\n")
        corpus = load_split(tmp_path, "train")
        assert len(corpus.dialogs) == 3
        assert corpus.dialogs[2].labels == (0, 0, 5)

    def test_line_count_mismatch(self, tmp_path):
        (tmp_path / "dialogues_train.txt").write_text("A __eou__\nB __eou__\n")
        (tmp_path / "dialogues_emotion_train.txt").write_text("0\n0\n0\n")
        with pytest.raises(LineCountMismatch):
            load_split(tmp_path, "train")

    def test_trailing_blank_lines_are_not_dialogs(self, tmp_path):
        (tmp_path / "dialogues_train.txt").write_text("A __eou__\nB __eou__\n\n\n")
        (tmp_path / "dialogues_emotion_train.txt").write_text("0\n3\n \n")
        corpus = load_split(tmp_path, "train")
        assert [d.labels for d in corpus.dialogs] == [(0,), (3,)]

    def test_empty_utterance_names_its_dialog(self, tmp_path):
        (tmp_path / "dialogues_train.txt").write_text("A __eou__\nhello __eou__  __eou__ bye __eou__\n")
        (tmp_path / "dialogues_emotion_train.txt").write_text("0\n0 0 0\n")
        with pytest.raises(CountMismatch, match=r"^dialog train:1: utterance 1: empty text segment$"):
            load_split(tmp_path, "train")

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_split(tmp_path, "train")

    def test_unknown_split(self, tmp_path):
        with pytest.raises(MissingFile):
            load_split(tmp_path, "dev")

    def test_official_subdirectory_layout(self, tmp_path):
        split_dir = tmp_path / "test"
        split_dir.mkdir()
        (split_dir / "dialogues_test.txt").write_text("A __eou__\n")
        (split_dir / "dialogues_emotion_test.txt").write_text("3\n")
        corpus = load_split(tmp_path, "test")
        assert len(corpus.dialogs) == 1

    def test_mini_fixture(self, train_corpus):
        assert len(train_corpus.dialogs) == 20
        assert sum(train_corpus.label_histogram.values()) == train_corpus.n_utterances
        assert all(train_corpus.label_histogram[lab] > 0 for lab in range(7))


class TestRoundTrip:
    def test_serialize_reparse_identical(self, train_corpus, tmp_path):
        write_split(train_corpus, tmp_path)
        again = load_split(tmp_path, "train")
        assert again == train_corpus

    def test_random_corpora_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(5):
            labels = [
                [int(rng.integers(0, 7)) for _ in range(int(rng.integers(1, 9)))]
                for _ in range(int(rng.integers(1, 12)))
            ]
            corpus = make_corpus(labels)
            out = tmp_path / f"trial{trial}"
            write_split(corpus, out)
            assert load_split(out, "train") == corpus


class TestCorpusStats:
    def test_single_dialog(self):
        stats = corpus_stats(make_corpus([[0, 0, 4, 0, 5]]))
        assert stats.n_dialogs == 1
        assert stats.max_utt_per_dialog == 5
        assert stats.mean_utt_per_dialog == 5.0

    def test_lengths_2_4_6(self):
        # hand count: mean of {2, 4, 6} is 4.0, max is 6
        stats = corpus_stats(make_corpus([[0] * 2, [0] * 4, [0] * 6]))
        assert stats.max_utt_per_dialog == 6
        assert stats.mean_utt_per_dialog == 4.0
        assert stats.mean_utt_rounded == 4

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            corpus_stats(Corpus(split="train", dialogs=()))

    def test_histogram_matches_total(self, train_corpus):
        stats = corpus_stats(train_corpus)
        assert sum(stats.label_histogram.values()) == stats.n_utterances


class TestLabelWeights:
    def test_two_label_normalization(self):
        # 1/8 : 1/2 normalizes to 0.2 : 0.8
        corpus = make_corpus([[4] * 8 + [1] * 2])
        w = label_weights(corpus, labels=(4, 1))
        assert w[4] == pytest.approx(0.2)
        assert w[1] == pytest.approx(0.8)

    def test_uniform_when_counts_equal(self):
        corpus = make_corpus([[1, 2, 3, 4, 5, 6]])
        w = label_weights(corpus)
        for lab in range(1, 7):
            assert w[lab] == pytest.approx(1 / 6)

    def test_zero_count_raises(self):
        corpus = make_corpus([[1, 2, 4, 5, 6]])  # no fear
        with pytest.raises(ZeroCount):
            label_weights(corpus)

    def test_smoothing_rescues_zero_count(self):
        corpus = make_corpus([[1, 2, 4, 5, 6]])
        w = label_weights(corpus, smooth_counts=1)
        assert w[3] > 0
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)

    def test_sum_one_and_decreasing_in_count(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            counts = {lab: int(rng.integers(1, 50)) for lab in range(1, 7)}
            labels = [lab for lab, c in counts.items() for _ in range(c)]
            corpus = make_corpus([labels])
            w = label_weights(corpus)
            assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)
            for a in range(1, 7):
                for b in range(1, 7):
                    if counts[a] < counts[b]:
                        assert w[a] > w[b]
                    elif counts[a] == counts[b]:
                        assert w[a] == pytest.approx(w[b])

    def test_include_neutral(self, train_corpus):
        w = label_weights(train_corpus, labels=ALL_LABEL_IDS)
        assert set(w) == set(range(7))
        # neutral is the majority label in the fixture, so lowest weight
        assert w[0] == min(w.values())
