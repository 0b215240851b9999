"""Which program entry points the traced run wraps, and the per-layer
metrics computed from the spans and counts they leave.

Each wrapper sits at the name its caller resolves: the trainer calls
``ercml.training.encode_dialog``, ``pretrain_classifier`` calls
``ercml.classifier.classify_batch``, and every optimizer step goes
through the ``Adam.step`` class attribute. ``triplet_pass`` is spanned
rather than ``triplet_loss_grads`` so the trace does not time its own
10^5 calls per epoch; the mined count is the length of the list the
program's mining function returns, and the active count comes from
``triplet_pass``'s return value. The phase spans "setup", "pretrain",
"train" and "eval" are opened by run.py.

Every figure is taken under the phase whose end-to-end metric it moves
on the workload: a layer is never summed over phases.
"""

from __future__ import annotations

import statistics

from tracing import Tracer


def install(tracer: Tracer) -> None:
    from ercml import classifier, embeddings, optim, training

    def encoded(args, kwargs, result):
        tracer.count("encoder.fwd_calls")
        tracer.count("encoder.rows", result.sequence.tokens.shape[0] * len(result.caches))

    def classified(args, kwargs, result):
        tracer.count("classifier.fwd_rows", result[0].shape[0])

    def stepped(args, kwargs, result):
        tracer.count("optim.adam_calls")
        tracer.count("optim.params", sum(g.size for g in args[1].values()))

    def mined(args, kwargs, result):
        tracer.count("triplets.mined", len(result))

    def passed(args, kwargs, result):
        tracer.count("triplets.calls")
        if result is None:
            tracer.count("triplets.skipped")
        else:
            tracer.count("triplets.active", int(result[1]))

    tracer.wrap(embeddings.SentenceEmbeddingStore, "get", "embeddings.get",
                lambda a, k, r: tracer.count("embeddings.get_calls"))
    tracer.wrap(training, "encode_dialog", "encoder.fwd", encoded)
    tracer.wrap(training, "encode_dialog_backward", "encoder.bwd",
                lambda a, k, r: tracer.count("encoder.bwd_calls"))
    for module in (training, classifier):
        tracer.wrap(module, "classify_batch", "classifier.fwd", classified)
        tracer.wrap(module, "classifier_backward", "classifier.bwd")
    tracer.wrap(optim.Adam, "step", "optim.adam", stepped)
    tracer.wrap(optim, "clip_global_norm", "optim.clip")
    tracer.wrap(training, "add_grads", "optim.accum",
                lambda a, k, r: tracer.count("optim.accum_calls"))
    tracer.wrap(training, "ce_pass", "training.ce_pass")
    tracer.wrap(training, "triplet_pass", "triplets.pass", passed)
    for miner in ("sample_triplets", "batch_all_triplets", "batch_hard_triplets"):
        tracer.wrap(training, miner, "triplets.mine", mined)
    tracer.wrap(training, "report_from_predictions", "metrics.report")


def per_layer(tracer: Tracer, rnd, vectors: int, untraced_s: float, checkpoint_in_setup: bool) -> dict:
    """The per-layer metrics of one traced setup plus one traced round `rnd`."""
    # A set-up without a checkpoint load leaves the round's own load to read.
    ckpt_root = "setup" if checkpoint_in_setup else "checkpoint.load"
    selfs = {phase: tracer.self_times(root=phase) for phase in ("setup", "pretrain", "train", "eval")}
    counts = tracer.counts
    train, train_c = selfs["train"], counts["train"]
    train_total = tracer.total_time("train")
    triplets_s = tracer.total_time("triplets.pass", root="train")
    mined = train_c["triplets.mined"]
    calls = train_c["triplets.calls"]
    encoder_optim = sum(train[n] for n in ("encoder.fwd", "encoder.bwd", "optim.adam", "optim.clip", "optim.accum"))
    last_epoch = [rec for rec in rnd.logs if rec["epoch"] == rnd.logs[-1]["epoch"]]
    overhead_s = rnd.wall_s - untraced_s
    values = {
        "corpus.load_s": (tracer.total_time("corpus.load", root="setup"), "s"),
        "checkpoint.load_s": (tracer.total_time("checkpoint.load", root=ckpt_root), "s"),
        "embeddings.load_s": (tracer.total_time("embeddings.load", root="setup"), "s"),
        "embeddings.vectors": (vectors, "count"),
        "embeddings.get_calls": (train_c["embeddings.get_calls"], "count"),
        "embeddings.get_s": (train["embeddings.get"], "s"),
        "encoder.fwd_s": (train["encoder.fwd"], "s"),
        "encoder.fwd_calls": (train_c["encoder.fwd_calls"], "count"),
        "encoder.rows": (train_c["encoder.rows"], "count"),
        "encoder.bwd_s": (train["encoder.bwd"], "s"),
        "encoder.bwd_calls": (train_c["encoder.bwd_calls"], "count"),
        "optim.adam_s": (train["optim.adam"], "s"),
        "optim.adam_calls": (train_c["optim.adam_calls"], "count"),
        "optim.clip_s": (train["optim.clip"], "s"),
        "optim.accum_s": (train["optim.accum"], "s"),
        "optim.accum_calls": (train_c["optim.accum_calls"], "count"),
        "optim.params": (train_c["optim.params"], "count"),
        "classifier.fwd_s": (selfs["pretrain"]["classifier.fwd"], "s"),
        "classifier.fwd_rows": (counts["pretrain"]["classifier.fwd_rows"], "count"),
        "classifier.bwd_s": (selfs["pretrain"]["classifier.bwd"], "s"),
        "triplets.pass_s": (triplets_s, "s"),
        "triplets.mine_s": (train["triplets.mine"], "s"),
        "triplets.mined": (mined, "count"),
        "triplets.active_ratio": (train_c["triplets.active"] / mined if mined else 0.0, "share"),
        "triplets.skipped_ratio": (train_c["triplets.skipped"] / calls if calls else 0.0, "share"),
        "training.ce_pass_s": (train["training.ce_pass"], "s"),
        "training.self_s": (train["train"], "s"),
        "training.steps": (len(rnd.logs), "count"),
        "training.ce_loss_end": (statistics.fmean(r["ce"] for r in last_epoch), "nats"),
        "training.triplet_loss_end": (statistics.fmean(r["triplet"] for r in last_epoch), "dist"),
        "quality.macro_f1_star": (rnd.report.macro_f1_star, "share"),
        "training.encoder_optim_share": (encoder_optim / train_total, "share"),
        "training.triplets_share": (triplets_s / train_total, "share"),
        "pretrain.optim_s": (selfs["pretrain"]["optim.adam"] + selfs["pretrain"]["optim.clip"], "s"),
        "pretrain.self_s": (selfs["pretrain"]["pretrain"], "s"),
        "eval.self_s": (selfs["eval"]["eval"], "s"),
        "eval.encoder_fwd_s": (selfs["eval"]["encoder.fwd"], "s"),
        "eval.classifier_fwd_s": (selfs["eval"]["classifier.fwd"], "s"),
        "metrics.report_s": (selfs["eval"]["metrics.report"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_ratio": (overhead_s / untraced_s, "share"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}
