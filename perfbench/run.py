"""The ercml benchmark: one command, two workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload train-wr --seed 1 --seconds 55 --trace 0

Run from the repository root. The program is imported from ``src/``; the
inputs are generated from ``--seed`` by ``gen.py`` in a child process, so
the peak memory measured here is the program's. ``--trace 0`` prints the
end-to-end metrics of untraced rounds; ``--trace 1`` runs two untraced
rounds and one traced round and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads: on 2-core machines it ran faster
# than the default and it holds the setting equal between any two commits.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import gc
import hashlib
import json
import math
import platform
import resource
import shutil
import subprocess
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

DIM = 384
HEADS = 6
# The default rate (1e-3) sends a few-dozen-step run into seed-dependent
# collapse, so the quality guards would be noise. Per-step work is the same.
LEARNING_RATE = 1e-4
# One epoch per round keeps a round to a few seconds, so a run holds several
# rounds to take each timing over. Per-epoch work is the paper's.
EPOCHS = 1

# `make paper-run` on DailyDialog: 10 seeds x (store load + pretrain + 5 epochs + test eval).
PAPER_SEEDS = 10
PAPER_EPOCHS = 5
PAPER_STORE_VECTORS = 102979
PAPER_TRAIN_UTT = 87170
PAPER_TEST_UTT = 7740


@dataclass(frozen=True)
class Workload:
    name: str
    sampling: str
    sizes: dict          # split -> dialogs; "test" is the scored split
    checkpoint_in_setup: bool
    # Set-ups are repeated between the rounds until they have taken this
    # share of the time measured so far.
    setup_share: float


WORKLOADS = {
    w.name: w for w in (
        # The `make paper-run` recipe: encoder backward, Adam and add_grads dominate.
        # Its set-up is `ercml eval`'s: a store much larger than the scored split
        # (the validation split only fills the store) and the checkpoint load.
        Workload("train-wr", "weighted-random", {"train": 48, "validation": 700, "test": 160},
                 checkpoint_in_setup=True, setup_share=0.3),
        # Batch-all mining: triplet_pass dominates, encoder work is diluted. Its
        # training speed swings most with the machine, so rounds get the time.
        Workload("train-ba", "batch-all", {"train": 24, "validation": 8, "test": 160},
                 checkpoint_in_setup=False, setup_share=0.1),
    )
}

SMOKE_SIZES = {"train": 16, "validation": 4, "test": 8}
SMOKE_DIM = 24


def import_program():
    """Import ercml from this checkout's src/, and from nowhere else."""
    if not (SRC / "ercml" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'ercml'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ercml

    if Path(ercml.__file__).resolve().parent != (SRC / "ercml").resolve():
        sys.exit(f"perfbench: ercml imported from {ercml.__file__}, not from {SRC}")
    return ercml


# --- run record -------------------------------------------------------------

def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, found through the process's own maps."""
    try:
        libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((SRC / "ercml").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(), "threads_requested": BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# --- one run ----------------------------------------------------------------

class Ops:
    """Operations attempted and failed: train steps and scored dialogs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def lost(self, n: int, what: str) -> None:
        self.attempted += n
        self.failed += n
        self.problems.append(what)


@dataclass
class Data:
    train: object
    test: object
    store: object


@dataclass
class Round:
    pretrain_s: float
    pretrain_steps: int
    train_s: float
    eval_s: float
    trajectory: str      # every loss and the eval report, serialised exactly
    report: object
    logs: list
    wall_s: float


class Bench:
    def __init__(self, ercml, workload: Workload, seed: int, inputs: Path):
        self.e = ercml
        self.w = workload
        self.inputs = inputs
        self.ckpt = inputs / "model.npz"
        self.config = ercml.TrainConfig(
            epochs=EPOCHS, batch_size=8, learning_rate=LEARNING_RATE, seed=seed,
            heads=HEADS, sampling_strategy=workload.sampling, loss_mode="alternating",
        )
        self.ops = Ops()
        self.tracer = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def setup(self, with_checkpoint: bool) -> tuple[Data, dict]:
        """load_split + load_sentence_embeddings (+ ContextualModel.load), timed per part."""
        e = self.e
        gc.collect()  # start every repeat from the same heap, not the previous phase's garbage
        with self.span("setup"):
            t0 = time.perf_counter()
            with self.span("corpus.load"):
                train = e.load_split(self.inputs, "train")
                test = e.load_split(self.inputs, "test")
            t1 = time.perf_counter()
            with self.span("embeddings.load"):
                store = e.load_sentence_embeddings(self.inputs / "store.jsonl")
            t2 = time.perf_counter()
            if with_checkpoint:
                with self.span("checkpoint.load"):
                    e.ContextualModel.load(self.ckpt)
            t3 = time.perf_counter()
        times = {"corpus": t1 - t0, "store": t2 - t1, "checkpoint": t3 - t2, "total": t3 - t0}
        return Data(train, test, store), times

    def pretrain_steps(self, corpus) -> int:
        """The step count train_contextual would pick for this corpus."""
        space = self.config.label_space()
        n = sum(1 for _, u in corpus.iter_utterances() if u.label in space)
        return self.config.pretrain_epochs * max(1, math.ceil(n / self.config.pretrain_batch_size))

    def round(self, data: Data) -> Round:
        e, cfg, ops = self.e, self.config, self.ops
        start = time.perf_counter()
        steps = self.pretrain_steps(data.train)
        pre_logs: list = []
        with self.span("pretrain"):
            t0 = time.perf_counter()
            clf = e.pretrain_classifier(
                data.train, data.store, label_space=cfg.label_space(), steps=steps,
                batch_size=cfg.pretrain_batch_size, learning_rate=cfg.learning_rate, seed=cfg.seed,
                heads=cfg.heads, ffn_dim=cfg.ffn_dim, weighted_sampler=cfg.weighted_sampler,
                weighted_ce=cfg.weighted_ce, smooth_counts=cfg.smooth_counts, grad_clip=cfg.grad_clip,
                log_hook=pre_logs.append,
            )
            pretrain_s = time.perf_counter() - t0
        for rec in pre_logs:
            ops.check(math.isfinite(rec["ce"]), f"pretrain step {rec['step']}: ce {rec['ce']}")
        ops.check(len(pre_logs) == steps, f"pretrain ran {len(pre_logs)} of {steps} steps")

        expected = cfg.epochs * math.ceil(len(data.train.dialogs) / cfg.batch_size)
        logs: list = []
        with self.span("train"):
            t0 = time.perf_counter()
            model = e.train_contextual(data.train, data.store, cfg, classifier=clf, log_hook=logs.append)
            train_s = time.perf_counter() - t0
        for rec in logs:
            ok = math.isfinite(rec["ce"]) and math.isfinite(rec["triplet"])
            ops.check(ok, f"train step {rec['step']}: ce {rec['ce']} triplet {rec['triplet']}")
        ops.check(len(logs) == expected, f"train ran {len(logs)} of {expected} steps")

        model.save(self.ckpt)
        with self.span("checkpoint.load"):
            loaded = e.ContextualModel.load(self.ckpt)
        same = all(
            (a == b).all()
            for a, b in zip(self._tensors(model), self._tensors(loaded), strict=True)
        )
        ops.check(same, "checkpoint round trip changed a tensor")

        with self.span("eval"):
            t0 = time.perf_counter()
            report = e.evaluate_model(loaded, data.test, data.store)
            eval_s = time.perf_counter() - t0
        self._check_report(report, data.test)
        wall = time.perf_counter() - start
        trajectory = json.dumps(
            {"pretrain": [r["ce"] for r in pre_logs], "train": logs, "eval": report.to_dict()}, sort_keys=True
        )
        return Round(pretrain_s, steps, train_s, eval_s, trajectory, report, logs, wall)

    @staticmethod
    def _tensors(model):
        layers = [layer.tensors() for layer in model.encoder] + [model.classifier.tensors()]
        return [tensors[name] for tensors in layers for name in sorted(tensors)]

    def _check_report(self, report, corpus) -> None:
        """One prediction per scorable utterance: each gold label counted once."""
        names = report.confusion.label_space
        gold = [0] * len(names)
        for _, u in corpus.iter_utterances():
            gold[names.index(self.e.LABEL_NAMES[u.label])] += 1
        ok = report.n_scored == corpus.n_utterances and list(report.confusion.counts.sum(axis=1)) == gold
        for _ in corpus.dialogs:
            self.ops.check(ok, f"eval scored {report.n_scored} of {corpus.n_utterances} utterances")

    def check_predictions(self, data: Data) -> None:
        """Per dialog: predict gives one in-space label per utterance."""
        model = self.e.ContextualModel.load(self.ckpt)
        space = set(model.classifier.label_space)
        for dialog in data.test.dialogs:
            labels = self.e.predict(model, dialog, data.store)
            ok = len(labels) == len(dialog) and all(lab in space for lab in labels)
            self.ops.check(ok, f"predict on {dialog.id}: {len(labels)} labels for {len(dialog)} utterances")


def end_to_end(rounds: list[Round], setups: list[dict], data: Data, ops: Ops) -> dict:
    """The end-to-end metrics; every timing is the slowest of the run's calls.

    The program is deterministic and single-threaded, so every round does
    the same work, but a shared host runs it at a base speed with spells up
    to twice as fast that come and go over seconds (CPU time moves with wall
    time, so it is the core's speed, not waiting). How much of a run the
    spells cover varies, and a median or the fastest call follows that
    share; the slowest call reads the base speed. A regression in the code
    slows every call, the slowest too. The first round warms caches and is
    checked but not timed.
    """
    first, timed = rounds[0], rounds[1:]
    samples = {
        "setup_s": [s["total"] for s in setups],
        "pretrain_s": [rnd.pretrain_s for rnd in timed],
        "train_s": [rnd.train_s for rnd in timed],
        "eval_s": [rnd.eval_s for rnd in timed],
    }
    print("samples " + json.dumps(samples))
    for name, values in samples.items():
        print(f"{name} samples {len(values)}, median {median(values):.6g}, min {min(values):.6g}, max {max(values):.6g}")
    pretrain_s = max(samples["pretrain_s"])
    train_rate = EPOCHS * data.train.n_utterances / max(samples["train_s"])
    eval_rate = first.report.n_scored / max(samples["eval_s"])
    store_s = max(s["store"] for s in setups)
    paper_pretrain_steps = 3 * math.ceil(PAPER_TRAIN_UTT / 32)
    paper_s = PAPER_SEEDS * (
        PAPER_STORE_VECTORS * store_s / len(data.store)
        + paper_pretrain_steps * pretrain_s / first.pretrain_steps
        + PAPER_EPOCHS * PAPER_TRAIN_UTT / train_rate
        + PAPER_TEST_UTT / eval_rate
    )
    values = {
        "setup_s": (max(samples["setup_s"]), "s"),
        "pretrain_s": (pretrain_s, "s"),
        "train_utt_per_s": (train_rate, "utt/s"),
        "eval_utt_per_s": (eval_rate, "utt/s"),
        "paper_run_h": (paper_s / 3600.0, "h"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (1.0 - ops.failed / max(ops.attempted, 1), "share"),
        "mcc": (first.report.mcc, "coef"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def generate(workload: Workload, seed: int, out: Path, smoke: bool) -> None:
    sizes = dict(workload.sizes)
    if smoke:
        sizes = dict(SMOKE_SIZES, validation=SMOKE_SIZES["validation"] * (10 if workload.checkpoint_in_setup else 1))
    cmd = [sys.executable, str(HERE / "gen.py"), str(out), "--dim", str(SMOKE_DIM if smoke else DIM),
           "--seed", str(seed)] + [a for split, n in sizes.items() for a in (f"--{split}", str(n))]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=170)


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, bool]:
    """Run the workload; returns (metrics, outputs consistent)."""
    import layers
    from tracing import Tracer

    w = bench.w
    warm, _ = bench.setup(with_checkpoint=False)
    start = time.perf_counter()
    rounds = [bench.round(warm)]
    bench.check_predictions(warm)
    if not trace:
        setups: list[dict] = []
        while True:
            # Set-ups are spread over the whole run, not bunched in one stretch
            # of it, so a slow spell of the machine moves few of them.
            while not setups or sum(t["total"] for t in setups) < w.setup_share * (time.perf_counter() - start):
                setups.append(bench.setup(w.checkpoint_in_setup)[1])
            # Stop before a round that would end after `seconds`; the first
            # round is a warm-up, so at least one more is timed.
            if len(rounds) > 1 and time.perf_counter() - start + rounds[-1].wall_s > seconds:
                break
            rounds.append(bench.round(warm))
        consistent = len({r.trajectory for r in rounds}) == 1
        return end_to_end(rounds, setups, warm, bench.ops), consistent

    # A second untraced round, warm like the traced one, is the overhead baseline.
    rounds.append(bench.round(warm))
    bench.tracer = Tracer(run_id=f"{w.name}-traced")
    layers.install(bench.tracer)
    try:
        data, _ = bench.setup(w.checkpoint_in_setup)
        traced = bench.round(data)
    finally:
        bench.tracer.uninstall()
    consistent = len({r.trajectory for r in rounds + [traced]}) == 1
    metrics = layers.per_layer(bench.tracer, traced, vectors=len(data.store), untraced_s=rounds[1].wall_s,
                               checkpoint_in_setup=w.checkpoint_in_setup)
    return metrics, consistent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="ercml benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = ap.parse_args(argv)

    ercml = import_program()
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    record = run_record()
    print("run_record " + json.dumps(record, sort_keys=True))
    bench = None
    try:
        generate(workload, args.seed, work, args.smoke)
        bench = Bench(ercml, workload, args.seed, work)
        metrics, consistent = measure(bench, args.seconds, bool(args.trace))
    except Exception:
        # The operation under way raised: report it as failed, with no metrics.
        traceback.print_exc()
        ops = bench.ops if bench is not None else Ops()
        ops.lost(1, "an operation raised")
        print(json.dumps({"correct": False, "attempted": ops.attempted, "failed": ops.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bench.tracer is not None:
        bench.tracer.write(WORK / f"trace-{workload.name}-seed{args.seed}.json", record)

    ops = bench.ops
    for problem in ops.problems[:20]:
        print(f"FAILED {problem}")
    if not consistent:
        print("FAILED losses or eval report differ between rounds" + (" (traced vs untraced)" if args.trace else ""))
    print(f"failed_ratio {ops.failed / max(ops.attempted, 1):.6g} share ({ops.failed}/{ops.attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": ops.failed == 0 and consistent,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
