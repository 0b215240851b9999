PY ?= python3

DATA ?= data/dailydialog
STORE ?= data/minilm_store.jsonl
RUNS ?= runs/paper
SEEDS ?= 0 1 2 3 4 5 6 7 8 9

.PHONY: test tier1 acceptance demos bench-smoke bench-pairs byte-identity paper-run

# The package is imported from src/, so no `pip install -e .` is needed.
SRC_PATH = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}

test:
	$(SRC_PATH) $(PY) -m pytest

acceptance:
	$(SRC_PATH) $(PY) -m pytest tests/test_acceptance.py -v -s

demos:
	set -e; for d in demos/*.py; do echo "== $$d"; $(SRC_PATH) $(PY) $$d; done

# Benchmark smoke test: both workloads, traced and untraced, at a tiny size.
bench-smoke:
	$(PY) -m pytest -q perfbench/test_smoke.py

# Paired parent/change runs of the benchmark, alternating which side goes
# first; writes BENCH_$(BENCH_NAME).json. The change side is the working
# tree. About 2 x 65 s per seed and workload.
PARENT ?= HEAD
BENCH_NAME ?= local
BENCH_SEEDS ?= 201-210
BENCH_WORKLOADS ?= train-wr train-ba
bench-pairs:
	$(PY) scripts/bench_pairs.py --parent $(PARENT) --name $(BENCH_NAME) --seeds $(BENCH_SEEDS) --workloads $(BENCH_WORKLOADS)

# Byte-identity check against $(PARENT): the C13 train recipe for every
# sampling strategy and label space, pretrain, five train runs that each
# change one setting (2 layers, summed loss, cosine distance, no weighting,
# a pretrained classifier), a train run read from a config file with one
# flag overriding it, then eval, predict, stats, sample-triplets and
# llm-eval, run in the exported parent tree and in the working tree; every
# artifact and each command's output are compared, and any difference
# exits 1. About a minute and a half.
byte-identity:
	$(PY) scripts/byte_identity.py --parent $(PARENT)

# Full-scale experiment, NOT a CI gate: needs the real DailyDialog
# download under $(DATA) and a 384-dim sentence-embedding export at
# $(STORE) (see README for the export format). Averages 10 seeded runs;
# with a MiniLM-class export the expected means are 57.71 macroF1* /
# 57.75 microF1* / 0.49 MCC within +/- 2.0 points (F1 in percentage
# points). GPU-scale wall time on CPU; run it deliberately. One BLAS thread,
# as in the benchmark: a trained model is byte-identical only at a fixed
# BLAS thread count. One target per seed, keyed on the metrics.json that
# `train` writes last: a rerun trains only the seeds without one, and
# `make -j N paper-run` trains N seeds at a time.
ONE_BLAS_THREAD = OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
paper-run: $(foreach seed,$(SEEDS),$(RUNS)/seed-$(seed)/metrics.json)
	$(SRC_PATH) $(PY) scripts/aggregate_paper_runs.py $(RUNS)

$(RUNS)/seed-%/metrics.json:
	@echo "== paper-run seed $*"
	$(ONE_BLAS_THREAD) $(SRC_PATH) $(PY) -m ercml.cli train --data $(DATA) --store $(STORE) \
	  --out $(RUNS)/seed-$* --seed $* --epochs 5 --heads 6

# The Tier-1 check named in ROADMAP.md: the whole suite, collection errors
# reported per file instead of stopping the run.
tier1:
	$(SRC_PATH) $(PY) -m pytest -q --continue-on-collection-errors
