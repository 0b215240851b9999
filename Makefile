PY ?= python3

DATA ?= data/dailydialog
STORE ?= data/minilm_store.jsonl
RUNS ?= runs/paper
SEEDS ?= 0 1 2 3 4 5 6 7 8 9

.PHONY: test tier1 acceptance demos bench-smoke paper-run

test:
	$(PY) -m pytest

acceptance:
	$(PY) -m pytest tests/test_acceptance.py -v -s

demos:
	set -e; for d in demos/*.py; do echo "== $$d"; $(PY) $$d; done

# Benchmark smoke test: both workloads, traced and untraced, at a tiny size.
bench-smoke:
	$(PY) -m pytest -q perfbench/test_smoke.py

# Full-scale experiment, NOT a CI gate: needs the real DailyDialog
# download under $(DATA) and a 384-dim sentence-embedding export at
# $(STORE) (see README for the export format). Averages 10 seeded runs;
# with a MiniLM-class export the expected means are 57.71 macroF1* /
# 57.75 microF1* / 0.49 MCC within +/- 2.0 points (F1 in percentage
# points). GPU-scale wall time on CPU; run it deliberately.
paper-run:
	set -e; for seed in $(SEEDS); do \
	  echo "== paper-run seed $$seed"; \
	  $(PY) -m ercml.cli train --data $(DATA) --store $(STORE) \
	    --out $(RUNS)/seed-$$seed --seed $$seed --epochs 5 --heads 6; \
	done
	$(PY) scripts/aggregate_paper_runs.py $(RUNS)

# The Tier-1 check named in ROADMAP.md: the whole suite, collection errors
# reported per file instead of stopping the run.
tier1:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
