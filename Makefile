# Convenience targets for the TerraDir reproduction.
#
#   make install      editable install (offline-friendly)
#   make lint         ruff over sources, tests, benchmarks, examples, scripts
#   make test         full unit/integration/property suite, slowest 15 listed
#   make bench        every figure/table benchmark (shape assertions)
#   make experiments  print every figure's data (REPRO_SCALE=tiny|small|paper)
#   make campaign     the same experiments as a cached, resumable campaign
#                     (artifacts in results/; re-runs skip fingerprint hits)
#   make figures      render every figure as SVG into figures/
#   make outputs      the canonical test_output.txt / bench_output.txt pair
#   make bench-selfcheck  the repo benchmark's own tests (bench/tests, ~30 s)
#   make pairs PARENT=<commit> W=<workload> [N=10] [SEEDS=1,2]
#                     alternating parent/change benchmark pairs from clean
#                     copies: medians, quartiles, wins (scripts/pairs.py)
#   make loc PARENT=<commit>  src/ lines added, deleted and moved against
#                     a parent, per file and in total (scripts/loc.py)
#   make mem          build both 10^6-node namespaces under the 2 GB RSS budget,
#                     and a 131 071-node / 256-server fleet under 89 MiB
#   make shard-check  sharded runs bit-identical to serial, events within 5 %
#                     (the CI sharded-determinism job's two invocations)
#   make serve-smoke  live 5-peer UDS cluster + AIMD client (capacity.json)
#   make det-lint     determinism/shard-safety AST lint (python -m repro lint)
#   make typecheck    mypy strict gate over sim/, net/, core/, server/, filters/, workload/, tools/

PYTHON ?= python

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

lint:
	$(PYTHON) -m ruff check src/ tests/ benchmarks/ examples/ scripts/

test:
	$(PYTHON) -m pytest tests/ -q --durations=15

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

experiments:
	$(PYTHON) -m repro

campaign:
	$(PYTHON) -m repro run --out results

figures:
	$(PYTHON) -m repro.viz.figures --out figures

bench-selfcheck:
	$(PYTHON) -m pytest bench/tests -q

N ?= 10
SEEDS ?= 1,2

pairs:
	$(PYTHON) scripts/pairs.py --parent $(PARENT) --workload $(W) \
		--n $(N) --seeds $(SEEDS)

loc:
	$(PYTHON) scripts/loc.py --parent $(PARENT)

mem:
	$(PYTHON) -m repro mem-smoke
	$(PYTHON) -m repro mem-smoke --nodes 100000 --servers 256 --budget-mb 89

shard-check:
	$(PYTHON) -m repro shard-check --shards 1,2,4
	$(PYTHON) -W error::DeprecationWarning -m repro shard-check --shards 2,4 --backend process

serve-smoke:
	$(PYTHON) -m repro serve --servers 5 --duration 10 \
		--drive adaptive --out capacity.json

det-lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src

typecheck:
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy \
		|| echo "mypy not installed; skipping (CI runs the gate)"

outputs:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

.PHONY: install lint test bench experiments campaign figures outputs bench-selfcheck pairs loc mem shard-check serve-smoke det-lint typecheck
