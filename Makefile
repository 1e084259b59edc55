# Convenience targets for the RABIT reproduction.

.PHONY: install lint test bench serve-bench shard-bench shard-soak examples campaign latency metrics montecarlo replay docs-check check clean

install:
	pip install -e .[dev]

# Byte-compiles everything unconditionally; runs ruff when it is on PATH
# (CI installs it — the runtime container deliberately has no extra deps).
lint:
	python -m compileall -q src tests benchmarks examples
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipped style checks (compileall ran)"; \
	fi

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Multi-session guard-service throughput (K=8 vs sequential, hard 3x gate).
serve-bench:
	PYTHONPATH=src python -m pytest benchmarks/test_serve_throughput.py

# Sharded-service scale-out (N=2 vs N=1 workers; gates on >= 4 cores).
shard-bench:
	PYTHONPATH=src python -m pytest benchmarks/test_shard_throughput.py

# Sharded-service soak: merged cross-worker stats must balance exactly.
shard-soak:
	python scripts/shard_soak.py

examples:
	python examples/quickstart.py
	python examples/solubility_experiment.py
	python examples/multi_robot.py
	python examples/three_stage_validation.py
	python examples/failsafe_and_sensors.py
	python examples/adapt_new_lab.py

campaign:
	python -m repro campaign

latency:
	python -m repro latency

metrics:
	python -m repro metrics

montecarlo:
	python -m repro montecarlo --samples 40 --workers auto

# Replay the committed golden traces: any byte-level divergence in the
# verdict/state-delta stream fails the target (and prints the first
# diff).
replay:
	PYTHONPATH=src python -m repro replay --diff tests/fixtures/traces/*.trace.jsonl

# Docs stay executable: every relative markdown link must resolve and
# every plain `python -m repro ...` line in README/docs fenced blocks
# must exit 0 (also a ci_gates.sh step).
docs-check:
	bash scripts/check_docs_links.sh
	bash scripts/check_docs_cmds.sh

# The CI gate: the exact sequence GitHub Actions runs, via the shared
# script (tier-1 suite, differential harnesses, golden-trace replay,
# benchmark gates, the perf-trend regression check, and the docs
# link/command checks).  Local runs
# include the 4-worker parallel differential; 2-core CI runners leave
# CI_GATES_FULL unset and skip it (the nightly tier covers it).
check:
	CI_GATES_FULL=1 bash scripts/ci_gates.sh

clean:
	rm -rf .pytest_cache benchmarks/results __pycache__
	find . -name "__pycache__" -type d -exec rm -rf {} +
