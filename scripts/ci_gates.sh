#!/usr/bin/env bash
# The single source of truth for the CI gate sequence.
#
# Both `make check` and the GitHub Actions check job run this script, so
# the two can never drift apart again (previously the Makefile ran the
# full 4-worker parallel differential while CI silently excluded it).
#
# Knobs (environment):
#   CI_GATES_FULL=1          also run the 4-worker parallel differential
#                            (needs >= 4 usable cores; the nightly tier
#                            and `make check` set it, 2-core PR runners
#                            do not)
#   COMPILED_DIFF_SAMPLES=N  widen the compiled-vs-interpreted mutant
#                            corpus sample (default 8; nightly uses more)
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "==> tier-1 test suite"
python -m pytest -x -q tests/

echo "==> differential & property harnesses"
python -m pytest -q \
    tests/test_collision_differential.py \
    tests/test_kinematics_differential.py \
    tests/test_stateful_no_false_positives.py \
    tests/test_obs_differential.py \
    tests/test_obs_record_projection.py \
    tests/test_compiled_differential.py \
    tests/test_serve_differential.py \
    tests/test_plan_end_pose.py \
    tests/test_sweep_one_pass.py \
    tests/test_state_merge_once.py \
    tests/test_fetch_state_one_pass.py

if [ "${CI_GATES_FULL:-0}" = "1" ]; then
    echo "==> parallel-vs-sequential differential (full, incl. 4-worker pool)"
    python -m pytest -q tests/test_parallel_differential.py
else
    echo "==> parallel-vs-sequential differential (2-worker pool)"
    python -m pytest -q tests/test_parallel_differential.py -k "not workers4"
fi

echo "==> golden-trace replay gate (byte-identical record/replay)"
python -m repro replay --diff tests/fixtures/traces/*.trace.jsonl

echo "==> benchmark gates (throughput, latency, observability, cold guard path, plan cache, serve)"
python -m pytest -q \
    benchmarks/test_collision_throughput.py \
    benchmarks/test_fk_throughput.py \
    benchmarks/test_latency_overhead.py \
    benchmarks/test_obs_overhead.py \
    benchmarks/test_cold_guard_latency.py \
    benchmarks/test_plan_cache.py \
    benchmarks/test_montecarlo_throughput.py \
    benchmarks/test_serve_throughput.py \
    benchmarks/test_shard_throughput.py

echo "==> guard benchmark self-tests (metric arithmetic, traffic, verdict checks)"
python -m pytest -q guardbench

# The traced run wraps src functions and classes by name, so a rename
# that the self-tests above never touch still breaks `--trace 1`.  Run it
# once per workload; the last line is the run's JSON result.
echo "==> traced guard benchmark (1-s run per workload, verdicts correct)"
for workload in mix_inproc mix_serve repeat_bare; do
    result=$(python3 guardbench/run.py --workload "$workload" --seed 3 --seconds 1 --trace 1 | tail -n 1)
    python3 - "$workload" "$result" <<'PY'
import json, sys
workload, result = sys.argv[1], json.loads(sys.argv[2])
if result.get("correct") is not True:
    sys.exit(f"{workload}: traced guardbench run not correct: {result}")
PY
done

echo "==> perf trend regression gate"
python benchmarks/check_trend.py

echo "==> docs gates (relative links resolve, documented commands execute)"
bash scripts/check_docs_links.sh
bash scripts/check_docs_cmds.sh

echo "==> all CI gates passed"
