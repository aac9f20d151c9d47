.PHONY: install test bench tables clean lint perf-smoke resume-smoke bench-flow cache-smoke bench-scale bench-scale-full monitor-smoke serve-smoke fleet-smoke eco-smoke flowbench-smoke

install:
	pip install -e .

test:
	pytest tests/

test-report:
	pytest tests/ 2>&1 | tee test_output.txt

bench:
	pytest benchmarks/ --benchmark-only

bench-report:
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

tables:
	@ls benchmarks/results/*.txt 2>/dev/null | xargs -I{} sh -c 'echo; cat {}'

# Quick perf sanity check: the jobs-scaling bench on the small aes
# design, bounded so it stays a smoke test (not a measurement run).
perf-smoke:
	REPRO_PERF_DESIGN=aes REPRO_BENCH_SCALE=0.5 timeout 300 \
	pytest benchmarks/bench_perf_scaling.py --benchmark-only -q

# End-to-end flow benchmark + perf-regression gate (docs/performance.md):
# runs the flow on aes, emits bench-flow/run.json (and a fresh
# BENCH_flow.json), then diffs against the committed baseline run
# report.  Wall gate: host-normalised non-V-P&R wall time within 10%;
# QoR gate: any worsening fails.
bench-flow:
	rm -rf bench-flow && mkdir -p bench-flow
	timeout 600 python benchmarks/bench_flow_e2e.py --designs aes \
		--seed 0 --repeats 2 --run-json bench-flow/run.json \
		--json bench-flow/BENCH_flow.json --label after
	python -m repro report diff \
		benchmarks/results/bench_flow_baseline.json bench-flow/run.json \
		--rel 0.10 --stream flow.wallnorm.aes.non_vpr_total
	python -m repro report diff \
		benchmarks/results/bench_flow_baseline.json bench-flow/run.json \
		--rel 0 --stream qor.aes.hpwl

# Array-native netlist-core scaling smoke (docs/performance.md "Array-
# native core"): measures hypergraph/STA construction and bytes per
# instance at 100k for both representations, writes BENCH_scale.json
# and gates the arrays path on build wall, peak RSS and the >=5x
# bytes / >=3x build advantages over the object walk.
bench-scale:
	timeout 600 python benchmarks/bench_scale.py --smoke --gate \
		--json benchmarks/results/BENCH_scale.json

# Full ladder (10k -> 1M instances; the 1M rung is arrays-only).
bench-scale-full:
	timeout 900 python benchmarks/bench_scale.py \
		--json benchmarks/results/BENCH_scale.json

# Cross-run cache smoke: run the aes flow twice against one --cache
# directory and require (a) the second run to serve its V-P&R items
# from the cache (vpr.cache.hit > 0, zero misses) and (b) every metric
# stream — costs, HPWL, selection — to be byte-identical between the
# two runs (docs/performance.md "Cross-run caching").
cache-smoke:
	rm -rf /tmp/repro-cache-smoke && mkdir -p /tmp/repro-cache-smoke
	timeout 300 python -m repro flow --benchmark aes --no-routing \
		--seed 3 --cache /tmp/repro-cache-smoke/cache \
		--telemetry /tmp/repro-cache-smoke/cold
	timeout 300 python -m repro flow --benchmark aes --no-routing \
		--seed 3 --cache /tmp/repro-cache-smoke/cache \
		--telemetry /tmp/repro-cache-smoke/warm
	python -c "import json; \
		cold = json.load(open('/tmp/repro-cache-smoke/cold/run.json'))['perf']['counters']; \
		warm = json.load(open('/tmp/repro-cache-smoke/warm/run.json'))['perf']['counters']; \
		assert cold.get('vpr.cache.store', 0) > 0, cold; \
		assert warm.get('vpr.cache.hit', 0) > 0, warm; \
		assert warm.get('vpr.cache.miss', 0) == 0, warm; \
		print('cache-smoke: warm run served', warm['vpr.cache.hit'], 'items from cache')"
	python -m repro report diff \
		/tmp/repro-cache-smoke/cold/run.json \
		/tmp/repro-cache-smoke/warm/run.json --rel 0 --abs 0

# Live-monitor smoke (docs/observability.md "Live monitoring"): launch
# a monitored flow as a subprocess, poll status.json until progress
# visibly advances (asserting monotonicity at every poll), render
# `repro top DIR --once` from a separate process mid-flight, then gate
# the sampler+progress overhead at <=5% wall on aes with byte-identical
# QoR / stream / shape hashes between the monitored and bare arms.
monitor-smoke:
	rm -rf monitor-smoke && mkdir -p monitor-smoke
	timeout 300 python benchmarks/bench_monitor_overhead.py --live
	timeout 600 python benchmarks/bench_monitor_overhead.py --gate \
		--repeats 3 --max-overhead 0.05 \
		--json monitor-smoke/BENCH_monitor.json

# Job-server smoke (docs/serving.md): boot a real `repro serve` daemon
# on an ephemeral port, drive it with concurrent closed-loop clients
# (2 designs x 2 repeats each), and gate on: zero failed jobs, warm
# cache hits > 0, p99 submit-to-done latency under 60s, warm jobs at
# least 1.3x faster than cold, and a clean POST /shutdown exit.
serve-smoke:
	rm -rf serve-smoke && mkdir -p serve-smoke
	timeout 600 python benchmarks/bench_serve_load.py --gate \
		--clients 4 --designs 2 --repeats 2 --workers 2 \
		--max-p99 60 --min-speedup 1.3 \
		--json serve-smoke/BENCH_serve.json

# Distributed-sweep smoke (docs/performance.md, "Distributed sweep"):
# run the shape sweep serially, on 1 fleet worker, on 2 fleet workers,
# and on 2 workers with one armed to die mid-item, then gate on: all
# four QoR SHA-256 hashes byte-identical, fleet x2 at least 1.6x
# faster than fleet x1, the killed worker re-dispatched, and every
# worker process reaped at close (clean shutdown).
fleet-smoke:
	rm -rf fleet-smoke && mkdir -p fleet-smoke
	timeout 600 python benchmarks/bench_fleet_scaling.py --gate --kill \
		--min-speedup 1.6 \
		--json fleet-smoke/BENCH_fleet.json

# Incremental-ECO smoke (docs/performance.md "Incremental ECO"): one
# cold checkpointed base run, then a single-cell resize replayed two
# ways — a cold flow on the edited design vs `repro eco` over the
# checkpoint — gating on >=10x ECO speedup for an edit touching <1%
# of instances, <=5% HPWL drift between the two answers, and a no-op
# edit script reproducing the base run's metrics bit for bit.
eco-smoke:
	rm -rf eco-smoke && mkdir -p eco-smoke
	timeout 600 python benchmarks/bench_eco.py --gate \
		--json eco-smoke/BENCH_eco.json

# Repository-benchmark smoke (flowbench/): the tracer and per-layer
# ledger self-test, then one traced sweep_cold run whose last output
# line must read "correct": true.  The traced run also proves the
# tracer still installs on every entry point it wraps.
flowbench-smoke:
	rm -rf flowbench-smoke && mkdir -p flowbench-smoke
	timeout 300 python -m pytest flowbench/test_spans.py -q
	timeout 600 python flowbench/run.py --workload sweep_cold --seed 1 \
		--seconds 1 --trace 1 --out flowbench-smoke/sweep_cold.json \
		> flowbench-smoke/sweep_cold.log
	tail -n 1 flowbench-smoke/sweep_cold.log | python -c "import json, sys; \
		result = json.loads(sys.stdin.read()); \
		assert result['correct'] is True, result; \
		print('flowbench-smoke: traced sweep_cold run is correct')"

# Crash-safety smoke: run a checkpointed flow, kill it mid-sweep with
# an injected abort, resume, and require the resumed QoR to match an
# uninterrupted baseline byte for byte (docs/recovery.md).
resume-smoke:
	rm -rf /tmp/repro-resume-smoke && mkdir -p /tmp/repro-resume-smoke
	timeout 300 python -m repro flow --benchmark aes --no-routing \
		--seed 3 --report /tmp/repro-resume-smoke/base.json
	REPRO_FAULTS='abort:vpr.item.saved:#6' timeout 300 \
		python -m repro flow --benchmark aes --no-routing --seed 3 \
		--checkpoint /tmp/repro-resume-smoke/ckpt; \
		test $$? -eq 123  # the injected abort's exit code
	timeout 300 python -m repro flow --benchmark aes --no-routing \
		--seed 3 --checkpoint /tmp/repro-resume-smoke/ckpt --resume \
		--report /tmp/repro-resume-smoke/resumed.json
	python -c "import json; \
		a = json.load(open('/tmp/repro-resume-smoke/base.json')); \
		b = json.load(open('/tmp/repro-resume-smoke/resumed.json')); \
		assert a['metrics'] == b['metrics'], (a['metrics'], b['metrics']); \
		print('resume-smoke: resumed QoR identical to uninterrupted run')"

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
