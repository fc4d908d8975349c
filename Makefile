# Two test tiers (see ROADMAP.md):
#   tier 1: `make test`          — the full pytest suite, fast, no timing
#                                  assertions; must always pass.
#   tier 2: `make bench-paremsp` — full-scale perf gate for the
#                                  vectorised PAREMSP pipeline; fails if
#                                  the engines diverge or the vectorized
#                                  speedup drops below 5x on the
#                                  2048x2048 reference raster.
# Perf history on top of tier 2 (see docs/OBSERVABILITY.md):
#   `make bench-history` appends a repro.perfdb record (median +
#   bootstrap CI + environment fingerprint) under benchmarks/history/;
#   `make perf-gate` diffs the latest record against the committed
#   baseline and fails on regression; `make analyze-trace` prints the
#   speedup decomposition of the traces bench-trace wrote.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test chaos bench-paremsp bench-trace bench bench-history \
	bench-density dispatch-table perf-gate analyze-trace service-smoke \
	service-metrics-smoke shard-smoke shard-soak net-shard-smoke

test:
	$(PYTHON) -m pytest -x -q

# fault-injection suite (see docs/RESILIENCE.md): every (backend x
# fault) cell must recover byte-identically or raise a typed error,
# and a checkpointed job SIGKILLed mid-run must resume through the CLI
# to byte-identical labels — the hard timeout turns any hang into a
# failure rather than a wedged job.
chaos:
	timeout 600 $(PYTHON) -m pytest -m chaos -q

bench-paremsp:
	$(PYTHON) -m repro.bench.paremsp_smoke --size 2048 --repeats 5 \
		--out BENCH_paremsp.json

# per-phase/per-thread breakdowns on all three backends; writes
# trace_<backend>.jsonl next to the bench record.
bench-trace:
	$(PYTHON) -m repro.bench.paremsp_smoke --size 1024 --repeats 3 \
		--trace --out BENCH_paremsp.json

# append a perf-history record for `perf-gate`. Runs the gate
# configuration (size 512 — what benchmarks/history/baseline.json was
# recorded at); records only compare like-for-like.
bench-history:
	$(PYTHON) -m repro.bench.paremsp_smoke --size 512 --repeats 3 \
		--warmup 1 --record-only --out BENCH_ci.json \
		--history benchmarks/history

# engine x pattern x density sweep feeding the `auto` dispatch engine
# (see docs/ALGORITHMS.md): every cell is oracle-checked before its
# timing counts, the record lands in the perf history for `perf-gate`.
bench-density:
	$(PYTHON) benchmarks/bench_density_sweep.py --size 512 --repeats 3 \
		--warmup 1 --history benchmarks/history

# regenerate src/repro/ccl/dispatch_table.json (and the committed
# density baseline) from a fresh sweep on this machine.
dispatch-table:
	$(PYTHON) benchmarks/bench_density_sweep.py --size 512 --repeats 3 \
		--warmup 1 --history benchmarks/history --write-table \
		--out benchmarks/history/baseline_density.json

# regression gate: latest history record vs the committed baseline,
# per benchmark (the compare picks the newest record matching the
# baseline's own benchmark name, so the shared history directory is
# safe). The service gate covers queue-latency percentiles too; the
# density gate watches the auto-dispatch sweep cells.
perf-gate:
	$(PYTHON) -m repro.obs.cli compare benchmarks/history/baseline.json \
		--dir benchmarks/history
	$(PYTHON) -m repro.obs.cli compare \
		benchmarks/history/baseline_service.json \
		--dir benchmarks/history
	$(PYTHON) -m repro.obs.cli compare \
		benchmarks/history/baseline_density.json \
		--dir benchmarks/history
	$(PYTHON) -m repro.obs.cli compare \
		benchmarks/history/baseline_shard.json \
		--dir benchmarks/history
	$(PYTHON) -m repro.obs.cli compare \
		benchmarks/history/baseline_netshard.json \
		--dir benchmarks/history

# speedup decomposition (serial fraction, imbalance, contention) of the
# traces `make bench-trace` leaves behind.
analyze-trace:
	$(PYTHON) -m repro.obs.cli analyze trace_serial.jsonl \
		trace_threads.jsonl trace_processes.jsonl

# warm-pool service gate (see docs/SERVICE.md): boots the labeling
# service, replays a stream of small-image requests, and fails unless
# warm throughput beats per-call fork by 2x with byte-identical answers
# and a clean /dev/shm after the drain. Merges a "service" section into
# BENCH_paremsp.json and appends queue-latency percentiles to the perf
# history for `perf-gate`.
service-smoke:
	$(PYTHON) -m repro.bench.service_smoke --requests 64 --repeats 3 \
		--out BENCH_paremsp.json --history benchmarks/history

# runtime-telemetry gate (see docs/OBSERVABILITY.md "Runtime
# telemetry"): boots a traced service behind /metrics, scrapes it
# mid-run (required families, live latency quantiles, slo_* breaches),
# verifies one request id stitches frontend + >= 2 worker lanes
# through a chrome-export round trip, and enforces the sampling
# profiler's overhead budget (<2% detached, <5% attached).
service-metrics-smoke:
	$(PYTHON) -m repro.bench.metrics_smoke --out BENCH_paremsp.json

# elastic-shard gate (see docs/SHARDED.md): labels a ~64 MB on-disk
# raster with 4 supervised shard processes, kills one rank mid-scan,
# and fails unless recovery resumes from the shard's checkpoints to
# byte-identical labels within the overhead ceiling, with /dev/shm and
# the checkpoint directory left clean. Appends the recovery-overhead
# record to the perf history for `perf-gate`.
shard-smoke:
	$(PYTHON) benchmarks/bench_shard_smoke.py --repeats 2 \
		--out BENCH_paremsp.json --history benchmarks/history

# sharded-runtime soak: the shard-count x death byte-identity matrix
# and the shard chaos cells, SOAK_RUNS times in a row (default 50),
# stopping at the first failure. A timing-dependent supervisor bug
# shows up here long before it shows up once in `make test`.
SOAK_RUNS ?= 50
shard-soak:
	@for i in $$(seq $(SOAK_RUNS)); do \
		echo "shard-soak run $$i/$(SOAK_RUNS)"; \
		$(PYTHON) -m pytest -q tests/test_parallel_sharded.py \
			-k byte_identical || exit 1; \
		$(PYTHON) -m pytest -q tests/test_faults_matrix.py \
			-k shard_cell || exit 1; \
	done

# multi-host gate (see docs/SHARDED.md "Multi-host"): labels the same
# ~64 MB raster across 2 loopback virtual hosts x 4 shards over the
# real socket transport, blacks one host out as the reduce tree starts
# (level 0), and fails unless the run stays byte-identical within the
# overhead ceiling with no leaked sockets, worker processes, or
# scratch claims. Appends the recovery-overhead record to the perf
# history for `perf-gate`.
net-shard-smoke:
	$(PYTHON) benchmarks/bench_net_shard_smoke.py --repeats 2 \
		--out BENCH_paremsp.json --history benchmarks/history

bench: bench-paremsp service-smoke service-metrics-smoke shard-smoke \
	net-shard-smoke
