# Developer entry points.  PYTHONPATH is injected so no install step is
# needed inside the container.

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: help test test-fast chaos-test overload-test obs-test bench cache-bench service-bench slo-bench skew-bench bench-all plots clean

## Print the entry points (tier-1 invocation included).
help:
	@echo "Targets:"
	@echo "  make test          tier-1 verification: PYTHONPATH=src python -m pytest tests/ -x -q"
	@echo "                     (includes the crash-recovery chaos suite)"
	@echo "  make test-fast     quick subset: tables + parity + EM layer + hashing"
	@echo "  make chaos-test    crash-point matrix only: journal/recovery/fault-injection"
	@echo "  make overload-test open-loop traffic + admission/shedding/breaker invariants"
	@echo "  make obs-test      observability: trace framing/determinism, metrics, relabelling"
	@echo "  make bench         scalar-vs-batch + backend x shards perf rows -> BENCH_throughput.json"
	@echo "  make cache-bench   cold-vs-warm BufferPool rows + plots/*.dat curves -> BENCH_cache.json"
	@echo "  make service-bench mixed-op service rows (incl. durable+journal leg) -> BENCH_service.json"
	@echo "  make slo-bench     latency vs offered load sweep + breaker chaos -> BENCH_slo.json"
	@echo "  make skew-bench    static-vs-adaptive routing skew matrix + plots -> BENCH_skew.json"
	@echo "  make bench-all     every paper-artifact benchmark (slow)"
	@echo "  make plots         regenerate every plots/*.dat from the checked-in BENCH_*.json"
	@echo "  make clean         remove caches"

## Tier-1 verification: the full unit/property suite (chaos included).
test:
	$(PY) -m pytest tests/ -x -q

## Quick subset for inner-loop development (tables + parity + EM layer,
## the exact hash values every layout depends on,
## buffer-pool unit tests, the cached-vs-uncached relabelling contract,
## the skew-routing contracts: slot directory, rebalancer policy,
## migration journal, generator determinism — and the observability
## contracts: trace framing/determinism, metrics folding, relabelling).
test-fast:
	$(PY) -m pytest tests/test_batch_parity.py tests/test_em_disk.py \
	    tests/test_em_iostats.py tests/test_em_cache.py \
	    tests/test_cache_axis.py tests/test_buffered.py \
	    tests/test_logmethod.py tests/test_rebalance.py \
	    tests/test_obs.py tests/test_hashing.py -q

## Crash-consistency only: the chaos matrix (crash at every epoch
## boundary + sampled intra-epoch backend ops, per policy x backend,
## small n), journal format/torn-tail scans, snapshot/restore, the
## fault-injection/retry layer, and the fault messages a service surfaces.
## Also part of `make test`.
chaos-test:
	$(PY) -m pytest tests/test_recovery.py tests/test_faults.py \
	    tests/test_journal.py tests/test_durable_backend.py \
	    tests/test_em_errors.py -q

## Overload resilience only: seeded arrival processes, the admission
## queue + reject/shed/adapt policies, per-op deadlines, per-shard
## circuit breakers, the shedding-disabled bit-identity contract, and
## the overload chaos harness (fault bursts under saturation).  Fast
## (small n) and also part of `make test`.
overload-test:
	$(PY) -m pytest tests/test_traffic.py tests/test_overload.py -q

## Observability only: crc-framed trace scans (torn tails, corruption),
## span-tree determinism (virtual clock, executor-invariant), the
## metrics registry (counters/histograms/Prometheus dump, snapshot
## round-trip), the relabelling contract (obs on == obs off, trace sums
## == ledger), and the trace-summary CLI.  Also part of `make test`.
obs-test:
	$(PY) -m pytest tests/test_obs.py -q

## Perf trajectory: scalar-vs-batch throughput plus the backend x shards
## sweep (mapping/arena x 1/8 shards; I/O totals asserted backend-invariant
## under both policies).  Rows land in BENCH_throughput.json
## ("rows" = scalar-vs-batch reference, "config_rows" = backend/shards axes);
## future PRs regress against it.
bench:
	$(PY) -m pytest benchmarks/bench_throughput.py --benchmark-only -s -q \
	    --benchmark-json=BENCH_throughput.json

## Cache axis only: the cold-vs-warm BufferPool rounds on the buffered
## table and the Bloom-filtered LSM (relabelling contract asserted
## in-run; warm cached rounds must beat the uncached leg).  Writes
## BENCH_cache.json so a targeted run never clobbers the trajectory
## file, and drops per-table .dat curves under plots/ for gnuplot.
cache-bench:
	REPRO_PLOT_DIR=plots $(PY) -m pytest \
	    benchmarks/bench_throughput.py::test_cache_throughput \
	    --benchmark-only -s -q --benchmark-json=BENCH_cache.json

## Service axis only: the 70/25/5 mixed-workload closed-loop rows
## (throughput + p50/p99 latency, serial-vs-threads determinism, the
## sustained-rate gate, and the journal-overhead leg: durable-arena +
## write-ahead journal vs in-memory arena).  Writes BENCH_service.json
## so a targeted run never clobbers the full trajectory file.
service-bench:
	$(PY) -m pytest benchmarks/bench_throughput.py::test_service_mixed_throughput \
	    --benchmark-only -s -q --benchmark-json=BENCH_service.json

## SLO axis: the open-loop latency-vs-offered-load sweep (calibrated
## capacity, shed-policy rows at 0.5x-2.5x, the deadline degradation
## leg, the knee/max-sustainable-goodput gate, and the breaker chaos
## row).  Writes BENCH_slo.json (headline numbers land in extra_info
## under test_service_slo_sweep), so it never overwrites the
## service-bench record.
slo-bench:
	REPRO_PLOT_DIR=plots $(PY) -m pytest benchmarks/bench_service_slo.py \
	    --benchmark-only -s -q --benchmark-json=BENCH_slo.json

## Skew axis: the static-vs-adaptive routing matrix (router-correlated
## adversarial + hot-Zipf gate legs at n=1e6, the wider distribution
## matrix at smaller n, the ratio-cut and charged-I/O goodput gates,
## and the no-free-moves migration accounting).  Writes BENCH_skew.json
## and drops per-window imbalance series under plots/ for gnuplot.
skew-bench:
	REPRO_PLOT_DIR=plots $(PY) -m pytest benchmarks/bench_skew.py \
	    --benchmark-only -s -q --benchmark-json=BENCH_skew.json

## Every paper-artifact benchmark (slow; prints the reproduced tables).
bench-all:
	$(PY) -m pytest benchmarks/ --benchmark-only -s -q

## Rebuild every plots/*.dat from the series payloads stashed in the
## checked-in BENCH_*.json — no benchmark re-run, so plot data can
## never drift from the recorded numbers.
plots:
	$(PY) benchmarks/regen_plots.py

clean:
	rm -rf .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
