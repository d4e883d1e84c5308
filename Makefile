PYTHON ?= python
export PYTHONPATH := src

.PHONY: test loc digest digest-check leak-check call-census bench-selftest faults-demo obs-smoke sanitize-smoke coll-smoke bench-coll resilience-smoke chaos-matrix serve-smoke

# Tier-1: the full deterministic test suite.
test:
	$(PYTHON) -m pytest -x -q

# Python line counts, as CHANGES.md reports them before/after each PR.
loc:
	@for d in src tests; do \
		printf '%s/ %s\n' $$d "$$(find $$d -name '*.py' | xargs cat | wc -l)"; \
	done

# Byte-identity digest of 101 pinned runs (tools/run_digest.py): one line
# per run with the sha256 of its Chrome trace and of its RunReport document
# (plus the host-side scheduler counters and OS-thread count, and on
# sanitized runs the sanitizer's bookkeeping counts, as unhashed
# `sched=`/`san=` fields); ~15 s. `digest-check` compares the trace=/report= hashes with the
# committed tools/digest.golden and exits 1 on any difference: a change
# that preserves behaviour passes it untouched, one that means to change
# behaviour regenerates the golden (`make digest | sed 's/ sched=.*//' >
# tools/digest.golden`) and says which lines moved and why.
digest:
	@$(PYTHON) tools/run_digest.py

digest-check:
	@$(PYTHON) tools/run_digest.py --check tools/digest.golden

# A finished launch() frees by reference count (docs/MODEL.md section 7,
# "Memory: who frees what"): 40 sixteen-rank launches under gc.disable()
# must not grow RSS by 5 MB after the fifth — once for one Jacobi job, once
# for CG jobs each on a new problem (make_problem holds only the latest,
# ~0.5 MB each; ~4 s) — and every pinned variant
# (tools/gc_census.py CHECK_VARIANTS, plus the four failure paths) must
# leave the collector < 100 objects, the same at 4 and 12 iterations, none
# of them a buffer, array, schedule, task or engine; ~15 s. On a violation
# it prints the census (types, knots with their edges) and exits 1;
# `python tools/gc_census.py <variant> [--iters A,B]` examines one variant.
leak-check:
	@$(PYTHON) tools/gc_census.py --check

# Host cost per transfer as a noise-free count (tools/call_census.py): calls
# into repro functions, under cProfile on every thread, per MPI message,
# GPUCCL send and GPUSHMEM put of fixed programs — four native ones and the
# same ring through Uniconn on each backend (the marginal count between two
# round counts) — and per pass of the jacobi_live job list; exits 1 when a
# count exceeds its committed bound (the count when the bound was set
# + 5 %) or a Uniconn program's core/ calls per transfer exceed their
# budget; ~7 s.
call-census:
	@$(PYTHON) tools/call_census.py --check

# Layered host-time benchmark self-test (benchmarks/perf/README.md): every
# workload at toy scale through the real harness, output checks included;
# under 20 s. The benchmark pins its own CPU and sets its own sys.path.
bench-selftest:
	python3 benchmarks/perf/run.py --self-test

# Demonstrate fault injection + recovery end to end (docs/FAULTS.md):
# Jacobi surviving transient message loss via MPI retransmission and via
# the elastic solver's checkpoint rollback (elastic:mpi), verified bitwise
# against the serial reference.
faults-demo:
	$(PYTHON) examples/jacobi_fault_recovery.py 4 64

# Observability smoke: run `repro report` on a 4-rank Jacobi and assert the
# emitted JSON satisfies the repro.obs.report schema with a populated
# breakdown and critical path (docs/OBSERVABILITY.md); then the checked
# report, `repro report --sanitize --trace-out T --metrics-out R`, on each
# backend at 4 GPUs: T parses, its ts never decrease and its B/E spans
# balance per (pid, tid); R validates with zero races (tools/check_trace.py).
obs-smoke:
	$(PYTHON) -m repro report --gpus 4 --size 64 --iters 8 --metrics-out /tmp/obs_report.json
	$(PYTHON) -c "import json; from repro.obs import validate_report; \
	doc = json.load(open('/tmp/obs_report.json')); validate_report(doc); \
	assert len(doc['ranks']) == 4 and doc['critical_path'] and doc['metrics']['counters']; \
	print('obs-smoke OK')"
	for b in mpi gpuccl gpushmem; do \
		$(PYTHON) -m repro report --backend $$b --gpus 4 --size 64 --iters 8 --sanitize \
			--trace-out /tmp/obs_trace_$$b.json --metrics-out /tmp/obs_checked_$$b.json \
			> /dev/null && \
		$(PYTHON) tools/check_trace.py /tmp/obs_trace_$$b.json /tmp/obs_checked_$$b.json \
			|| exit 1; \
	done

# Sanitizer smoke (docs/SANITIZER.md): the seeded-race catalogue must be
# caught (tests/test_sanitize.py) and reported identically by the reference
# clock bookkeeping (tests/test_sanitize_clocks.py), then the example apps
# must run clean under --sanitize on every backend — the command exits
# nonzero on any finding. The last run (16 GPUs x 60 iterations, ~1 s)
# guards the sanitizer's linear cost: with unbounded clocks it needs 10 s
# and 750 MB.
sanitize-smoke:
	$(PYTHON) -m pytest -x -q tests/test_sanitize.py tests/test_sanitize_clocks.py
	$(PYTHON) -m repro jacobi --backend mpi --gpus 4 --size 64 --iters 8 --sanitize
	$(PYTHON) -m repro jacobi --backend gpuccl --gpus 4 --size 64 --iters 8 --sanitize
	$(PYTHON) -m repro jacobi --backend gpushmem --gpus 4 --size 64 --iters 8 --sanitize
	$(PYTHON) -m repro jacobi --backend gpushmem --mode PureDevice --gpus 4 --size 64 --iters 8 --sanitize
	$(PYTHON) -m repro cg --backend mpi --gpus 4 --rows 192 --iters 4 --sanitize
	$(PYTHON) -m repro cg --backend gpuccl --gpus 4 --rows 192 --iters 4 --sanitize
	$(PYTHON) -m repro cg --backend gpushmem --gpus 4 --rows 192 --iters 4 --sanitize
	$(PYTHON) -m repro jacobi --backend gpushmem --gpus 16 --size 64 --iters 60 --sanitize

# Elastic-recovery gate (docs/FAULTS.md, "Elastic recovery"): the
# revoke/agree/shrink + elastic-app test suites, the crash-mid-collective
# matrix, then the pinned chaos-sweep subset with exact expected outcomes.
resilience-smoke:
	$(PYTHON) -m pytest -q tests/resilience tests/core/test_health_abort.py tests/coll/test_degraded.py
	$(PYTHON) -m benchmarks.chaos_sweep --smoke

# Full chaos matrix (42 seeded scenarios x 2 runs, ~minutes): scheduled in
# CI, runnable locally; writes the per-scenario outcome table.
chaos-matrix:
	$(PYTHON) -m benchmarks.chaos_sweep --json chaos_matrix.json

# Collective algorithm engine gate (docs/COLLECTIVES.md): the schedule /
# tuner / cross-backend equivalence matrix (including the protocol-pinned
# ring+LL/tree+LL/2/recdbl+Simple/2 selections), the byte-identity
# default-trace invariants, a schema-validated table dump, then the
# smoke-scale tuned-vs-ring and tuned-vs-Simple-only sweeps checked
# exactly against the committed BENCH_coll.json (virtual times are
# deterministic; the coll_protocol_* rows gate the LL small-message
# payoff at >= 1.5x).
coll-smoke:
	$(PYTHON) -m pytest -q tests/coll
	$(PYTHON) -m pytest -q tests/sim/test_fastpath.py -k "coll or capture"
	$(PYTHON) -m repro tune --gpus 64 --dump /tmp/coll_table.json
	$(PYTHON) benchmarks/bench_coll.py --smoke --check

# Full-scale collective benchmark; rewrites the committed baseline, then
# re-checks it — the tuned-beats-ring and coll_protocol_* >= 1.5x gates
# still apply to freshly written numbers.
bench-coll:
	$(PYTHON) benchmarks/bench_coll.py --update --check
	$(PYTHON) benchmarks/bench_coll.py --smoke --update --check

# Job-service gate (docs/SERVE.md): the serve test suite, then an
# end-to-end smoke through the real CLI — an 8-point sweep submitted
# twice must be 100% cache hits and >= 2x faster the second time, a
# timeout-killed job must fail alone without poisoning the worker pool, a
# cached submit in a fresh interpreter must import no simulator, pool or
# numpy, and a malformed queue line must cost `repro serve` only that line.
serve-smoke:
	$(PYTHON) -m pytest -q tests/serve
	$(PYTHON) tools/serve_smoke.py
