GO ?= go

# Packages with lock-guarded or worker-pool concurrency that the race
# detector must cover.
RACE_PKGS = . ./internal/wang ./internal/safety ./internal/sim ./internal/serve ./internal/metrics ./internal/journal ./internal/wire ./internal/chaos ./internal/reliability ./meshclient ./cmd/meshserved ./cmd/meshstress

.PHONY: all build test vet fmt race bench bench-smoke bench-diff perf-smoke smoke chaos rel-smoke paper loc verify clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails if any file is not gofmt-clean.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

race:
	$(GO) test -race $(RACE_PKGS)

# bench regenerates BENCH_routing.json on the paper-scale 200x200 mesh:
# the query, scenario and route-kernel rows at each fault count, plus the
# journal and reliability rows. The served planes are measured end to
# end by perfbench (perf-smoke below), not here.
bench:
	$(GO) run ./cmd/meshbench -out BENCH_routing.json

# bench-smoke runs every meshbench measurement — including the
# reach_bitset/* kernel comparison and the route_kernel/* rows — at a
# tiny benchtime on a small mesh, then re-runs the same workload
# diffed against the first pass.
# The wide tolerance means only a catastrophic slowdown (or a broken
# measured path) fails; the point is that the -baseline plumbing itself
# is exercised on every CI run, not to gate on noisy tiny-benchtime
# numbers.
bench-smoke:
	$(GO) run ./cmd/meshbench -w 48 -h 48 -k 20,60 -dests 64 -benchtime 5ms -out /tmp/bench-smoke-baseline.json
	$(GO) run ./cmd/meshbench -w 48 -h 48 -k 20,60 -dests 64 -benchtime 5ms -journal=false -out - \
		-baseline /tmp/bench-smoke-baseline.json -tolerance 90

# bench-diff reruns the full paper-scale suite and compares it against
# the committed BENCH_routing.json, failing on any measurement whose
# queries/sec dropped more than 15% — the local regression gate to run
# before committing a performance-sensitive change. (Not in CI: the
# full suite takes minutes and shared runners are too noisy for a 15%
# bar.)
bench-diff:
	$(GO) run ./cmd/meshbench -out /tmp/bench-diff-candidate.json \
		-baseline BENCH_routing.json -tolerance 15

# perf-smoke runs each end-to-end perfbench workload briefly and fails
# unless its answer checks passed (zero wrong answers, zero acked-write
# loss, a byte-identical sweep) and no operation failed. It is a
# correctness gate, not a timing gate: the metrics it prints are
# compared against nothing. Each workload runs 2 s, except the sweep:
# its whole-run p90 needs 100 sweeps, which take ~5 s on 2 vCPUs.
# perfbench/run.sh builds into .bench_build/.
PERF_SMOKE = route_batch_binary:2 query_mix_json:2 churn_cluster:2 survivability_sweep:10

perf-smoke:
	@mkdir -p .bench_build
	@for spec in $(PERF_SMOKE); do \
		w=$${spec%%:*}; out=.bench_build/perf-smoke-$$w.out; \
		bash perfbench/run.sh --workload $$w --seconds $${spec##*:} > $$out 2>&1; rc=$$?; \
		cat $$out; \
		[ $$rc -eq 0 ] || { echo "perf-smoke: $$w exited $$rc"; exit 1; }; \
		case "$$(tail -n 1 $$out)" in \
		*'"correct":true,'*'"failed":0,'*) echo "perf-smoke: $$w ok";; \
		*) echo "perf-smoke: $$w failed its answer checks or an operation"; exit 1;; \
		esac; \
	done

# smoke boots meshserved on an ephemeral port and drives a short
# meshstress run against it (the cmd tests do this in-process too).
smoke: build
	$(GO) test ./cmd/meshserved ./cmd/meshstress

# chaos is the crash-safety gate: kill -9 a journaled meshserved
# mid-mutation-sequence and require bit-identical recovery, then run
# the fault-injection e2e suites under the race detector — the client
# through a noisy transport must answer exactly like the library, and
# the replicated cluster (primary killed mid-stream, replication frames
# torn/duplicated/corrupted, replicas partitioned) must converge
# byte-identically with zero wrong cluster-client answers. The failover
# suite rides in ./internal/chaos: primary hard-killed mid-write-load
# with a follower promoting into a new epoch and the old primary
# rejoining demoted, dueling primaries across a healed partition ending
# with one writable winner, and goodbye-driven fast failover — all with
# zero acknowledged-write loss. The meshstress kill-the-primary audit
# then proves the same over three real daemon processes and a real
# SIGKILL. A short fuzz run over the replication frame decoder
# (including its epoch field) rides along.
chaos: build
	$(GO) test ./cmd/meshserved -run 'TestCrashRecovery|TestRestartAfterGracefulDrain' -count=1
	$(GO) test -race ./internal/chaos ./meshclient
	$(GO) test ./cmd/meshstress -run TestFailoverSmoke -count=1
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzReplicationFrames -fuzztime 5s

# rel-smoke is the reliability-engine gate: a small Monte Carlo sweep
# whose Theorem 2 analytic prediction must land inside the reported
# confidence intervals (meshrel exits nonzero otherwise). The
# configuration is the one internal/reliability's own analytic test
# pins as agreeing.
rel-smoke:
	$(GO) run ./cmd/meshrel -w 32 -h 32 -k 8 -trials 512 -pairs 4 -seed 2 -check

# paper regenerates the three committed paper-scale tables with the
# recipes in EXPERIMENTS.md and fails on any difference, ignoring only
# the wall-clock "(12.3s)" that a figure run's header ends with. The
# uniform table is also a tier-1 test (cmd/meshsim
# TestPaperTableUnchanged); this target adds the clustered and scaling
# tables. About 10 s on 2 vCPUs.
PAPER_TABLES = results-200x200.txt:-configs,30,-dests,60 \
	results-clustered-200x200.txt:-configs,30,-dests,60,-clusters,8,-spread,5 \
	results-scaling.txt:-scaling

paper:
	@$(GO) build -o .bench_build/meshsim ./cmd/meshsim
	@for spec in $(PAPER_TABLES); do \
		f=$${spec%%:*}; args=$$(echo $${spec#*:} | tr , ' '); \
		.bench_build/meshsim $$args | sed -E 's/ \([0-9.]+s\)$$//' > .bench_build/$$f; \
		sed -E 's/ \([0-9.]+s\)$$//' docs/$$f | diff -u - .bench_build/$$f || \
			{ echo "paper: docs/$$f no longer regenerates (meshsim $$args)"; exit 1; }; \
		echo "paper: docs/$$f ok"; \
	done

# loc prints the non-test Go line count of every package in the module
# (wc -l over its non-test .go files, comments and blank lines
# included) and their total, then perfbench/ — a module of its own —
# on a separate line. Simplicity changes are judged by the difference
# of these numbers before and after.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		[ -n "$$files" ] && printf '%7d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
	done | awk '{ print; total += $$1 } END { printf "%7d total\n", total }'
	@printf '%7d perfbench (separate module)\n' "$$(cat $$(ls perfbench/*.go | grep -v '_test\.go$$') | wc -l)"

# verify is the gate for every change: formatting, static checks, full
# build, the whole test suite, the race detector on the concurrent
# packages, the reliability analytic cross-check, and the end-to-end
# benchmark's answer checks.
verify: fmt vet build test race rel-smoke perf-smoke

clean:
	$(GO) clean ./...
