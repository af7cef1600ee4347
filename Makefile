# TE-CCL reproduction — build, test, and benchmark entry points.
#
# `make ci` is the gate every change must pass: vet, build, the full test
# suite, and a one-shot smoke of the paper's solver-time benchmark (Fig 5)
# so solver regressions surface immediately.

GO ?= go
# The repository root, so targets that run a script find it when make runs
# with -C on another tree (identity.sh counts the parent's lines this way).
ROOT := $(dir $(abspath $(lastword $(MAKEFILE_LIST))))

.PHONY: ci vet lint build test race fuzz-smoke bench-smoke bench-smoke-short bench bench-verify tables api-compat daemon-smoke loc loc-lock loc-check identity pair

ci: vet lint build test race fuzz-smoke api-compat daemon-smoke bench-smoke bench-verify

# vet gates on the stock analyzer, formatting, and the repo's own
# invariant suite: a gofmt diff anywhere or a tecclvet diagnostic
# (layering, wire schema lock, solver cancellation polling, float
# comparisons, init-time registration) fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run teccl/cmd/tecclvet ./...

# lint is the deep static pass: the line lock (loc-check), tecclvet, plus
# staticcheck and govulncheck when they are installed (the CI lint job
# installs both; locally they are optional so a bare toolchain can still
# run make ci).
lint: loc-check
	$(GO) run teccl/cmd/tecclvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping"; \
	fi

build:
	$(GO) build ./...

# The API-compatibility gate: every downstream caller of the public
# facade — the examples and both binaries — must build and vet cleanly,
# so a facade change that breaks callers fails CI even if the library
# itself still compiles.
api-compat:
	$(GO) build ./examples/... ./cmd/...
	$(GO) vet ./examples/... ./cmd/...

test:
	$(GO) test ./...

# The race detector over every package: the concurrent branch-and-bound
# and batched sweep solving are only trustworthy if this stays clean.
race:
	$(GO) test -race ./...

# Ten seconds of coverage-guided fuzzing per target, on top of the seed
# corpora `test` already runs: topology churn (FuzzApplyDelta), the
# daemon's plan and replan request decoders over the v1 wire goldens
# (FuzzPlanRequest, FuzzReplanRequest), the two schedule checkers held
# to each other on mutated schedules (FuzzScheduleCheck) and the ratio
# tests' lazy sorter held to slices.SortFunc (FuzzRatioSort). A failing input
# is written under the package's testdata/fuzz/ and fails the target;
# commit it as a regression seed.
fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzApplyDelta$$' -fuzztime 10s ./internal/topo
	$(GO) test -run xxx -fuzz '^FuzzPlanRequest$$' -fuzztime 10s ./internal/daemon
	$(GO) test -run xxx -fuzz '^FuzzReplanRequest$$' -fuzztime 10s ./internal/daemon
	$(GO) test -run xxx -fuzz '^FuzzScheduleCheck$$' -fuzztime 10s ./internal/sim
	$(GO) test -run xxx -fuzz '^FuzzRatioSort$$' -fuzztime 10s ./internal/lp

# End-to-end smoke of the serving path: build both binaries, boot a real
# teccld on a localhost port, drive it through the CLI (health poll,
# two plans over one fabric — the second must hit the session's replay
# cache — then the session table), and require a clean SIGTERM drain.
daemon-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/teccld ./cmd/teccld; \
	$(GO) build -o $$tmp/teccl ./cmd/teccl; \
	$$tmp/teccld -listen 127.0.0.1:17447 & pid=$$!; \
	addr=http://127.0.0.1:17447; \
	for i in $$(seq 1 50); do \
		if $$tmp/teccl health -daemon $$addr >/dev/null 2>&1; then break; fi; \
		sleep 0.2; \
	done; \
	$$tmp/teccl health -daemon $$addr; \
	$$tmp/teccl plan -daemon $$addr -topo dgx1 -coll alltoall -chunk-bytes 25e3 -q; \
	$$tmp/teccl plan -daemon $$addr -topo dgx1 -coll alltoall -chunk-bytes 25e3 -q \
		| tee /dev/stderr | grep -q "schedule-replay cache"; \
	$$tmp/teccl sessions -daemon $$addr; \
	kill -TERM $$pid; \
	wait $$pid

# One iteration of the Fig 5 solver-time sweep plus the solver and
# concurrency micro-benchmarks across all packages; fast enough for CI,
# loud enough to catch a perf cliff. NodeResolve reports B/op and
# allocs/op of a branch-and-bound node re-solve three ways: a new
# lp.Solver per node, the pooled lp.Solve, a retained lp.Solver; FtranBtran the ns/op (and 0 allocs/op) of the three
# triangular solves of a simplex iteration on a mid-update DGX1 basis;
# PlanAllocs the B/op and allocs/op of one whole A*, MILP and horizon plan
# (add -memprofile for the by-site table, see bench_test.go); RatioSort
# the ratio tests' ordering, a full slices.SortFunc against the lazy
# prefix the walks read.
bench-smoke:
	$(GO) test -run xxx -bench 'Fig5SolverTime|SimplexTransport$$|NodeResolve|FtranBtran|RatioSort|PlanAllocs|MILPWorkers|Sweep(Rebuilt|Batched)|PlannerReuse' -benchtime 1x ./...

# The same smoke under -short (GitHub Actions): trimmed sweeps, and the
# minutes-scale benches (e.g. NDv2AllToAll) skip themselves.
bench-smoke-short:
	$(GO) test -short -run xxx -bench 'Fig5SolverTime|SimplexTransport$$|NodeResolve|FtranBtran|RatioSort|PlanAllocs|MILPWorkers|Sweep(Rebuilt|Batched)|PlannerReuse' -benchtime 1x ./...

# The full benchmark suite (one iteration each; wall-clock heavy).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The repository benchmark (BENCHMARK.json, bench/) is a nested module
# of its own, so `./...` above never reaches it: vet and unit-test it
# from its directory, then run its determinism gate — every workload
# twice, every exact count, every per-class record (pivots, nodes,
# windows, rounds, outcomes, finish epochs) and algbw identical, diffed
# against bench/expected/seed1.json. About 70 s; it builds into
# .bench_build/ and writes bench/out/ (both gitignored).
bench-verify:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...
	bash bench/run.sh --verify

# Regenerate every paper table/figure via the CLI harness.
tables:
	$(GO) run ./cmd/benchtables

# Non-test Go lines per package and in total, without the nested bench
# module, its build directory and testdata fixtures: the unit ROADMAP's
# line targets are stated in (scripts/loc.sh).
loc:
	@bash $(ROOT)scripts/loc.sh

# The line lock: loc.lock.json holds every package's `make loc` count.
# loc-check (run by lint) fails when a package's count differs from its
# lock or a package has none, naming the package, the lock and the delta;
# loc-lock rewrites the lock, and CHANGES.md states each delta, as a wire
# schema change is regenerated and committed.
loc-lock:
	@bash $(ROOT)scripts/loc.sh --lock

loc-check:
	@bash $(ROOT)scripts/loc.sh --check

# The acceptance evidence of a change that must move no count (a
# refactor, a deletion): `make identity PARENT=<ref>` exports the parent
# commit into a temporary directory, records `bench/run.sh --verify
# --write-expected` from it and from this working tree, `cmp`s the two
# records (every pivot, node, round, window, replan outcome and finish
# epoch of every class of every workload), and prints both sha256 sums
# and `make loc` per package before -> after. About 4 minutes. Not part
# of `ci`: bench-verify already diffs against the committed record.
identity:
	@test -n "$(PARENT)" || { echo "usage: make identity PARENT=<ref>"; exit 2; }
	bash scripts/identity.sh "$(PARENT)"

# The paired-run evidence of a change that claims a gain, or must not
# move a metric: `make pair PARENT=<ref> [WORKLOAD=<name>] [PAIRS=<n>]
# [SEED=<s>]` exports the parent commit like `identity`, runs n (default
# 10) pairs of fresh benchmark processes per workload (default all four)
# on benchmark seed s (default 1), parent and working tree alternating
# and the side that starts rotated, and prints
# CHANGES.md's `median [q1, q3] | delta | wins | bound | inside` row for
# each of the eight end-to-end metrics, every run's reading, and the
# hypervisor steal over the runs (scripts/pair.sh). About a minute per
# pair. Not part of `ci`.
pair:
	@test -n "$(PARENT)" || { echo "usage: make pair PARENT=<ref> [WORKLOAD=<name>] [PAIRS=<n>] [SEED=<s>]"; exit 2; }
	bash scripts/pair.sh "$(PARENT)" $(if $(WORKLOAD),--workload $(WORKLOAD)) $(if $(PAIRS),--pairs $(PAIRS)) $(if $(SEED),--seed $(SEED))
