# Convenience targets; everything is plain `go` underneath.

.PHONY: test vet lint check bench-go sweep report examples telemetry-smoke clean

test:
	go test ./...

vet:
	go vet ./...

# Static analysis: go vet plus the repo-specific simlint analyzers —
# expression rules (determinism, stats hygiene, trace hygiene) and contract
# analyzers (snapshot completeness, fingerprint coverage, hot-path
# allocation-freedom, lock discipline), plus suppression hygiene over every
# //simlint: directive. See DESIGN.md §12, "Contract analyzers". Every Go
# file must also be gofmt-clean.
lint:
	test -z "$$(gofmt -l .)"
	go vet ./...
	go run ./cmd/simlint

# Runtime sanitizer: the simcheck build tag attaches the lockstep
# architectural oracle and per-cycle invariant sweep to every simulation the
# test suite runs.
check:
	go test -tags simcheck ./...

# Live-introspection smoke: the -tags nometrics build, every telemetry
# endpoint served during a real parallel sampled sweep (including an SSE
# progress frame), and a forced watchdog trip producing a non-empty
# flight-recorder dump. See DESIGN.md §11.
telemetry-smoke:
	sh ./scripts/telemetry_smoke.sh

# One scaled-down benchmark per paper table/figure, plus ablations.
bench-go:
	go test -bench . -benchtime 1x .

# Regenerate every table and figure at the default budget (46 s with -j 2
# on a 2-CPU Xeon host).
sweep:
	go run ./cmd/runahead-sweep -uops 150000 -out sweep_results.txt

# Paper-claim verdict table.
report:
	go run ./cmd/runahead-sweep -experiments report

examples:
	go run ./examples/quickstart
	go run ./examples/mcf_pointer_chase
	go run ./examples/prefetcher_interaction
	go run ./examples/energy_tradeoff

# Removes untracked outputs only; sweep_results.txt and BENCH_*.json are
# committed records.
clean:
	rm -rf .bench_build
