# Convenience targets; tier-1 verification is `make build test`,
# the race lane (ROADMAP.md) is `make race`.

GO ?= go

.PHONY: all build test race vet lint bench bench-smoke bench-module bench-vm verify-table serve-smoke

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race lane: the verification engine fans verifications out over
# goroutines and shares cached switched traces between them — run the
# suite under the race detector whenever that machinery changes. The
# second line repeats the test of concurrent Locates sharing one
# program's cached dataflow analysis.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run TestSharedProgramConcurrentLocate ./internal/core

vet:
	$(GO) vet ./...

# Lint lane: gofmt over every tracked Go file, Go-level vet, plus the
# MiniC static checker suite over the checked-in subjects (testdata/lint/
# holds known-bad fixtures and is deliberately excluded).
lint: vet
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/eolvet testdata/*.mc

bench:
	$(GO) test -bench . -benchmem -benchtime 10x .

# Bench smoke lane: every benchmark must still compile and survive one
# iteration (no measurements) — keeps the bench suite from bit-rotting
# between real benchmarking sessions.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Benchmark module lane: cmd/eolbench is a Go module of its own, so the
# root build, vet and test skip it. Vet and test it here so a change to
# an API it compiles against fails in CI, not in the next benchmark run.
bench-module:
	cd cmd/eolbench && $(GO) vet ./... && $(GO) test ./...

# Tree-vs-VM backend benchmark trajectory point (docs/VM.md): run the
# backend comparison suite and record per-workload ns/op, B/op and
# allocs/op plus tree/vm speedups in BENCH_VM.json via cmd/benchvm. Two
# -bench invocations because the benchmark name regex is matched per
# slash-separated element, so the Locate sub-case filter cannot be
# combined with the top-level family alternation.
bench-vm:
	( $(GO) test -run=NONE \
		-bench='BenchmarkBackend(Interp|VerifyEngine)' \
		-benchtime=3x -benchmem . && \
	  $(GO) test -run=NONE \
		-bench='BenchmarkBackendLocate/grepsim/V4-F2' \
		-benchtime=3x -benchmem . ) | $(GO) run ./cmd/benchvm -o BENCH_VM.json

# Sequential vs parallel vs cached verification scheduling table.
verify-table:
	$(GO) run ./cmd/benchtab -table verify -reps 5

# Serve smoke lane: boot the resident server (docs/SERVER.md) on an
# ephemeral port and drive it with eoloadgen — health probe; a corpus
# request whose response must be byte-identical to eolcorpus batch
# output (the A/B contract); an async job whose NDJSON event stream
# must validate as a corpus journal; a soak of 40 salted copies of the
# grepsim subject (80 new programs) after which the server must hold at
# most 64 compiled programs; and an open-loop load burst that must
# observe at least one rate-limit 429.
serve-smoke:
	$(GO) build -o /tmp/eolserve-smoke ./cmd/eolserve
	$(GO) build -o /tmp/eoloadgen-smoke ./cmd/eoloadgen
	$(GO) build -o /tmp/eolcorpus-serve ./cmd/eolcorpus
	rm -f /tmp/eol-serve-addr
	/tmp/eolserve-smoke -addr 127.0.0.1:0 -addr-file /tmp/eol-serve-addr \
		-rate 5 -burst 2 & \
	SRV=$$!; \
	trap 'kill $$SRV 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do test -s /tmp/eol-serve-addr && break; sleep 0.1; done; \
	BASE=http://$$(head -1 /tmp/eol-serve-addr); \
	/tmp/eoloadgen-smoke -base $$BASE -healthz && \
	/tmp/eoloadgen-smoke -base $$BASE -tenant corpus \
		-corpus testdata/corpus/smoke.json -o /tmp/eol-serve-corpus.json && \
	{ /tmp/eolcorpus-serve -o /tmp/eol-serve-batch.json \
		testdata/corpus/smoke.json; test $$? -eq 1; } && \
	cmp /tmp/eol-serve-corpus.json /tmp/eol-serve-batch.json && \
	/tmp/eoloadgen-smoke -base $$BASE -tenant jobs \
		-corpus testdata/corpus/smoke.json -async \
		-events /tmp/eol-serve-events.jsonl -o /tmp/eol-serve-job.json && \
	/tmp/eoloadgen-smoke -base $$BASE -tenant soak \
		-corpus testdata/corpus/checkpoint.json -salt 40 -max-compiled 64 \
		-o /tmp/eol-serve-soak.json && \
	/tmp/eoloadgen-smoke -base $$BASE -tenant hammer \
		-subject testdata/corpus/smoke.json -n 12 -rate 100 \
		-min-rejected 1 -o /tmp/eol-serve-load.json
	$(GO) run ./cmd/journalcheck /tmp/eol-serve-events.jsonl
