.PHONY: all build test vet race verify verify-quick bench bench-train bench-telemetry bench-bitplane bench-dist bench-compare profile

all: build

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

race:
	go test -race -timeout 90m ./...

# The full verification gate for this repo. verify.sh is the single source
# of truth for what it runs (the full CI tier executes the same script).
verify:
	./verify.sh

# Fast local gate matching the CI PR tier: vet, build, short tests.
verify-quick:
	go vet ./...
	go build ./...
	cd odqbench && go vet ./... && go build ./...
	go test -short -timeout 15m ./...

bench:
	go test -bench=. -benchmem -run '^$$' .

# Regenerate the committed training/GEMM snapshot (BENCH_train_gemm.json):
# packed vs seed kernels at CNN shapes plus end-to-end QAT step throughput
# at batch 32, min-of-3 runs.
bench-train:
	TRAIN_BENCH_SNAPSHOT=1 go test -run TestTrainGemmBenchSnapshot -v .

# Regenerate the committed telemetry-overhead snapshot (BENCH_telemetry.json):
# per-site disabled/enabled costs plus interleaved enabled-vs-disabled
# overhead on the QAT-step and ODQ-conv hot paths.
bench-telemetry:
	TELEMETRY_BENCH_SNAPSHOT=1 go test -run TestTelemetryBenchSnapshot -v .

# Regenerate the committed bitplane snapshot (BENCH_bitplane.json):
# bitplane vs int-GEMM predictor micro-kernels, sparse/legacy/dense
# executor at swept sensitivities, and the packed-domain pipeline vs the
# float round-trip path.
bench-bitplane:
	BITPLANE_BENCH_SNAPSHOT=1 go test -run TestBitplaneBenchSnapshot -timeout 60m -v .

# Regenerate the committed scale-out snapshot (BENCH_dist.json):
# group-synchronous QAT at 1/2/4 loopback workers and the replica pool at
# 1/2/4 sessions — measured walls plus the critical-path projection for
# multi-core hosts, interleaved min-of-trials.
bench-dist:
	DIST_BENCH_SNAPSHOT=1 go test -run TestDistBenchSnapshot -timeout 60m -v .

# Compare fresh benchmark snapshot runs against the committed BENCH_*.json
# files (informational; see scripts/bench_compare.sh).
bench-compare:
	./scripts/bench_compare.sh

# Profile a short experiment run end to end: CPU profile + Chrome trace
# (load trace.json at https://ui.perfetto.dev), then the top-10 hottest
# frames by flat time.
profile:
	go build -o odq-bench-profile ./cmd/odq-bench
	./odq-bench-profile -scale test -run figure1 -quiet \
		-cpuprofile cpu.pprof -trace-out trace.json
	go tool pprof -top -nodecount=10 odq-bench-profile cpu.pprof
	rm -f odq-bench-profile
