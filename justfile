# FT-BE-SST task runner. Install `just` (https://github.com/casey/just)
# or copy the underlying cargo commands by hand — every recipe is one line.

# List available recipes.
default:
    @just --list

# Build the whole workspace in release mode.
build:
    cargo build --workspace --release

# Run the full unit/property/integration suite.
test:
    cargo test --workspace

# Deterministic Simulation Testing: 64-seed blocks per fault preset plus
# golden-snapshot regressions. See docs/DST_GUIDE.md.
dst:
    cargo test -p besst-des --test dst_substrate

# Re-bless DST golden snapshots after an intentional trajectory change.
dst-bless:
    DST_BLESS=1 cargo test -p besst-des --test dst_substrate

# Buggify fault-injection unit tests only.
buggify:
    cargo test -p besst-des buggify

# Fig. 4 Cases 2 & 4: overlay vs online fault injection side by side.
# See docs/FAULT_INJECTION.md.
faults:
    cargo run --release -p besst-experiments --bin repro -- cases24

# Silent-data-corruption gates: engine bit-identity, overlay equivalence,
# Young–Daly bound under detected-SDC rollback, and zero-SilentlyWrong
# with ABFT + checkpoint verification armed. See docs/FAULT_INJECTION.md.
sdc:
    cargo test -p besst-core --test sdc_injection

# besst-lint: repo-specific determinism/soundness rules D1–D9 plus the
# stale-allow audit over every workspace crate. Exit 1 = findings,
# exit 2 = internal linter error. See docs/STATIC_ANALYSIS.md.
lint:
    cargo run -p xtask -- lint

# Machine-readable findings: the besst-lint-json-v1 document on stdout
# (byte-deterministic across runs — CI cmp's two of them).
lint-json:
    cargo run -p xtask -- lint --format json

# Scenario-server smoke: the besst-serve suites (protocol, cache-key
# properties, TCP smoke, the 1k-query chaos gate), then the `besst serve`
# binary over stdio JSONL — fault-free and under the `serve` chaos
# preset. See docs/SCENARIO_SERVER.md.
serve-smoke:
    cargo test -p besst-serve
    printf '{"id":1,"steps":20,"ranks":8}\n{"id":2,"mode":"baseline"}\n\n' | cargo run --release --bin besst -- serve
    printf '{"id":1,"steps":20,"ranks":8}\n{"id":2,"mode":"baseline"}\n\n' | cargo run --release --bin besst -- serve --chaos 190

# Storm survival: the sharded-cluster suites (ring properties, streaming
# reassembly, the crash-storm chaos gate), then the `besst serve` binary
# sharded 4 ways under the `storm` preset — whole shards die mid-batch
# and every answer must still land exactly once. See docs/SCENARIO_SERVER.md.
serve-storm:
    cargo test -p besst-serve --test ring_properties --test stream --test storm
    printf '{"mode":"stream","v":2}\n{"id":1,"steps":20,"ranks":8}\n{"id":2,"mode":"baseline"}\n\n' | cargo run --release --bin besst -- serve --shards 4 --replication 3 --storm 2

# Storm replay loop: the storm suite's exact-replay test 20 times in a
# row with default test threads. Shard routing and failure-detector
# updates are batch-ordered, so crash and death counts must replay from
# the seed on every run; raced routing failed about one run in eight.
serve-replay:
    for i in $(seq 1 20); do cargo test -q -p besst-serve --test storm storm_runs_replay_exactly_from_their_seed || exit 1; done

# Markdown link checker: every relative link and docs/*.md cross-reference
# in README.md, DESIGN.md and docs/ must resolve. See docs/README.md.
doc-links:
    cargo run -p xtask -- doc-links

# Miri (nightly): undefined-behavior interpreter over the besst-des unit
# tests. Heavy DST roundtrips are `#[cfg_attr(miri, ignore)]`-gated.
miri:
    cargo +nightly miri test -p besst-des --lib

# ThreadSanitizer (nightly): data-race detection over the parallel engine,
# driven by a reduced DST seed block across every partitioning.
tsan:
    RUSTFLAGS="-Zsanitizer=thread" DST_SEEDS=4 cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu -p besst-des --test dst_substrate

# Exhaustive-interleaving model check of the parallel engine's cross-rank
# handoff (pure std; the loom variant needs `--cfg loom` + the loom crate).
handoff:
    cargo test -p besst-des --test rank_handoff

# Build API docs, treating rustdoc warnings as errors (matches CI).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Regenerate every paper table and figure.
repro:
    cargo run --release -p besst-experiments --bin repro -- all

# Check that results/ is what the code produces: `repro all` in a scratch
# directory, byte-compared with the committed CSVs and repro_all.txt
# (minus its `[repro]` timing lines). CI runs the same script.
repro-check:
    cargo build --release -p besst-experiments --bin repro
    scripts/repro-check.sh

# Pinned-seed benchmark report (results/BENCH_*.json). Regenerates the
# committed numbers; run on a quiet machine. See docs/PERFORMANCE.md.
bench-json:
    cargo run --release -p xtask -- bench-json --out results/BENCH_0011.json

# Per-component memory regression gate: flat-store substrate builds from
# 64k to 1M components must stay within ±10% bytes/component. Runs the
# xtask binary (the only place the counting allocator is installed).
mem-gate:
    cargo run --release -p xtask -- mem-gate

# Seconds-scale benchmark smoke: the miniature bench-json configuration
# (schema + determinism gates), the scheduler equivalence suite, the
# storage-equivalence wall, and the 64k→1M memory regression gate.
# This is what CI runs; it validates the measurement path, not the numbers.
bench-smoke:
    cargo test -p xtask --test bench_json
    cargo test -p besst-des --test scheduler_prop
    cargo test -p besst-des --test storage_equiv
    cargo run --release -p xtask -- bench-json --miniature > /dev/null
    cargo run --release -p xtask -- mem-gate
