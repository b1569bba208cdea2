#!/usr/bin/env bash
# Offline CI for the poi360 workspace. Everything here must pass with an
# empty cargo registry — the repo has zero external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

# Section banner prefixed with wall-clock seconds elapsed since the
# script started, so a slow gate is visible at a glance in the log. Each
# banner also opens a section that the EXIT trap times.
sections=()
section_starts=()
banner() {
    sections+=("$*")
    section_starts+=("$SECONDS")
    echo "== [+${SECONDS}s] $* =="
}

# On exit, green or not: wall-clock seconds per banner section (a section
# runs to the next banner or to the exit), titles cut to 72 characters.
section_seconds() {
    local i end
    echo "== seconds per section =="
    for ((i = 0; i < ${#sections[@]}; i++)); do
        end=${section_starts[i + 1]:-$SECONDS}
        printf '%5d  %s\n' $((end - section_starts[i])) "${sections[i]:0:72}"
    done
}
trap section_seconds EXIT

# width_cmp "<widths>" <stem> <reproduce args...>: run one reproduce
# subcommand at each worker-pool width of the space-separated list and
# require the .jsonl and .txt artifacts byte-identical to the first
# width's. The width comes from the environment, the only width knob
# `reproduce` has: the RunMeta stamp records argv, so a width flag would
# (correctly) differ in the artifact bytes.
width_cmp() {
    local widths=$1 stem=$2 width first=
    shift 2
    for width in $widths; do
        POI360_THREADS=$width POI360_BENCH_DIR=target/ci/${stem}_w$width \
            cargo run --release -p poi360-bench --bin reproduce -- "$@" >/dev/null
        if [ -z "$first" ]; then
            first=$width
            continue
        fi
        cmp "target/ci/${stem}_w$first/$stem.jsonl" "target/ci/${stem}_w$width/$stem.jsonl"
        cmp "target/ci/${stem}_w$first/$stem.txt" "target/ci/${stem}_w$width/$stem.txt"
    done
    echo "ok: $stem artifact byte-identical at widths $widths"
}

banner "tree sweeps (hermetic manifests, dead API, unread fields, module reachability, one value one constant, structural shapes, DESIGN.md references, documented names, panic sites)"
# tests/tree_sweeps.rs; DESIGN.md §15 lists its rules and allow-lists.
cargo test -q -p poi360 --test tree_sweeps

banner "cargo fmt --check"
cargo fmt --check

banner "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

banner "build (release)"
cargo build --release

banner "tests"
cargo test -q --workspace

banner "busy-cell trace (study busy: one traced FBCC session, probe JSONL export)"
# Rewrites the tracked bench_results/study_busy.txt, so the drift gate
# below holds it too.
cargo run --release -p poi360-bench --bin reproduce -- study busy >/dev/null
test -s bench_results/study_busy.jsonl

banner "fault-injection smoke (study faults: recovery invariants, FBCC vs GCC vs OCC)"
# Rewrites the tracked bench_results/study_faults_smoke.txt; exits nonzero
# if any case violates a recovery invariant.
cargo run --release -p poi360-bench --bin reproduce -- study faults --smoke >/dev/null
test -s bench_results/study_faults_smoke.jsonl

banner "fault + handover regression suite, 3-seed matrix"
# tests/faults.rs also carries the handover packet-conservation
# invariants, so this matrix covers both planes per seed.
for seed in 1 2 3; do
    POI360_FAULT_SEED=$seed cargo test -q --release --test faults
done

banner "hex-grid mobility smoke (study mobility: handover invariants on each of 3 seeds)"
cargo run --release -p poi360-bench --bin reproduce -- study mobility --smoke >/dev/null
test -s bench_results/study_mobility_smoke.jsonl

banner "exact gates (allocation, work and heap counts, byte pins and oracles, in release)"
# DESIGN.md §10 "Exact gates" names what each of these four commands holds.
cargo test -q --release -p poi360-bench --test zero_alloc
cargo test -q --release -p poi360-bench --test fault_prefix
cargo test -q --release -p poi360-lte --lib --test cell_prop
cargo test -q --release -p poi360-sim --lib short_decimal_is_str_parse_bit_for_bit

banner "study smoke (cc_matrix: 2 controllers x 3 scenarios x 3 seeds + report)"
cargo run --release -p poi360-bench --bin reproduce -- study cc_matrix --smoke >/dev/null
test -s bench_results/study_cc_matrix_smoke.jsonl
test -s bench_results/study_cc_matrix_smoke_trace.json

banner "study smoke (ho_tails: 3 mobility presets x 3 seeds + handover-gap tails)"
# Rewrites the tracked bench_results/study_ho_tails_smoke.txt, so the
# drift gate below holds it like every other smoke report.
cargo run --release -p poi360-bench --bin reproduce -- study ho_tails --smoke >/dev/null
test -s bench_results/study_ho_tails_smoke.jsonl

banner "study byte-identity across worker-pool widths (fresh, and drift-gated against a baseline)"
width_cmp "1 4" study_cc_matrix_smoke study cc_matrix --smoke
# The drift-gate report reads the baseline artifact through the chunked
# parse (four chunks at width 4) and its distributions through the
# selection quantiles.
width_cmp "1 4" study_cc_matrix_smoke study cc_matrix --smoke --baseline bench_results

banner "arena smoke (study arena: 3 controllers x 3 schemes, shared-cell quality + fault league)"
# Rewrites the tracked bench_results/study_arena_smoke.txt; exits nonzero
# if any fault case violates a recovery invariant.
cargo run --release -p poi360-bench --bin reproduce -- study arena --smoke >/dev/null
test -s bench_results/study_arena_smoke.jsonl

banner "arena byte-identity across worker-pool widths"
width_cmp "1 4" study_arena_smoke study arena --smoke

banner "fault smoke byte-identity across worker-pool widths"
# run_traced's two fan-outs (the shared prefixes, then every case) must
# not reach the artifact bytes.
width_cmp "1 4" study_faults_smoke study faults --smoke

banner "mobility byte-identity across shard widths"
# POI360_THREADS drives both the worker pool *and* the grid's
# epoch-lockstep shard width (they share one resolution in
# sim::workers). Each width's artifact is all three seeds' grids as that
# width ran them: the seeds fan out over a pool of that width, and each
# grid is cut into that many shards, stepped inline on its worker. So
# this compares the bytes of four shard partitions and four fan-out
# widths; 3 divides neither the cell nor the UE count.
width_cmp "1 2 3 4" study_mobility_smoke study mobility --smoke

banner "paper figures (reproduce all at default scale, every artifact byte-identical at pool width 1)"
# Rewrites all 17 tracked figure artifacts (table1, fig5 ... fig17_*,
# coexist, ablation_*) in place, so the drift gate below holds them; the
# second run proves the bytes do not depend on the worker-pool width.
cargo run --release -p poi360-bench --bin reproduce -- all >/dev/null
POI360_THREADS=1 POI360_BENCH_DIR=target/ci/figures_w1 \
    cargo run --release -p poi360-bench --bin reproduce -- all >/dev/null
for artifact in target/ci/figures_w1/*.txt; do
    cmp "$artifact" "bench_results/$(basename "$artifact")"
done
echo "ok: $(ls target/ci/figures_w1/*.txt | wc -l) figure artifacts byte-identical at the default width and width 1"

banner "default-scale fault suite and convoy suite (also at pool width 1)"
# Rewrites the tracked study_faults.txt and study_mobility.txt, so the
# drift gate holds every artifact `reproduce` writes. Each study runs its
# matrix once per invocation, so the full-scale determinism check is a
# second run at width 1 whose .jsonl and .txt must `cmp` equal to the
# first, as the figures section does.
cargo run --release -p poi360-bench --bin reproduce -- study faults >/dev/null
cargo run --release -p poi360-bench --bin reproduce -- study mobility >/dev/null
POI360_THREADS=1 POI360_BENCH_DIR=target/ci/default_w1 \
    cargo run --release -p poi360-bench --bin reproduce -- study faults >/dev/null
POI360_THREADS=1 POI360_BENCH_DIR=target/ci/default_w1 \
    cargo run --release -p poi360-bench --bin reproduce -- study mobility >/dev/null
for artifact in study_faults.jsonl study_faults.txt study_mobility.jsonl study_mobility.txt; do
    cmp "target/ci/default_w1/$artifact" "bench_results/$artifact"
done
echo "ok: study faults and study mobility artifacts byte-identical at the default width and width 1"

banner "checked-in artifacts did not drift"
# The gates above rewrote every tracked bench_results/*.txt that
# `reproduce` writes in place: the *_smoke reports, study_busy.txt, the
# figure artifacts and the two default-scale suite reports
# (fbcc_diag_freeze.txt is the golden tests/controller_diff.rs holds). The
# .txt artifacts carry no path, byte count, argv or wall-clock reading, so
# any diff under bench_results/ is a real behaviour change that must be
# re-pinned on purpose.
git diff --exit-code -- bench_results

banner "ingest sweep: every generated JSONL artifact re-parses, every record on the record-shaped path; study_faults_smoke.jsonl refers to its probes by id (<= 45 bytes and one line per record)"
cargo test -q --release -p poi360-analyse --test roundtrip

banner "benchmark package (fmt, clippy, self-tests, smoke run against this tree's crates)"
# benchmark/ is the one perf instrument and imports bench::{runner,
# study, faults}: an API change that breaks it must fail here.
benchmark/check.sh

echo "CI green in ${SECONDS}s."
