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

banner "hermetic manifest check"
# No [dependencies]/[dev-dependencies] entry may name anything but
# poi360-* path crates (workspace-dep references included).
if grep -rn --include=Cargo.toml -E '^[a-zA-Z0-9_-]+ *= *[{"]' . \
    | grep -vE '^\./target/' \
    | sed -n '/\[.*dependencies\]/,$p' >/dev/null; then
    bad=$(awk '
        /^\[(dev-|build-)?dependencies/ { indeps = 1; next }
        /^\[/ { indeps = 0 }
        indeps && /^[a-zA-Z0-9_-]+ *=/ && !/^poi360-/ { print FILENAME ": " $0 }
    ' Cargo.toml crates/*/Cargo.toml)
    if [ -n "$bad" ]; then
        echo "non-hermetic dependency entries found:" >&2
        echo "$bad" >&2
        exit 1
    fi
fi
echo "ok: only poi360-* path dependencies"

banner "dead public functions and unread public fields"
# Every `pub fn` / `pub(crate) fn` under crates/*/src must be used by
# non-test code: crates/*/src, src/ and benchmark/src, each file above its
# `#[cfg(test)] mod …` tail, comment lines and string literals skipped.
# Callers in tests/ and crates/*/tests do not count, so neither a test nor
# a doc link can keep test-only API alive. crates/testkit is test
# infrastructure: its functions are not checked and its calls do not count.
#
# A use is a call or a path, never a bare name (`std::` does not keep
# `TimeSeries::std` alive). Functions are matched by name, narrowed by
# what the text can tell:
# - `Type::name` / `Self::name` uses only `Type`'s function; a free
#   function is used by `name(` or `module::name`;
# - `.name(` uses a method of a type in the calling package, or of a type
#   the calling file names, or any method of that name when the calling
#   package defines no `pub fn name` of its own (so the benchmark's
#   `Results::counts` calls do not keep `JsonlSink::counts` alive);
# - a call or path inside the body of the function it names (recursion,
#   `Self::name` in `name`, a forwarder's `.name(` call) does not use that
#   function.
#
# A function only tests call stays only as what a test compares the
# simulator against, and then only on this list: `path name reason`, one
# line each. The sweep forgives these names; an entry whose function is
# gone fails. Entries the sweep would not flag are listed too, so the list
# is the whole inventory of test-only API.
allowed='
crates/lte/src/scheduler.rs saturation_bits_per_subframe the closed-form Fig. 5 asymptote the grant law and the scenarios are tested against (cfg(test))
crates/video/src/content.rs weight sender_oracles.rs re-derives each frame size from the tile complexities
crates/video/src/encoder.rs tiles sender_oracles.rs compares the level, bits and weight of every tile with the three-pass encoder
crates/lte/src/buffer.rs total_served_bytes conservation properties balance it against what was enqueued and flushed
crates/net/src/pipe.rs sent conservation properties balance sent against delivered and in flight
crates/net/src/pipe.rs in_flight conservation properties balance sent against delivered and in flight
crates/transport/src/rtp.rs completed reassembly properties account every frame as completed or abandoned
crates/transport/src/rtp.rs abandoned reassembly properties account every frame as completed or abandoned
crates/core/src/ring.rs iter the ring oracles compare its live entries with a BTreeMap
crates/analyse/src/ingest.rs generic_records the ingest gates assert every JsonlSink stream reads on the shaped path
crates/sim/src/trace.rs shared RingSink, a test sink: the unit tests of sim use it and cannot take it from testkit
crates/sim/src/trace.rs records RingSink, a test sink: the unit tests of sim use it and cannot take it from testkit
crates/sim/src/json.rs as_bool the unit test of benchmark/src/main.rs reads the correct field of a summary line with it
crates/sim/src/workers.rs with_worker_threads tests that compare pool widths set the width with it, under the process-wide lock beside it
crates/lte/src/cell/mod.rs background_steps zero_alloc.rs pins the UE-subframes the parking cell walks
crates/lte/src/cell/mod.rs background_channel_samples zero_alloc.rs pins the channel samples the sounding cadence takes
crates/core/src/multicell.rs background_steps zero_alloc.rs pins the UE-subframes a mobility grid walks
crates/core/src/multicell.rs background_channel_samples zero_alloc.rs pins the channel samples a mobility grid takes
crates/bench/src/protocol.rs records fault_prefix.rs and faults.rs pin the records each shared prefix formats once per group
'
# live_lines <path regex>: the non-comment lines of the NUL-separated
# files on stdin, a file whose path matches the regex cut at its
# `#[cfg(test)] mod …` tail.
live_lines() {
    xargs -0 awk -v cut="$1" '
        FNR == 1 { tail = 0; prev = "" }
        FILENAME ~ cut && prev == "#[cfg(test)]" && /^mod / { tail = 1 }
        { prev = $0 }
        !tail && !/^[[:space:]]*\/\//'
}
stale=$(while read -r path name _; do
    [ -n "$path" ] || continue
    grep -qE "pub(\(crate\))? fn $name\b" "$path" 2>/dev/null || echo "$path $name"
done <<<"$allowed")
if [ -n "$stale" ]; then
    echo "allow-list entries whose function is gone:" >&2
    echo "$stale" >&2
    exit 1
fi
dead=$(find crates/*/src src benchmark/src -name '*.rs' -not -path 'crates/testkit/*' -print0 \
    | xargs -0 awk -v allowed="$allowed" '
    # use(type, name, owner): a use of `type::name` ("" for a free function)
    # made inside the body of function `owner` ("" when that is another
    # function), counted apart so a function cannot keep itself alive.
    function use(t, name, owner) {
        uses[t, name]++
        if (owner != "") self_uses[owner]++
    }
    BEGIN {
        n = split(allowed, rows, "\n")
        for (i = 1; i <= n; i++) if (split(rows[i], w, " ") >= 2) ok[w[1], w[2]] = 1
    }
    FNR == 1 {
        tail = 0; prev = ""; depth = 0; fn = ""; impl = ""
        pkg = FILENAME; sub(/\/src\/.*/, "", pkg)
    }
    prev == "#[cfg(test)]" && /^mod / { tail = 1 }
    { prev = $0 }
    tail || /^[[:space:]]*\/\// { next }
    {
        line = $0
        gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
        gsub(/'\''([^'\''\\]|\\.)'\''/, "'\'''\''", line)
        # The self type of the `impl` / `trait` block the line is in.
        if (impl == "" && line ~ /^[[:space:]]*(pub )?(impl|trait)[[:space:]<]/) {
            h = line
            sub(/^[[:space:]]*(pub )?(impl|trait)(<[^>]*(<[^>]*>[^>]*)*>)?[[:space:]]+/, "", h)
            sub(/.* for /, "", h)
            sub(/[^A-Za-z0-9_:].*/, "", h)
            sub(/.*::/, "", h)
            impl = h; impl_base = depth; impl_open = 0
        }
        # The function whose signature or body the line is in.
        if (fn == "" && match(line, /(^|[^A-Za-z0-9_])fn [A-Za-z0-9_]+/)) {
            fn = substr(line, RSTART, RLENGTH); sub(/.*fn /, "", fn)
            fn_id = FILENAME ":" FNR; fn_base = depth; fn_open = 0
            if (line ~ /pub(\(crate\))? (const )?fn /) {
                pub_in[pkg, fn] = 1
                if (FILENAME ~ /^crates\// && !((FILENAME, fn) in ok)) {
                    def[fn_id] = FILENAME " " fn; def_type[fn_id] = impl
                    def_pkg[fn_id] = pkg; def_name[fn_id] = fn
                }
            }
        }
        rest = line; last = ""
        while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
            pre = substr(rest, 1, RSTART - 1); tok = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            q = last; last = tok
            if (tok ~ /^[A-Z]/) names[FILENAME, tok] = 1
            if (q == "fn" || rest ~ /^[[:space:]]*!/) continue
            call = rest ~ /^(::<[^(]*>)?\(/
            self_use = fn == tok ? fn_id : ""
            if (pre ~ /::$/ && rest !~ /^::/) {
                if (pre != "::") q = "?"
                if (q == "Self") q = impl
                if (q ~ /^[A-Z?]/) use(q, tok, q == impl ? self_use : "")
                else use("", tok, impl == "" ? self_use : "")
            } else if (pre ~ /\.$/ && call) {
                k = ++calls[tok]; call_file[tok, k] = FILENAME; call_pkg[tok, k] = pkg
                call_in[tok, k] = self_use
            } else if (call && pre !~ /[.:]$/) {
                use("", tok, impl == "" ? self_use : "")
            }
        }
        k = split(line, ch, "")
        for (i = 1; i <= k; i++) {
            if (ch[i] == "{") depth++
            else if (ch[i] == "}") depth--
        }
        if (depth > fn_base) fn_open = 1
        if (depth > impl_base) impl_open = 1
        if (fn != "" && (fn_open ? depth <= fn_base : line ~ /;[[:space:]]*$/)) fn = ""
        if (impl != "" && impl_open && depth <= impl_base) impl = ""
    }
    END {
        for (id in def) {
            n = def_name[id]; t = def_type[id]
            if (uses[t, n] > self_uses[id] || (t != "" && ("?", n) in uses)) continue
            live = 0
            for (k = 1; k <= calls[n] && !live; k++) {
                if (call_in[n, k] == id || t == "") continue
                live = call_pkg[n, k] == def_pkg[id] || (call_file[n, k], t) in names \
                    || !((call_pkg[n, k], n) in pub_in)
            }
            if (!live) print def[id] (t == "" ? "" : " (" t ")")
        }
    }' | sort)
if [ -n "$dead" ]; then
    echo "public functions no non-test code calls:" >&2
    echo "$dead" >&2
    exit 1
fi
echo "ok: every public function is called by non-test code"

# Every `pub` / `pub(crate)` field of a struct under crates/*/src (above
# the file's test tail, crates/testkit excepted) must be read by non-test
# code in the same files the function sweep reads. A read is `.name` that
# is neither a method call nor the target of `=` or `op=`, or `name` inside
# a destructuring pattern (`let Type { … }`, a `Type { … } =>` arm).
# Writing a field in a struct literal does not read it. Matching is by
# bare name, so a field that shares its name with a read one slips
# through. A field only tests read stays only as an oracle hook on this
# list: `path field reason`; an entry whose field is gone fails.
unread_ok='
crates/lte/src/cell/mod.rs bg_backlog_bytes the 500-UE byte pin in cell_prop.rs and the parking and sounding oracles fold it in
crates/video/src/encoder.rs keyframe the encoder tests and sender_oracles.rs check which frames are keyframes
crates/transport/src/rtp.rs suffered_loss the reassembly unit and property tests check which frames needed a repair
crates/lte/src/diag.rs delivered_at only benchmark/src/adapter.rs builds a DiagReport, so it sets every field
'
pub_fields=$(find crates/*/src -name '*.rs' -not -path 'crates/testkit/*' -print0 | xargs -0 awk '
    FNR == 1 { tail = 0; prev = ""; ty = "" }
    prev == "#[cfg(test)]" && /^mod / { tail = 1 }
    { prev = $0 }
    tail { next }
    /^pub(\(crate\))? struct [A-Za-z0-9_]+.*\{$/ { ty = $3; sub(/[<{].*/, "", ty); next }
    ty != "" && /^}/ { ty = ""; next }
    ty != "" && /^    pub(\(crate\))? [a-z0-9_]+:/ { f = $2; sub(/:.*/, "", f); print FILENAME, ty, f }')
stale=$(while read -r path name _; do
    [ -n "$path" ] || continue
    grep -q "^$path [A-Za-z0-9_]* $name\$" <<<"$pub_fields" || echo "$path $name"
done <<<"$unread_ok")
if [ -n "$stale" ]; then
    echo "allow-list entries whose field is gone:" >&2
    echo "$stale" >&2
    exit 1
fi
reads=$(find crates/*/src src benchmark/src -name '*.rs' -not -path 'crates/testkit/*' -print0 \
    | live_lines '^(crates/[^/]+/src|src|benchmark/src)/' | awk '
    { gsub(/"([^"\\]|\\.)*"/, "\"\"") }
    {
        rest = $0
        while (match(rest, /(^|[^.])\.[a-z_][a-z0-9_]*/)) {
            name = substr(rest, RSTART, RLENGTH); sub(/^[^.]?\./, "", name)
            rest = substr(rest, RSTART + RLENGTH)
            if (rest !~ /^[[:space:]]*(([-+*\/%&|^]|<<|>>)?=([^=]|$)|\(|::)/) print name
        }
    }
    /let +&?(mut +)?[A-Z][A-Za-z0-9_:]* *\{/ || /[A-Z][A-Za-z0-9_:]* *\{[^}]*\} *(if .*)?(=>|\|)/ {
        rest = $0
        while (match(rest, /[a-z_][a-z0-9_]*/)) {
            print substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
        }
    }' | sort -u)
unread=$(while read -r path ty name; do
    grep -q "^$path $name " <<<"$unread_ok" && continue
    grep -qx "$name" <<<"$reads" || echo "$path $ty::$name"
done <<<"$pub_fields")
if [ -n "$unread" ]; then
    echo "public fields no non-test code reads:" >&2
    echo "$unread" >&2
    exit 1
fi
echo "ok: every public field is read by non-test code (or a reason is on the list)"

# Every `pub mod m` a crates/*/src/lib.rs declares must be named (`m::`) by
# a non-comment line of some other file under crates/*/src, src/ or
# benchmark/src, above that file's `#[cfg(test)] mod …` tail: a module only
# its own crate root, a comment or a test can reach is one no run can
# reach. Matching is by bare module name; there is no allow-list.
reach=$(find crates/*/src src benchmark/src -name '*.rs' -not -path 'crates/*/src/lib.rs' -print0 \
    | live_lines .)
unreachable=$(grep -hoE '^pub mod [a-z0-9_]+' crates/*/src/lib.rs | cut -d' ' -f3 | sort -u \
    | while read -r m; do
        grep -qE "(^|[^A-Za-z0-9_])$m::" <<<"$reach" || echo "$m"
    done)
if [ -n "$unreachable" ]; then
    echo "public modules no code outside their crate root and the tests names:" >&2
    echo "$unreachable" >&2
    exit 1
fi
echo "ok: every public module is named by non-test code outside its lib.rs"

banner "one value, one constant"
# Every `pub` field of a `pub struct *Config` / `*Spec` / `*Scale` under
# crates/*/src, above the file's `#[cfg(test)] mod …` tail, must be
# initialised on at least two lines of the Rust in crates/, src/, tests/
# and benchmark/src, tests included: its own `Default` and one more. A line
# initialises a field when it writes `name:` or the `name,` / `name }`
# shorthand of a struct literal, or assigns `.name =`; `pub name:`
# declarations, comment lines and `fn` signatures (down to the line that
# opens the body) do not count. A field only its `Default` sets has one
# value in use: it is a `const` in the module that reads it. Matching is by
# bare name — any line that writes `name:` for something else (a binding's
# type, another struct's field) counts too, so a single-valued field that
# shares its name with a busy one slips through.
#
# A field stays although one value is in use only with a reason on this
# list: `path field reason`, one line each. The gate forgives these names;
# an entry whose field is gone fails. Entries the bare-name count would not
# flag are listed too, so the list is the whole inventory.
fixed='
crates/video/src/encoder.rs geometry every run encodes UHD_4K, but benchmark/src/adapter.rs reads the field from a default config
'
config_fields=$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { tail = 0; prev = ""; ty = "" }
    prev == "#[cfg(test)]" && /^mod / { tail = 1 }
    { prev = $0 }
    tail { next }
    /^pub struct [A-Za-z0-9_]*(Config|Spec|Scale) \{$/ { ty = $3; next }
    ty != "" && /^}/ { ty = ""; next }
    ty != "" && /^    pub [a-z0-9_]+:/ { sub(/:.*/, "", $2); print FILENAME, ty, $2 }')
stale=$(while read -r path name _; do
    [ -n "$path" ] || continue
    grep -q "^$path [A-Za-z0-9_]* $name\$" <<<"$config_fields" || echo "$path $name"
done <<<"$fixed")
if [ -n "$stale" ]; then
    echo "allow-list entries whose field is gone:" >&2
    echo "$stale" >&2
    exit 1
fi
writers=$(find crates src tests benchmark/src -name '*.rs' -print0 | xargs -0 awk '
    /^[[:space:]]*\/\// { next }
    sig || /(^|[^A-Za-z0-9_])fn [A-Za-z0-9_]+/ { sig = !/\{|;[[:space:]]*$/; next }
    !/^[[:space:]]*pub [a-z0-9_]+:/')
single=$(while read -r path ty name; do
    grep -q "^$path $name " <<<"$fixed" && continue
    n=$(grep -cE "(^|[^A-Za-z0-9_.])$name(:([^:]|\$)|[[:space:]]*[,}])|\.$name[[:space:]]*=([^=]|\$)" \
        <<<"$writers" || true)
    [ "$n" -ge 2 ] || echo "$path $ty::$name"
done <<<"$config_fields")
if [ -n "$single" ]; then
    echo "config fields nothing sets but their Default (make each a const):" >&2
    echo "$single" >&2
    exit 1
fi
echo "ok: every config field has two or more values in use (or a reason on the list)"

banner "one interference sum, one measurement call site"
# RadioMap::measure and measure_all are one kernel (measure_block): the
# accumulation into the interference sum is written once above the grid
# module's tests, and the grid driver measures through measure_all only.
sums=$(sed '/^mod tests/,$d' crates/lte/src/grid/mod.rs | grep -cE 'interference_mw.* \+= ')
if [ "$sums" != 1 ] || git grep -n 'radio\.measure(' -- crates/core/src; then
    echo "expected 1 interference accumulation in lte::grid (found $sums) and no radio.measure( in crates/core/src" >&2
    exit 1
fi
echo "ok: one definition of the interference expression, one call site in the driver"

banner "one compression selector, one rate control"
# Every CompressionScheme is a configuration of adaptive::AdaptiveCompression
# and every RateControlKind a law of rate::RateControl: the session holds
# both by value, so core has no trait objects and no per-scheme modules.
if git grep -n 'dyn ' -- crates/core/src \
    || grep -nE '^pub mod (baselines|predictive|tiling);' crates/core/src/lib.rs; then
    echo "expected no 'dyn ' in crates/core/src and no baselines/predictive/tiling module" >&2
    exit 1
fi
echo "ok: one compression selector, one rate control"

banner "the session keeps no ordered maps"
# The RTX history and the frame store are seq-indexed rings (core::ring),
# held to BTreeMap semantics by crates/core/tests/sender_oracles.rs; a map
# coming back into the session's per-subframe path fails here.
if grep -n 'BTreeMap' crates/core/src/session.rs; then
    echo "crates/core/src/session.rs names BTreeMap" >&2
    exit 1
fi
echo "ok: no BTreeMap in the session"

banner "the UE side keeps no deque"
# A UE's BSR pipeline is a fixed inline ring (lte::ue::BsrPipeline), held
# to the VecDeque pipeline it replaced by lte::uplink's
# bsr_ring_matches_the_deque_pipeline; a deque coming back into the per-UE
# state (one heap buffer per UE, walked every subframe) fails here.
if grep -n 'VecDeque' crates/lte/src/ue.rs; then
    echo "crates/lte/src/ue.rs names VecDeque" >&2
    exit 1
fi
echo "ok: no VecDeque on the UE side"

banner "inline only at the subframe seams"
# `#[inline]` lets a generic caller monomorphised in another crate (`Cell<T>`
# and `CellUplink<T>` are instantiated in poi360-core, and neither workspace
# enables LTO) inline a helper defined beside it. It is a measured choice per
# file: the files DESIGN.md §10 ("Crate seams") lists may carry it and each
# of them must, no other file under crates/*/src may, and none carries
# `#[inline(always)]`.
seams=$(sed -n '/^### Crate seams/,/^##/p' DESIGN.md | grep -oE '`crates/[a-z_/]+[.]rs`' | tr -d '`' | sort -u)
inlined=$(git grep -l -F '#[inline]' -- 'crates/*/src/*' | sort -u)
if git grep -n -F '#[inline(always)]' -- 'crates/*/src/*'; then
    echo "#[inline(always)] under crates/*/src" >&2
    exit 1
fi
stray=$(comm -13 <(echo "$seams") <(echo "$inlined"))
stale=$(comm -23 <(echo "$seams") <(echo "$inlined"))
if [ -z "$seams" ] || [ -n "$stray" ] || [ -n "$stale" ]; then
    echo "#[inline] outside the DESIGN.md §10 seam list: ${stray:-none}" >&2
    echo "seam-list files without #[inline]: ${stale:-none}" >&2
    exit 1
fi
echo "ok: #[inline] in the $(echo "$seams" | wc -l) seam files only, no #[inline(always)]"

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

banner "exact gates (zero-alloc 500-UE cell and parking 12-UE cell, background UE-subframes walked and background channel samples taken by the busy cell and the first-seed study mobility smoke grid, sharded grid vs serial, allocations per encoded frame (== 1, its tile weights) and per 5 000 warmed session subframes, ingest and warmed-JsonlSink allocations independent of record count, heap freed by dropping a finished report and a pool of five (== their samples), heap freed by dropping analyse pools of the cc_matrix smoke traces, added trace by trace and folded at once (== an exact copy's: every probe buffer's capacity is its sample count), heap acquired by storing a counted fold (== one allocation per probe buffer: no sample buffer reallocated), heap held by frames in flight under one matrix (== their tile weights plus the one shared matrix); crowded-cell byte pin, walked share and samples per UE-subframe, PF selection comparison count (== 1 252 over integer keys), BSR ring vs the deque pipeline, truncation vs floor and truncation plus remainder vs ceil bit for bit, claim-cap shortcut vs the division, parking cell vs walk-everyone oracle, 10 ms sounding vs the period-1 oracle and the parent's digest, two-rate radio map vs single-pass oracle sampled at the period, measure_all vs measure vs the single-pass scan; the JSONL record cursor's short decimals vs str::parse bit for bit over 10^6 tokens; session subframes the shared pre-fault prefixes step for the benchmark's fault study, study faults and study faults --smoke; probe records formatted (each prefix once) beside record lines written for the benchmark's fault study and study faults)"
# Counts and bytes, not wall-clock readings. Release: the optimiser
# decides what reaches the heap and how floats are scheduled, and release
# is what reproduce and benchmark/ run. zero_alloc carries the allocation
# counts, the walked-UE-subframe count of the first `study mobility
# --smoke` grid
# (pinned ==, and below 40 % of cells x UEs x steps) and the background
# channel samples of that grid and of the busy 500-UE cell (pinned ==, and
# a tenth of the UE-subframes walked plus at most one per UE), and the
# live bytes a finished report and a pool free when dropped (== the bytes
# of their samples: no growth slack outlives a run), the live bytes the
# analyse pools of the cc_matrix smoke traces free (== what a copy of each
# frees, so every probe buffer is sized to its samples), the allocations
# storing a counted fold makes (== its probe buffers) and that frames in
# flight under one matrix hold (== their tile weights plus that one
# matrix). --lib
# carries the allocator's full-sort oracle and comparison counter (they
# need the private allocator), the crate-private BSR ring against the
# VecDeque pipeline it replaced, the truncation-for-floor and -ceil identities
# over their edges, lte::cell's walk-everyone oracle (exact
# against the parking cell on noiseless channels, same law on noisy ones),
# its period-1 sounding oracle (bit-exact against the digest of the
# per-subframe walk it replaced, same law at the shipping period) and
# lte::grid's single-pass observe oracle, bit-compared with the two-rate
# map on its 40 ms sampling ticks and on the held subframes between them
# through both the per-UE and the batched measurement, plus the batched
# measurement against the per-UE one and the oracle's scan on tied rows;
# cell_prop carries the 500-UE byte pin, the share of it parking skips
# and the channel samples the walk that remains takes. The last one
# holds the ingest cursor's short-decimal values exact against
# str::parse, bit for bit.
# fault_prefix pins (==) the session subframes protocol::run_traced steps
# for the fault suites, counted by the grouping it runs: each group of
# fault cases with one session config shares its pre-fault prefix. It
# pins the probe records run_traced formats beside the record lines it
# writes: each prefix's records are formatted once and spliced into every
# member's stream (tests/faults.rs pins the same for study faults
# --smoke in Tier-1).
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
