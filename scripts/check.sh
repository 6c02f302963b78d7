#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests, dep audit, smoke sweep.
# Run before pushing.
#
#   scripts/check.sh            # everything
#   scripts/check.sh fmt        # just the formatting check
#   scripts/check.sh clippy     # just the lints
#   scripts/check.sh test       # just the tests
#   scripts/check.sh deps       # fails on any dependency from outside the repository
#   scripts/check.sh smoke      # sweep determinism gate (1 vs 4 threads)
#   scripts/check.sh fuzz       # oracle self-test + corpus replay + 200-case fuzz
#   scripts/check.sh vivisect   # ho_vivisect smoke (span/counter reconciliation, 1 vs 4 threads)
#   scripts/check.sh fleet      # fleet_bench smoke (1 thread/1 shard vs 4 x 4, fixed vs event-driven)
#   scripts/check.sh perf       # gating perf: tick_bench + fleet_bench reports, `gate` vs BENCH_*.json (±15%)
#   scripts/check.sh speedup    # demo sweep speedup (1 vs 4 threads, >= 2x)
#   scripts/check.sh serve      # serve smoke: UDS server + serve_load replay, `gate` vs BENCH_serve.json
#   scripts/check.sh doc        # cargo doc --no-deps with warnings as errors
#
# The workspace has no dependencies outside the repository, so every step
# runs offline.
set -euo pipefail

cd "$(dirname "$0")/.."

step="${1:-all}"

run_fmt() {
    echo "== cargo fmt --check"
    cargo fmt --all -- --check
}

run_clippy() {
    echo "== cargo clippy (warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings
}

run_test() {
    echo "== cargo test"
    cargo test -q --workspace
}

# Keeps the workspace at zero external dependencies, so a fresh checkout
# builds and tests with no registry: every entry of every dependency table
# must be a path dependency or inherit one from [workspace.dependencies].
run_deps() {
    echo "== dependency guard (path dependencies only)"
    local bad
    bad="$(awk '
        /^\[/ { deps = /dependencies(\.[^]]*)?\]$/; next }
        deps && /^[A-Za-z0-9_-]/ && !/path *=/ && !/workspace *= *true/ { print FILENAME ": " $0 }
    ' Cargo.toml crates/*/Cargo.toml)"
    if [ -n "$bad" ]; then
        echo "$bad" >&2
        echo "dependency guard failed: use a path dependency inside the repository" >&2
        return 1
    fi
    echo "  every dependency is a path dependency"
}

# The sweep harness's headline guarantee, checked end to end: the smoke
# report must be byte-identical no matter how many workers produced it.
run_smoke() {
    echo "== sweep smoke determinism (1 thread vs 4 threads)"
    cargo build -q --release -p fiveg-bench --bin sweep_demo
    local bin=target/release/sweep_demo
    local t1 t4
    t1="$(mktemp)" && t4="$(mktemp)"
    trap 'rm -f "$t1" "$t4"' RETURN
    "$bin" --smoke --threads 1 --out "$t1"
    "$bin" --smoke --threads 4 --out "$t4"
    if ! cmp -s "$t1" "$t4"; then
        echo "smoke sweep output differs across thread counts:" >&2
        diff "$t1" "$t4" >&2 || true
        return 1
    fi
    echo "  reports are byte-identical"
}

# The fuzz smoke gate: the oracle's mutation self-test, the committed
# repro corpus, and a bounded fixed-seed campaign (200 cases through both
# engines under the invariant oracle), byte-compared across thread counts.
run_fuzz() {
    echo "== scenario fuzz gate (self-test, corpus, 200 cases, 1 vs 4 threads)"
    cargo build -q --release -p fiveg-bench --bin scenario_fuzz
    local bin=target/release/scenario_fuzz
    local t1 t4
    t1="$(mktemp)" && t4="$(mktemp)"
    trap 'rm -f "$t1" "$t4"' RETURN
    "$bin" --cases 200 --seed 1 --threads 1 --out "$t1"
    "$bin" --cases 200 --seed 1 --threads 4 --no-selftest --out "$t4"
    if ! cmp -s "$t1" "$t4"; then
        echo "fuzz report differs across thread counts:" >&2
        diff "$t1" "$t4" >&2 || true
        return 1
    fi
    echo "  reports are byte-identical"
}

# The vivisection gate: assemble causal HO spans across the pinned smoke
# matrix, reconcile them exactly against the engine's telemetry counters,
# byte-compare the report across thread counts, and exercise the
# flight-recorder crash path with a forced oracle violation. CI uploads
# BENCH_vivisect.json and the dumps as artifacts.
run_vivisect() {
    echo "== vivisect gate (span reconciliation, 1 vs 4 threads, forced violation)"
    cargo build -q --release -p fiveg-bench --bin ho_vivisect
    local bin=target/release/ho_vivisect
    local t4 dumps
    t4="$(mktemp)" && dumps="$(mktemp -d)"
    trap 'rm -f "$t4"; rm -rf "$dumps"' RETURN
    "$bin" --smoke --threads 1 --out BENCH_vivisect.json --dump-dir vivisect_dumps --force-violation
    "$bin" --smoke --threads 4 --out "$t4" --dump-dir "$dumps"
    if ! cmp -s BENCH_vivisect.json "$t4"; then
        echo "vivisect report differs across thread counts:" >&2
        diff BENCH_vivisect.json "$t4" >&2 || true
        return 1
    fi
    grep -q '"schema":"fiveg-flightrec/v1"' vivisect_dumps/forced_oracle_violation.jsonl || {
        echo "forced violation did not produce a fiveg-flightrec/v1 dump" >&2
        return 1
    }
    echo "  reports are byte-identical; flight-recorder dump carries the span timeline"
}

# The fleet determinism smoke: the deterministic fields of fleet_bench's
# report (ticks, UE·ticks, peak cell load, contended UE·ticks) must not
# depend on the worker count, the shard count or the stepping mode.
# --sizes caps the sweep at 1k UEs: smoke's 10k point takes minutes on a
# single-core box and adds no determinism coverage the 1k point lacks.
# The two fixed-step runs vary BOTH the worker count and the shard count,
# so the comparison proves thread- and shard-invariance at once;
# --verify-shards on the first run additionally byte-compares a full
# FleetTrace (samples and all) at 1 vs 4 shards. The event-driven run
# makes bench_size itself fail if its ue_ticks diverge from the fixed run's.
run_fleet() {
    echo "== fleet smoke (1 thread/1 shard vs 4 threads/4 shards, fixed vs event-driven)"
    cargo build -q --release -p fiveg-bench --bin fleet_bench
    local bin=target/release/fleet_bench dir
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' RETURN
    "$bin" --smoke --sizes 1,10,100,1000 --threads 1 --shards 1 --verify-shards --out "$dir/t1.json"
    "$bin" --smoke --sizes 1,10,100,1000 --threads 4 --shards 4 --out "$dir/t4.json"
    "$bin" --smoke --sizes 1,10,100,1000 --threads 1 --shards 1 --event-driven --out "$dir/ev.json"
    grep -q '"schema":"fiveg-fleet/v3"' "$dir/t1.json" || {
        echo "fleet_bench report missing fiveg-fleet/v3 schema" >&2
        return 1
    }
    grep -q '"skipped_ue_ticks":' "$dir/ev.json" || {
        echo "event-driven fleet report missing skip metrics" >&2
        return 1
    }
    # wall-clock fields differ run to run (and migrations is shard-relative
    # bookkeeping); the workload-deterministic ones must not
    local det='"ue_ticks":[0-9]*\|"ticks":[0-9]*\|"peak_cell_ues":[0-9]*\|"contended_ue_ticks":[0-9]*'
    local det1 det4 detev
    det1=$(grep -o "$det" "$dir/t1.json")
    det4=$(grep -o "$det" "$dir/t4.json")
    detev=$(grep -o "$det" "$dir/ev.json")
    if [ "$det1" != "$det4" ]; then
        echo "fleet deterministic fields differ across thread/shard counts:" >&2
        diff <(echo "$det1") <(echo "$det4") >&2 || true
        return 1
    fi
    if [ "$det1" != "$detev" ]; then
        echo "fleet deterministic fields differ between fixed and event-driven stepping:" >&2
        diff <(echo "$det1") <(echo "$detev") >&2 || true
        return 1
    fi
    echo "  deterministic fields identical across thread/shard counts and stepping modes"
}

# Gating perf job: rerun both benchmarks and compare each fresh report
# against its committed BENCH_*.json baseline with `gate` (±15% tolerance;
# rules per report schema in fiveg_bench::perfgate), which exits nonzero on
# a regression and also on a report or baseline that does not parse. Only
# machine-independent metrics are gated (work counts, allocs per tick, the
# same-run snapshot-vs-reference speedup ratio): the baselines' absolute
# ticks/s were recorded on the development machine, and shared CI runners
# drift more than any sane tolerance, so raw throughput is printed as an
# advisory comparison, never a failure.
# tick_bench runs the full scenario set because the committed baseline is
# full-mode (smoke's smaller scenario has different work counts); its v2
# des section first proves each des scenario's event-driven fleet of one
# control-plane-equal to the stepped fleet of one, then enforces the machine-independent
# skip_ratio >= 0.5 floor outright; `gate` bands logical tick counts and
# skip_ratio against the baseline (UE·ticks/s stays advisory).
# fleet_bench runs --smoke, whose per-size parameters match the full
# baseline's up to the 10k-UE point (full adds only 100k), and pins
# --threads 1 --shards 16 to match the committed baseline's geometry (a
# multi-worker barrier pool on a 2-core runner has genuinely different
# per-UE·tick costs, and the shard count shifts cache locality — 16
# shards is where the 10k-UE point peaks on one thread). `gate` pairs
# baseline rows by their n_ues value, so a reordered
# or extended baseline can never gate against the wrong row.
# --verify-shards adds the other machine-independent gates: the same fleet
# run with 1 and 4 shards must produce identical FleetTraces, and the
# event-driven scheduler must be byte-identical to its EngineMode::Referee
# referee (plus control-plane-identical to the plain fixed path) before
# any timing starts. --event-driven then times every size in both
# fixed-step and event-driven modes: skip_ratio gates as a band (it is a
# deterministic work count for the pinned scenario) and event_speedup as
# higher-is-better (a same-run ratio, so runner speed cancels). CI uploads
# BENCH_tick_ci.json / BENCH_fleet_ci.json as artifacts.
run_perf() {
    echo "== perf gate (tick_bench + fleet_bench vs committed baselines, tol 15%)"
    cargo build -q --release -p fiveg-bench --bin tick_bench --bin fleet_bench --bin gate
    # one command per line: `set -e` ignores a failure on the left of `&&`
    target/release/tick_bench --out BENCH_tick_ci.json
    target/release/gate BENCH_tick.json BENCH_tick_ci.json
    target/release/fleet_bench --smoke --threads 1 --shards 16 --verify-shards --event-driven \
        --out BENCH_fleet_ci.json
    target/release/gate BENCH_fleet.json BENCH_fleet_ci.json
    echo "  both reports parse; no gated metric regressed beyond tolerance"
}

# The serving gate, end to end on the real binaries: a `serve` server on a
# Unix socket, `serve_load` replaying the pinned fleet workload against it
# at 8-session fan-out. Every wire PROGNOSIS is compared field-by-field
# against an offline Prognos replay of the same frames (serve_load exits 2
# on any divergence), and `gate` compares the machine-independent report
# fields — session and frame counts, prediction counts, the FNV-1a-64
# equivalence digest — against the committed BENCH_serve.json, failing
# also on a report that does not parse. Latency percentiles and
# predictions/s are advisory only: the baseline's wall clock came from a
# different machine. CI uploads BENCH_serve_ci.json as an artifact.
run_serve() {
    echo "== serve gate (UDS server + serve_load replay vs committed baseline, tol 15%)"
    cargo build -q --release -p fiveg-serve --bin serve --bin serve_load -p fiveg-bench --bin gate
    local dir srv
    dir="$(mktemp -d)"
    target/release/serve --uds "$dir/serve.sock" --workers 2 --duration-s 300 \
        >"$dir/serve.log" 2>&1 &
    srv=$!
    # shellcheck disable=SC2064 — expand $srv/$dir now, at trap-set time
    trap "kill $srv 2>/dev/null || true; rm -rf '$dir'" RETURN
    local i=0
    while [ ! -S "$dir/serve.sock" ]; do
        i=$((i + 1))
        [ "$i" -lt 100 ] || { echo "serve did not create its socket" >&2; cat "$dir/serve.log" >&2; return 1; }
        sleep 0.1
    done
    target/release/serve_load --uds "$dir/serve.sock" --sessions 8 --out BENCH_serve_ci.json
    kill "$srv" 2>/dev/null || true
    wait "$srv" 2>/dev/null || true
    target/release/gate BENCH_serve.json BENCH_serve_ci.json
    echo "  wire predictions match offline Prognos; no gated metric regressed"
}

# The sweep pool must pay for its threads: the full demo sweep at 4 workers
# must finish in at most half the 1-worker time, with byte-identical
# reports. Skipped on single-core machines.
run_speedup() {
    echo "== demo sweep speedup (1 thread vs 4 threads)"
    cargo build -q --release -p fiveg-bench --bin sweep_demo
    local bin=target/release/sweep_demo cores dir t0 t1 serial_ms parallel_ms
    cores=$(nproc 2>/dev/null || echo 1)
    if [ "$cores" -lt 2 ]; then
        echo "  SKIP: only $cores core(s) available — speedup needs a multi-core machine"
        return 0
    fi
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' RETURN
    t0=$(date +%s%N)
    "$bin" --threads 1 --out "$dir/t1.json" >/dev/null
    t1=$(date +%s%N)
    serial_ms=$(((t1 - t0) / 1000000))
    t0=$(date +%s%N)
    "$bin" --threads 4 --out "$dir/t4.json" >/dev/null
    t1=$(date +%s%N)
    parallel_ms=$(((t1 - t0) / 1000000))
    echo "  serial ${serial_ms} ms, 4 threads ${parallel_ms} ms"
    cmp -s "$dir/t1.json" "$dir/t4.json" || { echo "demo reports differ" >&2; return 1; }
    if [ $((parallel_ms * 2)) -gt "$serial_ms" ]; then
        echo "  <2x speedup at 4 threads" >&2
        return 1
    fi
    echo "  speedup >= 2x"
}

# The doc gate: rustdoc warnings (broken intra-doc links above all) are
# errors, matching what docs.rs would surface.
run_doc() {
    echo "== cargo doc --no-deps (warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}

case "$step" in
    all)
        run_fmt
        run_clippy
        run_test
        run_deps
        run_smoke
        ;;
    fmt) run_fmt ;;
    clippy) run_clippy ;;
    test) run_test ;;
    deps) run_deps ;;
    smoke) run_smoke ;;
    fuzz) run_fuzz ;;
    vivisect) run_vivisect ;;
    fleet) run_fleet ;;
    perf) run_perf ;;
    speedup) run_speedup ;;
    serve) run_serve ;;
    doc) run_doc ;;
    *)
        echo "usage: scripts/check.sh [all|fmt|clippy|test|deps|smoke|fuzz|vivisect|fleet|perf|speedup|serve|doc]" >&2
        exit 2
        ;;
esac

echo "OK"
