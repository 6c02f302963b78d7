//! Tick-throughput microbenchmark: snapshot engine vs the retained naive
//! reference path, reporting ticks/sec and an allocations-per-tick proxy.
//!
//! Both paths run the same fixed-seed scenario set through
//! [`fiveg_sim::engine`]; the snapshot path is the production engine
//! ([`Scenario::run`]), the reference path re-scans the deployment from
//! every consumer ([`fiveg_sim::run_reference`]) the way the pre-snapshot
//! engine did. Traces are checked equal (`PartialEq`) on the first
//! iteration, so a reported speedup is never bought with a behavior change.
//! Throughput counters flow through `fiveg-telemetry` (`sim.ticks` from the
//! instrumented runs, `bench.allocs` from a counting global allocator), and
//! the report is written as `BENCH_tick.json` (schema `fiveg-tick/v2`).
//!
//! The v2 `des` section benchmarks the event-driven engine on a fleet of
//! one ([`fiveg_sim::run_fleet_exec`] with [`EngineMode::EventDriven`]) on
//! sleep-eligible SA scenarios: UE·ticks simulated per wall-second (skipped
//! ticks count — they are simulated in closed form, not dropped) and the
//! fraction of ticks fast-forwarded (`skip_ratio`). Before timing, every des
//! scenario is checked against the same fleet of one in
//! [`EngineMode::Stepped`]: identical control-plane summary and identical
//! logical tick count, so the skip ratio is never bought with less work.
//! `skip_ratio` is exact and machine-independent; the run fails outright if
//! it drops below [`SKIP_FLOOR`] on any des scenario.
//!
//! ```text
//! tick_bench [--smoke] [--iters N] [--out PATH]
//! ```
//!
//! Wall-clock numbers are machine-dependent by nature; the committed
//! `BENCH_tick.json` records the before/after trajectory on the development
//! machine. The gating CI perf job runs `gate BENCH_tick.json REPORT` on the
//! fresh report, which gates the **machine-independent** metrics — the
//! snapshot path's tick count (band), its allocs/tick (lower is better), the
//! snapshot-vs-reference speedup ratio (higher is better) and each des
//! scenario's logical ticks and skip ratio (bands) — and prints absolute
//! ticks/sec as an advisory comparison only, because the baseline's wall
//! clock came from a different machine than the CI runner's (see
//! `fiveg_bench::perfgate`).

use fiveg_ran::{Arch, Carrier};
use fiveg_sim::{
    engine, run_fleet_exec, EngineMode, FleetExec, FleetSpec, FleetTrace, Scenario, ScenarioBuilder, Telemetry,
    TelemetryConfig, UeSummary,
};
use fiveg_telemetry::JsonBuf;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Heap-allocation counter: wraps the system allocator and counts every
/// `alloc`/`realloc`. Coarse by design — it is a proxy for hot-loop churn,
/// not a profiler — but it is exact and deterministic for a fixed workload.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    smoke: bool,
    iters: usize,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { smoke: false, iters: 3, out: "BENCH_tick.json".into() };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--iters" => {
                let v = it.next().ok_or("--iters needs a value")?;
                args.iters = v.parse::<usize>().map_err(|_| format!("bad --iters value: {v}"))?;
                if args.iters == 0 {
                    return Err("--iters must be >= 1".into());
                }
            }
            "--out" => args.out = it.next().ok_or("--out needs a value")?,
            "--help" | "-h" => {
                println!("usage: tick_bench [--smoke] [--iters N] [--out PATH]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// The fixed-seed scenario set. Seeds and shapes are pinned so numbers are
/// comparable across commits (see EXPERIMENTS.md, "Tick benchmark").
fn scenarios(smoke: bool) -> Vec<(&'static str, Scenario)> {
    if smoke {
        return vec![(
            "freeway-nsa-2km",
            ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 2.0, 101).duration_s(60.0).sample_hz(10.0).build(),
        )];
    }
    vec![
        (
            "freeway-nsa-6km",
            ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, 101).duration_s(200.0).sample_hz(10.0).build(),
        ),
        (
            "freeway-sa-6km",
            ScenarioBuilder::freeway(Carrier::OpX, Arch::Sa, 6.0, 102).duration_s(200.0).sample_hz(10.0).build(),
        ),
        (
            "city-dense-nsa",
            ScenarioBuilder::city_loop_dense(Carrier::OpX, 103).duration_s(200.0).sample_hz(10.0).build(),
        ),
        (
            "freeway-lte-6km",
            ScenarioBuilder::freeway(Carrier::OpZ, Arch::Lte, 6.0, 104).duration_s(200.0).sample_hz(10.0).build(),
        ),
    ]
}

/// Machine-independent floor on the des skip ratio: at least half of all
/// city-loop ticks must be fast-forwarded, or the event-driven engine has
/// quietly stopped earning its keep.
const SKIP_FLOOR: f64 = 0.5;

/// The des scenario set: sleep-eligible SA routes (NSA carries a
/// SINR-quantity B1 config, so it never sleeps and would only measure the
/// stepped path twice).
fn des_scenarios(smoke: bool) -> Vec<(&'static str, Scenario)> {
    let secs = if smoke { 60.0 } else { 200.0 };
    vec![
        (
            "city-sa",
            ScenarioBuilder::city_loop(Carrier::OpY, 105).arch(Arch::Sa).duration_s(secs).sample_hz(10.0).build(),
        ),
        (
            "walking-sa",
            ScenarioBuilder::walking_loop(Carrier::OpY, 8.0, 4, 106)
                .arch(Arch::Sa)
                .duration_s(secs)
                .sample_hz(10.0)
                .build(),
        ),
    ]
}

struct PathResult {
    label: &'static str,
    ticks: u64,
    elapsed_s: f64,
    ticks_per_sec: f64,
    allocs_per_tick: f64,
}

struct DesResult {
    label: &'static str,
    /// Logical ticks simulated per iteration (skipped ticks included).
    ticks: u64,
    /// Ticks fast-forwarded in closed form per iteration.
    skipped_ticks: u64,
    /// Sleep windows granted per iteration.
    sleeps: u64,
    /// `skipped_ticks / ticks` — exact and machine-independent.
    skip_ratio: f64,
    elapsed_s: f64,
    /// Logical UE·ticks simulated per wall-second over the timed passes.
    ue_ticks_per_sec: f64,
}

/// Runs `s` as a single-threaded fleet of one under `engine`.
fn fleet_of_one(s: &Scenario, engine: EngineMode) -> FleetTrace {
    run_fleet_exec(&FleetSpec::new(s.clone(), 1), FleetExec::threads(1).engine(engine))
}

/// The engine-invariant fields of a UE summary: tick count and control
/// plane. Only the data-plane sampling aggregates may differ between the
/// stepped and the event-driven engine.
fn control(u: &UeSummary) -> (u64, f64, u64, u64, u64, u64) {
    (u.ticks, u.traveled_m, u.handovers, u.ho_failures, u.rlf_count, u.reports)
}

/// Times an event-driven fleet of one over one scenario (untimed warmup,
/// then `iters` passes). The returned work counts are per-iteration, the
/// throughput is aggregated over all timed passes.
fn bench_des(label: &'static str, s: &Scenario, iters: usize) -> DesResult {
    fleet_of_one(s, EngineMode::EventDriven);
    let start = Instant::now();
    let mut last = fleet_of_one(s, EngineMode::EventDriven);
    for _ in 1..iters {
        last = fleet_of_one(s, EngineMode::EventDriven);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let ticks = last.ues[0].ticks;
    let sched = last.sched.expect("scheduled modes record a SchedSummary");
    DesResult {
        label,
        ticks,
        skipped_ticks: sched.skipped_ue_ticks,
        sleeps: sched.sleeps,
        skip_ratio: if ticks == 0 { 0.0 } else { sched.skipped_ue_ticks as f64 / ticks as f64 },
        elapsed_s,
        ue_ticks_per_sec: (ticks * iters as u64) as f64 / elapsed_s,
    }
}

/// Runs every scenario through one engine path `iters` times (after one
/// untimed warmup pass) and aggregates throughput over the timed passes.
fn bench_path(label: &'static str, set: &[(&'static str, Scenario)], iters: usize, reference: bool) -> PathResult {
    let run_one = |s: &Scenario, tele: &Telemetry| {
        if reference {
            engine::run_reference(s, tele, None)
        } else {
            s.run_instrumented(tele)
        }
    };

    // warmup (untimed): page in code and let the allocator settle
    let tele = Telemetry::new(TelemetryConfig::on());
    for (_, s) in set {
        run_one(s, &tele);
    }

    let tele = Telemetry::new(TelemetryConfig::on());
    let allocs = tele.counter("bench.allocs");
    let before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    for _ in 0..iters {
        for (_, s) in set {
            run_one(s, &tele);
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    allocs.add(ALLOCS.load(Ordering::Relaxed) - before);

    let ticks = tele.counter_value("sim.ticks");
    PathResult {
        label,
        ticks,
        elapsed_s,
        ticks_per_sec: ticks as f64 / elapsed_s,
        allocs_per_tick: tele.counter_value("bench.allocs") as f64 / ticks as f64,
    }
}

fn report(
    mode: &str,
    iters: usize,
    set: &[(&'static str, Scenario)],
    paths: &[PathResult],
    speedup: f64,
    des: &[DesResult],
) -> String {
    let mut j = JsonBuf::new();
    j.open('{');
    j.key("schema");
    j.str_val("fiveg-tick/v2");
    j.key("mode");
    j.str_val(mode);
    j.key("iters");
    j.uint(iters as u64);
    j.key("scenarios");
    j.open('[');
    for (label, s) in set {
        j.open('{');
        j.key("label");
        j.str_val(label);
        j.key("seed");
        j.uint(s.seed);
        j.key("duration_s");
        j.num(s.max_duration_s);
        j.key("sample_hz");
        j.num(s.sample_hz);
        j.close('}');
    }
    j.close(']');
    j.key("paths");
    j.open('[');
    for p in paths {
        j.open('{');
        j.key("path");
        j.str_val(p.label);
        j.key("ticks");
        j.uint(p.ticks);
        j.key("elapsed_s");
        j.num(p.elapsed_s);
        j.key("ticks_per_sec");
        j.num(p.ticks_per_sec);
        j.key("allocs_per_tick");
        j.num(p.allocs_per_tick);
        j.close('}');
    }
    j.close(']');
    j.key("speedup");
    j.num(speedup);
    j.key("des_skip_floor");
    j.num(SKIP_FLOOR);
    j.key("des");
    j.open('[');
    for d in des {
        j.open('{');
        j.key("des");
        j.str_val(d.label);
        j.key("ticks");
        j.uint(d.ticks);
        j.key("skipped_ticks");
        j.uint(d.skipped_ticks);
        j.key("sleeps");
        j.uint(d.sleeps);
        j.key("skip_ratio");
        j.num(d.skip_ratio);
        j.key("elapsed_s");
        j.num(d.elapsed_s);
        j.key("ue_ticks_per_sec");
        j.num(d.ue_ticks_per_sec);
        j.close('}');
    }
    j.close(']');
    j.close('}');
    j.finish_line()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tick_bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let set = scenarios(args.smoke);
    let mode = if args.smoke { "smoke" } else { "full" };
    println!("tick bench '{}': {} scenario(s), {} iter(s) per path", mode, set.len(), args.iters);

    // the speedup claim is only meaningful if both paths do the same work
    for (label, s) in &set {
        if engine::run_reference(s, &Telemetry::disabled(), None) != s.run() {
            eprintln!("tick_bench: reference and snapshot traces diverge on {label}");
            return ExitCode::FAILURE;
        }
    }

    // same bar for the des section: identical control plane and identical
    // logical tick count, or the skip ratio measures a different workload
    let des_set = des_scenarios(args.smoke);
    for (label, s) in &des_set {
        let des = fleet_of_one(s, EngineMode::EventDriven);
        let stepped = fleet_of_one(s, EngineMode::Stepped);
        let (des, stepped) = (&des.ues[0], &stepped.ues[0]);
        if control(des) != control(stepped) {
            eprintln!("tick_bench: des and stepped summaries diverge on {label}: {des:?} vs {stepped:?}");
            return ExitCode::FAILURE;
        }
    }

    let reference = bench_path("reference", &set, args.iters, true);
    let snapshot = bench_path("snapshot", &set, args.iters, false);
    let speedup = snapshot.ticks_per_sec / reference.ticks_per_sec;

    for p in [&reference, &snapshot] {
        println!(
            "  {:<10} {:>8} ticks in {:>6.2} s  -> {:>8.0} ticks/s, {:>7.1} allocs/tick",
            p.label, p.ticks, p.elapsed_s, p.ticks_per_sec, p.allocs_per_tick
        );
    }
    println!("  speedup {speedup:.2}x (snapshot over reference)");

    let mut des_results = Vec::new();
    for (label, s) in &des_set {
        let d = bench_des(label, s, args.iters);
        println!(
            "  des {:<12} {:>6} ticks ({} slept in {} windows, skip {:.3})  -> {:>9.0} UE·ticks/s",
            d.label, d.ticks, d.skipped_ticks, d.sleeps, d.skip_ratio, d.ue_ticks_per_sec
        );
        if d.skip_ratio < SKIP_FLOOR {
            eprintln!("tick_bench: skip_ratio {:.3} on {} fell below the {SKIP_FLOOR} floor", d.skip_ratio, d.label);
            return ExitCode::FAILURE;
        }
        des_results.push(d);
    }

    let json = report(mode, args.iters, &set, &[reference, snapshot], speedup, &des_results);
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("tick_bench: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("  report -> {}", args.out);

    ExitCode::SUCCESS
}
