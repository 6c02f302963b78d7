//! Fleet-throughput benchmark: UE·ticks/sec versus fleet size, reporting
//! how close the per-UE cost of the sharded, load-coupled fleet engine
//! stays to the single-UE hot path — and, with `--event-driven`, how much
//! the calendar-wheel scheduler recovers by skipping quiescent UEs.
//!
//! Every size runs the same pinned base scenario (city loop, OpY, SA, seed
//! 201) through [`fiveg_sim::fleet`] with the default heterogeneity
//! narrowed to a 10 s stagger window. The city/SA point is deliberately
//! sleep-eligible (idle workload, RSRP-only events) so the event-driven
//! mode has quiescence to harvest; an NSA fleet would never sleep (its B1
//! trigger is SINR-quantity, see `fiveg_sim::wakeup`). Simulated duration
//! is pinned **per size** (60 s up to 10k UEs, 30 s at 100k, 10 s at 1M
//! and beyond) so the big sizes stay runnable while per-size numbers remain
//! comparable across commits and between `--smoke` and full mode — full
//! mode simply adds the 100k point. Summaries stream (no per-UE traces are
//! retained), `ue_ticks` comes from the deterministic per-UE tick counts in
//! the [`FleetTrace`], and `bench.allocs` from a counting global allocator.
//! The report is written as `BENCH_fleet.json` (schema `fiveg-fleet/v3`).
//!
//! ```text
//! fleet_bench [--smoke] [--threads N] [--shards N] [--sizes CSV]
//!             [--event-driven] [--verify-shards] [--tele-summary PATH]
//!             [--out PATH]
//! ```
//!
//! `--event-driven` times every size twice — fixed-step, then
//! [`EngineMode::EventDriven`] — and records per size the skipped work
//! (`skipped_ue_ticks`, `skip_ratio`), the wheel's wakeup histogram, and
//! `event_speedup` (fixed elapsed / event elapsed, both measured in the
//! same process so runner speed cancels). The two runs must agree on
//! `ue_ticks` exactly — a divergence fails the job before any gating.
//!
//! The gating CI perf job runs `gate BENCH_fleet.json REPORT` on the fresh
//! report (see `fiveg_bench::perfgate`). It pairs rows by their `n_ues`
//! value, never by array position, and gates each size's
//! **machine-independent** metrics: `ue_ticks` and `skip_ratio` as bands
//! (both deterministic for the pinned scenario; skip-ratio drift in either
//! direction means the wakeup planner changed), `allocs_per_ue_tick`
//! lower-is-better and `event_speedup` higher-is-better. The job pins
//! `--threads 1` to match the committed baseline's thread count. UE·ticks/sec
//! is printed as an advisory comparison only: the baseline's wall clock came
//! from a different machine than the CI runner's. Sizes absent from the
//! baseline are skipped so a new size never fails the job that introduces
//! it, but if *no* measured size matches, the gate fails — a reformatted
//! baseline must not silently disable it.
//!
//! `--verify-shards` is the other machine-independent gate, now three
//! checks deep: (1) one migration-heavy fleet run with 1 shard and with 4
//! must produce identical output, traces included; (2) the same fleet run
//! in [`EngineMode::Referee`] (the referee: sleeping UEs still step,
//! unsampled) and [`EngineMode::EventDriven`] (sleeping UEs skipped) must
//! produce byte-identical [`FleetTrace`]s across different shard counts —
//! with a non-vacuity check that sleep actually happened; (3) the plain
//! fixed-step run must agree with the event-driven run on every per-UE
//! control-plane field and the load summary. Any divergence exits nonzero
//! before the timing runs start.

use fiveg_ran::{Arch, Carrier};
use fiveg_sim::{
    run_fleet_exec_instrumented, EngineMode, FleetExec, FleetSpec, FleetTrace, Scenario, ScenarioBuilder, Telemetry,
    TelemetryConfig,
};
use fiveg_telemetry::JsonBuf;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The report schema this binary writes.
const SCHEMA: &str = "fiveg-fleet/v3";

/// Heap-allocation counter: wraps the system allocator and counts every
/// `alloc`/`realloc` (same proxy as `tick_bench`).
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
    threads: usize,
    shards: usize,
    sizes: Option<Vec<u32>>,
    event: bool,
    verify_shards: bool,
    tele_summary: Option<String>,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        threads: 0,
        shards: 0,
        sizes: None,
        event: false,
        verify_shards: false,
        tele_summary: None,
        out: "BENCH_fleet.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v.parse::<usize>().map_err(|_| format!("bad --threads value: {v}"))?;
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                args.shards = v.parse::<usize>().map_err(|_| format!("bad --shards value: {v}"))?;
            }
            "--sizes" => {
                let v = it.next().ok_or("--sizes needs a comma-separated list")?;
                let parsed: Result<Vec<u32>, _> = v.split(',').map(|s| s.trim().parse::<u32>()).collect();
                let sizes = parsed.map_err(|_| format!("bad --sizes value: {v}"))?;
                if sizes.is_empty() || sizes.contains(&0) {
                    return Err("--sizes needs at least one nonzero fleet size".into());
                }
                args.sizes = Some(sizes);
            }
            "--event-driven" => args.event = true,
            "--verify-shards" => args.verify_shards = true,
            "--tele-summary" => args.tele_summary = Some(it.next().ok_or("--tele-summary needs a value")?),
            "--out" => args.out = it.next().ok_or("--out needs a value")?,
            "--help" | "-h" => {
                println!(
                    "usage: fleet_bench [--smoke] [--threads N] [--shards N] [--sizes CSV] [--event-driven] \
                     [--verify-shards] [--tele-summary PATH] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.threads == 0 {
        args.threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    }
    Ok(args)
}

/// Fleet sizes per mode. Per-size parameters (duration included) are pinned
/// by size alone, so a smoke run can be gated against a committed full-mode
/// baseline and an explicit `--sizes` run stays comparable to both.
fn sizes(smoke: bool) -> &'static [u32] {
    if smoke {
        &[1, 10, 100, 1000, 10_000]
    } else {
        &[1, 10, 100, 1000, 10_000, 100_000]
    }
}

/// Pinned simulated duration for a fleet size: long enough to dominate
/// setup cost, short enough that the big sizes finish. Pinned per size (not
/// per mode) so every run of a given size executes the same work.
fn duration_s(n_ues: u32) -> f64 {
    if n_ues <= 10_000 {
        60.0
    } else if n_ues <= 100_000 {
        30.0
    } else {
        10.0
    }
}

/// The pinned base scenario every fleet size derives from (see
/// EXPERIMENTS.md, "Fleet benchmark"). City loop + SA keeps the fleet
/// sleep-eligible so the event-driven mode is actually exercised.
fn base_scenario(duration: f64) -> Scenario {
    ScenarioBuilder::city_loop(Carrier::OpY, 201).arch(Arch::Sa).duration_s(duration).sample_hz(10.0).build()
}

fn spec(n_ues: u32) -> FleetSpec {
    FleetSpec::new(base_scenario(duration_s(n_ues)), n_ues).stagger_s(10.0).speed_jitter(0.1)
}

/// The event-driven half of a size's measurements. All fields except the
/// two elapsed-derived ones are deterministic for the pinned scenario.
struct EventResult {
    elapsed_s: f64,
    ue_ticks_per_sec: f64,
    /// fixed elapsed / event elapsed, same process, same machine.
    speedup: f64,
    skipped_ue_ticks: u64,
    /// `skipped_ue_ticks / ue_ticks` — the fraction of the fixed-step work
    /// the scheduler proved inert and never executed.
    skip_ratio: f64,
    sleeps: u64,
    load_wakes: u64,
    wake_hist: [u64; 4],
}

struct SizeResult {
    n_ues: u32,
    duration_s: f64,
    ticks: u64,
    ue_ticks: u64,
    elapsed_s: f64,
    ue_ticks_per_sec: f64,
    allocs_per_ue_tick: f64,
    peak_cell_ues: u32,
    contended_ue_ticks: u64,
    migrations: u64,
    event: Option<EventResult>,
}

fn bench_size(n_ues: u32, exec: FleetExec, event: bool, sink: Option<&Telemetry>) -> Result<SizeResult, String> {
    // journal-less deterministic telemetry: cheap enough to leave on in the
    // timed region, and it carries the fleet.migrations diagnostic
    let tele = Telemetry::new(TelemetryConfig { enabled: true, journal_capacity: 0, timing: false });
    let before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    let ft: FleetTrace = run_fleet_exec_instrumented(&spec(n_ues), exec, &tele);
    let elapsed_s = start.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    if let Some(s) = sink {
        s.absorb(&tele);
    }

    // deterministic work count, straight from the trace (equals the
    // absorbed sim.ticks counter; independent of threads and shards)
    let ue_ticks: u64 = ft.ues.iter().map(|u| u.ticks).sum();

    let event = if event {
        let start = Instant::now();
        let ev: FleetTrace =
            run_fleet_exec_instrumented(&spec(n_ues), exec.engine(EngineMode::EventDriven), &Telemetry::disabled());
        let ev_elapsed = start.elapsed().as_secs_f64();
        let ev_ue_ticks: u64 = ev.ues.iter().map(|u| u.ticks).sum();
        if ev_ue_ticks != ue_ticks {
            return Err(format!(
                "event-driven run diverged at {n_ues} UEs: {ev_ue_ticks} UE·ticks vs fixed {ue_ticks}"
            ));
        }
        let sched = ev.sched.ok_or_else(|| format!("event-driven run at {n_ues} UEs returned no SchedSummary"))?;
        Some(EventResult {
            elapsed_s: ev_elapsed,
            ue_ticks_per_sec: ue_ticks as f64 / ev_elapsed,
            speedup: elapsed_s / ev_elapsed,
            skipped_ue_ticks: sched.skipped_ue_ticks,
            skip_ratio: sched.skipped_ue_ticks as f64 / ue_ticks as f64,
            sleeps: sched.sleeps,
            load_wakes: sched.load_wakes,
            wake_hist: sched.wake_hist,
        })
    } else {
        None
    };

    Ok(SizeResult {
        n_ues,
        duration_s: duration_s(n_ues),
        ticks: ft.meta.ticks,
        ue_ticks,
        elapsed_s,
        ue_ticks_per_sec: ue_ticks as f64 / elapsed_s,
        allocs_per_ue_tick: allocs as f64 / ue_ticks as f64,
        peak_cell_ues: ft.load.peak_cell_ues,
        contended_ue_ticks: ft.load.contended_ue_ticks,
        migrations: tele.counter_value("fleet.migrations"),
        event,
    })
}

/// The machine-independent equivalence gates: shard invariance of the fixed
/// path, byte-identity of referee vs event-driven scheduling, and
/// control-plane agreement of fixed vs event-driven. Returns false (and
/// prints why) on any divergence.
fn verify_shards(threads: usize) -> bool {
    let spec = FleetSpec::new(base_scenario(20.0), 64).stagger_s(10.0).speed_jitter(0.1);

    // 1. fixed path, 1 vs 4 shards, traces retained
    let kept = spec.clone().keep_traces(true);
    let one = fiveg_sim::run_fleet_exec(&kept, FleetExec::threads(threads).shards(1));
    let four = fiveg_sim::run_fleet_exec(&kept, FleetExec::threads(threads).shards(4));
    if one != four {
        eprintln!("fleet_bench: FleetTrace differs between 1 and 4 shards — boundary exchange broke determinism");
        return false;
    }
    println!("  shard invariance: 1 shard == 4 shards over {} UEs ({} ticks)  ok", 64, one.meta.ticks);

    // 2. referee vs event-driven: byte-identical across shard counts. The
    //    referee steps sleeping UEs with full control plane, so equality
    //    proves every granted sleep window really was inert.
    let referee = fiveg_sim::run_fleet_exec(&spec, FleetExec::threads(threads).shards(1).engine(EngineMode::Referee));
    let event = fiveg_sim::run_fleet_exec(&spec, FleetExec::threads(threads).shards(4).engine(EngineMode::EventDriven));
    if referee != event {
        eprintln!("fleet_bench: event-driven FleetTrace differs from the Referee mode — unsound wakeup bound");
        return false;
    }
    let Some(sched) = &event.sched else {
        eprintln!("fleet_bench: event-driven run carried no SchedSummary");
        return false;
    };
    if sched.sleeps == 0 || sched.skipped_ue_ticks == 0 {
        eprintln!("fleet_bench: verification fleet never slept — the mode-equivalence check is vacuous");
        return false;
    }
    println!(
        "  mode identity: referee == event-driven ({} sleeps, {} skipped UE·ticks)  ok",
        sched.sleeps, sched.skipped_ue_ticks
    );

    // 3. fixed vs event-driven: the control plane and the load summary must
    //    agree; only the data-plane sampling aggregates (mean_capacity and
    //    friends) may differ, because sleeping UEs do not sample.
    let fixed = fiveg_sim::run_fleet_exec(&spec, FleetExec::threads(threads).shards(4));
    if fixed.meta != event.meta || fixed.load != event.load {
        eprintln!("fleet_bench: fixed vs event-driven meta/load summary diverged");
        return false;
    }
    for (f, e) in fixed.ues.iter().zip(event.ues.iter()) {
        let control = |u: &fiveg_sim::UeSummary| {
            (
                u.ue,
                u.seed,
                u.start_tick,
                u.reversed,
                u.ticks,
                u.traveled_m,
                u.handovers,
                u.ho_failures,
                u.rlf_count,
                u.reports,
            )
        };
        if control(f) != control(e) {
            eprintln!("fleet_bench: fixed vs event-driven control plane diverged for UE {}", f.ue);
            return false;
        }
    }
    println!("  control identity: fixed == event-driven over {} UEs  ok", fixed.ues.len());
    true
}

fn report(mode: &str, threads: usize, shards: usize, results: &[SizeResult]) -> String {
    let base = base_scenario(duration_s(1));
    let mut j = JsonBuf::new();
    j.open('{');
    j.key("schema");
    j.str_val(SCHEMA);
    j.key("mode");
    j.str_val(mode);
    j.key("threads");
    j.uint(threads as u64);
    j.key("shards");
    j.uint(shards as u64);
    j.key("base");
    j.open('{');
    j.key("seed");
    j.uint(base.seed);
    j.key("sample_hz");
    j.num(base.sample_hz);
    j.key("stagger_s");
    j.num(10.0);
    j.key("speed_jitter");
    j.num(0.1);
    j.close('}');
    j.key("sizes");
    j.open('[');
    for r in results {
        j.open('{');
        j.key("n_ues");
        j.uint(u64::from(r.n_ues));
        j.key("duration_s");
        j.num(r.duration_s);
        j.key("ticks");
        j.uint(r.ticks);
        j.key("ue_ticks");
        j.uint(r.ue_ticks);
        j.key("elapsed_s");
        j.num(r.elapsed_s);
        j.key("ue_ticks_per_sec");
        j.num(r.ue_ticks_per_sec);
        j.key("allocs_per_ue_tick");
        j.num(r.allocs_per_ue_tick);
        j.key("peak_cell_ues");
        j.uint(u64::from(r.peak_cell_ues));
        j.key("contended_ue_ticks");
        j.uint(r.contended_ue_ticks);
        j.key("migrations");
        j.uint(r.migrations);
        if let Some(ev) = &r.event {
            j.key("event_elapsed_s");
            j.num(ev.elapsed_s);
            j.key("event_ue_ticks_per_sec");
            j.num(ev.ue_ticks_per_sec);
            j.key("event_speedup");
            j.num(ev.speedup);
            j.key("skipped_ue_ticks");
            j.uint(ev.skipped_ue_ticks);
            j.key("skip_ratio");
            j.num(ev.skip_ratio);
            j.key("sleeps");
            j.uint(ev.sleeps);
            j.key("load_wakes");
            j.uint(ev.load_wakes);
            j.key("wake_hist");
            j.open('[');
            for &b in &ev.wake_hist {
                j.uint(b);
            }
            j.close(']');
        }
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
            eprintln!("fleet_bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mode = if args.smoke { "smoke" } else { "full" };
    let set: Vec<u32> = args.sizes.clone().unwrap_or_else(|| sizes(args.smoke).to_vec());
    let exec = FleetExec::threads(args.threads).shards(args.shards);
    let shards_shown = if args.shards == 0 { args.threads } else { args.shards };
    println!(
        "fleet bench '{}': sizes {:?}, {} thread(s), {} shard(s){}",
        mode,
        set,
        args.threads,
        shards_shown,
        if args.event { ", + event-driven" } else { "" }
    );

    if args.verify_shards && !verify_shards(args.threads) {
        return ExitCode::FAILURE;
    }

    // the cross-size telemetry sink behind --tele-summary
    let sink = args.tele_summary.as_ref().map(|_| Telemetry::new(TelemetryConfig::deterministic()));

    // warmup (untimed): page in code and let the allocator settle
    run_fleet_exec_instrumented(&spec(1), exec, &Telemetry::disabled());

    let mut results = Vec::new();
    for &n in &set {
        let r = match bench_size(n, exec, args.event, sink.as_ref()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("fleet_bench: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "  {:>7} UEs  {:>10} UE·ticks in {:>7.2} s  -> {:>9.0} UE·ticks/s, {:>6.2} allocs/UE·tick, peak cell {:>5}, {:>6} migrations",
            r.n_ues, r.ue_ticks, r.elapsed_s, r.ue_ticks_per_sec, r.allocs_per_ue_tick, r.peak_cell_ues, r.migrations
        );
        if let Some(ev) = &r.event {
            println!(
                "          event-driven: {:>7.2} s  -> {:>9.0} UE·ticks/s ({:.2}x), skip ratio {:.3} ({} sleeps, {} load wakes)",
                ev.elapsed_s, ev.ue_ticks_per_sec, ev.speedup, ev.skip_ratio, ev.sleeps, ev.load_wakes
            );
        }
        results.push(r);
    }

    let json = report(mode, args.threads, shards_shown, &results);
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("fleet_bench: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("  report -> {}", args.out);

    if let (Some(path), Some(s)) = (&args.tele_summary, &sink) {
        if let Err(e) = std::fs::write(path, s.summary()) {
            eprintln!("fleet_bench: writing telemetry summary {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  telemetry summary -> {path}");
    }

    ExitCode::SUCCESS
}
