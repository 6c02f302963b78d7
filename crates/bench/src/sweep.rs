//! Deterministic parallel experiment sweeps.
//!
//! The paper's evaluation is a matrix study — carriers × routes ×
//! architectures × predictors × seeds. This module turns such a matrix into
//! an ordered job list and executes it on a pool of scoped worker threads
//! (`std::thread::scope`), with three guarantees:
//!
//! 1. **Determinism.** Every job runs with a seed derived only from its
//!    coordinates, results are merged in job-index order, and the JSON
//!    report contains sim-time data only — so `--threads 1` and
//!    `--threads N` produce byte-identical reports (wall-clock timings are
//!    an explicitly opt-in section).
//! 2. **Once-per-scenario simulation.** Jobs that share a scenario share
//!    its [`Trace`] through a [`TraceCache`]: the drive is simulated once
//!    and replayed for every predictor.
//! 3. **Machine-readable output.** [`SweepResult::to_json`] emits the
//!    `BENCH_sweep.json` schema documented in `EXPERIMENTS.md`, hand-rolled
//!    over `std` like the telemetry JSONL sink, so report bytes are fully
//!    under our control.

use crate::driver::{self, window_preds_to_episodes};
use crate::features::{gbc_dataset, lstm_sequences};
use fiveg_analysis::ClassMetrics;
use fiveg_baselines::{Gbc, GbcConfig, LstmConfig, StackedLstm};
use fiveg_ran::{Arch, Carrier};
use fiveg_sim::{FaultConfig, Scenario, ScenarioBuilder, Trace, TraceCache};
use fiveg_telemetry::{JsonBuf, Telemetry, TelemetryConfig};
use prognos::PrognosConfig;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Spec: the scenario matrix
// ---------------------------------------------------------------------------

/// Route family of a sweep scenario. Routes also pin the deployment
/// environment, and with it which bands are present (dense-urban routes
/// see mmWave where the carrier deploys it; freeway legs are low/mid-band).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouteKind {
    /// Downtown driving loop (urban, low/mid-band).
    CityLoop,
    /// Dense-core driving loop (mmWave present).
    CityLoopDense,
    /// Interstate freeway leg of the given length, km.
    Freeway(f64),
    /// Walking loop of the given duration, minutes (dense urban).
    WalkingLoop(f64),
}

impl RouteKind {
    /// Stable label used in job output ("freeway_6km", "city_loop", ...).
    pub fn label(&self) -> String {
        match self {
            RouteKind::CityLoop => "city_loop".into(),
            RouteKind::CityLoopDense => "city_loop_dense".into(),
            RouteKind::Freeway(km) => format!("freeway_{km}km"),
            RouteKind::WalkingLoop(min) => format!("walking_{min}min"),
        }
    }

    fn builder(&self, carrier: Carrier, arch: Arch, seed: u64) -> ScenarioBuilder {
        match *self {
            RouteKind::CityLoop => ScenarioBuilder::city_loop(carrier, seed).arch(arch),
            RouteKind::CityLoopDense => ScenarioBuilder::city_loop_dense(carrier, seed).arch(arch),
            RouteKind::Freeway(km) => ScenarioBuilder::freeway(carrier, arch, km, seed),
            RouteKind::WalkingLoop(min) => ScenarioBuilder::walking_loop(carrier, min, 1, seed).arch(arch),
        }
    }
}

/// Predictor under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepPredictor {
    /// The paper's online system (evaluated over the whole trace).
    Prognos,
    /// Gradient-boosted classifier baseline (60/40 chronological split).
    Gbc,
    /// Stacked-LSTM baseline (60/40 chronological split).
    Lstm,
}

impl SweepPredictor {
    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            SweepPredictor::Prognos => "prognos",
            SweepPredictor::Gbc => "gbc",
            SweepPredictor::Lstm => "lstm",
        }
    }
}

/// A scenario matrix plus evaluation parameters. [`SweepSpec::jobs`]
/// enumerates the cartesian product into an ordered job list.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name (lands in the report).
    pub name: String,
    /// Route axis.
    pub routes: Vec<RouteKind>,
    /// Carrier axis.
    pub carriers: Vec<Carrier>,
    /// Architecture axis.
    pub archs: Vec<Arch>,
    /// Fault-injection axis.
    pub faults: Vec<FaultConfig>,
    /// Scenario-seed axis.
    pub seeds: Vec<u64>,
    /// Predictor axis (replays per generated trace).
    pub predictors: Vec<SweepPredictor>,
    /// Simulated-time cap per scenario, s.
    pub duration_s: f64,
    /// Sampling rate, Hz.
    pub sample_hz: f64,
    /// Tolerance (windows) for the tolerant metrics.
    pub tol_windows: usize,
    /// Training epochs for the LSTM baseline jobs.
    pub lstm_epochs: usize,
}

/// One cell of the scenario sub-matrix (everything except the predictor).
#[derive(Debug, Clone, Copy)]
pub struct ScenarioCell {
    /// Route family.
    pub route: RouteKind,
    /// Carrier under test.
    pub carrier: Carrier,
    /// Service architecture.
    pub arch: Arch,
    /// Fault injection.
    pub faults: FaultConfig,
    /// Scenario seed.
    pub seed: u64,
}

/// One executable unit: a (scenario, predictor) pair.
#[derive(Debug, Clone, Copy)]
pub struct SweepJob {
    /// Position in the ordered job list (results merge in this order).
    pub index: usize,
    /// Index into the scenario list / trace cache.
    pub scenario_id: usize,
    /// Scenario coordinates.
    pub cell: ScenarioCell,
    /// Predictor to evaluate.
    pub predictor: SweepPredictor,
    /// Per-job RNG seed, derived only from the job's coordinates.
    pub rng_seed: u64,
}

/// SplitMix64 — derives decorrelated per-job seeds from coordinates.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SweepSpec {
    /// The CI-sized sweep: 2 scenarios × 2 predictors, a few seconds of
    /// wall clock. Small enough for the determinism gate to run it twice.
    pub fn smoke() -> SweepSpec {
        SweepSpec {
            name: "smoke".into(),
            routes: vec![RouteKind::Freeway(3.0)],
            carriers: vec![Carrier::OpX],
            archs: vec![Arch::Nsa, Arch::Sa],
            faults: vec![FaultConfig::NONE],
            seeds: vec![11],
            predictors: vec![SweepPredictor::Prognos, SweepPredictor::Gbc],
            duration_s: 150.0,
            sample_hz: 10.0,
            tol_windows: 2,
            lstm_epochs: 6,
        }
    }

    /// The demo matrix: 2 routes × 3 carriers × 2 archs × 2 fault configs,
    /// all three predictors — 24 scenarios, 72 jobs.
    pub fn demo() -> SweepSpec {
        SweepSpec {
            name: "demo".into(),
            routes: vec![RouteKind::Freeway(6.0), RouteKind::CityLoopDense],
            carriers: vec![Carrier::OpX, Carrier::OpY, Carrier::OpZ],
            archs: vec![Arch::Nsa, Arch::Sa],
            faults: vec![FaultConfig::NONE, FaultConfig { mr_loss_prob: 0.02, ho_failure_prob: 0.01 }],
            seeds: vec![1],
            predictors: vec![SweepPredictor::Prognos, SweepPredictor::Gbc, SweepPredictor::Lstm],
            duration_s: 240.0,
            sample_hz: 10.0,
            tol_windows: 2,
            lstm_epochs: 8,
        }
    }

    /// Validates the matrix (non-empty axes, positive rates, legal faults).
    pub fn validate(&self) -> Result<(), String> {
        if self.routes.is_empty()
            || self.carriers.is_empty()
            || self.archs.is_empty()
            || self.faults.is_empty()
            || self.seeds.is_empty()
            || self.predictors.is_empty()
        {
            return Err("every matrix axis needs at least one entry".into());
        }
        // written so that NaN fails too
        if ![self.duration_s, self.sample_hz].iter().all(|&x| x > 0.0) {
            return Err("duration_s and sample_hz must be positive".into());
        }
        for f in &self.faults {
            f.validate()?;
        }
        Ok(())
    }

    /// The scenario sub-matrix in enumeration order (route-major, then
    /// carrier, arch, faults, seed). `scenario_id` is the position here.
    pub fn cells(&self) -> Vec<ScenarioCell> {
        let mut out = Vec::new();
        for &route in &self.routes {
            for &carrier in &self.carriers {
                for &arch in &self.archs {
                    for &faults in &self.faults {
                        for &seed in &self.seeds {
                            out.push(ScenarioCell { route, carrier, arch, faults, seed });
                        }
                    }
                }
            }
        }
        out
    }

    /// Builds the concrete [`Scenario`] for one cell.
    pub fn scenario(&self, cell: &ScenarioCell) -> Scenario {
        cell.route
            .builder(cell.carrier, cell.arch, cell.seed)
            .duration_s(self.duration_s)
            .sample_hz(self.sample_hz)
            .faults(cell.faults)
            .build()
    }

    /// The ordered job list. Predictor is the *outermost* axis so the
    /// first `n_scenarios` jobs touch distinct scenarios — workers fill
    /// the trace cache in parallel instead of serializing on one slot.
    pub fn jobs(&self) -> Vec<SweepJob> {
        let cells = self.cells();
        let mut out = Vec::with_capacity(cells.len() * self.predictors.len());
        for (p_i, &predictor) in self.predictors.iter().enumerate() {
            for (scenario_id, &cell) in cells.iter().enumerate() {
                let rng_seed = splitmix64(cell.seed ^ splitmix64(scenario_id as u64 ^ ((p_i as u64) << 32)));
                out.push(SweepJob { index: out.len(), scenario_id, cell, predictor, rng_seed });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------------

/// Default worker count: one per available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Executes `f(0)..f(n-1)` on `threads` scoped workers and
/// returns the results **in index order**, regardless of thread count or
/// scheduling. Workers pull indices from a shared atomic counter, so the
/// assignment of jobs to threads is racy — but because each `f(i)` depends
/// only on `i` and the merge slots results by index, the output is
/// identical to the serial `(0..n).map(f)`.
pub fn run_ordered<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    // a panicking worker re-raises its panic when the scope joins it
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                results.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(r);
            });
        }
    });
    let results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    results.into_iter().map(|o| o.expect("every job completed")).collect()
}

/// Runs a batch of scenarios on the pool and returns their traces in
/// input order. The shared backbone of the figure benches and datasets.
pub fn parallel_traces(scenarios: &[Scenario], threads: usize) -> Vec<Trace> {
    run_ordered(scenarios.len(), threads, |i| scenarios[i].run())
}

// ---------------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------------

/// Lead-time summary over a job's correctly-anticipated HOs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LeadStats {
    /// HOs with a usable lead time.
    pub n: usize,
    /// Mean lead, ms.
    pub mean_ms: f64,
    /// Median lead, ms.
    pub median_ms: f64,
}

impl LeadStats {
    fn from_leads(leads: &[(bool, f64)]) -> LeadStats {
        if leads.is_empty() {
            return LeadStats::default();
        }
        let ms: Vec<f64> = leads.iter().map(|&(_, l)| l * 1000.0).collect();
        LeadStats { n: ms.len(), mean_ms: fiveg_analysis::mean(&ms), median_ms: fiveg_analysis::median(&ms) }
    }
}

/// The deterministic outcome of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job (coordinates included).
    pub job: SweepJob,
    /// Deployment environment the route pinned.
    pub env: fiveg_ran::Environment,
    /// Evaluation windows scored.
    pub windows: usize,
    /// Ground-truth HOs in the scenario.
    pub handovers: usize,
    /// Strict window-aligned metrics.
    pub strict: ClassMetrics,
    /// Tolerance-matched metrics (`spec.tol_windows`).
    pub tolerant: ClassMetrics,
    /// Event-matched metrics (2 s lookback, 0.3 s slack).
    pub event: ClassMetrics,
    /// Lead-time stats (Prognos jobs only; empty for offline baselines).
    pub lead: LeadStats,
    /// Deterministic telemetry counters of the replay (predictor-side).
    pub counters: Vec<(String, u64)>,
}

fn run_job(spec: &SweepSpec, job: &SweepJob, scenarios: &[Scenario], cache: &TraceCache) -> JobResult {
    let (trace, _sim_counters) = cache.get_or_run_counted(job.scenario_id, &scenarios[job.scenario_id]);
    let env = scenarios[job.scenario_id].env;
    match job.predictor {
        SweepPredictor::Prognos => run_prognos_job(spec, job, &trace, env),
        SweepPredictor::Gbc => run_gbc_job(spec, job, &trace, env),
        SweepPredictor::Lstm => run_lstm_job(spec, job, &trace, env),
    }
}

fn run_prognos_job(spec: &SweepSpec, job: &SweepJob, trace: &Trace, env: fiveg_ran::Environment) -> JobResult {
    let tele = Telemetry::new(TelemetryConfig::deterministic());
    let (run, _) = driver::run_prognos_instrumented(trace, PrognosConfig::default(), &tele);
    JobResult {
        job: *job,
        env,
        windows: run.windows.len(),
        handovers: trace.handovers.len(),
        strict: run.metrics(),
        tolerant: run.metrics_tolerant(spec.tol_windows),
        event: run.metrics_events(2.0, 0.3),
        lead: LeadStats::from_leads(&run.lead_times),
        counters: tele.counters(),
    }
}

/// Shared scoring for the offline window classifiers: strict, tolerant and
/// event-matched metrics over the held-out 40% of windows.
fn score_windows(
    spec: &SweepSpec,
    job: &SweepJob,
    trace: &Trace,
    env: fiveg_ran::Environment,
    labels: &[usize],
    preds: &[usize],
) -> JobResult {
    let window_s = 1.0;
    let enc = |v: &[usize]| -> Vec<u8> { v.iter().map(|&x| x as u8).collect() };
    let strict = ClassMetrics::from_labels(&enc(labels), &enc(preds), 0u8);
    let series: Vec<_> = labels.iter().zip(preds).map(|(&t, &p)| (driver::to_ho(t), driver::to_ho(p))).collect();
    let tolerant = driver::metrics_tolerant_from(&series, spec.tol_windows);
    let (eps, evs) = window_preds_to_episodes(labels, preds, window_s);
    let event = driver::metrics_events_from(&eps, &evs, 2.0, 0.3, labels.len());
    JobResult {
        job: *job,
        env,
        windows: labels.len(),
        handovers: trace.handovers.len(),
        strict,
        tolerant,
        event,
        lead: LeadStats::default(),
        counters: Vec::new(),
    }
}

fn run_gbc_job(spec: &SweepSpec, job: &SweepJob, trace: &Trace, env: fiveg_ran::Environment) -> JobResult {
    let data = gbc_dataset(&[trace], 1.0);
    let (mut train, mut test) = data.split(0.6);
    if train.is_empty() || test.is_empty() {
        return score_windows(spec, job, trace, env, &[], &[]);
    }
    let norm = train.norm_params();
    train.normalize(&norm);
    test.normalize(&norm);
    let gbc = Gbc::train(&train, &GbcConfig::default());
    let preds: Vec<usize> = test.features.iter().map(|x| gbc.predict(x)).collect();
    score_windows(spec, job, trace, env, &test.labels, &preds)
}

fn run_lstm_job(spec: &SweepSpec, job: &SweepJob, trace: &Trace, env: fiveg_ran::Environment) -> JobResult {
    let (xs, ys) = lstm_sequences(&[trace], 1.0);
    let cut = xs.len() * 6 / 10;
    if cut == 0 || cut == xs.len() {
        return score_windows(spec, job, trace, env, &[], &[]);
    }
    let cfg = LstmConfig { epochs: spec.lstm_epochs, seed: job.rng_seed, ..Default::default() };
    let net = StackedLstm::train(&xs[..cut], &ys[..cut], &cfg);
    let preds: Vec<usize> = xs[cut..].iter().map(|x| net.predict(x)).collect();
    score_windows(spec, job, trace, env, &ys[cut..], &preds)
}

// ---------------------------------------------------------------------------
// The sweep itself
// ---------------------------------------------------------------------------

/// Wall-clock accounting of one sweep execution. Everything here is
/// nondeterministic by nature and therefore excluded from the default
/// report (opt in with `include_timing`).
#[derive(Debug, Clone)]
pub struct SweepTiming {
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time, ms.
    pub total_ms: f64,
    /// Per-job wall time, ms (job-index order). The job that generates a
    /// scenario's trace pays the simulation cost for every sharer.
    pub job_ms: Vec<f64>,
}

/// Per-predictor aggregate over all of a sweep's jobs.
#[derive(Debug, Clone)]
pub struct PredictorRollup {
    /// Predictor label.
    pub predictor: SweepPredictor,
    /// Jobs aggregated.
    pub jobs: usize,
    /// Mean strict F1.
    pub mean_f1: f64,
    /// Mean tolerant F1.
    pub mean_tolerant_f1: f64,
    /// Mean event-matched F1.
    pub mean_event_f1: f64,
    /// Mean lead over jobs that produced one, ms.
    pub mean_lead_ms: f64,
}

/// A completed sweep: per-job results (job-index order) plus roll-ups.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The matrix that was run.
    pub spec: SweepSpec,
    /// Scenario count (trace cache size).
    pub scenarios: usize,
    /// Per-job outcomes in job-index order.
    pub jobs: Vec<JobResult>,
    /// Sim-side telemetry counters rolled up across scenarios (each
    /// scenario counted once, regardless of how many jobs replayed it).
    pub sim_counters: Vec<(String, u64)>,
    /// Predictor-side counters rolled up across jobs.
    pub predictor_counters: Vec<(String, u64)>,
    /// Per-predictor aggregates.
    pub rollups: Vec<PredictorRollup>,
    /// Wall-clock accounting for this execution.
    pub timing: SweepTiming,
}

/// Runs the sweep on `threads` workers. The returned result is identical
/// (modulo [`SweepResult::timing`]) for every `threads >= 1`.
pub fn run(spec: &SweepSpec, threads: usize) -> SweepResult {
    spec.validate().expect("invalid sweep spec");
    let cells = spec.cells();
    let scenarios: Vec<Scenario> = cells.iter().map(|c| spec.scenario(c)).collect();
    let jobs = spec.jobs();
    let cache = TraceCache::new(scenarios.len());

    let t0 = Instant::now();
    let outcomes: Vec<(JobResult, f64)> = run_ordered(jobs.len(), threads, |i| {
        let jt = Instant::now();
        let r = run_job(spec, &jobs[i], &scenarios, &cache);
        (r, jt.elapsed().as_secs_f64() * 1000.0)
    });
    let total_ms = t0.elapsed().as_secs_f64() * 1000.0;

    let mut results = Vec::with_capacity(outcomes.len());
    let mut job_ms = Vec::with_capacity(outcomes.len());
    for (r, ms) in outcomes {
        results.push(r);
        job_ms.push(ms);
    }

    // scenario-side roll-up: every slot was generated by some job; fold
    // counters in scenario order so the merge is deterministic
    let mut sim_counters: BTreeMap<String, u64> = BTreeMap::new();
    for (id, s) in scenarios.iter().enumerate() {
        for (name, v) in cache.get_or_run_counted(id, s).1 {
            *sim_counters.entry(name).or_default() += v;
        }
    }
    let mut predictor_counters: BTreeMap<String, u64> = BTreeMap::new();
    for r in &results {
        for (name, v) in &r.counters {
            *predictor_counters.entry(name.clone()).or_default() += v;
        }
    }

    let rollups = spec
        .predictors
        .iter()
        .map(|&p| {
            let rs: Vec<&JobResult> = results.iter().filter(|r| r.job.predictor == p).collect();
            let mean_of = |f: &dyn Fn(&JobResult) -> f64| {
                if rs.is_empty() {
                    0.0
                } else {
                    rs.iter().map(|r| f(r)).sum::<f64>() / rs.len() as f64
                }
            };
            let with_lead: Vec<f64> = rs.iter().filter(|r| r.lead.n > 0).map(|r| r.lead.mean_ms).collect();
            PredictorRollup {
                predictor: p,
                jobs: rs.len(),
                mean_f1: mean_of(&|r| r.strict.f1),
                mean_tolerant_f1: mean_of(&|r| r.tolerant.f1),
                mean_event_f1: mean_of(&|r| r.event.f1),
                mean_lead_ms: if with_lead.is_empty() { 0.0 } else { fiveg_analysis::mean(&with_lead) },
            }
        })
        .collect();

    SweepResult {
        spec: spec.clone(),
        scenarios: scenarios.len(),
        jobs: results,
        sim_counters: sim_counters.into_iter().collect(),
        predictor_counters: predictor_counters.into_iter().collect(),
        rollups,
        timing: SweepTiming { threads: threads.max(1), total_ms, job_ms },
    }
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

fn arch_label(a: Arch) -> &'static str {
    match a {
        Arch::Lte => "LTE",
        Arch::Nsa => "NSA",
        Arch::Sa => "SA",
    }
}

fn write_metrics(j: &mut JsonBuf, m: &ClassMetrics) {
    j.open('{');
    j.key("precision");
    j.num(m.precision);
    j.key("recall");
    j.num(m.recall);
    j.key("f1");
    j.num(m.f1);
    j.key("accuracy");
    j.num(m.accuracy);
    j.close('}');
}

fn write_counters(j: &mut JsonBuf, counters: &[(String, u64)]) {
    j.open('{');
    for (name, v) in counters {
        j.key(name);
        j.uint(*v);
    }
    j.close('}');
}

impl SweepResult {
    /// Serializes the report. With `include_timing` the wall-clock section
    /// is appended; without it the bytes depend only on the spec — this is
    /// the form the CI determinism gate diffs across thread counts.
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut j = JsonBuf::new();
        j.open('{');
        j.key("schema");
        j.str_val("fiveg-sweep/v1");
        j.key("name");
        j.str_val(&self.spec.name);

        j.key("matrix");
        j.open('{');
        j.key("routes");
        j.open('[');
        for r in &self.spec.routes {
            j.str_val(&r.label());
        }
        j.close(']');
        j.key("carriers");
        j.open('[');
        for c in &self.spec.carriers {
            j.str_val(&format!("{c:?}"));
        }
        j.close(']');
        j.key("archs");
        j.open('[');
        for a in &self.spec.archs {
            j.str_val(arch_label(*a));
        }
        j.close(']');
        j.key("faults");
        j.open('[');
        for f in &self.spec.faults {
            j.open('{');
            j.key("mr_loss_prob");
            j.num(f.mr_loss_prob);
            j.key("ho_failure_prob");
            j.num(f.ho_failure_prob);
            j.close('}');
        }
        j.close(']');
        j.key("seeds");
        j.open('[');
        for s in &self.spec.seeds {
            j.uint(*s);
        }
        j.close(']');
        j.key("predictors");
        j.open('[');
        for p in &self.spec.predictors {
            j.str_val(p.label());
        }
        j.close(']');
        j.key("duration_s");
        j.num(self.spec.duration_s);
        j.key("sample_hz");
        j.num(self.spec.sample_hz);
        j.key("tol_windows");
        j.uint(self.spec.tol_windows as u64);
        j.key("lstm_epochs");
        j.uint(self.spec.lstm_epochs as u64);
        j.close('}');

        j.key("scenarios");
        j.uint(self.scenarios as u64);

        j.key("jobs");
        j.open('[');
        for r in &self.jobs {
            j.open('{');
            j.key("job");
            j.uint(r.job.index as u64);
            j.key("scenario");
            j.uint(r.job.scenario_id as u64);
            j.key("route");
            j.str_val(&r.job.cell.route.label());
            j.key("carrier");
            j.str_val(&format!("{:?}", r.job.cell.carrier));
            j.key("arch");
            j.str_val(arch_label(r.job.cell.arch));
            j.key("env");
            j.str_val(&format!("{:?}", r.env));
            j.key("mr_loss_prob");
            j.num(r.job.cell.faults.mr_loss_prob);
            j.key("ho_failure_prob");
            j.num(r.job.cell.faults.ho_failure_prob);
            j.key("seed");
            j.uint(r.job.cell.seed);
            j.key("rng_seed");
            j.uint(r.job.rng_seed);
            j.key("predictor");
            j.str_val(r.job.predictor.label());
            j.key("windows");
            j.uint(r.windows as u64);
            j.key("handovers");
            j.uint(r.handovers as u64);
            j.key("strict");
            write_metrics(&mut j, &r.strict);
            j.key("tolerant");
            write_metrics(&mut j, &r.tolerant);
            j.key("event");
            write_metrics(&mut j, &r.event);
            j.key("lead_ms");
            j.open('{');
            j.key("n");
            j.uint(r.lead.n as u64);
            j.key("mean");
            j.num(r.lead.mean_ms);
            j.key("median");
            j.num(r.lead.median_ms);
            j.close('}');
            j.key("counters");
            write_counters(&mut j, &r.counters);
            j.close('}');
        }
        j.close(']');

        j.key("rollup");
        j.open('{');
        j.key("per_predictor");
        j.open('[');
        for r in &self.rollups {
            j.open('{');
            j.key("predictor");
            j.str_val(r.predictor.label());
            j.key("jobs");
            j.uint(r.jobs as u64);
            j.key("mean_f1");
            j.num(r.mean_f1);
            j.key("mean_tolerant_f1");
            j.num(r.mean_tolerant_f1);
            j.key("mean_event_f1");
            j.num(r.mean_event_f1);
            j.key("mean_lead_ms");
            j.num(r.mean_lead_ms);
            j.close('}');
        }
        j.close(']');
        j.key("sim_counters");
        write_counters(&mut j, &self.sim_counters);
        j.key("predictor_counters");
        write_counters(&mut j, &self.predictor_counters);
        j.close('}');

        if include_timing {
            j.key("timing");
            j.open('{');
            j.key("threads");
            j.uint(self.timing.threads as u64);
            j.key("total_ms");
            j.num(self.timing.total_ms);
            j.key("job_ms");
            j.open('[');
            for &ms in &self.timing.job_ms {
                j.num(ms);
            }
            j.close(']');
            j.close('}');
        }

        j.close('}');
        j.finish_line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable() {
        // pinned values: job seeds must never drift between releases
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn spec_enumeration_is_cartesian_and_ordered() {
        let spec = SweepSpec { seeds: vec![1, 2], ..SweepSpec::smoke() };
        let cells = spec.cells();
        // smoke: one carrier, one route, two archs, one fault config; two seeds
        assert_eq!(cells.len(), 2 * 2);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), cells.len() * spec.predictors.len());
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.index, i);
        }
        // predictor-major: first block covers every scenario once
        assert!(jobs[..cells.len()].iter().all(|job| job.predictor == spec.predictors[0]));
        let mut ids: Vec<usize> = jobs[..cells.len()].iter().map(|j| j.scenario_id).collect();
        ids.dedup();
        assert_eq!(ids.len(), cells.len());
    }

    #[test]
    fn validate_rejects_empty_axes_and_bad_faults() {
        let mut spec = SweepSpec::smoke();
        spec.predictors.clear();
        assert!(spec.validate().is_err());
        let mut spec = SweepSpec::smoke();
        spec.faults = vec![FaultConfig { mr_loss_prob: 1.5, ho_failure_prob: 0.0 }];
        assert!(spec.validate().is_err());
        assert!(SweepSpec::smoke().validate().is_ok());
        assert!(SweepSpec::demo().validate().is_ok());
    }

    #[test]
    fn run_ordered_matches_serial_map() {
        for threads in [1usize, 2, 3, 8] {
            let got = run_ordered(25, threads, |i| i * i + 1);
            let want: Vec<usize> = (0..25).map(|i| i * i + 1).collect();
            assert_eq!(got, want, "threads={threads}");
        }
        assert!(run_ordered(0, 4, |i| i).is_empty());
    }

    // Journal ordering must survive the ordered merge: each job records its
    // own event journal, and concatenating the per-job journals in index
    // order yields the same bytes on any worker count — with every entry's
    // sequence number strictly increasing within its job.
    #[test]
    fn job_journals_survive_the_ordered_merge() {
        let journals = |threads: usize| -> String {
            run_ordered(4, threads, |i| {
                let tele = Telemetry::new(TelemetryConfig::deterministic());
                let s = ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 3.0, 100 + i as u64)
                    .duration_s(60.0)
                    .sample_hz(5.0)
                    .build();
                s.run_instrumented(&tele);
                let entries = tele.events();
                assert!(!entries.is_empty(), "job {i} journaled nothing");
                for w in entries.windows(2) {
                    assert!(w[0].seq < w[1].seq, "job {i}: seq {} !< {}", w[0].seq, w[1].seq);
                }
                tele.journal_jsonl()
            })
            .concat()
        };
        let serial = journals(1);
        assert_eq!(serial, journals(4), "merged journals must not depend on thread count");
        assert_eq!(serial, journals(3), "merged journals must not depend on thread count");
    }

    #[test]
    fn smoke_sweep_is_thread_count_invariant() {
        let spec = SweepSpec { duration_s: 40.0, sample_hz: 5.0, ..SweepSpec::smoke() };
        let a = run(&spec, 1).to_json(false);
        let b = run(&spec, 4).to_json(false);
        assert_eq!(a, b, "sweep report must not depend on thread count");
        assert!(a.contains("\"schema\":\"fiveg-sweep/v1\""));
    }

    proptest::proptest! {
        // The merge invariant behind the whole harness: for any job list
        // and any worker count, pool output equals the serial map. Jobs
        // burn a tiny data-dependent amount of work so scheduling actually
        // interleaves differently across runs.
        #[test]
        fn run_ordered_is_worker_count_independent(
            items in proptest::collection::vec(0u64..1000, 0..64),
            threads in 1usize..9,
        ) {
            let f = |i: usize| {
                let mut acc = items[i];
                for _ in 0..(items[i] % 17) {
                    acc = splitmix64(acc);
                }
                (i, acc)
            };
            let serial: Vec<(usize, u64)> = (0..items.len()).map(f).collect();
            let pooled = run_ordered(items.len(), threads, f);
            proptest::prop_assert_eq!(serial, pooled);
        }
    }

    #[test]
    fn timing_section_is_opt_in() {
        let spec = SweepSpec {
            routes: vec![RouteKind::Freeway(2.0)],
            archs: vec![Arch::Nsa],
            predictors: vec![SweepPredictor::Gbc],
            duration_s: 30.0,
            sample_hz: 5.0,
            ..SweepSpec::smoke()
        };
        let r = run(&spec, 2);
        assert!(!r.to_json(false).contains("\"timing\""));
        assert!(r.to_json(true).contains("\"timing\""));
        assert_eq!(r.timing.job_ms.len(), r.jobs.len());
        assert_eq!(r.scenarios, 1);
    }
}
