//! `serve_load` — trace-replay load generator for the `serve` binary.
//!
//! Replays the pinned fleet workload against a running server over TCP or
//! UDS at a configurable session fan-out: each session opens one
//! connection, streams the canonical frame sequence of one fleet-recorded
//! trace, and runs the PREDICT/PROGNOSIS exchange closed-loop, timing each
//! round trip. Every wire reply is compared — field by field — against an
//! offline [`fiveg_serve::replay_offline`] run of the *same* frames, and
//! the FNV-1a-64 prediction-equivalence digest over both reply streams is
//! reported, so "the server answers exactly what offline Prognos would"
//! is a single gated string.
//!
//! ```text
//! serve_load --uds /tmp/fiveg.sock --sessions 8 --out BENCH_serve_ci.json
//! gate BENCH_serve.json BENCH_serve_ci.json
//! ```
//!
//! The report (schema `fiveg-serve/v1`) separates machine-independent
//! `gated` fields (counts, mismatches, the digest) from machine-dependent
//! `advisory` ones (latency percentiles, throughput); the `gate` binary
//! compares it against the committed `BENCH_serve.json` (see
//! `fiveg_bench::perfgate`). Exit codes: 0 ok, 1 usage/connection failure,
//! 2 wire-vs-offline prediction mismatch.

use fiveg_ran::{Arch, Carrier};
use fiveg_serve::digest::{combine_sessions, digest_replies, hex16};
use fiveg_serve::proto::{self, Frame};
use fiveg_serve::replay::{replay_offline, trace_frames};
use fiveg_serve::session::SessionCounts;
use fiveg_sim::{run_fleet_exec, FleetExec, FleetSpec, ScenarioBuilder, Trace};
use fiveg_telemetry::{Histogram, JsonBuf};
use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::time::Instant;

const SCHEMA: &str = "fiveg-serve/v1";

/// The pinned workload: a small SA city fleet, staggered starts, traces
/// kept so each session has a full per-tick frame sequence to replay.
/// Changing anything here changes every gated count and the digest —
/// regenerate `BENCH_serve.json` if you do.
const PINNED_SEED: u64 = 201;
const PINNED_UES: u32 = 6;

fn pinned_traces() -> Vec<Trace> {
    let base =
        ScenarioBuilder::city_loop(Carrier::OpY, PINNED_SEED).arch(Arch::Sa).duration_s(30.0).sample_hz(10.0).build();
    let spec = FleetSpec::new(base, PINNED_UES).stagger_s(7.0).speed_jitter(0.1).keep_traces(true);
    run_fleet_exec(&spec, FleetExec::threads(1)).traces
}

#[derive(Clone)]
enum Endpoint {
    Tcp(String),
    #[cfg(unix)]
    Uds(std::path::PathBuf),
}

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Endpoint {
    fn connect(&self) -> io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Stream::Tcp),
            #[cfg(unix)]
            Endpoint::Uds(path) => UnixStream::connect(path).map(Stream::Uds),
        }
    }

    fn transport(&self) -> &'static str {
        match self {
            Endpoint::Tcp(_) => "tcp",
            #[cfg(unix)]
            Endpoint::Uds(_) => "uds",
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Uds(s) => s.flush(),
        }
    }
}

/// Blocks until one whole frame arrives (the closed-loop read half).
fn read_frame(conn: &mut Stream, inbuf: &mut Vec<u8>) -> io::Result<Frame> {
    loop {
        match proto::try_read_frame(inbuf) {
            Ok(Some((f, used))) => {
                inbuf.drain(..used);
                return Ok(f);
            }
            Ok(None) => {}
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
        let mut tmp = [0u8; 4096];
        let n = conn.read(&mut tmp)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-exchange"));
        }
        inbuf.extend_from_slice(&tmp[..n]);
    }
}

struct SessionOutcome {
    ue: u32,
    frames_sent: u64,
    replies: Vec<Frame>,
    offline_replies: Vec<Frame>,
    offline_counts: SessionCounts,
    mismatches: u64,
    rtt_ms: Histogram,
    slo_miss: u64,
}

/// One client session: replay `frames` closed-loop, compare every reply
/// against the offline ground truth, time every round trip. A nonzero
/// `rate` paces the loop to at most that many predictions per second.
fn run_session(ep: &Endpoint, ue: u32, frames: Vec<Frame>, slo_ms: f64, rate: f64) -> io::Result<SessionOutcome> {
    let offline = replay_offline(&frames).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let mut conn = ep.connect()?;
    let mut out = Vec::new();
    let mut inbuf = Vec::new();
    let mut o = SessionOutcome {
        ue,
        frames_sent: frames.len() as u64,
        replies: Vec::with_capacity(offline.replies.len()),
        offline_replies: offline.replies,
        offline_counts: offline.counts,
        mismatches: 0,
        rtt_ms: Histogram::new(),
        slo_miss: 0,
    };
    let start = Instant::now();
    for f in &frames {
        proto::write_frame(&mut out, f);
        if matches!(f, Frame::Predict { .. }) {
            if rate > 0.0 {
                // open-loop pacing: request k is due at k/rate seconds
                let due = o.replies.len() as f64 / rate;
                let ahead = due - start.elapsed().as_secs_f64();
                if ahead > 0.0 {
                    std::thread::sleep(std::time::Duration::from_secs_f64(ahead));
                }
            }
            conn.write_all(&out)?;
            conn.flush()?;
            out.clear();
            let t0 = Instant::now();
            let reply = read_frame(&mut conn, &mut inbuf)?;
            let rtt = t0.elapsed().as_secs_f64() * 1e3;
            o.rtt_ms.observe(rtt);
            if rtt > slo_ms {
                o.slo_miss += 1;
            }
            let k = o.replies.len();
            if o.offline_replies.get(k) != Some(&reply) {
                o.mismatches += 1;
            }
            o.replies.push(reply);
        }
    }
    // trailing frames (BYE); the server closes the connection after it
    conn.write_all(&out)?;
    conn.flush()?;
    let mut tmp = [0u8; 64];
    if conn.read(&mut tmp)? != 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "unexpected frame after BYE"));
    }
    Ok(o)
}

struct Args {
    endpoint: Option<Endpoint>,
    sessions: usize,
    rate: f64,
    slo_ms: f64,
    out: String,
}

fn usage() -> ExitCode {
    println!("usage: serve_load (--tcp ADDR | --uds PATH) [--sessions N] [--rate F] [--slo-ms F] [--out PATH]");
    ExitCode::FAILURE
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { endpoint: None, sessions: 8, rate: 0.0, slo_ms: 50.0, out: "BENCH_serve.json".into() };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--tcp" => args.endpoint = Some(Endpoint::Tcp(val("--tcp")?)),
            #[cfg(unix)]
            "--uds" => args.endpoint = Some(Endpoint::Uds(val("--uds")?.into())),
            "--sessions" => args.sessions = val("--sessions")?.parse().map_err(|_| "bad --sessions")?,
            "--rate" => args.rate = val("--rate")?.parse().map_err(|_| "bad --rate")?,
            "--slo-ms" => args.slo_ms = val("--slo-ms")?.parse().map_err(|_| "bad --slo-ms")?,
            "--out" => args.out = val("--out")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn write_report(args: &Args, transport: &str, outcomes: &[SessionOutcome], totals: &Totals, elapsed_s: f64) -> String {
    let mut j = JsonBuf::new();
    j.open('{');
    j.key("schema");
    j.str_val(SCHEMA);
    j.key("mode");
    j.str_val("pinned");
    j.key("transport");
    j.str_val(transport);
    j.key("sessions");
    j.uint(args.sessions as u64);
    j.key("fleet_ues");
    j.uint(u64::from(PINNED_UES));
    // every field in `gated` must stay machine-independent
    j.key("gated");
    j.open('{');
    j.key("sessions_completed");
    j.uint(outcomes.len() as u64);
    j.key("frames_sent");
    j.uint(totals.frames_sent);
    j.key("predictions");
    j.uint(totals.predictions);
    j.key("ho_predictions");
    j.uint(totals.positives);
    j.key("mismatches");
    j.uint(totals.mismatches);
    j.key("equiv_digest");
    j.str_val(&totals.digest);
    j.close('}');
    j.key("per_session");
    j.open('[');
    for o in outcomes {
        j.open('{');
        j.key("ue");
        j.uint(u64::from(o.ue));
        j.key("predictions");
        j.uint(o.replies.len() as u64);
        j.key("positives");
        j.uint(o.offline_counts.positives);
        j.key("mismatches");
        j.uint(o.mismatches);
        j.key("digest");
        j.str_val(&hex16(digest_replies(&o.replies)));
        j.close('}');
    }
    j.close(']');
    j.key("advisory");
    j.open('{');
    j.key("elapsed_s");
    j.num(elapsed_s);
    j.key("predictions_per_sec");
    j.num(totals.predictions as f64 / elapsed_s.max(1e-9));
    j.key("rtt_ms_p50");
    j.num(totals.rtt_ms.percentile(0.50));
    j.key("rtt_ms_p99");
    j.num(totals.rtt_ms.percentile(0.99));
    j.key("rtt_ms_p999");
    j.num(totals.rtt_ms.percentile(0.999));
    j.key("slo_ms");
    j.num(args.slo_ms);
    j.key("slo_miss");
    j.uint(totals.slo_miss);
    j.key("slo_miss_rate");
    j.num(totals.slo_miss as f64 / (totals.predictions as f64).max(1.0));
    j.close('}');
    j.close('}');
    j.finish_line()
}

struct Totals {
    frames_sent: u64,
    predictions: u64,
    positives: u64,
    mismatches: u64,
    slo_miss: u64,
    rtt_ms: Histogram,
    digest: String,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve_load: {e}");
            return usage();
        }
    };
    let Some(ep) = args.endpoint.clone() else {
        eprintln!("serve_load: no endpoint; pass --tcp or --uds");
        return usage();
    };

    let traces = pinned_traces();
    println!(
        "serve_load: pinned fleet of {} traces (seed {}), {} sessions over {}",
        traces.len(),
        PINNED_SEED,
        args.sessions,
        ep.transport()
    );

    // one thread per session: connect, replay closed-loop, compare
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for i in 0..args.sessions {
        let ue = i as u32;
        let frames = trace_frames(&traces[i % traces.len()], ue);
        let ep = ep.clone();
        let (slo_ms, rate) = (args.slo_ms, args.rate);
        handles.push(std::thread::spawn(move || run_session(&ep, ue, frames, slo_ms, rate)));
    }
    let mut outcomes = Vec::new();
    for h in handles {
        match h.join().expect("session thread panicked") {
            Ok(o) => outcomes.push(o),
            Err(e) => {
                eprintln!("serve_load: session failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let elapsed_s = t0.elapsed().as_secs_f64();

    let mut totals = Totals {
        frames_sent: 0,
        predictions: 0,
        positives: 0,
        mismatches: 0,
        slo_miss: 0,
        rtt_ms: Histogram::new(),
        digest: String::new(),
    };
    let mut wire = Vec::new();
    let mut offline = Vec::new();
    for o in &outcomes {
        totals.frames_sent += o.frames_sent;
        totals.predictions += o.replies.len() as u64;
        totals.positives += o.offline_counts.positives;
        totals.mismatches += o.mismatches;
        totals.slo_miss += o.slo_miss;
        totals.rtt_ms.merge(&o.rtt_ms);
        wire.push((o.ue, digest_replies(&o.replies)));
        offline.push((o.ue, digest_replies(&o.offline_replies)));
    }
    let wire_digest = hex16(combine_sessions(&wire));
    let offline_digest = hex16(combine_sessions(&offline));
    totals.digest = wire_digest.clone();

    println!(
        "serve_load: wire == offline for {}/{} predictions, digest {}",
        totals.predictions - totals.mismatches,
        totals.predictions,
        wire_digest
    );
    println!(
        "serve_load: p50 {:.3} ms p99 {:.3} ms, {}/{} slo misses (slo {} ms), {:.0} predictions/s",
        totals.rtt_ms.percentile(0.50),
        totals.rtt_ms.percentile(0.99),
        totals.slo_miss,
        totals.predictions,
        args.slo_ms,
        totals.predictions as f64 / elapsed_s.max(1e-9)
    );

    let report = write_report(&args, ep.transport(), &outcomes, &totals, elapsed_s);
    if let Err(e) = std::fs::write(&args.out, &report) {
        eprintln!("serve_load: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("  report -> {}", args.out);

    if totals.mismatches > 0 || wire_digest != offline_digest {
        eprintln!(
            "serve_load: wire predictions diverge from offline Prognos \
             ({} mismatches, wire {} vs offline {})",
            totals.mismatches, wire_digest, offline_digest
        );
        return ExitCode::from(2);
    }

    ExitCode::SUCCESS
}
