//! Perf-gate support: compare a fresh benchmark report against a committed
//! baseline (`BENCH_tick.json`, `BENCH_fleet.json`, `BENCH_serve.json`) and
//! fail on regression. The `gate` binary runs [`gate`] on the two files.
//!
//! Both documents are parsed with [`Value::parse`] and must carry the same
//! `schema` string — cross-schema gating would silently compare rows whose
//! metrics no longer mean the same thing. The schema then selects one
//! [`Spec`] from [`SPECS`]: plain data saying which rows of the report are
//! paired with which rows of the baseline, and which metric of each pair is
//! compared in which [`Better`] direction.
//!
//! # What gets gated
//!
//! The committed baselines are recorded on the development machine while CI
//! runs on shared runners whose absolute speed differs and drifts run to
//! run by more than any sane tolerance — gating raw ticks/sec against them
//! would fail on a slow runner, not on a slow commit. The gates therefore
//! cover only **machine-independent** metrics:
//!
//! * work counts (`ticks`, `ue_ticks`, the serve counts): deterministic for
//!   a pinned workload, gated as a *band* — drift in either direction means
//!   the workload silently changed;
//! * allocation proxies (`allocs_per_tick`, `allocs_per_ue_tick`): counted
//!   by a deterministic global allocator, gated *lower-is-better*;
//! * the snapshot-vs-reference `speedup` ratio: both sides are measured in
//!   the same process on the same machine, so runner speed cancels to
//!   first order, gated *higher-is-better*; the fleet's fixed-vs-event
//!   `event_speedup` is gated the same way, and its `skip_ratio` — a
//!   deterministic work count in disguise — as a *band*;
//! * the serve report's prediction-equivalence `equiv_digest`, compared
//!   exactly (a digest has no tolerance band), and its wire-vs-offline
//!   `mismatches`, which may never exceed the baseline's.
//!
//! Absolute throughput (ticks/sec) is still compared, but as
//! [`Better::Advisory`]: a printed hint that can never fail the job.
//!
//! Tolerance semantics per [`Better`] direction: a run **fails** only when
//! the current value leaves the [`TOL`] band on its bad side. Moves past
//! the band on the good side are reported as a hint to refresh the
//! committed baseline, but do not fail the job.

use fiveg_telemetry::json::Value;

/// Relative tolerance of every banded gate.
pub const TOL: f64 = 0.15;

/// Which direction of drift counts as a regression for a gated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughput-like: regress when `current` drops below the band.
    Higher,
    /// Cost-like (allocation counts): regress when `current` rises above
    /// the band.
    Lower,
    /// Invariant-like (work counts): regress when `current` leaves the
    /// band in *either* direction — the workload itself changed.
    Band,
    /// A count that may never grow (wire-vs-offline mismatches): regress
    /// when `current` exceeds the baseline at all, with no tolerance.
    AtMost,
    /// A string that must match exactly (the equivalence digest).
    Exact,
    /// Machine-dependent (absolute throughput): printed, never fails.
    Advisory,
}

/// One comparison: a labelled metric against its committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate<'a> {
    /// What is being compared, e.g. `snapshot allocs_per_tick` or
    /// `fleet[100] ue_ticks`.
    pub what: String,
    /// The committed value: a string for [`Better::Exact`], else a number.
    pub baseline: Value<'a>,
    /// The value measured by this run.
    pub current: Value<'a>,
    /// Which drift direction fails the gate.
    pub better: Better,
}

impl Gate<'_> {
    /// The (baseline, current) pair as numbers; NaN for a string gate.
    fn nums(&self) -> (f64, f64) {
        let num = |v: &Value| v.as_f64().unwrap_or(f64::NAN);
        (num(&self.baseline), num(&self.current))
    }

    /// True when the current value left the tolerance band on its bad side.
    pub fn regressed(&self) -> bool {
        let (b, c) = self.nums();
        let low = c < b * (1.0 - TOL);
        let high = c > b * (1.0 + TOL);
        match self.better {
            Better::Higher => low,
            Better::Lower => high,
            Better::Band => low || high,
            Better::AtMost => c > b,
            Better::Exact => self.baseline.as_str() != self.current.as_str(),
            Better::Advisory => false,
        }
    }

    /// True when the current value beats the baseline by more than the
    /// tolerance — time to re-commit the baseline file. Only
    /// [`Better::Higher`] and [`Better::Lower`] gates can improve.
    pub fn improved(&self) -> bool {
        let (b, c) = self.nums();
        match self.better {
            Better::Higher => c > b * (1.0 + TOL),
            Better::Lower => c < b * (1.0 - TOL),
            _ => false,
        }
    }

    /// One human-readable verdict line for the job log.
    pub fn verdict(&self) -> String {
        let state = if self.better == Better::Advisory {
            "advisory (machine-dependent, not gated)"
        } else if self.regressed() {
            "FAIL (regression)"
        } else if self.improved() {
            "ok (better; consider refreshing the baseline)"
        } else {
            "ok"
        };
        match (self.baseline.as_str(), self.current.as_str()) {
            (Some(b), Some(c)) => format!("  {:<34} baseline {:>16}  current {:>16}  {}", self.what, b, c, state),
            _ => {
                let (b, c) = self.nums();
                format!(
                    "  {:<34} baseline {:>12.1}  current {:>12.1}  ratio {:>5.2}  {}",
                    self.what,
                    b,
                    c,
                    c / b,
                    state
                )
            }
        }
    }
}

/// Which objects of a report a [`Section`] compares, and how report rows
/// pair with baseline rows.
#[derive(Debug, Clone, Copy)]
pub enum Rows {
    /// The report object itself.
    Top,
    /// One object member of the report (`gated`, `advisory`).
    Member(&'static str),
    /// The entry of `array` whose string member `key` equals `value`;
    /// both sides must carry it.
    Entry { array: &'static str, key: &'static str, value: &'static str },
    /// Every entry of the report's `array`, paired with the baseline entry
    /// whose `key` member has the same value. A report entry the baseline
    /// lacks fails the gate — unless `skip_missing`, which skips it with a
    /// note (so a new size never fails the job that introduces it) and
    /// fails only when no entry matched at all.
    Each { array: &'static str, key: &'static str, skip_missing: bool },
}

/// One metric compared on every row pair of its [`Section`].
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The member read from both rows.
    pub key: &'static str,
    /// The label after the section's; the key unless renamed.
    pub label: &'static str,
    /// Which drift direction fails the gate.
    pub better: Better,
    /// Compared only when both rows carry it (the fleet's event-driven
    /// fields); a required metric missing on either side fails the gate.
    pub optional: bool,
}

impl Metric {
    const fn new(key: &'static str, better: Better) -> Metric {
        Metric { key, label: key, better, optional: false }
    }

    const fn optional(key: &'static str, better: Better) -> Metric {
        Metric { key, label: key, better, optional: true }
    }

    const fn named(self, label: &'static str) -> Metric {
        Metric { label, ..self }
    }
}

/// A set of row pairs and the metrics compared on each.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// Where the rows are.
    pub rows: Rows,
    /// The row's label prefix; `{}` stands for a [`Rows::Each`] key value.
    pub label: &'static str,
    /// Compared on every row pair, in order.
    pub metrics: &'static [Metric],
}

/// The gate rules of one report schema.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The `schema` string both documents carry.
    pub schema: &'static str,
    /// Compared in order.
    pub sections: &'static [Section],
}

/// The gate rules of every report with a committed baseline. Only the
/// tick report's snapshot (production) path is gated — the reference path
/// is a correctness referee, not a perf contract.
pub const SPECS: &[Spec] = &[
    Spec {
        schema: "fiveg-tick/v2",
        sections: &[
            Section {
                rows: Rows::Entry { array: "paths", key: "path", value: "snapshot" },
                label: "snapshot",
                metrics: &[
                    Metric::new("ticks", Better::Band),
                    Metric::new("allocs_per_tick", Better::Lower),
                    Metric::new("ticks_per_sec", Better::Advisory),
                ],
            },
            Section {
                rows: Rows::Top,
                label: "",
                metrics: &[Metric::new("speedup", Better::Higher).named("speedup (snapshot/reference)")],
            },
            Section {
                rows: Rows::Each { array: "des", key: "des", skip_missing: false },
                label: "des {}",
                metrics: &[
                    Metric::new("ticks", Better::Band),
                    Metric::new("skip_ratio", Better::Band),
                    Metric::new("ue_ticks_per_sec", Better::Advisory),
                ],
            },
        ],
    },
    Spec {
        schema: "fiveg-fleet/v3",
        sections: &[Section {
            rows: Rows::Each { array: "sizes", key: "n_ues", skip_missing: true },
            label: "fleet[{}]",
            metrics: &[
                Metric::new("ue_ticks", Better::Band),
                Metric::new("allocs_per_ue_tick", Better::Lower),
                Metric::optional("ue_ticks_per_sec", Better::Advisory),
                Metric::optional("skip_ratio", Better::Band),
                Metric::optional("event_speedup", Better::Higher),
                Metric::optional("event_ue_ticks_per_sec", Better::Advisory).named("event UE·ticks/sec"),
            ],
        }],
    },
    Spec {
        schema: "fiveg-serve/v1",
        sections: &[
            Section {
                rows: Rows::Member("gated"),
                label: "serve",
                metrics: &[
                    Metric::new("sessions_completed", Better::Band),
                    Metric::new("frames_sent", Better::Band),
                    Metric::new("predictions", Better::Band),
                    Metric::new("ho_predictions", Better::Band),
                    Metric::new("equiv_digest", Better::Exact),
                    Metric::new("mismatches", Better::AtMost),
                ],
            },
            Section {
                rows: Rows::Member("advisory"),
                label: "",
                metrics: &[Metric::optional("predictions_per_sec", Better::Advisory)],
            },
        ],
    },
];

/// What [`gate`] compared.
#[derive(Debug, Default)]
pub struct Outcome<'a> {
    /// Every comparison, advisory ones included, in rule-table order.
    pub gates: Vec<Gate<'a>>,
    /// One line per report row the baseline lacks and the rules skip.
    pub notes: Vec<String>,
}

impl Outcome<'_> {
    /// True when no gate regressed.
    pub fn passed(&self) -> bool {
        self.gates.iter().all(|g| !g.regressed())
    }
}

/// Pairs `report` with `baseline` under the rules of their shared schema.
/// A structural fault is an `Err`: a missing or differing schema, a schema
/// without rules, a required row or metric missing on either side, or a
/// skip-missing array with no row in common. Regressions are not errors;
/// see [`Outcome::passed`].
pub fn gate<'a>(baseline: &Value<'a>, report: &Value<'a>) -> Result<Outcome<'a>, String> {
    let schema_of = |doc: &Value<'a>, side: &str| {
        doc.get("schema").and_then(Value::as_str).map(str::to_owned).ok_or(format!("{side} has no schema string"))
    };
    let (b_schema, schema) = (schema_of(baseline, "baseline")?, schema_of(report, "report")?);
    if b_schema != schema {
        return Err(format!(
            "baseline has schema '{b_schema}' but the report has '{schema}' — \
             regenerate the baseline instead of gating across schema versions"
        ));
    }
    let spec = SPECS.iter().find(|s| s.schema == schema).ok_or(format!("no gate rules for schema '{schema}'"))?;
    let mut out = Outcome::default();
    for section in spec.sections {
        for (row, b, c) in pairs(section, baseline, report, &mut out.notes)? {
            for m in section.metrics {
                let what = if row.is_empty() { m.label.to_owned() } else { format!("{row} {}", m.label) };
                let read = |v: &Value<'a>| {
                    let ok = |x: &&Value| {
                        if m.better == Better::Exact {
                            x.as_str().is_some()
                        } else {
                            x.as_f64().is_some()
                        }
                    };
                    v.get(m.key).filter(ok).cloned()
                };
                match (read(b), read(c)) {
                    (Some(baseline), Some(current)) => {
                        out.gates.push(Gate { what, baseline, current, better: m.better })
                    }
                    _ if m.optional => {}
                    (b, _) => {
                        let side = if b.is_none() { "baseline" } else { "report" };
                        return Err(format!("{side} lacks {what} — reformatted or wrong file?"));
                    }
                }
            }
        }
    }
    Ok(out)
}

/// A compared row pair: its label, the baseline row, the report row.
type Pair<'v, 'a> = (String, &'v Value<'a>, &'v Value<'a>);

/// The array `key` of `doc`, if it has one.
fn entries<'v, 'a>(doc: &'v Value<'a>, key: &str) -> Option<&'v [Value<'a>]> {
    match doc.get(key)? {
        Value::Arr(items) => Some(items),
        _ => None,
    }
}

/// The row pairs `section` compares; report rows the baseline lacks and
/// may skip land in `notes`.
fn pairs<'v, 'a>(
    section: &Section,
    baseline: &'v Value<'a>,
    report: &'v Value<'a>,
    notes: &mut Vec<String>,
) -> Result<Vec<Pair<'v, 'a>>, String> {
    let single = |b: Option<&'v Value<'a>>, c: Option<&'v Value<'a>>, what: String| {
        let b = b.ok_or(format!("baseline has no {what}"))?;
        let c = c.ok_or(format!("report has no {what}"))?;
        Ok(vec![(section.label.to_owned(), b, c)])
    };
    let (array, key, skip_missing) = match section.rows {
        Rows::Top => return single(Some(baseline), Some(report), String::new()),
        Rows::Member(name) => return single(baseline.get(name), report.get(name), format!("`{name}` object")),
        Rows::Entry { array, key, value } => {
            let find = |doc: &'v Value<'a>| {
                entries(doc, array)?.iter().find(|e| e.get(key).and_then(Value::as_str) == Some(value))
            };
            return single(find(baseline), find(report), format!("`{array}` entry with {key} {value}"));
        }
        Rows::Each { array, key, skip_missing } => (array, key, skip_missing),
    };
    let mut out = Vec::new();
    for c in entries(report, array).ok_or(format!("report has no `{array}` array"))? {
        let k = c.get(key).ok_or(format!("report has a `{array}` entry without {key}"))?;
        let shown = match k {
            Value::Str(s) => s.clone(),
            Value::Num(t) => (*t).to_owned(),
            other => other.kind().to_owned(),
        };
        let row = section.label.replace("{}", &shown);
        match entries(baseline, array).unwrap_or_default().iter().find(|b| b.get(key) == Some(k)) {
            Some(b) => out.push((row, b, c)),
            None if skip_missing => notes.push(format!("{row}: not in baseline, skipped")),
            None => return Err(format!("baseline has no `{array}` entry for {row}")),
        }
    }
    if out.is_empty() && skip_missing {
        return Err(format!("baseline matched none of the report's `{array}` entries — reformatted or wrong file?"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: &str = include_str!("../../../BENCH_tick.json");
    const FLEET: &str = include_str!("../../../BENCH_fleet.json");
    const SERVE: &str = include_str!("../../../BENCH_serve.json");

    fn gate_of(better: Better, baseline: &'static str, current: &'static str) -> Gate<'static> {
        Gate { what: "x".into(), baseline: Value::Num(baseline), current: Value::Num(current), better }
    }

    /// Gates `report` against `baseline`: the outcome, or the fault.
    fn run(baseline: &str, report: &str) -> Result<(bool, usize), String> {
        let (b, r) = (Value::parse(baseline)?, Value::parse(report)?);
        let out = gate(&b, &r)?;
        Ok((out.passed(), out.gates.iter().filter(|g| g.better != Better::Advisory).count()))
    }

    /// `doc` with its first `from` replaced by `to`; panics if absent so a
    /// mutation can never silently miss.
    fn mutate(doc: &str, from: &str, to: &str) -> String {
        assert!(doc.contains(from), "mutation target {from} not in the document");
        doc.replacen(from, to, 1)
    }

    #[test]
    fn committed_baselines_pass_against_themselves_with_every_gate() {
        assert_eq!(run(TICK, TICK), Ok((true, 7)), "tick: snapshot ticks + allocs, speedup, 2 des × 2");
        assert_eq!(run(FLEET, FLEET), Ok((true, 24)), "fleet: 6 sizes × 4");
        assert_eq!(run(SERVE, SERVE), Ok((true, 6)), "serve: 4 bands, the digest, mismatches");
    }

    #[test]
    fn every_regression_fails() {
        let cases = [
            ("band", TICK, mutate(TICK, r#""ticks":20961,"elapsed_s":3.37"#, r#""ticks":30000,"elapsed_s":3.37"#)),
            ("allocs", TICK, mutate(TICK, r#""allocs_per_tick":3.44"#, r#""allocs_per_tick":9.44"#)),
            ("speedup", TICK, mutate(TICK, r#""speedup":1.6"#, r#""speedup":0.6"#)),
            ("digest", SERVE, mutate(SERVE, r#""equiv_digest":"5da2"#, r#""equiv_digest":"5da3"#)),
            ("mismatches", SERVE, mutate(SERVE, r#""mismatches":0,"equiv"#, r#""mismatches":1,"equiv"#)),
        ];
        for (what, baseline, report) in cases {
            let (passed, _) = run(baseline, &report).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(!passed, "{what}: a regressed report must fail the gate");
        }
    }

    #[test]
    fn every_structural_fault_fails() {
        let renamed = mutate(TICK, "fiveg-tick/v2", "fiveg-tick/v3");
        let no_des_row = format!("{}]}}\n", &TICK[..TICK.find(r#",{"des":"walking-sa""#).expect("walking-sa row")]);
        let no_snapshot = mutate(TICK, r#""path":"snapshot""#, r#""path":"snap""#);
        let unknown_sizes = FLEET.replace(r#""n_ues":"#, r#""n_ues":7"#);
        let truncated = &SERVE[..SERVE.len() / 2];
        let cases = [
            ("schema mismatch", TICK, renamed.as_str()),
            ("baseline lacks a des row", no_des_row.as_str(), TICK),
            ("baseline lacks the snapshot row", no_snapshot.as_str(), TICK),
            ("no fleet size in common", unknown_sizes.as_str(), FLEET),
            ("unparsable report", SERVE, truncated),
        ];
        for (what, baseline, report) in cases {
            assert!(run(baseline, report).is_err(), "{what} must fail the gate");
        }
    }

    #[test]
    fn sizes_missing_from_the_baseline_are_skipped_with_a_note() {
        let report = mutate(FLEET, r#""n_ues":100000,"#, r#""n_ues":200000,"#);
        let (b, r) = (Value::parse(FLEET).unwrap(), Value::parse(&report).unwrap());
        let out = gate(&b, &r).expect("five sizes still match");
        assert!(out.passed());
        assert_eq!(out.notes, ["fleet[200000]: not in baseline, skipped"]);
        assert_eq!(out.gates.iter().filter(|g| g.better != Better::Advisory).count(), 20);
    }

    #[test]
    fn event_fields_gate_only_when_both_sides_carry_them() {
        let fixed_only = r#"{"schema":"fiveg-fleet/v3","sizes":[{"n_ues":1,"ue_ticks":600,"allocs_per_ue_tick":1.1}]}"#;
        assert_eq!(run(FLEET, fixed_only), Ok((true, 2)));
        assert_eq!(run(fixed_only, FLEET).map(|(_, n)| n), Ok(2));
    }

    #[test]
    fn higher_is_better_fails_only_on_drop() {
        assert!(gate_of(Better::Higher, "100", "84.9").regressed());
        assert!(!gate_of(Better::Higher, "100", "85.1").regressed());
        let g = gate_of(Better::Higher, "100", "300");
        assert!(!g.regressed(), "an improvement must never fail the gate");
        assert!(g.improved());
    }

    #[test]
    fn lower_is_better_fails_only_on_rise() {
        assert!(gate_of(Better::Lower, "100", "115.1").regressed());
        assert!(!gate_of(Better::Lower, "100", "114.9").regressed());
        let g = gate_of(Better::Lower, "100", "50");
        assert!(!g.regressed(), "fewer allocations must never fail the gate");
        assert!(g.improved());
    }

    #[test]
    fn band_fails_on_drift_in_either_direction() {
        assert!(gate_of(Better::Band, "100", "84.9").regressed());
        assert!(gate_of(Better::Band, "100", "115.1").regressed());
        assert!(!gate_of(Better::Band, "100", "100").regressed());
        assert!(!gate_of(Better::Band, "100", "200").improved(), "a band gate never 'improves'");
    }

    #[test]
    fn at_most_has_no_tolerance_and_advisory_never_fails() {
        assert!(gate_of(Better::AtMost, "0", "1").regressed());
        assert!(gate_of(Better::AtMost, "100", "101").regressed());
        assert!(!gate_of(Better::AtMost, "100", "0").regressed());
        assert!(!gate_of(Better::Advisory, "100", "1").regressed());
        assert!(!gate_of(Better::Advisory, "100", "1000").improved());
    }
}
