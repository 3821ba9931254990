//! Tracing-plane overhead gate: the traced observer stack vs
//! `NullObserver`.
//!
//! DESIGN.md §17's pitch is that phase spans and the SLO burn-rate
//! fold are cheap enough to leave on in production. This bench prices
//! that claim and *gates* it in CI:
//!
//! 1. **Traced scheduler overhead (gated, `<= 5%`)** — the real
//!    scheduler runs the telemetry bench's fleet workload under
//!    `NullObserver` with no trace sink, and again with a
//!    [`TraceSink`] attached *and* the full observer stack fanned out
//!    (live status + flight recorder + metrics registry + the
//!    [`BurnRate`] SLO fold). The wall-clock delta must stay within
//!    the ceiling — the same 5% the untraced stack is held to, now
//!    with spans opening and closing around every tick phase.
//! 2. **Burn-rate fold throughput (recorded)** — a synthetic
//!    1M-beams/tick terminal-outcome stream pushed through
//!    [`BurnRate::fold`]; the per-event cost is one lock and a few
//!    adds, and the recorded rate documents it.
//! 3. **Span record throughput (recorded)** — raw
//!    `TraceSink::start`/drop pairs per second, the fixed price every
//!    phase span pays.
//!
//! Before anything is timed, the traced and untraced runs' ledgers
//! are asserted identical (the racy per-device queue high-water
//! zeroed) — a sink that perturbs scheduling must fail the gate
//! loudly, not post a number.
//!
//! The gate compares ratios, not raw rates: `tracing_overhead_pct`
//! is gated on the absolute ceiling always, and against the committed
//! `BENCH_fleet.json` baseline (which carries the `tracing_*` keys
//! alongside the telemetry bench's — each bench reads only its own)
//! with a drift slack when `--check` is given.
//!
//! Not a criterion harness: the gate needs `--json <out>` and
//! `--check <baseline>` arguments, so `main` is hand-rolled.

use dedisp_fleet::obs::{
    BurnRate, Fanout, FlightRecorder, LiveStatus, MetricsRegistry, RegistryObserver, SloConfig,
    SpanKind, TraceSink,
};
use dedisp_fleet::{
    BeamOutcome, BeamRecord, NullObserver, ResolvedFleet, Scheduler, SurveyLoad, TelemetryEvent,
};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Beams per tick in the synthetic burn-fold stream.
const BEAMS_PER_TICK: usize = 1_000_000;

/// Ticks of the synthetic stream.
const STREAM_TICKS: usize = 2;

/// Scheduler-run repetitions per configuration (minimum is reported).
const SCHED_REPS: usize = 7;

/// Ticks in the scheduler-overhead workload — matches the telemetry
/// bench so the two gates price the same run shape.
const SCHED_TICKS: usize = 24;

/// Raw span start/drop pairs timed for the span-rate record.
const SPAN_OPS: usize = 2_000_000;

/// The absolute ceiling the tracing plane promised (ISSUE acceptance).
const OVERHEAD_CEILING_PCT: f64 = 5.0;

/// Baseline drift slack, in percentage points — wide for the same
/// reason the telemetry bench's is: the measured overhead swings a few
/// points either side of zero run to run, and the absolute ceiling
/// stays the binding gate.
const OVERHEAD_SLACK_PCT: f64 = 5.0;

/// One terminal beam outcome at virtual time `at`.
fn terminal(index: usize, at: f64, missed: bool) -> TelemetryEvent {
    TelemetryEvent::Beam(BeamRecord {
        index,
        tick: 0,
        beam: index,
        outcome: if missed {
            BeamOutcome::Missed {
                device: index % 32,
                finish: at,
                kept_trials: 2000,
            }
        } else {
            BeamOutcome::Completed {
                device: index % 32,
                finish: at,
            }
        },
    })
}

/// Min-of-reps wall time for `f`, seconds.
fn time_min<F: FnMut() -> usize>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// What this bench measures and records. The committed baseline is
/// the shared `BENCH_fleet.json`; this struct round-trips only the
/// `tracing_*` keys and ignores the telemetry bench's.
#[derive(Debug, Serialize, Deserialize)]
struct Results {
    /// Identifies the format; bump when the measured fields change.
    tracing_schema: String,
    /// `NullObserver`, no sink — the reference run.
    tracing_sched_null_secs: f64,
    /// Trace sink + live status + recorder + registry + SLO fold.
    tracing_sched_traced_secs: f64,
    /// Gated: traced full-stack time over `NullObserver` time.
    tracing_overhead_pct: f64,
    /// Recorded: `BurnRate::fold` throughput, million events/sec, on
    /// the 1M-beams/tick terminal stream.
    tracing_burn_fold_meps: f64,
    /// Recorded: raw span start/drop pairs, million ops/sec.
    tracing_span_rate_mops: f64,
}

fn measure() -> Results {
    // --- traced scheduler overhead (the gated number) ----------------
    eprintln!("tracing-bench: scheduler null vs traced full stack ({SCHED_REPS} reps each) ...");
    let spb: Vec<f64> = (0..32).map(|d| 0.09 + 0.002 * (d % 5) as f64).collect();
    let fleet = ResolvedFleet::synthetic(2000, &spb);
    let load = SurveyLoad::custom(2000, fleet.beams_capacity() * 9 / 10, SCHED_TICKS);

    // Transparency self-check before any timing: the traced stack must
    // not move the ledger.
    let bare = Scheduler::session(&fleet)
        .load(&load)
        .run()
        .expect("bare run completes");
    {
        let check_sink = TraceSink::new(1 << 15);
        let registry = MetricsRegistry::new();
        let mut live = LiveStatus::new(fleet.len());
        let mut recorder = FlightRecorder::new(1 << 14);
        let mut metrics = RegistryObserver::new(&registry, fleet.len());
        let mut slo = BurnRate::new(SloConfig::default());
        let mut fanout = Fanout::new()
            .with(&mut metrics)
            .with(&mut recorder)
            .with(&mut live)
            .with(&mut slo);
        let traced = Scheduler::session(&fleet)
            .load(&load)
            .trace(&check_sink)
            .run_with(&mut fanout)
            .expect("traced run completes");
        assert_eq!(
            traced.report, bare.report,
            "the traced stack perturbed the report"
        );
        assert_eq!(
            traced.records, bare.records,
            "traced stack moved the ledger"
        );
        assert!(check_sink.recorded() > 0, "the sink recorded nothing");
    }

    let null_secs = time_min(SCHED_REPS, || {
        let run = Scheduler::session(black_box(&fleet))
            .load(black_box(&load))
            .run_with(&mut NullObserver)
            .unwrap();
        run.report.completed
    });

    // Sink construction happens once, outside the timed region — the
    // gate prices per-event observation and span capture, not setup.
    let sink = TraceSink::new(1 << 15);
    let registry = MetricsRegistry::new();
    let mut live = LiveStatus::new(fleet.len());
    let mut recorder = FlightRecorder::new(1 << 14);
    let mut metrics = RegistryObserver::new(&registry, fleet.len());
    let mut slo = BurnRate::new(SloConfig::default());
    let mut fanout = Fanout::new()
        .with(&mut metrics)
        .with(&mut recorder)
        .with(&mut live)
        .with(&mut slo);
    let traced_secs = time_min(SCHED_REPS, || {
        let run = Scheduler::session(black_box(&fleet))
            .load(black_box(&load))
            .trace(&sink)
            .run_with(&mut fanout)
            .unwrap();
        run.report.completed
    });

    // --- burn-rate fold throughput at 1M beams/tick -------------------
    let events_total = BEAMS_PER_TICK * STREAM_TICKS;
    eprintln!("tracing-bench: burn-rate fold ({events_total} terminal events) ...");
    let stream: Vec<TelemetryEvent> = (0..events_total)
        .map(|i| {
            let at = i as f64 / BEAMS_PER_TICK as f64;
            terminal(i, at, i % 128 == 127)
        })
        .collect();
    let burn_secs = time_min(3, || {
        let slo = BurnRate::new(SloConfig::default());
        for event in &stream {
            slo.fold(black_box(event));
        }
        black_box(slo.snapshot().windows.len())
    });

    // --- raw span capture rate ----------------------------------------
    eprintln!("tracing-bench: raw span capture ({SPAN_OPS} start/drop pairs) ...");
    let span_secs = time_min(3, || {
        let sink = TraceSink::new(4096);
        for i in 0..SPAN_OPS {
            sink.start(SpanKind::Dispatch, Some(0), i as u64).finish();
        }
        black_box(sink.len())
    });

    Results {
        tracing_schema: "dedisp-bench-tracing-v1".to_string(),
        tracing_sched_null_secs: null_secs,
        tracing_sched_traced_secs: traced_secs,
        tracing_overhead_pct: (traced_secs - null_secs) / null_secs * 100.0,
        tracing_burn_fold_meps: events_total as f64 / burn_secs / 1e6,
        tracing_span_rate_mops: SPAN_OPS as f64 / span_secs / 1e6,
    }
}

/// Applies the gate: the absolute ceiling always, baseline drift when
/// a committed baseline is given. Returns the failures.
fn gate(r: &Results, baseline: Option<&Results>) -> Vec<String> {
    let mut failures = Vec::new();
    if r.tracing_overhead_pct > OVERHEAD_CEILING_PCT {
        failures.push(format!(
            "tracing_overhead_pct {:.2}% exceeds the {OVERHEAD_CEILING_PCT:.0}% ceiling",
            r.tracing_overhead_pct
        ));
    }
    if let Some(base) = baseline {
        if r.tracing_overhead_pct > base.tracing_overhead_pct + OVERHEAD_SLACK_PCT {
            failures.push(format!(
                "tracing_overhead_pct {:.2}% exceeds baseline {:.2}% by more than \
                 {OVERHEAD_SLACK_PCT:.0} points",
                r.tracing_overhead_pct, base.tracing_overhead_pct,
            ));
        }
    }
    failures
}

fn main() -> ExitCode {
    let mut json_out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_out = args.next(),
            "--check" => check = args.next(),
            // cargo bench passes --bench; nothing to select here.
            _ => {}
        }
    }

    let results = measure();
    println!(
        "traced scheduler: null {:.3}s vs traced full stack {:.3}s -> {:+.2}% (ceiling {:.0}%)",
        results.tracing_sched_null_secs,
        results.tracing_sched_traced_secs,
        results.tracing_overhead_pct,
        OVERHEAD_CEILING_PCT
    );
    println!(
        "burn-rate fold: {:>8.2} M events/s at {} beams/tick",
        results.tracing_burn_fold_meps, BEAMS_PER_TICK
    );
    println!(
        "span capture:   {:>8.2} M spans/s (start/drop pairs)",
        results.tracing_span_rate_mops
    );

    if let Some(path) = &json_out {
        let body = serde_json::to_string_pretty(&results).expect("report serializes");
        if let Err(err) = std::fs::write(path, body + "\n") {
            eprintln!("tracing-bench: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    let baseline: Option<Results> = match &check {
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
        {
            Ok(value) => Some(value),
            Err(err) => {
                eprintln!("tracing-bench: cannot read baseline {path}: {err}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let failures = gate(&results, baseline.as_ref());
    if failures.is_empty() {
        if check.is_some() {
            println!("gate: PASS (within tolerance of the committed baseline)");
        }
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("gate: FAIL: {failure}");
        }
        ExitCode::FAILURE
    }
}
