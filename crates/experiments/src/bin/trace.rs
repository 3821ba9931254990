//! The tracing & self-profiling plane, exercised end to end
//! (DESIGN.md §17): phase spans over the scheduler's tick loop,
//! cross-process span propagation from supervised child shards, the
//! Chrome/Perfetto export, and the SLO burn-rate alerting fold.
//!
//! Four self-asserting scenarios:
//!
//! 1. **Phase coverage** — a traced single-fleet run's phase spans
//!    (drain, admit, dispatch, observer-flush, batch-encode) account
//!    for more than 95% of the tick umbrella spans' wall time: the
//!    profile explains where ticks go, it does not gesture at them.
//! 2. **Observation is free of side effects** — the traced run's
//!    report, beam ledger, and event log are identical to an untraced
//!    run of the same inputs.
//! 3. **One timeline across processes** — the §V-D grid runs with
//!    every shard a supervised child; shard 0's child `SIGKILL`s
//!    itself mid-run and is restarted. The supervisor's trace sink
//!    ends up holding child phase spans (shipped upstream as
//!    `ShardFrame::Trace` sidecars) *and* supervisor spans
//!    (`frame_decode`, `liveness_wait`, `restart_backoff`) on one
//!    clock, the merged ledger still equals the in-thread twin, and
//!    `/trace?format=chrome` serves a Perfetto-loadable timeline
//!    (written to `--trace-out <path>` for the CI artifact).
//! 4. **SLO burn-rate alerting** — a deadline-miss burst walks the
//!    `BurnRate` fold through `ok -> warn -> page` and clean traffic
//!    walks it back down; `/slo` and the `fleet_slo_*` gauges tell the
//!    same story.
//!
//! The child half of the conversation is this same binary re-executed
//! with `--child` (plus `--chaos-exec <n>` for the self-kill); stdout
//! prints only deterministic facts so the CI tracing job can byte-diff
//! two runs. Span *durations* are wall-clock and never printed.

use autotune::{ConfigSpace, TuningDatabase};
use dedisp_fleet::obs::{
    self, BurnRate, FlightRecorder, LiveGrid, MetricsRegistry, ObsServer, ObsState, SloConfig,
    SloSnapshot, SloState, SpanKind, TraceSink,
};
use dedisp_fleet::proc::{serve_stdio, ProcOutcome};
use dedisp_fleet::{
    BeamOutcome, BeamRecord, ChaosSpec, FaultPlan, FleetSpec, Grid, GridReport, GridRun,
    ProcConfig, ProcGridLedger, ResolvedFleet, Scheduler, ShardBackend, SurveyLoad, TelemetryEvent,
};
use manycore_sim::amd_hd7970;
use radioastro::{RealtimeCheck, SurveySizing};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Duration;

/// Seconds of observation the §V-D cluster scenario simulates.
const TICKS: usize = 5;

/// The paper's measured HD7970 time for one 2,000-DM beam-second
/// (Section V-D: "0.106 seconds to dedisperse one second of data").
const MEASURED_SECONDS_PER_BEAM: f64 = 0.106;

/// Shards in the cluster scenario — one supervised child each.
const SHARDS: usize = 4;

/// HD7970s per shard.
const DEVICES_PER_SHARD: usize = 13;

/// Batch frames shard 0's child streams before `SIGKILL`ing itself.
const CHAOS_FRAMES: u32 = 2;

/// The coverage floor scenario 1 asserts: phase spans must explain
/// more than this fraction of tick wall time.
const COVERAGE_FLOOR: f64 = 0.95;

fn headline(title: &str) {
    println!("\n=== {title} ===");
}

/// The child half: serve one shard conversation over stdio, with an
/// optional self-`SIGKILL` after `--chaos-exec <n>` batch frames.
/// Tracing in the child is switched by the `DEDISP_TRACE` env var the
/// supervisor sets — the spec wire format never changes.
fn run_child(args: &[String]) {
    let chaos = args
        .iter()
        .position(|a| a == "--chaos-exec")
        .map(|i| ChaosSpec {
            kill_after_frames: args
                .get(i + 1)
                .and_then(|n| n.parse().ok())
                .expect("--chaos-exec requires a frame count"),
        });
    serve_stdio(chaos).expect("child shard conversation failed");
}

/// The supervisor config: this binary, re-executed as `trace --child`.
fn child_config() -> ProcConfig {
    ProcConfig::current_exe()
        .expect("trace binary resolves")
        .arg("--child")
        .liveness(Duration::from_secs(30))
}

/// `--trace-out <path>` / `--trace-out=<path>`: where to write the
/// Chrome trace artifact, if anywhere.
fn trace_out_path(args: &[String]) -> Option<PathBuf> {
    for (i, arg) in args.iter().enumerate() {
        if arg == "--trace-out" {
            return args.get(i + 1).map(PathBuf::from);
        }
        if let Some(path) = arg.strip_prefix("--trace-out=") {
            return Some(PathBuf::from(path));
        }
    }
    None
}

/// One terminal beam event at virtual time `at`, missed or clean —
/// the raw material the SLO scenario feeds the fold.
fn beam_event(at: f64, missed: bool) -> TelemetryEvent {
    TelemetryEvent::Beam(BeamRecord {
        index: 0,
        tick: 0,
        beam: 0,
        outcome: if missed {
            BeamOutcome::Missed {
                device: 0,
                finish: at,
                kept_trials: 1,
            }
        } else {
            BeamOutcome::Completed {
                device: 0,
                finish: at,
            }
        },
    })
}

/// The machine-readable fingerprint the CI tracing job byte-diffs:
/// only deterministic facts — the ledgers, the supervision
/// story, span *counts* where they are deterministic, and the SLO
/// fold's virtual-time snapshot. Never span durations.
#[derive(Serialize)]
struct TraceReport {
    /// Phase coverage exceeded [`COVERAGE_FLOOR`].
    coverage_ok: bool,
    /// Tick spans the traced single-fleet run recorded (== ticks).
    tick_spans: u64,
    /// The chaos cluster report.
    chaos: GridReport,
    /// The chaos run's supervision ledger — restarts, dedupes, backoffs.
    supervision: ProcGridLedger,
    /// The SLO fold after the miss burst (virtual time, deterministic).
    slo_at_page: SloSnapshot,
    /// The SLO fold after recovery traffic.
    slo_recovered: SloSnapshot,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--child") {
        run_child(&args);
        return;
    }

    // --- Scenario 1: phase spans explain tick wall time --------------
    headline("phase coverage: spans explain >95% of tick wall time");
    let fleet = ResolvedFleet::synthetic(2000, &[0.08, 0.1, 0.12, 0.1, 0.09, 0.11, 0.1, 0.1]);
    let load = SurveyLoad::custom(2000, 24, 6);
    let faults = FaultPlan::none().with_kill(2, 1.4).with_flap(4, 0.6, 2.1);
    let sink = TraceSink::new(1 << 15);
    let traced = Scheduler::session(&fleet)
        .load(&load)
        .faults(&faults)
        .trace(&sink)
        .run()
        .expect("traced run completes");
    let spans = sink.snapshot();
    let tick_ns: u64 = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Tick)
        .map(|s| s.dur_ns)
        .sum();
    let phase_ns: u64 = spans
        .iter()
        .filter(|s| {
            matches!(
                s.kind,
                SpanKind::Drain
                    | SpanKind::Admit
                    | SpanKind::Dispatch
                    | SpanKind::ObserverFlush
                    | SpanKind::BatchEncode
            )
        })
        .map(|s| s.dur_ns)
        .sum();
    let coverage = phase_ns as f64 / tick_ns.max(1) as f64;
    assert!(
        coverage > COVERAGE_FLOOR,
        "phase spans cover only {:.1}% of tick wall time",
        coverage * 100.0
    );
    let tick_spans = spans.iter().filter(|s| s.kind == SpanKind::Tick).count() as u64;
    assert_eq!(
        tick_spans as usize, load.ticks,
        "one umbrella span per tick"
    );
    println!(
        "traced {} ticks: {} tick spans, phase coverage > {:.0}%: true",
        load.ticks,
        tick_spans,
        COVERAGE_FLOOR * 100.0
    );

    // --- Scenario 2: observation has no side effects ------------------
    headline("transparency: traced == untraced, byte for byte");
    let bare = Scheduler::session(&fleet)
        .load(&load)
        .faults(&faults)
        .run()
        .expect("untraced run completes");
    assert_eq!(
        traced.report.to_json(),
        bare.report.to_json(),
        "tracing perturbed the report"
    );
    assert_eq!(traced.records, bare.records, "tracing perturbed the ledger");
    assert_eq!(traced.log, bare.log, "tracing perturbed the event log");
    println!("report, records, and event log identical with and without the sink");

    // --- Scenario 3: one timeline across a SIGKILL'd cluster ----------
    headline(&format!(
        "cross-process timeline: {SHARDS} child shards, shard 0 SIGKILLs \
         itself after {CHAOS_FRAMES} frames and is restarted"
    ));
    let sizing = SurveySizing::apertif_survey();
    let cluster_load = SurveyLoad::from_sizing(&sizing, TICKS);
    let mut db = TuningDatabase::new();
    let space = ConfigSpace::paper();
    let check = RealtimeCheck::for_setup(&sizing.setup, sizing.trials);
    let measured_gflops = check.required_gflops / MEASURED_SECONDS_PER_BEAM;
    let shards: Vec<ResolvedFleet> = (0..SHARDS)
        .map(|_| {
            FleetSpec::new()
                .with_measured_group(amd_hd7970(), DEVICES_PER_SHARD, measured_gflops)
                .resolve(&mut db, &sizing.setup, sizing.trials, &space)
                .expect("measured shard resolves without tuning")
        })
        .collect();
    let grid_sink = TraceSink::new(1 << 16);
    let thread_twin = Grid::session(&shards)
        .load(&cluster_load)
        .run()
        .expect("in-thread twin completes");
    let proc_run: GridRun = Grid::session(&shards)
        .load(&cluster_load)
        .trace(&grid_sink)
        .backend(ShardBackend::Process(child_config().shard_args(
            0,
            ["--chaos-exec".to_string(), CHAOS_FRAMES.to_string()],
        )))
        .run()
        .expect("traced chaos cluster completes");
    assert_eq!(
        proc_run.report.to_json(),
        thread_twin.report.to_json(),
        "tracing or supervision perturbed the merged report"
    );
    assert_eq!(proc_run.records, thread_twin.records);
    assert_eq!(proc_run.events, thread_twin.events);
    let supervision = proc_run.proc.as_ref().expect("ledger present").clone();
    let victim = &supervision.shards[0];
    assert_eq!(victim.restarts, 1, "one restart repaired the kill");
    assert_eq!(
        victim.attempts[0].outcome,
        ProcOutcome::Died {
            after_frames: CHAOS_FRAMES
        }
    );
    assert_eq!(victim.attempts[1].outcome, ProcOutcome::Completed);

    let grid_spans = grid_sink.snapshot();
    let child_spans = grid_spans.iter().filter(|s| !s.kind.is_supervisor());
    let has_child_tick = child_spans.clone().any(|s| s.kind == SpanKind::Tick);
    let child_shards_seen: std::collections::BTreeSet<_> =
        child_spans.clone().filter_map(|s| s.shard).collect();
    let has_decode = grid_spans.iter().any(|s| s.kind == SpanKind::FrameDecode);
    let has_wait = grid_spans.iter().any(|s| s.kind == SpanKind::LivenessWait);
    let has_backoff = grid_spans
        .iter()
        .any(|s| s.kind == SpanKind::RestartBackoff && s.shard == Some(0));
    assert!(has_child_tick, "no child tick spans propagated upstream");
    assert_eq!(
        child_shards_seen.len(),
        SHARDS,
        "every child shard ships spans"
    );
    assert!(has_decode && has_wait, "supervisor spans missing");
    assert!(has_backoff, "the restart backoff for shard 0 left no span");
    println!(
        "sink holds child spans from {SHARDS}/{SHARDS} shards plus supervisor \
         frame_decode/liveness_wait spans and shard 0's restart_backoff"
    );

    // Serve the merged timeline and pull the Perfetto export over HTTP.
    let state = ObsState::new(
        MetricsRegistry::new(),
        FlightRecorder::new(64),
        LiveGrid::new(&[DEVICES_PER_SHARD; SHARDS]),
    )
    .with_trace(&grid_sink);
    let server = ObsServer::bind("127.0.0.1:0", state).expect("loopback bind");
    let addr = server.addr();
    let ndjson = obs::get(addr, "/trace?n=1000000").expect("GET /trace");
    assert_eq!(ndjson.status, 200);
    let parsed = dedisp_fleet::obs::trace::from_ndjson(&ndjson.body).expect("NDJSON export parses");
    assert_eq!(parsed.len(), grid_spans.len());
    let chrome = obs::get(addr, "/trace?n=1000000&format=chrome").expect("GET /trace chrome");
    assert_eq!(chrome.status, 200);
    assert!(chrome.content_type.starts_with("application/json"));
    let value: serde::Value = serde_json::from_str(&chrome.body).expect("chrome export parses");
    let events = value
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .expect("chrome export has a traceEvents array");
    assert!(events.len() >= grid_spans.len());
    for name in ["tick", "frame_decode", "liveness_wait", "restart_backoff"] {
        assert!(
            chrome.body.contains(&format!("\"name\":\"{name}\"")),
            "chrome export lacks {name} events"
        );
    }
    server.shutdown();
    if let Some(path) = trace_out_path(&args) {
        std::fs::write(&path, &chrome.body)
            .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
        println!("wrote Chrome trace artifact to {}", path.display());
    }
    println!("/trace NDJSON and Chrome exports parse; one timeline, two processes");

    // --- Scenario 4: SLO burn-rate alerting ---------------------------
    headline("SLO plane: a miss burst walks ok -> warn -> page and back");
    let registry = MetricsRegistry::new();
    let slo = BurnRate::with_registry(
        SloConfig {
            budget: 0.05,
            short_window_s: 10.0,
            long_window_s: 100.0,
            warn_at: 1.0,
            page_at: 3.0,
        },
        &registry,
    );
    // Clean traffic: 200 beams over 10 virtual seconds, all on time.
    for i in 0..200 {
        slo.fold(&beam_event(i as f64 * 0.05, false));
    }
    assert_eq!(slo.state(), SloState::Ok);
    // A deadline-miss burst; record every distinct state on the way up.
    let mut walked = vec![SloState::Ok];
    for i in 0..60 {
        slo.fold(&beam_event(10.0 + i as f64 * 0.01, true));
        let state = slo.state();
        if walked.last() != Some(&state) {
            walked.push(state);
        }
    }
    assert_eq!(
        walked,
        vec![SloState::Ok, SloState::Warn, SloState::Page],
        "the burst must walk through warn before page"
    );
    let slo_at_page = slo.snapshot();
    assert_eq!(slo_at_page.state, SloState::Page);
    assert!(slo_at_page.windows[0].burn_rate >= 3.0);
    let rendered = registry.render_prometheus();
    assert!(rendered.contains("fleet_slo_state 2"));
    assert!(rendered.contains("fleet_slo_budget_fraction 0.05"));
    // Recovery: clean traffic slides the burst out of the short window.
    for i in 0..2000 {
        slo.fold(&beam_event(11.0 + i as f64 * 0.01, false));
    }
    let slo_recovered = slo.snapshot();
    assert_ne!(slo_recovered.state, SloState::Page, "recovery never came");

    // The `/slo` endpoint serves the same snapshot.
    let state =
        ObsState::new(registry, FlightRecorder::new(64), LiveGrid::new(&[1])).with_slo(&slo);
    let server = ObsServer::bind("127.0.0.1:0", state).expect("loopback bind");
    let served = obs::get(server.addr(), "/slo").expect("GET /slo");
    assert_eq!(served.status, 200);
    let snapshot = SloSnapshot::from_json(&served.body).expect("/slo parses");
    assert_eq!(snapshot, slo_recovered);
    server.shutdown();
    println!(
        "states walked: {} -> {} -> {}; recovered to {}; /slo agrees with the fold",
        SloState::Ok.label(),
        SloState::Warn.label(),
        SloState::Page.label(),
        slo_recovered.state.label()
    );

    experiments::out::write_json_report(&TraceReport {
        coverage_ok: true,
        tick_spans,
        chaos: proc_run.report.clone(),
        supervision,
        slo_at_page,
        slo_recovered,
    });
    println!("\nall tracing assertions passed");
}
