//! The Section V-D Apertif deployment as a **multi-process cluster**:
//! every shard of the 4 x 13 HD7970 grid runs as a real supervised
//! child process speaking the framed shard protocol over stdio
//! (DESIGN.md §15), and the whole deployment is observable through one
//! HTTP operator plane.
//!
//! Four self-asserting scenarios:
//!
//! 1. **Healthy cluster** — the process-backed grid produces the same
//!    ledger (reports, records, events) as the in-thread grid, and the
//!    supervision ledger records one clean `Completed` attempt per
//!    shard.
//! 2. **Crash-real chaos** — shard 0's child `SIGKILL`s itself mid-run
//!    (`--chaos-exec 2`: die after framing 2 batches) while shard 2
//!    takes a *simulated* whole-shard flap. The supervisor restarts
//!    the corpse with backoff, drops the replayed frame prefix, and
//!    the merged ledger is byte-identical to the in-thread run — the
//!    kill is visible only in the supervision ledger.
//! 3. **Deterministic supervision** — the same chaos schedule re-run
//!    yields the identical supervision ledger: attempts, outcomes,
//!    dedupe counts, configured backoffs.
//! 4. **One obs plane, many grids** — two process-backed grids run
//!    concurrently under a single `ObsServer` via the `ObsDirectory`:
//!    `/grids` lists both, `/status/grid/<i>` scopes each, legacy
//!    paths alias the lowest id, unknown grids answer JSON 404s, and
//!    detach is live.
//!
//! The child half of the conversation is this same binary re-executed
//! with `--child` (plus `--chaos-exec <n>` for the self-kill); stdout
//! prints only deterministic facts so the CI cluster job can byte-diff
//! two runs.

use autotune::{ConfigSpace, TuningDatabase};
use dedisp_fleet::obs::{
    self, FlightRecorder, GridFanout, GridRegistry, GridStatusSnapshot, LiveGrid, MetricsRegistry,
    ObsDirectory, ObsServer, ObsState,
};
use dedisp_fleet::proc::{serve_stdio, ProcOutcome};
use dedisp_fleet::{
    ChaosSpec, FleetSpec, Grid, GridFaultPlan, GridObserver, GridReport, GridRun, ProcConfig,
    ProcGridLedger, ResolvedFleet, ShardBackend, SurveyLoad, TelemetryEvent,
};
use manycore_sim::amd_hd7970;
use radioastro::{RealtimeCheck, SurveySizing};
use serde::Serialize;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Seconds of observation each scenario simulates.
const TICKS: usize = 5;

/// The paper's measured HD7970 time for one 2,000-DM beam-second
/// (Section V-D: "0.106 seconds to dedisperse one second of data").
const MEASURED_SECONDS_PER_BEAM: f64 = 0.106;

/// Shards in the cluster — one supervised child process each.
const SHARDS: usize = 4;

/// HD7970s per shard: 4 x 13 = 52 devices, one rack over the quoted 50.
const DEVICES_PER_SHARD: usize = 13;

/// Batch frames shard 0's child streams before `SIGKILL`ing itself.
const CHAOS_FRAMES: u32 = 2;

/// When the *simulated* flap takes shard 2 down, and back up.
const FLAP_DOWN_AT: f64 = 1.0;
const FLAP_UP_AT: f64 = 3.0;

/// Per-event pacing for the observed scenario-4 grids, so they span
/// enough wall clock for the mid-run polls to land mid-run.
const PACE: Duration = Duration::from_micros(200);

fn headline(title: &str) {
    println!("\n=== {title} ===");
}

/// The child half: serve one shard conversation over stdio, with an
/// optional self-`SIGKILL` after `--chaos-exec <n>` batch frames.
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

/// The supervisor config: this binary, re-executed as `cluster --child`.
fn child_config() -> ProcConfig {
    ProcConfig::current_exe()
        .expect("cluster binary resolves")
        .arg("--child")
        .liveness(Duration::from_secs(30))
}

/// Asserts a process-backed run is ledger-identical to its in-thread
/// twin: same merged report, same global beam ledger, same telemetry
/// stream.
fn assert_same_run(proc_run: &GridRun, thread_run: &GridRun, what: &str) {
    assert_eq!(
        proc_run.report.to_json(),
        thread_run.report.to_json(),
        "{what}: process and in-thread reports must agree"
    );
    assert_eq!(proc_run.records, thread_run.records, "{what}: beam ledgers");
    assert_eq!(proc_run.events, thread_run.events, "{what}: event streams");
    assert!(proc_run.report.conservation_ok());
}

fn summarize(run: &GridRun) {
    let r = &run.report;
    println!(
        "{} shards / {} devices | {} beam-seconds admitted over {} ticks",
        r.shards.len(),
        r.devices_total(),
        r.admitted,
        r.ticks,
    );
    println!(
        "completed {} | degraded {} | deadline misses {} | shed whole {} | rehomed {}",
        r.completed, r.degraded, r.deadline_misses, r.shed_whole, r.rehomed
    );
}

fn summarize_supervision(ledger: &ProcGridLedger) {
    for entry in &ledger.shards {
        let attempts: Vec<String> = entry
            .attempts
            .iter()
            .map(|a| {
                let outcome = match a.outcome {
                    ProcOutcome::Completed => "completed".to_string(),
                    ProcOutcome::Died { after_frames } => {
                        format!("died after {after_frames} frames")
                    }
                    ProcOutcome::TimedOut { after_frames } => {
                        format!("timed out after {after_frames} frames")
                    }
                    ProcOutcome::SpawnFailed => "spawn failed".to_string(),
                };
                match a.backoff_ms {
                    Some(ms) => format!("{outcome} (backoff {ms} ms)"),
                    None => outcome,
                }
            })
            .collect();
        println!(
            "  shard {}: {} | restarts {} | deduped frames {} | degraded in-thread: {}",
            entry.shard,
            attempts.join(" -> "),
            entry.restarts,
            entry.deduped_frames,
            entry.degraded_in_thread
        );
    }
}

/// A pacing observer (scenario 4): sleeps a sliver of real time per
/// event so the observed runs stay alive long enough to poll mid-run.
/// Real-time pacing never touches virtual time, so ledgers are
/// unchanged.
struct Throttle;

impl GridObserver for Throttle {
    fn observe_grid(&self, _shard: Option<usize>, _event: &TelemetryEvent) {
        std::thread::sleep(PACE);
    }
}

fn get_ok(addr: SocketAddr, path: &str) -> obs::Fetched {
    let fetched = obs::get(addr, path).unwrap_or_else(|e| panic!("GET {path} failed: {e}"));
    assert_eq!(fetched.status, 200, "GET {path} must answer 200");
    fetched
}

fn get_404(addr: SocketAddr, path: &str) -> String {
    let fetched = obs::get(addr, path).unwrap_or_else(|e| panic!("GET {path} failed: {e}"));
    assert_eq!(fetched.status, 404, "GET {path} must answer 404");
    assert!(
        fetched.body.starts_with("{\"error\":"),
        "404 bodies are JSON: {}",
        fetched.body
    );
    fetched.body
}

/// The machine-readable fingerprint the CI cluster job byte-diffs:
/// both ledgers plus the full supervision story.
#[derive(Serialize)]
struct ClusterReport {
    /// The healthy process-grid report.
    healthy: GridReport,
    /// The chaos (SIGKILL + simulated flap) report.
    chaos: GridReport,
    /// The chaos run's supervision ledger — restarts, dedupes, backoffs.
    supervision: ProcGridLedger,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--child") {
        run_child(&args);
        return;
    }

    // --- the Section V-D fleet, one resolved shard per child ---------
    let sizing = SurveySizing::apertif_survey();
    let load = SurveyLoad::from_sizing(&sizing, TICKS);
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
    println!(
        "cluster: {SHARDS} child processes x {DEVICES_PER_SHARD} HD7970s at \
         {MEASURED_SECONDS_PER_BEAM} s/beam ({measured_gflops:.1} GFLOP/s measured)"
    );

    // --- Scenario 1: healthy multi-process cluster -------------------
    headline("healthy cluster: every shard a supervised child process");
    let thread_run = Grid::session(&shards)
        .load(&load)
        .run()
        .expect("in-thread reference run completes");
    let proc_run = Grid::session(&shards)
        .load(&load)
        .backend(ShardBackend::Process(child_config()))
        .run()
        .expect("process-backed grid runs");
    assert_same_run(&proc_run, &thread_run, "healthy");
    summarize(&proc_run);
    let healthy_ledger = proc_run.proc.as_ref().expect("process runs carry a ledger");
    assert_eq!(healthy_ledger.total_restarts(), 0);
    assert!(!healthy_ledger.any_degraded());
    for (shard, entry) in healthy_ledger.shards.iter().enumerate() {
        assert_eq!(entry.shard, shard);
        assert_eq!(entry.attempts.len(), 1);
        assert_eq!(entry.attempts[0].outcome, ProcOutcome::Completed);
        assert!(entry.frames_forwarded > 0, "shard {shard} framed nothing");
    }
    summarize_supervision(healthy_ledger);
    println!("process cluster == in-thread grid (reports, records, events)");

    // --- Scenario 2: SIGKILL a child + flap a simulated shard --------
    headline(&format!(
        "chaos: shard 0's child SIGKILLs itself after {CHAOS_FRAMES} frames; \
         shard 2 flaps (simulated) at t={FLAP_DOWN_AT}..{FLAP_UP_AT} s"
    ));
    let faults = GridFaultPlan::none().with_shard_flap(2, FLAP_DOWN_AT, FLAP_UP_AT);
    let thread_chaos = Grid::session(&shards)
        .load(&load)
        .faults(&faults)
        .run()
        .expect("in-thread flap run completes");
    let run_chaos = || {
        Grid::session(&shards)
            .load(&load)
            .faults(&faults)
            .backend(ShardBackend::Process(child_config().shard_args(
                0,
                ["--chaos-exec".to_string(), CHAOS_FRAMES.to_string()],
            )))
            .run()
            .expect("chaos cluster run completes")
    };
    let chaos_run = run_chaos();
    assert_same_run(&chaos_run, &thread_chaos, "chaos");
    summarize(&chaos_run);
    let supervision = chaos_run.proc.as_ref().expect("ledger present");
    let victim = &supervision.shards[0];
    assert_eq!(victim.restarts, 1, "one restart repaired the kill");
    assert!(!victim.degraded_in_thread);
    assert_eq!(
        victim.attempts[0].outcome,
        ProcOutcome::Died {
            after_frames: CHAOS_FRAMES
        }
    );
    assert_eq!(victim.attempts[1].outcome, ProcOutcome::Completed);
    assert_eq!(
        victim.deduped_frames,
        u64::from(CHAOS_FRAMES),
        "the replayed prefix was dropped, not double-counted"
    );
    for bystander in &supervision.shards[1..] {
        assert_eq!(bystander.restarts, 0);
        assert_eq!(bystander.deduped_frames, 0);
    }
    summarize_supervision(supervision);
    println!(
        "the kill is real (SIGKILL, mid-stream) and invisible in every \
         grid-level ledger; rehomed {} beam-seconds came from the *simulated* \
         flap, handled by the same re-homing path",
        chaos_run.report.rehomed
    );

    // --- Scenario 3: the supervision ledger is deterministic ---------
    headline("determinism: the same chaos schedule tells the same story");
    let again = run_chaos();
    assert_eq!(
        again.proc, chaos_run.proc,
        "fixed chaos schedule => identical supervision ledger"
    );
    assert_eq!(again.report.to_json(), chaos_run.report.to_json());
    println!("second chaos run: identical supervision ledger, identical report");

    // --- Scenario 4: one obs plane over two concurrent grids ---------
    headline("one ObsServer over two concurrent process-backed grids");
    let surveys = [("survey-a", 3usize), ("survey-b", 2usize)];
    let grids: Vec<(String, Vec<ResolvedFleet>, SurveyLoad)> = surveys
        .iter()
        .map(|&(name, n)| {
            let fleets: Vec<ResolvedFleet> = (0..n)
                .map(|_| ResolvedFleet::synthetic(800, &[0.1, 0.12]))
                .collect();
            (name.to_string(), fleets, SurveyLoad::custom(800, 9, 4))
        })
        .collect();

    let directory = ObsDirectory::new();
    let mut stacks = Vec::new();
    for (name, fleets, _) in &grids {
        let registry = MetricsRegistry::new();
        let shard_devices: Vec<usize> = fleets.iter().map(|f| f.devices.len()).collect();
        let metrics = GridRegistry::new(&registry, &shard_devices);
        let recorder = FlightRecorder::new(1 << 14);
        let live = LiveGrid::new(&shard_devices);
        let id = directory.attach(
            name.clone(),
            ObsState::new(registry, recorder.clone(), live.clone()),
        );
        stacks.push((id, metrics, recorder, live));
    }
    let server = ObsServer::bind_directory("127.0.0.1:0", directory.clone())
        .expect("loopback bind for the cluster obs plane");
    let addr = server.addr();

    let grids_listing = get_ok(addr, "/grids").body;
    assert_eq!(
        grids_listing,
        "{\"grids\":[{\"id\":0,\"name\":\"survey-a\"},{\"id\":1,\"name\":\"survey-b\"}]}\n"
    );
    print!("GET /grids -> {grids_listing}");

    let done = AtomicBool::new(false);
    let runs: Vec<GridRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = grids
            .iter()
            .zip(&stacks)
            .map(|((_, fleets, load), (_, metrics, recorder, live))| {
                let done = &done;
                scope.spawn(move || {
                    let throttle = Throttle;
                    let sinks: [&dyn GridObserver; 4] = [metrics, recorder, live, &throttle];
                    let fanout = GridFanout::new(&sinks);
                    let run = Grid::session(fleets)
                        .load(load)
                        .backend(ShardBackend::Process(child_config()))
                        .run_with(&fanout)
                        .expect("observed process grid completes");
                    done.store(true, Ordering::SeqCst);
                    run
                })
            })
            .collect();

        // Poll the shared plane while both grids are mid-flight; every
        // payload must parse whatever the interleaving.
        while !done.load(Ordering::SeqCst) {
            assert_eq!(get_ok(addr, "/healthz").body, "ok\n");
            for (id, ..) in &stacks {
                let body = get_ok(addr, &format!("/status/grid/{id}")).body;
                let snapshot =
                    GridStatusSnapshot::from_json(&body).expect("mid-run /status parses");
                assert!(
                    snapshot.completed + snapshot.degraded + snapshot.deadline_misses
                        <= snapshot.placed,
                    "prefix fold: outcomes cannot outrun placements"
                );
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("grid thread panicked"))
            .collect()
    });

    // After the dust settles every grid-scoped endpoint agrees with its
    // own run's ledger — one server, two truths, no cross-talk.
    for ((id, ..), run) in stacks.iter().zip(&runs) {
        assert!(run.proc.as_ref().is_some_and(|p| !p.shards.is_empty()));
        let snapshot =
            GridStatusSnapshot::from_json(&get_ok(addr, &format!("/status/grid/{id}")).body)
                .expect("final /status parses");
        assert_eq!(snapshot.completed, run.report.completed);
        assert_eq!(snapshot.shards.len(), run.report.shards.len());
        let shard0 = get_ok(addr, &format!("/status/grid/{id}/shard/0")).body;
        assert!(!shard0.is_empty());
        let events = get_ok(addr, &format!("/events/grid/{id}?n=100&format=batch")).body;
        let batched = FlightRecorder::from_ndjson_batched(&events).expect("batched NDJSON parses");
        assert!(!batched.is_empty());
        println!(
            "grid {id}: /status/grid/{id} completed {} == ledger {}",
            snapshot.completed, run.report.completed
        );
    }

    // Legacy paths alias the lowest id; unknown grids 404 in JSON.
    assert_eq!(
        get_ok(addr, "/status").body,
        get_ok(addr, "/status/grid/0").body
    );
    get_404(addr, "/status/grid/99");
    get_404(addr, "/metrics/grid/not-a-number");
    println!("legacy /status aliases grid 0; unknown grids answer JSON 404s");

    // Detach is live: survey-b vanishes from the plane mid-flight.
    let id_b = stacks[1].0;
    assert!(directory.detach(id_b));
    get_404(addr, &format!("/status/grid/{id_b}"));
    assert_eq!(
        get_ok(addr, "/grids").body,
        "{\"grids\":[{\"id\":0,\"name\":\"survey-a\"}]}\n"
    );
    println!("detached grid {id_b}: its routes 404, /grids shrank, grid 0 unaffected");
    server.shutdown();

    experiments::out::write_json_report(&ClusterReport {
        healthy: proc_run.report.clone(),
        chaos: chaos_run.report.clone(),
        supervision: chaos_run.proc.clone().expect("ledger present"),
    });
    println!("\nall cluster assertions passed");
}
