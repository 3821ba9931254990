//! The operator plane: watch a grid run over HTTP while it happens.
//!
//! ```sh
//! cargo run --release --example observe
//! ```
//!
//! Every other example reads the ledger *after* the run. This one
//! attaches the observability stack from `dedisp_fleet::obs` — a
//! Prometheus-style metrics registry, a bounded flight recorder, and a
//! continuously folded live status — and serves all three over a
//! dependency-free HTTP endpoint on a loopback port *while* a flapping
//! grid is scheduling. The example then plays its own operator: it
//! polls `/status`, `/metrics`, and `/events` with the bundled
//! blocking client and prints what an `curl` would see.

use dedisp_repro::dedisp_fleet::obs::{
    self, FlightRecorder, GridFanout, GridRegistry, GridStatusSnapshot, LiveGrid, MetricsRegistry,
    ObsServer, ObsState,
};
use dedisp_repro::dedisp_fleet::{
    FaultEvent, Grid, GridFaultPlan, GridObserver, ResolvedFleet, SurveyLoad,
};

fn main() {
    // A pocket grid: two shards of synthetic 0.053 s/beam devices, a
    // device flap on each shard, four seconds of survey.
    let shards = vec![
        ResolvedFleet::synthetic(2000, &[0.053; 3]),
        ResolvedFleet::synthetic(2000, &[0.053; 2]),
    ];
    let load = SurveyLoad::custom(2000, 30, 4);
    let faults = GridFaultPlan::none()
        .with_device_event(
            0,
            1,
            FaultEvent::Flap {
                down_at: 0.4,
                up_at: 1.9,
            },
        )
        .with_device_event(1, 0, FaultEvent::Transient { at: 0.7, count: 2 });

    // The operator plane: metrics + flight recorder + live status, all
    // behind one HTTP server on an ephemeral loopback port.
    let registry = MetricsRegistry::new();
    let metrics = GridRegistry::new(&registry, &[3, 2]);
    let recorder = FlightRecorder::new(4096);
    let live = LiveGrid::new(&[3, 2]);
    let server = ObsServer::bind(
        "127.0.0.1:0",
        ObsState::new(registry.clone(), recorder.clone(), live.clone()),
    )
    .expect("bind a loopback port");
    let addr = server.addr();
    println!("operator plane listening on http://{addr}");
    println!("  GET /status  /status/shard/<i>  /metrics  /events?n=<k>  /healthz\n");

    // Run the grid with every sink attached through one fan-out.
    let sinks: [&dyn GridObserver; 3] = [&metrics, &recorder, &live];
    let run = Grid::session(&shards)
        .load(&load)
        .faults(&faults)
        .run_with(&GridFanout::new(&sinks))
        .expect("observed grid run completes");

    // Play operator: poll the endpoints the way `curl` would.
    let status = obs::get(addr, "/status").expect("GET /status");
    let snapshot = GridStatusSnapshot::from_json(&status.body).expect("status JSON");
    println!(
        "/status      -> {} events folded: {} completed, {} degraded, \
         {} missed, {} rebalanced",
        snapshot.events_folded,
        snapshot.completed,
        snapshot.degraded,
        snapshot.deadline_misses,
        snapshot.rebalances
    );
    assert_eq!(snapshot.completed, run.report.completed);

    let metrics_page = obs::get(addr, "/metrics").expect("GET /metrics");
    let beam_lines: Vec<&str> = metrics_page
        .body
        .lines()
        .filter(|l| l.starts_with("fleet_beams_total"))
        .collect();
    println!(
        "/metrics     -> {} lines; the outcome counters:",
        metrics_page.body.lines().count()
    );
    for line in beam_lines {
        println!("                {line}");
    }

    let events = obs::get(addr, "/events?n=5").expect("GET /events");
    println!(
        "/events?n=5  -> the last {} telemetry events:",
        events.body.lines().count()
    );
    for line in events.body.lines() {
        println!("                {line}");
    }

    // The recorder's full contents replay into the same snapshot the
    // live endpoint served: black-box forensics equal live telemetry.
    let replayed = FlightRecorder::replay(&recorder.tail(usize::MAX), Some(0), 3);
    assert_eq!(replayed, live.shard_snapshot(0).expect("shard 0"));
    println!("\nreplaying the flight recorder reproduces shard 0's live fold exactly");

    server.shutdown();
}
