//! The control-plane workloads: a resolved heterogeneous fleet fed
//! through capture into the scheduler and its observers, in-thread
//! (`survey_control`) and as process-backed grid shards
//! (`survey_grid_proc`).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use dedisp_repro::autotune::{ConfigSpace, Executor, SimExecutor, Tuner, TuningDatabase};
use dedisp_repro::dedisp_fleet::obs::{
    Fanout, FlightRecorder, LiveStatus, MetricsRegistry, RegistryObserver, Span, SpanKind,
    TraceSink,
};
use dedisp_repro::dedisp_fleet::proc::{write_msg, FrameReader, ShardFrame};
use dedisp_repro::dedisp_fleet::{
    ArrivalPattern, ArrivalProcess, BlockFormat, CaptureConfig, CaptureLedger, CaptureRun,
    CaptureSession, FaultPlan, FleetReport, FleetSpec, Grid, GridObserver, GridReport, GridRun,
    Observer, ProcConfig, ResolvedFleet, Scheduler, ShardBackend, TelemetryEvent, TickBatch,
};
use dedisp_repro::manycore_sim::{
    amd_hd7970, nvidia_gtx_titan, nvidia_k20, CostModel, DeviceDescriptor, Workload,
};
use dedisp_repro::radioastro::ObservationalSetup;

use crate::{median, windowed_quantile, Args, Outcome, SplitMix};

/// Trial DMs per beam (the paper's Apertif survey instance).
const TRIALS: usize = 2000;
/// Offered load as a share of the fleet's real-time beam capacity.
const LOAD_SHARE: f64 = 0.9;
/// Wall time spent on back-to-back fleet resolutions (the set-up);
/// `setup_s` is the median resolution.
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Survey seconds each in-thread session schedules.
const SESSION_TICKS: usize = 120;
/// Survey seconds each process-backed grid run schedules: the length
/// of the measurement that sized the process grid's gap (30 ticks of
/// batches), short enough that a run holds about ten grid runs. A run's
/// cost grows faster than its length, so traced runs also time one grid
/// run of `SESSION_TICKS`.
const GRID_TICKS: usize = 30;
/// Shards of the process-backed grid.
const SHARDS: usize = 2;
/// Ticks per stall-then-burst cycle of the in-thread arrivals.
const BURST_CYCLE: usize = 3;
/// Spans the sink may hold per shard between drains.
const SPAN_CAPACITY: usize = 1 << 16;

fn platforms() -> [(DeviceDescriptor, usize); 3] {
    [
        (amd_hd7970(), 12),
        (nvidia_gtx_titan(), 10),
        (nvidia_k20(), 10),
    ]
}

/// Resolves the fleet against a fresh tuning database through the sim
/// tuner — the control plane's set-up — back to back until
/// `SETUP_BUDGET` has passed; returns the fleet and each resolution's
/// wall time.
fn resolve() -> (ResolvedFleet, Vec<f64>) {
    let setup = ObservationalSetup::apertif();
    let mut fleet = None;
    let mut seconds = Vec::new();
    let budget = Instant::now() + SETUP_BUDGET;
    while fleet.is_none() || Instant::now() < budget {
        let start = Instant::now();
        let spec = platforms()
            .into_iter()
            .fold(FleetSpec::new(), |spec, (d, n)| spec.with_group(d, n));
        let resolved = spec
            .resolve(
                &mut TuningDatabase::new(),
                &setup,
                TRIALS,
                &ConfigSpace::paper(),
            )
            .expect("the survey fleet resolves");
        seconds.push(start.elapsed().as_secs_f64());
        fleet = Some(resolved);
    }
    (fleet.expect("at least one resolution"), seconds)
}

/// Times the sim tuner alone on each platform of the fleet.
fn sim_tuning(out: &mut Outcome) {
    let setup = ObservationalSetup::apertif();
    let grid = setup.dm_grid(TRIALS).expect("valid DM grid");
    let workload = Workload::analytic(&setup.name, &setup.band, &grid, setup.sample_rate)
        .expect("valid workload");
    let space = ConfigSpace::paper();
    let (mut configs, mut seconds, mut hd7970_gflops) = (0, 0.0, 0.0);
    for (i, (device, _)) in platforms().into_iter().enumerate() {
        let model = CostModel::exact(device);
        let executor = SimExecutor::new(&model, &workload, &space);
        let start = Instant::now();
        let result = Tuner.tune(&executor);
        seconds += start.elapsed().as_secs_f64();
        configs += executor.configs().len();
        if i == 0 {
            hd7970_gflops = result.best_gflops();
        }
    }
    out.set("tune.s", seconds);
    out.set("tune.configs", configs as f64);
    out.set("tune.configs_per_s", configs as f64 / seconds);
    out.set("tune.best_gflops", hd7970_gflops);
}

/// The fixed fault mix: 10% of devices killed, one flap, and one
/// transient, the latter two on surviving devices chosen by `seed`.
fn fault_plan(devices: usize, seed: u64) -> FaultPlan {
    let mut rng = SplitMix::new(seed);
    let ticks = SESSION_TICKS as f64;
    let plan = FaultPlan::kill_fraction(devices, 0.10, 0.3 * ticks);
    let alive: Vec<usize> = (0..devices)
        .filter(|d| plan.kill_time(*d).is_none())
        .collect();
    let flap = alive[rng.below(alive.len())];
    let down = ticks * (0.4 + 0.2 * rng.unit());
    let transient = alive[rng.below(alive.len())];
    let plan = plan.with_flap(flap, down, down + 5.0).with_transient(
        transient,
        ticks * (0.1 + 0.1 * rng.unit()),
        3,
    );
    plan.validate().expect("the fault plan is consistent");
    plan
}

/// Offered beams per survey second.
fn offered_beams(fleet: &ResolvedFleet) -> usize {
    (fleet.beams_capacity() as f64 * LOAD_SHARE).floor() as usize
}

fn capture_config(beams: usize) -> CaptureConfig {
    let setup = ObservationalSetup::apertif();
    let format = BlockFormat::new(setup.band.channels(), setup.sample_rate as usize);
    CaptureConfig::new(beams, format, TRIALS)
}

/// Per-kind span totals: (count, summed duration in ns).
#[derive(Default)]
struct SpanTotals([(u64, u64); SpanKind::ALL.len()]);

impl SpanTotals {
    fn add(&mut self, spans: &[Span]) {
        for span in spans {
            let slot = &mut self.0[span.kind.index()];
            slot.0 += 1;
            slot.1 += span.dur_ns;
        }
    }

    fn total_ns(&self, kind: SpanKind) -> u64 {
        self.0[kind.index()].1
    }

    fn count(&self, kind: SpanKind) -> u64 {
        self.0[kind.index()].0
    }

    /// Self time per tick of each tick phase, and per frame of the
    /// supervisor phases, in µs. The tick's self time is its span minus
    /// the phase spans nested in it.
    fn report(&self, out: &mut Outcome) {
        let ticks = self.count(SpanKind::Tick).max(1) as f64;
        let phases = [
            (SpanKind::Admit, "phase.admit_us"),
            (SpanKind::Dispatch, "phase.dispatch_us"),
            (SpanKind::Drain, "phase.drain_us"),
            (SpanKind::BatchEncode, "phase.batch_encode_us"),
            (SpanKind::ObserverFlush, "phase.observer_flush_us"),
        ];
        let mut nested = 0;
        for (kind, name) in phases {
            nested += self.total_ns(kind);
            out.set(name, self.total_ns(kind) as f64 / ticks / 1e3);
        }
        let tick_self = self.total_ns(SpanKind::Tick).saturating_sub(nested);
        out.set("phase.tick_us", tick_self as f64 / ticks / 1e3);
        for (kind, name) in [
            (SpanKind::FrameDecode, "phase.frame_decode_us"),
            (SpanKind::LivenessWait, "phase.liveness_wait_us"),
        ] {
            let per = self.count(kind).max(1) as f64;
            out.set(name, self.total_ns(kind) as f64 / per / 1e3);
        }
    }
}

/// Observer-side timing: wall time between successive batches (one per
/// scheduler tick) and the time spent inside the wrapped observers.
#[derive(Default)]
struct BatchClock {
    last: Vec<Option<Instant>>,
    /// Batch intervals, one window per session or grid run.
    intervals_ms: Vec<Vec<f64>>,
    busy: Duration,
    batches: u64,
    events: u64,
}

impl BatchClock {
    fn new(streams: usize) -> Self {
        Self {
            last: vec![None; streams],
            ..Self::default()
        }
    }

    /// Opens the measurement window of the next session or grid run.
    fn start_window(&mut self) {
        self.last.fill(None);
        self.intervals_ms.push(Vec::new());
    }

    /// Records one batch arriving on `stream`; returns its arrival time.
    fn arrive(&mut self, stream: usize, batch: &TickBatch) -> Instant {
        let now = Instant::now();
        if let Some(last) = self.last[stream].replace(now) {
            let window = self.intervals_ms.last_mut().expect("a window is open");
            window.push((now - last).as_secs_f64() * 1e3);
        }
        self.batches += 1;
        self.events += batch.len() as u64;
        now
    }
}

/// Wraps the session's observer stack in a [`BatchClock`].
struct Timed<'a> {
    inner: &'a mut dyn Observer,
    clock: &'a mut BatchClock,
}

impl Observer for Timed<'_> {
    fn observe(&mut self, event: &TelemetryEvent) {
        self.inner.observe(event);
    }

    fn observe_batch(&mut self, batch: &TickBatch) {
        let start = self.clock.arrive(0, batch);
        self.inner.observe_batch(batch);
        self.clock.busy += start.elapsed();
    }
}

/// A [`BatchClock`] on the grid seam, one interval stream per shard.
struct GridClock(Mutex<BatchClock>);

impl GridObserver for GridClock {
    fn observe_grid(&self, _shard: Option<usize>, _event: &TelemetryEvent) {}

    fn observe_grid_batch(&self, shard: Option<usize>, batch: &TickBatch) {
        let mut clock = self.0.lock().expect("grid clock lock poisoned");
        // Front-end (shard-less) batches share the last stream.
        let stream = shard.unwrap_or(SHARDS);
        clock.arrive(stream, batch);
    }
}

/// Loop totals shared by both control workloads.
#[derive(Default)]
struct Totals {
    wall: f64,
    beams: usize,
    /// Per-run beams scheduled per wall second.
    beam_rates: Vec<f64>,
    /// Per-run survey seconds scheduled per wall second.
    tick_rates: Vec<f64>,
}

impl Totals {
    fn add(&mut self, wall: f64, beams: usize, ticks: usize) {
        self.wall += wall;
        self.beams += beams;
        self.beam_rates.push(beams as f64 / wall);
        self.tick_rates.push(ticks as f64 / wall);
    }
}

/// Sets the throughput and tick metrics. Each session or grid run is one
/// measurement window: rates and percentiles are taken per window and
/// the median window is reported, so a burst of host contention
/// confined to a few windows does not move the result.
fn set_throughput(out: &mut Outcome, totals: &mut Totals, clock: &mut BatchClock, traced: bool) {
    let beams_per_s = median(&mut totals.beam_rates);
    let realtime = median(&mut totals.tick_rates);
    let windows = &mut clock.intervals_ms;
    let (p50, p99) = (
        windowed_quantile(windows, 0.5),
        windowed_quantile(windows, 0.99),
    );
    let samples: usize = windows.iter().map(Vec::len).sum();
    println!(
        "control: {beams_per_s:.0} beams/s, {realtime:.1} survey-s/s (median of {} runs over {:.1} s); tick p50 {p50:.3} ms p99 {p99:.3} ms ({samples} samples)",
        totals.beam_rates.len(),
        totals.wall,
    );
    out.set("realtime_factor", realtime);
    out.set("beams_per_s", beams_per_s);
    // A control-plane chunk is one tick's batch of beams: its latency
    // through the plane is the tick's wall time.
    out.set("chunk_latency_p50_ms", p50);
    out.set("chunk_latency_p99_ms", p99);
    out.set("tick_p50_ms", p50);
    out.set("tick_p99_ms", p99);
    if traced {
        out.set("traced.realtime_factor", realtime);
        out.set("traced.beams_per_s", beams_per_s);
        out.set("chunk_latency.samples", samples as f64);
        out.set("tick.samples", samples as f64);
    }
}

/// A report's JSON with the racy per-device queue high-water mark
/// zeroed, as the repository's own determinism checks compare them.
fn fingerprint(report: &FleetReport) -> String {
    let mut n = report.clone();
    for d in &mut n.devices {
        d.max_queue_depth = 0;
    }
    n.to_json()
}

/// [`fingerprint`] for a grid report.
fn grid_fingerprint(report: &GridReport) -> String {
    let mut n = report.clone();
    for shard in &mut n.shards {
        for d in &mut shard.devices {
            d.max_queue_depth = 0;
        }
    }
    n.to_json()
}

/// What every `survey_control` session runs: the fleet, its offered
/// load, and its fault plan.
struct Survey {
    fleet: ResolvedFleet,
    config: CaptureConfig,
    beams: usize,
    faults: FaultPlan,
    seed: u64,
}

/// What one survey session produced and how long it took.
struct SessionRun {
    ledger: CaptureLedger,
    report: FleetReport,
    /// Telemetry events in the session's run log.
    events: usize,
    ingest_s: f64,
    wall_s: f64,
}

impl Survey {
    /// One session: capture ingest of bursty arrivals, then the in-thread
    /// scheduler under the fault plan, with the full observer stack
    /// behind `clock`.
    fn session(&self, sink: Option<&TraceSink>, clock: &mut BatchClock) -> SessionRun {
        let start = Instant::now();
        let mut session = CaptureSession::new(self.config).expect("valid capture config");
        if let Some(sink) = sink {
            session = session.trace(sink);
        }
        let source = ArrivalProcess::new(
            self.beams,
            SESSION_TICKS,
            self.config.period_s,
            ArrivalPattern::Bursty {
                cycle_ticks: BURST_CYCLE,
            },
            self.seed,
        );
        let capture = session
            .ingest(source)
            .expect("arrivals honor the source contract");
        let ingest_s = start.elapsed().as_secs_f64();
        let registry = MetricsRegistry::new();
        let mut registry_observer = RegistryObserver::new(&registry, self.fleet.len());
        let mut recorder = FlightRecorder::new(4096);
        let mut live = LiveStatus::new(self.fleet.len());
        let mut stack = Fanout::new()
            .with(&mut registry_observer)
            .with(&mut recorder)
            .with(&mut live);
        clock.start_window();
        let mut timed = Timed {
            inner: &mut stack,
            clock,
        };
        let mut scheduler = Scheduler::session(&self.fleet)
            .capture(&capture)
            .faults(&self.faults);
        if let Some(sink) = sink {
            scheduler = scheduler.trace(sink);
        }
        let run = scheduler
            .run_with(&mut timed)
            .expect("the survey schedules");
        SessionRun {
            ledger: capture.ledger,
            report: run.report,
            events: run.log.len(),
            ingest_s,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Checks one session's ledgers and that the observers behind
    /// `clock` saw `events_seen` events of it.
    fn check(&self, run: &SessionRun, events_seen: u64, out: &mut Outcome) {
        let (ledger, report) = (&run.ledger, &run.report);
        if !(ledger.conservation_ok() && ledger.final_backlog == 0) {
            out.problem(format!("capture ledger does not reconcile: {ledger:?}"));
        }
        if !report.conservation_ok() || report.admitted != ledger.scheduled + ledger.degraded {
            out.problem("scheduler ledger lost or invented a beam".to_string());
        }
        if events_seen != run.events as u64 {
            out.problem("observers missed telemetry events".to_string());
        }
    }
}

/// `survey_control`: capture ingest, the in-thread scheduler under a
/// fault plan, and the full observer stack, session after session.
pub fn run_survey(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (fleet, mut setup_s) = resolve();
    let beams = offered_beams(&fleet);
    let survey = Survey {
        faults: fault_plan(fleet.len(), args.seed),
        config: capture_config(beams),
        beams,
        fleet,
        seed: args.seed,
    };
    println!(
        "fleet: {} devices, capacity {} beams/s, offered {beams} beams/s over {SESSION_TICKS} s per session, {} faulted devices",
        survey.fleet.len(),
        survey.fleet.beams_capacity(),
        survey.faults.len()
    );
    let sink = args.trace.then(|| TraceSink::new(SPAN_CAPACITY));
    let mut spans = SpanTotals::default();
    let mut clock = BatchClock::new(1);
    let mut totals = Totals::default();
    let (mut ingest_s, mut arrivals, mut sessions) = (0.0, 0usize, 0usize);
    let mut first: Option<(String, SessionRun)> = None;
    let mut end = None;
    loop {
        // Session 0 warms caches and allocators and is not counted.
        let measured = first.is_some();
        if measured && end.is_none() {
            end = Some(Instant::now() + Duration::from_secs_f64(args.seconds));
            clock = BatchClock::new(1);
        }
        if end.is_some_and(|end| Instant::now() >= end) {
            break;
        }
        let events_before = clock.events;
        let run = survey.session(sink.as_ref(), &mut clock);
        survey.check(&run, clock.events - events_before, &mut out);
        if let Some(sink) = &sink {
            let drained = sink.drain();
            if measured {
                spans.add(&drained);
            }
        }
        let print = fingerprint(&run.report);
        let Some((expected, _)) = &first else {
            let (ledger, report) = (&run.ledger, &run.report);
            println!(
                "session: {} arrivals, {} dropped, {} admitted, {} completed, {} degraded, {} missed, {} shed; {} bounces, {} retries, {} recoveries",
                ledger.arrivals,
                ledger.dropped,
                report.admitted,
                report.completed,
                report.degraded,
                report.deadline_misses,
                report.shed_whole,
                report.bounced,
                report.retries,
                report.recoveries
            );
            first = Some((print, run));
            continue;
        };
        if *expected != print {
            out.problem("a repeated session produced a different ledger".to_string());
        }
        let (ledger, report) = (&run.ledger, &run.report);
        out.attempted += ledger.arrivals as u64;
        out.failed += (report.shed_whole + report.deadline_misses + ledger.dropped) as u64;
        totals.add(run.wall_s, report.admitted, report.ticks);
        ingest_s += run.ingest_s;
        arrivals += ledger.arrivals;
        sessions += 1;
    }
    set_throughput(&mut out, &mut totals, &mut clock, args.trace);
    out.set("setup_s", median(&mut setup_s));
    println!(
        "{sessions} measured sessions; set-up (fleet resolution) median {:.4} s of {}",
        median(&mut setup_s),
        setup_s.len()
    );
    if !args.trace {
        return out;
    }
    let sink = sink.expect("traced runs carry a sink");
    if sink.dropped() > 0 {
        out.problem(format!("trace sink dropped {} spans", sink.dropped()));
    }
    let (_, first) = first.expect("at least one session ran");
    let busy = clock.busy.as_secs_f64();
    let sched = totals.wall - ingest_s - busy;
    out.set("resolve.s", median(&mut setup_s));
    sim_tuning(&mut out);
    out.set(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("capture.ingest_s", ingest_s / sessions as f64);
    out.set("capture.blocks_per_s", arrivals as f64 / ingest_s);
    out.set("capture.drops", first.ledger.dropped as f64);
    out.set("sched.us_per_beam", sched / totals.beams as f64 * 1e6);
    out.set("sched.share", sched / totals.wall);
    out.set("sched.bounces", first.report.bounced as f64);
    out.set("sched.retries", first.report.retries as f64);
    out.set("sched.sheds", first.report.shed_whole as f64);
    out.set("observer.us_per_batch", busy / clock.batches as f64 * 1e6);
    out.set("observer.events_per_s", clock.events as f64 / busy);
    out.set("observer.share", busy / totals.wall);
    spans.report(&mut out);
    out
}

/// Splits `fleet` into `SHARDS` interleaved shards, so each holds the
/// same platform mix.
fn shards(fleet: &ResolvedFleet) -> Vec<ResolvedFleet> {
    (0..SHARDS)
        .map(|shard| {
            let mut devices: Vec<_> = fleet
                .devices
                .iter()
                .skip(shard)
                .step_by(SHARDS)
                .cloned()
                .collect();
            for (id, d) in devices.iter_mut().enumerate() {
                d.id = id;
            }
            ResolvedFleet {
                setup: fleet.setup.clone(),
                trials: fleet.trials,
                devices,
            }
        })
        .collect()
}

/// Frame codec throughput over a run's own batches: (frame bytes,
/// encode MB/s, decode MB/s).
fn frame_codec(run: &GridRun, out: &mut Outcome) -> (usize, f64, f64) {
    let frames: Vec<ShardFrame> = run
        .shard_runs
        .iter()
        .flat_map(|r| r.log.batches().cloned().map(ShardFrame::Batch))
        .collect();
    let mut bytes = Vec::new();
    let start = Instant::now();
    for frame in &frames {
        write_msg(&mut bytes, frame).expect("writing to memory cannot fail");
    }
    let encode_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut reader = FrameReader::new(bytes.as_slice());
    let mut decoded = 0;
    while let Some(frame) = reader.read_msg::<ShardFrame>().expect("own frames decode") {
        if frame != frames[decoded] {
            out.problem(format!("frame {decoded} did not survive encode and decode"));
        }
        decoded += 1;
    }
    let decode_s = start.elapsed().as_secs_f64();
    if decoded != frames.len() {
        out.problem(format!("decoded {decoded} of {} frames", frames.len()));
    }
    let mb = bytes.len() as f64 / 1e6;
    (bytes.len(), mb / encode_s, mb / decode_s)
}

/// Jittered arrivals of `beams` per survey second over `ticks` seconds;
/// the jitter makes the per-tick load depend on the seed.
fn grid_capture(beams: usize, ticks: usize, seed: u64) -> CaptureRun {
    CaptureSession::new(capture_config(beams))
        .expect("valid capture config")
        .ingest(ArrivalProcess::new(
            beams,
            ticks,
            1.0,
            ArrivalPattern::Jittered { max_jitter_s: 0.5 },
            seed,
        ))
        .expect("arrivals honor the source contract")
}

/// Whether a process-backed grid run reproduces the in-thread run of the
/// same shards and load (report with `max_queue_depth` zeroed, beam
/// records, and event stream), with no shard degraded to in-thread
/// execution.
fn same_as_in_thread(run: &GridRun, in_thread: &GridRun) -> bool {
    grid_fingerprint(&run.report) == grid_fingerprint(&in_thread.report)
        && run.records == in_thread.records
        && run.events == in_thread.events
        && run.proc.as_ref().is_some_and(|p| !p.any_degraded())
}

/// `survey_grid_proc`: the same fleet as two shards, each a supervised
/// child process (this binary re-executed with `--child`), with no
/// faults.
pub fn run_grid(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (fleet, mut setup_s) = resolve();
    let shards = shards(&fleet);
    let beams = offered_beams(&fleet);
    let capture = grid_capture(beams, GRID_TICKS, args.seed);
    let load = &capture.load;
    println!(
        "grid: {SHARDS} process shards of {} devices, {} beams over {GRID_TICKS} s per run",
        shards[0].len(),
        capture.ledger.scheduled
    );
    let in_thread = Grid::session(&shards)
        .load(load)
        .run()
        .expect("the in-thread grid schedules");
    let proc_config = ProcConfig::current_exe()
        .expect("the benchmark binary resolves")
        .arg("--child")
        .liveness(Duration::from_secs(30));
    let sink = args.trace.then(|| TraceSink::new(SPAN_CAPACITY));
    let clock = GridClock(Mutex::new(BatchClock::new(SHARDS + 1)));
    let mut spans = SpanTotals::default();
    let mut totals = Totals::default();
    let (mut frames, mut restarts, mut deduped, mut runs) = (0u64, 0u64, 0u64, 0usize);
    let mut last_run = None;
    let mut end = None;
    loop {
        let measured = last_run.is_some();
        if measured && end.is_none() {
            end = Some(Instant::now() + Duration::from_secs_f64(args.seconds));
            *clock.0.lock().expect("grid clock lock poisoned") = BatchClock::new(SHARDS + 1);
        }
        if end.is_some_and(|end| Instant::now() >= end) {
            break;
        }
        clock
            .0
            .lock()
            .expect("grid clock lock poisoned")
            .start_window();
        let start = Instant::now();
        let mut session = Grid::session(&shards)
            .load(load)
            .backend(ShardBackend::Process(proc_config.clone()));
        if let Some(sink) = &sink {
            session = session.trace(sink);
        }
        let run = session
            .run_with(&clock)
            .expect("the process grid schedules");
        let wall = start.elapsed().as_secs_f64();
        if !same_as_in_thread(&run, &in_thread) {
            out.problem("process-backed ledger differs from the in-thread ledger".to_string());
        }
        if !run.report.conservation_ok() {
            out.problem("grid ledger lost or invented a beam".to_string());
        }
        let ledger = run
            .proc
            .as_ref()
            .expect("process runs carry a supervision ledger");
        if let Some(sink) = &sink {
            let drained = sink.drain();
            if measured {
                spans.add(&drained);
            }
        }
        if measured {
            totals.add(wall, run.report.admitted, run.report.ticks);
            frames += ledger
                .shards
                .iter()
                .map(|s| s.frames_forwarded)
                .sum::<u64>();
            restarts += u64::from(ledger.total_restarts());
            deduped += ledger.shards.iter().map(|s| s.deduped_frames).sum::<u64>();
            runs += 1;
            out.attempted += run.report.admitted as u64;
            out.failed += (run.report.shed_whole + run.report.deadline_misses) as u64;
        }
        last_run = Some(run);
    }
    let mut clock = clock.0.into_inner().expect("grid clock lock poisoned");
    set_throughput(&mut out, &mut totals, &mut clock, args.trace);
    out.set("setup_s", median(&mut setup_s));
    println!("{runs} measured process-grid runs");
    if !args.trace {
        return out;
    }
    let sink = sink.expect("traced runs carry a sink");
    if sink.dropped() > 0 {
        out.problem(format!("trace sink dropped {} spans", sink.dropped()));
    }
    let run = last_run.expect("at least one grid run");
    out.set("resolve.s", median(&mut setup_s));
    sim_tuning(&mut out);
    out.set(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("proc.frames", frames as f64 / runs as f64);
    out.set("proc.restarts", restarts as f64);
    out.set("proc.deduped_frames", deduped as f64);
    let (bytes, encode_mbs, decode_mbs) = frame_codec(&run, &mut out);
    out.set(
        "proc.bytes_per_beam",
        bytes as f64 / run.report.admitted as f64,
    );
    out.set("proc.encode_mbs", encode_mbs);
    out.set("proc.decode_mbs", decode_mbs);
    spans.report(&mut out);
    // The same shards and load, in-thread, as the baseline.
    let start = Instant::now();
    let mut in_thread_beams = 0;
    while start.elapsed() < Duration::from_secs(2) {
        let run = Grid::session(&shards)
            .load(load)
            .run()
            .expect("the in-thread grid schedules");
        in_thread_beams += run.report.admitted;
    }
    out.set(
        "grid.inthread_beams_per_s",
        in_thread_beams as f64 / start.elapsed().as_secs_f64(),
    );
    // One process-backed run of a whole survey session, so the growth of
    // a run's cost with its length stays visible.
    let long = grid_capture(beams, SESSION_TICKS, args.seed);
    let in_thread = Grid::session(&shards)
        .load(&long.load)
        .run()
        .expect("the in-thread grid schedules");
    let start = Instant::now();
    let run = Grid::session(&shards)
        .load(&long.load)
        .backend(ShardBackend::Process(proc_config))
        .run()
        .expect("the process grid schedules");
    let long_rate = run.report.admitted as f64 / start.elapsed().as_secs_f64();
    if !same_as_in_thread(&run, &in_thread) {
        out.problem("long process-backed run differs from the in-thread run".to_string());
    }
    println!(
        "grid run length: {long_rate:.0} beams/s over {SESSION_TICKS} s against {:.0} over {GRID_TICKS} s",
        out.metrics["traced.beams_per_s"]
    );
    out.set("grid.long_run_beams_per_s", long_rate);
    out
}
