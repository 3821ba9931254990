//! The beam scheduler: placement, admission control, and recovery.
//!
//! The scheduler runs a virtual-time simulation inline: the dispatcher
//! hands each placement or health probe to the device's
//! `VirtualDevice`, which answers at once with one reply queued for
//! the dispatcher to observe.
//!
//! A run is configured as a builder-style *session*:
//!
//! ```ignore
//! let run = Scheduler::session(&fleet)
//!     .load(&load)
//!     .faults(&plan)
//!     .run()?;
//! ```
//!
//! The load reaches the scheduler only through the [`LoadSource`]
//! trait, so survey cadences, grid shards, and future async capture
//! front-ends all plug into the same session without touching this
//! module.
//!
//! Placement is greedy earliest-predicted-finish: each beam goes to the
//! eligible device that the cost model says will finish it soonest. For
//! a feasible fleet this is optimal in the §V-D sense — if per-device
//! capacities sum to at least the batch size, some device can always
//! absorb one more beam within the period, so the minimum-finish device
//! certainly can.
//!
//! Admission control works against the real-time deadline budget at
//! batch granularity, but the decision itself is delegated: before a
//! tick's beams are placed, the dispatcher builds a
//! [`CapacityView`](crate::CapacityView) of its devices and asks the
//! session's [`AdmissionPolicy`] (default
//! [`PerDeviceGreedy`](crate::PerDeviceGreedy), which reproduces the
//! historical inline arithmetic exactly) for a ruling. Individual beams
//! under further pressure (e.g. re-placed orphans) shed extra tiers on
//! their own; every shed is recorded. A beam that cannot fit even at
//! maximum shed runs anyway, at full resolution, and is reported as a
//! deadline miss. A grid-scope controller may additionally impose
//! per-tick admission *ceilings* ([`Session::admission_ceilings`]); the
//! dispatcher admits at the lower of its own level and the ceiling.
//!
//! Every observable fact of a run — admission rulings, placements,
//! bounces, retries, probes, health transitions, terminal outcomes —
//! is emitted as a [`TelemetryEvent`] on one unified stream. The
//! report is a fold over that stream; live consumers can subscribe by
//! passing an [`Observer`] to [`Session::run_with`] — the whole
//! [`crate::obs`] operator plane (metrics registry, flight recorder,
//! live status, HTTP endpoint) attaches through this one seam, so the
//! dispatcher hot path never learns about metrics or servers.
//!
//! # Faults, evidence, and health
//!
//! Faults are discovered, not announced: the [`FaultPlan`] is wired
//! into the virtual devices, and a down device *bounces* everything it is
//! handed. The dispatcher never reads the plan; it runs a per-device
//! health state machine driven purely by observed evidence:
//!
//! ```text
//! Healthy --bounce / repeated late finishes--> Suspect
//! Suspect --probe answered--> Probation      Suspect --probe down--> Quarantined
//! Quarantined --probe answered (after growing backoff)--> Probation
//! Probation --canary beam on time--> Healthy
//! Probation --canary bounced or late--> Quarantined
//! ```
//!
//! Only `Healthy` devices take normal work (and count toward admission
//! capacity); a `Probation` device takes exactly one *canary* beam at a
//! time. Bounced beams are re-placed under a bounded retry budget with
//! deterministic exponential backoff, and shed whole — loudly — when
//! the budget runs out or nobody eligible remains. Every admitted beam
//! therefore ends in exactly one reported outcome; nothing is lost
//! silently.
//!
//! # Determinism
//!
//! The dispatcher observes device replies at fixed points: after each
//! placement (and after each tick's probe burst) it handles every
//! queued reply ordered by virtual time, repeating until none is left.
//! Nothing runs concurrently, so identical `(fleet, load, plan,
//! config)` inputs produce identical reports and ledgers — faulted
//! runs included.

use crate::admission::{
    AdmissionDecision, AdmissionPolicy, BeamDemand, CapacityView, DeviceCapacity, PerDeviceGreedy,
    TierLadder, DEADLINE_EPS,
};
use crate::batch::{EventLog, TickBatch};
use crate::capture::CaptureRun;
use crate::descriptor::{AlgorithmRate, FleetError, ResolvedFleet};
use crate::fault::{DeviceFaults, FaultPlan, Gate};
use crate::load::LoadSource;
use crate::metrics::{
    BeamOutcome, BeamRecord, FleetReport, HealthCause, HealthEvent, HealthState, ShedReason,
    ShedRecord,
};
use crate::obs::trace::{Span, SpanKind, TraceSink};
use crate::survey::BeamJob;
use crate::telemetry::{NullObserver, Observer, StatusSnapshot, TelemetryEvent};
use manycore_sim::Algorithm;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Tunables for the scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Number of equal DM tiers a beam is divided into for shedding.
    pub shed_tiers: usize,
    /// Most tiers admission control may shed from one beam.
    pub max_shed_tiers: usize,
    /// Most times one beam may be re-placed after bouncing before it
    /// is shed whole ([`ShedReason::RetryBudgetExhausted`]).
    pub retry_budget: usize,
    /// Base of the retry backoff: the first re-placement is immediate,
    /// the `k`-th (k ≥ 2) waits `retry_backoff_s × 2^(k-2)` virtual
    /// seconds. Zero (the default) keeps every retry immediate.
    pub retry_backoff_s: f64,
    /// Consecutive late completions before a device turns `Suspect`.
    pub late_suspect_after: usize,
    /// Initial quarantine re-probe backoff, virtual seconds; doubles
    /// after every failed probe.
    pub probe_backoff_s: f64,
    /// Ceiling on the quarantine re-probe backoff.
    pub probe_backoff_cap_s: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            shed_tiers: 8,
            max_shed_tiers: 4,
            retry_budget: 16,
            retry_backoff_s: 0.0,
            late_suspect_after: 2,
            probe_backoff_s: 0.25,
            probe_backoff_cap_s: 4.0,
        }
    }
}

/// The result of a run: the exportable report plus the full ledger and
/// the telemetry stream the report was folded from.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Aggregated, serializable summary.
    pub report: FleetReport,
    /// Terminal state of every admitted beam, in job-index order.
    pub records: Vec<BeamRecord>,
    /// The unified telemetry stream, in emission order, carried in the
    /// batched [`EventLog`] encoding (one sealed [`crate::TickBatch`]
    /// per dispatcher tick). The report is a fold over exactly these
    /// events; any prefix folds into a [`StatusSnapshot`].
    pub log: EventLog,
}

impl FleetRun {
    /// Folds the full telemetry stream into the run's final status
    /// snapshot.
    pub fn status(&self) -> StatusSnapshot {
        StatusSnapshot::from_log(self.report.devices.len(), &self.log)
    }
}

/// One beam placed on one device, with its predicted window.
#[derive(Debug, Clone, Copy)]
struct Assignment {
    job: BeamJob,
    device: usize,
    kept_trials: usize,
    start: f64,
    finish: f64,
    /// How many times this beam has been placed (1 on first placement).
    attempt: usize,
    /// Whether this is the probation canary for its device.
    canary: bool,
}

/// What a device replies — exactly one reply per beam or probe.
enum Event {
    /// A beam ran to completion (possibly late, possibly past its
    /// deadline).
    Finished {
        assignment: Assignment,
        actual_finish: f64,
    },
    /// A beam bounced off a down (or glitching) device at virtual time
    /// `at`.
    Bounced { assignment: Assignment, at: f64 },
    /// A health probe came back.
    Probed { device: usize, at: f64, up: bool },
}

impl Event {
    /// Total order for deterministic processing: virtual time, then
    /// kind, then device, then beam.
    fn key(&self) -> (f64, u8, usize, usize) {
        match self {
            Event::Bounced { assignment, at } => (*at, 0, assignment.device, assignment.job.index),
            Event::Finished {
                assignment,
                actual_finish,
            } => (*actual_finish, 1, assignment.device, assignment.job.index),
            Event::Probed { device, at, .. } => (*at, 2, *device, 0),
        }
    }
}

/// Entry point for fleet scheduling.
///
/// `Scheduler` is only a namespace: [`Scheduler::session`] opens a
/// builder-style [`Session`], mirrored at grid scope by
/// [`crate::Grid::session`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Scheduler;

/// A builder-style scheduling session over one fleet.
///
/// Created by [`Scheduler::session`]; configure it with [`load`]
/// (required), [`faults`], and [`config`], then [`run`] it.
///
/// [`load`]: Session::load
/// [`faults`]: Session::faults
/// [`config`]: Session::config
/// [`run`]: Session::run
#[derive(Clone)]
pub struct Session<'a> {
    config: SchedulerConfig,
    fleet: &'a ResolvedFleet,
    load: Option<&'a dyn LoadSource>,
    faults: Option<&'a FaultPlan>,
    policy: &'a dyn AdmissionPolicy,
    ceilings: Option<&'a [usize]>,
    prelude: Option<&'a EventLog>,
    trace: Option<TraceSink>,
    trace_shard: Option<usize>,
}

impl Scheduler {
    /// Opens a scheduling session over `fleet` with default tunables.
    ///
    /// The session must be given a load before it can run; a fault
    /// plan is optional (none by default), as is the admission policy
    /// (the historical [`PerDeviceGreedy`] by default).
    pub fn session(fleet: &ResolvedFleet) -> Session<'_> {
        Session {
            config: SchedulerConfig::default(),
            fleet,
            load: None,
            faults: None,
            policy: &PerDeviceGreedy,
            ceilings: None,
            prelude: None,
            trace: None,
            trace_shard: None,
        }
    }
}

impl<'a> Session<'a> {
    /// Overrides the scheduler tunables for this session.
    #[must_use]
    pub fn config(mut self, config: SchedulerConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the load the session will schedule (required).
    #[must_use]
    pub fn load(mut self, load: &'a dyn LoadSource) -> Self {
        self.load = Some(load);
        self
    }

    /// Sets the failure schedule (defaults to no failures).
    #[must_use]
    pub fn faults(mut self, faults: &'a FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the admission policy (defaults to [`PerDeviceGreedy`], the
    /// historical behaviour).
    #[must_use]
    pub fn policy(mut self, policy: &'a dyn AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Imposes per-tick admission ceilings (kept trials, one entry per
    /// tick): the dispatcher admits each tick at the lower of its own
    /// policy's level and the ceiling, snapped to the tier ladder.
    /// Ticks beyond the slice are unconstrained. This is how a
    /// grid-scope controller threads its coordinated plan into a shard.
    #[must_use]
    pub fn admission_ceilings(mut self, ceilings: &'a [usize]) -> Self {
        self.ceilings = Some(ceilings);
        self
    }

    /// Feeds the session from a capture front-end run (see
    /// [`crate::capture`]): sets the run's [`crate::CaptureLoad`] as
    /// the load, imposes the per-tick admission ceilings its
    /// `NarrowDmPlan` pressure derived, and replays the run's
    /// [`TelemetryEvent::Capture`] stream into the session's telemetry
    /// ahead of the scheduling events — so observers, snapshots, and
    /// the returned [`FleetRun::log`] all see the edge. The replay is
    /// batch-wise: the capture log's sealed drain-window batches are
    /// appended whole, never re-encoded event by event.
    #[must_use]
    pub fn capture(mut self, run: &'a CaptureRun) -> Self {
        self.load = Some(&run.load);
        self.ceilings = Some(run.load.ceilings());
        self.prelude = Some(&run.log);
        self
    }

    /// Attaches a tracing sink (see [`crate::obs::trace`]): the tick
    /// loop records wall-clock phase spans (admit / dispatch / drain /
    /// batch-encode / observer-flush, under a per-tick umbrella)
    /// through the [`TraceSink`] seam. Spans never enter the run's
    /// ledger — a traced run's [`FleetRun`] is byte-identical to an
    /// untraced one.
    #[must_use]
    pub fn trace(mut self, sink: &TraceSink) -> Self {
        self.trace = Some(sink.clone());
        self
    }

    /// Tags this session's spans with a shard id (grid shards set
    /// this so one sink serves a whole grid).
    pub(crate) fn trace_shard(mut self, shard: usize) -> Self {
        self.trace_shard = Some(shard);
        self
    }

    /// Runs the session to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`FleetError`] for a session without a load, an empty
    /// fleet, a zero-trial load, a negative per-beam cost, an invalid
    /// fault plan (empty flap/slowdown windows, sub-unity slowdown
    /// factors, zero-beam transients, non-finite times), or
    /// (defensively) if any beam fails to reach a terminal state.
    pub fn run(self) -> Result<FleetRun, FleetError> {
        self.run_with(&mut NullObserver)
    }

    /// Runs the session to completion, forwarding the telemetry
    /// stream to `observer` as one [`TickBatch`] per tick boundary
    /// (the returned [`FleetRun::log`] still carries the full
    /// stream). Observers that only implement the per-event
    /// [`Observer::observe`] see every event in order via the
    /// compatibility default of [`Observer::observe_batch`].
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run_with(self, observer: &mut dyn Observer) -> Result<FleetRun, FleetError> {
        let fleet = self.fleet;
        let load = self
            .load
            .ok_or_else(|| FleetError::new("session has no load (call .load(...))"))?;
        let no_faults = FaultPlan::none();
        let faults = self.faults.unwrap_or(&no_faults);
        faults.validate()?;
        if fleet.is_empty() {
            return Err(FleetError::new("cannot schedule on an empty fleet"));
        }
        if load.trials() == 0 {
            return Err(FleetError::new("load must have at least one trial DM"));
        }
        if fleet.devices.iter().any(|d| d.seconds_per_beam < 0.0) {
            return Err(FleetError::new("negative seconds-per-beam"));
        }
        let mut dispatcher = Dispatcher::new(
            fleet,
            load,
            faults,
            &self.config,
            self.policy,
            self.ceilings,
            observer,
        );
        // The sink is wall-clock-only instrumentation: nothing a span
        // records ever reaches the batch, the log, or the report.
        dispatcher.spans = self.trace.map(|sink| TickSpans {
            sink,
            shard: self.trace_shard,
            timings: Vec::with_capacity(SpanKind::ALL.len()),
        });
        // A capture-fed session replays the ingest-side events first:
        // the capture stream predates every scheduling decision. The
        // prelude arrives already batched (one block per drain
        // window), so it is forwarded and logged batch-wise.
        if let Some(prelude) = self.prelude {
            dispatcher.replay_prelude(prelude);
        }

        let mut next_index = 0usize;
        for tick in 0..load.ticks() {
            dispatcher.tick = tick as u64;
            let tick_start = dispatcher.span_start();
            let release = load.release(tick);
            let deadline = load.deadline(tick);
            let beams = load.beams_at(tick);
            let started = dispatcher.span_start();
            dispatcher.send_due_probes(release);
            dispatcher.observe();
            dispatcher.span_end(SpanKind::Drain, started);
            let started = dispatcher.span_start();
            let directive = dispatcher.admit_tick_reserving(tick, release, deadline, beams);
            dispatcher.span_end(SpanKind::Admit, started);
            let started = dispatcher.span_start();
            for beam in 0..beams {
                let job = BeamJob {
                    index: next_index,
                    tick,
                    beam,
                    release,
                    deadline,
                };
                next_index += 1;
                match directive {
                    TickDirective::Place { kept, cascade } => {
                        dispatcher.place(job, job.release, kept, 1, cascade);
                    }
                    TickDirective::ShedAll(reason) => dispatcher.shed_whole(job, reason),
                }
                dispatcher.observe();
            }
            dispatcher.span_end(SpanKind::Dispatch, started);
            // One tick, one batch: every event this tick encoded
            // reaches the live observer at this deterministic
            // boundary and lands in the run log as one block.
            dispatcher.flush();
            dispatcher.span_end(SpanKind::Tick, tick_start);
            dispatcher.record_spans();
        }

        let records: Vec<BeamRecord> = std::mem::take(&mut dispatcher.records)
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| FleetError::new("beam lost without a terminal outcome"))?;
        let busy_s: Vec<f64> = dispatcher.devices.iter().map(|d| d.busy).collect();
        let beams_done: Vec<usize> = dispatcher.devices.iter().map(|d| d.done).collect();
        let died_at: Vec<Option<f64>> = (0..fleet.len()).map(|d| faults.kill_time(d)).collect();
        let log = std::mem::take(&mut dispatcher.log);
        drop(dispatcher);
        let report = FleetReport::build(fleet, load, &log, &busy_s, &beams_done, &died_at);
        Ok(FleetRun {
            report,
            records,
            log,
        })
    }
}

/// A traced session's sink plus the tick's raw phase timings: each
/// phase costs two clock reads inside the tick, while converting and
/// recording the spans (a lock and a ring entry each) waits until the
/// tick span has closed.
struct TickSpans {
    sink: TraceSink,
    /// Shard tag for recorded spans (grid shards set this).
    shard: Option<usize>,
    /// `(phase, started, ended)` for the tick in flight.
    timings: Vec<(SpanKind, Instant, Instant)>,
}

/// What the admission policy's ruling means for the tick's beams.
#[derive(Debug, Clone, Copy)]
enum TickDirective {
    /// Place every beam, preferring `kept` trials; `cascade` allows
    /// per-beam shedding of further tiers under deadline pressure.
    Place { kept: usize, cascade: bool },
    /// Shed the whole batch with this reason.
    ShedAll(ShedReason),
}

/// Dispatcher state: the virtual clocks, health beliefs, and the beam
/// ledger.
struct Dispatcher<'s> {
    /// Per-device predicted time the device frees up.
    avail: Vec<f64>,
    /// Per-device health belief, from observed evidence only.
    health: Vec<HealthState>,
    /// Full-resolution seconds-per-beam, per device, *on the current
    /// algorithm*.
    spb: Vec<f64>,
    /// The algorithm each device is currently running.
    algorithm: Vec<Algorithm>,
    /// Per-device rate tables, fidelity order (primary first).
    rates: Vec<Vec<AlgorithmRate>>,
    /// The simulated devices, id order.
    devices: Vec<VirtualDevice>,
    /// Device replies not yet observed.
    pending: Vec<Event>,
    /// One slot per admitted beam.
    records: Vec<Option<BeamRecord>>,
    trials: usize,
    /// The load's shed-tier ladder.
    ladder: TierLadder,
    /// The session's admission policy.
    policy: &'s dyn AdmissionPolicy,
    /// Per-tick admission ceilings from a grid-scope controller.
    ceilings: Option<&'s [usize]>,
    /// The tick in flight, SoA-encoded; flushed at tick boundaries.
    batch: TickBatch,
    /// The unified telemetry stream, one sealed batch per tick.
    log: EventLog,
    /// Live subscriber to the stream.
    observer: &'s mut dyn Observer,
    /// The tick's phase spans, when the session is traced (never
    /// touches the batch or the log contents).
    spans: Option<TickSpans>,
    /// The tick in flight, for span tagging.
    tick: u64,
    /// Consecutive late completions per device.
    late_strikes: Vec<usize>,
    /// Whether a probe is in flight per device.
    probe_pending: Vec<bool>,
    /// Earliest virtual time the next probe may go out, per device.
    probe_at: Vec<f64>,
    /// Current quarantine re-probe backoff, per device.
    probe_backoff: Vec<f64>,
    /// Whether the probation canary is in flight, per device.
    canary_in_flight: Vec<bool>,
    retry_budget: usize,
    retry_backoff_s: f64,
    late_suspect_after: usize,
    probe_backoff_s: f64,
    probe_backoff_cap_s: f64,
}

impl<'s> Dispatcher<'s> {
    fn new(
        fleet: &ResolvedFleet,
        load: &dyn LoadSource,
        faults: &FaultPlan,
        config: &SchedulerConfig,
        policy: &'s dyn AdmissionPolicy,
        ceilings: Option<&'s [usize]>,
        observer: &'s mut dyn Observer,
    ) -> Self {
        let trials = load.trials();
        let n = fleet.len();
        Self {
            avail: vec![0.0; n],
            health: vec![HealthState::Healthy; n],
            spb: fleet.devices.iter().map(|d| d.seconds_per_beam).collect(),
            algorithm: fleet
                .devices
                .iter()
                .map(|d| {
                    d.rates
                        .first()
                        .map_or(Algorithm::BruteForce, |r| r.algorithm)
                })
                .collect(),
            rates: fleet.devices.iter().map(|d| d.rates.clone()).collect(),
            devices: fleet
                .devices
                .iter()
                .map(|d| VirtualDevice::new(d.id, faults.compile(d.id)))
                .collect(),
            pending: Vec::new(),
            records: vec![None; load.total_beams()],
            trials,
            ladder: TierLadder::new(trials, config),
            policy,
            ceilings,
            batch: TickBatch::new(),
            log: EventLog::new(),
            observer,
            spans: None,
            tick: 0,
            late_strikes: vec![0; n],
            probe_pending: vec![false; n],
            probe_at: vec![0.0; n],
            probe_backoff: vec![config.probe_backoff_s; n],
            canary_in_flight: vec![false; n],
            retry_budget: config.retry_budget,
            retry_backoff_s: config.retry_backoff_s,
            late_suspect_after: config.late_suspect_after.max(1),
            probe_backoff_s: config.probe_backoff_s,
            probe_backoff_cap_s: config.probe_backoff_cap_s,
        }
    }

    /// Encodes one event into the tick's batch. Nothing reaches the
    /// live observer until [`Dispatcher::flush`] seals the batch at
    /// the tick boundary — the hot path is a columnar append, not a
    /// virtual dispatch.
    fn emit(&mut self, event: TelemetryEvent) {
        self.batch.push(&event);
    }

    /// Seals the tick in flight: hands the batch to the live observer
    /// through the batched seam, then moves it into the run log.
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.batch);
        let started = self.span_start();
        self.observer.observe_batch(&batch);
        self.span_end(SpanKind::ObserverFlush, started);
        let started = self.span_start();
        self.log.push_batch(batch);
        self.span_end(SpanKind::BatchEncode, started);
    }

    /// A clock reading to time a phase from, when the session is
    /// traced.
    fn span_start(&self) -> Option<Instant> {
        self.spans.as_ref().map(|_| Instant::now())
    }

    /// Buffers the timing of a phase that began at `started` and ends
    /// now.
    fn span_end(&mut self, kind: SpanKind, started: Option<Instant>) {
        if let (Some(t), Some(started)) = (&mut self.spans, started) {
            t.timings.push((kind, started, Instant::now()));
        }
    }

    /// Converts the tick's buffered timings into spans and records them
    /// in one lock hold, after the tick span has closed.
    fn record_spans(&mut self) {
        if let Some(t) = &mut self.spans {
            let (sink, shard, tick) = (&t.sink, t.shard, self.tick);
            let spans: Vec<Span> = t
                .timings
                .drain(..)
                .map(|(kind, started, ended)| sink.span(kind, shard, tick, started, ended))
                .collect();
            sink.record_all(&spans);
        }
    }

    /// Replays a capture prelude batch-wise: each sealed drain-window
    /// block reaches the observer and the log whole, never re-encoded
    /// event by event.
    fn replay_prelude(&mut self, prelude: &EventLog) {
        for batch in prelude.batches() {
            self.observer.observe_batch(batch);
            self.log.push_batch(batch.clone());
        }
    }

    /// Whether `d` may be handed a beam right now: healthy, or on
    /// probation with its canary slot free.
    fn eligible(&self, d: usize) -> bool {
        match self.health[d] {
            HealthState::Healthy => true,
            HealthState::Probation => !self.canary_in_flight[d],
            _ => false,
        }
    }

    /// The eligible device with the earliest predicted finish for a
    /// beam of `kept` trials released at `release`.
    fn choose(&self, release: f64, kept: usize) -> Option<(usize, f64, f64)> {
        let frac = kept as f64 / self.trials as f64;
        let mut best: Option<(usize, f64, f64)> = None;
        for (d, (&avail, &spb)) in self.avail.iter().zip(&self.spb).enumerate() {
            if !self.eligible(d) {
                continue;
            }
            let start = avail.max(release);
            let finish = start + spb * frac;
            if best.is_none_or(|(_, _, bf)| finish < bf) {
                best = Some((d, start, finish));
            }
        }
        best
    }

    /// Admission control for one tick's batch: builds the capacity
    /// view, asks the session's policy for a ruling, applies any
    /// grid-scope ceiling, and emits the [`TelemetryEvent::Admission`]
    /// ruling.
    fn admit_tick_reserving(
        &mut self,
        tick: usize,
        release: f64,
        deadline: f64,
        beams: usize,
    ) -> TickDirective {
        // Pre-size the tick's batch for its dominant traffic (one
        // `Placed` plus one terminal `Beam` per admitted beam) so the
        // columnar append never reallocates mid-tick.
        self.batch.reserve_tick(beams);
        self.admit_tick(tick, release, deadline, beams)
    }

    fn admit_tick(
        &mut self,
        tick: usize,
        release: f64,
        deadline: f64,
        beams: usize,
    ) -> TickDirective {
        let demand = BeamDemand {
            release,
            deadline,
            beams,
        };
        let devices: Vec<DeviceCapacity> = self
            .avail
            .iter()
            .zip(&self.spb)
            .enumerate()
            .map(|(d, (&avail, &spb))| {
                // Probation devices are not counted: they have one
                // unproven canary slot, not real capacity.
                let healthy = self.health[d] == HealthState::Healthy;
                DeviceCapacity::new(avail, spb, healthy)
                    .with_rates(self.algorithm[d], self.rates[d].clone())
            })
            .collect();
        let view = CapacityView {
            ladder: &self.ladder,
            devices: &devices,
        };
        let directive = match self.policy.decide(&demand, &view) {
            AdmissionDecision::Admit {
                shed_tiers,
                switches,
            } => {
                self.apply_switches(tick, release, &switches);
                let mut kept = self.ladder.kept_for(shed_tiers);
                if let Some(&ceiling) = self.ceilings.and_then(|c| c.get(tick)) {
                    kept = kept.min(self.ladder.snap(ceiling));
                }
                TickDirective::Place {
                    kept,
                    cascade: true,
                }
            }
            AdmissionDecision::Defer => TickDirective::Place {
                kept: self.trials,
                cascade: false,
            },
            AdmissionDecision::Shed(reason) => TickDirective::ShedAll(reason),
        };
        let (kept_trials, shed_tiers) = match directive {
            TickDirective::Place { kept, .. } => (kept, self.ladder.tiers_for(kept)),
            TickDirective::ShedAll(_) => (0, self.ladder.kept_options().len()),
        };
        self.emit(TelemetryEvent::Admission {
            tick,
            release,
            deadline,
            beams,
            kept_trials,
            shed_tiers,
        });
        directive
    }

    /// Applies an admission ruling's algorithm switches: re-rates each
    /// switched device from its table and emits one
    /// [`TelemetryEvent::AlgorithmSwitch`] per actual change, ahead of
    /// the tick's admission ruling. Unknown algorithms (not in the
    /// device's table) and no-op switches are ignored, so a policy
    /// without an algorithm axis leaves the stream byte-identical.
    fn apply_switches(&mut self, tick: usize, release: f64, switches: &[(usize, Algorithm)]) {
        for &(device, to) in switches {
            if device >= self.algorithm.len() || self.algorithm[device] == to {
                continue;
            }
            let Some(row) = self.rates[device].iter().find(|r| r.algorithm == to) else {
                continue;
            };
            let from = self.algorithm[device];
            self.algorithm[device] = to;
            self.spb[device] = row.seconds_per_beam;
            self.emit(TelemetryEvent::AlgorithmSwitch {
                tick,
                device,
                at: release,
                from,
                to,
            });
        }
    }

    /// Records one beam dropped whole at its release.
    fn shed_whole(&mut self, job: BeamJob, reason: ShedReason) {
        self.record(BeamRecord {
            index: job.index,
            tick: job.tick,
            beam: job.beam,
            outcome: BeamOutcome::ShedWhole {
                at: job.release,
                reason,
            },
        });
    }

    /// Places (or sheds) one beam that becomes available at `release`,
    /// preferring `preferred` kept trials (the tick's admission level);
    /// `attempt` counts placements of this beam (1 on first). With
    /// `cascade` false (a [`AdmissionDecision::Defer`] ruling) the beam
    /// never sheds further tiers of its own: it fits at `preferred` or
    /// runs to a miss.
    fn place(
        &mut self,
        job: BeamJob,
        release: f64,
        preferred: usize,
        attempt: usize,
        cascade: bool,
    ) {
        if self.choose(release, self.trials).is_none() {
            self.record(BeamRecord {
                index: job.index,
                tick: job.tick,
                beam: job.beam,
                outcome: BeamOutcome::ShedWhole {
                    at: release,
                    reason: ShedReason::NoAliveDevices,
                },
            });
            return;
        }
        if let Some((device, start, finish)) = self.choose(release, preferred) {
            if finish <= job.deadline + DEADLINE_EPS {
                self.assign(job, device, preferred, start, finish, attempt);
                return;
            }
        }
        // Deadline pressure beyond the tick level: shed further trailing
        // tiers until the beam fits.
        if cascade {
            for i in 0..self.ladder.kept_options().len() {
                let kept = self.ladder.kept_options()[i];
                if kept >= preferred {
                    continue;
                }
                if let Some((d, s, f)) = self.choose(release, kept) {
                    if f <= job.deadline + DEADLINE_EPS {
                        self.assign(job, d, kept, s, f, attempt);
                        return;
                    }
                }
            }
        }
        // Even maximum shedding misses: run in full and report the miss.
        let (device, start, finish) = self
            .choose(release, self.trials)
            .expect("eligible device checked above");
        self.assign(job, device, self.trials, start, finish, attempt);
    }

    /// Commits a placement and hands it to the device, queueing its
    /// reply. A placement on a probation device is its canary.
    fn assign(
        &mut self,
        job: BeamJob,
        device: usize,
        kept: usize,
        start: f64,
        finish: f64,
        attempt: usize,
    ) {
        self.avail[device] = finish;
        let canary = self.health[device] == HealthState::Probation;
        if canary {
            self.canary_in_flight[device] = true;
        }
        let reply = self.devices[device].run(Assignment {
            job,
            device,
            kept_trials: kept,
            start,
            finish,
            attempt,
            canary,
        });
        self.pending.push(reply);
        self.emit(TelemetryEvent::Placed {
            index: job.index,
            device,
            at: start,
            kept_trials: kept,
            attempt,
            canary,
        });
    }

    /// Handles every queued device reply in virtual-time order; replies
    /// queued while handling (re-placed bounces) form the next round.
    /// Repeats until nothing is queued.
    fn observe(&mut self) {
        while !self.pending.is_empty() {
            let mut batch = std::mem::take(&mut self.pending);
            batch.sort_by(|a, b| {
                let (ta, ka, da, ia) = a.key();
                let (tb, kb, db, ib) = b.key();
                ta.total_cmp(&tb)
                    .then(ka.cmp(&kb))
                    .then(da.cmp(&db))
                    .then(ia.cmp(&ib))
            });
            for ev in batch {
                self.handle(ev);
            }
        }
    }

    /// Probes every suspect/quarantined device whose backoff has
    /// elapsed by `release`.
    fn send_due_probes(&mut self, release: f64) {
        for d in 0..self.health.len() {
            let probing = matches!(
                self.health[d],
                HealthState::Suspect | HealthState::Quarantined
            );
            if probing && !self.probe_pending[d] && self.probe_at[d] <= release + DEADLINE_EPS {
                self.probe_pending[d] = true;
                let reply = self.devices[d].probe(release);
                self.pending.push(reply);
            }
        }
    }

    /// Records one health transition (no-op when the state is
    /// unchanged).
    fn transition(&mut self, device: usize, to: HealthState, cause: HealthCause, at: f64) {
        let from = self.health[device];
        if from == to {
            return;
        }
        self.health[device] = to;
        self.emit(TelemetryEvent::Health(HealthEvent {
            at,
            device,
            from,
            to,
            cause,
        }));
    }

    /// Pushes the device's next probe out by its current backoff, then
    /// doubles the backoff (capped).
    fn defer_probe(&mut self, device: usize, now: f64) {
        self.probe_at[device] = now + self.probe_backoff[device];
        self.probe_backoff[device] =
            (self.probe_backoff[device] * 2.0).min(self.probe_backoff_cap_s);
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Finished {
                assignment,
                actual_finish,
            } => {
                let d = assignment.device;
                let job = assignment.job;
                // A late actual finish corrects the optimistic clock.
                self.avail[d] = self.avail[d].max(actual_finish);
                let late = actual_finish > assignment.finish + DEADLINE_EPS;
                if assignment.canary {
                    self.canary_in_flight[d] = false;
                    if late {
                        self.transition(
                            d,
                            HealthState::Quarantined,
                            HealthCause::CanaryFailed,
                            actual_finish,
                        );
                        self.defer_probe(d, actual_finish);
                    } else {
                        self.transition(
                            d,
                            HealthState::Healthy,
                            HealthCause::CanaryPassed,
                            actual_finish,
                        );
                        self.late_strikes[d] = 0;
                        self.probe_backoff[d] = self.probe_backoff_s;
                    }
                } else if late {
                    self.late_strikes[d] += 1;
                    if self.health[d] == HealthState::Healthy
                        && self.late_strikes[d] >= self.late_suspect_after
                    {
                        self.transition(
                            d,
                            HealthState::Suspect,
                            HealthCause::LateCompletion,
                            actual_finish,
                        );
                        self.probe_at[d] = actual_finish;
                        self.probe_backoff[d] = self.probe_backoff_s;
                    }
                } else {
                    self.late_strikes[d] = 0;
                }
                let outcome = if actual_finish <= job.deadline + DEADLINE_EPS {
                    if assignment.kept_trials == self.trials {
                        BeamOutcome::Completed {
                            device: d,
                            finish: actual_finish,
                        }
                    } else {
                        BeamOutcome::Degraded {
                            device: d,
                            finish: actual_finish,
                            kept_trials: assignment.kept_trials,
                            shed_trials: self.trials - assignment.kept_trials,
                        }
                    }
                } else {
                    BeamOutcome::Missed {
                        device: d,
                        finish: actual_finish,
                        kept_trials: assignment.kept_trials,
                    }
                };
                self.record(BeamRecord {
                    index: job.index,
                    tick: job.tick,
                    beam: job.beam,
                    outcome,
                });
            }
            Event::Bounced { assignment, at } => {
                let d = assignment.device;
                self.emit(TelemetryEvent::Bounce {
                    index: assignment.job.index,
                    device: d,
                    at,
                    attempt: assignment.attempt,
                });
                if assignment.canary {
                    self.canary_in_flight[d] = false;
                    self.transition(d, HealthState::Quarantined, HealthCause::CanaryFailed, at);
                    self.defer_probe(d, at);
                } else if self.health[d] == HealthState::Healthy {
                    self.transition(d, HealthState::Suspect, HealthCause::Bounce, at);
                    self.late_strikes[d] = 0;
                    self.probe_at[d] = at;
                    self.probe_backoff[d] = self.probe_backoff_s;
                }
                // Recover: the beam re-enters placement at the moment the
                // failure was detected (plus backoff from the second retry
                // on), competing with fresh releases — or is shed whole
                // once its retry budget is gone.
                let job = assignment.job;
                if assignment.attempt > self.retry_budget {
                    self.record(BeamRecord {
                        index: job.index,
                        tick: job.tick,
                        beam: job.beam,
                        outcome: BeamOutcome::ShedWhole {
                            at,
                            reason: ShedReason::RetryBudgetExhausted,
                        },
                    });
                } else {
                    let delay = if assignment.attempt >= 2 {
                        self.retry_backoff_s * f64::powi(2.0, assignment.attempt as i32 - 2)
                    } else {
                        0.0
                    };
                    let again = job.release.max(at) + delay;
                    self.emit(TelemetryEvent::Retry {
                        index: job.index,
                        at: again,
                        attempt: assignment.attempt + 1,
                    });
                    self.place(job, again, self.trials, assignment.attempt + 1, true);
                }
            }
            Event::Probed { device, at, up } => {
                self.probe_pending[device] = false;
                self.emit(TelemetryEvent::Probe { device, at, up });
                let probing = matches!(
                    self.health[device],
                    HealthState::Suspect | HealthState::Quarantined
                );
                if !probing {
                    return;
                }
                if up {
                    self.transition(device, HealthState::Probation, HealthCause::ProbeUp, at);
                    self.late_strikes[device] = 0;
                } else {
                    self.transition(device, HealthState::Quarantined, HealthCause::ProbeDown, at);
                    self.defer_probe(device, at);
                }
            }
        }
    }

    fn record(&mut self, record: BeamRecord) {
        match record.outcome {
            BeamOutcome::Degraded {
                kept_trials,
                shed_trials,
                ..
            } => self.emit(TelemetryEvent::Shed(ShedRecord {
                index: record.index,
                tick: record.tick,
                beam: record.beam,
                shed_trials,
                kept_trials,
                reason: ShedReason::DeadlinePressure,
            })),
            BeamOutcome::ShedWhole { reason, .. } => self.emit(TelemetryEvent::Shed(ShedRecord {
                index: record.index,
                tick: record.tick,
                beam: record.beam,
                shed_trials: self.trials,
                kept_trials: 0,
                reason,
            })),
            _ => {}
        }
        self.emit(TelemetryEvent::Beam(record));
        let slot = &mut self.records[record.index];
        assert!(slot.is_none(), "beam {} recorded twice", record.index);
        *slot = Some(record);
    }
}

/// One simulated device: executes assignments in virtual time,
/// answers health probes, and bounces work its compiled fault schedule
/// forbids. The device owns the only copy of the schedule — the
/// dispatcher sees faults exclusively through its replies.
struct VirtualDevice {
    id: usize,
    faults: DeviceFaults,
    /// Local virtual clock: when the device actually frees up, which
    /// drifts past the dispatcher's prediction under slowdowns.
    clock: f64,
    /// Virtual seconds spent working, wasted partial beams included.
    busy: f64,
    /// Beams run to completion.
    done: usize,
}

impl VirtualDevice {
    fn new(id: usize, faults: DeviceFaults) -> Self {
        Self {
            id,
            faults,
            clock: 0.0,
            busy: 0.0,
            done: 0,
        }
    }

    /// A zero-cost health check evaluated at virtual time `at`; never
    /// touches the beam ledger.
    fn probe(&self, at: f64) -> Event {
        Event::Probed {
            device: self.id,
            at,
            up: self.faults.up_at(at),
        }
    }

    /// Runs (or bounces) one beam.
    fn run(&mut self, assignment: Assignment) -> Event {
        let start = assignment.start.max(self.clock);
        let nominal = assignment.finish - assignment.start;
        match self.faults.gate(start, nominal) {
            Gate::Bounce { at, wasted } => {
                // Partial work before a mid-beam death is spent but
                // produces nothing.
                self.busy += wasted;
                if wasted > 0.0 {
                    self.clock = at;
                }
                Event::Bounced { assignment, at }
            }
            Gate::Run { duration } => {
                self.busy += duration;
                self.done += 1;
                self.clock = start + duration;
                Event::Finished {
                    assignment,
                    actual_finish: self.clock,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::survey::SurveyLoad;

    fn run(spb: &[f64], trials: usize, beams: usize, ticks: usize, faults: &FaultPlan) -> FleetRun {
        let fleet = ResolvedFleet::synthetic(trials, spb);
        let load = SurveyLoad::custom(trials, beams, ticks);
        Scheduler::session(&fleet)
            .load(&load)
            .faults(faults)
            .run()
            .unwrap()
    }

    #[test]
    fn feasible_fleet_completes_everything_on_time() {
        // 4 devices × 5 beams/s capacity vs 18 beams/tick offered.
        let run = run(&[0.2; 4], 1000, 18, 3, &FaultPlan::none());
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.completed, 54);
        assert_eq!(r.deadline_misses, 0);
        assert_eq!(r.degraded, 0);
        assert_eq!(r.shed_whole, 0);
        assert!(r.sheds.is_empty());
        assert!(r.makespan <= 3.0 + DEADLINE_EPS);
        // A healthy run has a quiet recovery ledger.
        assert_eq!(r.bounced, 0);
        assert_eq!(r.retries, 0);
        assert_eq!(r.probes, 0);
        assert_eq!(r.canaries, 0);
        assert!(r.health_events.is_empty());
        assert!(r
            .devices
            .iter()
            .all(|d| d.final_health == HealthState::Healthy && d.bounces == 0));
    }

    #[test]
    fn exact_fit_packing_is_admitted() {
        // Capacity exactly equals offered load: 2 devices × 4 = 8 beams.
        let run = run(&[0.25, 0.25], 800, 8, 2, &FaultPlan::none());
        assert_eq!(run.report.completed, 16);
        assert_eq!(run.report.deadline_misses, 0);
    }

    #[test]
    fn overload_sheds_tiers_instead_of_missing() {
        // One device, 4 beams/s capacity, 5 beams offered: the default
        // policy may shed up to half of each beam, so up to 8 degraded
        // beams fit per second.
        let run = run(&[0.25], 1000, 5, 2, &FaultPlan::none());
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.deadline_misses, 0, "sheds should absorb the overload");
        assert!(r.degraded > 0);
        assert_eq!(r.completed + r.degraded, 10);
        assert_eq!(r.sheds.len(), r.degraded);
        // Every shed is itemized with consistent arithmetic.
        for shed in &r.sheds {
            assert_eq!(shed.kept_trials + shed.shed_trials, 1000);
            assert!(shed.kept_trials >= 500, "never sheds below the floor");
        }
        assert_eq!(
            r.total_shed_trials,
            r.sheds.iter().map(|s| s.shed_trials).sum::<usize>()
        );
    }

    #[test]
    fn hopeless_overload_reports_misses() {
        // One device needing 3 s/beam: even a full shed cannot fit one
        // beam into the 1 s budget.
        let run = run(&[3.0], 100, 2, 1, &FaultPlan::none());
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.deadline_misses, 2);
        assert_eq!(r.completed + r.degraded, 0);
        // Missed beams still run in full — no stealth shedding.
        for rec in &run.records {
            if let BeamOutcome::Missed { kept_trials, .. } = rec.outcome {
                assert_eq!(kept_trials, 100);
            }
        }
        // Predicted misses are not *late* finishes: the device did what
        // the model said it would, so it stays healthy.
        assert!(run
            .report
            .devices
            .iter()
            .all(|d| d.final_health == HealthState::Healthy));
    }

    #[test]
    fn killing_a_device_loses_no_beams() {
        // Two fast devices; one dies mid-run.
        let faults = FaultPlan::none().with_kill(0, 1.5);
        let run = run(&[0.1, 0.1], 1000, 10, 4, &faults);
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.admitted, 40);
        // The survivor can absorb the whole load (10 beams/s), so no
        // beam is dropped whole.
        assert_eq!(r.shed_whole, 0);
        assert_eq!(r.completed + r.degraded + r.deadline_misses, 40);
        assert_eq!(r.devices[0].died_at, Some(1.5));
        assert_eq!(r.devices[1].died_at, None);
        // The death was observed (bounce → Suspect), probed (down →
        // Quarantined), and never recovered: a permanently dead device
        // answers no probe and gets no canary.
        assert!(r.bounced > 0);
        assert_eq!(r.devices[0].bounces, r.bounced);
        assert_eq!(r.canaries, 0);
        assert_eq!(r.recoveries, 0);
        assert_ne!(r.devices[0].final_health, HealthState::Healthy);
        assert_eq!(r.devices[1].final_health, HealthState::Healthy);
    }

    #[test]
    fn killing_everything_sheds_everything_loudly() {
        let faults = FaultPlan::kill_fraction(2, 1.0, 0.0);
        let run = run(&[0.2, 0.2], 500, 4, 2, &faults);
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.shed_whole, 8);
        assert_eq!(r.sheds.len(), 8);
        assert_eq!(r.total_shed_trials, 8 * 500);
        assert_eq!(r.completed + r.degraded + r.deadline_misses, 0);
        // Nobody eligible remained — the budget was never the binding
        // constraint here.
        assert!(r
            .sheds
            .iter()
            .all(|s| s.reason == ShedReason::NoAliveDevices));
    }

    #[test]
    fn flapped_device_recovers_through_probation() {
        // Device 0 is down on [0.5, 1.6) and then returns; device 1
        // carries the survey meanwhile.
        let faults = FaultPlan::none().with_flap(0, 0.5, 1.6);
        let run = run(&[0.2, 0.2], 1000, 4, 5, &faults);
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.shed_whole, 0);
        assert!(r.bounced > 0, "the outage must be observed");
        assert!(r.probes > 0, "suspect devices are probed");
        assert!(r.canaries > 0, "recovery goes through a canary");
        assert_eq!(r.recoveries, 1, "device 0 comes back exactly once");
        assert_eq!(r.devices[0].final_health, HealthState::Healthy);
        assert_eq!(r.devices[0].died_at, None);
        // The canonical evidence chain appears in order for device 0:
        // bounce → Suspect, probe → Probation, canary → Healthy.
        let causes: Vec<HealthCause> = r
            .health_events
            .iter()
            .filter(|e| e.device == 0)
            .map(|e| e.cause)
            .collect();
        assert!(causes.contains(&HealthCause::Bounce));
        assert!(causes.contains(&HealthCause::ProbeUp));
        assert_eq!(causes.last(), Some(&HealthCause::CanaryPassed));
        // While the device was down, no beam completed on it.
        for rec in &run.records {
            if let BeamOutcome::Completed { device: 0, finish } = rec.outcome {
                assert!(
                    finish <= 0.5 + DEADLINE_EPS || finish > 1.6,
                    "no completion inside the outage, got {finish}"
                );
            }
        }
    }

    #[test]
    fn transient_bounces_are_retried_and_the_device_recovers() {
        // Device 0 glitches once at t=1.0 without going down.
        let faults = FaultPlan::none().with_transient(0, 1.0, 1);
        let run = run(&[0.2, 0.2], 1000, 4, 4, &faults);
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.bounced, 1);
        assert_eq!(r.retries, 1);
        assert_eq!(r.retry_exhausted, 0);
        assert_eq!(r.shed_whole, 0);
        // The glitching device answers its probe (it was never down)
        // and is re-trusted after one canary.
        assert_eq!(r.recoveries, 1);
        assert_eq!(r.devices[0].final_health, HealthState::Healthy);
    }

    #[test]
    fn slowdown_is_observed_as_late_completions() {
        // One device 3× slower over the whole run: completions come in
        // late, the device turns Suspect, and — still answering probes —
        // it cycles through Probation; its canary is late too, so it
        // ends Quarantined, not Healthy.
        let faults = FaultPlan::none().with_slowdown(0, 0.0, 100.0, 3.0);
        let run = run(&[0.2, 0.2], 1000, 4, 4, &faults);
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.bounced, 0, "a slow device bounces nothing");
        assert!(
            r.health_events
                .iter()
                .any(|e| e.device == 0 && e.cause == HealthCause::LateCompletion),
            "late completions must drive the suspicion"
        );
        assert_ne!(r.devices[0].final_health, HealthState::Healthy);
        assert_eq!(r.devices[1].final_health, HealthState::Healthy);
        assert!(r.devices[0].busy_s > 0.0);
    }

    #[test]
    fn retry_budget_exhaustion_sheds_loudly() {
        // Both devices glitch forever; a budget of 1 gives each beam
        // one re-placement before it is shed whole.
        let faults = FaultPlan::none()
            .with_transient(0, 0.0, 1_000)
            .with_transient(1, 0.0, 1_000);
        let fleet = ResolvedFleet::synthetic(500, &[0.2, 0.2]);
        let load = SurveyLoad::custom(500, 2, 1);
        let config = SchedulerConfig {
            retry_budget: 1,
            ..SchedulerConfig::default()
        };
        let run = Scheduler::session(&fleet)
            .config(config)
            .load(&load)
            .faults(&faults)
            .run()
            .unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        assert!(r.retry_exhausted > 0);
        assert!(r
            .sheds
            .iter()
            .any(|s| s.reason == ShedReason::RetryBudgetExhausted));
    }

    #[test]
    fn retry_backoff_delays_second_and_later_retries() {
        // Three devices: 0 and 1 dead from the start, 2 healthy. The
        // first beam bounces twice; with a backoff base of 0.2 s its
        // second re-placement is released no earlier than 0.2.
        let faults = FaultPlan::none().with_kill(0, 0.0).with_kill(1, 0.0);
        let fleet = ResolvedFleet::synthetic(100, &[0.1, 0.1, 0.1]);
        let load = SurveyLoad::custom(100, 1, 1);
        let config = SchedulerConfig {
            retry_backoff_s: 0.2,
            ..SchedulerConfig::default()
        };
        let run = Scheduler::session(&fleet)
            .config(config)
            .load(&load)
            .faults(&faults)
            .run()
            .unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.retries, 2);
        match run.records[0].outcome {
            BeamOutcome::Completed { device, finish } => {
                assert_eq!(device, 2);
                assert!(
                    finish >= 0.2 + 0.1 - DEADLINE_EPS,
                    "second retry must wait out the backoff, finished at {finish}"
                );
            }
            other => panic!("expected the beam to complete on device 2, got {other:?}"),
        }
    }

    #[test]
    fn empty_fleet_zero_trials_missing_load_and_bad_plans_are_errors() {
        let load = SurveyLoad::custom(100, 1, 1);
        let empty = ResolvedFleet::synthetic(100, &[]);
        assert!(Scheduler::session(&empty).load(&load).run().is_err());
        let fleet = ResolvedFleet::synthetic(0, &[0.5]);
        let zero = SurveyLoad::custom(0, 1, 1);
        assert!(Scheduler::session(&fleet).load(&zero).run().is_err());
        // A session without a load cannot run.
        assert!(Scheduler::session(&fleet).run().is_err());
        // An invalid fault plan is rejected before anything runs.
        let fleet = ResolvedFleet::synthetic(100, &[0.5]);
        let bad = FaultPlan::none().with_flap(0, 2.0, 1.0);
        assert!(Scheduler::session(&fleet)
            .load(&load)
            .faults(&bad)
            .run()
            .is_err());
    }

    #[test]
    fn utilization_and_queue_metrics_are_populated() {
        let run = run(&[0.5], 100, 2, 2, &FaultPlan::none());
        let dev = &run.report.devices[0];
        assert_eq!(dev.beams_done, 4);
        assert!((dev.busy_s - 2.0).abs() < 1e-9);
        assert!(dev.utilization > 0.9);
    }

    #[test]
    fn session_config_overrides_tunables() {
        // Forbid shedding entirely: the same overload that degrades
        // under the default config must now miss.
        let fleet = ResolvedFleet::synthetic(1000, &[0.25]);
        let load = SurveyLoad::custom(1000, 5, 1);
        let strict = SchedulerConfig {
            max_shed_tiers: 0,
            ..SchedulerConfig::default()
        };
        let run = Scheduler::session(&fleet)
            .config(strict)
            .load(&load)
            .run()
            .unwrap();
        assert!(run.report.conservation_ok());
        assert_eq!(run.report.degraded, 0);
        assert!(run.report.deadline_misses > 0);
    }

    #[test]
    fn repeated_sessions_produce_identical_ledgers() {
        let fleet = ResolvedFleet::synthetic(800, &[0.2, 0.3]);
        let load = SurveyLoad::custom(800, 6, 2);
        // Runs are deterministic (the dispatcher observes device
        // replies at fixed points), so two sessions over identical
        // inputs must produce identical reports and ledgers.
        let first = Scheduler::session(&fleet).load(&load).run().unwrap();
        let second = Scheduler::session(&fleet).load(&load).run().unwrap();
        assert_eq!(first.report, second.report);
        assert_eq!(first.records, second.records);
        assert_eq!(first.log, second.log, "the stream is deterministic");
        // Faulted runs are deterministic too.
        let faults = FaultPlan::none().with_kill(1, 0.9);
        let first = Scheduler::session(&fleet)
            .load(&load)
            .faults(&faults)
            .run()
            .unwrap();
        let second = Scheduler::session(&fleet)
            .load(&load)
            .faults(&faults)
            .run()
            .unwrap();
        assert!(first.report.conservation_ok());
        assert_eq!(first.report, second.report);
        assert_eq!(first.records, second.records);
        assert_eq!(first.log, second.log);
    }

    /// A policy that sheds every batch outright.
    struct ShedEverything;

    impl AdmissionPolicy for ShedEverything {
        fn decide(&self, _demand: &BeamDemand, _view: &CapacityView<'_>) -> AdmissionDecision {
            AdmissionDecision::Shed(ShedReason::DeadlinePressure)
        }
    }

    #[test]
    fn a_shed_all_policy_drops_every_batch_loudly() {
        let fleet = ResolvedFleet::synthetic(500, &[0.1, 0.1]);
        let load = SurveyLoad::custom(500, 3, 2);
        let run = Scheduler::session(&fleet)
            .load(&load)
            .policy(&ShedEverything)
            .run()
            .unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.shed_whole, 6);
        assert_eq!(r.completed + r.degraded + r.deadline_misses, 0);
        assert_eq!(r.total_shed_trials, 6 * 500);
        assert!(r
            .sheds
            .iter()
            .all(|s| s.reason == ShedReason::DeadlinePressure && s.kept_trials == 0));
        // Devices were never touched, so they stay trusted.
        assert!(r
            .devices
            .iter()
            .all(|d| d.final_health == HealthState::Healthy && d.beams_done == 0));
    }

    /// A policy that refuses to degrade: full resolution or a miss.
    struct NeverDegrade;

    impl AdmissionPolicy for NeverDegrade {
        fn decide(&self, _demand: &BeamDemand, _view: &CapacityView<'_>) -> AdmissionDecision {
            AdmissionDecision::Defer
        }
    }

    #[test]
    fn a_defer_policy_misses_instead_of_degrading() {
        // The same overload that degrades under the default policy.
        let fleet = ResolvedFleet::synthetic(1000, &[0.25]);
        let load = SurveyLoad::custom(1000, 5, 2);
        let run = Scheduler::session(&fleet)
            .load(&load)
            .policy(&NeverDegrade)
            .run()
            .unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.degraded, 0, "Defer must never shed tiers");
        assert!(r.sheds.is_empty());
        assert!(r.deadline_misses > 0);
        assert_eq!(r.completed + r.deadline_misses, 10);
    }

    #[test]
    fn admission_ceilings_cap_the_tick_level() {
        // A feasible fleet that would complete everything at full
        // resolution; a grid-scope ceiling of 750 forces degradation.
        let fleet = ResolvedFleet::synthetic(1000, &[0.2; 4]);
        let load = SurveyLoad::custom(1000, 10, 2);
        let ceilings = [750usize, 1000];
        let run = Scheduler::session(&fleet)
            .load(&load)
            .admission_ceilings(&ceilings)
            .run()
            .unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.deadline_misses, 0);
        // Tick 0 capped at 750 kept, tick 1 unconstrained.
        assert_eq!(r.degraded, 10);
        assert_eq!(r.completed, 10);
        assert!(r.sheds.iter().all(|s| s.kept_trials == 750 && s.tick == 0));
        // Off-ladder ceilings snap to the ladder; ticks beyond the
        // slice are unconstrained.
        let odd = [990usize];
        let run = Scheduler::session(&fleet)
            .load(&load)
            .admission_ceilings(&odd)
            .run()
            .unwrap();
        assert!(run
            .report
            .sheds
            .iter()
            .all(|s| s.kept_trials == 875 && s.tick == 0));
    }

    #[test]
    fn the_stream_folds_into_the_report_and_a_live_observer_sees_it() {
        let fleet = ResolvedFleet::synthetic(512, &[0.08, 0.1, 0.12]);
        let load = SurveyLoad::custom(512, 8, 4);
        let faults = FaultPlan::none().with_flap(0, 0.4, 1.7);
        let mut live = StatusSnapshot::new(fleet.len());
        let run = Scheduler::session(&fleet)
            .load(&load)
            .faults(&faults)
            .run_with(&mut live)
            .unwrap();
        // The live observer saw exactly the stream the run returned.
        assert_eq!(live, run.status());
        // The snapshot's counters agree with the report's fold.
        let r = &run.report;
        assert_eq!(live.completed, r.completed);
        assert_eq!(live.degraded, r.degraded);
        assert_eq!(live.deadline_misses, r.deadline_misses);
        assert_eq!(live.shed_whole, r.shed_whole);
        assert_eq!(live.total_shed_trials, r.total_shed_trials);
        assert_eq!(live.bounced, r.bounced);
        assert_eq!(live.retries, r.retries);
        assert_eq!(live.probes, r.probes);
        assert_eq!(live.canaries, r.canaries);
        assert_eq!(live.recoveries, r.recoveries);
        // Per-device facts match too.
        for (status, device) in live.devices.iter().zip(&r.devices) {
            assert_eq!(status.health, device.final_health);
            assert_eq!(status.bounces, device.bounces);
            assert_eq!(status.queue_depth, 0, "every placement resolved");
        }
        // One admission ruling per tick, in order.
        let ticks: Vec<usize> = run
            .log
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Admission { tick, .. } => Some(tick),
                _ => None,
            })
            .collect();
        assert_eq!(ticks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn capture_run_feeds_the_scheduler_and_its_events_lead_the_stream() {
        use crate::capture::{
            ArrivalPattern, ArrivalProcess, BlockFormat, CaptureConfig, CaptureSession,
        };
        let config = CaptureConfig::new(3, BlockFormat::new(64, 128), 512);
        let source = ArrivalProcess::new(3, 4, config.period_s, ArrivalPattern::Steady, 7);
        let run = CaptureSession::new(config).unwrap().ingest(source).unwrap();
        assert!(run.ledger.conservation_ok());
        assert_eq!(run.ledger.dropped, 0, "steady at capacity never drops");
        let fleet = ResolvedFleet::synthetic(512, &[0.05, 0.05]);
        let fleet_run = Scheduler::session(&fleet).capture(&run).run().unwrap();
        assert!(fleet_run.report.conservation_ok());
        assert_eq!(
            fleet_run.report.admitted, run.ledger.scheduled,
            "every scheduled capture block became a fleet beam"
        );
        // The capture prelude leads the stream: the first event is a
        // capture fact, and the stream's fold carries the capture
        // counters into the status snapshot.
        assert!(matches!(
            fleet_run.log.first(),
            Some(TelemetryEvent::Capture(_))
        ));
        let status = fleet_run.status();
        assert_eq!(status.capture_arrivals, run.ledger.arrivals);
        assert_eq!(status.capture_drops, run.ledger.dropped);
        assert_eq!(status.capture_batches, run.ledger.batches);
        assert_eq!(status.capture_backlog_blocks, 0, "the flush drained it");
    }

    #[test]
    fn algorithm_ladder_session_demotes_under_pressure_and_reports_it() {
        use crate::admission::AlgorithmLadder;
        use crate::descriptor::ResolvedFleet;
        // One device that must shed 5 beams/tick on brute force but
        // fits them all at full resolution on subband.
        let fleet = ResolvedFleet::synthetic_with_algorithms(
            1000,
            &[&[
                (Algorithm::BruteForce, 0.25),
                (Algorithm::Subband { factor: 32 }, 0.125),
            ]],
        );
        let load = SurveyLoad::custom(1000, 5, 2);
        let baseline = Scheduler::session(&fleet).load(&load).run().unwrap();
        assert!(baseline.report.degraded > 0, "greedy must shed here");
        let run = Scheduler::session(&fleet)
            .load(&load)
            .policy(&AlgorithmLadder)
            .run()
            .unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.deadline_misses, 0);
        assert_eq!(r.degraded, 0, "the demotion replaces the shed");
        assert_eq!(r.completed, 10);
        // Exactly one switch event, on tick 0, ahead of its ruling.
        let switches: Vec<TelemetryEvent> = run
            .log
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::AlgorithmSwitch { .. }))
            .collect();
        assert_eq!(switches.len(), 1);
        assert!(matches!(
            switches[0],
            TelemetryEvent::AlgorithmSwitch {
                tick: 0,
                device: 0,
                from: Algorithm::BruteForce,
                to: Algorithm::Subband { factor: 32 },
                ..
            }
        ));
        let status = run.status();
        assert_eq!(status.algorithm_switches, 1);
        assert_eq!(
            status.devices[0].algorithm,
            Algorithm::Subband { factor: 32 }
        );
    }

    #[test]
    fn algorithm_ladder_is_byte_identical_on_single_entry_fleets() {
        use crate::admission::AlgorithmLadder;
        let fleet = ResolvedFleet::synthetic(800, &[0.2, 0.3]);
        let load = SurveyLoad::custom(800, 6, 3);
        let greedy = Scheduler::session(&fleet).load(&load).run().unwrap();
        let ladder = Scheduler::session(&fleet)
            .load(&load)
            .policy(&AlgorithmLadder)
            .run()
            .unwrap();
        assert_eq!(greedy.records, ladder.records);
        assert_eq!(greedy.log, ladder.log, "no alternates, no divergence");
    }

    #[test]
    fn the_log_materializes_the_flat_stream_losslessly() {
        use crate::capture::{
            ArrivalPattern, ArrivalProcess, BlockFormat, CaptureConfig, CaptureSession,
        };
        let fleet = ResolvedFleet::synthetic(100, &[0.1, 0.1]);
        let load = SurveyLoad::custom(100, 3, 2);
        let run = Scheduler::session(&fleet).load(&load).run().unwrap();
        let flat = run.log.to_events();
        assert_eq!(flat.len(), run.log.len());
        assert_eq!(EventLog::from_events(&flat), run.log);
        let config = CaptureConfig::new(2, BlockFormat::new(16, 32), 64);
        let source = ArrivalProcess::new(2, 3, config.period_s, ArrivalPattern::Steady, 11);
        let capture = CaptureSession::new(config).unwrap().ingest(source).unwrap();
        let flat = capture.log.to_events();
        assert_eq!(flat.len(), capture.log.len());
        assert_eq!(EventLog::from_events(&flat), capture.log);
    }
}
