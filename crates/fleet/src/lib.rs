//! # dedisp-fleet — survey-scale fleet scheduling
//!
//! §V-D of the paper turns single-device auto-tuned throughput into a
//! procurement estimate: the Apertif survey (2,000 trial DMs over 450
//! beams, every second) needs ≈50 AMD HD7970s to run in real time. This
//! crate turns that static estimate into an *operating* system-of-devices:
//!
//! * [`FleetSpec`] / [`ResolvedFleet`] — declare a heterogeneous fleet
//!   of paper devices; each resolves its optimal kernel configuration
//!   for the survey's (setup, #DMs) instance from a [`autotune::TuningDatabase`],
//!   falling back to the nearest tuned instance or a fresh tuning run.
//!   Groups may instead carry a *measured* rate ([`RateSource`]), so one
//!   fleet mixes benchmarked and modeled platforms.
//! * [`Scheduler`] — a dispatcher placing beam batches on virtual
//!   devices by cost-model predicted throughput, with admission
//!   control against the real-time deadline budget. Runs
//!   are configured as builder-style sessions
//!   (`Scheduler::session(&fleet).load(&load).run()`), and any
//!   [`LoadSource`] — a [`SurveyLoad`] cadence, a grid shard, a future
//!   async capture front-end — can feed one.
//! * [`FaultPlan`] — deterministic per-device [`FaultEvent`] schedules:
//!   permanent kills, flaps (down-and-back windows), slowdowns
//!   (throttled rate), and transient glitches. The dispatcher never
//!   reads the plan — it discovers faults from bounced work and late
//!   completions, tracks a per-device health state machine
//!   ([`HealthState`]: `Healthy → Suspect → Quarantined → Probation →
//!   Healthy`), re-places bounced beams under a bounded retry budget
//!   with deterministic backoff, and re-trusts a recovered device only
//!   after a probation *canary* beam completes on time. Under pressure
//!   trailing DM tiers are shed (and recorded) before deadlines are
//!   missed.
//! * [`AdmissionPolicy`] — the admission layer, pulled out of the
//!   scheduler: a policy sees one tick's [`BeamDemand`] and a
//!   [`CapacityView`] of the fleet and rules
//!   Admit-with-tiers/Defer/Shed. [`PerDeviceGreedy`] (the default)
//!   reproduces the historical §V-D behaviour exactly; sessions accept
//!   custom policies via [`Session::policy`].
//! * [`TelemetryEvent`] / [`Observer`] — the unified telemetry stream:
//!   every observable fact of a run (admission rulings, placements,
//!   bounces, probes, health transitions, terminal outcomes, grid
//!   rebalances) on one typed stream. On the hot path the stream is
//!   SoA-encoded: the dispatcher emits [`TickBatch`] blocks at its
//!   deterministic tick boundaries through the batched observer seam
//!   ([`Observer::observe_batch`], with a per-event compatibility
//!   replay as the default), and runs carry the stream as an
//!   [`EventLog`]. Reports are folds over it, and a
//!   [`StatusSnapshot`] — serde round-trippable, derivable from any
//!   stream prefix — gives operators the queryable point-in-time view
//!   behind the planned status endpoint.
//! * [`FleetReport`] — per-device utilization and bounces, deadline
//!   misses, the full shed ledger, and the recovery ledger (bounces,
//!   retries, probes, canaries, [`HealthEvent`] transitions) as a
//!   serde artifact.
//! * [`obs`] — the live operator plane: a lock-cheap
//!   [`obs::MetricsRegistry`] fed from the stream by
//!   [`obs::RegistryObserver`], a bounded [`obs::FlightRecorder`]
//!   (last-N ring per shard, NDJSON dumps), [`obs::LiveStatus`] /
//!   [`obs::LiveGrid`] folding a snapshot continuously *during* a
//!   run, and a dependency-free HTTP server ([`obs::ObsServer`])
//!   serving `/status`, `/status/shard/<i>`, `/metrics` (Prometheus
//!   text format 0.0.4), `/events`, and `/healthz`. Grid runs attach
//!   live observers with [`GridSession::run_with`] ([`GridObserver`]).
//! * [`Grid`] — multi-node sharding: a survey partitioned across N
//!   independent schedulers (each with its own [`ResolvedFleet`]) on
//!   real threads, with whole-shard kills *and flaps*, beam re-homing
//!   to surviving shards ([`RebalancePolicy`]), a supervisor that
//!   restarts flapped shards and homes beams back ([`ShardCondition`]),
//!   and a merged global ledger ([`GridReport`]) whose conservation is
//!   checked across shards. With [`GridAdmission::Coordinated`] a
//!   grid-scope controller trades shed tiers across shards — one tier
//!   fleet-wide before any shard sheds two — by handing each shard
//!   per-tick admission ceilings.
//!
//! The scheduling simulation runs in virtual time, inline: each device
//! is a simulated executor the dispatcher calls directly, and it
//! reports every beam and probe back as a reply — failures are
//! detected by bounced work, never by reading the fault plan. The
//! dispatcher handles replies in virtual-time order at fixed points,
//! so identical `(fleet, load, plan, config)` inputs yield identical
//! reports.
//!
//! ```
//! use dedisp_fleet::{ResolvedFleet, Scheduler, SurveyLoad};
//!
//! // Ten synthetic devices, each dedispersing a beam in 0.106 s — the
//! // paper's measured HD7970 rate — serving 90 beams every second.
//! let fleet = ResolvedFleet::synthetic(2000, &[0.106; 10]);
//! let load = SurveyLoad::custom(2000, 90, 3);
//! let run = Scheduler::session(&fleet).load(&load).run().unwrap();
//! assert_eq!(run.report.deadline_misses, 0);
//! assert!(run.report.conservation_ok());
//! ```
//!
//! Sharding the same survey across cooperating schedulers:
//!
//! ```
//! use dedisp_fleet::{Grid, GridFaultPlan, ResolvedFleet, SurveyLoad};
//!
//! let shards = vec![
//!     ResolvedFleet::synthetic(2000, &[0.106; 5]),
//!     ResolvedFleet::synthetic(2000, &[0.106; 5]),
//! ];
//! let load = SurveyLoad::custom(2000, 90, 3);
//! let run = Grid::session(&shards).load(&load).run().unwrap();
//! assert_eq!(run.report.deadline_misses, 0);
//! assert!(run.report.conservation_ok());
//! ```

#![warn(missing_docs)]

mod admission;
mod batch;
pub mod capture;
mod descriptor;
mod fault;
mod grid;
mod load;
mod metrics;
pub mod obs;
pub mod proc;
mod scheduler;
mod shard;
mod survey;
mod telemetry;

pub use admission::{
    AdmissionDecision, AdmissionPolicy, AlgorithmLadder, BeamDemand, CapacityView, DeviceCapacity,
    GridAdmission, PerDeviceGreedy, TierLadder,
};
pub use batch::{EventKind, EventLog, TickBatch};
pub use capture::{
    Arrival, ArrivalPattern, ArrivalProcess, ArrivalTrace, BackpressurePolicy, BlockFormat,
    CaptureConfig, CaptureDropCause, CaptureLedger, CaptureLoad, CaptureRing, CaptureRun,
    CaptureSession, PacketSource,
};
pub use descriptor::{
    AlgorithmRate, AlgorithmRates, DeviceGroup, FleetError, FleetSpec, RateSource, ResolvedDevice,
    ResolvedFleet,
};
pub use fault::{FaultEvent, FaultPlan};
pub use grid::{
    Grid, GridBeamRecord, GridReport, GridRun, GridSession, GridShedRecord, ShardBackend,
    ShardEvent,
};
pub use load::LoadSource;
pub use manycore_sim::Algorithm;
pub use metrics::{
    BeamOutcome, BeamRecord, DeviceMetrics, FleetReport, HealthCause, HealthEvent, HealthState,
    ShedReason, ShedRecord,
};
pub use proc::{ChaosSpec, ProcConfig, ProcGridLedger, ProcShardLedger};
pub use scheduler::{FleetRun, Scheduler, SchedulerConfig, Session};
pub use shard::{GlobalBeam, GridFaultPlan, RebalancePolicy, ShardCondition, ShardLoad};
pub use survey::{BeamJob, SurveyLoad};
pub use telemetry::{
    CaptureEvent, DeviceStatus, GridObserver, NullObserver, Observer, StatusSnapshot,
    TelemetryEvent,
};
