//! Outcome accounting and the serializable fleet report.
//!
//! Every admitted beam-second ends in exactly one terminal state, and
//! every shed — partial (trailing DM tiers dropped to make a deadline)
//! or whole (no device left to run the beam, or its retry budget
//! exhausted) — is recorded. The [`FleetReport`] is the serde artifact
//! an operator would ship to a dashboard: per-device utilization,
//! queue depth, and health, deadline misses, the full shed ledger, and
//! the recovery ledger (bounces, retries, probes, canaries, and every
//! health-state transition).
//!
//! Since the telemetry refactor the report is a **fold over the
//! telemetry stream** ([`crate::TelemetryEvent`]): every counter and
//! itemized ledger below is derived from events alone, so any other
//! [`crate::Observer`] (a [`crate::StatusSnapshot`], a future status
//! endpoint) sees exactly the facts the report aggregates.

use crate::batch::EventLog;
use crate::descriptor::ResolvedFleet;
use crate::load::LoadSource;
use crate::telemetry::{Observer, TelemetryEvent};
use serde::{Deserialize, Serialize};

/// Terminal state of one beam-second.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BeamOutcome {
    /// All trial DMs dedispersed before the deadline.
    Completed {
        /// Device that ran the beam.
        device: usize,
        /// Virtual completion time.
        finish: f64,
    },
    /// Finished before the deadline, but with trailing DM tiers shed.
    Degraded {
        /// Device that ran the beam.
        device: usize,
        /// Virtual completion time.
        finish: f64,
        /// Trial DMs actually dedispersed.
        kept_trials: usize,
        /// Trial DMs dropped.
        shed_trials: usize,
    },
    /// Finished after its deadline — a real-time miss.
    Missed {
        /// Device that ran the beam.
        device: usize,
        /// Virtual completion time (past the deadline).
        finish: f64,
        /// Trial DMs dedispersed (sheds cannot rescue a miss).
        kept_trials: usize,
    },
    /// Never ran to completion anywhere.
    ShedWhole {
        /// Virtual time the scheduler gave up on the beam.
        at: f64,
        /// Why it was dropped whole.
        reason: ShedReason,
    },
}

/// One beam's ledger row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BeamRecord {
    /// Global job index.
    pub index: usize,
    /// Releasing tick.
    pub tick: usize,
    /// Beam number within the tick.
    pub beam: usize,
    /// How the beam ended.
    pub outcome: BeamOutcome,
}

/// Why DM trials were shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// Trailing tiers dropped so the beam could make its deadline.
    DeadlinePressure,
    /// The whole beam dropped: no eligible device remained.
    NoAliveDevices,
    /// The whole beam dropped: it bounced more times than the retry
    /// budget allows.
    RetryBudgetExhausted,
}

/// One recorded shed — nothing is dropped silently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShedRecord {
    /// Global job index of the beam.
    pub index: usize,
    /// Releasing tick.
    pub tick: usize,
    /// Beam number within the tick.
    pub beam: usize,
    /// Trial DMs dropped.
    pub shed_trials: usize,
    /// Trial DMs still dedispersed (0 for whole-beam sheds).
    pub kept_trials: usize,
    /// Why the shed happened.
    pub reason: ShedReason,
}

/// The dispatcher's belief about one device, from observed evidence
/// only — bounced work, late completions, probe replies — never from
/// reading the fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HealthState {
    /// Taking work normally.
    #[default]
    Healthy,
    /// Produced suspicious evidence (a bounce, repeated late
    /// completions); receives no new work until probed.
    Suspect,
    /// A probe found it down; probed again after a growing backoff.
    Quarantined,
    /// A probe found it up; it must complete one canary beam on time
    /// to be trusted again.
    Probation,
}

/// What piece of evidence moved a device between health states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthCause {
    /// A beam bounced off the device.
    Bounce,
    /// Enough consecutive completions came in past their predicted
    /// finish.
    LateCompletion,
    /// A health probe was answered.
    ProbeUp,
    /// A health probe found the device down.
    ProbeDown,
    /// The probation canary beam completed on time.
    CanaryPassed,
    /// The probation canary bounced or finished late.
    CanaryFailed,
}

/// One health-state transition, as the dispatcher observed it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthEvent {
    /// Virtual time of the evidence.
    pub at: f64,
    /// Device that transitioned.
    pub device: usize,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// The evidence that drove the transition.
    pub cause: HealthCause,
}

/// Per-device utilization and health over the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceMetrics {
    /// Fleet-wide device index.
    pub id: usize,
    /// Instance name.
    pub name: String,
    /// Sustained rate used for placement, GFLOP/s.
    pub gflops: f64,
    /// Beams this device finished.
    pub beams_done: usize,
    /// Virtual seconds spent dedispersing.
    pub busy_s: f64,
    /// `busy_s / makespan` — fraction of the run spent working.
    pub utilization: f64,
    /// Always 0: devices run inline, so no device queue exists. The
    /// field stays because the benchmark harness
    /// (`perfbench/src/control.rs`) still assigns it; the in-flight
    /// count lives in the status snapshot's per-device `queue_depth`.
    pub max_queue_depth: usize,
    /// Beams that bounced off this device, as observed.
    pub bounces: usize,
    /// The dispatcher's final belief about the device.
    pub final_health: HealthState,
    /// Virtual time the fault plan killed it for good, if it did.
    pub died_at: Option<f64>,
}

/// The run summary an operator would export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Setup name.
    pub setup: String,
    /// Trial DMs per beam.
    pub trials: usize,
    /// Beams per tick (the largest tick, when the source varies).
    pub beams: usize,
    /// Ticks simulated.
    pub ticks: usize,
    /// Beam-seconds admitted over the whole horizon.
    pub admitted: usize,
    /// Beams fully dedispersed on time.
    pub completed: usize,
    /// Beams finished on time with tiers shed.
    pub degraded: usize,
    /// Beams finished after their deadline.
    pub deadline_misses: usize,
    /// Beams dropped whole (no eligible devices, or retries exhausted).
    pub shed_whole: usize,
    /// Total trial DMs shed across all beams.
    pub total_shed_trials: usize,
    /// Bounces observed across the run.
    pub bounced: usize,
    /// Re-placements of bounced beams.
    pub retries: usize,
    /// Beams shed whole because their retry budget ran out.
    pub retry_exhausted: usize,
    /// Health probes sent.
    pub probes: usize,
    /// Canary beams placed on probation devices.
    pub canaries: usize,
    /// Transitions back to [`HealthState::Healthy`].
    pub recoveries: usize,
    /// Every health-state transition, in observation order.
    pub health_events: Vec<HealthEvent>,
    /// Every shed, itemized.
    pub sheds: Vec<ShedRecord>,
    /// Per-device metrics, id order.
    pub devices: Vec<DeviceMetrics>,
    /// Virtual time the last beam finished (or was dropped).
    pub makespan: f64,
}

/// The report-side fold over the telemetry stream: accumulates every
/// counter and itemized ledger [`FleetReport`] publishes.
///
/// This is itself an [`Observer`], so the same accumulation can run
/// live during a session or after the fact over a collected stream —
/// the report is *defined* as this fold plus the per-load and
/// per-device context that never enters the stream (setup shape, busy
/// seconds, beams done).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ReportFold {
    completed: usize,
    degraded: usize,
    deadline_misses: usize,
    shed_whole: usize,
    total_shed_trials: usize,
    bounced: usize,
    retries: usize,
    retry_exhausted: usize,
    probes: usize,
    canaries: usize,
    recoveries: usize,
    health_events: Vec<HealthEvent>,
    sheds: Vec<ShedRecord>,
    device_bounces: Vec<usize>,
    final_health: Vec<HealthState>,
    makespan: f64,
}

impl ReportFold {
    /// An empty fold for `n` devices, all healthy and quiet.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            final_health: vec![HealthState::Healthy; n],
            device_bounces: vec![0; n],
            ..Self::default()
        }
    }
}

impl Observer for ReportFold {
    fn observe(&mut self, event: &TelemetryEvent) {
        match *event {
            TelemetryEvent::Beam(record) => match record.outcome {
                BeamOutcome::Completed { finish, .. } => {
                    self.completed += 1;
                    self.makespan = self.makespan.max(finish);
                }
                BeamOutcome::Degraded { finish, .. } => {
                    self.degraded += 1;
                    self.makespan = self.makespan.max(finish);
                }
                BeamOutcome::Missed { finish, .. } => {
                    self.deadline_misses += 1;
                    self.makespan = self.makespan.max(finish);
                }
                BeamOutcome::ShedWhole { at, .. } => {
                    self.shed_whole += 1;
                    self.makespan = self.makespan.max(at);
                }
            },
            TelemetryEvent::Shed(ref shed) => {
                self.total_shed_trials += shed.shed_trials;
                if shed.reason == ShedReason::RetryBudgetExhausted {
                    self.retry_exhausted += 1;
                }
                self.sheds.push(shed.clone());
            }
            TelemetryEvent::Bounce { device, .. } => {
                self.bounced += 1;
                if let Some(b) = self.device_bounces.get_mut(device) {
                    *b += 1;
                }
            }
            TelemetryEvent::Retry { .. } => self.retries += 1,
            TelemetryEvent::Probe { .. } => self.probes += 1,
            TelemetryEvent::Placed { canary, .. } => {
                if canary {
                    self.canaries += 1;
                }
            }
            TelemetryEvent::Health(health) => {
                if health.to == HealthState::Healthy {
                    self.recoveries += 1;
                }
                if let Some(h) = self.final_health.get_mut(health.device) {
                    *h = health.to;
                }
                self.health_events.push(health);
            }
            // Capture events predate scheduling and never change beam
            // accounting; the capture ledger reconciles them instead.
            // Algorithm switches change *rates*, not beam accounting —
            // the status snapshot and metrics registry track them, so
            // the report's shape (and every pinned fingerprint) stays
            // fixed.
            TelemetryEvent::Admission { .. }
            | TelemetryEvent::Rebalance { .. }
            | TelemetryEvent::AlgorithmSwitch { .. }
            | TelemetryEvent::Capture(_) => {}
        }
    }
}

impl FleetReport {
    /// Builds the report by folding the telemetry stream, then joining
    /// the per-device work totals and fault context that never enter
    /// the stream (all slices in device-id order).
    pub(crate) fn build(
        fleet: &ResolvedFleet,
        load: &dyn LoadSource,
        log: &EventLog,
        busy_s: &[f64],
        beams_done: &[usize],
        died_at: &[Option<f64>],
    ) -> Self {
        let mut fold = ReportFold::new(fleet.len());
        log.replay(&mut fold);
        // The historical shed ledger is ordered by global beam index
        // (it was built by scanning the index-ordered record vector);
        // the stream emits sheds in observation order, so restore the
        // contract here.
        fold.sheds.sort_by_key(|s| s.index);
        let makespan = fold.makespan;
        let devices = fleet
            .devices
            .iter()
            .map(|d| DeviceMetrics {
                id: d.id,
                name: d.name.clone(),
                gflops: d.gflops,
                beams_done: beams_done[d.id],
                busy_s: busy_s[d.id],
                utilization: if makespan > 0.0 {
                    busy_s[d.id] / makespan
                } else {
                    0.0
                },
                max_queue_depth: 0,
                bounces: fold.device_bounces.get(d.id).copied().unwrap_or(0),
                final_health: fold.final_health.get(d.id).copied().unwrap_or_default(),
                died_at: died_at[d.id],
            })
            .collect();
        Self {
            setup: load.setup().to_string(),
            trials: load.trials(),
            beams: (0..load.ticks())
                .map(|t| load.beams_at(t))
                .max()
                .unwrap_or(0),
            ticks: load.ticks(),
            admitted: load.total_beams(),
            completed: fold.completed,
            degraded: fold.degraded,
            deadline_misses: fold.deadline_misses,
            shed_whole: fold.shed_whole,
            total_shed_trials: fold.total_shed_trials,
            bounced: fold.bounced,
            retries: fold.retries,
            retry_exhausted: fold.retry_exhausted,
            probes: fold.probes,
            canaries: fold.canaries,
            recoveries: fold.recoveries,
            health_events: fold.health_events,
            sheds: fold.sheds,
            devices,
            makespan,
        }
    }

    /// Whether every admitted beam is accounted for exactly once:
    /// completed, degraded, missed, or shed — never lost.
    pub fn conservation_ok(&self) -> bool {
        self.completed + self.degraded + self.deadline_misses + self.shed_whole == self.admitted
    }

    /// Mean utilization across surviving (never-killed) devices.
    pub fn mean_surviving_utilization(&self) -> f64 {
        let survivors: Vec<&DeviceMetrics> = self
            .devices
            .iter()
            .filter(|d| d.died_at.is_none())
            .collect();
        if survivors.is_empty() {
            return 0.0;
        }
        survivors.iter().map(|d| d.utilization).sum::<f64>() / survivors.len() as f64
    }

    /// Serializes to pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics only if serde_json fails on plain data, which cannot
    /// happen for this type.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plain report always serializes")
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Returns the serde error for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::survey::SurveyLoad;

    #[test]
    fn report_json_roundtrip() {
        let fleet = ResolvedFleet::synthetic(100, &[0.2, 0.5]);
        let load = SurveyLoad::custom(100, 2, 1);
        let events = vec![
            TelemetryEvent::Beam(BeamRecord {
                index: 0,
                tick: 0,
                beam: 0,
                outcome: BeamOutcome::Completed {
                    device: 0,
                    finish: 0.2,
                },
            }),
            TelemetryEvent::Bounce {
                index: 1,
                device: 1,
                at: 0.4,
                attempt: 1,
            },
            TelemetryEvent::Health(HealthEvent {
                at: 0.4,
                device: 1,
                from: HealthState::Healthy,
                to: HealthState::Suspect,
                cause: HealthCause::Bounce,
            }),
            TelemetryEvent::Health(HealthEvent {
                at: 0.5,
                device: 1,
                from: HealthState::Suspect,
                to: HealthState::Quarantined,
                cause: HealthCause::ProbeDown,
            }),
            TelemetryEvent::Shed(ShedRecord {
                index: 1,
                tick: 0,
                beam: 1,
                shed_trials: 25,
                kept_trials: 75,
                reason: ShedReason::DeadlinePressure,
            }),
            TelemetryEvent::Beam(BeamRecord {
                index: 1,
                tick: 0,
                beam: 1,
                outcome: BeamOutcome::Degraded {
                    device: 1,
                    finish: 0.9,
                    kept_trials: 75,
                    shed_trials: 25,
                },
            }),
        ];
        let log = EventLog::from_events(&events);
        let report = FleetReport::build(
            &fleet,
            &load,
            &log,
            &[0.2, 0.5],
            &[1, 1],
            &[None, Some(5.0)],
        );
        assert!(report.conservation_ok());
        assert_eq!(report.completed, 1);
        assert_eq!(report.degraded, 1);
        assert_eq!(report.total_shed_trials, 25);
        assert_eq!(report.sheds.len(), 1);
        assert_eq!(report.sheds[0].reason, ShedReason::DeadlinePressure);
        assert_eq!(report.bounced, 1);
        assert_eq!(report.devices[1].bounces, 1);
        assert_eq!(report.devices[1].final_health, HealthState::Quarantined);
        assert_eq!(report.devices[0].final_health, HealthState::Healthy);
        assert_eq!(report.health_events.len(), 2);
        assert!((report.makespan - 0.9).abs() < 1e-12);
        let back = FleetReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn conservation_detects_loss() {
        let fleet = ResolvedFleet::synthetic(10, &[0.5]);
        let load = SurveyLoad::custom(10, 2, 1);
        // Only one of two admitted beams in the stream.
        let events = vec![
            TelemetryEvent::Shed(ShedRecord {
                index: 0,
                tick: 0,
                beam: 0,
                shed_trials: 10,
                kept_trials: 0,
                reason: ShedReason::NoAliveDevices,
            }),
            TelemetryEvent::Beam(BeamRecord {
                index: 0,
                tick: 0,
                beam: 0,
                outcome: BeamOutcome::ShedWhole {
                    at: 0.0,
                    reason: ShedReason::NoAliveDevices,
                },
            }),
        ];
        let log = EventLog::from_events(&events);
        let report = FleetReport::build(&fleet, &load, &log, &[0.0], &[0], &[None]);
        assert!(!report.conservation_ok());
        assert_eq!(report.shed_whole, 1);
        assert_eq!(report.total_shed_trials, 10);
        assert_eq!(report.sheds[0].reason, ShedReason::NoAliveDevices);
    }

    #[test]
    fn mean_surviving_utilization_is_zero_when_every_device_died() {
        let fleet = ResolvedFleet::synthetic(10, &[0.5, 0.5]);
        let load = SurveyLoad::custom(10, 1, 1);
        let report = FleetReport::build(
            &fleet,
            &load,
            &EventLog::new(),
            &[0.0; 2],
            &[0; 2],
            &[Some(0.1), Some(0.2)],
        );
        assert!(report.devices.iter().all(|d| d.died_at.is_some()));
        // No survivors: the mean must be 0.0, never NaN.
        let mean = report.mean_surviving_utilization();
        assert_eq!(mean, 0.0);
        assert!(!mean.is_nan());
    }
}
