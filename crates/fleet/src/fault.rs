//! Deterministic device-failure schedules.
//!
//! A [`FaultPlan`] states, per device, a schedule of [`FaultEvent`]s:
//! permanent kills, down/up flaps, throttled slowdown windows, and
//! transient bounces. Plans are plain data handed to the simulated
//! *devices*, not the dispatcher: the dispatcher only learns of a fault when the
//! faulty device bounces work back (or finishes it late), exactly as a
//! real cluster manager learns from failed RPCs and missed heartbeats
//! rather than from an omniscient schedule. The dispatcher's health
//! state machine (see [`crate::scheduler`]) is driven purely by that
//! observed evidence, and every inference it draws lands on the typed
//! telemetry stream (see [`crate::telemetry`]) as `Bounce`, `Probe`,
//! and `Health` events. The coordinated grid planner (see
//! [`crate::admission`]) is deliberately fault-blind for the same
//! reason: runtime faults are each shard's own business to observe.

use crate::descriptor::FleetError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One scheduled fault on one device, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// The device dies at `at` and never comes back.
    Kill {
        /// Virtual time of death.
        at: f64,
    },
    /// The device is down on `[down_at, up_at)` and then returns.
    Flap {
        /// Virtual time the device goes down.
        down_at: f64,
        /// Virtual time it is back up (exclusive end of the outage).
        up_at: f64,
    },
    /// The device runs, but `factor`× slower, on `[from, until)` —
    /// thermal throttling, a noisy neighbour, a degraded link.
    Slowdown {
        /// Virtual time the throttling starts.
        from: f64,
        /// Virtual time it ends (exclusive).
        until: f64,
        /// Duration multiplier, `>= 1.0`.
        factor: f64,
    },
    /// From `at` on, the device bounces the next `count` beams it is
    /// handed without being down — a crashing driver that recovers.
    Transient {
        /// Virtual time the glitch arms itself.
        at: f64,
        /// Beams bounced before the device behaves again.
        count: usize,
    },
}

impl FaultEvent {
    /// First virtual time at which the event can matter (for display
    /// and ordering).
    pub fn onset(&self) -> f64 {
        match *self {
            FaultEvent::Kill { at } | FaultEvent::Transient { at, .. } => at,
            FaultEvent::Flap { down_at, .. } => down_at,
            FaultEvent::Slowdown { from, .. } => from,
        }
    }

    /// Validates the event's arithmetic (windows ordered, factor sane).
    fn validate(&self) -> Result<(), FleetError> {
        let finite = |t: f64, what: &str| {
            if t.is_finite() {
                Ok(())
            } else {
                Err(FleetError::new(format!(
                    "fault event has non-finite {what}"
                )))
            }
        };
        match *self {
            FaultEvent::Kill { at } => finite(at, "kill time"),
            FaultEvent::Flap { down_at, up_at } => {
                finite(down_at, "flap down time")?;
                finite(up_at, "flap up time")?;
                if up_at > down_at {
                    Ok(())
                } else {
                    Err(FleetError::new(format!(
                        "flap must come back after it goes down (down_at {down_at}, up_at {up_at})"
                    )))
                }
            }
            FaultEvent::Slowdown {
                from,
                until,
                factor,
            } => {
                finite(from, "slowdown start")?;
                finite(until, "slowdown end")?;
                finite(factor, "slowdown factor")?;
                if until <= from {
                    return Err(FleetError::new(format!(
                        "slowdown window must be non-empty (from {from}, until {until})"
                    )));
                }
                if factor < 1.0 {
                    return Err(FleetError::new(format!(
                        "slowdown factor must be >= 1.0 (got {factor})"
                    )));
                }
                Ok(())
            }
            FaultEvent::Transient { at, count } => {
                finite(at, "transient time")?;
                if count == 0 {
                    return Err(FleetError::new(
                        "transient fault must bounce at least one beam",
                    ));
                }
                Ok(())
            }
        }
    }
}

/// A deterministic schedule of device faults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: BTreeMap<usize, Vec<FaultEvent>>,
}

impl FaultPlan {
    /// No failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Appends `event` to `device`'s schedule.
    #[must_use]
    pub fn with_event(mut self, device: usize, event: FaultEvent) -> Self {
        self.events.entry(device).or_default().push(event);
        self
    }

    /// Schedules `device` to die at virtual time `at`.
    #[must_use]
    pub fn with_kill(self, device: usize, at: f64) -> Self {
        self.with_event(device, FaultEvent::Kill { at })
    }

    /// Takes `device` down on `[down_at, up_at)`.
    #[must_use]
    pub fn with_flap(self, device: usize, down_at: f64, up_at: f64) -> Self {
        self.with_event(device, FaultEvent::Flap { down_at, up_at })
    }

    /// Throttles `device` by `factor`× on `[from, until)`.
    #[must_use]
    pub fn with_slowdown(self, device: usize, from: f64, until: f64, factor: f64) -> Self {
        self.with_event(
            device,
            FaultEvent::Slowdown {
                from,
                until,
                factor,
            },
        )
    }

    /// Arms a transient on `device` at `at` bouncing the next `count`
    /// beams.
    #[must_use]
    pub fn with_transient(self, device: usize, at: f64, count: usize) -> Self {
        self.with_event(device, FaultEvent::Transient { at, count })
    }

    /// Merges kills of `ceil(devices × fraction)` devices at time `at`
    /// into this plan, spread evenly across the id range so
    /// heterogeneous groups are all hit.
    #[must_use]
    pub fn with_kill_fraction(mut self, devices: usize, fraction: f64, at: f64) -> Self {
        if devices == 0 || fraction <= 0.0 {
            return self;
        }
        let victims = ((devices as f64 * fraction).ceil() as usize).min(devices);
        for v in 0..victims {
            self = self.with_kill(v * devices / victims, at);
        }
        self
    }

    /// A fresh plan killing `ceil(devices × fraction)` devices at time
    /// `at` — thin wrapper over [`FaultPlan::with_kill_fraction`].
    pub fn kill_fraction(devices: usize, fraction: f64, at: f64) -> Self {
        Self::none().with_kill_fraction(devices, fraction, at)
    }

    /// When (if ever) `device` dies permanently: its earliest `Kill`.
    pub fn kill_time(&self, device: usize) -> Option<f64> {
        self.events
            .get(&device)?
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::Kill { at } => Some(at),
                _ => None,
            })
            .min_by(f64::total_cmp)
    }

    /// The events scheduled for `device`, in insertion order.
    pub fn events_for(&self, device: usize) -> &[FaultEvent] {
        self.events.get(&device).map_or(&[], Vec::as_slice)
    }

    /// Total number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.values().map(Vec::len).sum()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.values().all(Vec::is_empty)
    }

    /// Iterates `(device, events)` in device order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[FaultEvent])> + '_ {
        self.events.iter().map(|(&d, evs)| (d, evs.as_slice()))
    }

    /// Checks every event's arithmetic; called once per session run.
    ///
    /// # Errors
    ///
    /// Returns a [`FleetError`] naming the offending device for an
    /// empty flap/slowdown window, a speed-up "slowdown", a zero-beam
    /// transient, or any non-finite time.
    pub fn validate(&self) -> Result<(), FleetError> {
        for (&device, events) in &self.events {
            for event in events {
                event
                    .validate()
                    .map_err(|e| FleetError::new(format!("device {device}: {e}")))?;
            }
        }
        Ok(())
    }

    /// Compiles `device`'s schedule into the device-side view.
    pub(crate) fn compile(&self, device: usize) -> DeviceFaults {
        let mut downs = Vec::new();
        let mut slowdowns = Vec::new();
        let mut transients = Vec::new();
        for event in self.events_for(device) {
            match *event {
                FaultEvent::Kill { at } => downs.push((at, f64::INFINITY)),
                FaultEvent::Flap { down_at, up_at } => downs.push((down_at, up_at)),
                FaultEvent::Slowdown {
                    from,
                    until,
                    factor,
                } => slowdowns.push((from, until, factor)),
                FaultEvent::Transient { at, count } => transients.push((at, count)),
            }
        }
        downs.sort_by(|a, b| a.0.total_cmp(&b.0));
        slowdowns.sort_by(|a, b| a.0.total_cmp(&b.0));
        transients.sort_by(|a, b| a.0.total_cmp(&b.0));
        DeviceFaults {
            downs,
            slowdowns,
            transients,
        }
    }
}

/// What a device decides about one handed beam.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Gate {
    /// The beam runs for `duration` virtual seconds (slowdown applied).
    Run {
        /// Actual virtual duration of the beam on this device.
        duration: f64,
    },
    /// The beam bounces at virtual time `at`, after `wasted` seconds of
    /// thrown-away work (death mid-beam).
    Bounce {
        /// Virtual time of the bounce.
        at: f64,
        /// Partial work lost (counted busy, produces nothing).
        wasted: f64,
    },
}

/// One device's compiled fault schedule, owned by its simulated device.
///
/// Down windows merge kills (`[at, ∞)`) and flaps (`[down_at, up_at)`).
/// Transients are stateful: each bounce consumes one count.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct DeviceFaults {
    downs: Vec<(f64, f64)>,
    slowdowns: Vec<(f64, f64, f64)>,
    transients: Vec<(f64, usize)>,
}

impl DeviceFaults {
    /// Whether the device answers a health probe at virtual time `t`.
    pub(crate) fn up_at(&self, t: f64) -> bool {
        !self.downs.iter().any(|&(d0, d1)| t >= d0 && t < d1)
    }

    /// Judges one beam starting at `start` with nominal duration
    /// `nominal`. Mirrors the original kill-only rules exactly when the
    /// schedule holds only kills: a beam starting at or after a down
    /// transition bounces at the transition, a beam the transition cuts
    /// mid-flight bounces there with its partial work wasted.
    pub(crate) fn gate(&mut self, start: f64, nominal: f64) -> Gate {
        if let Some(&(d0, _)) = self
            .downs
            .iter()
            .find(|&&(d0, d1)| start >= d0 && start < d1)
        {
            return Gate::Bounce {
                at: d0,
                wasted: 0.0,
            };
        }
        let factor: f64 = self
            .slowdowns
            .iter()
            .filter(|&&(from, until, _)| start >= from && start < until)
            .map(|&(_, _, f)| f)
            .product();
        let duration = nominal * factor;
        let finish = start + duration;
        if let Some(&(d0, _)) = self
            .downs
            .iter()
            .find(|&&(d0, _)| start < d0 && finish > d0)
        {
            return Gate::Bounce {
                at: d0,
                wasted: d0 - start,
            };
        }
        if let Some((_, count)) = self
            .transients
            .iter_mut()
            .find(|(at, count)| *count > 0 && start >= *at)
        {
            *count -= 1;
            return Gate::Bounce {
                at: start,
                wasted: 0.0,
            };
        }
        Gate::Run { duration }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_fraction_is_deterministic_and_spread() {
        let plan = FaultPlan::kill_fraction(50, 0.1, 0.5);
        assert_eq!(plan.len(), 5);
        let victims: Vec<usize> = plan.iter().map(|(d, _)| d).collect();
        assert_eq!(victims, vec![0, 10, 20, 30, 40]);
        assert_eq!(plan.kill_time(10), Some(0.5));
        assert_eq!(plan.kill_time(11), None);
        // Identical inputs give identical plans.
        assert_eq!(plan, FaultPlan::kill_fraction(50, 0.1, 0.5));
    }

    #[test]
    fn kill_fraction_edge_cases() {
        assert!(FaultPlan::kill_fraction(0, 0.5, 1.0).is_empty());
        assert!(FaultPlan::kill_fraction(10, 0.0, 1.0).is_empty());
        // Killing everything is allowed (the scheduler must then shed).
        assert_eq!(FaultPlan::kill_fraction(4, 1.0, 0.0).len(), 4);
        // A tiny fraction still kills at least one device.
        assert_eq!(FaultPlan::kill_fraction(3, 0.01, 1.0).len(), 1);
    }

    #[test]
    fn kill_fraction_merges_into_an_existing_plan() {
        let plan = FaultPlan::none()
            .with_flap(3, 1.0, 2.0)
            .with_kill_fraction(4, 0.5, 1.5);
        // The flap survives alongside the merged kills of devices 0, 2.
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.kill_time(0), Some(1.5));
        assert_eq!(plan.kill_time(2), Some(1.5));
        assert_eq!(plan.kill_time(3), None);
        assert_eq!(
            plan.events_for(3),
            &[FaultEvent::Flap {
                down_at: 1.0,
                up_at: 2.0
            }]
        );
        // The wrapper and the builder agree on a fresh plan.
        assert_eq!(
            FaultPlan::kill_fraction(50, 0.1, 0.5),
            FaultPlan::none().with_kill_fraction(50, 0.1, 0.5)
        );
    }

    #[test]
    fn builder_composes() {
        let plan = FaultPlan::none().with_kill(2, 1.5).with_kill(7, 0.25);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.kill_time(7), Some(0.25));
        // Multiple kills on one device: the earliest wins.
        let twice = FaultPlan::none().with_kill(0, 3.0).with_kill(0, 1.0);
        assert_eq!(twice.kill_time(0), Some(1.0));
    }

    #[test]
    fn validation_rejects_bad_windows() {
        assert!(FaultPlan::none().with_flap(0, 2.0, 1.0).validate().is_err());
        assert!(FaultPlan::none().with_flap(0, 1.0, 1.0).validate().is_err());
        assert!(FaultPlan::none()
            .with_slowdown(0, 1.0, 0.5, 2.0)
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_slowdown(0, 1.0, 2.0, 0.5)
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_transient(0, 1.0, 0)
            .validate()
            .is_err());
        assert!(FaultPlan::none().with_kill(0, f64::NAN).validate().is_err());
        let err = FaultPlan::none()
            .with_flap(7, 2.0, 1.0)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("device 7"));
        assert!(FaultPlan::none()
            .with_kill(0, 1.0)
            .with_flap(1, 0.5, 1.5)
            .with_slowdown(2, 0.0, 9.0, 3.0)
            .with_transient(3, 0.1, 2)
            .validate()
            .is_ok());
    }

    #[test]
    fn gate_reproduces_kill_semantics() {
        let mut dead = FaultPlan::none().with_kill(0, 1.5).compile(0);
        // Starting after the kill: bounce at the kill, nothing wasted.
        assert_eq!(
            dead.gate(2.0, 0.5),
            Gate::Bounce {
                at: 1.5,
                wasted: 0.0
            }
        );
        // Killed mid-beam: partial work wasted.
        match dead.gate(1.2, 0.5) {
            Gate::Bounce { at, wasted } => {
                assert_eq!(at, 1.5);
                assert!((wasted - 0.3).abs() < 1e-12);
            }
            other => panic!("expected a mid-beam bounce, got {other:?}"),
        }
        // Finished before the kill: runs.
        assert_eq!(dead.gate(0.0, 0.5), Gate::Run { duration: 0.5 });
        assert!(!dead.up_at(1.5));
        assert!(!dead.up_at(99.0));
        assert!(dead.up_at(1.4));
    }

    #[test]
    fn gate_flap_bounces_then_recovers() {
        let mut flappy = FaultPlan::none().with_flap(0, 1.0, 2.0).compile(0);
        assert_eq!(
            flappy.gate(1.5, 0.3),
            Gate::Bounce {
                at: 1.0,
                wasted: 0.0
            }
        );
        // Back up: runs normally.
        assert_eq!(flappy.gate(2.0, 0.3), Gate::Run { duration: 0.3 });
        assert!(flappy.up_at(0.9));
        assert!(!flappy.up_at(1.0));
        assert!(!flappy.up_at(1.999));
        assert!(flappy.up_at(2.0));
    }

    #[test]
    fn gate_slowdown_stretches_and_transient_decrements() {
        let mut faulty = FaultPlan::none()
            .with_slowdown(0, 1.0, 2.0, 3.0)
            .with_transient(0, 5.0, 2)
            .compile(0);
        assert_eq!(faulty.gate(0.0, 0.4), Gate::Run { duration: 0.4 });
        assert_eq!(
            faulty.gate(1.5, 0.4),
            Gate::Run {
                duration: 0.4 * 3.0
            }
        );
        // Transient arms at 5.0 and eats exactly two beams.
        assert_eq!(
            faulty.gate(5.1, 0.4),
            Gate::Bounce {
                at: 5.1,
                wasted: 0.0
            }
        );
        assert_eq!(
            faulty.gate(5.2, 0.4),
            Gate::Bounce {
                at: 5.2,
                wasted: 0.0
            }
        );
        assert_eq!(faulty.gate(5.3, 0.4), Gate::Run { duration: 0.4 });
        // The device was never down for probes.
        assert!(faulty.up_at(5.1));
    }

    #[test]
    fn gate_slowdown_into_a_down_window_bounces() {
        // Slowed 4x from t=0: a 0.4 s beam stretches to 1.6 s and runs
        // into the flap at 1.0 it would otherwise have beaten.
        let mut faulty = FaultPlan::none()
            .with_slowdown(0, 0.0, 10.0, 4.0)
            .with_flap(0, 1.0, 2.0)
            .compile(0);
        assert_eq!(
            faulty.gate(0.0, 0.4),
            Gate::Bounce {
                at: 1.0,
                wasted: 1.0
            }
        );
    }
}
