//! Property-based scheduler invariants.
//!
//! Properties the fleet scheduler must hold under any fleet shape,
//! load, and failure schedule:
//!
//! 1. **Conservation** — every admitted beam ends in exactly one
//!    terminal outcome (completed, degraded, missed, or shed whole);
//!    nothing is lost and nothing is double-counted.
//! 2. **Feasibility** — a healthy fleet whose §V-D capacity covers the
//!    offered batch never misses a deadline and never sheds.
//! 3. **Fault tolerance** — killing devices never loses a beam: the
//!    ledger stays conserved and every shed is itemized.
//! 4. **Transient tolerance** — arbitrary mixed kill / flap / slowdown /
//!    transient schedules never lose a beam either, and the recovery
//!    ledger's arithmetic holds (every bounce is retried or exhausted).
//! 5. **Determinism** — identical `(fleet, load, plan)` inputs produce
//!    identical reports and records.
//! 6. **No stranding** — a fleet that flaps down and comes back is
//!    re-trusted: late ticks run work again instead of shedding it.
//! 7. **Quiet when healthy** — a plan whose events all land after the
//!    horizon is indistinguishable from no plan at all.

use dedisp_fleet::{FaultEvent, FaultPlan, FleetRun, ResolvedFleet, Scheduler, SurveyLoad};
use proptest::prelude::*;

/// Runs the scheduler over a synthetic fleet.
fn run(spb: &[f64], trials: usize, beams: usize, ticks: usize, faults: &FaultPlan) -> FleetRun {
    let fleet = ResolvedFleet::synthetic(trials, spb);
    let load = SurveyLoad::custom(trials, beams, ticks);
    Scheduler::session(&fleet)
        .load(&load)
        .faults(faults)
        .run()
        .expect("valid inputs")
}

/// Builds a fault plan killing `kills.len()` distinct devices.
fn plan_from(kills: &[(usize, f64)], devices: usize) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for &(victim, at) in kills {
        plan = plan.with_kill(victim % devices, at);
    }
    plan
}

/// Raw material for one generated fault event: `(kind, device, onset,
/// duration, factor, count)`. Mapped onto a valid [`FaultEvent`] so
/// every generated plan passes `FaultPlan::validate`.
type RawEvent = (u8, usize, f64, f64, f64, usize);

/// Folds generated raw events into a valid mixed-kind fault plan.
fn mixed_plan(events: &[RawEvent], devices: usize, offset: f64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for &(kind, dev, t0, dur, factor, count) in events {
        let dev = dev % devices;
        let t0 = t0 + offset;
        plan = plan.with_event(
            dev,
            match kind % 4 {
                0 => FaultEvent::Kill { at: t0 },
                1 => FaultEvent::Flap {
                    down_at: t0,
                    up_at: t0 + dur,
                },
                2 => FaultEvent::Slowdown {
                    from: t0,
                    until: t0 + dur,
                    factor,
                },
                _ => FaultEvent::Transient { at: t0, count },
            },
        );
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 1: every admitted beam is completed or shed exactly
    /// once, under arbitrary (even infeasible) fleets and loads.
    #[test]
    fn every_admitted_beam_has_exactly_one_outcome(
        spb in prop::collection::vec(0.01f64..2.0, 1..10),
        trials in 8usize..4096,
        beams in 1usize..40,
        ticks in 1usize..5,
    ) {
        let run = run(&spb, trials, beams, ticks, &FaultPlan::none());
        let r = &run.report;
        prop_assert!(r.conservation_ok());
        prop_assert_eq!(r.admitted, beams * ticks);
        prop_assert_eq!(run.records.len(), r.admitted);
        // The ledger is indexed and each slot holds its own beam.
        for (i, rec) in run.records.iter().enumerate() {
            prop_assert_eq!(rec.index, i);
            prop_assert_eq!(rec.index, rec.tick * beams + rec.beam);
        }
        // Aggregates agree with the itemized sheds.
        prop_assert_eq!(r.sheds.len(), r.degraded + r.shed_whole);
    }

    /// Invariant 2: a healthy fleet with enough §V-D capacity for the
    /// batch never misses a deadline and never sheds.
    #[test]
    fn feasible_healthy_fleet_never_misses(
        spb in prop::collection::vec(0.05f64..0.9, 1..12),
        trials in 8usize..4096,
        ticks in 1usize..5,
        batch_frac in 0.1f64..1.0,
    ) {
        let fleet = ResolvedFleet::synthetic(trials, &spb);
        let capacity = fleet.beams_capacity();
        prop_assume!(capacity > 0);
        // Offer at most the fleet's sustainable batch size.
        let beams = ((capacity as f64 * batch_frac).floor() as usize).max(1);
        let run = run(&spb, trials, beams, ticks, &FaultPlan::none());
        let r = &run.report;
        prop_assert!(r.conservation_ok());
        prop_assert_eq!(r.deadline_misses, 0);
        prop_assert_eq!(r.degraded, 0);
        prop_assert_eq!(r.shed_whole, 0);
        prop_assert_eq!(r.completed, beams * ticks);
        prop_assert!(r.sheds.is_empty());
    }

    /// Invariant 3: killing devices never loses a beam — outcomes stay
    /// conserved and every shed is itemized with consistent arithmetic.
    #[test]
    fn killing_devices_never_loses_beams(
        spb in prop::collection::vec(0.05f64..1.5, 2..10),
        trials in 8usize..4096,
        beams in 1usize..30,
        ticks in 1usize..5,
        kills in prop::collection::vec((0usize..64, 0.0f64..4.0), 1..6),
    ) {
        let devices = spb.len();
        let faults = plan_from(&kills, devices);
        let run = run(&spb, trials, beams, ticks, &faults);
        let r = &run.report;
        prop_assert!(r.conservation_ok());
        prop_assert_eq!(
            r.completed + r.degraded + r.deadline_misses + r.shed_whole,
            beams * ticks
        );
        // Sheds are all accounted, with kept + shed = trials.
        for shed in &r.sheds {
            prop_assert_eq!(
                shed.kept_trials + shed.shed_trials,
                trials,
                "shed arithmetic for beam {}",
                shed.index
            );
        }
        prop_assert_eq!(
            r.total_shed_trials,
            r.sheds.iter().map(|s| s.shed_trials).sum::<usize>()
        );
        // Killed devices are flagged; survivors are not.
        for d in &r.devices {
            prop_assert_eq!(d.died_at, faults.kill_time(d.id));
        }
    }

    /// Killing the whole fleet is the degenerate fault case: everything
    /// is shed whole, loudly.
    #[test]
    fn killing_everything_sheds_everything(
        spb in prop::collection::vec(0.1f64..0.5, 1..6),
        beams in 1usize..10,
    ) {
        let faults = FaultPlan::kill_fraction(spb.len(), 1.0, 0.0);
        let run = run(&spb, 64, beams, 2, &faults);
        let r = &run.report;
        prop_assert!(r.conservation_ok());
        prop_assert_eq!(r.shed_whole, r.admitted);
        prop_assert_eq!(r.sheds.len(), r.admitted);
        prop_assert_eq!(r.completed + r.degraded + r.deadline_misses, 0);
    }

    /// Invariant 4: arbitrary mixed kill/flap/slowdown/transient
    /// schedules never lose a beam, never double-complete one, and the
    /// recovery ledger's arithmetic stays closed: every observed bounce
    /// is either retried or shed with its retry budget exhausted.
    #[test]
    fn mixed_fault_schedules_never_lose_beams(
        spb in prop::collection::vec(0.05f64..1.5, 2..8),
        trials in 8usize..2048,
        beams in 1usize..24,
        ticks in 1usize..6,
        events in prop::collection::vec(
            (0u8..4, 0usize..16, 0.0f64..4.0, 0.1f64..1.5, 1.2f64..3.5, 1usize..4),
            0..10,
        ),
    ) {
        let devices = spb.len();
        let faults = mixed_plan(&events, devices, 0.0);
        let run = run(&spb, trials, beams, ticks, &faults);
        let r = &run.report;
        prop_assert!(r.conservation_ok());
        prop_assert_eq!(r.admitted, beams * ticks);
        prop_assert_eq!(run.records.len(), r.admitted);
        // Exactly one terminal outcome per beam: the ledger is dense
        // and each slot holds its own index (a double completion would
        // have panicked the dispatcher before we got here).
        for (i, rec) in run.records.iter().enumerate() {
            prop_assert_eq!(rec.index, i);
        }
        // Recovery arithmetic: a bounce either earns a retry or sheds
        // the beam with its budget exhausted — never silence.
        prop_assert_eq!(r.bounced, r.retries + r.retry_exhausted);
        prop_assert_eq!(
            r.bounced,
            r.devices.iter().map(|d| d.bounces).sum::<usize>()
        );
        // Only permanent kills flag a device dead; flaps, slowdowns,
        // and transients do not.
        for d in &r.devices {
            prop_assert_eq!(d.died_at, faults.kill_time(d.id));
        }
        for shed in &r.sheds {
            prop_assert_eq!(shed.kept_trials + shed.shed_trials, trials);
        }
    }

    /// Invariant 5: the scheduler is deterministic. Two runs of the
    /// same `(fleet, load, plan)` produce identical reports and beam
    /// records.
    #[test]
    fn identical_inputs_give_identical_reports(
        spb in prop::collection::vec(0.05f64..1.0, 2..6),
        trials in 8usize..1024,
        beams in 1usize..16,
        ticks in 1usize..5,
        events in prop::collection::vec(
            (0u8..4, 0usize..16, 0.0f64..4.0, 0.1f64..1.5, 1.2f64..3.5, 1usize..4),
            0..6,
        ),
    ) {
        let faults = mixed_plan(&events, spb.len(), 0.0);
        let a = run(&spb, trials, beams, ticks, &faults);
        let b = run(&spb, trials, beams, ticks, &faults);
        prop_assert_eq!(a.report, b.report);
        prop_assert_eq!(a.records, b.records);
    }

    /// Invariant 6: quarantine never strands a beam. Flap the *whole*
    /// fleet through a bounded outage: once the outage ends, probes and
    /// canaries re-trust the devices, so the final tick places beams
    /// again instead of shedding them — and every bounce that happened
    /// on the way is still accounted for.
    #[test]
    fn recovered_fleets_do_not_strand_beams(
        spb in prop::collection::vec(0.05f64..0.4, 1..5),
        beams in 1usize..8,
        down_at in 0.3f64..0.9,
        outage in 0.2f64..1.6,
    ) {
        let ticks = 6;
        let mut faults = FaultPlan::none();
        for d in 0..spb.len() {
            faults = faults.with_flap(d, down_at, down_at + outage);
        }
        let run = run(&spb, 256, beams, ticks, &faults);
        let r = &run.report;
        prop_assert!(r.conservation_ok());
        // The outage is over well before the last tick releases; by
        // then at least one device has been canaried back to Healthy,
        // so nothing released there is shed for lack of devices.
        let last_tick = ticks - 1;
        for rec in run.records.iter().filter(|rec| rec.tick == last_tick) {
            prop_assert!(
                !matches!(rec.outcome, dedisp_fleet::BeamOutcome::ShedWhole { .. }),
                "beam {} stranded after recovery: {:?}",
                rec.index,
                rec.outcome
            );
        }
        // If the fleet ever bounced work it must also have recovered,
        // and no device is left permanently distrusted.
        if r.bounced > 0 {
            prop_assert!(r.recoveries >= 1);
            prop_assert!(r.probes >= 1);
        }
        prop_assert!(r.devices.iter().all(|d| d.died_at.is_none()));
    }

    /// Invariant 7: a plan whose every event lands beyond the horizon
    /// is indistinguishable from running with no plan at all — the
    /// zero-fault path is byte-identical to today's reports.
    #[test]
    fn far_future_faults_are_invisible(
        spb in prop::collection::vec(0.05f64..1.0, 1..6),
        trials in 8usize..1024,
        beams in 1usize..16,
        ticks in 1usize..4,
        events in prop::collection::vec(
            // Kinds 1..4 only: flap / slowdown / transient. A far-future
            // *kill* is legitimately visible (it sets `died_at`).
            (1u8..4, 0usize..16, 0.0f64..4.0, 0.1f64..1.5, 1.2f64..3.5, 1usize..4),
            0..6,
        ),
    ) {
        let faults = mixed_plan(&events, spb.len(), 1.0e4);
        let faulted = run(&spb, trials, beams, ticks, &faults);
        let clean = run(&spb, trials, beams, ticks, &FaultPlan::none());
        prop_assert_eq!(faulted.report, clean.report);
        prop_assert_eq!(faulted.records, clean.records);
    }
}
