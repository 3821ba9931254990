//! Property-based grid (sharded scheduling) invariants.
//!
//! Properties the grid layer must hold for any fleet shape, shard
//! count, load, routing policy, and failure schedule:
//!
//! 1. **Equivalent admission** — a sharded run admits exactly the same
//!    set of global beams as a single scheduler over the union fleet,
//!    and its merged ledger reports every one of them exactly once.
//! 2. **Ledger merging** — the global totals equal the sums over the
//!    per-shard ledgers, shed for shed.
//! 3. **Feasibility** — a healthy grid whose every shard can absorb
//!    its share of the batch never misses a deadline and never sheds.
//! 4. **Fault tolerance** — whole-shard kills and device kills never
//!    lose a beam: the global ledger stays conserved across shards.
//! 5. **Flap tolerance** — shard flaps plus arbitrary per-device
//!    transient schedules never lose a beam either, and the supervisor
//!    ledger's arithmetic closes (re-homed beams sum across shards).
//! 6. **Determinism** — identical `(shards, load, policy, plan)`
//!    inputs yield identical grid reports and records.

use dedisp_fleet::{
    FaultEvent, Grid, GridAdmission, GridFaultPlan, GridReport, GridRun, RebalancePolicy,
    ResolvedFleet, Scheduler, SurveyLoad,
};
use proptest::prelude::*;

/// Deals `spb` devices round-robin into (at most) `shards` shard
/// fleets, skipping shards that would end up empty.
fn shard_fleets(spb: &[f64], shards: usize, trials: usize) -> Vec<ResolvedFleet> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); shards.max(1)];
    for (i, &s) in spb.iter().enumerate() {
        per[i % shards.max(1)].push(s);
    }
    per.into_iter()
        .filter(|v| !v.is_empty())
        .map(|v| ResolvedFleet::synthetic(trials, &v))
        .collect()
}

fn run_grid(
    fleets: &[ResolvedFleet],
    load: &SurveyLoad,
    policy: RebalancePolicy,
    faults: &GridFaultPlan,
) -> GridRun {
    run_grid_with(fleets, load, policy, faults, GridAdmission::PerShard)
}

fn run_grid_with(
    fleets: &[ResolvedFleet],
    load: &SurveyLoad,
    policy: RebalancePolicy,
    faults: &GridFaultPlan,
    admission: GridAdmission,
) -> GridRun {
    Grid::session(fleets)
        .policy(policy)
        .admission(admission)
        .load(load)
        .faults(faults)
        .run()
        .expect("valid grid inputs")
}

fn policies() -> impl Strategy<Value = RebalancePolicy> {
    prop::sample::select(vec![
        RebalancePolicy::StaticHash,
        RebalancePolicy::LoadAware,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Invariant 1: sharding never changes *what* is admitted — only
    /// where it runs. The sharded run and a single-scheduler run over
    /// the union fleet admit the same global beams, and both ledgers
    /// conserve every one.
    #[test]
    fn sharded_and_single_runs_admit_the_same_beams(
        spb in prop::collection::vec(0.05f64..1.5, 1..8),
        trials in 8usize..2048,
        beams in 1usize..24,
        ticks in 1usize..4,
        shards in 1usize..5,
        policy in policies(),
    ) {
        let fleets = shard_fleets(&spb, shards, trials);
        let load = SurveyLoad::custom(trials, beams, ticks);
        let grid = run_grid(&fleets, &load, policy, &GridFaultPlan::none());
        let union = ResolvedFleet::synthetic(trials, &spb);
        let single = Scheduler::session(&union).load(&load).run().expect("single run");

        prop_assert!(grid.report.conservation_ok());
        prop_assert!(single.report.conservation_ok());
        prop_assert_eq!(grid.report.admitted, single.report.admitted);
        prop_assert_eq!(grid.records.len(), single.records.len());
        // Same global identities, in the same global order.
        for (g, s) in grid.records.iter().zip(&single.records) {
            prop_assert_eq!(g.index, s.index);
            prop_assert_eq!(g.tick, s.tick);
            prop_assert_eq!(g.beam, s.beam);
            prop_assert!(g.shard < fleets.len());
        }
    }

    /// Invariant 2: the merged ledger *is* the sum of the shard
    /// ledgers — outcome totals, shed counts, and shed trial DMs all
    /// agree, even under faults.
    #[test]
    fn merged_ledger_equals_sum_of_shard_ledgers(
        spb in prop::collection::vec(0.05f64..1.5, 2..8),
        trials in 8usize..2048,
        beams in 1usize..20,
        ticks in 1usize..4,
        shards in 2usize..5,
        policy in policies(),
        kill_shard in 0usize..8,
        kill_at in 0.0f64..3.0,
    ) {
        let fleets = shard_fleets(&spb, shards, trials);
        let load = SurveyLoad::custom(trials, beams, ticks);
        let faults = GridFaultPlan::none().with_shard_kill(kill_shard % fleets.len(), kill_at);
        let grid = run_grid(&fleets, &load, policy, &faults);
        let r = &grid.report;

        prop_assert!(r.conservation_ok());
        let sum = |f: fn(&dedisp_fleet::FleetReport) -> usize|
            r.shards.iter().map(f).sum::<usize>();
        prop_assert_eq!(r.admitted, sum(|s| s.admitted));
        prop_assert_eq!(r.completed, sum(|s| s.completed));
        prop_assert_eq!(r.degraded, sum(|s| s.degraded));
        prop_assert_eq!(r.deadline_misses, sum(|s| s.deadline_misses));
        prop_assert_eq!(r.shed_whole, sum(|s| s.shed_whole));
        prop_assert_eq!(r.total_shed_trials, sum(|s| s.total_shed_trials));
        prop_assert_eq!(
            r.sheds.len(),
            r.shards.iter().map(|s| s.sheds.len()).sum::<usize>()
        );
        // Shed arithmetic survives the merge.
        for shed in &r.sheds {
            prop_assert_eq!(shed.kept_trials + shed.shed_trials, trials);
            prop_assert!(shed.index < r.admitted);
        }
    }

    /// Invariant 3: a healthy grid of identical shards, offered exactly
    /// its aggregate capacity, never misses a deadline and never sheds
    /// — under either routing policy.
    #[test]
    fn feasible_healthy_grids_never_miss(
        shard_spb in prop::collection::vec(0.05f64..0.5, 1..5),
        shards in 1usize..5,
        trials in 8usize..2048,
        ticks in 1usize..4,
        policy in policies(),
    ) {
        let one_shard = ResolvedFleet::synthetic(trials, &shard_spb);
        let per_shard_capacity = one_shard.beams_capacity();
        prop_assume!(per_shard_capacity > 0);
        let fleets: Vec<ResolvedFleet> = (0..shards).map(|_| one_shard.clone()).collect();
        // Exactly capacity: every shard's fair share equals what it
        // can sustain.
        let load = SurveyLoad::custom(trials, per_shard_capacity * shards, ticks);
        let grid = run_grid(&fleets, &load, policy, &GridFaultPlan::none());
        let r = &grid.report;
        prop_assert!(r.conservation_ok());
        prop_assert_eq!(r.deadline_misses, 0);
        prop_assert_eq!(r.degraded, 0);
        prop_assert_eq!(r.shed_whole, 0);
        prop_assert_eq!(r.completed, r.admitted);
        prop_assert!(r.sheds.is_empty());
        prop_assert_eq!(r.rehomed, 0);
    }

    /// Invariant 4: killing shards (whole) and devices (within shards)
    /// never loses a beam anywhere on the grid.
    #[test]
    fn killing_shards_never_loses_beams(
        spb in prop::collection::vec(0.05f64..1.0, 2..10),
        trials in 8usize..2048,
        beams in 1usize..20,
        ticks in 1usize..4,
        shards in 2usize..5,
        policy in policies(),
        shard_kills in prop::collection::vec((0usize..8, 0.0f64..4.0), 0..3),
        device_kills in prop::collection::vec((0usize..8, 0usize..8, 0.0f64..4.0), 0..3),
    ) {
        let fleets = shard_fleets(&spb, shards, trials);
        let n = fleets.len();
        let mut faults = GridFaultPlan::none();
        for &(s, at) in &shard_kills {
            faults = faults.with_shard_kill(s % n, at);
        }
        for &(s, d, at) in &device_kills {
            let s = s % n;
            faults = faults.with_device_kill(s, d % fleets[s].len(), at);
        }
        let grid = run_grid(&fleets, &load_of(trials, beams, ticks), policy, &faults);
        let r = &grid.report;
        prop_assert!(r.conservation_ok());
        prop_assert_eq!(
            r.completed + r.degraded + r.deadline_misses + r.shed_whole,
            beams * ticks
        );
        // Whole-shard kills mark every device of the shard dead, no
        // later than the (last-wins) scheduled shard kill time.
        for &(s, _) in &shard_kills {
            let s = s % n;
            let at = faults.shard_kill_time(s).expect("kill was scheduled");
            for d in &r.shards[s].devices {
                let died = d.died_at.expect("whole-shard kill flags every device");
                prop_assert!(died <= at + 1e-12);
            }
        }
    }

    /// Invariant 5: flapping shards and gliching devices never lose a
    /// beam, and the supervisor's ledger closes: the global re-homed
    /// count is exactly the sum of what each home shard gave away, and
    /// a shard never restarts more often than it flapped.
    #[test]
    fn flapped_shards_never_lose_beams(
        spb in prop::collection::vec(0.05f64..1.0, 2..8),
        trials in 8usize..1024,
        beams in 1usize..16,
        ticks in 2usize..6,
        shards in 2usize..5,
        policy in policies(),
        flaps in prop::collection::vec((0usize..8, 0.0f64..2.0, 0.1f64..1.5), 0..3),
        events in prop::collection::vec(
            (0usize..8, 0usize..8, 1u8..4, 0.0f64..3.0, 0.1f64..1.2, 1.2f64..3.0, 1usize..3),
            0..4,
        ),
    ) {
        let fleets = shard_fleets(&spb, shards, trials);
        let n = fleets.len();
        let mut faults = GridFaultPlan::none();
        for &(s, down, dur) in &flaps {
            faults = faults.with_shard_flap(s % n, down, down + dur);
        }
        for &(s, d, kind, t0, dur, factor, count) in &events {
            let s = s % n;
            let event = match kind {
                1 => FaultEvent::Flap { down_at: t0, up_at: t0 + dur },
                2 => FaultEvent::Slowdown { from: t0, until: t0 + dur, factor },
                _ => FaultEvent::Transient { at: t0, count },
            };
            faults = faults.with_device_event(s, d % fleets[s].len(), event);
        }
        let grid = run_grid(&fleets, &load_of(trials, beams, ticks), policy, &faults);
        let r = &grid.report;
        prop_assert!(r.conservation_ok());
        prop_assert_eq!(r.admitted, beams * ticks);
        prop_assert_eq!(r.supervisor.len(), n);
        prop_assert_eq!(
            r.rehomed,
            r.supervisor.iter().map(|c| c.rehomed_away).sum::<usize>()
        );
        for c in &r.supervisor {
            let scheduled = flaps.iter().filter(|&&(s, _, _)| s % n == c.shard).count();
            prop_assert_eq!(c.flaps, scheduled);
            prop_assert!(c.restarts <= c.flaps);
            // No kills were scheduled: the supervisor must agree, and
            // no device anywhere may be flagged permanently dead.
            prop_assert_eq!(c.killed_at, None);
        }
        for shard in &r.shards {
            prop_assert!(shard.devices.iter().all(|d| d.died_at.is_none()));
        }
    }

    /// Invariant 6: the grid is deterministic end to end. Two runs of
    /// the same `(shards, load, policy, plan)` produce identical
    /// reports and global records.
    #[test]
    fn identical_grid_inputs_give_identical_reports(
        spb in prop::collection::vec(0.05f64..1.0, 2..6),
        trials in 8usize..512,
        beams in 1usize..12,
        ticks in 1usize..4,
        shards in 2usize..4,
        policy in policies(),
        flaps in prop::collection::vec((0usize..8, 0.0f64..2.0, 0.1f64..1.5), 0..2),
    ) {
        let fleets = shard_fleets(&spb, shards, trials);
        let n = fleets.len();
        let mut faults = GridFaultPlan::none();
        for &(s, down, dur) in &flaps {
            faults = faults.with_shard_flap(s % n, down, down + dur);
        }
        let load = load_of(trials, beams, ticks);
        let a = run_grid(&fleets, &load, policy, &faults);
        let b = run_grid(&fleets, &load, policy, &faults);
        prop_assert_eq!(a.report, b.report);
        prop_assert_eq!(a.records, b.records);
    }

    /// Invariant 7: a single-shard grid under coordinated admission is
    /// ledger-identical to per-shard admission — *unconditionally*,
    /// faults included. With one shard every coordinated candidate ties
    /// the baseline, ties go to the baseline, and the baseline's
    /// ceiling is unconstrained.
    #[test]
    fn coordinated_single_shard_is_ledger_identical_to_per_shard(
        spb in prop::collection::vec(0.05f64..1.0, 1..6),
        trials in 8usize..1024,
        beams in 1usize..16,
        ticks in 1usize..4,
        flaps in prop::collection::vec((0.0f64..2.0, 0.1f64..1.5), 0..2),
        device_kills in prop::collection::vec((0usize..8, 0.0f64..3.0), 0..2),
    ) {
        let fleets = shard_fleets(&spb, 1, trials);
        let mut faults = GridFaultPlan::none();
        for &(down, dur) in &flaps {
            faults = faults.with_shard_flap(0, down, down + dur);
        }
        for &(d, at) in &device_kills {
            faults = faults.with_device_kill(0, d % fleets[0].len(), at);
        }
        let load = load_of(trials, beams, ticks);
        let per_shard =
            run_grid_with(&fleets, &load, RebalancePolicy::StaticHash, &faults, GridAdmission::PerShard);
        let coordinated =
            run_grid_with(&fleets, &load, RebalancePolicy::StaticHash, &faults, GridAdmission::Coordinated);
        prop_assert_eq!(coordinated.report.admission, GridAdmission::Coordinated);
        prop_assert_eq!(
            modulo_admission_mode(&per_shard.report),
            modulo_admission_mode(&coordinated.report)
        );
        prop_assert_eq!(per_shard.records, coordinated.records);
    }

    /// Invariant 8: on a healthy grid whose per-shard run misses no
    /// deadline, coordinated admission is a true Pareto move — it still
    /// misses nothing and never sheds *more* total trial DMs. (With
    /// periodic deadlines a miss-free run resets every device clock at
    /// each tick, so the planner's per-tick Pareto rule sums to a
    /// whole-run guarantee.)
    #[test]
    fn coordinated_admission_never_pareto_worsens_a_missless_grid(
        spb in prop::collection::vec(0.05f64..1.0, 2..8),
        trials in 8usize..1024,
        beams in 1usize..20,
        ticks in 1usize..4,
        shards in 2usize..5,
        policy in policies(),
    ) {
        let fleets = shard_fleets(&spb, shards, trials);
        let load = load_of(trials, beams, ticks);
        let per_shard =
            run_grid_with(&fleets, &load, policy, &GridFaultPlan::none(), GridAdmission::PerShard);
        prop_assume!(per_shard.report.deadline_misses == 0);
        let coordinated =
            run_grid_with(&fleets, &load, policy, &GridFaultPlan::none(), GridAdmission::Coordinated);
        prop_assert!(per_shard.report.conservation_ok());
        prop_assert!(coordinated.report.conservation_ok());
        prop_assert_eq!(coordinated.report.deadline_misses, 0);
        prop_assert!(
            coordinated.report.total_shed_trials <= per_shard.report.total_shed_trials,
            "coordinated shed {} > per-shard {}",
            coordinated.report.total_shed_trials,
            per_shard.report.total_shed_trials
        );
    }
}

fn load_of(trials: usize, beams: usize, ticks: usize) -> SurveyLoad {
    SurveyLoad::custom(trials, beams, ticks)
}

/// A grid report with the admission-mode label normalized, so
/// per-shard and coordinated reports can be compared for ledger
/// identity.
fn modulo_admission_mode(report: &GridReport) -> GridReport {
    let mut normalized = report.clone();
    normalized.admission = GridAdmission::default();
    normalized
}
