//! Fleet scheduler throughput: beam-seconds placed per second of wall
//! time as the fleet grows. Placement cost is dominated by the greedy
//! earliest-finish scan (O(devices) per beam) plus the per-beam
//! admission, reply handling and telemetry encoding, so this tracks how
//! far the dispatcher design scales before it becomes the survey's
//! bottleneck.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dedisp_fleet::{FaultPlan, ResolvedFleet, Scheduler, SurveyLoad};
use std::hint::black_box;

/// A fleet of `n` devices fast enough to absorb the offered batch.
fn fleet_of(n: usize) -> ResolvedFleet {
    // Mildly heterogeneous costs so placement has real choices to make.
    let spb: Vec<f64> = (0..n).map(|d| 0.09 + 0.002 * (d % 5) as f64).collect();
    ResolvedFleet::synthetic(2000, &spb)
}

fn bench_placement_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet/beams_placed");
    for fleet_size in [8usize, 16, 32, 64] {
        let fleet = fleet_of(fleet_size);
        // Offer ~90% of capacity so the run is busy but feasible.
        let beams = fleet.beams_capacity() * 9 / 10;
        let load = SurveyLoad::custom(2000, beams, 3);
        group.throughput(Throughput::Elements(load.total_beams() as u64));
        group.bench_with_input(
            BenchmarkId::new("healthy", fleet_size),
            &fleet_size,
            |b, _| {
                b.iter(|| {
                    let run = Scheduler::session(black_box(&fleet))
                        .load(black_box(&load))
                        .run()
                        .unwrap();
                    assert!(run.report.conservation_ok());
                    black_box(run.report.completed)
                });
            },
        );
    }
    group.finish();
}

fn bench_fault_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet/fault_recovery");
    for fleet_size in [16usize, 64] {
        let fleet = fleet_of(fleet_size);
        let beams = fleet.beams_capacity() * 9 / 10;
        let load = SurveyLoad::custom(2000, beams, 3);
        let faults = FaultPlan::kill_fraction(fleet_size, 0.10, 1.5);
        group.throughput(Throughput::Elements(load.total_beams() as u64));
        group.bench_with_input(
            BenchmarkId::new("kill_10pct", fleet_size),
            &fleet_size,
            |b, _| {
                b.iter(|| {
                    let run = Scheduler::session(black_box(&fleet))
                        .load(black_box(&load))
                        .faults(black_box(&faults))
                        .run()
                        .unwrap();
                    assert!(run.report.conservation_ok());
                    black_box(run.report.degraded)
                });
            },
        );
    }
    group.finish();
}

fn bench_chaos_recovery(c: &mut Criterion) {
    // Transient faults exercise the expensive paths the kill plan
    // never reaches: retry re-placement, quarantine probes with
    // backoff, and probation canaries. Flap + slowdown a quarter of
    // the fleet so the health machine cycles end to end.
    let mut group = c.benchmark_group("fleet/chaos_recovery");
    for fleet_size in [16usize, 64] {
        let fleet = fleet_of(fleet_size);
        let beams = fleet.beams_capacity() * 9 / 10;
        let load = SurveyLoad::custom(2000, beams, 4);
        let mut faults = FaultPlan::none();
        for d in 0..fleet_size / 4 {
            faults = if d % 2 == 0 {
                faults.with_flap(d, 1.2, 2.4)
            } else {
                faults.with_slowdown(d, 1.2, 2.8, 2.0)
            };
        }
        group.throughput(Throughput::Elements(load.total_beams() as u64));
        group.bench_with_input(
            BenchmarkId::new("flap_slowdown_25pct", fleet_size),
            &fleet_size,
            |b, _| {
                b.iter(|| {
                    let run = Scheduler::session(black_box(&fleet))
                        .load(black_box(&load))
                        .faults(black_box(&faults))
                        .run()
                        .unwrap();
                    assert!(run.report.conservation_ok());
                    black_box(run.report.recoveries)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_placement_throughput,
    bench_fault_recovery,
    bench_chaos_recovery
);
criterion_main!(benches);
