//! The lock-cheap in-process metrics registry.
//!
//! A [`MetricsRegistry`] is a named collection of metric *families*
//! (counter, gauge, or fixed-bucket histogram), each holding one
//! series per distinct label set. Registration takes a write lock
//! once, at wiring time; the returned [`Counter`] / [`Gauge`] /
//! [`Histogram`] handles are `Arc`-shared atomics, so the hot path —
//! the scheduler's observer callback — never touches a lock. The
//! registry renders itself in the Prometheus text exposition format
//! via [`MetricsRegistry::render_prometheus`] (see [`super::expo`]).
//!
//! [`RegistryObserver`] is the bridge from the telemetry stream: it
//! derives the standard fleet metrics (event-kind counters, terminal
//! outcome counters, per-device queue-depth gauges, the per-tick drain
//! latency and placement-attempt histograms) purely from
//! [`TelemetryEvent`]s, so the scheduler/shard/grid hot paths stay
//! untouched apart from observer wiring. [`GridRegistry`] fans one of
//! those out per shard, labelled `shard="<i>"`, behind the live
//! [`crate::GridObserver`] interface.

use crate::batch::{EventKind, TickBatch};
use crate::capture::{BackpressurePolicy, CaptureDropCause};
use crate::metrics::BeamOutcome;
use crate::telemetry::{CaptureEvent, GridObserver, Observer, TelemetryEvent};
use manycore_sim::Algorithm;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Borrows an owned label list as the slice shape the registry's
/// registration API takes.
fn as_refs(owned: &[(String, String)]) -> Vec<(&str, &str)> {
    owned
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect()
}

/// Adds `v` to an `AtomicU64` holding `f64` bits, CAS-loop style.
fn add_f64(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotonically increasing counter handle.
///
/// Cloning shares the underlying cell; updates are single relaxed
/// atomic adds.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A settable gauge handle (stored as `f64` bits in one atomic word).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `v` (negative to subtract).
    pub fn add(&self, v: f64) {
        add_f64(&self.bits, v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bucket bounds, ascending; an implicit `+Inf` bucket
    /// follows the last bound.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; `bounds.len()+1`
    /// entries, last one the `+Inf` bucket.
    counts: Vec<AtomicU64>,
    /// Sum of observations, as `f64` bits.
    sum_bits: AtomicU64,
    /// Total observations.
    count: AtomicU64,
}

/// A fixed-bucket histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    fn with_bounds(bounds: &[f64]) -> Self {
        let mut sorted = bounds.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite bucket bounds"));
        sorted.dedup();
        let counts = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            core: Arc::new(HistogramCore {
                bounds: sorted,
                counts,
                sum_bits: AtomicU64::new(0f64.to_bits()),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.core.bounds.len());
        self.core.counts[idx].fetch_add(1, Ordering::Relaxed);
        add_f64(&self.core.sum_bits, v);
        self.core.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }

    /// Records many observations in one pass: bucket counts, the sum,
    /// and the total accumulate locally, then each touched atomic is
    /// written once — the batched-fold fast path. Equivalent to
    /// observing each value individually, except the sum is added as
    /// one grouped `f64` (rounding may differ in the last ulp).
    pub fn observe_many<I: IntoIterator<Item = f64>>(&self, values: I) {
        let bounds = &self.core.bounds;
        let mut counts = vec![0u64; bounds.len() + 1];
        let mut sum = 0.0;
        let mut total = 0u64;
        for v in values {
            let idx = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
            counts[idx] += 1;
            sum += v;
            total += 1;
        }
        if total == 0 {
            return;
        }
        for (cell, &n) in self.core.counts.iter().zip(&counts) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        add_f64(&self.core.sum_bits, sum);
        self.core.count.fetch_add(total, Ordering::Relaxed);
    }

    /// Cumulative bucket counts as `(le, count)` pairs, ending with the
    /// `(+Inf, total)` bucket — exactly the series the Prometheus
    /// exposition's `_bucket` lines carry.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.core.bounds.len() + 1);
        for (i, &le) in self.core.bounds.iter().enumerate() {
            acc += self.core.counts[i].load(Ordering::Relaxed);
            out.push((le, acc));
        }
        acc += self.core.counts[self.core.bounds.len()].load(Ordering::Relaxed);
        out.push((f64::INFINITY, acc));
        out
    }
}

/// The kind of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Settable gauge.
    Gauge,
    /// Fixed-bucket histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One registered metric handle, any kind.
#[derive(Debug, Clone)]
pub(crate) enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One labelled series of a family.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    pub(crate) labels: Vec<(String, String)>,
    pub(crate) metric: Metric,
}

/// One named metric family: shared name/help/kind, one series per
/// label set.
#[derive(Debug, Clone)]
pub(crate) struct Family {
    pub(crate) name: String,
    pub(crate) help: String,
    pub(crate) kind: MetricKind,
    pub(crate) series: Vec<Series>,
}

/// The registry: a cloneable handle to a shared set of families.
///
/// Registration (`counter` / `gauge` / `histogram`) is idempotent per
/// `(name, labels)` — re-registering returns a handle to the same
/// cell — and takes the registry's write lock; updating a returned
/// handle is lock-free.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: Arc<RwLock<Vec<Family>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut families = self.families.write();
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert_eq!(
                    f.kind, kind,
                    "metric {name} registered twice with different kinds"
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if let Some(series) = family.series.iter().find(|s| s.labels == labels) {
            return series.metric.clone();
        }
        let metric = make();
        family.series.push(Series {
            labels,
            metric: metric.clone(),
        });
        metric
    }

    /// Registers (or retrieves) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, labels, MetricKind::Counter, || {
            Metric::Counter(Counter::default())
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked by register"),
        }
    }

    /// Registers (or retrieves) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, labels, MetricKind::Gauge, || {
            Metric::Gauge(Gauge::default())
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind checked by register"),
        }
    }

    /// Registers (or retrieves) a fixed-bucket histogram series.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        match self.register(name, help, labels, MetricKind::Histogram, || {
            Metric::Histogram(Histogram::with_bounds(bounds))
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked by register"),
        }
    }

    /// Renders every family in the Prometheus text exposition format
    /// 0.0.4 (see [`super::expo`]).
    ///
    /// The family table is snapshotted under the read lock (series
    /// handles are cheap `Arc` clones) and the rendering — including
    /// each histogram's cumulative-bucket computation — runs outside
    /// it, so a slow scrape never stalls observers registering or
    /// folding on the tick loop.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.read().clone();
        super::expo::render(&families)
    }
}

/// Histogram bounds for placement attempts (attempt 1 = first try).
const ATTEMPT_BOUNDS: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 6.0];

/// Histogram bounds (wall-clock seconds) for `fleet_phase_seconds` —
/// the tracing plane's per-phase durations. Phases are
/// microsecond-to-millisecond scale, with the top buckets catching
/// liveness waits and restart backoffs.
pub(crate) const PHASE_SECONDS_BOUNDS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// Histogram bounds (virtual seconds) for per-tick drain latency —
/// how far into the 1 s real-time budget each beam's terminal event
/// lands after its tick's release.
const DRAIN_BOUNDS: [f64; 7] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];

/// Per-device handles of a [`RegistryObserver`].
#[derive(Debug)]
struct DeviceCells {
    queue_depth: Gauge,
    queue_depth_peak: Gauge,
    bounces: Counter,
    /// Shadow of the live depth, so peak tracking needs no read-back
    /// of the gauge.
    depth: AtomicU64,
    peak: AtomicU64,
}

/// An [`Observer`] deriving the standard fleet metrics from the
/// telemetry stream into a [`MetricsRegistry`].
///
/// All handles are registered up front (one write-lock pass at
/// construction); observing an event is a handful of relaxed atomic
/// updates. The tick table backing the drain-latency histogram grows
/// behind a [`parking_lot::RwLock`], written only on `Admission`
/// events (once per tick).
///
/// Everything derived here folds from the deterministic event stream,
/// so the rendered metrics of a finished run are as reproducible as
/// its report.
#[derive(Debug)]
pub struct RegistryObserver {
    registry: MetricsRegistry,
    events: Vec<(&'static str, Counter)>,
    outcomes: [(&'static str, Counter); 4],
    shed_trials: Counter,
    canaries: Counter,
    recoveries: Counter,
    tick: Gauge,
    kept_trials: Gauge,
    shed_tiers: Gauge,
    attempts: Histogram,
    drain: Histogram,
    devices: Vec<DeviceCells>,
    /// Per device, one `fleet_algorithm_assignments` gauge per
    /// algorithm label; exactly one is 1 at any time.
    algorithm_assignments: Vec<Vec<(&'static str, Gauge)>>,
    /// `(release, deadline)` per admitted tick, for drain latency.
    ticks: RwLock<Vec<(f64, f64)>>,
    capture_arrivals: Counter,
    capture_drops: Vec<(&'static str, Counter)>,
    capture_degrades: Vec<(&'static str, Counter)>,
    capture_ring_fill: Gauge,
    capture_ring_fill_peak: Gauge,
    capture_backlog: Gauge,
    /// Shadow of the ring-fill peak, so peak tracking needs no
    /// read-back of the gauge.
    capture_peak: AtomicU64,
}

/// The `fleet_events_total` label table, in [`EventKind`] discriminant
/// order — [`RegistryObserver::fold`] indexes the counter vector by
/// `EventKind::index()`, so this order is load-bearing (pinned by the
/// `event_kind_labels_match_the_counter_table` test).
const EVENT_KINDS: [&str; 14] = [
    "admission",
    "placed",
    "beam",
    "shed",
    "bounce",
    "retry",
    "probe",
    "health",
    "rebalance",
    "capture_arrival",
    "capture_drop",
    "capture_degrade",
    "capture_drain",
    "algorithm_switch",
];

impl RegistryObserver {
    /// Wires the standard fleet metrics for a `devices`-device
    /// scheduler into `registry`, unlabelled (single-fleet scope).
    pub fn new(registry: &MetricsRegistry, devices: usize) -> Self {
        Self::with_scope(registry, None, devices)
    }

    /// Like [`RegistryObserver::new`], but every series carries a
    /// `shard="<shard>"` label — the per-shard scope [`GridRegistry`]
    /// uses.
    pub fn for_shard(registry: &MetricsRegistry, shard: usize, devices: usize) -> Self {
        Self::with_scope(registry, Some(shard), devices)
    }

    fn with_scope(registry: &MetricsRegistry, shard: Option<usize>, devices: usize) -> Self {
        let scope: Vec<(String, String)> = shard
            .map(|s| vec![("shard".to_string(), s.to_string())])
            .unwrap_or_default();
        let with = |extra: &[(&str, &str)]| -> Vec<(String, String)> {
            let mut all = scope.clone();
            all.extend(extra.iter().map(|&(k, v)| (k.to_string(), v.to_string())));
            all
        };
        let events = EVENT_KINDS
            .iter()
            .map(|&kind| {
                let labels = with(&[("kind", kind)]);
                (
                    kind,
                    registry.counter(
                        "fleet_events_total",
                        "Telemetry events observed, by event kind.",
                        &as_refs(&labels),
                    ),
                )
            })
            .collect();
        let outcome = |name: &'static str| {
            let labels = with(&[("outcome", name)]);
            (
                name,
                registry.counter(
                    "fleet_beams_total",
                    "Beams reaching a terminal state, by outcome.",
                    &as_refs(&labels),
                ),
            )
        };
        let scoped = |name: &str, help: &str| {
            let labels = with(&[]);
            registry.counter(name, help, &as_refs(&labels))
        };
        let scoped_gauge = |name: &str, help: &str| {
            let labels = with(&[]);
            registry.gauge(name, help, &as_refs(&labels))
        };
        let device_cells = (0..devices)
            .map(|d| {
                let device = d.to_string();
                let labels = with(&[("device", &device)]);
                let refs = as_refs(&labels);
                DeviceCells {
                    queue_depth: registry.gauge(
                        "fleet_device_queue_depth",
                        "Beams placed on the device queue and not yet resolved.",
                        &refs,
                    ),
                    queue_depth_peak: registry.gauge(
                        "fleet_device_queue_depth_peak",
                        "High-water queue depth as folded from the event stream.",
                        &refs,
                    ),
                    bounces: registry.counter(
                        "fleet_device_bounces_total",
                        "Beams bounced off the device.",
                        &refs,
                    ),
                    depth: AtomicU64::new(0),
                    peak: AtomicU64::new(0),
                }
            })
            .collect();
        let algorithm_assignments = (0..devices)
            .map(|d| {
                let device = d.to_string();
                Algorithm::LABELS
                    .iter()
                    .map(|&label| {
                        let labels = with(&[("device", &device), ("algorithm", label)]);
                        let gauge = registry.gauge(
                            "fleet_algorithm_assignments",
                            "Whether the device currently runs the algorithm \
                             (1 = assigned).",
                            &as_refs(&labels),
                        );
                        // Fleets start on their primary rate, which is
                        // brute force unless a switch event says so.
                        gauge.set(f64::from(u8::from(label == Algorithm::BruteForce.label())));
                        (label, gauge)
                    })
                    .collect()
            })
            .collect();
        let capture_drops = CaptureDropCause::LABELS
            .iter()
            .map(|&cause| {
                let labels = with(&[("cause", cause)]);
                (
                    cause,
                    registry.counter(
                        "capture_drops_total",
                        "Blocks dropped at the capture front-end, by cause.",
                        &as_refs(&labels),
                    ),
                )
            })
            .collect();
        let capture_degrades = BackpressurePolicy::LABELS
            .iter()
            .map(|&policy| {
                let labels = with(&[("policy", policy)]);
                (
                    policy,
                    registry.counter(
                        "capture_degrade_total",
                        "Blocks degraded at the capture front-end, by policy.",
                        &as_refs(&labels),
                    ),
                )
            })
            .collect();
        let capture_arrivals = scoped(
            "capture_arrivals_total",
            "Blocks arrived at the capture front-end.",
        );
        let capture_ring_fill = scoped_gauge(
            "capture_ring_fill",
            "Capture ring byte footprint as of the last drain.",
        );
        let capture_ring_fill_peak = scoped_gauge(
            "capture_ring_fill_peak",
            "High-water capture ring byte footprint seen in the stream.",
        );
        let capture_backlog = scoped_gauge(
            "capture_backlog_blocks",
            "Blocks buffered in the capture ring as of the last drain.",
        );
        let attempt_labels = with(&[]);
        let drain_labels = with(&[]);
        Self {
            registry: registry.clone(),
            events,
            outcomes: [
                outcome("completed"),
                outcome("degraded"),
                outcome("missed"),
                outcome("shed_whole"),
            ],
            shed_trials: scoped(
                "fleet_shed_trials_total",
                "Trial DMs shed by admission or pressure.",
            ),
            canaries: scoped(
                "fleet_canary_placements_total",
                "Probation canary placements.",
            ),
            recoveries: scoped(
                "fleet_recoveries_total",
                "Device transitions back to Healthy.",
            ),
            tick: scoped_gauge("fleet_tick", "Most recent tick with an admission ruling."),
            kept_trials: scoped_gauge(
                "fleet_kept_trials_in_force",
                "Trial DMs per beam in force for the current tick.",
            ),
            shed_tiers: scoped_gauge(
                "fleet_shed_tiers_in_force",
                "Shed tiers in force for the current tick.",
            ),
            attempts: registry.histogram(
                "fleet_placement_attempts",
                "Placement attempt number per placement (1 = first try).",
                &as_refs(&attempt_labels),
                &ATTEMPT_BOUNDS,
            ),
            drain: registry.histogram(
                "fleet_tick_drain_seconds",
                "Virtual seconds from a beam's tick release to its terminal \
                 event (per-tick drain latency).",
                &as_refs(&drain_labels),
                &DRAIN_BOUNDS,
            ),
            devices: device_cells,
            algorithm_assignments,
            ticks: RwLock::new(Vec::new()),
            capture_arrivals,
            capture_drops,
            capture_degrades,
            capture_ring_fill,
            capture_ring_fill_peak,
            capture_backlog,
            capture_peak: AtomicU64::new(0),
        }
    }

    /// The registry this observer writes to.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn device(&self, d: usize) -> Option<&DeviceCells> {
        self.devices.get(d)
    }

    /// Flips the device's assignment gauges for one algorithm switch.
    fn fold_switch(&self, device: usize, from: Algorithm, to: Algorithm) {
        if let Some(cells) = self.algorithm_assignments.get(device) {
            for (label, gauge) in cells {
                if *label == from.label() {
                    gauge.set(0.0);
                }
                if *label == to.label() {
                    gauge.set(1.0);
                }
            }
        }
    }

    fn depth_delta(&self, d: usize, delta: i64) {
        if let Some(cells) = self.device(d) {
            let depth = if delta >= 0 {
                cells.depth.fetch_add(delta as u64, Ordering::Relaxed) + delta as u64
            } else {
                let sub = (-delta) as u64;
                let before = cells.depth.load(Ordering::Relaxed);
                let after = before.saturating_sub(sub);
                cells.depth.store(after, Ordering::Relaxed);
                after
            };
            cells.queue_depth.set(depth as f64);
            if depth > cells.peak.load(Ordering::Relaxed) {
                cells.peak.store(depth, Ordering::Relaxed);
                cells.queue_depth_peak.set(depth as f64);
            }
        }
    }

    /// Folds one event; `&self` because every cell is atomic (this is
    /// what lets [`GridRegistry`] share per-shard observers across
    /// threads behind [`GridObserver`]).
    pub fn fold(&self, event: &TelemetryEvent) {
        self.fold_kind(EventKind::of(event));
        self.fold_detail(event);
    }

    /// Folds a whole batch straight off its columns — no event is
    /// materialized. Per-kind counters add the column lengths;
    /// commutative details (outcomes, sheds, canaries, recoveries,
    /// capture counts, histograms) accumulate locally and flush with
    /// one atomic touch per cell; the order-sensitive queue-depth
    /// trajectory walks the order table once with local per-device
    /// state and writes each touched cell back once. The final
    /// registry state matches folding the same events one at a time,
    /// except that histogram sums are grouped before the atomic add
    /// (floating-point rounding can differ in the last ulp).
    pub fn fold_batch(&self, batch: &TickBatch) {
        if batch.is_empty() {
            return;
        }
        for kind in EventKind::ALL {
            let n = batch.count_kind(kind);
            if n > 0 {
                if let Some((_, c)) = self.events.get(kind.index()) {
                    c.add(n as u64);
                }
            }
        }
        // Admission gauges are last-write-wins; the tick table takes
        // one write lock for the whole batch. Admissions precede their
        // tick's beams in the stream, so filling the table before the
        // beam fold below preserves the per-event drain semantics.
        if let Some(last) = batch.admissions.last() {
            self.tick.set(last.tick as f64);
            self.kept_trials.set(last.kept_trials as f64);
            self.shed_tiers.set(last.shed_tiers as f64);
            let mut ticks = self.ticks.write();
            for r in &batch.admissions {
                let tick = r.tick as usize;
                if tick >= ticks.len() {
                    ticks.resize(tick + 1, (r.release, r.deadline));
                }
                ticks[tick] = (r.release, r.deadline);
            }
        }
        if !batch.placed.is_empty() {
            // One pass over the placed column: the histogram consumes
            // the attempt numbers while the same traversal counts
            // canaries on the side.
            let mut canaries = 0u64;
            self.attempts.observe_many(batch.placed.iter().map(|r| {
                canaries += u64::from(r.canary);
                f64::from(r.attempt)
            }));
            if canaries > 0 {
                self.canaries.add(canaries);
            }
        }
        if !batch.beams.is_empty() {
            let mut outcome_counts = [0u64; 4];
            {
                let ticks = self.ticks.read();
                self.drain
                    .observe_many(batch.beams.iter().filter_map(|record| {
                        let (slot, finish) = match record.outcome {
                            BeamOutcome::Completed { finish, .. } => (0, Some(finish)),
                            BeamOutcome::Degraded { finish, .. } => (1, Some(finish)),
                            BeamOutcome::Missed { finish, .. } => (2, Some(finish)),
                            BeamOutcome::ShedWhole { .. } => (3, None),
                        };
                        outcome_counts[slot] += 1;
                        let finish = finish?;
                        ticks.get(record.tick).map(|&(release, _)| finish - release)
                    }));
            }
            for ((_, counter), &n) in self.outcomes.iter().zip(&outcome_counts) {
                if n > 0 {
                    counter.add(n);
                }
            }
        }
        if !batch.sheds.is_empty() {
            let total: u64 = batch.sheds.iter().map(|s| s.shed_trials as u64).sum();
            self.shed_trials.add(total);
        }
        for bounce in &batch.bounces {
            if let Some(cells) = self.device(bounce.device as usize) {
                cells.bounces.inc();
            }
        }
        if !batch.health.is_empty() {
            let recoveries = batch
                .health
                .iter()
                .filter(|h| h.to == crate::metrics::HealthState::Healthy)
                .count();
            if recoveries > 0 {
                self.recoveries.add(recoveries as u64);
            }
        }
        if !batch.captures.is_empty() {
            self.fold_captures(&batch.captures);
        }
        for switch in &batch.switches {
            self.fold_switch(switch.device as usize, switch.from, switch.to);
        }
        // Queue depths need the exact interleaving of placements and
        // resolutions; replay the batch's dense precomputed trajectory
        // with local per-device state, then write each touched cell
        // back once.
        if !batch.depth_steps.is_empty() {
            let mut local: Vec<(u64, u64, bool)> = self
                .devices
                .iter()
                .map(|c| {
                    (
                        c.depth.load(Ordering::Relaxed),
                        c.peak.load(Ordering::Relaxed),
                        false,
                    )
                })
                .collect();
            for &(device, up) in &batch.depth_steps {
                if let Some((depth, peak, touched)) = local.get_mut(device as usize) {
                    *depth = if up {
                        *depth + 1
                    } else {
                        depth.saturating_sub(1)
                    };
                    *peak = (*peak).max(*depth);
                    *touched = true;
                }
            }
            for (cells, &(depth, peak, touched)) in self.devices.iter().zip(&local) {
                if !touched {
                    continue;
                }
                cells.depth.store(depth, Ordering::Relaxed);
                cells.queue_depth.set(depth as f64);
                if peak > cells.peak.load(Ordering::Relaxed) {
                    cells.peak.store(peak, Ordering::Relaxed);
                    cells.queue_depth_peak.set(peak as f64);
                }
            }
        }
    }

    /// The capture column of a batched fold: counts accumulate
    /// locally; the ring gauges are last-write-wins with a monotone
    /// peak, exactly as the per-event fold leaves them.
    fn fold_captures(&self, captures: &[CaptureEvent]) {
        let mut arrivals = 0u64;
        let mut last_drain = None;
        let mut drain_peak = 0u64;
        for capture in captures {
            match *capture {
                CaptureEvent::Arrival { .. } => arrivals += 1,
                CaptureEvent::Drop { cause, .. } => {
                    if let Some((_, c)) = self
                        .capture_drops
                        .iter()
                        .find(|(label, _)| *label == cause.label())
                    {
                        c.inc();
                    }
                }
                CaptureEvent::Degrade { policy, .. } => {
                    if let Some((_, c)) = self
                        .capture_degrades
                        .iter()
                        .find(|(label, _)| *label == policy.label())
                    {
                        c.inc();
                    }
                }
                CaptureEvent::Drain {
                    backlog_blocks,
                    ring_bytes,
                    ..
                } => {
                    last_drain = Some((backlog_blocks, ring_bytes));
                    drain_peak = drain_peak.max(ring_bytes as u64);
                }
            }
        }
        if arrivals > 0 {
            self.capture_arrivals.add(arrivals);
        }
        if let Some((backlog_blocks, ring_bytes)) = last_drain {
            self.capture_ring_fill.set(ring_bytes as f64);
            self.capture_backlog.set(backlog_blocks as f64);
            if drain_peak > self.capture_peak.load(Ordering::Relaxed) {
                self.capture_peak.store(drain_peak, Ordering::Relaxed);
                self.capture_ring_fill_peak.set(drain_peak as f64);
            }
        }
    }

    /// Bumps the `fleet_events_total` counter for `kind`, indexed by
    /// the dense discriminant (the counter vector is built from
    /// [`EVENT_KINDS`], which is in [`EventKind`] order).
    fn fold_kind(&self, kind: EventKind) {
        if let Some((_, c)) = self.events.get(kind.index()) {
            c.inc();
        }
    }

    /// Everything [`RegistryObserver::fold`] derives beyond the
    /// per-kind counter.
    fn fold_detail(&self, event: &TelemetryEvent) {
        match *event {
            TelemetryEvent::Admission {
                tick,
                release,
                deadline,
                kept_trials,
                shed_tiers,
                ..
            } => {
                self.tick.set(tick as f64);
                self.kept_trials.set(kept_trials as f64);
                self.shed_tiers.set(shed_tiers as f64);
                let mut ticks = self.ticks.write();
                if tick >= ticks.len() {
                    ticks.resize(tick + 1, (release, deadline));
                }
                ticks[tick] = (release, deadline);
            }
            TelemetryEvent::Placed {
                device,
                attempt,
                canary,
                ..
            } => {
                self.attempts.observe(attempt as f64);
                if canary {
                    self.canaries.inc();
                }
                self.depth_delta(device, 1);
            }
            TelemetryEvent::Beam(ref record) => {
                let (name, finish, device) = match record.outcome {
                    BeamOutcome::Completed { device, finish } => {
                        ("completed", Some(finish), Some(device))
                    }
                    BeamOutcome::Degraded { device, finish, .. } => {
                        ("degraded", Some(finish), Some(device))
                    }
                    BeamOutcome::Missed { device, finish, .. } => {
                        ("missed", Some(finish), Some(device))
                    }
                    BeamOutcome::ShedWhole { .. } => ("shed_whole", None, None),
                };
                if let Some((_, c)) = self.outcomes.iter().find(|(n, _)| *n == name) {
                    c.inc();
                }
                if let Some(finish) = finish {
                    if let Some(&(release, _)) = self.ticks.read().get(record.tick) {
                        self.drain.observe(finish - release);
                    }
                }
                if let Some(device) = device {
                    self.depth_delta(device, -1);
                }
            }
            TelemetryEvent::Shed(ref shed) => {
                self.shed_trials.add(shed.shed_trials as u64);
            }
            TelemetryEvent::Bounce { device, .. } => {
                if let Some(cells) = self.device(device) {
                    cells.bounces.inc();
                }
                self.depth_delta(device, -1);
            }
            TelemetryEvent::Health(health) => {
                if health.to == crate::metrics::HealthState::Healthy {
                    self.recoveries.inc();
                }
            }
            TelemetryEvent::Capture(capture) => match capture {
                CaptureEvent::Arrival { .. } => self.capture_arrivals.inc(),
                CaptureEvent::Drop { cause, .. } => {
                    if let Some((_, c)) = self
                        .capture_drops
                        .iter()
                        .find(|(label, _)| *label == cause.label())
                    {
                        c.inc();
                    }
                }
                CaptureEvent::Degrade { policy, .. } => {
                    if let Some((_, c)) = self
                        .capture_degrades
                        .iter()
                        .find(|(label, _)| *label == policy.label())
                    {
                        c.inc();
                    }
                }
                CaptureEvent::Drain {
                    backlog_blocks,
                    ring_bytes,
                    ..
                } => {
                    self.capture_ring_fill.set(ring_bytes as f64);
                    self.capture_backlog.set(backlog_blocks as f64);
                    if (ring_bytes as u64) > self.capture_peak.load(Ordering::Relaxed) {
                        self.capture_peak
                            .store(ring_bytes as u64, Ordering::Relaxed);
                        self.capture_ring_fill_peak.set(ring_bytes as f64);
                    }
                }
            },
            TelemetryEvent::AlgorithmSwitch {
                device, from, to, ..
            } => self.fold_switch(device, from, to),
            TelemetryEvent::Retry { .. }
            | TelemetryEvent::Probe { .. }
            | TelemetryEvent::Rebalance { .. } => {}
        }
    }
}

impl Observer for RegistryObserver {
    fn observe(&mut self, event: &TelemetryEvent) {
        self.fold(event);
    }

    fn observe_batch(&mut self, batch: &TickBatch) {
        self.fold_batch(batch);
    }
}

/// Grid-scope registry wiring: one [`RegistryObserver`] per shard
/// (series labelled `shard="<i>"`) plus a grid-level rebalance
/// counter, behind the live [`GridObserver`] interface.
#[derive(Debug)]
pub struct GridRegistry {
    shards: Vec<RegistryObserver>,
    rebalances: Counter,
}

impl GridRegistry {
    /// Wires per-shard metrics into `registry`; `shard_devices[i]` is
    /// shard `i`'s device count.
    pub fn new(registry: &MetricsRegistry, shard_devices: &[usize]) -> Self {
        Self {
            shards: shard_devices
                .iter()
                .enumerate()
                .map(|(s, &devices)| RegistryObserver::for_shard(registry, s, devices))
                .collect(),
            rebalances: registry.counter(
                "fleet_grid_rebalances_total",
                "Beams the grid front-end moved off their home shard.",
                &[],
            ),
        }
    }

    /// The per-shard observers, shard order.
    pub fn shards(&self) -> &[RegistryObserver] {
        &self.shards
    }
}

impl GridObserver for GridRegistry {
    fn observe_grid(&self, shard: Option<usize>, event: &TelemetryEvent) {
        match shard {
            Some(s) => {
                if let Some(observer) = self.shards.get(s) {
                    observer.fold(event);
                }
            }
            None => {
                if matches!(event, TelemetryEvent::Rebalance { .. }) {
                    self.rebalances.inc();
                }
            }
        }
    }

    fn observe_grid_batch(&self, shard: Option<usize>, batch: &TickBatch) {
        match shard {
            Some(s) => {
                if let Some(observer) = self.shards.get(s) {
                    observer.fold_batch(batch);
                }
            }
            None => {
                // Grid-level batches only ever carry rebalances; count
                // them off the batch header without decoding.
                self.rebalances
                    .add(batch.count_kind(EventKind::Rebalance) as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_register_once_and_update_lock_free() {
        let registry = MetricsRegistry::new();
        let c1 = registry.counter("demo_total", "demo", &[("k", "a")]);
        let c2 = registry.counter("demo_total", "demo", &[("k", "a")]);
        c1.add(3);
        c2.inc();
        assert_eq!(c1.get(), 4, "same (name, labels) shares one cell");
        let other = registry.counter("demo_total", "demo", &[("k", "b")]);
        assert_eq!(other.get(), 0, "distinct labels are a distinct series");

        let g = registry.gauge("demo_gauge", "demo", &[]);
        g.set(2.5);
        g.add(-0.5);
        assert!((g.get() - 2.0).abs() < 1e-12);

        let h = registry.histogram("demo_seconds", "demo", &[], &[0.5, 1.0, 2.0]);
        for v in [0.1, 0.6, 0.9, 1.5, 99.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 102.1).abs() < 1e-9);
        let cumulative = h.cumulative();
        assert_eq!(
            cumulative,
            vec![(0.5, 1), (1.0, 3), (2.0, 4), (f64::INFINITY, 5)]
        );
    }

    #[test]
    fn event_kind_labels_match_the_counter_table() {
        // `fold_kind` indexes the counter vector by the dense
        // discriminant; the label table must stay in that exact order.
        assert_eq!(EVENT_KINDS.len(), EventKind::COUNT);
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(EVENT_KINDS[i], kind.label());
        }
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn re_registering_a_name_as_a_different_kind_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("demo_total", "demo", &[]);
        let _ = registry.gauge("demo_total", "demo", &[]);
    }

    #[test]
    fn registry_observer_derives_stream_metrics() {
        use crate::{ResolvedFleet, Scheduler, SurveyLoad};
        let registry = MetricsRegistry::new();
        let fleet = ResolvedFleet::synthetic(500, &[0.1, 0.1]);
        let load = SurveyLoad::custom(500, 4, 3);
        let mut observer = RegistryObserver::new(&registry, 2);
        let run = Scheduler::session(&fleet)
            .load(&load)
            .run_with(&mut observer)
            .unwrap();
        let r = &run.report;
        // Outcome counters agree with the report fold of the same
        // stream.
        let outcome = |name: &str| {
            observer
                .outcomes
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap()
                .1
                .get() as usize
        };
        assert_eq!(outcome("completed"), r.completed);
        assert_eq!(outcome("degraded"), r.degraded);
        assert_eq!(outcome("missed"), r.deadline_misses);
        assert_eq!(outcome("shed_whole"), r.shed_whole);
        // Placements all landed attempt 1 on a healthy fleet, and the
        // drain histogram saw every finished beam.
        assert_eq!(observer.attempts.count() as usize, r.admitted);
        assert_eq!(
            observer.drain.count() as usize,
            r.completed + r.degraded + r.deadline_misses
        );
        // Queues drained back to zero; the peak saw at least one beam.
        for cells in &observer.devices {
            assert_eq!(cells.queue_depth.get(), 0.0);
            assert!(cells.queue_depth_peak.get() >= 1.0);
        }
        let rendered = registry.render_prometheus();
        assert!(rendered.contains("fleet_device_queue_depth_peak"));
    }
}
