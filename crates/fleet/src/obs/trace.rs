//! The tracing & self-profiling plane: phase spans, cross-process
//! span propagation, and the SLO burn-rate fold.
//!
//! The paper's whole argument is about *where time goes* — auto-tuned
//! kernel rate against the real-time deadline — yet the rest of the
//! obs plane records only counts and outcomes. This module adds
//! durations without perturbing anything:
//!
//! * [`Span`] — one timed phase of work (`kind`, `shard`, `tick`,
//!   `start_ns`, `dur_ns`), wall-clock by construction.
//! * [`TraceSink`] — the lock-cheap seam the scheduler tick loop,
//!   capture ingest, grid merge, and the process supervisor write
//!   spans through: a bounded per-shard ring, mirrored into
//!   per-phase [`MetricsRegistry`] duration histograms
//!   (`fleet_phase_seconds{phase=…}`).
//! * Exporters — [`to_ndjson`] / [`from_ndjson`] for `/trace?n=<k>`,
//!   and [`chrome_trace`] emitting Chrome `trace_event` JSON loadable
//!   in Perfetto, with supervisor and child spans on one timeline.
//! * [`BurnRate`] — an SLO fold over the live stream: a
//!   deadline-miss budget (fraction of beams allowed to miss) over
//!   two sliding windows, exposed as `fleet_slo_*` gauges and the
//!   `/slo` endpoint's `ok|warn|page` state.
//!
//! # The never-fingerprinted rule
//!
//! Spans measure wall-clock time and therefore vary run to run, so
//! they live strictly *outside* the deterministic ledgers: a span
//! never becomes a [`crate::TelemetryEvent`], never enters a
//! [`crate::TickBatch`] or [`crate::EventLog`], and never lands in a
//! report. Runs with a
//! `TraceSink` attached produce byte-identical ledgers to runs
//! without one (proptest-pinned in `tests/proptest_trace.rs`).

use super::registry::{Gauge, Histogram, MetricsRegistry};
use crate::metrics::BeamOutcome;
use crate::telemetry::{GridObserver, Observer, TelemetryEvent};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Which phase of work a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// One whole scheduler tick (the umbrella the phase spans cover).
    Tick,
    /// The admission ruling for a tick (`admit_tick_reserving`).
    Admit,
    /// The per-beam placement/shed loop of a tick.
    Dispatch,
    /// Draining device replies (probes sent + replies observed).
    Drain,
    /// Sealing the tick's columnar batch into the run log.
    BatchEncode,
    /// Handing the sealed batch to the live observer seam.
    ObserverFlush,
    /// One capture drain window: ingest into the ring plus the drain.
    CaptureIngest,
    /// Re-keying and merging the per-shard ledgers into the grid run.
    GridMerge,
    /// Supervisor: decoding one frame off a child's pipe.
    FrameDecode,
    /// Supervisor: waiting on the liveness deadline for a child frame.
    LivenessWait,
    /// Supervisor: sleeping a restart backoff after a dead attempt.
    RestartBackoff,
}

impl SpanKind {
    /// Every kind, in a fixed order (`index` indexes into this).
    pub const ALL: [SpanKind; 11] = [
        SpanKind::Tick,
        SpanKind::Admit,
        SpanKind::Dispatch,
        SpanKind::Drain,
        SpanKind::BatchEncode,
        SpanKind::ObserverFlush,
        SpanKind::CaptureIngest,
        SpanKind::GridMerge,
        SpanKind::FrameDecode,
        SpanKind::LivenessWait,
        SpanKind::RestartBackoff,
    ];

    /// The stable snake-case label (metrics `phase` label, chrome
    /// event name).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Tick => "tick",
            SpanKind::Admit => "admit",
            SpanKind::Dispatch => "dispatch",
            SpanKind::Drain => "drain",
            SpanKind::BatchEncode => "batch_encode",
            SpanKind::ObserverFlush => "observer_flush",
            SpanKind::CaptureIngest => "capture_ingest",
            SpanKind::GridMerge => "grid_merge",
            SpanKind::FrameDecode => "frame_decode",
            SpanKind::LivenessWait => "liveness_wait",
            SpanKind::RestartBackoff => "restart_backoff",
        }
    }

    /// This kind's position in [`SpanKind::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        SpanKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("every kind is in ALL")
    }

    /// Whether the span was recorded by the process supervisor (the
    /// parent side of a child shard's timeline).
    #[must_use]
    pub fn is_supervisor(self) -> bool {
        matches!(
            self,
            SpanKind::FrameDecode | SpanKind::LivenessWait | SpanKind::RestartBackoff
        )
    }
}

/// One timed phase of work. Wall-clock, never fingerprinted — see the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// The phase timed.
    pub kind: SpanKind,
    /// The shard the work belongs to (`None` for shard-less work:
    /// a plain session, capture ingest, the grid merge).
    pub shard: Option<usize>,
    /// The tick (or drain window / frame ordinal) the work served.
    pub tick: u64,
    /// Wall-clock start, nanoseconds since the Unix epoch — absolute,
    /// so parent and child process spans align on one timeline (the
    /// recording sink's wall-clock anchor plus a monotonic offset).
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

/// Wall-clock now, as nanoseconds since the Unix epoch.
fn wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

/// Spans a sink may buffer per shard before the oldest are dropped.
const DEFAULT_RING_CAPACITY: usize = 4096;

#[derive(Debug)]
struct SinkInner {
    /// The sink's one monotonic clock reading taken alongside
    /// `anchor_ns`: span starts are offsets from it, so timing a span
    /// costs one clock read at each end.
    anchor: Instant,
    /// Wall-clock nanoseconds since the Unix epoch at `anchor`.
    anchor_ns: u64,
    /// Per-shard span capacity.
    capacity: usize,
    /// Bounded per-shard rings, keyed by `shard` (front/session work
    /// keys under `None`).
    rings: Mutex<BTreeMap<Option<usize>, VecDeque<Span>>>,
    /// Spans recorded over the sink's lifetime (including dropped).
    recorded: AtomicU64,
    /// Spans evicted from full rings.
    dropped: AtomicU64,
    /// Per-phase duration histograms, [`SpanKind::ALL`] order, when
    /// the sink mirrors into a registry.
    hists: Option<Vec<Histogram>>,
}

/// The lock-cheap seam timed code writes spans through.
///
/// Clones share the same rings — build one, clone handles into the
/// session builders ([`crate::Session::trace`],
/// [`crate::GridSession::trace`], [`crate::CaptureSession::trace`])
/// and into [`super::ObsState`] for the `/trace` endpoint. Timing a
/// span costs one monotonic clock read at each end (starts are offsets
/// from the sink's one wall-clock anchor); recording is one short
/// mutex hold on the per-shard rings — one per batch through
/// [`TraceSink::record_all`] — plus (optionally) a histogram
/// observation per span. An unattached session pays nothing.
#[derive(Debug, Clone)]
pub struct TraceSink {
    inner: Arc<SinkInner>,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new(DEFAULT_RING_CAPACITY)
    }
}

impl TraceSink {
    /// A sink holding up to `capacity` spans per shard (oldest
    /// evicted first), without registry mirroring.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_hists(capacity, None)
    }

    fn with_hists(capacity: usize, hists: Option<Vec<Histogram>>) -> Self {
        Self {
            inner: Arc::new(SinkInner {
                anchor: Instant::now(),
                anchor_ns: wall_ns(),
                capacity: capacity.max(1),
                rings: Mutex::new(BTreeMap::new()),
                recorded: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                hists,
            }),
        }
    }

    /// A sink that also mirrors every span into per-phase duration
    /// histograms (`fleet_phase_seconds{phase=…}`) on `registry`.
    #[must_use]
    pub fn with_registry(capacity: usize, registry: &MetricsRegistry) -> Self {
        let hists = SpanKind::ALL
            .iter()
            .map(|kind| {
                registry.histogram(
                    "fleet_phase_seconds",
                    "Wall-clock duration of one phase of work, by phase.",
                    &[("phase", kind.label())],
                    &super::registry::PHASE_SECONDS_BOUNDS,
                )
            })
            .collect();
        Self::with_hists(capacity, Some(hists))
    }

    /// Starts timing a span; the returned guard records it when
    /// dropped (or via [`SpanGuard::finish`]).
    pub fn start(&self, kind: SpanKind, shard: Option<usize>, tick: u64) -> SpanGuard<'_> {
        SpanGuard {
            sink: self,
            kind,
            shard,
            tick,
            started: Instant::now(),
        }
    }

    /// The span of work timed from `started` to `ended`, stamped on
    /// this sink's wall clock. Nothing is recorded: code that times in
    /// a hot loop keeps the raw readings and converts and records them
    /// later, many spans per lock hold ([`TraceSink::record_all`]).
    #[must_use]
    pub fn span(
        &self,
        kind: SpanKind,
        shard: Option<usize>,
        tick: u64,
        started: Instant,
        ended: Instant,
    ) -> Span {
        let nanos = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        Span {
            kind,
            shard,
            tick,
            start_ns: self
                .inner
                .anchor_ns
                .saturating_add(nanos(started.saturating_duration_since(self.inner.anchor))),
            dur_ns: nanos(ended.saturating_duration_since(started)),
        }
    }

    /// Records one finished span (the supervisor uses this to inject
    /// spans a child shipped upstream).
    pub fn record(&self, span: Span) {
        self.record_all(&[span]);
    }

    /// Records finished spans under one lock hold.
    pub fn record_all(&self, spans: &[Span]) {
        if let Some(hists) = &self.inner.hists {
            for span in spans {
                hists[span.kind.index()].observe(span.dur_ns as f64 * 1e-9);
            }
        }
        self.inner
            .recorded
            .fetch_add(spans.len() as u64, Ordering::Relaxed);
        let mut rings = self.inner.rings.lock();
        for span in spans {
            let ring = rings.entry(span.shard).or_default();
            if ring.len() >= self.inner.capacity {
                ring.pop_front();
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(*span);
        }
    }

    /// The last `n` spans across all shards, in `start_ns` order.
    #[must_use]
    pub fn tail(&self, n: usize) -> Vec<Span> {
        let rings = self.inner.rings.lock();
        let mut spans: Vec<Span> = rings.values().flatten().copied().collect();
        drop(rings);
        spans.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then(a.kind.index().cmp(&b.kind.index()))
        });
        if spans.len() > n {
            spans.drain(..spans.len() - n);
        }
        spans
    }

    /// Every buffered span, in `start_ns` order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Span> {
        self.tail(usize::MAX)
    }

    /// Takes every buffered span out of the rings (the child side
    /// uses this to flush a sidecar frame), in `start_ns` order.
    #[must_use]
    pub fn drain(&self) -> Vec<Span> {
        let mut rings = self.inner.rings.lock();
        let mut spans: Vec<Span> = rings.values_mut().flat_map(std::mem::take).collect();
        drop(rings);
        spans.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then(a.kind.index().cmp(&b.kind.index()))
        });
        spans
    }

    /// Spans currently buffered across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.rings.lock().values().map(VecDeque::len).sum()
    }

    /// Whether no span is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans recorded over the sink's lifetime (including evicted).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.inner.recorded.load(Ordering::Relaxed)
    }

    /// Spans evicted from full rings.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }
}

/// An in-flight span: records itself into the sink on drop.
#[must_use = "a span guard times until it is dropped"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    sink: &'a TraceSink,
    kind: SpanKind,
    shard: Option<usize>,
    tick: u64,
    started: Instant,
}

impl SpanGuard<'_> {
    /// Ends the span now (equivalent to dropping the guard).
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let ended = Instant::now();
        let span = self
            .sink
            .span(self.kind, self.shard, self.tick, self.started, ended);
        self.sink.record(span);
    }
}

/// Renders spans as NDJSON, one span object per line (the
/// `/trace?n=<k>` payload).
#[must_use]
pub fn to_ndjson(spans: &[Span]) -> String {
    let mut out = String::new();
    for span in spans {
        out.push_str(&serde_json::to_string(span).expect("spans serialize"));
        out.push('\n');
    }
    out
}

/// Parses [`to_ndjson`] output back into spans.
///
/// # Errors
///
/// Returns the underlying JSON error for a malformed line.
pub fn from_ndjson(ndjson: &str) -> Result<Vec<Span>, serde_json::Error> {
    ndjson
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(serde_json::from_str)
        .collect()
}

/// The Chrome `trace_event` track a span renders on: one track per
/// shard, with supervisor-side spans on their own track so parent and
/// child work for the same shard sit adjacent but distinct.
fn chrome_tid(span: &Span) -> u64 {
    let base = span.shard.map_or(0, |s| 2 * (s as u64 + 1));
    if span.kind.is_supervisor() {
        base + 1
    } else {
        base
    }
}

/// Renders spans as Chrome `trace_event` JSON (the
/// `/trace?format=chrome` payload), loadable in Perfetto /
/// `chrome://tracing`. Complete (`"ph":"X"`) events, microsecond
/// timestamps rebased to the earliest span, one thread track per
/// shard (supervisor spans on a sibling track).
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> String {
    let base = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let mut events: Vec<String> = Vec::with_capacity(spans.len() + 8);
    let mut tracks: BTreeMap<u64, String> = BTreeMap::new();
    for span in spans {
        let tid = chrome_tid(span);
        tracks.entry(tid).or_insert_with(|| match span.shard {
            Some(s) if span.kind.is_supervisor() => format!("shard {s} supervisor"),
            Some(s) => format!("shard {s}"),
            None if span.kind.is_supervisor() => "supervisor".to_string(),
            None => "session".to_string(),
        });
        let ts = (span.start_ns.saturating_sub(base)) as f64 / 1e3;
        let dur = span.dur_ns as f64 / 1e3;
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\
             \"dur\":{dur:.3},\"pid\":1,\"tid\":{tid},\"args\":{{\"tick\":{}}}}}",
            span.kind.label(),
            if span.kind.is_supervisor() {
                "supervisor"
            } else {
                "phase"
            },
            span.tick
        ));
    }
    for (tid, name) in tracks {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",")
    )
}

// ---------------------------------------------------------------- SLO

/// The SLO the burn-rate fold alerts on: a deadline-miss budget over
/// two sliding windows of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloConfig {
    /// Fraction of beams allowed to miss their deadline (the error
    /// budget), in `(0, 1]`.
    pub budget: f64,
    /// The fast window, virtual seconds (default 5 minutes).
    pub short_window_s: f64,
    /// The slow window, virtual seconds (default 1 hour).
    pub long_window_s: f64,
    /// Burn rate (miss-rate / budget) at or above which the state is
    /// `warn`.
    pub warn_at: f64,
    /// Burn rate at or above which the state is `page`.
    pub page_at: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            budget: 0.01,
            short_window_s: 300.0,
            long_window_s: 3600.0,
            warn_at: 1.0,
            page_at: 10.0,
        }
    }
}

/// The alerting state the burn rate maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloState {
    /// Both windows burn below the warn threshold.
    Ok,
    /// Some window burns at or above `warn_at` but below `page_at`.
    Warn,
    /// Some window burns at or above `page_at`.
    Page,
}

impl SloState {
    /// The stable lowercase label (`ok|warn|page`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warn => "warn",
            SloState::Page => "page",
        }
    }
}

/// One window's burn, as `/slo` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloWindow {
    /// The window length in virtual seconds.
    pub seconds: f64,
    /// Terminal beams inside the window.
    pub beams: u64,
    /// Deadline misses inside the window.
    pub misses: u64,
    /// `misses / beams` (0 when no beam is in the window).
    pub miss_rate: f64,
    /// `miss_rate / budget` — 1.0 burns the budget exactly.
    pub burn_rate: f64,
}

/// The `/slo` payload: the state plus both windows' burn.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloSnapshot {
    /// The alerting state.
    pub state: SloState,
    /// The configured miss budget (fraction of beams).
    pub budget: f64,
    /// The short then the long window.
    pub windows: Vec<SloWindow>,
}

impl SloSnapshot {
    /// Serializes to a JSON string.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string(self).expect("snapshot serializes");
        s.push('\n');
        s
    }

    /// Parses a snapshot back from [`SloSnapshot::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// One cumulative sample of the fold: totals as of virtual time `at`.
#[derive(Debug, Clone, Copy)]
struct BurnSample {
    at: f64,
    beams: u64,
    misses: u64,
}

#[derive(Debug)]
struct BurnInner {
    config: SloConfig,
    /// Cumulative samples, coarsened to `resolution_s` buckets and
    /// pruned past the long window — so the fold stays O(1) per event
    /// and bounded in memory.
    samples: Mutex<VecDeque<BurnSample>>,
    gauges: Option<BurnGauges>,
}

#[derive(Debug)]
struct BurnGauges {
    short: Gauge,
    long: Gauge,
    state: Gauge,
    budget: Gauge,
}

/// The SLO burn-rate fold: watches the telemetry stream for terminal
/// beam outcomes and tracks the deadline-miss budget burn over the
/// configured sliding windows.
///
/// Attach it like any other observer ([`crate::Session::run_with`]
/// fan-out or [`crate::GridSession::run_with`]); clones share state,
/// so hand one clone to [`super::ObsState`] for the `/slo` endpoint.
/// Windows slide in *virtual* time (the beams' own timestamps), so
/// the fold is deterministic for a deterministic run — but it is
/// exposition-only state and is never fingerprinted.
#[derive(Debug, Clone)]
pub struct BurnRate {
    inner: Arc<BurnInner>,
}

impl Default for BurnRate {
    fn default() -> Self {
        Self::new(SloConfig::default())
    }
}

impl BurnRate {
    /// A fold with the given SLO, without registry gauges.
    #[must_use]
    pub fn new(config: SloConfig) -> Self {
        Self {
            inner: Arc::new(BurnInner {
                config,
                samples: Mutex::new(VecDeque::new()),
                gauges: None,
            }),
        }
    }

    /// A fold that also publishes `fleet_slo_*` gauges on `registry`:
    /// `fleet_slo_burn_rate{window="short"|"long"}`,
    /// `fleet_slo_state` (0 ok / 1 warn / 2 page), and
    /// `fleet_slo_budget_fraction`.
    #[must_use]
    pub fn with_registry(config: SloConfig, registry: &MetricsRegistry) -> Self {
        let gauges = BurnGauges {
            short: registry.gauge(
                "fleet_slo_burn_rate",
                "Deadline-miss budget burn rate per sliding window (1.0 = budget exactly spent).",
                &[("window", "short")],
            ),
            long: registry.gauge(
                "fleet_slo_burn_rate",
                "Deadline-miss budget burn rate per sliding window (1.0 = budget exactly spent).",
                &[("window", "long")],
            ),
            state: registry.gauge(
                "fleet_slo_state",
                "SLO alerting state: 0 ok, 1 warn, 2 page.",
                &[],
            ),
            budget: registry.gauge(
                "fleet_slo_budget_fraction",
                "Configured deadline-miss budget as a fraction of beams.",
                &[],
            ),
        };
        gauges.budget.set(config.budget);
        Self {
            inner: Arc::new(BurnInner {
                config,
                samples: Mutex::new(VecDeque::new()),
                gauges: Some(gauges),
            }),
        }
    }

    /// The sample-bucket width: fine enough that the short window is
    /// resolved into ~64 buckets, coarse enough that the fold stays
    /// bounded.
    fn resolution_s(&self) -> f64 {
        (self.inner.config.short_window_s / 64.0).max(1e-9)
    }

    /// Folds one terminal beam outcome at virtual time `at`.
    pub fn observe_beam(&self, at: f64, missed: bool) {
        let resolution = self.resolution_s();
        let config = self.inner.config;
        let mut samples = self.inner.samples.lock();
        let (beams, misses) = samples.back().map_or((0, 0), |s| (s.beams, s.misses));
        let beams = beams + 1;
        let misses = misses + u64::from(missed);
        let rolled = match samples.back_mut() {
            Some(last) if at < last.at + resolution => {
                // Same bucket: update the cumulative totals in place.
                last.at = last.at.max(at);
                last.beams = beams;
                last.misses = misses;
                false
            }
            _ => {
                samples.push_back(BurnSample { at, beams, misses });
                // Prune samples that fell out of the long window (one
                // is kept past the edge as the subtraction baseline).
                let horizon = at - config.long_window_s - resolution;
                while samples.len() > 2 && samples[1].at < horizon {
                    samples.pop_front();
                }
                true
            }
        };
        // Recompute the gauges only when a bucket rolls (or a miss
        // lands) — the per-event cost stays one lock and a few adds.
        if rolled || missed {
            if let Some(gauges) = &self.inner.gauges {
                let (short, long) = windows_locked(&samples, &config);
                gauges.short.set(short.burn_rate);
                gauges.long.set(long.burn_rate);
                gauges.state.set(match state_of(&[short, long], &config) {
                    SloState::Ok => 0.0,
                    SloState::Warn => 1.0,
                    SloState::Page => 2.0,
                });
            }
        }
    }

    /// Folds one telemetry event (only terminal beam outcomes move
    /// the fold).
    pub fn fold(&self, event: &TelemetryEvent) {
        if let TelemetryEvent::Beam(record) = event {
            let (at, missed) = match record.outcome {
                BeamOutcome::Completed { finish, .. } | BeamOutcome::Degraded { finish, .. } => {
                    (finish, false)
                }
                BeamOutcome::Missed { finish, .. } => (finish, true),
                BeamOutcome::ShedWhole { at, .. } => (at, false),
            };
            self.observe_beam(at, missed);
        }
    }

    /// The current `/slo` payload.
    #[must_use]
    pub fn snapshot(&self) -> SloSnapshot {
        let config = self.inner.config;
        let samples = self.inner.samples.lock();
        let (short, long) = windows_locked(&samples, &config);
        drop(samples);
        SloSnapshot {
            state: state_of(&[short, long], &config),
            budget: config.budget,
            windows: vec![short, long],
        }
    }

    /// The current alerting state.
    #[must_use]
    pub fn state(&self) -> SloState {
        self.snapshot().state
    }
}

/// Computes both windows' burn from the cumulative samples.
fn windows_locked(samples: &VecDeque<BurnSample>, config: &SloConfig) -> (SloWindow, SloWindow) {
    let now = samples.back().map_or(0.0, |s| s.at);
    let window = |seconds: f64| -> SloWindow {
        let cutoff = now - seconds;
        let (end_beams, end_misses) = samples.back().map_or((0, 0), |s| (s.beams, s.misses));
        // The newest sample at or before the cutoff is the baseline.
        let (base_beams, base_misses) = samples
            .iter()
            .rev()
            .find(|s| s.at <= cutoff)
            .map_or((0, 0), |s| (s.beams, s.misses));
        let beams = end_beams - base_beams;
        let misses = end_misses - base_misses;
        let miss_rate = if beams == 0 {
            0.0
        } else {
            misses as f64 / beams as f64
        };
        SloWindow {
            seconds,
            beams,
            misses,
            miss_rate,
            burn_rate: miss_rate / config.budget.max(f64::MIN_POSITIVE),
        }
    };
    (window(config.short_window_s), window(config.long_window_s))
}

/// The worst window decides the state.
fn state_of(windows: &[SloWindow], config: &SloConfig) -> SloState {
    let worst = windows.iter().map(|w| w.burn_rate).fold(0.0, f64::max);
    if worst >= config.page_at {
        SloState::Page
    } else if worst >= config.warn_at {
        SloState::Warn
    } else {
        SloState::Ok
    }
}

impl Observer for BurnRate {
    fn observe(&mut self, event: &TelemetryEvent) {
        self.fold(event);
    }
}

impl GridObserver for BurnRate {
    fn observe_grid(&self, _shard: Option<usize>, event: &TelemetryEvent) {
        self.fold(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::BeamRecord;

    fn span(kind: SpanKind, shard: Option<usize>, tick: u64, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            kind,
            shard,
            tick,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn ring_is_bounded_per_shard_and_tail_sorts() {
        let sink = TraceSink::new(2);
        for i in 0..4 {
            sink.record(span(SpanKind::Admit, Some(0), i, 100 - i, 1));
        }
        sink.record(span(SpanKind::Drain, Some(1), 0, 50, 1));
        assert_eq!(sink.len(), 3, "shard 0 bounded to 2 + shard 1's one");
        assert_eq!(sink.recorded(), 5);
        assert_eq!(sink.dropped(), 2);
        let tail = sink.tail(2);
        assert_eq!(tail.len(), 2);
        assert!(tail[0].start_ns <= tail[1].start_ns);
        // tail(n) keeps the newest by start time.
        assert_eq!(sink.tail(1)[0].start_ns, 98);
    }

    #[test]
    fn guard_records_on_drop_and_mirrors_histograms() {
        let registry = MetricsRegistry::new();
        let sink = TraceSink::with_registry(16, &registry);
        {
            let _g = sink.start(SpanKind::Admit, Some(3), 7);
        }
        assert_eq!(sink.len(), 1);
        let spans = sink.snapshot();
        assert_eq!(spans[0].kind, SpanKind::Admit);
        assert_eq!(spans[0].shard, Some(3));
        assert_eq!(spans[0].tick, 7);
        let rendered = registry.render_prometheus();
        assert!(rendered.contains("fleet_phase_seconds_count{phase=\"admit\"} 1"));
    }

    #[test]
    fn ndjson_round_trips() {
        let spans = vec![
            span(SpanKind::Tick, None, 0, 10, 5),
            span(SpanKind::FrameDecode, Some(2), 1, 20, 3),
        ];
        let back = from_ndjson(&to_ndjson(&spans)).unwrap();
        assert_eq!(back, spans);
        assert!(from_ndjson("not json\n").is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_rebased_timestamps() {
        let spans = vec![
            span(SpanKind::Dispatch, Some(0), 0, 1_000_000, 2_000),
            span(SpanKind::LivenessWait, Some(0), 0, 1_001_000, 500),
        ];
        let chrome = chrome_trace(&spans);
        let value: serde::Value = serde_json::from_str(&chrome).unwrap();
        let events = value
            .as_object()
            .and_then(|o| o.get("traceEvents"))
            .and_then(|v| v.as_array())
            .unwrap();
        // 2 spans + 2 thread_name metadata rows (distinct tids).
        assert_eq!(events.len(), 4);
        let first = events[0].as_object().unwrap();
        assert_eq!(first.get("name").unwrap().as_str(), Some("dispatch"));
        assert_eq!(first.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(first.get("ts").unwrap().as_f64(), Some(0.0));
        // Supervisor spans ride a sibling track of the shard's.
        let second = events[1].as_object().unwrap();
        assert_ne!(
            first.get("tid").unwrap().as_u64(),
            second.get("tid").unwrap().as_u64()
        );
    }

    #[test]
    fn drain_empties_the_rings() {
        let sink = TraceSink::new(8);
        sink.record(span(SpanKind::Admit, Some(0), 0, 2, 1));
        sink.record(span(SpanKind::Admit, Some(1), 0, 1, 1));
        let drained = sink.drain();
        assert_eq!(drained.len(), 2);
        assert!(drained[0].start_ns <= drained[1].start_ns);
        assert!(sink.is_empty());
    }

    fn miss_at(at: f64) -> TelemetryEvent {
        TelemetryEvent::Beam(BeamRecord {
            index: 0,
            tick: 0,
            beam: 0,
            outcome: BeamOutcome::Missed {
                device: 0,
                finish: at,
                kept_trials: 1,
            },
        })
    }

    fn ok_at(at: f64) -> TelemetryEvent {
        TelemetryEvent::Beam(BeamRecord {
            index: 0,
            tick: 0,
            beam: 0,
            outcome: BeamOutcome::Completed {
                device: 0,
                finish: at,
            },
        })
    }

    #[test]
    fn burn_rate_transitions_ok_warn_page_and_recovers() {
        let config = SloConfig {
            budget: 0.1,
            short_window_s: 10.0,
            long_window_s: 100.0,
            warn_at: 1.0,
            page_at: 2.0,
        };
        let slo = BurnRate::new(config);
        for i in 0..100 {
            slo.fold(&ok_at(i as f64 * 0.1));
        }
        assert_eq!(slo.state(), SloState::Ok);
        // A miss burst: 30 misses in quick succession blows the 10%
        // budget well past the page threshold.
        for i in 0..30 {
            slo.fold(&miss_at(10.0 + i as f64 * 0.01));
        }
        assert_eq!(slo.state(), SloState::Page);
        let snapshot = slo.snapshot();
        assert_eq!(snapshot.windows.len(), 2);
        assert!(snapshot.windows[0].burn_rate >= config.page_at);
        assert_eq!(snapshot.windows[0].misses, 30);
        // Clean traffic slides the short window off the burst; the
        // long window still remembers it.
        for i in 0..2000 {
            slo.fold(&ok_at(11.0 + i as f64 * 0.01));
        }
        let after = slo.snapshot();
        assert!(after.windows[0].burn_rate < config.page_at);
        let parsed = SloSnapshot::from_json(&after.to_json()).unwrap();
        assert_eq!(parsed, after);
    }

    #[test]
    fn slo_gauges_publish_on_the_registry() {
        let registry = MetricsRegistry::new();
        let slo = BurnRate::with_registry(
            SloConfig {
                budget: 0.01,
                short_window_s: 10.0,
                long_window_s: 100.0,
                warn_at: 1.0,
                page_at: 10.0,
            },
            &registry,
        );
        slo.fold(&miss_at(1.0));
        let rendered = registry.render_prometheus();
        assert!(rendered.contains("fleet_slo_burn_rate{window=\"short\"}"));
        assert!(rendered.contains("fleet_slo_state 2"));
        assert!(rendered.contains("fleet_slo_budget_fraction 0.01"));
    }
}
