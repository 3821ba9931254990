//! The child side of the shard protocol: run one shard, frame the
//! stream.
//!
//! A shard child is any process that calls [`serve_stdio`] (the
//! cluster experiment's `--child` mode, the integration tests'
//! re-exec'd helper): it reads one [`ShardSpec`] frame from stdin,
//! runs the shard with a plain in-process [`crate::Scheduler`] session,
//! writes each dispatcher tick's [`TickBatch`] to stdout as a
//! [`ShardFrame::Batch`], and finishes with a [`ShardFrame::Ledger`]
//! (or [`ShardFrame::Fatal`] for a deterministic scheduling error).
//!
//! Chaos injection lives here too: if the effective [`ChaosSpec`] says
//! `kill_after_frames: n`, the child SIGKILLs itself immediately after
//! its `n`-th batch frame reaches the pipe — a real `kill -9`, not a
//! simulated flap, which is exactly what makes the supervisor's
//! restart path crash-real. The spec's own `chaos` field wins; a
//! `--chaos-exec`-style override from the child's argv comes second;
//! the `DEDISP_CHAOS_EXEC` environment variable (for harnesses that
//! cannot pass custom flags) last.

use super::frame::{write_msg, FrameError, FrameReader};
use super::protocol::{ChaosSpec, ShardFrame, ShardLedger, ShardSpec};
use crate::batch::TickBatch;
use crate::descriptor::FleetError;
use crate::obs::trace::TraceSink;
use crate::scheduler::Scheduler;
use crate::telemetry::{Observer, TelemetryEvent};
use std::io::Write;

/// Environment variable carrying a `kill_after_frames` chaos count for
/// child entry points that cannot receive custom CLI flags (e.g. a
/// libtest-managed helper test).
pub const CHAOS_ENV: &str = "DEDISP_CHAOS_EXEC";

/// Environment variable the supervisor sets to ask a child to record
/// its own phase spans and ship them upstream as
/// [`ShardFrame::Trace`] sidecar frames. Any non-empty value other
/// than `0` enables tracing. An env var rather than a spec field so
/// the [`ShardSpec`] wire format stays unchanged.
pub const TRACE_ENV: &str = "DEDISP_TRACE";

/// SIGKILLs the current process — the real thing, via `kill -9`.
/// Aborts as a fallback if the signal somehow fails to land, so a
/// chaos child never limps onward half-dead.
fn sigkill_self() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .arg("-9")
        .arg(&pid)
        .status();
    std::process::abort();
}

/// The child's observer: frames each tick batch onto `out` the moment
/// the dispatcher flushes it, and fires the chaos kill when its frame
/// budget is spent.
struct Framing<W: Write> {
    out: W,
    /// Batch frames written so far.
    frames: u32,
    chaos: Option<ChaosSpec>,
    /// Stray per-event telemetry (none on the grid shard path today,
    /// but the [`Observer`] seam allows it) collects here and flushes
    /// as its own batch frame before the next tick batch.
    pending: TickBatch,
    /// First write failure; later writes are skipped so the run still
    /// terminates and the child can exit loudly.
    error: Option<FrameError>,
    /// The child's own span sink, drained into [`ShardFrame::Trace`]
    /// sidecars after each batch frame (tracing runs only).
    trace: Option<TraceSink>,
}

impl<W: Write> Framing<W> {
    fn send(&mut self, frame: &ShardFrame) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = write_msg(&mut self.out, frame) {
            self.error = Some(e);
            return;
        }
        // Only batch frames count toward the chaos budget: a trace
        // sidecar never perturbs where the kill lands, so a traced
        // chaos run dies after the same telemetry as an untraced one.
        if matches!(frame, ShardFrame::Batch(_)) {
            self.frames += 1;
            if let Some(chaos) = self.chaos {
                if self.frames >= chaos.kill_after_frames {
                    sigkill_self();
                }
            }
        }
    }

    fn flush_pending(&mut self) {
        if !self.pending.is_empty() {
            let batch = std::mem::take(&mut self.pending);
            self.send(&ShardFrame::Batch(batch));
        }
    }

    /// Ships the spans buffered since the last flush as one sidecar
    /// frame (no frame when there is nothing to say).
    fn flush_trace(&mut self) {
        if let Some(sink) = self.trace.clone() {
            let spans = sink.drain();
            if !spans.is_empty() {
                self.send(&ShardFrame::Trace(spans));
            }
        }
    }
}

impl<W: Write> Observer for Framing<W> {
    fn observe(&mut self, event: &TelemetryEvent) {
        self.pending.push(event);
    }

    fn observe_batch(&mut self, batch: &TickBatch) {
        self.flush_pending();
        self.send(&ShardFrame::Batch(batch.clone()));
        self.flush_trace();
    }
}

/// Runs one shard conversation over explicit streams: reads the spec
/// from `input`, streams frames to `output`. `chaos_override` is the
/// argv-level chaos source (e.g. a parsed `--chaos-exec n`).
///
/// # Errors
///
/// Returns a [`FleetError`] if the spec cannot be read, the run fails
/// (after a `Fatal` frame is written), or the pipe broke mid-stream.
pub fn serve(
    input: impl std::io::Read,
    output: impl Write,
    chaos_override: Option<ChaosSpec>,
) -> Result<(), FleetError> {
    serve_traced(input, output, chaos_override, trace_from_env())
}

/// [`serve`] with tracing decided explicitly instead of from
/// [`TRACE_ENV`]: when `traced`, the shard session records its phase
/// spans and ships them upstream as [`ShardFrame::Trace`] sidecars.
///
/// # Errors
///
/// As [`serve`].
pub fn serve_traced(
    input: impl std::io::Read,
    output: impl Write,
    chaos_override: Option<ChaosSpec>,
    traced: bool,
) -> Result<(), FleetError> {
    let mut reader = FrameReader::new(input);
    let spec: ShardSpec = reader
        .read_msg()
        .map_err(|e| FleetError::new(format!("reading shard spec: {e}")))?
        .ok_or_else(|| FleetError::new("stream ended before a shard spec arrived"))?;
    let chaos = spec.chaos.or(chaos_override).or_else(chaos_from_env);
    let trace = traced.then(TraceSink::default);

    let mut framing = Framing {
        out: output,
        frames: 0,
        chaos,
        pending: TickBatch::new(),
        error: None,
        trace: trace.clone(),
    };
    let mut session = Scheduler::session(&spec.fleet)
        .config(spec.config.clone())
        .load(&spec.load)
        .faults(&spec.plan);
    if let Some(ceilings) = spec.ceilings.as_deref() {
        session = session.admission_ceilings(ceilings);
    }
    if let Some(sink) = &trace {
        session = session.trace(sink).trace_shard(spec.shard);
    }
    match session.run_with(&mut framing) {
        Ok(run) => {
            framing.flush_pending();
            // A tick's spans are recorded once the tick ends, after its
            // batch frame went out (each sidecar carries the previous
            // tick's); ship the last tick's before the ledger closes
            // the conversation.
            framing.flush_trace();
            framing.send(&ShardFrame::Ledger(ShardLedger {
                report: run.report,
                records: run.records,
            }));
        }
        Err(e) => {
            // A deterministic scheduling error: tell the supervisor
            // not to bother restarting.
            framing.send(&ShardFrame::Fatal(e.to_string()));
            return Err(e);
        }
    }
    match framing.error {
        Some(e) => Err(FleetError::new(format!("writing shard frames: {e}"))),
        None => Ok(()),
    }
}

/// Runs one shard conversation over this process's stdin/stdout — the
/// child entry point. `chaos_override` carries an argv-parsed chaos
/// count ([`CHAOS_ENV`] is consulted as the last resort).
///
/// # Errors
///
/// As [`serve`].
pub fn serve_stdio(chaos_override: Option<ChaosSpec>) -> Result<(), FleetError> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve(stdin.lock(), stdout.lock(), chaos_override)
}

/// Parses [`CHAOS_ENV`] into a chaos spec, if set and well-formed.
fn chaos_from_env() -> Option<ChaosSpec> {
    let raw = std::env::var(CHAOS_ENV).ok()?;
    raw.trim()
        .parse::<u32>()
        .ok()
        .map(|kill_after_frames| ChaosSpec { kill_after_frames })
}

/// Whether [`TRACE_ENV`] asks for span sidecars.
fn trace_from_env() -> bool {
    std::env::var(TRACE_ENV).is_ok_and(|v| {
        let v = v.trim();
        !v.is_empty() && v != "0"
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::GridAdmission;
    use crate::descriptor::ResolvedFleet;
    use crate::fault::FaultPlan;
    use crate::scheduler::SchedulerConfig;
    use crate::shard::{partition, GridFaultPlan, RebalancePolicy};
    use crate::survey::SurveyLoad;

    fn spec_for_test() -> ShardSpec {
        let shards = vec![
            ResolvedFleet::synthetic(500, &[0.1, 0.1]),
            ResolvedFleet::synthetic(500, &[0.1, 0.1]),
        ];
        let load = SurveyLoad::custom(500, 6, 3);
        let part = partition(
            &load,
            &shards,
            RebalancePolicy::default(),
            &GridFaultPlan::none(),
            GridAdmission::default(),
            &SchedulerConfig::default(),
        );
        ShardSpec {
            shard: 0,
            fleet: shards[0].clone(),
            load: part.shard_loads[0].clone(),
            plan: FaultPlan::none(),
            config: SchedulerConfig::default(),
            ceilings: None,
            chaos: None,
        }
    }

    #[test]
    fn serve_streams_the_in_thread_run_exactly() {
        let spec = spec_for_test();
        let mut request = Vec::new();
        write_msg(&mut request, &spec).unwrap();
        let mut response = Vec::new();
        serve(request.as_slice(), &mut response, None).unwrap();

        // Decode the conversation: batches, then exactly one ledger.
        let mut reader = FrameReader::new(response.as_slice());
        let mut batches = Vec::new();
        let mut ledger = None;
        while let Some(frame) = reader.read_msg::<ShardFrame>().unwrap() {
            match frame {
                ShardFrame::Batch(b) => {
                    assert!(ledger.is_none(), "batches precede the ledger");
                    b.validate().unwrap();
                    batches.push(b);
                }
                ShardFrame::Ledger(l) => {
                    assert!(ledger.replace(l).is_none(), "exactly one ledger");
                }
                ShardFrame::Fatal(why) => panic!("unexpected fatal: {why}"),
                ShardFrame::Trace(spans) => {
                    panic!("untraced serve shipped {} spans", spans.len())
                }
            }
        }
        let ledger = ledger.expect("conversation ends with a ledger");

        // The conversation carries exactly what the same in-thread
        // session produces: same report, same records, same stream.
        let reference = Scheduler::session(&spec.fleet)
            .config(spec.config.clone())
            .load(&spec.load)
            .faults(&spec.plan)
            .run()
            .unwrap();
        assert_eq!(ledger.report, reference.report);
        assert_eq!(ledger.records, reference.records);
        let mut log = crate::batch::EventLog::new();
        for batch in batches {
            log.push_batch(batch);
        }
        assert_eq!(log, reference.log);
    }

    #[test]
    fn traced_serve_ships_sidecars_and_an_identical_ledger() {
        let spec = spec_for_test();
        let mut request = Vec::new();
        write_msg(&mut request, &spec).unwrap();

        let mut plain = Vec::new();
        serve_traced(request.as_slice(), &mut plain, None, false).unwrap();
        let mut traced = Vec::new();
        serve_traced(request.as_slice(), &mut traced, None, true).unwrap();

        // Stripping the sidecars from the traced conversation leaves
        // exactly the untraced conversation: same batches, same
        // ledger, byte for byte once re-framed.
        let strip = |bytes: &[u8]| {
            let mut reader = FrameReader::new(bytes);
            let mut kept = Vec::new();
            let mut spans = Vec::new();
            while let Some(frame) = reader.read_msg::<ShardFrame>().unwrap() {
                match frame {
                    ShardFrame::Trace(s) => spans.extend(s),
                    other => write_msg(&mut kept, &other).unwrap(),
                }
            }
            (kept, spans)
        };
        let (plain_frames, plain_spans) = strip(&plain);
        let (traced_frames, traced_spans) = strip(&traced);
        assert_eq!(plain_frames, traced_frames);
        assert!(plain_spans.is_empty());
        assert!(!traced_spans.is_empty(), "a traced run ships spans");
        assert!(
            traced_spans.iter().all(|s| s.shard == Some(spec.shard)),
            "child spans carry the shard tag"
        );
    }

    #[test]
    fn a_bad_spec_yields_a_fatal_frame_and_an_error() {
        let mut spec = spec_for_test();
        spec.plan = FaultPlan::none().with_flap(0, 2.0, 1.0); // empty window
        let mut request = Vec::new();
        write_msg(&mut request, &spec).unwrap();
        let mut response = Vec::new();
        assert!(serve(request.as_slice(), &mut response, None).is_err());
        let mut reader = FrameReader::new(response.as_slice());
        match reader.read_msg::<ShardFrame>().unwrap() {
            Some(ShardFrame::Fatal(why)) => assert!(!why.is_empty()),
            other => panic!("expected a fatal frame, got {other:?}"),
        }
    }

    #[test]
    fn a_missing_spec_is_a_loud_error() {
        let mut out = Vec::new();
        assert!(serve(&b""[..], &mut out, None).is_err());
        assert!(out.is_empty());
    }
}
