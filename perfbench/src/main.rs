//! The repository benchmark: end-to-end and per-layer metrics of the
//! real streaming data path and of the fleet control plane.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload lofar_stream --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Every run checks its own outputs, prints a human-readable summary,
//! and ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ledger; both lists are declared below and mirrored in
//! `BENCHMARK.json`. A run whose outputs are wrong still prints its
//! result line, with `"correct": false`, and exits with code 1.
//! `NOTES.md` beside this file records why each workload exists and
//! which end-to-end metric each layer metric should move.

mod control;
mod host;
mod stream;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("realtime_factor", "x"),
    ("beams_per_s", "beams/s"),
    ("chunk_latency_p50_ms", "ms"),
    ("chunk_latency_p99_ms", "ms"),
    ("tick_p50_ms", "ms"),
    ("tick_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A
/// layer that is not on a workload's path reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("tune.s", "s"),
    ("tune.configs", "count"),
    ("tune.configs_per_s", "1/s"),
    ("tune.best_gflops", "GFLOP/s"),
    ("resolve.s", "s"),
    ("kernel.ms", "ms"),
    ("kernel.gflops", "GFLOP/s"),
    ("kernel.tiled_ms", "ms"),
    ("kernel.parallel_speedup", "ratio"),
    ("kernel.ai", "flop/B"),
    ("kernel.gbs_computed", "GB/s"),
    ("kernel.roofline_frac", "ratio"),
    ("kernel.working_set_mb", "MB"),
    ("detect.ms", "ms"),
    ("detect.share", "ratio"),
    ("feeder.ms", "ms"),
    ("feeder.bytes_per_chunk", "B"),
    ("pipeline.handoff_ms", "ms"),
    ("pipeline.intake_wait_ms", "ms"),
    ("chunk_latency.samples", "count"),
    ("tick.samples", "count"),
    ("detect_errors", "count"),
    ("failed_share", "ratio"),
    ("capture.ingest_s", "s"),
    ("capture.blocks_per_s", "1/s"),
    ("capture.drops", "count"),
    ("sched.us_per_beam", "us"),
    ("sched.share", "ratio"),
    ("sched.bounces", "count"),
    ("sched.retries", "count"),
    ("sched.sheds", "count"),
    ("phase.tick_us", "us"),
    ("phase.admit_us", "us"),
    ("phase.dispatch_us", "us"),
    ("phase.drain_us", "us"),
    ("phase.batch_encode_us", "us"),
    ("phase.observer_flush_us", "us"),
    ("observer.us_per_batch", "us"),
    ("observer.events_per_s", "1/s"),
    ("observer.share", "ratio"),
    ("proc.frames", "count"),
    ("proc.bytes_per_beam", "B"),
    ("proc.encode_mbs", "MB/s"),
    ("proc.decode_mbs", "MB/s"),
    ("proc.restarts", "count"),
    ("proc.deduped_frames", "count"),
    ("phase.frame_decode_us", "us"),
    ("phase.liveness_wait_us", "us"),
    ("grid.inthread_beams_per_s", "beams/s"),
    ("grid.long_run_beams_per_s", "beams/s"),
    ("host.triad_gbs", "GB/s"),
    ("host.llc_mb", "MB"),
    ("traced.realtime_factor", "x"),
    ("traced.beams_per_s", "beams/s"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations offered: chunks for the stream, beams for the
    /// control plane.
    pub attempted: u64,
    /// Offered operations whose output failed a check.
    pub failed: u64,
    /// Every output check that failed, for the summary.
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed output check.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }
}

/// Parsed command line of one benchmark run.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn result_line(outcome: &Outcome, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = match outcome.metrics.get(name) {
                Some(v) => *v,
                // Every end-to-end metric is defined on every workload;
                // a per-layer metric off the workload's path reads 0.
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty() && outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // A process-backed grid shard re-executes this binary as its child.
    if raw.first().map(String::as_str) == Some("--child") {
        return match dedisp_repro::dedisp_fleet::proc::serve_stdio(None) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("child shard failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "lofar_stream" => stream::run(&args),
        "survey_control" => control::run_survey(&args),
        "survey_grid_proc" => control::run_grid(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let roofline = host::measure_roofline();
        outcome.set("host.triad_gbs", roofline.triad_gbs);
        outcome.set("host.llc_mb", roofline.llc_mb);
        if let Some(&gbs) = outcome.metrics.get("kernel.gbs_computed") {
            outcome.set("kernel.roofline_frac", gbs / roofline.triad_gbs);
        }
        println!(
            "roofline: STREAM triad {:.2} GB/s over {} MB arrays (LLC {:.0} MB); kernel working set {:.1} MB",
            roofline.triad_gbs,
            roofline.array_mb,
            roofline.llc_mb,
            outcome.metrics.get("kernel.working_set_mb").copied().unwrap_or(0.0)
        );
    } else {
        outcome.set("peak_rss_mb", host::peak_rss_mb());
    }
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", result_line(&outcome, args.trace));
    if outcome.problems.is_empty() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `q`-quantile of `samples` by nearest rank (0 when empty).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A small seeded generator (splitmix64) for the synthetic inputs.
pub struct SplitMix {
    state: u64,
    spare: Option<f32>,
}

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed,
            spare: None,
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform draw from `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A standard normal draw (Box–Muller, both values of each pair used).
    pub fn gaussian(&mut self) -> f32 {
        if let Some(v) = self.spare.take() {
            return v;
        }
        let r = (-2.0 * self.unit().ln()).sqrt();
        let theta = std::f64::consts::TAU * self.unit();
        self.spare = Some((r * theta.sin()) as f32);
        (r * theta.cos()) as f32
    }
}

/// The median over measurement windows of the `q`-quantile within each
/// window (empty windows skipped), so that a burst of host contention
/// confined to a few windows does not move the result.
pub fn windowed_quantile(windows: &mut [Vec<f64>], q: f64) -> f64 {
    let mut per_window: Vec<f64> = windows
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, q))
        .collect();
    median(&mut per_window)
}
