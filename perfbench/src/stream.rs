//! The stream workload: raw seconds through `BeamFeeder` into the
//! `StreamingPipeline` (tuned `ParallelKernel` plus detection), with
//! one producer and one collector thread closing the loop.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dedisp_repro::autotune::{ConfigSpace, Executor, HostExecutor, HostKernel, Tuner};
use dedisp_repro::dedisp_core::delay::delay_samples;
use dedisp_repro::dedisp_core::{
    ArithmeticIntensity, Dedisperser, DedispersionPlan, InputBuffer, KernelConfig, NaiveKernel,
    OutputBuffer, ParallelKernel, TiledKernel,
};
use dedisp_repro::feeder::BeamFeeder;
use dedisp_repro::pipeline::{Candidate, PipelineConfig, StreamingPipeline};
use dedisp_repro::radioastro::{detect_best_trial, ObservationalSetup, TrialStat};

use crate::{median, windowed_quantile, Args, Outcome, SplitMix};

/// Beams streamed side by side.
const BEAMS: usize = 8;
/// Distinct raw seconds per beam; the stream repeats with this period,
/// so every chunk content can be checked against a reference.
const CYCLE: usize = 4;
/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Pipeline run time before the measured window opens.
const WARMUP: Duration = Duration::from_secs(1);
/// Dedispersed S/N an injected pulse reaches at its own DM.
const PULSE_SNR: f64 = 16.0;
/// S/N a pulse must reach to count as recovered (the pipeline's own
/// default emission threshold).
const DETECT_SNR: f32 = 6.0;
/// Timed executions the host tuner averages per configuration.
const TUNE_REPEATS: u32 = 1;
/// One chunk is one second of one beam; a chunk slower than this missed
/// its real-time deadline.
const DEADLINE_MS: f64 = 1000.0;

/// LOFAR scaled to 10000 samples/s with 256 trial DMs: 32 channels
/// and an input window about twice the output span.
fn plan() -> DedispersionPlan {
    ObservationalSetup::lofar()
        .scaled(10_000)
        .plan(256)
        .expect("the scaled setup forms a valid plan")
}

/// A periodic multi-beam stream with one dispersed pulse per chunk.
struct Stream {
    plan: Arc<DedispersionPlan>,
    /// `blocks[beam][j]`: raw second `j` of the period, channel-major.
    blocks: Vec<Vec<Vec<f32>>>,
    /// `pulses[beam][j]`: (trial, output bin) of the pulse that chunks
    /// whose newest raw second is `j` must find.
    pulses: Vec<Vec<(usize, usize)>>,
}

impl Stream {
    /// Gaussian radiometer noise plus, for every raw second `j`, a
    /// pulse at a random trial DM whose emission time falls inside the
    /// output span of the chunk completed by pushing second `j`. The
    /// stream is periodic in `CYCLE` seconds and the pulse sweeps wrap
    /// around, so it is continuous across the period boundary.
    fn synthesize(plan: Arc<DedispersionPlan>, seed: u64) -> Self {
        let s = plan.out_samples();
        let channels = plan.channels();
        let overlap = plan.in_samples() - s;
        let period = CYCLE * s;
        let amplitude = (PULSE_SNR / (channels as f64).sqrt()) as f32;
        let margin = s / 8;
        let f_ref = plan.band().high_mhz();
        let mut blocks = Vec::with_capacity(BEAMS);
        let mut pulses = Vec::with_capacity(BEAMS);
        for beam in 0..BEAMS {
            let mut rng =
                SplitMix::new(seed ^ (beam as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
            let mut beam_blocks: Vec<Vec<f32>> = (0..CYCLE)
                .map(|_| (0..channels * s).map(|_| rng.gaussian()).collect())
                .collect();
            let mut beam_pulses = Vec::with_capacity(CYCLE);
            for j in 0..CYCLE {
                let trial = rng.below(plan.trials());
                let bin = margin + rng.below(s - 2 * margin);
                let dm = plan.dm_grid().dm(trial);
                let emitted = (j * s + bin + period - overlap % period) % period;
                for ch in 0..channels {
                    let delay =
                        delay_samples(dm, plan.band().channel_mhz(ch), f_ref, plan.sample_rate());
                    let at = (emitted + delay) % period;
                    beam_blocks[at / s][ch * s + at % s] += amplitude;
                }
                beam_pulses.push((trial, bin));
            }
            blocks.push(beam_blocks);
            pulses.push(beam_pulses);
        }
        Self {
            plan,
            blocks,
            pulses,
        }
    }

    /// Pushes a beam needs before the feeder emits its first chunk.
    fn warmup_pushes(&self) -> usize {
        let overlap = self.plan.in_samples() - self.plan.out_samples();
        overlap.div_ceil(self.plan.out_samples()).max(1)
    }

    /// Pushes after which a chunk's window holds no cold-start zeros.
    fn first_full_push(&self) -> usize {
        self.plan.in_samples().div_ceil(self.plan.out_samples())
    }

    /// The feeder window after `pushes` raw seconds of `beam`, built
    /// straight from the periodic stream (valid from
    /// [`Stream::first_full_push`] on).
    fn window(&self, beam: usize, pushes: usize) -> InputBuffer {
        let s = self.plan.out_samples();
        let period = CYCLE * s;
        let origin = (pushes * s + period - self.plan.in_samples() % period) % period;
        let mut buf = InputBuffer::for_plan(&self.plan);
        for ch in 0..self.plan.channels() {
            for (x, v) in buf.channel_mut(ch).iter_mut().enumerate() {
                let at = (origin + x) % period;
                *v = self.blocks[beam][at / s][ch * s + at % s];
            }
        }
        buf
    }
}

/// What one closed-loop pipeline run observed.
struct PipelineRun {
    /// Chunks handed to the pipeline.
    sent: u64,
    /// Chunks the workers report processed.
    processed: u64,
    /// Every candidate, with its push-to-receipt latency and receipt time.
    candidates: Vec<(Candidate, Duration, Instant)>,
    /// Wall time between successive raw seconds of the same beam
    /// entering the data path, with the push that ended each interval,
    /// for intervals inside the measured window.
    ticks_ms: Vec<(Instant, f64)>,
    /// Per-chunk `push_second` time (traced runs only).
    feeder_ms: Vec<f64>,
    /// Per-chunk wait at the pipeline intake (traced runs only).
    intake_ms: Vec<f64>,
    window_start: Instant,
    window_end: Instant,
}

/// Streams `stream` through a pipeline running `kernel` with the other
/// `PipelineConfig` fields at their defaults. The producer pushes as
/// fast as the pipeline's bounded intake accepts (a closed loop) until
/// `WARMUP + seconds` have passed, then closes the intake.
fn run_pipeline(stream: &Stream, kernel: KernelConfig, seconds: f64, traced: bool) -> PipelineRun {
    let refs: Vec<Vec<Vec<&[f32]>>> = stream
        .blocks
        .iter()
        .map(|beam| {
            beam.iter()
                .map(|block| block.chunks(stream.plan.out_samples()).collect())
                .collect()
        })
        .collect();
    let pipeline = StreamingPipeline::spawn(
        Arc::clone(&stream.plan),
        PipelineConfig {
            kernel,
            ..PipelineConfig::default()
        },
    );
    let intake = pipeline.sender();
    let candidates = pipeline.candidates();
    let (stamp_tx, stamp_rx) = mpsc::channel::<((usize, u64), Instant)>();
    let start = Instant::now();
    let window_start = start + WARMUP;
    let window_end = window_start + Duration::from_secs_f64(seconds);
    let mut feeder = BeamFeeder::new(Arc::clone(&stream.plan), BEAMS);

    std::thread::scope(|scope| {
        // The collector drains candidates while the producer runs. Every
        // chunk carries a pulse, so every chunk emits a candidate into a
        // channel of only 4 × queue_depth slots: left undrained, the
        // workers block on it, stop taking chunks, and `join` deadlocks.
        let collector = scope.spawn(move || {
            let mut pushed_at = HashMap::new();
            let mut seen = Vec::new();
            for candidate in candidates.iter() {
                let received = Instant::now();
                pushed_at.extend(stamp_rx.try_iter());
                let at: Instant = pushed_at
                    .remove(&(candidate.beam, candidate.second))
                    .expect("every chunk is stamped before it is sent");
                seen.push((candidate, received - at, received));
            }
            seen
        });
        let producer = scope.spawn(move || {
            let mut sent = 0u64;
            let mut ticks_ms = Vec::new();
            let mut last_push: Vec<Option<Instant>> = vec![None; BEAMS];
            let (mut feeder_ms, mut intake_ms) = (Vec::new(), Vec::new());
            let mut round = 0;
            while Instant::now() < window_end {
                for (beam, beam_refs) in refs.iter().enumerate() {
                    let pushed = Instant::now();
                    if let Some(last) = last_push[beam].replace(pushed) {
                        if last >= window_start {
                            ticks_ms.push((pushed, ms(pushed - last)));
                        }
                    }
                    let chunk = feeder
                        .push_second(beam, &beam_refs[round % CYCLE])
                        .expect("raw seconds match the plan");
                    let Some(chunk) = chunk else { continue };
                    let fed = Instant::now();
                    stamp_tx
                        .send(((chunk.beam, chunk.second), pushed))
                        .expect("collector outlives the producer");
                    intake.send(chunk).expect("pipeline accepts while open");
                    sent += 1;
                    if traced {
                        feeder_ms.push(ms(fed - pushed));
                        intake_ms.push(ms(fed.elapsed()));
                    }
                }
                round += 1;
            }
            (sent, ticks_ms, feeder_ms, intake_ms)
        });
        let (sent, ticks_ms, feeder_ms, intake_ms) =
            producer.join().expect("producer thread panicked");
        let processed = pipeline.join();
        let candidates = collector.join().expect("collector thread panicked");
        PipelineRun {
            sent,
            processed,
            candidates,
            ticks_ms,
            feeder_ms,
            intake_ms,
            window_start,
            window_end,
        }
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Whether `found` recovers the pulse injected at `injected`: within
/// one trial, or at a trial whose delays differ from the injected
/// trial's by at most one sample in every channel (the plan cannot
/// tell such trials apart where neighbouring trials shift the lowest
/// channel by a fraction of a sample).
fn recovered(plan: &DedispersionPlan, found: &TrialStat, injected: usize) -> bool {
    if found.snr < DETECT_SNR {
        return false;
    }
    if found.trial.abs_diff(injected) <= 1 {
        return true;
    }
    let delays = plan.delays();
    delays
        .trial_row(found.trial)
        .iter()
        .zip(delays.trial_row(injected))
        .all(|(a, b)| a.abs_diff(*b) <= 1)
}

/// Reference detections from the naive kernel, for every distinct
/// fully-warm chunk: `reference[beam][j]`.
fn reference(stream: &Stream) -> Vec<Vec<TrialStat>> {
    let first = stream.first_full_push();
    let per_beam = |beam: usize| -> Vec<TrialStat> {
        let mut out = OutputBuffer::for_plan(&stream.plan);
        (0..CYCLE)
            .map(|j| {
                // The smallest push count ≥ `first` whose newest second is `j`.
                let pushes = first + (j + CYCLE - (first - 1) % CYCLE) % CYCLE;
                out.clear();
                NaiveKernel
                    .dedisperse(&stream.plan, &stream.window(beam, pushes), &mut out)
                    .expect("window matches the plan");
                *detect_best_trial(&out).best()
            })
            .collect()
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut reference = vec![Vec::new(); BEAMS];
    std::thread::scope(|s| {
        for (t, slots) in reference.chunks_mut(BEAMS.div_ceil(threads)).enumerate() {
            s.spawn(move || {
                for (i, slot) in slots.iter_mut().enumerate() {
                    *slot = per_beam(t * BEAMS.div_ceil(threads) + i);
                }
            });
        }
    });
    reference
}

/// Checks every candidate against its injected pulse and the reference
/// detection; returns (detect errors, failed chunks).
fn check(
    stream: &Stream,
    reference: &[Vec<TrialStat>],
    run: &PipelineRun,
    out: &mut Outcome,
) -> (u64, u64) {
    if run.processed != run.sent {
        out.problem(format!(
            "pipeline processed {} of {} chunks",
            run.processed, run.sent
        ));
    }
    if run.candidates.len() as u64 != run.sent {
        out.problem(format!(
            "{} candidates for {} chunks",
            run.candidates.len(),
            run.sent
        ));
    }
    let warm = stream.warmup_pushes() as u64;
    let first_full = stream.first_full_push() as u64;
    let mut by_chunk: HashMap<(usize, u64), &Candidate> = HashMap::new();
    for (c, _, _) in &run.candidates {
        if by_chunk.insert((c.beam, c.second), c).is_some() {
            out.problem(format!(
                "duplicate candidate for beam {} second {}",
                c.beam, c.second
            ));
        }
    }
    let (mut detect_errors, mut mismatches) = (0u64, 0u64);
    // The producer stops only between rounds, so every beam sent the
    // same number of chunks.
    for (beam, (pulses, expected)) in stream.pulses.iter().zip(reference).enumerate() {
        for second in 0..run.sent / BEAMS as u64 {
            let pushes = second + warm;
            let j = ((pushes - 1) % CYCLE as u64) as usize;
            let found = by_chunk.get(&(beam, second));
            let Some(c) = found.filter(|c| recovered(&stream.plan, &c.best, pulses[j].0)) else {
                detect_errors += 1;
                continue;
            };
            let r = &expected[j];
            let same = c.best.trial == r.trial
                && c.best.peak_sample == r.peak_sample
                && (c.best.snr - r.snr).abs() <= 1e-3 * r.snr.abs().max(1.0);
            if pushes >= first_full && !same {
                mismatches += 1;
                if mismatches == 1 {
                    out.problem(format!(
                        "beam {beam} second {second}: trial {} peak {} S/N {} but the naive kernel gives trial {} peak {} S/N {}",
                        c.best.trial, c.best.peak_sample, c.best.snr, r.trial, r.peak_sample, r.snr
                    ));
                }
            }
        }
    }
    if detect_errors > 0 {
        out.problem(format!("{detect_errors} injected pulses not recovered"));
    }
    if mismatches > 0 {
        out.problem(format!("{mismatches} chunks differ from the naive kernel"));
    }
    (detect_errors, detect_errors + mismatches)
}

/// Plan build, stream synthesis, and host tuning of the parallel kernel
/// over `ConfigSpace::reduced()`.
struct Setup {
    stream: Stream,
    kernel: KernelConfig,
    tune_s: f64,
    tune_configs: usize,
    best_gflops: f64,
    total_s: f64,
}

fn set_up(seed: u64) -> Setup {
    let start = Instant::now();
    let plan = Arc::new(plan());
    let stream = Stream::synthesize(plan, seed);
    let tune_start = Instant::now();
    let input = stream.window(0, stream.first_full_push());
    let executor = HostExecutor::new(
        &stream.plan,
        &input,
        &ConfigSpace::reduced(),
        HostKernel::Parallel,
        TUNE_REPEATS,
    );
    let tune_configs = executor.configs().len();
    let tuned = Tuner.tune(&executor);
    let tune_s = tune_start.elapsed().as_secs_f64();
    drop(executor);
    Setup {
        kernel: tuned.best_config(),
        best_gflops: tuned.best_gflops(),
        tune_s,
        tune_configs,
        stream,
        total_s: start.elapsed().as_secs_f64(),
    }
}

/// Median wall time of `calls` invocations of `f`, in ms, after two
/// untimed warm-up calls.
fn time_ms(calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let mut samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            f();
            ms(t.elapsed())
        })
        .collect();
    median(&mut samples)
}

/// Runs the stream workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let setups = if args.trace { 1 } else { SETUPS };
    // The measured time is split into one segment per set-up, each
    // streaming with that set-up's tuned configuration, so a run samples
    // the host's speed and the tuner's pick at several moments instead
    // of in one stretch.
    let segment_s = args.seconds / setups as f64;
    let mut setup_times = Vec::new();
    let mut first: Option<Setup> = None;
    let mut runs = Vec::new();
    let mut picks = Vec::new();
    for i in 0..setups {
        let setup = set_up(args.seed);
        println!(
            "set-up {i}: {:.2} s (tuning {:.2} s over {} configs) -> {} at {:.2} GFLOP/s",
            setup.total_s, setup.tune_s, setup.tune_configs, setup.kernel, setup.best_gflops
        );
        setup_times.push(setup.total_s);
        let kernel = setup.kernel;
        picks.push(kernel);
        // Every set-up synthesizes the same stream from the seed; the
        // first one's is kept.
        let stream = &first.get_or_insert(setup).stream;
        runs.push(run_pipeline(stream, kernel, segment_s, args.trace));
    }
    let setup = first.expect("at least one set-up");
    let stream = &setup.stream;
    let plan = &stream.plan;
    println!(
        "plan: {} channels, {} trials, {} in / {} out samples; {BEAMS} beams",
        plan.channels(),
        plan.trials(),
        plan.in_samples(),
        plan.out_samples(),
    );

    // Each segment is cut into slices of about one second, and each
    // slice is one measurement window: rates and percentiles are taken
    // per slice and the median slice is reported, so a burst of host
    // contention confined to a few slices does not move the result.
    let per_segment = segment_s.ceil() as usize;
    let slice_s = segment_s / per_segment as f64;
    let slices = per_segment * runs.len();
    let mut receipts: Vec<Vec<Instant>> = vec![Vec::new(); slices];
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); slices];
    let mut ticks: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for (segment, run) in runs.iter().enumerate() {
        let slice_of = |at: Instant| {
            let k = ((at - run.window_start).as_secs_f64() / slice_s) as usize;
            segment * per_segment + k.min(per_segment - 1)
        };
        for (_, latency, at) in &run.candidates {
            if *at >= run.window_start && *at < run.window_end {
                receipts[slice_of(*at)].push(*at);
                latencies[slice_of(*at)].push(ms(*latency));
            }
        }
        for (at, tick) in &run.ticks_ms {
            ticks[slice_of(*at)].push(*tick);
        }
    }
    // Chunks completed per second between a slice's first and last receipt.
    let slice_rate =
        |r: &Vec<Instant>| (r.len() - 1) as f64 / (r[r.len() - 1] - r[0]).as_secs_f64();
    for (segment, pick) in picks.iter().enumerate() {
        let mut own: Vec<f64> = receipts[segment * per_segment..(segment + 1) * per_segment]
            .iter()
            .filter(|r| r.len() >= 2)
            .map(slice_rate)
            .collect();
        println!(
            "segment {segment}: {pick}, median slice {:.1} beam-s/s",
            median(&mut own)
        );
    }
    let mut rates: Vec<f64> = receipts
        .iter()
        .filter(|r| r.len() >= 2)
        .map(slice_rate)
        .collect();
    if rates.len() < slices {
        out.problem("a slice of the measured window completed no chunks".to_string());
    }
    let rate = median(&mut rates);
    let (slowest, fastest) = (rates.first().copied(), rates.last().copied());
    let late = runs
        .iter()
        .flat_map(|run| &run.candidates)
        .filter(|(_, latency, _)| ms(*latency) > DEADLINE_MS)
        .count() as u64;
    let (p50, p99) = (
        windowed_quantile(&mut latencies, 0.5),
        windowed_quantile(&mut latencies, 0.99),
    );
    let (tick50, tick99) = (
        windowed_quantile(&mut ticks, 0.5),
        windowed_quantile(&mut ticks, 0.99),
    );
    let latency_samples: usize = latencies.iter().map(Vec::len).sum();
    let tick_samples: usize = ticks.iter().map(Vec::len).sum();
    println!(
        "stream: {rate:.1} beam-s/s (median of {slices} slices of {slice_s:.2} s, {:.1} to {:.1}); chunk latency p50 {p50:.2} ms p99 {p99:.2} ms ({latency_samples} samples); beam tick p50 {tick50:.2} ms p99 {tick99:.2} ms ({tick_samples} samples)",
        slowest.unwrap_or(0.0),
        fastest.unwrap_or(0.0)
    );

    let reference = reference(stream);
    let (mut detect_errors, mut failed) = (0, 0);
    for run in &runs {
        let (errors, bad) = check(stream, &reference, run, &mut out);
        detect_errors += errors;
        failed += bad;
        out.attempted += run.sent;
    }
    out.failed = failed;
    println!(
        "checked {} chunks: {detect_errors} detect errors, {failed} failed, {late} over the {DEADLINE_MS} ms deadline",
        out.attempted
    );

    out.set("realtime_factor", rate);
    out.set("beams_per_s", rate);
    out.set("chunk_latency_p50_ms", p50);
    out.set("chunk_latency_p99_ms", p99);
    out.set("tick_p50_ms", tick50);
    out.set("tick_p99_ms", tick99);
    out.set("setup_s", median(&mut setup_times));
    if !args.trace {
        return out;
    }

    out.set("traced.realtime_factor", rate);
    out.set("traced.beams_per_s", rate);
    out.set("chunk_latency.samples", latency_samples as f64);
    out.set("tick.samples", tick_samples as f64);
    out.set("detect_errors", detect_errors as f64);
    out.set(
        "failed_share",
        (failed + late) as f64 / out.attempted.max(1) as f64,
    );
    out.set("tune.s", setup.tune_s);
    out.set("tune.configs", setup.tune_configs as f64);
    out.set(
        "tune.configs_per_s",
        setup.tune_configs as f64 / setup.tune_s,
    );
    out.set("tune.best_gflops", setup.best_gflops);

    // Stage costs, each timed alone on one fully-warm chunk.
    let input = stream.window(0, stream.first_full_push());
    let mut output = OutputBuffer::for_plan(plan);
    let parallel = ParallelKernel::new(setup.kernel);
    let tiled = TiledKernel::new(setup.kernel);
    let kernel_ms = time_ms(30, || {
        parallel
            .dedisperse(plan, &input, &mut output)
            .expect("window matches the plan");
    });
    let tiled_ms = time_ms(10, || {
        tiled
            .dedisperse(plan, &input, &mut output)
            .expect("window matches the plan");
    });
    let detect_ms = time_ms(30, || {
        std::hint::black_box(detect_best_trial(&output));
    });
    let feeder_ms = median(
        &mut runs
            .iter()
            .flat_map(|r| r.feeder_ms.clone())
            .collect::<Vec<_>>(),
    );
    let ai = ArithmeticIntensity::for_execution(plan, &setup.kernel);
    let stage_sum = feeder_ms + kernel_ms + detect_ms;
    out.set("kernel.ms", kernel_ms);
    out.set("kernel.gflops", plan.flop() as f64 / kernel_ms / 1e6);
    out.set("kernel.tiled_ms", tiled_ms);
    out.set("kernel.parallel_speedup", tiled_ms / kernel_ms);
    out.set("kernel.ai", ai.flop_per_byte());
    out.set(
        "kernel.gbs_computed",
        ai.total_bytes() as f64 / kernel_ms / 1e6,
    );
    out.set(
        "kernel.working_set_mb",
        (plan.input_bytes() + plan.output_bytes() + plan.delays().size_bytes() as u64) as f64 / 1e6,
    );
    out.set("detect.ms", detect_ms);
    out.set("detect.share", detect_ms / stage_sum);
    out.set("feeder.ms", feeder_ms);
    out.set("feeder.bytes_per_chunk", plan.input_bytes() as f64);
    out.set("pipeline.handoff_ms", p50 - stage_sum);
    out.set(
        "pipeline.intake_wait_ms",
        median(
            &mut runs
                .iter()
                .flat_map(|r| r.intake_ms.clone())
                .collect::<Vec<_>>(),
        ),
    );
    println!(
        "stages: feeder {feeder_ms:.3} + kernel {kernel_ms:.3} + detect {detect_ms:.3} + handoff {:.3} = chunk latency p50 {p50:.3} ms; tiled (1 thread) {tiled_ms:.3} ms",
        p50 - stage_sum
    );
    out
}
