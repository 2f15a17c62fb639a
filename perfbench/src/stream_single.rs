//! `stream_single`: `compile_stream` of a 150,000-loop seeded corpus on the
//! 6-FU single-cluster machine.
//!
//! The partitioner never runs here, so this is the no-change control for
//! partition work and the main workload for the front end (corpus
//! generation, unrolling, copy insertion), IMS and the queue allocator.  Every
//! pass streams the same corpus; the run reports the median pass.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vliw_core::loopgen::CorpusStream;
use vliw_core::session::{compile_stream, par_map_indexed, StreamConfig, StreamReport};
use vliw_core::verify::verify_with_allocation;
use vliw_core::{Compiler, CompilerConfig, Loop, Machine};

use crate::replay::{replay_traced, Replay, Target};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb};
use crate::trace::Recorder;
use crate::{Args, OUT_DIR, THREADS};

const STREAM_LOOPS: usize = 150_000;

/// Fewest passes a run medians over, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Set-up samples taken before each pass, so that they span the whole run.
const SETUP_SAMPLES_PER_PASS: usize = 7;
const SETUP_BATCH: usize = 200;

fn compiler_config() -> CompilerConfig {
    CompilerConfig::paper_defaults(Machine::paper_single(6))
}

fn stream_config(seed: u64) -> StreamConfig {
    let mut cfg = StreamConfig::new(STREAM_LOOPS, seed);
    cfg.threads = THREADS;
    cfg
}

/// Streams `cfg`'s corpus shard by shard, as `compile_stream` does, handing
/// each shard and the corpus index of its first loop to `f`; `rec` times the
/// generation of each shard.
fn for_each_shard(cfg: &StreamConfig, rec: &mut Recorder, mut f: impl FnMut(&[Loop], usize)) {
    let mut stream = CorpusStream::new(cfg.corpus.clone());
    let mut offset = 0;
    loop {
        let (shard, _) = rec.time("loopgen", offset, 0, || {
            stream.by_ref().take(cfg.shard_size.max(1)).collect::<Vec<Loop>>()
        });
        if shard.is_empty() {
            break;
        }
        f(&shard, offset);
        offset += shard.len();
    }
}

/// Compiles the whole stream again and checks every schedule with the
/// verifier; returns (II sum, II per original iteration sum, compiled).
fn verify_stream(cfg: &StreamConfig, report: &mut Report) -> (u64, f64, u64) {
    let compiler = Compiler::new(compiler_config());
    let machine = compiler_config().machine;
    let (mut ii, mut per_iter, mut compiled) = (0u64, 0.0, 0u64);
    for_each_shard(cfg, &mut Recorder::new(Instant::now(), false), |shard, _| {
        let results = par_map_indexed(shard.len(), THREADS, |i| {
            compiler.compile(&shard[i]).ok().map(|c| {
                let v = verify_with_allocation(&c.transformed, &machine, &c.schedule, &c.queues);
                (c.ii(), c.unroll_factor, v.schedule_faults)
            })
        });
        for r in results {
            report.attempted += 1;
            match r {
                Some((loop_ii, factor, faults)) => {
                    ii += u64::from(loop_ii);
                    per_iter += f64::from(loop_ii) / f64::from(factor.max(1));
                    compiled += 1;
                    report.failed += u64::from(faults > 0);
                }
                None => report.failed += 1,
            }
        }
    });
    (ii, per_iter, compiled)
}

/// The report's mean II is the replay's (same sum over the same count).
fn check_mean_ii(report: &mut Report, stream: &StreamReport, ii_sum: u64, compiled: u64) {
    report.check(stream.failed == 0, format!("{} streamed loops failed", stream.failed));
    let replay_mean = if compiled > 0 { ii_sum as f64 / compiled as f64 } else { 0.0 };
    report.check(
        stream.compiled as u64 == compiled && stream.mean_ii == replay_mean,
        format!("stream mean II {} equals the replay's {replay_mean}", stream.mean_ii),
    );
}

pub fn run(args: &Args, report: &mut Report) {
    let cfg = stream_config(args.seed);
    if args.trace {
        return traced(&cfg, report);
    }
    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut reports: Vec<StreamReport> = Vec::new();
    let started = Instant::now();
    // Stop before a pass would overrun `--seconds`.
    let last = |walls: &[f64]| walls.last().copied().unwrap_or(0.0);
    while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() + last(&walls) <= args.seconds
    {
        // Set-up: everything a streamed run builds before its first loop.  It
        // takes microseconds, so each sample times a batch.
        for _ in 0..SETUP_SAMPLES_PER_PASS {
            let t = Instant::now();
            for _ in 0..SETUP_BATCH {
                let built = (stream_config(args.seed), Compiler::new(compiler_config()));
                drop(std::hint::black_box(built));
            }
            setup.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        }
        let t = Instant::now();
        let streamed = compile_stream(&cfg, compiler_config());
        let wall = t.elapsed().as_secs_f64();
        match streamed {
            Ok(mut r) => {
                report.attempted += r.corpus_size as u64;
                report.failed += r.failed as u64;
                walls.push(wall);
                rates.push(r.compiled as f64 / wall);
                r.peak_rss_kb = None;
                reports.push(r);
            }
            Err(e) => {
                report.failed += 1;
                return report.check(false, format!("compile_stream: {e}"));
            }
        }
    }
    let peak = peak_rss_mb();

    report.check(reports.windows(2).all(|w| w[0] == w[1]), "every pass reports the same stream");
    let (ii_sum, per_iter, compiled) = verify_stream(&cfg, report);
    check_mean_ii(report, &reports[0], ii_sum, compiled);

    report.set("setup_s", median(&setup));
    report.set("wall_s", median(&walls));
    report.set("compiles_per_s", median(&rates));
    report.set("peak_rss_mb", peak);
    report.set("ii_per_iter", per_iter / compiled.max(1) as f64);
    report.line(format!(
        "# {} passes of {STREAM_LOOPS} loops, pass walls {:?}",
        walls.len(),
        walls.iter().map(|w| format!("{w:.3}")).collect::<Vec<_>>()
    ));
}

/// One untraced `compile_stream` pass (the program), then the replay of every
/// loop, untraced and traced, against `Compiler::compile`.
fn traced(cfg: &StreamConfig, report: &mut Report) {
    let stream = match compile_stream(cfg, compiler_config()) {
        Ok(r) => r,
        Err(e) => {
            report.failed += 1;
            return report.check(false, format!("compile_stream: {e}"));
        }
    };
    let targets = [Target::new(compiler_config())];
    let compiler = Compiler::new(compiler_config());
    let reference = |_: usize, _: usize, lp: &Loop| Arc::new(compiler.compile(lp));
    let replay = Replay::new(&targets, &reference, None);
    let labels = vec![targets[0].label.clone()];
    let out = Path::new(OUT_DIR).join("stream_single.spans.tsv");
    let ops = AtomicUsize::new(0);
    let traced = replay_traced(report, &out, &labels, THREADS, |main, workers, tallies| {
        let mut total = 0;
        for_each_shard(cfg, main, |shard, offset| {
            total += shard.iter().map(|lp| lp.ddg.num_ops()).sum::<usize>();
            replay.run(shard, offset, workers, tallies);
        });
        ops.store(total, Ordering::Relaxed);
    });
    report.set("loopgen.ops", ops.load(Ordering::Relaxed) as f64);
    check_mean_ii(report, &stream, traced.tally.ii_sum, traced.tally.compiled);
}
