//! Streamed corpus compilation: one worker pool, flat memory.
//!
//! [`Session`](super::Session) materialises its whole corpus up front — the
//! right trade for the paper's 1258-loop evaluation, where every driver
//! re-reads the same loops and the memo store keeps their artifacts anyway.
//! At 100k+ loops that model stops scaling: the corpus alone is hundreds of
//! megabytes and the per-loop artifacts would dwarf it.
//!
//! [`compile_stream`] instead runs one pool of `threads` workers for the whole
//! run.  The workers share a single [`CorpusStream`] behind a mutex: a worker
//! that runs dry locks it, takes the next `shard_size` loops, unlocks and
//! compiles them, folding each loop's metrics into its own integer
//! accumulator.  Generation is therefore serial but overlaps the other
//! workers' compiles, and no worker waits at a per-shard barrier for the
//! slowest loop of a shard.  The accumulators are sums and maxima, merged once
//! at the end, so the report is exact whatever order the loops finish in.
//!
//! Peak memory is `O(threads × shard_size)`, independent of the corpus size;
//! the per-worker scratch arenas of the compile pipeline
//! (`vliw_core::ScratchArena`) live for the whole run.  The loop stream is the
//! same generator the eager path uses, so loop `i` of a streamed run is
//! byte-identical to loop `i` of `Session::new` with the same corpus
//! configuration.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use vliw_ddg::Loop;
use vliw_loopgen::{CorpusConfig, CorpusStream};

use super::executor::{panic_message, try_par_map_indexed};
use crate::error::VliwError;
use crate::experiments::default_threads;
use crate::pipeline::{Compiler, CompilerConfig};

/// Default number of loops a worker takes from the generator at a time: enough
/// to amortise the lock, few enough that every worker's shard of generated
/// loops stays well under a megabyte.
pub const DEFAULT_SHARD_SIZE: usize = 64;

/// Parameters of a streamed compilation run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Corpus to stream (its `num_loops` is the total streamed, never resident).
    pub corpus: CorpusConfig,
    /// Loops a worker takes from the generator at a time (clamped to ≥ 1).
    pub shard_size: usize,
    /// Workers in the run's pool (1 = sequential, on the caller's thread).
    pub threads: usize,
}

impl StreamConfig {
    /// A streamed run over `num_loops` paper-statistics loops with `seed`,
    /// default shard size and thread count.
    pub fn new(num_loops: usize, seed: u64) -> Self {
        let mut corpus = CorpusConfig::paper_default();
        corpus.num_loops = num_loops;
        corpus.seed = seed;
        StreamConfig { corpus, shard_size: DEFAULT_SHARD_SIZE, threads: default_threads() }
    }
}

/// Aggregate metrics of one streamed run — everything the run keeps; the
/// per-loop artifacts are dropped as soon as their metrics are folded in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// Total loops streamed.
    pub corpus_size: usize,
    /// Corpus generator seed.
    pub seed: u64,
    /// Loops a worker took from the generator at a time.
    pub shard_size: usize,
    /// Number of takes from the generator: `corpus_size.div_ceil(shard_size)`.
    pub shards: usize,
    /// Loops that compiled successfully.
    pub compiled: usize,
    /// Loops that failed to schedule under the configuration.
    pub failed: usize,
    /// Mean initiation interval over the compiled loops.
    pub mean_ii: f64,
    /// Mean lower bound (MII) over the compiled loops.
    pub mean_mii: f64,
    /// Fraction of compiled loops scheduled at exactly their MII.
    pub mii_achieved_fraction: f64,
    /// Mean number of queues allocated per compiled loop.
    pub mean_queues: f64,
    /// Largest queue depth seen across the whole run.
    pub max_queue_depth: usize,
    /// Peak resident set size of the process in kB (`VmHWM` from
    /// `/proc/self/status`), if the platform exposes it.  Read *after* the
    /// pool has finished, so it bounds the whole run — the flat-memory
    /// evidence the 100k-loop smoke asserts on.
    pub peak_rss_kb: Option<u64>,
}

/// What one compiled loop contributes to the report.
struct LoopMetrics {
    ii: u32,
    mii: u32,
    queues: usize,
    max_queue_depth: usize,
}

/// One worker's running aggregates; every field is an integer sum or max, so
/// merging the workers' totals is exact in any order.
#[derive(Default)]
struct Totals {
    shards: usize,
    compiled: usize,
    failed: usize,
    sum_ii: u64,
    sum_mii: u64,
    at_mii: usize,
    sum_queues: u64,
    max_queue_depth: usize,
}

impl Totals {
    fn add(&mut self, metrics: Option<LoopMetrics>) {
        let Some(m) = metrics else {
            self.failed += 1;
            return;
        };
        self.compiled += 1;
        self.sum_ii += u64::from(m.ii);
        self.sum_mii += u64::from(m.mii);
        self.at_mii += usize::from(m.ii == m.mii);
        self.sum_queues += m.queues as u64;
        self.max_queue_depth = self.max_queue_depth.max(m.max_queue_depth);
    }

    fn merge(&mut self, other: Totals) {
        self.shards += other.shards;
        self.compiled += other.compiled;
        self.failed += other.failed;
        self.sum_ii += other.sum_ii;
        self.sum_mii += other.sum_mii;
        self.at_mii += other.at_mii;
        self.sum_queues += other.sum_queues;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

/// A failed worker: the corpus index of the loop it failed on (`usize::MAX`
/// when no loop is to blame) and the error.
type Failure = (usize, VliwError);

/// The generator the workers share, with the corpus index of its next loop.
/// `stopped` is set by the first worker that fails, so that the others stop
/// taking loops too.
struct Feed<I> {
    loops: I,
    next: usize,
    stopped: bool,
}

/// Runs `f` for corpus loop `index`, turning a panic into
/// [`VliwError::WorkerPanic`] at that index.
fn catch<R>(index: usize, f: impl FnOnce() -> R) -> Result<R, Failure> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        (index, VliwError::WorkerPanic { index, message: panic_message(payload.as_ref()) })
    })
}

/// Streams the configured corpus through `compiler_config` on one pool of
/// `cfg.threads` workers and returns the aggregate report.
///
/// A panic while generating or compiling a loop surfaces as
/// [`VliwError::WorkerPanic`] carrying that loop's corpus index (the lowest
/// one, when several loops panic); an invalid `cfg.corpus` is a
/// [`VliwError::InvalidRequest`].  Scheduling failures are counted, not fatal.
pub fn compile_stream(
    cfg: &StreamConfig,
    compiler_config: CompilerConfig,
) -> Result<StreamReport, VliwError> {
    cfg.corpus
        .validate()
        .map_err(|e| VliwError::InvalidRequest(format!("invalid corpus configuration: {e}")))?;
    let compiler = Compiler::new(compiler_config);
    stream_with(cfg, CorpusStream::new(cfg.corpus.clone()), |_, lp| {
        compiler.compile(lp).ok().map(|c| LoopMetrics {
            ii: c.ii(),
            mii: c.mii,
            queues: c.queues_required(),
            max_queue_depth: c.queues.max_queue_depth(),
        })
    })
}

/// The worker pool behind [`compile_stream`]: `compile` maps each loop of
/// `loops` (with its corpus index) to its metrics, or to `None` when it does
/// not schedule.
fn stream_with<I, F>(cfg: &StreamConfig, loops: I, compile: F) -> Result<StreamReport, VliwError>
where
    I: Iterator<Item = Loop> + Send,
    F: Fn(usize, &Loop) -> Option<LoopMetrics> + Sync,
{
    let n = cfg.corpus.num_loops;
    let shard_size = cfg.shard_size.max(1);
    let threads = cfg.threads.clamp(1, n.div_ceil(shard_size).max(1));
    let feed = Mutex::new(Feed { loops, next: 0, stopped: false });

    // Fills `shard` with the next take and returns the corpus index of its
    // first loop; an empty shard means the stream is done.
    let take = |shard: &mut Vec<Loop>| -> Result<usize, Failure> {
        let Ok(mut feed) = feed.lock() else {
            return Err((usize::MAX, VliwError::internal("corpus stream lock poisoned")));
        };
        let first = feed.next;
        if feed.stopped {
            return Ok(first);
        }
        let _span = vliw_obs::span!("corpusgen", shard_size);
        for index in first..(first + shard_size).min(n) {
            // A generator panic is caught here, under the lock, so it stops
            // the feed instead of poisoning it.
            match catch(index, || feed.loops.next()) {
                Ok(Some(lp)) => shard.push(lp),
                Ok(None) => break,
                Err(failure) => {
                    feed.stopped = true;
                    return Err(failure);
                }
            }
        }
        feed.next = first + shard.len();
        Ok(first)
    };
    let stop = || {
        if let Ok(mut feed) = feed.lock() {
            feed.stopped = true;
        }
    };

    let worker = || -> Result<Totals, Failure> {
        let mut totals = Totals::default();
        let mut shard = Vec::with_capacity(shard_size.min(n));
        loop {
            shard.clear();
            let first = take(&mut shard)?;
            if shard.is_empty() {
                return Ok(totals);
            }
            totals.shards += 1;
            for (index, lp) in (first..).zip(&shard) {
                match catch(index, || compile(index, lp)) {
                    Ok(metrics) => totals.add(metrics),
                    Err(failure) => {
                        stop();
                        return Err(failure);
                    }
                }
            }
        }
    };

    // One long-lived worker per executor item.  A loop's panic is caught by
    // the worker, at its corpus index; the executor only catches what is left.
    let outcomes = try_par_map_indexed(threads, threads, |_| Ok(worker()))?;

    let mut totals = Totals::default();
    let mut failures = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(t) => totals.merge(t),
            Err(failure) => failures.push(failure),
        }
    }
    if let Some((_, e)) = failures.into_iter().min_by_key(|(index, _)| *index) {
        return Err(e);
    }

    let compiled = totals.compiled;
    let mean = |sum: u64| if compiled > 0 { sum as f64 / compiled as f64 } else { 0.0 };
    Ok(StreamReport {
        corpus_size: n,
        seed: cfg.corpus.seed,
        shard_size,
        shards: totals.shards,
        compiled,
        failed: totals.failed,
        mean_ii: mean(totals.sum_ii),
        mean_mii: mean(totals.sum_mii),
        mii_achieved_fraction: mean(totals.at_mii as u64),
        mean_queues: mean(totals.sum_queues),
        max_queue_depth: totals.max_queue_depth,
        peak_rss_kb: peak_rss_kb(),
    })
}

/// Peak resident set size of this process in kB — `VmHWM` from
/// `/proc/self/status` on Linux, `None` elsewhere.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentConfig;
    use crate::session::Session;
    use vliw_machine::Machine;

    fn config(num_loops: usize, shard_size: usize) -> StreamConfig {
        let mut cfg = StreamConfig::new(num_loops, 386);
        cfg.shard_size = shard_size;
        cfg.threads = 2;
        cfg
    }

    fn paper_compiler_config() -> CompilerConfig {
        CompilerConfig::paper_defaults(Machine::paper_single(6))
    }

    #[test]
    fn shard_size_does_not_change_the_aggregates() {
        let whole = compile_stream(&config(30, 30), paper_compiler_config()).unwrap();
        let sharded = compile_stream(&config(30, 7), paper_compiler_config()).unwrap();
        assert_eq!(sharded.shards, 5, "30 loops in shards of 7 is 5 shards");
        assert_eq!(whole.shards, 1);
        // Everything except the sharding bookkeeping (and the RSS snapshot)
        // must be identical: the stream yields the same loops either way.
        assert_eq!(whole.compiled, sharded.compiled);
        assert_eq!(whole.failed, sharded.failed);
        assert_eq!(whole.mean_ii, sharded.mean_ii);
        assert_eq!(whole.mean_mii, sharded.mean_mii);
        assert_eq!(whole.mii_achieved_fraction, sharded.mii_achieved_fraction);
        assert_eq!(whole.mean_queues, sharded.mean_queues);
        assert_eq!(whole.max_queue_depth, sharded.max_queue_depth);
    }

    #[test]
    fn threads_and_shard_size_do_not_change_the_report() {
        let reference = compile_stream(&config(300, 300), paper_compiler_config()).unwrap();
        assert_eq!(reference.compiled + reference.failed, 300);
        for threads in [1, 2, 4] {
            for shard_size in [1, 7, 64, 1024] {
                let mut cfg = config(300, shard_size);
                cfg.threads = threads;
                let report = compile_stream(&cfg, paper_compiler_config()).unwrap();
                let at = format!("threads {threads}, shard_size {shard_size}");
                assert_eq!(report.shard_size, shard_size, "{at}");
                assert_eq!(report.shards, 300usize.div_ceil(shard_size), "{at}");
                // Every other field but the RSS snapshot is exact.
                let normalised = StreamReport {
                    shard_size: reference.shard_size,
                    shards: reference.shards,
                    peak_rss_kb: reference.peak_rss_kb,
                    ..report
                };
                assert_eq!(normalised, reference, "{at}");
            }
        }
    }

    /// Stand-in metrics for pool tests that do not need a real compile.
    fn unit_metrics() -> Option<LoopMetrics> {
        Some(LoopMetrics { ii: 1, mii: 1, queues: 0, max_queue_depth: 0 })
    }

    #[test]
    fn a_panicking_loop_is_a_worker_panic_at_its_corpus_index() {
        for threads in [1, 2, 4] {
            for shard_size in [1, 7, 64] {
                let cfg = StreamConfig { threads, ..config(300, shard_size) };
                let loops = CorpusStream::new(cfg.corpus.clone());
                let err = stream_with(&cfg, loops, |index, _| {
                    if index == 123 || index == 250 {
                        panic!("II search diverged on loop {index}");
                    }
                    unit_metrics()
                })
                .expect_err("the run must fail");
                let at = format!("threads {threads}, shard_size {shard_size}");
                assert_eq!(
                    err,
                    VliwError::WorkerPanic {
                        index: 123,
                        message: "II search diverged on loop 123".into()
                    },
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn a_worker_stops_taking_loops_after_its_first_failure() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let cfg = StreamConfig { threads: 1, ..config(50, 4) };
        let loops = CorpusStream::new(cfg.corpus.clone());
        let err = stream_with(&cfg, loops, |index, _| {
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            assert_ne!(index, 9, "boom");
            unit_metrics()
        });
        assert!(matches!(err, Err(VliwError::WorkerPanic { index: 9, .. })), "{err:?}");
        assert_eq!(calls.into_inner(), 10, "loops 0..=9 ran, nothing after");
    }

    #[test]
    fn a_panicking_generator_is_a_worker_panic_at_its_corpus_index() {
        for threads in [1, 2] {
            let cfg = StreamConfig { threads, ..config(40, 8) };
            let loops = CorpusStream::new(cfg.corpus.clone()).enumerate().map(|(i, lp)| {
                assert_ne!(i, 17, "generator broke");
                lp
            });
            let err = stream_with(&cfg, loops, |_, _| unit_metrics()).expect_err("must fail");
            match err {
                VliwError::WorkerPanic { index, message } => {
                    assert_eq!(index, 17, "threads {threads}");
                    assert!(message.contains("generator broke"), "{message}");
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn an_invalid_corpus_is_an_invalid_request() {
        let mut cfg = config(10, 4);
        cfg.corpus.recurrence_probability = 1.5;
        let err = compile_stream(&cfg, paper_compiler_config()).expect_err("must be rejected");
        assert_eq!(err.kind(), "invalid_request", "{err}");
        assert!(err.to_string().contains("recurrence_probability"), "{err}");
    }

    #[test]
    fn streamed_aggregates_match_an_eager_session_sweep() {
        let cfg = config(24, 5);
        let report = compile_stream(&cfg, paper_compiler_config()).unwrap();

        let session = Session::new(ExperimentConfig {
            corpus: cfg.corpus.clone(),
            threads: 2,
            cache_dir: None,
        });
        let compiler = session.compiler(paper_compiler_config());
        let summaries: Vec<_> =
            session.sweep(|i, _| compiler.map_ok(i, |s| (s.ii, s.mii, s.queues_required)));
        let ok: Vec<_> = summaries.iter().flatten().collect();
        assert_eq!(report.compiled, ok.len());
        assert_eq!(report.failed, summaries.len() - ok.len());
        assert_eq!(report.corpus_size, 24);
        let mean_ii = ok.iter().map(|s| f64::from(s.0)).sum::<f64>() / ok.len() as f64;
        assert!((report.mean_ii - mean_ii).abs() < 1e-12);
        let at_mii = ok.iter().filter(|s| s.0 == s.1).count();
        assert!((report.mii_achieved_fraction - at_mii as f64 / ok.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn report_round_trips_through_serde() {
        let report = compile_stream(&config(6, 3), paper_compiler_config()).unwrap();
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        let back: StreamReport = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, report);
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        let report = compile_stream(&config(2, 2), paper_compiler_config()).unwrap();
        if cfg!(target_os = "linux") {
            assert!(report.peak_rss_kb.unwrap() > 0);
        }
    }
}
