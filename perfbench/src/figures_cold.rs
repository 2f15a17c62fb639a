//! `figures_cold`: cold in-process `figures all` over seeded 128-loop corpora.
//!
//! Every paper machine compiles here (single 4/6/12-FU and the IPC widths,
//! clustered 2/4/5/6), and the partitioner's single-cluster collapse does
//! nearly all the work, so this is the workload that shows the partitioner's
//! tail.  Each pass is a fresh `Session` over one corpus of a fixed family of
//! two, and a run passes over the family repeatedly.
//!
//! The family does not depend on `--seed`: a 128-loop corpus holds only a
//! handful of collapse loops costing up to half a second each, so one pass
//! moves by ±40% between corpora and even eight corpora spread by 14% across
//! seeds, which measures the inputs rather than the program.  Repeating the
//! same corpora lets a run report per-corpus medians, which the shared host's
//! slow spells of a few seconds do not move.  The seed orders the family (and
//! picks the traced run's corpus); `--corpus-seed` names the family (default
//! 386, held-out 7).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use vliw_bench::{run_experiments_in, Selection, RESOURCE_CLUSTER_COUNTS};
use vliw_core::experiments::ipc::DEFAULT_WIDTHS;
use vliw_core::experiments::ExperimentConfig;
use vliw_core::verify::verify_with_allocation;
use vliw_core::{generate_corpus, CompilerConfig, Machine, Session, SessionBuilder, VliwError};

use crate::replay::{distinct, replay_traced, Replay, Target};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb};
use crate::{Args, OUT_DIR, THREADS};

const CORPUS_LOOPS: usize = 128;
/// Corpora in the family.
const FAMILY: usize = 2;
/// Passes over each corpus a run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;
/// Set-up samples taken before each pass, so that they span the whole run.
const SETUP_SAMPLES_PER_PASS: usize = 8;

/// Corpus seed of the family's corpus `j`; corpus 0 uses the family seed
/// itself.
fn pass_seed(corpus_seed: u64, j: usize) -> u64 {
    corpus_seed.wrapping_add(1_000_003 * j as u64)
}

/// The order in which a run compiles the family's `n` corpora: a
/// Fisher–Yates shuffle driven by SplitMix64 from `seed`.
fn pass_order(seed: u64, n: usize) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

fn session(seed: u64) -> Result<Session, VliwError> {
    SessionBuilder::quick(CORPUS_LOOPS, seed).threads(THREADS).try_build()
}

/// Every configuration `figures all` compiles, in the drivers' order.
pub fn targets() -> Vec<Target> {
    let mut configs = Vec::new();
    for fus in [4, 6, 12] {
        let machine = Machine::paper_single(fus);
        configs.push(CompilerConfig::paper_defaults(machine.clone()).no_unroll());
        configs.push(CompilerConfig::without_copies(machine.clone()).no_unroll());
        configs.push(CompilerConfig::paper_defaults(machine));
    }
    for clusters in [4, 5, 6] {
        let lat = Default::default();
        configs.push(CompilerConfig::paper_defaults(Machine::paper_single_cluster_equivalent(
            clusters, lat,
        )));
        configs.push(CompilerConfig::paper_defaults(Machine::paper_clustered(clusters, lat)));
    }
    for clusters in RESOURCE_CLUSTER_COUNTS {
        configs.push(CompilerConfig::paper_defaults(Machine::paper_clustered(
            clusters,
            Default::default(),
        )));
    }
    for fus in DEFAULT_WIDTHS {
        configs.push(CompilerConfig::paper_defaults(Machine::paper_single(fus)));
        if fus % 3 == 0 && fus >= 6 {
            configs.push(CompilerConfig::paper_defaults(Machine::paper_clustered(
                fus / 3,
                Default::default(),
            )));
        }
    }
    distinct(configs).into_iter().map(Target::new).collect()
}

/// After a pass: every (target, loop) is in the memo store (no new compile),
/// verifies clean, and contributes its II per original iteration.
fn examine(session: &Session, targets: &[Target], report: &mut Report, ii: &mut (f64, u64)) {
    let compiled = session.stats().compilations;
    report.check(
        compiled == (targets.len() * session.num_loops()) as u64,
        format!(
            "figures all compiled {compiled} (loop, machine) pairs, the benchmark lists {}",
            targets.len() * session.num_loops()
        ),
    );
    for target in targets {
        let compiler = session.compiler(target.config.clone());
        for li in 0..session.num_loops() {
            report.attempted += 1;
            match compiler.compile_full(li).as_ref() {
                Ok(c) => {
                    ii.0 += f64::from(c.ii()) / f64::from(c.unroll_factor.max(1));
                    ii.1 += 1;
                    let v = verify_with_allocation(
                        &c.transformed,
                        &target.config.machine,
                        &c.schedule,
                        &c.queues,
                    );
                    report.failed += u64::from(v.schedule_faults > 0);
                }
                Err(_) => report.failed += 1,
            }
        }
    }
    report.check(
        session.stats().compilations == compiled,
        "the benchmark's configuration list matches what figures all compiled",
    );
}

/// `figures all --corpus-size 32 --seed 386` must reproduce its committed
/// golden report byte for byte.
fn baseline_smoke(report: &mut Report) {
    let path = Path::new("baselines/figures_small.json");
    let expected = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return report.check(false, format!("reading {}: {e}", path.display())),
    };
    let mut cfg = ExperimentConfig::quick(32, 386);
    cfg.threads = THREADS;
    let produced = Session::try_new(cfg)
        .and_then(|s| run_experiments_in(&s, Selection::All))
        .map(|r| serde_json::to_string_pretty(&r).expect("reports serialize") + "\n");
    report.attempted += 1;
    report.check(
        produced.as_deref() == Ok(expected.as_str()),
        format!("the 32-loop seed-386 figures report equals {}", path.display()),
    );
}

pub fn run(args: &Args, report: &mut Report) {
    if args.trace {
        return traced(args, report);
    }
    let targets = targets();
    let order = pass_order(args.seed, FAMILY);
    let family: Vec<u64> = order.iter().map(|&j| pass_seed(args.corpus_seed, j)).collect();
    let mut setup = Vec::new();
    let mut walls = vec![Vec::new(); FAMILY];
    // Per corpus: compilations and the (II per iteration sum, count) of its
    // first pass, which every later pass must repeat.
    let mut first: Vec<Option<(u64, (f64, u64))>> = vec![None; FAMILY];
    let started = Instant::now();
    for pass in 0.. {
        let c = pass % FAMILY;
        // Stop before a pass would overrun `--seconds`.
        let last = walls[c].last().copied().unwrap_or(0.0);
        if pass >= MIN_ROUNDS * FAMILY && started.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
        // Set-up: generating the family's corpora, under a millisecond.
        let mut built = Vec::new();
        for _ in 0..SETUP_SAMPLES_PER_PASS {
            let t = Instant::now();
            let sessions: Result<Vec<Session>, _> = family.iter().map(|&s| session(s)).collect();
            setup.push(t.elapsed().as_secs_f64());
            built = match sessions {
                Ok(s) => s,
                Err(e) => return report.check(false, format!("session: {e}")),
            };
        }
        let session = built.swap_remove(c);
        drop(built);

        let t = Instant::now();
        let figures = run_experiments_in(&session, Selection::All);
        walls[c].push(t.elapsed().as_secs_f64());
        if let Err(e) = figures {
            report.failed += 1;
            return report.check(false, format!("figures all: {e}"));
        }
        let mut ii = (0.0, 0u64);
        examine(&session, &targets, report, &mut ii);
        let outcome = (session.stats().compilations, ii);
        match first[c] {
            None => first[c] = Some(outcome),
            Some(f) => report.check(
                f == outcome,
                format!("every pass over corpus {} compiles and schedules the same", family[c]),
            ),
        }
    }
    let peak = peak_rss_mb();
    baseline_smoke(report);

    let medians: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    let round: f64 = medians.iter().sum();
    let (mut compilations, mut ii) = (0, (0.0, 0u64));
    for (n, (sum, count)) in first.iter().flatten() {
        compilations += n;
        ii.0 += sum;
        ii.1 += count;
    }
    report.set("setup_s", median(&setup));
    report.set("wall_s", round / FAMILY as f64);
    report.set("compiles_per_s", compilations as f64 / round);
    report.set("peak_rss_mb", peak);
    report.set("ii_per_iter", ii.0 / ii.1.max(1) as f64);
    for (seed, w) in family.iter().zip(&walls) {
        report.line(format!(
            "# corpus seed {seed}: {} cold passes of {CORPUS_LOOPS} loops x {} configurations, walls {:?}",
            w.len(),
            targets.len(),
            w.iter().map(|w| format!("{w:.3}")).collect::<Vec<_>>()
        ));
    }
}

/// One untraced `figures all` pass (the program), then the replay of its
/// every (loop, machine), untraced and traced, against the pass's memo store.
fn traced(args: &Args, report: &mut Report) {
    let targets = targets();
    let j = pass_order(args.seed, FAMILY)[0];
    let session = match session(pass_seed(args.corpus_seed, j)) {
        Ok(s) => s,
        Err(e) => return report.check(false, format!("session: {e}")),
    };
    if let Err(e) = run_experiments_in(&session, Selection::All) {
        report.failed += 1;
        return report.check(false, format!("figures all: {e}"));
    }
    let stats = session.stats();
    report.session(&stats);

    let compilers: Vec<_> = targets.iter().map(|t| session.compiler(t.config.clone())).collect();
    let reference =
        |ti: usize, li: usize, _: &vliw_core::Loop| -> Arc<_> { compilers[ti].compile_full(li) };
    let replay = Replay::new(&targets, &reference, None);
    let corpus_config = session.config().corpus.clone();
    let labels: Vec<String> = targets.iter().map(|t| t.label.clone()).collect();
    let out = Path::new(OUT_DIR).join("figures_cold.spans.tsv");
    replay_traced(report, &out, &labels, THREADS, |main, workers, tallies| {
        let (corpus, _) = main.time("loopgen", 0, 0, || generate_corpus(&corpus_config));
        replay.run(&corpus, 0, workers, tallies);
    });
    let ops: usize = session.corpus().iter().map(|lp| lp.ddg.num_ops()).sum();
    report.set("loopgen.ops", ops as f64);
    report.check(
        session.stats().compilations == stats.compilations,
        "the replay's reference compilations all came from the program's memo store",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let order = pass_order(1, 8);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        assert_eq!(order, pass_order(1, 8));
        assert!((2..20).any(|seed| pass_order(seed, 8) != order));
    }
}
