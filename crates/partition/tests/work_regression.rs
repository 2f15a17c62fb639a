//! Work regression of the partitioner's II search on the 32-loop CI corpus
//! (seed 386), compiled the way Fig. 6 compiles it: unrolled for the machine,
//! copies inserted, then partitioned on the paper's 5- and 6-cluster machines.
//!
//! The single-cluster collapse shares the partitioned II loop, so a search
//! makes at most two placement attempts per II and stops at the first II
//! either placement fits; the summed attempts pin how much work that is.
//!
//! The golden digest pins the *output* of the same search on every paper
//! machine, so a work reduction can be shown to change no schedule.

use vliw_loopgen::{generate_corpus, CorpusConfig};
use vliw_machine::Machine;
use vliw_partition::{partition_schedule, PartitionOptions, PartitionResult};
use vliw_qrf::insert_copies;
use vliw_unroll::{unroll_for_machine, DEFAULT_MAX_FACTOR};

/// Ceiling on the summed `attempts` of the corpus at 5 and 6 clusters: the
/// count the single II loop makes.  Raise it only with a measured reason.
const ATTEMPT_CEILING: u32 = 274;

/// Ceiling on the summed `placements` of the same searches: the engine steps
/// they make with the exact cycle exit.  Raise it only with a measured reason.
const PLACEMENT_CEILING: u64 = 26_789;

/// FNV-1a digest of every partition result of the corpus on 2–6 clusters,
/// unrolled and not (see [`schedule_digest`]).  It may change only with a
/// deliberate change of the partitioner's output.
const GOLDEN_DIGEST: u64 = 0xfe3f_50ac_7f96_11e0;

/// `(loop index, clusters, result)` for every loop of the corpus on each of
/// `clusters`, unrolled for the machine first when `unroll` is set.
fn corpus_results(clusters: &[usize], unroll: bool) -> Vec<(usize, usize, PartitionResult)> {
    let corpus = generate_corpus(&CorpusConfig::small(32, 386));
    let mut out = Vec::new();
    for &n in clusters {
        let machine = Machine::paper_clustered(n, Default::default());
        for (i, lp) in corpus.iter().enumerate() {
            let body = if unroll {
                let unrolled = unroll_for_machine(lp, &machine, DEFAULT_MAX_FACTOR);
                insert_copies(&unrolled.ddg, machine.latencies()).ddg
            } else {
                insert_copies(&lp.ddg, machine.latencies()).ddg
            };
            let r = partition_schedule(&body, &machine, PartitionOptions::default())
                .unwrap_or_else(|e| panic!("loop {i} on {n} clusters: {e}"));
            out.push((i, n, r));
        }
    }
    out
}

/// FNV-1a (64-bit) over the little-endian words of each result's II, start
/// cycles, unit assignments, `attempts` and `collapsed` flag, in order.
fn schedule_digest<'a>(results: impl IntoIterator<Item = &'a PartitionResult>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u32| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in results {
        feed(r.schedule.ii);
        r.schedule.start.iter().for_each(|&s| feed(s));
        r.schedule.fu.iter().for_each(|f| feed(f.0));
        feed(r.attempts);
        feed(u32::from(r.collapsed));
    }
    hash
}

#[test]
fn no_search_probes_an_ii_above_its_result() {
    for (i, clusters, r) in corpus_results(&[5, 6], true) {
        let start_ii = r.res_mii.max(r.rec_mii).max(1);
        assert!(
            r.attempts <= 2 * (r.schedule.ii - start_ii + 1),
            "loop {i} on {clusters} clusters: {} attempts for II {} from {start_ii}",
            r.attempts,
            r.schedule.ii
        );
    }
}

#[test]
fn corpus_attempts_stay_under_the_ceiling() {
    let total: u32 = corpus_results(&[5, 6], true).iter().map(|(_, _, r)| r.attempts).sum();
    assert!(total <= ATTEMPT_CEILING, "{total} attempts, ceiling {ATTEMPT_CEILING}");
}

#[test]
fn corpus_placements_stay_under_the_ceiling() {
    let total: u64 = corpus_results(&[5, 6], true).iter().map(|(_, _, r)| r.placements).sum();
    assert!(total <= PLACEMENT_CEILING, "{total} placements, ceiling {PLACEMENT_CEILING}");
}

#[test]
fn corpus_schedules_match_the_golden_digest() {
    let mut results = corpus_results(&[2, 3, 4, 5, 6], false);
    results.extend(corpus_results(&[2, 3, 4, 5, 6], true));
    let digest = schedule_digest(results.iter().map(|(_, _, r)| r));
    assert_eq!(digest, GOLDEN_DIGEST, "partition output changed: digest {digest:#018x}");
}
