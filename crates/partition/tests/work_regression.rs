//! Work regression of the partitioner's II search on the 32-loop CI corpus
//! (seed 386), compiled the way Fig. 6 compiles it: unrolled for the machine,
//! copies inserted, then partitioned on the paper's 5- and 6-cluster machines.
//!
//! The single-cluster collapse shares the partitioned II loop, so a search
//! makes at most two placement attempts per II and stops at the first II
//! either placement fits; the summed attempts pin how much work that is.

use vliw_loopgen::{generate_corpus, CorpusConfig};
use vliw_machine::Machine;
use vliw_partition::{partition_schedule, PartitionOptions, PartitionResult};
use vliw_qrf::insert_copies;
use vliw_unroll::{unroll_for_machine, DEFAULT_MAX_FACTOR};

/// Ceiling on the summed `attempts` of the corpus at 5 and 6 clusters: the
/// count the single II loop makes.  Raise it only with a measured reason.
const ATTEMPT_CEILING: u32 = 274;

/// `(loop index, clusters, result)` for every loop of the corpus at 5 and 6
/// clusters.
fn corpus_results() -> Vec<(usize, usize, PartitionResult)> {
    let corpus = generate_corpus(&CorpusConfig::small(32, 386));
    let mut out = Vec::new();
    for clusters in [5, 6] {
        let machine = Machine::paper_clustered(clusters, Default::default());
        for (i, lp) in corpus.iter().enumerate() {
            let unrolled = unroll_for_machine(lp, &machine, DEFAULT_MAX_FACTOR);
            let body = insert_copies(&unrolled.ddg, machine.latencies()).ddg;
            let r = partition_schedule(&body, &machine, PartitionOptions::default())
                .unwrap_or_else(|e| panic!("loop {i} on {clusters} clusters: {e}"));
            out.push((i, clusters, r));
        }
    }
    out
}

#[test]
fn no_search_probes_an_ii_above_its_result() {
    for (i, clusters, r) in corpus_results() {
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
    let total: u32 = corpus_results().iter().map(|(_, _, r)| r.attempts).sum();
    assert!(total <= ATTEMPT_CEILING, "{total} attempts, ceiling {ATTEMPT_CEILING}");
}
