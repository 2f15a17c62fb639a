//! Property-based tests of the partitioned schedules over randomly generated
//! loops.
//!
//! The hand-written kernels already pin the ring-adjacency invariant; these
//! tests extend the check to the synthetic `loopgen` corpus, driving both
//! schedulers through the shared placement engine (`vliw_sched::core`): every
//! schedule must validate against the machine, every value of a partitioned
//! schedule must flow only between ring-adjacent clusters, and partitioning
//! must never be worse than its own single-cluster fallback.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use vliw_repro::vliw_core::ddg::DepKind;
use vliw_repro::vliw_core::loopgen::generator::generate_loop;
use vliw_repro::vliw_core::loopgen::CorpusConfig;
use vliw_repro::vliw_core::qrf::insert_copies;
use vliw_repro::vliw_core::sched::{modulo_schedule, ImsOptions};
use vliw_repro::vliw_core::{
    partition_schedule, ClusterId, LatencyModel, Machine, PartitionOptions,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partitioned schedules of random loops respect the ring: every flow edge
    /// connects operations in the same or in adjacent clusters, and the
    /// schedule passes full validation (dependences and resources).
    #[test]
    fn partitioned_schedules_of_random_loops_respect_the_ring(
        seed in 0u64..2000,
        n_clusters in 2usize..7,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let lp = generate_loop(&CorpusConfig::small(1, seed), &mut rng, 0);
        let lat = LatencyModel::default();
        let machine = Machine::paper_clustered(n_clusters, lat);
        let body = insert_copies(&lp.ddg, &lat).ddg;
        let r = partition_schedule(&body, &machine, PartitionOptions::default())
            .expect("corpus loops are schedulable on clustered machines");
        prop_assert!(r.schedule.validate(&body, &machine).is_ok());
        prop_assert!(r.schedule.ii >= 1);
        for e in body.edges() {
            if e.kind != DepKind::Flow {
                continue;
            }
            let cs = r.schedule.cluster_of(&machine, e.src);
            let cd = r.schedule.cluster_of(&machine, e.dst);
            prop_assert!(
                machine.clusters_communicate(cs, cd),
                "value flows between non-adjacent clusters {} -> {} at II {}",
                cs, cd, r.schedule.ii
            );
        }
    }

    /// Partitioning is never worse than its own single-cluster fallback: the
    /// default search's II is at most the collapse-only II, and every result
    /// marked `collapsed` sits wholly in cluster 0.
    #[test]
    fn partitioning_never_loses_to_its_single_cluster_fallback(
        seed in 0u64..2000,
        n_clusters in 2usize..7,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(11));
        let lp = generate_loop(&CorpusConfig::small(1, seed), &mut rng, 0);
        let lat = LatencyModel::default();
        let machine = Machine::paper_clustered(n_clusters, lat);
        let body = insert_copies(&lp.ddg, &lat).ddg;
        let full = partition_schedule(&body, &machine, PartitionOptions::default())
            .expect("corpus loops are schedulable on clustered machines");
        let collapse_only = PartitionOptions { max_ii: Some(0), ..PartitionOptions::default() };
        let collapse = partition_schedule(&body, &machine, collapse_only)
            .expect("corpus loops collapse into cluster 0");
        prop_assert!(collapse.collapsed);
        prop_assert!(
            full.schedule.ii <= collapse.schedule.ii,
            "partitioned II {} above the collapse II {}",
            full.schedule.ii, collapse.schedule.ii
        );
        for r in [&full, &collapse] {
            if r.collapsed {
                for op in body.op_ids() {
                    prop_assert_eq!(r.schedule.cluster_of(&machine, op), ClusterId(0));
                }
            }
        }
    }

    /// Plain IMS through the same placement engine: schedules of random loops
    /// validate and respect the MII lower bound on machines of varying width.
    #[test]
    fn ims_schedules_of_random_loops_validate(
        seed in 0u64..2000,
        fus in 3usize..13,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(17).wrapping_add(3));
        let lp = generate_loop(&CorpusConfig::small(1, seed), &mut rng, 0);
        let lat = LatencyModel::default();
        let machine = Machine::single_cluster(fus, 2, 1024, lat);
        let body = insert_copies(&lp.ddg, &lat).ddg;
        let r = modulo_schedule(&body, &machine, ImsOptions::default())
            .expect("corpus loops are schedulable");
        prop_assert!(r.schedule.validate(&body, &machine).is_ok());
        prop_assert!(r.schedule.ii >= r.mii.max(1));
    }
}
