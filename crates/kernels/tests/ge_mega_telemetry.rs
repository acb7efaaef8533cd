//! Telemetry of a batched GE grid. `ge_mega_many` shares one cyclic
//! deal across a grid, but must report exactly what the same sizes
//! priced one by one report: one aggregated run per size, with its
//! classes and represented ranks. The counters are process-global, so
//! this check lives in its own test binary with a single test — no
//! concurrent test can move them between the snapshots.

use hetsim_cluster::classed::ClassedCluster;
use hetsim_cluster::network::{JitteredNetwork, MpichEthernet};
use hetsim_mpi::telemetry::{snapshot, EngineTelemetry};
use kernels::{ge_mega, ge_mega_many};

/// The counters a GE cell moves, as deltas between two snapshots.
fn moved(before: &EngineTelemetry, after: &EngineTelemetry) -> [u64; 8] {
    let fallbacks = |t: &EngineTelemetry| t.fallback_reasons.values().sum::<u64>();
    [
        after.aggregated_sims - before.aggregated_sims,
        after.aggregated_classes - before.aggregated_classes,
        after.aggregated_ranks - before.aggregated_ranks,
        after.ranks_simulated - before.ranks_simulated,
        after.classes_simulated - before.classes_simulated,
        after.p2p_events - before.p2p_events,
        after.collective_events - before.collective_events,
        fallbacks(after) - fallbacks(before),
    ]
}

#[test]
fn a_grid_reports_what_its_sizes_report_one_by_one() {
    let sizes = [129usize, 2, 17, 0, 64, 17, 1, 3, 2];
    let mpich = MpichEthernet::new(0.30e-3, 1.0e8);
    let jittered = JitteredNetwork::new(mpich, 0.1, 7);
    for cluster in
        [ClassedCluster::heet(85, 8, 45.0, 2.4), ClassedCluster::heet_zipf(33, 5, 50.0, 3.0)]
    {
        let start = snapshot();
        for &n in &sizes {
            ge_mega(&cluster, &mpich, n).expect("classed network");
        }
        let one_by_one = snapshot();
        assert_eq!(ge_mega_many(&cluster, &mpich, &sizes).len(), sizes.len());
        let batched = snapshot();
        let alone = moved(&start, &one_by_one);
        assert_eq!(alone[0], sizes.len() as u64, "one aggregated run per size");
        assert_eq!(moved(&one_by_one, &batched), alone, "{}", cluster.label);

        // Fallbacks are per size too.
        for &n in &sizes {
            assert!(ge_mega(&cluster, &jittered, n).is_err());
        }
        let rejected_alone = snapshot();
        assert!(ge_mega_many(&cluster, &jittered, &sizes).iter().all(Result::is_err));
        let rejected_batched = snapshot();
        let alone = moved(&batched, &rejected_alone);
        assert_eq!(alone[7], sizes.len() as u64, "one fallback per size");
        assert_eq!(moved(&rejected_alone, &rejected_batched), alone, "{}", cluster.label);
    }
}
