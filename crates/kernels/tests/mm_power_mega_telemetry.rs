//! Telemetry of the class-plan forms. Every `mm_mega`/`power_mega`
//! call reports exactly one aggregated simulation — its subclasses,
//! its represented ranks, and the p2p and collective ops the per-rank
//! engines would execute — or, on an endpoint-priced network, exactly
//! one `unclassed-network` fallback and nothing else. The counters are
//! process-global, so this check lives in its own test binary with a
//! single test — no concurrent test can move them between the
//! snapshots.

use hetsim_cluster::classed::ClassedCluster;
use hetsim_cluster::network::{JitteredNetwork, MpichEthernet};
use hetsim_mpi::telemetry::{snapshot, EngineTelemetry};
use kernels::{mm_mega, power_mega, MegaOutcome};

/// The counters a mega cell moves, as deltas between two snapshots.
fn moved(before: &EngineTelemetry, after: &EngineTelemetry) -> [u64; 9] {
    let unclassed =
        |t: &EngineTelemetry| t.fallback_reasons.get("unclassed-network").copied().unwrap_or(0);
    let others = |t: &EngineTelemetry| t.fallback_reasons.values().sum::<u64>() - unclassed(t);
    [
        after.aggregated_sims - before.aggregated_sims,
        after.aggregated_classes - before.aggregated_classes,
        after.aggregated_ranks - before.aggregated_ranks,
        after.ranks_simulated - before.ranks_simulated,
        after.classes_simulated - before.classes_simulated,
        after.p2p_events - before.p2p_events,
        after.collective_events - before.collective_events,
        unclassed(after) - unclassed(before),
        others(after) - others(before),
    ]
}

/// One aggregated simulation of `out`: a root scatter (a send/recv pair
/// per non-root rank) and `collectives` per-rank collective ops.
fn one_sim(out: &MegaOutcome, collectives: u64) -> [u64; 9] {
    let (classes, ranks) = (out.classes as u64, out.ranks);
    [1, classes, ranks, ranks, classes, 2 * (ranks - 1), collectives * ranks, 0, 0]
}

/// One `unclassed-network` fallback and no other counter moved.
const ONE_FALLBACK: [u64; 9] = [0, 0, 0, 0, 0, 0, 0, 1, 0];

#[test]
fn each_call_reports_one_simulation_or_one_typed_fallback() {
    let mpich = MpichEthernet::new(0.30e-3, 1.0e8);
    let jittered = JitteredNetwork::new(mpich, 0.1, 7);
    for cluster in [
        ClassedCluster::heet(1, 1, 50.0, 1.0),
        ClassedCluster::heet(85, 8, 45.0, 2.4),
        ClassedCluster::heet_zipf(33, 5, 50.0, 3.0),
    ] {
        let label = &cluster.label;
        for n in [1usize, 17, 64] {
            // MM: scatter, one broadcast, one gather.
            let before = snapshot();
            let out = mm_mega(&cluster, &mpich, n).expect("classed network");
            assert_eq!(moved(&before, &snapshot()), one_sim(&out, 2), "mm {label} n={n}");
            assert_eq!(out.ranks as usize, cluster.size());

            // Power: scatter, then a gather and a broadcast per sweep.
            for iters in [0usize, 1, 3] {
                let before = snapshot();
                let out = power_mega(&cluster, &mpich, n, iters).expect("classed network");
                let expected = one_sim(&out, 2 * iters as u64);
                assert_eq!(moved(&before, &snapshot()), expected, "power {label} n={n}");
            }

            let before = snapshot();
            assert!(mm_mega(&cluster, &jittered, n).is_err());
            assert_eq!(moved(&before, &snapshot()), ONE_FALLBACK, "mm {label} n={n}");
            let before = snapshot();
            assert!(power_mega(&cluster, &jittered, n, 2).is_err());
            assert_eq!(moved(&before, &snapshot()), ONE_FALLBACK, "power {label} n={n}");
        }
    }
}
