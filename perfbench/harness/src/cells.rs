//! Cell inputs shared by the checks, the residuals and the layer drive,
//! built the way the experiment modules build them.

use bench_tables::params::{MegaPreset, MEGA_BASE_MFLOPS, MEGA_MAX_CLASSES, MEGA_SPREAD};
use hetsim_cluster::classed::ClassedCluster;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::FaultPlan;

/// Per-rank marked speeds (Mflop/s), the distributions' weights.
pub fn speeds_mflops(cluster: &ClusterSpec) -> Vec<f64> {
    cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect()
}

/// The HEET machine of one X4 preset.
pub fn mega_cluster(preset: MegaPreset) -> ClassedCluster {
    if preset.zipf {
        ClassedCluster::heet_zipf(preset.ranks, MEGA_MAX_CLASSES, MEGA_BASE_MFLOPS, MEGA_SPREAD)
    } else {
        ClassedCluster::heet(preset.ranks, MEGA_MAX_CLASSES, MEGA_BASE_MFLOPS, MEGA_SPREAD)
    }
}

/// Resolves declared deaths the way the fault sweep does: survivors run
/// under the re-indexed plan.
pub fn survivors(cluster: ClusterSpec, plan: FaultPlan) -> (ClusterSpec, FaultPlan) {
    if plan.deaths().is_empty() {
        return (cluster, plan);
    }
    let p = cluster.size();
    let alive = plan.surviving_cluster(&cluster).expect("not every rank dies");
    (alive, plan.for_survivors(p))
}
