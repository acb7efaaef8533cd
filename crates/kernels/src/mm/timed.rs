//! Timing-mode parallel MM: the HoHe protocol with size-only messages
//! and charged (not executed) arithmetic. See [`crate::ge::timed`] for
//! why this is timing-exact and how the two engines relate.

use crate::ge::TimingOutcome;
use crate::recover::CleanRecording;
use hetpart::{BlockDistribution, Distribution};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::FaultPlan;
use hetsim_cluster::network::NetworkModel;
use hetsim_mpi::trace::RankTrace;
use hetsim_mpi::{run_spmd_fast, SpmdTimer, Tag};

/// Runs the MM communication/computation skeleton at problem size `n`
/// with the standard speed-proportional block distribution.
pub fn mm_parallel_timed<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
) -> TimingOutcome {
    let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
    let dist = BlockDistribution::proportional(n, &speeds);
    mm_parallel_timed_with(cluster, network, n, &dist)
}

/// Runs the MM skeleton with an explicit block distribution — the hook
/// the distribution-strategy ablation uses (e.g. equal blocks on a
/// heterogeneous cluster).
///
/// # Panics
/// Panics when the distribution's shape does not match `n` and the
/// cluster size.
pub fn mm_parallel_timed_with<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    dist: &BlockDistribution,
) -> TimingOutcome {
    assert_eq!(dist.n(), n, "distribution covers a different problem size");
    assert_eq!(dist.p(), cluster.size(), "distribution has a different rank count");
    if hetsim_mpi::analytic_enabled() {
        return crate::analytic::mm_closed_form(cluster, network, n, dist);
    }
    let outcome = run_spmd_fast(cluster, network, |t| mm_timed_body(t, dist, n));
    TimingOutcome::from_spmd(outcome)
}

/// [`mm_parallel_timed`] with per-rank operation tracing, for the
/// overhead-decomposition and observability passes.
pub fn mm_parallel_timed_traced<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
) -> (TimingOutcome, Vec<RankTrace>) {
    CleanRecording::mm(cluster, n).traced(network, None)
}

/// [`mm_parallel_timed`] under a deterministic [`FaultPlan`] (see
/// [`crate::ge::ge_parallel_timed_faulted`] for semantics): a one-cell
/// [`CleanRecording`].
pub fn mm_parallel_timed_faulted<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    n: usize,
) -> TimingOutcome {
    CleanRecording::mm(cluster, n).faulted(network, plan)
}

/// [`mm_parallel_timed_faulted`] with per-rank tracing.
pub fn mm_parallel_timed_faulted_traced<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    n: usize,
) -> (TimingOutcome, Vec<RankTrace>) {
    CleanRecording::mm(cluster, n).traced(network, Some(plan))
}

/// The MM (HoHe) protocol skeleton as a generic [`SpmdTimer`] body —
/// the single source of truth the engines, the threaded oracle, and
/// the closed form ([`crate::analytic::mm_closed_form`]) are pinned to.
pub fn mm_timed_body<T: SpmdTimer>(rank: &mut T, dist: &BlockDistribution, n: usize) {
    let me = rank.rank();
    let p = rank.size();
    let my_range = dist.range_of(me);

    // A-block distribution.
    if me == 0 {
        for peer in 1..p {
            let r = dist.range_of(peer);
            rank.send_count(peer, Tag::DATA, r.len() * n);
        }
    } else {
        rank.recv_count(0, Tag::DATA, my_range.len() * n);
    }

    // B broadcast.
    rank.broadcast_count(0, n * n);

    // Local multiply: charged, not executed.
    let rows = my_range.len();
    let flops = (2 * rows * n * n).saturating_sub(rows * n) as f64;
    rank.compute_flops(flops);

    // C collection.
    rank.gather_count(0, rows * n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::mm::mm_parallel;
    use hetsim_cluster::network::SharedEthernet;
    use hetsim_cluster::NodeSpec;
    use hetsim_mpi::{run_spmd, run_spmd_faulted};

    fn het3() -> ClusterSpec {
        ClusterSpec::new(
            "het3",
            vec![
                NodeSpec::synthetic("a", 45.0),
                NodeSpec::synthetic("b", 50.0),
                NodeSpec::synthetic("c", 110.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn timed_matches_real_timings() {
        let cluster = het3();
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        for n in [4usize, 15, 33] {
            let a = Matrix::random(n, n, 1);
            let b = Matrix::random(n, n, 2);
            let real = mm_parallel(&cluster, &net, &a, &b);
            let timed = mm_parallel_timed(&cluster, &net, n);
            assert_eq!(timed.makespan, real.makespan, "makespan mismatch at n = {n}");
            assert_eq!(timed.times, real.times, "per-rank clocks mismatch at n = {n}");
            assert_eq!(timed.compute_times, real.compute_times, "compute time mismatch at n = {n}");
            assert_eq!(timed.total_overhead, real.total_overhead, "overhead mismatch at n = {n}");
        }
    }

    #[test]
    fn fast_matches_threaded() {
        let cluster = het3();
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        for n in [4usize, 15, 33] {
            let speeds: Vec<f64> =
                cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
            let dist = BlockDistribution::proportional(n, &speeds);
            let fast = mm_parallel_timed(&cluster, &net, n);
            let threaded = TimingOutcome::from_spmd(run_spmd(&cluster, &net, |rank| {
                mm_timed_body(rank, &dist, n)
            }));
            assert_eq!(fast, threaded, "engine mismatch at n = {n}");
        }
    }

    #[test]
    fn fast_matches_threaded_under_faults() {
        let cluster = het3();
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        let plan = FaultPlan::new(21).with_link_drops(500).with_straggler(0, 0.6);
        let n = 48usize;
        let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
        let dist = BlockDistribution::proportional(n, &speeds);
        let fast = mm_parallel_timed_faulted(&cluster, &net, &plan, n);
        let threaded = TimingOutcome::from_spmd(run_spmd_faulted(&cluster, &net, &plan, |rank| {
            mm_timed_body(rank, &dist, n)
        }));
        assert_eq!(fast, threaded);
    }

    #[test]
    fn timed_is_deterministic() {
        let cluster = ClusterSpec::homogeneous(3, 50.0);
        let net = SharedEthernet::new(1e-4, 1.25e7);
        assert_eq!(mm_parallel_timed(&cluster, &net, 48), mm_parallel_timed(&cluster, &net, 48));
    }

    #[test]
    fn faulted_with_empty_plan_is_bit_equal_to_baseline() {
        let cluster = ClusterSpec::homogeneous(3, 50.0);
        let net = SharedEthernet::new(1e-4, 1.25e7);
        let plan = FaultPlan::new(5);
        assert_eq!(
            mm_parallel_timed(&cluster, &net, 48),
            mm_parallel_timed_faulted(&cluster, &net, &plan, 48)
        );
    }

    #[test]
    fn drops_slow_mm_makespan_and_trace_retries() {
        use hetsim_mpi::trace::OpKind;
        let cluster = ClusterSpec::homogeneous(3, 50.0);
        let net = SharedEthernet::new(1e-4, 1.25e7);
        let plan = FaultPlan::new(21).with_link_drops(500);
        let base = mm_parallel_timed(&cluster, &net, 48);
        let (faulted, traces) = mm_parallel_timed_faulted_traced(&cluster, &net, &plan, 48);
        assert!(faulted.makespan > base.makespan);
        let retries: usize = traces
            .iter()
            .flat_map(|t| t.records.iter())
            .filter(|r| r.kind == OpKind::Retry)
            .count();
        assert!(retries > 0, "50% drop rate must charge retries");
    }
}
