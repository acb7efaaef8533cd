//! Mid-run failure recovery scaffolding shared by the recoverable
//! kernel variants (DESIGN.md §12).
//!
//! The plan's MTBF stream yields seeded per-rank death *times*; the
//! kernel drivers here map the earliest one onto an **iteration index**
//! through a pure work-proportional progress estimate
//! ([`death_iteration`]) — never through simulated clocks. That keeps
//! recorded op streams clock-independent (a body may not consult the
//! virtual clock mid-run), so the threaded oracle, the event-driven
//! scheduler, and every `--jobs` worker price the identical program and
//! the recovery sweep stays byte-stable. The same estimated clock
//! converts a checkpoint *interval* into an iteration stride
//! ([`checkpoint_stride`]).
//!
//! Checkpoint/restart never changes a kernel's communication: its
//! checkpoint, detector-timeout and lost-work charges are local ops at
//! iteration heads. So a checkpoint/restart run is the kernel's *clean*
//! recording plus those charges spliced in ([`LocalInserts`]). Runtime
//! faults, likewise, change only how the engine charges the recorded
//! ops. So one [`CleanRecording`] per `(kernel, cluster, n)` prices
//! every fault plan and checkpoint policy of that cell — the `--faults`
//! severities, the recovery sweep's clean and checkpoint/restart rows,
//! the Daly campaign's whole seed × interval grid — from a single
//! record phase.

use crate::ge::TimingOutcome;
use crate::workload::{ge_work, mm_work};
use hetpart::{BlockDistribution, CyclicDistribution};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::{checkpoint_cost_secs, FaultPlan, DETECT_TIMEOUT_SECS};
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::trace::RankTrace;
use hetsim_mpi::{record_spmd, LocalInserts, PriceSpec, RecordTimer, SpmdOutcome, SpmdProgram};
use std::sync::OnceLock;

/// The plan's earliest sampled death, resolved onto the driver's
/// iteration axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeathEvent {
    /// The rank whose exponential draw fires first (ties break low).
    pub rank: usize,
    /// The sampled death time on the MTBF stream's clock.
    pub time: SimTime,
    /// The kernel iteration the death interrupts, on the
    /// work-proportional progress estimate.
    pub iteration: usize,
}

/// Recovery overhead decomposition, summed over ranks in virtual
/// seconds — the same quantities the runtime charges as `Checkpoint`,
/// `Detect`, `LostWork`, and `Rebalance` spans, recomputed in closed
/// form by the drivers for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryOverhead {
    /// Checkpoint I/O tax: every coordinated checkpoint, every rank.
    pub checkpoint_secs: f64,
    /// Failure-detector timeouts charged when a death fires.
    pub detect_secs: f64,
    /// Work rolled back and replayed (checkpoint/restart) or recomputed
    /// for the dead rank (shrink-rebalance).
    pub lost_work_secs: f64,
    /// Repartition traffic absorbed by the survivors.
    pub rebalance_secs: f64,
}

impl RecoveryOverhead {
    /// Sum of all four components.
    pub fn total_secs(&self) -> f64 {
        self.checkpoint_secs + self.detect_secs + self.lost_work_secs + self.rebalance_secs
    }
}

/// Outcome of one recoverable timed-kernel run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// Virtual timings, recovery charges included.
    pub timing: TimingOutcome,
    /// Closed-form recovery overhead decomposition.
    pub overhead: RecoveryOverhead,
    /// The death the run recovered from, if the MTBF stream fired one
    /// inside the estimated run.
    pub death: Option<DeathEvent>,
}

/// Work-proportional runtime estimate: `total_flops` over the cluster's
/// aggregate marked speed. This is the *progress clock* recovery
/// schedules are expressed on — deliberately not the simulated clock,
/// which a recorded body may not consult.
pub fn estimated_run_secs(cluster: &ClusterSpec, total_flops: f64) -> f64 {
    let total_speed: f64 = cluster.nodes().iter().map(|nd| nd.marked_speed_flops()).sum();
    total_flops / total_speed
}

/// Resolves the plan's earliest sampled death onto an iteration index
/// of a kernel with `iters` uniform-progress iterations and
/// `total_flops` aggregate work. `None` when the plan has no MTBF
/// stream, the kernel has no iterations, or the draw lands past the
/// estimated completion (the run finishes first).
pub fn death_iteration(
    plan: &FaultPlan,
    cluster: &ClusterSpec,
    iters: usize,
    total_flops: f64,
) -> Option<DeathEvent> {
    if iters == 0 {
        return None;
    }
    let (rank, time) = plan.first_sampled_death(cluster.size())?;
    let frac = time.as_secs() / estimated_run_secs(cluster, total_flops);
    if frac >= 1.0 {
        return None;
    }
    let iteration = ((frac * iters as f64) as usize).min(iters - 1);
    Some(DeathEvent { rank, time, iteration })
}

/// Converts a checkpoint interval in virtual seconds into an iteration
/// stride on the same work-proportional progress clock; at least 1.
///
/// # Panics
/// Panics unless `interval_secs` is finite and `> 0`.
pub fn checkpoint_stride(
    interval_secs: f64,
    cluster: &ClusterSpec,
    iters: usize,
    total_flops: f64,
) -> usize {
    assert!(
        interval_secs.is_finite() && interval_secs > 0.0,
        "checkpoint interval must be finite and > 0"
    );
    if iters == 0 {
        return 1;
    }
    let per_iter = estimated_run_secs(cluster, total_flops) / iters as f64;
    ((interval_secs / per_iter) as usize).max(1)
}

/// Speed-proportional shares of `lost_flops` across the survivors:
/// each survivor replays its share at its own speed, so the replay
/// finishes simultaneously everywhere.
pub(crate) fn survivor_shares(lost_flops: f64, survivor_speeds: &[f64]) -> Vec<f64> {
    let total: f64 = survivor_speeds.iter().sum();
    survivor_speeds.iter().map(|&s| lost_flops * s / total).collect()
}

/// Whether `plan` injects anything the *runtime* must price per-op
/// (degradation windows or lossy links). An MTBF stream alone does not
/// count: it is resolved by the driver, so pure checkpoint/restart runs
/// price without a plan. Either way an untraced recovery run prices on
/// the lockstep evaluator, which absorbs the recovery ops into its
/// local runs; only the telemetry mode of traced runs differs.
pub(crate) fn runtime_faults_active(plan: &FaultPlan, p: usize) -> bool {
    plan.drop_per_mille() > 0 || (0..p).any(|r| plan.windows_for(r).is_some())
}

/// Prices a recorded recovery program with `inserts` spliced in,
/// passing the plan to the engine only when it carries runtime faults
/// (see [`runtime_faults_active`]).
pub(crate) fn price_recoverable<N: NetworkModel>(
    program: &SpmdProgram<()>,
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    tracing: bool,
    inserts: Option<&LocalInserts>,
) -> SpmdOutcome<()> {
    let faults = runtime_faults_active(plan, cluster.size()).then_some(plan);
    program.price(cluster, network, PriceSpec { faults, tracing, inserts })
}

/// Records `body` and prices it (see [`price_recoverable`]).
pub(crate) fn run_recoverable<N, F>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    tracing: bool,
    body: F,
) -> SpmdOutcome<()>
where
    N: NetworkModel,
    F: Fn(&mut RecordTimer),
{
    price_recoverable(&record_spmd(cluster, body), cluster, network, plan, tracing, None)
}

/// The distribution a [`CleanRecording`] was recorded under, which
/// names its kernel.
enum CleanShape {
    /// GE: the elimination skeleton under the fine cyclic deal. Its
    /// checkpoint/restart runs splice their charges into the clean
    /// program itself.
    Ge(CyclicDistribution),
    /// MM: the baseline multiply under the proportional block split.
    /// Checkpointed runs need the multiply split into column chunks (a
    /// different float-op sequence), so that program is recorded on
    /// first use and then shared like the clean one.
    Mm { dist: BlockDistribution, chunked: OnceLock<SpmdProgram<()>> },
}

/// The per-rank checkpoint/restart charges of one run on a
/// [`CleanRecording`], spliced in as [`LocalInserts`].
pub(crate) struct CheckpointCharges {
    /// Bytes each rank writes per coordinated checkpoint.
    pub(crate) ckpt_bytes: Vec<u64>,
    /// Flops each rank replays after the death (all zero without one).
    pub(crate) lost_flops: Vec<f64>,
    /// The checkpoint, detect and lost-work ops at their positions.
    pub(crate) inserts: LocalInserts,
}

/// A kernel's clean program, recorded once for one `(cluster, n)` and
/// priced under any number of fault plans and checkpoint policies —
/// the record-once type of GE and MM (DESIGN.md §12).
///
/// A fault plan's runtime faults change only how the engine charges
/// the program's ops, and checkpoint/restart only splices local
/// checkpoint, detect and lost-work charges into it, so neither needs
/// a recording of its own. Every pricing is bit-identical to the
/// per-cell entry point it replaces: [`faulted`](Self::faulted) to
/// [`crate::ge::ge_parallel_timed_faulted`] /
/// [`crate::mm::mm_parallel_timed_faulted`], and
/// [`recover`](Self::recover) to the checkpoint/restart policy (and
/// the death-free runs of either policy) of
/// [`crate::ge::ge_parallel_timed_recoverable`] /
/// [`crate::mm::mm_parallel_timed_recoverable`].
pub struct CleanRecording {
    cluster: ClusterSpec,
    n: usize,
    shape: CleanShape,
    program: SpmdProgram<()>,
}

impl CleanRecording {
    /// Records GE's clean elimination skeleton at size `n`.
    pub fn ge(cluster: &ClusterSpec, n: usize) -> CleanRecording {
        let dist = CyclicDistribution::fine(n, &speeds_mflops(cluster));
        let program = record_spmd(cluster, |t| crate::ge::ge_timed_body(t, &dist, n));
        CleanRecording { cluster: cluster.clone(), n, shape: CleanShape::Ge(dist), program }
    }

    /// Records MM's clean multiply at size `n`.
    pub fn mm(cluster: &ClusterSpec, n: usize) -> CleanRecording {
        let dist = BlockDistribution::proportional(n, &speeds_mflops(cluster));
        let program = record_spmd(cluster, |t| crate::mm::mm_timed_body(t, &dist, n));
        let shape = CleanShape::Mm { dist, chunked: OnceLock::new() };
        CleanRecording { cluster: cluster.clone(), n, shape, program }
    }

    /// Prices the clean program under `plan`'s runtime faults
    /// (degradation windows, lossy links); its MTBF stream is not
    /// consulted. Deaths must already be resolved: record on the
    /// surviving cluster.
    pub fn faulted<N: NetworkModel>(&self, network: &N, plan: &FaultPlan) -> TimingOutcome {
        let spec = PriceSpec { faults: Some(plan), tracing: false, inserts: None };
        TimingOutcome::from_spmd(self.program.price(&self.cluster, network, spec))
    }

    /// Prices one run under `plan`'s MTBF stream and runtime faults,
    /// with a coordinated checkpoint every `checkpoint_secs` when one
    /// is given. A death rolls every rank back to the last checkpoint
    /// (to the start of the run without one) and replays the lost
    /// work on the full cluster. A run with neither a death nor a
    /// checkpoint is the clean program, bit for bit.
    ///
    /// # Panics
    /// Panics unless a given `checkpoint_secs` is finite and `> 0`.
    pub fn recover<N: NetworkModel>(
        &self,
        network: &N,
        plan: &FaultPlan,
        checkpoint_secs: Option<f64>,
    ) -> RecoveryOutcome {
        self.price(network, plan, checkpoint_secs, false).0
    }

    /// [`recover`](Self::recover), optionally traced.
    pub(crate) fn price<N: NetworkModel>(
        &self,
        network: &N,
        plan: &FaultPlan,
        checkpoint_secs: Option<f64>,
        tracing: bool,
    ) -> (RecoveryOutcome, Vec<RankTrace>) {
        let (cluster, n, p) = (&self.cluster, self.n, self.cluster.size());
        let (iters, total_flops) = match self.shape {
            CleanShape::Ge(_) => (n.saturating_sub(1), ge_work(n)),
            CleanShape::Mm { .. } => (n, mm_work(n)),
        };
        let death = death_iteration(plan, cluster, iters, total_flops);
        let stride = checkpoint_secs.map(|s| checkpoint_stride(s, cluster, iters, total_flops));
        // A stride of `iters` or more places no checkpoint inside the run.
        if death.is_none() && stride.is_none_or(|s| s >= iters) {
            let mut outcome =
                price_recoverable(&self.program, cluster, network, plan, tracing, None);
            let traces = std::mem::take(&mut outcome.traces);
            let timing = TimingOutcome::from_spmd(outcome);
            return (
                RecoveryOutcome { timing, overhead: RecoveryOverhead::default(), death: None },
                traces,
            );
        }
        // Iterations rolled back by the death: from the last checkpoint
        // at or before it.
        let lost = death.map(|ev| stride.map_or(0, |s| (ev.iteration / s) * s)..ev.iteration);
        let (program, charges) = match &self.shape {
            CleanShape::Ge(dist) => {
                (&self.program, crate::ge::recover::checkpoint_charges(dist, n, stride, lost))
            }
            CleanShape::Mm { dist, chunked } => (
                chunked.get_or_init(|| crate::mm::recover::record_chunked(cluster, dist, n)),
                crate::mm::recover::checkpoint_charges(dist, n, stride, lost),
            ),
        };
        let CheckpointCharges { ckpt_bytes, lost_flops, inserts } = charges;
        let mut outcome =
            price_recoverable(program, cluster, network, plan, tracing, Some(&inserts));
        let traces = std::mem::take(&mut outcome.traces);

        let speed_flops = cluster.nodes().iter().map(|nd| nd.marked_speed_flops());
        let num_ckpts = match stride {
            Some(s) if iters > 1 => (iters - 1) / s,
            _ => 0,
        };
        let overhead = RecoveryOverhead {
            checkpoint_secs: num_ckpts as f64
                * ckpt_bytes.iter().map(|&b| checkpoint_cost_secs(b)).sum::<f64>(),
            detect_secs: if death.is_some() { p as f64 * DETECT_TIMEOUT_SECS } else { 0.0 },
            lost_work_secs: lost_flops.iter().zip(speed_flops).map(|(&l, s)| l / s).sum(),
            rebalance_secs: 0.0,
        };
        (RecoveryOutcome { timing: TimingOutcome::from_spmd(outcome), overhead, death }, traces)
    }
}

/// Per-rank marked speeds in Mflop/s, the distributions' input.
pub(crate) fn speeds_mflops(cluster: &ClusterSpec) -> Vec<f64> {
    cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect()
}

/// Composes a shrink-rebalance run's two segments into one
/// [`TimingOutcome`]: survivors resume from the segment-A makespan (the
/// whole machine rendezvouses at the death boundary), the dead rank
/// stops at its segment-A clock, and overhead is the sum of both
/// segments' communication time.
pub(crate) fn compose_segments(
    a: &SpmdOutcome<()>,
    b: &SpmdOutcome<()>,
    survivors: &[usize],
) -> TimingOutcome {
    let shift = a.makespan();
    let mut times = a.times.clone();
    let mut compute_times = a.compute_times.clone();
    for (b_idx, &orig) in survivors.iter().enumerate() {
        times[orig] = shift + b.times[b_idx];
        compute_times[orig] += b.compute_times[b_idx];
    }
    TimingOutcome {
        makespan: shift + b.makespan(),
        total_overhead: a.total_overhead() + b.total_overhead(),
        times,
        compute_times,
    }
}

/// Merges segment-B traces into the segment-A traces, offsetting every
/// span by the segment-A makespan so the composed timeline is
/// monotone per rank.
pub(crate) fn compose_traces(
    mut a_traces: Vec<hetsim_mpi::trace::RankTrace>,
    b_traces: Vec<hetsim_mpi::trace::RankTrace>,
    shift: SimTime,
    survivors: &[usize],
) -> Vec<hetsim_mpi::trace::RankTrace> {
    for (b_idx, &orig) in survivors.iter().enumerate() {
        for rec in &b_traces[b_idx].records {
            let mut shifted = *rec;
            shifted.start += shift;
            shifted.end += shift;
            a_traces[orig].records.push(shifted);
        }
    }
    a_traces
}

#[cfg(test)]
mod tests {
    use super::*;

    fn het3() -> ClusterSpec {
        ClusterSpec::new(
            "het3",
            vec![
                hetsim_cluster::NodeSpec::synthetic("a", 90.0),
                hetsim_cluster::NodeSpec::synthetic("b", 50.0),
                hetsim_cluster::NodeSpec::synthetic("c", 110.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn death_iteration_is_deterministic_and_inside_the_run() {
        let cluster = het3();
        let plan = FaultPlan::new(42).with_mtbf(10.0);
        let a = death_iteration(&plan, &cluster, 100, 2.5e9);
        let b = death_iteration(&plan, &cluster, 100, 2.5e9);
        assert_eq!(a, b);
        if let Some(ev) = a {
            assert!(ev.rank < 3);
            assert!(ev.iteration < 100);
        }
    }

    #[test]
    fn long_mtbf_outlives_a_short_run() {
        let cluster = het3();
        // Estimated run ~0.004s, MTBF 1e9s: the draw cannot land inside.
        let plan = FaultPlan::new(1).with_mtbf(1e9);
        assert_eq!(death_iteration(&plan, &cluster, 50, 1e6), None);
    }

    #[test]
    fn no_mtbf_means_no_death() {
        let cluster = het3();
        let plan = FaultPlan::new(7);
        assert_eq!(death_iteration(&plan, &cluster, 50, 1e9), None);
    }

    #[test]
    fn stride_tracks_the_interval() {
        let cluster = het3();
        // 250 MFLOPS aggregate → 1e9 flops ≈ 4 s; 100 iterations ≈
        // 0.04 s each; a 0.4 s interval is a stride of 10.
        assert_eq!(checkpoint_stride(0.4, &cluster, 100, 1.0e9), 10);
        // Intervals shorter than one iteration clamp to every iteration.
        assert_eq!(checkpoint_stride(1e-6, &cluster, 100, 1.0e9), 1);
    }

    #[test]
    fn survivor_shares_sum_to_the_loss() {
        let shares = survivor_shares(9.0e6, &[90.0e6, 110.0e6]);
        assert!((shares.iter().sum::<f64>() - 9.0e6).abs() < 1e-3);
        assert!(shares[1] > shares[0]);
    }

    #[test]
    fn mtbf_alone_is_not_a_runtime_fault() {
        let plan = FaultPlan::new(3).with_mtbf(5.0);
        assert!(!runtime_faults_active(&plan, 3));
        let plan = plan.with_straggler(1, 0.5);
        assert!(runtime_faults_active(&plan, 3));
    }
}
