//! Mid-run failure recovery for the iteration-structured kernels,
//! written once for GE and MM (DESIGN.md §12).
//!
//! The plan's MTBF stream yields seeded per-rank death *times*; this
//! module maps the earliest one onto an **iteration index** through a
//! pure work-proportional progress estimate ([`death_iteration`]) —
//! never through simulated clocks. That keeps recorded op streams
//! clock-independent (a body may not consult the virtual clock
//! mid-run), so the threaded oracle, the event-driven scheduler, and
//! every `--jobs` worker price the identical program and the recovery
//! sweep stays byte-stable. The same estimated clock converts a
//! checkpoint *interval* into an iteration stride
//! ([`checkpoint_stride`]).
//!
//! A kernel enters as a `CleanShape`, which supplies only
//! its iteration axis and its protocol: the step count and total work,
//! the bytes of one checkpointed row, each rank's flops over a range of
//! steps, where step `i`'s local charges splice in, and one body that
//! records any `Segment` of the axis. Everything else is written
//! once here:
//!
//! - **Checkpoint/restart** never changes a kernel's communication: its
//!   checkpoint, detector-timeout and lost-work charges are local ops
//!   at step heads. So a checkpoint/restart run is the kernel's *clean*
//!   recording plus those charges spliced in ([`LocalInserts`]).
//!   Runtime faults, likewise, change only how the engine charges the
//!   recorded ops. So one [`CleanRecording`] per `(kernel, cluster, n)`
//!   prices every fault plan and checkpoint policy of that cell — the
//!   `--faults` severities, the recovery sweep's clean and
//!   checkpoint/restart rows, the Daly campaign's whole seed × interval
//!   grid — from a single record phase.
//! - **Shrink-and-rebalance** drops the dead rank (`Shrink`): steps
//!   `[0, k)` run on the full cluster; then the survivors detect the
//!   death, replay the dead rank's work speed-proportionally, absorb
//!   its rows via [`hetpart::rebalance`], and run steps `[k, ..)` plus
//!   the kernel's tail under a fresh deal of the survivor cluster.

use crate::ge::TimingOutcome;
use crate::workload::{ge_work, mm_work};
use hetpart::{repartition_after_deaths, BlockDistribution, CyclicDistribution, Distribution};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::{
    checkpoint_cost_secs, FaultPlan, RecoveryPolicy, DETECT_TIMEOUT_SECS,
    REBALANCE_BANDWIDTH_BYTES_PER_SEC,
};
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::trace::RankTrace;
use hetsim_mpi::{record_spmd, LocalInserts, PriceSpec, SpmdOutcome, SpmdProgram, SpmdTimer};
use std::ops::Range;
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
fn price_recoverable<N: NetworkModel>(
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

/// Splits an outcome into its timing summary and its traces.
fn split_traces(mut outcome: SpmdOutcome<()>) -> (TimingOutcome, Vec<RankTrace>) {
    let traces = std::mem::take(&mut outcome.traces);
    (TimingOutcome::from_spmd(outcome), traces)
}

/// Which stretch of a kernel's iteration axis a body records: the
/// whole run, or one of a shrink-rebalance run's two segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Segment {
    /// The distribution head, every step, and the collection tail.
    Whole,
    /// Segment A on the full cluster: the head and steps `0..k`. The
    /// run is interrupted, so there is no tail.
    Prefix(usize),
    /// Segment B on the survivor cluster: steps `k..` and the tail
    /// (the head ran before the death).
    Resume(usize),
}

impl Segment {
    /// The steps of a `steps`-step axis the segment covers.
    pub(crate) fn steps(self, steps: usize) -> Range<usize> {
        match self {
            Segment::Whole => 0..steps,
            Segment::Prefix(k) => 0..k,
            Segment::Resume(k) => k..steps,
        }
    }

    /// Whether the segment opens with the kernel's distribution head.
    pub(crate) fn head(self) -> bool {
        !matches!(self, Segment::Resume(_))
    }

    /// Whether the segment closes with the kernel's collection tail.
    pub(crate) fn tail(self) -> bool {
        !matches!(self, Segment::Prefix(_))
    }
}

/// A recoverable kernel with the distribution it deals under: every
/// kernel-specific input of the recovery code dispatches here.
pub(crate) enum CleanShape {
    /// GE: the elimination skeleton under the fine cyclic deal; one
    /// step per pivot. Its checkpoint/restart runs splice their charges
    /// into the clean program itself.
    Ge(CyclicDistribution),
    /// MM: the multiply under the proportional block split; one step
    /// per column chunk. Checkpointed runs need the multiply split into
    /// its chunks (a different float-op sequence from the clean
    /// one-block multiply), so that program is recorded on first use
    /// and then shared like the clean one.
    Mm { dist: BlockDistribution, chunked: OnceLock<SpmdProgram<()>> },
}

impl CleanShape {
    /// GE at size `n` dealt over `speeds` (Mflop/s per rank).
    pub(crate) fn ge(n: usize, speeds: &[f64]) -> CleanShape {
        CleanShape::Ge(CyclicDistribution::fine(n, speeds))
    }

    /// MM at size `n` dealt over `speeds` (Mflop/s per rank).
    pub(crate) fn mm(n: usize, speeds: &[f64]) -> CleanShape {
        CleanShape::Mm {
            dist: BlockDistribution::proportional(n, speeds),
            chunked: OnceLock::new(),
        }
    }

    /// The same kernel dealt afresh over `speeds` — the survivors'.
    fn redeal(&self, n: usize, speeds: &[f64]) -> CleanShape {
        match self {
            CleanShape::Ge(_) => CleanShape::ge(n, speeds),
            CleanShape::Mm { .. } => CleanShape::mm(n, speeds),
        }
    }

    /// Steps on the iteration axis, and the total work they carry.
    fn axis(&self, n: usize) -> (usize, f64) {
        match self {
            CleanShape::Ge(_) => (crate::ge::recover::steps(n), ge_work(n)),
            CleanShape::Mm { .. } => (n, mm_work(n)),
        }
    }

    /// Bytes of one checkpointed (or repartitioned) row.
    fn row_bytes(&self, n: usize) -> u64 {
        match self {
            CleanShape::Ge(_) => crate::ge::recover::row_bytes(n),
            CleanShape::Mm { .. } => crate::mm::recover::row_bytes(n),
        }
    }

    /// Rows `rank` owns: its checkpointed state.
    fn rows(&self, rank: usize) -> usize {
        match self {
            CleanShape::Ge(dist) => dist.rows_of(rank).len(),
            CleanShape::Mm { dist, .. } => dist.range_of(rank).len(),
        }
    }

    /// `rank`'s flops over `steps`: the work a restart rolls back, or a
    /// dead rank's work the survivors recompute.
    fn step_flops(&self, rank: usize, n: usize, steps: Range<usize>) -> f64 {
        match self {
            CleanShape::Ge(dist) => crate::ge::recover::step_flops(dist, rank, n, steps),
            CleanShape::Mm { dist, .. } => crate::mm::recover::step_flops(dist, rank, n, steps),
        }
    }

    /// Where step `i`'s local charges splice into the checkpointed
    /// program, as a [`LocalInserts`] `(collective, offset)`.
    fn insert_at(&self, i: usize) -> (u64, usize) {
        match self {
            CleanShape::Ge(_) => crate::ge::recover::insert_at(i),
            CleanShape::Mm { .. } => crate::mm::recover::insert_at(i),
        }
    }

    /// Records `seg` of the kernel's segmentable body: GE's elimination
    /// skeleton, MM's chunked multiply.
    pub(crate) fn body<T: SpmdTimer>(&self, rank: &mut T, n: usize, seg: Segment) {
        match self {
            CleanShape::Ge(dist) => crate::ge::timed::ge_segment_body(rank, dist, n, seg),
            CleanShape::Mm { dist, .. } => crate::mm::recover::mm_chunked_body(rank, dist, n, seg),
        }
    }

    /// The charges a checkpoint/restart run splices into the
    /// checkpointed program: a checkpoint at the head of step `i` when
    /// `i > 0` is a multiple of the stride, then — when a death
    /// interrupts step `lost.end` — the detector timeout and each
    /// rank's replay of the rolled-back steps `lost`. With no death and
    /// no stride inside the run there are none.
    pub(crate) fn checkpoint_charges(
        &self,
        p: usize,
        n: usize,
        stride: Option<usize>,
        lost: Option<Range<usize>>,
    ) -> CheckpointCharges {
        let ckpt_bytes: Vec<u64> =
            (0..p).map(|r| self.rows(r) as u64 * self.row_bytes(n)).collect();
        let lost_flops: Vec<f64> = match &lost {
            Some(range) => (0..p).map(|r| self.step_flops(r, n, range.clone())).collect(),
            None => vec![0.0; p],
        };
        let death_step = lost.map(|range| range.end);
        let mut inserts = LocalInserts::new(p);
        for i in 0..self.axis(n).0 {
            let (collective, offset) = self.insert_at(i);
            if i > 0 && stride.is_some_and(|s| i % s == 0) {
                for (r, &bytes) in ckpt_bytes.iter().enumerate() {
                    inserts.checkpoint(r, collective, offset, bytes);
                }
            }
            if death_step == Some(i) {
                for (r, &lost) in lost_flops.iter().enumerate() {
                    inserts.detect_failure(r, collective, offset, DETECT_TIMEOUT_SECS);
                    inserts.recover(r, collective, offset, lost, 0);
                }
            }
        }
        CheckpointCharges { ckpt_bytes, lost_flops, inserts }
    }
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

/// One recoverable run of `shape`'s kernel at size `n` under `plan`'s
/// MTBF stream and `policy`: the body of
/// [`crate::ge::ge_parallel_timed_recoverable`],
/// [`crate::mm::mm_parallel_timed_recoverable`] and their traced forms.
/// A shrink-rebalance run with a death records its two segments; every
/// other run is a one-cell [`CleanRecording`].
pub(crate) fn recoverable<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    n: usize,
    shape: CleanShape,
    tracing: bool,
) -> (RecoveryOutcome, Vec<RankTrace>) {
    let checkpoint_secs = match policy {
        RecoveryPolicy::CheckpointRestart { interval_secs } => Some(interval_secs),
        RecoveryPolicy::ShrinkRebalance => {
            let (steps, work) = shape.axis(n);
            if let Some(ev) = death_iteration(plan, cluster, steps, work) {
                return Shrink::new(cluster, plan, &shape, n, ev).run(network, tracing);
            }
            None
        }
    };
    CleanRecording::record(cluster, n, shape).price(network, plan, checkpoint_secs, tracing)
}

/// A shrink-rebalance run resolved for one death: the survivor
/// machine, its deal, and the recovery prologue's per-survivor charges.
pub(crate) struct Shrink<'a> {
    cluster: &'a ClusterSpec,
    plan: &'a FaultPlan,
    shape: &'a CleanShape,
    n: usize,
    ev: DeathEvent,
    /// The cluster without the dead rank.
    pub(crate) surv_cluster: ClusterSpec,
    surv_plan: FaultPlan,
    surv_shape: CleanShape,
    /// Original rank of each survivor, in survivor order.
    pub(crate) survivors: Vec<usize>,
    /// Each survivor's share of the dead rank's steps `0..k`.
    pub(crate) lost_share: Vec<f64>,
    /// Bytes of repartitioned rows each survivor absorbs.
    pub(crate) moved_in_bytes: Vec<u64>,
    /// The run's closed-form recovery overhead.
    overhead: RecoveryOverhead,
}

impl<'a> Shrink<'a> {
    /// Resolves `ev`'s death on `shape` at size `n`.
    ///
    /// # Panics
    /// Panics when the death leaves no survivor.
    pub(crate) fn new(
        cluster: &'a ClusterSpec,
        plan: &'a FaultPlan,
        shape: &'a CleanShape,
        n: usize,
        ev: DeathEvent,
    ) -> Shrink<'a> {
        let death_plan = plan.clone().with_death(ev.rank, ev.time);
        let surv_cluster = death_plan
            .surviving_cluster(cluster)
            .expect("shrink-rebalance needs at least one survivor");
        let surv_plan = death_plan.for_survivors(cluster.size());
        let row_bytes = shape.row_bytes(n);
        let repart = repartition_after_deaths(n, &speeds_mflops(cluster), &[ev.rank], row_bytes);
        let surv_speed_flops: Vec<f64> =
            surv_cluster.nodes().iter().map(|nd| nd.marked_speed_flops()).collect();
        let lost_share =
            survivor_shares(shape.step_flops(ev.rank, n, 0..ev.iteration), &surv_speed_flops);
        let overhead = RecoveryOverhead {
            checkpoint_secs: 0.0,
            detect_secs: repart.survivors.len() as f64 * DETECT_TIMEOUT_SECS,
            lost_work_secs: lost_share.iter().zip(&surv_speed_flops).map(|(&l, &s)| l / s).sum(),
            rebalance_secs: repart.moved_bytes as f64 / REBALANCE_BANDWIDTH_BYTES_PER_SEC,
        };
        Shrink {
            cluster,
            plan,
            shape,
            n,
            ev,
            surv_shape: shape.redeal(n, &speeds_mflops(&surv_cluster)),
            surv_cluster,
            surv_plan,
            moved_in_bytes: repart.moved_in_rows.iter().map(|&r| r as u64 * row_bytes).collect(),
            survivors: repart.survivors,
            lost_share,
            overhead,
        }
    }

    /// Segment A's body on the full cluster: the head and steps `0..k`.
    pub(crate) fn prefix<T: SpmdTimer>(&self, rank: &mut T) {
        self.shape.body(rank, self.n, Segment::Prefix(self.ev.iteration));
    }

    /// Segment B's body on the survivor cluster: the recovery prologue
    /// (detect the death, replay this survivor's share of the dead
    /// rank's work, absorb its repartitioned rows), then steps `k..`
    /// and the tail under the survivor deal.
    pub(crate) fn resume<T: SpmdTimer>(&self, rank: &mut T) {
        let me = rank.rank();
        rank.detect_failure(DETECT_TIMEOUT_SECS);
        rank.recover(self.lost_share[me], self.moved_in_bytes[me]);
        self.surv_shape.body(rank, self.n, Segment::Resume(self.ev.iteration));
    }

    /// Records and prices both segments and composes them into one run;
    /// a traced run's segment-B spans are offset past the death
    /// boundary.
    pub(crate) fn run<N: NetworkModel>(
        &self,
        network: &N,
        tracing: bool,
    ) -> (RecoveryOutcome, Vec<RankTrace>) {
        let (cluster, plan) = (self.cluster, self.plan);
        let prefix = record_spmd(cluster, |t| self.prefix(t));
        let mut a = price_recoverable(&prefix, cluster, network, plan, tracing, None);
        // One recording alive at a time.
        drop(prefix);
        let (cluster, plan) = (&self.surv_cluster, &self.surv_plan);
        let resume = record_spmd(cluster, |t| self.resume(t));
        let b = price_recoverable(&resume, cluster, network, plan, tracing, None);
        let timing = compose_segments(&a, &b, &self.survivors);
        let shift = a.makespan();
        let traces =
            compose_traces(std::mem::take(&mut a.traces), b.traces, shift, &self.survivors);
        (RecoveryOutcome { timing, overhead: self.overhead, death: Some(self.ev) }, traces)
    }
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
        CleanRecording::record(cluster, n, CleanShape::ge(n, &speeds_mflops(cluster)))
    }

    /// Records MM's clean multiply at size `n`.
    pub fn mm(cluster: &ClusterSpec, n: usize) -> CleanRecording {
        CleanRecording::record(cluster, n, CleanShape::mm(n, &speeds_mflops(cluster)))
    }

    /// Records `shape`'s clean program: GE's whole elimination
    /// skeleton, MM's baseline one-block multiply.
    fn record(cluster: &ClusterSpec, n: usize, shape: CleanShape) -> CleanRecording {
        let program = match &shape {
            CleanShape::Ge(dist) => record_spmd(cluster, |t| crate::ge::ge_timed_body(t, dist, n)),
            CleanShape::Mm { dist, .. } => {
                record_spmd(cluster, |t| crate::mm::mm_timed_body(t, dist, n))
            }
        };
        CleanRecording { cluster: cluster.clone(), n, shape, program }
    }

    /// The program a checkpoint/restart run splices its charges into:
    /// GE's clean one, MM's chunked multiply (recorded on first use).
    fn checkpointed(&self) -> &SpmdProgram<()> {
        match &self.shape {
            CleanShape::Ge(_) => &self.program,
            CleanShape::Mm { chunked, .. } => chunked.get_or_init(|| {
                record_spmd(&self.cluster, |t| self.shape.body(t, self.n, Segment::Whole))
            }),
        }
    }

    /// Prices the clean program under `plan`'s runtime faults
    /// (degradation windows, lossy links); its MTBF stream is not
    /// consulted. Deaths must already be resolved: record on the
    /// surviving cluster.
    pub fn faulted<N: NetworkModel>(&self, network: &N, plan: &FaultPlan) -> TimingOutcome {
        let spec = PriceSpec { faults: Some(plan), tracing: false, inserts: None };
        TimingOutcome::from_spmd(self.program.price(&self.cluster, network, spec))
    }

    /// Prices the clean program traced, under `faults` when given —
    /// the `*_parallel_timed_traced` and `*_faulted_traced` runs.
    pub(crate) fn traced<N: NetworkModel>(
        &self,
        network: &N,
        faults: Option<&FaultPlan>,
    ) -> (TimingOutcome, Vec<RankTrace>) {
        let spec = PriceSpec { faults, tracing: true, inserts: None };
        split_traces(self.program.price(&self.cluster, network, spec))
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
    fn price<N: NetworkModel>(
        &self,
        network: &N,
        plan: &FaultPlan,
        checkpoint_secs: Option<f64>,
        tracing: bool,
    ) -> (RecoveryOutcome, Vec<RankTrace>) {
        let (cluster, n, p) = (&self.cluster, self.n, self.cluster.size());
        let (steps, work) = self.shape.axis(n);
        let death = death_iteration(plan, cluster, steps, work);
        let stride = checkpoint_secs.map(|s| checkpoint_stride(s, cluster, steps, work));
        // A stride of `steps` or more places no checkpoint inside the run.
        if death.is_none() && stride.is_none_or(|s| s >= steps) {
            let outcome = price_recoverable(&self.program, cluster, network, plan, tracing, None);
            let (timing, traces) = split_traces(outcome);
            return (
                RecoveryOutcome { timing, overhead: RecoveryOverhead::default(), death: None },
                traces,
            );
        }
        // Steps rolled back by the death: from the last checkpoint at
        // or before it.
        let lost = death.map(|ev| stride.map_or(0, |s| (ev.iteration / s) * s)..ev.iteration);
        let CheckpointCharges { ckpt_bytes, lost_flops, inserts } =
            self.shape.checkpoint_charges(p, n, stride, lost);
        let outcome =
            price_recoverable(self.checkpointed(), cluster, network, plan, tracing, Some(&inserts));
        let (timing, traces) = split_traces(outcome);

        let speed_flops = cluster.nodes().iter().map(|nd| nd.marked_speed_flops());
        let num_ckpts = match stride {
            Some(s) if steps > 1 => (steps - 1) / s,
            _ => 0,
        };
        let overhead = RecoveryOverhead {
            checkpoint_secs: num_ckpts as f64
                * ckpt_bytes.iter().map(|&b| checkpoint_cost_secs(b)).sum::<f64>(),
            detect_secs: if death.is_some() { p as f64 * DETECT_TIMEOUT_SECS } else { 0.0 },
            lost_work_secs: lost_flops.iter().zip(speed_flops).map(|(&l, s)| l / s).sum(),
            rebalance_secs: 0.0,
        };
        (RecoveryOutcome { timing, overhead, death }, traces)
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
/// monotone per rank. Each survivor's segment-A spans are spliced in
/// front of its shifted segment-B spans, in segment B's buffer: B
/// usually holds most of the run, and copying it onto A's would hold
/// B's spans twice.
fn compose_traces(
    mut a_traces: Vec<RankTrace>,
    b_traces: Vec<RankTrace>,
    shift: SimTime,
    survivors: &[usize],
) -> Vec<RankTrace> {
    for (mut b, &orig) in b_traces.into_iter().zip(survivors) {
        for rec in &mut b.records {
            rec.start += shift;
            rec.end += shift;
        }
        b.records.splice(0..0, std::mem::take(&mut a_traces[orig].records));
        a_traces[orig] = b;
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
