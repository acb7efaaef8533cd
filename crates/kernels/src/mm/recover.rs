//! Recoverable timing-mode MM: the HoHe skeleton of [`crate::mm::timed`]
//! with mid-run failure recovery in virtual time. See
//! [`crate::ge::recover`] for the policy semantics — this module differs
//! only in how the multiply is given an iteration axis.
//!
//! The baseline MM body charges each rank's multiply as one flop block;
//! recovery needs intermediate states to checkpoint and to interrupt, so
//! the recoverable variant splits the multiply into `n` virtual
//! column-chunks of `flops / n` each and splices checkpoint, detect, and
//! recovery charges in at chunk boundaries — offsets into the local run
//! before the gather (collective 1), so one chunked recording serves
//! every checkpoint/restart run of a [`CleanRecording`]. The split
//! changes the float-op sequence, so a recoverable run with *any*
//! checkpoint or death is a different (still deterministic) program
//! than the baseline; a run with no checkpoint and no death prices the
//! recording's baseline program, and the outcomes are bit-equal. A
//! shrink run's resume segment prices the remaining `n - k` chunks
//! under the survivor distribution — a uniform-progress approximation
//! of migrating the partial product.

use crate::recover::{
    compose_segments, compose_traces, death_iteration, run_recoverable, speeds_mflops,
    survivor_shares, CheckpointCharges, CleanRecording, DeathEvent, RecoveryOutcome,
    RecoveryOverhead,
};
use crate::workload::mm_work;
use hetpart::{repartition_after_deaths, BlockDistribution, Distribution};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::{FaultPlan, RecoveryPolicy, DETECT_TIMEOUT_SECS};
use hetsim_cluster::network::NetworkModel;
use hetsim_mpi::trace::RankTrace;
use hetsim_mpi::{record_spmd, LocalInserts, SpmdProgram, SpmdTimer, Tag};
use std::ops::Range;

/// Bytes of one matrix row: `n` doubles.
fn row_bytes(n: usize) -> u64 {
    (n * 8) as u64
}

/// A rank's charged multiply flops under `dist`.
fn mm_flops(dist: &BlockDistribution, rank: usize, n: usize) -> f64 {
    let rows = dist.range_of(rank).len();
    (2 * rows * n * n).saturating_sub(rows * n) as f64
}

/// The checkpointable multiply: distribution and broadcast as the
/// baseline, then `n` column-chunks of `flops / n` each, then the
/// gather. Checkpoint/restart charges splice in at chunk boundaries.
fn mm_chunked_body<T: SpmdTimer>(rank: &mut T, dist: &BlockDistribution, n: usize) {
    let me = rank.rank();
    let p = rank.size();
    let my_range = dist.range_of(me);

    if me == 0 {
        for peer in 1..p {
            let r = dist.range_of(peer);
            rank.send_count(peer, Tag::DATA, r.len() * n);
        }
    } else {
        rank.recv_count(0, Tag::DATA, my_range.len() * n);
    }
    rank.broadcast_count(0, n * n);

    let chunk = mm_flops(dist, me, n) / n as f64;
    for _ in 0..n {
        rank.compute_flops(chunk);
    }

    rank.gather_count(0, my_range.len() * n);
}

/// The checkpoint/restart charges of one run, at chunk heads of the
/// local run before the gather (collective 1; the B broadcast is 0): a
/// checkpoint before chunk `j` when `j > 0` is a multiple of the
/// stride, then — at the death chunk — the detector timeout and each
/// rank's lost-work replay.
fn mm_checkpoint_inserts(
    n: usize,
    stride: Option<usize>,
    death_iter: Option<usize>,
    lost_flops: &[f64],
    ckpt_bytes: &[u64],
) -> LocalInserts {
    const GATHER: u64 = 1;
    let mut inserts = LocalInserts::new(ckpt_bytes.len());
    for j in 0..n {
        if j > 0 && stride.is_some_and(|s| j % s == 0) {
            for (r, &bytes) in ckpt_bytes.iter().enumerate() {
                inserts.checkpoint(r, GATHER, j, bytes);
            }
        }
        if death_iter == Some(j) {
            for (r, &lost) in lost_flops.iter().enumerate() {
                inserts.detect_failure(r, GATHER, j, DETECT_TIMEOUT_SECS);
                inserts.recover(r, GATHER, j, lost, 0);
            }
        }
    }
    inserts
}

/// Records the chunked multiply a checkpointed MM run splices its
/// charges into.
pub(crate) fn record_chunked(
    cluster: &ClusterSpec,
    dist: &BlockDistribution,
    n: usize,
) -> SpmdProgram<()> {
    record_spmd(cluster, |t| mm_chunked_body(t, dist, n))
}

/// The charges a checkpoint/restart run splices into the chunked
/// recording: checkpoints every `stride` chunks, and — when a death
/// interrupts chunk `lost.end` — each rank's share of the rolled-back
/// chunks `lost`.
pub(crate) fn checkpoint_charges(
    dist: &BlockDistribution,
    n: usize,
    stride: Option<usize>,
    lost: Option<Range<usize>>,
) -> CheckpointCharges {
    let p = dist.p();
    let ckpt_bytes: Vec<u64> =
        (0..p).map(|r| dist.range_of(r).len() as u64 * row_bytes(n)).collect();
    let lost_flops: Vec<f64> = match &lost {
        Some(range) => (0..p)
            .map(|r| (range.end - range.start) as f64 * (mm_flops(dist, r, n) / n as f64))
            .collect(),
        None => vec![0.0; p],
    };
    let death_iter = lost.map(|range| range.end);
    let inserts = mm_checkpoint_inserts(n, stride, death_iter, &lost_flops, &ckpt_bytes);
    CheckpointCharges { ckpt_bytes, lost_flops, inserts }
}

/// Shrink-rebalance segment A: distribution, broadcast, and the first
/// `k` column-chunks on the full cluster. No gather — interrupted.
fn mm_prefix_body<T: SpmdTimer>(rank: &mut T, dist: &BlockDistribution, n: usize, k: usize) {
    let me = rank.rank();
    let p = rank.size();
    let my_range = dist.range_of(me);

    if me == 0 {
        for peer in 1..p {
            let r = dist.range_of(peer);
            rank.send_count(peer, Tag::DATA, r.len() * n);
        }
    } else {
        rank.recv_count(0, Tag::DATA, my_range.len() * n);
    }
    rank.broadcast_count(0, n * n);

    let chunk = mm_flops(dist, me, n) / n as f64;
    for _ in 0..k {
        rank.compute_flops(chunk);
    }
}

/// Shrink-rebalance segment B on the survivor cluster: recovery
/// prologue, the remaining `n - k` chunks under the survivor
/// distribution, then the gather with survivor counts.
fn mm_resume_body<T: SpmdTimer>(
    rank: &mut T,
    dist: &BlockDistribution,
    n: usize,
    k: usize,
    lost_share: &[f64],
    moved_in_bytes: &[u64],
) {
    let me = rank.rank();
    let my_range = dist.range_of(me);

    rank.detect_failure(DETECT_TIMEOUT_SECS);
    rank.recover(lost_share[me], moved_in_bytes[me]);

    let chunk = mm_flops(dist, me, n) / n as f64;
    for _ in k..n {
        rank.compute_flops(chunk);
    }

    rank.gather_count(0, my_range.len() * n);
}

/// Recoverable timing-mode MM under `plan`'s MTBF stream and `policy`.
pub fn mm_parallel_timed_recoverable<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    n: usize,
) -> RecoveryOutcome {
    mm_recoverable(cluster, network, plan, policy, n, false).0
}

/// [`mm_parallel_timed_recoverable`] with per-rank tracing.
pub fn mm_parallel_timed_recoverable_traced<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    n: usize,
) -> (RecoveryOutcome, Vec<RankTrace>) {
    mm_recoverable(cluster, network, plan, policy, n, true)
}

fn mm_recoverable<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    n: usize,
    tracing: bool,
) -> (RecoveryOutcome, Vec<RankTrace>) {
    let checkpoint_secs = match policy {
        RecoveryPolicy::CheckpointRestart { interval_secs } => Some(interval_secs),
        RecoveryPolicy::ShrinkRebalance => {
            if let Some(ev) = death_iteration(plan, cluster, n, mm_work(n)) {
                return mm_shrink(cluster, network, plan, n, ev, tracing);
            }
            None
        }
    };
    CleanRecording::mm(cluster, n).price(network, plan, checkpoint_secs, tracing)
}

fn mm_shrink<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    n: usize,
    ev: DeathEvent,
    tracing: bool,
) -> (RecoveryOutcome, Vec<RankTrace>) {
    let p = cluster.size();
    let k = ev.iteration;
    let speeds = speeds_mflops(cluster);
    let dist = BlockDistribution::proportional(n, &speeds);

    let death_plan = plan.clone().with_death(ev.rank, ev.time);
    let surv_cluster = death_plan
        .surviving_cluster(cluster)
        .expect("shrink-rebalance needs at least one survivor");
    let surv_plan = death_plan.for_survivors(p);
    let repart = repartition_after_deaths(n, &speeds, &[ev.rank], row_bytes(n));

    let surv_speeds: Vec<f64> =
        surv_cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
    let surv_speed_flops: Vec<f64> =
        surv_cluster.nodes().iter().map(|nd| nd.marked_speed_flops()).collect();
    let surv_dist = BlockDistribution::proportional(n, &surv_speeds);

    let lost_total = k as f64 * (mm_flops(&dist, ev.rank, n) / n as f64);
    let lost_share = survivor_shares(lost_total, &surv_speed_flops);
    let moved_in_bytes: Vec<u64> =
        repart.moved_in_rows.iter().map(|&r| r as u64 * row_bytes(n)).collect();

    let mut a =
        run_recoverable(cluster, network, plan, tracing, |t| mm_prefix_body(t, &dist, n, k));
    let mut b = run_recoverable(&surv_cluster, network, &surv_plan, tracing, |t| {
        mm_resume_body(t, &surv_dist, n, k, &lost_share, &moved_in_bytes)
    });

    let a_traces = std::mem::take(&mut a.traces);
    let b_traces = std::mem::take(&mut b.traces);
    let timing = compose_segments(&a, &b, &repart.survivors);
    let traces = if tracing {
        compose_traces(a_traces, b_traces, a.makespan(), &repart.survivors)
    } else {
        Vec::new()
    };

    let overhead = RecoveryOverhead {
        checkpoint_secs: 0.0,
        detect_secs: repart.survivors.len() as f64 * DETECT_TIMEOUT_SECS,
        lost_work_secs: lost_share.iter().zip(&surv_speed_flops).map(|(&l, &s)| l / s).sum(),
        rebalance_secs: repart.moved_bytes as f64
            / hetsim_cluster::faults::REBALANCE_BANDWIDTH_BYTES_PER_SEC,
    };
    (RecoveryOutcome { timing, overhead, death: Some(ev) }, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ge::TimingOutcome;
    use crate::mm::mm_parallel_timed;
    use crate::recover::checkpoint_stride;
    use hetsim_cluster::network::SharedEthernet;
    use hetsim_cluster::NodeSpec;
    use hetsim_mpi::{run_spmd, PriceSpec};

    /// The explicit checkpoint/restart multiply the spliced recording
    /// replaced — kept as the reference the splice is pinned to:
    /// distribution and broadcast as the baseline, then `n`
    /// column-chunks with checkpoint, detect, and lost-work charges
    /// written in at chunk heads, then the gather.
    fn mm_ckpt_body<T: SpmdTimer>(
        rank: &mut T,
        dist: &BlockDistribution,
        n: usize,
        stride: usize,
        death_iter: Option<usize>,
        lost_flops: &[f64],
        ckpt_bytes: &[u64],
    ) {
        let me = rank.rank();
        let p = rank.size();
        let my_range = dist.range_of(me);

        if me == 0 {
            for peer in 1..p {
                let r = dist.range_of(peer);
                rank.send_count(peer, Tag::DATA, r.len() * n);
            }
        } else {
            rank.recv_count(0, Tag::DATA, my_range.len() * n);
        }
        rank.broadcast_count(0, n * n);

        let chunk = mm_flops(dist, me, n) / n as f64;
        for j in 0..n {
            if j > 0 && j % stride == 0 {
                rank.checkpoint(ckpt_bytes[me]);
            }
            if death_iter == Some(j) {
                rank.detect_failure(DETECT_TIMEOUT_SECS);
                rank.recover(lost_flops[me], 0);
            }
            rank.compute_flops(chunk);
        }

        rank.gather_count(0, my_range.len() * n);
    }

    /// `(stride, death chunk)` cases at `n = 18` chunks: death at chunk
    /// 0, at the last chunk, on a checkpoint chunk, between
    /// checkpoints, none; strides 1, 4, 18 (= chunks) and past the run.
    const SPLICE_CASES: [(usize, Option<usize>); 8] = [
        (4, Some(0)),
        (4, Some(17)),
        (4, Some(8)),
        (4, Some(9)),
        (1, Some(5)),
        (18, Some(3)),
        (40, Some(11)),
        (3, None),
    ];

    fn splice_inputs(
        cluster: &ClusterSpec,
        n: usize,
        stride: usize,
        death_iter: Option<usize>,
    ) -> (BlockDistribution, Vec<f64>, Vec<u64>) {
        let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
        let dist = BlockDistribution::proportional(n, &speeds);
        let p = cluster.size();
        let lost: Vec<f64> = match death_iter {
            Some(k) => (0..p)
                .map(|r| (k - (k / stride) * stride) as f64 * (mm_flops(&dist, r, n) / n as f64))
                .collect(),
            None => vec![0.0; p],
        };
        let bytes = (0..p).map(|r| dist.range_of(r).len() as u64 * row_bytes(n)).collect();
        (dist, lost, bytes)
    }

    #[test]
    fn spliced_recording_equals_the_explicit_checkpoint_body() {
        let cluster = het3();
        let n = 18;
        for (stride, death_iter) in SPLICE_CASES {
            let (dist, lost, bytes) = splice_inputs(&cluster, n, stride, death_iter);
            let inserts = mm_checkpoint_inserts(n, Some(stride), death_iter, &lost, &bytes);
            let clean = record_spmd(&cluster, |t| mm_chunked_body(t, &dist, n));
            let explicit = record_spmd(&cluster, |t| {
                mm_ckpt_body(t, &dist, n, stride, death_iter, &lost, &bytes)
            });
            assert!(
                clean.splice(&inserts).same_ops(&explicit),
                "stride {stride}, death {death_iter:?}: splice differs from the explicit body"
            );
        }
    }

    #[test]
    fn spliced_pricing_matches_event_replay_and_the_threaded_oracle() {
        let cluster = het3();
        let n = 18;
        let plan = FaultPlan::new(9).with_straggler(2, 0.5).with_link_drops(150);
        for (stride, death_iter) in SPLICE_CASES {
            let (dist, lost, bytes) = splice_inputs(&cluster, n, stride, death_iter);
            let inserts = mm_checkpoint_inserts(n, Some(stride), death_iter, &lost, &bytes);
            let clean = record_spmd(&cluster, |t| mm_chunked_body(t, &dist, n));
            let body = |rank: &mut hetsim_mpi::Rank<'_>| {
                mm_ckpt_body(rank, &dist, n, stride, death_iter, &lost, &bytes)
            };
            for faults in [None, Some(&plan)] {
                let spec = PriceSpec { faults, tracing: false, inserts: Some(&inserts) };
                let lockstep = TimingOutcome::from_spmd(clean.price(&cluster, &net(), spec));
                let replay = TimingOutcome::from_spmd(match faults {
                    None => clean.splice(&inserts).simulate_event_driven(&cluster, &net()),
                    Some(_) => clean.price(&cluster, &net(), PriceSpec { tracing: true, ..spec }),
                });
                let threaded = TimingOutcome::from_spmd(match faults {
                    None => run_spmd(&cluster, &net(), body),
                    Some(plan) => hetsim_mpi::run_spmd_faulted(&cluster, &net(), plan, body),
                });
                let case =
                    format!("stride {stride}, death {death_iter:?}, faulted {}", faults.is_some());
                assert_eq!(lockstep, replay, "{case}: lockstep vs event replay");
                assert_eq!(lockstep, threaded, "{case}: lockstep vs threaded oracle");
            }
        }
    }

    #[test]
    fn one_recording_prices_every_checkpoint_cell() {
        let cluster = het3();
        let n = 30;
        let recording = CleanRecording::mm(&cluster, n);
        let est = crate::recover::estimated_run_secs(&cluster, mm_work(n));
        for seed in 0..6u64 {
            let plan = FaultPlan::new(seed).with_mtbf(3.0 * est);
            // The last interval checkpoints never: death-free seeds take
            // the baseline body.
            for interval in [est / 16.0, est / 3.0, est * 2.0] {
                let policy = RecoveryPolicy::CheckpointRestart { interval_secs: interval };
                assert_eq!(
                    recording.recover(&net(), &plan, Some(interval)),
                    mm_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n),
                    "seed {seed}, interval {interval}"
                );
            }
        }
    }

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

    fn net() -> SharedEthernet {
        SharedEthernet::new(0.3e-3, 1.25e7)
    }

    fn deadly_plan(cluster: &ClusterSpec, n: usize, seed: u64) -> FaultPlan {
        let est = crate::recover::estimated_run_secs(cluster, mm_work(n));
        let plan = FaultPlan::new(seed).with_mtbf(est * 0.5);
        assert!(
            death_iteration(&plan, cluster, n, mm_work(n)).is_some(),
            "seed {seed} must fire a death for this test"
        );
        plan
    }

    #[test]
    fn no_death_and_no_checkpoints_match_the_baseline() {
        let cluster = het3();
        let n = 24;
        let plan = FaultPlan::new(1).with_mtbf(1e12);
        let base = mm_parallel_timed(&cluster, &net(), n);
        for policy in [
            RecoveryPolicy::CheckpointRestart { interval_secs: 1e9 },
            RecoveryPolicy::ShrinkRebalance,
        ] {
            let r = mm_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n);
            assert_eq!(r.timing, base, "policy {policy:?} diverged from baseline");
            assert_eq!(r.overhead.total_secs(), 0.0);
            assert_eq!(r.death, None);
        }
    }

    #[test]
    fn fast_matches_threaded_on_recoverable_checkpoint_body() {
        let cluster = het3();
        let n = 18;
        let plan = deadly_plan(&cluster, n, 42);
        let est = crate::recover::estimated_run_secs(&cluster, mm_work(n));
        let interval = est / 5.0;
        let policy = RecoveryPolicy::CheckpointRestart { interval_secs: interval };
        let fast = mm_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n);

        let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
        let dist = BlockDistribution::proportional(n, &speeds);
        let stride = checkpoint_stride(interval, &cluster, n, mm_work(n));
        let ev = death_iteration(&plan, &cluster, n, mm_work(n)).unwrap();
        let c = (ev.iteration / stride) * stride;
        let lost: Vec<f64> = (0..3)
            .map(|r| (ev.iteration - c) as f64 * (mm_flops(&dist, r, n) / n as f64))
            .collect();
        let bytes: Vec<u64> =
            (0..3).map(|r| dist.range_of(r).len() as u64 * row_bytes(n)).collect();
        let threaded = TimingOutcome::from_spmd(run_spmd(&cluster, &net(), |rank| {
            mm_ckpt_body(rank, &dist, n, stride, Some(ev.iteration), &lost, &bytes)
        }));
        assert_eq!(fast.timing, threaded);
    }

    #[test]
    fn fast_matches_threaded_on_shrink_segments() {
        let cluster = het3();
        let n = 18;
        let plan = deadly_plan(&cluster, n, 42);
        let fast = mm_parallel_timed_recoverable(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::ShrinkRebalance,
            n,
        );
        let ev = fast.death.unwrap();

        let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
        let dist = BlockDistribution::proportional(n, &speeds);
        let death_plan = plan.clone().with_death(ev.rank, ev.time);
        let surv_cluster = death_plan.surviving_cluster(&cluster).unwrap();
        let repart = repartition_after_deaths(n, &speeds, &[ev.rank], row_bytes(n));
        let surv_speeds: Vec<f64> =
            surv_cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
        let surv_speed_flops: Vec<f64> =
            surv_cluster.nodes().iter().map(|nd| nd.marked_speed_flops()).collect();
        let surv_dist = BlockDistribution::proportional(n, &surv_speeds);
        let lost_total = ev.iteration as f64 * (mm_flops(&dist, ev.rank, n) / n as f64);
        let lost_share = survivor_shares(lost_total, &surv_speed_flops);
        let moved_in: Vec<u64> =
            repart.moved_in_rows.iter().map(|&r| r as u64 * row_bytes(n)).collect();
        let a = run_spmd(&cluster, &net(), |rank| mm_prefix_body(rank, &dist, n, ev.iteration));
        let b = run_spmd(&surv_cluster, &net(), |rank| {
            mm_resume_body(rank, &surv_dist, n, ev.iteration, &lost_share, &moved_in)
        });
        let threaded = compose_segments(&a, &b, &repart.survivors);
        assert_eq!(fast.timing, threaded);
    }

    #[test]
    fn recoverable_runs_are_deterministic() {
        let cluster = het3();
        let n = 24;
        let plan = deadly_plan(&cluster, n, 42);
        for policy in [
            RecoveryPolicy::CheckpointRestart { interval_secs: 0.01 },
            RecoveryPolicy::ShrinkRebalance,
        ] {
            let a = mm_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n);
            let b = mm_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn traced_recovery_emits_typed_spans() {
        use hetsim_mpi::trace::OpKind;
        let cluster = het3();
        let n = 24;
        let plan = deadly_plan(&cluster, n, 42);
        let (_, traces) = mm_parallel_timed_recoverable_traced(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::ShrinkRebalance,
            n,
        );
        let kinds: Vec<OpKind> =
            traces.iter().flat_map(|t| t.records.iter().map(|r| r.kind)).collect();
        assert!(kinds.contains(&OpKind::Detect));
        assert!(kinds.contains(&OpKind::Rebalance));
        assert!(kinds.contains(&OpKind::LostWork));
    }

    #[test]
    fn shrink_recovery_costs_beat_a_dead_machine_standing_still() {
        // The composed shrink run must finish: makespan is strictly
        // larger than the interrupted prefix alone but finite and
        // positive, with rebalance traffic accounted.
        let cluster = het3();
        let n = 24;
        let plan = deadly_plan(&cluster, n, 42);
        let r = mm_parallel_timed_recoverable(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::ShrinkRebalance,
            n,
        );
        assert!(r.timing.makespan.as_secs() > 0.0);
        assert!(r.overhead.rebalance_secs > 0.0);
        assert!(r.overhead.lost_work_secs >= 0.0);
    }
}
