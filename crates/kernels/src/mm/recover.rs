//! Recoverable timing-mode MM: the HoHe skeleton of [`crate::mm::timed`]
//! with mid-run failure recovery in virtual time. Recovery itself is
//! written once, in [`crate::recover`] (see [`crate::ge::recover`] for
//! the policy semantics); this module supplies MM's iteration axis.
//!
//! The baseline MM body charges each rank's multiply as one flop block;
//! recovery needs intermediate states to checkpoint and to interrupt, so
//! the recoverable variant splits the multiply into `n` virtual
//! column-chunks of `flops / n` each — one step per chunk — and splices
//! checkpoint, detect, and recovery charges in at chunk boundaries:
//! offsets into the local run before the gather (collective 1), so one
//! chunked recording serves every checkpoint/restart run of a
//! [`crate::recover::CleanRecording`]. The split changes the float-op
//! sequence, so a recoverable run with *any* checkpoint or death is a
//! different (still deterministic) program than the baseline; a run
//! with no checkpoint and no death prices the recording's baseline
//! program, and the outcomes are bit-equal. A shrink run's resume
//! segment prices the remaining `n - k` chunks under the survivor
//! distribution — a uniform-progress approximation of migrating the
//! partial product.

use crate::recover::{recoverable, speeds_mflops, CleanShape, RecoveryOutcome, Segment};
use hetpart::BlockDistribution;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::{FaultPlan, RecoveryPolicy};
use hetsim_cluster::network::NetworkModel;
use hetsim_mpi::trace::RankTrace;
use hetsim_mpi::{SpmdTimer, Tag};
use std::ops::Range;

/// Bytes of one matrix row: `n` doubles.
pub(crate) fn row_bytes(n: usize) -> u64 {
    (n * 8) as u64
}

/// Where chunk `j`'s local charges splice in: after the first `j` ops
/// of the local run before the gather (collective 1; the B broadcast
/// is 0).
pub(crate) fn insert_at(j: usize) -> (u64, usize) {
    (1, j)
}

/// A rank's charged multiply flops under `dist`.
fn mm_flops(dist: &BlockDistribution, rank: usize, n: usize) -> f64 {
    let rows = dist.range_of(rank).len();
    (2 * rows * n * n).saturating_sub(rows * n) as f64
}

/// `rank`'s multiply flops over chunks `steps`.
pub(crate) fn step_flops(
    dist: &BlockDistribution,
    rank: usize,
    n: usize,
    steps: Range<usize>,
) -> f64 {
    steps.len() as f64 * (mm_flops(dist, rank, n) / n as f64)
}

/// The checkpointable multiply over one [`Segment`] of its chunks:
/// distribution and broadcast as the baseline (the head), chunks
/// `seg.steps(n)` of `flops / n` each, then the gather (the tail).
pub(crate) fn mm_chunked_body<T: SpmdTimer>(
    rank: &mut T,
    dist: &BlockDistribution,
    n: usize,
    seg: Segment,
) {
    let me = rank.rank();
    let p = rank.size();
    let my_range = dist.range_of(me);

    if seg.head() {
        if me == 0 {
            for peer in 1..p {
                let r = dist.range_of(peer);
                rank.send_count(peer, Tag::DATA, r.len() * n);
            }
        } else {
            rank.recv_count(0, Tag::DATA, my_range.len() * n);
        }
        rank.broadcast_count(0, n * n);
    }

    let chunk = mm_flops(dist, me, n) / n as f64;
    for _ in seg.steps(n) {
        rank.compute_flops(chunk);
    }

    if seg.tail() {
        rank.gather_count(0, my_range.len() * n);
    }
}

/// Recoverable timing-mode MM under `plan`'s MTBF stream and `policy`.
pub fn mm_parallel_timed_recoverable<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    n: usize,
) -> RecoveryOutcome {
    let shape = CleanShape::mm(n, &speeds_mflops(cluster));
    recoverable(cluster, network, plan, policy, n, shape, false).0
}

/// [`mm_parallel_timed_recoverable`] with per-rank tracing.
pub fn mm_parallel_timed_recoverable_traced<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    n: usize,
) -> (RecoveryOutcome, Vec<RankTrace>) {
    let shape = CleanShape::mm(n, &speeds_mflops(cluster));
    recoverable(cluster, network, plan, policy, n, shape, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ge::TimingOutcome;
    use crate::mm::mm_parallel_timed;
    use crate::recover::{
        checkpoint_stride, compose_segments, death_iteration, survivor_shares, DeathEvent, Shrink,
    };
    use crate::workload::mm_work;
    use hetpart::repartition_after_deaths;
    use hetsim_cluster::faults::DETECT_TIMEOUT_SECS;
    use hetsim_cluster::network::SharedEthernet;
    use hetsim_cluster::time::SimTime;
    use hetsim_cluster::NodeSpec;
    use hetsim_mpi::{record_spmd, run_spmd, PriceSpec};

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

    /// The hand-written shrink-rebalance segment A that the shared
    /// `Segment::Prefix` replaced — kept as its reference:
    /// distribution, broadcast, and the first `k` column-chunks on the
    /// full cluster, no gather.
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

    /// The hand-written shrink-rebalance segment B that the shared
    /// `Segment::Resume` replaced — kept as its reference: the recovery
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

    /// The reference inputs of one splice case — distribution, each
    /// rank's lost work, each rank's checkpoint bytes — and the shared
    /// checkpoint charges for it, checked against them.
    fn splice_inputs(
        cluster: &ClusterSpec,
        n: usize,
        stride: usize,
        death_iter: Option<usize>,
    ) -> (BlockDistribution, Vec<f64>, Vec<u64>, hetsim_mpi::LocalInserts) {
        let speeds = speeds_mflops(cluster);
        let dist = BlockDistribution::proportional(n, &speeds);
        let p = cluster.size();
        let lost: Vec<f64> = match death_iter {
            Some(k) => (0..p)
                .map(|r| (k - (k / stride) * stride) as f64 * (mm_flops(&dist, r, n) / n as f64))
                .collect(),
            None => vec![0.0; p],
        };
        let bytes: Vec<u64> =
            (0..p).map(|r| dist.range_of(r).len() as u64 * (n * 8) as u64).collect();
        let lost_steps = death_iter.map(|k| (k / stride) * stride..k);
        let charges = CleanShape::mm(n, &speeds).checkpoint_charges(p, n, Some(stride), lost_steps);
        assert_eq!(charges.lost_flops, lost, "stride {stride}, death {death_iter:?}: lost work");
        assert_eq!(charges.ckpt_bytes, bytes, "stride {stride}, death {death_iter:?}: bytes");
        (dist, lost, bytes, charges.inserts)
    }

    #[test]
    fn spliced_recording_equals_the_explicit_checkpoint_body() {
        let cluster = het3();
        let n = 18;
        for (stride, death_iter) in SPLICE_CASES {
            let (dist, lost, bytes, inserts) = splice_inputs(&cluster, n, stride, death_iter);
            let clean = record_spmd(&cluster, |t| mm_chunked_body(t, &dist, n, Segment::Whole));
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
            let (dist, lost, bytes, inserts) = splice_inputs(&cluster, n, stride, death_iter);
            let clean = record_spmd(&cluster, |t| mm_chunked_body(t, &dist, n, Segment::Whole));
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
        let recording = crate::recover::CleanRecording::mm(&cluster, n);
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

    /// Shrink deaths at `n = 18` chunks: every rank dies at the first,
    /// a middle, and the last chunk.
    fn shrink_deaths() -> Vec<DeathEvent> {
        let mut deaths = Vec::new();
        for rank in 0..3 {
            for iteration in [0, 9, 17] {
                deaths.push(DeathEvent { rank, time: SimTime::from_secs(0.25), iteration });
            }
        }
        deaths
    }

    /// The reference segment inputs of a shrink run after `ev`: the
    /// survivor cluster, the full and survivor distributions, each
    /// survivor's lost-work share and moved-in bytes, and the survivors'
    /// original ranks.
    #[allow(clippy::type_complexity)]
    fn shrink_inputs(
        cluster: &ClusterSpec,
        plan: &FaultPlan,
        n: usize,
        ev: DeathEvent,
    ) -> (ClusterSpec, BlockDistribution, BlockDistribution, Vec<f64>, Vec<u64>, Vec<usize>) {
        let speeds = speeds_mflops(cluster);
        let dist = BlockDistribution::proportional(n, &speeds);
        let death_plan = plan.clone().with_death(ev.rank, ev.time);
        let surv_cluster = death_plan.surviving_cluster(cluster).unwrap();
        let repart = repartition_after_deaths(n, &speeds, &[ev.rank], row_bytes(n));
        let surv_dist = BlockDistribution::proportional(n, &speeds_mflops(&surv_cluster));
        let surv_speed_flops: Vec<f64> =
            surv_cluster.nodes().iter().map(|nd| nd.marked_speed_flops()).collect();
        let lost_total = ev.iteration as f64 * (mm_flops(&dist, ev.rank, n) / n as f64);
        let lost_share = survivor_shares(lost_total, &surv_speed_flops);
        let moved_in: Vec<u64> =
            repart.moved_in_rows.iter().map(|&r| r as u64 * row_bytes(n)).collect();
        (surv_cluster, dist, surv_dist, lost_share, moved_in, repart.survivors)
    }

    #[test]
    fn shrink_segments_equal_the_hand_written_bodies() {
        let cluster = het3();
        let n = 18;
        let plan = FaultPlan::new(42);
        let shape = CleanShape::mm(n, &speeds_mflops(&cluster));
        for ev in shrink_deaths() {
            let shrink = Shrink::new(&cluster, &plan, &shape, n, ev);
            let (surv_cluster, dist, surv_dist, lost_share, moved_in, survivors) =
                shrink_inputs(&cluster, &plan, n, ev);
            assert_eq!(shrink.survivors, survivors);
            assert_eq!(shrink.lost_share, lost_share, "{ev:?}: lost-work shares");
            assert_eq!(shrink.moved_in_bytes, moved_in, "{ev:?}: moved-in bytes");
            let k = ev.iteration;
            let prefix = record_spmd(&cluster, |t| shrink.prefix(t));
            let reference = record_spmd(&cluster, |t| mm_prefix_body(t, &dist, n, k));
            assert!(prefix.same_ops(&reference), "{ev:?}: prefix differs from the reference");
            let resume = record_spmd(&shrink.surv_cluster, |t| shrink.resume(t));
            let reference = record_spmd(&surv_cluster, |t| {
                mm_resume_body(t, &surv_dist, n, k, &lost_share, &moved_in)
            });
            assert!(resume.same_ops(&reference), "{ev:?}: resume differs from the reference");
        }
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

        let dist = BlockDistribution::proportional(n, &speeds_mflops(&cluster));
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
        let shape = CleanShape::mm(n, &speeds_mflops(&cluster));
        // The seeded death through the public entry point, then every
        // rank dying at the first, a middle, and the last chunk.
        let seeded_plan = deadly_plan(&cluster, n, 42);
        let seeded = mm_parallel_timed_recoverable(
            &cluster,
            &net(),
            &seeded_plan,
            RecoveryPolicy::ShrinkRebalance,
            n,
        );
        let mut cases = vec![(seeded_plan, seeded.death.unwrap(), seeded.timing)];
        let plan = FaultPlan::new(42);
        for ev in shrink_deaths() {
            let fast = Shrink::new(&cluster, &plan, &shape, n, ev).run(&net(), false).0;
            cases.push((plan.clone(), ev, fast.timing));
        }

        for (plan, ev, fast) in cases {
            let (surv_cluster, dist, surv_dist, lost_share, moved_in, survivors) =
                shrink_inputs(&cluster, &plan, n, ev);
            let k = ev.iteration;
            let a = run_spmd(&cluster, &net(), |rank| mm_prefix_body(rank, &dist, n, k));
            let b = run_spmd(&surv_cluster, &net(), |rank| {
                mm_resume_body(rank, &surv_dist, n, k, &lost_share, &moved_in)
            });
            assert_eq!(fast, compose_segments(&a, &b, &survivors), "{ev:?}");
        }
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
