//! Recoverable timing-mode GE: the elimination skeleton of
//! [`crate::ge::timed`] with mid-run failure recovery in virtual time
//! (DESIGN.md §12). Recovery itself is written once, in
//! [`crate::recover`]; this module supplies GE's iteration axis: one step per pivot, `n - 1` in
//! all, each a pivot broadcast, the rank's eliminations below the
//! pivot, and a barrier.
//!
//! The plan's MTBF stream decides *whether and when* a rank dies; the
//! [`RecoveryPolicy`] decides what the machine does about it:
//!
//! - **Checkpoint/restart** keeps the full cluster. Every `stride`
//!   steps each rank charges a coordinated checkpoint of its rows
//!   (`Checkpoint` spans); at the death step every rank charges the
//!   failure-detector timeout (`Detect`) and replays its own work since
//!   the last checkpoint (`LostWork`), then the run continues
//!   unchanged. These charges sit at step heads — right before step
//!   `i`'s pivot broadcast, collective `2i` — so the run is the clean
//!   [`crate::ge::ge_timed_body`] recording with them spliced in.
//! - **Shrink-and-rebalance** drops the dead rank: steps `[0, k)` on
//!   the full cluster, then — after the survivors detect the death,
//!   replay the dead rank's eliminations speed-proportionally
//!   (`LostWork`), and absorb its rows (`Rebalance` spans) — steps
//!   `[k, n-1)` plus the gather tail under a fresh speed-proportional
//!   cyclic deal of the survivors.
//!
//! Both policies record clock-independent op streams (death and
//! checkpoint placement come from the work-proportional progress
//! estimate in [`crate::recover`], never the simulated clock), so the
//! fast engine, the event-driven scheduler, and the threaded oracle all
//! price the identical program and results stay byte-stable across
//! runs, `--jobs`, and `--no-analytic`. Untraced runs — plain,
//! faulted, or with spliced checkpoint charges — price on the lockstep
//! evaluator, whose local runs absorb the recovery ops; traced runs and
//! `--no-analytic` replay the same programs on the event-driven
//! scheduler.

use crate::analytic::elimination_flops;
use crate::recover::{recoverable, speeds_mflops, CleanShape, RecoveryOutcome};
use hetpart::{CyclicDistribution, Distribution};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::{FaultPlan, RecoveryPolicy};
use hetsim_cluster::network::NetworkModel;
use hetsim_mpi::trace::RankTrace;
use std::ops::Range;

/// Steps on GE's iteration axis: one per pivot.
pub(crate) fn steps(n: usize) -> usize {
    n.saturating_sub(1)
}

/// Bytes of one checkpointed augmented-matrix row: `n + 1` doubles.
pub(crate) fn row_bytes(n: usize) -> u64 {
    ((n + 1) * 8) as u64
}

/// Where step `i`'s local charges splice in: at the head of its pivot
/// broadcast, collective `2i`.
pub(crate) fn insert_at(i: usize) -> (u64, usize) {
    (2 * i as u64, 0)
}

/// `rank`'s elimination flops over pivot steps `steps` — the quantity
/// rolled back by a restart or recomputed for a dead rank.
pub(crate) fn step_flops(
    dist: &CyclicDistribution,
    rank: usize,
    n: usize,
    steps: Range<usize>,
) -> f64 {
    let rows = dist.rows_of(rank);
    let mut below_idx = 0usize;
    let mut flops = 0.0;
    for i in 0..steps.end.min(n.saturating_sub(1)) {
        while below_idx < rows.len() && rows[below_idx] <= i {
            below_idx += 1;
        }
        if i >= steps.start {
            flops += (rows.len() - below_idx) as f64 * elimination_flops(n - i);
        }
    }
    flops
}

/// Recoverable timing-mode GE under `plan`'s MTBF stream and `policy`.
pub fn ge_parallel_timed_recoverable<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    n: usize,
) -> RecoveryOutcome {
    let shape = CleanShape::ge(n, &speeds_mflops(cluster));
    recoverable(cluster, network, plan, policy, n, shape, false).0
}

/// [`ge_parallel_timed_recoverable`] with per-rank tracing: checkpoint,
/// detect, lost-work, and rebalance charges appear as typed spans; a
/// shrink run's segment-B spans are offset past the death boundary.
pub fn ge_parallel_timed_recoverable_traced<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    n: usize,
) -> (RecoveryOutcome, Vec<RankTrace>) {
    let shape = CleanShape::ge(n, &speeds_mflops(cluster));
    recoverable(cluster, network, plan, policy, n, shape, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ge::ge_parallel_timed;
    use crate::ge::timed::{ge_timed_body, TimingOutcome};
    use crate::recover::{
        checkpoint_stride, compose_segments, death_iteration, survivor_shares, DeathEvent, Shrink,
    };
    use crate::workload::ge_work;
    use hetpart::repartition_after_deaths;
    use hetsim_cluster::faults::DETECT_TIMEOUT_SECS;
    use hetsim_cluster::network::SharedEthernet;
    use hetsim_cluster::time::SimTime;
    use hetsim_cluster::NodeSpec;
    use hetsim_mpi::{record_spmd, run_spmd, PriceSpec, SpmdTimer};

    /// The explicit checkpoint/restart body the spliced recording
    /// replaced — kept as the reference the splice is pinned to: the
    /// baseline skeleton with checkpoint, detect, and lost-work charges
    /// written in at iteration heads.
    #[allow(clippy::too_many_arguments)]
    fn ge_ckpt_body<T: SpmdTimer>(
        rank: &mut T,
        dist: &CyclicDistribution,
        n: usize,
        stride: usize,
        death_iter: Option<usize>,
        lost_flops: &[f64],
        ckpt_bytes: &[u64],
    ) {
        let me = rank.rank();
        let p = rank.size();
        let my_rows = dist.rows_of(me);

        if me == 0 {
            for peer in 1..p {
                let count = dist.rows_of(peer).len() * (n + 1);
                rank.send_count(peer, hetsim_mpi::Tag::DATA, count);
            }
        } else {
            rank.recv_count(0, hetsim_mpi::Tag::DATA, my_rows.len() * (n + 1));
        }

        let mut below_idx = 0usize;
        for i in 0..n.saturating_sub(1) {
            if i > 0 && i % stride == 0 {
                rank.checkpoint(ckpt_bytes[me]);
            }
            if death_iter == Some(i) {
                rank.detect_failure(DETECT_TIMEOUT_SECS);
                rank.recover(lost_flops[me], 0);
            }
            let owner = dist.owner(i);
            rank.broadcast_count(owner, n - i + 1);
            while below_idx < my_rows.len() && my_rows[below_idx] <= i {
                below_idx += 1;
            }
            rank.compute_flops((my_rows.len() - below_idx) as f64 * elimination_flops(n - i));
            rank.barrier();
        }

        rank.gather_count(0, my_rows.len() * (n + 1));
        if me == 0 {
            rank.compute_flops((n * n) as f64);
        }
    }

    /// The hand-written shrink-rebalance segment A that the shared
    /// `Segment::Prefix` replaced — kept as its reference: stage 1 plus
    /// elimination iterations `[0, k)` on the full cluster, no gather.
    fn ge_prefix_body<T: SpmdTimer>(rank: &mut T, dist: &CyclicDistribution, n: usize, k: usize) {
        let me = rank.rank();
        let p = rank.size();
        let my_rows = dist.rows_of(me);

        if me == 0 {
            for peer in 1..p {
                let count = dist.rows_of(peer).len() * (n + 1);
                rank.send_count(peer, hetsim_mpi::Tag::DATA, count);
            }
        } else {
            rank.recv_count(0, hetsim_mpi::Tag::DATA, my_rows.len() * (n + 1));
        }

        let mut below_idx = 0usize;
        for i in 0..k {
            let owner = dist.owner(i);
            rank.broadcast_count(owner, n - i + 1);
            while below_idx < my_rows.len() && my_rows[below_idx] <= i {
                below_idx += 1;
            }
            rank.compute_flops((my_rows.len() - below_idx) as f64 * elimination_flops(n - i));
            rank.barrier();
        }
    }

    /// The hand-written shrink-rebalance segment B that the shared
    /// `Segment::Resume` replaced — kept as its reference: the recovery
    /// prologue, then iterations `[k, n-1)` under the survivor
    /// distribution and the gather tail.
    fn ge_resume_body<T: SpmdTimer>(
        rank: &mut T,
        dist: &CyclicDistribution,
        n: usize,
        k: usize,
        lost_share: &[f64],
        moved_in_bytes: &[u64],
    ) {
        let me = rank.rank();
        let my_rows = dist.rows_of(me);

        rank.detect_failure(DETECT_TIMEOUT_SECS);
        rank.recover(lost_share[me], moved_in_bytes[me]);

        let mut below_idx = 0usize;
        for i in k..n.saturating_sub(1) {
            let owner = dist.owner(i);
            rank.broadcast_count(owner, n - i + 1);
            while below_idx < my_rows.len() && my_rows[below_idx] <= i {
                below_idx += 1;
            }
            rank.compute_flops((my_rows.len() - below_idx) as f64 * elimination_flops(n - i));
            rank.barrier();
        }

        rank.gather_count(0, my_rows.len() * (n + 1));
        if me == 0 {
            rank.compute_flops((n * n) as f64);
        }
    }

    /// `(stride, death iteration)` cases at `n = 20` (19 iterations):
    /// death at iteration 0, at the last iteration, on a checkpoint
    /// iteration, between checkpoints, none; strides 1, 4, 19 (= iters)
    /// and past the run.
    const SPLICE_CASES: [(usize, Option<usize>); 8] = [
        (4, Some(0)),
        (4, Some(18)),
        (4, Some(8)),
        (4, Some(9)),
        (1, Some(5)),
        (19, Some(3)),
        (40, None),
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
    ) -> (CyclicDistribution, Vec<f64>, Vec<u64>, hetsim_mpi::LocalInserts) {
        let speeds = speeds_mflops(cluster);
        let dist = CyclicDistribution::fine(n, &speeds);
        let p = cluster.size();
        let lost_steps = death_iter.map(|k| (k / stride) * stride..k);
        let lost: Vec<f64> = match &lost_steps {
            Some(steps) => (0..p).map(|r| step_flops(&dist, r, n, steps.clone())).collect(),
            None => vec![0.0; p],
        };
        let bytes: Vec<u64> =
            (0..p).map(|r| dist.rows_of(r).len() as u64 * ((n + 1) * 8) as u64).collect();
        let charges = CleanShape::ge(n, &speeds).checkpoint_charges(p, n, Some(stride), lost_steps);
        assert_eq!(charges.lost_flops, lost, "stride {stride}, death {death_iter:?}: lost work");
        assert_eq!(charges.ckpt_bytes, bytes, "stride {stride}, death {death_iter:?}: bytes");
        (dist, lost, bytes, charges.inserts)
    }

    #[test]
    fn spliced_recording_equals_the_explicit_checkpoint_body() {
        let cluster = het3();
        let n = 20;
        for (stride, death_iter) in SPLICE_CASES {
            let (dist, lost, bytes, inserts) = splice_inputs(&cluster, n, stride, death_iter);
            let clean = record_spmd(&cluster, |t| ge_timed_body(t, &dist, n));
            let explicit = record_spmd(&cluster, |t| {
                ge_ckpt_body(t, &dist, n, stride, death_iter, &lost, &bytes)
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
        let n = 20;
        let plan = FaultPlan::new(9).with_straggler(1, 0.5).with_link_drops(150);
        for (stride, death_iter) in SPLICE_CASES {
            let (dist, lost, bytes, inserts) = splice_inputs(&cluster, n, stride, death_iter);
            let clean = record_spmd(&cluster, |t| ge_timed_body(t, &dist, n));
            let body = |rank: &mut hetsim_mpi::Rank<'_>| {
                ge_ckpt_body(rank, &dist, n, stride, death_iter, &lost, &bytes)
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
        let n = 40;
        let recording = crate::recover::CleanRecording::ge(&cluster, n);
        let est = crate::recover::estimated_run_secs(&cluster, ge_work(n));
        for seed in 0..6u64 {
            let plan = FaultPlan::new(seed).with_mtbf(3.0 * est);
            for interval in [est / 16.0, est / 3.0, est * 2.0] {
                let policy = RecoveryPolicy::CheckpointRestart { interval_secs: interval };
                assert_eq!(
                    recording.recover(&net(), &plan, Some(interval)),
                    ge_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n),
                    "seed {seed}, interval {interval}"
                );
            }
        }
    }

    fn het3() -> ClusterSpec {
        ClusterSpec::new(
            "het3",
            vec![
                NodeSpec::synthetic("a", 90.0),
                NodeSpec::synthetic("b", 50.0),
                NodeSpec::synthetic("c", 110.0),
            ],
        )
        .unwrap()
    }

    fn net() -> SharedEthernet {
        SharedEthernet::new(0.3e-3, 1.25e7)
    }

    /// An MTBF short enough (relative to the estimated run) that the
    /// seeded stream fires a death inside the run for this seed.
    fn deadly_plan(cluster: &ClusterSpec, n: usize, seed: u64) -> FaultPlan {
        let est = crate::recover::estimated_run_secs(cluster, ge_work(n));
        let plan = FaultPlan::new(seed).with_mtbf(est * 0.5);
        assert!(
            death_iteration(&plan, cluster, n - 1, ge_work(n)).is_some(),
            "seed {seed} must fire a death for this test"
        );
        plan
    }

    /// Shrink deaths at `n = 20` (19 iterations): every rank dies at
    /// the first, a middle, and the last iteration.
    fn shrink_deaths() -> Vec<DeathEvent> {
        let mut deaths = Vec::new();
        for rank in 0..3 {
            for iteration in [0, 9, 18] {
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
    ) -> (ClusterSpec, CyclicDistribution, CyclicDistribution, Vec<f64>, Vec<u64>, Vec<usize>) {
        let speeds = speeds_mflops(cluster);
        let dist = CyclicDistribution::fine(n, &speeds);
        let death_plan = plan.clone().with_death(ev.rank, ev.time);
        let surv_cluster = death_plan.surviving_cluster(cluster).unwrap();
        let repart = repartition_after_deaths(n, &speeds, &[ev.rank], row_bytes(n));
        let surv_dist = CyclicDistribution::fine(n, &speeds_mflops(&surv_cluster));
        let surv_speed_flops: Vec<f64> =
            surv_cluster.nodes().iter().map(|nd| nd.marked_speed_flops()).collect();
        let lost_total = step_flops(&dist, ev.rank, n, 0..ev.iteration);
        let lost_share = survivor_shares(lost_total, &surv_speed_flops);
        let moved_in: Vec<u64> =
            repart.moved_in_rows.iter().map(|&r| r as u64 * row_bytes(n)).collect();
        (surv_cluster, dist, surv_dist, lost_share, moved_in, repart.survivors)
    }

    #[test]
    fn shrink_segments_equal_the_hand_written_bodies() {
        let cluster = het3();
        let n = 20;
        let plan = FaultPlan::new(42);
        let shape = CleanShape::ge(n, &speeds_mflops(&cluster));
        for ev in shrink_deaths() {
            let shrink = Shrink::new(&cluster, &plan, &shape, n, ev);
            let (surv_cluster, dist, surv_dist, lost_share, moved_in, survivors) =
                shrink_inputs(&cluster, &plan, n, ev);
            assert_eq!(shrink.survivors, survivors);
            assert_eq!(shrink.lost_share, lost_share, "{ev:?}: lost-work shares");
            assert_eq!(shrink.moved_in_bytes, moved_in, "{ev:?}: moved-in bytes");
            let k = ev.iteration;
            let prefix = record_spmd(&cluster, |t| shrink.prefix(t));
            let reference = record_spmd(&cluster, |t| ge_prefix_body(t, &dist, n, k));
            assert!(prefix.same_ops(&reference), "{ev:?}: prefix differs from the reference");
            let resume = record_spmd(&shrink.surv_cluster, |t| shrink.resume(t));
            let reference = record_spmd(&surv_cluster, |t| {
                ge_resume_body(t, &surv_dist, n, k, &lost_share, &moved_in)
            });
            assert!(resume.same_ops(&reference), "{ev:?}: resume differs from the reference");
        }
    }

    #[test]
    fn no_death_and_no_checkpoints_match_the_baseline() {
        let cluster = het3();
        let n = 24;
        // MTBF far past the run; interval far past the run: the
        // recoverable program degenerates to the baseline op stream.
        let plan = FaultPlan::new(1).with_mtbf(1e12);
        let base = ge_parallel_timed(&cluster, &net(), n);
        for policy in [
            RecoveryPolicy::CheckpointRestart { interval_secs: 1e9 },
            RecoveryPolicy::ShrinkRebalance,
        ] {
            let r = ge_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n);
            assert_eq!(r.timing, base, "policy {policy:?} diverged from baseline");
            assert_eq!(r.overhead.total_secs(), 0.0);
            assert_eq!(r.death, None);
        }
    }

    #[test]
    fn checkpointing_taxes_the_run() {
        let cluster = het3();
        let n = 32;
        let plan = FaultPlan::new(1).with_mtbf(1e12);
        let est = crate::recover::estimated_run_secs(&cluster, ge_work(n));
        let base = ge_parallel_timed(&cluster, &net(), n);
        let r = ge_parallel_timed_recoverable(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::CheckpointRestart { interval_secs: est / 8.0 },
            n,
        );
        assert!(r.timing.makespan > base.makespan);
        assert!(r.overhead.checkpoint_secs > 0.0);
        assert_eq!(r.overhead.detect_secs, 0.0);
        assert_eq!(r.overhead.lost_work_secs, 0.0);
    }

    #[test]
    fn fast_matches_threaded_on_recoverable_checkpoint_body() {
        let cluster = het3();
        let n = 20;
        let plan = deadly_plan(&cluster, n, 42);
        let est = crate::recover::estimated_run_secs(&cluster, ge_work(n));
        let interval = est / 5.0;
        let policy = RecoveryPolicy::CheckpointRestart { interval_secs: interval };
        let fast = ge_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n);

        // Re-derive the injected body's inputs and run it on the
        // threaded oracle.
        let dist = CyclicDistribution::fine(n, &speeds_mflops(&cluster));
        let iters = n - 1;
        let stride = checkpoint_stride(interval, &cluster, iters, ge_work(n));
        let ev = death_iteration(&plan, &cluster, iters, ge_work(n)).unwrap();
        let c = (ev.iteration / stride) * stride;
        let lost: Vec<f64> = (0..3).map(|r| step_flops(&dist, r, n, c..ev.iteration)).collect();
        let bytes: Vec<u64> = (0..3).map(|r| dist.rows_of(r).len() as u64 * row_bytes(n)).collect();
        let threaded = TimingOutcome::from_spmd(run_spmd(&cluster, &net(), |rank| {
            ge_ckpt_body(rank, &dist, n, stride, Some(ev.iteration), &lost, &bytes)
        }));
        assert_eq!(fast.timing, threaded);
    }

    #[test]
    fn fast_matches_threaded_on_shrink_segments() {
        let cluster = het3();
        let n = 20;
        let shape = CleanShape::ge(n, &speeds_mflops(&cluster));
        // The seeded death through the public entry point, then every
        // rank dying at the first, a middle, and the last iteration.
        let seeded_plan = deadly_plan(&cluster, n, 42);
        let seeded = ge_parallel_timed_recoverable(
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

        // Re-run both reference segments on the threaded oracle and
        // compose.
        for (plan, ev, fast) in cases {
            let (surv_cluster, dist, surv_dist, lost_share, moved_in, survivors) =
                shrink_inputs(&cluster, &plan, n, ev);
            let k = ev.iteration;
            let a = run_spmd(&cluster, &net(), |rank| ge_prefix_body(rank, &dist, n, k));
            let b = run_spmd(&surv_cluster, &net(), |rank| {
                ge_resume_body(rank, &surv_dist, n, k, &lost_share, &moved_in)
            });
            assert_eq!(fast, compose_segments(&a, &b, &survivors), "{ev:?}");
        }
    }

    #[test]
    fn shrink_drops_the_dead_rank_and_charges_rebalance() {
        let cluster = het3();
        let n = 24;
        let plan = deadly_plan(&cluster, n, 42);
        let r = ge_parallel_timed_recoverable(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::ShrinkRebalance,
            n,
        );
        let ev = r.death.unwrap();
        assert!(r.overhead.rebalance_secs > 0.0);
        assert!(r.overhead.detect_secs > 0.0);
        // The dead rank's clock stops at the death boundary; every
        // survivor finishes after it.
        for (rk, &t) in r.timing.times.iter().enumerate() {
            if rk != ev.rank {
                assert!(t > r.timing.times[ev.rank], "survivor {rk} ended before the dead rank");
            }
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
            let a = ge_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n);
            let b = ge_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn traced_recovery_emits_typed_spans() {
        use hetsim_mpi::trace::OpKind;
        let cluster = het3();
        let n = 24;
        let plan = deadly_plan(&cluster, n, 42);
        let est = crate::recover::estimated_run_secs(&cluster, ge_work(n));

        let (ck, traces) = ge_parallel_timed_recoverable_traced(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::CheckpointRestart { interval_secs: est / 2.0 },
            n,
        );
        let kinds: Vec<OpKind> =
            traces.iter().flat_map(|t| t.records.iter().map(|r| r.kind)).collect();
        assert!(kinds.contains(&OpKind::Checkpoint));
        assert!(kinds.contains(&OpKind::Detect));
        assert!(kinds.contains(&OpKind::LostWork));
        assert_eq!(
            ck.timing,
            ge_parallel_timed_recoverable(
                &cluster,
                &net(),
                &plan,
                RecoveryPolicy::CheckpointRestart { interval_secs: est / 2.0 },
                n
            )
            .timing,
            "tracing must not perturb timings"
        );

        let (_, traces) = ge_parallel_timed_recoverable_traced(
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
        // Per-rank timelines stay monotone across the composed segments.
        for t in &traces {
            for w in t.records.windows(2) {
                assert!(w[1].start >= w[0].start, "trace went backwards across the death boundary");
            }
        }
    }

    #[test]
    fn frequent_checkpoints_lose_less_work() {
        let cluster = het3();
        let n = 40;
        let plan = deadly_plan(&cluster, n, 42);
        let est = crate::recover::estimated_run_secs(&cluster, ge_work(n));
        let coarse = ge_parallel_timed_recoverable(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::CheckpointRestart { interval_secs: est * 2.0 },
            n,
        );
        let fine = ge_parallel_timed_recoverable(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::CheckpointRestart { interval_secs: est / 16.0 },
            n,
        );
        assert!(fine.overhead.lost_work_secs <= coarse.overhead.lost_work_secs);
        assert!(fine.overhead.checkpoint_secs > coarse.overhead.checkpoint_secs);
    }
}
