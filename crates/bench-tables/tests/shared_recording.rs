//! One clean recording per `(kernel, cluster, n)` prices every cell the
//! `--faults` and `recover` ladders put on that cluster at that size:
//! each non-death fault severity, the clean recovery baseline, and the
//! checkpoint/restart row of every MTBF factor at its Young/Daly
//! interval. Each shared pricing must be bit-identical to the per-cell
//! entry point it replaces — makespan, per-rank clocks and compute
//! times, total overhead, recovery decomposition and death — and the
//! faulted and clean cells also to the kernel body recorded and priced
//! afresh on the fast engine.

use bench_tables::experiments::faults::Severity;
use bench_tables::experiments::recover::{MTBF_FACTORS, RECOVER_SEED_SALT};
use hetpart::{BlockDistribution, CyclicDistribution, Distribution};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::{checkpoint_cost_secs, daly_interval, FaultPlan, RecoveryPolicy};
use hetsim_cluster::sunwulf;
use hetsim_mpi::{run_spmd_fast, run_spmd_fast_faulted};
use kernels::ge::{ge_parallel_timed_faulted, ge_parallel_timed_recoverable, ge_timed_body};
use kernels::mm::{mm_parallel_timed_faulted, mm_parallel_timed_recoverable, mm_timed_body};
use kernels::recover::estimated_run_secs;
use kernels::workload::{ge_work, mm_work};
use kernels::{CleanRecording, RecoveryOverhead, TimingOutcome};

const P: usize = 16;

/// Bitwise equality: `Debug` prints every `f64` in its shortest
/// round-trip form, so equal strings mean equal bits (signed zeros
/// included).
fn assert_bits_eq<T: std::fmt::Debug + PartialEq>(shared: &T, per_cell: &T, cell: &str) {
    assert_eq!(shared, per_cell, "{cell}");
    assert_eq!(format!("{shared:?}"), format!("{per_cell:?}"), "{cell}: bits differ");
}

/// The recovery sweep's per-checkpoint cost δ: the slowest rank's
/// checkpoint of its rows.
fn checkpoint_delta(ge: bool, cluster: &ClusterSpec, n: usize) -> f64 {
    let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
    let bytes: Vec<u64> = if ge {
        let dist = CyclicDistribution::fine(n, &speeds);
        (0..P).map(|r| (dist.rows_of(r).len() * (n + 1) * 8) as u64).collect()
    } else {
        let dist = BlockDistribution::proportional(n, &speeds);
        (0..P).map(|r| (dist.range_of(r).len() * n * 8) as u64).collect()
    };
    bytes.into_iter().map(checkpoint_cost_secs).fold(0.0, f64::max)
}

fn check_kernel(ge: bool, sizes: &[usize]) {
    let cluster = if ge { sunwulf::ge_config(P) } else { sunwulf::mm_config(P) };
    let net = sunwulf::sunwulf_network();
    let kernel = if ge { "GE" } else { "MM" };
    let seed = bench_tables::seed::plan_seed() + RECOVER_SEED_SALT + P as u64;
    // Checkpoint/restart cells whose Daly interval outlasts the run,
    // and cells that checkpoint: the grid must exercise both.
    let mut checkpointed = [0usize; 2];
    let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
    for &n in sizes {
        let recording =
            if ge { CleanRecording::ge(&cluster, n) } else { CleanRecording::mm(&cluster, n) };
        let (cyclic, block) =
            (CyclicDistribution::fine(n, &speeds), BlockDistribution::proportional(n, &speeds));
        let fresh = |plan: Option<&FaultPlan>| {
            TimingOutcome::from_spmd(match (ge, plan) {
                (true, Some(plan)) => {
                    run_spmd_fast_faulted(&cluster, &net, plan, |t| ge_timed_body(t, &cyclic, n))
                }
                (true, None) => run_spmd_fast(&cluster, &net, |t| ge_timed_body(t, &cyclic, n)),
                (false, Some(plan)) => {
                    run_spmd_fast_faulted(&cluster, &net, plan, |t| mm_timed_body(t, &block, n))
                }
                (false, None) => run_spmd_fast(&cluster, &net, |t| mm_timed_body(t, &block, n)),
            })
        };

        for severity in Severity::ALL.into_iter().filter(|&s| s != Severity::Death) {
            let plan = severity.plan(P);
            let per_cell = if ge {
                ge_parallel_timed_faulted(&cluster, &net, &plan, n)
            } else {
                mm_parallel_timed_faulted(&cluster, &net, &plan, n)
            };
            let cell = format!("{kernel} n={n} severity {}", severity.label());
            let shared = recording.faulted(&net, &plan);
            assert_bits_eq(&shared, &per_cell, &cell);
            assert_bits_eq(&shared, &fresh(Some(&plan)), &format!("{cell}, fresh body"));
        }

        let recoverable = |plan: &FaultPlan, policy: RecoveryPolicy| {
            if ge {
                ge_parallel_timed_recoverable(&cluster, &net, plan, policy, n)
            } else {
                mm_parallel_timed_recoverable(&cluster, &net, plan, policy, n)
            }
        };
        let clean = FaultPlan::new(seed);
        let per_cell = recoverable(&clean, RecoveryPolicy::ShrinkRebalance);
        let cell = format!("{kernel} n={n} clean row");
        let shared = recording.recover(&net, &clean, None);
        assert_bits_eq(&shared, &per_cell, &cell);
        assert_bits_eq(&shared.timing, &fresh(None), &format!("{cell}, fresh body"));
        assert_eq!((shared.overhead, shared.death), (RecoveryOverhead::default(), None), "{cell}");

        let est = estimated_run_secs(&cluster, if ge { ge_work(n) } else { mm_work(n) });
        let delta = checkpoint_delta(ge, &cluster, n);
        for factor in MTBF_FACTORS {
            let plan = FaultPlan::new(seed).with_mtbf(factor * est);
            let interval_secs = daly_interval(factor * est, delta);
            let per_cell = recoverable(&plan, RecoveryPolicy::CheckpointRestart { interval_secs });
            let cell = format!("{kernel} n={n} checkpoint/restart at {factor}xT");
            let shared = recording.recover(&net, &plan, Some(interval_secs));
            assert_bits_eq(&shared, &per_cell, &cell);
            checkpointed[usize::from(shared.overhead.checkpoint_secs > 0.0)] += 1;
        }
    }
    assert!(checkpointed.iter().all(|&cells| cells > 0), "{kernel}: {checkpointed:?}");
}

#[test]
fn one_ge_recording_prices_every_same_cluster_cell() {
    check_kernel(true, &[260, 1100, 2600]);
}

#[test]
fn one_mm_recording_prices_every_same_cluster_cell() {
    check_kernel(false, &[48, 330, 900]);
}
