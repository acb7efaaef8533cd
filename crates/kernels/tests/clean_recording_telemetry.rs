//! Telemetry of a shared clean recording. Pricing a size's fault plans
//! and checkpoint policies from one [`CleanRecording`] must report
//! exactly what the per-cell entry points report for the same cells:
//! one engine simulation per cell, on the same path (lockstep, or with
//! the analyzer off, the event-driven mode each entry point labels),
//! with the same ranks, classes, events and retry charges. The counters
//! and the analytic switch are process-global, so this check lives in
//! its own test binary with a single test.

use hetsim_cluster::faults::{checkpoint_cost_secs, daly_interval, FaultPlan, RecoveryPolicy};
use hetsim_cluster::sunwulf;
use hetsim_mpi::set_analytic_enabled;
use hetsim_mpi::telemetry::{snapshot, EngineTelemetry};
use kernels::ge::{ge_parallel_timed_faulted, ge_parallel_timed_recoverable};
use kernels::mm::{mm_parallel_timed_faulted, mm_parallel_timed_recoverable};
use kernels::recover::estimated_run_secs;
use kernels::workload::{ge_work, mm_work};
use kernels::CleanRecording;

/// The counters a cell moves, as deltas between two snapshots.
fn moved(before: &EngineTelemetry, after: &EngineTelemetry) -> [u64; 15] {
    let fallbacks = |t: &EngineTelemetry| t.fallback_reasons.values().sum::<u64>();
    [
        after.analytic_sims - before.analytic_sims,
        after.event_driven_fallback - before.event_driven_fallback,
        after.event_driven_forced - before.event_driven_forced,
        after.event_driven_traced - before.event_driven_traced,
        after.event_driven_faulted - before.event_driven_faulted,
        after.threaded_sims - before.threaded_sims,
        after.ranks_simulated - before.ranks_simulated,
        after.classes_simulated - before.classes_simulated,
        after.p2p_events - before.p2p_events,
        after.collective_events - before.collective_events,
        after.parks - before.parks,
        after.retry_events - before.retry_events,
        after.retry_attempts - before.retry_attempts,
        after.retry_charge_us - before.retry_charge_us,
        fallbacks(after) - fallbacks(before),
    ]
}

/// The cells of one `(kernel, n)` grid point: fault plans priced as
/// faulted runs, then `(plan, checkpoint interval)` recovery runs.
fn cells(ge: bool, n: usize, p: usize) -> (Vec<FaultPlan>, Vec<(FaultPlan, Option<f64>)>) {
    let straggle = |plan: FaultPlan| plan.with_straggler(1, 0.5).with_straggler(5, 0.5);
    let faulted = vec![
        FaultPlan::new(3),
        straggle(FaultPlan::new(3)),
        FaultPlan::new(3).with_link_drops(20),
        straggle(FaultPlan::new(3).with_link_drops(20)),
    ];
    let cluster = if ge { sunwulf::ge_config(p) } else { sunwulf::mm_config(p) };
    let est = estimated_run_secs(&cluster, if ge { ge_work(n) } else { mm_work(n) });
    let delta = checkpoint_cost_secs((n * n * 8 / p) as u64);
    let mut recover = vec![(FaultPlan::new(9), None)];
    for factor in [4.0, 1.0, 0.25] {
        let plan = FaultPlan::new(9).with_mtbf(factor * est);
        recover.push((plan, Some(daly_interval(factor * est, delta))));
    }
    (faulted, recover)
}

/// Engine-counter deltas of pricing the grid cell by cell through the
/// per-cell entry points, and through one recording per size.
fn grid_deltas(ge: bool, sizes: &[usize], p: usize) -> ([u64; 15], [u64; 15]) {
    let cluster = if ge { sunwulf::ge_config(p) } else { sunwulf::mm_config(p) };
    let net = sunwulf::sunwulf_network();
    let start = snapshot();
    for &n in sizes {
        let (faulted, recover) = cells(ge, n, p);
        for plan in &faulted {
            if ge {
                ge_parallel_timed_faulted(&cluster, &net, plan, n);
            } else {
                mm_parallel_timed_faulted(&cluster, &net, plan, n);
            }
        }
        for (plan, checkpoint) in &recover {
            let policy = match *checkpoint {
                Some(interval_secs) => RecoveryPolicy::CheckpointRestart { interval_secs },
                None => RecoveryPolicy::ShrinkRebalance,
            };
            if ge {
                ge_parallel_timed_recoverable(&cluster, &net, plan, policy, n);
            } else {
                mm_parallel_timed_recoverable(&cluster, &net, plan, policy, n);
            }
        }
    }
    let one_by_one = snapshot();
    for &n in sizes {
        let recording =
            if ge { CleanRecording::ge(&cluster, n) } else { CleanRecording::mm(&cluster, n) };
        let (faulted, recover) = cells(ge, n, p);
        for plan in &faulted {
            recording.faulted(&net, plan);
        }
        for (plan, checkpoint) in &recover {
            recording.recover(&net, plan, *checkpoint);
        }
    }
    let shared = snapshot();
    (moved(&start, &one_by_one), moved(&one_by_one, &shared))
}

#[test]
fn a_shared_recording_reports_what_its_cells_report_one_by_one() {
    let p = 8;
    let grids: [(bool, &[usize]); 2] = [(true, &[96, 260, 700]), (false, &[48, 176, 640])];
    for analytic in [true, false] {
        set_analytic_enabled(analytic);
        for (ge, sizes) in grids {
            let (alone, shared) = grid_deltas(ge, sizes, p);
            let cells = 8 * sizes.len() as u64;
            let sims = if analytic { alone[0] } else { alone[2] + alone[4] };
            assert_eq!(sims, cells, "one simulation per cell (ge {ge}, analytic {analytic})");
            if !analytic {
                // Faulted runs keep their label; recovery runs without
                // runtime faults replay as plain forced runs.
                assert_eq!(alone[4], 4 * sizes.len() as u64, "ge {ge}");
            }
            assert_eq!(shared, alone, "ge {ge}, analytic {analytic}");
        }
    }
    set_analytic_enabled(true);
}
