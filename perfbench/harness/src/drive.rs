//! Drives each workload's cells through the layers' public functions,
//! one span per call, and counts the executed work at the same
//! boundaries.
//!
//! The cell families mirror what the CLI prices for the workload (same
//! clusters, grids, targets and fault plans, from `bench_tables::params`
//! and the experiment modules); where a grid is private to an
//! experiment module it is repeated here and named as such.

use crate::cells::{mega_cluster, speeds_mflops, survivors};
use crate::spans::Tracer;
use bench_tables::experiments::faults::{Severity, GE_FAULTS_TARGET};
use bench_tables::experiments::recover::{
    DALY_GRID, DALY_SEED_SALT, MTBF_FACTORS, RECOVER_SEED_SALT,
};
use bench_tables::experiments::x2::{power_sizes, stencil_sizes};
use bench_tables::params::{
    mega_ge_sizes, mega_mm_sizes, mega_power_sizes, mega_presets, ExperimentParams,
    MEGA_POWER_ITERS,
};
use bench_tables::systems::{power_iters, stencil_iters};
use hetpart::{
    proportional_counts_classed, BlockDistribution, ClassedCyclicDeal, CyclicDistribution,
    Distribution,
};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::{checkpoint_cost_secs, daly_interval, FaultPlan, RecoveryPolicy};
use hetsim_cluster::network::JitteredNetwork;
use hetsim_cluster::sunwulf;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::{record_spmd, run_spmd_fast_faulted};
use kernels::analytic::{
    ge_closed_form, ge_closed_form_many, mm_closed_form, power_closed_form, stencil_closed_form,
};
use kernels::ge::{
    ge_parallel_timed_faulted_traced, ge_parallel_timed_recoverable, ge_parallel_timed_traced,
    ge_timed_body,
};
use kernels::mm::{mm_parallel_timed_faulted_traced, mm_parallel_timed_recoverable, mm_timed_body};
use kernels::power::power_work;
use kernels::recover::estimated_run_secs;
use kernels::stencil::stencil_work;
use kernels::workload::{ge_work, mm_work};
use kernels::{ge_mega, mm_mega, power_mega};
use scalability::measure::Measurement;
use scalability::metric::EfficiencyCurve;

/// Executed-work counters gathered at the span boundaries.
#[derive(Default)]
pub struct Work {
    /// GE elimination rounds walked by the per-rank closed form (one per
    /// network in a batched call).
    pub ge_rounds: u64,
    /// Σ rounds × classes folded by the aggregated forms (GE: N rounds,
    /// MM: one phase set, power: iters + 1 phases).
    pub class_rounds: u64,
    /// Σ classes the aggregated forms walked, one term per call.
    pub agg_classes: u64,
    /// Σ ranks those calls represent.
    pub agg_ranks: u64,
    /// Trend-line inversions solved.
    pub solves: u64,
    /// Engine evaluations feeding those inversions.
    pub evals: u64,
    /// Events (collective ops per rank + point-to-point ops) the
    /// event-driven replays dispatched.
    pub replay_events: u64,
    /// Engine runs the drive made, per path, as the engine's own
    /// telemetry counts them: (path name, runs).
    pub paths: Vec<(&'static str, u64)>,
}

/// Engine runs per path so far in this process.
fn engine_paths() -> [(&'static str, u64); 5] {
    let t = hetsim_mpi::telemetry::snapshot();
    [
        ("aggregated", t.aggregated_sims),
        ("analytic", t.analytic_sims),
        ("fallback", t.event_driven_fallback),
        ("faulted", t.event_driven_faulted),
        ("traced", t.event_driven_traced),
    ]
}

fn engine_events() -> u64 {
    let t = hetsim_mpi::telemetry::snapshot();
    t.collective_events + t.p2p_events
}

fn measurement(n: usize, work: f64, time: SimTime, c_flops: f64) -> Measurement {
    Measurement { n, work_flops: work, time_secs: time.as_secs(), marked_speed_flops: c_flops }
}

/// One fitted-trend inversion over measured cells.
fn invert(
    tracer: &Tracer,
    work: &mut Work,
    cells: Vec<Measurement>,
    target: f64,
    extrapolate: bool,
) {
    work.solves += 1;
    work.evals += cells.len() as u64;
    let _span = tracer.enter("fit.inversion");
    let curve = EfficiencyCurve::from_measurements(String::new(), cells);
    let degree = ExperimentParams::full().fit_degree;
    let n = if extrapolate {
        curve.required_n_extrapolated(target, degree)
    } else {
        curve.required_n(target, degree)
    };
    std::hint::black_box(n.ok());
}

/// Which per-rank closed form a ladder prices.
#[derive(Clone, Copy)]
enum Ladder {
    Ge,
    Mm,
    Stencil,
    Power,
}

/// One Sunwulf ladder: every rung × size through the closed form, then
/// one inversion per rung.
fn ladder(
    tracer: &Tracer,
    work: &mut Work,
    kind: Ladder,
    rungs: &[usize],
    sizes: &[usize],
    target: f64,
) {
    let net = sunwulf::sunwulf_network();
    for &p in rungs {
        let cluster = match kind {
            Ladder::Mm => sunwulf::mm_config(p),
            _ => sunwulf::ge_config(p),
        };
        let speeds = speeds_mflops(&cluster);
        let c = cluster.marked_speed_flops();
        let mut cells = Vec::with_capacity(sizes.len());
        for &n in sizes {
            let (t, w) = match kind {
                Ladder::Ge => {
                    let dist =
                        tracer.span("distribute.cyclic", || CyclicDistribution::fine(n, &speeds));
                    work.ge_rounds += n as u64;
                    let t =
                        tracer.span("closed_form.ge", || ge_closed_form(&cluster, &net, n, &dist));
                    (t.makespan, ge_work(n))
                }
                Ladder::Mm => {
                    let dist = tracer
                        .span("distribute.block", || BlockDistribution::proportional(n, &speeds));
                    let t =
                        tracer.span("closed_form.mm", || mm_closed_form(&cluster, &net, n, &dist));
                    (t.makespan, mm_work(n))
                }
                Ladder::Stencil => {
                    let iters = stencil_iters(n);
                    let dist = tracer
                        .span("distribute.block", || BlockDistribution::proportional(n, &speeds));
                    let t = tracer.span("closed_form.stencil", || {
                        stencil_closed_form(&cluster, &net, n, iters, &dist)
                    });
                    (t.makespan, stencil_work(n, iters))
                }
                Ladder::Power => {
                    let iters = power_iters(n);
                    let dist = tracer
                        .span("distribute.block", || BlockDistribution::proportional(n, &speeds));
                    let t = tracer.span("closed_form.power", || {
                        power_closed_form(&cluster, &net, n, iters, &dist)
                    });
                    (t.makespan, power_work(n, iters))
                }
            };
            cells.push(measurement(n, w, t, c));
        }
        invert(tracer, work, cells, target, false);
    }
}

/// The paper's tables: the four Sunwulf ladders and the A6 noise
/// campaigns on closed forms, D1's traced GE runs on record + event
/// replay, and rendering.
fn paper(tracer: &Tracer, work: &mut Work) {
    let params = ExperimentParams::full();
    ladder(tracer, work, Ladder::Ge, &params.ge_ladder, &params.ge_sizes, params.ge_target);
    ladder(tracer, work, Ladder::Mm, &params.mm_ladder, &params.mm_sizes, params.mm_target);
    ladder(tracer, work, Ladder::Stencil, &params.ge_ladder, &stencil_sizes(false), 0.3);
    ladder(tracer, work, Ladder::Power, &params.ge_ladder, &power_sizes(false), 0.3);

    // A6: frozen-noise campaigns on 2 nodes, batched per network set
    // as the ablation prices them (full scale: 4 sigmas x 12 seeds, in
    // chunks of 12 networks).
    let cluster = sunwulf::ge_config(2);
    let speeds = speeds_mflops(&cluster);
    let campaigns: Vec<(f64, u64)> = [0.02, 0.05, 0.10, 0.15]
        .iter()
        .flat_map(|&sigma| (0..12u64).map(move |seed| (sigma, seed)))
        .collect();
    for chunk in campaigns.chunks(12) {
        let nets: Vec<JitteredNetwork<_>> = chunk
            .iter()
            .map(|&(sigma, seed)| JitteredNetwork::new(sunwulf::sunwulf_network(), sigma, seed + 1))
            .collect();
        for &n in &params.ge_sizes {
            let dist = tracer.span("distribute.cyclic", || CyclicDistribution::fine(n, &speeds));
            work.ge_rounds += (n * nets.len()) as u64;
            let out =
                tracer.span("closed_form.ge", || ge_closed_form_many(&cluster, &nets, n, &dist));
            std::hint::black_box(out.len());
        }
    }

    // D1: traced GE runs at N = 384 on every rung (record, then the
    // traced event-driven replay).
    let net = sunwulf::sunwulf_network();
    for &p in &params.ge_ladder {
        let cluster = sunwulf::ge_config(p);
        let (outcome, _) =
            record_then_replay(tracer, work, "replay.traced", "record.traced", || {
                ge_parallel_timed_traced(&cluster, &net, 384)
            });
        std::hint::black_box(outcome.makespan);
    }

    let (t3, t4, _) = bench_tables::experiments::t3t4::table3_and_4(&params);
    let (f2, t5, _) = bench_tables::experiments::f2t5::figure2_and_table5(&params);
    tracer.span("render.tables", || {
        for table in [&t3, &t4, &f2, &t5] {
            std::hint::black_box(format!("{table}"));
        }
    });
}

/// X4 quick: every preset × grid on the aggregated forms, the classed
/// distributions they rest on, and the inversions.
fn mega(tracer: &Tracer, work: &mut Work) {
    let params = ExperimentParams::quick();
    let net = sunwulf::sunwulf_network();
    for preset in mega_presets(true) {
        let cluster = mega_cluster(preset);
        let p = preset.ranks;
        let c = cluster.marked_speed_flops();
        let runs: Vec<(f64, usize)> =
            cluster.classes().iter().map(|k| (k.speed_mflops, k.count)).collect();
        let deal_runs: Vec<(f64, u64)> = runs.iter().map(|&(s, m)| (s, m as u64)).collect();

        let mut cells = Vec::new();
        for n in mega_mm_sizes(p) {
            tracer.span("distribute.classed", || {
                std::hint::black_box(proportional_counts_classed(n, &runs))
            });
            let out = tracer
                .span("aggregated.mm", || mm_mega(&cluster, &net, n))
                .expect("classed network");
            work.class_rounds += out.classes as u64;
            work.agg_classes += out.classes as u64;
            work.agg_ranks += p as u64;
            cells.push(measurement(n, mm_work(n), out.makespan, c));
        }
        invert(tracer, work, cells, params.mm_target, false);

        let mut cells = Vec::new();
        for n in mega_ge_sizes(p) {
            tracer.span("distribute.classed", || {
                std::hint::black_box(ClassedCyclicDeal::counts(n, &deal_runs))
            });
            let out = tracer
                .span("aggregated.ge", || ge_mega(&cluster, &net, n))
                .expect("classed network");
            work.class_rounds += (n * out.classes) as u64;
            work.agg_classes += out.classes as u64;
            work.agg_ranks += p as u64;
            cells.push(measurement(n, ge_work(n), out.makespan, c));
        }
        invert(tracer, work, cells, params.ge_target, true);

        let sizes = mega_power_sizes(p);
        let top = *sizes.last().expect("non-empty grid");
        for (n, iters) in [(sizes[0], MEGA_POWER_ITERS), (top, MEGA_POWER_ITERS), (top, 0)] {
            tracer.span("distribute.classed", || {
                std::hint::black_box(proportional_counts_classed(n, &runs))
            });
            let out = tracer
                .span("aggregated.power", || power_mega(&cluster, &net, n, iters))
                .expect("classed network");
            work.class_rounds += ((iters + 1) * out.classes) as u64;
            work.agg_classes += out.classes as u64;
            work.agg_ranks += p as u64;
        }
    }
}

/// Runs `f` (one engine call that records and then replays) under a
/// `replay.*` span and splits the recording's wall time, as the engine
/// itself accounts it, into a `record.*` child placed at the span's
/// start.
fn record_then_replay<T>(
    tracer: &Tracer,
    work: &mut Work,
    replay: &'static str,
    record: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let events_before = engine_events();
    let guard = tracer.enter(replay);
    let (record_before, _) = hetsim_mpi::telemetry::wall_clock_ns();
    let out = f();
    let (record_after, _) = hetsim_mpi::telemetry::wall_clock_ns();
    tracer.child_at_start(record, record_after - record_before);
    drop(guard);
    work.replay_events += engine_events() - events_before;
    out
}

/// Per-checkpoint cost δ of the GE/MM recovery kernels on `cluster`:
/// the slowest rank's checkpoint of its rows.
fn checkpoint_delta(ge: bool, cluster: &ClusterSpec, n: usize) -> f64 {
    let speeds = speeds_mflops(cluster);
    let rows: Vec<u64> = if ge {
        let d = CyclicDistribution::fine(n, &speeds);
        (0..cluster.size()).map(|r| (d.rows_of(r).len() * (n + 1) * 8) as u64).collect()
    } else {
        let d = BlockDistribution::proportional(n, &speeds);
        (0..cluster.size()).map(|r| (d.range_of(r).len() * n * 8) as u64).collect()
    };
    rows.into_iter().map(checkpoint_cost_secs).fold(0.0, f64::max)
}

/// Recovery sweep size grids (`recover_sizes` in the recover
/// experiment, full scale).
const RECOVER_GE_SIZES: [usize; 6] = [700, 1100, 1700, 2600, 3800, 5200];
const RECOVER_MM_SIZES: [usize; 7] = [48, 96, 176, 330, 640, 1200, 1800];

/// `--faults` + `recover` at full scale: faulted replays of the 8 → 16
/// step under every severity (the sweep and its representative traced
/// run), the clean recovery baseline on the lockstep analyzer, MTBF
/// recovery runs per factor, and the Daly seed campaign. The recover
/// id's own traced decomposition runs are not driven.
fn faults_recover(tracer: &Tracer, work: &mut Work) {
    let params = ExperimentParams::full();
    let net = sunwulf::sunwulf_network();
    let (p_base, p) = (8, 16);

    // Clean base rungs price on the per-rank closed forms.
    ladder(tracer, work, Ladder::Ge, &[p_base], &params.ge_sizes, GE_FAULTS_TARGET);
    ladder(tracer, work, Ladder::Mm, &[p_base], &params.mm_sizes, params.mm_target);

    for severity in Severity::ALL {
        for ge in [true, false] {
            let full = if ge { sunwulf::ge_config(p) } else { sunwulf::mm_config(p) };
            let (cluster, plan) = survivors(full, severity.plan(p));
            let speeds = speeds_mflops(&cluster);
            let sizes = if ge { &params.ge_sizes } else { &params.mm_sizes };
            for &n in sizes {
                let times = if ge {
                    let dist =
                        tracer.span("distribute.cyclic", || CyclicDistribution::fine(n, &speeds));
                    record_then_replay(tracer, work, "replay.faulted", "record.faulted", || {
                        run_spmd_fast_faulted(&cluster, &net, &plan, |t| ge_timed_body(t, &dist, n))
                    })
                } else {
                    let dist = tracer
                        .span("distribute.block", || BlockDistribution::proportional(n, &speeds));
                    record_then_replay(tracer, work, "replay.faulted", "record.faulted", || {
                        run_spmd_fast_faulted(&cluster, &net, &plan, |t| mm_timed_body(t, &dist, n))
                    })
                };
                std::hint::black_box(times.makespan());
            }
            // The representative traced run behind the severity's annex
            // (N = 384 GE / 256 MM in the faults experiment, full scale).
            let (outcome, traces) =
                record_then_replay(tracer, work, "replay.faulted", "record.faulted", || {
                    if ge {
                        ge_parallel_timed_faulted_traced(&cluster, &net, &plan, 384)
                    } else {
                        mm_parallel_timed_faulted_traced(&cluster, &net, &plan, 256)
                    }
                });
            std::hint::black_box((outcome.makespan, traces.len()));
        }
    }

    let seed = bench_tables::seed::plan_seed();
    for ge in [true, false] {
        let cluster = if ge { sunwulf::ge_config(p) } else { sunwulf::mm_config(p) };
        let speeds = speeds_mflops(&cluster);
        let sizes: &[usize] = if ge { &RECOVER_GE_SIZES } else { &RECOVER_MM_SIZES };
        let work_of = |n: usize| if ge { ge_work(n) } else { mm_work(n) };
        let recoverable = |plan: &FaultPlan, policy: RecoveryPolicy, n: usize| {
            if ge {
                ge_parallel_timed_recoverable(&cluster, &net, plan, policy, n)
            } else {
                mm_parallel_timed_recoverable(&cluster, &net, plan, policy, n)
            }
        };
        for &n in sizes {
            let program = if ge {
                let dist =
                    tracer.span("distribute.cyclic", || CyclicDistribution::fine(n, &speeds));
                tracer.span("record.ge", || record_spmd(&cluster, |t| ge_timed_body(t, &dist, n)))
            } else {
                let dist =
                    tracer.span("distribute.block", || BlockDistribution::proportional(n, &speeds));
                tracer.span("record.mm", || record_spmd(&cluster, |t| mm_timed_body(t, &dist, n)))
            };
            let priced =
                tracer.span("lockstep.clean", || program.simulate_analytic(&cluster, &net));
            std::hint::black_box(priced.map(|o| o.makespan()));

            let est = estimated_run_secs(&cluster, work_of(n));
            for factor in MTBF_FACTORS {
                let plan =
                    FaultPlan::new(seed + RECOVER_SEED_SALT + p as u64).with_mtbf(factor * est);
                let interval = daly_interval(factor * est, checkpoint_delta(ge, &cluster, n));
                for policy in [
                    RecoveryPolicy::CheckpointRestart { interval_secs: interval },
                    RecoveryPolicy::ShrinkRebalance,
                ] {
                    let out = record_then_replay(
                        tracer,
                        work,
                        "replay.recover",
                        "record.recover",
                        || recoverable(&plan, policy, n),
                    );
                    std::hint::black_box(out.timing.makespan);
                }
            }
        }

        // Daly campaign at the representative size.
        let n = if ge { 1536 } else { 1024 };
        let est = estimated_run_secs(&cluster, work_of(n));
        let daly = daly_interval(est, checkpoint_delta(ge, &cluster, n));
        for mult in DALY_GRID {
            for s in 0..24u64 {
                let plan = FaultPlan::new(seed + DALY_SEED_SALT + s).with_mtbf(p as f64 * est);
                let policy = RecoveryPolicy::CheckpointRestart { interval_secs: mult * daly };
                let out =
                    record_then_replay(tracer, work, "replay.recover", "record.recover", || {
                        recoverable(&plan, policy, n)
                    });
                std::hint::black_box(out.timing.makespan);
            }
        }
    }
}

/// Drives the workload and returns its executed-work counters.
pub fn run(workload: &str, tracer: &Tracer) -> Work {
    let mut work = Work::default();
    let before = engine_paths();
    match workload {
        "paper" => paper(tracer, &mut work),
        "mega" => mega(tracer, &mut work),
        "faults-recover" => faults_recover(tracer, &mut work),
        other => unreachable!("unknown workload {other}"),
    }
    work.paths = engine_paths()
        .iter()
        .zip(before)
        .map(|(&(name, after), (_, b))| (name, after - b))
        .collect();
    work
}
