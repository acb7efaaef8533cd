//! Cross-layer correctness: a fixed sample of each workload's cells,
//! priced on its production layer, on the event-driven replay, on the
//! lockstep analyzer where it accepts, and on the threaded `run_spmd`
//! oracle. Every makespan and per-rank clock must agree bit for bit.

use crate::cells::{mega_cluster, speeds_mflops, survivors};
use crate::spans::Tracer;
use bench_tables::experiments::faults::Severity;
use bench_tables::experiments::recover::{ge_observed_inputs, mm_observed_inputs};
use bench_tables::params::{
    mega_ge_sizes, mega_mm_sizes, mega_power_sizes, ExperimentParams, MegaPreset, MEGA_POWER_ITERS,
};
use bench_tables::systems::{power_iters, stencil_iters};
use hetpart::{BlockDistribution, CyclicDistribution};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::sunwulf;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::{record_spmd, run_spmd, run_spmd_faulted, SpmdOutcome};
use kernels::analytic::{ge_closed_form, mm_closed_form, power_closed_form, stencil_closed_form};
use kernels::ge::{
    ge_parallel_timed_faulted, ge_parallel_timed_recoverable, ge_parallel_timed_recoverable_traced,
    ge_timed_body,
};
use kernels::mm::{
    mm_parallel_timed_faulted, mm_parallel_timed_recoverable, mm_parallel_timed_recoverable_traced,
    mm_timed_body,
};
use kernels::power::power_timed_body;
use kernels::stencil::stencil_timed_body;
use kernels::{ge_mega, mm_mega, power_mega};

/// Outcome of the check set: attempted checks, the failures by name,
/// and how many cells the threaded oracle priced.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub oracle_cells: u64,
}

impl Checks {
    pub fn expect(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures.push(name.to_string());
        }
    }

    fn same_clocks(&mut self, name: &str, a: &[SimTime], b: &[SimTime]) {
        let bits = |v: &[SimTime]| v.iter().map(|t| t.as_secs().to_bits()).collect::<Vec<_>>();
        self.expect(name, bits(a) == bits(b));
    }

    fn same_time(&mut self, name: &str, a: SimTime, b: SimTime) {
        self.expect(name, a.as_secs().to_bits() == b.as_secs().to_bits());
    }
}

/// Which kernel skeleton a sampled cell runs.
#[derive(Clone, Copy)]
enum Kernel {
    Ge,
    Mm,
    Power,
    Stencil,
}

/// Per-rank closed form, lockstep analyzer, event-driven replay and
/// threaded oracle on one fault-free cell.
fn four_way<N: NetworkModel>(
    checks: &mut Checks,
    tracer: &Tracer,
    kernel: Kernel,
    cluster: &ClusterSpec,
    net: &N,
    n: usize,
) {
    let speeds = speeds_mflops(cluster);
    let cyclic = CyclicDistribution::fine(n, &speeds);
    let block = BlockDistribution::proportional(n, &speeds);
    let (tag, closed, program, oracle) = match kernel {
        Kernel::Ge => (
            "ge",
            ge_closed_form(cluster, net, n, &cyclic),
            record_spmd(cluster, |t| ge_timed_body(t, &cyclic, n)),
            tracer.span("oracle.ge", || run_spmd(cluster, net, |r| ge_timed_body(r, &cyclic, n))),
        ),
        Kernel::Mm => (
            "mm",
            mm_closed_form(cluster, net, n, &block),
            record_spmd(cluster, |t| mm_timed_body(t, &block, n)),
            tracer.span("oracle.mm", || run_spmd(cluster, net, |r| mm_timed_body(r, &block, n))),
        ),
        Kernel::Power => {
            let iters = power_iters(n);
            (
                "power",
                power_closed_form(cluster, net, n, iters, &block),
                record_spmd(cluster, |t| power_timed_body(t, &block, n, iters)),
                tracer.span("oracle.power", || {
                    run_spmd(cluster, net, |r| power_timed_body(r, &block, n, iters))
                }),
            )
        }
        Kernel::Stencil => {
            let iters = stencil_iters(n);
            (
                "stencil",
                stencil_closed_form(cluster, net, n, iters, &block),
                record_spmd(cluster, |t| stencil_timed_body(t, &block, n, iters)),
                tracer.span("oracle.stencil", || {
                    run_spmd(cluster, net, |r| stencil_timed_body(r, &block, n, iters))
                }),
            )
        }
    };
    checks.oracle_cells += 1;
    let cell = format!("{tag} p={} n={n}", cluster.size());
    let replay = program.simulate_event_driven(cluster, net);
    checks.same_clocks(&format!("{cell}: closed form vs oracle"), &closed.times, &oracle.times);
    checks.same_clocks(&format!("{cell}: event replay vs oracle"), &replay.times, &oracle.times);
    checks.same_time(&format!("{cell}: makespan"), closed.makespan, oracle.makespan());
    match program.simulate_analytic(cluster, net) {
        Some(lockstep) => checks.same_clocks(
            &format!("{cell}: lockstep vs oracle"),
            &lockstep.times,
            &oracle.times,
        ),
        None => checks.expect(&format!("{cell}: lockstep analyzer accepts"), false),
    }
}

/// The Sunwulf ladder cells the paper's tables price: GE, MM, power and
/// stencil at a small, a middle and a large rung.
fn paper(checks: &mut Checks, tracer: &Tracer) {
    let net = sunwulf::sunwulf_network();
    let params = ExperimentParams::full();
    for (p, ge_n, mm_n) in
        [(2, params.ge_sizes[2], params.mm_sizes[3]), (8, 700, 96), (32, 420, 240)]
    {
        let ge = sunwulf::ge_config(p);
        four_way(checks, tracer, Kernel::Ge, &ge, &net, ge_n);
        four_way(checks, tracer, Kernel::Power, &ge, &net, mm_n);
        four_way(checks, tracer, Kernel::Stencil, &ge, &net, mm_n);
        four_way(checks, tracer, Kernel::Mm, &sunwulf::mm_config(p), &net, mm_n);
    }
}

/// The 10³-rank HEET preset, materialized: the aggregated forms against
/// the per-rank closed forms and the event replay at each grid's
/// smallest size.
fn mega(checks: &mut Checks) {
    let net = sunwulf::sunwulf_network();
    let classed = mega_cluster(MegaPreset { ranks: 1_000, zipf: false });
    let spec = classed.materialize();
    let speeds = speeds_mflops(&spec);
    let p = classed.size();

    let n = mega_ge_sizes(p)[0];
    let cyclic = CyclicDistribution::fine(n, &speeds);
    let agg = ge_mega(&classed, &net, n).expect("the Sunwulf network prices per class");
    let closed = ge_closed_form(&spec, &net, n, &cyclic);
    let replay =
        record_spmd(&spec, |t| ge_timed_body(t, &cyclic, n)).simulate_event_driven(&spec, &net);
    checks.same_time("ge_mega vs per-rank closed form", agg.makespan, closed.makespan);
    checks.same_time("ge_mega vs event replay", agg.makespan, replay.makespan());
    checks.same_clocks("ge p=1000: closed form vs event replay", &closed.times, &replay.times);

    let n = mega_mm_sizes(p)[0];
    let block = BlockDistribution::proportional(n, &speeds);
    let agg = mm_mega(&classed, &net, n).expect("the Sunwulf network prices per class");
    let closed = mm_closed_form(&spec, &net, n, &block);
    let replay =
        record_spmd(&spec, |t| mm_timed_body(t, &block, n)).simulate_event_driven(&spec, &net);
    checks.same_time("mm_mega vs per-rank closed form", agg.makespan, closed.makespan);
    checks.same_time("mm_mega vs event replay", agg.makespan, replay.makespan());
    checks.same_clocks("mm p=1000: closed form vs event replay", &closed.times, &replay.times);

    let n = mega_power_sizes(p)[0];
    let iters = MEGA_POWER_ITERS;
    let block = BlockDistribution::proportional(n, &speeds);
    let agg = power_mega(&classed, &net, n, iters).expect("the Sunwulf network prices per class");
    let closed = power_closed_form(&spec, &net, n, iters, &block);
    let replay = record_spmd(&spec, |t| power_timed_body(t, &block, n, iters))
        .simulate_event_driven(&spec, &net);
    checks.same_time("power_mega vs per-rank closed form", agg.makespan, closed.makespan);
    checks.same_time("power_mega vs event replay", agg.makespan, replay.makespan());
    checks.same_clocks("power p=1000: closed form vs event replay", &closed.times, &replay.times);
}

fn oracle_faulted<R: Send>(
    checks: &mut Checks,
    tracer: &Tracer,
    name: &str,
    production: &[SimTime],
    oracle: impl FnOnce() -> SpmdOutcome<R>,
) {
    let oracle = tracer.span("oracle.faulted", oracle);
    checks.oracle_cells += 1;
    checks.same_clocks(name, production, &oracle.times);
}

/// The scaled fault-sweep configuration under every severity (the
/// faulted event-driven replay against the faulted threaded oracle),
/// the clean recovery baseline (lockstep analyzer, closed form, replay,
/// oracle), and the two observed mid-run recovery runs (untraced
/// against traced pricing).
fn faults_recover(checks: &mut Checks, tracer: &Tracer) {
    let net = sunwulf::sunwulf_network();
    let p = 16;
    let (ge_n, mm_n) = (384, 256);
    for severity in Severity::ALL {
        let label = severity.label();
        let (cluster, plan) = survivors(sunwulf::ge_config(p), severity.plan(p));
        let cyclic = CyclicDistribution::fine(ge_n, &speeds_mflops(&cluster));
        let prod = ge_parallel_timed_faulted(&cluster, &net, &plan, ge_n);
        oracle_faulted(
            checks,
            tracer,
            &format!("ge {label}: faulted replay vs oracle"),
            &prod.times,
            || run_spmd_faulted(&cluster, &net, &plan, |r| ge_timed_body(r, &cyclic, ge_n)),
        );

        let (cluster, plan) = survivors(sunwulf::mm_config(p), severity.plan(p));
        let block = BlockDistribution::proportional(mm_n, &speeds_mflops(&cluster));
        let prod = mm_parallel_timed_faulted(&cluster, &net, &plan, mm_n);
        oracle_faulted(
            checks,
            tracer,
            &format!("mm {label}: faulted replay vs oracle"),
            &prod.times,
            || run_spmd_faulted(&cluster, &net, &plan, |r| mm_timed_body(r, &block, mm_n)),
        );
    }

    // The clean recovery baseline is the cell family the lockstep
    // analyzer prices in this workload.
    four_way(checks, tracer, Kernel::Ge, &sunwulf::ge_config(p), &net, 700);
    four_way(checks, tracer, Kernel::Mm, &sunwulf::mm_config(p), &net, 176);

    let (cluster, plan, policy, n) = ge_observed_inputs(false);
    let plain = ge_parallel_timed_recoverable(&cluster, &net, &plan, policy, n);
    let (traced, _) = ge_parallel_timed_recoverable_traced(&cluster, &net, &plan, policy, n);
    checks.same_clocks("ge recover: untraced vs traced", &plain.timing.times, &traced.timing.times);
    checks.expect("ge recover: same death", plain.death == traced.death);
    let (cluster, plan, policy, n) = mm_observed_inputs(false);
    let plain = mm_parallel_timed_recoverable(&cluster, &net, &plan, policy, n);
    let (traced, _) = mm_parallel_timed_recoverable_traced(&cluster, &net, &plan, policy, n);
    checks.same_clocks("mm recover: untraced vs traced", &plain.timing.times, &traced.timing.times);
    checks.expect("mm recover: same death", plain.death == traced.death);
}

/// Runs the workload's cross-layer sample.
pub fn run(workload: &str, checks: &mut Checks, tracer: &Tracer) {
    match workload {
        "paper" => paper(checks, tracer),
        "mega" => mega(checks),
        "faults-recover" => faults_recover(checks, tracer),
        other => unreachable!("unknown workload {other}"),
    }
}
