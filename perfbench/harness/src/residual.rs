//! Inversion residuals: for every required-N answer a workload prints
//! (or, where it prints only ψ, every answer its ψ is built from),
//! `|E_s(N) − target|` with `E_s` re-evaluated on the exact engine
//! through `bench_tables::systems`.

use crate::cells::mega_cluster;
use crate::checks::Checks;
use bench_tables::experiments::faults::GE_FAULTS_TARGET;
use bench_tables::experiments::{f2t5, t3t4};
use bench_tables::params::{mega_presets, ExperimentParams};
use bench_tables::systems::{GeSystem, MegaGeSystem, MegaMmSystem, MmSystem};
use bench_tables::table::fnum;
use hetsim_cluster::classed::ClassedCluster;
use hetsim_cluster::sunwulf;
use scalability::metric::{AlgorithmSystem, ScalabilityLadder};

/// Worst residual per kernel plus every evaluated answer.
#[derive(Default)]
pub struct Residuals {
    pub ge: f64,
    pub mm: f64,
    /// `(system label, N, E_s(N), target)` per answer.
    pub answers: Vec<(String, usize, f64, f64)>,
}

impl Residuals {
    fn add(&mut self, ge: bool, sys: &dyn AlgorithmSystem, n: usize, target: f64) {
        let e = sys.measure(n).speed_efficiency();
        let r = (e - target).abs();
        if ge {
            self.ge = self.ge.max(r);
        } else {
            self.mm = self.mm.max(r);
        }
        self.answers.push((sys.label(), n, e, target));
    }
}

/// Rows of the printed table whose title starts with `title`, split on
/// runs of two or more spaces (labels contain single spaces).
fn table_rows(stdout: &str, title: &str) -> Vec<Vec<String>> {
    let mut lines = stdout.lines().skip_while(|l| !l.starts_with(&format!("== {title}")));
    let _ = lines.next();
    let _ = lines.next();
    let _ = lines.next();
    lines
        .take_while(|l| !l.trim().is_empty() && !l.starts_with("  note:"))
        .map(|l| {
            l.split("  ").map(str::trim).filter(|c| !c.is_empty()).map(str::to_string).collect()
        })
        .collect()
}

/// Sunwulf ladders: Table 3's printed GE answers, and the MM answers
/// behind Table 5's ψ (checked against the printed ψ first).
fn paper(stdout: &str, checks: &mut Checks, out: &mut Residuals) {
    let params = ExperimentParams::full();
    let net = sunwulf::sunwulf_network();
    let (_, _, ge_ladder) = t3t4::table3_and_4(&params);
    let rows = table_rows(stdout, "Table 3 ");
    checks.expect("table 3 lists every GE rung", rows.len() == params.ge_ladder.len());
    for (row, &p) in rows.iter().zip(&params.ge_ladder) {
        let n: usize = row.get(1).and_then(|c| c.parse().ok()).unwrap_or(0);
        let expected = ge_ladder.required.iter().find(|r| r.0 == row[0]).map(|r| r.2);
        checks
            .expect(&format!("table 3 {}: printed N is the ladder's", row[0]), expected == Some(n));
        let cluster = sunwulf::ge_config(p);
        out.add(true, &GeSystem::new(&cluster, &net), n, params.ge_target);
    }

    let (_, _, mm_ladder) = f2t5::figure2_and_table5(&params);
    let printed: Vec<String> =
        table_rows(stdout, "Table 5 ").iter().filter_map(|r| r.get(1).cloned()).collect();
    let computed: Vec<String> = mm_ladder.steps.iter().map(|s| fnum(s.psi)).collect();
    checks.expect("table 5 psi matches the MM ladder", printed == computed);
    for (&p, (_, _, n, _)) in params.mm_ladder.iter().zip(&mm_ladder.required) {
        let cluster = sunwulf::mm_config(p);
        out.add(false, &MmSystem::new(&cluster, &net), *n, params.mm_target);
    }
}

/// X4: every printed GE and MM required N on the quick HEET presets.
fn mega(stdout: &str, checks: &mut Checks, out: &mut Residuals) {
    let params = ExperimentParams::quick();
    let net = sunwulf::sunwulf_network();
    let clusters: Vec<ClassedCluster> = mega_presets(true).into_iter().map(mega_cluster).collect();
    for (ge, title, target) in [
        (false, "X4 MM mega inversions", params.mm_target),
        (true, "X4 GE mega inversions", params.ge_target),
    ] {
        let rows = table_rows(stdout, title);
        checks.expect(&format!("{title}: one row per preset"), rows.len() == clusters.len());
        for (row, cluster) in rows.iter().zip(&clusters) {
            let n: Option<usize> = row.get(2).and_then(|c| c.parse().ok());
            let labelled = row[0].ends_with(&cluster.label);
            checks.expect(
                &format!("{title} {}: answered for {}", row[0], cluster.label),
                labelled && n.is_some(),
            );
            let Some(n) = n else { continue };
            if ge {
                out.add(true, &MegaGeSystem::new(cluster, &net), n, target);
            } else {
                out.add(false, &MegaMmSystem::new(cluster, &net), n, target);
            }
        }
    }
}

/// The fault sweep's clean 8 → 16 step: the inversions behind the
/// printed `none` rows, checked against the printed ψ.
fn faults_recover(stdout: &str, checks: &mut Checks, out: &mut Residuals) {
    let params = ExperimentParams::full();
    let net = sunwulf::sunwulf_network();
    let rows = table_rows(stdout, "Faults ");
    for (ge, kernel) in [(true, "GE"), (false, "MM")] {
        let (base, scaled) = if ge {
            (sunwulf::ge_config(8), sunwulf::ge_config(16))
        } else {
            (sunwulf::mm_config(8), sunwulf::mm_config(16))
        };
        let (target, sizes) = if ge {
            (GE_FAULTS_TARGET, &params.ge_sizes)
        } else {
            (params.mm_target, &params.mm_sizes)
        };
        let systems: Vec<Box<dyn AlgorithmSystem + '_>> = if ge {
            vec![Box::new(GeSystem::new(&base, &net)), Box::new(GeSystem::new(&scaled, &net))]
        } else {
            vec![Box::new(MmSystem::new(&base, &net)), Box::new(MmSystem::new(&scaled, &net))]
        };
        let refs: Vec<&dyn AlgorithmSystem> = systems.iter().map(|s| s.as_ref()).collect();
        let ladder = ScalabilityLadder::measure(&refs, target, sizes, params.fit_degree)
            .expect("the clean fault-sweep step reaches its target");
        let printed = rows
            .iter()
            .find(|r| {
                r.first().map(String::as_str) == Some(kernel)
                    && r.get(1).map(String::as_str) == Some("none")
            })
            .and_then(|r| r.get(2).cloned());
        checks.expect(
            &format!("faults {kernel} none: printed psi is the clean ladder's"),
            printed == Some(fnum(ladder.steps[0].psi)),
        );
        for (sys, (_, _, n, _)) in refs.iter().zip(&ladder.required) {
            out.add(ge, *sys, *n, target);
        }
    }
}

/// Evaluates the workload's inversion residuals from its stdout.
pub fn run(workload: &str, stdout: &str, checks: &mut Checks) -> Residuals {
    let mut out = Residuals::default();
    match workload {
        "paper" => paper(stdout, checks, &mut out),
        "mega" => mega(stdout, checks, &mut out),
        "faults-recover" => faults_recover(stdout, checks, &mut out),
        other => unreachable!("unknown workload {other}"),
    }
    out
}
