//! `perfbench-harness` — the in-process half of the hetscale benchmark.
//!
//! ```text
//! perfbench-harness --workload paper|mega|faults-recover --seed N
//!                   --stdout FILE [--trace] [--spans-out FILE]
//! ```
//!
//! Always: rates the host (`marked_speed::host::rate_host`), runs the
//! workload's cross-layer correctness sample, and re-evaluates every
//! required-N answer in FILE (the CLI's stdout for the workload) on the
//! exact engine. With `--trace`: also drives the workload's cells
//! through each layer's public functions under spans and reports
//! self time and executed work per layer. Prints one JSON object.
//!
//! It selects engine paths by calling them directly and never flips
//! the process-global analytic switch.

mod cells;
mod checks;
mod drive;
mod residual;
mod spans;

use hetsim_obs::Json;
use spans::Tracer;
use std::collections::BTreeMap;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench-harness: {msg}");
    eprintln!(
        "usage: perfbench-harness --workload paper|mega|faults-recover --seed N --stdout FILE \
         [--trace] [--spans-out FILE]"
    );
    std::process::exit(2);
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut stdout_path = None;
    let mut spans_path = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage(&format!("{arg} needs a value")));
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(value().parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--stdout" => stdout_path = Some(value()),
            "--spans-out" => spans_path = Some(value()),
            "--trace" => trace = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !["paper", "mega", "faults-recover"].contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let stdout_path = stdout_path.unwrap_or_else(|| usage("--stdout is required"));
    let stdout = std::fs::read_to_string(&stdout_path)
        .unwrap_or_else(|e| usage(&format!("cannot read {stdout_path}: {e}")));
    bench_tables::seed::set_plan_seed(seed).expect("the seed is set once");

    let host = marked_speed::host::rate_host(3);

    let tracer = Tracer::new();
    let mut checks = checks::Checks::default();
    checks::run(&workload, &mut checks, &tracer);
    let residuals = residual::run(&workload, &stdout, &mut checks);
    let work = trace.then(|| drive::run(&workload, &tracer));

    let mut doc = BTreeMap::new();
    doc.insert("attempted".to_string(), Json::int(checks.attempted));
    doc.insert(
        "failures".to_string(),
        Json::Arr(checks.failures.iter().map(|f| Json::str(f.as_str())).collect()),
    );
    doc.insert("oracle_cells".to_string(), Json::int(checks.oracle_cells));
    doc.insert("ge_residual".to_string(), num(residuals.ge));
    doc.insert("mm_residual".to_string(), num(residuals.mm));
    doc.insert(
        "answers".to_string(),
        Json::Arr(
            residuals
                .answers
                .iter()
                .map(|(label, n, e, target)| {
                    Json::Arr(vec![
                        Json::str(label.as_str()),
                        Json::int(*n as u64),
                        num(*e),
                        num(*target),
                    ])
                })
                .collect(),
        ),
    );
    doc.insert("host_mflops".to_string(), num(host.marked_speed_mflops));
    let layers: BTreeMap<String, Json> =
        tracer.self_secs_by_layer().into_iter().map(|(k, v)| (k, num(v))).collect();
    doc.insert("layer_self_s".to_string(), Json::Obj(layers));
    let names: BTreeMap<String, Json> =
        tracer.self_secs_by_name().into_iter().map(|(k, v)| (k.to_string(), num(v))).collect();
    doc.insert("span_self_s".to_string(), Json::Obj(names));
    if let Some(w) = work {
        let counters = [
            ("ge_rounds", w.ge_rounds),
            ("class_rounds", w.class_rounds),
            ("agg_classes", w.agg_classes),
            ("agg_ranks", w.agg_ranks),
            ("solves", w.solves),
            ("evals", w.evals),
            ("replay_events", w.replay_events),
        ];
        doc.insert(
            "work".to_string(),
            Json::Obj(counters.iter().map(|(k, v)| (k.to_string(), Json::int(*v))).collect()),
        );
        doc.insert(
            "drive_paths".to_string(),
            Json::Obj(w.paths.iter().map(|(k, v)| (k.to_string(), Json::int(*v))).collect()),
        );
    }
    if let Some(path) = spans_path {
        std::fs::write(&path, format!("{}\n", tracer.to_json()))
            .unwrap_or_else(|e| usage(&format!("cannot write {path}: {e}")));
    }
    println!("{}", Json::Obj(doc));
}
