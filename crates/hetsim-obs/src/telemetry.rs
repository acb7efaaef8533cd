//! The combined engine/memo/pool telemetry document (DESIGN.md §11).
//!
//! `hetsim_mpi::telemetry` counts what the *engine* did; the layers
//! above it (the bench-tables memo cache and experiment worker pool)
//! contribute their own counters. This module merges all three into one
//! [`TelemetryReport`] and serializes it with the same hand-rolled
//! [`Json`] writer the metrics document uses, so the `--stats-out`
//! export inherits the byte-stability contract: sorted keys, integer
//! counters, no floats except the two derived percentages (which are
//! exact ratios of integers and therefore reproduce bit-identically).
//!
//! Determinism splits in two (pinned by `bench-tables/tests/cli.rs`):
//!
//! * **Engine-independent** sections — `memo`, `pool`, closed-form cell
//!   totals — depend only on which cells the experiments price, so they
//!   are byte-identical across runs, `--jobs` values, *and* engines.
//! * **Engine-dependent** sections — path breakdown, park/wake,
//!   fallback reasons — are still byte-identical across runs and
//!   `--jobs`, but change (only) with `--no-analytic`.

use crate::json::Json;
use hetsim_mpi::telemetry::{EngineTelemetry, FallbackReason};
use std::collections::BTreeMap;

/// Memo-cache counters for one kernel label (`bench_tables::memo`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoKernelStats {
    /// Cache lookups against fingerprintable networks.
    pub touches: u64,
    /// Distinct cells ever inserted (first touches).
    pub entries: u64,
    /// Touches served from an existing cell (`touches - entries`).
    pub hits: u64,
    /// Lookups skipped because the network has no fingerprint.
    pub bypasses: u64,
}

/// Experiment worker-pool counters (`bench_tables::pool`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// `run_indexed_on` batches dispatched.
    pub batches: u64,
    /// Cells across those batches.
    pub cells: u64,
    /// Largest single batch (the queue's high-water mark).
    pub queue_high_water: u64,
}

/// The combined deterministic telemetry document behind `--stats-out`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    /// Engine-level counters (`hetsim_mpi::telemetry::snapshot`).
    pub engine: EngineTelemetry,
    /// Memo-cache counters keyed by kernel label.
    pub memo: BTreeMap<String, MemoKernelStats>,
    /// Worker-pool counters.
    pub pool: PoolStats,
}

impl TelemetryReport {
    /// Analytic-path coverage in percent (see
    /// [`EngineTelemetry::analytic_coverage_percent`]).
    pub fn analytic_coverage_percent(&self) -> f64 {
        self.engine.analytic_coverage_percent()
    }

    /// Memo hits as a share of fingerprintable touches, in percent.
    /// No touches reads as full hit rate (nothing was recomputable).
    pub fn memo_hit_percent(&self) -> f64 {
        let touches: u64 = self.memo.values().map(|s| s.touches).sum();
        let hits: u64 = self.memo.values().map(|s| s.hits).sum();
        if touches == 0 {
            100.0
        } else {
            100.0 * hits as f64 / touches as f64
        }
    }

    /// Human-readable warnings: one line per analyzer rejection reason
    /// observed, in [`FallbackReason::ALL`] order. Empty on a fully
    /// analytic run.
    pub fn warnings(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for reason in FallbackReason::ALL {
            if let Some(&count) = self.engine.fallback_reasons.get(reason.name()) {
                let plural = if count == 1 { "" } else { "s" };
                lines.push(format!(
                    "warning: {count} simulation{plural} fell back to the \
                     event-driven engine: {reason}"
                ));
            }
        }
        lines
    }

    /// Aggregated-class rank share in percent (see
    /// [`EngineTelemetry::aggregated_rank_percent`]).
    pub fn aggregated_rank_percent(&self) -> f64 {
        self.engine.aggregated_rank_percent()
    }

    /// Serializes to the stats document (schema `hetscale-telemetry/3`).
    pub fn to_json(&self) -> Json {
        let e = &self.engine;
        let closed_form = e
            .closed_form
            .iter()
            .map(|(kernel, s)| {
                (
                    kernel.clone(),
                    obj([("batches", Json::int(s.batches)), ("cells", Json::int(s.cells))]),
                )
            })
            .collect::<BTreeMap<_, _>>();
        let fallback_reasons = e
            .fallback_reasons
            .iter()
            .map(|(name, &count)| (name.clone(), Json::int(count)))
            .collect::<BTreeMap<_, _>>();
        let memo = self
            .memo
            .iter()
            .map(|(kernel, s)| {
                (
                    kernel.clone(),
                    obj([
                        ("bypasses", Json::int(s.bypasses)),
                        ("entries", Json::int(s.entries)),
                        ("hits", Json::int(s.hits)),
                        ("touches", Json::int(s.touches)),
                    ]),
                )
            })
            .collect::<BTreeMap<_, _>>();
        let engine = obj([
            ("closed_form", Json::Obj(closed_form)),
            (
                "events",
                obj([
                    ("collective", Json::int(e.collective_events)),
                    ("p2p", Json::int(e.p2p_events)),
                ]),
            ),
            ("fallback_reasons", Json::Obj(fallback_reasons)),
            (
                "paths",
                obj([
                    ("aggregated_sims", Json::int(e.aggregated_sims)),
                    ("analytic_sims", Json::int(e.analytic_sims)),
                    (
                        "event_driven",
                        obj([
                            ("fallback", Json::int(e.event_driven_fallback)),
                            ("faulted", Json::int(e.event_driven_faulted)),
                            ("forced", Json::int(e.event_driven_forced)),
                            ("traced", Json::int(e.event_driven_traced)),
                        ]),
                    ),
                    ("threaded_sims", Json::int(e.threaded_sims)),
                ]),
            ),
            (
                "rank_classes",
                obj([
                    ("aggregated_classes", Json::int(e.aggregated_classes)),
                    ("aggregated_ranks", Json::int(e.aggregated_ranks)),
                    ("classes_simulated", Json::int(e.classes_simulated)),
                    ("dedup_factor", Json::Num(e.dedup_factor())),
                    ("ranks_simulated", Json::int(e.ranks_simulated)),
                ]),
            ),
            ("ready_queue", obj([("parks", Json::int(e.parks)), ("wakes", Json::int(e.wakes))])),
            (
                "retries",
                obj([
                    ("attempts", Json::int(e.retry_attempts)),
                    ("charge_us", Json::int(e.retry_charge_us)),
                    ("events", Json::int(e.retry_events)),
                ]),
            ),
        ]);
        let pool = obj([
            ("batches", Json::int(self.pool.batches)),
            ("cells", Json::int(self.pool.cells)),
            ("queue_high_water", Json::int(self.pool.queue_high_water)),
        ]);
        let summary = obj([
            ("aggregated_rank_percent", Json::Num(self.aggregated_rank_percent())),
            ("analytic_coverage_percent", Json::Num(self.analytic_coverage_percent())),
            ("memo_hit_percent", Json::Num(self.memo_hit_percent())),
        ]);
        obj([
            ("engine", engine),
            ("memo", Json::Obj(memo)),
            ("pool", pool),
            ("schema", Json::str("hetscale-telemetry/3")),
            ("summary", summary),
        ])
    }
}

fn obj<const K: usize>(entries: [(&str, Json); K]) -> Json {
    Json::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_mpi::telemetry::ClosedFormStats;

    fn sample() -> TelemetryReport {
        let mut report = TelemetryReport::default();
        report.engine.closed_form.insert("ge".into(), ClosedFormStats { batches: 2, cells: 5 });
        report.engine.analytic_sims = 2;
        report.engine.event_driven_fallback = 2;
        report.engine.fallback_reasons.insert("send-across-sync".into(), 2);
        report.engine.ranks_simulated = 20;
        report.engine.classes_simulated = 5;
        report.engine.aggregated_sims = 1;
        report.engine.aggregated_ranks = 10;
        report.engine.aggregated_classes = 2;
        report
            .memo
            .insert("mm".into(), MemoKernelStats { touches: 10, entries: 6, hits: 4, bypasses: 1 });
        report.pool = PoolStats { batches: 3, cells: 30, queue_high_water: 16 };
        report
    }

    #[test]
    fn percentages_are_exact_ratios() {
        let report = sample();
        assert_eq!(report.analytic_coverage_percent(), 80.0);
        assert_eq!(report.memo_hit_percent(), 40.0);
        assert_eq!(TelemetryReport::default().analytic_coverage_percent(), 100.0);
        assert_eq!(TelemetryReport::default().memo_hit_percent(), 100.0);
    }

    #[test]
    fn warnings_name_the_reason_in_stable_order() {
        let mut report = sample();
        report.engine.fallback_reasons.insert("class-exhausted".into(), 1);
        let lines = report.warnings();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("1 simulation fell back"));
        assert!(lines[0].contains("(class-exhausted)"));
        assert!(lines[1].contains("2 simulations fell back"));
        assert!(lines[1].contains("(send-across-sync)"));
        assert!(TelemetryReport::default().warnings().is_empty());
    }

    #[test]
    fn document_round_trips_and_keeps_its_shape() {
        let report = sample();
        let text = report.to_json().to_string();
        let parsed = Json::parse(&text).expect("self-produced JSON parses");
        let doc = parsed.as_obj().expect("top level is an object");
        assert_eq!(doc["schema"].as_str(), Some("hetscale-telemetry/3"));
        let engine = doc["engine"].as_obj().expect("engine object");
        let paths = engine["paths"].as_obj().expect("paths object");
        assert_eq!(paths["analytic_sims"].as_num(), Some(2.0));
        assert_eq!(paths["aggregated_sims"].as_num(), Some(1.0));
        let classes = engine["rank_classes"].as_obj().expect("rank_classes object");
        assert_eq!(classes["aggregated_ranks"].as_num(), Some(10.0));
        assert_eq!(classes["aggregated_classes"].as_num(), Some(2.0));
        let summary = doc["summary"].as_obj().expect("summary object");
        assert_eq!(summary["aggregated_rank_percent"].as_num(), Some(50.0));
        assert_eq!(summary["analytic_coverage_percent"].as_num(), Some(80.0));
        assert_eq!(summary["memo_hit_percent"].as_num(), Some(40.0));
        // Serialization is a pure function of the report.
        assert_eq!(text, report.to_json().to_string());
    }
}
