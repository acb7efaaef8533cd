//! Assembling and exporting the telemetry documents (`--stats-out`,
//! `--profile-out`) and the per-id stderr summaries.
//!
//! [`report`] merges the three counter sources — the engine
//! (`hetsim_mpi::telemetry`), the memo cache ([`crate::memo`]), and the
//! worker pool ([`crate::pool`]) — into one
//! [`hetsim_obs::TelemetryReport`]. The stats document is deterministic
//! (byte-identical across runs and `--jobs`; engine-dependent sections
//! change only with `--no-analytic`). The profile document is the
//! opposite by design: wall-clock laps and per-worker cell counts,
//! flagged `"deterministic": false` (DESIGN.md §11).

use crate::stopwatch::Stopwatch;
use crate::{memo, pool};
use hetsim_obs::{Json, MemoKernelStats, PoolStats, TelemetryReport};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Snapshots every deterministic counter into one combined report.
pub fn report() -> TelemetryReport {
    let memo = memo::snapshot()
        .into_iter()
        .map(|(kernel, c)| {
            (
                kernel.to_string(),
                MemoKernelStats {
                    touches: c.touches,
                    entries: c.entries,
                    hits: c.touches - c.entries,
                    bypasses: c.bypasses,
                },
            )
        })
        .collect();
    let p = pool::snapshot();
    TelemetryReport {
        engine: hetsim_mpi::telemetry::snapshot(),
        memo,
        pool: PoolStats {
            batches: p.batches,
            cells: p.cells,
            queue_high_water: p.queue_high_water,
        },
    }
}

/// Writes the deterministic stats document (`--stats-out`).
pub fn write_stats(path: &Path, report: &TelemetryReport) -> io::Result<()> {
    std::fs::write(path, format!("{}\n", report.to_json()))
}

/// Writes the wall-clock profile document (`--profile-out`). Everything
/// in it is non-deterministic except the shape; the document says so
/// itself (`"deterministic": false`).
pub fn write_profile(path: &Path, watch: &Stopwatch) -> io::Result<()> {
    let (record_ns, simulate_ns) = hetsim_mpi::telemetry::wall_clock_ns();
    let ids = watch
        .laps()
        .iter()
        .map(|(label, us)| (label.clone(), Json::int(*us)))
        .collect::<BTreeMap<_, _>>();
    let worker_cells = Json::Arr(pool::worker_cells().into_iter().map(Json::int).collect());
    let doc = Json::Obj(
        [
            ("deterministic".to_string(), Json::Bool(false)),
            ("ids".to_string(), Json::Obj(ids)),
            (
                "phases".to_string(),
                Json::Obj(
                    [
                        ("record_us".to_string(), Json::int(record_ns / 1_000)),
                        ("simulate_us".to_string(), Json::int(simulate_ns / 1_000)),
                    ]
                    .into_iter()
                    .collect(),
                ),
            ),
            (
                "pool".to_string(),
                Json::Obj(
                    [
                        ("worker_cells".to_string(), worker_cells),
                        ("workers".to_string(), Json::int(pool::jobs() as u64)),
                    ]
                    .into_iter()
                    .collect(),
                ),
            ),
            ("schema".to_string(), Json::str("hetscale-profile/1")),
            ("total_us".to_string(), Json::int(watch.total_us())),
        ]
        .into_iter()
        .collect(),
    );
    std::fs::write(path, format!("{doc}\n"))
}

/// Per-id telemetry deltas for the one-line stderr summaries.
///
/// Counters are process-cumulative; this tracks the totals at the last
/// [`IdSummaries::line`] call so each line reports only the id's own
/// contribution.
pub struct IdSummaries {
    analytic_cells: u64,
    fallbacks: u64,
    memo_touches: u64,
    memo_hits: u64,
    agg_ranks: u64,
    ranks: u64,
}

struct IdDelta {
    analytic: u64,
    fallbacks: u64,
    touches: u64,
    hits: u64,
    agg_ranks: u64,
    ranks: u64,
}

impl IdSummaries {
    /// Starts from the counters' current state.
    pub fn new() -> IdSummaries {
        let mut s = IdSummaries {
            analytic_cells: 0,
            fallbacks: 0,
            memo_touches: 0,
            memo_hits: 0,
            agg_ranks: 0,
            ranks: 0,
        };
        s.advance();
        s
    }

    fn advance(&mut self) -> IdDelta {
        let engine = hetsim_mpi::telemetry::snapshot();
        let memo = memo::snapshot();
        let touches: u64 = memo.values().map(|c| c.touches).sum();
        let hits: u64 = memo.values().map(|c| c.touches - c.entries).sum();
        let analytic = engine.analytic_cells();
        let fallbacks = engine.event_driven_fallback;
        let delta = IdDelta {
            analytic: analytic - self.analytic_cells,
            fallbacks: fallbacks - self.fallbacks,
            touches: touches - self.memo_touches,
            hits: hits - self.memo_hits,
            agg_ranks: engine.aggregated_ranks - self.agg_ranks,
            ranks: engine.ranks_simulated - self.ranks,
        };
        self.analytic_cells = analytic;
        self.fallbacks = fallbacks;
        self.memo_touches = touches;
        self.memo_hits = hits;
        self.agg_ranks = engine.aggregated_ranks;
        self.ranks = engine.ranks_simulated;
        delta
    }

    /// The summary line for everything since the previous call:
    /// `telemetry {id}: analytic P%, memo hit Q%, agg R%` (`-` where the
    /// id priced nothing eligible; `agg` is the share of simulated ranks
    /// priced through class-aggregated representatives).
    pub fn line(&mut self, id: &str) -> String {
        let d = self.advance();
        let coverage = percent(d.analytic, d.analytic + d.fallbacks);
        let hit_rate = percent(d.hits, d.touches);
        let agg = percent(d.agg_ranks, d.ranks);
        format!("telemetry {id}: analytic {coverage}, memo hit {hit_rate}, agg {agg}")
    }
}

impl Default for IdSummaries {
    fn default() -> IdSummaries {
        IdSummaries::new()
    }
}

fn percent(num: u64, denom: u64) -> String {
    if denom == 0 {
        return "-".to_string();
    }
    let value = 100.0 * num as f64 / denom as f64;
    if value.fract() == 0.0 {
        format!("{value:.0}%")
    } else {
        format!("{value:.1}%")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_formats_integers_fractions_and_empty_denominators() {
        assert_eq!(percent(3, 0), "-");
        assert_eq!(percent(3, 3), "100%");
        assert_eq!(percent(0, 4), "0%");
        assert_eq!(percent(7, 8), "87.5%");
    }

    #[test]
    fn report_merges_all_three_sources() {
        let report = report();
        // Hits are derived, never stored: touches - entries per kernel.
        for stats in report.memo.values() {
            assert_eq!(stats.hits, stats.touches - stats.entries);
        }
        // The document serializes and parses under the declared schema.
        let text = report.to_json().to_string();
        let parsed = Json::parse(&text).expect("stats document parses");
        let doc = parsed.as_obj().expect("object top level");
        assert_eq!(doc["schema"].as_str(), Some("hetscale-telemetry/3"));
    }

    #[test]
    fn id_summaries_report_deltas_not_totals() {
        let mut sums = IdSummaries::new();
        // No counter movement between construction and the first line:
        // every denominator for this "id" may be zero or tiny, but the
        // line always has the fixed shape.
        let line = sums.line("t0");
        assert!(line.starts_with("telemetry t0: analytic "));
        assert!(line.contains(", memo hit "));
        assert!(line.contains(", agg "));
    }
}
