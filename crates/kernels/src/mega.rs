//! Mega-scale classed closed forms: MM and power iteration priced on a
//! [`ClassedCluster`] in O(classes) per cell, without materializing a
//! rank vector (DESIGN.md §13).
//!
//! [`mm_closed_form`](crate::mm_closed_form) and
//! [`power_closed_form`](crate::power_closed_form) walk one clock per
//! rank. At 10⁵–10⁷ ranks that walk — and the `BlockDistribution` it
//! prices — is the whole cost of a cell. These evaluators rebuild the
//! same protocols on class-aggregated state instead:
//!
//! * The row distribution comes from
//!   [`proportional_counts_classed`], which splits every speed class
//!   into at most two *(rows, members)* sub-runs and expands, bit for
//!   bit, to the per-rank `proportional_counts` the block distribution
//!   uses.
//! * Rank 0 (root and hub of every collective) is split into its own
//!   singleton subclass — its clock diverges from its speed class at
//!   the first scatter, exactly as its op stream diverges in a
//!   recording.
//! * The phase schedule is listed on a private `ClassPlan`, whose evaluation
//!   performs the per-rank engines' float-op sequence restricted to
//!   class tails (scatter chains batched through exact repeated
//!   addition, gather serialization priced over run-length-encoded
//!   sizes). Its doc comment states the class-monotonicity contract
//!   that makes the tails exact.
//!
//! The `mega_matches_per_rank_*` tests pin both kernels against the
//! per-rank closed forms — and transitively, via
//! `closed_form_matches_engine_*`, against the event-driven engine and
//! the threaded oracle — at every materializable size. Networks that
//! price endpoints individually (jittered, segmented) have no per-class
//! costs and return [`FallbackReason::UnclassedNetwork`].

use crate::analytic::elimination_flops;
use hetpart::{proportional_counts_classed, ClassedCyclicDeal};
use hetsim_cluster::classed::ClassedCluster;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::repeat_add;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::telemetry::{self, EnginePath, EngineReport};
use hetsim_mpi::FallbackReason;

/// The compact result of one mega-scale evaluation: no per-rank
/// vectors, by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MegaOutcome {
    /// Virtual completion time — bit-identical to the per-rank closed
    /// form's makespan on the materialized cluster.
    pub makespan: SimTime,
    /// Subclasses actually walked (≤ 2 · speed classes + 1).
    pub classes: usize,
    /// Ranks the evaluation priced.
    pub ranks: u64,
}

/// The (speed × row-count) subclass decomposition of a classed cluster
/// under the proportional row distribution, rank 0 split off.
struct Subclasses {
    members: Vec<u64>,
    speed_flops: Vec<f64>,
    rows: Vec<usize>,
    p: usize,
}

fn subclasses(cluster: &ClassedCluster, n: usize) -> Subclasses {
    let weight_runs: Vec<(f64, usize)> =
        cluster.classes().iter().map(|c| (c.speed_mflops, c.count)).collect();
    let row_runs = proportional_counts_classed(n, &weight_runs);

    let total = cluster.size();
    let mut members = Vec::with_capacity(row_runs.len() + 1);
    let mut speed_flops = Vec::with_capacity(row_runs.len() + 1);
    let mut rows = Vec::with_capacity(row_runs.len() + 1);
    let mut runs = row_runs.into_iter();
    let mut first = true;
    for class in cluster.classes() {
        // Same float op the materialized NodeSpec performs.
        let speed = class.speed_mflops * 1e6;
        let mut covered = 0usize;
        while covered < class.count {
            let (r, m) = runs.next().expect("runs cover every member");
            if first {
                // Rank 0 is the root and hub of every collective; its
                // clock leaves its speed class at the first scatter.
                members.push(1);
                speed_flops.push(speed);
                rows.push(r);
                if m > 1 {
                    members.push((m - 1) as u64);
                    speed_flops.push(speed);
                    rows.push(r);
                }
                first = false;
            } else {
                members.push(m as u64);
                speed_flops.push(speed);
                rows.push(r);
            }
            covered += m;
        }
    }
    debug_assert!(runs.next().is_none(), "runs must not outlive the classes");
    Subclasses { members, speed_flops, rows, p: total }
}

/// A phase schedule over a [`Subclasses`] layout, evaluated in
/// O(classes + phases) on one representative clock per subclass: its
/// *tail*, the last member in rank order.
///
/// # Why the tail is enough, and exact
///
/// The contract is *class monotonicity*: within a subclass, member
/// clocks are non-decreasing in rank order. It holds at launch (all
/// zero) and every phase offered here preserves it:
///
/// - **Compute** adds the same `fl`-increments to every member (same
///   flops, same speed); `fl(x + c)` is monotone in `x`.
/// - **Broadcast** exits receivers at `max(clock, departure)` —
///   monotone in `clock`.
/// - **Gather** advances each leaf by one class-constant p2p cost and
///   needs only the *maximum* deposit clock at the root.
/// - **Scatter** sends from rank 0 in rank order, so arrivals are
///   non-decreasing along every subclass and `max(clock, arrival)`
///   stays monotone.
///
/// Rank 0 — root and hub of every collective — is subclass 0, a
/// singleton (see [`subclasses`]). Under the contract `max` over a
/// subclass equals its tail, so every rendezvous fold (`max` over all
/// ranks, in rank order) equals the fold over tails: the same `f64`
/// values, hence bit-equal to the per-rank engines. Costs are
/// class-constant only when the network prices transfers by size
/// alone; models that price endpoints individually make
/// [`evaluate`](Self::evaluate) return
/// [`FallbackReason::UnclassedNetwork`].
///
/// # Fan-out corrections
///
/// - The scatter's sender clock is a chain of `fl`-additions, one cost
///   per destination; runs of equal-size sends collapse through
///   [`repeat_add`] (exact batched IEEE-754 repeated addition), with
///   the chain sampled at each tail's slot (splitting a `repeat_add`
///   chain at any point composes exactly).
/// - A gather's serialization cost comes from
///   [`NetworkModel::gather_time_classed`] over the run-length-encoded
///   contribution sizes — bit-identical to the per-rank `gather_time`.
struct ClassPlan<'a> {
    classes: &'a Subclasses,
    phases: Vec<ClassPhase>,
    /// Per-rank op counts one evaluation represents (telemetry).
    collective_ops: u64,
    p2p_ops: u64,
}

/// One phase: exit tails are a pure function of entry tails.
enum ClassPhase {
    /// One compute op of `flops[c]` floating-point operations per class.
    Compute { flops: Vec<f64> },
    /// A broadcast of `count` elements from rank 0.
    Bcast { count: usize },
    /// A gather to rank 0.
    Gather {
        /// `(bytes, count)` rank-order RLE of contribution sizes; rank
        /// 0 opens the first run.
        size_runs: Vec<(u64, u64)>,
        /// Per class: own contribution wire bytes (rank 0's unused).
        leaf_bytes: Vec<u64>,
    },
    /// A scatter from rank 0; arrivals are sampled at each receiving
    /// subclass's tail.
    Scatter {
        /// `(bytes, count)` send-order RLE of rank 0's send sizes.
        send_runs: Vec<(u64, u64)>,
        /// `(slot, class)` tail sample points, ascending by slot: the
        /// chain value after send `slot` is class `class`'s arrival.
        samples: Vec<(u64, u32)>,
    },
}

impl<'a> ClassPlan<'a> {
    fn new(classes: &'a Subclasses) -> ClassPlan<'a> {
        debug_assert_eq!(classes.members[0], 1, "rank 0 is a singleton subclass");
        ClassPlan { classes, phases: Vec::new(), collective_ops: 0, p2p_ops: 0 }
    }

    fn compute(&mut self, flops: Vec<f64>) {
        self.phases.push(ClassPhase::Compute { flops });
    }

    fn bcast(&mut self, count: usize) {
        self.collective_ops += self.classes.p as u64;
        self.phases.push(ClassPhase::Bcast { count });
    }

    /// A gather of `class_counts[c]` elements per member of class `c`.
    fn gather(&mut self, class_counts: &[usize]) {
        self.collective_ops += self.classes.p as u64;
        let leaf_bytes: Vec<u64> = class_counts.iter().map(|&c| (c * 8) as u64).collect();
        // Rank-order RLE of the per-rank size vector: classes are
        // contiguous rank runs, so adjacent equal-byte classes merge.
        let mut size_runs: Vec<(u64, u64)> = Vec::new();
        for (&bytes, &m) in leaf_bytes.iter().zip(&self.classes.members) {
            match size_runs.last_mut() {
                Some((last, n)) if *last == bytes => *n += m,
                _ => size_runs.push((bytes, m)),
            }
        }
        self.phases.push(ClassPhase::Gather { size_runs, leaf_bytes });
    }

    /// A root-serialized scatter: rank 0 sends `class_counts[c]`
    /// elements to every member of every other class, in rank order,
    /// back to back on its own clock.
    fn scatter(&mut self, class_counts: &[usize]) {
        self.p2p_ops += 2 * (self.classes.p as u64 - 1);
        let mut send_runs: Vec<(u64, u64)> = Vec::new();
        let mut samples: Vec<(u64, u32)> = Vec::new();
        let mut slot = 0u64;
        for (c, (&count, &m)) in class_counts.iter().zip(&self.classes.members).enumerate().skip(1)
        {
            let bytes = (count * 8) as u64;
            match send_runs.last_mut() {
                Some((last, n)) if *last == bytes => *n += m,
                _ => send_runs.push((bytes, m)),
            }
            slot += m;
            samples.push((slot - 1, c as u32));
        }
        self.phases.push(ClassPhase::Scatter { send_runs, samples });
    }

    /// Prices the plan against `network`, recording an
    /// [`EnginePath::Aggregated`] simulation on success and the typed
    /// fallback on rejection.
    fn evaluate<N: NetworkModel>(&self, network: &N) -> Result<MegaOutcome, FallbackReason> {
        let simulate_started = std::time::Instant::now();
        let makespan = self.makespan(network);
        telemetry::add_simulate_wall_ns(simulate_started.elapsed().as_nanos() as u64);
        let (p, classes) = (self.classes.p, self.classes.members.len());
        match makespan {
            Ok(makespan) => {
                let mut report =
                    EngineReport::new(EnginePath::Aggregated, p as u64, classes as u64);
                report.collective_events = self.collective_ops;
                report.p2p_events = self.p2p_ops;
                telemetry::record_simulation(&report);
                Ok(MegaOutcome { makespan, classes, ranks: p as u64 })
            }
            Err(reason) => {
                telemetry::record_fallback(reason);
                Err(reason)
            }
        }
    }

    /// The fold behind [`evaluate`](Self::evaluate): `max` over every
    /// rank's final clock.
    fn makespan<N: NetworkModel>(&self, network: &N) -> Result<SimTime, FallbackReason> {
        let Subclasses { members, speed_flops, p, .. } = self.classes;
        let mut last = vec![SimTime::ZERO; members.len()];
        for phase in &self.phases {
            match phase {
                ClassPhase::Compute { flops } => {
                    for (c, &f) in flops.iter().enumerate() {
                        last[c] += SimTime::from_secs(f / speed_flops[c]);
                    }
                }
                ClassPhase::Bcast { count } => {
                    let bytes = (count * 8) as u64;
                    let departure = last[0] + SimTime::from_secs(network.bcast_time(*p, bytes));
                    last[0] = departure;
                    for l in &mut last[1..] {
                        *l = (*l).max(departure);
                    }
                }
                ClassPhase::Gather { size_runs, leaf_bytes } => {
                    // Deposit clocks fold to the class tails (rank 0's
                    // included — its class is singleton).
                    let max_entry = *last.iter().max().expect("classes >= 1");
                    let cost = network
                        .gather_time_classed(size_runs, 0)
                        .ok_or(FallbackReason::UnclassedNetwork)?;
                    let root_exit = last[0].max(max_entry) + SimTime::from_secs(cost);
                    for (l, &bytes) in last.iter_mut().zip(leaf_bytes).skip(1) {
                        let leg = network
                            .p2p_time_class(bytes)
                            .ok_or(FallbackReason::UnclassedNetwork)?;
                        *l += SimTime::from_secs(leg);
                    }
                    last[0] = root_exit;
                }
                ClassPhase::Scatter { send_runs, samples } => {
                    // Rank 0's clock chains one fl-addition per send;
                    // equal-size runs batch through repeat_add, and
                    // each tail's arrival is the chain sampled at its
                    // slot (chain splits compose exactly).
                    let mut chain = last[0].as_secs();
                    let mut slot_base = 0u64;
                    let mut next_sample = samples.iter().peekable();
                    for &(bytes, count) in send_runs {
                        let cost = network
                            .p2p_time_class(bytes)
                            .ok_or(FallbackReason::UnclassedNetwork)?;
                        while let Some(&&(slot, c)) = next_sample.peek() {
                            if slot >= slot_base + count {
                                break;
                            }
                            let arrival = repeat_add(chain, cost, slot - slot_base + 1);
                            let c = c as usize;
                            last[c] = last[c].max(SimTime::from_secs(arrival));
                            next_sample.next();
                        }
                        chain = repeat_add(chain, cost, count);
                        slot_base += count;
                    }
                    last[0] = SimTime::from_secs(chain);
                }
            }
        }
        Ok(*last.iter().max().expect("classes >= 1"))
    }
}

/// Classed-cluster MM (HoHe) timing: A-block scatter, B broadcast,
/// local multiply, C gather — the same protocol
/// [`crate::mm_closed_form`] prices per rank, evaluated in O(classes).
pub fn mm_mega<N: NetworkModel>(
    cluster: &ClassedCluster,
    network: &N,
    n: usize,
) -> Result<MegaOutcome, FallbackReason> {
    let sc = subclasses(cluster, n);
    let block_counts: Vec<usize> = sc.rows.iter().map(|&r| r * n).collect();
    let flops: Vec<f64> =
        sc.rows.iter().map(|&r| (2 * r * n * n).saturating_sub(r * n) as f64).collect();

    let mut plan = ClassPlan::new(&sc);
    plan.scatter(&block_counts);
    plan.bcast(n * n);
    plan.compute(flops);
    plan.gather(&block_counts);
    plan.evaluate(network)
}

/// Classed-cluster power-iteration timing: scatter, then `iters` sweeps
/// of local matvec → allgather (gather + packed rebroadcast) →
/// normalization — the protocol of [`crate::power_closed_form`],
/// evaluated in O(classes + iters · classes).
pub fn power_mega<N: NetworkModel>(
    cluster: &ClassedCluster,
    network: &N,
    n: usize,
    iters: usize,
) -> Result<MegaOutcome, FallbackReason> {
    let sc = subclasses(cluster, n);
    let block_counts: Vec<usize> = sc.rows.iter().map(|&r| r * n).collect();
    let matvec: Vec<f64> = sc.rows.iter().map(|&r| 2.0 * (r * n) as f64).collect();
    let normalize: Vec<f64> = vec![2.0 * n as f64; sc.members.len()];
    // The allgather's closing broadcast carries `p` length headers plus
    // the packed contributions (row counts sum to `n` exactly).
    let packed =
        sc.p + sc.rows.iter().zip(sc.members.iter()).map(|(&r, &m)| r * m as usize).sum::<usize>();

    let mut plan = ClassPlan::new(&sc);
    plan.scatter(&block_counts);
    for _sweep in 0..iters {
        plan.compute(matvec.clone());
        plan.gather(&sc.rows);
        plan.bcast(packed);
        plan.compute(normalize.clone());
    }
    plan.evaluate(network)
}

/// One run of consecutive *peer* ranks (rank 0 excluded) sharing a
/// speed class and a per-member row count under the fine cyclic deal.
struct GeRun {
    /// Rows each member owns.
    rows: usize,
    /// Consecutive peers in the run (≥ 1).
    members: u64,
    /// Marked speed in flop/s (the same float op the materialized
    /// `NodeSpec` performs).
    speed_flops: f64,
}

/// The fine cyclic deal serves every class round-robin from member 0
/// (see [`ClassedCyclicDeal`]), so class `c` with `m` members and `R`
/// dealt rows splits into at most two row-count runs: members `0..R%m`
/// own `⌈R/m⌉` rows, the rest `⌊R/m⌋`. This expands that split into
/// rank-order peer runs, carving rank 0 (class 0, member 0) out of
/// whichever run holds it, and remembers where each class's member 0
/// landed (the pivot owner of the class's first win).
struct GeLayout {
    rank0_rows: usize,
    runs: Vec<GeRun>,
    /// Index into `runs` of the run whose first peer is the class's
    /// member 0 (`usize::MAX` for class 0 — that member is rank 0).
    first_run: Vec<usize>,
}

fn ge_layout(cluster: &ClassedCluster, class_rows: &[u64]) -> GeLayout {
    let mut runs = Vec::with_capacity(2 * cluster.class_count());
    let mut first_run = vec![usize::MAX; cluster.class_count()];
    let mut rank0_rows = 0usize;
    for (c, class) in cluster.classes().iter().enumerate() {
        let m = class.count as u64;
        let total = class_rows[c];
        let q = (total / m) as usize;
        let hi = total % m;
        let speed_flops = class.speed_mflops * 1e6;
        let mut subruns = [(q + 1, hi), (q, m - hi)];
        if c == 0 {
            // Rank 0 is class 0's member 0: in the high run when it
            // exists, else the low run.
            let at = usize::from(hi == 0);
            rank0_rows = subruns[at].0;
            subruns[at].1 -= 1;
        }
        for (rows, members) in subruns {
            if members == 0 {
                continue;
            }
            if c != 0 && first_run[c] == usize::MAX {
                first_run[c] = runs.len();
            }
            runs.push(GeRun { rows, members, speed_flops });
        }
    }
    GeLayout { rank0_rows, runs, first_run }
}

/// Rank 0's send chain through one peer run: the per-message cost, the
/// chain value before the run, and the last member's arrival (= the
/// chain value after the run).
struct ChainRun {
    cost: f64,
    start: f64,
    last: f64,
}

/// Class-aggregated GE timing on a [`ClassedCluster`]: the protocol of
/// [`crate::ge_closed_form`] under the standard fine cyclic deal,
/// priced in O(classes) state per elimination round (DESIGN.md §13).
///
/// After round 0 every rank leaves the barrier with one shared scalar
/// clock, so a round's rendezvous collapses to the broadcast departure
/// plus the *largest* elimination time — and within a speed class the
/// largest below-pivot row count is `⌈remaining/members⌉`, maintained
/// by a ceil countdown as the replayed classed deal drains pivots.
/// Round 0 (where scatter leaves rank clocks unequal) and the
/// scatter/gather stages are priced per peer run through exact batched
/// repeated addition and the classed network hooks. Bit-identical to
/// the per-rank closed form — and transitively the event-driven engine
/// and the threaded oracle — at every materializable size.
///
/// A batch of one over [`ge_mega_many`].
pub fn ge_mega<N: NetworkModel>(
    cluster: &ClassedCluster,
    network: &N,
    n: usize,
) -> Result<MegaOutcome, FallbackReason> {
    ge_mega_many(cluster, network, &[n]).pop().expect("one outcome per size")
}

/// [`ge_mega`] at every size of a problem-size grid, in the order
/// given (unsorted and repeated sizes are fine), with one
/// [`ClassedCyclicDeal`] shared by the whole grid.
///
/// The deal's winner sequence does not depend on `n`: the first `n`
/// winners of a deal run to `max(sizes)` are exactly the winners of a
/// deal run to `n`. So the grid deals once, records the winner table
/// (run-length encoded, see [`ClassedCyclicDeal::deal_run`]), and
/// reads each size's per-class row totals off the deal's counts as it
/// passes that size. Telemetry stays per size — one
/// [`EngineReport`] (or fallback) per entry of `sizes` — so a grid
/// reports exactly what the same sizes priced one by one would.
pub fn ge_mega_many<N: NetworkModel>(
    cluster: &ClassedCluster,
    network: &N,
    sizes: &[usize],
) -> Vec<Result<MegaOutcome, FallbackReason>> {
    let simulate_started = std::time::Instant::now();
    let outcomes = ge_mega_eval(cluster, network, sizes);
    telemetry::add_simulate_wall_ns(simulate_started.elapsed().as_nanos() as u64);
    for (&n, outcome) in sizes.iter().zip(&outcomes) {
        match outcome {
            Ok(out) => {
                let mut report =
                    EngineReport::new(EnginePath::Aggregated, out.ranks, out.classes as u64);
                // The ops the per-rank engines would execute: the
                // scatter's send/recv pairs, and per rank one broadcast
                // + barrier per round plus the closing gather.
                let rounds = n.saturating_sub(1) as u64;
                report.p2p_events = 2 * (out.ranks - 1);
                report.collective_events = (2 * rounds + 1) * out.ranks;
                telemetry::record_simulation(&report);
            }
            Err(reason) => telemetry::record_fallback(*reason),
        }
    }
    outcomes
}

fn ge_mega_eval<N: NetworkModel>(
    cluster: &ClassedCluster,
    network: &N,
    sizes: &[usize],
) -> Vec<Result<MegaOutcome, FallbackReason>> {
    // The deal sees marked MFLOPS — the speeds the per-rank kernel
    // hands to `CyclicDistribution::fine`.
    let deal_classes: Vec<(f64, u64)> =
        cluster.classes().iter().map(|c| (c.speed_mflops, c.count as u64)).collect();

    // One deal to the largest size, in ascending size order: each
    // size's per-class row totals are the deal's counts when it has
    // dealt that many rows. The deal comes in long single-class runs
    // (a few dozen for a whole HEET grid), recorded run-length encoded;
    // every size's round replay reads a prefix of that one table.
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_unstable_by_key(|&i| sizes[i]);
    let mut deal = ClassedCyclicDeal::new(&deal_classes);
    let mut winners: Vec<(usize, u64)> = Vec::new();
    let mut class_rows = vec![Vec::new(); sizes.len()];
    for &i in &order {
        let n = sizes[i] as u64;
        while deal.rows_dealt() < n {
            winners.push(deal.deal_run(n - deal.rows_dealt()));
        }
        class_rows[i] = deal.class_counts().to_vec();
    }

    sizes
        .iter()
        .zip(&class_rows)
        .map(|(&n, rows)| ge_mega_size(cluster, network, n, rows, &winners))
        .collect()
}

/// Replays a run-length-encoded winner table one row at a time.
struct Replay<'a> {
    runs: std::slice::Iter<'a, (usize, u64)>,
    class: usize,
    left: u64,
}

impl Replay<'_> {
    #[inline]
    fn next_winner(&mut self) -> usize {
        if self.left == 0 {
            (self.class, self.left) = *self.runs.next().expect("the deal covers every round");
        }
        self.left -= 1;
        self.class
    }
}

/// Relative width of the rendezvous screen's candidate band. Any
/// width far above the f64 rounding error is exact (two roundings of
/// `v·elim/s` per class, `~4.4e-16` between two classes); this one
/// leaves six orders of magnitude of slack.
const SCREEN_BAND: f64 = 1.0 - 1e-9;

/// Rebuilds the rendezvous screen's candidate band: `(v[c], s[c])` for
/// every class whose exact ratio `v[c]/s[c]` lies within
/// [`SCREEN_BAND`] of the largest.
///
/// Why that is exact: a class's elimination time is
/// `q = fl(fl(v·elim)/s) = (v/s)·elim·(1+δ₁)(1+δ₂)` with `|δ| ≤ u = 2⁻⁵³`,
/// and `elim > 0` is shared by every class in a round. A class whose
/// ratio sits more than `1e-9` (relative) below the top class's cannot
/// reach the top class's `q` even with both roundings in its favour —
/// the band's slack covers the roundings of the screen's own ratios
/// and threshold many times over. So the largest `q` over the band is
/// the largest over all classes, and since `fl(departure + q)` is
/// monotone in `q`, so is the rendezvous — bit for bit. Every class
/// with an exactly tied ratio stays in the band.
fn screen(v: &[u64], speeds: &[f64], band: &mut Vec<(f64, f64)>) {
    let top = v.iter().zip(speeds).map(|(&vc, &s)| vc as f64 / s).fold(0.0, f64::max);
    let floor = top * SCREEN_BAND;
    band.clear();
    band.extend(
        v.iter()
            .zip(speeds)
            .filter(|&(&vc, &s)| vc as f64 / s >= floor)
            .map(|(&vc, &s)| (vc as f64, s)),
    );
}

/// [`ge_mega`] at one size, given the class row totals of the first
/// `n` deals and a run-length winner table covering at least them.
fn ge_mega_size<N: NetworkModel>(
    cluster: &ClassedCluster,
    network: &N,
    n: usize,
    class_rows: &[u64],
    winners: &[(usize, u64)],
) -> Result<MegaOutcome, FallbackReason> {
    let p = cluster.size();
    let k = cluster.class_count();
    let class_members: Vec<u64> = cluster.classes().iter().map(|c| c.count as u64).collect();
    // Compute times divide flop/s.
    let class_speed_flops: Vec<f64> =
        cluster.classes().iter().map(|c| c.speed_mflops * 1e6).collect();
    let layout = ge_layout(cluster, class_rows);
    let GeLayout { rank0_rows, runs, first_run } = &layout;

    // Stage 1: root-serialized scatter. Within a run every message
    // costs the same, so rank 0's serial chain batches through exact
    // repeated addition; each receiver's clock is its arrival.
    let mut chain = 0.0f64;
    let mut chains = Vec::with_capacity(runs.len());
    for run in runs {
        let bytes = (run.rows * (n + 1) * 8) as u64;
        let cost = network.p2p_time_class(bytes).ok_or(FallbackReason::UnclassedNetwork)?;
        let start = chain;
        chain = repeat_add(chain, cost, run.members);
        chains.push(ChainRun { cost, start, last: chain });
    }
    let a_last = chain; // rank 0's clock after stage 1

    // Stage 2: elimination rounds; round `i`'s pivot owner is the
    // class of the deal's `i`-th winner.
    let mut replay = Replay { runs: winners.iter(), class: 0, left: 0 };
    let barrier_cost = SimTime::from_secs(network.barrier_time(p));
    let mut clk = SimTime::ZERO;
    if n >= 2 {
        // Round 0: rank clocks are still unequal, so each peer run is a
        // genuine rendezvous candidate — arrivals grow along the chain
        // and fl ops are monotone, so a run's candidate is its *last*
        // member's `max(arrival, departure) + dt`. The owner (its
        // class's member 0, the run's first peer) departs off its own
        // arrival and eliminates one fewer row.
        let w0 = replay.next_winner();
        let elim = elimination_flops(n);
        let bytes = ((n + 1) * 8) as u64;
        let bcast = SimTime::from_secs(network.bcast_time(p, bytes));
        let dt = |rem: usize, spd: f64| SimTime::from_secs(rem as f64 * elim / spd);
        let mut rendezvous = SimTime::ZERO;
        let departure = if w0 == 0 {
            let d = SimTime::from_secs(a_last) + bcast;
            rendezvous = rendezvous.max(d + dt(rank0_rows - 1, class_speed_flops[0]));
            d
        } else {
            let fr = &chains[first_run[w0]];
            let owner_arrival = repeat_add(fr.start, fr.cost, 1);
            let d = SimTime::from_secs(owner_arrival) + bcast;
            rendezvous =
                rendezvous.max(d + dt(runs[first_run[w0]].rows - 1, class_speed_flops[w0]));
            rendezvous = rendezvous
                .max(SimTime::from_secs(a_last).max(d) + dt(*rank0_rows, class_speed_flops[0]));
            d
        };
        for (idx, (run, ch)) in runs.iter().zip(chains.iter()).enumerate() {
            let members =
                if w0 != 0 && idx == first_run[w0] { run.members - 1 } else { run.members };
            if members == 0 {
                continue;
            }
            rendezvous = rendezvous
                .max(SimTime::from_secs(ch.last).max(departure) + dt(run.rows, run.speed_flops));
        }
        clk = rendezvous + barrier_cost;

        // Ceil-countdown state: `v[c]` is the most below-pivot rows any
        // member of class `c` still owns (`⌈remaining/members⌉` — the
        // residue counts of an interval); `cnt[c]` is how many more of
        // the class's pivots drain before `v[c]` drops. Only a drop
        // moves the rendezvous screen, so the band is rebuilt there.
        let mut v = vec![0u64; k];
        let mut cnt = vec![0u64; k];
        for c in 0..k {
            if class_rows[c] > 0 {
                v[c] = class_rows[c].div_ceil(class_members[c]);
                cnt[c] = class_rows[c] - (v[c] - 1) * class_members[c];
            }
        }
        let mut band = Vec::with_capacity(k);
        let mut drain = |w: usize, v: &mut [u64], band: &mut Vec<(f64, f64)>| {
            debug_assert!(cnt[w] > 0, "a winning class always has rows left");
            cnt[w] -= 1;
            if cnt[w] == 0 {
                v[w] -= 1;
                cnt[w] = class_members[w];
                screen(v, &class_speed_flops, band);
            }
        };
        screen(&v, &class_speed_flops, &mut band);
        drain(w0, &mut v, &mut band);

        // Rounds 1…: every rank leaves the barrier with the shared
        // scalar `clk`, so the rendezvous is the departure plus the
        // largest elimination time over classes — over the screen's
        // candidate band, which provably holds that largest time (see
        // [`screen`]). This is the hot loop — once per remaining
        // matrix row — so it runs on raw f64 state: `SimTime +
        // SimTime` is the plain f64 add and `SimTime::max` the
        // `>`-replace below, so the bits match the wrapped arithmetic
        // exactly.
        let barrier_secs = barrier_cost.as_secs();
        let mut clk_secs = clk.as_secs();
        for i in 1..(n - 1) {
            drain(replay.next_winner(), &mut v, &mut band);
            let elim = elimination_flops(n - i);
            let bytes = ((n - i + 1) * 8) as u64;
            let departure = clk_secs + network.bcast_time(p, bytes);
            let mut rendezvous = 0.0f64;
            for &(vc, spd) in &band {
                let t = departure + vc * elim / spd;
                if t > rendezvous {
                    rendezvous = t;
                }
            }
            clk_secs = rendezvous + barrier_secs;
        }
        clk = SimTime::from_secs(clk_secs);
    }

    // Stage 3: gather to rank 0 (every contribution reuses its scatter
    // byte size, hence its per-message cost), then back substitution.
    let mut gather_runs: Vec<(u64, u64)> = Vec::with_capacity(runs.len() + 1);
    gather_runs.push(((rank0_rows * (n + 1) * 8) as u64, 1));
    for run in runs {
        gather_runs.push(((run.rows * (n + 1) * 8) as u64, run.members));
    }
    let gather_cost = SimTime::from_secs(
        network.gather_time_classed(&gather_runs, 0).ok_or(FallbackReason::UnclassedNetwork)?,
    );
    let backsub = SimTime::from_secs((n * n) as f64 / class_speed_flops[0]);
    let mut makespan;
    if n >= 2 {
        // Clocks equalized at `clk`: the root waits for the latest
        // entry (also `clk`) plus the gather cost, each leaf pays its
        // p2p cost off `clk`.
        makespan = clk + gather_cost + backsub;
        for ch in &chains {
            makespan = makespan.max(clk + SimTime::from_secs(ch.cost));
        }
    } else {
        // No elimination rounds ran: clocks still carry the scatter
        // chain, whose latest entry is rank 0's own `a_last`.
        makespan = SimTime::from_secs(a_last) + gather_cost + backsub;
        for ch in &chains {
            makespan = makespan.max(SimTime::from_secs(ch.last) + SimTime::from_secs(ch.cost));
        }
    }

    Ok(MegaOutcome { makespan, classes: runs.len() + 1, ranks: p as u64 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ge_closed_form, mm_closed_form, power_closed_form};
    use hetpart::{BlockDistribution, CyclicDistribution};
    use hetsim_cluster::classed::SpeedClass;
    use hetsim_cluster::network::{
        ConstantLatency, JitteredNetwork, MpichEthernet, SharedEthernet, SwitchedNetwork,
    };

    /// Class-structure extremes, all materializable: single rank,
    /// homogeneous, two tiers, many tiers at the 85-node scale, and a
    /// root lighter than a slow tier (largest-remainder rows land on
    /// 10 Mflop/s ranks, so a scatter arrival, not rank 0's chain end,
    /// sets power iteration's first gather rendezvous).
    fn clusters() -> Vec<ClassedCluster> {
        let root_light = vec![
            SpeedClass { speed_mflops: 100.0, count: 1 },
            SpeedClass { speed_mflops: 10.0, count: 3 },
        ];
        vec![
            ClassedCluster::heet(1, 1, 50.0, 1.0),
            ClassedCluster::heet(8, 1, 70.0, 1.0),
            ClassedCluster::heet(7, 2, 50.0, 3.0),
            ClassedCluster::heet(40, 5, 50.0, 2.2),
            ClassedCluster::heet(85, 8, 45.0, 2.4),
            ClassedCluster::new("root-light", root_light).expect("valid classes"),
        ]
    }

    fn networks() -> Vec<(&'static str, Box<dyn NetworkModel>)> {
        vec![
            ("const", Box::new(ConstantLatency::new(2.5e-4))),
            ("switched", Box::new(SwitchedNetwork::new(1.2e-4, 9.0e-9))),
            ("shared", Box::new(SharedEthernet::new(0.3e-3, 1.25e7))),
            ("mpich", Box::new(MpichEthernet::new(0.30e-3, 1.0e8))),
        ]
    }

    fn mflops(cluster: &ClassedCluster) -> Vec<f64> {
        cluster.materialize().nodes().iter().map(|nd| nd.marked_speed_mflops).collect()
    }

    #[test]
    fn mega_matches_per_rank_mm() {
        for cluster in &clusters() {
            let spec = cluster.materialize();
            for n in [1usize, 2, 3, 17, 64] {
                let dist = BlockDistribution::proportional(n, &mflops(cluster));
                for (tag, net) in &networks() {
                    let net: &dyn NetworkModel = net.as_ref();
                    let per_rank = mm_closed_form(&spec, &net, n, &dist);
                    let mega = mm_mega(cluster, &net, n).expect("classed network");
                    assert_eq!(
                        mega.makespan, per_rank.makespan,
                        "mm diverged ({tag}, {}, n={n})",
                        cluster.label
                    );
                    assert_eq!(mega.ranks as usize, cluster.size());
                }
            }
        }
    }

    #[test]
    fn mega_matches_per_rank_power() {
        for cluster in &clusters() {
            let spec = cluster.materialize();
            // `(5, 0)` pins the zero-sweep protocol (the scatter
            // alone) — the serial-scatter bound of the mega ceiling
            // table prices it.
            for (n, iters) in [(1usize, 1usize), (2, 2), (3, 1), (5, 0), (17, 4), (64, 3)] {
                let dist = BlockDistribution::proportional(n, &mflops(cluster));
                for (tag, net) in &networks() {
                    let net: &dyn NetworkModel = net.as_ref();
                    let per_rank = power_closed_form(&spec, &net, n, iters, &dist);
                    let mega = power_mega(cluster, &net, n, iters).expect("classed network");
                    assert_eq!(
                        mega.makespan, per_rank.makespan,
                        "power diverged ({tag}, {}, n={n}, iters={iters})",
                        cluster.label
                    );
                }
            }
        }
    }

    #[test]
    fn mega_matches_per_rank_ge() {
        // The heet ladder extremes plus a Zipf-spread cluster: the
        // round-robin deal must survive harmonic speed decay too.
        let mut all = clusters();
        all.push(ClassedCluster::heet_zipf(33, 5, 50.0, 3.0));
        for cluster in &all {
            let spec = cluster.materialize();
            for n in [0usize, 1, 2, 3, 17, 64, 129] {
                let dist = CyclicDistribution::fine(n, &mflops(cluster));
                for (tag, net) in &networks() {
                    let net: &dyn NetworkModel = net.as_ref();
                    let per_rank = ge_closed_form(&spec, &net, n, &dist);
                    let mega = ge_mega(cluster, &net, n).expect("classed network");
                    assert_eq!(
                        mega.makespan, per_rank.makespan,
                        "ge diverged ({tag}, {}, n={n})",
                        cluster.label
                    );
                    assert_eq!(mega.ranks as usize, cluster.size());
                    assert!(mega.classes <= 2 * cluster.class_count() + 1);
                }
            }
        }
    }

    #[test]
    fn ge_mega_many_matches_one_by_one() {
        // Unsorted, repeated, and degenerate sizes: a grid shares one
        // deal, but each entry must price exactly as a lone call — the
        // same makespan bits and the same telemetry inputs (one run per
        // size, its classes and represented ranks).
        let sizes = [129usize, 2, 17, 0, 64, 17, 1, 3, 2, 129, 0];
        let mut all = clusters();
        all.push(ClassedCluster::heet_zipf(33, 5, 50.0, 3.0));
        for cluster in &all {
            for (tag, net) in &networks() {
                let net: &dyn NetworkModel = net.as_ref();
                let grid = ge_mega_many(cluster, &net, &sizes);
                assert_eq!(grid.len(), sizes.len());
                for (&n, batched) in sizes.iter().zip(&grid) {
                    let alone = ge_mega(cluster, &net, n).expect("classed network");
                    let batched = batched.expect("classed network");
                    assert_eq!(
                        batched.makespan.as_secs().to_bits(),
                        alone.makespan.as_secs().to_bits(),
                        "ge grid diverged ({tag}, {}, n={n})",
                        cluster.label
                    );
                    assert_eq!(batched.classes, alone.classes);
                    assert_eq!(batched.ranks, alone.ranks);
                }
            }
        }
        let cluster = ClassedCluster::heet(40, 5, 50.0, 2.2);
        assert!(ge_mega_many(&cluster, &MpichEthernet::new(0.3e-3, 1e8), &[]).is_empty());
    }

    #[test]
    fn exact_ratio_ties_keep_the_screen_bit_identical() {
        // Speed ladders in exact ratios make whole classes tie on
        // `v/s` (and equal adjacent speeds tie outright), so the
        // rendezvous screen's band holds several classes whose
        // elimination times round to the same bits — every size must
        // still match the per-rank closed form.
        let ladder = |label: &str, classes: &[(f64, usize)]| {
            ClassedCluster::new(
                label,
                classes
                    .iter()
                    .map(|&(speed_mflops, count)| SpeedClass { speed_mflops, count })
                    .collect(),
            )
            .expect("valid classes")
        };
        let clusters = [
            ladder("90/45", &[(90.0, 2), (45.0, 4)]),
            ladder("90/60/30", &[(90.0, 1), (60.0, 3), (30.0, 2)]),
            ladder("100/50/25/12.5", &[(100.0, 1), (50.0, 2), (25.0, 1), (12.5, 3)]),
            ladder("equal-adjacent", &[(80.0, 2), (80.0, 3), (40.0, 1)]),
        ];
        let sizes: Vec<usize> = (0..600).chain([997, 1500, 2048]).collect();
        let networks: [(&str, Box<dyn NetworkModel>); 2] = [
            ("mpich", Box::new(MpichEthernet::new(0.30e-3, 1.0e8))),
            ("switched", Box::new(SwitchedNetwork::new(1.2e-4, 9.0e-9))),
        ];
        for cluster in &clusters {
            let spec = cluster.materialize();
            for (tag, net) in &networks {
                let net: &dyn NetworkModel = net.as_ref();
                let grid = ge_mega_many(cluster, &net, &sizes);
                for (&n, mega) in sizes.iter().zip(&grid) {
                    let dist = CyclicDistribution::fine(n, &mflops(cluster));
                    let per_rank = ge_closed_form(&spec, &net, n, &dist);
                    assert_eq!(
                        mega.expect("classed network").makespan,
                        per_rank.makespan,
                        "ge diverged on a ratio tie ({tag}, {}, n={n})",
                        cluster.label
                    );
                }
            }
        }
    }

    #[test]
    fn more_than_255_classes_match_the_per_rank_form() {
        // 300 classes: winner indices past 255 would not fit a byte
        // table; the run-length table holds any class index.
        let classes: Vec<SpeedClass> = (0..300)
            .map(|j| SpeedClass { speed_mflops: 40.0 + (j % 7) as f64 * 15.0, count: 1 + j % 3 })
            .collect();
        let cluster = ClassedCluster::new("wide", classes).expect("valid classes");
        assert!(cluster.class_count() > usize::from(u8::MAX));
        let spec = cluster.materialize();
        let sizes = [701usize, 0, 3, 1, 2, 300, 17];
        for (tag, net) in &networks() {
            let net: &dyn NetworkModel = net.as_ref();
            let grid = ge_mega_many(&cluster, &net, &sizes);
            for (&n, mega) in sizes.iter().zip(&grid) {
                let dist = CyclicDistribution::fine(n, &mflops(&cluster));
                let per_rank = ge_closed_form(&spec, &net, n, &dist);
                assert_eq!(
                    mega.expect("classed network").makespan,
                    per_rank.makespan,
                    "ge diverged past 255 classes ({tag}, n={n})"
                );
            }
        }
    }

    #[test]
    fn subclass_count_is_bounded_by_classes_not_ranks() {
        // 10⁶ ranks in 8 tiers: at most 2 row-runs per tier plus the
        // split-off root, and evaluation never materializes a rank.
        let cluster = ClassedCluster::heet(1_000_000, 8, 50.0, 2.4);
        let out = mm_mega(&cluster, &MpichEthernet::new(0.29e-3, 1.07e8), 64).expect("classed");
        assert_eq!(out.ranks, 1_000_000);
        assert!(out.classes <= 2 * 8 + 1, "got {} subclasses", out.classes);
        assert!(out.makespan > SimTime::ZERO);
        let ge = ge_mega(&cluster, &MpichEthernet::new(0.29e-3, 1.07e8), 2048).expect("classed");
        assert_eq!(ge.ranks, 1_000_000);
        assert!(ge.classes <= 2 * 8 + 1, "got {} ge runs", ge.classes);
        assert!(ge.makespan > SimTime::ZERO);
    }

    #[test]
    fn endpoint_priced_networks_are_rejected() {
        let cluster = ClassedCluster::heet(100, 4, 50.0, 2.0);
        let net = JitteredNetwork::new(MpichEthernet::new(0.3e-3, 1e8), 0.1, 7);
        assert_eq!(mm_mega(&cluster, &net, 16), Err(FallbackReason::UnclassedNetwork));
        assert_eq!(power_mega(&cluster, &net, 16, 2), Err(FallbackReason::UnclassedNetwork));
        assert_eq!(ge_mega(&cluster, &net, 16), Err(FallbackReason::UnclassedNetwork));
    }

    #[test]
    fn row_subclasses_expand_to_the_block_distribution() {
        for cluster in &clusters() {
            for n in [0usize, 1, 17, 64, 200] {
                let sc = subclasses(cluster, n);
                let dist = BlockDistribution::proportional(n, &mflops(cluster));
                let mut rank = 0usize;
                for (c, &m) in sc.members.iter().enumerate() {
                    for _ in 0..m {
                        assert_eq!(
                            sc.rows[c],
                            dist.range_of(rank).len(),
                            "{} rank {rank} n={n}",
                            cluster.label
                        );
                        rank += 1;
                    }
                }
                assert_eq!(rank, cluster.size());
            }
        }
    }
}
