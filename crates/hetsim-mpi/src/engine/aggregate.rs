//! Class-aggregated evaluation: one representative clock per rank
//! class plus analytic fan-out corrections (DESIGN.md §13).
//!
//! The lockstep evaluator (`analytic.rs`) removed the *scheduler* but
//! kept O(P) state — one [`SimRank`] per rank, every fan-out walked
//! leg by leg. This module removes the per-rank walk too. Ranks that
//! share a recording class (identical op stream **and** identical
//! marked speed — exactly the dedup criterion of
//! [`super::record_spmd`]) are priced through a single representative:
//! the class's **last member in rank order** (its "tail"). Collectives
//! become O(classes) folds, and hub fan-outs collapse to closed-form
//! repeated-addition chains, so evaluating a plan costs
//! O(classes + phases), independent of P.
//!
//! # Why the tail is enough, and exact
//!
//! The invariant is *class monotonicity*: within a class, member
//! clocks are non-decreasing in rank order. It holds at launch (all
//! zero) and every phase preserves it:
//!
//! - **Compute** adds the same `fl`-increments to every member
//!   (same flops, same speed); `fl(x + c)` is monotone in `x`.
//! - **Barrier** exits every rank at one uniform clock.
//! - **Broadcast** exits receivers at `max(clock, departure)` —
//!   monotone in `clock`.
//! - **Gather** advances each leaf by one class-constant p2p cost and
//!   needs only the *maximum* deposit clock at the root.
//! - **Hub scatter** delivers messages whose arrivals are
//!   non-decreasing in send order; the plan verifies delivery order
//!   follows member rank order within each class
//!   ([`FallbackReason::ClassOrderDiverged`] otherwise), so
//!   `max(clock, arrival)` stays monotone.
//!
//! Under the invariant, `max` over a class equals its tail, so every
//! rendezvous fold (`max` over all ranks, in rank order) equals the
//! fold over class tails — the same `f64` values, hence bit-equal.
//! Costs are class-constant only when the network prices transfers
//! by size alone; models that price endpoints individually make
//! [`AggregatePlan::evaluate`] return
//! [`FallbackReason::UnclassedNetwork`].
//!
//! # Fan-out corrections
//!
//! The two O(P) leg walks left are closed:
//!
//! - A hub scatter's sender clock is a chain of `fl`-additions, one
//!   cost per destination; runs of equal-size sends collapse through
//!   [`repeat_add`] (exact batched IEEE-754 repeated addition), with
//!   the chain sampled at each class tail's slot via the same gadget
//!   (splitting a `repeat_add` chain at any point composes exactly).
//! - A gather's serialization cost comes from
//!   [`NetworkModel::gather_time_classed`] over the run-length-encoded
//!   contribution sizes — bit-identical to the per-rank
//!   `gather_time` by each model's own equality tests.
//!
//! Everything else is the same float-op sequence the per-rank
//! evaluator performs, restricted to tails. The three-way
//! `engine_equivalence` proptests pin the aggregated makespan and
//! per-class tail clocks against both the event-driven engine and the
//! threaded oracle.

use super::analytic::{P2pStep, Phase};
use super::{Op, SpmdProgram};
use crate::telemetry::{self, EnginePath, EngineReport, FallbackReason};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::flrepeat::repeat_add;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;

/// A recording's class-aggregated evaluation plan.
///
/// Built once in O(P) by [`SpmdProgram::aggregate_plan`]; evaluated
/// against any size-priced network in O(classes + phases) by
/// [`AggregatePlan::evaluate`]. The same plan can be re-priced under
/// several network models, which is how the `megascale` bench
/// separates build cost from per-evaluation cost.
#[derive(Debug)]
pub struct AggregatePlan {
    p: usize,
    /// Members per class (aggregation multiplicity).
    members: Vec<u64>,
    /// Marked speed per class, flop/s.
    speed_flops: Vec<f64>,
    phases: Vec<AggPhase>,
    /// Per-rank op counts one evaluation covers (telemetry).
    collective_ops: u64,
    p2p_ops: u64,
}

/// One aggregated phase: exit tails are a pure function of entry tails.
#[derive(Debug)]
enum AggPhase {
    /// Per-class compute runs (the per-op flops, charged individually —
    /// same `fl` sequence as one member walking its op list).
    Compute {
        flops: Vec<Vec<f64>>,
    },
    Barrier,
    /// Broadcast of `count` elements from the (singleton) root class;
    /// allgather-derived counts are resolved statically at build time.
    Bcast {
        root_class: u32,
        count: usize,
    },
    Gather {
        root_class: u32,
        /// `(bytes, count)` rank-order RLE of contribution sizes.
        size_runs: Vec<(u64, u64)>,
        /// Index of the run containing the root rank.
        root_run: usize,
        /// Per class: own contribution wire bytes (root entry unused).
        leaf_bytes: Vec<u64>,
    },
    /// A single-hub scatter: every send originates from the singleton
    /// hub class; arrivals are sampled at each receiving class's tail.
    Scatter {
        hub_class: u32,
        /// `(bytes, count)` send-order RLE of the hub's send sizes.
        send_runs: Vec<(u64, u64)>,
        /// `(slot, class)` tail sample points, ascending by slot: the
        /// hub-chain value after send `slot` is class `class`'s last
        /// arrival.
        samples: Vec<(u64, u32)>,
    },
}

/// The result of one aggregated evaluation. Communication/wait splits
/// are per-member quantities the tail cannot represent, so the outcome
/// is the makespan plus the per-class tail clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateOutcome {
    /// `max` over every rank's final clock — bit-identical to the
    /// maximum of [`crate::runtime::SpmdOutcome::times`].
    pub makespan: SimTime,
    /// Final clock of each class's last member, in class order.
    pub class_times: Vec<SimTime>,
    /// Members per class, aligned with `class_times`.
    pub class_members: Vec<u64>,
    /// Total ranks the evaluation priced.
    pub ranks: u64,
}

/// Rank-order RLE of an iterator of values.
fn rle<T: PartialEq, I: Iterator<Item = T>>(values: I) -> Vec<(T, u64)> {
    let mut runs: Vec<(T, u64)> = Vec::new();
    for v in values {
        match runs.last_mut() {
            Some((last, n)) if *last == v => *n += 1,
            _ => runs.push((v, 1)),
        }
    }
    runs
}

impl<R> SpmdProgram<R> {
    /// Builds the class-aggregated evaluation plan, or returns the
    /// typed reason the recording's shape cannot be aggregated. O(P)
    /// once; the plan then prices in O(classes + phases) per network.
    ///
    /// `cluster` must agree with the recording's rank classes: same
    /// size, and one marked speed per class (the recording cluster
    /// always does; a re-pricing cluster that splits a class returns
    /// [`FallbackReason::ClassOrderDiverged`]).
    pub fn aggregate_plan(&self, cluster: &ClusterSpec) -> Result<AggregatePlan, FallbackReason> {
        let p = self.p;
        assert_eq!(cluster.size(), p, "cluster size disagrees with the recording's rank count");
        let lockstep = self.lockstep_result().as_ref().map_err(|&e| e)?;
        let nc = self.classes.len();

        let mut members = vec![0u64; nc];
        let mut speed_flops = vec![0.0f64; nc];
        for (r, &c) in self.class_of.iter().enumerate() {
            let speed = cluster.nodes()[r].marked_speed_flops();
            if members[c] == 0 {
                speed_flops[c] = speed;
            } else if speed.to_bits() != speed_flops[c].to_bits() {
                // The pricing cluster assigns two speeds to one
                // recording class; the class is no longer one clock.
                return Err(FallbackReason::ClassOrderDiverged);
            }
            members[c] += 1;
        }

        // Statically resolved allgather-derived broadcast counts: the
        // packed size is `p + Σ gathered counts` of the root's most
        // recent gather, and counts are recording constants.
        let mut gather_total = vec![0usize; p];
        let mut phases = Vec::with_capacity(lockstep.phases.len());
        for phase in &lockstep.phases {
            phases.push(match phase {
                Phase::Local { at } => {
                    let runs = &lockstep.runs[*at as usize..*at as usize + nc];
                    let mut flops = Vec::with_capacity(nc);
                    for (c, &(start, end)) in runs.iter().enumerate() {
                        let ops = &self.classes[c][start as usize..end as usize];
                        // The aggregated form folds compute only; the
                        // failure-recovery charges have no class form.
                        let run: Option<Vec<f64>> = ops
                            .iter()
                            .map(|op| match *op {
                                Op::Compute { flops } => Some(flops),
                                _ => None,
                            })
                            .collect();
                        flops.push(run.ok_or(FallbackReason::RecoveryOps)?);
                    }
                    AggPhase::Compute { flops }
                }
                Phase::Barrier => AggPhase::Barrier,
                Phase::Bcast { root, count } => AggPhase::Bcast {
                    root_class: self.class_of[*root as usize] as u32,
                    count: *count,
                },
                Phase::BcastDerived { root } => AggPhase::Bcast {
                    root_class: self.class_of[*root as usize] as u32,
                    count: p + gather_total[*root as usize],
                },
                Phase::Gather(gather) => {
                    let (counts, sizes) = (&gather.counts, &gather.sizes);
                    let root = gather.root as usize;
                    gather_total[root] = counts.iter().sum();
                    let size_runs = rle(sizes.iter().copied());
                    // Locate the run containing the root rank.
                    let mut root_run = 0usize;
                    let mut covered = 0u64;
                    for (i, &(_, n)) in size_runs.iter().enumerate() {
                        if (root as u64) < covered + n {
                            root_run = i;
                            break;
                        }
                        covered += n;
                    }
                    let mut leaf_bytes = vec![0u64; nc];
                    for (r, &c) in self.class_of.iter().enumerate() {
                        leaf_bytes[c] = sizes[r];
                    }
                    AggPhase::Gather {
                        root_class: self.class_of[root] as u32,
                        size_runs,
                        root_run,
                        leaf_bytes,
                    }
                }
                Phase::P2p(p2p) => self.scatter_phase(&p2p.steps)?,
            });
        }

        Ok(AggregatePlan {
            p,
            members,
            speed_flops,
            phases,
            collective_ops: lockstep.collective_ops,
            p2p_ops: lockstep.p2p_ops,
        })
    }

    /// Folds a lockstep P2P batch into a hub scatter, or reports why
    /// it cannot be: sends from more than one rank (or a sending rank
    /// that also receives) are [`FallbackReason::AsymmetricP2p`], and
    /// deliveries that do not follow member rank order within a class
    /// are [`FallbackReason::ClassOrderDiverged`].
    fn scatter_phase(&self, steps: &[P2pStep]) -> Result<AggPhase, FallbackReason> {
        let mut hub: Option<u32> = None;
        let mut send_bytes: Vec<u64> = Vec::new();
        // Highest-slot message each rank receives (u64::MAX = none);
        // per-rank exits fold `max(clock, arrival)`, and arrivals are
        // non-decreasing in slot, so only the last message matters.
        let mut last_slot = vec![u64::MAX; self.p];
        for step in steps {
            match *step {
                P2pStep::Send { rank, count, .. } => {
                    if *hub.get_or_insert(rank) != rank {
                        return Err(FallbackReason::AsymmetricP2p);
                    }
                    send_bytes.push((count * 8) as u64);
                }
                P2pStep::Recv { rank, slot, .. } => {
                    if hub == Some(rank) {
                        return Err(FallbackReason::AsymmetricP2p);
                    }
                    let cell = &mut last_slot[rank as usize];
                    *cell = if *cell == u64::MAX { slot as u64 } else { (*cell).max(slot as u64) };
                }
            }
        }
        let hub = hub.ok_or(FallbackReason::AsymmetricP2p)?;
        let hub_class = self.class_of[hub as usize] as u32;

        // Tail sampling is sound only when, within each class, the
        // last-message slot increases with member rank order (the tail
        // then owns the class's latest arrival).
        let nc = self.classes.len();
        let mut class_last: Vec<Option<u64>> = vec![None; nc];
        for (r, &c) in self.class_of.iter().enumerate() {
            let slot = last_slot[r];
            if slot == u64::MAX {
                continue;
            }
            if class_last[c].is_some_and(|prev| prev >= slot) {
                return Err(FallbackReason::ClassOrderDiverged);
            }
            class_last[c] = Some(slot);
        }
        let mut samples: Vec<(u64, u32)> = class_last
            .iter()
            .enumerate()
            .filter_map(|(c, s)| s.map(|slot| (slot, c as u32)))
            .collect();
        samples.sort_unstable();
        Ok(AggPhase::Scatter { hub_class, send_runs: rle(send_bytes.into_iter()), samples })
    }

    /// Class-aggregated pricing of the recording: builds the plan and
    /// evaluates it, recording [`EnginePath::Aggregated`] telemetry on
    /// success and the typed [`FallbackReason`] on rejection (callers
    /// then fall back to [`simulate`](Self::simulate)).
    pub fn simulate_aggregated<N: NetworkModel>(
        &self,
        cluster: &ClusterSpec,
        network: &N,
    ) -> Result<AggregateOutcome, FallbackReason> {
        let result = self.aggregate_plan(cluster).and_then(|plan| {
            let simulate_started = std::time::Instant::now();
            let outcome = plan.evaluate(network);
            telemetry::add_simulate_wall_ns(simulate_started.elapsed().as_nanos() as u64);
            if outcome.is_ok() {
                let mut report = EngineReport::new(
                    EnginePath::Aggregated,
                    self.p as u64,
                    self.classes.len() as u64,
                );
                report.collective_events = plan.collective_ops;
                report.p2p_events = plan.p2p_ops;
                telemetry::record_simulation(&report);
            }
            outcome
        });
        if let Err(reason) = result {
            telemetry::record_fallback(reason);
        }
        result
    }
}

/// Constructs an [`AggregatePlan`] directly from a class description —
/// no recording, no O(P) pass. This is the entry point for *synthetic*
/// plans whose phase structure is known statically (the kernels crate's
/// mega-scale closed forms): the caller lists the classes in rank order
/// (`members[c]` contiguous ranks at `speed_flops[c]`) and appends
/// phases; [`build`](Self::build) yields a plan whose evaluation
/// performs exactly the float-op sequence the per-rank engines would,
/// restricted to class tails.
///
/// The builder trusts its caller on the monotonicity contract the
/// recording path verifies: phases must keep member clocks
/// non-decreasing in rank order within every class (all the phase
/// shapes offered here do).
#[derive(Debug)]
pub struct AggregatePlanBuilder {
    p: usize,
    members: Vec<u64>,
    speed_flops: Vec<f64>,
    phases: Vec<AggPhase>,
    collective_ops: u64,
    p2p_ops: u64,
}

impl AggregatePlanBuilder {
    /// Starts a plan over `members[c]` contiguous ranks per class at
    /// `speed_flops[c]` flop/s. Panics on empty or mismatched inputs,
    /// non-positive speeds, or zero-member classes.
    pub fn new(members: &[u64], speed_flops: &[f64]) -> AggregatePlanBuilder {
        assert!(!members.is_empty(), "a plan needs at least one class");
        assert_eq!(members.len(), speed_flops.len(), "one speed per class");
        assert!(members.iter().all(|&m| m > 0), "classes must be inhabited");
        assert!(speed_flops.iter().all(|&s| s > 0.0 && s.is_finite()), "speeds must be positive");
        let p = members.iter().map(|&m| m as usize).sum();
        AggregatePlanBuilder {
            p,
            members: members.to_vec(),
            speed_flops: speed_flops.to_vec(),
            phases: Vec::new(),
            collective_ops: 0,
            p2p_ops: 0,
        }
    }

    fn nc(&self) -> usize {
        self.members.len()
    }

    /// One compute op of `flops[c]` floating-point operations per class.
    pub fn compute(&mut self, flops: Vec<f64>) -> &mut Self {
        assert_eq!(flops.len(), self.nc(), "one flop count per class");
        // Merge into a preceding compute phase the way the lockstep
        // analyzer coalesces maximal compute runs.
        if let Some(AggPhase::Compute { flops: runs }) = self.phases.last_mut() {
            for (run, f) in runs.iter_mut().zip(flops) {
                run.push(f);
            }
        } else {
            self.phases
                .push(AggPhase::Compute { flops: flops.into_iter().map(|f| vec![f]).collect() });
        }
        self
    }

    /// A full barrier.
    pub fn barrier(&mut self) -> &mut Self {
        self.collective_ops += self.p as u64;
        self.phases.push(AggPhase::Barrier);
        self
    }

    /// A broadcast of `count` elements from `root_class`.
    pub fn bcast(&mut self, root_class: usize, count: usize) -> &mut Self {
        assert!(root_class < self.nc());
        self.collective_ops += self.p as u64;
        self.phases.push(AggPhase::Bcast { root_class: root_class as u32, count });
        self
    }

    /// A gather of `class_counts[c]` elements per member of class `c`
    /// to (the first member of) `root_class`.
    pub fn gather(&mut self, root_class: usize, class_counts: &[usize]) -> &mut Self {
        assert_eq!(class_counts.len(), self.nc(), "one count per class");
        assert!(root_class < self.nc());
        self.collective_ops += self.p as u64;
        let leaf_bytes: Vec<u64> = class_counts.iter().map(|&c| (c * 8) as u64).collect();
        // Rank-order RLE of the per-rank size vector: classes are
        // contiguous rank runs, so adjacent equal-byte classes merge.
        let mut size_runs: Vec<(u64, u64)> = Vec::new();
        let mut root_run = 0usize;
        for (c, (&bytes, &m)) in leaf_bytes.iter().zip(self.members.iter()).enumerate() {
            match size_runs.last_mut() {
                Some((last, n)) if *last == bytes => *n += m,
                _ => size_runs.push((bytes, m)),
            }
            if c == root_class {
                root_run = size_runs.len() - 1;
            }
        }
        self.phases.push(AggPhase::Gather {
            root_class: root_class as u32,
            size_runs,
            root_run,
            leaf_bytes,
        });
        self
    }

    /// A root-serialized scatter: the (singleton) `hub_class` sends
    /// `class_counts[c]` elements to every member of every other class,
    /// in rank order, back to back on its own clock.
    pub fn scatter(&mut self, hub_class: usize, class_counts: &[usize]) -> &mut Self {
        assert_eq!(class_counts.len(), self.nc(), "one count per class");
        assert_eq!(self.members[hub_class], 1, "the hub must be a singleton class");
        self.p2p_ops += 2 * (self.p as u64 - 1);
        let mut send_runs: Vec<(u64, u64)> = Vec::new();
        let mut samples: Vec<(u64, u32)> = Vec::new();
        let mut slot = 0u64;
        for (c, (&count, &m)) in class_counts.iter().zip(self.members.iter()).enumerate() {
            if c == hub_class {
                continue;
            }
            let bytes = (count * 8) as u64;
            match send_runs.last_mut() {
                Some((last, n)) if *last == bytes => *n += m,
                _ => send_runs.push((bytes, m)),
            }
            slot += m;
            samples.push((slot - 1, c as u32));
        }
        self.phases.push(AggPhase::Scatter { hub_class: hub_class as u32, send_runs, samples });
        self
    }

    /// Finalizes the plan.
    pub fn build(self) -> AggregatePlan {
        AggregatePlan {
            p: self.p,
            members: self.members,
            speed_flops: self.speed_flops,
            phases: self.phases,
            collective_ops: self.collective_ops,
            p2p_ops: self.p2p_ops,
        }
    }
}

impl AggregatePlan {
    /// Number of ranks one evaluation prices.
    pub fn size(&self) -> usize {
        self.p
    }

    /// Number of rank classes actually walked per evaluation.
    pub fn class_count(&self) -> usize {
        self.members.len()
    }

    /// Prices the plan against `network` in O(classes + phases).
    ///
    /// Returns [`FallbackReason::UnclassedNetwork`] when the model
    /// prices endpoints individually (no per-class costs exist);
    /// otherwise the outcome's makespan and tail clocks are
    /// bit-identical to the per-rank engines on the same recording.
    pub fn evaluate<N: NetworkModel>(
        &self,
        network: &N,
    ) -> Result<AggregateOutcome, FallbackReason> {
        let nc = self.members.len();
        let mut last = vec![SimTime::ZERO; nc];
        // Hoisted once per evaluation, as both per-rank engines do.
        let barrier_cost = SimTime::from_secs(network.barrier_time(self.p));
        for phase in &self.phases {
            match phase {
                AggPhase::Compute { flops } => {
                    for (c, run) in flops.iter().enumerate() {
                        for &f in run {
                            last[c] += SimTime::from_secs(f / self.speed_flops[c]);
                        }
                    }
                }
                AggPhase::Barrier => {
                    let rendezvous = *last.iter().max().expect("classes >= 1");
                    let exit = rendezvous + barrier_cost;
                    for l in last.iter_mut() {
                        *l = exit;
                    }
                }
                AggPhase::Bcast { root_class, count } => {
                    let rc = *root_class as usize;
                    let bytes = (count * 8) as u64;
                    let cost = SimTime::from_secs(network.bcast_time(self.p, bytes));
                    let departure = last[rc] + cost;
                    for (c, l) in last.iter_mut().enumerate() {
                        *l = if c == rc { departure } else { (*l).max(departure) };
                    }
                }
                AggPhase::Gather { root_class, size_runs, root_run, leaf_bytes } => {
                    let rc = *root_class as usize;
                    // Deposit clocks fold to the class tails (root
                    // included — its class is singleton).
                    let max_entry = *last.iter().max().expect("classes >= 1");
                    let cost = network
                        .gather_time_classed(size_runs, *root_run)
                        .ok_or(FallbackReason::UnclassedNetwork)?;
                    let ready = last[rc].max(max_entry);
                    let root_exit = ready + SimTime::from_secs(cost);
                    for (c, l) in last.iter_mut().enumerate() {
                        if c != rc {
                            let leg = network
                                .p2p_time_class(leaf_bytes[c])
                                .ok_or(FallbackReason::UnclassedNetwork)?;
                            *l += SimTime::from_secs(leg);
                        }
                    }
                    last[rc] = root_exit;
                }
                AggPhase::Scatter { hub_class, send_runs, samples } => {
                    let hub = *hub_class as usize;
                    // The hub clock chains one fl-addition per send;
                    // equal-size runs batch through repeat_add, and
                    // each class tail's arrival is the chain sampled
                    // at its slot (chain splits compose exactly).
                    let mut chain = last[hub].as_secs();
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
                    last[hub] = SimTime::from_secs(chain);
                }
            }
        }
        let makespan = *last.iter().max().expect("classes >= 1");
        Ok(AggregateOutcome {
            makespan,
            class_times: last,
            class_members: self.members.clone(),
            ranks: self.p as u64,
        })
    }

    /// [`evaluate`](Self::evaluate) plus telemetry: records an
    /// [`EnginePath::Aggregated`] simulation (with the plan's op
    /// counts) on success and the typed fallback on rejection — the
    /// entry point for builder-made plans, which have no
    /// [`SpmdProgram`] to report through.
    pub fn evaluate_recorded<N: NetworkModel>(
        &self,
        network: &N,
    ) -> Result<AggregateOutcome, FallbackReason> {
        let simulate_started = std::time::Instant::now();
        let outcome = self.evaluate(network);
        telemetry::add_simulate_wall_ns(simulate_started.elapsed().as_nanos() as u64);
        match &outcome {
            Ok(_) => {
                let mut report = EngineReport::new(
                    EnginePath::Aggregated,
                    self.p as u64,
                    self.members.len() as u64,
                );
                report.collective_events = self.collective_ops;
                report.p2p_events = self.p2p_ops;
                telemetry::record_simulation(&report);
            }
            Err(reason) => telemetry::record_fallback(*reason),
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::super::{record_spmd, SpmdTimer};
    use super::*;
    use crate::message::Tag;
    use crate::runtime::SpmdOutcome;
    use hetsim_cluster::network::{
        ConstantLatency, JitteredNetwork, MpichEthernet, SharedEthernet, SwitchedNetwork,
    };
    use hetsim_cluster::node::NodeSpec;

    type Program = super::super::SpmdProgram<()>;

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

    /// Every op kind the aggregator folds: compute, hub scatter,
    /// barrier, broadcast, gather, allgather (gather + derived bcast).
    fn body<T: SpmdTimer>(t: &mut T) {
        let me = t.rank();
        let p = t.size();
        t.compute_flops(1e6);
        if p > 1 {
            if me == 0 {
                for peer in 1..p {
                    t.send_count(peer, Tag(5), 64);
                }
            } else {
                t.recv_count(0, Tag(5), 64);
            }
        }
        t.barrier();
        t.broadcast_count(0, 33);
        t.compute_flops(2.5e5);
        t.gather_count(0, 7);
        t.allgather_count(2);
        t.barrier();
    }

    /// Checks the aggregated outcome against a per-rank outcome: the
    /// makespan is the per-rank maximum, and every class tail clock is
    /// the final clock of that class's last member — bit for bit.
    fn assert_agg_matches<R>(
        program: &super::super::SpmdProgram<R>,
        agg: &AggregateOutcome,
        per_rank: &SpmdOutcome<R>,
    ) {
        assert_eq!(agg.makespan, per_rank.makespan(), "makespan");
        assert_eq!(agg.ranks as usize, program.size());
        let nc = agg.class_times.len();
        let mut tail = vec![usize::MAX; nc];
        let mut members = vec![0u64; nc];
        for (r, &c) in program.class_of.iter().enumerate() {
            tail[c] = r;
            members[c] += 1;
        }
        assert_eq!(agg.class_members, members, "class multiplicities");
        for (c, &t) in tail.iter().enumerate() {
            assert_eq!(agg.class_times[c], per_rank.times[t], "tail clock of class {c}");
        }
    }

    #[test]
    fn aggregated_matches_event_driven_across_networks() {
        for cluster in
            [het3(), ClusterSpec::homogeneous(5, 80.0), ClusterSpec::homogeneous(1, 70.0)]
        {
            let program: Program = record_spmd(&cluster, body);
            let shared = SharedEthernet::new(0.3e-3, 1.25e7);
            let mpich = MpichEthernet::new(0.2e-3, 1e8);
            let switched = SwitchedNetwork::new(0.1e-3, 1.2e7);
            let constant = ConstantLatency::new(1e-3);
            macro_rules! check {
                ($net:expr) => {
                    let agg = program.simulate_aggregated(&cluster, $net).expect("aggregatable");
                    let event = program.simulate_event_driven(&cluster, $net);
                    assert_agg_matches(&program, &agg, &event);
                };
            }
            check!(&shared);
            check!(&mpich);
            check!(&switched);
            check!(&constant);
        }
    }

    #[test]
    fn plan_builds_once_and_reprices_per_network() {
        let cluster = ClusterSpec::homogeneous(6, 80.0);
        let program: Program = record_spmd(&cluster, body);
        let plan = program.aggregate_plan(&cluster).expect("aggregatable");
        assert_eq!(plan.size(), 6);
        assert_eq!(plan.class_count(), program.distinct_classes());
        for alpha in [1e-4, 2e-4, 5e-4] {
            let net = MpichEthernet::new(alpha, 1e8);
            let agg = plan.evaluate(&net).expect("classed network");
            let event = program.simulate_event_driven(&cluster, &net);
            assert_agg_matches(&program, &agg, &event);
        }
    }

    #[test]
    fn endpoint_priced_networks_are_rejected_as_unclassed() {
        let cluster = ClusterSpec::homogeneous(4, 80.0);
        let program: Program = record_spmd(&cluster, body);
        let net = JitteredNetwork::new(MpichEthernet::new(0.2e-3, 1e8), 0.25, 99);
        assert_eq!(
            program.simulate_aggregated(&cluster, &net),
            Err(FallbackReason::UnclassedNetwork)
        );
    }

    #[test]
    fn non_lockstep_recordings_keep_their_typed_reason() {
        // Sent before the barrier, received after: not even lockstep.
        let cluster = ClusterSpec::homogeneous(2, 50.0);
        let program: Program = record_spmd(&cluster, |t| {
            if t.rank() == 0 {
                t.send_count(1, Tag(7), 5);
            }
            t.barrier();
            if t.rank() == 1 {
                t.recv_count(0, Tag(7), 5);
            }
        });
        let net = ConstantLatency::new(1e-3);
        assert_eq!(
            program.simulate_aggregated(&cluster, &net),
            Err(FallbackReason::SendAcrossSync)
        );
    }

    #[test]
    fn multi_sender_batches_are_asymmetric() {
        let cluster = ClusterSpec::homogeneous(3, 50.0);
        let program: Program = record_spmd(&cluster, |t| {
            match t.rank() {
                0 => t.send_count(2, Tag(1), 4),
                1 => t.send_count(2, Tag(2), 4),
                _ => {
                    t.recv_count(0, Tag(1), 4);
                    t.recv_count(1, Tag(2), 4);
                }
            }
            t.barrier();
        });
        let net = ConstantLatency::new(1e-3);
        assert_eq!(program.simulate_aggregated(&cluster, &net), Err(FallbackReason::AsymmetricP2p));
    }

    #[test]
    fn out_of_order_delivery_within_a_class_is_rejected() {
        // Ranks 1 and 2 share a class, but the hub serves rank 2 first:
        // the class tail no longer owns the latest arrival.
        let cluster = ClusterSpec::homogeneous(3, 50.0);
        let program: Program = record_spmd(&cluster, |t| {
            if t.rank() == 0 {
                t.send_count(2, Tag(1), 4);
                t.send_count(1, Tag(1), 4);
            } else {
                t.recv_count(0, Tag(1), 4);
            }
            t.barrier();
        });
        assert_eq!(program.distinct_classes(), 2, "receivers share a recording");
        let net = ConstantLatency::new(1e-3);
        assert_eq!(
            program.simulate_aggregated(&cluster, &net),
            Err(FallbackReason::ClassOrderDiverged)
        );
    }

    #[test]
    fn repricing_cluster_that_splits_a_class_is_rejected() {
        let recorded = ClusterSpec::homogeneous(4, 80.0);
        let program: Program = record_spmd(&recorded, body);
        let reprice = ClusterSpec::new(
            "split",
            vec![
                NodeSpec::synthetic("a", 80.0),
                NodeSpec::synthetic("b", 80.0),
                NodeSpec::synthetic("c", 90.0),
                NodeSpec::synthetic("d", 80.0),
            ],
        )
        .unwrap();
        let net = ConstantLatency::new(1e-3);
        assert_eq!(
            program.aggregate_plan(&reprice).err(),
            Some(FallbackReason::ClassOrderDiverged)
        );
        assert!(program.simulate_aggregated(&recorded, &net).is_ok());
    }

    #[test]
    fn aggregation_records_telemetry() {
        let cluster = ClusterSpec::homogeneous(8, 80.0);
        let program: Program = record_spmd(&cluster, body);
        let net = MpichEthernet::new(0.2e-3, 1e8);
        let before = telemetry::snapshot();
        program.simulate_aggregated(&cluster, &net).expect("aggregatable");
        let after = telemetry::snapshot();
        assert!(after.aggregated_sims > before.aggregated_sims);
        assert!(after.aggregated_ranks >= before.aggregated_ranks + 8);
        assert!(
            after.aggregated_classes
                >= before.aggregated_classes + program.distinct_classes() as u64
        );
    }
}
