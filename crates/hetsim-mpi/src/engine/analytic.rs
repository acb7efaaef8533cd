//! Lockstep phase analyzer: closed-form evaluation of recorded SPMD
//! programs whose collective structure is the same on every rank class.
//!
//! The ready-queue scheduler in the parent module is fully general: it
//! replays any op structure, blocking and waking ranks as messages and
//! collective deposits become available. But the kernels this workspace
//! prices are *lockstep*: every rank class walks the same alternating
//! sequence of collectives with per-class local work (and closed
//! point-to-point exchanges) in between, so there is nothing for a
//! scheduler to decide — each phase's exit clocks are a straight-line
//! function of its entry clocks. This module detects that structure
//! once per recording ([`analyze`]) and, when it holds, evaluates the
//! whole schedule phase by phase ([`LockstepProgram::evaluate`]) with
//! no mailboxes, slots, park/wake chains, or program counters.
//!
//! # What "lockstep" means
//!
//! A recording is lockstep when its per-class op lists factor into a
//! single shared sequence of **phases**:
//!
//! - **Local** — a maximal run of local ops per class (compute,
//!   checkpoint, detector timeout, recovery replay; possibly empty,
//!   possibly different lengths per class). Local ops never block, so
//!   they are absorbed greedily between synchronization points.
//! - **Collective** — every class's next op is the *same* collective
//!   (equal op id, consistent kind). Broadcast and gather phases
//!   additionally require the root's class to have exactly one member
//!   (two ranks sharing a root recording would double-deposit, which
//!   the engine rejects at run time), and receiver size expectations
//!   must match the root's count.
//! - **P2P** — a closed batch of sends/receives: starting from any
//!   `Send`/`Recv` head, ranks exchange messages until every class
//!   reaches a non-p2p op, every send is consumed, and no receive is
//!   left waiting for a message from a later phase. The batch is
//!   topologically ordered at analysis time (a send is scheduled
//!   before its matching receive), so evaluation is a single pass.
//!
//! Anything else — crossing a collective boundary with an in-flight
//! message, mismatched collective kinds or op ids, multi-member root
//! classes, size mismatches — makes [`analyze`] return a typed
//! [`FallbackReason`] and the caller falls back to the ready-queue
//! scheduler, which either prices the program correctly or reports the
//! protocol bug with its usual diagnostics. The analyzer never weakens
//! an engine panic into a wrong answer: every shape it cannot *prove*
//! lockstep falls back, and the reason is surfaced through
//! `SpmdProgram::fallback_reason` and the telemetry counters.
//!
//! # Faults and spliced local ops
//!
//! A fault plan changes *charges*, never the phase structure: degraded
//! windows stretch local compute, and link drops add retry time at the
//! points the scheduler charges it — the broadcast root's per-peer walk
//! before departure, each gather leaf before its deposit, each send
//! before it leaves. [`LockstepProgram::evaluate`] charges them there,
//! per rank in program order, so faulted runs share the fault-free
//! plan. Local ops spliced into the recording ([`LocalInserts`]) are
//! charged inside the local run they land in; a local op touches only
//! its own rank's clock, so the plan of the clean recording prices the
//! spliced program exactly.
//!
//! # Float-op mirroring
//!
//! Evaluation reuses [`SimRank`]'s charge methods — the same
//! `charge_comm` / `charge_comm_waited` / `local` /
//! `charge_link_retries` the scheduler calls — and performs per-rank
//! charges in program order with the identical operands: message
//! `(sent_at, arrival)` pairs, rank-order rendezvous/entry `max` folds,
//! hoisted per-replay barrier cost. IEEE 754 addition is
//! non-associative, so this mirroring (not mere mathematical
//! equivalence) is what makes the result bit-identical to the
//! event-driven engine; `analytic_matches_event_driven` tests in the
//! parent module and the cross-crate `engine_equivalence` suite pin it.

use super::{Insert, LocalInserts, Op, SimRank};
use crate::message::Tag;
use crate::telemetry::FallbackReason;
use crate::trace::OpKind;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::FaultPlan;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;
use std::collections::{HashMap, VecDeque};

/// A recording's lockstep phase plan, produced by [`analyze`].
#[derive(Debug)]
pub(super) struct LockstepProgram {
    pub(super) phases: Vec<Phase>,
    /// Flat local-run arena: the [`Phase::Local`] at `at` owns
    /// `runs[at..at + classes]`, one `[start, end)` op-index range per
    /// class (ops stay per-op — fault windows and the engine both
    /// charge them individually).
    pub(super) runs: Vec<(u32, u32)>,
    /// Collective ops one evaluation covers (per participating rank) —
    /// the same count the scheduler would execute, kept for telemetry.
    pub(super) collective_ops: u64,
    /// Point-to-point ops one evaluation covers.
    pub(super) p2p_ops: u64,
}

/// One lockstep phase. Exit clocks are a pure function of entry clocks.
/// Kept to 16 bytes (payload-heavy phases are boxed): evaluation walks
/// the phase list once per pricing, several thousand phases per GE
/// program.
#[derive(Debug)]
pub(super) enum Phase {
    /// Per-class maximal local runs at `runs[at..at + classes]`.
    Local { at: u32 },
    /// All ranks enter one barrier.
    Barrier,
    /// Broadcast of `count` elements from rank `root`.
    Bcast { root: u32, count: usize },
    /// The allgather-closing broadcast whose packed size is derived
    /// from the root's preceding gather at evaluation time.
    BcastDerived { root: u32 },
    /// Gather to a rank (see [`GatherPhase`]).
    Gather(Box<GatherPhase>),
    /// A closed batch of point-to-point messages (see [`P2pPhase`]).
    P2p(Box<P2pPhase>),
}

const _: () = assert!(std::mem::size_of::<Phase>() <= 16);

/// Gather to rank `root`; `counts[r]` is rank `r`'s contribution,
/// `sizes[r]` its wire bytes, `targets[r]` the leaf's p2p target.
#[derive(Debug)]
pub(super) struct GatherPhase {
    pub(super) root: u32,
    pub(super) counts: Vec<usize>,
    pub(super) sizes: Vec<u64>,
    pub(super) targets: Vec<u32>,
}

/// A closed batch of point-to-point messages in topological order.
#[derive(Debug)]
pub(super) struct P2pPhase {
    pub(super) steps: Vec<P2pStep>,
}

/// One scheduled op of a P2P phase. `slot` indexes the phase's sends
/// in emission order; analysis guarantees a receive's slot precedes it.
#[derive(Debug)]
pub(super) enum P2pStep {
    Send { rank: u32, dest: u32, count: usize },
    Recv { rank: u32, source: u32, count: usize, slot: u32 },
}

/// What the class heads left after a local-run absorption hold,
/// tallied in the same single pass over the classes.
#[derive(Default)]
struct Heads {
    /// Classes out of ops.
    done: usize,
    any_p2p: bool,
    /// First collective op id seen, and whether another class disagreed.
    op_id: Option<u32>,
    id_mismatch: bool,
    barriers: usize,
    bcast_recvs: usize,
    gather_leaves: usize,
    duplicate_root: bool,
    bcast_root: Option<(usize, usize)>,
    derived_root: Option<usize>,
    gather_root: Option<usize>,
    /// First stated broadcast-receiver expectation, whether another
    /// receiver stated a different one.
    expect: Option<usize>,
    expect_conflict: bool,
}

impl Heads {
    #[inline(always)]
    fn tally(&mut self, c: usize, head: Option<&Op>) {
        let Some(op) = head else {
            self.done += 1;
            return;
        };
        let id = match *op {
            Op::Send { .. } | Op::Recv { .. } => {
                self.any_p2p = true;
                return;
            }
            Op::Barrier { op } => {
                self.barriers += 1;
                op
            }
            Op::BcastRoot { op, count } => {
                self.duplicate_root |= self.bcast_root.replace((c, count)).is_some();
                op
            }
            Op::BcastRootDerived { op } => {
                self.duplicate_root |= self.derived_root.replace(c).is_some();
                op
            }
            Op::BcastRecv { op, expect, .. } => {
                self.bcast_recvs += 1;
                self.expect_conflict |= *self.expect.get_or_insert(expect) != expect;
                op
            }
            Op::BcastRecvDerived { op, .. } => {
                self.bcast_recvs += 1;
                op
            }
            Op::GatherRoot { op, .. } => {
                self.duplicate_root |= self.gather_root.replace(c).is_some();
                op
            }
            Op::GatherLeaf { op, .. } => {
                self.gather_leaves += 1;
                op
            }
            Op::Compute { .. } | Op::Checkpoint { .. } | Op::Detect { .. } | Op::Recover { .. } => {
                unreachable!("local runs are absorbed before their heads are tallied")
            }
        };
        self.id_mismatch |= *self.op_id.get_or_insert(id) != id;
    }
}

/// Detects lockstep phase structure in a recording's per-class op
/// lists. Returns the [`FallbackReason`] — *fall back to the
/// ready-queue scheduler* — for any shape it cannot prove lockstep.
pub(super) fn analyze(
    p: usize,
    classes: &[Vec<Op>],
    class_of: &[usize],
) -> Result<LockstepProgram, FallbackReason> {
    let nc = classes.len();
    let mut members = vec![0usize; nc];
    let mut rank_of_class = vec![usize::MAX; nc];
    for (r, &c) in class_of.iter().enumerate() {
        members[c] += 1;
        if rank_of_class[c] == usize::MAX {
            rank_of_class[c] = r;
        }
    }

    let mut cursor = vec![0usize; nc];
    let mut starts = vec![0usize; nc];
    // Capacity hint: kernel programs have about one phase per op of
    // their longest class list.
    let mut phases = Vec::with_capacity(classes.iter().map(Vec::len).max().unwrap_or(0) + 1);
    let mut runs = Vec::new();
    let mut collective_ops = 0u64;
    let mut p2p_ops = 0u64;
    loop {
        // One pass over the classes: absorb each maximal local run and
        // tally the head it stops at.
        let mut any_local = false;
        let mut heads = Heads::default();
        for (c, ops) in classes.iter().enumerate() {
            let start = cursor[c];
            let mut end = start;
            while ops.get(end).is_some_and(Op::is_local) {
                end += 1;
            }
            any_local |= end > start;
            starts[c] = start;
            cursor[c] = end;
            heads.tally(c, ops.get(end));
        }
        if any_local {
            phases.push(Phase::Local { at: runs.len() as u32 });
            runs.extend(starts.iter().zip(&cursor).map(|(&s, &e)| (s as u32, e as u32)));
        }

        if heads.done == nc {
            break;
        }
        if heads.any_p2p {
            let steps = p2p_phase(p, classes, class_of, &mut cursor)?;
            p2p_ops += steps.len() as u64;
            phases.push(Phase::P2p(Box::new(P2pPhase { steps })));
            continue;
        }
        if heads.done > 0 {
            // A collective needs every rank; some class is out of ops.
            return Err(FallbackReason::ClassExhausted);
        }
        phases.push(collective_phase(classes, class_of, &members, &rank_of_class, &cursor, heads)?);
        collective_ops += p as u64;
        for c in cursor.iter_mut() {
            *c += 1;
        }
    }
    Ok(LockstepProgram { phases, runs, collective_ops, p2p_ops })
}

/// Closes a collective phase from the tallied heads: every class's head
/// must be the same collective (equal op id, consistent kind, singleton
/// root class).
fn collective_phase(
    classes: &[Vec<Op>],
    class_of: &[usize],
    members: &[usize],
    rank_of_class: &[usize],
    cursor: &[usize],
    heads: Heads,
) -> Result<Phase, FallbackReason> {
    let nc = classes.len();
    if heads.id_mismatch {
        return Err(FallbackReason::CollectiveIdMismatch);
    }
    if heads.duplicate_root {
        return Err(FallbackReason::DuplicateRoot);
    }
    if heads.barriers == nc {
        Ok(Phase::Barrier)
    } else if let Some((rc, count)) = heads.bcast_root {
        if heads.bcast_recvs != nc - 1 || members[rc] != 1 {
            return Err(FallbackReason::MultiMemberRootClass);
        }
        if heads.expect_conflict || heads.expect.is_some_and(|e| e != count) {
            return Err(FallbackReason::CollectiveSizeMismatch);
        }
        Ok(Phase::Bcast { root: rank_of_class[rc] as u32, count })
    } else if let Some(rc) = heads.derived_root {
        if heads.bcast_recvs != nc - 1 || members[rc] != 1 {
            return Err(FallbackReason::MultiMemberRootClass);
        }
        // The packed size exists only at evaluation time; a stated
        // expectation cannot be verified statically.
        if heads.expect.is_some() {
            return Err(FallbackReason::UnverifiableDerivedSize);
        }
        Ok(Phase::BcastDerived { root: rank_of_class[rc] as u32 })
    } else if let Some(rc) = heads.gather_root {
        if heads.gather_leaves != nc - 1 || members[rc] != 1 {
            return Err(FallbackReason::MultiMemberRootClass);
        }
        let p = class_of.len();
        let mut counts = vec![0usize; p];
        let mut targets = vec![0u32; p];
        for r in 0..p {
            match classes[class_of[r]][cursor[class_of[r]]] {
                Op::GatherRoot { count, .. } => counts[r] = count,
                Op::GatherLeaf { root, count, .. } => {
                    counts[r] = count;
                    targets[r] = root;
                }
                _ => unreachable!("kind counts checked above"),
            }
        }
        let sizes = counts.iter().map(|&c| (c * 8) as u64).collect();
        let root = rank_of_class[rc] as u32;
        Ok(Phase::Gather(Box::new(GatherPhase { root, counts, sizes, targets })))
    } else {
        // Mixed collective kinds — the engine would panic on the slot
        // type mismatch; let it.
        Err(FallbackReason::MixedCollectiveKinds)
    }
}
/// Closes a P2P phase by Kahn-style scheduling: repeatedly drain each
/// rank's sends (always executable) and receives whose matching send
/// was already emitted *within this phase*, preserving per-rank program
/// order and the engine's per-`(source, tag)` FIFO matching. Rejects
/// stalls (a receive whose send never materializes here) and leftovers
/// (a send consumed only after the next synchronization point).
fn p2p_phase(
    p: usize,
    classes: &[Vec<Op>],
    class_of: &[usize],
    cursor: &mut [usize],
) -> Result<Vec<P2pStep>, FallbackReason> {
    let mut pc: Vec<usize> = (0..p).map(|r| cursor[class_of[r]]).collect();
    let mut pending: HashMap<(u32, u32, Tag), VecDeque<(u32, usize)>> = HashMap::new();
    let mut steps = Vec::new();
    let mut sends = 0u32;
    let mut progress = true;
    while progress {
        progress = false;
        for r in 0..p {
            let ops = &classes[class_of[r]];
            loop {
                match ops.get(pc[r]) {
                    Some(&Op::Send { dest, tag, count }) => {
                        let rank = r as u32;
                        steps.push(P2pStep::Send { rank, dest, count });
                        pending.entry((rank, dest, tag)).or_default().push_back((sends, count));
                        sends += 1;
                        pc[r] += 1;
                        progress = true;
                    }
                    Some(&Op::Recv { source, tag, expect }) => {
                        let Some((slot, count)) =
                            pending.get_mut(&(source, r as u32, tag)).and_then(|q| q.pop_front())
                        else {
                            break;
                        };
                        if count != expect {
                            // The engine's size assert owns this
                            // diagnostic; fall back.
                            return Err(FallbackReason::P2pSizeMismatch);
                        }
                        steps.push(P2pStep::Recv { rank: r as u32, source, count, slot });
                        pc[r] += 1;
                        progress = true;
                    }
                    _ => break,
                }
            }
        }
    }
    if pending.values().any(|q| !q.is_empty()) {
        return Err(FallbackReason::SendAcrossSync);
    }
    for r in 0..p {
        if matches!(classes[class_of[r]].get(pc[r]), Some(Op::Recv { .. })) {
            return Err(FallbackReason::RecvBeforeSend);
        }
    }
    // Every rank of a class stopped at the same first non-p2p op (the
    // stall check above rejected anything else), so the per-rank
    // counters collapse back into per-class cursors.
    for r in 0..p {
        cursor[class_of[r]] = pc[r];
    }
    Ok(steps)
}

/// Root-then-receivers broadcast charge, mirroring `SimShared::bcast_root`
/// (the root's per-peer retry walk comes first, in peer order) and the
/// `BcastRecv` arm of the event-driven engine.
fn bcast<N: NetworkModel>(
    ranks: &mut [SimRank],
    network: &N,
    faults: Option<&FaultPlan>,
    root: usize,
    count: usize,
) {
    let p = ranks.len();
    let bytes = (count * 8) as u64;
    if faults.is_some() {
        for peer in 0..p {
            if peer != root {
                ranks[root].charge_link_retries(false, faults, peer, bytes);
            }
        }
    }
    let cost = SimTime::from_secs(network.bcast_time(p, bytes));
    let departure = ranks[root].clock + cost;
    ranks[root].charge_comm(false, departure, OpKind::Bcast, bytes, None);
    for (r, rank) in ranks.iter_mut().enumerate() {
        if r != root {
            let exit = rank.clock.max(departure);
            rank.charge_comm(false, exit, OpKind::Bcast, bytes, Some(root));
        }
    }
}

/// Where each rank stands in its [`LocalInserts`] list during one
/// evaluation.
struct Splice<'a> {
    lists: &'a [Vec<Insert>],
    next: Vec<usize>,
    /// The smallest collective any rank's next insert is due before
    /// (`u64::MAX` once all are charged): phases before it skip the
    /// per-rank checks, so a splice costs one compare per phase plus
    /// its inserts.
    due_at: u64,
}

impl<'a> Splice<'a> {
    fn new(inserts: &'a LocalInserts, p: usize) -> Splice<'a> {
        assert_eq!(inserts.ranks.len(), p, "inserts sized for a different rank count");
        let mut splice = Splice { lists: &inserts.ranks, next: vec![0; p], due_at: 0 };
        splice.refresh();
        splice
    }

    fn refresh(&mut self) {
        self.due_at = (0..self.lists.len())
            .filter_map(|r| self.lists[r].get(self.next[r]).map(|ins| ins.collective))
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Rank `r`'s next insert, if it belongs to the local run before
    /// collective `coll`.
    fn due(&self, r: usize, coll: u64) -> Option<&'a Insert> {
        self.lists[r].get(self.next[r]).filter(|ins| ins.collective == coll)
    }

    /// Charges rank `r`'s local run `ops` (the run right before
    /// collective `coll`) with its inserts for `coll` spliced in at
    /// their offsets.
    fn local_run(&mut self, rank: &mut SimRank, faults: Option<&FaultPlan>, ops: &[Op], coll: u64) {
        let r = rank.id;
        let mut done = 0usize;
        while let Some(ins) = self.due(r, coll) {
            let offset = ins.offset as usize;
            assert!(offset <= ops.len(), "{}", super::OFFSET_PAST_RUN);
            for op in &ops[done..offset] {
                rank.local(false, faults, op);
            }
            done = offset;
            rank.local(false, faults, &ins.op);
            self.next[r] += 1;
        }
        for op in &ops[done..] {
            rank.local(false, faults, op);
        }
    }

    /// Charges every insert still due before collective `coll`: ranks
    /// whose run before it is empty and fell in no local phase.
    fn flush(&mut self, ranks: &mut [SimRank], faults: Option<&FaultPlan>, coll: u64) {
        if self.due_at == coll {
            for rank in ranks.iter_mut() {
                self.local_run(rank, faults, &[], coll);
            }
            self.refresh();
        }
    }
}

impl LockstepProgram {
    /// Evaluates the phase plan, producing the same per-rank clocks and
    /// accumulator splits as the event-driven scheduler on the same
    /// recording — with `inserts` spliced in and under `faults` — bit
    /// for bit. Untraced only (traced runs keep the scheduler, whose
    /// span records they need).
    pub(super) fn evaluate<N: NetworkModel>(
        &self,
        cluster: &ClusterSpec,
        network: &N,
        classes: &[Vec<Op>],
        class_of: &[usize],
        faults: Option<&FaultPlan>,
        inserts: Option<&LocalInserts>,
    ) -> Vec<SimRank> {
        let p = class_of.len();
        let nc = classes.len();
        let mut ranks: Vec<SimRank> = (0..p).map(|id| SimRank::new(id, cluster, faults)).collect();
        // Hoisted once per evaluation, exactly as the scheduler hoists
        // it once per replay.
        let barrier_cost = SimTime::from_secs(network.barrier_time(p));
        let mut splice = inserts.map(|ins| Splice::new(ins, p));
        // Collectives evaluated so far: the next collective phase's op
        // id (every class numbers its collectives densely from 0).
        let mut coll = 0u64;
        // (sent_at, arrival) per send slot of the current P2P phase.
        let mut msgs: Vec<(SimTime, SimTime)> = Vec::new();
        for phase in &self.phases {
            let Phase::Local { at } = *phase else {
                if let Some(splice) = splice.as_mut() {
                    if !matches!(phase, Phase::P2p(_)) {
                        splice.flush(&mut ranks, faults, coll);
                    }
                }
                self.collective_or_p2p(phase, &mut ranks, network, faults, barrier_cost, &mut msgs);
                coll += u64::from(!matches!(phase, Phase::P2p(_)));
                continue;
            };
            let runs = &self.runs[at as usize..at as usize + nc];
            let mut due = splice.as_mut().filter(|s| s.due_at == coll);
            for (r, rank) in ranks.iter_mut().enumerate() {
                let c = class_of[r];
                let (start, end) = runs[c];
                let ops = &classes[c][start as usize..end as usize];
                // Inserts for `coll` land in the run right before it:
                // runs that end at a p2p op precede a later run.
                match due {
                    Some(ref mut s) if !classes[c].get(end as usize).is_some_and(Op::is_p2p) => {
                        s.local_run(rank, faults, ops, coll)
                    }
                    _ => {
                        for op in ops {
                            rank.local(false, faults, op);
                        }
                    }
                }
            }
            if let Some(s) = due {
                s.refresh();
            }
        }
        if let Some(mut splice) = splice {
            splice.flush(&mut ranks, faults, coll);
            for (r, list) in splice.lists.iter().enumerate() {
                assert!(splice.next[r] == list.len(), "{}", super::INSERT_PAST_END);
            }
        }
        ranks
    }

    /// One synchronizing phase: a collective or a closed p2p batch.
    fn collective_or_p2p<N: NetworkModel>(
        &self,
        phase: &Phase,
        ranks: &mut [SimRank],
        network: &N,
        faults: Option<&FaultPlan>,
        barrier_cost: SimTime,
        msgs: &mut Vec<(SimTime, SimTime)>,
    ) {
        let p = ranks.len();
        match phase {
            Phase::Local { .. } => unreachable!("local runs are charged by the caller"),
            Phase::Barrier => {
                // Same rank-order fold over the same complete entry
                // set as the scheduler's cached rendezvous.
                let rendezvous = ranks.iter().map(|r| r.clock).max().expect("p >= 1");
                let exit = rendezvous + barrier_cost;
                for rank in ranks.iter_mut() {
                    rank.charge_comm_waited(false, rendezvous, exit, OpKind::Barrier, 0, None);
                }
            }
            Phase::Bcast { root, count } => {
                bcast(ranks, network, faults, *root as usize, *count);
            }
            Phase::BcastDerived { root } => {
                let root = *root as usize;
                let count = p + ranks[root].last_gather_counts.iter().sum::<usize>();
                bcast(ranks, network, faults, root, count);
            }
            Phase::Gather(gather) => {
                let GatherPhase { root, counts, sizes, targets } = &**gather;
                let root = *root as usize;
                // Leaves pay their link retries before depositing, as
                // in the scheduler's `GatherLeaf` arm.
                if faults.is_some() {
                    for (r, rank) in ranks.iter_mut().enumerate() {
                        if r != root {
                            rank.charge_link_retries(false, faults, targets[r] as usize, sizes[r]);
                        }
                    }
                }
                // Deposits carry entry clocks; in lockstep every rank
                // is at the phase boundary, so the fold runs over
                // current clocks in rank order.
                let max_entry = ranks.iter().map(|r| r.clock).max().expect("p >= 1");
                let cost = SimTime::from_secs(network.gather_time(sizes, root));
                let total_bytes: u64 = sizes.iter().sum();
                let ready = ranks[root].clock.max(max_entry);
                ranks[root].charge_comm_waited(
                    false,
                    ready,
                    ready + cost,
                    OpKind::Gather,
                    total_bytes,
                    None,
                );
                ranks[root].last_gather_counts.clear();
                ranks[root].last_gather_counts.extend_from_slice(counts);
                for (r, rank) in ranks.iter_mut().enumerate() {
                    if r != root {
                        let bytes = sizes[r];
                        let target = targets[r] as usize;
                        let cost = SimTime::from_secs(network.p2p_time_between(r, target, bytes));
                        let exit = rank.clock + cost;
                        rank.charge_comm(false, exit, OpKind::Gather, bytes, Some(target));
                    }
                }
            }
            Phase::P2p(p2p) => {
                msgs.clear();
                for step in &p2p.steps {
                    match *step {
                        P2pStep::Send { rank, dest, count } => {
                            let r = rank as usize;
                            let dest = dest as usize;
                            let bytes = (count * 8) as u64;
                            ranks[r].charge_link_retries(false, faults, dest, bytes);
                            let sent_at = ranks[r].clock;
                            let cost = SimTime::from_secs(network.p2p_time_between(r, dest, bytes));
                            ranks[r].charge_comm(
                                false,
                                sent_at + cost,
                                OpKind::Send,
                                bytes,
                                Some(dest),
                            );
                            msgs.push((sent_at, ranks[r].clock));
                        }
                        P2pStep::Recv { rank, source, count, slot } => {
                            let r = rank as usize;
                            let (sent_at, arrival) = msgs[slot as usize];
                            let bytes = (count * 8) as u64;
                            let exit = ranks[r].clock.max(arrival);
                            ranks[r].charge_comm_waited(
                                false,
                                sent_at,
                                exit,
                                OpKind::Recv,
                                bytes,
                                Some(source as usize),
                            );
                        }
                    }
                }
            }
        }
    }
}
