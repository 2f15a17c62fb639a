//! The shared placement engine of the modulo schedulers.
//!
//! Rau's plain IMS (`crate::ims`) and the clustered partitioner
//! (`vliw-partition`) run the same inner loop: pick the highest-priority
//! unscheduled operation, compute its earliest start from the scheduled
//! predecessors, look for a free slot in the `[estart, estart + II)` window,
//! place it by force (evicting a victim) when the window is full, and
//! unschedule any operation whose dependences the new placement violates.
//! This module implements that loop once; the two schedulers differ only in the
//! [`ClusterPolicy`] that decides *which clusters* may host each operation.
//!
//! Two data structures keep the loop fast:
//!
//! * a **ready queue** — a binary heap keyed on `(height, Reverse(id))`, so the
//!   next operation to place is popped in `O(log n)` instead of re-scanning all
//!   operations (`O(n)`) per placement.  Unscheduled operations are simply
//!   pushed back; because an operation is only pushed when it leaves the
//!   schedule and popped when it re-enters, the heap never holds duplicates,
//!   and the pop-side staleness check is a cheap invariant guard;
//! * the machine's **per-class / per-(cluster, class) unit indices**
//!   ([`Machine::fu_ids_of_class`]) — window probes and victim selection touch
//!   only the candidate units instead of filtering the full FU list.
//!
//! All window arithmetic is done in `u64`: `estart + II` can exceed `u32` for
//! long-latency chains at large IIs, which used to wrap (release) or panic
//! (debug).  An attempt that would have to place an operation beyond
//! `u32::MAX` cycles fails instead of corrupting the schedule.
//!
//! # Exact cycle exit
//!
//! Backtracking can trap an attempt in a loop — typically two operations whose
//! placements keep unscheduling each other — that only the placement budget
//! ends.  The engine ends such an attempt as soon as its state repeats, and the
//! exit is exact: the attempt returns `None` exactly when the budget-only loop
//! would have.  At the top of each iteration the per-operation [`OpState`]
//! array *is* the whole state of the attempt:
//!
//! * the ready heap holds exactly the unscheduled operations (an operation is
//!   pushed only when it leaves the schedule and popped only when it is
//!   placed), and its pop order depends only on that set;
//! * the MRT and the per-cluster loads are functions of the placed operations'
//!   start cycles and units;
//! * the [`ClusterPolicy`] is pure (its contract), and the budget only ends the
//!   loop.
//!
//! Each iteration is therefore a deterministic function of that array.  Once a
//! state recurs, the states between the two visits repeat forever, none of
//! them finished the attempt, so only the budget could end it.  Recurrence is
//! detected with Brent's power-of-two checkpoints: the array is copied after
//! `n`, `2n`, `4n`, … placements, and a `mismatches` counter of operations
//! whose state differs from the checkpoint is kept in O(1) at the two sites
//! that mutate it (placement and unscheduling).  `mismatches == 0` is an exact
//! state match — a proof, unlike a hash match.  A successful attempt without
//! evictions makes `n` placements and never takes a checkpoint.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

use vliw_ddg::{Ddg, DepKind, OpId};
use vliw_machine::{ClusterId, FuId, Machine};

use crate::mrt::Mrt;
use crate::priority::height_r_into;

/// Reusable backing storage of one scheduling attempt: the placement arrays,
/// the ready heap, the MRT grids and the cluster ranking buffer.
///
/// One engine attempt performs a dozen allocations; an II search multiplies
/// that by the number of attempts, and a corpus compile by the number of loops.
/// A per-worker `SchedScratch` threaded through [`run_placement_with`] (or the
/// schedulers' `_with` entry points) makes every attempt after the first
/// allocation-free: buffers are taken out of the scratch, cleared, resized and
/// returned by [`PlacementEngine::recycle`], growing monotonically to the
/// high-water mark of the workload.
#[derive(Debug, Default)]
pub struct SchedScratch {
    heights: Vec<i64>,
    ops: Vec<OpState>,
    checkpoint: Checkpoint,
    cluster_load: Vec<u32>,
    mrt: Mrt,
    /// Backing vector of the ready heap (kept as a `Vec` between attempts so
    /// refills use `BinaryHeap::from`'s O(n) heapify).
    ready: Vec<(i64, Reverse<u32>)>,
    ranked: Vec<ClusterId>,
    validate: vliw_ddg::ValidateScratch,
}

impl SchedScratch {
    /// The graph-validation buffers, shared with the schedulers' pre-flight
    /// [`Ddg::validate_with`] check.
    pub fn validate_scratch(&mut self) -> &mut vliw_ddg::ValidateScratch {
        &mut self.validate
    }
}

/// Placement state of one operation: together with the fixed inputs of the
/// attempt, the array of these is the engine's whole state (see the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpState {
    /// Issue cycle while the operation is placed.
    start: Option<u32>,
    /// Unit of the current (or, once unscheduled, the last) placement.
    fu: FuId,
    /// Issue cycle of the last placement; `None` before the first one.
    prev_start: Option<u32>,
}

impl OpState {
    const UNPLACED: OpState = OpState { start: None, fu: FuId(0), prev_start: None };
}

/// The repeat detector of one attempt: a snapshot of the [`OpState`] array
/// and the number of operations whose current state differs from it.
#[derive(Debug, Default)]
struct Checkpoint {
    /// The snapshot; empty until the first checkpoint is taken.
    ops: Vec<OpState>,
    /// Operations whose current state differs from `ops`.
    mismatches: usize,
    /// Placement count at which the next snapshot is taken.
    next: u32,
}

/// Cluster restriction of one placement round, as decided by a
/// [`ClusterPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eligibility {
    /// Any cluster may host the operation (plain IMS: the machine is treated as
    /// one flat pool of units).
    AnyCluster,
    /// Only the clusters the policy wrote into the scratch ranking may host the
    /// operation, probed best-first.
    Ranked,
}

/// The per-scheduler part of the placement loop: which clusters may host an
/// operation, and which inter-cluster value flows are illegal.
pub trait ClusterPolicy {
    /// Computes the clusters eligible to host `op`, best first, into `ranked`.
    ///
    /// Returning [`Eligibility::AnyCluster`] leaves the placement unrestricted
    /// (`ranked` is ignored).  Returning [`Eligibility::Ranked`] restricts the
    /// window search and victim selection to the clusters in `ranked`, probed
    /// in order.  The policy may unschedule already-placed operations through
    /// `engine` (the partitioner backtracks out of communication conflicts this
    /// way) — it must then leave `ranked` non-empty, or the attempt fails.
    ///
    /// The call must be pure: its answer and its unscheduling may depend only
    /// on the engine's state and `op`, never on earlier calls (reused work
    /// buffers are fine if they are cleared first).  The engine's cycle exit
    /// relies on this to prove that a repeated state can only loop.
    fn eligible(
        &self,
        engine: &mut PlacementEngine<'_>,
        op: OpId,
        ranked: &mut Vec<ClusterId>,
    ) -> Eligibility;

    /// True if a value produced in `from` cannot be consumed in `to`.  The
    /// engine unschedules flow neighbours that a forced placement strands in
    /// incompatible clusters.  The default (plain IMS) permits everything.
    fn comm_violated(&self, machine: &Machine, from: ClusterId, to: ClusterId) -> bool {
        let _ = (machine, from, to);
        false
    }
}

/// The trivial policy of plain IMS: every cluster is always eligible.
pub struct AnyClusterPolicy;

impl ClusterPolicy for AnyClusterPolicy {
    fn eligible(
        &self,
        _engine: &mut PlacementEngine<'_>,
        _op: OpId,
        _ranked: &mut Vec<ClusterId>,
    ) -> Eligibility {
        Eligibility::AnyCluster
    }
}

/// State of one scheduling attempt at a fixed II: the modulo reservation table,
/// the per-operation placement arrays and the ready queue.
pub struct PlacementEngine<'a> {
    ddg: &'a Ddg,
    machine: &'a Machine,
    ii: u32,
    heights: Vec<i64>,
    ops: Vec<OpState>,
    checkpoint: Checkpoint,
    /// Placements made so far.
    steps: u32,
    cluster_load: Vec<u32>,
    mrt: Mrt,
    ready: BinaryHeap<(i64, Reverse<u32>)>,
    ranked_buf: Vec<ClusterId>,
}

impl<'a> PlacementEngine<'a> {
    /// Prepares an attempt: computes the II-adjusted heights and fills the
    /// ready queue with every operation.
    pub fn new(ddg: &'a Ddg, machine: &'a Machine, ii: u32) -> Self {
        Self::new_in(ddg, machine, ii, &mut SchedScratch::default())
    }

    /// [`PlacementEngine::new`] backed by `scratch`'s buffers: the attempt
    /// allocates nothing the scratch already holds.  Pair with
    /// [`PlacementEngine::recycle`] to return the buffers after the run.
    pub fn new_in(ddg: &'a Ddg, machine: &'a Machine, ii: u32, scratch: &mut SchedScratch) -> Self {
        let n = ddg.num_ops();
        let mut heights = mem::take(&mut scratch.heights);
        height_r_into(ddg, ii, &mut heights);
        let mut ready = mem::take(&mut scratch.ready);
        ready.clear();
        ready.extend(heights.iter().enumerate().map(|(i, &h)| (h, Reverse(i as u32))));
        let mut ops = mem::take(&mut scratch.ops);
        ops.clear();
        ops.resize(n, OpState::UNPLACED);
        let mut checkpoint = mem::take(&mut scratch.checkpoint);
        checkpoint.ops.clear();
        checkpoint.mismatches = 0;
        checkpoint.next = n as u32;
        let mut cluster_load = mem::take(&mut scratch.cluster_load);
        cluster_load.clear();
        cluster_load.resize(machine.num_clusters(), 0);
        let mut mrt = mem::take(&mut scratch.mrt);
        mrt.reset(machine, ii);
        let mut ranked_buf = mem::take(&mut scratch.ranked);
        ranked_buf.clear();
        PlacementEngine {
            ddg,
            machine,
            ii,
            heights,
            ops,
            checkpoint,
            steps: 0,
            cluster_load,
            mrt,
            ready: BinaryHeap::from(ready),
            ranked_buf,
        }
    }

    /// Returns the engine's buffers to `scratch` for the next attempt.
    pub fn recycle(self, scratch: &mut SchedScratch) {
        scratch.heights = self.heights;
        scratch.ops = self.ops;
        scratch.checkpoint = self.checkpoint;
        scratch.cluster_load = self.cluster_load;
        scratch.mrt = self.mrt;
        scratch.ready = self.ready.into_vec();
        scratch.ranked = self.ranked_buf;
    }

    /// The dependence graph being scheduled.
    #[inline]
    pub fn ddg(&self) -> &'a Ddg {
        self.ddg
    }

    /// The target machine.
    #[inline]
    pub fn machine(&self) -> &'a Machine {
        self.machine
    }

    /// The initiation interval of this attempt.
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Placements made by the attempt so far.
    #[inline]
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// The cluster currently hosting `op`, or `None` if it is unscheduled.
    #[inline]
    pub fn cluster_of(&self, op: OpId) -> Option<ClusterId> {
        let s = &self.ops[op.index()];
        s.start.map(|_| self.machine.fu(s.fu).cluster)
    }

    /// Number of operations currently placed in cluster `c`.
    #[inline]
    pub fn cluster_load(&self, c: ClusterId) -> u32 {
        self.cluster_load[c.index()]
    }

    /// Removes `op` from the schedule (no-op if it is not scheduled), returning
    /// it to the ready queue.  Policies use this to backtrack out of
    /// communication conflicts.
    pub fn unschedule(&mut self, op: OpId) {
        let s = self.ops[op.index()];
        if let Some(start) = s.start {
            self.mrt.release(start, s.fu);
            self.mark_unscheduled(op);
        }
    }

    /// Bookkeeping shared by every unscheduling path; the caller has already
    /// released the MRT slot.
    fn mark_unscheduled(&mut self, op: OpId) {
        let i = op.index();
        let s = self.ops[i];
        let c = self.machine.fu(s.fu).cluster;
        self.cluster_load[c.index()] = self.cluster_load[c.index()].saturating_sub(1);
        self.set_op(i, OpState { start: None, ..s });
        self.ready.push((self.heights[i], Reverse(op.0)));
    }

    /// Writes the state of operation `i`, keeping the checkpoint's
    /// `mismatches` count in step.
    #[inline]
    fn set_op(&mut self, i: usize, new: OpState) {
        if let Some(&snap) = self.checkpoint.ops.get(i) {
            let was = usize::from(self.ops[i] != snap);
            let is = usize::from(new != snap);
            self.checkpoint.mismatches = self.checkpoint.mismatches + is - was;
        }
        self.ops[i] = new;
    }

    /// True if the state equals the last checkpoint, so the attempt can only
    /// loop until its budget runs out.  Otherwise takes the next checkpoint
    /// when the placement count reaches it (Brent's power-of-two schedule).
    fn state_repeats(&mut self) -> bool {
        let cp = &mut self.checkpoint;
        if !cp.ops.is_empty() && cp.mismatches == 0 {
            return true;
        }
        if self.steps == cp.next {
            cp.ops.clone_from(&self.ops);
            cp.mismatches = 0;
            cp.next = cp.next.saturating_mul(2);
        }
        false
    }

    /// Pops the highest-priority unscheduled operation (height, then lowest
    /// id), or `None` when every operation is placed.
    fn pop_ready(&mut self) -> Option<OpId> {
        while let Some((_, Reverse(id))) = self.ready.pop() {
            if self.ops[id as usize].start.is_none() {
                return Some(OpId(id));
            }
        }
        None
    }

    /// Earliest start of `op` consistent with its scheduled predecessors.
    fn estart(&self, op: OpId) -> u64 {
        let mut estart: i64 = 0;
        for e in self.ddg.pred_edges(op) {
            if e.src == op {
                continue; // self recurrences are guaranteed by II >= RecMII
            }
            if let Some(s) = self.ops[e.src.index()].start {
                estart = estart.max(s as i64 + e.weight_at(self.ii));
            }
        }
        estart.max(0) as u64
    }

    /// The unit among `candidates` whose occupant at `cycle` has the lowest
    /// priority (free units sort first); ties go to the lowest unit id because
    /// the index lists are ascending.
    fn victim_fu(&self, cycle: u32, candidates: &[FuId]) -> Option<FuId> {
        candidates.iter().copied().min_by_key(|&f| {
            self.mrt.occupant(cycle, f).map(|occ| self.heights[occ.index()]).unwrap_or(i64::MIN)
        })
    }

    /// Runs the placement loop until every operation is scheduled, the budget
    /// is exhausted or the state repeats (which could only end in exhaustion).
    /// Returns the per-op start times and unit assignments.
    ///
    /// The engine survives the run (`&mut self`) so its buffers can be
    /// [recycled](PlacementEngine::recycle) into a [`SchedScratch`].
    pub fn run<P: ClusterPolicy>(
        &mut self,
        budget: u32,
        policy: &P,
    ) -> Option<(Vec<u32>, Vec<FuId>)> {
        // The ranking buffer is lent to the loop (the policy callback already
        // borrows the whole engine mutably) and restored on every exit path.
        let mut ranked = mem::take(&mut self.ranked_buf);
        let result = self.run_inner(budget, policy, &mut ranked);
        self.ranked_buf = ranked;
        result
    }

    fn run_inner<P: ClusterPolicy>(
        &mut self,
        budget: u32,
        policy: &P,
        ranked: &mut Vec<ClusterId>,
    ) -> Option<(Vec<u32>, Vec<FuId>)> {
        let ddg = self.ddg;
        let ii = self.ii;
        let mut budget = budget as i64;

        while let Some(op) = self.pop_ready() {
            budget -= 1;
            if budget < 0 || self.state_repeats() {
                return None;
            }

            let class = ddg.op(op).class();
            // The estart is computed *before* the policy runs: a backtracking
            // policy may unschedule predecessors, and the window deliberately
            // keeps the bound they implied (matching the original schedulers).
            let estart = self.estart(op);
            ranked.clear();
            let eligibility = policy.eligible(self, op, ranked);

            // Look for a free unit in the scheduling window
            // [estart, estart + II - 1], best cluster first.
            let mut placement: Option<(u64, FuId)> = None;
            'window: for t in estart..estart + ii as u64 {
                if t > u32::MAX as u64 {
                    break;
                }
                let cycle = t as u32;
                match eligibility {
                    Eligibility::AnyCluster => {
                        if let Some(fu) = self.mrt.free_fu(self.machine, cycle, class, None) {
                            placement = Some((t, fu));
                            break 'window;
                        }
                    }
                    Eligibility::Ranked => {
                        for &c in ranked.iter() {
                            if let Some(fu) = self.mrt.free_fu(self.machine, cycle, class, Some(c))
                            {
                                placement = Some((t, fu));
                                break 'window;
                            }
                        }
                    }
                }
            }

            let (time, fu) = match placement {
                Some(p) => p,
                None => {
                    // Forced placement (Rau): at estart if this is the first
                    // time or the window moved forward, otherwise one cycle
                    // after the previous placement so progress is made.
                    let time = match self.ops[op.index()].prev_start {
                        Some(prev) if estart <= prev as u64 => prev as u64 + 1,
                        _ => estart,
                    };
                    if time > u32::MAX as u64 {
                        return None; // the schedule no longer fits the cycle domain
                    }
                    // Evict from the unit whose occupant has the lowest
                    // priority, restricted to the best eligible cluster that
                    // has units of the class at all.  If no eligible cluster
                    // can execute the class the attempt fails — escaping to an
                    // ineligible cluster would break the policy's invariants.
                    let candidates: &[FuId] = match eligibility {
                        Eligibility::AnyCluster => self.machine.fu_ids_of_class(class),
                        Eligibility::Ranked => ranked
                            .iter()
                            .map(|&c| self.machine.fu_ids_of_class_in_cluster(c, class))
                            .find(|units| !units.is_empty())
                            .unwrap_or(&[]),
                    };
                    match self.victim_fu(time as u32, candidates) {
                        Some(f) => (time, f),
                        None => return None,
                    }
                }
            };

            let cycle = time as u32;
            // Evict the current occupant of the chosen slot, if any.
            if let Some(victim) = self.mrt.release(cycle, fu) {
                self.mark_unscheduled(victim);
            }
            self.mrt.reserve(cycle, fu, op);
            self.set_op(op.index(), OpState { start: Some(cycle), fu, prev_start: Some(cycle) });
            self.steps += 1;
            let placed_cluster = self.machine.fu(fu).cluster;
            self.cluster_load[placed_cluster.index()] += 1;

            // Unschedule already-placed operations whose dependences with `op`
            // are now violated — and, under a restrictive policy, flow
            // neighbours the placement stranded in incompatible clusters; they
            // will be re-placed later (this is the "iterative" part).
            for e in ddg.succ_edges(op) {
                if e.dst == op {
                    continue;
                }
                let dst = self.ops[e.dst.index()];
                if let Some(s_dst) = dst.start {
                    let dep_violated = (s_dst as i64) < time as i64 + e.weight_at(ii);
                    let comm_violated = e.kind == DepKind::Flow
                        && policy.comm_violated(
                            self.machine,
                            placed_cluster,
                            self.machine.fu(dst.fu).cluster,
                        );
                    if dep_violated || comm_violated {
                        self.unschedule(e.dst);
                    }
                }
            }
            for e in ddg.pred_edges(op) {
                if e.src == op {
                    continue;
                }
                let src = self.ops[e.src.index()];
                if let Some(s_src) = src.start {
                    let dep_violated = (time as i64) < s_src as i64 + e.weight_at(ii);
                    let comm_violated = e.kind == DepKind::Flow
                        && policy.comm_violated(
                            self.machine,
                            self.machine.fu(src.fu).cluster,
                            placed_cluster,
                        );
                    if dep_violated || comm_violated {
                        self.unschedule(e.src);
                    }
                }
            }
        }

        // The result vectors escape into the schedule, so they are the one
        // fresh allocation of a successful attempt; the working buffers stay
        // with the engine for recycling.  The loop only exits with every
        // operation placed, so an unplaced one fails the attempt rather than
        // the process.
        let start: Vec<u32> = self.ops.iter().map(|s| s.start).collect::<Option<_>>()?;
        Some((start, self.ops.iter().map(|s| s.fu).collect()))
    }
}

/// Runs one scheduling attempt of `ddg` on `machine` at the given II under
/// `policy`, bounded by `budget` placements.
pub fn run_placement<P: ClusterPolicy>(
    ddg: &Ddg,
    machine: &Machine,
    ii: u32,
    budget: u32,
    policy: &P,
) -> Option<(Vec<u32>, Vec<FuId>)> {
    PlacementEngine::new(ddg, machine, ii).run(budget, policy)
}

/// [`run_placement`] backed by a caller-owned [`SchedScratch`]: repeated
/// attempts (the II search, a corpus compile) reuse one set of buffers.
pub fn run_placement_with<P: ClusterPolicy>(
    ddg: &Ddg,
    machine: &Machine,
    ii: u32,
    budget: u32,
    policy: &P,
    scratch: &mut SchedScratch,
) -> Option<(Vec<u32>, Vec<FuId>)> {
    let mut engine = PlacementEngine::new_in(ddg, machine, ii, scratch);
    let result = engine.run(budget, policy);
    engine.recycle(scratch);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::height_r;
    use vliw_ddg::{DdgBuilder, LatencyModel, OpKind};

    fn machine(fus: usize) -> Machine {
        Machine::single_cluster(fus, 2, 32, LatencyModel::default())
    }

    #[test]
    fn ready_queue_orders_by_height_then_lowest_id() {
        // Three independent adds plus a chain head: the chain head (highest
        // height) is placed at cycle 0, then the ties go in id order.
        let mut b = DdgBuilder::new(LatencyModel::unit());
        let ops = b.ops(OpKind::Add, 3);
        let tail = b.op(OpKind::Add);
        b.flow(ops[1], tail);
        let g = b.finish();
        let m = machine(6);
        let (start, _) = run_placement(&g, &m, 2, 64, &AnyClusterPolicy).unwrap();
        // op1 heads the only chain: scheduled first, at its estart.
        assert_eq!(start[ops[1].index()], 0);
    }

    /// The historical scan-based IMS attempt (pre-engine), kept verbatim as an
    /// executable specification of the placement order: highest-priority
    /// unscheduled op by `(height, Reverse(id))` maximised, window search,
    /// Rau's forced placement, lowest-priority victim eviction,
    /// dependence-violation unscheduling.
    fn naive_schedule_at(
        ddg: &Ddg,
        mach: &Machine,
        ii: u32,
        budget: u32,
    ) -> Option<(Vec<u32>, Vec<FuId>)> {
        let n = ddg.num_ops();
        let heights = height_r(ddg, ii);
        let mut start: Vec<Option<u32>> = vec![None; n];
        let mut fu_of: Vec<FuId> = vec![FuId(0); n];
        let mut prev_start: Vec<u32> = vec![0; n];
        let mut never_scheduled: Vec<bool> = vec![true; n];
        let mut mrt = Mrt::new(mach, ii);
        let mut budget = budget as i64;
        while let Some(i) = (0..n)
            .filter(|&i| start[i].is_none())
            .max_by_key(|&i| (heights[i], std::cmp::Reverse(i)))
        {
            let op = OpId(i as u32);
            budget -= 1;
            if budget < 0 {
                return None;
            }
            let class = ddg.op(op).class();
            let mut estart: i64 = 0;
            for e in ddg.pred_edges(op) {
                if e.src == op {
                    continue;
                }
                if let Some(s) = start[e.src.index()] {
                    estart = estart.max(s as i64 + e.weight_at(ii));
                }
            }
            let estart = estart.max(0) as u32;
            let mut placement: Option<(u32, FuId)> = None;
            for t in estart..estart + ii {
                if let Some(fu) = mrt.free_fu(mach, t, class, None) {
                    placement = Some((t, fu));
                    break;
                }
            }
            let (time, fu) = match placement {
                Some(p) => p,
                None => {
                    let time = if never_scheduled[i] || estart > prev_start[i] {
                        estart
                    } else {
                        prev_start[i] + 1
                    };
                    let victim_fu = mach
                        .fus_of_class(class)
                        .map(|f| f.id)
                        .min_by_key(|&f| {
                            mrt.occupant(time, f)
                                .map(|occ| heights[occ.index()])
                                .unwrap_or(i64::MIN)
                        })
                        .expect("at least one unit of the class");
                    (time, victim_fu)
                }
            };
            if let Some(victim) = mrt.release(time, fu) {
                start[victim.index()] = None;
            }
            mrt.reserve(time, fu, op);
            start[i] = Some(time);
            fu_of[i] = fu;
            prev_start[i] = time;
            never_scheduled[i] = false;
            for e in ddg.succ_edges(op) {
                if e.dst == op {
                    continue;
                }
                if let Some(s_dst) = start[e.dst.index()] {
                    if (s_dst as i64) < time as i64 + e.weight_at(ii) {
                        mrt.release(s_dst, fu_of[e.dst.index()]);
                        start[e.dst.index()] = None;
                    }
                }
            }
            for e in ddg.pred_edges(op) {
                if e.src == op {
                    continue;
                }
                if let Some(s_src) = start[e.src.index()] {
                    if (time as i64) < s_src as i64 + e.weight_at(ii) {
                        mrt.release(s_src, fu_of[e.src.index()]);
                        start[e.src.index()] = None;
                    }
                }
            }
        }
        let start: Vec<u32> = start.into_iter().map(|s| s.expect("all ops scheduled")).collect();
        Some((start, fu_of))
    }

    #[test]
    fn engine_matches_the_naive_priority_scan() {
        // The heap-based ready queue must reproduce the exact placements of
        // the historical `filter().max_by_key()` scan — same start cycles,
        // same unit assignments — including on tie-heavy graphs, eviction
        // (forced placement) and dependence-violation backtracking.
        use vliw_ddg::kernels;
        let budget = 512;
        let mut cases: Vec<Ddg> = Vec::new();
        // Tie-heavy: six independent load→add chains (equal heights per rank).
        let mut b = DdgBuilder::new(LatencyModel::default());
        let lds = b.ops(OpKind::Load, 6);
        let adds = b.ops(OpKind::Add, 6);
        for (l, a) in lds.iter().zip(&adds) {
            b.flow(*l, *a);
        }
        cases.push(b.finish());
        for lp in kernels::all_kernels(LatencyModel::default()) {
            cases.push(lp.ddg);
        }
        // Failing IIs are replayed with a large budget: the cycle-free naive
        // scan then checks that the engine's cycle exit never ends an attempt
        // the budget would have let succeed.
        let large_budget = 50_000;
        let mut replayed = 0;
        for g in &cases {
            for fus in [3, 6] {
                let m = machine(fus);
                for ii in 1..=6 {
                    let engine = run_placement(g, &m, ii, budget, &AnyClusterPolicy);
                    assert_eq!(
                        engine,
                        naive_schedule_at(g, &m, ii, budget),
                        "engine diverges from the naive scan at II {ii} on {fus} FUs"
                    );
                    if engine.is_none() {
                        replayed += 1;
                        assert_eq!(
                            run_placement(g, &m, ii, large_budget, &AnyClusterPolicy),
                            naive_schedule_at(g, &m, ii, large_budget),
                            "engine diverges from the naive scan at II {ii} on {fus} FUs \
                             with budget {large_budget}"
                        );
                    }
                }
            }
        }
        assert!(replayed > 0, "no failing II exercised the failure path");
    }

    /// Puts even operations in cluster 0 and odd ones in cluster 1, and lets
    /// no value cross between them: a placed flow neighbour in the other
    /// cluster is unscheduled by every placement.
    struct SplitPolicy;

    impl ClusterPolicy for SplitPolicy {
        fn eligible(
            &self,
            _engine: &mut PlacementEngine<'_>,
            op: OpId,
            ranked: &mut Vec<ClusterId>,
        ) -> Eligibility {
            ranked.push(ClusterId(op.0 % 2));
            Eligibility::Ranked
        }

        fn comm_violated(&self, _machine: &Machine, from: ClusterId, to: ClusterId) -> bool {
            from != to
        }
    }

    #[test]
    fn a_repeating_state_ends_the_attempt_early() {
        // a -> b across the split: placing b unschedules a, re-placing a (at
        // the same cycle) unschedules b, and so on.  Every second placement
        // returns the engine to the same state.
        let mut b = DdgBuilder::new(LatencyModel::default());
        let a = b.op(OpKind::Add);
        let c = b.op(OpKind::Add);
        b.flow(a, c);
        let g = b.finish();
        let m = Machine::paper_clustered(2, LatencyModel::default());
        let budget = 100_000;
        let mut engine = PlacementEngine::new(&g, &m, 1);
        assert_eq!(engine.run(budget, &SplitPolicy), None);
        // The first checkpoint is taken after `n` = 2 placements, and the
        // period-2 loop is caught within two more checkpoint doublings.
        assert!(engine.steps() <= 16, "{} placements before the exit", engine.steps());
        // A budget too small to reach the checkpoint fails the same way.
        let mut engine = PlacementEngine::new(&g, &m, 1);
        assert_eq!(engine.run(3, &SplitPolicy), None);
        assert_eq!(engine.steps(), 3);
    }

    #[test]
    fn the_mismatch_counter_matches_a_recount() {
        // Cut attempts off after every possible number of placements: once a
        // checkpoint exists, the O(1) counter must equal a full recount of
        // the operations whose state differs from it.
        use vliw_ddg::kernels;
        let mut checked = 0;
        for lp in kernels::all_kernels(LatencyModel::default()) {
            for fus in [3, 6] {
                let m = machine(fus);
                for ii in 1..=3 {
                    for budget in 1..=4 * lp.ddg.num_ops() as u32 {
                        let mut engine = PlacementEngine::new(&lp.ddg, &m, ii);
                        let _ = engine.run(budget, &AnyClusterPolicy);
                        let cp = &engine.checkpoint;
                        if cp.ops.is_empty() {
                            continue;
                        }
                        let recount =
                            engine.ops.iter().zip(&cp.ops).filter(|(a, b)| a != b).count();
                        assert_eq!(
                            cp.mismatches, recount,
                            "{} at II {ii}, budget {budget}",
                            lp.name
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0, "no attempt reached a checkpoint");
    }

    #[test]
    fn a_differing_last_start_is_not_a_repeat() {
        // An unscheduled operation's last start decides where its next forced
        // placement lands, so a state that differs only there is no repeat.
        let mut b = DdgBuilder::new(LatencyModel::default());
        b.ops(OpKind::Add, 2);
        let g = b.finish();
        let m = machine(3);
        let mut engine = PlacementEngine::new(&g, &m, 1);
        engine.steps = engine.checkpoint.next;
        assert!(!engine.state_repeats(), "taking a checkpoint is not a repeat");
        assert!(engine.state_repeats());
        let s = engine.ops[0];
        engine.set_op(0, OpState { prev_start: Some(3), ..s });
        assert!(!engine.state_repeats());
        engine.set_op(0, s);
        assert!(engine.state_repeats());
    }

    #[test]
    fn a_clean_attempt_counts_one_step_per_operation() {
        let mut b = DdgBuilder::new(LatencyModel::default());
        let ops = b.ops(OpKind::Add, 4);
        b.flow(ops[0], ops[1]);
        let g = b.finish();
        let m = machine(6);
        let mut engine = PlacementEngine::new(&g, &m, 2);
        assert!(engine.run(64, &AnyClusterPolicy).is_some());
        assert_eq!(engine.steps(), 4);
    }

    #[test]
    fn scratch_reuse_matches_fresh_engines() {
        // One scratch carried across kernels, machine widths and IIs (so every
        // buffer is resized up and down and the MRT is re-shaped) must yield
        // exactly the placements of a fresh engine every time.
        use vliw_ddg::kernels;
        let mut scratch = SchedScratch::default();
        for lp in kernels::all_kernels(LatencyModel::default()) {
            for fus in [3, 6] {
                let m = machine(fus);
                for ii in 1..=5 {
                    let fresh = run_placement(&lp.ddg, &m, ii, 256, &AnyClusterPolicy);
                    let reused =
                        run_placement_with(&lp.ddg, &m, ii, 256, &AnyClusterPolicy, &mut scratch);
                    assert_eq!(fresh, reused, "II {ii} on {fus} FUs");
                }
            }
        }
    }

    #[test]
    fn exhausted_budget_fails_the_attempt() {
        let mut b = DdgBuilder::new(LatencyModel::default());
        b.ops(OpKind::Add, 8);
        let g = b.finish();
        let m = machine(3);
        assert_eq!(run_placement(&g, &m, 1, 2, &AnyClusterPolicy), None);
    }

    #[test]
    fn long_latency_window_does_not_overflow() {
        // A chain whose estart approaches u32::MAX: the window `estart + II`
        // overflows u32 but must neither wrap nor panic.  Latencies are per-op
        // in the model, so build the reach with a chain of huge latencies.
        let lat = LatencyModel { load: u32::MAX / 2, mul: u32::MAX / 2, ..Default::default() };
        let mut b = DdgBuilder::new(lat);
        let a = b.op(OpKind::Load);
        let m1 = b.op(OpKind::Mul);
        let tail = b.op(OpKind::Add);
        b.flow(a, m1);
        b.flow(m1, tail);
        let g = b.finish();
        let m = machine(6);
        let (start, _) = run_placement(&g, &m, 8, 64, &AnyClusterPolicy).unwrap();
        assert_eq!(start[tail.index()] as u64, u32::MAX as u64 - 1);
    }
}
