//! The traced replay: every (loop, machine) of a workload, stage by stage,
//! through the layers' public functions.
//!
//! The stages run in the order `Compiler::compile` applies them — unroll,
//! copy insertion, IMS or the partitioner, queue allocation (plus the
//! MaxLive register count) — followed by the static verifier and, where the
//! workload's program runs them, the simulator, the bounds analyzer and the
//! persistent store.  Each call sits in a span; the per-loop compile is the
//! parent `pipeline` span of its stages.  Every replayed compilation is
//! compared with the program's own `Compiler::compile` result (the
//! *reference*), so the layer numbers describe the program the untraced run
//! timed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use vliw_core::bounds::BoundsAnalyzer;
use vliw_core::ddg::{Ddg, Loop};
use vliw_core::qrf::conventional_registers_required;
use vliw_core::session::persist::{key_digest, loop_digest};
use vliw_core::session::{CompilationKey, PersistStore, SimSummary};
use vliw_core::verify::verify_with_allocation;
use vliw_core::{
    allocate_queues, insert_copies, modulo_schedule, partition_schedule, select_unroll_factor,
    simulate, unroll_ddg, use_lifetimes, ClusterId, Compilation, CompilerConfig, LatencyModel,
    SchedError,
};

use crate::trace::Recorder;

/// One machine configuration of a workload and the extra layers the
/// workload's program runs on it.
pub struct Target {
    pub label: String,
    pub config: CompilerConfig,
    /// Trip count the program simulates this configuration at, if it does.
    pub sim_trip: Option<u64>,
    /// The program consults the bounds analyzer on this configuration.
    pub bounds: bool,
    key_digest: u64,
}

impl Target {
    pub fn new(config: CompilerConfig) -> Self {
        let label = format!(
            "{}{}{}",
            config.machine.name(),
            if config.use_copies { "" } else { "/no-copies" },
            if config.unroll { "/unroll" } else { "" }
        );
        let key_digest = key_digest(&CompilationKey::of(&config));
        Target { label, config, sim_trip: None, bounds: false, key_digest }
    }
}

/// Drops configurations that compile under the same key, keeping the first.
pub fn distinct(configs: impl IntoIterator<Item = CompilerConfig>) -> Vec<CompilerConfig> {
    let mut seen = std::collections::HashSet::new();
    configs.into_iter().filter(|c| seen.insert(CompilationKey::of(c))).collect()
}

/// The program's compilation of one (target, loop), as `Compiler::compile`
/// returned it.
pub type Reference<'a> =
    dyn Fn(usize, usize, &Loop) -> Arc<Result<Compilation, SchedError>> + Sync + 'a;

/// Counts gathered by one replay (summed over threads).
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub items: u64,
    pub compiled: u64,
    pub compile_errors: u64,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    pub ii_sum: u64,
    pub unroll_ops_out: u64,
    pub copies_inserted: u64,
    pub alloc_calls: u64,
    pub queues: u64,
    pub ims_calls: u64,
    pub ims_attempts: u64,
    pub ims_first_ii: u64,
    pub partition_calls: u64,
    pub partition_attempts: u64,
    /// Per cluster count: partition calls, collapses, partition ns, collapse ns.
    pub by_clusters: [[u64; 4]; 8],
    pub verify_schedule_faults: u64,
    pub sim_cycles: u64,
    pub sim_violations: u64,
    pub sim_errors: u64,
}

impl Tally {
    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.first_mismatch.get_or_insert(what);
    }

    pub fn add(&mut self, o: &Tally) {
        self.items += o.items;
        self.compiled += o.compiled;
        self.compile_errors += o.compile_errors;
        self.mismatches += o.mismatches;
        if self.first_mismatch.is_none() {
            self.first_mismatch.clone_from(&o.first_mismatch);
        }
        self.ii_sum += o.ii_sum;
        self.unroll_ops_out += o.unroll_ops_out;
        self.copies_inserted += o.copies_inserted;
        self.alloc_calls += o.alloc_calls;
        self.queues += o.queues;
        self.ims_calls += o.ims_calls;
        self.ims_attempts += o.ims_attempts;
        self.ims_first_ii += o.ims_first_ii;
        self.partition_calls += o.partition_calls;
        self.partition_attempts += o.partition_attempts;
        for (mine, theirs) in self.by_clusters.iter_mut().zip(&o.by_clusters) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        self.verify_schedule_faults += o.verify_schedule_faults;
        self.sim_cycles += o.sim_cycles;
        self.sim_violations += o.sim_violations;
        self.sim_errors += o.sim_errors;
    }
}

/// True when a partitioner result is the single-cluster collapse: it needed
/// more II attempts than the partitioned search allows (`[start, 3·start+64]`
/// with the default options) and every operation sits in cluster 0.
fn is_collapse(r: &vliw_core::PartitionResult, cfg: &CompilerConfig) -> bool {
    let opts = cfg.partition;
    let start = r.res_mii.max(r.rec_mii).max(opts.min_ii).max(1);
    let max = opts.max_ii.unwrap_or(start.saturating_mul(3).saturating_add(64));
    let partitioned_attempts = max.saturating_sub(start) + 1;
    r.attempts > partitioned_attempts
        && r.schedule.fu.iter().all(|&fu| cfg.machine.fu(fu).cluster == ClusterId(0))
}

/// Replays (target, loop) pairs on `recorders.len()` threads.
pub struct Replay<'a> {
    targets: &'a [Target],
    reference: &'a Reference<'a>,
    persist: Option<&'a PersistStore>,
    analyzer: BoundsAnalyzer,
}

impl<'a> Replay<'a> {
    pub fn new(
        targets: &'a [Target],
        reference: &'a Reference<'a>,
        persist: Option<&'a PersistStore>,
    ) -> Self {
        Replay {
            targets,
            reference,
            persist,
            analyzer: BoundsAnalyzer::new(LatencyModel::default()),
        }
    }

    /// Replays every target on every loop of `loops`, whose first loop has
    /// corpus index `offset`; thread `k` records into `recorders[k]` and
    /// counts into `tallies[k]`.
    pub fn run(
        &self,
        loops: &[Loop],
        offset: usize,
        recorders: &mut [Recorder],
        tallies: &mut [Tally],
    ) {
        let items = self.targets.len() * loops.len();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for (rec, tally) in recorders.iter_mut().zip(tallies.iter_mut()) {
                let next = &next;
                scope.spawn(move || loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= items {
                        break;
                    }
                    let (ti, local) = (k / loops.len(), k % loops.len());
                    self.item(ti, offset + local, &loops[local], rec, tally);
                });
            }
        });
    }

    fn item(&self, ti: usize, li: usize, lp: &Loop, rec: &mut Recorder, tally: &mut Tally) {
        let target = &self.targets[ti];
        let cfg = &target.config;
        let machine = &cfg.machine;
        let latencies = *machine.latencies();
        tally.items += 1;

        rec.enter("pipeline", li, ti);
        let unrolled = |rec: &mut Recorder| -> (Ddg, u32) {
            let (u, _) = rec.time("unroll", li, ti, || {
                unroll_ddg(&lp.ddg, select_unroll_factor(&lp.ddg, machine, cfg.max_unroll))
            });
            (u.ddg, u.factor)
        };
        let (body, factor, copies) = match (cfg.unroll, cfg.use_copies) {
            (true, true) => {
                let (ddg, factor) = unrolled(rec);
                tally.unroll_ops_out += ddg.num_ops() as u64;
                let (ins, _) = rec.time("qrf/copies", li, ti, || insert_copies(&ddg, &latencies));
                let n = ins.num_copies();
                (ins.ddg, factor, n)
            }
            (true, false) => {
                let (ddg, factor) = unrolled(rec);
                tally.unroll_ops_out += ddg.num_ops() as u64;
                (ddg, factor, 0)
            }
            (false, true) => {
                let (ins, _) =
                    rec.time("qrf/copies", li, ti, || insert_copies(&lp.ddg, &latencies));
                let n = ins.num_copies();
                (ins.ddg, 1, n)
            }
            (false, false) => (lp.ddg.clone(), 1, 0),
        };
        tally.copies_inserted += copies as u64;

        let scheduled = if machine.is_clustered() {
            let (r, ns) =
                rec.time("partition", li, ti, || partition_schedule(&body, machine, cfg.partition));
            r.map(|r| {
                let row = &mut tally.by_clusters[machine.num_clusters().min(7)];
                let collapse = is_collapse(&r, cfg);
                row[0] += 1;
                row[1] += u64::from(collapse);
                row[2] += ns;
                row[3] += if collapse { ns } else { 0 };
                tally.partition_calls += 1;
                tally.partition_attempts += u64::from(r.attempts);
                r.schedule
            })
        } else {
            let (r, _) = rec.time("sched", li, ti, || modulo_schedule(&body, machine, cfg.sched));
            r.map(|r| {
                tally.ims_calls += 1;
                tally.ims_attempts += u64::from(r.attempts);
                tally.ims_first_ii += u64::from(r.attempts == 1);
                r.schedule
            })
        };
        let schedule = match scheduled {
            Ok(s) => s,
            Err(e) => {
                rec.exit();
                tally.compile_errors += 1;
                if (self.reference)(ti, li, lp).is_ok() {
                    tally.mismatch(format!("{} loop {li}: replay failed ({e})", target.label));
                }
                return;
            }
        };

        let (queues, _) = rec.time("qrf/alloc", li, ti, || {
            allocate_queues(&use_lifetimes(&body, &schedule), schedule.ii)
        });
        tally.alloc_calls += 1;
        tally.queues += queues.num_queues() as u64;
        let (registers, _) =
            rec.time("qrf/registers", li, ti, || conventional_registers_required(&body, &schedule));
        rec.exit();
        tally.compiled += 1;
        tally.ii_sum += u64::from(schedule.ii);

        let reference = (self.reference)(ti, li, lp);
        let summary = match reference.as_ref() {
            Ok(c) => {
                if c.schedule != schedule
                    || c.queues != queues
                    || c.registers_required != registers
                    || c.unroll_factor != factor
                {
                    tally.mismatch(format!(
                        "{} loop {li}: replay differs from Compiler::compile",
                        target.label
                    ));
                }
                c.summarize()
            }
            Err(e) => {
                tally
                    .mismatch(format!("{} loop {li}: only the program failed ({e})", target.label));
                return;
            }
        };

        let (verdict, _) = rec
            .time("verify", li, ti, || verify_with_allocation(&body, machine, &schedule, &queues));
        tally.verify_schedule_faults += verdict.schedule_faults;

        let mut sim = None;
        if let Some(trip) = target.sim_trip {
            let (run, _) = rec.time("sim", li, ti, || simulate(&body, machine, &schedule, trip));
            match run {
                Ok(run) => {
                    tally.sim_cycles += run.measurement.total_cycles;
                    tally.sim_violations += run.total_violations();
                    sim = Some(SimSummary::from(&run));
                }
                Err(_) => tally.sim_errors += 1,
            }
        }
        if target.bounds {
            rec.time("bounds", li, ti, || self.analyzer.analyze(li, lp, machine));
        }

        if let Some(store) = self.persist {
            let (kd, ld) = (target.key_digest, loop_digest(lp));
            let stored = Ok(summary);
            rec.time("persist/write", li, ti, || store.store_compile(kd, ld, &stored));
            let (loaded, _) = rec.time("persist/read", li, ti, || store.load_compile(kd, ld));
            let mut same = loaded.as_ref() == Some(&stored);
            if let (Some(run), Some(trip)) = (&sim, target.sim_trip) {
                rec.time("persist/write", li, ti, || store.store_sim(kd, ld, trip, run));
                let (loaded, _) = rec.time("persist/read", li, ti, || store.load_sim(kd, ld, trip));
                same &= loaded.as_ref() == Some(run);
            }
            if !same {
                tally.mismatch(format!("{} loop {li}: persist round trip differs", target.label));
            }
        }
    }
}

/// One replay pass: its spans (empty when untraced), summed counts and wall.
pub struct Pass {
    pub spans: Vec<crate::trace::Span>,
    pub tally: Tally,
    pub wall_s: f64,
}

/// Runs `replay` on `threads` workers plus the calling thread (which records
/// corpus generation), with recording on or off.
pub fn pass(
    threads: usize,
    traced: bool,
    replay: impl FnOnce(&mut Recorder, &mut [Recorder], &mut [Tally]),
) -> Pass {
    let epoch = std::time::Instant::now();
    let mut main = Recorder::new(epoch, traced);
    let mut workers: Vec<Recorder> = (0..threads).map(|_| Recorder::new(epoch, traced)).collect();
    let mut tallies = vec![Tally::default(); threads];
    replay(&mut main, &mut workers, &mut tallies);
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    for t in &tallies {
        tally.add(t);
    }
    workers.insert(0, main);
    Pass { spans: crate::trace::merge(workers), tally, wall_s }
}

/// Replays four times — untraced, traced, traced, untraced, so a drift in
/// machine speed cancels out of the overhead — and reports the first traced
/// pass's layer metrics, the tracing overhead and the fidelity checks of
/// every pass.  Writes the spans to `out` and returns the first traced pass.
pub fn replay_traced(
    report: &mut crate::report::Report,
    out: &std::path::Path,
    labels: &[String],
    threads: usize,
    replay: impl Fn(&mut Recorder, &mut [Recorder], &mut [Tally]),
) -> Pass {
    let first = pass(threads, false, &replay);
    let traced = pass(threads, true, &replay);
    let mut second = pass(threads, true, &replay);
    second.spans = Vec::new();
    let last = pass(threads, false, &replay);
    let untraced_s = (first.wall_s + last.wall_s) / 2.0;
    let traced_s = (traced.wall_s + second.wall_s) / 2.0;

    let layers = crate::trace::layers(&traced.spans);
    report.stage_metrics(&layers, &traced.tally);
    report.set("trace.untraced_replay_s", untraced_s);
    report.set("trace.traced_replay_s", traced_s);
    report.set("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
    report.set("trace.spans", traced.spans.len() as f64);
    report.line(format!(
        "# tracing overhead: {traced_s:.3} s traced - {untraced_s:.3} s untraced = {:+.3} s \
         on a base of {untraced_s:.3} s (means of two replays each)",
        traced_s - untraced_s
    ));
    for (name, p) in
        [("untraced", &first), ("traced", &traced), ("traced", &second), ("untraced", &last)]
    {
        let t = &p.tally;
        report.attempted += t.items;
        report.failed += t.compile_errors + t.verify_schedule_faults + t.sim_errors;
        report.check(
            t.mismatches == 0,
            format!(
                "{name} replay: {} of {} compilations differ from the program's ({})",
                t.mismatches,
                t.items,
                t.first_mismatch.as_deref().unwrap_or("-")
            ),
        );
        report.check(
            t.items == traced.tally.items && t.ii_sum == traced.tally.ii_sum,
            "every replay pass did the same work",
        );
    }
    if let Err(e) = crate::trace::write_spans(out, &traced.spans, labels) {
        report.check(false, format!("writing {}: {e}", out.display()));
    } else {
        report.line(format!("# spans written to {}", out.display()));
    }
    traced
}
