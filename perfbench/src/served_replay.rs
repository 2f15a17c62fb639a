//! `served_replay`: an in-process `vliw-serve` daemon on a Unix socket over
//! the paper-sized 1258-loop corpus.
//!
//! Two closed-loop client connections send the mix `fig3`, `copy_cost`,
//! `fig4`, `sweep small dynamic` and `sweep small static pruned` (the second
//! client in reverse order).  Every run first plays the persisted round: a
//! cold pass into a fresh cache directory (compile, simulate, persist), the
//! same mix against a daemon restarted on that directory (answered from
//! disk), and a warm phase of repeated requests answered from memory; all of
//! their responses must be byte-identical.  The timed passes that follow are
//! cold passes through an in-memory daemon: the persisted cold pass is one
//! `fsync` per stored entry, and on a shared host the `fsync` latency moves
//! threefold within minutes, so the persisted round is reported and checked
//! but carries no bound.  The workload exercises the partitioner's cheap
//! 4-cluster success path, the simulator, the verifier, the bounds analyzer,
//! the session store, persist writes beside reads, and the protocol.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

use vliw_bench::{ServeClient, PAPER_CORPUS_LOOPS};
use vliw_core::experiments::sweep::SWEEP_TRIP_COUNT;
use vliw_core::experiments::{Classify, ExperimentRequest, ExperimentResponse};
use vliw_core::session::PersistStore;
use vliw_core::{
    generate_corpus, Compiler, CompilerConfig, CorpusConfig, Loop, Machine, Session, SweepGrid,
    VliwError,
};
use vliw_serve::{Listen, ServeConfig, Server};

use crate::replay::{distinct, replay_traced, Replay, Target};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, percentile, tail};
use crate::trace::{self, Recorder};
use crate::{Args, OUT_DIR, THREADS};

/// Warm requests each client sends: 1000 in all, so the p99 has ten
/// requests beyond it.
const WARM_PER_CLIENT: usize = 500;

/// Fewest timed cold passes a run medians over.
const MIN_PASSES: usize = 3;

/// Set-up samples (daemon binds) per timed pass, the pass's own included.
const SETUP_SAMPLES_PER_PASS: usize = 4;

/// The request mix, by kind name.
fn mix() -> Vec<(&'static str, ExperimentRequest)> {
    let sweep = |classify, prune| ExperimentRequest::Sweep {
        grid: SweepGrid::Small,
        classify,
        prune,
        audit: 0,
    };
    vec![
        ("fig3", ExperimentRequest::Fig3),
        ("copy_cost", ExperimentRequest::CopyCost),
        ("fig4", ExperimentRequest::Fig4),
        ("sweep_dynamic", sweep(Classify::Dynamic, false)),
        ("sweep_pruned", sweep(Classify::Static, true)),
    ]
}

/// Every configuration the mix compiles: Fig. 3 / copy-cost's six, Fig. 4's
/// three unrolled ones, and the small grid's probe machine, which the sweeps
/// simulate and bound.
fn targets() -> Vec<Target> {
    let mut configs = Vec::new();
    for fus in [4, 6, 12] {
        let machine = Machine::paper_single(fus);
        configs.push(CompilerConfig::paper_defaults(machine.clone()).no_unroll());
        configs.push(CompilerConfig::without_copies(machine.clone()).no_unroll());
        configs.push(CompilerConfig::paper_defaults(machine));
    }
    let probes: Vec<CompilerConfig> = SweepGrid::Small
        .space()
        .configs()
        .into_iter()
        .map(|c| CompilerConfig::paper_defaults(c.probe_machine(Default::default())))
        .collect();
    let probes = distinct(probes);
    let mut targets: Vec<Target> = distinct(configs).into_iter().map(Target::new).collect();
    targets.extend(probes.into_iter().map(|config| {
        let mut t = Target::new(config);
        t.sim_trip = Some(SWEEP_TRIP_COUNT);
        t.bounds = true;
        t
    }));
    targets
}

struct Daemon {
    session: Arc<Session>,
    addr: String,
    handle: JoinHandle<Result<(), VliwError>>,
}

fn serve_config(seed: u64, cache: Option<&Path>) -> ServeConfig {
    ServeConfig {
        // Relative, so the path stays within the socket-path limit wherever
        // the checkout lives.
        listen: Listen::Unix(scratch().join("serve.sock")),
        corpus_size: PAPER_CORPUS_LOOPS,
        seed,
        threads: Some(THREADS),
        cache_dir: cache.map(Path::to_path_buf),
    }
}

/// Binds a daemon (corpus generation, store open, listener) and returns it
/// with its set-up time.
fn start(seed: u64, cache: Option<&Path>) -> Result<(Daemon, f64), VliwError> {
    let t = Instant::now();
    let server = Server::bind(serve_config(seed, cache))?;
    let setup = t.elapsed().as_secs_f64();
    let session = Arc::clone(server.session());
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    Ok((Daemon { session, addr, handle }, setup))
}

fn stop(daemon: Daemon) -> Result<(), VliwError> {
    ServeClient::connect(&daemon.addr)?.shutdown()?;
    daemon.handle.join().map_err(|_| VliwError::internal("daemon thread panicked"))?
}

/// What the clients observed in one phase.
struct Phase {
    wall_s: f64,
    /// Per request: kind index, latency, response.
    requests: Vec<(usize, u64, Result<ExperimentResponse, VliwError>)>,
}

/// Each client connects, then — once every client is connected and accepted,
/// so the accept loop's polling stays out of the timed requests — sends
/// `rounds` requests in closed loop; client `c`'s request `i` is mix kind
/// `order(c, i)`.
fn phase(
    addr: &str,
    recorders: &mut [Recorder],
    mix: &[(&'static str, ExperimentRequest)],
    rounds: usize,
    order: impl Fn(usize, usize) -> usize + Sync,
) -> Result<Phase, VliwError> {
    let ready = Barrier::new(recorders.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = recorders
            .iter_mut()
            .enumerate()
            .map(|(c, rec)| {
                let (order, ready) = (&order, &ready);
                scope.spawn(move || {
                    let client = ServeClient::connect(addr).and_then(|mut client| {
                        client.info()?;
                        Ok(client)
                    });
                    ready.wait();
                    let mut client = client?;
                    Ok((0..rounds)
                        .map(|i| {
                            let k = order(c, i);
                            let start = Instant::now();
                            rec.enter(mix[k].0, i, k);
                            let answer = client.run(vec![mix[k].1.clone()]);
                            rec.exit();
                            let ns = start.elapsed().as_nanos() as u64;
                            let answer = answer.and_then(|mut r| {
                                r.pop().ok_or_else(|| VliwError::internal("empty answer"))
                            });
                            (k, ns, answer)
                        })
                        .collect::<Vec<_>>())
                })
            })
            .collect();
        ready.wait();
        let t = Instant::now();
        let mut requests = Vec::new();
        for handle in handles {
            let done: Result<Vec<_>, VliwError> =
                handle.join().expect("client threads do not panic");
            requests.extend(done?);
        }
        Ok(Phase { wall_s: t.elapsed().as_secs_f64(), requests })
    })
}

/// The whole mix from every client, the second in reverse order.
fn mix_pass(
    addr: &str,
    recorders: &mut [Recorder],
    mix: &[(&'static str, ExperimentRequest)],
) -> Result<Phase, VliwError> {
    let n = mix.len();
    phase(addr, recorders, mix, n, |c, i| if c % 2 == 0 { i } else { n - 1 - i })
}

/// Serialized responses by kind; every request of the phase must have
/// succeeded and clients must agree byte for byte.
fn responses(report: &mut Report, phase: &Phase, kinds: usize, what: &str) -> Vec<String> {
    let mut by_kind: Vec<Option<String>> = vec![None; kinds];
    for (k, _, answer) in &phase.requests {
        report.attempted += 1;
        match answer {
            Ok(r) => {
                let bytes = serde_json::to_string(r).expect("responses serialize");
                match &by_kind[*k] {
                    Some(seen) => report.check(*seen == bytes, format!("{what}: clients disagree")),
                    None => by_kind[*k] = Some(bytes),
                }
            }
            Err(e) => {
                report.failed += 1;
                report.check(false, format!("{what} request failed: {e}"));
            }
        }
    }
    by_kind.into_iter().map(Option::unwrap_or_default).collect()
}

/// Files and bytes under `dir`.
fn disk_usage(dir: &Path) -> (u64, u64) {
    let mut stack = vec![dir.to_path_buf()];
    let (mut files, mut bytes) = (0, 0);
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(entry.path()),
                Ok(m) => {
                    files += 1;
                    bytes += m.len();
                }
                Err(_) => {}
            }
        }
    }
    (files, bytes)
}

/// What the persisted round leaves for later phases: the cold responses by
/// kind and the warm phase.
struct Round {
    cold_bytes: Vec<String>,
    warm: Phase,
}

/// Cold pass into a fresh `cache`, the mix again from a daemon restarted on
/// it, and the warm phase on the restarted daemon.  Checks run outside the
/// timed phases.
fn persisted_round(
    seed: u64,
    cache: &Path,
    report: &mut Report,
    recorders: &mut [Recorder],
) -> Result<Round, VliwError> {
    let mix = mix();
    let (daemon, _) = start(seed, Some(cache))?;
    let cold = mix_pass(&daemon.addr, recorders, &mix)?;
    let cold_bytes = responses(report, &cold, mix.len(), "persisted cold pass");
    let (files, bytes) = disk_usage(cache);
    report.set("persist.files", files as f64);
    report.set("persist.bytes_written", bytes as f64);
    report.set("serve.response_bytes", cold_bytes.iter().map(String::len).sum::<usize>() as f64);
    stop(daemon)?;

    let (daemon, _) = start(seed, Some(cache))?;
    let restart = mix_pass(&daemon.addr, recorders, &mix)?;
    // The static sweep verifies full compilations, which the store does not
    // keep, so a restart recompiles its probe machine: the count is reported,
    // not required to be 0.
    let restart_compilations = daemon.session.stats().compilations;
    report.check(daemon.session.stats().disk_hits > 0, "the restarted daemon read from disk");
    let restart_bytes = responses(report, &restart, mix.len(), "restart");
    report.check(restart_bytes == cold_bytes, "restarted responses equal the cold pass's bytes");

    let n = mix.len();
    let warm = phase(&daemon.addr, recorders, &mix, WARM_PER_CLIENT, |c, i| (i + c) % n)?;
    for (k, _, answer) in &warm.requests {
        report.attempted += 1;
        match answer {
            Ok(r) => report.check(
                serde_json::to_string(r).expect("responses serialize") == cold_bytes[*k],
                format!("warm {} response equals the cold pass's bytes", mix[*k].0),
            ),
            Err(e) => {
                report.failed += 1;
                report.check(false, format!("warm request failed: {e}"));
            }
        }
    }
    let stats = daemon.session.stats();
    report.check(stats.compilations == restart_compilations, "the warm phase compiled nothing");
    report.session(&stats);
    stop(daemon)?;

    let mut all: Vec<u64> = warm.requests.iter().map(|r| r.1).collect();
    all.sort_unstable();
    let (pct, tail_ns) = tail(&all);
    let p50 = percentile(&all, 50.0) as f64 / 1e6;
    let p99 = percentile(&all, 99.0) as f64 / 1e6;
    let rate = all.len() as f64 / warm.wall_s;
    report.set("serve.restart_s", restart.wall_s);
    report.set("serve.request_p50_ms", p50);
    report.set("serve.request_p99_ms", p99);
    report.set("serve.requests_per_s", rate);
    report.line(format!(
        "# persisted round: cold pass {:.3} s, restart_s = {} s ({restart_compilations} \
         compilations, {} disk hits)",
        cold.wall_s, restart.wall_s, stats.disk_hits
    ));
    report.line(format!(
        "# warm: request_p50_ms = {p50} ms, request_p99_ms = {p99} ms \
         (p{pct} = {} ms) over {} requests, requests_per_s = {rate} 1/s",
        tail_ns as f64 / 1e6,
        all.len()
    ));
    Ok(Round { cold_bytes, warm })
}

/// One timed cold pass through an in-memory daemon: its set-up, the pass,
/// its compilation count and its responses by kind.
fn memory_pass(
    seed: u64,
    first: bool,
    report: &mut Report,
    recorders: &mut [Recorder],
) -> Result<(f64, Phase, u64, Vec<String>), VliwError> {
    let mix = mix();
    let (daemon, setup) = start(seed, None)?;
    let cold = mix_pass(&daemon.addr, recorders, &mix)?;
    let compilations = daemon.session.stats().compilations;
    let bytes = responses(report, &cold, mix.len(), "cold pass");
    if first {
        examine(&daemon.session, report);
    }
    stop(daemon)?;
    Ok((setup, cold, compilations, bytes))
}

/// After the cold pass: the benchmark's configuration list is exactly what
/// the mix compiled; records the mean II per original iteration.
fn examine(session: &Session, report: &mut Report) {
    let targets = targets();
    let compiled = session.stats().compilations;
    let listed = (targets.len() * session.num_loops()) as u64;
    report.check(
        compiled == listed,
        format!("the mix compiled {compiled} (loop, machine) pairs, the benchmark lists {listed}"),
    );
    let (mut sum, mut n) = (0.0, 0u64);
    for target in &targets {
        let compiler = session.compiler(target.config.clone());
        for li in 0..session.num_loops() {
            match compiler.map_ok(li, |s| f64::from(s.ii) / f64::from(s.unroll_factor.max(1))) {
                Some(v) => {
                    sum += v;
                    n += 1;
                }
                None => report.failed += 1,
            }
        }
    }
    report.check(session.stats().compilations == compiled, "the mix's list needed no compile");
    report.set("ii_per_iter", sum / n.max(1) as f64);
}

/// Run files: the persisted round's cache directory, the socket and the
/// replay stores.
fn scratch() -> PathBuf {
    PathBuf::from(OUT_DIR).join("served")
}

/// Deletes the run files and waits for the file system to commit the
/// deletion, so its cost stays out of every timed phase (this run's and the
/// next one's).
fn clear_scratch() -> std::io::Result<()> {
    match std::fs::remove_dir_all(scratch()) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::File::open(OUT_DIR)?.sync_all()
}

pub fn run(args: &Args, report: &mut Report) {
    let ready = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| clear_scratch())
        .and_then(|()| std::fs::create_dir_all(scratch()));
    if let Err(e) = ready {
        return report.check(false, format!("preparing {}: {e}", scratch().display()));
    }
    if args.trace {
        traced(args, report);
    } else {
        untraced(args, report);
    }
    if let Err(e) = clear_scratch() {
        report.check(false, format!("deleting {}: {e}", scratch().display()));
    }
}

fn untraced(args: &Args, report: &mut Report) {
    let started = Instant::now();
    let mut recorders: Vec<Recorder> =
        (0..THREADS).map(|_| Recorder::new(started, false)).collect();
    let (mut setups, mut walls, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_bytes = None;
    let mut peak = 0.0;
    // Stop before a pass would overrun `--seconds`.
    let last = |walls: &[f64]| walls.last().copied().unwrap_or(0.0);
    while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() + last(&walls) <= args.seconds
    {
        // Binding takes milliseconds; bind more daemons before each pass for
        // a steady median over the whole run.
        for _ in 1..SETUP_SAMPLES_PER_PASS {
            let t = Instant::now();
            let bound = Server::bind(serve_config(args.seed, None));
            setups.push(t.elapsed().as_secs_f64());
            if let Err(e) = bound {
                return report.check(false, format!("binding a daemon: {e}"));
            }
        }
        let (setup, cold, compilations, bytes) =
            match memory_pass(args.seed, walls.is_empty(), report, &mut recorders) {
                Ok(pass) => pass,
                Err(e) => return report.check(false, format!("cold pass: {e}")),
            };
        setups.push(setup);
        walls.push(cold.wall_s);
        rates.push(compilations as f64 / cold.wall_s);
        match &first_bytes {
            Some(first) => report.check(bytes == *first, "every cold pass answers the same bytes"),
            None => {
                // The process's peak after one daemon lifetime: every later
                // daemon repeats the work, but leaves the allocator's arenas
                // a little more fragmented, by an amount that varies from run
                // to run.
                peak = peak_rss_mb();
                let round =
                    persisted_round(args.seed, &scratch().join("cache"), report, &mut recorders);
                match round {
                    Ok(round) => report.check(
                        round.cold_bytes == bytes,
                        "the persisted daemon answers the in-memory daemon's bytes",
                    ),
                    Err(e) => return report.check(false, format!("persisted round: {e}")),
                }
                first_bytes = Some(bytes);
            }
        }
    }
    report.set("setup_s", median(&setups));
    report.set("wall_s", median(&walls));
    report.set("compiles_per_s", median(&rates));
    report.set("peak_rss_mb", peak);
    report.line(format!(
        "# {} in-memory cold passes, walls {:?}",
        walls.len(),
        walls.iter().map(|w| format!("{w:.3}")).collect::<Vec<_>>()
    ));
}

/// The persisted round with every client request in a span, then the replay
/// of the mix's every (loop, machine), untraced and traced, against
/// `Compiler::compile`, including the bounds analyzer and a persist store
/// round trip per compilation.
fn traced(args: &Args, report: &mut Report) {
    let mix = mix();
    let epoch = Instant::now();
    let mut recorders: Vec<Recorder> = (0..THREADS).map(|_| Recorder::new(epoch, true)).collect();
    let round = match persisted_round(args.seed, &scratch().join("cache"), report, &mut recorders) {
        Ok(r) => r,
        Err(e) => return report.check(false, format!("persisted round: {e}")),
    };
    const KIND_P50: [&str; 5] = [
        "serve.fig3_p50_ms",
        "serve.copy_cost_p50_ms",
        "serve.fig4_p50_ms",
        "serve.sweep_dynamic_p50_ms",
        "serve.sweep_pruned_p50_ms",
    ];
    for (k, name) in KIND_P50.into_iter().enumerate() {
        let mut ns: Vec<u64> =
            round.warm.requests.iter().filter(|r| r.0 == k).map(|r| r.1).collect();
        ns.sort_unstable();
        report.set(name, percentile(&ns, 50.0) as f64 / 1e6);
    }
    let spans = trace::merge(recorders);
    let layers = trace::layers(&spans);
    for (kind, _) in &mix {
        report.layer(&layers, kind, [None; 4]);
    }
    let kinds: Vec<String> = mix.iter().map(|(k, _)| k.to_string()).collect();
    let requests_out = Path::new(OUT_DIR).join("served_replay.requests.tsv");
    if let Err(e) = trace::write_spans(&requests_out, &spans, &kinds) {
        report.check(false, format!("writing {}: {e}", requests_out.display()));
    }

    let targets = targets();
    let compilers: Vec<Compiler> =
        targets.iter().map(|t| Compiler::new(t.config.clone())).collect();
    let reference = |ti: usize, _: usize, lp: &Loop| Arc::new(compilers[ti].compile(lp));
    // Each replay pass writes a fresh store, so every pass creates every file.
    let passes = AtomicUsize::new(0);
    let corpus_config = CorpusConfig::small(PAPER_CORPUS_LOOPS, args.seed);
    let labels: Vec<String> = targets.iter().map(|t| t.label.clone()).collect();
    let out = Path::new(OUT_DIR).join("served_replay.spans.tsv");
    replay_traced(report, &out, &labels, THREADS, |main, workers, tallies| {
        let pass = passes.fetch_add(1, Ordering::Relaxed);
        let store = PersistStore::open(&scratch().join(format!("replay-store-{pass}")))
            .expect("the replay store opens under the run directory");
        let (corpus, _) = main.time("loopgen", 0, 0, || generate_corpus(&corpus_config));
        Replay::new(&targets, &reference, Some(&store)).run(&corpus, 0, workers, tallies);
    });
    let ops: usize = generate_corpus(&corpus_config).iter().map(|lp| lp.ddg.num_ops()).sum();
    report.set("loopgen.ops", ops as f64);
}
