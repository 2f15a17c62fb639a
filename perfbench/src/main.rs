//! End-to-end and per-layer benchmark of the vliw-repro workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures_cold|stream_single|served_replay \
//!     --seed N --seconds S --trace 0|1 [--corpus-seed N]
//! ```
//!
//! With `--trace 0` a run times the workload's program with no spans anywhere
//! and prints the end-to-end metrics; with `--trace 1` it runs the program
//! once and then replays its every (loop, machine) through the layers'
//! public functions inside spans recorded by this benchmark, and prints the
//! per-layer metrics.  Both check the program's outputs.  The last line of
//! standard output is the result object; run files go under `.perfbench/`.

mod figures_cold;
mod replay;
mod report;
mod served_replay;
mod stats;
mod stream_single;
mod trace;

use report::Report;

/// Worker threads (and client connections) of every workload.
pub const THREADS: usize = 2;

/// Directory, relative to the checkout, for the files a run leaves behind.
pub const OUT_DIR: &str = ".perfbench";

const WORKLOADS: [&str; 3] = ["figures_cold", "stream_single", "served_replay"];

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Family of `figures_cold`'s corpora (see that module).
    pub corpus_seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 386, 10.0, false);
    let mut corpus_seed = 386;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value} (one of {WORKLOADS:?})")),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--corpus-seed" => corpus_seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, corpus_seed, seconds, trace })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The golden report and the run files are relative to the checkout root.
    if !std::path::Path::new("baselines").is_dir() {
        eprintln!("perfbench: run from the repository root (no baselines/ here)");
        std::process::exit(2);
    }
    let mut report = Report::new();
    report.line(format!(
        "# workload {} seed {} corpus seed {} seconds {} trace {} on {} cores",
        args.workload,
        args.seed,
        args.corpus_seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    match args.workload.as_str() {
        "figures_cold" => figures_cold::run(&args, &mut report),
        "stream_single" => stream_single::run(&args, &mut report),
        _ => served_replay::run(&args, &mut report),
    }
    report.emit(args.trace);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_every_flag() {
        let a = args("--workload stream_single --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.corpus_seed, a.seconds, a.trace),
            ("stream_single", 7, 386, 10.0, true)
        );
        assert_eq!(args("--workload figures_cold --corpus-seed 7").unwrap().corpus_seed, 7);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(args("--workload nope").is_err());
        assert!(args("--workload figures_cold --trace 2").is_err());
        assert!(args("--workload figures_cold --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload figures_cold --seed").is_err());
    }
}
