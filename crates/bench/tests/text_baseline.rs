//! Golden-baseline regression test of the `figures` text mode: runs the CLI
//! binary for every experiment document and diffs its stdout against
//! `baselines/text_small.txt`, so a change to a section title, a table layout,
//! the pruning block or the cache-statistics trailer fails deterministically.
//! The JSON goldens pin the numbers; this file pins how they are printed.
//!
//! Each run is preceded in the file by a `$ figures ...` line naming its
//! arguments.  To regenerate the baseline after an *intentional* change to the
//! text output:
//!
//! ```text
//! cargo build --release -p vliw-bench --bin figures
//! for args in all simulate verify "sweep --grid small --prune true --audit 16"; do
//!     echo "\$ figures $args --corpus-size 32 --seed 386 --threads 2"
//!     target/release/figures $args --corpus-size 32 --seed 386 --threads 2
//! done > baselines/text_small.txt
//! ```

use std::path::PathBuf;
use std::process::Command;

/// The documents the baseline holds, in file order.
const RUNS: [&str; 4] = ["all", "simulate", "verify", "sweep --grid small --prune true --audit 16"];

/// Options shared by every run.
const COMMON: &str = "--corpus-size 32 --seed 386 --threads 2";

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines/text_small.txt")
}

/// Splits the baseline into `(command line, stdout)` sections.
fn load_baseline() -> Vec<(String, String)> {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut sections: Vec<(String, String)> = Vec::new();
    for line in text.split_inclusive('\n') {
        match line.strip_prefix("$ figures ") {
            Some(command) => sections.push((command.trim_end().to_string(), String::new())),
            None => {
                let (_, stdout) = sections.last_mut().expect("the file starts with a command");
                stdout.push_str(line);
            }
        }
    }
    sections
}

#[test]
fn text_output_matches_the_baseline() {
    let sections = load_baseline();
    let commands: Vec<String> = RUNS.iter().map(|args| format!("{args} {COMMON}")).collect();
    assert_eq!(
        sections.iter().map(|(command, _)| command.clone()).collect::<Vec<_>>(),
        commands,
        "the baseline holds the wrong runs; regenerate it (see the module docs)"
    );
    for (command, want) in &sections {
        let output = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(command.split_whitespace())
            .output()
            .expect("the figures binary runs");
        assert!(
            output.status.success(),
            "figures {command} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let got = String::from_utf8(output.stdout).expect("text output is UTF-8");
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "figures {command}: line {} differs from the baseline", i + 1);
        }
        assert_eq!(&got, want, "figures {command}: output length differs from the baseline");
    }
}
