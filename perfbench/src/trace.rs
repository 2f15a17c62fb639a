//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Every span lives in memory until the run ends: its layer name, start and
//! end (ns since the run's epoch), the span that caused it, and the loop and
//! machine it worked on.  A disabled recorder takes no timestamps, so the
//! untraced replay runs the very same code without the recording cost — the
//! difference between the two replays is the tracing overhead.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub loop_index: u32,
    pub machine: u16,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Recorder { epoch, enabled, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it becomes the parent of every span opened before the
    /// matching [`Recorder::exit`].
    pub fn enter(&mut self, layer: &'static str, loop_index: usize, machine: usize) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            loop_index: loop_index as u32,
            machine: machine as u16,
        });
    }

    /// Closes the innermost open span and returns its duration (0 when the
    /// recorder is disabled).
    pub fn exit(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end = self.now_ns();
        let index = self.open.pop().expect("exit matches an enter") as usize;
        self.spans[index].end_ns = end;
        self.spans[index].duration_ns()
    }

    /// Runs `f` inside a span and returns its result with the span's duration.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        loop_index: usize,
        machine: usize,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        self.enter(layer, loop_index, machine);
        let out = f();
        let ns = self.exit();
        (out, ns)
    }
}

/// Concatenates per-thread recorders into one span list, rebasing parents.
pub fn merge(recorders: Vec<Recorder>) -> Vec<Span> {
    let mut all = Vec::with_capacity(recorders.iter().map(|r| r.spans.len()).sum());
    for recorder in recorders {
        assert!(recorder.open.is_empty(), "every span is closed before merging");
        let base = all.len() as u32;
        all.extend(recorder.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// Per-layer call durations and self time.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub durations_ns: Vec<u64>,
    /// Total duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl Layer {
    pub fn calls(&self) -> usize {
        self.durations_ns.len()
    }

    pub fn total_ns(&self) -> u64 {
        self.durations_ns.iter().sum()
    }
}

/// Groups spans by layer.  Children of one span run on the span's own thread,
/// one after another, so the time they cover is the sum of their durations.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            child_ns[span.parent as usize] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let layer = out.entry(span.layer).or_default();
        layer.durations_ns.push(span.duration_ns());
        layer.self_ns += span.duration_ns().saturating_sub(children);
    }
    out
}

/// Writes every span as one tab-separated line, parents by line index.
pub fn write_spans(path: &Path, spans: &[Span], machines: &[String]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tlayer\tloop\tmachine\tstart_ns\tend_ns")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT { String::from("-") } else { s.parent.to_string() };
        let machine = machines.get(s.machine as usize).map(String::as_str).unwrap_or("-");
        writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{machine}\t{}\t{}",
            s.layer, s.loop_index, s.start_ns, s.end_ns
        )?;
    }
    // Flushed to disk here, so the write-back does not land in a later
    // run's timed phases.
    out.into_inner().map_err(|e| e.into_error())?.sync_all()
}
