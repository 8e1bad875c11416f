//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer; nothing inside the library is instrumented. A
//! layer's self time is its span's duration minus the part its child
//! spans cover, so the self times of one round add up to the round's wall
//! time exactly, and the round span's own self time is the unattributed
//! remainder (the benchmark's glue between calls).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the root span of one control-loop round.
pub const ROUND: &str = "round";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// Handle returned by [`Tracer::begin`]; `None` when recording is off.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Token(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Aggregate of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    pub self_ms: f64,
    pub total_ms: f64,
    pub calls: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            on: false,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that begin from now on.
    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str) -> Token {
        if !self.on {
            return Token(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: Instant::now(),
            end: None,
        });
        self.open.push(id);
        Token(Some(id))
    }

    pub fn end(&mut self, token: Token) {
        if let Some(id) = token.0 {
            self.spans[id].end = Some(Instant::now());
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = self.begin(name);
        let r = f();
        self.end(t);
        r
    }

    /// Self time, total time and call count per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStat> {
        let dur = |s: &Span| {
            s.end
                .map_or(0.0, |e| e.duration_since(s.start).as_secs_f64() * 1e3)
        };
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += dur(s);
            }
        }
        let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.self_ms += dur(s) - child_ms[i];
            e.total_ms += dur(s);
            e.calls += 1;
        }
        out
    }

    /// Writes every span as `name parent start_us end_us` lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tparent\tstart_us\tend_us")?;
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
            writeln!(
                out,
                "{i}\t{}\t{}\t{:.1}\t{:.1}",
                s.name,
                s.parent.map_or(-1, |p| p as i64),
                us(s.start),
                s.end.map_or(f64::NAN, us)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::new(Instant::now());
        t.set_recording(true);
        let root = t.begin(ROUND);
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let b = t.begin("b");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.end(b);
        t.end(root);
        t.set_recording(false);
        t.span("ignored", || ());
        let layers = t.layers();
        assert_eq!(layers["a"].calls, 2);
        assert!(!layers.contains_key("ignored"));
        let sum: f64 = layers.values().map(|s| s.self_ms).sum();
        assert!((sum - layers[ROUND].total_ms).abs() < 1e-6);
    }
}
