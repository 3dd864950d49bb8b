//! Spans recorded by the traced run around each call into a layer.
//!
//! Spans live in memory while a pass runs and are written out once at
//! the end. Each span carries its name, the victim session it served,
//! the lane (thread) that ran it, its parent, its start and end in
//! nanoseconds since the pass began, and the allocations made on its
//! thread while it was open.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::alloc::thread_allocations;
use crate::stats::{self_time, Interval, Ledger};

/// Ledger rows, with the metric each is reported as: one per layer
/// (crate) the benchmark calls into, plus the benchmark's own task
/// wrapper and output checks. A span belongs to the row named by its
/// prefix up to the first `.`.
pub const LEDGER_ROWS: [(&str, &str); 7] = [
    ("sim", "ledger.sim_share"),
    ("capture", "ledger.capture_share"),
    ("core", "ledger.core_share"),
    ("online", "ledger.online_share"),
    ("fleet", "ledger.fleet_share"),
    ("pool", "ledger.pool_share"),
    ("check", "ledger.check_share"),
];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// What the span's call did, where one call can do different work
    /// (`Fleet::push`: plain, tick, recovery, respawn or resize).
    pub label: &'static str,
    pub victim: u32,
    pub lane: u32,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
    pub allocs: u64,
}

impl Span {
    pub fn interval(&self) -> Interval {
        Interval {
            start: self.start,
            end: self.end,
        }
    }

    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span store for one lane, or several merged.
pub struct Recorder {
    origin: Instant,
    lane: u32,
    pub spans: Vec<Span>,
    open_allocs: Vec<u64>,
}

impl Recorder {
    pub fn new(origin: Instant, lane: u32) -> Self {
        Recorder {
            origin,
            lane,
            spans: Vec::new(),
            open_allocs: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, victim: u32, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            label: "",
            victim,
            lane: self.lane,
            parent,
            start: 0,
            end: 0,
            allocs: 0,
        });
        // Read the counters after the store has grown, so the store's
        // own allocations stay out of the span.
        self.open_allocs.push(0);
        *self.open_allocs.last_mut().expect("just pushed") = thread_allocations();
        self.spans[id].start = self.now();
        id
    }

    pub fn end(&mut self, id: usize) {
        let end = self.now();
        let opened = self.open_allocs.pop().expect("end matches a begin");
        let span = &mut self.spans[id];
        span.end = end;
        span.allocs = thread_allocations() - opened;
    }

    /// Time `f` as a span of its own.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        victim: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, victim, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Add a child covering the first `nanos` of `parent`: how a layer's
    /// own timer splits a call the benchmark could only time whole.
    pub fn split_head(&mut self, parent: usize, name: &'static str, nanos: u64) {
        let p = self.spans[parent].clone();
        self.spans.push(Span {
            name,
            label: "",
            victim: p.victim,
            lane: p.lane,
            parent: Some(parent),
            start: p.start,
            end: p.start + nanos.min(p.nanos()),
            allocs: 0,
        });
    }

    /// Move another recorder's spans in, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of spans named `name`, ns.
    pub fn total(&self, name: &str) -> u64 {
        self.named(name).map(Span::nanos).sum()
    }

    /// Summed allocations of spans named `name`.
    pub fn allocs(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.allocs).sum()
    }

    /// Durations of spans named `name` (and `label`, unless empty), ms.
    pub fn millis(&self, name: &str, label: &str) -> Vec<f64> {
        self.named(name)
            .filter(|s| label.is_empty() || s.label == label)
            .map(|s| s.nanos() as f64 / 1e6)
            .collect()
    }

    /// The cost ledger over a pass of `wall_ns` run on `lanes` lanes:
    /// self time summed per [`LEDGER_ROWS`] row (named by its metric),
    /// and the remainder.
    pub fn ledger(&self, wall_ns: u64, lanes: u64) -> Ledger {
        let mut children: Vec<Vec<Interval>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push(s.interval());
            }
        }
        let mut rows: BTreeMap<&str, u64> = LEDGER_ROWS.iter().map(|(r, _)| (*r, 0)).collect();
        for (s, kids) in self.spans.iter().zip(&children) {
            let row = s.name.split('.').next().unwrap_or(s.name);
            let slot = rows
                .get_mut(row)
                .unwrap_or_else(|| panic!("span {} belongs to no ledger row", s.name));
            *slot += self_time(s.interval(), kids);
        }
        Ledger::new(
            wall_ns.saturating_mul(lanes),
            LEDGER_ROWS
                .iter()
                .map(|(r, metric)| (*metric, rows[r]))
                .collect(),
        )
    }

    /// Write every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tlane\tvictim\tname\tlabel\tstart_ns\tend_ns\tallocs"
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.lane, s.victim, s.name, s.label, s.start, s.end, s.allocs
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_keeps_parent_links_and_ledger_rows_cover_every_span() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin, 0);
        let task = a.begin("pool.task", 1, None);
        a.time("sim.run_session", 1, Some(task), || ());
        a.end(task);
        let mut b = Recorder::new(origin, 1);
        let task_b = b.begin("pool.task", 2, None);
        let dec = b.begin("core.decode_trace", 2, Some(task_b));
        b.end(dec);
        b.split_head(dec, "capture.features", 0);
        b.end(task_b);
        a.absorb(b);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.spans[4].parent, Some(3));
        let wall = origin.elapsed().as_nanos() as u64 + 1;
        let ledger = a.ledger(wall, 2);
        let attributed: u64 = ledger.rows.iter().map(|(_, t)| t).sum();
        assert_eq!(attributed + ledger.unattributed, ledger.total);
        assert_eq!(ledger.rows.len(), LEDGER_ROWS.len());
    }
}
