//! The benchmark's own spans: one around each call into a layer, kept in
//! memory and written out when the run ends. Nothing inside the program
//! is traced; a layer's span covers the whole public call.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` indexes the request span (`write` or
/// `read`) a layer span belongs to; request spans have none. All spans of
/// one request share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub op: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. When off, [`Spans::layer`] only calls its closure.
pub struct Spans {
    on: bool,
    epoch: Instant,
    op: usize,
    open: Option<usize>,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            op: 0,
            open: None,
            list: Vec::new(),
        }
    }

    fn stamp(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the request span `name` (`write` or `read`) of op `op`.
    pub fn begin(&mut self, op: usize, name: &'static str, at: Instant) {
        if !self.on {
            return;
        }
        self.op = op;
        let start_ns = self.stamp(at);
        self.open = Some(self.list.len());
        self.list.push(Span {
            op,
            parent: None,
            name,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the open request span.
    pub fn end(&mut self, at: Instant) {
        if let Some(i) = self.open.take() {
            self.list[i].end_ns = self.stamp(at);
        }
    }

    /// Runs `f`, a call into one layer, inside a span named after it.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.list.push(Span {
            op: self.op,
            parent: self.open,
            name,
            start_ns: self.stamp(start),
            end_ns: self.stamp(end),
        });
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
