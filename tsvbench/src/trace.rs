//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! solver crates (the program itself is not instrumented). Each span keeps
//! its name, start, end and parent; self time is the span's duration minus
//! the time its direct children cover. Spans never overlap their siblings
//! because the replay is sequential.

use std::time::Instant;

/// One recorded span; times are seconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// The span tree of one replay.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `index` minus the time its direct children cover.
    pub fn self_seconds(&self, index: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::seconds)
            .sum();
        self.spans[index].seconds() - children
    }

    /// Total seconds and call count of every span called `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.seconds(), n + 1))
    }

    /// The first span called `name`, with its index.
    pub fn find(&self, name: &str) -> Option<(usize, &Span)> {
        self.spans.iter().enumerate().find(|(_, s)| s.name == name)
    }
}
