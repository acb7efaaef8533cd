//! In-memory span recorder: one span per call into a layer, with its
//! parent, written out once at the end of the run.
//!
//! A span's name is `layer.detail` (`closed_form.ge`, `replay.faulted`);
//! self time is attributed to the part before the first dot.

use hetsim_obs::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Records spans relative to its own construction instant.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        self.tracer.spans.borrow_mut()[self.index].end_ns = end;
        let popped = self.tracer.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(self.index), "spans close in LIFO order");
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&self, name: &'static str) -> Guard<'_> {
        let parent = self.open.borrow().last().copied();
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.borrow_mut().push(index);
        Guard { tracer: self, index }
    }

    /// Adds a closed child of the innermost open span, starting where
    /// that span starts and lasting `dur_ns` — for a phase the program
    /// times itself inside one call (the engine's record wall time).
    pub fn child_at_start(&self, name: &'static str, dur_ns: u64) {
        let parent = *self.open.borrow().last().expect("an open parent span");
        let mut spans = self.spans.borrow_mut();
        let start_ns = spans[parent].start_ns;
        spans.push(Span { name, start_ns, end_ns: start_ns + dur_ns, parent: Some(parent) });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.enter(name);
        f()
    }

    /// Self seconds per full span name: duration minus the time its
    /// direct children cover.
    pub fn self_secs_by_name(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Self seconds per layer (span name up to the first dot).
    pub fn self_secs_by_layer(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (name, secs) in self.self_secs_by_name() {
            let layer = name.split('.').next().unwrap_or(name).to_string();
            *out.entry(layer).or_insert(0.0) += secs;
        }
        out
    }

    /// Every span as `{name, start_ns, end_ns, parent}` (parent `-1`
    /// for roots).
    pub fn to_json(&self) -> Json {
        let spans = self.spans.borrow();
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    let mut o = BTreeMap::new();
                    o.insert("name".to_string(), Json::str(s.name));
                    o.insert("start_ns".to_string(), Json::int(s.start_ns));
                    o.insert("end_ns".to_string(), Json::int(s.end_ns));
                    o.insert("parent".to_string(), Json::Num(s.parent.map_or(-1.0, |p| p as f64)));
                    Json::Obj(o)
                })
                .collect(),
        )
    }
}
