//! In-memory span recording for the traced run.
//!
//! Spans are opened and closed only by code under `benchmark/`, around calls
//! into the measured crates; nothing inside those crates is instrumented.
//! A [`Recorder`] belongs to one client thread (its open spans form a
//! stack), so a workload with two clients uses two recorders that share one
//! epoch and merges them when it ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

/// Span sink of one client thread. `Sync` because the engine requires its
/// transport (and hence the [`Timed`](crate::timed::Timed) decorator that
/// holds a recorder) to be; the lock is never contended.
pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    id: u32,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            state: Mutex::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                request: 0,
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of this recorder's next request; spans opened
    /// until the guard drops carry the same request id.
    pub fn request(&self) -> SpanGuard<'_> {
        self.state.lock().expect("recorder lock").request += 1;
        self.span("request")
    }

    /// Opens a span under the innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start_ns = self.now_ns();
        let mut state = self.state.lock().expect("recorder lock");
        let id = state.spans.len() as u32;
        let parent = state.open.last().copied();
        let request = state.request;
        state.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        state.open.push(id);
        SpanGuard { recorder: self, id }
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.state.into_inner().expect("recorder lock").spans
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.recorder.now_ns();
        // Never panic in drop: a poisoned lock only loses this span's end.
        if let Ok(mut state) = self.recorder.state.lock() {
            state.spans[self.id as usize].end_ns = end_ns;
            // Guards drop innermost first, so this span is the top of the stack.
            state.open.pop();
        }
    }
}

/// Total duration of every span called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Total duration of the spans whose parent is called `parent_name` — what
/// a layer's self time leaves out.
pub fn children_ns(spans: &[Span], parent_name: &str) -> u64 {
    spans
        .iter()
        .filter(|span| {
            span.parent
                .is_some_and(|parent| spans[parent as usize].name == parent_name)
        })
        .map(Span::duration_ns)
        .sum()
}

/// Durations of every span called `name`, in nanoseconds.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| span.duration_ns() as f64)
        .collect()
}

/// Concatenates per-recorder span lists, re-basing the parent indexes and
/// the request ids so that both stay unique.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut merged: Vec<Span> = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    let mut first_request = 0;
    for list in lists {
        let base = merged.len() as u32;
        merged.extend(list.into_iter().map(|mut span| {
            span.parent = span.parent.map(|parent| parent + base);
            span.request += first_request;
            span
        }));
        first_request = merged.last().map_or(0, |span| span.request);
    }
    merged
}

/// Renders the spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 4);
    out.push_str("[\n");
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |parent| parent.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            span.name, span.start_ns, span.end_ns, parent, span.request
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let recorder = Recorder::new(Instant::now());
        {
            let _request = recorder.request();
            let _outer = recorder.span("outer");
            drop(recorder.span("inner"));
            drop(recorder.span("inner"));
        }
        let spans = recorder.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(1));
        assert!(spans.iter().all(|span| span.request == 1));
        assert_eq!(children_ns(&spans, "outer"), total_ns(&spans, "inner"));
        assert!(total_ns(&spans, "outer") >= children_ns(&spans, "outer"));
        let merged = merge(vec![spans.clone(), spans]);
        assert_eq!(merged[6].parent, Some(5));
        assert_eq!(merged[6].request, 2);
    }
}
