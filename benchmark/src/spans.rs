//! The benchmark's own span buffer: one span around each call into a
//! layer's public functions, recorded from this package's code only.
//!
//! Spans live in a preallocated vector (a full buffer counts drops instead
//! of reallocating inside a timed region) and are written out as Chrome
//! trace-event JSON when the workload ends.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `krylov.pcg_solve`; the layer is the crate.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// The unit (request) the span belongs to; spans of one unit share it.
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The crate the spanned call belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span; `None` when recording is off or the buffer full.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
    stack: Vec<u32>,
    dropped: u64,
}

impl SpanBuf {
    /// A recording buffer holding at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> SpanBuf {
        SpanBuf {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            capacity,
            stack: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    /// A recording buffer on `other`'s clock, so that both line up in one
    /// trace (one buffer per client thread).
    pub fn sharing_epoch(other: &SpanBuf, capacity: usize) -> SpanBuf {
        SpanBuf {
            epoch: other.epoch,
            ..SpanBuf::with_capacity(capacity)
        }
    }

    /// A buffer that records nothing: the end-to-end runs use this.
    pub fn off() -> SpanBuf {
        SpanBuf::with_capacity(0)
    }

    pub fn is_on(&self) -> bool {
        self.capacity > 0
    }

    pub fn begin(&mut self, name: &'static str, op_id: u64) -> Open {
        if self.capacity == 0 {
            return Open(None);
        }
        if self.spans.len() == self.capacity {
            self.dropped += 1;
            return Open(None);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op_id,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, open: Open) {
        if let Open(Some(index)) = open {
            self.spans[index as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
            // Spans close in LIFO order; anything still above `index` was
            // abandoned by an early return and is closed with it.
            while let Some(top) = self.stack.pop() {
                if top == index {
                    break;
                }
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (two
/// client threads under one root) and may stick out of the parent (clock
/// reads are not atomic with the calls); both are clipped.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total self time per layer, nanoseconds, sorted by layer name.
pub fn layer_self_ns(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut by_layer = std::collections::BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(s.layer()).or_insert(0u64) += self_ns;
    }
    by_layer.into_iter().collect()
}

/// Chrome trace-event JSON (complete `"X"` events, microsecond timestamps
/// with nanosecond decimals). Each `(tid, spans)` pair becomes one track.
pub fn chrome_trace_json(tracks: &[(u32, &[Span])]) -> String {
    let micros = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
    let mut out = String::from("[");
    for &(tid, spans) in tracks {
        for s in spans {
            if out.len() > 1 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, i64::from);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\
                 \"tid\":{tid},\"args\":{{\"op_id\":{},\"parent\":{parent}}}}}",
                s.name,
                s.layer(),
                micros(s.start_ns),
                micros(s.dur_ns()),
                s.op_id,
            ));
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span("bench.unit", 0, 100, None),
            span("krylov.pcg_solve", 10, 90, Some(0)),
            span("core.sweep", 20, 50, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 50, 30]);
        assert_eq!(
            layer_self_ns(&spans),
            vec![("bench", 20), ("core", 30), ("krylov", 50)]
        );
    }

    #[test]
    fn overlapping_and_protruding_children_are_clipped() {
        let spans = [
            span("bench.unit", 100, 200, None),
            span("serve.a", 110, 160, Some(0)),
            span("serve.b", 140, 180, Some(0)), // overlaps a: union is 110..180
            span("serve.c", 150, 155, Some(0)), // inside the union already
            span("serve.d", 190, 250, Some(0)), // sticks out: clipped to 190..200
            span("serve.e", 0, 90, Some(0)),    // entirely outside: ignored
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn buffer_tracks_parents_and_counts_drops() {
        let mut buf = SpanBuf::with_capacity(3);
        let unit = buf.begin("bench.unit", 7);
        let a = buf.begin("core.sweep_fwd", 7);
        buf.end(a);
        let b = buf.begin("core.sweep_bwd", 7);
        buf.end(b);
        let lost = buf.begin("core.extra", 7);
        buf.end(lost);
        buf.end(unit);
        let parents: Vec<_> = buf.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert_eq!(buf.dropped(), 1);
        assert!(buf.spans().iter().all(|s| s.op_id == 7));

        let mut off = SpanBuf::off();
        let t = off.begin("core.sweep_fwd", 1);
        off.end(t);
        assert!(off.spans().is_empty() && off.dropped() == 0 && !off.is_on());
    }

    #[test]
    fn chrome_trace_parses_as_json() {
        let spans = [span("bench.unit", 1_500, 4_250, None)];
        let json = chrome_trace_json(&[(3, &spans)]);
        let v = serde_json::from_str(&json).expect("valid JSON");
        let event = &v.as_array().expect("array")[0];
        assert_eq!(
            event.get("name").and_then(|n| n.as_str()),
            Some("bench.unit")
        );
        assert_eq!(event.get("ts").and_then(|n| n.as_f64()), Some(1.5));
        assert_eq!(event.get("dur").and_then(|n| n.as_f64()), Some(2.75));
        assert_eq!(event.get("tid").and_then(|n| n.as_u64()), Some(3));
    }
}
