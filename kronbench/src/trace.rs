//! The harness-side span recorder of the traced run.
//!
//! Spans are recorded around the calls the harness makes into each
//! layer (never inside the program under test), into a `Vec` allocated
//! before timing starts, and written out as `trace.jsonl` when the
//! workload ends. A recorder that is off costs one branch per call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// "No parent" / "no index" marker.
pub const NONE: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Distinguishes siblings of one name (`stream.shard[3]`); [`NONE`]
    /// when the name stands alone.
    pub index: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Position of the causing span in the recorder, or [`NONE`].
    pub parent: u32,
    /// Spans of one operation (request, repetition) share this.
    pub op_id: u32,
}

/// An in-memory span log with a fixed capacity; spans beyond it are
/// counted as dropped, never reallocated for.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl Recorder {
    /// A recorder holding up to `capacity` spans; `0` turns it off.
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    pub fn off() -> Recorder {
        Recorder::new(0)
    }

    pub fn is_on(&self) -> bool {
        self.capacity > 0
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Recorder::end`]. Returns the
    /// span's position (to parent children on), or [`NONE`] when the
    /// recorder is off or full.
    pub fn begin(&mut self, name: &'static str, parent: u32, op_id: u32) -> u32 {
        if self.capacity == 0 {
            return NONE;
        }
        let now = self.now_ns();
        self.push(Span {
            name,
            index: NONE,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        })
    }

    /// Close a span opened by [`Recorder::begin`].
    pub fn end(&mut self, id: u32) {
        if id != NONE {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Record a finished span (one timed on another thread, say).
    pub fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() >= self.capacity {
            self.dropped += u64::from(self.capacity > 0);
            return NONE;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write one JSON object per span:
    /// `{"name","start_ns","end_ns","parent","op_id","self_ns"}`;
    /// `parent` is the 0-based line of the causing span, or `null`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let name = if s.index == NONE {
                s.name.to_string()
            } else {
                format!("{}[{}]", s.name, s.index)
            };
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op_id\":{},\"self_ns\":{self_ns}}}",
                s.start_ns, s.end_ns, s.op_id
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (the
/// shards of one stream run on several threads) and may stick out of
/// the parent; covered time is the union, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            index: NONE,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span("request", 0, 100, NONE),
            span("client.send", 10, 30, 0),
            span("client.recv", 30, 90, 0),
            span("recv.parse", 40, 50, 2),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span("stream", 100, 200, NONE),
            span("shard", 110, 150, 0),
            span("shard", 130, 170, 0), // overlaps the first: union 110..170
            span("shard", 190, 260, 0), // sticks out: clipped to 190..200
            span("shard", 120, 140, 0), // fully inside the union
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn off_and_full_recorders_drop_instead_of_growing() {
        let mut off = Recorder::off();
        assert_eq!(off.begin("x", NONE, 0), NONE);
        off.end(NONE);
        assert_eq!((off.spans().len(), off.dropped()), (0, 0));

        let mut rec = Recorder::new(2);
        let a = rec.begin("a", NONE, 1);
        let b = rec.begin("b", a, 1);
        let c = rec.begin("c", a, 1);
        rec.end(c);
        rec.end(b);
        rec.end(a);
        assert_eq!((a, b, c), (0, 1, NONE));
        assert_eq!((rec.spans().len(), rec.dropped()), (2, 1));
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut rec = Recorder::new(4);
        let a = rec.begin("stream", NONE, 7);
        rec.push(Span {
            name: "stream.shard",
            index: 3,
            start_ns: 1,
            end_ns: 2,
            parent: a,
            op_id: 7,
        });
        rec.end(a);
        let path = std::env::temp_dir().join(format!("kronbench_trace_{}", std::process::id()));
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("{\"name\":\"stream\",") && lines[0].contains("\"parent\":null")
        );
        assert!(lines[1].starts_with(
            "{\"name\":\"stream.shard[3]\",\"start_ns\":1,\"end_ns\":2,\"parent\":0,\"op_id\":7,"
        ));
    }
}
