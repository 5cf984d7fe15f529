//! In-memory spans of the traced pass: recorded from the benchmark's
//! side of each call into a layer, written out when the run ends.

use std::io::{self, Write};
use std::time::Instant;

/// Index of a span's parent for root spans.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call. `parent` indexes the recorder's own vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary crossed (`open`, `client.acquire`, …).
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// The span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Shared by every span of one open.
    pub open_id: u32,
    /// Was the file on disk when the open began?
    pub resident: bool,
}

impl Span {
    /// Wall time from start to end.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-client span buffer; one epoch per phase so clients line up.
pub struct Recorder {
    epoch: Instant,
    /// Recorded spans, parents before their children.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder measuring from `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Opens a span now; returns its index for [`end`](Self::end) and
    /// as the `parent` of its children.
    pub fn begin(&mut self, name: &'static str, parent: u32, open_id: u32, resident: bool) -> u32 {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            open_id,
            resident,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `idx` now.
    pub fn end(&mut self, idx: u32) {
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Times `f` as a child of `parent`.
    pub fn child<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let (open_id, resident) = {
            let p = &self.spans[parent as usize];
            (p.open_id, p.resident)
        };
        let idx = self.begin(name, parent, open_id, resident);
        let out = f();
        self.end(idx);
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once,
/// children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if end > start {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
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

/// Writes one JSON object per span (`client` tells the buffers apart).
pub fn write_jsonl(out: &mut impl Write, client: usize, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"open_id\":{},\"client\":{},\"resident\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.open_id, client, s.resident
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            open_id: 0,
            resident: true,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_and_nested_children() {
        let spans = [
            span(0, 100, NO_PARENT), // root
            span(10, 30, 0),         // child A
            span(30, 60, 0),         // child B, adjacent to A
            span(35, 50, 2),         // grandchild: B's business, not root's
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 30, 20, 30 - 15, 15]);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_parent() {
        let spans = [
            span(10, 100, NO_PARENT),
            span(20, 60, 0),
            span(40, 80, 0),  // overlaps the previous child by 20
            span(90, 130, 0), // runs past the parent's end
            span(0, 5, 0),    // entirely outside: covers nothing
        ];
        // Covered: 20..80 (60) + 90..100 (10).
        assert_eq!(self_times(&spans)[0], 90 - 70);
    }

    #[test]
    fn recorder_nests_by_index_and_inherits_the_open() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.begin("open", NO_PARENT, 7, false);
        let got = rec.child("client.acquire", root, || 42);
        rec.end(root);
        assert_eq!(got, 42);
        assert_eq!(rec.spans[1].parent, root);
        assert_eq!((rec.spans[1].open_id, rec.spans[1].resident), (7, false));
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        let mut out = Vec::new();
        write_jsonl(&mut out, 1, &rec.spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"name\":\"open\""));
        assert!(text.contains("\"parent\":null") && text.contains("\"parent\":0"));
    }
}
