//! In-memory spans for the traced run.
//!
//! Each span carries a name (the per-layer metric it feeds), an id
//! shared by every span of one `(tick, stream)` request, its parent,
//! and its start and end. Spans stay in memory and are written out
//! once, when the run ends.
//!
//! Spans come in two kinds. *In-band* spans wrap the generator's real
//! calls into the SUT and nest in time inside their parent (a tick
//! holds its ingests and its flush). *Replayed* spans time the layer
//! beneath on the same payload after the tick (the codec on the exact
//! frame, the in-process fleet on the same slice); they carry the real
//! span as parent and the same id, but lie outside its interval. A
//! layer's self time is its span's duration minus its children's
//! durations: in-band children never overlap (the generator is one
//! closed loop), so that equals the part of the interval they cover.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Lane of the request id used by spans that belong to a whole tick
/// rather than one stream (the tick itself, a flush, a batched read).
pub const TICK_LANE: u64 = (1 << 20) - 1;

/// The id shared by every span of one `(tick, lane)` request.
pub fn request_id(tick: u64, lane: u64) -> u64 {
    debug_assert!(lane <= TICK_LANE);
    (tick << 20) | lane
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name; equals the per-layer metric it feeds.
    pub name: &'static str,
    /// Request id ([`request_id`]).
    pub id: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time: a span's duration minus its children's durations. Negative
/// when replayed children add up to more than the span took — the
/// attribution does not reconcile.
pub fn self_time(span_ns: u64, child_ns: impl IntoIterator<Item = u64>) -> i64 {
    span_ns as i64 - child_ns.into_iter().map(|d| d as i64).sum::<i64>()
}

/// Length of the part of `outer` covered by the union of `inner`
/// intervals (each clipped to `outer`); overlapping children count once.
pub fn covered_ns(outer: (u64, u64), inner: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = inner
        .iter()
        .map(|&(s, e)| (s.max(outer.0), e.min(outer.1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// The span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// The tracer clock reading of `at`.
    pub fn at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that [`Tracer::close`] finishes, so children can
    /// name it as their parent while it runs.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = self.now();
        self.push(name, id, parent, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now();
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, self.push(name, id, parent, start, end))
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Summed duration (ns) of the `name` spans of each request id.
    pub fn sum_by_id(&self, name: &str) -> std::collections::BTreeMap<u64, u64> {
        let mut out = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.id).or_insert(0) += s.dur_ns();
        }
        out
    }

    /// Self times (µs) of every span called `name`.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut kids: Vec<Vec<u64>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push(s.dur_ns());
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| self_time(s.dur_ns(), kids[i].iter().copied()) as f64 / 1e3)
            .collect()
    }

    /// Share of each `name` span covered by its in-band children (those
    /// starting inside it), one value per span.
    pub fn coverage(&self, name: &str) -> Vec<f64> {
        let mut inner: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if s.start_ns >= parent.start_ns && s.start_ns < parent.end_ns {
                    inner[p].push((s.start_ns, s.end_ns));
                }
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.dur_ns() > 0)
            .map(|(i, s)| covered_ns((s.start_ns, s.end_ns), &inner[i]) as f64 / s.dur_ns() as f64)
            .collect()
    }

    /// Writes every span as CSV (`name,id,parent,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,id,parent,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{},{parent},{},{}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f`, as a span when `record` is set and the run is traced.
pub fn timed<T>(
    tracer: &mut Option<Tracer>,
    record: bool,
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, Option<usize>) {
    match tracer {
        Some(t) if record => {
            let (out, idx) = t.time(name, id, parent, f);
            (out, Some(idx))
        }
        _ => (f(), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time(100, [30, 20]), 50);
        assert_eq!(self_time(100, []), 100);
        // Replayed children that outweigh the span do not reconcile.
        assert_eq!(self_time(40, [30, 20]), -10);
    }

    #[test]
    fn coverage_counts_overlaps_once_and_clips() {
        assert_eq!(covered_ns((0, 100), &[(10, 20), (30, 50)]), 30);
        assert_eq!(covered_ns((0, 100), &[(10, 40), (30, 50)]), 40);
        assert_eq!(covered_ns((0, 100), &[(90, 130), (0, 5)]), 15);
        assert_eq!(covered_ns((0, 100), &[(120, 130)]), 0);
        assert_eq!(covered_ns((0, 100), &[]), 0);
    }

    #[test]
    fn tracer_self_times_follow_parent_links() {
        let mut t = Tracer::default();
        let id = request_id(3, 1);
        let tick = t.push("tick", request_id(3, TICK_LANE), None, 0, 1_000_000);
        let ingest = t.push("net.ingest", id, Some(tick), 100_000, 600_000);
        t.push(
            "net.flush",
            request_id(3, TICK_LANE),
            Some(tick),
            600_000,
            900_000,
        );
        // Replayed after the tick, attributed to the ingest.
        t.push("wire.ingest_encode", id, Some(ingest), 2_000_000, 2_100_000);
        t.push("fleet.enqueue", id, Some(ingest), 2_200_000, 2_250_000);
        assert_eq!(t.self_times_us("net.ingest"), vec![350.0]);
        assert_eq!(t.self_times_us("tick"), vec![200.0]);
        assert_eq!(t.durations_us("net.flush"), vec![300.0]);
        // Only in-band children cover the tick.
        assert_eq!(t.coverage("tick"), vec![0.8]);
        assert_eq!(t.coverage("net.ingest"), vec![0.0]);
    }

    #[test]
    fn request_ids_pack_tick_and_lane() {
        assert_eq!(request_id(0, 5), 5);
        assert_eq!(request_id(2, 0), 2 << 20);
        assert_ne!(request_id(1, TICK_LANE), request_id(2, 0));
    }
}
