//! In-memory spans recorded by the benchmark around its own calls into the
//! program, written out once at exit.
//!
//! Each client thread owns one [`Recorder`] (no locks on the timed path).
//! A span has a name, a start and an end relative to the run's origin, the
//! span that caused it, and the id of the request (query or transaction) it
//! belongs to. Spans below `engine.run` are synthesised from the stage times
//! the engines return; spans inside the program are a later change.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same recorder.
    pub parent: Option<u32>,
    pub request: u64,
}

pub struct Recorder {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, thread: u32) -> Self {
        Recorder {
            origin,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: u64) -> u32 {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a span whose interval was measured elsewhere (a duration the
    /// program returned), clamped into its parent's interval.
    pub fn synth(&mut self, name: &'static str, parent: u32, start_ns: u64, dur_ns: u64) -> u32 {
        let p = &self.spans[parent as usize];
        let (lo, hi, request) = (p.start_ns, p.end_ns, p.request);
        let start = start_ns.clamp(lo, hi);
        let end = start.saturating_add(dur_ns).min(hi);
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: Some(parent),
            request,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn span(&self, id: u32) -> &Span {
        &self.spans[id as usize]
    }
}

/// The spans of every client thread of one run.
#[derive(Default)]
pub struct TraceLog {
    threads: Vec<(u32, Vec<Span>)>,
}

impl TraceLog {
    pub fn absorb(&mut self, recorder: Recorder) {
        self.threads.push((recorder.thread, recorder.spans));
    }

    pub fn span_count(&self) -> usize {
        self.threads.iter().map(|(_, s)| s.len()).sum()
    }

    /// Self time per span name, in seconds: a span's duration minus the part
    /// of it its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (_, spans) in &self.threads {
            let mut covered = vec![0u64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    covered[p as usize] += s.end_ns - s.start_ns;
                }
            }
            for (s, c) in spans.iter().zip(&covered) {
                let own = (s.end_ns - s.start_ns).saturating_sub(*c);
                *by_name.entry(s.name).or_default() += own as f64 / 1e9;
            }
        }
        by_name
    }

    /// Total duration of root spans, in seconds — what the traced calls
    /// account for of the clients' wall time.
    pub fn covered_seconds(&self) -> f64 {
        self.self_seconds().values().sum()
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let mut out = Vec::with_capacity(self.span_count());
        let mut base = 0u64;
        for (thread, spans) in &self.threads {
            for (i, s) in spans.iter().enumerate() {
                out.push(Json::obj([
                    ("id", Json::Num((base + i as u64) as f64)),
                    (
                        "parent",
                        s.parent
                            .map_or(Json::Null, |p| Json::Num((base + u64::from(p)) as f64)),
                    ),
                    ("request", Json::Num(s.request as f64)),
                    ("thread", Json::Num(f64::from(*thread))),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ]));
            }
            base += spans.len() as u64;
        }
        Json::obj([
            ("workload", Json::Str(workload.to_string())),
            ("spans", Json::Arr(out)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_to_root_duration() {
        let mut r = Recorder::new(Instant::now(), 0);
        let root = r.open("request", None, 7);
        let child = r.open("engine.run", Some(root), 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(child);
        r.close(root);
        let (s, e) = (r.span(child).start_ns, r.span(child).end_ns);
        r.synth("score", child, s, (e - s) / 2);
        // A synthesised child longer than its parent is clamped into it.
        r.synth("merge", child, s + (e - s) / 2, e - s);
        let root_dur = r.span(root).end_ns - r.span(root).start_ns;
        let mut log = TraceLog::default();
        log.absorb(r);
        let own = log.self_seconds();
        assert!(
            own["engine.run"] < 1e-6,
            "children cover the engine span: {own:?}"
        );
        assert!((log.covered_seconds() - root_dur as f64 / 1e9).abs() < 1e-9);
        let json = log.to_json("w");
        assert_eq!(json.get("spans").unwrap().as_arr().unwrap().len(), 4);
    }
}
