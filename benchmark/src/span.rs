//! The harness's span recorder: one span per call into a layer's public
//! function, kept in memory and written once at the end as Chrome
//! trace-event JSON. Spans are recorded by the harness *around* the
//! program's functions; nothing inside the program is instrumented.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to (`workload#iteration`).
    pub job: String,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. `begin`/`end` must pair up like
/// brackets; `end` checks that they do.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: String,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: String::new(),
        }
    }
}

impl Recorder {
    /// Label every span opened from now on with this request id.
    pub fn set_job(&mut self, job: impl Into<String>) {
        self.job = job.into();
    }

    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            job: self.job.clone(),
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "span begin/end do not nest");
        self.spans[id].end_ns = now;
    }

    /// Close every span still open, innermost first: a job that failed
    /// half way must not become the parent of the next one.
    pub fn close_open(&mut self) {
        while let Some(&id) = self.open.last() {
            self.end(id);
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children are clipped to the parent and
/// overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.clamp(s.start_ns, s.end_ns),
                        spans[c].end_ns.clamp(s.start_ns, s.end_ns),
                    )
                })
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed by span name, in seconds, over the spans of one job.
pub fn self_seconds_by_name(spans: &[Span], job: &str) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        if s.job == job {
            *out.entry(s.name.clone()).or_insert(0.0) += own as f64 / 1e9;
        }
    }
    out
}

/// Chrome trace-event JSON (the format Perfetto and chrome://tracing
/// load): one complete (`"ph":"X"`) event per span with integer
/// microsecond `ts`/`dur`; `args` carries the job id, the span's own id
/// and its parent's, so the tree survives tools that re-nest by time.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut events = vec![Json::obj([
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Num(1.0)),
        ("tid", Json::Num(1.0)),
        (
            "args",
            Json::obj([("name", Json::Str("papar benchmark harness".into()))]),
        ),
    ])];
    for (id, s) in spans.iter().enumerate() {
        let ts = s.start_ns / 1000;
        // Round the end, not the length, so nesting survives the rounding.
        let dur = (s.end_ns / 1000).saturating_sub(ts);
        events.push(Json::obj([
            ("name", Json::Str(s.name.clone())),
            ("cat", Json::Str("layer".into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Num(ts as f64)),
            ("dur", Json::Num(dur as f64)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(1.0)),
            (
                "args",
                Json::obj([
                    ("job", Json::Str(s.job.clone())),
                    ("id", Json::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ]),
            ),
        ]));
    }
    Json::obj([
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            job: "w#0".into(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 40, 70, Some(0)),
            span("empty", 70, 70, Some(0)),
        ];
        // job: 100 - (30 + 30 + 0); a: 30 - 10; grandchildren are not
        // subtracted from the grandparent twice.
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30, 0]);
    }

    #[test]
    fn self_time_clips_and_merges_overlapping_children() {
        let spans = vec![
            span("job", 100, 200, None),
            span("early", 90, 120, Some(0)),    // clipped to 100..120
            span("overlap", 110, 150, Some(0)), // only 120..150 is new
            span("late", 190, 260, Some(0)),    // clipped to 190..200
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 30 - 10);
    }

    #[test]
    fn self_seconds_group_by_name_within_one_job() {
        let mut spans = vec![
            span("job", 0, 10_000, None),
            span("x", 0, 2_000, Some(0)),
            span("x", 5_000, 6_000, Some(0)),
        ];
        spans.push(Span {
            job: "other#1".into(),
            ..span("x", 20_000, 30_000, None)
        });
        let by = self_seconds_by_name(&spans, "w#0");
        assert!((by["x"] - 3e-6).abs() < 1e-15);
        assert!((by["job"] - 7e-6).abs() < 1e-15);
    }

    #[test]
    fn recorder_links_parents_and_rejects_crossed_ends() {
        let mut rec = Recorder::default();
        rec.set_job("w#3");
        let outer = rec.begin("outer");
        rec.span("inner", || std::hint::black_box(1 + 1));
        rec.end(outer);
        let s = rec.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].job, "w#3");
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let a = rec.begin("a");
        let _b = rec.begin("b");
        let crossed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rec.end(a)));
        assert!(crossed.is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_integer_microseconds_and_parent_links() {
        let spans = vec![
            span("job", 1_500, 9_999_999, None),
            span("core.run", 2_000, 5_000_700, Some(0)),
        ];
        let doc = Json::parse(&to_chrome_json(&spans)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let xs: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        for e in &xs {
            for key in ["ts", "dur"] {
                let n = e.get(key).and_then(Json::as_f64).unwrap();
                assert_eq!(n.fract(), 0.0, "{key} must be whole microseconds");
            }
        }
        assert_eq!(xs[0].get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(xs[0].get("dur").unwrap().as_f64(), Some(9998.0));
        let args = xs[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(args.get("job").unwrap().as_str(), Some("w#0"));
        assert_eq!(xs[0].get("args").unwrap().get("parent"), Some(&Json::Null));
        // The raw text has no fractional timestamps either.
        assert!(!to_chrome_json(&spans).contains("\"ts\":1."));
    }
}
