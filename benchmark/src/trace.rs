//! In-memory spans recorded by benchmark code around public calls into
//! each layer, written out as Chrome trace events when the run ends.

use crate::clock;
use aq_bench::json::Json;

/// One timed interval. `parent` indexes the enclosing span in the same
/// span list (`None` for a top-level span).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. Phase spans are always recorded
/// (they are the end-to-end timings); detail spans only when tracing is
/// on, so an untraced run pays for three clock reads per phase and
/// nothing else.
pub struct Tracer {
    detail: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(detail: bool) -> Tracer {
        Tracer {
            detail,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn detail(&self) -> bool {
        self.detail
    }

    /// Time `f` as a span that is recorded traced or not.
    pub fn phase<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: clock::now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = clock::now_ns();
        out
    }

    /// Time `f` as a span only when tracing is on.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if self.detail {
            self.phase(name, f)
        } else {
            f(self)
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| clock::millis(s.dur_ns()))
            .collect()
    }
}

/// Self time of each span: its duration minus the part its direct
/// children cover. Children of one parent never overlap (one thread, one
/// stack), so that part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Share of `[0, wall_ns)` covered by top-level spans.
pub fn top_level_coverage(spans: &[Span], wall_ns: u64) -> f64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    covered as f64 / wall_ns as f64
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(s.name.clone())),
                    ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                    ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ])
            })
            .collect(),
    )
}

pub fn spans_from_json(doc: &Json) -> Result<Vec<Span>, String> {
    let items = doc.as_arr().ok_or("spans: not an array")?;
    let mut spans = Vec::with_capacity(items.len());
    for item in items {
        let num = |key: &str| {
            item.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("span: missing `{key}`"))
        };
        let parent = match item.get("parent") {
            Some(Json::Null) | None => None,
            Some(p) => Some(p.as_u64().ok_or("span: bad `parent`")? as usize),
        };
        if parent.is_some_and(|p| p >= spans.len()) {
            return Err("span: parent does not precede it".to_string());
        }
        spans.push(Span {
            name: item
                .get("name")
                .and_then(Json::as_str)
                .ok_or("span: missing `name`")?
                .to_string(),
            start_ns: num("start_ns")?,
            end_ns: num("end_ns")?,
            parent,
        });
    }
    Ok(spans)
}

/// Chrome trace-event document (open in Perfetto / `chrome://tracing`).
/// Each run — one child process of the benchmark — is a `tid`, and every
/// event carries its run id, its parent's name and its self time.
pub fn chrome_trace(runs: &[(String, Vec<Span>)]) -> Json {
    let mut events = Vec::new();
    for (run_id, (run_name, spans)) in runs.iter().enumerate() {
        events.push(Json::Obj(vec![
            ("name".to_string(), Json::Str("thread_name".to_string())),
            ("ph".to_string(), Json::Str("M".to_string())),
            ("pid".to_string(), Json::Num(1.0)),
            ("tid".to_string(), Json::Num(run_id as f64)),
            (
                "args".to_string(),
                Json::Obj(vec![("name".to_string(), Json::Str(run_name.clone()))]),
            ),
        ]));
        let own = self_times_ns(spans);
        for (s, self_ns) in spans.iter().zip(own) {
            let parent = s
                .parent
                .map_or(Json::Null, |p| Json::Str(spans[p].name.clone()));
            events.push(Json::Obj(vec![
                ("name".to_string(), Json::Str(s.name.clone())),
                ("ph".to_string(), Json::Str("X".to_string())),
                ("pid".to_string(), Json::Num(1.0)),
                ("tid".to_string(), Json::Num(run_id as f64)),
                ("ts".to_string(), Json::Num(s.start_ns as f64 / 1e3)),
                ("dur".to_string(), Json::Num(s.dur_ns() as f64 / 1e3)),
                (
                    "args".to_string(),
                    Json::Obj(vec![
                        ("run_id".to_string(), Json::Str(run_name.clone())),
                        ("parent".to_string(), parent),
                        ("self_us".to_string(), Json::Num(self_ns as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
    }
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(events)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("run", 0, 100, None),
            // Two adjacent children, the second with a grandchild.
            span("a", 10, 40, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 70, Some(2)),
            span("report", 100, 130, None),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 30, 20, 30]);
        assert_eq!(top_level_coverage(&spans, 130), 1.0);
        assert_eq!(top_level_coverage(&spans, 260), 0.5);
    }

    #[test]
    fn tracer_nests_spans_and_skips_detail_when_untraced() {
        let mut traced = Tracer::new(true);
        traced.phase("run", |t| {
            t.span("slice", |_| ());
            t.span("slice", |_| ());
        });
        let names: Vec<(&str, Option<usize>)> = traced
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            vec![("run", None), ("slice", Some(0)), ("slice", Some(0))]
        );
        assert_eq!(traced.durations_ms("slice").len(), 2);
        assert!(traced.total_ns("run") >= traced.total_ns("slice"));

        let mut untraced = Tracer::new(false);
        untraced.phase("run", |t| t.span("slice", |_| ()));
        assert_eq!(untraced.spans().len(), 1);
    }

    #[test]
    fn spans_round_trip_and_render_as_chrome_events() {
        let spans = vec![span("run", 5, 2_000_005, None), span("x", 7, 9, Some(0))];
        let doc = spans_to_json(&spans);
        let text = crate::jsonout::render(&doc);
        let back = spans_from_json(&aq_bench::json::parse(&text).expect("parses")).expect("spans");
        assert_eq!(back, spans);

        let trace = chrome_trace(&[("w#0".to_string(), spans)]);
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        // One metadata event naming the run, then one complete event per span.
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(2000.0));
        let args = events[2].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Json::as_str), Some("run"));
        assert_eq!(args.get("run_id").and_then(Json::as_str), Some("w#0"));

        let forward = Json::Arr(vec![Json::Obj(vec![
            ("name".to_string(), Json::Str("x".to_string())),
            ("start_ns".to_string(), Json::Num(0.0)),
            ("end_ns".to_string(), Json::Num(1.0)),
            ("parent".to_string(), Json::Num(0.0)),
        ])]);
        assert!(spans_from_json(&forward).is_err());
    }
}
