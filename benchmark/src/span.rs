//! The outside-in trace: one span per call into a layer's public
//! function, recorded by the harness around the call (nothing inside the
//! program is instrumented). Spans stay in memory until the run ends and
//! are then written as one JSON file.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that was open when
/// this one started; spans of one run share its workload id.
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

pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the span that
    /// is open on entry. Returns `f`'s result.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its child spans cover. Spans are
    /// recorded by one thread, so children never overlap each other.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(children)
    }

    /// Summed duration, in seconds, of every span named `name` (layer
    /// busy time: a layer is entered many times in one pass).
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Share of the (first) span named `root` that its direct children
    /// cover: how much of the pass the layer spans account for.
    pub fn coverage(&self, root: &str) -> f64 {
        let Some(id) = self.spans.iter().position(|s| s.name == root) else {
            return 0.0;
        };
        let dur = self.spans[id].dur_ns();
        if dur == 0 {
            return 0.0;
        }
        (dur - self.self_ns(id)) as f64 / dur as f64
    }

    /// The trace file: every span with its self time, in start order.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(i as f64)),
                    ("name".into(), Json::Str(s.name.clone())),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("self_ns".into(), Json::Num(self.self_ns(i) as f64)),
                    ("workload".into(), Json::Str(self.workload.into())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.into())),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set times: root 0..100 with children 10..40
    /// and 50..70, the first of which has a grandchild 15..25.
    fn fixture() -> Tracer {
        let mut t = Tracer::new("w");
        let mk = |name: &str, s, e, parent| Span {
            name: name.into(),
            start_ns: s,
            end_ns: e,
            parent,
        };
        t.spans = vec![
            mk("pass", 0, 100, None),
            mk("layer.a", 10, 40, Some(0)),
            mk("layer.b", 15, 25, Some(1)),
            mk("layer.a", 50, 70, Some(0)),
        ];
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = fixture();
        assert_eq!(t.self_ns(0), 100 - 30 - 20);
        assert_eq!(
            t.self_ns(1),
            30 - 10,
            "grandchild counts once, under its parent"
        );
        assert_eq!(t.self_ns(2), 10);
        assert_eq!(t.self_ns(3), 20);
        assert!((t.total_s("layer.a") - 50e-9).abs() < 1e-15);
        assert!((t.coverage("pass") - 0.5).abs() < 1e-12);
        assert_eq!(t.coverage("absent"), 0.0);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut t = Tracer::new("w");
        let out = t.span("outer", |t| t.span("inner", |_| 1) + t.span("inner", |_| 2));
        assert_eq!(out, 3);
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            [("outer", None), ("inner", Some(0)), ("inner", Some(0))]
        );
        assert!(t.spans()[0].end_ns >= t.spans()[2].end_ns);
        let text = t.to_json().to_string();
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
    }
}
