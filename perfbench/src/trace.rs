//! In-memory spans around the benchmark's calls into each layer, and
//! their export as Chrome-trace JSON and as flat per-layer self times.
//!
//! A span records its name, layer, start, end, parent and the
//! experiment (cell) it belongs to. Spans are kept in memory and written
//! out when the run ends; with tracing off nothing is recorded.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sbst_obs::Json;

/// Layer names spans are filed under.
pub mod layer {
    /// Fault lists, collapsing and word packing (`sbst-fault`).
    pub const FAULT: &str = "sbst-fault";
    /// Routine wrapping and assembly, with its calibration run
    /// (`sbst-stl` + `sbst-isa`).
    pub const STL: &str = "sbst-stl";
    /// The cycle simulator (`sbst-soc` over `sbst-cpu`/`sbst-mem`).
    pub const SOC: &str = "sbst-soc";
    /// Copy-on-write SoC state (`sbst-mem`).
    pub const MEM: &str = "sbst-mem";
    /// Campaign engines: warm tail and PPSFP (`sbst-campaign`).
    pub const CAMPAIGN: &str = "sbst-campaign";
    /// The fleet service (`sbst-campaign::fleet`).
    pub const FLEET: &str = "sbst-campaign::fleet";
    /// The benchmark's own phases.
    pub const BENCH: &str = "bench";
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call or phase.
    pub name: &'static str,
    /// The layer it belongs to (see [`layer`]).
    pub layer: &'static str,
    /// Start, since the tracer was created.
    pub start: Duration,
    /// End, since the tracer was created.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The experiment (cell index) the span worked for.
    pub exp: u32,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    exp: u32,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            exp: 0,
        }
    }

    /// Switches recording on or off for the following spans.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the following spans with experiment `exp`.
    pub fn set_exp(&mut self, exp: usize) {
        self.exp = exp as u32;
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, layer: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.t0.elapsed();
        self.spans.push(Span {
            name,
            layer,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            exp: self.exp,
        });
        self.stack.push(self.spans.len() - 1);
        Some(self.spans.len() - 1)
    }

    /// Closes the span `enter` returned.
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.t0.elapsed();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close in reverse order");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, layer);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.end - s.start))
            .collect()
    }

    /// The spans as a Chrome-trace document (opens in Perfetto).
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("cat".into(), Json::Str(s.layer.into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(us(s.start))),
                    ("dur".into(), Json::Num(us(s.end - s.start))),
                    ("pid".into(), Json::int(1)),
                    ("tid".into(), Json::int(1)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("span".into(), Json::int(i as u64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::int(p as u64)),
                            ),
                            ("exp".into(), Json::int(u64::from(s.exp))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
    }

    /// Per layer: self time (a span's duration minus its children's),
    /// total time of its outermost spans, and call count.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.layer).or_default();
            let dur = s.end - s.start;
            t.self_ms += ms(dur.saturating_sub(child[i]));
            t.calls += 1;
            let nested = s.parent.is_some_and(|p| self.spans[p].layer == s.layer);
            if !nested {
                t.total_ms += ms(dur);
            }
        }
        out
    }
}

/// Aggregated time of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Time inside the layer's spans not covered by child spans.
    pub self_ms: f64,
    /// Time inside the layer's spans, children included.
    pub total_ms: f64,
    /// Spans recorded.
    pub calls: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
