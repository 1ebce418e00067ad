//! Caller-side spans: an in-memory recorder, the `Traced<P>` program
//! wrapper that yields per-iteration spans, and a Chrome-trace writer.
//!
//! All spans are recorded from the harness, around calls into the
//! library; spans inside the library are a later change. The recorder is
//! the HyperBall `ProgressLog` idea (SNIPPETS.md) turned into data: the
//! caller owns it and passes it down, there is no global.

use hyt_core::api::{EdgeCtx, InitialFrontier, PriorityMode, VertexProgram};
use hyt_graph::VertexId;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Display track: 0 is the driver thread; session clients get their
    /// own so overlapping `query` spans do not fake a nesting.
    pub track: u32,
    /// Shared by the spans of one session request.
    pub request: Option<u64>,
    /// Counts recorded at the same boundary.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store for one traced pass, written out when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span and return its id (children name it as parent).
    pub fn add(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            track: 0,
            request: None,
            args: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Open a span whose end is not known yet; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.add(name, now, now, parent)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Self time per span: its duration minus the part its children cover
    /// (children of one parent on one track do not overlap).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p].track == s.track {
                    own[p] = own[p].saturating_sub(s.dur_ns());
                }
            }
        }
        own
    }

    /// Structural check used by `wall self-test`: every child lies inside
    /// its parent, and same-track children never add up to more than the
    /// parent.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut child_sum = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            let Some(p) = s.parent else { continue };
            let parent = self.spans.get(p).ok_or(format!("span {i}: unknown parent {p}"))?;
            if parent.track != s.track {
                continue;
            }
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!("span {i} ({}) escapes parent {p} ({})", s.name, parent.name));
            }
            child_sum[p] += s.dur_ns();
        }
        for (i, s) in self.spans.iter().enumerate() {
            if child_sum[i] > s.dur_ns() {
                return Err(format!("children of span {i} ({}) exceed it", s.name));
            }
        }
        Ok(())
    }

    /// Chrome-trace ("Trace Event Format") JSON: one complete (`X`) event
    /// per span, microsecond timestamps, so the file opens in Perfetto.
    pub fn to_chrome_json(&self, process: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            escape(process)
        );
        let own = self.self_times_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"self_us\":{:.3}",
                s.track,
                escape(&s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                own[i] as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            for (k, v) in &s.args {
                let _ = write!(out, ",\"{}\":{}", escape(k), json_num(*v));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A finite JSON number (non-finite values have no JSON spelling).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// What [`Traced`] saw: one end-of-iteration stamp and one changed-vertex
/// share per iteration.
#[derive(Clone, Debug, Default)]
pub struct IterLog {
    pub end_ns: Vec<u64>,
    pub changed_share: Vec<f64>,
}

struct TracedState<V> {
    prev: Vec<V>,
    log: IterLog,
}

/// Delegates every [`VertexProgram`] method to `inner`, forces
/// `OBSERVES_ITERATIONS`, and stamps the clock in `observe_iteration`.
/// The snapshot and relabelling pass that flag forces in the runner is
/// the tracing overhead `bench.trace_overhead_share` reports, which is
/// why end-to-end numbers come from untraced passes.
pub struct Traced<'a, P: VertexProgram> {
    inner: &'a P,
    epoch: Instant,
    state: Mutex<TracedState<P::Value>>,
}

impl<'a, P: VertexProgram> Traced<'a, P> {
    pub fn new(inner: &'a P, epoch: Instant, num_vertices: u32) -> Self {
        let prev = (0..num_vertices).map(|v| inner.init(v)).collect();
        Traced { inner, epoch, state: Mutex::new(TracedState { prev, log: IterLog::default() }) }
    }

    pub fn into_log(self) -> IterLog {
        self.state.into_inner().expect("observer panicked").log
    }
}

impl<P: VertexProgram> VertexProgram for Traced<'_, P> {
    type Value = P::Value;
    const NEEDS_WEIGHTED_DEGREE: bool = P::NEEDS_WEIGHTED_DEGREE;
    const NEEDS_WEIGHTS: bool = P::NEEDS_WEIGHTS;
    const OBSERVES_ITERATIONS: bool = true;

    fn init(&self, v: VertexId) -> Self::Value {
        self.inner.init(v)
    }
    fn initial_frontier(&self) -> InitialFrontier {
        self.inner.initial_frontier()
    }
    fn activate(&self, state: Self::Value) -> (Self::Value, Self::Value) {
        self.inner.activate(state)
    }
    fn claim_from_snapshot(
        &self,
        state: Self::Value,
        snap: Self::Value,
    ) -> (Self::Value, Self::Value) {
        self.inner.claim_from_snapshot(state, snap)
    }
    fn message(&self, seed: Self::Value, ctx: EdgeCtx) -> Option<Self::Value> {
        self.inner.message(seed, ctx)
    }
    fn accumulate(&self, state: Self::Value, msg: Self::Value) -> Option<Self::Value> {
        self.inner.accumulate(state, msg)
    }
    fn should_activate(&self, old: Self::Value, new: Self::Value) -> bool {
        self.inner.should_activate(old, new)
    }
    fn priority_mode(&self) -> PriorityMode {
        self.inner.priority_mode()
    }
    fn delta_of(&self, state: Self::Value) -> f64 {
        self.inner.delta_of(state)
    }
    fn observe_iteration(&self, iteration: u32, values: &[Self::Value]) {
        let stamp = self.epoch.elapsed().as_nanos() as u64;
        let mut st = self.state.lock().expect("observer panicked");
        let changed = st.prev.iter().zip(values).filter(|(a, b)| a != b).count();
        st.log.end_ns.push(stamp);
        st.log.changed_share.push(changed as f64 / values.len().max(1) as f64);
        st.prev.clear();
        st.prev.extend_from_slice(values);
        drop(st);
        if P::OBSERVES_ITERATIONS {
            self.inner.observe_iteration(iteration, values);
        }
    }
}

/// Writer and nesting checks, on a hand-built span tree.
pub fn self_test() -> Result<(), String> {
    let mut t = Tracer::default();
    let pass = t.add("pass", 0, 1_000, None);
    let run = t.add("run \"q\"", 100, 900, Some(pass));
    let a = t.add("iter", 100, 400, Some(run));
    t.add("iter", 400, 900, Some(run));
    t.spans[a].args.push(("kernel_edges", 12.0));
    let q = t.add("query", 50, 950, Some(pass));
    t.spans[q].track = 3;
    t.spans[q].request = Some(7);
    t.check_nesting()?;
    let own = t.self_times_ns();
    if own[pass] != 200 || own[run] != 0 {
        return Err(format!("self times {own:?}"));
    }
    let json = t.to_chrome_json("self-test");
    let doc = serde_json::from_str(&json).map_err(|e| format!("trace is not JSON: {e}"))?;
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).ok_or("no traceEvents")?;
    if events.len() != t.spans.len() + 1 {
        return Err("one event per span expected".into());
    }
    let bad = t.add("iter", 50, 150, Some(run));
    if t.check_nesting().is_ok() {
        return Err("escaping child not detected".into());
    }
    t.spans.truncate(bad);
    t.add("iter", 100, 900, Some(run));
    if t.check_nesting().is_ok() {
        return Err("oversubscribed parent not detected".into());
    }
    Ok(())
}
