//! Spans and the host-time ledger of the traced run.
//!
//! The wrappers in this module sit at the layer boundaries the benchmark
//! can reach through public APIs — the `Operator::next` calls of the
//! shuffle, receive and source operators, and every `SendEndpoint` /
//! `ReceiveEndpoint` call — and record one span per call: name, layer,
//! parent span, the query/shuffle id, and start/end on both the host and
//! the virtual clock. The wrappers only read clocks: they never sleep and
//! never advance virtual time, so a traced run has the same virtual
//! timeline as an untraced one.
//!
//! # Self time
//!
//! The simulator runs one simulated thread at a time, but a span of a
//! parked thread stays open while other threads run, so host-time spans
//! of different threads overlap. Self time is therefore kept by a ledger
//! instead of by interval subtraction: every host nanosecond between two
//! consecutive span boundaries (on any thread) is charged to the
//! innermost open span of the thread that crossed the earlier boundary.
//! A thread with no open span of its own falls back to the client
//! thread's innermost span (the `simnet.run` span around
//! `Cluster::run`). Time spent in a blocking call — including the kernel
//! hand-off to the next runnable thread — is thus charged to the layer
//! that blocked. Every nanosecond of the traced section is charged
//! exactly once, so the per-layer self times sum to the section's wall
//! time.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

use parking_lot::Mutex;
use rshuffle::{
    Buffer, Delivery, EndpointId, Operator, ReceiveEndpoint, Result, RowBatch, SendEndpoint,
    StreamState,
};
use rshuffle_simnet::{NodeId, SimContext};

/// The layers host time is attributed to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's client thread between calls into the program.
    Client,
    /// `Cluster::run` outside any wrapped call: the kernel's dispatch
    /// loop, event closures and the `drive_to_sink` loops.
    Simnet,
    /// `Operator::next` of the shuffle, receive and source operators,
    /// minus the endpoint calls they make.
    Operator,
    /// `SendEndpoint` / `ReceiveEndpoint` calls, including the verbs and
    /// NIC code beneath them.
    Endpoint,
    /// A whole `run_query` call (its cluster is not reachable from
    /// outside, so it is not split further).
    Tpch,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Client,
        Layer::Simnet,
        Layer::Operator,
        Layer::Endpoint,
        Layer::Tpch,
    ];

    /// The per-layer metric carrying this layer's self time.
    pub fn self_metric(self) -> &'static str {
        match self {
            Layer::Client => "self.client_host_s",
            Layer::Simnet => "self.simnet_host_s",
            Layer::Operator => "self.operator_host_s",
            Layer::Endpoint => "self.endpoint_host_s",
            Layer::Tpch => "self.tpch_host_s",
        }
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Call name, e.g. `endpoint.get_data`.
    pub name: &'static str,
    /// Layer the call belongs to.
    pub layer: Layer,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Query or shuffle id shared by all spans of one query or shuffle.
    pub qid: u32,
    /// Host clock, ns since the tracer was created.
    pub host_start_ns: u64,
    /// Host clock at exit.
    pub host_end_ns: u64,
    /// Virtual clock at entry (ns).
    pub virt_start_ns: u64,
    /// Virtual clock at exit (ns).
    pub virt_end_ns: u64,
    /// Host ns charged to this span by the ledger.
    pub self_ns: u64,
}

struct State {
    last_ns: u64,
    /// The span the next host interval is charged to.
    current: Option<usize>,
    spans: Vec<Span>,
    stacks: HashMap<ThreadId, Vec<usize>>,
}

/// Span store plus host-time ledger for one traced section.
pub struct Tracer {
    origin: Instant,
    client: ThreadId,
    state: Mutex<State>,
}

/// Handle of an open span.
#[must_use]
pub struct SpanId(usize);

impl Tracer {
    /// A tracer whose client thread is the calling thread.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            client: std::thread::current().id(),
            state: Mutex::new(State {
                last_ns: 0,
                current: None,
                spans: Vec::new(),
                stacks: HashMap::new(),
            }),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span on the calling thread.
    pub fn enter(&self, layer: Layer, name: &'static str, qid: u32, virt_ns: u64) -> SpanId {
        let mut st = self.state.lock();
        let now = self.now_ns();
        charge(&mut st, now);
        let me = std::thread::current().id();
        let parent = innermost(&st, me, self.client);
        let idx = st.spans.len();
        st.spans.push(Span {
            name,
            layer,
            parent,
            qid,
            host_start_ns: now,
            host_end_ns: now,
            virt_start_ns: virt_ns,
            virt_end_ns: virt_ns,
            self_ns: 0,
        });
        st.stacks.entry(me).or_default().push(idx);
        st.current = Some(idx);
        SpanId(idx)
    }

    /// Closes `span`, which must be the calling thread's innermost span.
    pub fn exit(&self, span: SpanId, virt_ns: u64) {
        let mut st = self.state.lock();
        let now = self.now_ns();
        charge(&mut st, now);
        let me = std::thread::current().id();
        let popped = st.stacks.get_mut(&me).and_then(Vec::pop);
        assert_eq!(popped, Some(span.0), "spans must close innermost-first");
        let s = &mut st.spans[span.0];
        s.host_end_ns = now;
        s.virt_end_ns = virt_ns;
        st.current = innermost(&st, me, self.client);
    }

    /// Runs `f` inside a span on the calling simulated thread.
    pub fn span<T>(
        &self,
        layer: Layer,
        name: &'static str,
        qid: u32,
        sim: &SimContext,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(layer, name, qid, sim.now().as_nanos());
        let out = f();
        self.exit(id, sim.now().as_nanos());
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state.lock().spans.clone()
    }
}

fn charge(st: &mut State, now: u64) {
    if let Some(cur) = st.current {
        st.spans[cur].self_ns += now - st.last_ns;
    }
    st.last_ns = now;
}

fn innermost(st: &State, me: ThreadId, client: ThreadId) -> Option<usize> {
    let top = |t: &ThreadId| st.stacks.get(t).and_then(|s| s.last().copied());
    top(&me).or_else(|| top(&client))
}

/// Sum of the self time of every span of `layer`, in seconds.
pub fn self_seconds(spans: &[Span], layer: Layer) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.self_ns)
        .sum::<u64>() as f64
        / 1e9
}

/// Renders spans as JSON lines-in-an-array (one object per span).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{:?}\",\"qid\":{},\
             \"host_start_ns\":{},\"host_end_ns\":{},\"virt_start_ns\":{},\"virt_end_ns\":{},\
             \"self_ns\":{}}}{}\n",
            s.name,
            s.layer,
            s.qid,
            s.host_start_ns,
            s.host_end_ns,
            s.virt_start_ns,
            s.virt_end_ns,
            s.self_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

/// A send endpoint that records a span around every call.
pub struct TracedSend {
    inner: Arc<dyn SendEndpoint>,
    tracer: Arc<Tracer>,
    qid: u32,
}

impl TracedSend {
    /// Wraps `inner`; spans carry `qid`.
    pub fn wrap(
        inner: Arc<dyn SendEndpoint>,
        tracer: &Arc<Tracer>,
        qid: u32,
    ) -> Arc<dyn SendEndpoint> {
        Arc::new(TracedSend {
            inner,
            tracer: tracer.clone(),
            qid,
        })
    }
}

impl SendEndpoint for TracedSend {
    fn id(&self) -> EndpointId {
        self.inner.id()
    }

    fn send(
        &self,
        sim: &SimContext,
        buf: Buffer,
        dest: &[NodeId],
        state: StreamState,
    ) -> Result<()> {
        self.tracer
            .span(Layer::Endpoint, "endpoint.send", self.qid, sim, || {
                self.inner.send(sim, buf, dest, state)
            })
    }

    fn get_free(&self, sim: &SimContext) -> Result<Buffer> {
        self.tracer
            .span(Layer::Endpoint, "endpoint.get_free", self.qid, sim, || {
                self.inner.get_free(sim)
            })
    }

    fn registered_bytes(&self) -> usize {
        self.inner.registered_bytes()
    }

    fn charge_setup(&self, sim: &SimContext) {
        self.inner.charge_setup(sim)
    }

    fn quiesce(&self, sim: &SimContext, dest: NodeId) -> Result<()> {
        self.tracer
            .span(Layer::Endpoint, "endpoint.quiesce", self.qid, sim, || {
                self.inner.quiesce(sim, dest)
            })
    }
}

/// A receive endpoint that records a span around every call.
pub struct TracedRecv {
    inner: Arc<dyn ReceiveEndpoint>,
    tracer: Arc<Tracer>,
    qid: u32,
}

impl TracedRecv {
    /// Wraps `inner`; spans carry `qid`.
    pub fn wrap(
        inner: Arc<dyn ReceiveEndpoint>,
        tracer: &Arc<Tracer>,
        qid: u32,
    ) -> Arc<dyn ReceiveEndpoint> {
        Arc::new(TracedRecv {
            inner,
            tracer: tracer.clone(),
            qid,
        })
    }
}

impl ReceiveEndpoint for TracedRecv {
    fn id(&self) -> EndpointId {
        self.inner.id()
    }

    fn get_data(&self, sim: &SimContext) -> Result<Option<Delivery>> {
        self.tracer
            .span(Layer::Endpoint, "endpoint.get_data", self.qid, sim, || {
                self.inner.get_data(sim)
            })
    }

    fn release(&self, sim: &SimContext, remote: u64, local: Buffer, src: EndpointId) -> Result<()> {
        self.tracer
            .span(Layer::Endpoint, "endpoint.release", self.qid, sim, || {
                self.inner.release(sim, remote, local, src)
            })
    }

    fn bytes_received(&self) -> u64 {
        self.inner.bytes_received()
    }

    fn registered_bytes(&self) -> usize {
        self.inner.registered_bytes()
    }

    fn charge_setup(&self, sim: &SimContext) {
        self.inner.charge_setup(sim)
    }
}

/// An operator that records a span around every `next` call.
pub struct TracedOp {
    inner: Arc<dyn Operator>,
    tracer: Arc<Tracer>,
    name: &'static str,
    qid: u32,
}

impl TracedOp {
    /// Wraps `inner`; spans are named `name` and carry `qid`.
    pub fn wrap(
        inner: Arc<dyn Operator>,
        tracer: &Arc<Tracer>,
        name: &'static str,
        qid: u32,
    ) -> Arc<dyn Operator> {
        Arc::new(TracedOp {
            inner,
            tracer: tracer.clone(),
            name,
            qid,
        })
    }
}

impl Operator for TracedOp {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        self.tracer
            .span(Layer::Operator, self.name, self.qid, sim, || {
                self.inner.next(sim, tid)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_traced_section() {
        let t = Tracer::new();
        let root = t.enter(Layer::Client, "root", 0, 0);
        let worker = {
            let t = t.clone();
            std::thread::spawn(move || {
                let op = t.enter(Layer::Operator, "op", 1, 0);
                let ep = t.enter(Layer::Endpoint, "ep", 1, 0);
                std::thread::sleep(std::time::Duration::from_millis(2));
                t.exit(ep, 0);
                t.exit(op, 0);
            })
        };
        worker.join().expect("worker thread");
        t.exit(root, 0);
        let spans = t.spans();
        let total: u64 = spans.iter().map(|s| s.self_ns).sum();
        assert_eq!(total, spans[0].host_end_ns - spans[0].host_start_ns);
        assert_eq!(
            spans[1].parent,
            Some(0),
            "a worker's top span hangs off the client's"
        );
        assert_eq!(spans[2].parent, Some(1));
        assert!(self_seconds(&spans, Layer::Endpoint) >= 0.002);
    }
}
