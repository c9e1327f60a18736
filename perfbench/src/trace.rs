//! Spans recorded from outside the program: a [`Layer`] wrapper around
//! every nn layer and a [`Transport`] wrapper around a rank endpoint, both
//! feeding one in-memory [`Recorder`] per rank.
//!
//! The recorder keeps a little state so every span knows its parent:
//!
//! * a **step** opens when layer 0 runs a forward pass in a stochastic
//!   (training) context, and closes when the next one opens or the rank
//!   loop returns;
//! * a **sync** span opens at the first transport call inside a step (its
//!   round id is the next round number) and ends with the step's last
//!   transport call; transport calls made before the first step (the
//!   initial parameter broadcast) belong to a round-0 sync span;
//! * an **eval** span opens when layer 0 runs a forward pass outside
//!   training (rank 0's epoch-end evaluation and gradient-norm probe).
//!
//! Layer spans are children of the open step (or eval); transport spans
//! are children of the open sync span. Spans stay in memory until the run
//! ends and are then written out as Chrome trace-event JSON.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sasgd_comm::transport::Transport;
use sasgd_comm::world::CommError;
use sasgd_nn::{Ctx, Layer};
use sasgd_tensor::Tensor;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One minibatch iteration of a rank, its sync included.
    Step,
    /// The transport window of one sync round.
    Sync,
    /// Rank 0's evaluation pass.
    Eval,
    /// A layer's forward pass.
    Fwd,
    /// A layer's backward pass.
    Bwd,
    /// A transport send.
    Send,
    /// A transport receive, waiting included.
    Recv,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Step => "step",
            Kind::Sync => "sync",
            Kind::Eval => "eval",
            Kind::Fwd => "fwd",
            Kind::Bwd => "bwd",
            Kind::Send => "send",
            Kind::Recv => "recv",
        }
    }
}

/// One recorded interval. Times are nanoseconds since the recorder's
/// origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    /// Layer name for layer spans, the span kind otherwise.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same recorder.
    pub parent: Option<usize>,
    pub rank: usize,
    /// Sync round the span belongs to (0 before the first round).
    pub round: u64,
    /// Payload `f32` elements of a send or receive.
    pub elements: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    step: Option<usize>,
    sync: Option<usize>,
    eval: Option<usize>,
    round: u64,
}

/// One rank's span store.
pub struct Recorder {
    origin: Instant,
    rank: usize,
    state: Mutex<State>,
}

impl Recorder {
    pub fn new(rank: usize, origin: Instant) -> Arc<Self> {
        Arc::new(Recorder {
            origin,
            rank,
            state: Mutex::new(State::default()),
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("recorder poisoned: a traced rank thread panicked")
    }

    fn open(&self, st: &mut State, kind: Kind, at: u64, parent: Option<usize>) -> usize {
        st.spans.push(Span {
            kind,
            name: kind.label(),
            start_ns: at,
            end_ns: at,
            parent,
            rank: self.rank,
            round: st.round,
            elements: 0,
        });
        st.spans.len() - 1
    }

    /// Close the open step and eval spans at `at`.
    fn close_open(st: &mut State, at: u64) {
        for slot in [st.step.take(), st.eval.take()].into_iter().flatten() {
            st.spans[slot].end_ns = at;
        }
        st.sync = None;
    }

    /// Layer 0 is about to run a forward pass.
    fn begin_forward(&self, ctx: &Ctx) {
        let at = self.now_ns();
        let mut st = self.lock();
        if ctx.stochastic {
            Self::close_open(&mut st, at);
            st.step = Some(self.open(&mut st, Kind::Step, at, None));
        } else if st.eval.is_none() {
            Self::close_open(&mut st, at);
            st.eval = Some(self.open(&mut st, Kind::Eval, at, None));
        }
    }

    fn record_layer(&self, kind: Kind, name: &'static str, start_ns: u64) {
        let end_ns = self.now_ns();
        let mut st = self.lock();
        let parent = st.step.or(st.eval);
        let round = st.round;
        st.spans.push(Span {
            kind,
            name,
            start_ns,
            end_ns,
            parent,
            rank: self.rank,
            round,
            elements: 0,
        });
    }

    fn record_transport(&self, kind: Kind, start_ns: u64, elements: u64) {
        let end_ns = self.now_ns();
        let mut st = self.lock();
        let sync = match st.sync {
            Some(s) => s,
            None => {
                let parent = st.step;
                if parent.is_some() {
                    st.round += 1;
                }
                let s = self.open(&mut st, Kind::Sync, start_ns, parent);
                st.sync = Some(s);
                s
            }
        };
        st.spans[sync].end_ns = end_ns;
        let round = st.spans[sync].round;
        st.spans.push(Span {
            kind,
            name: kind.label(),
            start_ns,
            end_ns,
            parent: Some(sync),
            rank: self.rank,
            round,
            elements,
        });
    }

    /// The rank loop returned: close whatever is open.
    pub fn finish(&self) {
        let at = self.now_ns();
        Self::close_open(&mut self.lock(), at);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// A layer whose forward and backward passes are recorded as spans.
pub struct TracedLayer {
    inner: Box<dyn Layer>,
    index: usize,
    rec: Arc<Recorder>,
}

impl TracedLayer {
    pub fn new(inner: Box<dyn Layer>, index: usize, rec: Arc<Recorder>) -> Self {
        TracedLayer { inner, index, rec }
    }
}

impl Layer for TracedLayer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn forward(&mut self, input: Tensor, ctx: &mut Ctx) -> Tensor {
        if self.index == 0 {
            self.rec.begin_forward(ctx);
        }
        let t0 = self.rec.now_ns();
        let out = self.inner.forward(input, ctx);
        self.rec.record_layer(Kind::Fwd, self.inner.name(), t0);
        out
    }

    fn backward(&mut self, grad_out: Tensor, ctx: &mut Ctx) -> Tensor {
        let t0 = self.rec.now_ns();
        let out = self.inner.backward(grad_out, ctx);
        self.rec.record_layer(Kind::Bwd, self.inner.name(), t0);
        out
    }

    fn param_len(&self) -> usize {
        self.inner.param_len()
    }

    fn read_params(&self, out: &mut [f32]) {
        self.inner.read_params(out);
    }

    fn write_params(&mut self, src: &[f32]) {
        self.inner.write_params(src);
    }

    fn read_grads(&self, out: &mut [f32]) {
        self.inner.read_grads(out);
    }

    fn zero_grads(&mut self) {
        self.inner.zero_grads();
    }

    fn out_shape(&self, in_dims: &[usize]) -> Vec<usize> {
        self.inner.out_shape(in_dims)
    }

    fn macs(&self, in_dims: &[usize]) -> u64 {
        self.inner.macs(in_dims)
    }
}

/// A rank endpoint whose sends and receives are recorded as spans.
pub struct TracedTransport<'a, T: Transport> {
    inner: &'a mut T,
    rec: Arc<Recorder>,
}

impl<'a, T: Transport> TracedTransport<'a, T> {
    pub fn new(inner: &'a mut T, rec: Arc<Recorder>) -> Self {
        TracedTransport { inner, rec }
    }
}

impl<T: Transport> Transport for TracedTransport<'_, T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, dst: usize, tag: u64, payload: Vec<f32>) -> Result<(), CommError> {
        let n = payload.len() as u64;
        let t0 = self.rec.now_ns();
        let r = self.inner.send(dst, tag, payload);
        self.rec.record_transport(Kind::Send, t0, n);
        r
    }

    fn recv(&mut self, src: usize, tag: u64) -> Result<Vec<f32>, CommError> {
        let t0 = self.rec.now_ns();
        let r = self.inner.recv(src, tag);
        self.rec
            .record_transport(Kind::Recv, t0, r.as_ref().map_or(0, |v| v.len() as u64));
        r
    }

    fn recv_deadline(
        &mut self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<f32>, CommError> {
        let t0 = self.rec.now_ns();
        let r = self.inner.recv_deadline(src, tag, timeout);
        self.rec
            .record_transport(Kind::Recv, t0, r.as_ref().map_or(0, |v| v.len() as u64));
        r
    }

    fn recv_any(&mut self, candidates: &[(usize, u64)]) -> Result<(usize, Vec<f32>), CommError> {
        let t0 = self.rec.now_ns();
        let r = self.inner.recv_any(candidates);
        self.rec
            .record_transport(Kind::Recv, t0, r.as_ref().map_or(0, |v| v.1.len() as u64));
        r
    }

    fn recv_any_deadline(
        &mut self,
        candidates: &[(usize, u64)],
        timeout: Duration,
    ) -> Result<(usize, Vec<f32>), CommError> {
        let t0 = self.rec.now_ns();
        let r = self.inner.recv_any_deadline(candidates, timeout);
        self.rec
            .record_transport(Kind::Recv, t0, r.as_ref().map_or(0, |v| v.1.len() as u64));
        r
    }

    fn next_op(&mut self) -> u64 {
        self.inner.next_op()
    }
}

/// Chrome trace-event JSON (opens in Perfetto or chrome://tracing): one
/// complete event per span, ranks as threads.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut s = String::from("{\"traceEvents\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            s,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":{},\"round\":{},\"elements\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            sp.name,
            sp.kind.label(),
            sp.rank,
            sp.start_ns as f64 / 1e3,
            sp.dur_ns() as f64 / 1e3,
            parent,
            sp.round,
            sp.elements
        );
    }
    s.push_str("\n]}\n");
    s
}
