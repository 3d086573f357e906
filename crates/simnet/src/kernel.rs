//! The cooperative virtual-time kernel.
//!
//! Simulated threads are real OS threads, but at most one executes at any
//! moment: the kernel always hands control to the runnable entity (thread or
//! scheduled event) with the minimum virtual timestamp, breaking ties
//! deterministically (events before threads, then by sequence/thread id).
//! Timing therefore never depends on the host scheduler and simulations are
//! reproducible bit-for-bit.
//!
//! Threads advance time explicitly:
//! * [`SimContext::sleep`] models CPU work (accounted as busy time),
//! * [`Gate`] is a virtual-time channel: receivers block without consuming
//!   virtual time (accounted as idle time) until a value is pushed.
//!
//! # Host cost
//!
//! Every switch from one simulated thread to another is an OS context
//! switch, so the simulator's host cost is set by how many handoffs a run
//! makes and what each one costs. Three mechanisms keep both low:
//!
//! * **Baton handoff.** Each simulated thread owns a baton (a flag plus
//!   `std::thread::park`/`unpark`). The dispatcher records the next
//!   thread as running, drops the state lock and only then passes that
//!   thread's baton, so the wakee never contends for a lock its waker
//!   still holds. Poisoning passes every baton.
//! * **One host CPU per kernel.** [`Kernel::new`] picks one CPU of the
//!   process's allowed set, round-robin across kernels, and every
//!   simulated thread of the kernel pins itself to it (Linux only;
//!   failures are ignored). Since only one simulated thread runs at a
//!   time, a handoff becomes a same-runqueue switch instead of a
//!   cross-CPU wake-up. The caller of [`Kernel::run`] is not pinned.
//! * **Fused poll-then-wait.** [`Gate::sleep_then_recv_timeout`] charges
//!   CPU work and then waits on a gate. When the thread's wakeup comes
//!   due the dispatcher checks the gate itself, at exactly that point in
//!   the dispatch order; if it is empty it registers the waiter and
//!   re-queues the thread at its deadline without waking the OS thread.
//!
//! None of the three changes the virtual timeline. The counters
//! `kernel.handoffs`, `kernel.self_resumes`, `kernel.events` and
//! `kernel.fused_waits` are published per run when observability is
//! attached; they are deterministic for a given seed.
//!
//! The kernel detects global deadlock (every thread blocked, no pending
//! events) and panics with a diagnostic listing the blocked threads, which
//! turns protocol termination bugs into immediate test failures.

use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};

use parking_lot::{Condvar, Mutex, MutexGuard};
use rshuffle_obs::{names, EventKind, Labels, Obs};

use crate::time::{SimDuration, SimTime};
use crate::NodeId;

/// Identifier of a simulated thread, unique within a [`Kernel`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SimThreadId(u64);

impl SimThreadId {
    /// The thread's spawn index (0-based). Flight-recorder tracks use
    /// `index + 1` as their `tid` (tid 0 is the per-node hardware track).
    pub fn index(&self) -> u64 {
        self.0
    }

    /// The flight-recorder track id for this thread.
    pub fn track(&self) -> u32 {
        (self.0 + 1) as u32
    }
}

/// Result of a [`Gate::recv_timeout`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeout<T> {
    /// A value arrived before the deadline.
    Value(T),
    /// The deadline passed with no value available.
    TimedOut,
}

impl<T> RecvTimeout<T> {
    /// Returns the contained value.
    ///
    /// # Panics
    ///
    /// Panics if the receive timed out.
    pub fn unwrap(self) -> T {
        match self {
            RecvTimeout::Value(v) => v,
            RecvTimeout::TimedOut => panic!("called unwrap() on RecvTimeout::TimedOut"),
        }
    }
}

/// Post-mortem statistics for one simulated thread.
#[derive(Clone, Debug)]
pub struct ThreadStats {
    /// Thread name given at spawn time.
    pub name: String,
    /// Node the thread was pinned to.
    pub node: NodeId,
    /// Virtual time spent in [`SimContext::sleep`] (modelled CPU work).
    pub busy: SimDuration,
    /// Virtual time spent blocked on gates.
    pub idle: SimDuration,
    /// Virtual time at which the thread function returned.
    pub finished_at: SimTime,
}

/// A simulated thread's run token. The dispatcher passes it to the thread
/// it picks; the thread parks until it holds it.
struct Baton {
    go: AtomicBool,
    /// The OS thread, set by [`Kernel::spawn`] before the thread can be
    /// dispatched (only the running party spawns, so nobody dispatches
    /// while a spawn is in progress).
    thread: OnceLock<Thread>,
}

impl Baton {
    fn pass(&self) {
        self.go.store(true, Ordering::Release);
        if let Some(t) = self.thread.get() {
            t.unpark();
        }
    }

    fn wait(&self) {
        while !self.go.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    }
}

/// A gate the dispatcher can check on a parked thread's behalf.
trait WaitProbe: Send + Sync {
    /// Called under the kernel state lock: if the gate holds no value,
    /// registers `tid` as a waiter and returns `true`.
    fn register_if_empty(&self, tid: SimThreadId) -> bool;
}

/// The continuation of a [`Gate::sleep_then_recv_timeout`] whose sleep
/// has not yet come due.
struct FusedWait {
    gate: Arc<dyn WaitProbe>,
    timeout: SimDuration,
}

struct Slot {
    /// `Some(t)`: runnable at virtual time `t`. `None`: running or blocked.
    resume_at: Option<SimTime>,
    baton: Arc<Baton>,
    /// Checked by the dispatcher when the `resume_at` entry comes due.
    fused: Option<FusedWait>,
    /// Set when the dispatcher blocked the thread on a fused wait: the
    /// start of its idle interval, settled by the thread when it resumes.
    blocked_since: Option<SimTime>,
    name: String,
    node: NodeId,
    spawned_at: SimTime,
    busy: SimDuration,
    idle: SimDuration,
}

struct EventEntry {
    at: SimTime,
    seq: u64,
    action: Box<dyn FnOnce() + Send>,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    /// Total order on events: earliest `(at, seq)` first. The sequence
    /// number is assigned monotonically by [`Kernel::schedule`], so two
    /// events at the same virtual instant always fire in the order they
    /// were scheduled — never in heap-insertion or hash order. This
    /// explicit tie-break is what makes event dispatch deterministic.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Host-cost counters of a kernel: how often its dispatcher did each kind
/// of work since [`Kernel::new`]. They depend only on the simulated
/// program, so same-seed runs report equal values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Dispatches that passed the run baton to another OS thread.
    pub handoffs: u64,
    /// Dispatches that resumed the dispatching thread itself.
    pub self_resumes: u64,
    /// Scheduled event actions executed.
    pub events: u64,
    /// Fused waits the dispatcher blocked on an empty gate without waking
    /// the thread (see [`Gate::sleep_then_recv_timeout`]).
    pub fused_waits: u64,
}

struct State {
    now: SimTime,
    next_seq: u64,
    running: Option<SimThreadId>,
    /// Indexed by [`SimThreadId::index`]; `None` once retired.
    threads: Vec<Option<Slot>>,
    live_threads: usize,
    runnable: BTreeSet<(SimTime, SimThreadId)>,
    events: BinaryHeap<EventEntry>,
    finished: bool,
    poisoned: Option<String>,
    stats: Vec<ThreadStats>,
    join_handles: Vec<JoinHandle<()>>,
    obs: Option<Arc<Obs>>,
    /// Straggler injection: CPU-work multiplier per node (absent = 1.0).
    cpu_slowdown: HashMap<NodeId, f64>,
    counters: KernelCounters,
    /// The part of `counters` already added to the attached metrics.
    published: KernelCounters,
}

impl State {
    fn slot_mut(&mut self, tid: SimThreadId) -> &mut Slot {
        self.threads[tid.0 as usize]
            .as_mut()
            .expect("simulated thread must exist")
    }
}

struct Shared {
    state: Mutex<State>,
    completion: Condvar,
    /// Mirrors `State::poisoned` so a thread woken by its baton can tell
    /// poison from a dispatch without taking the state lock.
    poisoned: AtomicBool,
    /// Host CPU every simulated thread of this kernel runs on.
    cpu: Option<usize>,
}

/// Handle to a virtual-time simulation kernel. Cheap to clone.
#[derive(Clone)]
pub struct Kernel {
    shared: Arc<Shared>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Creates a new kernel with the clock at zero.
    pub fn new() -> Self {
        Kernel {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    now: SimTime::ZERO,
                    next_seq: 0,
                    running: None,
                    threads: Vec::new(),
                    live_threads: 0,
                    runnable: BTreeSet::new(),
                    events: BinaryHeap::new(),
                    finished: false,
                    poisoned: None,
                    stats: Vec::new(),
                    join_handles: Vec::new(),
                    obs: None,
                    cpu_slowdown: HashMap::new(),
                    counters: KernelCounters::default(),
                    published: KernelCounters::default(),
                }),
                completion: Condvar::new(),
                poisoned: AtomicBool::new(false),
                cpu: affinity::pick_cpu(),
            }),
        }
    }

    /// Current virtual time. Callable from anywhere.
    pub fn now(&self) -> SimTime {
        self.shared.state.lock().now
    }

    /// Attaches the shared observability context. Thread spawns and
    /// retirements are recorded into it from then on (call before the
    /// workload starts for complete coverage).
    pub fn set_obs(&self, obs: Arc<Obs>) {
        self.shared.state.lock().obs = Some(obs);
    }

    /// The attached observability context, if any.
    pub fn obs(&self) -> Option<Arc<Obs>> {
        self.shared.state.lock().obs.clone()
    }

    /// Sets the straggler factor for `node`: every subsequent
    /// [`SimContext::sleep`] on that node takes `factor`× as long. A
    /// factor of 1.0 removes the slowdown. Deterministic: the scaling is
    /// pure integer-rounded arithmetic on the virtual clock.
    pub fn set_cpu_slowdown(&self, node: NodeId, factor: f64) {
        let mut st = self.shared.state.lock();
        if factor == 1.0 {
            st.cpu_slowdown.remove(&node);
        } else {
            st.cpu_slowdown.insert(node, factor.max(0.0));
        }
    }

    /// The current straggler factor for `node` (1.0 when healthy).
    pub fn cpu_slowdown(&self, node: NodeId) -> f64 {
        self.shared
            .state
            .lock()
            .cpu_slowdown
            .get(&node)
            .copied()
            .unwrap_or(1.0)
    }

    /// Spawns a simulated thread pinned to `node`, runnable at the current
    /// virtual time. Returns its id.
    ///
    /// May be called before [`Kernel::run`] or from inside another simulated
    /// thread.
    pub fn spawn<F>(&self, node: NodeId, name: &str, f: F) -> SimThreadId
    where
        F: FnOnce(SimContext) + Send + 'static,
    {
        let baton = Arc::new(Baton {
            go: AtomicBool::new(false),
            thread: OnceLock::new(),
        });
        let tid = {
            let mut st = self.shared.state.lock();
            let tid = SimThreadId(st.threads.len() as u64);
            let start_at = st.now;
            st.threads.push(Some(Slot {
                resume_at: Some(start_at),
                baton: baton.clone(),
                fused: None,
                blocked_since: None,
                name: name.to_string(),
                node,
                spawned_at: start_at,
                busy: SimDuration::ZERO,
                idle: SimDuration::ZERO,
            }));
            st.live_threads += 1;
            st.runnable.insert((start_at, tid));
            if let Some(obs) = &st.obs {
                obs.recorder.name_track(node as u32, tid.track(), name);
            }
            tid
        };

        let kernel = self.clone();
        let thread_baton = baton.clone();
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                kernel.thread_main(tid, thread_baton, node, f);
            })
            .expect("failed to spawn OS thread for simulated thread");
        let _ = baton.thread.set(handle.thread().clone());
        self.shared.state.lock().join_handles.push(handle);
        tid
    }

    fn thread_main<F>(&self, tid: SimThreadId, baton: Arc<Baton>, node: NodeId, f: F)
    where
        F: FnOnce(SimContext) + Send,
    {
        if let Some(cpu) = self.shared.cpu {
            affinity::pin_current_thread(cpu);
        }
        // Wait until the dispatcher hands control to this thread.
        baton.wait();
        if self.shared.poisoned.load(Ordering::Acquire) {
            self.retire(tid, true);
            return;
        }

        let ctx = SimContext {
            kernel: self.clone(),
            id: tid,
            node,
            baton,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(move || f(ctx)));
        let panicked = result.is_err();
        if let Err(payload) = result {
            // `&*payload` unsizes to the payload itself; `&payload` would
            // wrap the Box and break the downcasts.
            let msg = payload_to_string(&*payload);
            let mut st = self.shared.state.lock();
            self.poison(&mut st, format!("simulated thread panicked: {msg}"));
        }
        self.retire(tid, panicked);
    }

    /// Records the first poison message and releases every parked thread
    /// and the caller of [`Kernel::run`] so they observe it.
    fn poison(&self, st: &mut State, msg: String) {
        if st.poisoned.is_none() {
            st.poisoned = Some(msg);
        }
        self.shared.poisoned.store(true, Ordering::Release);
        for slot in st.threads.iter().flatten() {
            slot.baton.pass();
        }
        self.shared.completion.notify_all();
    }

    /// Removes a finished thread, records its stats and hands control to the
    /// next runnable entity.
    fn retire(&self, tid: SimThreadId, panicked: bool) {
        let mut st = self.shared.state.lock();
        if let Some(slot) = st.threads[tid.0 as usize].take() {
            st.live_threads -= 1;
            if let Some(t) = slot.resume_at {
                st.runnable.remove(&(t, tid));
            }
            let finished_at = st.now;
            if let Some(obs) = &st.obs {
                let node = slot.node as u32;
                let labels = Labels::node(node);
                obs.metrics
                    .counter(names::KERNEL_BUSY_NS, labels)
                    .add(slot.busy.as_nanos());
                obs.metrics
                    .counter(names::KERNEL_IDLE_NS, labels)
                    .add(slot.idle.as_nanos());
                obs.metrics
                    .counter(names::KERNEL_THREADS_FINISHED, labels)
                    .inc();
                obs.recorder.span(
                    node,
                    tid.track(),
                    &slot.name,
                    slot.spawned_at.as_nanos(),
                    finished_at.as_nanos(),
                );
                obs.recorder.event(
                    node,
                    tid.track(),
                    finished_at.as_nanos(),
                    EventKind::ThreadFinished,
                    slot.busy.as_nanos(),
                );
            }
            st.stats.push(ThreadStats {
                name: slot.name,
                node: slot.node,
                busy: slot.busy,
                idle: slot.idle,
                finished_at,
            });
        }
        if st.running == Some(tid) {
            st.running = None;
        }
        if st.poisoned.is_some() || panicked {
            self.shared.completion.notify_all();
            return;
        }
        self.dispatch(st, None);
    }

    /// Schedules `action` to run at virtual time `at` (clamped to `now`).
    ///
    /// Actions run while no simulated thread executes; they may schedule
    /// further events and push to gates, but must not block.
    pub fn schedule<F>(&self, at: SimTime, action: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let mut st = self.shared.state.lock();
        let at = at.max(st.now);
        let seq = st.next_seq;
        st.next_seq += 1;
        st.events.push(EventEntry {
            at,
            seq,
            action: Box::new(action),
        });
    }

    /// Schedules `action` to run `delay` after the current virtual time.
    pub fn schedule_in<F>(&self, delay: SimDuration, action: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let now = self.now();
        self.schedule(now + delay, action);
    }

    /// Runs the simulation to completion: blocks the calling (host) thread
    /// until every simulated thread has finished and the event queue is
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if any simulated thread panicked or a global deadlock was
    /// detected (every thread blocked with no pending event).
    pub fn run(&self) {
        {
            let st = self.shared.state.lock();
            self.dispatch(st, None);
        }
        let mut st = self.shared.state.lock();
        while !st.finished && st.poisoned.is_none() {
            self.shared.completion.wait(&mut st);
        }
        let poisoned = st.poisoned.clone();
        let handles = std::mem::take(&mut st.join_handles);
        if poisoned.is_none() {
            self.publish_counters(&mut st);
        }
        drop(st);
        for h in handles {
            // Threads have either exited or are unwinding; joining is safe.
            let _ = h.join();
        }
        if let Some(msg) = poisoned {
            panic!("{msg}");
        }
    }

    /// Adds the thread-dispatch counters accumulated since the last run
    /// to the attached metrics, as run-global `kernel.*` series.
    ///
    /// `events` is not published: a scheduled query's release flushes
    /// RDMA writes still in flight, which runs fewer events than the
    /// direct path on the same virtual timeline, and the scheduler
    /// identity suite compares the two paths' snapshots. Read it from
    /// [`Kernel::counters`].
    fn publish_counters(&self, st: &mut State) {
        let (c, prev) = (st.counters, st.published);
        st.published = c;
        if let Some(obs) = &st.obs {
            for (name, value) in [
                (names::KERNEL_HANDOFFS, c.handoffs - prev.handoffs),
                (
                    names::KERNEL_SELF_RESUMES,
                    c.self_resumes - prev.self_resumes,
                ),
                (names::KERNEL_FUSED_WAITS, c.fused_waits - prev.fused_waits),
            ] {
                obs.metrics.counter(name, Labels::GLOBAL).add(value);
            }
        }
    }

    /// The dispatcher's host-cost counters so far.
    pub fn counters(&self) -> KernelCounters {
        self.shared.state.lock().counters
    }

    /// Returns statistics for all threads that have finished so far.
    pub fn stats(&self) -> Vec<ThreadStats> {
        self.shared.state.lock().stats.clone()
    }

    /// Core scheduling loop. Processes due events and fused waits inline;
    /// when the next runnable entity is a thread to wake, transfers control
    /// to it.
    ///
    /// If `me` is `Some`, the caller is a simulated thread that has already
    /// recorded its own wakeup (or blocked state) and this call returns only
    /// once the caller is scheduled to run again. It returns the state lock
    /// still held when the caller resumed without a handoff, `None` when the
    /// lock was released.
    fn dispatch<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        me: Option<&SimContext>,
    ) -> Option<MutexGuard<'a, State>> {
        let me_id = me.map(|c| c.id);
        // Scratch buffer for same-instant event batches; reused across loop
        // iterations so a long event cascade allocates once.
        let mut batch: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        loop {
            if st.poisoned.is_some() {
                drop(st);
                self.propagate_poison(me_id);
                return None;
            }
            let next_event_at = st.events.peek().map(|e| e.at);
            let next_thread = st.runnable.iter().next().copied();

            match (next_event_at, next_thread) {
                (None, None) => {
                    if st.live_threads == 0 {
                        st.finished = true;
                        self.shared.completion.notify_all();
                        if me.is_some() {
                            // A thread with `me` set is blocked on a gate and
                            // nothing can ever wake it: that is a deadlock of
                            // one.
                            let msg = "deadlock: last runnable thread blocked forever".to_string();
                            self.poison(&mut st, msg.clone());
                            drop(st);
                            panic!("{msg}");
                        }
                        return None;
                    }
                    // Threads exist but none is runnable and no event is
                    // pending: global deadlock.
                    let blocked: Vec<String> = st
                        .threads
                        .iter()
                        .flatten()
                        .map(|s| format!("{} (node {})", s.name, s.node))
                        .collect();
                    let msg = format!(
                        "virtual-time deadlock at {:?}: {} thread(s) blocked with no pending \
                         events: [{}]",
                        st.now,
                        blocked.len(),
                        blocked.join(", ")
                    );
                    self.poison(&mut st, msg.clone());
                    drop(st);
                    panic!("{msg}");
                }
                (Some(ev_at), thread) if thread.is_none_or(|(t, _)| ev_at <= t) => {
                    debug_assert!(ev_at >= st.now, "event scheduled in the past");
                    st.now = ev_at;
                    // Drain every event due at this instant in one lock
                    // cycle. BinaryHeap pop yields them in (at, seq) order,
                    // so the batch preserves schedule order; actions that
                    // schedule *new* events at the same instant get a higher
                    // seq and are picked up on the next loop iteration —
                    // identical semantics to popping one event per cycle,
                    // but one lock round-trip per instant instead of per
                    // event (the hot path at 512 nodes).
                    while let Some(e) = st.events.peek() {
                        if e.at != ev_at {
                            break;
                        }
                        let entry = st.events.pop().expect("peeked event must exist");
                        batch.push(entry.action);
                    }
                    st.counters.events += batch.len() as u64;
                    drop(st);
                    for action in batch.drain(..) {
                        action();
                    }
                    st = self.shared.state.lock();
                }
                (_, Some((t, tid))) => {
                    let s = &mut *st;
                    s.runnable.remove(&(t, tid));
                    debug_assert!(t >= s.now, "thread scheduled in the past");
                    s.now = t;
                    let slot = s.threads[tid.0 as usize]
                        .as_mut()
                        .expect("runnable thread must exist");
                    slot.resume_at = None;
                    // A fused wait due now: check its gate here, exactly
                    // where the thread itself would, and leave the thread
                    // parked when there is nothing to receive yet.
                    if let Some(fw) = slot.fused.take() {
                        if fw.timeout > SimDuration::ZERO && fw.gate.register_if_empty(tid) {
                            let deadline = t + fw.timeout;
                            slot.blocked_since = Some(t);
                            slot.resume_at = Some(deadline);
                            s.runnable.insert((deadline, tid));
                            s.counters.fused_waits += 1;
                            continue;
                        }
                    }
                    s.running = Some(tid);
                    if me_id == Some(tid) {
                        s.counters.self_resumes += 1;
                        return Some(st);
                    }
                    s.counters.handoffs += 1;
                    let baton = slot.baton.clone();
                    drop(st);
                    baton.pass();
                    if let Some(ctx) = me {
                        ctx.baton.wait();
                        if self.shared.poisoned.load(Ordering::Acquire) {
                            self.propagate_poison(me_id);
                        }
                    }
                    return None;
                }
                // `(Some(_), None)` with a failed guard cannot occur: the
                // guard is always true when no thread is runnable.
                _ => unreachable!("dispatch: inconsistent scheduler state"),
            }
        }
    }

    fn propagate_poison(&self, me: Option<SimThreadId>) {
        if me.is_some() {
            // Unwind through the simulated thread; its wrapper will retire it
            // without re-poisoning.
            panic!("simulation poisoned (another thread panicked or deadlock detected)");
        }
    }

    /// Marks the calling thread runnable again at `at` and yields to the
    /// scheduler. Returns when the thread is dispatched (virtual time ==
    /// at, unless poisoned), with the state lock if it was never released.
    fn yield_until<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        me: &SimContext,
        at: SimTime,
    ) -> Option<MutexGuard<'a, State>> {
        debug_assert_eq!(st.running, Some(me.id), "yield from non-running thread");
        debug_assert!(at >= st.now);
        st.slot_mut(me.id).resume_at = Some(at);
        st.runnable.insert((at, me.id));
        st.running = None;
        self.dispatch(st, Some(me))
    }

    /// Blocks the calling thread with no wakeup time (a gate push must wake
    /// it). `deadline`, if given, acts as a timed wakeup. Returns with the
    /// state locked once the thread runs again, its wait counted as idle.
    fn block_me<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        me: &SimContext,
        deadline: Option<SimTime>,
    ) -> MutexGuard<'a, State> {
        debug_assert_eq!(st.running, Some(me.id), "block from non-running thread");
        let wait_start = st.now;
        st.slot_mut(me.id).resume_at = deadline;
        if let Some(d) = deadline {
            st.runnable.insert((d, me.id));
        }
        st.running = None;
        let mut st = self
            .dispatch(st, Some(me))
            .unwrap_or_else(|| self.shared.state.lock());
        let now = st.now;
        st.slot_mut(me.id).idle += now.duration_since(wait_start);
        st
    }

    /// Makes a blocked thread runnable at `at` (or earlier if it already has
    /// an earlier wakeup). No-op for the currently running thread.
    fn wake(&self, st: &mut State, tid: SimThreadId, at: SimTime) {
        if st.running == Some(tid) {
            return;
        }
        if let Some(slot) = st.threads[tid.0 as usize].as_mut() {
            match slot.resume_at {
                Some(existing) if existing <= at => {}
                Some(existing) => {
                    st.runnable.remove(&(existing, tid));
                    slot.resume_at = Some(at);
                    st.runnable.insert((at, tid));
                }
                None => {
                    slot.resume_at = Some(at);
                    st.runnable.insert((at, tid));
                }
            }
        }
    }
}

fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Host CPU placement of a kernel's simulated threads.
mod affinity {
    use super::{AtomicUsize, Ordering};

    /// One CPU of the process's allowed set, chosen round-robin across the
    /// kernels of this process so concurrent kernels spread out. `None`
    /// when the allowed set cannot be read.
    pub(super) fn pick_cpu() -> Option<usize> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let cpus = allowed_cpus();
        if cpus.is_empty() {
            return None;
        }
        Some(cpus[NEXT.fetch_add(1, Ordering::Relaxed) % cpus.len()])
    }

    #[cfg(target_os = "linux")]
    const SET_WORDS: usize = 1024 / 64; // glibc's cpu_set_t

    #[cfg(target_os = "linux")]
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    #[cfg(target_os = "linux")]
    fn allowed_cpus() -> Vec<usize> {
        let mut set = [0u64; SET_WORDS];
        // SAFETY: `set` is writable and exactly `cpusetsize` bytes long;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..SET_WORDS * 64)
            .filter(|&c| set[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    /// Pins the calling thread to `cpu`. A failure leaves it unpinned,
    /// which costs host time but never correctness.
    #[cfg(target_os = "linux")]
    pub(super) fn pin_current_thread(cpu: usize) {
        let mut set = [0u64; SET_WORDS];
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is readable and exactly `cpusetsize` bytes long;
        // pid 0 is the calling thread.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) };
    }

    #[cfg(not(target_os = "linux"))]
    fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    #[cfg(not(target_os = "linux"))]
    pub(super) fn pin_current_thread(_cpu: usize) {}
}

/// Per-thread handle passed to the closure given to [`Kernel::spawn`].
#[derive(Clone)]
pub struct SimContext {
    kernel: Kernel,
    id: SimThreadId,
    node: NodeId,
    baton: Arc<Baton>,
}

impl SimContext {
    /// The kernel this thread belongs to.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// This thread's id.
    pub fn id(&self) -> SimThreadId {
        self.id
    }

    /// The node this thread is pinned to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Advances this thread's clock by `d`, modelling CPU work. Other
    /// runnable entities with earlier timestamps execute in the meantime.
    pub fn sleep(&self, d: SimDuration) {
        let st = self.kernel.shared.state.lock();
        self.sleep_locked(st, d, None);
    }

    /// Yields to any runnable entity scheduled at the current instant.
    pub fn yield_now(&self) {
        let st = self.kernel.shared.state.lock();
        let at = st.now;
        self.kernel.yield_until(st, self, at);
    }

    /// Charges `d` as busy time and yields until it has elapsed. `fused`
    /// is what the dispatcher checks when the sleep comes due. Returns the
    /// state lock if it is still held on resumption.
    fn sleep_locked<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        d: SimDuration,
        fused: Option<FusedWait>,
    ) -> Option<MutexGuard<'a, State>> {
        // Straggler injection: CPU work on a slowed node stretches by the
        // node's factor (rounded to whole virtual nanoseconds).
        let d = match st.cpu_slowdown.get(&self.node) {
            Some(&factor) => SimDuration::from_nanos((d.as_nanos() as f64 * factor).round() as u64),
            None => d,
        };
        let at = st.now + d;
        let slot = st.slot_mut(self.id);
        slot.busy += d;
        slot.fused = fused;
        self.kernel.yield_until(st, self, at)
    }
}

struct GateInner<T> {
    queue: Mutex<VecDeque<T>>,
    waiters: Mutex<VecDeque<SimThreadId>>,
    wake_latency: SimDuration,
}

impl<T: Send> GateInner<T> {
    fn add_waiter(&self, tid: SimThreadId) {
        let mut waiters = self.waiters.lock();
        if !waiters.contains(&tid) {
            waiters.push_back(tid);
        }
    }
}

impl<T: Send> WaitProbe for GateInner<T> {
    fn register_if_empty(&self, tid: SimThreadId) -> bool {
        if !self.queue.lock().is_empty() {
            return false;
        }
        self.add_waiter(tid);
        true
    }
}

/// A virtual-time MPMC channel: producers [`push`](Gate::push) from threads
/// or event actions; consumers block in virtual time until a value arrives.
///
/// Waiting consumes no virtual CPU (it is accounted as idle time), modelling
/// a blocked thread that is woken by an interrupt/doorbell after
/// `wake_latency`.
pub struct Gate<T> {
    kernel: Kernel,
    inner: Arc<GateInner<T>>,
}

impl<T> Clone for Gate<T> {
    fn clone(&self) -> Self {
        Gate {
            kernel: self.kernel.clone(),
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + 'static> Gate<T> {
    /// Creates a gate whose wakeups are delivered `wake_latency` after the
    /// push.
    pub fn new(kernel: &Kernel, wake_latency: SimDuration) -> Self {
        Gate {
            kernel: kernel.clone(),
            inner: Arc::new(GateInner {
                queue: Mutex::new(VecDeque::new()),
                waiters: Mutex::new(VecDeque::new()),
                wake_latency,
            }),
        }
    }

    /// Enqueues a value and wakes the longest-waiting receiver, if any.
    /// Callable from simulated threads and from event actions.
    pub fn push(&self, value: T) {
        let mut st = self.kernel.shared.state.lock();
        self.inner.queue.lock().push_back(value);
        let waiter = self.inner.waiters.lock().pop_front();
        if let Some(w) = waiter {
            let at = st.now + self.inner.wake_latency;
            self.kernel.wake(&mut st, w, at);
        }
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Whether the gate currently holds no values.
    pub fn is_empty(&self) -> bool {
        self.inner.queue.lock().is_empty()
    }

    /// Pops a value if one is immediately available. Consumes no virtual
    /// time.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.queue.lock().pop_front()
    }

    /// Blocks in virtual time until a value is available.
    pub fn recv(&self, ctx: &SimContext) -> T {
        let mut st = ctx.kernel.shared.state.lock();
        loop {
            if let Some(v) = self.inner.queue.lock().pop_front() {
                return v;
            }
            self.inner.add_waiter(ctx.id);
            st = ctx.kernel.block_me(st, ctx, None);
        }
    }

    /// Blocks in virtual time until a value is available or `timeout`
    /// elapses.
    pub fn recv_timeout(&self, ctx: &SimContext, timeout: SimDuration) -> RecvTimeout<T> {
        let st = ctx.kernel.shared.state.lock();
        let deadline = st.now + timeout;
        self.recv_until(ctx, st, deadline)
    }

    /// `ctx.sleep(delay)` followed by `self.recv_timeout(ctx, timeout)`,
    /// with the same virtual timeline, busy/idle accounting and results.
    ///
    /// Cheaper on the host: when the sleep ends the dispatcher checks the
    /// gate inline, and if it is empty it blocks the thread there and then
    /// without waking it, which saves one OS handoff per empty poll.
    pub fn sleep_then_recv_timeout(
        &self,
        ctx: &SimContext,
        delay: SimDuration,
        timeout: SimDuration,
    ) -> RecvTimeout<T> {
        let st = ctx.kernel.shared.state.lock();
        let fused = FusedWait {
            gate: self.inner.clone(),
            timeout,
        };
        let mut st = ctx
            .sleep_locked(st, delay, Some(fused))
            .unwrap_or_else(|| ctx.kernel.shared.state.lock());
        let now = st.now;
        let slot = st.slot_mut(ctx.id);
        let wait_start = match slot.blocked_since.take() {
            // The dispatcher blocked this thread on the gate at `since`;
            // settle that wait the way `block_me` would have.
            Some(since) => {
                slot.idle += now.duration_since(since);
                since
            }
            None => now,
        };
        self.recv_until(ctx, st, wait_start + timeout)
    }

    fn recv_until<'a>(
        &self,
        ctx: &'a SimContext,
        mut st: MutexGuard<'a, State>,
        deadline: SimTime,
    ) -> RecvTimeout<T> {
        loop {
            if let Some(v) = self.inner.queue.lock().pop_front() {
                self.inner.waiters.lock().retain(|w| *w != ctx.id);
                return RecvTimeout::Value(v);
            }
            if st.now >= deadline {
                self.inner.waiters.lock().retain(|w| *w != ctx.id);
                return RecvTimeout::TimedOut;
            }
            self.inner.add_waiter(ctx.id);
            st = ctx.kernel.block_me(st, ctx, Some(deadline));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn empty_kernel_finishes() {
        let kernel = Kernel::new();
        kernel.run();
        assert_eq!(kernel.now(), SimTime::ZERO);
    }

    #[test]
    fn single_thread_advances_clock() {
        let kernel = Kernel::new();
        kernel.spawn(0, "t", |sim| {
            sim.sleep(SimDuration::from_micros(3));
            sim.sleep(SimDuration::from_micros(4));
            assert_eq!(sim.now().as_nanos(), 7_000);
        });
        kernel.run();
        assert_eq!(kernel.now().as_nanos(), 7_000);
    }

    #[test]
    fn threads_interleave_in_time_order() {
        let kernel = Kernel::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, step) in [("a", 30u64), ("b", 20), ("c", 50)] {
            let order = order.clone();
            kernel.spawn(0, name, move |sim| {
                sim.sleep(SimDuration::from_nanos(step));
                order.lock().push((sim.now().as_nanos(), name));
            });
        }
        kernel.run();
        assert_eq!(
            *order.lock(),
            vec![(20, "b"), (30, "a"), (50, "c")],
            "threads must run in virtual-time order"
        );
    }

    #[test]
    fn equal_times_break_ties_by_spawn_order() {
        let kernel = Kernel::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for name in ["first", "second", "third"] {
            let order = order.clone();
            kernel.spawn(0, name, move |sim| {
                sim.sleep(SimDuration::from_nanos(10));
                order.lock().push(name);
            });
        }
        kernel.run();
        assert_eq!(*order.lock(), vec!["first", "second", "third"]);
    }

    #[test]
    fn events_run_before_threads_at_same_time() {
        let kernel = Kernel::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = order.clone();
        kernel.schedule(SimTime::from_nanos(10), move || o1.lock().push("event"));
        let o2 = order.clone();
        kernel.spawn(0, "t", move |sim| {
            sim.sleep(SimDuration::from_nanos(10));
            o2.lock().push("thread");
        });
        kernel.run();
        assert_eq!(*order.lock(), vec!["event", "thread"]);
    }

    #[test]
    fn events_chain() {
        let kernel = Kernel::new();
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        let k = kernel.clone();
        kernel.schedule(SimTime::from_nanos(5), move || {
            c.fetch_add(1, Ordering::SeqCst);
            let c2 = c.clone();
            k.schedule(SimTime::from_nanos(9), move || {
                c2.fetch_add(10, Ordering::SeqCst);
            });
        });
        kernel.run();
        assert_eq!(count.load(Ordering::SeqCst), 11);
        assert_eq!(kernel.now().as_nanos(), 9);
    }

    #[test]
    fn gate_delivers_value_with_latency() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::from_nanos(100));
        let g = gate.clone();
        kernel.spawn(0, "consumer", move |sim| {
            let v = g.recv(&sim);
            assert_eq!(v, 42);
            // Pushed at t=500 by the event below; wake latency 100.
            assert_eq!(sim.now().as_nanos(), 600);
        });
        let g2 = gate.clone();
        kernel.schedule(SimTime::from_nanos(500), move || g2.push(42));
        kernel.run();
    }

    #[test]
    fn gate_value_available_before_recv_is_instant() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::from_nanos(100));
        gate.push(7);
        let g = gate.clone();
        kernel.spawn(0, "consumer", move |sim| {
            sim.sleep(SimDuration::from_nanos(10));
            let v = g.recv(&sim);
            assert_eq!(v, 7);
            assert_eq!(sim.now().as_nanos(), 10, "no wait when a value is queued");
        });
        kernel.run();
    }

    #[test]
    fn gate_recv_timeout_times_out() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
        let g = gate.clone();
        kernel.spawn(0, "consumer", move |sim| {
            let r = g.recv_timeout(&sim, SimDuration::from_micros(5));
            assert_eq!(r, RecvTimeout::TimedOut);
            assert_eq!(sim.now().as_nanos(), 5_000);
        });
        kernel.run();
    }

    #[test]
    fn gate_recv_timeout_receives_early_push() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
        let g = gate.clone();
        kernel.spawn(0, "consumer", move |sim| {
            let r = g.recv_timeout(&sim, SimDuration::from_micros(5));
            assert_eq!(r, RecvTimeout::Value(9));
            assert_eq!(sim.now().as_nanos(), 1_000);
        });
        let g2 = gate.clone();
        kernel.schedule(SimTime::from_nanos(1_000), move || g2.push(9));
        kernel.run();
    }

    #[test]
    fn producer_consumer_pipeline() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::from_nanos(10));
        let total = Arc::new(AtomicU64::new(0));
        let g = gate.clone();
        kernel.spawn(0, "producer", move |sim| {
            for i in 0..100 {
                sim.sleep(SimDuration::from_nanos(50));
                g.push(i);
            }
        });
        let g2 = gate.clone();
        let t = total.clone();
        kernel.spawn(1, "consumer", move |sim| {
            for _ in 0..100 {
                let v = g2.recv(&sim);
                t.fetch_add(v, Ordering::SeqCst);
            }
        });
        kernel.run();
        assert_eq!(total.load(Ordering::SeqCst), 99 * 100 / 2);
    }

    #[test]
    fn multiple_consumers_share_work() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
        let seen = Arc::new(AtomicU64::new(0));
        for i in 0..4 {
            let g = gate.clone();
            let s = seen.clone();
            kernel.spawn(0, &format!("c{i}"), move |sim| {
                for _ in 0..25 {
                    g.recv(&sim);
                    s.fetch_add(1, Ordering::SeqCst);
                    sim.sleep(SimDuration::from_nanos(5));
                }
            });
        }
        let g = gate.clone();
        kernel.spawn(1, "producer", move |sim| {
            for _ in 0..100 {
                g.push(1);
                sim.sleep(SimDuration::from_nanos(1));
            }
        });
        kernel.run();
        assert_eq!(seen.load(Ordering::SeqCst), 100);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
        kernel.spawn(0, "stuck", move |sim| {
            let _ = gate.recv(&sim); // Never pushed.
        });
        kernel.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn thread_panic_propagates_to_run() {
        let kernel = Kernel::new();
        kernel.spawn(0, "bad", |_sim| panic!("boom"));
        kernel.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panic_releases_blocked_threads() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
        kernel.spawn(0, "stuck", move |sim| {
            let _ = gate.recv(&sim);
        });
        kernel.spawn(0, "bad", |sim| {
            sim.sleep(SimDuration::from_nanos(100));
            panic!("boom");
        });
        kernel.run();
    }

    #[test]
    fn spawn_from_sim_thread() {
        let kernel = Kernel::new();
        let done = Arc::new(AtomicU64::new(0));
        let d = done.clone();
        kernel.spawn(0, "parent", move |sim| {
            sim.sleep(SimDuration::from_nanos(7));
            let d2 = d.clone();
            sim.kernel().spawn(0, "child", move |csim| {
                assert_eq!(csim.now().as_nanos(), 7, "child starts at spawn time");
                csim.sleep(SimDuration::from_nanos(3));
                d2.fetch_add(1, Ordering::SeqCst);
            });
            sim.sleep(SimDuration::from_nanos(100));
        });
        kernel.run();
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(kernel.now().as_nanos(), 107);
    }

    #[test]
    fn busy_and_idle_accounting() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
        let g = gate.clone();
        kernel.spawn(0, "worker", move |sim| {
            sim.sleep(SimDuration::from_nanos(300)); // busy
            let _ = g.recv(&sim); // idle until t=1000
        });
        let g2 = gate.clone();
        kernel.schedule(SimTime::from_nanos(1_000), move || g2.push(1));
        kernel.run();
        let stats = kernel.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].busy.as_nanos(), 300);
        assert_eq!(stats[0].idle.as_nanos(), 700);
        assert_eq!(stats[0].finished_at.as_nanos(), 1_000);
    }

    #[test]
    fn same_instant_events_fire_in_schedule_order() {
        // Events are keyed (at, seq): registration order at a given instant
        // is the tie-break, regardless of the order timestamps were mixed in.
        let kernel = Kernel::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, at) in [("e1", 10u64), ("e2", 5), ("e3", 10), ("e4", 10)] {
            let o = order.clone();
            kernel.schedule(SimTime::from_nanos(at), move || o.lock().push(name));
        }
        kernel.run();
        assert_eq!(*order.lock(), vec!["e2", "e1", "e3", "e4"]);
    }

    #[test]
    fn event_scheduled_at_same_instant_runs_after_existing_batch() {
        // An action that schedules a new event at the *current* instant gets
        // a higher seq, so it runs after every already-scheduled event at
        // that instant — even though the batch was drained in one sweep.
        let kernel = Kernel::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = order.clone();
        let k = kernel.clone();
        kernel.schedule(SimTime::from_nanos(10), move || {
            o1.lock().push("first");
            let o = o1.clone();
            k.schedule(SimTime::from_nanos(10), move || o.lock().push("late"));
        });
        let o2 = order.clone();
        kernel.schedule(SimTime::from_nanos(10), move || o2.lock().push("second"));
        kernel.run();
        assert_eq!(*order.lock(), vec!["first", "second", "late"]);
        assert_eq!(kernel.now().as_nanos(), 10);
    }

    #[test]
    fn determinism_two_identical_runs() {
        fn run_once() -> Vec<(u64, String)> {
            let kernel = Kernel::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            let gate: Gate<u64> = Gate::new(&kernel, SimDuration::from_nanos(3));
            for i in 0..8u64 {
                let g = gate.clone();
                let log = log.clone();
                kernel.spawn((i % 4) as usize, &format!("w{i}"), move |sim| {
                    for k in 0..20u64 {
                        sim.sleep(SimDuration::from_nanos(7 + (i * 13 + k) % 11));
                        g.push(i * 100 + k);
                        if let Some(v) = g.try_recv() {
                            log.lock().push((sim.now().as_nanos(), format!("w{i}:{v}")));
                        }
                    }
                });
            }
            kernel.run();
            let v = log.lock().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn counters_repeat_for_the_same_program() {
        fn run_once() -> KernelCounters {
            let kernel = Kernel::new();
            let gate: Gate<u64> = Gate::new(&kernel, SimDuration::from_nanos(3));
            for i in 0..6u64 {
                let g = gate.clone();
                kernel.spawn((i % 3) as usize, &format!("w{i}"), move |sim| {
                    for k in 0..10u64 {
                        if i % 2 == 0 {
                            sim.sleep(SimDuration::from_nanos(5 + (i * 7 + k) % 13));
                            g.push(k);
                        } else {
                            let _ = g.sleep_then_recv_timeout(
                                &sim,
                                SimDuration::from_nanos(2),
                                SimDuration::from_nanos(9 + k),
                            );
                        }
                    }
                });
            }
            let k = kernel.clone();
            kernel.schedule(SimTime::from_nanos(11), move || {
                k.schedule_in(SimDuration::from_nanos(4), || {});
            });
            kernel.run();
            kernel.counters()
        }
        let first = run_once();
        assert_eq!(first, run_once());
        assert_eq!(first.events, 2);
        assert!(first.handoffs > 0 && first.fused_waits > 0, "{first:?}");
    }

    /// One consumer waits on an empty gate with a 10 ns poll charge; a
    /// producer thread pushes at t=100. Unfused, the consumer is woken at
    /// t=10 only to find the gate empty and switch back; fused, the
    /// dispatcher blocks it in place and it is woken once, with the value.
    #[test]
    fn fused_wait_on_an_empty_gate_saves_the_poll_handoff() {
        fn run_once(fused: bool) -> KernelCounters {
            let kernel = Kernel::new();
            let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
            let g = gate.clone();
            kernel.spawn(0, "consumer", move |sim| {
                let (poll, timeout) = (SimDuration::from_nanos(10), SimDuration::from_micros(1));
                let r = if fused {
                    g.sleep_then_recv_timeout(&sim, poll, timeout)
                } else {
                    sim.sleep(poll);
                    g.recv_timeout(&sim, timeout)
                };
                assert_eq!(r, RecvTimeout::Value(7));
                assert_eq!(sim.now().as_nanos(), 100);
            });
            kernel.spawn(0, "producer", move |sim| {
                sim.sleep(SimDuration::from_nanos(100));
                gate.push(7);
            });
            kernel.run();
            kernel.counters()
        }
        // Both: run() -> consumer, consumer's sleep -> producer.
        // Unfused: producer's sleep -> consumer (poll, gate empty),
        // consumer blocks -> producer, producer retires -> consumer.
        let unfused = run_once(false);
        assert_eq!(
            (unfused.handoffs, unfused.self_resumes, unfused.fused_waits),
            (5, 0, 0)
        );
        // Fused: the poll at t=10 is resolved inside the producer's
        // dispatch (which then resumes the producer itself), and the
        // consumer is handed the baton once, with the value.
        let fused = run_once(true);
        assert_eq!(
            (fused.handoffs, fused.self_resumes, fused.fused_waits),
            (3, 1, 1)
        );
    }

    /// A random gate program: producer threads and events push at random
    /// instants; consumers sharing one gate poll with random CPU charges
    /// and timeouts (zero included), some on a slowed node.
    struct WaitProgram {
        latency: u64,
        slowdown: f64,
        /// Per producer: pushes from an event (`true`) or a thread, and
        /// the gap before each push.
        producers: Vec<(bool, Vec<u64>)>,
        /// Per consumer: `(poll delay, timeout)` of each wait.
        consumers: Vec<Vec<(u64, u64)>>,
    }

    impl WaitProgram {
        fn generate(seed: u64) -> WaitProgram {
            let mut rng = proptest::TestRng::deterministic(&seed.to_string());
            let mut below = |n: u64| rng.next_u64() % n;
            let latency = [0, 0, 3, 17][below(4) as usize];
            let slowdown = [1.0, 1.0, 1.5, 2.25][below(4) as usize];
            let producers = (0..1 + below(3))
                .map(|_| (below(2) == 0, (0..below(8)).map(|_| below(60)).collect()))
                .collect();
            let consumers = (0..1 + below(3))
                .map(|_| {
                    (0..1 + below(8))
                        .map(|_| {
                            let delay = if below(4) == 0 { 0 } else { below(40) };
                            let timeout = if below(4) == 0 { 0 } else { 1 + below(150) };
                            (delay, timeout)
                        })
                        .collect()
                })
                .collect();
            WaitProgram {
                latency,
                slowdown,
                producers,
                consumers,
            }
        }

        /// Runs the program; returns the consumers' `(consumer, now,
        /// value)` log, every thread's `(name, busy, idle, finished_at)`
        /// and the kernel counters.
        #[allow(clippy::type_complexity)]
        fn run(
            &self,
            fused: bool,
        ) -> (
            Vec<(usize, u64, Option<u64>)>,
            Vec<(String, u64, u64, u64)>,
            KernelCounters,
        ) {
            let kernel = Kernel::new();
            kernel.set_cpu_slowdown(1, self.slowdown);
            let gate: Gate<u64> = Gate::new(&kernel, SimDuration::from_nanos(self.latency));
            let log = Arc::new(Mutex::new(Vec::new()));
            for (c, waits) in self.consumers.iter().cloned().enumerate() {
                let (g, log) = (gate.clone(), log.clone());
                kernel.spawn(c % 2, &format!("c{c}"), move |sim| {
                    for (delay, timeout) in waits {
                        let (delay, timeout) = (
                            SimDuration::from_nanos(delay),
                            SimDuration::from_nanos(timeout),
                        );
                        let r = if fused {
                            g.sleep_then_recv_timeout(&sim, delay, timeout)
                        } else {
                            sim.sleep(delay);
                            g.recv_timeout(&sim, timeout)
                        };
                        let v = match r {
                            RecvTimeout::Value(v) => Some(v),
                            RecvTimeout::TimedOut => None,
                        };
                        log.lock().push((c, sim.now().as_nanos(), v));
                    }
                });
            }
            for (p, (from_event, gaps)) in self.producers.iter().cloned().enumerate() {
                let values = (0..gaps.len() as u64).map(move |i| p as u64 * 100 + i);
                if from_event {
                    let mut at = 0;
                    for (gap, v) in gaps.into_iter().zip(values) {
                        at += gap;
                        let g = gate.clone();
                        kernel.schedule(SimTime::from_nanos(at), move || g.push(v));
                    }
                } else {
                    let g = gate.clone();
                    kernel.spawn(p % 2, &format!("p{p}"), move |sim| {
                        for (gap, v) in gaps.into_iter().zip(values) {
                            sim.sleep(SimDuration::from_nanos(gap));
                            g.push(v);
                        }
                    });
                }
            }
            kernel.run();
            let stats = kernel
                .stats()
                .into_iter()
                .map(|s| {
                    let finished = s.finished_at.as_nanos();
                    (s.name, s.busy.as_nanos(), s.idle.as_nanos(), finished)
                })
                .collect();
            let log = log.lock().clone();
            (log, stats, kernel.counters())
        }
    }

    proptest::proptest! {
        /// `sleep_then_recv_timeout` is observably `sleep` followed by
        /// `recv_timeout`: same receive log, same per-thread busy, idle
        /// and finish times, and the same dispatch sequence (each fused
        /// wait replaces exactly one wake-up of the thread).
        #[test]
        fn fused_wait_matches_sleep_then_recv_timeout(seed in proptest::any::<u64>()) {
            let program = WaitProgram::generate(seed);
            let (log, stats, plain) = program.run(false);
            let (fused_log, fused_stats, fused) = program.run(true);
            proptest::prop_assert_eq!(&log, &fused_log);
            proptest::prop_assert_eq!(&stats, &fused_stats);
            proptest::prop_assert_eq!(plain.fused_waits, 0);
            proptest::prop_assert_eq!(plain.events, fused.events);
            proptest::prop_assert_eq!(
                plain.handoffs + plain.self_resumes,
                fused.handoffs + fused.self_resumes + fused.fused_waits
            );
        }
    }

    #[test]
    fn panic_releases_threads_parked_in_fused_waits() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
        for i in 0..3 {
            let g = gate.clone();
            kernel.spawn(i, &format!("waiter{i}"), move |sim| {
                let _ = g.sleep_then_recv_timeout(
                    &sim,
                    SimDuration::from_nanos(5),
                    SimDuration::from_secs(1),
                );
            });
        }
        kernel.spawn(0, "bad", |sim| {
            sim.sleep(SimDuration::from_nanos(100));
            panic!("boom");
        });
        let result = panic::catch_unwind(AssertUnwindSafe(|| kernel.run()));
        let msg = payload_to_string(&*result.expect_err("the panic must poison the run"));
        assert!(msg.contains("boom"), "{msg}");
        assert_eq!(kernel.counters().fused_waits, 3, "all three waiters parked");
        // `run` joined every OS thread, so each one was released and retired.
        assert_eq!(kernel.stats().len(), 4);
    }

    #[test]
    fn concurrent_kernels_match_their_single_kernel_results() {
        let program = WaitProgram {
            latency: 3,
            slowdown: 1.5,
            producers: vec![(false, vec![4, 9, 30, 2]), (true, vec![1, 50, 7])],
            consumers: vec![vec![(5, 40), (0, 0), (12, 90)], vec![(3, 10), (20, 100)]],
        };
        let alone = program.run(true);
        let program = Arc::new(program);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let program = program.clone();
                std::thread::spawn(move || program.run(true))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("kernel thread"), alone);
        }
    }
}
