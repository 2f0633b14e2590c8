//! Supervised serving control plane over a frozen artifact.
//!
//! [`Server::start_with`] spawns [`ServeOptions::workers`] supervised
//! dispatcher threads, each owning its own [`Executor`] over the shared
//! immutable artifact. Callers submit single images from any number of
//! threads via [`Server::infer`] (or [`Server::infer_with_deadline`]); a
//! dispatcher coalesces queued requests into one forward pass under a
//! [`BatchPolicy`] — flush when `max_batch` requests are waiting, or when
//! the oldest has waited `max_wait` — and replies with per-request logits,
//! argmax and queue-to-reply latency. Because every frozen op is
//! deterministic and batching is bitwise-neutral, *which* dispatcher
//! answers a request never changes its bits, so multi-worker servers (the
//! fleet's weighted shards) keep the single-worker parity guarantees.
//!
//! Unlike a plain channel-fed worker, the control plane bounds every
//! resource and types every failure:
//!
//! - **Bounded admission.** The queue holds at most
//!   [`ServeOptions::queue_cap`] requests. When full, the configured
//!   [`ShedPolicy`] either rejects the newcomer or sheds the oldest queued
//!   request; shed requests get [`InferError::Overloaded`] immediately
//!   instead of queueing forever.
//! - **Deadlines.** A request may carry an absolute deadline (server-wide
//!   default via `NDSNN_INFER_DEADLINE_US`, per-call override). Expired
//!   requests are answered [`InferError::DeadlineExceeded`] at admission,
//!   while queued, and once more right before batch assembly — they never
//!   burn a forward pass.
//! - **Supervision.** The forward pass runs under `catch_unwind`. A panic
//!   fails only the in-flight batch (each waiter gets
//!   [`InferError::ExecutorFault`]); the supervisor rebuilds the
//!   [`Executor`] from the shared `Arc<Artifact>` and keeps serving. The
//!   artifact itself is immutable, so a rebuilt executor replays the exact
//!   same bits. [`Server::health`] reports `Healthy` / `Degraded` /
//!   `Draining`.
//! - **Input hygiene.** Wrong-length and non-finite (NaN/Inf) images are
//!   rejected at admission with [`InferError::BadInput`] before they can
//!   poison logits.
//! - **Bounded drain.** Shutdown closes admission, lets the dispatcher
//!   drain the queue for up to [`ServeOptions::drain_timeout`], then fails
//!   whatever is still queued with [`InferError::Closed`]. The in-flight
//!   batch always completes.
//!
//! Every admitted request receives **exactly one** reply — success,
//! `Overloaded`, `DeadlineExceeded`, `ExecutorFault` or `Closed` — never a
//! hang: the reply sender travels with the request, and any path that
//! drops a request drops its sender, which the waiting client observes as
//! `Closed`.
//!
//! Batching is *bitwise-neutral*: every frozen op treats batch samples
//! independently (the BatchNorm epilogue uses frozen statistics, never
//! batch statistics), so a request's logits do not depend on which
//! requests happened to share its batch, nor on how many times the
//! executor was rebuilt. The `batching_is_bitwise_neutral` and
//! `panic_restarts_and_recovers` tests pin this.
//!
//! For deterministic chaos testing, a seeded [`ServeFaultPlan`] (mirroring
//! `ndsnn::recovery::FaultPlan` on the training side) injects executor
//! panics and artificial slow batches at chosen global batch indices.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ndsnn_tensor::Tensor;

use crate::artifact::Artifact;
use crate::error::{InferError, Result};
use crate::exec::Executor;

/// When and how the dispatcher flushes a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests coalesced into one forward pass (≥ 1).
    pub max_batch: usize,
    /// How long the oldest queued request may wait before a partial batch
    /// flushes. Zero flushes immediately (single-request batches unless
    /// requests are already queued).
    pub max_wait: Duration,
}

impl BatchPolicy {
    /// Reads the policy from `NDSNN_INFER_BATCH` /
    /// `NDSNN_INFER_MAX_WAIT_US` (defaults 8 and 500 µs).
    pub fn from_env() -> Self {
        BatchPolicy {
            max_batch: ndsnn::config::env::infer_batch(),
            max_wait: Duration::from_micros(ndsnn::config::env::infer_max_wait_us()),
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: ndsnn::config::env::DEFAULT_INFER_BATCH,
            max_wait: Duration::from_micros(ndsnn::config::env::DEFAULT_INFER_MAX_WAIT_US),
        }
    }
}

/// What to do with a request arriving at a full admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Reject the arriving request with [`InferError::Overloaded`]; queued
    /// requests keep their place. Favors requests already admitted.
    #[default]
    RejectNew,
    /// Shed the oldest queued request (it gets [`InferError::Overloaded`])
    /// and admit the newcomer. Favors fresh requests, which under heavy
    /// overload are the ones whose deadlines are still live.
    DropOldest,
}

impl ShedPolicy {
    /// Parses a policy name: `reject-new`/`reject` or
    /// `drop-oldest`/`oldest`, case-insensitive. `None` on anything else.
    pub fn parse(s: &str) -> Option<ShedPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "reject-new" | "reject" => Some(ShedPolicy::RejectNew),
            "drop-oldest" | "oldest" => Some(ShedPolicy::DropOldest),
            _ => None,
        }
    }

    /// Reads `NDSNN_INFER_SHED_POLICY`; unrecognized or unset falls back
    /// to [`ShedPolicy::RejectNew`].
    pub fn from_env() -> ShedPolicy {
        ndsnn::config::env::infer_shed_policy_raw()
            .and_then(|s| ShedPolicy::parse(&s))
            .unwrap_or_default()
    }
}

/// Deterministic fault injection for the serving path, mirroring the
/// training-side `ndsnn::recovery::FaultPlan`.
///
/// Batch indices are *global* (monotonic across executor restarts), so a
/// plan replays identically run-to-run: the dispatcher assigns every
/// assembled batch the next index whether or not earlier batches faulted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeFaultPlan {
    /// Global batch indices at which the executor panics (after the batch
    /// is assembled, before its forward pass). Waiters of that batch get
    /// [`InferError::ExecutorFault`]; the supervisor rebuilds and
    /// continues.
    pub panic_at_batches: Vec<u64>,
    /// `(batch index, extra latency)` pairs: the dispatcher sleeps before
    /// running that batch, simulating a stalled kernel or noisy neighbor.
    pub slow_batches: Vec<(u64, Duration)>,
}

impl ServeFaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.panic_at_batches.is_empty() && self.slow_batches.is_empty()
    }

    /// Builds a reproducible plan from `seed`: `panics` panic indices and
    /// `slow` slow-batch indices drawn (SplitMix64) from `[0, horizon)`,
    /// each slow batch stalling for `slow_for`. The same seed always
    /// yields the same plan.
    pub fn seeded(seed: u64, horizon: u64, panics: usize, slow: usize, slow_for: Duration) -> Self {
        let horizon = horizon.max(1);
        let mut state = seed;
        let mut draw = || splitmix64(&mut state) % horizon;
        let mut panic_at_batches: Vec<u64> = (0..panics).map(|_| draw()).collect();
        panic_at_batches.sort_unstable();
        panic_at_batches.dedup();
        let mut slow_at: Vec<u64> = (0..slow).map(|_| draw()).collect();
        slow_at.sort_unstable();
        slow_at.dedup();
        ServeFaultPlan {
            panic_at_batches,
            slow_batches: slow_at.into_iter().map(|b| (b, slow_for)).collect(),
        }
    }

    fn panics_at(&self, seq: u64) -> bool {
        self.panic_at_batches.contains(&seq)
    }

    fn slow_at(&self, seq: u64) -> Option<Duration> {
        self.slow_batches
            .iter()
            .find(|(b, _)| *b == seq)
            .map(|(_, d)| *d)
    }
}

/// SplitMix64 step — tiny, seedable, and good enough for fault placement.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything [`Server::start_with`] needs beyond the artifact.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Batch assembly policy.
    pub policy: BatchPolicy,
    /// Admission queue capacity (≥ 1). Requests beyond this are shed.
    pub queue_cap: usize,
    /// What to shed when the queue is full.
    pub shed: ShedPolicy,
    /// Deadline applied to requests submitted via [`Server::infer`];
    /// `None` means requests wait indefinitely unless the caller passes
    /// one to [`Server::infer_with_deadline`].
    pub default_deadline: Option<Duration>,
    /// How long [`Server::shutdown`] lets the dispatchers drain the queue
    /// before failing still-queued requests with [`InferError::Closed`].
    pub drain_timeout: Duration,
    /// Supervised dispatcher threads pulling from the shared admission
    /// queue, each with its own [`Executor`] (clamped to ≥ 1). More
    /// workers let independent batches of the same model run concurrently
    /// — the fleet assigns these proportionally to model weight. Replies
    /// stay bit-identical regardless of which worker answers.
    pub workers: usize,
    /// Deterministic fault injection; empty in production. With more than
    /// one worker each dispatcher numbers its own batches from zero, so
    /// deterministic chaos tests should keep `workers == 1`.
    pub fault_plan: ServeFaultPlan,
}

impl ServeOptions {
    /// Reads every knob from the environment: `NDSNN_INFER_BATCH`,
    /// `NDSNN_INFER_MAX_WAIT_US`, `NDSNN_INFER_QUEUE_CAP`,
    /// `NDSNN_INFER_SHED_POLICY`, `NDSNN_INFER_DEADLINE_US` (0 = none),
    /// `NDSNN_INFER_DRAIN_MS`. The fault plan is never read from the
    /// environment — chaos is opt-in through code.
    pub fn from_env() -> Self {
        let deadline_us = ndsnn::config::env::infer_deadline_us();
        ServeOptions {
            policy: BatchPolicy::from_env(),
            queue_cap: ndsnn::config::env::infer_queue_cap(),
            shed: ShedPolicy::from_env(),
            default_deadline: (deadline_us > 0).then(|| Duration::from_micros(deadline_us)),
            drain_timeout: Duration::from_millis(ndsnn::config::env::infer_drain_ms()),
            workers: 1,
            fault_plan: ServeFaultPlan::default(),
        }
    }
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            policy: BatchPolicy::default(),
            queue_cap: ndsnn::config::env::DEFAULT_INFER_QUEUE_CAP,
            shed: ShedPolicy::RejectNew,
            default_deadline: None,
            drain_timeout: Duration::from_millis(ndsnn::config::env::DEFAULT_INFER_DRAIN_MS),
            workers: 1,
            fault_plan: ServeFaultPlan::default(),
        }
    }
}

/// Coarse server health derived from the supervision counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Serving; no executor restart has occurred.
    Healthy,
    /// Serving, but the executor has been rebuilt after `restarts`
    /// panic(s). Logits are unaffected (the artifact is frozen); the state
    /// exists so operators notice crash loops.
    Degraded {
        /// Number of executor rebuilds since start.
        restarts: u64,
    },
    /// Shutdown has begun: admission is closed, queued work is draining.
    Draining,
}

/// The outcome of one served request.
#[derive(Debug, Clone)]
pub struct InferReply {
    /// Timestep-averaged logits, one per class.
    pub logits: Vec<f32>,
    /// Index of the largest logit (first on ties).
    pub argmax: usize,
    /// Submission-to-reply wall-clock latency.
    pub latency: Duration,
    /// How many requests shared this request's forward pass.
    pub batch_size: usize,
}

/// Aggregate serving counters (monotonic since start).
///
/// Every counter accumulates with *saturating* arithmetic, so a
/// pathological shed storm or crash loop can pin a counter at `u64::MAX`
/// but never wrap it back to small numbers — monitoring that alerts on
/// large values stays correct at any uptime.
///
/// The counters obey an **accounting identity**: once the server is
/// quiescent (no request in flight — e.g. after [`Server::shutdown`]),
/// every submitted request has been answered with exactly one typed
/// outcome, so `submitted` equals `requests + shed + deadline_expired +
/// faulted + bad_inputs + closed`. [`ServeStats::accounting_identity`]
/// checks it; the chaos matrices (single-model and fleet) assert it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests submitted to this server (counted before validation, so
    /// every call to [`Server::infer`] ticks it exactly once).
    pub submitted: u64,
    /// Requests answered successfully.
    pub requests: u64,
    /// Forward passes executed (including ones that faulted).
    pub batches: u64,
    /// Largest batch coalesced so far.
    pub max_batch_seen: u64,
    /// Requests shed by the overload policy.
    pub shed: u64,
    /// Requests answered `DeadlineExceeded` without a forward pass.
    pub deadline_expired: u64,
    /// Executor rebuilds after a panic.
    pub restarts: u64,
    /// Requests rejected at admission for malformed content.
    pub bad_inputs: u64,
    /// Requests whose batch failed: `ExecutorFault` (panic) or `Exec`
    /// (typed executor error, no rebuild needed).
    pub faulted: u64,
    /// Requests answered `Closed` (admission after shutdown began, or
    /// still queued when the drain budget expired).
    pub closed: u64,
}

impl ServeStats {
    /// Requests answered with a typed outcome — the right-hand side of the
    /// accounting identity. Saturating, like the counters themselves.
    pub fn resolved(&self) -> u64 {
        self.requests
            .saturating_add(self.shed)
            .saturating_add(self.deadline_expired)
            .saturating_add(self.faulted)
            .saturating_add(self.bad_inputs)
            .saturating_add(self.closed)
    }

    /// Checks `submitted == resolved()` — every admitted request answered
    /// by exactly one typed outcome. Only meaningful when the server is
    /// quiescent (requests still in flight make `submitted` run ahead).
    /// Returns a description of the imbalance on violation.
    pub fn accounting_identity(&self) -> std::result::Result<(), String> {
        let resolved = self.resolved();
        if self.submitted == resolved {
            Ok(())
        } else {
            Err(format!(
                "accounting identity violated: submitted {} != resolved {} ({self:?})",
                self.submitted, resolved
            ))
        }
    }

    /// Elementwise saturating sum of two stat snapshots (fleet-wide
    /// rollups; `max_batch_seen` takes the max, not the sum).
    pub fn merge(&self, other: &ServeStats) -> ServeStats {
        ServeStats {
            submitted: self.submitted.saturating_add(other.submitted),
            requests: self.requests.saturating_add(other.requests),
            batches: self.batches.saturating_add(other.batches),
            max_batch_seen: self.max_batch_seen.max(other.max_batch_seen),
            shed: self.shed.saturating_add(other.shed),
            deadline_expired: self.deadline_expired.saturating_add(other.deadline_expired),
            restarts: self.restarts.saturating_add(other.restarts),
            bad_inputs: self.bad_inputs.saturating_add(other.bad_inputs),
            faulted: self.faulted.saturating_add(other.faulted),
            closed: self.closed.saturating_add(other.closed),
        }
    }
}

struct Request {
    image: Vec<f32>,
    enqueued: Instant,
    deadline: Option<Instant>,
    resp: SyncSender<Result<InferReply>>,
}

impl Request {
    /// Consumes the request, delivering its one reply. A receiver that
    /// gave up is ignored — the send result is irrelevant by then.
    fn reply(self, r: Result<InferReply>) {
        let _ = self.resp.send(r);
    }

    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    requests: AtomicU64,
    batches: AtomicU64,
    max_batch_seen: AtomicU64,
    shed: AtomicU64,
    deadline_expired: AtomicU64,
    restarts: AtomicU64,
    bad_inputs: AtomicU64,
    faulted: AtomicU64,
    closed: AtomicU64,
}

/// Saturating add on an atomic counter: a wrapped counter would make the
/// accounting identity (and any rate alert derived from it) silently lie,
/// so the ceiling is sticky instead.
fn sat_add(counter: &AtomicU64, n: u64) {
    let mut cur = counter.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(n);
        match counter.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

struct QueueState {
    queue: VecDeque<Request>,
    /// False once shutdown begins; admission then returns `Closed`.
    open: bool,
    /// Dispatchers still inside their supervision loops; 0 means drain is
    /// complete.
    live_dispatchers: usize,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signaled when a request is queued or admission closes.
    not_empty: Condvar,
    /// Signaled when the dispatcher exits (drain complete).
    idle: Condvar,
    counters: Counters,
}

impl Shared {
    /// Locks the queue, recovering from poisoning: a panic elsewhere must
    /// not wedge admission or drain (the state itself is just a VecDeque
    /// plus flags — always coherent between operations).
    fn lock_state(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A running inference server: [`ServeOptions::workers`] supervised
/// dispatcher threads over one shared admission queue, each owning an
/// executor (rebuilt from the frozen artifact after a panic).
///
/// `Server` is `Sync`; any number of threads may call [`Server::infer`]
/// concurrently. Dropping the server (or calling [`Server::shutdown`])
/// closes admission, drains within the configured timeout and joins every
/// dispatcher.
pub struct Server {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    sample_len: usize,
    num_classes: usize,
    queue_cap: usize,
    shed: ShedPolicy,
    default_deadline: Option<Duration>,
    drain_timeout: Duration,
    workers: usize,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("Server")
            .field("requests", &s.requests)
            .field("batches", &s.batches)
            .field("restarts", &s.restarts)
            .field("health", &self.health())
            .finish()
    }
}

impl Server {
    /// Starts the dispatcher over `artifact` with the given batching
    /// policy and default control-plane settings (queue capacity 256,
    /// reject-new shedding, no deadline).
    pub fn start(artifact: Arc<Artifact>, policy: BatchPolicy) -> Server {
        Server::start_with(
            artifact,
            ServeOptions {
                policy,
                ..ServeOptions::default()
            },
        )
    }

    /// Starts the dispatchers with full control-plane options.
    pub fn start_with(artifact: Arc<Artifact>, opts: ServeOptions) -> Server {
        let sample_len = artifact.sample_len();
        let num_classes = artifact.manifest.num_classes;
        let workers = opts.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                open: true,
                live_dispatchers: workers,
            }),
            not_empty: Condvar::new(),
            idle: Condvar::new(),
            counters: Counters::default(),
        });
        let policy = BatchPolicy {
            max_batch: opts.policy.max_batch.max(1),
            max_wait: opts.policy.max_wait,
        };
        let handles = (0..workers)
            .map(|w| {
                let plan = opts.fault_plan.clone();
                let dispatcher_shared = Arc::clone(&shared);
                let dispatcher_artifact = Arc::clone(&artifact);
                std::thread::Builder::new()
                    .name(format!("ndsnn-infer-dispatch-{w}"))
                    .spawn(move || supervise(dispatcher_artifact, dispatcher_shared, policy, plan))
                    .expect("spawn inference dispatcher")
            })
            .collect();
        Server {
            shared,
            handles: Mutex::new(handles),
            sample_len,
            num_classes,
            queue_cap: opts.queue_cap.max(1),
            shed: opts.shed,
            default_deadline: opts.default_deadline,
            drain_timeout: opts.drain_timeout,
            workers,
        }
    }

    /// Number of dispatcher threads serving this model.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submits one flat `C·H·W` image under the server's default deadline
    /// and blocks until its reply.
    pub fn infer(&self, image: &[f32]) -> Result<InferReply> {
        self.infer_with_deadline(image, self.default_deadline)
    }

    /// Submits one image with an explicit deadline budget (overriding the
    /// server default; `None` waits indefinitely) and blocks until its
    /// reply. The deadline clock starts now: a request that cannot reach a
    /// forward pass within `deadline` is answered
    /// [`InferError::DeadlineExceeded`] instead.
    pub fn infer_with_deadline(
        &self,
        image: &[f32],
        deadline: Option<Duration>,
    ) -> Result<InferReply> {
        let counters = &self.shared.counters;
        sat_add(&counters.submitted, 1);
        if image.len() != self.sample_len {
            sat_add(&counters.bad_inputs, 1);
            return Err(InferError::BadInput(format!(
                "image length {} does not match artifact sample length {}",
                image.len(),
                self.sample_len
            )));
        }
        if let Some(i) = image.iter().position(|v| !v.is_finite()) {
            sat_add(&counters.bad_inputs, 1);
            return Err(InferError::BadInput(format!(
                "non-finite pixel {} at index {i}",
                image[i]
            )));
        }
        let now = Instant::now();
        let absolute = deadline.map(|d| now + d);
        if absolute.is_some_and(|a| a <= now) {
            sat_add(&counters.deadline_expired, 1);
            return Err(InferError::DeadlineExceeded);
        }
        let (rtx, rrx) = mpsc::sync_channel(1);
        {
            let mut st = self.shared.lock_state();
            if !st.open || st.live_dispatchers == 0 {
                sat_add(&counters.closed, 1);
                return Err(InferError::Closed);
            }
            if st.queue.len() >= self.queue_cap {
                match self.shed {
                    ShedPolicy::RejectNew => {
                        sat_add(&counters.shed, 1);
                        return Err(InferError::Overloaded);
                    }
                    ShedPolicy::DropOldest => {
                        if let Some(victim) = st.queue.pop_front() {
                            sat_add(&counters.shed, 1);
                            victim.reply(Err(InferError::Overloaded));
                        }
                    }
                }
            }
            st.queue.push_back(Request {
                image: image.to_vec(),
                enqueued: now,
                deadline: absolute,
                resp: rtx,
            });
            self.shared.not_empty.notify_one();
        }
        // Any path that drops the request (drain timeout, dispatcher
        // plumbing bug) drops `rtx`, surfacing here as a recv error — a
        // client can never hang.
        rrx.recv().unwrap_or(Err(InferError::Closed))
    }

    /// Number of logits each reply carries.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Current aggregate counters.
    pub fn stats(&self) -> ServeStats {
        let c = &self.shared.counters;
        ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            max_batch_seen: c.max_batch_seen.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
            restarts: c.restarts.load(Ordering::Relaxed),
            bad_inputs: c.bad_inputs.load(Ordering::Relaxed),
            faulted: c.faulted.load(Ordering::Relaxed),
            closed: c.closed.load(Ordering::Relaxed),
        }
    }

    /// Coarse health: `Draining` once shutdown begins, `Degraded` after
    /// any executor rebuild, `Healthy` otherwise.
    pub fn health(&self) -> HealthState {
        let open = self.shared.lock_state().open;
        if !open {
            return HealthState::Draining;
        }
        match self.shared.counters.restarts.load(Ordering::Relaxed) {
            0 => HealthState::Healthy,
            restarts => HealthState::Degraded { restarts },
        }
    }

    /// Closes admission, drains within the configured drain timeout and
    /// joins the dispatcher. Idempotent; subsequent [`Server::infer`]
    /// calls return [`InferError::Closed`].
    pub fn shutdown(&self) {
        self.shutdown_within(self.drain_timeout);
    }

    /// [`Server::shutdown`] with an explicit drain budget. Queued requests
    /// still unanswered when the budget expires are failed with
    /// [`InferError::Closed`]; the in-flight batch always completes.
    pub fn shutdown_within(&self, timeout: Duration) {
        let drain_deadline = Instant::now() + timeout;
        {
            let mut st = self.shared.lock_state();
            st.open = false;
            self.shared.not_empty.notify_all();
            while st.live_dispatchers > 0 {
                let now = Instant::now();
                if now >= drain_deadline {
                    let dropped = st.queue.len() as u64;
                    for req in st.queue.drain(..) {
                        req.reply(Err(InferError::Closed));
                    }
                    sat_add(&self.shared.counters.closed, dropped);
                    self.shared.not_empty.notify_all();
                    break;
                }
                let (guard, _) = self
                    .shared
                    .idle
                    .wait_timeout(st, drain_deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                st = guard;
            }
        }
        let handles = std::mem::take(&mut *self.handles.lock().expect("server handle mutex"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Why the inner dispatch loop returned to the supervisor.
enum LoopExit {
    /// Admission closed and the queue is empty — clean shutdown.
    Drained,
    /// The in-flight batch panicked (its waiters already got
    /// `ExecutorFault`); the executor must be rebuilt.
    Fault,
}

/// Supervision loop: owns one dispatcher's executor lifecycle. A faulted
/// (or, as a backstop, panicked) dispatch loop costs one restart counter
/// tick and a fresh `Executor` from the immutable artifact — never the
/// server, and never any sibling dispatcher.
fn supervise(
    artifact: Arc<Artifact>,
    shared: Arc<Shared>,
    policy: BatchPolicy,
    plan: ServeFaultPlan,
) {
    // Per-dispatcher batch sequence: survives restarts so `ServeFaultPlan`
    // indices stay meaningful (and deterministic) across rebuilds.
    let mut batch_seq: u64 = 0;
    loop {
        let mut exec = Executor::new(Arc::clone(&artifact));
        let exit = catch_unwind(AssertUnwindSafe(|| {
            dispatch_loop(&mut exec, &shared, policy, &plan, &mut batch_seq)
        }));
        match exit {
            Ok(LoopExit::Drained) => break,
            Ok(LoopExit::Fault) | Err(_) => {
                sat_add(&shared.counters.restarts, 1);
            }
        }
    }
    let mut st = shared.lock_state();
    st.live_dispatchers -= 1;
    shared.idle.notify_all();
}

fn dispatch_loop(
    exec: &mut Executor,
    shared: &Shared,
    policy: BatchPolicy,
    plan: &ServeFaultPlan,
    batch_seq: &mut u64,
) -> LoopExit {
    loop {
        // Phase 1: block for the first live request of the next batch,
        // answering any expired ones on the way.
        let first = {
            let mut st = shared.lock_state();
            loop {
                expire_queued(&mut st, shared);
                if let Some(req) = st.queue.pop_front() {
                    break req;
                }
                if !st.open {
                    return LoopExit::Drained;
                }
                st = shared.not_empty.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };
        // Phase 2: fill up to max_batch, but never hold the oldest request
        // past max_wait.
        let mut batch = vec![first];
        let flush_at = batch[0].enqueued + policy.max_wait;
        while batch.len() < policy.max_batch {
            let now = Instant::now();
            if now >= flush_at {
                break;
            }
            let mut st = shared.lock_state();
            expire_queued(&mut st, shared);
            if let Some(req) = st.queue.pop_front() {
                drop(st);
                batch.push(req);
                continue;
            }
            if !st.open {
                break; // no further arrivals possible; flush what we have
            }
            let (guard, timed_out) = shared
                .not_empty
                .wait_timeout(st, flush_at - now)
                .unwrap_or_else(|p| p.into_inner());
            drop(guard);
            if timed_out.timed_out() {
                break;
            }
        }
        // Phase 3: final deadline re-check right before committing a
        // forward pass — the queue wait may have consumed a budget.
        let now = Instant::now();
        let mut live = Vec::with_capacity(batch.len());
        for req in batch {
            if req.expired(now) {
                sat_add(&shared.counters.deadline_expired, 1);
                req.reply(Err(InferError::DeadlineExceeded));
            } else {
                live.push(req);
            }
        }
        if live.is_empty() {
            continue;
        }
        // Phase 4: fault injection, then the forward pass.
        let seq = *batch_seq;
        *batch_seq += 1;
        if let Some(stall) = plan.slow_at(seq) {
            std::thread::sleep(stall);
        }
        if let Err(()) = run_batch(exec, live, shared, plan.panics_at(seq), seq) {
            return LoopExit::Fault;
        }
    }
}

/// Replies `DeadlineExceeded` to every expired request in the queue.
fn expire_queued(st: &mut QueueState, shared: &Shared) {
    let now = Instant::now();
    let mut i = 0;
    while i < st.queue.len() {
        if st.queue[i].expired(now) {
            let req = st.queue.remove(i).expect("index in bounds");
            sat_add(&shared.counters.deadline_expired, 1);
            req.reply(Err(InferError::DeadlineExceeded));
        } else {
            i += 1;
        }
    }
}

/// Runs one batch. `Err(())` means the forward pass panicked: every waiter
/// already received `ExecutorFault`, and the caller must hand control back
/// to the supervisor so the executor is rebuilt.
fn run_batch(
    exec: &mut Executor,
    batch: Vec<Request>,
    shared: &Shared,
    inject_panic: bool,
    seq: u64,
) -> std::result::Result<(), ()> {
    let n = batch.len();
    let m = &exec.artifact().manifest;
    let (c, hw, k) = (m.in_channels, m.image_size, m.num_classes);
    let mut flat = Vec::with_capacity(n * c * hw * hw);
    for req in &batch {
        flat.extend_from_slice(&req.image);
    }
    let counters = &shared.counters;
    sat_add(&counters.batches, 1);
    counters
        .max_batch_seen
        .fetch_max(n as u64, Ordering::Relaxed);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected executor fault at batch {seq}");
        }
        Tensor::from_vec(vec![n, c, hw, hw], flat)
            .map_err(InferError::from)
            .and_then(|images| exec.forward(&images))
    }));
    match outcome {
        Ok(Ok(logits)) => {
            sat_add(&counters.requests, n as u64);
            let data = logits.as_slice();
            for (i, req) in batch.into_iter().enumerate() {
                let row = data[i * k..(i + 1) * k].to_vec();
                let argmax = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map_or(0, |(j, _)| j);
                let latency = req.enqueued.elapsed();
                req.reply(Ok(InferReply {
                    argmax,
                    latency,
                    batch_size: n,
                    logits: row,
                }));
            }
            Ok(())
        }
        Ok(Err(e)) => {
            // A typed executor error fails the batch without a rebuild;
            // its requests count as faulted so the accounting identity
            // covers every reply path.
            let msg = e.to_string();
            sat_add(&counters.faulted, n as u64);
            for req in batch {
                req.reply(Err(InferError::Exec(msg.clone())));
            }
            Ok(())
        }
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            sat_add(&counters.faulted, n as u64);
            for req in batch {
                req.reply(Err(InferError::ExecutorFault(msg.clone())));
            }
            Err(())
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "executor panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Manifest, Op, WeightStore};

    /// 1×2×2 input, flatten, linear to 2 classes.
    fn toy_artifact() -> Arc<Artifact> {
        let w = Tensor::from_vec([2, 4], vec![1.0, -1.0, 0.5, 0.0, -0.5, 2.0, 0.0, 1.0]).unwrap();
        Arc::new(Artifact {
            manifest: Manifest {
                arch: "toy".to_string(),
                timesteps: 2,
                in_channels: 1,
                image_size: 2,
                num_classes: 2,
                mask_digest: 0,
                config_json: "{}".to_string(),
                densities: vec![],
            },
            ops: vec![
                Op::Flatten {
                    name: "f".to_string(),
                },
                Op::Lif {
                    name: "lif".to_string(),
                    alpha: 0.5,
                    v_threshold: 0.5,
                    hard_reset: false,
                },
                Op::Linear {
                    name: "fc".to_string(),
                    out_features: 2,
                    in_features: 4,
                    weight: WeightStore::Dense(w),
                    bias: Some(Tensor::from_slice(&[0.25, -0.25])),
                },
            ],
        })
    }

    /// Options with a tiny queue and a fault plan that stalls batch 0, so
    /// tests can deterministically pile requests up behind an in-flight
    /// batch.
    fn stall_first_batch(queue_cap: usize, shed: ShedPolicy) -> ServeOptions {
        ServeOptions {
            policy: BatchPolicy {
                max_batch: 1,
                max_wait: Duration::from_micros(0),
            },
            queue_cap,
            shed,
            fault_plan: ServeFaultPlan {
                panic_at_batches: vec![],
                slow_batches: vec![(0, Duration::from_millis(300))],
            },
            ..ServeOptions::default()
        }
    }

    #[test]
    fn serves_single_requests() {
        let server = Server::start(
            toy_artifact(),
            BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_micros(0),
            },
        );
        assert_eq!(server.health(), HealthState::Healthy);
        let reply = server.infer(&[1.0, 0.0, 0.5, 0.25]).unwrap();
        assert_eq!(reply.logits.len(), 2);
        assert!(reply.argmax < 2);
        assert!(reply.batch_size >= 1);
        let stats = server.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.restarts, 0);
        server.shutdown();
        assert_eq!(server.health(), HealthState::Draining);
        assert!(matches!(
            server.infer(&[0.0; 4]).unwrap_err(),
            InferError::Closed
        ));
    }

    #[test]
    fn wrong_sample_length_is_rejected() {
        let server = Server::start(toy_artifact(), BatchPolicy::default());
        assert!(matches!(
            server.infer(&[0.0; 3]).unwrap_err(),
            InferError::BadInput(_)
        ));
        assert_eq!(server.stats().bad_inputs, 1);
    }

    #[test]
    fn non_finite_input_is_rejected() {
        let server = Server::start(toy_artifact(), BatchPolicy::default());
        assert!(matches!(
            server.infer(&[0.0, f32::NAN, 0.0, 0.0]).unwrap_err(),
            InferError::BadInput(_)
        ));
        assert!(matches!(
            server.infer(&[f32::INFINITY, 0.0, 0.0, 0.0]).unwrap_err(),
            InferError::BadInput(_)
        ));
        assert_eq!(server.stats().bad_inputs, 2);
        // A finite image still serves fine afterwards.
        assert!(server.infer(&[0.5; 4]).is_ok());
    }

    #[test]
    fn batching_is_bitwise_neutral() {
        // The same image answered alone and inside a coalesced batch must
        // produce identical bits.
        let art = toy_artifact();
        let image = [0.75, -0.5, 1.0, 0.25];
        let solo = {
            let server = Server::start(
                Arc::clone(&art),
                BatchPolicy {
                    max_batch: 1,
                    max_wait: Duration::from_micros(0),
                },
            );
            server.infer(&image).unwrap()
        };
        let batched = {
            let server = Server::start(
                Arc::clone(&art),
                BatchPolicy {
                    max_batch: 8,
                    max_wait: Duration::from_millis(50),
                },
            );
            let server = Arc::new(server);
            let mut handles = Vec::new();
            for i in 0..6 {
                let s = Arc::clone(&server);
                let img = if i == 0 {
                    image.to_vec()
                } else {
                    vec![i as f32 * 0.1; 4]
                };
                handles.push(std::thread::spawn(move || s.infer(&img).unwrap()));
            }
            let replies: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(
                server.stats().max_batch_seen >= 2,
                "expected at least one coalesced batch, stats {:?}",
                server.stats()
            );
            replies.into_iter().next().unwrap()
        };
        assert_eq!(solo.logits.len(), batched.logits.len());
        for (a, b) in solo.logits.iter().zip(&batched.logits) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn max_batch_caps_coalescing() {
        let server = Arc::new(Server::start(
            toy_artifact(),
            BatchPolicy {
                max_batch: 2,
                max_wait: Duration::from_millis(50),
            },
        ));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&server);
            handles.push(std::thread::spawn(move || s.infer(&[0.5; 4]).unwrap()));
        }
        for h in handles {
            let reply = h.join().unwrap();
            assert!(reply.batch_size <= 2, "batch {} > cap", reply.batch_size);
        }
        assert_eq!(server.stats().requests, 4);
    }

    #[test]
    fn shed_policy_parses() {
        assert_eq!(ShedPolicy::parse("reject-new"), Some(ShedPolicy::RejectNew));
        assert_eq!(ShedPolicy::parse(" REJECT "), Some(ShedPolicy::RejectNew));
        assert_eq!(
            ShedPolicy::parse("drop-oldest"),
            Some(ShedPolicy::DropOldest)
        );
        assert_eq!(ShedPolicy::parse("Oldest"), Some(ShedPolicy::DropOldest));
        assert_eq!(ShedPolicy::parse("lifo"), None);
    }

    #[test]
    fn seeded_fault_plan_is_deterministic() {
        let a = ServeFaultPlan::seeded(42, 100, 3, 2, Duration::from_millis(5));
        let b = ServeFaultPlan::seeded(42, 100, 3, 2, Duration::from_millis(5));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.panic_at_batches.iter().all(|&i| i < 100));
        let c = ServeFaultPlan::seeded(43, 100, 3, 2, Duration::from_millis(5));
        assert_ne!(
            a, c,
            "different seeds should (here) place faults differently"
        );
        assert!(ServeFaultPlan::default().is_empty());
    }

    #[test]
    fn full_queue_rejects_new_requests() {
        // Batch 0 stalls 300 ms with request A in flight; B fills the
        // 1-slot queue; C must be shed synchronously.
        let server = Arc::new(Server::start_with(
            toy_artifact(),
            stall_first_batch(1, ShedPolicy::RejectNew),
        ));
        let a = {
            let s = Arc::clone(&server);
            std::thread::spawn(move || s.infer(&[0.1; 4]))
        };
        std::thread::sleep(Duration::from_millis(50)); // A now in flight
        let b = {
            let s = Arc::clone(&server);
            std::thread::spawn(move || s.infer(&[0.2; 4]))
        };
        std::thread::sleep(Duration::from_millis(50)); // B now queued
        assert!(matches!(
            server.infer(&[0.3; 4]).unwrap_err(),
            InferError::Overloaded
        ));
        assert!(a.join().unwrap().is_ok());
        assert!(b.join().unwrap().is_ok());
        let stats = server.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn full_queue_drops_oldest_when_configured() {
        let server = Arc::new(Server::start_with(
            toy_artifact(),
            stall_first_batch(1, ShedPolicy::DropOldest),
        ));
        let a = {
            let s = Arc::clone(&server);
            std::thread::spawn(move || s.infer(&[0.1; 4]))
        };
        std::thread::sleep(Duration::from_millis(50)); // A in flight
        let b = {
            let s = Arc::clone(&server);
            std::thread::spawn(move || s.infer(&[0.2; 4]))
        };
        std::thread::sleep(Duration::from_millis(50)); // B queued (queue full)
        let c = server.infer(&[0.3; 4]); // displaces B
        assert!(matches!(
            b.join().unwrap().unwrap_err(),
            InferError::Overloaded
        ));
        assert!(a.join().unwrap().is_ok());
        assert!(c.is_ok());
        assert_eq!(server.stats().shed, 1);
    }

    #[test]
    fn deadlines_expire_without_a_forward_pass() {
        // Zero budget expires at admission.
        let server =
            Server::start_with(toy_artifact(), stall_first_batch(8, ShedPolicy::RejectNew));
        assert!(matches!(
            server
                .infer_with_deadline(&[0.5; 4], Some(Duration::ZERO))
                .unwrap_err(),
            InferError::DeadlineExceeded
        ));
        // A short budget expires while queued behind the stalled batch.
        let server = Arc::new(server);
        let a = {
            let s = Arc::clone(&server);
            std::thread::spawn(move || s.infer(&[0.1; 4]))
        };
        std::thread::sleep(Duration::from_millis(50)); // A in flight (stalled)
        let err = server
            .infer_with_deadline(&[0.2; 4], Some(Duration::from_millis(30)))
            .unwrap_err();
        assert!(matches!(err, InferError::DeadlineExceeded), "{err}");
        assert!(a.join().unwrap().is_ok());
        let stats = server.stats();
        assert_eq!(stats.deadline_expired, 2);
        assert_eq!(stats.batches, 1, "no forward pass for expired requests");
    }

    #[test]
    fn panic_restarts_executor_and_recovers() {
        let image = [0.75, -0.5, 1.0, 0.25];
        let clean = {
            let server = Server::start(toy_artifact(), BatchPolicy::default());
            server.infer(&image).unwrap()
        };
        let server = Server::start_with(
            toy_artifact(),
            ServeOptions {
                fault_plan: ServeFaultPlan {
                    panic_at_batches: vec![0],
                    slow_batches: vec![],
                },
                ..ServeOptions::default()
            },
        );
        let err = server.infer(&image).unwrap_err();
        let faulted_at = Instant::now();
        assert!(matches!(err, InferError::ExecutorFault(_)), "{err}");
        assert!(err.to_string().contains("injected executor fault"));
        // The server recovered: same request now succeeds with the exact
        // same bits a never-faulted server produces, within the 1 s
        // recovery bound (fault reply to next successful reply).
        let reply = server.infer(&image).unwrap();
        let recovery = faulted_at.elapsed();
        assert!(
            recovery < Duration::from_secs(1),
            "recovery took {recovery:?}"
        );
        for (a, b) in clean.logits.iter().zip(&reply.logits) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let stats = server.stats();
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.faulted, 1);
        assert_eq!(server.health(), HealthState::Degraded { restarts: 1 });
    }

    #[test]
    fn sat_add_sticks_at_the_ceiling() {
        let c = AtomicU64::new(u64::MAX - 1);
        sat_add(&c, 1);
        assert_eq!(c.load(Ordering::Relaxed), u64::MAX);
        sat_add(&c, 5);
        assert_eq!(c.load(Ordering::Relaxed), u64::MAX, "must not wrap");
        let fresh = AtomicU64::new(3);
        sat_add(&fresh, 4);
        assert_eq!(fresh.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn stats_resolved_and_identity() {
        let mut s = ServeStats {
            submitted: 10,
            requests: 4,
            shed: 2,
            deadline_expired: 1,
            faulted: 1,
            bad_inputs: 1,
            closed: 1,
            ..ServeStats::default()
        };
        assert_eq!(s.resolved(), 10);
        assert!(s.accounting_identity().is_ok());
        s.submitted = 11; // one in flight
        let err = s.accounting_identity().unwrap_err();
        assert!(err.contains("submitted 11"), "{err}");
        // Saturating resolved: counters pinned at the ceiling don't wrap.
        let pinned = ServeStats {
            submitted: u64::MAX,
            requests: u64::MAX,
            shed: 1,
            ..ServeStats::default()
        };
        assert_eq!(pinned.resolved(), u64::MAX);
        assert!(pinned.accounting_identity().is_ok());
    }

    #[test]
    fn stats_merge_is_saturating_and_takes_batch_max() {
        let a = ServeStats {
            submitted: u64::MAX - 1,
            requests: 3,
            max_batch_seen: 4,
            ..ServeStats::default()
        };
        let b = ServeStats {
            submitted: 5,
            requests: 2,
            max_batch_seen: 9,
            ..ServeStats::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.submitted, u64::MAX);
        assert_eq!(m.requests, 5);
        assert_eq!(m.max_batch_seen, 9);
    }

    #[test]
    fn multi_worker_server_answers_everything_bit_identically() {
        let art = toy_artifact();
        // Single-worker unbatched reference bits.
        let reference: Vec<Vec<u32>> = {
            let server = Server::start(
                Arc::clone(&art),
                BatchPolicy {
                    max_batch: 1,
                    max_wait: Duration::from_micros(0),
                },
            );
            (0..24)
                .map(|g| {
                    let reply = server.infer(&[g as f32 * 0.1, 0.2, -0.3, 0.4]).unwrap();
                    reply.logits.iter().map(|v| v.to_bits()).collect()
                })
                .collect()
        };
        let server = Arc::new(Server::start_with(
            Arc::clone(&art),
            ServeOptions {
                policy: BatchPolicy {
                    max_batch: 4,
                    max_wait: Duration::from_micros(100),
                },
                workers: 3,
                ..ServeOptions::default()
            },
        ));
        assert_eq!(server.workers(), 3);
        let mut handles = Vec::new();
        for g in 0..24 {
            let s = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                (g, s.infer(&[g as f32 * 0.1, 0.2, -0.3, 0.4]).unwrap())
            }));
        }
        for h in handles {
            let (g, reply) = h.join().unwrap();
            let bits: Vec<u32> = reply.logits.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, reference[g], "worker identity broke request {g}");
        }
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.requests, 24);
        assert_eq!(stats.submitted, 24);
        assert_eq!(stats.shed, 0, "24 clients never fill the queue");
        stats.accounting_identity().expect("quiescent identity");
    }

    #[test]
    fn closed_requests_are_counted() {
        let server = Server::start(toy_artifact(), BatchPolicy::default());
        server.infer(&[0.5; 4]).unwrap();
        server.shutdown();
        assert!(matches!(
            server.infer(&[0.5; 4]).unwrap_err(),
            InferError::Closed
        ));
        let stats = server.stats();
        assert_eq!(stats.closed, 1);
        assert_eq!(stats.submitted, 2);
        stats
            .accounting_identity()
            .expect("closed is a typed outcome");
    }

    #[test]
    fn drain_timeout_fails_queued_requests() {
        let server = Arc::new(Server::start_with(
            toy_artifact(),
            stall_first_batch(8, ShedPolicy::RejectNew),
        ));
        let a = {
            let s = Arc::clone(&server);
            std::thread::spawn(move || s.infer(&[0.1; 4]))
        };
        std::thread::sleep(Duration::from_millis(50)); // A in flight (stalled 300 ms)
        let b = {
            let s = Arc::clone(&server);
            std::thread::spawn(move || s.infer(&[0.2; 4]))
        };
        std::thread::sleep(Duration::from_millis(50)); // B queued
        server.shutdown_within(Duration::from_millis(1));
        // The in-flight batch completed; the queued request was failed.
        assert!(a.join().unwrap().is_ok());
        assert!(matches!(b.join().unwrap().unwrap_err(), InferError::Closed));
    }
}
