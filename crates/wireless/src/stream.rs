//! Epoch-pipelined streaming ingestion: interleaved `(group, event)`
//! streams served over the shared substrate, byte-identical to batch
//! replay. Its group table and worker pool also serve every
//! [`MulticastService`] step, sealing each batch as one epoch.
//!
//! [`crate::service::MulticastService`] ingests pre-materialized batches
//! with strictly ascending group ids; production multicast traffic
//! arrives as an *interleaved* event stream with bursty per-group
//! membership dynamics (the regime of the outage/capacity line of work —
//! see PAPERS.md). A [`StreamService`] closes the gap without giving up
//! the byte-identity discipline:
//!
//! * producers push `(group, ChurnEvent)` through a [`StreamHandle`]
//!   into **bounded** per-group queues (capacity
//!   [`StreamConfig::capacity`], never more);
//! * an **epoch sealer** deterministically cuts each group's stream into
//!   epochs by an event-count watermark ([`StreamConfig::watermark`]) —
//!   never by wall clock — and hands sealed epochs to a crossbeam worker
//!   pool;
//! * each epoch is absorbed by the group's warm [`GroupSession`] exactly
//!   as [`MulticastService`] would absorb the same events as one batch,
//!   and the outcome is placed in a per-epoch `OnceLock` slot (the
//!   sanctioned slot pattern — scheduling order can never reach a float).
//!
//! # Determinism contract
//!
//! A group's epoch boundaries depend only on the *per-group submission
//! order* and the config — counts, not clocks — so the epoch sequence of
//! every group equals [`epoch_plan`] applied to that group's event
//! subsequence. Each group's epochs execute in order (pipeline depth 1
//! per group, enforced by the sealer), on exactly one worker at a time,
//! over warm state only that group owns. The stream outcome is therefore
//! **byte-identical** to replaying the plan's chunks through a
//! single-threaded `MulticastService::step` (`with_threads(1)` stays the
//! pinned reference), for every worker count and queue capacity —
//! experiment T14 and `tests/stream_props.rs` gate exactly this.
//!
//! # Admission control and backpressure
//!
//! A submission that finds its group's queue at capacity is **rejected**
//! with a deterministic [`Admission::Busy`] carrying the observed depth —
//! and the rejection *saturation-seals* the backlog as a partial epoch,
//! so the immediate retry is guaranteed to be admitted (progress under
//! backpressure, no unbounded buffering anywhere: pending events are
//! bounded by `capacity` per group and at most one epoch per group is
//! ever queued or running). Rejections and retries are counted per group
//! in the [`StreamReport`]. When `capacity < watermark` every seal is a
//! saturation seal; the effective epoch size is always
//! [`StreamConfig::epoch_size`]. An event failing [`validate_event`] is
//! refused with [`Admission::Invalid`] and counted in its group's
//! [`GroupStreamReport::invalid`]. A panicking worker fails the
//! service on unwind, so the next seal panics instead of waiting forever.
//!
//! # Latency
//!
//! Time is a **virtual clock**: one tick per submission attempt, no
//! `Instant`/`SystemTime` anywhere near an outcome. Each accepted event
//! records `seal_tick − submit_tick` under its event class, and each
//! epoch records a `reprice` sample (seal tick minus the epoch's first
//! submission tick) — the exact-percentile harness in
//! `wmcs-bench::latency` consumes these via [`StreamLatencies`].

use crate::service::{
    validate_event, GroupMechanism, GroupSession, InvalidEvent, MulticastService,
};
use crate::universal::UniversalTree;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use wmcs_game::MechanismOutcome;
use wmcs_geom::churn::ChurnEvent;

/// Shape of a streaming run: seal watermark, queue bound, worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Seal a group's pending events as an epoch once this many are
    /// queued (count-based — never wall clock).
    pub watermark: usize,
    /// Bounded per-group queue capacity; a submission beyond it is
    /// rejected with [`Admission::Busy`] (and saturation-seals the
    /// backlog).
    pub capacity: usize,
    /// Worker threads servicing sealed epochs (≥ 1). Outcomes are
    /// byte-identical for every value — see the module docs.
    pub threads: usize,
}

impl StreamConfig {
    /// A config with the given watermark, capacity and worker count.
    pub fn new(watermark: usize, capacity: usize, threads: usize) -> Self {
        assert!(
            watermark >= 1,
            "the seal watermark must be at least one event"
        );
        assert!(
            capacity >= 1,
            "a bounded queue needs room for at least one event"
        );
        assert!(threads >= 1, "the epoch pool needs at least one worker");
        Self {
            watermark,
            capacity,
            threads,
        }
    }

    /// The effective epoch size: `min(watermark, capacity)`. With
    /// `capacity ≥ watermark` every full epoch is a watermark seal; with
    /// `capacity < watermark` every full epoch is a saturation seal of
    /// exactly `capacity` events.
    pub fn epoch_size(&self) -> usize {
        self.watermark.min(self.capacity)
    }
}

/// The deterministic admission verdict of one submission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The event was queued.
    Accepted {
        /// The addressed group.
        group: usize,
        /// Queue depth after the submission (before any seal it
        /// triggered).
        depth: usize,
        /// `Some(epoch)` when this submission reached the watermark and
        /// sealed epoch number `epoch`.
        sealed: Option<u64>,
    },
    /// The group's queue was at capacity; the event was **not** queued.
    /// The rejection saturation-seals the backlog, so an immediate retry
    /// is admitted.
    Busy {
        /// The addressed group.
        group: usize,
        /// The queue depth observed (always the configured capacity).
        depth: usize,
    },
    /// The event failed [`validate_event`]; it was **not** queued, is not
    /// counted as accepted, and no retry can admit it.
    Invalid {
        /// The addressed group.
        group: usize,
        /// Why the event was refused.
        reason: InvalidEvent,
    },
}

/// One completed epoch: the group's mechanism outcome after absorbing
/// the epoch's events, exactly as a batch `step` would produce it.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutcome {
    /// The group the epoch belongs to.
    pub group: usize,
    /// Epoch number within the group (dense from 0, seal order).
    pub epoch: u64,
    /// Events absorbed by this epoch.
    pub n_events: usize,
    /// The mechanism outcome on the group's receiver set after the
    /// epoch.
    pub outcome: MechanismOutcome,
}

/// Virtual-clock latency samples, one vector per event class.
///
/// Join/leave/rebid samples are `seal_tick − submit_tick` of each
/// accepted event; `reprice` samples are per-epoch residence times
/// (seal tick minus the epoch's first submission tick). Ticks count
/// submission attempts — wall clock never appears.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamLatencies {
    /// Queueing delays of accepted `Join` events.
    pub join: Vec<u64>,
    /// Queueing delays of accepted `Leave` events.
    pub leave: Vec<u64>,
    /// Queueing delays of accepted `Rebid` events.
    pub rebid: Vec<u64>,
    /// Per-epoch residence times (one sample per sealed epoch).
    pub reprice: Vec<u64>,
}

impl StreamLatencies {
    /// File `delay` under `event`'s class.
    pub fn record(&mut self, event: &ChurnEvent, delay: u64) {
        match event {
            ChurnEvent::Join { .. } => self.join.push(delay),
            ChurnEvent::Leave { .. } => self.leave.push(delay),
            ChurnEvent::Rebid { .. } => self.rebid.push(delay),
        }
    }

    /// Append all of `other`'s samples (class by class, in order).
    pub fn extend(&mut self, other: &StreamLatencies) {
        self.join.extend_from_slice(&other.join);
        self.leave.extend_from_slice(&other.leave);
        self.rebid.extend_from_slice(&other.rebid);
        self.reprice.extend_from_slice(&other.reprice);
    }

    /// Total samples across all four classes.
    pub fn n_samples(&self) -> usize {
        self.join.len() + self.leave.len() + self.rebid.len() + self.reprice.len()
    }
}

/// One group's slice of a [`StreamReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStreamReport {
    /// The group id.
    pub group: usize,
    /// The mechanism the group is priced with.
    pub mechanism: GroupMechanism,
    /// Events admitted into the group's queue.
    pub accepted: u64,
    /// Submissions rejected with [`Admission::Busy`].
    pub rejected: u64,
    /// Submissions refused with [`Admission::Invalid`].
    pub invalid: u64,
    /// Successful re-submissions after a `Busy` (as counted by
    /// [`StreamHandle::submit_blocking`]).
    pub retries: u64,
    /// Virtual-clock latency samples for this group.
    pub latencies: StreamLatencies,
    /// Completed epochs, in seal order (dense epoch numbers from 0).
    pub epochs: Vec<EpochOutcome>,
}

/// The outcome of one [`StreamService::drive`]: per-group epochs,
/// admission accounting and latency samples.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Per-group reports, in group-id order.
    pub groups: Vec<GroupStreamReport>,
}

impl StreamReport {
    /// Events admitted across all groups.
    pub fn n_accepted(&self) -> u64 {
        self.groups.iter().map(|g| g.accepted).sum()
    }

    /// Submissions rejected across all groups.
    pub fn n_rejected(&self) -> u64 {
        self.groups.iter().map(|g| g.rejected).sum()
    }

    /// Submissions refused as invalid across all groups.
    pub fn n_invalid(&self) -> u64 {
        self.groups.iter().map(|g| g.invalid).sum()
    }

    /// Successful post-`Busy` re-submissions across all groups.
    pub fn n_retries(&self) -> u64 {
        self.groups.iter().map(|g| g.retries).sum()
    }

    /// Completed epochs across all groups.
    pub fn n_epochs(&self) -> usize {
        self.groups.iter().map(|g| g.epochs.len()).sum()
    }

    /// All latency samples merged in group-id order (class by class) —
    /// the input shape of the `wmcs-bench::latency` percentile harness.
    pub fn latencies(&self) -> StreamLatencies {
        let mut merged = StreamLatencies::default();
        for g in &self.groups {
            merged.extend(&g.latencies);
        }
        merged
    }
}

/// The pure reference plan: how a group's event subsequence is cut into
/// epochs. Chunks of [`StreamConfig::epoch_size`] plus a trailing
/// partial — the streaming layer's epoch sequence equals this plan for
/// every worker count (the byte-identity gate replays these chunks
/// through a single-threaded [`MulticastService::step`]).
pub fn epoch_plan(events: &[ChurnEvent], config: &StreamConfig) -> Vec<Vec<ChurnEvent>> {
    events
        .chunks(config.epoch_size())
        .map(<[ChurnEvent]>::to_vec)
        .collect()
}

/// The outcome placed in an epoch's slot, taken once the pool has joined
/// (every slot passed here belongs to a sealed epoch).
fn completed(slot: Option<Arc<OnceLock<EpochOutcome>>>) -> EpochOutcome {
    let done = slot
        .and_then(Arc::into_inner)
        .and_then(OnceLock::into_inner);
    done.expect("every sealed epoch completed")
}

/// One group's pending queue and stream accounting (behind the group's
/// queue mutex; mutated only by the producer side and the in-flight
/// flag handshake).
#[derive(Debug, Default)]
struct GroupQueue {
    /// Admitted events waiting to be sealed, with their submission
    /// ticks. Never longer than the configured capacity.
    pending: Vec<(ChurnEvent, u64)>,
    /// Whether a sealed epoch of this group is queued or running —
    /// pipeline depth 1 per group, the in-order execution guarantee.
    in_flight: bool,
    /// Whether a sealer waits on `idle` (only then is a wake-up needed).
    awaited: bool,
    /// Events admitted.
    accepted: u64,
    /// Submissions rejected with `Busy`.
    rejected: u64,
    /// Submissions refused as `Invalid`.
    invalid: u64,
    /// Successful post-`Busy` re-submissions.
    retries: u64,
    /// Per-epoch outcome slots, in seal order (the slot pattern: workers
    /// place, the post-join drain folds).
    slots: Vec<Arc<OnceLock<EpochOutcome>>>,
    /// Latency samples, recorded at seal time by the producer side.
    lat: StreamLatencies,
}

impl GroupQueue {
    /// Take the pending events sealed at `seal_tick`, recording latencies.
    fn take_pending(&mut self, seal_tick: u64) -> Vec<ChurnEvent> {
        debug_assert!(!self.pending.is_empty(), "sealing an empty epoch");
        let pending = std::mem::take(&mut self.pending);
        let first_tick = pending.first().map_or(seal_tick, |&(_, t)| t);
        self.lat.reprice.push(seal_tick.saturating_sub(first_tick));
        pending
            .into_iter()
            .map(|(ev, tick)| {
                self.lat.record(&ev, seal_tick.saturating_sub(tick));
                ev
            })
            .collect()
    }
}

/// One group's entry in the group table: bounded queue + warm session.
#[derive(Debug)]
struct GroupSlot {
    /// Pending queue and accounting.
    queue: Mutex<GroupQueue>,
    /// Signalled when the group's in-flight epoch completes (the sealer
    /// waits here for pipeline depth 1).
    idle: Condvar,
    /// The group's warm session; locked by exactly one worker at a time
    /// (in-flight ≤ 1 makes it uncontended).
    session: Mutex<GroupSession>,
}

impl GroupSlot {
    fn new(session: GroupSession) -> Self {
        Self {
            queue: Mutex::new(GroupQueue::default()),
            idle: Condvar::new(),
            session: Mutex::new(session),
        }
    }

    fn lock_queue(&self) -> MutexGuard<'_, GroupQueue> {
        self.queue
            .lock()
            .expect("a group queue mutex is never poisoned")
    }
}

/// A sealed epoch handed to the worker pool.
#[derive(Debug)]
struct Epoch {
    group: usize,
    epoch: u64,
    events: Vec<ChurnEvent>,
    slot: Arc<OnceLock<EpochOutcome>>,
}

/// The shared task queue (bounded by construction: at most one epoch
/// per group, pipeline depth 1).
#[derive(Debug, Default)]
struct TaskState {
    queue: VecDeque<Epoch>,
    shutdown: bool,
    /// Workers waiting on the task condvar: only they need a wake-up.
    idle: usize,
}

/// Epoch-pipelined streaming ingestion over one shared substrate — see
/// the module docs for the determinism and backpressure contracts.
///
/// Cloning copies every group's warm session (`O(Σ |frame_g|)`) but
/// shares the substrate and starts with fresh, empty stream accounting —
/// the `stream_throughput` bench clones a warmed service inside its
/// timers to replay identical steady states.
#[derive(Debug)]
pub struct StreamService {
    ut: UniversalTree,
    pub(crate) config: StreamConfig,
    groups: Vec<GroupSlot>,
    tasks: Mutex<TaskState>,
    task_cv: Condvar,
    /// Set once an epoch worker panics: later seals panic, never wait.
    failed: AtomicBool,
    /// The virtual clock: one tick per submission attempt.
    clock: AtomicU64,
}

impl Clone for StreamService {
    fn clone(&self) -> Self {
        let mut twin = Self::new(&self.ut, self.config);
        for slot in &self.groups {
            // A panicked worker poisons its group's mutex; the state
            // itself is a plain session snapshot, so recover it rather
            // than fabricating a second panic site.
            let session = slot.session.lock().unwrap_or_else(PoisonError::into_inner);
            twin.groups.push(GroupSlot::new(session.clone()));
        }
        twin
    }
}

/// Sets the worker shutdown flag on drop, so a panicking producer can
/// never leave the pool waiting on the task condvar forever (the scope
/// join would then deadlock). Workers drain the queued epochs before
/// honoring shutdown, so the normal-path flush still completes.
struct ShutdownGuard<'a>(&'a StreamService);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        let mut tasks = self.0.tasks.lock().unwrap_or_else(PoisonError::into_inner);
        tasks.shutdown = true;
        drop(tasks);
        self.0.task_cv.notify_all();
    }
}

/// Marks a worker's epoch complete on drop; on unwind, fails the service.
struct EpochDone<'a>(&'a StreamService, usize);

impl Drop for EpochDone<'_> {
    fn drop(&mut self) {
        let (svc, panicked) = (self.0, std::thread::panicking());
        svc.failed.fetch_or(panicked, Ordering::SeqCst);
        // Taking each lock orders the wake-up after a sealer's check of
        // `failed`.
        let done = if panicked {
            &svc.groups[..]
        } else {
            std::slice::from_ref(&svc.groups[self.1])
        };
        for slot in done {
            let mut queue = slot.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.in_flight = false;
            if std::mem::take(&mut queue.awaited) {
                slot.idle.notify_all();
            }
        }
    }
}

impl StreamService {
    /// An empty streaming service over the shared substrate of `ut` (no
    /// groups yet). The handle is cloned (`O(1)`), never the substrate.
    pub fn new(ut: &UniversalTree, config: StreamConfig) -> Self {
        Self {
            ut: ut.clone(),
            config,
            groups: Vec::new(),
            tasks: Mutex::new(TaskState::default()),
            task_cv: Condvar::new(),
            failed: AtomicBool::new(false),
            clock: AtomicU64::new(0),
        }
    }

    /// Register a new group priced with `mechanism`; returns its group
    /// id (dense, starting at 0).
    pub fn add_group(&mut self, mechanism: GroupMechanism) -> usize {
        let session = GroupSession::new(mechanism, &self.ut);
        self.groups.push(GroupSlot::new(session));
        self.groups.len() - 1
    }

    /// Number of registered groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// The mechanism group `g` is priced with.
    pub fn mechanism(&self, g: usize) -> GroupMechanism {
        self.group_session(g).mechanism()
    }

    /// The task queue.
    fn lock_tasks(&self) -> MutexGuard<'_, TaskState> {
        self.tasks
            .lock()
            .expect("the task queue mutex is never poisoned")
    }

    /// Group `g`'s warm session (uncontended outside a drive).
    pub(crate) fn group_session(&self, g: usize) -> MutexGuard<'_, GroupSession> {
        self.groups[g]
            .session
            .lock()
            .expect("a group session mutex is never poisoned")
    }

    /// The shared universal tree every group prices over.
    pub fn universal_tree(&self) -> &UniversalTree {
        &self.ut
    }

    /// The streaming configuration.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// Total warm session state across every group, in bytes (the shared
    /// substrate is excluded — it is one `Arc` for the whole service).
    /// Divide by [`Self::n_groups`] for the per-group figure the memory
    /// SLO tracks.
    pub fn memory_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|slot| {
                slot.session
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .memory_bytes()
            })
            .sum()
    }

    /// Run one streaming session: spawn the worker pool, hand the
    /// producer a [`StreamHandle`], flush the residual partial epochs
    /// when it returns, join the pool and drain the report.
    ///
    /// Sessions stay **warm** across drives (epoch numbers and the
    /// virtual clock restart; group state carries over), mirroring a
    /// `MulticastService` stepped across multiple traces. Re-raises a
    /// producer panic; panics if an epoch worker panicked.
    pub fn drive<R: Send>(
        &mut self,
        producer: impl FnOnce(&StreamHandle<'_>) -> R + Send,
    ) -> (R, StreamReport) {
        self.clock.store(0, Ordering::Relaxed);
        let handle = StreamHandle { svc: self };
        let result = self.run_pool(self.config.threads, || {
            let out = producer(&handle);
            for g in 0..handle.n_groups() {
                handle.flush(g);
            }
            out
        });
        let report = self.drain_report();
        (result, report)
    }

    /// Run `producer` beside `workers` spawned epoch workers — the one
    /// pool behind [`Self::drive`] and [`MulticastService::step`] — until
    /// every sealed epoch is done; with no worker, the calling thread runs
    /// them once `producer` returns. A panic on either side is re-raised.
    fn run_pool<R>(&self, workers: usize, producer: impl FnOnce() -> R) -> R {
        let mut tasks = self.lock_tasks();
        tasks.shutdown = false;
        debug_assert!(tasks.queue.is_empty(), "stale epochs from a previous run");
        drop(tasks);
        let work = || loop {
            // Pop the next sealed epoch; exit once drained *and* shut down.
            let mut tasks = self.lock_tasks();
            let task = loop {
                match tasks.queue.pop_front() {
                    Some(task) => break task,
                    None if tasks.shutdown => return,
                    None => {
                        tasks.idle += 1;
                        tasks = self
                            .task_cv
                            .wait(tasks)
                            .expect("the task queue mutex is never poisoned");
                        tasks.idle -= 1;
                    }
                }
            };
            drop(tasks);
            let _done = EpochDone(self, task.group);
            let outcome = self.group_session(task.group).apply_batch(&task.events);
            // The slot pattern: the outcome goes into the epoch's own
            // OnceLock; the caller folds the slots after the pool joins.
            let placed: &OnceLock<EpochOutcome> = &task.slot;
            placed
                .set(EpochOutcome {
                    group: task.group,
                    epoch: task.epoch,
                    n_events: task.events.len(),
                    outcome,
                })
                .expect("each sealed epoch is executed exactly once");
        };
        crossbeam::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| work());
            }
            // Dropped once the producer returns (or unwinds): the workers
            // drain the queued epochs, then exit.
            let shutdown = ShutdownGuard(self);
            let out = producer();
            drop(shutdown);
            if workers == 0 {
                work();
            }
            out
        })
        // Re-raise the original payload (a producer assertion, say)
        // instead of wrapping it — the shutdown guard has already
        // released the workers, so the join behind us was clean.
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    /// A [`MulticastService`] step: seal each `(group, events)` entry as
    /// one whole epoch (no admission, clock tick or latency sample), run
    /// them on the pool, return the outcomes in batch order.
    pub(crate) fn run_whole(&self, batch: &[(usize, &[ChurnEvent])]) -> Vec<MechanismOutcome> {
        // A one-thread or one-group step runs on the calling thread.
        let workers = match self.config.threads.min(batch.len()) {
            1 => 0,
            n => n,
        };
        self.run_pool(workers, || {
            for &(group, events) in batch {
                let slot = &self.groups[group];
                self.seal(group, slot, slot.lock_queue(), |_| events.to_vec());
            }
        });
        (batch.iter())
            .map(|&(group, _)| completed(self.groups[group].lock_queue().slots.pop()).outcome)
            .collect()
    }

    /// One submission attempt (see [`StreamHandle::submit`]).
    fn submit_inner(&self, group: usize, event: ChurnEvent) -> Admission {
        assert!(group < self.groups.len(), "unknown group id {group}");
        let slot = &self.groups[group];
        if let Err(reason) = validate_event(&event, self.ut.network().n_players()) {
            slot.lock_queue().invalid += 1;
            return Admission::Invalid { group, reason };
        }
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut queue = slot.lock_queue();
        if queue.pending.len() >= self.config.capacity {
            let depth = queue.pending.len();
            queue.rejected += 1;
            // Saturation seal: the overflowing submission is rejected,
            // but it forces the backlog out as a partial epoch — the
            // immediate retry is guaranteed to be admitted.
            self.seal(group, slot, queue, |q| q.take_pending(tick));
            return Admission::Busy { group, depth };
        }
        queue.pending.push((event, tick));
        queue.accepted += 1;
        let depth = queue.pending.len();
        let sealed = (depth >= self.config.watermark)
            .then(|| self.seal(group, slot, queue, |q| q.take_pending(tick)));
        Admission::Accepted {
            group,
            depth,
            sealed,
        }
    }

    /// Seal the events `take` draws from `group`'s locked queue as its
    /// next epoch once the previous one completed (pipeline depth 1), and
    /// hand it to the pool. Returns the sealed epoch number.
    fn seal(
        &self,
        group: usize,
        slot: &GroupSlot,
        queue: MutexGuard<'_, GroupQueue>,
        take: impl FnOnce(&mut GroupQueue) -> Vec<ChurnEvent>,
    ) -> u64 {
        let failed = || self.failed.load(Ordering::SeqCst);
        let mut queue = slot
            .idle
            .wait_while(queue, |queue| {
                queue.awaited = queue.in_flight && !failed();
                queue.awaited
            })
            .expect("a group queue mutex is never poisoned");
        // A panicked worker's epoch may never complete: seal no more.
        assert!(!failed(), "an epoch worker panicked");
        let events = take(&mut queue);
        let epoch = queue.slots.len() as u64;
        let placed = Arc::new(OnceLock::new());
        queue.slots.push(Arc::clone(&placed));
        queue.in_flight = true;
        // Lock order is always group queue → task queue (workers take
        // them disjointly), so this nesting cannot deadlock.
        let mut tasks = self.lock_tasks();
        tasks.queue.push_back(Epoch {
            group,
            epoch,
            events,
            slot: placed,
        });
        // Only a waiting worker needs the wake-up (a syscall).
        if tasks.idle > 0 {
            self.task_cv.notify_one();
        }
        epoch
    }

    /// Collect and reset every group's stream accounting after the pool
    /// has joined (exclusive access makes the drain single-threaded).
    fn drain_report(&mut self) -> StreamReport {
        let groups = self
            .groups
            .iter_mut()
            .enumerate()
            .map(|(g, slot)| {
                let mechanism = slot
                    .session
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner)
                    .mechanism();
                // A panicking producer may abandon admitted-but-unsealed
                // events; a fresh drive starts clean either way.
                let queue =
                    std::mem::take(slot.queue.get_mut().unwrap_or_else(PoisonError::into_inner));
                debug_assert!(!queue.in_flight, "an epoch is still in flight after join");
                GroupStreamReport {
                    group: g,
                    mechanism,
                    accepted: queue.accepted,
                    rejected: queue.rejected,
                    invalid: queue.invalid,
                    retries: queue.retries,
                    latencies: queue.lat,
                    epochs: queue.slots.into_iter().map(Some).map(completed).collect(),
                }
            })
            .collect();
        StreamReport { groups }
    }
}

/// The producer-side handle [`StreamService::drive`] passes to its
/// producer closure. `submit` takes `&self`: multiple producer threads
/// may share one handle. Outcome byte-identity is per-group submission
/// order; with a single producer the virtual-clock latency samples are
/// deterministic too.
#[derive(Debug, Clone, Copy)]
pub struct StreamHandle<'a> {
    svc: &'a StreamService,
}

impl StreamHandle<'_> {
    /// One submission attempt: admit `event` into `group`'s bounded
    /// queue, or reject it with a deterministic [`Admission::Busy`]
    /// (which saturation-seals the backlog — an immediate retry is
    /// admitted). An event that fails [`validate_event`] is refused with
    /// [`Admission::Invalid`] before it touches the queue or the clock.
    ///
    /// # Panics
    /// On an unknown group id.
    pub fn submit(&self, group: usize, event: ChurnEvent) -> Admission {
        self.svc.submit_inner(group, event)
    }

    /// Submit with retry-on-busy until admitted or refused as
    /// [`Admission::Invalid`] (never retried); returns the number of
    /// `Busy` rejections absorbed (each also counted in the group's
    /// [`GroupStreamReport::retries`] accounting). A refusal returns the
    /// same `0` as a first-try admission; it is counted in the group's
    /// [`GroupStreamReport::invalid`] instead.
    pub fn submit_blocking(&self, group: usize, event: ChurnEvent) -> u64 {
        let mut busy = 0u64;
        loop {
            match self.submit(group, event) {
                Admission::Accepted { .. } => {
                    if busy > 0 {
                        self.svc.groups[group].lock_queue().retries += busy;
                    }
                    return busy;
                }
                Admission::Busy { .. } => busy += 1,
                Admission::Invalid { .. } => return busy,
            }
        }
    }

    /// Seal `group`'s pending events as a partial epoch (no-op when the
    /// queue is empty). Returns the sealed epoch number, if any.
    /// [`StreamService::drive`] flushes every group automatically when
    /// the producer returns.
    ///
    /// # Panics
    /// On an unknown group id.
    pub fn flush(&self, group: usize) -> Option<u64> {
        assert!(group < self.svc.groups.len(), "unknown group id {group}");
        let slot = &self.svc.groups[group];
        let queue = slot.lock_queue();
        if queue.pending.is_empty() {
            return None;
        }
        let tick = self.svc.clock.load(Ordering::Relaxed);
        Some(self.svc.seal(group, slot, queue, |q| q.take_pending(tick)))
    }

    /// Number of registered groups.
    pub fn n_groups(&self) -> usize {
        self.svc.groups.len()
    }
}

/// Replay `events` through a fresh single-threaded [`MulticastService`]
/// following [`epoch_plan`] — the pinned reference the streaming layer
/// is byte-identical to. Returns one outcome per planned epoch, in
/// order, for the addressed group only.
pub fn replay_reference(
    ut: &UniversalTree,
    mechanisms: &[GroupMechanism],
    group: usize,
    events: &[ChurnEvent],
    config: &StreamConfig,
) -> Vec<MechanismOutcome> {
    let mut svc = MulticastService::new(ut).with_threads(1);
    for &m in mechanisms {
        svc.add_group(m);
    }
    epoch_plan(events, config)
        .iter()
        .map(|chunk| {
            let mut out = svc.step(&[(group, chunk)]);
            out.pop().expect("one outcome per addressed group").outcome
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_tree;
    use std::time::Duration;
    use wmcs_geom::MultiGroupProcess;

    fn stream_with_groups(ut: &UniversalTree, g: usize, config: StreamConfig) -> StreamService {
        let mut svc = StreamService::new(ut, config);
        for i in 0..g {
            svc.add_group(GroupMechanism::alternating(i));
        }
        svc
    }

    /// The interleaved stream of a multi-group trace (round-robin across
    /// groups inside each batch round) and the per-group mechanisms.
    fn workload(
        ut: &UniversalTree,
        g: usize,
        seed: u64,
    ) -> (Vec<(usize, ChurnEvent)>, Vec<GroupMechanism>) {
        let n = ut.network().n_players();
        let trace = MultiGroupProcess::new(n, g, 4, 8.0, seed).generate();
        let mechanisms = (0..g).map(GroupMechanism::alternating).collect();
        (trace.interleaved(), mechanisms)
    }

    fn per_group(stream: &[(usize, ChurnEvent)], g: usize) -> Vec<ChurnEvent> {
        stream
            .iter()
            .filter(|&&(eg, _)| eg == g)
            .map(|&(_, ev)| ev)
            .collect()
    }

    #[test]
    fn streaming_equals_single_thread_batch_replay() {
        let ut = random_tree(7, 24);
        let g = 6;
        let (stream, mechanisms) = workload(&ut, g, 3);
        for config in [StreamConfig::new(8, 64, 2), StreamConfig::new(8, 4, 3)] {
            let mut svc = stream_with_groups(&ut, g, config);
            let (_, report) = svc.drive(|h| {
                for &(group, ev) in &stream {
                    h.submit_blocking(group, ev);
                }
            });
            assert_eq!(report.n_accepted() as usize, stream.len());
            for gr in &report.groups {
                let events = per_group(&stream, gr.group);
                let reference = replay_reference(&ut, &mechanisms, gr.group, &events, &config);
                assert_eq!(gr.epochs.len(), reference.len(), "group {}", gr.group);
                for (k, (epoch, expect)) in gr.epochs.iter().zip(&reference).enumerate() {
                    assert_eq!(epoch.epoch, k as u64);
                    assert_eq!(
                        &epoch.outcome, expect,
                        "group {} epoch {k} diverges from batch replay",
                        gr.group
                    );
                }
            }
        }
    }

    #[test]
    fn busy_accounting_is_exact_under_saturation() {
        // capacity < watermark: every full epoch is a saturation seal,
        // and a group admitting m events with retry-on-busy sees exactly
        // floor((m - 1) / capacity) rejections.
        let ut = random_tree(2, 12);
        let config = StreamConfig::new(8, 4, 2);
        let mut svc = stream_with_groups(&ut, 1, config);
        let m = 9u64;
        let (_, report) = svc.drive(|h| {
            for i in 0..m {
                h.submit_blocking(
                    0,
                    ChurnEvent::Join {
                        player: (i % 11) as usize + 1,
                        utility: 1.0 + i as f64,
                    },
                );
            }
        });
        let gr = &report.groups[0];
        assert_eq!(gr.accepted, m);
        assert_eq!(gr.rejected, (m - 1) / 4);
        assert_eq!(gr.retries, gr.rejected, "every rejection retried once");
        let sizes: Vec<usize> = gr.epochs.iter().map(|e| e.n_events).collect();
        assert_eq!(sizes, vec![4, 4, 1], "saturation epochs + flushed tail");
    }

    #[test]
    fn watermark_sealing_never_rejects() {
        let ut = random_tree(4, 12);
        let config = StreamConfig::new(3, 64, 1);
        let mut svc = stream_with_groups(&ut, 2, config);
        let (admissions, report) = svc.drive(|h| {
            (0..7u64)
                .map(|i| {
                    h.submit(
                        0,
                        ChurnEvent::Join {
                            player: i as usize + 1,
                            utility: 2.0,
                        },
                    )
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(report.n_rejected(), 0);
        // Depths cycle 1, 2, 3(seal), 1, 2, 3(seal), 1 — and the seal is
        // reported on the watermark submission.
        let sealed: Vec<Option<u64>> = admissions
            .iter()
            .map(|a| match *a {
                Admission::Accepted { sealed, .. } => sealed,
                Admission::Busy { .. } | Admission::Invalid { .. } => {
                    panic!("no rejection expected")
                }
            })
            .collect();
        assert_eq!(sealed, vec![None, None, Some(0), None, None, Some(1), None]);
        let gr = &report.groups[0];
        let sizes: Vec<usize> = gr.epochs.iter().map(|e| e.n_events).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
        // Group 1 saw no traffic: no epochs, no samples.
        assert!(report.groups[1].epochs.is_empty());
        assert_eq!(report.groups[1].latencies.n_samples(), 0);
    }

    #[test]
    fn latency_samples_follow_the_virtual_clock() {
        let ut = random_tree(9, 10);
        // Watermark 2: ticks 0,1 seal at tick 1 → delays [1, 0], reprice 1.
        let config = StreamConfig::new(2, 8, 1);
        let mut svc = stream_with_groups(&ut, 1, config);
        let (_, report) = svc.drive(|h| {
            for p in 1..=4usize {
                h.submit(
                    0,
                    ChurnEvent::Join {
                        player: p,
                        utility: 1.0,
                    },
                );
            }
        });
        let lat = &report.groups[0].latencies;
        assert_eq!(lat.join, vec![1, 0, 1, 0]);
        assert!(lat.leave.is_empty() && lat.rebid.is_empty());
        assert_eq!(lat.reprice, vec![1, 1]);
    }

    #[test]
    fn sessions_stay_warm_across_drives() {
        let ut = random_tree(5, 16);
        let config = StreamConfig::new(4, 16, 2);
        let g = 3;
        let (stream, mechanisms) = workload(&ut, g, 11);
        let half = stream.len() / 2;

        let mut split = stream_with_groups(&ut, g, config);
        let (_, first) = split.drive(|h| {
            for &(group, ev) in &stream[..half] {
                h.submit_blocking(group, ev);
            }
        });
        let (_, second) = split.drive(|h| {
            for &(group, ev) in &stream[half..] {
                h.submit_blocking(group, ev);
            }
        });

        // The reference replays each group's full subsequence in one
        // piece, but split at the same epoch boundaries: drive flushes
        // force an epoch boundary at the split point, so compare the
        // concatenated outcome streams per group against a reference
        // built from the two halves' plans.
        for group in 0..g {
            let mut reference = MulticastService::new(&ut).with_threads(1);
            for &m in &mechanisms {
                reference.add_group(m);
            }
            let mut expect = Vec::new();
            for part in [&stream[..half], &stream[half..]] {
                for chunk in epoch_plan(&per_group(part, group), &config) {
                    let mut out = reference.step(&[(group, &chunk)]);
                    expect.push(out.pop().expect("one outcome").outcome);
                }
            }
            let got: Vec<_> = first.groups[group]
                .epochs
                .iter()
                .chain(&second.groups[group].epochs)
                .map(|e| e.outcome.clone())
                .collect();
            assert_eq!(got, expect, "group {group} warm continuation diverges");
        }
        // Epoch numbers restart per drive.
        if let Some(e) = second.groups.iter().find_map(|gr| gr.epochs.first()) {
            assert_eq!(e.epoch, 0);
        }
    }

    #[test]
    fn clone_shares_substrate_and_warm_state() {
        let ut = random_tree(3, 14);
        let config = StreamConfig::new(4, 8, 2);
        let g = 2;
        let (stream, _) = workload(&ut, g, 5);
        let half = stream.len() / 2;
        let mut svc = stream_with_groups(&ut, g, config);
        let (_, _) = svc.drive(|h| {
            for &(group, ev) in &stream[..half] {
                h.submit_blocking(group, ev);
            }
        });
        let mut twin = svc.clone();
        let rest = |h: &StreamHandle<'_>| {
            for &(group, ev) in &stream[half..] {
                h.submit_blocking(group, ev);
            }
        };
        let (_, a) = svc.drive(rest);
        let (_, b) = twin.drive(rest);
        assert_eq!(a, b, "a cloned warm service must replay identically");
    }

    #[test]
    #[should_panic(expected = "unknown group id")]
    fn unknown_group_ids_are_rejected() {
        let ut = random_tree(1, 8);
        let mut svc = stream_with_groups(&ut, 2, StreamConfig::new(4, 8, 1));
        let _ = svc.drive(|h| {
            h.submit(
                7,
                ChurnEvent::Join {
                    player: 1,
                    utility: 1.0,
                },
            )
        });
    }

    #[test]
    fn epoch_plan_chunks_by_effective_epoch_size() {
        let events: Vec<ChurnEvent> = (1..=10)
            .map(|p| ChurnEvent::Join {
                player: p,
                utility: 1.0,
            })
            .collect();
        let sizes = |cfg: &StreamConfig| -> Vec<usize> {
            epoch_plan(&events, cfg).iter().map(Vec::len).collect()
        };
        assert_eq!(sizes(&StreamConfig::new(4, 64, 1)), vec![4, 4, 2]);
        assert_eq!(sizes(&StreamConfig::new(64, 3, 1)), vec![3, 3, 3, 1]);
        assert_eq!(sizes(&StreamConfig::new(10, 10, 1)), vec![10]);
        assert!(epoch_plan(&[], &StreamConfig::new(4, 4, 1)).is_empty());
    }

    #[test]
    fn invalid_events_are_refused_on_the_callers_thread() {
        let ut = random_tree(2, 12);
        let n = ut.network().n_players();
        let mut svc = stream_with_groups(&ut, 1, StreamConfig::new(4, 8, 1));
        let join = |player, utility| ChurnEvent::Join { player, utility };
        let refused = [
            (join(2, f64::NAN), InvalidEvent::InvalidBid),
            (join(2, -1.0), InvalidEvent::InvalidBid),
            (
                ChurnEvent::Rebid {
                    player: 1,
                    utility: f64::INFINITY,
                },
                InvalidEvent::InvalidBid,
            ),
            (join(n, 1.0), InvalidEvent::UnknownPlayer),
            (ChurnEvent::Leave { player: n }, InvalidEvent::UnknownPlayer),
        ];
        let (admissions, report) = svc.drive(|h| {
            let mut out: Vec<Admission> = refused.iter().map(|&(ev, _)| h.submit(0, ev)).collect();
            assert_eq!(h.submit_blocking(0, join(2, f64::NAN)), 0, "never retried");
            out.push(h.submit(0, join(1, 100.0)));
            out
        });
        for (adm, &(_, reason)) in admissions.iter().zip(&refused) {
            assert_eq!(*adm, Admission::Invalid { group: 0, reason });
        }
        // Only the valid bidder was queued: one accepted event, one epoch,
        // and the NaN bidder next to it is neither served nor charged.
        let gr = &report.groups[0];
        assert_eq!(gr.accepted, 1);
        assert_eq!(gr.rejected, 0);
        assert_eq!(gr.invalid, refused.len() as u64 + 1);
        // One tick from the valid submission to the end-of-drive flush:
        // the refusals before it took none.
        assert_eq!(gr.latencies.join, vec![1], "refusals take no clock tick");
        assert_eq!(gr.epochs.len(), 1);
        let outcome = &gr.epochs[0].outcome;
        assert!(!outcome.receivers.contains(&2));
        assert_eq!(outcome.shares[2], 0.0);
    }

    #[test]
    fn submit_blocking_refusals_are_counted_as_invalid() {
        let ut = random_tree(3, 10);
        let n = ut.network().n_players();
        let mut svc = stream_with_groups(&ut, 2, StreamConfig::new(4, 8, 1));
        let join = |player, utility| ChurnEvent::Join { player, utility };
        let (busy, report) = svc.drive(|h| {
            let valid = h.submit_blocking(1, join(1, 5.0));
            let nan = h.submit_blocking(1, join(2, f64::NAN));
            let unknown = h.submit_blocking(1, join(n, 1.0));
            [valid, nan, unknown]
        });
        // The return value cannot tell a refusal from an admission; the
        // report can.
        assert_eq!(busy, [0, 0, 0]);
        let gr = &report.groups[1];
        assert_eq!(gr.invalid, 2);
        assert_eq!(gr.accepted, 1, "refusals leave the accepted count alone");
        assert_eq!((gr.rejected, gr.retries), (0, 0));
        assert_eq!(report.groups[0].invalid, 0);
        assert_eq!(report.n_invalid(), 2);
        assert_eq!(report.n_accepted(), 1);
    }

    #[test]
    fn a_panicking_epoch_worker_fails_the_drive_instead_of_hanging() {
        // One worker, watermark 1: the first epoch panics inside the
        // worker, and the producer's next seal waits on that group's
        // in-flight epoch. The worker's unwind must release it.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        std::thread::spawn(move || {
            let ut = random_tree(1, 8);
            let mut svc = stream_with_groups(&ut, 1, StreamConfig::new(1, 4, 1));
            let join = |player| ChurnEvent::Join {
                player,
                utility: 1.0,
            };
            let drive = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                svc.drive(|h| {
                    // Sealing directly skips the boundary check, so the
                    // worker panics at `station_of_player`.
                    let slot = &h.svc.groups[0];
                    h.svc.seal(0, slot, slot.lock_queue(), |_| vec![join(999)]);
                    for p in 1..4 {
                        h.submit(0, join(p));
                    }
                })
            }));
            let _ = tx.send(drive.is_err());
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(30)),
            Ok(true),
            "the drive must re-raise the worker's panic, not hang"
        );
    }
}
