//! The multi-group service layer: thousands of concurrent multicast
//! groups priced over **one** shared substrate, sharded across a worker
//! pool.
//!
//! The paper prices one group over one universal tree; the production
//! regime this workspace grows toward serves many groups over one
//! station universe concurrently (the multi-connection setting of Lun et
//! al. and the many-group capacity regime of Liu & Andrews — see
//! PAPERS.md). In a [`MulticastService`] every group is a warm
//! frame-local session ([`SparseShapleySession`] or [`SparseMcSession`])
//! over one `O(1)`-clone [`UniversalTree`] handle (the immutable
//! [`crate::substrate::TreeSubstrate`]); its `O(|closure|)` engine state
//! is the only per-group allocation.
//!
//! # Batch ingestion and sharding
//!
//! A service **step** takes one churn batch per (addressed) group and
//! reprices exactly those groups. Groups are independent — no event ever
//! crosses groups — so each batch is sealed as one epoch on the
//! [`crate::stream`] worker pool, after every event passed
//! [`validate_event`] on the caller's thread.
//!
//! # Determinism contract
//!
//! The outcome of a step is **byte-identical** regardless of thread
//! count: each group's events are applied in batch order by exactly one
//! worker, results land in per-epoch slots, and the substrate is never
//! written after construction. [`MulticastService::with_threads`] with 1
//! is therefore the reference the sharded run is pinned against
//! (experiment T12 and `tests/service_props.rs` additionally pin every
//! group to an *independent single-group session over its own freshly
//! built substrate* — cross-group isolation down to the last float).

use crate::sparse::{SparseMcSession, SparseShapleySession};
use crate::stream::{StreamConfig, StreamService};
use crate::universal::UniversalTree;
use wmcs_game::MechanismOutcome;
use wmcs_geom::churn::ChurnEvent;

/// Why an event was refused at the service boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidEvent {
    /// The player id is not below the network's player count.
    UnknownPlayer,
    /// A join's or rebid's bid is NaN, infinite or negative.
    InvalidBid,
}

/// The boundary check every served event passes before it can reach a
/// warm session: `player < n_players`, and a join's or rebid's bid finite
/// and ≥ 0. A NaN bid would otherwise be served and charged.
pub fn validate_event(event: &ChurnEvent, n_players: usize) -> Result<(), InvalidEvent> {
    let bid = match *event {
        ChurnEvent::Join { utility, .. } | ChurnEvent::Rebid { utility, .. } => utility,
        ChurnEvent::Leave { .. } => 0.0,
    };
    if event.player() >= n_players {
        Err(InvalidEvent::UnknownPlayer)
    } else if bid.is_finite() && bid >= 0.0 {
        Ok(())
    } else {
        Err(InvalidEvent::InvalidBid)
    }
}

/// The former warm-state layout knob, now with nothing to choose: every
/// group runs on the frame engine.
///
/// Hidden; kept only because the repository benchmark
/// (`perfbench/src/trace.rs`) still passes `SessionLayout::Auto` to
/// [`GroupSession::with_layout`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionLayout {
    /// The only value.
    Auto,
}

/// Which §2.1 mechanism a group is priced with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupMechanism {
    /// Moulin–Shenker over Shapley shares (BB, group-strategyproof).
    Shapley,
    /// Marginal cost / VCG (efficient, strategyproof).
    MarginalCost,
}

impl GroupMechanism {
    /// The canonical alternating assignment (`Shapley` on even ids, `MC`
    /// on odd) used whenever a workload wants both mechanisms to face
    /// every shape — T12, the `service_throughput` bench, the isolation
    /// proptests and `examples/multi_group.rs` all share this one rule,
    /// so their byte-identity references cannot drift out of lockstep.
    pub fn alternating(group: usize) -> Self {
        if group.is_multiple_of(2) {
            GroupMechanism::Shapley
        } else {
            GroupMechanism::MarginalCost
        }
    }
}

/// One group's warm live session, dispatching to either §2.1 mechanism.
///
/// This is both the service's internal per-group state and the public
/// building block for *independent* reference sessions (the isolation
/// gates compare a service group against a `GroupSession` built on its
/// own substrate).
#[derive(Debug, Clone)]
pub enum GroupSession {
    /// A Moulin–Shenker Shapley session.
    Shapley(SparseShapleySession),
    /// A marginal-cost (VCG) session.
    Mc(SparseMcSession),
}

impl GroupSession {
    /// An empty session priced with `mechanism` over `ut`. `O(1)`: no
    /// universe-sized allocation.
    pub fn new(mechanism: GroupMechanism, ut: &UniversalTree) -> Self {
        match mechanism {
            GroupMechanism::Shapley => GroupSession::Shapley(SparseShapleySession::new(ut)),
            GroupMechanism::MarginalCost => GroupSession::Mc(SparseMcSession::new(ut)),
        }
    }

    /// [`GroupSession::new`]; the layout has nothing to choose. Hidden;
    /// kept only because the repository benchmark still calls it (see
    /// [`SessionLayout`]).
    #[doc(hidden)]
    pub fn with_layout(
        mechanism: GroupMechanism,
        ut: &UniversalTree,
        _layout: SessionLayout,
    ) -> Self {
        Self::new(mechanism, ut)
    }

    /// The mechanism this session prices with.
    pub fn mechanism(&self) -> GroupMechanism {
        match self {
            GroupSession::Shapley(_) => GroupMechanism::Shapley,
            GroupSession::Mc(_) => GroupMechanism::MarginalCost,
        }
    }

    /// Absorb one churn batch and reprice (dispatches to the session's
    /// `apply_batch`).
    pub fn apply_batch(&mut self, events: &[ChurnEvent]) -> MechanismOutcome {
        match self {
            GroupSession::Shapley(s) => s.apply_batch(events),
            GroupSession::Mc(s) => s.apply_batch(events),
        }
    }

    /// The full-length bid profile the next reprice would use (zero
    /// outside the session).
    pub fn reported_profile(&self) -> Vec<f64> {
        match self {
            GroupSession::Shapley(s) => s.reported_profile(),
            GroupSession::Mc(s) => s.reported_profile(),
        }
    }

    /// Warm heap bytes this session retains between reprices (the shared
    /// substrate is excluded).
    pub fn memory_bytes(&self) -> usize {
        match self {
            GroupSession::Shapley(s) => s.memory_bytes(),
            GroupSession::Mc(s) => s.memory_bytes(),
        }
    }
}

/// One group's repriced allocation after a service step.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupOutcome {
    /// The group the outcome belongs to.
    pub group: usize,
    /// The mechanism outcome on the group's current receiver set.
    pub outcome: MechanismOutcome,
}

/// A sharded multi-group serving engine over one shared substrate.
///
/// Cloning copies every group's warm per-group state
/// (`O(Σ |frame_g|)`) but shares the substrate — the
/// `service_throughput` bench clones a warmed service inside its timers
/// to replay identical steady states.
#[derive(Debug, Clone)]
pub struct MulticastService {
    /// The group table and worker pool (steps bypass its queue bounds).
    groups: StreamService,
    steps: usize,
    events: usize,
}

impl MulticastService {
    /// An empty service over the shared substrate of `ut` (no groups
    /// yet). The handle is cloned (`O(1)`), never the substrate.
    pub fn new(ut: &UniversalTree) -> Self {
        Self {
            groups: StreamService::new(ut, StreamConfig::new(1, 1, 1)),
            steps: 0,
            events: 0,
        }
        .with_threads(0)
    }

    /// Pin the worker count (1 = the single-thread reference; 0 =
    /// available parallelism, the default).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.groups.config.threads = match threads {
            0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
            t => t,
        };
        self
    }

    /// Register a new group priced with `mechanism`; returns its group
    /// id (dense, starting at 0). `O(1)`; the substrate is shared, not
    /// copied.
    pub fn add_group(&mut self, mechanism: GroupMechanism) -> usize {
        self.groups.add_group(mechanism)
    }

    /// Number of registered groups.
    pub fn n_groups(&self) -> usize {
        self.groups.n_groups()
    }

    /// The mechanism group `g` is priced with.
    pub fn mechanism(&self, g: usize) -> GroupMechanism {
        self.groups.mechanism(g)
    }

    /// The shared universal tree every group prices over.
    pub fn universal_tree(&self) -> &UniversalTree {
        self.groups.universal_tree()
    }

    /// Total warm session state across every group, in bytes (the shared
    /// substrate is excluded — it is one `Arc` for the whole service).
    /// Divide by [`Self::n_groups`] for the per-group figure.
    pub fn memory_bytes(&self) -> usize {
        self.groups.memory_bytes()
    }

    /// The full-length bid profile group `g` would reprice with next
    /// (zero outside the group's session) — the VP gates read charges
    /// against exactly this profile.
    pub fn reported_profile(&self, g: usize) -> Vec<f64> {
        self.groups.group_session(g).reported_profile()
    }

    /// Steps executed so far.
    pub fn n_steps(&self) -> usize {
        self.steps
    }

    /// Events ingested so far, across all groups.
    pub fn n_events(&self) -> usize {
        self.events
    }

    /// One service step: absorb `batch[i] = (group, events)` and reprice
    /// exactly the addressed groups, sharded across the worker pool.
    ///
    /// Group ids must be strictly ascending (one batch per group per
    /// step — the deterministic ingestion contract). Returns one
    /// [`GroupOutcome`] per entry, in the same order, byte-identical for
    /// every thread count.
    ///
    /// # Panics
    /// On unordered or unknown group ids, and on any event that fails
    /// [`validate_event`] — checked before any worker starts, so a
    /// refused step changes no group.
    pub fn step(&mut self, batch: &[(usize, &[ChurnEvent])]) -> Vec<GroupOutcome> {
        assert!(
            batch.windows(2).all(|w| w[0].0 < w[1].0),
            "group ids must be strictly ascending (one batch per group per step)"
        );
        let n_players = self.universal_tree().network().n_players();
        let refused = batch.iter().find_map(|&(group, events)| {
            if group >= self.n_groups() {
                return Some(format!("unknown group id {group}"));
            }
            let (event, reason) = events
                .iter()
                .find_map(|event| Some((event, validate_event(event, n_players).err()?)))?;
            Some(format!("group {group}: {reason:?}: {event:?}"))
        });
        assert!(refused.is_none(), "{}", refused.unwrap_or_default());
        self.steps += 1;
        self.events += batch.iter().map(|(_, ev)| ev.len()).sum::<usize>();

        let outcomes = self.groups.run_whole(batch);
        (batch.iter().zip(outcomes))
            .map(|(&(group, _), outcome)| GroupOutcome { group, outcome })
            .collect()
    }

    /// Convenience step addressing **every** group: `batches[g]` is group
    /// `g`'s event batch (must cover all groups).
    pub fn step_all(&mut self, batches: &[Vec<ChurnEvent>]) -> Vec<GroupOutcome> {
        assert_eq!(batches.len(), self.n_groups(), "one batch per group");
        let batch: Vec<(usize, &[ChurnEvent])> = batches
            .iter()
            .enumerate()
            .map(|(g, ev)| (g, ev.as_slice()))
            .collect();
        self.step(&batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_tree;
    use wmcs_geom::MultiGroupProcess;

    fn service_with_groups(ut: &UniversalTree, g: usize, threads: usize) -> MulticastService {
        let mut svc = MulticastService::new(ut).with_threads(threads);
        for i in 0..g {
            svc.add_group(GroupMechanism::alternating(i));
        }
        svc
    }

    #[test]
    fn sharded_steps_are_byte_identical_to_single_thread() {
        let ut = random_tree(11, 24);
        let trace = MultiGroupProcess::new(ut.network().n_players(), 8, 5, 12.0, 3).generate();
        let mut sharded = service_with_groups(&ut, 8, 4);
        let mut serial = service_with_groups(&ut, 8, 1);
        for b in 0..trace.n_batches() {
            let batches: Vec<Vec<_>> = trace
                .groups
                .iter()
                .map(|g| g.trace.batches[b].clone())
                .collect();
            let a = sharded.step_all(&batches);
            let s = serial.step_all(&batches);
            assert_eq!(a, s, "batch {b}: sharded and serial outcomes differ");
        }
        assert_eq!(sharded.n_steps(), trace.n_batches());
        assert_eq!(sharded.n_events(), trace.n_events());
    }

    #[test]
    fn partial_steps_touch_only_the_addressed_groups() {
        let ut = random_tree(5, 12);
        let mut svc = service_with_groups(&ut, 3, 2);
        let join = |player, utility| ChurnEvent::Join { player, utility };
        // Step only group 1.
        let events = [join(2, 50.0), join(4, 50.0)];
        let out = svc.step(&[(1, &events)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].group, 1);
        assert!(!out[0].outcome.receivers.is_empty());
        // Group 0 and 2 are untouched: an empty batch reprices an empty
        // session.
        let empty: [ChurnEvent; 0] = [];
        let out0 = svc.step(&[(0, &empty)]);
        assert!(out0[0].outcome.receivers.is_empty());
    }

    #[test]
    fn per_group_outcomes_match_independent_sessions_on_their_own_substrate() {
        // The cross-group isolation contract, unit-sized (the proptest in
        // tests/service_props.rs scales it): each group's outcome stream
        // equals an independent single-group session over its own
        // freshly-built substrate, byte for byte.
        for seed in 0..4 {
            let ut = random_tree(seed, 16);
            let g = 5;
            let trace =
                MultiGroupProcess::new(ut.network().n_players(), g, 4, 10.0, seed).generate();
            let mut svc = service_with_groups(&ut, g, 0);
            // Independent references, each over its own substrate.
            let mut refs: Vec<GroupSession> = (0..g)
                .map(|i| GroupSession::new(GroupMechanism::alternating(i), &random_tree(seed, 16)))
                .collect();
            for b in 0..trace.n_batches() {
                let batches: Vec<Vec<_>> = trace
                    .groups
                    .iter()
                    .map(|gr| gr.trace.batches[b].clone())
                    .collect();
                let outs = svc.step_all(&batches);
                for (i, out) in outs.iter().enumerate() {
                    let expect = refs[i].apply_batch(&batches[i]);
                    assert_eq!(out.outcome, expect, "seed {seed}, group {i}, batch {b}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn duplicate_group_ids_are_rejected() {
        let ut = random_tree(1, 8);
        let mut svc = service_with_groups(&ut, 2, 1);
        let empty: [ChurnEvent; 0] = [];
        let _ = svc.step(&[(0, &empty), (0, &empty)]);
    }

    #[test]
    #[should_panic(expected = "unknown group id")]
    fn out_of_range_group_ids_are_rejected() {
        let ut = random_tree(1, 8);
        let mut svc = service_with_groups(&ut, 2, 1);
        let empty: [ChurnEvent; 0] = [];
        let _ = svc.step(&[(7, &empty)]);
    }

    #[test]
    fn invalid_events_fail_the_step_before_any_group_changes() {
        let ut = random_tree(3, 12);
        let mut svc = service_with_groups(&ut, 2, 2);
        let good = [ChurnEvent::Join {
            player: 1,
            utility: 100.0,
        }];
        let nan = [ChurnEvent::Join {
            player: 2,
            utility: f64::NAN,
        }];
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.step(&[(0, &good), (1, &nan)])
        }));
        let payload = step.expect_err("a NaN bid must be refused");
        let message = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.starts_with("group 1: InvalidBid"), "{message}");
        assert_eq!(svc.n_steps(), 0);
        assert!(
            svc.reported_profile(0).iter().all(|&bid| bid == 0.0),
            "the valid group of a refused step is untouched too"
        );
    }
}
