//! The traced per-layer replay.
//!
//! Spans are taken in this crate, around calls into each layer's public
//! functions, and held in memory until the run reports:
//!
//! * every group's epochs are replayed through a fresh
//!   [`GroupSession`] in the workload's own layout (`session.*`, and the
//!   per-round work behind `service.*`);
//! * a sample of groups is replayed through the concrete sparse sessions
//!   one event per `apply_events` call (`sparse.apply_ns.*`), with a
//!   mirrored [`Subframe`] (`substrate.ensure_ns`); each epoch's
//!   concrete `reprice` is timed (`sparse.*_reprice_ms_p50`), then a
//!   standalone [`SparseShapley`] / [`SparseNetWorth`] is rebuilt at the
//!   pre-reprice state and the reprice's constituent calls are timed one
//!   by one (`sparse.*`, `universal.*`). `outcome.materialise_ms` is the
//!   concrete reprice minus those constituents, and
//!   `universal.shapley_shares_frac` is the final-share call's share of
//!   the concrete reprice.
//!
//! Every replayed outcome — session and standalone — must be
//! byte-identical to the client's outcome for the same epoch; each
//! mismatch is a failed check.

use crate::check::{fingerprint, GroupModel};
use crate::stats::{mean, median, ratio};
use crate::{RunResult, Stopwatch};
use std::collections::BTreeMap;
use wmcs_game::MechanismOutcome;
use wmcs_geom::{ChurnEvent, EPS};
use wmcs_wireless::{
    GroupMechanism, GroupSession, SessionLayout, SparseMcSession, SparseNetWorth, SparseShapley,
    SparseShapleySession, Subframe, UniversalTree,
};

/// Sampled (Shapley, MC) group pairs of the sparse replay.
pub const SAMPLE_PAIRS: usize = 4;

/// One group's epochs as the client saw them.
#[derive(Debug, Clone)]
pub struct History {
    /// The group's mechanism.
    pub mechanism: GroupMechanism,
    /// Warm-up epochs (replayed untimed).
    pub warm: Vec<Vec<ChurnEvent>>,
    /// Timed epochs, in order.
    pub timed: Vec<Vec<ChurnEvent>>,
    /// Fingerprints of the client's outcomes for `timed`.
    pub fingerprints: Vec<u64>,
}

/// Spans and counts collected by [`replay`].
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Replayed outcomes compared against the client's.
    pub compared: u64,
    /// Replayed outcomes that differed from the client's.
    pub mismatches: u64,
    /// Per round (epoch index across groups), the summed session work.
    round_work_s: Vec<f64>,
    /// `GroupSession::apply_batch` times per epoch: [Shapley, MC].
    session_ms: [Vec<f64>; 2],
    /// Single-event `apply_events` times: [join, leave, rebid].
    apply_ns: [Vec<f64>; 3],
    /// `Subframe::ensure` times on joins.
    ensure_ns: Vec<f64>,
    /// Concrete sparse `reprice` times: [Shapley, MC].
    reprice_ms: [Vec<f64>; 2],
    /// One `round_shares_by_local` each.
    round_us: Vec<f64>,
    /// Drop-loop rounds, drops and Shapley reprices (standalone).
    pub rounds: u64,
    /// Members the standalone drop loops evicted.
    pub drops: u64,
    /// Standalone Shapley reprices.
    pub shapley_reprices: u64,
    /// Standalone Shapley constituent spans: final shares, served cost,
    /// and the concrete reprice's time beyond all constituents.
    shares_ms: Vec<f64>,
    cost_ms: Vec<f64>,
    self_ms: Vec<f64>,
    /// Standalone MC constituents.
    efficient_ms: Vec<f64>,
    zeroing_us: Vec<f64>,
    mc_cost_ms: Vec<f64>,
    /// Frame sizes of the sampled sparse sessions after the replay.
    pub frame_lens: Vec<u64>,
}

/// A concrete sparse session of either mechanism.
enum Sparse {
    Shapley(SparseShapleySession),
    Mc(SparseMcSession),
}

impl Sparse {
    fn new(mechanism: GroupMechanism, ut: &UniversalTree) -> Self {
        match mechanism {
            GroupMechanism::Shapley => Sparse::Shapley(SparseShapleySession::new(ut)),
            GroupMechanism::MarginalCost => Sparse::Mc(SparseMcSession::new(ut)),
        }
    }

    fn apply_events(&mut self, events: &[ChurnEvent]) {
        match self {
            Sparse::Shapley(s) => s.apply_events(events),
            Sparse::Mc(s) => s.apply_events(events),
        }
    }

    fn reprice(&mut self) -> MechanismOutcome {
        match self {
            Sparse::Shapley(s) => s.reprice(),
            Sparse::Mc(s) => s.reprice(),
        }
    }

    fn frame_len(&self) -> usize {
        match self {
            Sparse::Shapley(s) => s.frame_len(),
            Sparse::Mc(s) => s.frame_len(),
        }
    }
}

fn mech_index(m: GroupMechanism) -> usize {
    match m {
        GroupMechanism::Shapley => 0,
        GroupMechanism::MarginalCost => 1,
    }
}

/// The sampled groups: `pairs` (even, odd) = (Shapley, MC) pairs spread
/// evenly over the group ids.
pub fn sample(groups: usize, pairs: usize) -> Vec<usize> {
    let stride = (groups / (2 * pairs)).max(1);
    let mut out: Vec<usize> = (0..pairs)
        .map(|k| 2 * k * stride)
        .flat_map(|g| [g, g + 1])
        .filter(|&g| g < groups)
        .collect();
    out.dedup();
    out
}

/// Replay every group's history (see the module docs).
pub fn replay(ut: &UniversalTree, histories: &[History]) -> Layers {
    let mut l = Layers::default();
    let rounds = histories.iter().map(|h| h.timed.len()).max().unwrap_or(0);
    l.round_work_s = vec![0.0; rounds];
    for h in histories {
        let mut s = GroupSession::with_layout(h.mechanism, ut, SessionLayout::Auto);
        for e in &h.warm {
            s.apply_batch(e);
        }
        for (k, e) in h.timed.iter().enumerate() {
            let t = Stopwatch::start();
            let out = s.apply_batch(e);
            let dt = t.secs();
            l.round_work_s[k] += dt;
            l.session_ms[mech_index(h.mechanism)].push(dt * 1e3);
            l.compare(&out, h.fingerprints[k]);
        }
    }
    for g in sample(histories.len(), SAMPLE_PAIRS) {
        l.replay_sparse(ut, &histories[g]);
    }
    l
}

impl Layers {
    fn compare(&mut self, out: &MechanismOutcome, expect: u64) {
        self.compare_fp(fingerprint(out), expect);
    }

    fn compare_fp(&mut self, got: u64, expect: u64) {
        self.compared += 1;
        self.mismatches += u64::from(got != expect);
    }

    /// One sampled group through the concrete sparse session.
    fn replay_sparse(&mut self, ut: &UniversalTree, h: &History) {
        let sub = ut.substrate();
        let net = ut.network();
        let mut model = GroupModel::new(h.mechanism);
        let mut frame = Subframe::new(sub);
        let mut s = Sparse::new(h.mechanism, ut);
        for e in &h.warm {
            for ev in e {
                model.apply(ev);
                if let ChurnEvent::Join { player, .. } = *ev {
                    frame.ensure(sub, net.station_of_player(player));
                }
            }
            s.apply_events(e);
            let out = s.reprice();
            model.check(&out);
        }
        for (k, e) in h.timed.iter().enumerate() {
            for ev in e {
                model.apply(ev);
                let t = Stopwatch::start();
                s.apply_events(std::slice::from_ref(ev));
                let dt = t.nanos();
                let class = match ev {
                    ChurnEvent::Join { .. } => 0,
                    ChurnEvent::Leave { .. } => 1,
                    ChurnEvent::Rebid { .. } => 2,
                };
                self.apply_ns[class].push(dt);
                if let ChurnEvent::Join { player, .. } = *ev {
                    let station = net.station_of_player(player);
                    let t = Stopwatch::start();
                    frame.ensure(sub, station);
                    self.ensure_ns.push(t.nanos());
                }
            }
            let t = Stopwatch::start();
            let out = s.reprice();
            let reprice_ms = t.secs() * 1e3;
            self.reprice_ms[mech_index(h.mechanism)].push(reprice_ms);
            let standalone = match h.mechanism {
                GroupMechanism::Shapley => {
                    let (fp, constituents_ms) = self.standalone_shapley(ut, model.members());
                    self.self_ms.push(reprice_ms - constituents_ms);
                    fp
                }
                GroupMechanism::MarginalCost => self.standalone_mc(ut, model.members()),
            };
            self.compare(&out, h.fingerprints[k]);
            self.compare_fp(standalone, h.fingerprints[k]);
            model.check(&out);
        }
        self.frame_lens.push(s.frame_len() as u64);
    }

    /// A Shapley reprice on a standalone [`SparseShapley`] rebuilt at the
    /// pre-reprice state, timed constituent by constituent: the sparse
    /// session's drop loop and final-outcome calls, step for step.
    /// Returns the outcome's fingerprint and the constituents' summed ms.
    ///
    /// This is a frozen copy of `SparseShapleySession::reprice`: a change
    /// to the session's reprice must be mirrored here, or the constituent
    /// spans stop describing it (the fingerprint compare only catches a
    /// copy whose outcome drifts).
    fn standalone_shapley(
        &mut self,
        ut: &UniversalTree,
        members: &BTreeMap<usize, f64>,
    ) -> (u64, f64) {
        let net = ut.network();
        let n = net.n_players();
        let mut eng = SparseShapley::new(ut);
        let locals: Vec<(usize, u32, f64)> = members
            .iter()
            .map(|(&p, &bid)| (p, eng.add_receiver(net.station_of_player(p)), bid))
            .collect();
        let mut children_s = 0.0;
        let mut active = vec![true; locals.len()];
        let mut n_active = locals.len();
        let mut mine = Vec::with_capacity(locals.len());
        let out = loop {
            if n_active == 0 {
                break MechanismOutcome::empty(n);
            }
            let t = Stopwatch::start();
            let shares = eng.round_shares_by_local();
            mine.clear();
            mine.extend(locals.iter().map(|&(_, local, _)| shares[local as usize]));
            let dt = t.secs();
            children_s += dt;
            self.round_us.push(dt * 1e6);
            self.rounds += 1;
            let mut dropped = false;
            for (i, &(_, local, bid)) in locals.iter().enumerate() {
                if active[i] && bid < mine[i] - EPS {
                    active[i] = false;
                    n_active -= 1;
                    eng.drop_receiver_local(local);
                    self.drops += 1;
                    dropped = true;
                }
            }
            if !dropped {
                let stations = eng.active_stations();
                let t = Stopwatch::start();
                let by_station = ut.shapley_shares(&stations);
                let dt = t.secs();
                children_s += dt;
                self.shares_ms.push(dt * 1e3);
                let mut shares = vec![0.0; n];
                let mut receivers = Vec::with_capacity(n_active);
                for (i, &(p, _, _)) in locals.iter().enumerate() {
                    if active[i] {
                        receivers.push(p);
                        shares[p] = by_station[net.station_of_player(p)];
                    }
                }
                let t = Stopwatch::start();
                let served_cost = ut.multicast_cost(&stations);
                let dt = t.secs();
                children_s += dt;
                self.cost_ms.push(dt * 1e3);
                break MechanismOutcome {
                    receivers,
                    shares,
                    served_cost,
                };
            }
        };
        self.shapley_reprices += 1;
        (fingerprint(&out), children_s * 1e3)
    }

    /// An MC reprice on a standalone [`SparseNetWorth`] rebuilt at the
    /// pre-reprice utilities: the efficient-set walk, then one zeroing
    /// query per receiver. Returns the outcome's fingerprint.
    fn standalone_mc(&mut self, ut: &UniversalTree, members: &BTreeMap<usize, f64>) -> u64 {
        let net = ut.network();
        let mut nw = SparseNetWorth::new(ut);
        for (&p, &bid) in members {
            nw.set_utility(net.station_of_player(p), bid);
        }
        let t = Stopwatch::start();
        let (stations, total) = nw.efficient_set();
        self.efficient_ms.push(t.secs() * 1e3);
        let receivers: Vec<usize> = stations
            .iter()
            .filter_map(|&x| net.player_of_station(x))
            .collect();
        let mut shares = vec![0.0; net.n_players()];
        for &p in &receivers {
            let x = net.station_of_player(p);
            let t = Stopwatch::start();
            let without = nw.net_worth_zeroing(x);
            self.zeroing_us.push(t.secs() * 1e6);
            shares[p] = (nw.utility(x) - (total - without)).max(0.0);
        }
        let t = Stopwatch::start();
        let served_cost = ut.multicast_cost(&stations);
        self.mc_cost_ms.push(t.secs() * 1e3);
        fingerprint(&MechanismOutcome {
            receivers,
            shares,
            served_cost,
        })
    }

    /// Push the replay's per-layer metrics. `pool_threads` is the pool
    /// that ran the client's work and `client_wall_s` the wall time it
    /// took; pool efficiency compares the replayed (serial) work with it.
    pub fn report(&self, res: &mut RunResult, pool_threads: usize, client_wall_s: f64) {
        let shapley_share_ms: f64 = self.shares_ms.iter().sum();
        let shapley_reprice_ms: f64 = self.reprice_ms[0].iter().sum();
        let work_s: f64 = self.round_work_s.iter().sum();
        let step_work: Vec<f64> = self.round_work_s.iter().map(|s| s * 1e3).collect();
        res.metric("sparse.apply_ns.join", mean(&self.apply_ns[0]), "ns");
        res.metric("sparse.apply_ns.leave", mean(&self.apply_ns[1]), "ns");
        res.metric("sparse.apply_ns.rebid", mean(&self.apply_ns[2]), "ns");
        res.metric(
            "sparse.shapley_reprice_ms_p50",
            median(&self.reprice_ms[0]),
            "ms",
        );
        res.metric("sparse.drop_round_us", mean(&self.round_us), "us");
        res.metric(
            "sparse.rounds_per_reprice",
            ratio(self.rounds as f64, self.shapley_reprices as f64),
            "count",
        );
        res.metric(
            "sparse.drops_per_reprice",
            ratio(self.drops as f64, self.shapley_reprices as f64),
            "count",
        );
        res.metric("substrate.ensure_ns", mean(&self.ensure_ns), "ns");
        let frames: Vec<f64> = self.frame_lens.iter().map(|&f| f as f64).collect();
        res.metric("sparse.frame_len_mean", mean(&frames), "count");
        res.metric("universal.shapley_shares_ms", mean(&self.shares_ms), "ms");
        res.metric(
            "universal.shapley_shares_frac",
            ratio(shapley_share_ms, shapley_reprice_ms),
            "fraction",
        );
        res.metric("universal.multicast_cost_ms", mean(&self.cost_ms), "ms");
        res.metric("outcome.materialise_ms", mean(&self.self_ms), "ms");
        res.metric(
            "sparse.mc_reprice_ms_p50",
            median(&self.reprice_ms[1]),
            "ms",
        );
        res.metric("sparse.efficient_set_ms", mean(&self.efficient_ms), "ms");
        res.metric("sparse.net_worth_zeroing_us", mean(&self.zeroing_us), "us");
        res.metric(
            "universal.mc_multicast_cost_ms",
            mean(&self.mc_cost_ms),
            "ms",
        );
        res.metric(
            "session.shapley_reprice_ms",
            mean(&self.session_ms[0]),
            "ms",
        );
        res.metric("session.mc_reprice_ms", mean(&self.session_ms[1]), "ms");
        res.metric("service.step_work_ms", median(&step_work), "ms");
        res.metric(
            "service.pool_efficiency",
            ratio(work_s, pool_threads as f64 * client_wall_s),
            "fraction",
        );
        res.line(format!(
            "replay: {} outcomes compared, {} mismatches; {} rounds; {} sampled Shapley reprices \
             ({} rounds, {} drops); {} join / {} leave / {} rebid single-event applies",
            self.compared,
            self.mismatches,
            self.round_work_s.len(),
            self.shapley_reprices,
            self.rounds,
            self.drops,
            self.apply_ns[0].len(),
            self.apply_ns[1].len(),
            self.apply_ns[2].len(),
        ));
        res.counts.insert("replay.compared", self.compared);
        res.counts.insert("replay.mismatches", self.mismatches);
        res.counts.insert("sparse.rounds", self.rounds);
        res.counts.insert("sparse.drops", self.drops);
        res.counts
            .insert("sparse.shapley_reprices", self.shapley_reprices);
        res.counts
            .insert("sparse.frame_len_sum", self.frame_lens.iter().sum());
        res.counts
            .insert("sparse.zeroing_queries", self.zeroing_us.len() as u64);
        res.counts
            .insert("sparse.ensure_calls", self.ensure_ns.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_shapley_mc_pairs() {
        assert_eq!(sample(64, 4), vec![0, 1, 16, 17, 32, 33, 48, 49]);
        assert_eq!(sample(512, 4), vec![0, 1, 128, 129, 256, 257, 384, 385]);
        assert_eq!(sample(3, 4), vec![0, 1, 2]);
    }
}
