//! Output checks: an exact model of each group's membership, used to
//! verify every epoch outcome (budget balance, voluntary participation),
//! to count no-op events and to measure the served fraction.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use wmcs_game::MechanismOutcome;
use wmcs_geom::{ChurnEvent, VP_TOL as TOL};
use wmcs_wireless::GroupMechanism;

/// One group's membership as the session holds it, plus the players the
/// client still counts as subscribed.
///
/// `members` follows the session's total event semantics exactly: a
/// Shapley session forgets the players its drop loop evicts, an MC
/// session keeps every live bid. `subscribed` is the client's view —
/// joined and not left — so an evicted Shapley player stays subscribed
/// and unserved, which is what the served fraction measures.
#[derive(Debug, Clone)]
pub struct GroupModel {
    mechanism: GroupMechanism,
    members: BTreeMap<usize, f64>,
    subscribed: BTreeSet<usize>,
    served: usize,
}

impl GroupModel {
    /// An empty group priced with `mechanism`.
    pub fn new(mechanism: GroupMechanism) -> Self {
        Self {
            mechanism,
            members: BTreeMap::new(),
            subscribed: BTreeSet::new(),
            served: 0,
        }
    }

    /// Absorb one event; returns `true` when the session treats it as a
    /// no-op (a leave or rebid of a player it does not hold).
    pub fn apply(&mut self, ev: &ChurnEvent) -> bool {
        match *ev {
            ChurnEvent::Join { player, utility } => {
                self.members.insert(player, utility);
                self.subscribed.insert(player);
                false
            }
            ChurnEvent::Leave { player } => {
                self.subscribed.remove(&player);
                self.members.remove(&player).is_none()
            }
            ChurnEvent::Rebid { player, utility } => match self.members.get_mut(&player) {
                Some(bid) => {
                    *bid = utility;
                    false
                }
                None => true,
            },
        }
    }

    /// Check one epoch's outcome against the model and advance the model
    /// past the reprice. Returns `true` when every check holds:
    ///
    /// * Shapley: receivers are members, revenue equals the served cost
    ///   within [`VP_TOL`](wmcs_geom::VP_TOL) relative, and no receiver pays above its bid;
    /// * MC: every receiver's share lies in `[0, bid]` (relay stations
    ///   without a bid must pay 0).
    pub fn check(&mut self, out: &MechanismOutcome) -> bool {
        let mut ok = out.receivers.windows(2).all(|w| w[0] < w[1]);
        for &p in &out.receivers {
            let bid = self.members.get(&p).copied();
            let share = out.shares.get(p).copied().unwrap_or(f64::NAN);
            ok &= match self.mechanism {
                GroupMechanism::Shapley => {
                    bid.is_some_and(|b| share >= -TOL && share <= b + TOL * (1.0 + b.abs()))
                }
                GroupMechanism::MarginalCost => {
                    let b = bid.unwrap_or(0.0);
                    share >= 0.0 && share <= b + TOL * (1.0 + b.abs())
                }
            };
        }
        if self.mechanism == GroupMechanism::Shapley {
            let revenue = out.revenue();
            ok &= (revenue - out.served_cost).abs() <= TOL * (1.0 + out.served_cost.abs());
            // The drop loop's evictions persist in the session.
            self.members
                .retain(|p, _| out.receivers.binary_search(p).is_ok());
        }
        self.served = out
            .receivers
            .iter()
            .filter(|p| self.subscribed.contains(p))
            .count();
        ok
    }

    /// `(served, subscribed)` after the last checked epoch.
    pub fn served(&self) -> (usize, usize) {
        (self.served, self.subscribed.len())
    }

    /// Current members with their bids, ascending by player.
    pub fn members(&self) -> &BTreeMap<usize, f64> {
        &self.members
    }
}

/// Served fraction over `models`, optionally restricted to one mechanism.
pub fn served_frac(models: &[GroupModel], only: Option<GroupMechanism>) -> f64 {
    let (mut served, mut live) = (0usize, 0usize);
    for m in models {
        if only.is_none_or(|k| k == m.mechanism) {
            let (s, l) = m.served();
            served += s;
            live += l;
        }
    }
    crate::stats::ratio(served as f64, live as f64)
}

/// A 64-bit digest of an outcome's receivers, share bits and served-cost
/// bits: equal digests stand for byte-identical outcomes.
pub fn fingerprint(out: &MechanismOutcome) -> u64 {
    let mut h = DefaultHasher::new();
    out.receivers.hash(&mut h);
    for s in &out.shares {
        s.to_bits().hash(&mut h);
    }
    out.served_cost.to_bits().hash(&mut h);
    h.finish()
}

/// Epoch and event tallies of one checked run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Epochs (or per-group step outcomes) checked.
    pub epochs: u64,
    /// Epochs that failed a check.
    pub failed: u64,
    /// Events absorbed.
    pub events: u64,
    /// Events the session treated as no-ops.
    pub noops: u64,
}

impl Tally {
    /// Apply one epoch's events to `model`, then check its outcome.
    pub fn epoch(&mut self, model: &mut GroupModel, events: &[ChurnEvent], out: &MechanismOutcome) {
        for ev in events {
            self.events += 1;
            self.noops += u64::from(model.apply(ev));
        }
        self.epochs += 1;
        self.failed += u64::from(!model.check(out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(receivers: Vec<usize>, shares: Vec<f64>, served_cost: f64) -> MechanismOutcome {
        MechanismOutcome {
            receivers,
            shares,
            served_cost,
        }
    }

    #[test]
    fn shapley_checks_budget_balance_and_participation() {
        let mut m = GroupModel::new(GroupMechanism::Shapley);
        m.apply(&ChurnEvent::Join {
            player: 1,
            utility: 5.0,
        });
        m.apply(&ChurnEvent::Join {
            player: 2,
            utility: 1.0,
        });
        assert!(m.check(&outcome(vec![1], vec![0.0, 3.0, 0.0], 3.0)));
        // Player 2 was evicted: its rebid is a no-op, it stays subscribed.
        assert!(m.apply(&ChurnEvent::Rebid {
            player: 2,
            utility: 9.0
        }));
        assert_eq!(m.served(), (1, 2));
        // Unbalanced budget and an over-charge both fail.
        assert!(!m.check(&outcome(vec![1], vec![0.0, 3.0, 0.0], 4.0)));
        assert!(!m.check(&outcome(vec![1], vec![0.0, 6.0, 0.0], 6.0)));
    }

    #[test]
    fn mc_relays_must_pay_nothing() {
        let mut m = GroupModel::new(GroupMechanism::MarginalCost);
        m.apply(&ChurnEvent::Join {
            player: 0,
            utility: 2.0,
        });
        assert!(m.check(&outcome(vec![0, 3], vec![1.5, 0.0, 0.0, 0.0], 7.0)));
        assert_eq!(m.served(), (1, 1));
        assert!(!m.check(&outcome(vec![0, 3], vec![1.5, 0.0, 0.0, 0.1], 7.0)));
        assert!(m.apply(&ChurnEvent::Leave { player: 5 }));
    }
}
