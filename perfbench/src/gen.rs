//! Seeded input generation. Everything the program under test receives
//! is derived here from the workload seed; the program sees only the
//! generated events.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use wmcs_geom::{ChurnEvent, Point};
use wmcs_wireless::UniversalTree;

/// Seed of every workload's station layout. The layout is the fixed
/// deployment a workload runs on; `--seed` drives the traffic over it
/// (members, bids, event streams). At n = 10⁵ the final-share call costs
/// O(|T(R)| · depth), so in a five-seed probe re-drawing the layout per
/// seed spread `events_per_s` by 47% (IQR over median), against 9% with
/// the layout fixed.
pub const LAYOUT_SEED: u64 = 2004;

/// A sub-seed for one purpose of one workload run.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` stations uniform in a square of side `side`.
pub fn points(seed: u64, n: usize, side: f64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 1));
    (0..n)
        .map(|_| Point::xy(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect()
}

/// Per player, the cost of serving that player alone: the sum of the
/// tree-edge costs on its root path (each relay powers exactly the next
/// hop). A member's Shapley share never exceeds it, so bids drawn as a
/// multiple of it track what members actually cost.
pub fn standalone_costs(ut: &UniversalTree) -> Vec<f64> {
    let sub = ut.substrate();
    let net = ut.network();
    let mut path = vec![0.0f64; net.n_stations()];
    for &v in sub.bfs_order() {
        let v = v.index();
        if v != net.source() {
            path[v] = path[sub.parent_of(v)] + sub.parent_cost(v);
        }
    }
    (0..net.n_players())
        .map(|p| path[net.station_of_player(p)])
        .collect()
}

/// Shape of a stream workload's event generator.
#[derive(Debug, Clone, Copy)]
pub struct StreamMix {
    /// Members each group joins during warm-up.
    pub members: usize,
    /// Percent of timed events that are rebids of a subscribed member.
    pub rebid_pct: u32,
    /// Percent that are joins of a fresh player (the rest are leaves).
    pub join_pct: u32,
    /// Bids are the player's standalone cost times a factor uniform in
    /// `[bid_lo, bid_hi)`.
    pub bid_lo: f64,
    /// Upper end of the bid factor.
    pub bid_hi: f64,
}

/// The client-side subscription view of one group while generating.
#[derive(Debug, Clone, Default)]
struct Subscriptions {
    /// Subscribed players (joined, not left), in join order.
    live: Vec<usize>,
    /// Every player that ever joined the group: joins draw fresh players
    /// outside this set, so membership rolls through new stations.
    seen: BTreeSet<usize>,
}

/// Generated stream inputs: the warm-up joins and one timed repetition,
/// both as interleaved `(group, event)` submissions.
#[derive(Debug, Clone)]
pub struct StreamEvents {
    /// Warm-up: every group joins `members` fresh players.
    pub warmup: Vec<(usize, ChurnEvent)>,
    /// The timed stream (replayed from the same warm state each time).
    pub timed: Vec<(usize, ChurnEvent)>,
}

/// Generate a stream workload's events over `groups` groups.
///
/// Timed events address the groups round-robin (as
/// `MultiGroupTrace::interleaved` does), so every group seals at the
/// same pace and a sealing submit waits on the group's previous epoch in
/// steady state; the event kind and player are random. A group below
/// half its warm-up size always joins and one above one and a half times
/// it never does, so sizes stay near `members` while the membership
/// rolls.
pub fn stream_events(
    seed: u64,
    costs: &[f64],
    groups: usize,
    mix: StreamMix,
    timed_events: usize,
) -> StreamEvents {
    let n_players = costs.len();
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 2));
    let bid = |rng: &mut SmallRng, p: usize| costs[p] * rng.gen_range(mix.bid_lo..mix.bid_hi);
    let fresh = |rng: &mut SmallRng, subs: &mut Subscriptions| loop {
        let p = rng.gen_range(0..n_players);
        if subs.seen.insert(p) {
            subs.live.push(p);
            return p;
        }
    };
    let mut subs = vec![Subscriptions::default(); groups];
    let mut warmup = Vec::with_capacity(groups * mix.members);
    for (g, s) in subs.iter_mut().enumerate() {
        for _ in 0..mix.members {
            let player = fresh(&mut rng, s);
            let utility = bid(&mut rng, player);
            warmup.push((g, ChurnEvent::Join { player, utility }));
        }
    }
    let (lo, hi) = (mix.members / 2, mix.members + mix.members / 2);
    let mut timed = Vec::with_capacity(timed_events);
    for k in 0..timed_events {
        let g = k % groups;
        let s = &mut subs[g];
        let roll = rng.gen_range(0..100u32);
        let join = s.live.len() <= lo
            || (roll >= mix.rebid_pct && roll < mix.rebid_pct + mix.join_pct && s.live.len() < hi);
        let ev = if join {
            let player = fresh(&mut rng, s);
            ChurnEvent::Join {
                player,
                utility: bid(&mut rng, player),
            }
        } else {
            let i = rng.gen_range(0..s.live.len());
            let player = s.live[i];
            if roll < mix.rebid_pct + mix.join_pct {
                ChurnEvent::Rebid {
                    player,
                    utility: bid(&mut rng, player),
                }
            } else {
                s.live.swap_remove(i);
                ChurnEvent::Leave { player }
            }
        };
        timed.push((g, ev));
    }
    StreamEvents { warmup, timed }
}

/// The events of `group` within an interleaved stream, in order.
pub fn group_events(stream: &[(usize, ChurnEvent)], groups: usize) -> Vec<Vec<ChurnEvent>> {
    let mut out = vec![Vec::new(); groups];
    for &(g, ev) in stream {
        out[g].push(ev);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_keep_groups_populated() {
        let costs: Vec<f64> = (0..500).map(|p| 1.0 + p as f64).collect();
        let mix = StreamMix {
            members: 8,
            rebid_pct: 50,
            join_pct: 25,
            bid_lo: 0.5,
            bid_hi: 1.5,
        };
        let a = stream_events(3, &costs, 4, mix, 2000);
        let b = stream_events(3, &costs, 4, mix, 2000);
        assert_eq!(a.timed, b.timed);
        assert_eq!(a.warmup.len(), 32);
        assert_ne!(a.timed, stream_events(4, &costs, 4, mix, 2000).timed);
        // Replay the client view: sizes stay within [members/2, 1.5·members].
        let mut live = [8usize; 4];
        for &(g, ev) in &a.timed {
            match ev {
                ChurnEvent::Join { .. } => live[g] += 1,
                ChurnEvent::Leave { .. } => live[g] -= 1,
                ChurnEvent::Rebid { .. } => {}
            }
            assert!((4..=12).contains(&live[g]), "group {g} size {}", live[g]);
        }
    }
}
