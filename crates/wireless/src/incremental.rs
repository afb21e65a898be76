//! Incremental Moulin–Shenker engine for universal-tree cost sharing.
//!
//! The Moulin–Shenker iteration over a universal tree repeatedly drops
//! receivers who cannot afford their Shapley share. The naive driver
//! rebuilds `T(R)` and redistributes every power increment from scratch
//! each round — `O(n · depth)` per round and `O(n³)` worst case per
//! mechanism run — which capped every sweep at n ≈ 8–64. This module
//! keeps the run-long state *incremental*:
//!
//! * [`IncrementalShapley`] maintains, per station, the number of active
//!   receivers in its subtree (`T(R)` membership is exactly
//!   `rb[v] > 0`), plus the active children of every station as a
//!   cost-ordered doubly-linked list. Dropping a receiver updates both
//!   in `O(path to the root)`; a round's shares are one `O(|T(R)|)`
//!   top-down pass that turns the paper's per-increment split (§2.1)
//!   into prefix sums `down[y_i] = down[x] + Σ_{j≤i} δ_j / users_j`.
//!   A full run therefore costs `O(rounds · |T(R)| + Σ dropped path
//!   lengths)` — `O(n log n + total path length)` for the typical
//!   logarithmic round count, `O(n²)` worst case, versus the naive
//!   `O(n³)`.
//! * [`NetWorthOracle`] runs the largest-efficient-set DP once and then
//!   answers the MC/VCG queries "net worth with station `x`'s utility
//!   zeroed" in `O(depth)` via per-station prefix/suffix maxima, instead
//!   of one full `O(n)` DP per receiver.
//!
//! Both index the whole universe, so they are the **cold** engines: the
//! one-shot mechanisms and the from-scratch references
//! ([`shapley_drop_run_from`], `vcg_outcome` over a fresh
//! [`NetWorthOracle`]) that the warm frame-local sessions of
//! [`crate::sparse`] are pinned to byte for byte:
//!
//! | operation | cost | invariant |
//! |---|---|---|
//! | [`IncrementalShapley::drop_receiver`] | `O(depth)` | state equals a fresh build on the shrunken set |
//! | [`IncrementalShapley::round_shares_by_station`] | `O(\|T(R)\|)` | the paper's §2.1 split on the current set |
//! | [`IncrementalShapley::served_cost`] | `O(\|T(R)\| log \|T(R)\|)` | bitwise equal to `multicast_cost` on the current set |
//! | [`NetWorthOracle::net_worth_zeroing`] | `O(depth)` | agrees with a full DP on the zeroed profile |
//!
//! The property suites (`tests/incremental_props.rs`,
//! `tests/session_props.rs`, `tests/sparse_props.rs`) and experiments
//! T10/T11/T15 pin them.
//!
//! Both universal-tree mechanisms in `wmcs-mechanisms` delegate here,
//! and the drop loop itself is the shared index-set driver
//! [`wmcs_game::run_drop_loop`] (resumable variant:
//! [`wmcs_game::run_drop_loop_from`], used by [`shapley_drop_run_from`])
//! — the same iteration the mask-based
//! [`wmcs_game::moulin_shenker`] (n ≤ 64) routes through, so the two
//! cannot diverge on EPS conventions. The driver charges the fixpoint
//! round's shares: the top-down pass adds, per receiver, the same
//! slices in the same order as [`UniversalTree::shapley_shares`], so no
//! final reference evaluation is needed. [`reference_drop_run`]
//! preserves the naive per-round recomputation as the correctness
//! reference; the property suite pins the incremental outcome to it
//! byte for byte.

use crate::substrate::{NodeId, NO_STATION};
use crate::universal::{served_cost_of, UniversalTree};
use wmcs_game::{run_drop_loop, run_drop_loop_from, DropLoopMethod, MechanismOutcome};

/// Local alias for the dense-array sentinel shared with the substrate.
const NONE: usize = NO_STATION;

/// Run statistics of one incremental drop-loop execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropStats {
    /// Rounds executed (share recomputations), including the fixpoint
    /// round.
    pub rounds: usize,
    /// Players dropped over the whole run.
    pub dropped: usize,
}

/// Incremental state of a Moulin–Shenker run over a universal tree:
/// the active receiver set, `T(R)` membership via subtree receiver
/// counts, and the active children of every station in ascending
/// edge-cost order.
#[derive(Debug, Clone)]
pub struct IncrementalShapley {
    /// `O(1)`-clone handle on the shared substrate (parent array,
    /// cost-sorted CSR children and BFS order all live there, once).
    ut: UniversalTree,
    /// Is the station an active receiver?
    in_r: Vec<bool>,
    /// Active receivers in the station's universal-tree subtree;
    /// `rb[v] > 0` ⟺ `v ∈ T(R) \ {source}`. `u32` — counts are bounded
    /// by the substrate's `n < u32::MAX` invariant, so the arrays
    /// ride the same memory diet as the substrate's id state.
    rb: Vec<u32>,
    /// Intrusive cost-ordered list of each station's children with
    /// `rb > 0` (`first_child[x]` → `next_sib` chain; `prev_sib` makes
    /// unlinking O(1)). Compact [`NodeId`] links, [`NodeId::NONE`] ends
    /// a chain — half the bytes of the former `usize` layout.
    first_child: Vec<NodeId>,
    next_sib: Vec<NodeId>,
    prev_sib: Vec<NodeId>,
    /// Scratch: accumulated root-path share prefix per station.
    down: Vec<f64>,
    /// Scratch: per-station shares of the last round.
    shares: Vec<f64>,
    /// Scratch: DFS stack.
    stack: Vec<usize>,
    rounds: usize,
}

impl IncrementalShapley {
    /// Engine over `receivers` (station indices; the source is not a
    /// receiver). Construction is `O(n)`; the per-universe state (parent
    /// array, sorted children, BFS order) is borrowed from the shared
    /// substrate, so G engines over one universe allocate only their
    /// per-group vectors.
    pub fn new(ut: &UniversalTree, receivers: &[usize]) -> Self {
        let sub = ut.substrate();
        let net = ut.network();
        let n = net.n_stations();
        let s = net.source();
        let mut in_r = vec![false; n];
        for &r in receivers {
            assert!(r != s, "the source cannot be a receiver");
            in_r[r] = true;
        }
        // Subtree receiver counts, children before parents.
        let mut rb = vec![0u32; n];
        for &v in sub.bfs_order().iter().rev() {
            let v = v.index();
            let mut cnt = u32::from(in_r[v]);
            for &y in sub.sorted_children(v) {
                cnt += rb[y.index()];
            }
            rb[v] = cnt;
        }
        // Link the active children of every station in cost order.
        let mut first_child = vec![NodeId::NONE; n];
        let mut next_sib = vec![NodeId::NONE; n];
        let mut prev_sib = vec![NodeId::NONE; n];
        for v in 0..n {
            let mut prev = NodeId::NONE;
            for &y in sub.sorted_children(v) {
                if rb[y.index()] == 0 {
                    continue;
                }
                if prev.is_none() {
                    first_child[v] = y;
                } else {
                    next_sib[prev.index()] = y;
                }
                prev_sib[y.index()] = prev;
                prev = y;
            }
        }
        Self {
            ut: ut.clone(),
            in_r,
            rb,
            first_child,
            next_sib,
            prev_sib,
            down: vec![0.0; n],
            shares: vec![0.0; n],
            stack: Vec::with_capacity(n),
            rounds: 0,
        }
    }

    /// The paper's per-increment Shapley split (§2.1) for the current
    /// receiver set, as one `O(|T(R)|)` top-down pass. For station `x`
    /// with active children `y_1 … y_k` (ascending cost), increment
    /// `δ_i = c(x,y_i) − c(x,y_{i−1})` is worth `δ_i / users_i` to every
    /// receiver below `y_i … y_k`, so the accumulated prefix
    /// `down[y_i] = down[x] + Σ_{j≤i} δ_j / users_j` *is* the share of
    /// every receiver whose root path enters `x` through `y_i`.
    /// Returns per-station shares (stale entries outside the active set
    /// are not cleared; callers index by active receivers only).
    pub fn round_shares_by_station(&mut self) -> &[f64] {
        self.rounds += 1;
        let sub = self.ut.substrate().clone();
        let net = sub.network();
        let s = net.source();
        self.down[s] = 0.0;
        self.stack.clear();
        self.stack.push(s);
        while let Some(x) = self.stack.pop() {
            if self.in_r[x] {
                self.shares[x] = self.down[x];
            }
            // Receivers strictly below x: its own subtree count minus x.
            let mut remaining = self.rb[x] - u32::from(self.in_r[x]);
            let mut prev_cost = 0.0;
            let mut acc = self.down[x];
            let mut y = self.first_child[x];
            while !y.is_none() {
                let yi = y.index();
                // Cached tree-edge cost — bit-identical to net.cost(x, y).
                let cost = sub.parent_cost(yi);
                let delta = cost - prev_cost;
                prev_cost = cost;
                if delta > 0.0 {
                    debug_assert!(remaining > 0, "every active branch has a receiver");
                    acc += delta / remaining as f64;
                }
                self.down[yi] = acc;
                remaining -= self.rb[yi];
                self.stack.push(yi);
                y = self.next_sib[yi];
            }
        }
        &self.shares
    }

    /// Drop receiver `r`: decrement the subtree counts on its root path
    /// and unlink stations whose subtree just emptied. `O(depth of r)`.
    pub fn drop_receiver(&mut self, r: usize) {
        debug_assert!(self.in_r[r], "station {r} is not an active receiver");
        self.in_r[r] = false;
        let sub = self.ut.substrate().clone();
        let mut v = r;
        loop {
            self.rb[v] -= 1;
            let p = sub.parent_of(v);
            if p == NONE {
                break;
            }
            if self.rb[v] == 0 {
                // v left T(R): unlink it from p's active children.
                let (pr, nx) = (self.prev_sib[v], self.next_sib[v]);
                if pr.is_none() {
                    self.first_child[p] = nx;
                } else {
                    self.next_sib[pr.index()] = nx;
                }
                if !nx.is_none() {
                    self.prev_sib[nx.index()] = pr;
                }
            }
            v = p;
        }
    }

    /// The currently-active receiver stations, ascending.
    pub fn active_stations(&self) -> Vec<usize> {
        (0..self.in_r.len()).filter(|&v| self.in_r[v]).collect()
    }

    /// `C_T(R)` of the current receiver set, walked over `T(R)` alone:
    /// every station with an active child transmits at the cost of its
    /// **last** active child (the lists are in ascending cost order), and
    /// the powers are summed in ascending station id — bitwise equal to
    /// `ut.multicast_cost(&self.active_stations())`.
    pub fn served_cost(&self) -> f64 {
        let sub = self.ut.substrate();
        let mut powers = Vec::new();
        let mut stack = vec![sub.network().source()];
        while let Some(x) = stack.pop() {
            let mut last = NodeId::NONE;
            let mut y = self.first_child[x];
            while !y.is_none() {
                stack.push(y.index());
                last = y;
                y = self.next_sib[y.index()];
            }
            if !last.is_none() {
                powers.push((x, sub.parent_cost(last.index())));
            }
        }
        served_cost_of(powers)
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

/// Player-indexed [`DropLoopMethod`] over a borrowed incremental engine:
/// the driver speaks player ids, the engine speaks station ids.
struct PlayerAdapter<'e> {
    engine: &'e mut IncrementalShapley,
}

impl DropLoopMethod for PlayerAdapter<'_> {
    fn n_players(&self) -> usize {
        self.engine.ut.network().n_players()
    }

    fn round_shares_into(&mut self, out: &mut Vec<f64>) {
        let sub = self.engine.ut.substrate().clone();
        let net = sub.network();
        let n = net.n_players();
        let by_station = self.engine.round_shares_by_station();
        out.clear();
        out.extend((0..n).map(|p| by_station[net.station_of_player(p)]));
    }

    fn drop_player(&mut self, p: usize) {
        let station = self.engine.ut.network().station_of_player(p);
        self.engine.drop_receiver(station);
    }

    fn served_cost(&mut self) -> f64 {
        self.engine.served_cost()
    }
}

/// Run `M(Shapley)` over a universal tree with the incremental engine.
/// Equivalent to [`reference_drop_run`] (property-tested byte for byte),
/// with no 64-player cap.
pub fn shapley_drop_run(ut: &UniversalTree, reported: &[f64]) -> MechanismOutcome {
    shapley_drop_run_with_stats(ut, reported).0
}

/// [`shapley_drop_run`], also reporting round/drop counts.
pub fn shapley_drop_run_with_stats(
    ut: &UniversalTree,
    reported: &[f64],
) -> (MechanismOutcome, DropStats) {
    let receivers = ut.network().non_source_stations();
    let mut engine = IncrementalShapley::new(ut, &receivers);
    let out = run_drop_loop(
        &mut PlayerAdapter {
            engine: &mut engine,
        },
        reported,
    );
    let stats = DropStats {
        rounds: engine.rounds(),
        dropped: reported.len() - out.receivers.len(),
    };
    (out, stats)
}

/// Cold-start a Moulin–Shenker run from an explicit **player** subset:
/// build a fresh engine on exactly those receivers and run the drop loop
/// from them (not from `U`). This is the from-scratch reference a warm
/// [`crate::sparse::SparseShapleySession`] must match byte for byte after
/// every churn batch, and the "cold" side of the `session_churn` bench.
///
/// `players` must be strictly ascending; `reported` is full length
/// (entries outside `players` are ignored).
pub fn shapley_drop_run_from(
    ut: &UniversalTree,
    reported: &[f64],
    players: &[usize],
) -> MechanismOutcome {
    let net = ut.network();
    let stations: Vec<usize> = players.iter().map(|&p| net.station_of_player(p)).collect();
    let mut engine = IncrementalShapley::new(ut, &stations);
    run_drop_loop_from(
        &mut PlayerAdapter {
            engine: &mut engine,
        },
        reported,
        players,
    )
}

/// The naive pre-incremental driver: every round recomputes the full
/// [`UniversalTree::shapley_shares`] on the surviving station set —
/// `O(n · depth)` per round. Kept verbatim as the correctness reference
/// for the engine (tests, T10's n = 64 identity column, and the
/// `drop_engine` criterion bench).
pub fn reference_drop_run(ut: &UniversalTree, reported: &[f64]) -> MechanismOutcome {
    let net = ut.network();
    let n = net.n_players();
    assert_eq!(reported.len(), n);
    let mut in_set: Vec<bool> = vec![true; n];
    loop {
        let stations: Vec<usize> = (0..n)
            .filter(|&p| in_set[p])
            .map(|p| net.station_of_player(p))
            .collect();
        let shares_by_station = ut.shapley_shares(&stations);
        let mut dropped_any = false;
        for p in 0..n {
            if in_set[p] {
                let share = shares_by_station[net.station_of_player(p)];
                if reported[p] < share - wmcs_geom::EPS {
                    in_set[p] = false;
                    dropped_any = true;
                }
            }
        }
        if !dropped_any {
            let receivers: Vec<usize> = (0..n).filter(|&p| in_set[p]).collect();
            let mut shares = vec![0.0; n];
            for &p in &receivers {
                shares[p] = shares_by_station[net.station_of_player(p)];
            }
            let served_cost = ut.multicast_cost(&stations);
            return MechanismOutcome {
                receivers,
                shares,
                served_cost,
            };
        }
    }
}

/// The largest-efficient-set DP (§2.1) with `O(depth)` re-query after
/// zeroing one station's utility — the inner loop of the MC/VCG
/// mechanism, which needs `NW(u_{−i})` for every receiver `i`.
///
/// The bottom-up pass stores, per station, the prefix sums
/// `val_j = Σ_{i≤j} h(y_i) − c(x, y_j)` folded into prefix maxima
/// (`pre[j] = max(0, val_0 … val_{j−1})`) and suffix maxima
/// (`suf[j] = max(val_j … val_{k−1})`). Zeroing a station shifts every
/// `val_j` of its parent with `j ≥ pos` by the same `δ = h' − h`, so the
/// parent's new best prefix is `max(pre[pos], suf[pos] + δ)` — `O(1)`
/// per ancestor instead of `O(children)`.
///
/// Value comparisons are exact (total order, larger prefix only on true
/// ties), fixing the EPS drift that could return a set disagreeing with
/// the reported net worth.
#[derive(Debug, Clone)]
pub struct NetWorthOracle {
    /// `O(1)`-clone handle on the shared substrate.
    ut: UniversalTree,
    /// Utilities by station, as given (the DP clamps at 0 on use).
    u: Vec<f64>,
    /// `h[v]`: best net worth of the subtree game rooted at `v`.
    h: Vec<f64>,
    /// The chosen best prefix value at `v` (`h[v] = own(v) + best[v]`).
    best: Vec<f64>,
    /// Chosen prefix length at `v` (0 = serve no child branch). `u32` —
    /// bounded by the station's degree, so it rides the same memory diet
    /// as the link arrays.
    choice: Vec<u32>,
    /// `pre[offset(v) + j] = max(0, val_0 … val_{j−1})` — flat per-edge
    /// array indexed through the substrate's CSR offsets (one allocation
    /// instead of a `Vec<Vec<f64>>` per oracle; the substrate refactor's
    /// memory layout applied to the DP state).
    pre: Vec<f64>,
    /// `suf[offset(v) + j] = max(val_j … val_{k−1})`, same flat layout.
    suf: Vec<f64>,
}

impl NetWorthOracle {
    /// Run the bottom-up DP once: `O(n)`.
    pub fn new(ut: &UniversalTree, u: &[f64]) -> Self {
        let sub = ut.substrate().clone();
        let n = sub.network().n_stations();
        assert_eq!(u.len(), n);
        let n_edges = sub.n_edges();
        let mut oracle = Self {
            ut: ut.clone(),
            u: u.to_vec(),
            h: vec![0.0f64; n],
            best: vec![0.0f64; n],
            choice: vec![0u32; n],
            pre: vec![0.0f64; n_edges],
            suf: vec![f64::NEG_INFINITY; n_edges],
        };
        for &v in sub.bfs_order().iter().rev() {
            oracle.recompute_station(&sub, v.index());
        }
        oracle
    }

    /// Recompute every stored DP quantity at station `v` from its
    /// children's current `h` values — one step of the bottom-up pass
    /// ([`NetWorthOracle::new`]); `SparseNetWorth`'s kernel replays it on
    /// local ids. `O(children of v)`.
    fn recompute_station(&mut self, sub: &crate::substrate::TreeSubstrate, v: usize) {
        let net = sub.network();
        let s = net.source();
        let kids = sub.sorted_children(v);
        let k = kids.len();
        let base = sub.csr_offset(v);
        let own = if v == s { 0.0 } else { self.u[v].max(0.0) };
        // Raw prefix values go into the suf slice first (it is rewritten
        // into suffix maxima in place below), so no per-call allocation.
        let mut acc = 0.0f64;
        for (j, &y) in kids.iter().enumerate() {
            let y = y.index();
            acc += self.h[y];
            // Cached tree-edge cost — bit-identical to net.cost(v, y).
            self.suf[base + j] = acc - sub.parent_cost(y);
        }
        // Exact total order on value; larger prefix on true ties.
        let mut b = 0.0f64;
        let mut bj = 0usize;
        for j in 0..k {
            let val = self.suf[base + j];
            if val >= b {
                b = val;
                bj = j + 1;
            }
        }
        // pre[j] = max(0, val_0 … val_{j−1}): running maximum.
        let mut run = 0.0f64;
        for j in 0..k {
            self.pre[base + j] = run;
            run = run.max(self.suf[base + j]);
        }
        // Fold the raw values into suffix maxima, right to left.
        for j in (0..k.saturating_sub(1)).rev() {
            self.suf[base + j] = self.suf[base + j].max(self.suf[base + j + 1]);
        }
        self.h[v] = own + b;
        self.best[v] = b;
        self.choice[v] = u32::try_from(bj).expect("child count fits u32");
    }

    /// Station `x`'s current utility as stored by the oracle.
    pub fn utility(&self, x: usize) -> f64 {
        self.u[x]
    }

    /// Maximal net worth `NW(u)`.
    pub fn net_worth(&self) -> f64 {
        self.h[self.ut.network().source()]
    }

    /// The largest welfare-maximising station set and its net worth.
    pub fn efficient_set(&self) -> (Vec<usize>, f64) {
        let (set, nw, _) = self.efficient_set_with_cost();
        (set, nw)
    }

    /// The largest welfare-maximising station set, its net worth and its
    /// cost `C_T(set)`, from one walk of the chosen prefixes down from
    /// the source. The set is path-closed, so a station's children in
    /// `T(set)` are exactly its chosen prefix and it transmits at the
    /// cost of the prefix's last child; the powers are summed in
    /// ascending station id — bitwise equal to `ut.multicast_cost(&set)`.
    pub fn efficient_set_with_cost(&self) -> (Vec<usize>, f64, f64) {
        let sub = self.ut.substrate();
        let s = sub.network().source();
        let mut reached = Vec::new();
        let mut powers = Vec::new();
        let mut stack = vec![s];
        while let Some(v) = stack.pop() {
            if v != s {
                reached.push(v);
            }
            let mut last = None;
            for &y in sub.sorted_children(v).iter().take(self.choice[v] as usize) {
                stack.push(y.index());
                last = Some(y);
            }
            if let Some(y) = last {
                powers.push((v, sub.parent_cost(y.index())));
            }
        }
        reached.sort_unstable();
        (reached, self.net_worth(), served_cost_of(powers))
    }

    /// `NW(u_{−x})`: maximal net worth with station `x`'s utility set to
    /// zero, in `O(depth of x)`. Agrees with a full DP on the modified
    /// profile up to float reassociation (pinned by property tests).
    pub fn net_worth_zeroing(&self, x: usize) -> f64 {
        let sub = self.ut.substrate();
        let s = sub.network().source();
        assert!(x != s, "the source has no utility to zero");
        // Zeroing only lowers own(x); the subtree below x is unchanged.
        let mut v = x;
        let mut hv = self.best[x];
        while v != s {
            if hv == self.h[v] {
                // Nothing changed at v, so nothing changes above it.
                return self.h[s];
            }
            let p = sub.parent_of(v);
            debug_assert!(p != NONE, "non-source station has a parent");
            let j = sub.csr_offset(p) + sub.pos_in_parent(v);
            let delta = hv - self.h[v];
            let b = self.pre[j].max(self.suf[j] + delta);
            let own_p = if p == s { 0.0 } else { self.u[p].max(0.0) };
            hv = own_p + b;
            v = p;
        }
        hv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SubstrateBuilder;
    use crate::network::WirelessNetwork;
    use crate::random_tree;
    use crate::sparse::{SparseNetWorth, SparseShapley};
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_geom::{approx_eq, Point, PowerModel};
    use wmcs_graph::RootedTree;

    /// Chain 0 → 1 → 2 plus branch 1 → 3 (the universal.rs fixture).
    fn chain_tree() -> UniversalTree {
        let pts = vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(2.0, 0.0),
            Point::xy(1.0, 2.0),
        ];
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        let tree = RootedTree::from_parents(0, vec![None, Some(0), Some(1), Some(1)]);
        SubstrateBuilder::from_owned(net)
            .explicit_tree(tree)
            .build_universal()
    }

    #[test]
    fn round_shares_match_the_reference_split() {
        let ut = chain_tree();
        for receivers in [vec![1], vec![2], vec![3], vec![2, 3], vec![1, 2, 3]] {
            let reference = ut.shapley_shares(&receivers);
            let mut engine = IncrementalShapley::new(&ut, &receivers);
            let fast = engine.round_shares_by_station();
            for &r in &receivers {
                assert!(
                    approx_eq(fast[r], reference[r]),
                    "R = {receivers:?}, station {r}: {} ≠ {}",
                    fast[r],
                    reference[r]
                );
            }
        }
    }

    #[test]
    fn dropping_matches_recomputation_from_scratch() {
        for seed in 0..20 {
            let ut = random_tree(seed, 12);
            let mut engine = IncrementalShapley::new(&ut, &ut.network().non_source_stations());
            let mut alive: Vec<usize> = ut.network().non_source_stations();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xd0b);
            while alive.len() > 1 {
                let victim = alive.remove(rng.gen_range(0..alive.len()));
                engine.drop_receiver(victim);
                let fast = engine.round_shares_by_station().to_vec();
                let reference = ut.shapley_shares(&alive);
                for &r in &alive {
                    assert!(
                        approx_eq(fast[r], reference[r]),
                        "seed {seed}, alive {alive:?}, station {r}: {} ≠ {}",
                        fast[r],
                        reference[r]
                    );
                }
            }
        }
    }

    #[test]
    fn add_and_drop_walk_matches_recomputation_from_scratch() {
        // A random join/leave walk over the receiver set on the warm
        // frame engine: after every step its round shares and served
        // cost must equal, bit for bit, a cold engine built from scratch
        // on the current set (and the shares the reference split), so
        // joins exactly invert drops.
        for seed in 0..20 {
            let ut = random_tree(seed, 14);
            let all = ut.network().non_source_stations();
            let mut engine = SparseShapley::new(&ut);
            let mut local = vec![u32::MAX; ut.network().n_stations()];
            let mut alive: Vec<usize> = Vec::new();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xadd);
            for _step in 0..60 {
                if alive.is_empty() || (alive.len() < all.len() && rng.gen_bool(0.5)) {
                    let candidates: Vec<usize> =
                        all.iter().copied().filter(|v| !alive.contains(v)).collect();
                    let v = candidates[rng.gen_range(0..candidates.len())];
                    local[v] = engine.add_receiver(v);
                    alive.push(v);
                } else {
                    let v = alive.remove(rng.gen_range(0..alive.len()));
                    engine.drop_receiver_local(local[v]);
                }
                if alive.is_empty() {
                    continue;
                }
                let mut cold = IncrementalShapley::new(&ut, &alive);
                assert_eq!(
                    engine.served_cost().to_bits(),
                    cold.served_cost().to_bits(),
                    "seed {seed}, alive {alive:?}"
                );
                let fast = engine.round_shares_by_local().to_vec();
                let fresh = cold.round_shares_by_station();
                let reference = ut.shapley_shares(&alive);
                for &r in &alive {
                    let warm = fast[local[r] as usize];
                    assert_eq!(
                        warm.to_bits(),
                        fresh[r].to_bits(),
                        "seed {seed}, station {r}"
                    );
                    assert!(
                        approx_eq(warm, reference[r]),
                        "seed {seed}, alive {alive:?}, station {r}: {warm} ≠ {}",
                        reference[r]
                    );
                }
            }
        }
    }

    #[test]
    fn drop_run_from_subset_matches_cold_engine_on_that_subset() {
        for seed in 0..20 {
            let ut = random_tree(seed, 11);
            let n = ut.network().n_players();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5b5e7);
            let u: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
            let players: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.6)).collect();
            let out = shapley_drop_run_from(&ut, &u, &players);
            // Every receiver came from the initial subset and affords its
            // share; the full-set run is the players == all special case.
            assert!(out.receivers.iter().all(|p| players.contains(p)));
            for &p in &out.receivers {
                assert!(u[p] >= out.shares[p] - wmcs_geom::EPS);
            }
            let all: Vec<usize> = (0..n).collect();
            let from_all = shapley_drop_run_from(&ut, &u, &all);
            let plain = shapley_drop_run(&ut, &u);
            assert_eq!(from_all.receivers, plain.receivers, "seed {seed}");
            assert_eq!(from_all.shares, plain.shares, "seed {seed}");
        }
    }

    #[test]
    fn set_utility_repairs_the_oracle_byte_for_byte() {
        // The warm frame oracle, repaired one utility at a time from a
        // fully populated profile, equals a cold DP on the same profile
        // in every query.
        for seed in 0..20 {
            let ut = random_tree(seed, 12);
            let n = ut.network().n_stations();
            let s = ut.network().source();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e7);
            let mut u: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..8.0)).collect();
            u[s] = 0.0;
            let mut warm = SparseNetWorth::new(&ut);
            for x in ut.network().non_source_stations() {
                warm.set_utility(x, u[x]);
            }
            for _event in 0..25 {
                let x = loop {
                    let x = rng.gen_range(0..n);
                    if x != s {
                        break x;
                    }
                };
                let v = if rng.gen_bool(0.3) {
                    0.0
                } else {
                    rng.gen_range(0.0..8.0)
                };
                u[x] = v;
                warm.set_utility(x, v);
                let cold = NetWorthOracle::new(&ut, &u);
                assert_eq!(warm.net_worth(), cold.net_worth(), "seed {seed}");
                assert_eq!(warm.efficient_set(), cold.efficient_set(), "seed {seed}");
                for y in ut.network().non_source_stations() {
                    assert_eq!(
                        warm.net_worth_zeroing(y),
                        cold.net_worth_zeroing(y),
                        "seed {seed}, station {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_run_equals_reference_run() {
        for seed in 0..30 {
            let ut = random_tree(seed, 9);
            let n = ut.network().n_players();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xfeed);
            let u: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..12.0)).collect();
            let fast = shapley_drop_run(&ut, &u);
            let reference = reference_drop_run(&ut, &u);
            assert_eq!(fast.receivers, reference.receivers, "seed {seed}");
            assert_eq!(fast.shares, reference.shares, "seed {seed}");
            assert_eq!(fast.served_cost, reference.served_cost, "seed {seed}");
        }
    }

    #[test]
    fn stats_count_rounds_and_drops() {
        let ut = chain_tree();
        // All rich: one fixpoint round, no drops.
        let (_, stats) = shapley_drop_run_with_stats(&ut, &[100.0, 100.0, 100.0]);
        assert_eq!(
            stats,
            DropStats {
                rounds: 1,
                dropped: 0
            }
        );
        // All poor: everyone drops in round 1, empty fixpoint.
        let (out, stats) = shapley_drop_run_with_stats(&ut, &[0.0, 0.0, 0.0]);
        assert!(out.receivers.is_empty());
        assert_eq!(stats.dropped, 3);
    }

    #[test]
    fn oracle_matches_full_dp_after_zeroing() {
        for seed in 0..20 {
            let ut = random_tree(seed, 10);
            let n = ut.network().n_stations();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xace);
            let u: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..8.0)).collect();
            let oracle = NetWorthOracle::new(&ut, &u);
            assert!(
                approx_eq(oracle.net_worth(), ut.net_worth(&u)),
                "seed {seed}"
            );
            for x in (0..n).filter(|&x| x != ut.network().source()) {
                let mut u_minus = u.clone();
                u_minus[x] = 0.0;
                let full = ut.net_worth(&u_minus);
                let fast = oracle.net_worth_zeroing(x);
                assert!(
                    (full - fast).abs() < 1e-9 * (1.0 + full.abs()),
                    "seed {seed}, station {x}: full {full} ≠ fast {fast}"
                );
            }
        }
    }

    #[test]
    fn oracle_efficient_set_net_worth_is_consistent_with_its_set() {
        // The satellite invariant: the returned net worth must be the
        // welfare of the returned set (exact tie-break, no EPS drift).
        for seed in 0..20 {
            let ut = random_tree(seed, 10);
            let n = ut.network().n_stations();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xbee);
            let u: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..8.0)).collect();
            let (set, nw) = ut.largest_efficient_set(&u);
            let util: f64 = set.iter().map(|&x| u[x].max(0.0)).sum();
            let welfare = util - ut.multicast_cost(&set);
            assert!(
                (welfare - nw).abs() < 1e-9 * (1.0 + nw.abs()),
                "seed {seed}: set welfare {welfare} ≠ net worth {nw}"
            );
        }
    }
}
