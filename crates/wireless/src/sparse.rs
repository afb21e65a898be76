//! The warm engines: per-group memory `O(|T(R_g)|)`, not `O(n)`.
//!
//! Both §2.1 mechanisms are served warm from here —
//! [`SparseShapleySession`] (Moulin–Shenker over Shapley shares) and
//! [`SparseMcSession`] (marginal cost / VCG). Their state lives on a
//! per-group [`Subframe`] (see `DESIGN.md` §2f): every warm array is a
//! `Vec` over *local* ids of the members' path closure, joins splice new
//! path suffixes in incrementally, and the cost-ordered child lists, the
//! `O(path)` drop loop and the `O(depth)` pre/suf VCG queries all run in
//! local coordinates. `G` warm groups over an `n = 10⁵` universe pay
//! `G × O(|closure|)` bytes, not `G × O(n)`.
//!
//! # Byte-identity contract
//!
//! Every outcome — receivers, every share float, the served cost — is
//! **bit-for-bit equal** to the cold references of [`crate::incremental`]
//! ([`shapley_drop_run_from`](crate::incremental::shapley_drop_run_from)
//! for Shapley, [`vcg_outcome`](crate::session::vcg_outcome) over a fresh
//! [`NetWorthOracle`](crate::incremental::NetWorthOracle) for MC), which
//! index the whole universe, because
//!
//! * the frame's in-frame child lists preserve the substrate's global
//!   cost order, so every local traversal replays the universe-indexed
//!   traversal on the same floats in the same order;
//! * stations outside the frame have no receivers and zero utility, so
//!   their universe-indexed DP state is *exactly* `h = 0.0` (not
//!   approximately: `own = 0`, every prefix value `≤ 0` loses to the
//!   initial `b = 0.0`), and adding `0.0` to a non-negative accumulator
//!   is a bitwise no-op — the pass over all `n` stations and the pass
//!   over the frame run the *same* float operations;
//! * final outcomes come from the same folds as the references: the
//!   charged shares are the fixpoint round's (the round in which nobody
//!   dropped), whose top-down fold adds the same slices in the same
//!   order as [`UniversalTree::shapley_shares`], and the served cost
//!   sums the same per-station powers in the same ascending station
//!   order as `multicast_cost`. Neither reference runs on a reprice;
//!   both stay the oracle the tests check against.
//!
//! The contract is pinned by `tests/sparse_props.rs` and
//! `tests/session_props.rs` across all five layout families × both
//! mechanisms × churn traces, and gated at table scale by experiments
//! T11 and T15.
//!
//! Per-reprice outputs (the full-length share vector of a
//! [`MechanismOutcome`]) remain `O(n)` *transient*; only the **warm**
//! (retained) state is frame-sized.

use crate::session::ChurnEvent;
use crate::substrate::{Subframe, TreeSubstrate};
use crate::universal::{served_cost_of, UniversalTree};
use std::collections::BinaryHeap;
use wmcs_game::MechanismOutcome;
use wmcs_geom::EPS;

/// Local alias for the frame's "no local station" sentinel.
const NO_LOCAL: u32 = Subframe::NONE;

/// The frame-local Moulin–Shenker engine: the subtree receiver counts
/// and cost-ordered active-children lists of
/// [`crate::incremental::IncrementalShapley`], indexed by [`Subframe`]
/// local ids, so the warm footprint is `O(|frame|)` instead of `O(n)`.
///
/// Invariant (the byte-identity anchor): for every in-frame station the
/// stored `rb`/link state equals what a universe-indexed engine built on
/// the same receivers stores at the corresponding global station, and
/// out-of-frame stations would be all-zero there (no receiver outside
/// the closure — the frame contains every member's root path by
/// construction).
#[derive(Debug, Clone)]
pub struct SparseShapley {
    ut: UniversalTree,
    frame: Subframe,
    /// Is the local station an active receiver?
    in_r: Vec<bool>,
    /// Active receivers in the local station's subtree.
    rb: Vec<u32>,
    /// Intrusive cost-ordered list of each local station's children with
    /// `rb > 0`, in local ids ([`Subframe::NONE`] ends a chain).
    first_child: Vec<u32>,
    next_sib: Vec<u32>,
    prev_sib: Vec<u32>,
    /// Scratch: accumulated root-path share prefix per local station.
    down: Vec<f64>,
    /// Scratch: per-local-station shares of the last round.
    shares: Vec<f64>,
    /// Scratch: DFS stack of local ids.
    stack: Vec<u32>,
    rounds: usize,
}

impl SparseShapley {
    /// An empty engine over `ut` (nobody served; the frame is just the
    /// source). `O(1)` — this is the whole point: no universe-sized
    /// allocation ever happens on the sparse path.
    pub fn new(ut: &UniversalTree) -> Self {
        let frame = Subframe::new(ut.substrate());
        Self {
            ut: ut.clone(),
            frame,
            in_r: vec![false],
            rb: vec![0],
            first_child: vec![NO_LOCAL],
            next_sib: vec![NO_LOCAL],
            prev_sib: vec![NO_LOCAL],
            down: vec![0.0],
            shares: vec![0.0],
            stack: Vec::new(),
            rounds: 0,
        }
    }

    /// Grow the parallel arrays to the frame's current length (new
    /// locals start inactive / unlinked — exactly the state of a station
    /// with no receiver below it).
    fn sync_frame(&mut self) {
        let len = self.frame.len();
        if self.in_r.len() < len {
            self.in_r.resize(len, false);
            self.rb.resize(len, 0);
            self.first_child.resize(len, NO_LOCAL);
            self.next_sib.resize(len, NO_LOCAL);
            self.prev_sib.resize(len, NO_LOCAL);
            self.down.resize(len, 0.0);
            self.shares.resize(len, 0.0);
        }
    }

    /// Add receiver `station`, growing the frame by its out-of-frame
    /// root-path suffix if needed, and return the station's local id
    /// (stable for the session's lifetime — the frame is append-only).
    /// `O(path)` amortised; the resulting state equals a fresh
    /// [`crate::incremental::IncrementalShapley::new`] on the enlarged
    /// set because the nearest active cost-order predecessor is always
    /// in frame.
    pub fn add_receiver(&mut self, station: usize) -> u32 {
        let sub = self.ut.substrate().clone();
        assert!(
            station != sub.network().source(),
            "the source cannot be a receiver"
        );
        let v = self.frame.ensure(&sub, station);
        self.sync_frame();
        debug_assert!(
            !self.in_r[v as usize],
            "station {station} is already an active receiver"
        );
        self.in_r[v as usize] = true;
        let mut w = v;
        loop {
            self.rb[w as usize] += 1;
            let p = self.frame.parent_local(w);
            if p == NO_LOCAL {
                break;
            }
            if self.rb[w as usize] == 1 {
                // w entered T(R): splice it into p's active children just
                // after its nearest active cost-order predecessor. The
                // frame's child list is the substrate's cost order
                // restricted to the closure, and active stations are
                // always in frame, so the splice point is the one a
                // universe-indexed list would use.
                let wpos = self.frame.pos_in_parent(w);
                // The nearest active predecessor is the LAST in-frame
                // sibling before w's cost position with rb > 0 — a
                // forward walk of the sorted sibling list.
                let mut pr = NO_LOCAL;
                for c in self.frame.children(p) {
                    if self.frame.pos_in_parent(c) >= wpos {
                        break;
                    }
                    if self.rb[c as usize] > 0 {
                        pr = c;
                    }
                }
                let nx = if pr == NO_LOCAL {
                    self.first_child[p as usize]
                } else {
                    self.next_sib[pr as usize]
                };
                self.prev_sib[w as usize] = pr;
                self.next_sib[w as usize] = nx;
                if pr == NO_LOCAL {
                    self.first_child[p as usize] = w;
                } else {
                    self.next_sib[pr as usize] = w;
                }
                if nx != NO_LOCAL {
                    self.prev_sib[nx as usize] = w;
                }
            }
            w = p;
        }
        v
    }

    /// Drop the receiver at local id `v` (obtained from
    /// [`SparseShapley::add_receiver`]):
    /// [`crate::incremental::IncrementalShapley::drop_receiver`] in local
    /// coordinates. `O(depth)`.
    pub fn drop_receiver_local(&mut self, v: u32) {
        debug_assert!(self.in_r[v as usize], "local {v} is not an active receiver");
        self.in_r[v as usize] = false;
        let mut w = v;
        loop {
            self.rb[w as usize] -= 1;
            let p = self.frame.parent_local(w);
            if p == NO_LOCAL {
                break;
            }
            if self.rb[w as usize] == 0 {
                // w left T(R): unlink it from p's active children.
                let (pr, nx) = (self.prev_sib[w as usize], self.next_sib[w as usize]);
                if pr == NO_LOCAL {
                    self.first_child[p as usize] = nx;
                } else {
                    self.next_sib[pr as usize] = nx;
                }
                if nx != NO_LOCAL {
                    self.prev_sib[nx as usize] = pr;
                }
            }
            w = p;
        }
    }

    /// One round of the paper's §2.1 split over the frame —
    /// [`crate::incremental::IncrementalShapley::round_shares_by_station`]
    /// pass replayed on local ids: same DFS order (the active-children
    /// lists preserve global cost order), same prefix-sum arithmetic,
    /// `O(|T(R)|)` instead of touching any universe-sized array. Returns
    /// per-**local** shares (stale outside the active set).
    pub fn round_shares_by_local(&mut self) -> &[f64] {
        self.rounds += 1;
        self.down[Subframe::ROOT as usize] = 0.0;
        self.stack.clear();
        self.stack.push(Subframe::ROOT);
        while let Some(x) = self.stack.pop() {
            let xi = x as usize;
            if self.in_r[xi] {
                self.shares[xi] = self.down[xi];
            }
            let mut remaining = self.rb[xi] - u32::from(self.in_r[xi]);
            let mut prev_cost = 0.0;
            let mut acc = self.down[xi];
            let mut y = self.first_child[xi];
            while y != NO_LOCAL {
                let yi = y as usize;
                // Frame-cached edge cost — bit-identical to the substrate's.
                let cost = self.frame.parent_cost(y);
                let delta = cost - prev_cost;
                prev_cost = cost;
                if delta > 0.0 {
                    debug_assert!(remaining > 0, "every active branch has a receiver");
                    acc += delta / remaining as f64;
                }
                self.down[yi] = acc;
                remaining -= self.rb[yi];
                self.stack.push(y);
                y = self.next_sib[yi];
            }
        }
        &self.shares
    }

    /// `C_T(R)` of the current receiver set —
    /// [`crate::incremental::IncrementalShapley::served_cost`]'s walk over
    /// the frame: each local station with an active child transmits at
    /// the cost of its last active child, and the powers are summed in
    /// ascending **global** station id, bitwise equal to
    /// `ut.multicast_cost(&self.active_stations())`.
    pub fn served_cost(&self) -> f64 {
        let mut powers = Vec::new();
        let mut stack = vec![Subframe::ROOT];
        while let Some(x) = stack.pop() {
            let mut last = NO_LOCAL;
            let mut y = self.first_child[x as usize];
            while y != NO_LOCAL {
                stack.push(y);
                last = y;
                y = self.next_sib[y as usize];
            }
            if last != NO_LOCAL {
                powers.push((self.frame.global_of(x), self.frame.parent_cost(last)));
            }
        }
        served_cost_of(powers)
    }

    /// The currently-active receiver stations (global ids), ascending —
    /// what the `shapley_shares` / `multicast_cost` references consume.
    pub fn active_stations(&self) -> Vec<usize> {
        let mut out: Vec<usize> = (0..self.frame.len())
            .filter(|&l| self.in_r[l])
            .map(|l| {
                self.frame
                    .global_of(u32::try_from(l).expect("frame ids fit u32"))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Closure size (local stations, including the source).
    pub fn frame_len(&self) -> usize {
        self.frame.len()
    }

    /// Heap bytes of the warm per-group state: the frame plus every
    /// local-id array. This is the figure that must scale with
    /// `|T(R_g)|`, not `n`.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.frame.memory_bytes()
            + self.in_r.capacity() * size_of::<bool>()
            + (self.rb.capacity()
                + self.first_child.capacity()
                + self.next_sib.capacity()
                + self.prev_sib.capacity()
                + self.stack.capacity())
                * size_of::<u32>()
            + (self.down.capacity() + self.shares.capacity()) * size_of::<f64>()
    }

    /// Drop doubling-growth slack so steady-state warm bytes equal the
    /// exact closure footprint (called by the session at reprice time;
    /// no-op when tight).
    fn shrink_to_fit(&mut self) {
        self.frame.shrink_to_fit();
        self.in_r.shrink_to_fit();
        self.rb.shrink_to_fit();
        self.first_child.shrink_to_fit();
        self.next_sib.shrink_to_fit();
        self.prev_sib.shrink_to_fit();
        self.down.shrink_to_fit();
        self.shares.shrink_to_fit();
    }
}

/// The frame-local net-worth oracle: the largest-efficient-set DP of
/// [`NetWorthOracle`](crate::incremental::NetWorthOracle) with `O(depth)`
/// zeroing queries, holding state only for the grow-only path closure of
/// every station that ever carried a bid.
///
/// Out-of-frame stations carry zero utility and have no in-frame
/// descendants (the closure is path-closed), so their universe-indexed
/// DP state is *exactly* `h = best = 0.0` with `choice` = their leading
/// run of zero-cost children — reproducible on the fly without storing
/// anything. The per-station kernel scans **all** global children of an
/// in-frame station (out-of-frame ones contribute an exact `+0.0`), so
/// every stored float is bitwise equal to the cold oracle's.
///
/// Unlike the cold oracle's flat per-edge `pre`/`suf` arrays, this oracle
/// stores each station's prefix/suffix maxima **only at the station's
/// own edge** (one `f64` pair per local id), written by the parent's
/// kernel. The parent's kernel reruns whenever any child's `h` changed,
/// so the slots are current wherever the zeroing walk reads them: it
/// reads them at `v` only when zeroing moves `h[v]`, so `h[v] > 0`, and
/// every move of `h[v]` away from its initial `0.0` reran the parent
/// (`DESIGN.md` §2f).
///
/// Utility changes are batched: [`SparseNetWorth::set_utility`] (and a
/// session's whole `apply_events`) installs utilities and splices frame
/// suffixes first, then one repair reruns each dirty kernel once,
/// deepest local id first.
#[derive(Debug, Clone)]
pub struct SparseNetWorth {
    ut: UniversalTree,
    frame: Subframe,
    /// Utilities by local station, as given (the DP clamps at 0 on use).
    u: Vec<f64>,
    /// `h[v]`: best net worth of the subtree game rooted at `v`.
    h: Vec<f64>,
    /// The chosen best prefix value at `v` (`h[v] = own(v) + best[v]`).
    best: Vec<f64>,
    /// Chosen prefix length at `v` over its **global** child slice.
    choice: Vec<u32>,
    /// `pre[v] = max(0, val_0 … val_{pos(v)−1})` at `v`'s own edge in its
    /// parent's slice — written by the parent's recompute.
    pre: Vec<f64>,
    /// `suf[v] = max(val_{pos(v)} … val_{k−1})`, same convention.
    suf: Vec<f64>,
    /// Scratch: raw prefix values over one station's global child slice.
    scratch: Vec<f64>,
    /// Scratch: one station's in-frame children (the kernel needs them
    /// indexable while it mutates `pre`/`suf`).
    fkids: Vec<u32>,
    /// Locals whose kernel the next repair must rerun (a new utility, a
    /// fresh frame station, or a child whose `h` moved); empty between
    /// repairs.
    dirty: BinaryHeap<u32>,
    /// Kernel runs so far — the repair's deterministic work count.
    kernel_runs: u64,
}

impl SparseNetWorth {
    /// An empty oracle over `ut` (all utilities zero; the frame is just
    /// the source). `O(deg(source))` for the root's initial kernel run.
    pub fn new(ut: &UniversalTree) -> Self {
        let sub = ut.substrate().clone();
        let frame = Subframe::new(&sub);
        let mut oracle = Self {
            ut: ut.clone(),
            frame,
            u: vec![0.0],
            h: vec![0.0],
            best: vec![0.0],
            choice: vec![0],
            pre: vec![0.0],
            suf: vec![f64::NEG_INFINITY],
            scratch: Vec::new(),
            fkids: Vec::new(),
            dirty: BinaryHeap::new(),
            kernel_runs: 0,
        };
        oracle.recompute_local(&sub, Subframe::ROOT);
        oracle
    }

    /// Grow the parallel arrays to the frame's current length and mark
    /// the new locals dirty: they start with the `h`/`best` of an
    /// all-zero subtree, and their kernel run (the next repair) fixes
    /// `choice`, the leading run of zero-cost children.
    fn sync_frame(&mut self) {
        let old = self.u.len();
        let len = self.frame.len();
        if old < len {
            self.u.resize(len, 0.0);
            self.h.resize(len, 0.0);
            self.best.resize(len, 0.0);
            self.choice.resize(len, 0);
            self.pre.resize(len, 0.0);
            self.suf.resize(len, f64::NEG_INFINITY);
            self.dirty
                .extend((old..len).map(|l| u32::try_from(l).expect("frame ids fit u32")));
        }
    }

    /// The [`NetWorthOracle`](crate::incremental::NetWorthOracle)
    /// per-station kernel in local coordinates: recompute
    /// `h`/`best`/`choice` at local `v` and write the `pre`/`suf` entries
    /// of `v`'s **in-frame** children. Scans all global children of `v` —
    /// out-of-frame ones contribute their exact value `h = 0.0`, so the
    /// float stream is identical to the cold kernel's. `O(global degree
    /// of v)`.
    fn recompute_local(&mut self, sub: &TreeSubstrate, v: u32) {
        self.kernel_runs += 1;
        let vg = self.frame.global_of(v);
        let kids_g = sub.sorted_children(vg);
        let k = kids_g.len();
        let mut fkids = std::mem::take(&mut self.fkids);
        fkids.clear();
        fkids.extend(self.frame.children(v));
        let nf = fkids.len();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        // Raw prefix values val_j = Σ_{i≤j} h(y_i) − c(v, y_j).
        let mut acc = 0.0f64;
        let mut fi = 0usize;
        for (j, &y) in kids_g.iter().enumerate() {
            let mut hy = 0.0;
            if fi < nf {
                let c = fkids[fi];
                if self.frame.pos_in_parent(c) as usize == j {
                    hy = self.h[c as usize];
                    fi += 1;
                }
            }
            acc += hy;
            scratch.push(acc - sub.parent_cost(y.index()));
        }
        debug_assert_eq!(fi, nf, "every in-frame child sits in the global slice");
        // Exact total order on value; larger prefix on true ties.
        let mut b = 0.0f64;
        let mut bj = 0usize;
        for (j, &val) in scratch.iter().enumerate() {
            if val >= b {
                b = val;
                bj = j + 1;
            }
        }
        // pre[c] = max(0, val_0 … val_{pos(c)−1}): running maximum,
        // recorded at each in-frame child's own slot.
        let mut run = 0.0f64;
        let mut fi = 0usize;
        for (j, &val) in scratch.iter().enumerate() {
            if fi < nf {
                let c = fkids[fi];
                if self.frame.pos_in_parent(c) as usize == j {
                    self.pre[c as usize] = run;
                    fi += 1;
                }
            }
            run = run.max(val);
        }
        // suf[c] = max(val_{pos(c)} … val_{k−1}), folded right to left
        // with the cold kernel's operand order (raw value first).
        let mut cur = f64::NEG_INFINITY;
        let mut fi = nf;
        for (j, &val) in scratch.iter().enumerate().rev() {
            cur = if j + 1 == k { val } else { val.max(cur) };
            if fi > 0 {
                let c = fkids[fi - 1];
                if self.frame.pos_in_parent(c) as usize == j {
                    self.suf[c as usize] = cur;
                    fi -= 1;
                }
            }
        }
        let own = if v == Subframe::ROOT {
            0.0
        } else {
            self.u[v as usize].max(0.0)
        };
        self.h[v as usize] = own + b;
        self.best[v as usize] = b;
        self.choice[v as usize] = u32::try_from(bj).expect("child count fits u32");
        self.scratch = scratch;
        self.fkids = fkids;
    }

    /// Bring `station` into the frame and return its local id: an unseen
    /// station first splices its path suffix in, whose new locals wait
    /// dirty for the next repair (their subtrees are all-zero, so no
    /// ancestor changes until a utility lands).
    fn ensure_local(&mut self, sub: &TreeSubstrate, station: usize) -> u32 {
        assert!(
            station != sub.network().source(),
            "the source has no utility"
        );
        let v = self.frame.ensure(sub, station);
        self.sync_frame();
        v
    }

    /// Install the utility at local `v` and mark `v` dirty; the DP is
    /// stale until the next [`SparseNetWorth::repair`].
    fn install_utility(&mut self, v: u32, utility: f64) {
        self.u[v as usize] = utility;
        self.dirty.push(v);
    }

    /// Bring the DP up to date with every installed utility: pop the
    /// dirty locals deepest id first, skipping duplicates, rerun each
    /// one's kernel once, and mark its parent dirty whenever its `h`
    /// moved. The frame appends top-down, so a parent's local id is
    /// below all of its children's, and each kernel runs after every
    /// dirty child's. Each stored float is then a pure function of the
    /// current utilities — the cold
    /// [`NetWorthOracle`](crate::incremental::NetWorthOracle) DP's,
    /// bitwise — however many events the batch held.
    fn repair(&mut self, sub: &TreeSubstrate) {
        let start = self.kernel_runs;
        while let Some(v) = self.dirty.pop() {
            while self.dirty.peek() == Some(&v) {
                self.dirty.pop();
            }
            let before = self.h[v as usize];
            self.recompute_local(sub, v);
            if self.h[v as usize] != before && v != Subframe::ROOT {
                self.dirty.push(self.frame.parent_local(v));
            }
        }
        debug_assert!(
            self.kernel_runs - start <= self.frame.len() as u64,
            "a repair runs each local's kernel at most once"
        );
    }

    /// Replace `station`'s utility (growing the frame first if the
    /// station is unseen) and repair the DP.
    pub fn set_utility(&mut self, station: usize, utility: f64) {
        let sub = self.ut.substrate().clone();
        let v = self.ensure_local(&sub, station);
        self.install_utility(v, utility);
        self.repair(&sub);
    }

    /// Local id of `station`, or [`Subframe::NONE`] when it is out of
    /// frame.
    fn local_or_none(&self, station: usize) -> u32 {
        self.frame.local_of(station).unwrap_or(NO_LOCAL)
    }

    /// The utility at local `v` (zero out of frame — a station that never
    /// carried a bid).
    fn utility_local(&self, v: u32) -> f64 {
        if v == NO_LOCAL {
            0.0
        } else {
            self.u[v as usize]
        }
    }

    /// `station`'s current utility (zero for stations that never carried
    /// a bid — exactly the cold oracle's value for them).
    pub fn utility(&self, station: usize) -> f64 {
        self.utility_local(self.local_or_none(station))
    }

    /// Maximal net worth `NW(u)`.
    pub fn net_worth(&self) -> f64 {
        self.h[Subframe::ROOT as usize]
    }

    /// The largest welfare-maximising station set and its net worth.
    pub fn efficient_set(&self) -> (Vec<usize>, f64) {
        let (set, nw, _) = self.efficient_set_with_cost();
        (set, nw)
    }

    /// The largest welfare-maximising station set, its net worth and its
    /// cost — the cold
    /// [`NetWorthOracle::efficient_set_with_cost`](crate::incremental::NetWorthOracle::efficient_set_with_cost)
    /// walk, bitwise.
    pub fn efficient_set_with_cost(&self) -> (Vec<usize>, f64, f64) {
        let (reached, cost) = self.selection();
        let set = reached.into_iter().map(|(x, _)| x).collect();
        (set, self.net_worth(), cost)
    }

    /// The selection walk behind [`SparseNetWorth::efficient_set_with_cost`]:
    /// every reached station as `(global, local)`, ascending by global
    /// id, and the set's cost.
    ///
    /// Each stack entry carries its local id, so no station is looked up.
    /// A station's children are its global cost-sorted slice merge-walked
    /// against the frame's position-sorted in-frame children (the way
    /// [`SparseNetWorth::recompute_local`] scans them); a child the frame
    /// lacks carries [`Subframe::NONE`], and so do all its descendants
    /// (the frame is path-closed). An out-of-frame station's chosen
    /// prefix is reproduced on the fly: its leading run of zero-cost
    /// children (every `val_j = −c_j`, and only `c_j = 0` survives the
    /// exact `val ≥ 0.0` tie-break). It transmits at cost `0.0`, an exact
    /// no-op in the ascending-station sum.
    fn selection(&self) -> (Vec<(usize, u32)>, f64) {
        let sub = self.ut.substrate();
        let mut reached = Vec::new();
        let mut powers = Vec::new();
        let mut stack = vec![(sub.network().source(), Subframe::ROOT)];
        while let Some((x, l)) = stack.pop() {
            if l != Subframe::ROOT {
                reached.push((x, l));
            }
            let kids = sub.sorted_children(x);
            let (take, mut framed) = if l == NO_LOCAL {
                let zero_run = kids
                    .iter()
                    .take_while(|&&y| sub.parent_cost(y.index()) == 0.0)
                    .count();
                (zero_run, None)
            } else {
                let take = self.choice[l as usize] as usize;
                (take, Some(self.frame.children(l).peekable()))
            };
            let mut last = None;
            for (j, &y) in kids.iter().enumerate().take(take) {
                let ly = framed
                    .as_mut()
                    .and_then(|it| it.next_if(|&c| self.frame.pos_in_parent(c) as usize == j))
                    .unwrap_or(NO_LOCAL);
                stack.push((y.index(), ly));
                last = Some(y);
            }
            if let Some(y) = last {
                powers.push((x, sub.parent_cost(y.index())));
            }
        }
        reached.sort_unstable_by_key(|&(x, _)| x);
        (reached, served_cost_of(powers))
    }

    /// `NW(u_{−v})` for local `v` in `O(depth)` — the cold
    /// [`NetWorthOracle::net_worth_zeroing`](crate::incremental::NetWorthOracle::net_worth_zeroing)
    /// walk over the frame. An out-of-frame station carries zero utility
    /// already, so zeroing it changes nothing (the cold walk exits on its
    /// first step).
    fn net_worth_zeroing_local(&self, v: u32) -> f64 {
        if v == NO_LOCAL {
            return self.net_worth();
        }
        let mut w = v;
        let mut hv = self.best[v as usize];
        while w != Subframe::ROOT {
            let wi = w as usize;
            if hv == self.h[wi] {
                // Nothing changed at w, so nothing changes above it.
                return self.net_worth();
            }
            let p = self.frame.parent_local(w);
            debug_assert!(p != NO_LOCAL, "non-root local has a parent");
            let delta = hv - self.h[wi];
            let b = self.pre[wi].max(self.suf[wi] + delta);
            let own_p = if p == Subframe::ROOT {
                0.0
            } else {
                self.u[p as usize].max(0.0)
            };
            hv = own_p + b;
            w = p;
        }
        hv
    }

    /// `NW(u_{−x})` in `O(depth of x)`.
    pub fn net_worth_zeroing(&self, station: usize) -> f64 {
        assert!(
            station != self.ut.network().source(),
            "the source has no utility to zero"
        );
        self.net_worth_zeroing_local(self.local_or_none(station))
    }

    /// Closure size (local stations, including the source).
    pub fn frame_len(&self) -> usize {
        self.frame.len()
    }

    /// Heap bytes of the warm per-group state: frame plus local arrays.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.frame.memory_bytes()
            + (self.u.capacity()
                + self.h.capacity()
                + self.best.capacity()
                + self.pre.capacity()
                + self.suf.capacity()
                + self.scratch.capacity())
                * size_of::<f64>()
            + (self.choice.capacity() + self.fkids.capacity() + self.dirty.capacity())
                * size_of::<u32>()
    }

    /// Drop doubling-growth slack so steady-state warm bytes equal the
    /// exact closure footprint (called by the session at reprice time;
    /// no-op when tight).
    fn shrink_to_fit(&mut self) {
        self.frame.shrink_to_fit();
        self.u.shrink_to_fit();
        self.h.shrink_to_fit();
        self.best.shrink_to_fit();
        self.choice.shrink_to_fit();
        self.pre.shrink_to_fit();
        self.suf.shrink_to_fit();
        self.dirty.shrink_to_fit();
    }
}

/// One served member of a [`SparseShapleySession`].
#[derive(Debug, Clone, Copy)]
struct Member {
    /// Player id (fits `u32`: players are a subset of stations).
    player: u32,
    /// The member's station as a frame-local id (stable: append-only).
    local: u32,
    /// Current bid.
    bid: f64,
}

/// The live Moulin–Shenker (Shapley) session: the warm frame-local
/// [`SparseShapley`] engine plus one small member list — no
/// universe-sized array survives between reprices. See [`crate::session`]
/// for the event semantics; every outcome is byte-identical to
/// [`shapley_drop_run_from`](crate::incremental::shapley_drop_run_from)
/// on the session's current members and bids.
#[derive(Debug, Clone)]
pub struct SparseShapleySession {
    ut: UniversalTree,
    engine: SparseShapley,
    /// Currently-served members, ascending by player.
    members: Vec<Member>,
    /// Scratch: member-indexed shares of the current drop-loop round.
    scratch: Vec<f64>,
    batches: usize,
    events: usize,
}

impl SparseShapleySession {
    /// An empty session over `ut`. `O(1)`: no universe-sized allocation.
    pub fn new(ut: &UniversalTree) -> Self {
        Self {
            ut: ut.clone(),
            engine: SparseShapley::new(ut),
            members: Vec::new(),
            scratch: Vec::new(),
            batches: 0,
            events: 0,
        }
    }

    /// The universal tree the session prices over.
    pub fn universal_tree(&self) -> &UniversalTree {
        &self.ut
    }

    /// Absorb events (total semantics, see [`crate::session`]) without
    /// repricing, in `O(path)` per event. Call
    /// [`SparseShapleySession::reprice`] afterwards — or use
    /// [`SparseShapleySession::apply_batch`] for both at once.
    pub fn apply_events(&mut self, events: &[ChurnEvent]) {
        for ev in events {
            self.events += 1;
            match *ev {
                ChurnEvent::Join { player, utility } => {
                    let p = u32::try_from(player).expect("player ids fit u32");
                    match self.members.binary_search_by_key(&p, |m| m.player) {
                        Ok(i) => self.members[i].bid = utility,
                        Err(i) => {
                            let station = self.ut.network().station_of_player(player);
                            let local = self.engine.add_receiver(station);
                            self.members.insert(
                                i,
                                Member {
                                    player: p,
                                    local,
                                    bid: utility,
                                },
                            );
                        }
                    }
                }
                ChurnEvent::Leave { player } => {
                    let p = u32::try_from(player).expect("player ids fit u32");
                    if let Ok(i) = self.members.binary_search_by_key(&p, |m| m.player) {
                        let m = self.members.remove(i);
                        self.engine.drop_receiver_local(m.local);
                    }
                }
                ChurnEvent::Rebid { player, utility } => {
                    let p = u32::try_from(player).expect("player ids fit u32");
                    if let Ok(i) = self.members.binary_search_by_key(&p, |m| m.player) {
                        self.members[i].bid = utility;
                    }
                }
            }
        }
    }

    /// Re-run the Moulin–Shenker drop loop from the current member set —
    /// the frame-local replica of `wmcs_game::run_drop_loop_from`: same
    /// round structure, same ascending drop order, same EPS test, the
    /// fixpoint round's shares charged and the served cost walked over
    /// `T(R)`, so the outcome is byte-identical to
    /// [`shapley_drop_run_from`](crate::incremental::shapley_drop_run_from)
    /// at `O(rounds · |T(R)|)` plus the outcome's share vector. Evicted
    /// members leave the session (they must `Join` again).
    pub fn reprice(&mut self) -> MechanismOutcome {
        self.batches += 1;
        let n = self.ut.network().n_players();
        let mut active = vec![true; self.members.len()];
        let mut n_active = self.members.len();
        let out = loop {
            if n_active == 0 {
                break MechanismOutcome::empty(n);
            }
            {
                let shares = self.engine.round_shares_by_local();
                self.scratch.clear();
                self.scratch
                    .extend(self.members.iter().map(|m| shares[m.local as usize]));
            }
            let mut dropped_any = false;
            for (i, m) in self.members.iter().enumerate() {
                if active[i] && m.bid < self.scratch[i] - EPS {
                    active[i] = false;
                    n_active -= 1;
                    self.engine.drop_receiver_local(m.local);
                    dropped_any = true;
                }
            }
            if !dropped_any {
                // Charge the fixpoint round's shares — the shares the
                // cold driver charges, and the reference's fold.
                let mut shares = vec![0.0; n];
                let mut receivers = Vec::new();
                let served = self.members.iter().zip(&self.scratch).zip(&active);
                for ((m, &share), _) in served.filter(|&(_, &a)| a) {
                    let p = m.player as usize;
                    receivers.push(p);
                    shares[p] = share;
                }
                let served_cost = self.engine.served_cost();
                break MechanismOutcome {
                    receivers,
                    shares,
                    served_cost,
                };
            }
        };
        // Evictions persist: drop the members the loop priced out.
        let mut i = 0;
        self.members.retain(|_| {
            let keep = active.get(i).copied().unwrap_or(true);
            i += 1;
            keep
        });
        // The batch boundary is where warm state rests: return the
        // doubling-growth slack so the retained bytes are the exact
        // closure footprint (no-op unless the frame just grew).
        self.engine.shrink_to_fit();
        self.members.shrink_to_fit();
        self.scratch.shrink_to_fit();
        out
    }

    /// Absorb one churn batch and reprice.
    pub fn apply_batch(&mut self, events: &[ChurnEvent]) -> MechanismOutcome {
        self.apply_events(events);
        self.reprice()
    }

    /// Currently-served players, ascending.
    pub fn active_players(&self) -> Vec<usize> {
        self.members.iter().map(|m| m.player as usize).collect()
    }

    /// The full-length bid profile the next reprice would use (zero for
    /// players outside the session) — `O(n)` transient; what a cold
    /// rebuild on the current members consumes as its reported profile.
    pub fn reported_profile(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.ut.network().n_players()];
        for m in &self.members {
            out[m.player as usize] = m.bid;
        }
        out
    }

    /// Batches repriced so far.
    pub fn n_batches(&self) -> usize {
        self.batches
    }

    /// Events absorbed so far.
    pub fn n_events(&self) -> usize {
        self.events
    }

    /// Warm heap bytes retained between reprices: engine (frame +
    /// local arrays) plus the member list.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.engine.memory_bytes()
            + self.members.capacity() * size_of::<Member>()
            + self.scratch.capacity() * size_of::<f64>()
    }

    /// Stations in the warm frame (the path closure of every station
    /// that ever joined) — the `|frame|` the session's memory scales
    /// with.
    pub fn frame_len(&self) -> usize {
        self.engine.frame_len()
    }
}

/// One bidder of a [`SparseMcSession`].
#[derive(Debug, Clone, Copy)]
struct Bidder {
    /// Player id (fits `u32`: players are a subset of stations).
    player: u32,
    /// The bidder's station as a frame-local id (stable: append-only).
    local: u32,
}

/// The live marginal-cost (VCG) session: the mechanism over a warm
/// [`SparseNetWorth`], `O(|frame|)` warm bytes.
///
/// A batch of events installs its bids, then repairs the DP once, each
/// dirty station's kernel at most once; each reprice runs the selection
/// walk and one `O(depth)` externality query per receiver, all on local
/// ids. The outcome is byte-identical to
/// [`vcg_outcome`](crate::session::vcg_outcome) over a cold
/// [`NetWorthOracle`](crate::incremental::NetWorthOracle) built on the
/// same utilities.
#[derive(Debug, Clone)]
pub struct SparseMcSession {
    ut: UniversalTree,
    oracle: SparseNetWorth,
    /// Players with a live bid, ascending by player.
    members: Vec<Bidder>,
    batches: usize,
    events: usize,
}

impl SparseMcSession {
    /// An empty session over `ut` (all bids zero). `O(deg(source))`.
    pub fn new(ut: &UniversalTree) -> Self {
        Self {
            ut: ut.clone(),
            oracle: SparseNetWorth::new(ut),
            members: Vec::new(),
            batches: 0,
            events: 0,
        }
    }

    /// The universal tree the session prices over.
    pub fn universal_tree(&self) -> &UniversalTree {
        &self.ut
    }

    /// Absorb events (total semantics, see [`crate::session`]): a
    /// `Join`/`Rebid` installs the bid, a `Leave` zeroes it. Only a
    /// newcomer's `Join` looks its station up; every other event reaches
    /// the oracle through the member's local id. The DP is repaired once
    /// for the whole batch, after every bid is installed.
    pub fn apply_events(&mut self, events: &[ChurnEvent]) {
        let sub = self.ut.substrate();
        for ev in events {
            self.events += 1;
            match *ev {
                ChurnEvent::Join { player, utility } => {
                    let p = u32::try_from(player).expect("player ids fit u32");
                    let local = match self.members.binary_search_by_key(&p, |m| m.player) {
                        Ok(i) => self.members[i].local,
                        Err(i) => {
                            let station = sub.network().station_of_player(player);
                            let local = self.oracle.ensure_local(sub, station);
                            self.members.insert(i, Bidder { player: p, local });
                            local
                        }
                    };
                    self.oracle.install_utility(local, utility);
                }
                ChurnEvent::Leave { player } => {
                    let p = u32::try_from(player).expect("player ids fit u32");
                    if let Ok(i) = self.members.binary_search_by_key(&p, |m| m.player) {
                        let m = self.members.remove(i);
                        self.oracle.install_utility(m.local, 0.0);
                    }
                }
                ChurnEvent::Rebid { player, utility } => {
                    let p = u32::try_from(player).expect("player ids fit u32");
                    if let Ok(i) = self.members.binary_search_by_key(&p, |m| m.player) {
                        let local = self.members[i].local;
                        self.oracle.install_utility(local, utility);
                    }
                }
            }
        }
        self.oracle.repair(sub);
    }

    /// Recompute the VCG outcome from the warm oracle: serve the largest
    /// efficient set, charge every receiver its externality. The
    /// selection walk hands each receiver's local id to the share
    /// kernels, so no station is looked up. Zero-bid stations that ride
    /// a served path for free are served and charged `0.0`, exactly as
    /// the one-shot mechanism does.
    pub fn reprice(&mut self) -> MechanismOutcome {
        self.batches += 1;
        let net = self.ut.network();
        let (reached, served_cost) = self.oracle.selection();
        let nw = self.oracle.net_worth();
        let mut shares = vec![0.0; net.n_players()];
        let mut receivers = Vec::new();
        for &(x, l) in &reached {
            if let Some(p) = net.player_of_station(x) {
                receivers.push(p);
                let nw_minus = self.oracle.net_worth_zeroing_local(l);
                shares[p] = (self.oracle.utility_local(l) - (nw - nw_minus)).max(0.0);
            }
        }
        // The batch boundary is where warm state rests: return the
        // doubling-growth slack so the retained bytes are the exact
        // closure footprint (no-op unless the frame just grew).
        self.oracle.shrink_to_fit();
        self.members.shrink_to_fit();
        MechanismOutcome {
            receivers,
            shares,
            served_cost,
        }
    }

    /// Absorb one churn batch and reprice.
    pub fn apply_batch(&mut self, events: &[ChurnEvent]) -> MechanismOutcome {
        self.apply_events(events);
        self.reprice()
    }

    /// Players with a live bid, ascending.
    pub fn active_players(&self) -> Vec<usize> {
        self.members.iter().map(|m| m.player as usize).collect()
    }

    /// The full-length bid profile the next reprice uses (zero outside
    /// the session) — `O(n)` transient.
    pub fn reported_profile(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.ut.network().n_players()];
        for m in &self.members {
            out[m.player as usize] = self.oracle.utility_local(m.local);
        }
        out
    }

    /// The station-indexed utility vector a cold
    /// [`NetWorthOracle::new`](crate::incremental::NetWorthOracle::new)
    /// rebuild would consume (relay stations and the source carry 0) —
    /// `O(n)` transient, for the byte-identity gates.
    pub fn station_utilities(&self) -> Vec<f64> {
        let net = self.ut.network();
        let mut out = vec![0.0; net.n_stations()];
        for m in &self.members {
            out[net.station_of_player(m.player as usize)] = self.oracle.utility_local(m.local);
        }
        out
    }

    /// Batches repriced so far.
    pub fn n_batches(&self) -> usize {
        self.batches
    }

    /// Events absorbed so far.
    pub fn n_events(&self) -> usize {
        self.events
    }

    /// Warm heap bytes retained between reprices.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.oracle.memory_bytes() + self.members.capacity() * size_of::<Bidder>()
    }

    /// Stations in the warm frame (the path closure of every station
    /// that ever had a bid) — the `|frame|` the session's memory scales
    /// with.
    pub fn frame_len(&self) -> usize {
        self.oracle.frame_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::shapley_drop_run_from;
    use crate::random_tree;
    use crate::service::GroupMechanism;
    use crate::session::{ChurnProcess, ColdSession};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn sparse_reprice_matches_cold_reference_on_the_member_set() {
        for seed in 0..8 {
            let ut = random_tree(seed, 12);
            let process = ChurnProcess::new(ut.network().n_players(), 10, 3, 18.0, seed ^ 0xc0);
            let mut session = SparseShapleySession::new(&ut);
            for batch in &process.generate().batches {
                session.apply_events(batch);
                let players = session.active_players();
                let bids = session.reported_profile();
                let warm = session.reprice();
                let cold = shapley_drop_run_from(&ut, &bids, &players);
                assert_eq!(warm.receivers, cold.receivers, "seed {seed}");
                assert_eq!(warm.shares, cold.shares, "seed {seed}");
                assert_eq!(warm.served_cost, cold.served_cost, "seed {seed}");
                assert_eq!(session.active_players(), warm.receivers);
            }
        }
    }

    #[test]
    fn sparse_oracle_matches_dense_oracle_state_for_state() {
        use crate::incremental::NetWorthOracle;
        for seed in 0..10 {
            let ut = random_tree(seed, 13);
            let n = ut.network().n_stations();
            let s = ut.network().source();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x0c1e);
            let mut u = vec![0.0f64; n];
            let mut sparse = SparseNetWorth::new(&ut);
            for _ in 0..30 {
                let x = loop {
                    let x = rng.gen_range(0..n);
                    if x != s {
                        break x;
                    }
                };
                let val = if rng.gen_bool(0.3) {
                    0.0
                } else {
                    rng.gen_range(0.0..8.0)
                };
                u[x] = val;
                sparse.set_utility(x, val);
                let dense = NetWorthOracle::new(&ut, &u);
                assert_eq!(sparse.net_worth(), dense.net_worth(), "seed {seed}");
                assert_eq!(sparse.efficient_set(), dense.efficient_set(), "seed {seed}");
                for y in (0..n).filter(|&y| y != s) {
                    assert_eq!(
                        sparse.net_worth_zeroing(y),
                        dense.net_worth_zeroing(y),
                        "seed {seed}, station {y}"
                    );
                }
            }
        }
    }

    /// Zero-cost edges at several levels — 0 → {1 (0.0), 2 (1.5)},
    /// 1 → {3 (0.0), 4 (0.0), 5 (2.0)}, 2 → {6 (0.0)}, 6 → {7 (0.5),
    /// 8 (0.0)}, 3 → {9 (1.0)} — priced over exactly that tree.
    fn zero_cost_tree() -> UniversalTree {
        use crate::{SubstrateBuilder, WirelessNetwork};
        use wmcs_graph::{CostMatrix, RootedTree};
        let edges = [
            (0, 1, 0.0),
            (0, 2, 1.5),
            (1, 3, 0.0),
            (1, 4, 0.0),
            (1, 5, 2.0),
            (2, 6, 0.0),
            (6, 7, 0.5),
            (6, 8, 0.0),
            (3, 9, 1.0),
        ];
        let mut parents = vec![None; 10];
        for &(p, c, _) in &edges {
            parents[c] = Some(p);
        }
        let net = WirelessNetwork::symmetric(CostMatrix::from_edges(10, &edges), 0);
        SubstrateBuilder::from_owned(net)
            .explicit_tree(RootedTree::from_parents(0, parents))
            .build_universal()
    }

    /// The total-semantics model of an MC session: the bidding players
    /// and the station-indexed utilities a cold oracle consumes.
    struct Model {
        bidders: std::collections::BTreeSet<usize>,
        u: Vec<f64>,
    }

    impl Model {
        fn apply(&mut self, ut: &UniversalTree, ev: &ChurnEvent) {
            let net = ut.network();
            match *ev {
                ChurnEvent::Join { player, utility } => {
                    self.bidders.insert(player);
                    self.u[net.station_of_player(player)] = utility;
                }
                ChurnEvent::Leave { player } => {
                    if self.bidders.remove(&player) {
                        self.u[net.station_of_player(player)] = 0.0;
                    }
                }
                ChurnEvent::Rebid { player, utility } => {
                    if self.bidders.contains(&player) {
                        self.u[net.station_of_player(player)] = utility;
                    }
                }
            }
        }
    }

    /// Apply `batch` as one `apply_events` and check the warm oracle's
    /// whole query surface bitwise against a cold oracle on the model's
    /// utilities, then reprice against `vcg_outcome`.
    fn batch_matches_cold(session: &mut SparseMcSession, model: &mut Model, batch: &[ChurnEvent]) {
        use crate::incremental::NetWorthOracle;
        use crate::session::vcg_outcome;
        let ut = session.universal_tree().clone();
        session.apply_events(batch);
        for ev in batch {
            model.apply(&ut, ev);
        }
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(session.station_utilities()), bits(model.u.clone()));
        assert_eq!(
            session.active_players(),
            model.bidders.iter().copied().collect::<Vec<_>>()
        );
        assert!(session.oracle.dirty.is_empty(), "the batch was repaired");
        let cold = NetWorthOracle::new(&ut, &model.u);
        let warm = &session.oracle;
        assert_eq!(
            warm.net_worth().to_bits(),
            cold.net_worth().to_bits(),
            "{batch:?}"
        );
        let (ws, wnw, wc) = warm.efficient_set_with_cost();
        let (cs, cnw, cc) = cold.efficient_set_with_cost();
        assert_eq!(ws, cs, "{batch:?}");
        assert_eq!(wnw.to_bits(), cnw.to_bits(), "{batch:?}");
        assert_eq!(wc.to_bits(), cc.to_bits(), "{batch:?}");
        let s = ut.network().source();
        for y in (0..ut.network().n_stations()).filter(|&y| y != s) {
            assert_eq!(
                warm.net_worth_zeroing(y).to_bits(),
                cold.net_worth_zeroing(y).to_bits(),
                "station {y} after {batch:?}"
            );
        }
        let out = session.reprice();
        let want = vcg_outcome(&ut, &cold);
        assert_eq!(out.receivers, want.receivers);
        assert_eq!(bits(out.shares), bits(want.shares));
        assert_eq!(out.served_cost.to_bits(), want.served_cost.to_bits());
    }

    #[test]
    fn batched_apply_events_matches_a_cold_oracle_after_every_batch() {
        let ut = zero_cost_tree();
        let net = ut.network().clone();
        let p = |x: usize| net.player_of_station(x).expect("not the source");
        let join = |x, utility| ChurnEvent::Join {
            player: p(x),
            utility,
        };
        let rebid = |x, utility| ChurnEvent::Rebid {
            player: p(x),
            utility,
        };
        let leave = |x| ChurnEvent::Leave { player: p(x) };
        let scripted: Vec<Vec<ChurnEvent>> = vec![
            // Frame 6's path, then repeated rebids of one player.
            vec![join(6, 3.0), rebid(6, 1.0), rebid(6, 7.0), rebid(6, 0.5)],
            // Fresh joins hanging off the framed anchor 6, with 6 rebid.
            vec![join(7, 0.25), rebid(6, 2.0), join(8, 4.0)],
            // Join → leave → rejoin of one player, and zero bids of both
            // signs on zero-cost edges.
            vec![
                join(9, 4.0),
                leave(9),
                join(9, 6.0),
                join(4, 0.0),
                join(3, -0.0),
            ],
            vec![rebid(3, 0.0), rebid(4, -0.0), leave(5), join(5, 3.0)],
            // Rebids of a player that just left are no-ops.
            vec![leave(7), rebid(7, 9.0), rebid(8, -0.0), rebid(8, 0.0)],
            // Everyone leaves: the last member's leave empties the group.
            [3, 4, 5, 6, 8, 9].into_iter().map(leave).collect(),
            // A rejoin into the empty, fully framed group.
            vec![join(1, 0.0), join(2, 5.0), join(7, 1.0)],
        ];
        let mut session = SparseMcSession::new(&ut);
        let mut model = Model {
            bidders: Default::default(),
            u: vec![0.0; net.n_stations()],
        };
        for batch in &scripted {
            batch_matches_cold(&mut session, &mut model, batch);
        }
        assert_eq!(session.frame_len(), 10, "every station was framed");

        // Random multi-event batches over a small player pool, on the
        // zero-cost tree and on random trees.
        for seed in 0..8u64 {
            let ut = if seed == 0 {
                zero_cost_tree()
            } else {
                random_tree(seed, 14)
            };
            let n = ut.network().n_players();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xba7c);
            let mut session = SparseMcSession::new(&ut);
            let mut model = Model {
                bidders: Default::default(),
                u: vec![0.0; ut.network().n_stations()],
            };
            for _ in 0..25 {
                let len = rng.gen_range(1..24);
                let batch: Vec<ChurnEvent> = (0..len)
                    .map(|_| {
                        let player = rng.gen_range(0..n);
                        let utility = match rng.gen_range(0..4) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.gen_range(0.0..8.0),
                        };
                        match rng.gen_range(0..3) {
                            0 => ChurnEvent::Join { player, utility },
                            1 => ChurnEvent::Leave { player },
                            _ => ChurnEvent::Rebid { player, utility },
                        }
                    })
                    .collect();
                batch_matches_cold(&mut session, &mut model, &batch);
            }
        }
    }

    #[test]
    fn a_batch_of_rebids_runs_each_path_kernel_at_most_once() {
        for seed in 0..6 {
            let ut = random_tree(seed, 40);
            let sub = ut.substrate();
            let net = ut.network();
            let depth = |mut x: usize| {
                let mut d = 0;
                while x != net.source() {
                    x = sub.parent_of(x);
                    d += 1;
                }
                d
            };
            let x = (0..net.n_stations())
                .max_by_key(|&x| depth(x))
                .expect("stations exist");
            let d = depth(x);
            let player = net.player_of_station(x).expect("the deepest station bids");
            let mut session = SparseMcSession::new(&ut);
            session.apply_events(&[ChurnEvent::Join {
                player,
                utility: 1.0,
            }]);
            // Bids spanning the path's edge costs, so ancestors' h moves.
            let broadcast: f64 = (0..net.n_stations()).map(|y| sub.parent_cost(y)).sum();
            let rebids: Vec<ChurnEvent> = (1..=64)
                .map(|i| ChurnEvent::Rebid {
                    player,
                    utility: broadcast * f64::from(i) / 32.0,
                })
                .collect();
            let before = session.oracle.kernel_runs;
            session.apply_events(&rebids);
            let runs = session.oracle.kernel_runs - before;
            assert!(
                (1..=d as u64 + 1).contains(&runs),
                "seed {seed}: {runs} kernels for 64 rebids at depth {d}"
            );
        }
    }

    #[test]
    fn sparse_memory_tracks_the_closure_not_the_universe() {
        // One small group in a larger universe: the warm footprint must
        // be far below what a universe-indexed engine keeps for it.
        let ut = random_tree(2, 400);
        let mut sparse = SparseShapleySession::new(&ut);
        let batch: Vec<ChurnEvent> = (1..5)
            .map(|p| ChurnEvent::Join {
                player: p,
                utility: 1e6,
            })
            .collect();
        let cold = ColdSession::new(GroupMechanism::Shapley, &ut).price_batch(&batch);
        assert_eq!(sparse.apply_batch(&batch), cold);
        // A universe-indexed engine keeps eight n-length arrays per
        // group; the frame session stays below even one f64 per station.
        let universe = ut.network().n_stations() * std::mem::size_of::<f64>();
        assert!(
            sparse.memory_bytes() < universe,
            "sparse {} vs one f64 per station {}",
            sparse.memory_bytes(),
            universe
        );
        assert!(sparse.engine.frame_len() < 50);
    }
}
