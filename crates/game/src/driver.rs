//! The shared Moulin–Shenker drop-loop driver over *index sets*.
//!
//! Every Moulin–Shenker-style mechanism in the workspace runs the same
//! iteration: compute the active players' shares, drop everyone who
//! cannot afford theirs, repeat until a fixpoint, charge the fixpoint
//! shares. Before this module existed the loop was open-coded twice —
//! mask-based in [`crate::moulin::moulin_shenker`] (capped at 64
//! players) and station-set-based in the universal-tree Shapley
//! mechanism — with one EPS convention each; divergence there is a
//! strategyproofness bug waiting to happen, so both now route through
//! [`run_drop_loop`].
//!
//! The driver works on plain index sets, so it has **no 64-player cap**:
//! a [`DropLoopMethod`] carries its own representation of the active
//! coalition (a `u64` mask, an incremental tree engine, …) and is told
//! exactly which players drop, which lets incremental implementations
//! update in `O(affected path)` instead of recomputing from scratch.
//!
//! Two entry points share one loop body:
//!
//! | entry point | initial coalition | caller |
//! |---|---|---|
//! | [`run_drop_loop`] | all `n` players (the paper's `U`) | one-shot mechanisms |
//! | [`run_drop_loop_from`] | an explicit subset | live sessions resuming from a surviving set |
//!
//! [`run_drop_loop_from`] is what makes the Moulin–Shenker iteration
//! *resumable*: a live session (`wmcs-wireless::session`) applies churn
//! events to its warm method state and restarts the iteration from the
//! current receiver set instead of from `U`. Invariants the caller must
//! uphold: the method's internal coalition already mirrors `initial`
//! exactly, `initial` is strictly ascending, and players outside
//! `initial` are never re-admitted (the Moulin–Shenker iteration only
//! ever shrinks the coalition). Per round the driver costs `O(round
//! shares)` + `O(|initial|)` bookkeeping; the fixpoint outcome is the
//! maximal affordable sub-coalition of `initial` whenever the method's
//! shares are cross-monotonic \[37, 38\].

use crate::mechanism::MechanismOutcome;
use wmcs_geom::EPS;

/// A round-based cost-sharing method driven by [`run_drop_loop`].
///
/// The driver owns the set of active players; the method mirrors it via
/// [`DropLoopMethod::drop_player`] notifications (players only ever
/// leave, never re-enter — the Moulin–Shenker invariant).
pub trait DropLoopMethod {
    /// Number of players.
    fn n_players(&self) -> usize;

    /// Write the currently-active coalition's shares into `out`: a
    /// full-length vector, zero outside the coalition. Called once per
    /// round with the **same driver-owned buffer** (the method clears
    /// and refills it), so a warm engine runs the whole iteration
    /// without a per-round allocation — the hot-loop fix the
    /// `session_churn` bench leans on.
    fn round_shares_into(&mut self, out: &mut Vec<f64>);

    /// Remove player `p` from the active coalition. Called once per
    /// dropped player, immediately after the round that dropped it.
    fn drop_player(&mut self, p: usize);

    /// Cost of the solution built for the currently-active coalition.
    /// Called once, after the fixpoint round.
    fn served_cost(&mut self) -> f64;
}

/// Run the Moulin–Shenker iteration `M(ξ)` \[37, 38\] over a
/// [`DropLoopMethod`]:
///
/// 1. start from all players active;
/// 2. each round, drop every player `i` with `u_i < ξ(R, i) − EPS`;
/// 3. at the fixpoint, charge `ξ(R(u), i)` and serve `R(u)`.
///
/// If ξ is cross-monotonic the final set is the unique maximal
/// affordable coalition regardless of drop order, and `M(ξ)` is group
/// strategyproof with NPT, VP, CS and (β-approximate) budget balance
/// \[29, 37, 38\].
pub fn run_drop_loop(method: &mut impl DropLoopMethod, reported: &[f64]) -> MechanismOutcome {
    let all: Vec<usize> = (0..method.n_players()).collect();
    run_drop_loop_from(method, reported, &all)
}

/// Run the Moulin–Shenker iteration starting from the explicit coalition
/// `initial` instead of from all players — the resumable entry point a
/// live session uses to restart the drop loop from its current receiver
/// set after applying churn events.
///
/// Contract (callers must uphold, the driver asserts what it can):
///
/// * `initial` is strictly ascending and within `0..n_players`;
/// * the method's internal coalition state already mirrors `initial`
///   exactly (for a warm engine: every join/leave since the last run has
///   been applied; for a cold start: the engine was built on `initial`);
/// * `reported` is full length — entries outside `initial` are ignored.
///
/// Starting from a subset is exact, not approximate: with a
/// cross-monotonic method the fixpoint is the maximal affordable
/// sub-coalition of `initial`, and a warm engine whose state equals a
/// freshly built one produces a byte-identical outcome (the byte-identity
/// contract `wmcs-wireless::session` is property-tested against).
pub fn run_drop_loop_from(
    method: &mut impl DropLoopMethod,
    reported: &[f64],
    initial: &[usize],
) -> MechanismOutcome {
    let n = method.n_players();
    assert_eq!(reported.len(), n, "one reported utility per player");
    debug_assert!(
        initial.windows(2).all(|w| w[0] < w[1]),
        "initial coalition must be strictly ascending"
    );
    let mut active = vec![false; n];
    let mut n_active = initial.len();
    for &p in initial {
        assert!(p < n, "initial coalition member {p} out of range");
        active[p] = true;
    }
    // One share buffer for the whole run, refilled each round — the
    // driver-side half of the allocation-free warm iteration.
    let mut shares: Vec<f64> = Vec::with_capacity(n);
    loop {
        if n_active == 0 {
            return MechanismOutcome::empty(n);
        }
        method.round_shares_into(&mut shares);
        debug_assert_eq!(shares.len(), n, "round shares are full length");
        let mut dropped_any = false;
        for &p in initial {
            if active[p] && reported[p] < shares[p] - EPS {
                active[p] = false;
                n_active -= 1;
                method.drop_player(p);
                dropped_any = true;
            }
        }
        if !dropped_any {
            let receivers: Vec<usize> = initial.iter().copied().filter(|&p| active[p]).collect();
            let mut final_shares = vec![0.0; n];
            for &p in &receivers {
                final_shares[p] = shares[p];
            }
            let served_cost = method.served_cost();
            return MechanismOutcome {
                receivers,
                shares: final_shares,
                served_cost,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An airport game over arbitrarily many players: serving coalition
    /// `R` costs `max_{i∈R} need_i`, shared by the textbook airport
    /// (sequential-increment) rule — cross-monotonic, so the drop loop's
    /// fixpoint is the maximal affordable set.
    struct Airport {
        needs: Vec<f64>,
        active: Vec<bool>,
    }

    impl Airport {
        fn new(needs: Vec<f64>) -> Self {
            let active = vec![true; needs.len()];
            Self { needs, active }
        }
    }

    impl DropLoopMethod for Airport {
        fn n_players(&self) -> usize {
            self.needs.len()
        }

        fn round_shares_into(&mut self, out: &mut Vec<f64>) {
            // Airport rule: sort active players by need; the increment
            // between consecutive needs is split among everyone at least
            // as demanding.
            let mut order: Vec<usize> = (0..self.needs.len()).filter(|&p| self.active[p]).collect();
            order.sort_by(|&a, &b| self.needs[a].total_cmp(&self.needs[b]).then(a.cmp(&b)));
            out.clear();
            out.resize(self.needs.len(), 0.0);
            let mut prev = 0.0;
            for (rank, &p) in order.iter().enumerate() {
                let delta = self.needs[p] - prev;
                prev = self.needs[p];
                let users = (order.len() - rank) as f64;
                let slice = delta / users;
                for &q in &order[rank..] {
                    out[q] += slice;
                }
            }
        }

        fn drop_player(&mut self, p: usize) {
            self.active[p] = false;
        }

        fn served_cost(&mut self) -> f64 {
            (0..self.needs.len())
                .filter(|&p| self.active[p])
                .map(|p| self.needs[p])
                .fold(0.0, f64::max)
        }
    }

    #[test]
    fn driver_has_no_64_player_cap() {
        // 100 players, needs 1..=100; utilities afford everyone.
        let n = 100;
        let needs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let mut m = Airport::new(needs);
        let u = vec![1e6; n];
        let out = run_drop_loop(&mut m, &u);
        assert_eq!(out.receivers.len(), n);
        // Exact budget balance: revenue = max need = 100.
        assert!((out.revenue() - n as f64).abs() < 1e-9);
        assert!((out.served_cost - n as f64).abs() < 1e-9);
    }

    #[test]
    fn drop_cascade_reaches_the_maximal_affordable_set() {
        // Three players, needs [1, 2, 3]. Profile [0.2, 0.9, 3.0]:
        // round 1 shares [1/3, 1/3+1/2, 1/3+1/2+1] — players 0 and 1
        // drop; player 2 alone pays 3.0 and can afford it.
        let mut m = Airport::new(vec![1.0, 2.0, 3.0]);
        let out = run_drop_loop(&mut m, &[0.2, 0.9, 3.0]);
        assert_eq!(out.receivers, vec![2]);
        assert!((out.shares[2] - 3.0).abs() < 1e-9);
        assert_eq!(out.shares[0], 0.0);
    }

    #[test]
    fn everyone_dropping_yields_the_empty_outcome() {
        let mut m = Airport::new(vec![5.0, 5.0]);
        let out = run_drop_loop(&mut m, &[0.0, 0.0]);
        assert!(out.receivers.is_empty());
        assert_eq!(out.revenue(), 0.0);
        assert_eq!(out.served_cost, 0.0);
    }

    #[test]
    fn resuming_from_a_subset_matches_a_cold_start_on_that_subset() {
        // Airport game, needs 1..=6. Starting the loop from {1, 3, 4}
        // (method state mirrored by dropping the others up front) must
        // equal running on a 3-player game containing just those needs.
        let needs: Vec<f64> = (1..=6).map(|i| i as f64).collect();
        let u = vec![0.4, 2.0, 0.4, 3.0, 5.0, 0.4];
        let subset = vec![1usize, 3, 4];

        let mut warm = Airport::new(needs.clone());
        for p in 0..6 {
            if !subset.contains(&p) {
                warm.drop_player(p);
            }
        }
        let out = run_drop_loop_from(&mut warm, &u, &subset);

        // Cold reference: the same airport game restricted to the subset.
        let mut cold = Airport::new(vec![2.0, 4.0, 5.0]);
        let cold_out = run_drop_loop(&mut cold, &[2.0, 3.0, 5.0]);
        let lifted: Vec<usize> = cold_out.receivers.iter().map(|&i| subset[i]).collect();
        assert_eq!(out.receivers, lifted);
        for (i, &p) in subset.iter().enumerate() {
            assert!((out.shares[p] - cold_out.shares[i]).abs() < 1e-12);
        }
        assert_eq!(out.served_cost, cold_out.served_cost);
        // Players outside the initial set are never served or charged.
        assert_eq!(out.shares[0], 0.0);
        assert_eq!(out.shares[5], 0.0);
    }

    #[test]
    fn resuming_from_the_empty_set_serves_nobody() {
        let mut m = Airport::new(vec![1.0, 2.0]);
        m.drop_player(0);
        m.drop_player(1);
        let out = run_drop_loop_from(&mut m, &[10.0, 10.0], &[]);
        assert!(out.receivers.is_empty());
        assert_eq!(out.served_cost, 0.0);
    }
}
