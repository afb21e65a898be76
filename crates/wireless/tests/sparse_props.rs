//! Frame ≡ cold-reference identity suite (the T15 contract, randomised):
//! a frame-local warm session must produce **byte-identical** outcomes
//! to a [`ColdSession`], which re-prices the group's standing bids from
//! scratch after every batch with the universe-indexed engines —
//! receivers, every share bit, the served-cost bits and the reported
//! profile — for all five layout families, both mechanisms, and churn
//! traces with mid-session joins. The reference tracks the bids itself,
//! so it trusts nothing the session reports. (The ≥ 10× warm-memory saving
//! is pinned by the `sparse` module's unit tests — universes here are
//! too small for the frame bookkeeping to win.)

use proptest::prelude::*;
use wmcs_game::MechanismOutcome;
use wmcs_geom::{ChurnProcess, LayoutFamily, MultiGroupProcess, Scenario};
use wmcs_wireless::{
    ColdSession, GroupMechanism, GroupSession, MulticastService, SubstrateBuilder, TreeKind,
    UniversalTree, WirelessNetwork,
};

/// The network of a scenario draw (station 0 as source).
fn scenario_net(family: LayoutFamily, n: usize, alpha: f64, seed: u64) -> WirelessNetwork {
    let sc = Scenario::new(family, n, 2, alpha);
    WirelessNetwork::euclidean(sc.points(seed), sc.power_model(), 0)
}

fn build_tree(net: &WirelessNetwork, mst: bool) -> UniversalTree {
    if mst {
        SubstrateBuilder::new(net)
            .tree(TreeKind::Mst)
            .build_universal()
    } else {
        SubstrateBuilder::new(net)
            .tree(TreeKind::Spt)
            .build_universal()
    }
}

/// Every share's bits, for `prop_assert_eq!` on `-0.0` vs `+0.0` too.
fn share_bits(out: &MechanismOutcome) -> Vec<u64> {
    out.shares.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Single group, every family × both mechanisms: the frame session
    /// replays a churn trace — joins, leaves, rebids, and mid-session
    /// re-joins — and every batch outcome is byte-identical to the cold
    /// reference's (bits of every `f64`, not approximate).
    #[test]
    fn sparse_session_matches_cold_reference(
        seed in 0u64..10_000,
        family_ix in 0usize..5,
        n in 10usize..30,
        alpha_ix in 0usize..2,
        tree_ix in 0usize..2,
        mech_ix in 0usize..2,
    ) {
        let family = LayoutFamily::ALL[family_ix];
        let alpha = [2.0, 4.0][alpha_ix];
        let net = scenario_net(family, n, alpha, seed);
        let ut = build_tree(&net, tree_ix == 1);
        let broadcast = ut.multicast_cost(&ut.network().non_source_stations());
        let hi = (2.0 * broadcast / (n - 1) as f64).max(1e-9);
        // 6 batches of churn: enough for leave-then-rejoin traffic, the
        // case that exercises the frame splice after warm-up.
        let trace = ChurnProcess::new(n - 1, 6, 5, hi, seed ^ 0x5a12).generate();
        let mech = [GroupMechanism::Shapley, GroupMechanism::MarginalCost][mech_ix];

        let mut session = GroupSession::new(mech, &ut);
        let mut cold = ColdSession::new(mech, &ut);
        for (b, batch) in trace.batches.iter().enumerate() {
            let got = session.apply_batch(batch);
            let want = cold.price_batch(batch);
            prop_assert_eq!(
                &got.receivers, &want.receivers,
                "receiver drift at batch {}", b
            );
            prop_assert_eq!(share_bits(&got), share_bits(&want), "share drift at batch {}", b);
            prop_assert_eq!(
                got.served_cost.to_bits(), want.served_cost.to_bits(),
                "served-cost drift at batch {}", b
            );
            prop_assert_eq!(
                session.reported_profile(),
                cold.standing_bids(),
                "reported-profile drift at batch {}",
                b
            );
        }
    }

    /// A frame-local service over a shared substrate (sharded) is
    /// byte-identical to the per-group cold references, group by group
    /// and batch by batch.
    #[test]
    fn sparse_service_matches_cold_reference(
        seed in 0u64..10_000,
        family_ix in 0usize..5,
        n in 12usize..26,
        g in 2usize..6,
    ) {
        let family = LayoutFamily::ALL[family_ix];
        let net = scenario_net(family, n, 2.0, seed);
        let ut = build_tree(&net, false);
        let broadcast = ut.multicast_cost(&ut.network().non_source_stations());
        let hi = (2.0 * broadcast / (n - 1) as f64).max(1e-9);
        let trace = MultiGroupProcess::new(n - 1, g, 4, hi, seed ^ 0x15e).generate();

        let mut service = MulticastService::new(&ut).with_threads(0);
        let mut cold: Vec<ColdSession> = (0..g)
            .map(|i| {
                let mech = GroupMechanism::alternating(i);
                service.add_group(mech);
                ColdSession::new(mech, &ut)
            })
            .collect();

        for b in 0..trace.n_batches() {
            let batches: Vec<Vec<_>> = trace
                .groups
                .iter()
                .map(|gr| gr.trace.batches[b].clone())
                .collect();
            let got = service.step_all(&batches);
            for (i, (s, reference)) in got.iter().zip(cold.iter_mut()).enumerate() {
                let d = reference.price_batch(&batches[i]);
                prop_assert_eq!(
                    &s.outcome.receivers, &d.receivers,
                    "receiver drift: group {} batch {}", i, b
                );
                prop_assert_eq!(
                    share_bits(&s.outcome), share_bits(&d),
                    "share drift: group {} batch {}", i, b
                );
                prop_assert_eq!(
                    s.outcome.served_cost.to_bits(), d.served_cost.to_bits(),
                    "cost drift: group {} batch {}", i, b
                );
                prop_assert_eq!(
                    service.reported_profile(i), reference.standing_bids(),
                    "reported-profile drift: group {} batch {}", i, b
                );
            }
        }
        // The accounting is live (the ≥ 10× frame *saving* is pinned at
        // realistic scale by `sparse::tests::
        // sparse_memory_tracks_the_closure_not_the_universe` — at these
        // toy universes the frame bookkeeping can dominate).
        prop_assert!(service.memory_bytes() > 0);
    }
}
