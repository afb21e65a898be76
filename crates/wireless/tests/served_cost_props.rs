//! Served-cost walk ≡ reference suite: the `O(|T(R)|)` cost walks the
//! warm reprices use must equal the universe-sized
//! [`UniversalTree::multicast_cost`] reference **bit for bit**
//! (`to_bits`, so `-0.0` against `+0.0` fails too):
//!
//! * [`SparseShapley::served_cost`] across join/leave walks, and
//!   [`IncrementalShapley::served_cost`] rebuilt on every visited set;
//! * the cost from [`NetWorthOracle::efficient_set_with_cost`] and
//!   [`SparseNetWorth::efficient_set_with_cost`] on the efficient set.
//!
//! Every layout family is drawn, plus hand-built trees for the edge
//! cases: the empty set, zero-cost edges, and out-of-frame stations whose
//! leading zero-cost children join the efficient set — there, the
//! [`SparseMcSession`] outcome is also pinned to the cold [`vcg_outcome`].
//! A scale gate checks that a populated sparse Shapley session at
//! n = 10⁴ charges exactly `shapley_shares` on its served set.

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use wmcs_geom::{LayoutFamily, Point, PowerModel, Scenario};
use wmcs_graph::{CostMatrix, RootedTree};
use wmcs_wireless::{
    vcg_outcome, Backend, ChurnEvent, IncrementalShapley, NetWorthOracle, SparseMcSession,
    SparseNetWorth, SparseShapley, SparseShapleySession, SubstrateBuilder, TreeKind, UniversalTree,
    WirelessNetwork,
};

fn scenario_tree(
    family: LayoutFamily,
    n: usize,
    alpha: f64,
    seed: u64,
    mst: bool,
) -> UniversalTree {
    let sc = Scenario::new(family, n, 2, alpha);
    let net = WirelessNetwork::euclidean(sc.points(seed), sc.power_model(), 0);
    let kind = if mst { TreeKind::Mst } else { TreeKind::Spt };
    SubstrateBuilder::new(&net).tree(kind).build_universal()
}

/// A network whose only finite edges are `edges`, priced over exactly
/// the tree they form (rooted at station 0).
fn explicit_tree(n: usize, edges: &[(usize, usize, f64)]) -> UniversalTree {
    let mut parents = vec![None; n];
    for &(p, c, _) in edges {
        parents[c] = Some(p);
    }
    let net = WirelessNetwork::symmetric(CostMatrix::from_edges(n, edges), 0);
    SubstrateBuilder::from_owned(net)
        .explicit_tree(RootedTree::from_parents(0, parents))
        .build_universal()
}

/// Both Shapley engines' served cost against the reference on `set`.
fn check_shapley(
    ut: &UniversalTree,
    cold: &IncrementalShapley,
    sparse: &SparseShapley,
    set: &[usize],
) {
    assert_eq!(cold.active_stations(), set.to_vec());
    assert_eq!(sparse.active_stations(), set.to_vec());
    let want = ut.multicast_cost(set).to_bits();
    assert_eq!(cold.served_cost().to_bits(), want, "cold, R = {:?}", set);
    assert_eq!(
        sparse.served_cost().to_bits(),
        want,
        "sparse, R = {:?}",
        set
    );
}

/// Both oracles' efficient set, net worth and cost: the two walks agree
/// with each other, and the cost with the reference on the set.
fn check_mc(ut: &UniversalTree, dense: &NetWorthOracle, sparse: &SparseNetWorth) {
    let (set, nw, cost) = dense.efficient_set_with_cost();
    let (s_set, s_nw, s_cost) = sparse.efficient_set_with_cost();
    assert_eq!(&s_set, &set);
    assert_eq!(s_nw.to_bits(), nw.to_bits());
    let want = ut.multicast_cost(&set).to_bits();
    assert_eq!(cost.to_bits(), want, "dense, set = {:?}", &set);
    assert_eq!(s_cost.to_bits(), want, "sparse, set = {:?}", &set);
    assert_eq!(dense.efficient_set(), (set, nw));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A random join/leave walk over every family: after every step the
    /// warm frame engine's served cost, and a cold engine's rebuilt on
    /// the current set, are the reference's, bit for bit.
    #[test]
    fn shapley_served_cost_walks_equal_the_reference(
        seed in 0u64..10_000,
        family_ix in 0usize..5,
        n in 6usize..40,
        alpha_ix in 0usize..2,
        tree_ix in 0usize..2,
    ) {
        let family = LayoutFamily::ALL[family_ix];
        let ut = scenario_tree(family, n, [2.0, 4.0][alpha_ix], seed, tree_ix == 1);
        let mut sparse = SparseShapley::new(&ut);
        let mut local = vec![None; n];
        let mut set: Vec<usize> = Vec::new();
        check_shapley(&ut, &IncrementalShapley::new(&ut, &set), &sparse, &set);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e7);
        for _ in 0..2 * n {
            let x = rng.gen_range(1..n);
            match set.binary_search(&x) {
                Ok(i) => {
                    set.remove(i);
                    sparse.drop_receiver_local(local[x].expect("joined stations have a local id"));
                }
                Err(i) => {
                    set.insert(i, x);
                    local[x] = Some(sparse.add_receiver(x));
                }
            }
            check_shapley(&ut, &IncrementalShapley::new(&ut, &set), &sparse, &set);
        }
    }

    /// Random utility profiles over every family (a sparse subset of
    /// bidders, so the sparse oracle has out-of-frame stations): both
    /// oracles' efficient-set cost is the reference's, bit for bit.
    #[test]
    fn mc_efficient_set_cost_equals_the_reference(
        seed in 0u64..10_000,
        family_ix in 0usize..5,
        n in 6usize..40,
        alpha_ix in 0usize..2,
        tree_ix in 0usize..2,
    ) {
        let family = LayoutFamily::ALL[family_ix];
        let ut = scenario_tree(family, n, [2.0, 4.0][alpha_ix], seed, tree_ix == 1);
        let broadcast = ut.multicast_cost(&ut.network().non_source_stations());
        let hi = (2.0 * broadcast / (n - 1) as f64).max(1e-9);
        let mut u = vec![0.0; n];
        let mut sparse = SparseNetWorth::new(&ut);
        check_mc(&ut, &NetWorthOracle::new(&ut, &u), &sparse);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0);
        for _ in 0..n {
            let x = rng.gen_range(1..n);
            u[x] = if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(0.0..hi) };
            sparse.set_utility(x, u[x]);
            check_mc(&ut, &NetWorthOracle::new(&ut, &u), &sparse);
        }
    }
}

#[test]
fn empty_sets_cost_positive_zero() {
    let ut = scenario_tree(LayoutFamily::ALL[0], 12, 2.0, 3, false);
    let zero = 0.0f64.to_bits();
    assert_eq!(ut.multicast_cost(&[]).to_bits(), zero);
    assert_eq!(
        IncrementalShapley::new(&ut, &[]).served_cost().to_bits(),
        zero
    );
    assert_eq!(SparseShapley::new(&ut).served_cost().to_bits(), zero);
    let (set, _, cost) = NetWorthOracle::new(&ut, &[0.0; 12]).efficient_set_with_cost();
    assert!(set.is_empty());
    assert_eq!(cost.to_bits(), zero);
    let (set, _, cost) = SparseNetWorth::new(&ut).efficient_set_with_cost();
    assert!(set.is_empty());
    assert_eq!(cost.to_bits(), zero);
}

/// Zero-cost edges at every level: 0 → {1 (0.0), 2 (1.5)}, 1 → {3 (0.0),
/// 4 (0.0), 5 (2.0)}, 2 → {6 (0.0)}. Every receiver set and its served
/// cost, including sets whose every transmitting station emits `0.0`.
#[test]
fn zero_cost_edges_keep_the_reference_bits() {
    let ut = explicit_tree(
        7,
        &[
            (0, 1, 0.0),
            (0, 2, 1.5),
            (1, 3, 0.0),
            (1, 4, 0.0),
            (1, 5, 2.0),
            (2, 6, 0.0),
        ],
    );
    for mask in 0u32..(1 << 6) {
        let set: Vec<usize> = (1..7).filter(|&x| mask & (1 << (x - 1)) != 0).collect();
        let dense = IncrementalShapley::new(&ut, &set);
        let mut sparse = SparseShapley::new(&ut);
        for &x in &set {
            sparse.add_receiver(x);
        }
        check_shapley(&ut, &dense, &sparse, &set);
    }
}

/// The MC case the sparse walk reproduces on the fly: station 1 never
/// bids, so it is out of the sparse oracle's frame, but its zero-cost
/// edge from the source joins it to the efficient set, and its leading
/// zero-cost children 3 and 4 follow it (5, behind a costly edge, does
/// not). The set's cost is the source's power alone. Through the warm
/// MC session the local-id selection walk reaches 1, 3 and 4 with no
/// local id; its reprice equals the cold `vcg_outcome` in receivers,
/// every share bit and the served cost, and serves those riders at
/// exactly `0.0`.
#[test]
fn out_of_frame_zero_cost_children_join_the_efficient_set() {
    let ut = explicit_tree(
        6,
        &[
            (0, 1, 0.0),
            (0, 2, 1.0),
            (1, 3, 0.0),
            (1, 4, 0.0),
            (1, 5, 2.0),
        ],
    );
    let mut u = vec![0.0; 6];
    u[2] = 5.0;
    let dense = NetWorthOracle::new(&ut, &u);
    let mut sparse = SparseNetWorth::new(&ut);
    sparse.set_utility(2, 5.0);
    assert_eq!(sparse.frame_len(), 2, "only the bidder's path is framed");
    let (set, nw, cost) = sparse.efficient_set_with_cost();
    assert_eq!(set, vec![1, 2, 3, 4]);
    assert_eq!(nw, 4.0);
    assert_eq!(cost.to_bits(), 1.0f64.to_bits());
    check_mc(&ut, &dense, &sparse);

    let net = ut.network();
    let player = |x: usize| {
        net.player_of_station(x)
            .expect("non-source stations are players")
    };
    let mut session = SparseMcSession::new(&ut);
    let warm = session.apply_batch(&[ChurnEvent::Join {
        player: player(2),
        utility: 5.0,
    }]);
    assert_eq!(session.frame_len(), 2, "only the bidder's path is framed");
    let cold = vcg_outcome(&ut, &dense);
    assert_eq!(warm.receivers, cold.receivers);
    assert_eq!(
        warm.receivers,
        set.iter().map(|&x| player(x)).collect::<Vec<_>>()
    );
    for (p, (w, c)) in warm.shares.iter().zip(&cold.shares).enumerate() {
        assert_eq!(w.to_bits(), c.to_bits(), "player {p}");
    }
    assert_eq!(warm.served_cost.to_bits(), cold.served_cost.to_bits());
    for x in [1, 3, 4] {
        assert_eq!(
            warm.shares[player(x)].to_bits(),
            0.0f64.to_bits(),
            "rider {x}"
        );
    }
}

/// Scale gate: a populated sparse Shapley session at n = 10⁴ (lazy
/// network, spatial SPT) charges, bit for bit, the reference
/// `shapley_shares` of its served set and serves at its reference cost.
/// Half the members bid their standalone root-path cost — never below
/// their share, so the served set cannot be empty — and half bid a
/// fraction of it, so the drop loop really runs.
#[test]
fn sparse_session_final_shares_match_the_reference_at_scale() {
    const N: usize = 10_000;
    let side = (N as f64).sqrt() * 10.0;
    let mut rng = SmallRng::seed_from_u64(17);
    let pts: Vec<Point> = (0..N)
        .map(|_| Point::xy(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    let ut = SubstrateBuilder::from_owned(WirelessNetwork::euclidean_lazy(
        pts,
        PowerModel::free_space(),
        0,
    ))
    .tree(TreeKind::Spt)
    .backend(Backend::Spatial)
    .build_universal();
    let net = ut.network();

    let mut session = SparseShapleySession::new(&ut);
    let mut served_total = 0;
    for batch in 0..3 {
        let events: Vec<ChurnEvent> = (0..48)
            .map(|_| {
                let player = rng.gen_range(0..net.n_players());
                let alone = ut.multicast_cost(&[net.station_of_player(player)]);
                let scale = if rng.gen_bool(0.5) {
                    1.0
                } else {
                    rng.gen_range(0.05..0.6)
                };
                ChurnEvent::Join {
                    player,
                    utility: alone * scale,
                }
            })
            .collect();
        let out = session.apply_batch(&events);
        assert!(!out.receivers.is_empty(), "batch {batch}: nobody served");
        served_total += out.receivers.len();
        let stations: Vec<usize> = out
            .receivers
            .iter()
            .map(|&p| net.station_of_player(p))
            .collect();
        let reference = ut.shapley_shares(&stations);
        for &p in &out.receivers {
            assert_eq!(
                out.shares[p].to_bits(),
                reference[net.station_of_player(p)].to_bits(),
                "batch {batch}, player {p}"
            );
        }
        assert_eq!(
            out.served_cost.to_bits(),
            ut.multicast_cost(&stations).to_bits(),
            "batch {batch}"
        );
    }
    assert!(served_total > 0);
}
