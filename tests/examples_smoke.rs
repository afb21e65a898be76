//! Smoke tests pinning the core code path of each of the eight
//! `examples/`, so the examples cannot silently rot: every load-bearing
//! assertion an example makes when run as a binary is re-asserted here
//! under `cargo test` (the example sources themselves are compile-checked
//! by `cargo build --examples` / CI).

use multicast_cost_sharing::game::{core_allocation, submodularity_violation};
use multicast_cost_sharing::prelude::*;

/// `examples/quickstart.rs`: the four headline mechanisms all run on the
/// 7-station network, the Shapley mechanism balances its budget, and the
/// Steiner mechanism covers the cost it serves.
#[test]
fn quickstart_mechanisms_run_and_cover_cost() {
    let pts = vec![
        Point::xy(5.0, 5.0),
        Point::xy(2.0, 4.0),
        Point::xy(8.0, 6.5),
        Point::xy(4.5, 8.0),
        Point::xy(6.0, 1.5),
        Point::xy(9.0, 2.0),
        Point::xy(1.0, 8.5),
    ];
    let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
    let utilities = vec![24.0, 40.0, 12.0, 2.0, 30.0, 18.0];

    let shapley = UniversalShapleyMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Spt)
            .build_universal(),
    );
    let out = shapley.run(&utilities);
    assert!(
        (out.revenue() - out.served_cost).abs() < 1e-9,
        "Shapley is 1-BB"
    );

    let mc = UniversalMcMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Spt)
            .build_universal(),
    );
    let out = mc.run(&utilities);
    assert!(
        out.revenue() <= out.served_cost + 1e-9,
        "MC never runs a surplus"
    );

    let steiner = EuclideanSteinerMechanism::new(&net);
    let out = steiner.run(&utilities);
    assert!(
        out.revenue() >= out.served_cost - 1e-9,
        "Steiner covers served cost"
    );

    let wireless = WirelessMulticastMechanism::new(&net);
    let out = wireless.run(&utilities);
    assert!(
        out.revenue() >= out.served_cost - 1e-9,
        "wireless covers served cost"
    );

    let all: Vec<usize> = (1..7).collect();
    let (exact, _) = memt_exact(&net, &all);
    assert!(
        out.served_cost >= exact - 1e-9,
        "no mechanism beats the optimum"
    );
}

/// `examples/collusion_fig1.rs`: the paper's Fig. 1 — x7 under-reporting
/// makes x1, x5, x6 strictly better off while x7 loses nothing, yet no
/// unilateral lie is profitable (Theorem 2.3).
#[test]
fn collusion_fig1_group_deviation_exists_but_no_unilateral_lie() {
    let (graph, terminals, utilities) = fig1_instance();
    let mech = NwstCostSharingMechanism::new(graph, terminals);

    let truthful = mech.run(&utilities);
    let mut lie = utilities.clone();
    lie[3] = 1.5 - 0.3; // x7 under-reports
    let colluded = mech.run(&lie);
    for p in 0..3 {
        assert!(
            colluded.welfare(p, &utilities) > truthful.welfare(p, &utilities) + 1e-9,
            "player {p} must strictly gain from the collusion"
        );
    }
    assert!(
        colluded.welfare(3, &utilities) >= truthful.welfare(3, &utilities) - 1e-9,
        "x7 must not lose from the collusion"
    );

    assert!(
        find_unilateral_deviation(&mech, &utilities, 1e-7).is_none(),
        "no single player can profit by lying (Theorem 2.3)"
    );
    assert!(
        find_group_deviation(&mech, &utilities, 2, 1e-7).is_some(),
        "the coalition sweep must rediscover Fig. 1's collusion"
    );
}

/// `examples/empty_core_pentagon.rs`: Lemma 3.3 — the pentagon's optimal
/// cost game has an empty core and violates submodularity.
#[test]
fn pentagon_core_is_empty_and_submodularity_fails() {
    let inst = PentagonInstance::new(10.0);
    let full = inst.optimal_cost(&[0, 1, 2, 3, 4]);
    assert!(
        inst.optimal_cost(&[0]) > full / 5.0,
        "Lemma 3.3: a single external costs more than its full-set share"
    );
    assert!(
        inst.optimal_cost(&[0, 1]) < 2.0 * full / 5.0,
        "Lemma 3.3: an adjacent pair costs less than two full-set shares"
    );
    let game = inst.cost_game();
    assert!(
        core_allocation(&game).is_none(),
        "core(C*) must be empty (LP infeasible over all 2^5 coalitions)"
    );
    assert!(
        submodularity_violation(&game).is_some(),
        "C* must violate submodularity on the pentagon"
    );
}

/// `examples/highway_line.rs`: d = 1 — the line Shapley mechanism is
/// exactly budget balanced and the MC mechanism never runs a surplus.
#[test]
fn highway_line_shapley_balances_and_mc_runs_deficit() {
    let positions = [0.0, 1.5, 3.0, 4.2, 6.0, 7.1, 9.0, 12.0];
    let pts: Vec<Point> = positions.iter().map(|&x| Point::on_line(x)).collect();
    let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 4);
    let utilities = vec![3.0, 8.0, 2.0, 10.0, 9.0, 1.0, 14.0];

    let shapley = LineShapleyMechanism::new(LineSolver::new(&net));
    let out = shapley.run(&utilities);
    assert!(
        (out.revenue() - out.served_cost).abs() < 1e-9,
        "line Shapley is 1-BB w.r.t. the chain-form cost"
    );

    let mc = LineMcMechanism::new(LineSolver::new(&net));
    let eff = mc.run(&utilities);
    assert!(
        eff.revenue() <= eff.served_cost + 1e-9,
        "MC never runs a surplus"
    );
}

/// `examples/campus_broadcast.rs`: over the example's six demand sessions
/// the universal Shapley mechanism stays exactly balanced and the MC
/// mechanism only ever runs deficits.
#[test]
fn campus_broadcast_shapley_exact_mc_deficit() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let cfg = InstanceConfig {
        n: 12,
        dim: 2,
        kind: InstanceKind::Grid { spacing: 3.0 },
        seed: 7,
    };
    let pts = cfg.generate();
    let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
    let n = net.n_players();

    let shapley = UniversalShapleyMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Mst)
            .build_universal(),
    );
    let mc = UniversalMcMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Mst)
            .build_universal(),
    );

    let mut rng = SmallRng::seed_from_u64(42);
    for _session in 0..6 {
        let demand_scale = rng.gen_range(0.5..4.0);
        let utilities: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(0.0..10.0) * demand_scale)
            .collect();
        let sh = shapley.run(&utilities);
        assert!(
            (sh.revenue() - sh.served_cost).abs() < 1e-6,
            "Shapley must run exactly balanced"
        );
        let eff = mc.run(&utilities);
        assert!(
            eff.served_cost - eff.revenue() >= -1e-6,
            "MC never runs a surplus"
        );
    }
}

/// `examples/live_session.rs`: across the example's churn trace the warm
/// Shapley session stays byte-identical to a cold rebuild on the current
/// receiver set and exactly budget balanced after every batch, and the
/// MC session agrees with the one-shot MC mechanism on the same bids.
#[test]
fn live_session_warm_equals_cold_and_balances_every_batch() {
    use multicast_cost_sharing::wireless::shapley_drop_run_from;

    let cfg = InstanceConfig {
        n: 24,
        dim: 2,
        kind: InstanceKind::Grid { spacing: 2.0 },
        seed: 11,
    };
    let net = WirelessNetwork::euclidean(cfg.generate(), PowerModel::free_space(), 0);
    let n = net.n_players();
    let shapley = UniversalShapleyMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Mst)
            .build_universal(),
    );
    let mc = UniversalMcMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Mst)
            .build_universal(),
    );
    let trace = ChurnProcess::new(n, 8, 4, 25.0, 2026).generate();

    let mut live = shapley.session();
    let mut welfare_view = mc.session();
    let mut served_any = false;
    for batch in &trace.batches {
        live.apply_events(batch);
        let candidates = live.active_players();
        let bids = live.reported_profile();
        let out = live.reprice();
        let cold = shapley_drop_run_from(shapley.universal_tree(), &bids, &candidates);
        assert_eq!(out.receivers, cold.receivers, "warm/cold receiver drift");
        assert_eq!(out.shares, cold.shares, "warm/cold share drift");
        assert_eq!(out.served_cost, cold.served_cost, "warm/cold cost drift");
        assert!(
            (out.revenue() - out.served_cost).abs() <= 1e-9 * (1.0 + out.served_cost),
            "session batch must be exactly budget balanced"
        );
        served_any |= !out.receivers.is_empty();

        let eff = welfare_view.apply_batch(batch);
        let one_shot = mc.run(&welfare_view.reported_profile());
        assert_eq!(eff.receivers, one_shot.receivers);
        assert_eq!(eff.shares, one_shot.shares);
    }
    assert!(
        served_any,
        "the example's trace must actually serve someone"
    );
    assert_eq!(live.n_events(), trace.n_events());
}

/// `examples/disaster_relief.rs`: on the clustered instance the Steiner
/// mechanism admits no profitable unilateral deviation, and lowballing
/// never beats truth-telling.
#[test]
fn disaster_relief_truthfulness_holds() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let mut rng = SmallRng::seed_from_u64(20040627);
    let cfg = InstanceConfig {
        n: 16,
        dim: 2,
        kind: InstanceKind::Clustered {
            clusters: 3,
            spread: 1.2,
            side: 14.0,
        },
        seed: 99,
    };
    let mut pts = cfg.generate();
    pts[0] = Point::xy(7.0, 7.0);
    let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
    let n = net.n_players();
    let utilities: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..80.0)).collect();

    let mech = EuclideanSteinerMechanism::new(&net);
    let truthful = mech.run(&utilities);
    assert!(truthful.revenue() >= truthful.served_cost - 1e-9);

    // Lowballing (the example's team-1 scenario) never improves welfare.
    if let Some(&p) = truthful.receivers.first() {
        let mut lie = utilities.clone();
        lie[p] = utilities[p] / 20.0;
        let lied = mech.run(&lie);
        assert!(
            lied.welfare(p, &utilities) <= truthful.welfare(p, &utilities) + 1e-9,
            "lowballing must never be profitable"
        );
    }

    assert!(
        find_unilateral_deviation(&mech, &utilities, 1e-6).is_none(),
        "deviation sweep: no profitable unilateral lie exists"
    );
}

/// `examples/multi_group.rs`: twelve concurrent groups over one shared
/// substrate — every step's group-0 outcome byte-identical to a
/// single-group session on its own substrate, Shapley groups exactly
/// budget balanced per batch, and the service's event accounting
/// consistent with the trace.
#[test]
fn multi_group_service_isolates_groups_and_balances_budgets() {
    use multicast_cost_sharing::wireless::SparseShapleySession;

    let cfg = InstanceConfig {
        n: 49,
        dim: 2,
        kind: InstanceKind::Grid { spacing: 1.5 },
        seed: 5,
    };
    let net = WirelessNetwork::euclidean(cfg.generate(), PowerModel::free_space(), 0);
    let n = net.n_players();
    let ut = SubstrateBuilder::new(&net)
        .tree(TreeKind::Spt)
        .build_universal();
    let trace = MultiGroupProcess::new(n, 12, 6, 30.0, 77).generate();
    let mut service = MulticastService::new(&ut);
    for g in 0..trace.groups.len() {
        service.add_group(GroupMechanism::alternating(g));
    }
    let own_substrate = SubstrateBuilder::new(&net)
        .tree(TreeKind::Spt)
        .build_universal();
    let mut alone = SparseShapleySession::new(&own_substrate);

    let mut served_any = false;
    for b in 0..trace.n_batches() {
        let batches: Vec<Vec<ChurnEvent>> = trace
            .groups
            .iter()
            .map(|g| g.trace.batches[b].clone())
            .collect();
        let outcomes = service.step_all(&batches);
        let reference = alone.apply_batch(&batches[0]);
        assert_eq!(outcomes[0].outcome, reference, "isolation violated");
        for (g, out) in outcomes.iter().enumerate() {
            served_any |= !out.outcome.receivers.is_empty();
            if GroupMechanism::alternating(g) == GroupMechanism::Shapley {
                let stations: Vec<usize> = out
                    .outcome
                    .receivers
                    .iter()
                    .map(|&p| net.station_of_player(p))
                    .collect();
                let c = ut.multicast_cost(&stations);
                assert!(
                    (out.outcome.revenue() - c).abs() <= 1e-9 * (1.0 + c),
                    "group {g} lost budget balance"
                );
            }
        }
    }
    assert!(
        served_any,
        "the example's trace must actually serve someone"
    );
    assert_eq!(service.n_steps(), trace.n_batches());
    assert_eq!(service.n_events(), trace.n_events());
}
