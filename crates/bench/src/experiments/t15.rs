//! T15 — frame table: the multi-group service's frame-local warm
//! sessions gated byte-identical to a per-group cold reference, with
//! warm bytes/group.
//!
//! Each `(scenario, seed)` cell serves the same deterministic
//! [`MultiGroupProcess`] workload T12 uses through one
//! [`MulticastService`] over a shared substrate, whose groups keep their
//! warm state on the path closure of their members only (§2f of
//! DESIGN.md). Next to it, every group has a [`ColdSession`]: its bids
//! under the total event semantics, re-priced from scratch after every
//! batch by the universe-indexed engines. After **every batch** the
//! cell gates byte-identity of the full outcome: receivers, every `f64`
//! share bit, and the served-cost bits.
//!
//! The warm bytes/group land in the table as an informational column.
//! The ≥ 10× saving against universe-sized state is measured at
//! G = 4096 × n = 10⁵ in the release-mode `stream_slo` example (see
//! EXPERIMENTS.md); this table's job is the identity gate across every
//! layout family × mechanism mix.

use crate::harness::scenario_network;
use crate::registry::{all_true, mean, Experiment, Obs, RowSummary};
use wmcs_game::MechanismOutcome;
use wmcs_geom::{LayoutFamily, MultiGroupProcess, Scenario, EPS};
use wmcs_wireless::{ColdSession, GroupMechanism, MulticastService, SubstrateBuilder, TreeKind};

/// Churn batches per group (after the per-group warm-up batch).
const BATCHES: usize = 4;

/// Receivers equal, and every share and the served cost equal bit for
/// bit.
fn same_bits(a: &MechanismOutcome, b: &MechanismOutcome) -> bool {
    a.receivers == b.receivers
        && a.shares.len() == b.shares.len()
        && a.shares
            .iter()
            .zip(&b.shares)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.served_cost.to_bits() == b.served_cost.to_bits()
}

/// The T15 experiment (registered as `"T15"`).
pub struct T15;

impl Experiment for T15 {
    fn id(&self) -> &'static str {
        "T15"
    }

    fn title(&self) -> &'static str {
        "frame: frame-local service sessions ≡ per-group cold reference, bytes/group"
    }

    fn claim(&self) -> &'static str {
        "per-group warm state over the member path closure (local-id subframes) is \
         byte-identical to a per-group cold reference re-priced from scratch by the \
         universe-indexed engines — receivers, every f64 share bit, and served cost, after \
         every batch, on every layout family and both mechanisms"
    }

    fn columns(&self) -> &'static [&'static str] {
        &["scenario", "seeds", "events", "frame B/grp", "frame≡cold"]
    }

    fn scenarios(&self) -> Vec<Scenario> {
        Scenario::matrix(&LayoutFamily::ALL, &[64, 256], &[2], &[2.0, 4.0])
            .into_iter()
            .map(|sc| sc.with_groups(sc.n / 4))
            .collect()
    }

    fn measure(&self, scenario: &Scenario, seed: u64) -> Obs {
        let net = scenario_network(scenario, seed);
        let ut = SubstrateBuilder::new(&net)
            .tree(TreeKind::Spt)
            .build_universal();
        let net = ut.network();
        let n_players = net.n_players();
        let g = scenario.groups;
        let broadcast = ut.multicast_cost(&net.non_source_stations());
        let hi = (2.0 * broadcast / n_players as f64).max(EPS);
        let trace = MultiGroupProcess::new(n_players, g, BATCHES, hi, seed ^ 0x7a15).generate();

        let mut service = MulticastService::new(&ut).with_threads(0);
        let mut cold: Vec<ColdSession> = (0..g)
            .map(|i| {
                let mechanism = GroupMechanism::alternating(i);
                service.add_group(mechanism);
                ColdSession::new(mechanism, &ut)
            })
            .collect();

        let mut identical = true;
        let mut events = 0usize;
        for b in 0..trace.n_batches() {
            let batches: Vec<Vec<_>> = trace
                .groups
                .iter()
                .map(|gr| gr.trace.batches[b].clone())
                .collect();
            events += batches.iter().map(Vec::len).sum::<usize>();
            let got = service.step_all(&batches);
            for ((reference, batch), out) in cold.iter_mut().zip(&batches).zip(&got) {
                identical &= same_bits(&out.outcome, &reference.price_batch(batch));
            }
        }

        vec![
            events as f64,
            service.memory_bytes() as f64 / g as f64,
            f64::from(identical),
        ]
    }

    fn row(&self, scenario: &Scenario, obs: &[Obs]) -> RowSummary {
        let identical = all_true(obs, 2);
        RowSummary::gated(
            vec![
                scenario.label(),
                obs.len().to_string(),
                format!("{:.0}", mean(obs, 0)),
                format!("{:.0}", mean(obs, 1)),
                identical.to_string(),
            ],
            identical,
        )
    }

    fn verdict(&self, rows: &[RowSummary]) -> String {
        if rows.iter().all(|r| r.good) {
            "frame-local service sessions are byte-identical to the per-group cold reference \
             on every layout family and both mechanisms, after every batch; warm bytes/group \
             scale with the member closure (the 10× saving is measured at G = 4096 × \
             n = 10⁵ in stream_slo, where the closure is ~10³ of 10⁵ stations)"
                .into()
        } else {
            "MISMATCH".into()
        }
    }
}
