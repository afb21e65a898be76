//! Release-mode streaming SLO smoke: ≥ 1M events/s through the epoch
//! pipeline at G = 4096 groups on a shared n = 100 000 spatial substrate.
//!
//! The network stays **lazy** (no `O(n²)` cost matrix), `Backend::Spatial`
//! grows the universal tree through the grid index, and one
//! [`StreamService`] ingests a 2²¹-event rebid stream round-robined
//! across the groups. The gate is threefold:
//!
//! * **throughput** — the timed drive must sustain at least
//!   `WMCS_STREAM_SLO_MIN` events/s (default 1 000 000; the env override
//!   exists because CI containers are 1-core and heavily shared, see
//!   `.github/workflows/ci.yml`). Every group's warm state is the
//!   frame-local member path closure (~397 KB/group, ~1.6 GB total),
//!   not universe-sized vectors (~5.3 MB/group); EXPERIMENTS.md records
//!   the sweeps;
//! * **memory** — warm bytes/group (printed from
//!   [`StreamService::memory_bytes`]) must stay under a 512 KB ceiling,
//!   pinning the ≥ 10× frame saving against regressions;
//! * **accounting** — every submission is accepted (capacity 1024 >
//!   watermark 512 means the queue can never saturate before sealing),
//!   nothing is rejected or retried, and exactly one epoch seals per
//!   group (512 events/group at watermark 512);
//! * **correctness spot-check** — a sampled Shapley group's epoch
//!   outcome balances its budget, mirroring `examples/large_scale.rs`.
//!
//! Every group prices with Shapley: the MC mechanism's warm reprice
//! re-runs its full selection walk (~8× a Shapley epoch at this n —
//! EXPERIMENTS.md records the measured ratio), so an alternating mix
//! would gate the pipeline on the mechanism, not the stream. T14 pins
//! byte-identity for both mechanisms; this smoke pins the SLO.
//!
//! Wall-clock timing here is informational + SLO gating only — it never
//! flows into a byte-identity verdict, which is why `Instant` is allowed
//! in this example while the audit bans it from verdict paths.
//!
//! ```text
//! cargo run --release -p wmcs-bench --example stream_slo
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wmcs_geom::{ChurnEvent, Point, PowerModel};
use wmcs_wireless::{
    Backend, GroupMechanism, StreamConfig, StreamService, SubstrateBuilder, TreeKind,
    WirelessNetwork,
};

/// Stations (players = N − 1 non-source stations).
const N: usize = 100_000;
/// Concurrent multicast groups sharing the substrate.
const G: usize = 4096;
/// Members joined per group during warm-up.
const MEMBERS: usize = 32;
/// Timed rebid submissions (2²¹).
const EVENTS: usize = 1 << 21;
/// Count watermark sealing an epoch.
const WATERMARK: usize = 512;
/// Bounded per-group queue capacity (> watermark: no saturation seals).
const CAPACITY: usize = 1024;
/// Epoch workers on the pool.
const THREADS: usize = 2;
/// Warm bytes/group ceiling: the compact-frame layout measures ~397 KB
/// per group at MEMBERS = 32 (a ~5 200-station path closure — SPT paths
/// under distance² costs are many-hop), against ~5.3 MB for
/// universe-sized vectors. The ceiling pins the ≥ 10× drop with headroom
/// for deeper member draws.
const MEMORY_CEILING: usize = 524_288;

fn main() {
    let slo_min: f64 = std::env::var("WMCS_STREAM_SLO_MIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000.0);

    // Constant-density uniform stations, lazy storage (a dense matrix
    // at this n would be 80 GB).
    let side = (N as f64).sqrt() * 10.0;
    let mut rng = SmallRng::seed_from_u64(14);
    let pts: Vec<Point> = (0..N)
        .map(|_| Point::xy(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    let net = WirelessNetwork::euclidean_lazy(pts, PowerModel::free_space(), 0);

    #[allow(clippy::disallowed_methods)]
    let t = std::time::Instant::now();
    let ut = SubstrateBuilder::from_owned(net)
        .tree(TreeKind::Spt)
        .backend(Backend::Spatial)
        .build_universal();
    println!(
        "built n = {N} substrate via Backend::Spatial in {:.2?}",
        t.elapsed()
    );

    let n_players = N - 1;
    let broadcast = ut.multicast_cost(&ut.network().non_source_stations());
    let hi = 2.0 * broadcast / n_players as f64;

    let mut svc = StreamService::new(&ut, StreamConfig::new(WATERMARK, CAPACITY, THREADS));
    #[allow(clippy::disallowed_methods)]
    let t = std::time::Instant::now();
    for _ in 0..G {
        svc.add_group(GroupMechanism::Shapley);
    }
    println!("registered G = {G} warm sessions in {:.2?}", t.elapsed());

    // Deterministic membership: MEMBERS players per group, drawn from a
    // per-group generator (collisions within a group just re-join).
    let members: Vec<Vec<usize>> = (0..G)
        .map(|g| {
            let mut r = SmallRng::seed_from_u64(0x51_0000 + g as u64);
            (0..MEMBERS).map(|_| r.gen_range(0..n_players)).collect()
        })
        .collect();

    // Warm-up: every member joins; epochs seal on flush (32 < watermark).
    let ((), report) = svc.drive(|h| {
        for (g, m) in members.iter().enumerate() {
            for &p in m {
                h.submit_blocking(
                    g,
                    ChurnEvent::Join {
                        player: p,
                        utility: hi,
                    },
                );
            }
        }
    });
    assert_eq!(
        report.n_accepted(),
        (G * MEMBERS) as u64,
        "warm-up accepted"
    );
    assert_eq!(report.n_rejected(), 0, "warm-up rejected");

    // Timed stream: EVENTS rebids, round-robin across groups, so each
    // group sees exactly EVENTS / G = 512 events — one watermark seal.
    let mut utility = SmallRng::seed_from_u64(0x51_beef);
    let stream: Vec<(usize, ChurnEvent)> = (0..EVENTS)
        .map(|k| {
            let g = k % G;
            let p = members[g][(k / G) % MEMBERS];
            (
                g,
                ChurnEvent::Rebid {
                    player: p,
                    utility: utility.gen_range(0.0..hi),
                },
            )
        })
        .collect();

    #[allow(clippy::disallowed_methods)]
    let t = std::time::Instant::now();
    let ((), report) = svc.drive(|h| {
        for &(g, ev) in &stream {
            h.submit_blocking(g, ev);
        }
    });
    let secs = t.elapsed().as_secs_f64();
    let throughput = EVENTS as f64 / secs;

    // Accounting: nothing rejected, nothing retried, one epoch per group.
    assert_eq!(report.n_accepted(), EVENTS as u64, "all events accepted");
    assert_eq!(report.n_rejected(), 0, "no saturation seals");
    assert_eq!(report.n_retries(), 0, "no busy retries");
    assert_eq!(report.n_epochs(), G, "one watermark seal per group");
    for gr in &report.groups {
        assert_eq!(gr.epochs.len(), 1, "group {}: epoch count", gr.group);
        assert_eq!(
            gr.epochs[0].n_events, WATERMARK,
            "group {}: epoch size",
            gr.group
        );
    }

    // Warm-memory SLO: per-group warm state tracks the member path
    // closure, not the universe. Universe-sized vectors would measure
    // ~5.3 MB/group here; the ceiling asserts the ≥ 10× drop with
    // generous headroom.
    let bytes_per_group = svc.memory_bytes() / G;
    println!("warm session state: {bytes_per_group} bytes/group (G = {G}, n = {N})");
    assert!(
        bytes_per_group <= MEMORY_CEILING,
        "warm state {bytes_per_group} B/group exceeds the {MEMORY_CEILING} B ceiling \
         (warm state must track the member closure at n = {N})"
    );

    // BB spot-check on the first Shapley group's sealed epoch.
    let out = &report.groups[0].epochs[0].outcome;
    assert!(
        (out.revenue() - out.served_cost).abs() <= 1e-9 * (1.0 + out.served_cost),
        "group 0 epoch 0: revenue {} drifted from cost {}",
        out.revenue(),
        out.served_cost
    );

    println!(
        "streamed {EVENTS} events into {} epochs in {secs:.2}s — {:.0} events/s \
         (SLO floor {slo_min:.0})",
        report.n_epochs(),
        throughput
    );
    assert!(
        throughput >= slo_min,
        "throughput {throughput:.0} events/s below the {slo_min:.0} SLO floor \
         (override with WMCS_STREAM_SLO_MIN for slower machines)"
    );
    println!("stream SLO smoke passed: ≥ {slo_min:.0} events/s at G = {G}, n = {N}");
}
