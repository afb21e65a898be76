//! Multi-group service throughput: sharded vs single-thread vs per-group
//! cold runs (criterion).
//!
//! One deterministic [`MultiGroupProcess`] workload — G = 1024 groups
//! (alternating Shapley / MC) with Zipf sizes and overlapping member
//! sets over an n = 4096 uniform instance — is served three ways:
//!
//! * `sharded` — one [`MulticastService`] on the shared substrate, the
//!   worker pool at available parallelism;
//! * `single_thread` — the same service pinned to 1 worker (the
//!   byte-identity reference the shard is gated against in T12);
//! * `per_group_cold` — the pre-service status quo: per batch and per
//!   group, a cold rebuild on the group's current bids, one
//!   [`ColdSession`] per group (`shapley_drop_run_from` for Shapley
//!   groups, a fresh `NetWorthOracle` + `vcg_outcome` for MC groups).
//!
//! All variants start **after** the warm-up batches (absorbed outside
//! the timers) and replay the same churn batches on identical state
//! sequences; every variant clones its warmed state inside the timer
//! (no `iter_batched` in the vendored shim). Setup prints the
//! events per iteration so timings convert to events/sec; the headline
//! numbers are recorded in EXPERIMENTS.md.
//!
//! `WMCS_BENCH_SMOKE=1` shrinks the workload (G = 32, n = 256) and the
//! measurement time so CI can compile-and-run this bench as a bit-rot
//! gate (see `.github/workflows/ci.yml`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use wmcs_bench::harness::random_euclidean;
use wmcs_geom::{ChurnEvent, MultiGroupProcess, MultiGroupTrace};
use wmcs_wireless::{
    ColdSession, GroupMechanism, MulticastService, SubstrateBuilder, TreeKind, UniversalTree,
};

/// Churn batches per group after the warm-up batch.
const BATCHES: usize = 4;

fn smoke() -> bool {
    std::env::var_os("WMCS_BENCH_SMOKE").is_some()
}

/// Instance + multi-group workload at (n stations, G groups).
fn setup(n: usize, g: usize) -> (UniversalTree, MultiGroupTrace) {
    let net = random_euclidean(42, n, 2.0, 10.0);
    let ut = SubstrateBuilder::new(&net)
        .tree(TreeKind::Spt)
        .build_universal();
    let broadcast = ut.multicast_cost(&ut.network().non_source_stations());
    let hi = 2.0 * broadcast / (n - 1) as f64;
    let trace = MultiGroupProcess::new(n - 1, g, BATCHES, hi, 43).generate();
    (ut, trace)
}

/// A service over `ut` with the trace's groups registered and every
/// warm-up batch (batch 0 of each group) absorbed — the steady state all
/// timed variants start from.
fn warmed_service(ut: &UniversalTree, trace: &MultiGroupTrace, threads: usize) -> MulticastService {
    let mut svc = MulticastService::new(ut).with_threads(threads);
    for i in 0..trace.groups.len() {
        svc.add_group(GroupMechanism::alternating(i));
    }
    let warmup: Vec<Vec<ChurnEvent>> = trace
        .groups
        .iter()
        .map(|gr| gr.trace.batches[0].clone())
        .collect();
    svc.step_all(&warmup);
    svc
}

/// The churn batches (after warm-up) in step form: `steps[b][g]` is
/// group g's batch b+1.
fn churn_steps(trace: &MultiGroupTrace) -> Vec<Vec<Vec<ChurnEvent>>> {
    (1..trace.n_batches())
        .map(|b| {
            trace
                .groups
                .iter()
                .map(|gr| gr.trace.batches[b].clone())
                .collect()
        })
        .collect()
}

fn service_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    let (n, g) = if smoke() { (256, 32) } else { (4096, 1024) };

    let (ut, trace) = setup(n, g);
    let steps = churn_steps(&trace);
    let churn_events: usize = steps
        .iter()
        .flat_map(|batches| batches.iter().map(Vec::len))
        .sum();
    eprintln!(
        "service_throughput: n={n} G={g}, {churn_events} churn events per iteration \
         ({BATCHES} batches/group)"
    );

    let warmed = warmed_service(&ut, &trace, 0);
    let warmed_serial = warmed.clone().with_threads(1);
    let label = format!("G{g}_n{n}");
    eprintln!(
        "service_throughput: warm session state {} bytes/group",
        warmed.memory_bytes() / g
    );

    group.bench_with_input(BenchmarkId::new("sharded", &label), &g, |b, _| {
        b.iter(|| {
            let mut svc = warmed.clone();
            let mut served = 0usize;
            for batches in &steps {
                served += svc
                    .step_all(batches)
                    .iter()
                    .map(|o| o.outcome.receivers.len())
                    .sum::<usize>();
            }
            served
        })
    });
    group.bench_with_input(BenchmarkId::new("single_thread", &label), &g, |b, _| {
        b.iter(|| {
            let mut svc = warmed_serial.clone();
            let mut served = 0usize;
            for batches in &steps {
                served += svc
                    .step_all(batches)
                    .iter()
                    .map(|o| o.outcome.receivers.len())
                    .sum::<usize>();
            }
            served
        })
    });

    // One cold reference per group, holding its bids after the warm-up
    // batch.
    let warmed_cold: Vec<ColdSession> = trace
        .groups
        .iter()
        .enumerate()
        .map(|(i, gr)| {
            let mut cold = ColdSession::new(GroupMechanism::alternating(i), &ut);
            cold.price_batch(&gr.trace.batches[0]);
            cold
        })
        .collect();
    group.bench_with_input(BenchmarkId::new("per_group_cold", &label), &g, |b, _| {
        b.iter(|| {
            let mut cold = warmed_cold.clone();
            let mut served = 0usize;
            for batches in &steps {
                for (group, batch) in cold.iter_mut().zip(batches) {
                    served += group.price_batch(batch).receivers.len();
                }
            }
            served
        })
    });
    group.finish();
}

fn configured() -> Criterion {
    if smoke() {
        Criterion::default()
            .measurement_time(Duration::from_millis(80))
            .warm_up_time(Duration::from_millis(20))
    } else {
        Criterion::default()
            .measurement_time(Duration::from_secs(3))
            .warm_up_time(Duration::from_millis(500))
    }
}

criterion_group! {
    name = benches;
    config = configured();
    targets = service_throughput
}
criterion_main!(benches);
