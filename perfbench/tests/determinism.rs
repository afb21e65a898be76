//! The benchmark's counters are deterministic: the same seed gives the
//! same counts on every run and at every worker count, and a held-out
//! seed runs clean, so a later claim can be re-checked on it.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! Each workload runs at its normative size; the end-to-end runs make a
//! single timed repetition.

use wmcs_perfbench::{run, Options, RunResult, Workload};

fn run_at(workload: Workload, seed: u64, threads: usize, trace: bool) -> RunResult {
    let mut opts = Options::new(workload, seed);
    opts.trace = trace;
    opts.threads = threads;
    opts.seconds = 0.5;
    let res = run(&opts);
    assert!(
        res.correct && res.failed == 0,
        "{} seed {seed} threads {threads}: {:#?}",
        workload.name(),
        res.lines
    );
    res
}

#[test]
fn counts_repeat_for_a_seed_and_for_any_worker_count() {
    // Stream workloads run `threads − 1` epoch workers (at least one):
    // 1 → one worker, 3 → two; `service_table` runs 1 vs 3 step threads.
    for workload in Workload::ALL {
        let a = run_at(workload, 11, 1, true);
        let b = run_at(workload, 11, 1, true);
        let c = run_at(workload, 11, 3, true);
        assert!(a.counts["stream.events"] > 0 && a.counts["replay.compared"] > 0);
        assert_eq!(a.counts, b.counts, "{}: two runs differ", workload.name());
        assert_eq!(
            a.counts,
            c.counts,
            "{}: 1 vs 3 threads differ",
            workload.name()
        );
    }
}

#[test]
fn a_held_out_seed_runs_clean_in_both_modes() {
    for workload in Workload::ALL {
        let traced = run_at(workload, 12, 3, true);
        assert_ne!(
            traced.counts["outcome.digest"],
            run_at(workload, 11, 3, true).counts["outcome.digest"],
            "{}: the seed must change the inputs",
            workload.name()
        );
        let e2e = run_at(workload, 12, 3, false);
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "events_per_s",
                "call_ms_p50",
                "call_ms_p90",
                "served_frac",
                "warm_bytes_per_group"
            ],
            "{}",
            workload.name()
        );
        assert!(
            e2e.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            e2e.metrics
        );
    }
}
