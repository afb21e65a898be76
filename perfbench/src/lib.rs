//! The repository benchmark: three seeded workloads driven through the
//! public entry points of `wmcs-wireless` (`StreamService::drive` /
//! `StreamHandle::submit` and `MulticastService::step`), with output
//! checks, end-to-end metrics and a traced per-layer replay.
//!
//! See `README.md` in this directory for the workloads, the metric →
//! layer → workload map and the first recorded numbers.

pub mod check;
pub mod gen;
pub mod service;
pub mod stats;
pub mod stream;
pub mod trace;

use std::collections::BTreeMap;
// wmcs-audit: allow(nondeterminism-source): the benchmark's clock; readings are reported, never fed into an outcome.
use std::time::Instant;

/// The benchmark's workloads (names are normative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Reprice-bound: n = 10⁵ lazy spatial substrate, 64 groups, rolling
    /// membership, watermark 64.
    StreamChurn1e5,
    /// Table scale: n = 2048 dense sessions, 512 Zipf-sized groups,
    /// closed-loop `MulticastService::step` calls.
    ServiceTable,
    /// Ingest-bound: n = 4096 sparse sessions, 256 groups, ~90% rebids,
    /// watermark 1024.
    StreamIngest,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [
        Workload::StreamChurn1e5,
        Workload::ServiceTable,
        Workload::StreamIngest,
    ];

    /// The workload's normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamChurn1e5 => "stream_churn_1e5",
            Workload::ServiceTable => "service_table",
            Workload::StreamIngest => "stream_ingest",
        }
    }

    /// Parse a normative name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds: timed repetitions run until this much time has
    /// been measured (at least one).
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: the traced per-layer run.
    pub trace: bool,
    /// Busy threads the load may use (`nproc`): stream workloads run
    /// `threads − 1` epoch workers beside the producer, `service_table`
    /// runs `threads` step threads.
    pub threads: usize,
}

impl Options {
    /// Settings for `workload` at `seed` with the machine's parallelism.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self {
            workload,
            seed,
            seconds: 10.0,
            trace: false,
            threads: nproc(),
        }
    }
}

/// Available parallelism of this machine (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// A built, registered and warmed service with the group models and
/// checks of its warm-up.
struct Warm<B> {
    /// The workload's own state.
    base: B,
    /// Wall seconds of substrate build, registration and warm-up.
    setup_s: f64,
    /// Group models after warm-up.
    models: Vec<check::GroupModel>,
    /// Warm-up checks and calls made, and how many failed.
    attempted: u64,
    failed: u64,
}

/// One checked repetition of a workload's timed load.
struct Repetition {
    /// Wall seconds until every outcome existed.
    wall_s: f64,
    /// Wall seconds of each fixed segment of the load, in order; they
    /// sum to `wall_s`.
    segments_s: Vec<f64>,
    /// Wall time of each blocking call, ms, in order.
    calls_ms: Vec<f64>,
    /// Digest of every outcome: equal across repetitions of one run.
    digest: u64,
    tally: check::Tally,
    /// Group models after the repetition.
    models: Vec<check::GroupModel>,
    /// Warm bytes per group after the repetition.
    bytes_per_group: f64,
}

/// The timings of an end-to-end run's repetitions, in order.
#[derive(Default)]
struct Timings {
    walls_s: Vec<f64>,
    segments_s: Vec<Vec<f64>>,
    calls_ms: Vec<Vec<f64>>,
}

/// A workload as [`run_bench`] drives it: its set-up, one checked
/// repetition of its timed load, and its traced report. The run around
/// them — repeated set-ups, the served floor, the untraced / traced /
/// untraced trio and the timed loop — is shared.
trait Bench {
    /// The workload's warmed state.
    type Base;
    /// What a repetition hands on to [`Bench::trace`] beside the
    /// common figures.
    type Detail;
    /// Set-ups per end-to-end run (`setup_s` comes from the faster half).
    fn setups(&self) -> usize;
    /// Served-fraction floor after warm-up and after the timed phase.
    fn floor(&self) -> f64;
    /// The blocking call's name in the report lines, and the tail
    /// quantile printed with it.
    fn call(&self) -> (&'static str, f64);
    /// Build the substrate, register the groups and warm them up (timed).
    fn setup(&mut self, opts: &Options) -> Warm<Self::Base>;
    /// A report line on the load, and the events in one repetition.
    fn describe(&self, warm: &Warm<Self::Base>) -> (String, usize);
    /// One repetition from the warm state, checked, with its calls and
    /// failures counted into `res`; `traced` times every call.
    fn repeat(
        &self,
        warm: &Warm<Self::Base>,
        res: &mut RunResult,
        traced: bool,
    ) -> (Repetition, Self::Detail);
    /// The traced repetition's client-side figures and layer replay.
    fn trace(&self, warm: &Warm<Self::Base>, res: &mut RunResult, detail: Self::Detail) -> Traced;
}

/// A traced run's client-side figures, for [`RunResult::report_traced`].
struct Traced {
    build_s: f64,
    /// Wall time of each non-sealing `submit`, ns.
    submit_ns: Vec<f64>,
    /// Stream epochs and `Busy` rejections.
    epochs: u64,
    busy: u64,
    layers: trace::Layers,
    /// Threads of the pool that ran the client's work.
    pool_threads: usize,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Did every output check pass (and every served floor hold)?
    pub correct: bool,
    /// Epochs checked plus submissions (or step calls) made.
    pub attempted: u64,
    /// Epochs failing a check plus `Busy` rejections.
    pub failed: u64,
    /// The metrics of this mode, in report order.
    pub metrics: Vec<Metric>,
    /// Deterministic counters: identical for the same seed at any worker
    /// count (the determinism tests compare these).
    pub counts: BTreeMap<&'static str, u64>,
    /// Human-readable report lines (printed before the JSON line).
    pub lines: Vec<String>,
}

impl RunResult {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// The contract's result object: `correct`, `attempted`, `failed` and
    /// `metrics` (each `{"value", "unit"}`), on one line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Push the end-to-end metrics. Timings are taken index-wise over the
    /// repetitions ([`stats::median_per_index`]): `events_per_s` is
    /// `events` over the summed median segments, and the call quantiles
    /// range over each call's median time. `setup_s`
    /// is the median of the faster half of the set-ups; the rest comes
    /// from the `last` repetition. `events_per_s` is withheld unless the
    /// groups stayed populated.
    fn report_e2e<B: Bench>(
        &mut self,
        bench: &B,
        setup_s: &[f64],
        events: usize,
        timings: Timings,
        last: Repetition,
        populated: bool,
    ) {
        let populated =
            served_floor(self, "after the timed phase", &last.models, bench.floor()) && populated;
        let (call, tail) = bench.call();
        let wall_s: f64 = stats::median_per_index(&timings.segments_s).iter().sum();
        let calls = stats::median_per_index(&timings.calls_ms);
        self.metric("setup_s", stats::faster_half_median(setup_s), "s");
        if populated {
            self.metric("events_per_s", events as f64 / wall_s, "1/s");
        } else {
            self.line("events_per_s withheld: the groups are not populated".to_string());
        }
        self.metric("call_ms_p50", stats::median(&calls), "ms");
        self.metric("call_ms_p90", stats::quantile(&calls, 0.9), "ms");
        self.metric(
            "served_frac",
            check::served_frac(&last.models, None),
            "fraction",
        );
        self.metric("warm_bytes_per_group", last.bytes_per_group, "B");
        self.line(format!(
            "{} repetitions of {} segments; events_per_s per repetition {:?}",
            timings.walls_s.len(),
            timings.segments_s[0].len(),
            timings
                .walls_s
                .iter()
                .map(|w| (events as f64 / w).round())
                .collect::<Vec<_>>()
        ));
        self.line(format!(
            "{call}_p50 {:.4} {call}_p{} {:.4} over {} calls",
            stats::median(&calls),
            (tail * 100.0).round(),
            stats::quantile(&calls, tail),
            calls.len()
        ));
        self.line(format!(
            "setup_s samples {setup_s:?}; noop_frac {:.4}; failed_frac {:.6} ({} of {})",
            stats::ratio(last.tally.noops as f64, last.tally.events as f64),
            stats::ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        ));
    }

    /// Push the per-layer metrics and the deterministic counts of the
    /// traced repetition `rep`; `plain_s` is the mean wall time of the
    /// untraced repetitions around it.
    fn report_traced(&mut self, t: Traced, rep: &Repetition, plain_s: f64) {
        self.attempted += t.layers.compared;
        self.failed += t.layers.mismatches;
        self.metric("builder.build_s", t.build_s, "s");
        self.metric("stream.submit_ns_p50", stats::median(&t.submit_ns), "ns");
        self.metric("stream.epochs", t.epochs as f64, "count");
        let noop_frac = stats::ratio(rep.tally.noops as f64, rep.tally.events as f64);
        self.metric("sparse.noop_frac", noop_frac, "fraction");
        t.layers.report(self, t.pool_threads, rep.wall_s);
        // 1 − traced ÷ untraced events/s, over the same events.
        self.metric(
            "trace.overhead_frac",
            1.0 - plain_s / rep.wall_s,
            "fraction",
        );
        self.line(format!(
            "traced repetition {:.3} s vs untraced {plain_s:.3} s (mean of two); {} non-sealing submits timed; stream.busy_rejects {}",
            rep.wall_s,
            t.submit_ns.len(),
            t.busy
        ));
        self.counts.insert("stream.epochs", t.epochs);
        self.counts.insert("stream.busy_rejects", t.busy);
        self.counts.insert("stream.events", rep.tally.events);
        self.counts.insert("stream.noops", rep.tally.noops);
        self.counts.insert("outcome.digest", rep.digest);
    }
}

/// The run shared by every workload (see [`Bench`]). The end-to-end
/// mode sets the workload up `setups()` times, keeps the last set-up and
/// repeats the timed load on it until `opts.seconds` have passed; the
/// traced mode sets up once and runs an untraced, a traced and another
/// untraced repetition.
fn run_bench<B: Bench>(mut bench: B, opts: &Options) -> RunResult {
    let mut res = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let mut setup_s = Vec::new();
    let mut warm = None;
    for _ in 0..if opts.trace { 1 } else { bench.setups() } {
        drop(warm.take());
        let w = bench.setup(opts);
        setup_s.push(w.setup_s);
        warm = Some(w);
    }
    let warm = warm.expect("at least one set-up");
    res.attempted += warm.attempted;
    res.failed += warm.failed;
    let populated = served_floor(&mut res, "after warm-up", &warm.models, bench.floor());
    let (line, events) = bench.describe(&warm);
    res.line(line);

    if opts.trace {
        // Untraced, traced, untraced: the untraced mean cancels drift.
        let (before, _) = bench.repeat(&warm, &mut res, false);
        let (traced, detail) = bench.repeat(&warm, &mut res, true);
        let (after, _) = bench.repeat(&warm, &mut res, false);
        // Tracing must not change a single outcome.
        res.failed += u64::from(before.digest != traced.digest || after.digest != traced.digest);
        served_floor(
            &mut res,
            "after the traced repetition",
            &traced.models,
            bench.floor(),
        );
        let plain_s = (before.wall_s + after.wall_s) / 2.0;
        let t = bench.trace(&warm, &mut res, detail);
        res.report_traced(t, &traced, plain_s);
        return res;
    }

    // Only the timings of earlier repetitions are kept, so the process's
    // peak memory does not grow with the number of repetitions.
    let start = Stopwatch::start();
    let mut timings = Timings::default();
    let mut first = None;
    let last = loop {
        let (mut rep, _) = bench.repeat(&warm, &mut res, false);
        // Every repetition replays the same inputs from the same state.
        res.failed += u64::from(*first.get_or_insert(rep.digest) != rep.digest);
        timings.walls_s.push(rep.wall_s);
        timings.segments_s.push(std::mem::take(&mut rep.segments_s));
        timings.calls_ms.push(std::mem::take(&mut rep.calls_ms));
        if start.secs() >= opts.seconds {
            break rep;
        }
    };
    res.report_e2e(&bench, &setup_s, events, timings, last, populated);
    res
}

/// Run one workload in the requested mode.
pub fn run(opts: &Options) -> RunResult {
    assert!(opts.threads >= 1, "the load needs at least one thread");
    let mut res = match opts.workload {
        Workload::StreamChurn1e5 => stream::run(&stream::STREAM_CHURN_1E5, opts),
        Workload::ServiceTable => service::run(&service::SERVICE_TABLE, opts),
        Workload::StreamIngest => stream::run(&stream::STREAM_INGEST, opts),
    };
    res.correct &= res.failed == 0 && res.metrics.iter().all(|m| m.value.is_finite());
    res
}

/// A started wall-clock timer, the crate's only clock: every span and
/// deadline of the benchmark reads it, and no reading reaches an outcome.
#[derive(Debug, Clone, Copy)]
// wmcs-audit: allow(nondeterminism-source): the benchmark's clock (see the import).
struct Stopwatch(Instant);

impl Stopwatch {
    #[allow(clippy::disallowed_methods)]
    fn start() -> Self {
        // wmcs-audit: allow(nondeterminism-source): the benchmark's clock (see the import).
        Stopwatch(Instant::now())
    }

    /// Seconds since the start.
    fn secs(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds since the start.
    fn nanos(self) -> f64 {
        self.0.elapsed().as_nanos() as f64
    }
}

/// Fold the served-floor verdict into a run: below the floor the run is
/// incorrect (a group that emptied makes every throughput figure
/// vacuous), and the caller must not report `events_per_s`.
fn served_floor(res: &mut RunResult, when: &str, models: &[check::GroupModel], floor: f64) -> bool {
    let all = check::served_frac(models, None);
    let shapley = check::served_frac(models, Some(wmcs_wireless::GroupMechanism::Shapley));
    let mc = check::served_frac(models, Some(wmcs_wireless::GroupMechanism::MarginalCost));
    let ok = all >= floor && shapley >= floor && mc >= floor;
    res.line(format!(
        "served {when}: {all:.4} of subscribed members (Shapley {shapley:.4}, MC {mc:.4}); floor {floor} {}",
        if ok { "met" } else { "NOT MET" }
    ));
    res.correct &= ok;
    ok
}
