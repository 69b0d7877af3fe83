//! End-to-end and per-layer benchmark of the MDBS reproduction.
//!
//! Three workloads, each run in its own process (see `README.md` beside
//! this crate for why each was chosen and what every metric means):
//!
//! - [`replay_open`] — GTM2 alone: a 1 000-transaction script, every
//!   transaction open at once, replayed through the single [`Gtm2`] engine
//!   for Schemes 0–3, the benchmark driving `enqueue`/`pump` itself;
//! - [`des_closed`] — the whole MDBS in the discrete-event simulator,
//!   six heterogeneous sites, closed loop at MPL 8, Schemes 0–3;
//! - [`live_closed`] — the threaded runtime, eight strict-2PL sites,
//!   closed loop at MPL 8, Scheme 3.
//!
//! Every layer is driven only through its public functions and timed from
//! outside. A run repeats *rounds* (set-up, then one pass per scheme) for
//! the time budget and reports medians. With tracing on, the first half
//! of the budget is untraced and gives the end-to-end numbers; the second
//! half records [`trace`] spans around every call and gives the per-layer
//! numbers; the gap between the halves is the tracing overhead.
//!
//! Wall-clock figures are reported at one reference machine speed: a run
//! times the [`reference`] loop before every round and scales its times
//! by the machine speed it measured (`machine.speed`), so that the
//! figures of runs made while the shared machine ran faster or slower
//! stay comparable.
//!
//! [`Gtm2`]: mdbs_core::gtm2::Gtm2

pub mod des_closed;
pub mod live_closed;
pub mod reference;
pub mod replay_open;
pub mod stats;
pub mod trace;

use mdbs_core::scheme::SchemeKind;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// The seed every figure in `README.md` was measured with.
pub const DEFAULT_SEED: u64 = 42;

/// A second seed, kept out of tuning, on which a later gain claim must
/// also hold.
pub const HOLDOUT_SEED: u64 = 20_240_601;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// GTM2 alone, all transactions open at once.
    ReplayOpen,
    /// The discrete-event MDBS, closed loop.
    DesClosed,
    /// The threaded runtime, closed loop.
    LiveClosed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ReplayOpen,
        Workload::DesClosed,
        Workload::LiveClosed,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayOpen => "replay-open",
            Workload::DesClosed => "des-closed",
            Workload::LiveClosed => "live-closed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the measured one, or a tiny one that runs every path and
/// every check in well under a second (used by the tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `README.md` documents.
    Full,
    /// Minimal inputs with the same structure.
    Tiny,
}

/// One benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measuring budget in seconds (rounds stop when the next one would
    /// overrun it, once every input has run).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// `(name, unit, better)` of every end-to-end metric, reported on every
/// workload by an untraced run.
pub const END_TO_END: [(&str, &str, &str); 3] = [
    ("setup_s", "s", "lower"),
    ("txn_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics kept once per scheme, under an `sN.` prefix.
pub const PER_SCHEME: [(&str, &str, &str); 28] = [
    ("txn_per_s", "1/s", "higher"),
    ("gtm2.req_p50_us", "us", "lower"),
    ("gtm2.req_p99_us", "us", "lower"),
    ("gtm2.req_max_us", "us", "lower"),
    ("gtm2.enqueue_ms", "ms", "lower"),
    ("gtm2.pump_ms", "ms", "lower"),
    ("gtm2.wake_retests", "count", "lower"),
    ("gtm2.wake_yield", "ratio", "higher"),
    ("gtm2.waited", "count", "lower"),
    ("gtm2.peak_wait", "count", "lower"),
    ("scheme.steps_cond", "count", "lower"),
    ("scheme.steps_act", "count", "lower"),
    ("scheme.steps_wait_scan", "count", "lower"),
    ("ser_s.check_ms", "ms", "lower"),
    ("audit.build_ms", "ms", "lower"),
    ("audit.check_ms", "ms", "lower"),
    ("audit.history_ops", "count", "lower"),
    ("des.run_ms", "ms", "lower"),
    ("des.core_ms", "ms", "lower"),
    ("localdb.blocked", "count", "lower"),
    ("localdb.block_ratio", "ratio", "lower"),
    ("localdb.aborts", "count", "lower"),
    ("localdb.deadlock_victims", "count", "lower"),
    ("gtm1.aborted", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.timeouts", "count", "lower"),
    ("sim.resp_p50_ms", "sim_ms", "lower"),
    ("sim.resp_p99_ms", "sim_ms", "lower"),
];

/// Per-layer metrics that are not per scheme.
pub const PER_RUN: [(&str, &str, &str); 13] = [
    ("workload.generate_ms", "ms", "lower"),
    ("s3.live.run_ms", "ms", "lower"),
    ("pool.steal", "count", "higher"),
    ("pool.park", "count", "lower"),
    ("pool.wake", "count", "lower"),
    ("gtm2.shard_lock_contended", "count", "lower"),
    ("gtm2.shard_lock_parks", "count", "lower"),
    ("gtm2.cross_shard_handoff", "count", "lower"),
    ("failed_share", "ratio", "lower"),
    ("trace.overhead.txn_per_s", "%", "lower"),
    ("trace.overhead.setup_s", "%", "lower"),
    ("trace.overhead.peak_rss_mb", "MB", "lower"),
    ("machine.speed", "ratio", "higher"),
];

/// The four schemes, in report order.
pub const SCHEMES: [SchemeKind; 4] = SchemeKind::CONSERVATIVE;

/// Metric prefix of a scheme (`s0` … `s3`).
pub fn tag(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::Scheme0 => "s0",
        SchemeKind::Scheme1 => "s1",
        SchemeKind::Scheme2 => "s2",
        SchemeKind::Scheme3 => "s3",
        _ => "sx",
    }
}

/// Every per-layer `(name, unit, better)`, in report order.
pub fn per_layer_catalog() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    for kind in SCHEMES {
        for (name, unit, better) in PER_SCHEME {
            out.push((format!("{}.{name}", tag(kind)), unit, better));
        }
    }
    for (name, unit, better) in PER_RUN {
        out.push((name.to_string(), unit, better));
    }
    out
}

/// What one run found.
pub struct Outcome {
    /// Global transactions attempted over every measured pass.
    pub attempted: u64,
    /// Of those: aborted, refused or unfinished, plus protocol violations.
    pub failed: u64,
    /// Failed correctness checks; empty when the run is correct.
    pub problems: Vec<String>,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<String, f64>,
    /// Per-layer metric values by name (absent = the layer did no work).
    pub per_layer: BTreeMap<String, f64>,
    /// Deterministic counts of the run, printed so count-based claims can
    /// be checked exactly.
    pub counts: Vec<(String, u64)>,
    /// Free-form facts printed with the report (sample counts etc.).
    pub notes: Vec<String>,
    /// The spans kept from the traced phase (set-up plus the first traced
    /// round), when tracing was on.
    pub tracer: Option<Tracer>,
    /// Machine speed relative to the reference over the run.
    pub speed: f64,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
            counts: Vec::new(),
            notes: Vec::new(),
            tracer: None,
            speed: 1.0,
        }
    }

    /// Scale every wall-clock figure to the reference speed: times (`s`,
    /// `ms`, `us`) are multiplied by the run's speed, rates (`1/s`)
    /// divided by it. Simulated times, counts and ratios stay as they are.
    fn scale_to_reference(&mut self) {
        let scale = |v: &mut f64, unit: &str, speed: f64| match unit {
            "s" | "ms" | "us" => *v *= speed,
            "1/s" => *v /= speed,
            _ => {}
        };
        for (name, unit, _) in END_TO_END {
            if let Some(v) = self.end_to_end.get_mut(name) {
                scale(v, unit, self.speed);
            }
        }
        for (name, unit, _) in per_layer_catalog() {
            if let Some(v) = self.per_layer.get_mut(&name) {
                scale(v, unit, self.speed);
            }
        }
    }

    /// True iff every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Record a failed check.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The metrics to print: every end-to-end metric untraced, every
    /// per-layer metric traced, in catalog order, as `(name, value, unit)`.
    /// A per-layer metric of a layer this workload does not run is 0.
    pub fn metrics(&self, traced: bool) -> Vec<(String, f64, &'static str)> {
        if traced {
            per_layer_catalog()
                .into_iter()
                .map(|(name, unit, _)| {
                    let v = self.per_layer.get(&name).copied().unwrap_or(0.0);
                    (name, v, unit)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit, _)| {
                    let v = self.end_to_end.get(name).copied().unwrap_or(0.0);
                    (name.to_string(), v, unit)
                })
                .collect()
        }
    }
}

/// Seed of input `k` of a run: input 0 is generated from the run's seed
/// itself, the others from seeds spread out from it.
pub fn input_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Set-up time and per-pass work and time of one round: the figures
/// every workload reports end to end.
#[derive(Clone, Debug)]
pub struct RoundTimes {
    /// Which of the run's inputs the round used.
    pub input: usize,
    /// Wall time of the round's set-up (input generation plus engine and
    /// site construction).
    pub setup_ns: u64,
    /// Per scheme pass, in the order of the workload's scheme list:
    /// global transactions completed and wall time (ns).
    pub passes: Vec<(u64, u64)>,
}

/// The rounds of one run, split by phase.
pub struct Phases<R> {
    /// Rounds run with tracing off.
    pub untraced: Vec<R>,
    /// Rounds run with tracing on (empty when the run is untraced).
    pub traced: Vec<R>,
    /// The tracer used by the traced phase.
    pub tracer: Tracer,
    /// Peak resident set once the untraced phase has run every input
    /// once: a fixed amount of work, whatever the budget.
    pub rss_mb: f64,
    /// Machine speed relative to the reference, from the reference loops
    /// timed before every round of both phases.
    pub speed: f64,
}

/// Repeat `round(tracer, input)` for the budget: all of it untraced, or
/// half untraced and half traced. Each phase cycles through the `inputs`
/// inputs from input 0 and runs every input at least once. Of the traced
/// rounds only the first keeps its spans (each round reads its own span
/// totals before it returns).
pub fn run_phases<R>(
    cfg: &RunConfig,
    inputs: usize,
    mut round: impl FnMut(&mut Tracer, usize) -> R,
) -> Phases<R> {
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut reference_ns = Vec::new();
    let mut sample = || {
        for _ in 0..reference::SAMPLES_PER_ROUND {
            reference_ns.push(reference::time_ns());
        }
    };
    let mut off = Tracer::new(false);
    let mut rss_mb = 0.0;
    let untraced = repeat(budget, inputs, |i| {
        sample();
        let r = round(&mut off, i % inputs);
        if i + 1 == inputs {
            rss_mb = peak_rss_mb();
        }
        r
    });
    let mut tracer = Tracer::new(cfg.trace);
    let mut traced = Vec::new();
    if cfg.trace {
        traced = repeat(budget, inputs, |i| {
            sample();
            let mark = tracer.mark();
            let r = round(&mut tracer, i % inputs);
            if i > 0 {
                tracer.truncate(mark);
            }
            r
        });
    }
    Phases {
        untraced,
        traced,
        tracer,
        rss_mb,
        speed: reference::speed(&reference_ns),
    }
}

/// Call `f(i)` for i = 0, 1, … until `min` calls are done and another
/// call of the mean length so far would overrun `seconds`.
fn repeat<R>(seconds: f64, min: usize, mut f: impl FnMut(usize) -> R) -> Vec<R> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(f(out.len()));
        let spent = start.elapsed().as_secs_f64();
        let mean = spent / out.len() as f64;
        if out.len() >= min.max(1) && spent + mean > seconds {
            return out;
        }
    }
}

/// Median set-up seconds and per-scheme throughput of a phase. A scheme's
/// throughput pools the inputs: transactions completed over all inputs
/// divided by the sum of each input's median pass time.
fn phase_e2e(rounds: &[&RoundTimes], schemes: usize) -> (f64, Vec<f64>) {
    let setup = stats::median(
        &rounds
            .iter()
            .map(|t| t.setup_ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    let mut by_input: BTreeMap<usize, Vec<&RoundTimes>> = BTreeMap::new();
    for t in rounds {
        by_input.entry(t.input).or_default().push(t);
    }
    let per_scheme = (0..schemes)
        .map(|k| {
            let (txns, secs) = by_input.values().fold((0.0, 0.0), |(n, s), reps| {
                let t = stats::median(
                    &reps
                        .iter()
                        .map(|r| r.passes[k].1 as f64 / 1e9)
                        .collect::<Vec<_>>(),
                );
                (n + reps[0].passes[k].0 as f64, s + t)
            });
            stats::ratio(txns, secs)
        })
        .collect();
    (setup, per_scheme)
}

/// Fill the end-to-end metrics, the per-scheme throughputs, the tracing
/// overhead and `failed_share` from the rounds' times. `schemes` names the
/// passes of each round, in order.
fn finish<R>(
    out: &mut Outcome,
    schemes: &[SchemeKind],
    phases: &Phases<R>,
    times: impl Fn(&R) -> &RoundTimes,
) {
    let untraced: Vec<&RoundTimes> = phases.untraced.iter().map(&times).collect();
    let (setup_s, per_scheme) = phase_e2e(&untraced, schemes.len());
    let txn_per_s = stats::geomean(&per_scheme);
    out.end_to_end.insert("setup_s".into(), setup_s);
    out.end_to_end.insert("txn_per_s".into(), txn_per_s);
    out.end_to_end.insert("peak_rss_mb".into(), phases.rss_mb);
    out.speed = phases.speed;
    out.per_layer.insert("machine.speed".into(), phases.speed);
    out.notes.push(format!(
        "machine speed {:.4} of the reference; unscaled wall-clock setup_s {setup_s:.6}, txn_per_s {txn_per_s:.1}",
        phases.speed
    ));
    for (kind, v) in schemes.iter().zip(&per_scheme) {
        out.per_layer
            .insert(format!("{}.txn_per_s", tag(*kind)), *v);
    }
    if !phases.traced.is_empty() {
        let traced: Vec<&RoundTimes> = phases.traced.iter().map(&times).collect();
        let (t_setup, t_per_scheme) = phase_e2e(&traced, schemes.len());
        let t_txn = stats::geomean(&t_per_scheme);
        out.per_layer.insert(
            "trace.overhead.txn_per_s".into(),
            100.0 * stats::ratio(txn_per_s - t_txn, txn_per_s),
        );
        out.per_layer.insert(
            "trace.overhead.setup_s".into(),
            100.0 * stats::ratio(t_setup - setup_s, setup_s),
        );
        out.per_layer.insert(
            "trace.overhead.peak_rss_mb".into(),
            phases.tracer.buffer_bytes() as f64 / (1024.0 * 1024.0),
        );
    }
    out.per_layer.insert(
        "failed_share".into(),
        stats::ratio(out.failed as f64, out.attempted as f64),
    );
    out.check(phases.rss_mb > 0.0, || {
        "peak RSS unavailable (no VmHWM in /proc/self/status)".into()
    });
    for (name, v) in out.end_to_end.iter().chain(&out.per_layer) {
        if !v.is_finite() {
            out.problems
                .push(format!("metric {name} is not finite: {v}"));
        }
    }
    out.notes.push(format!(
        "rounds: {} untraced, {} traced",
        phases.untraced.len(),
        phases.traced.len()
    ));
    for (i, t) in untraced.iter().enumerate() {
        let ms_per_pass: Vec<f64> = t.passes.iter().map(|p| ms(p.1)).collect();
        out.notes.push(format!(
            "untraced round {i}: input {}, setup {:.3} ms, pass ms {ms_per_pass:.1?}",
            t.input,
            ms(t.setup_ns),
        ));
    }
}

/// Median over rounds of a per-round value.
fn median_of<R>(rounds: &[R], f: impl Fn(&R) -> f64) -> f64 {
    stats::median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Nanoseconds to milliseconds.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Summed span time (ns) of `name` in a span-totals map.
fn span_ns(totals: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> u64 {
    totals.get(name).map_or(0, |t| t.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = match cfg.workload {
        Workload::ReplayOpen => replay_open::run(cfg),
        Workload::DesClosed => des_closed::run(cfg),
        Workload::LiveClosed => live_closed::run(cfg),
    };
    out.scale_to_reference();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_multiplies_times_and_divides_rates() {
        let mut out = Outcome::new();
        out.speed = 2.0;
        out.end_to_end.insert("setup_s".into(), 1.0);
        out.end_to_end.insert("txn_per_s".into(), 10.0);
        out.end_to_end.insert("peak_rss_mb".into(), 7.0);
        out.per_layer.insert("s1.gtm2.req_p99_us".into(), 3.0);
        out.per_layer.insert("s1.sim.resp_p99_ms".into(), 4.0);
        out.per_layer.insert("s1.gtm2.waited".into(), 5.0);
        out.scale_to_reference();
        assert_eq!(out.end_to_end["setup_s"], 2.0);
        assert_eq!(out.end_to_end["txn_per_s"], 5.0);
        assert_eq!(out.end_to_end["peak_rss_mb"], 7.0);
        assert_eq!(out.per_layer["s1.gtm2.req_p99_us"], 6.0);
        assert_eq!(out.per_layer["s1.sim.resp_p99_ms"], 4.0, "simulated time");
        assert_eq!(out.per_layer["s1.gtm2.waited"], 5.0);
    }

    #[test]
    fn speed_is_nominal_over_median_sample() {
        let n = reference::NOMINAL_NS as u64;
        assert_eq!(reference::speed(&[n, n / 2, n / 2]), 2.0);
        assert!(reference::time_ns() > 0);
    }
}
