//! `replay-open`: the GTM2 scheduler alone.
//!
//! A `Script::random` insertion order is replayed through one [`Gtm2`]
//! engine (default dense kernel) per conservative scheme. The benchmark is
//! the surrounding system: it calls [`Gtm2::enqueue`] and [`Gtm2::pump`]
//! itself, acks every submitted `ser` at once (a zero-latency local DBMS)
//! and sends `fin` when a transaction's last ack is forwarded — the same
//! semantics as `mdbs_core::replay`, which [`verify_against_reference`]
//! checks step for step.
//!
//! One *request* is one script event plus the ack/fin cascade it
//! triggers, pumped until GTM2 is quiescent; its latency is timed around
//! exactly that.

use crate::stats;
use crate::trace::Tracer;
use crate::{
    finish, input_seed, median_of, ms, span_ns, tag, Outcome, RoundTimes, RunConfig, Size, SCHEMES,
};
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::ops::QueueOp;
use mdbs_common::step::StepCounter;
use mdbs_core::gtm2::{Gtm2, Gtm2Stats};
use mdbs_core::replay::{replay_kernel, Script, ScriptEvent};
use mdbs_core::scheme::{KernelKind, SchemeEffect, SchemeKind};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Script shape.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Global transactions.
    pub txns: usize,
    /// Sites.
    pub sites: usize,
    /// Mean sites per transaction.
    pub dav: f64,
    /// Scripts per run, generated from the seed (rounds cycle over them).
    pub inputs: usize,
}

impl Params {
    /// The measured size, or the tiny one.
    pub fn for_size(size: Size) -> Params {
        match size {
            Size::Full => Params {
                txns: 1000,
                sites: 10,
                dav: 2.5,
                inputs: 8,
            },
            Size::Tiny => Params {
                txns: 24,
                sites: 4,
                dav: 2.5,
                inputs: 2,
            },
        }
    }
}

/// Everything one driven pass produced.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Engine counters.
    pub stats: Gtm2Stats,
    /// Paper-step counts.
    pub steps: StepCounter,
    /// Wake scans performed.
    pub wake_scans: u64,
    /// Wake candidates re-tested over all scans.
    pub wake_retests: u64,
    /// Acted `ser` events in act order.
    pub ser_events: Vec<(GlobalTxnId, SiteId)>,
    /// Whether `ser(S)` (committed projection) is serializable.
    pub ser_ok: bool,
    /// Protocol violations the scheme reported.
    pub violations: u64,
    /// Transactions the scheme aborted (none for conservative schemes).
    pub aborted: Vec<GlobalTxnId>,
    /// Transactions whose `fin` was processed and which were not aborted.
    pub completed: usize,
    /// Operations left in WAIT at the end.
    pub left_waiting: usize,
    /// Operations left in QUEUE at the end.
    pub left_queued: usize,
    /// Latency of every request, in script order (ns).
    pub request_ns: Vec<u64>,
    /// Wall time of the whole pass, `ser(S)` check included (ns).
    pub pass_ns: u64,
}

/// GTM1-side bookkeeping, indexed by transaction id.
struct Ctl {
    /// Acks still awaited; `None` before `init` and after an abort.
    acks_left: Vec<Option<usize>>,
    fin_sent: Vec<bool>,
    aborted: Vec<bool>,
    aborted_ids: Vec<GlobalTxnId>,
    violations: u64,
}

impl Ctl {
    fn new(script: &Script) -> Ctl {
        let slots = script
            .events
            .iter()
            .map(|e| match e {
                ScriptEvent::Init(t, _) | ScriptEvent::Ser(t, _) => t.0 as usize + 1,
            })
            .max()
            .unwrap_or(0);
        Ctl {
            acks_left: vec![None; slots],
            fin_sent: vec![false; slots],
            aborted: vec![false; slots],
            aborted_ids: Vec::new(),
            violations: 0,
        }
    }
}

fn enqueue(engine: &mut Gtm2, tr: &mut Tracer, op: QueueOp) {
    let s = tr.begin("gtm2.enqueue");
    engine.enqueue(op);
    tr.end(s);
}

/// Pump and answer effects (acks, fins) until GTM2 is quiescent.
fn drain(engine: &mut Gtm2, ctl: &mut Ctl, tr: &mut Tracer) {
    loop {
        let s = tr.begin("gtm2.pump");
        let effects = engine.pump();
        tr.end(s);
        if effects.is_empty() {
            return;
        }
        for fx in effects {
            match fx {
                SchemeEffect::SubmitSer { txn, site } => {
                    enqueue(engine, tr, QueueOp::Ack { txn, site });
                }
                SchemeEffect::ForwardAck { txn, .. } => {
                    let i = txn.0 as usize;
                    // Acks can still arrive for a just-aborted victim.
                    let Some(left) = ctl.acks_left[i].as_mut() else {
                        continue;
                    };
                    *left -= 1;
                    if *left == 0 && !ctl.fin_sent[i] {
                        ctl.fin_sent[i] = true;
                        enqueue(engine, tr, QueueOp::Fin { txn });
                    }
                }
                SchemeEffect::AbortGlobal { txn } => {
                    let i = txn.0 as usize;
                    ctl.aborted[i] = true;
                    ctl.aborted_ids.push(txn);
                    ctl.acks_left[i] = None;
                    if !ctl.fin_sent[i] {
                        ctl.fin_sent[i] = true;
                        enqueue(engine, tr, QueueOp::Fin { txn });
                    }
                }
                SchemeEffect::ProtocolViolation { .. } => ctl.violations += 1,
            }
        }
    }
}

/// Replay `script` through `engine`, timing every request and the pass.
pub fn drive(mut engine: Gtm2, script: &Script, tr: &mut Tracer) -> Pass {
    let mut ctl = Ctl::new(script);
    let mut request_ns = Vec::with_capacity(script.events.len());
    let start = Instant::now();
    for ev in &script.events {
        let t0 = Instant::now();
        let req = tr.begin("replay.request");
        match ev {
            ScriptEvent::Init(txn, sites) => {
                ctl.acks_left[txn.0 as usize] = Some(sites.len());
                enqueue(
                    &mut engine,
                    tr,
                    QueueOp::Init {
                        txn: *txn,
                        sites: sites.clone(),
                    },
                );
                drain(&mut engine, &mut ctl, tr);
            }
            // GTM1 stops submitting for victims.
            ScriptEvent::Ser(txn, _) if ctl.aborted[txn.0 as usize] => {}
            ScriptEvent::Ser(txn, site) => {
                enqueue(
                    &mut engine,
                    tr,
                    QueueOp::Ser {
                        txn: *txn,
                        site: *site,
                    },
                );
                drain(&mut engine, &mut ctl, tr);
            }
        }
        tr.end(req);
        request_ns.push(t0.elapsed().as_nanos() as u64);
    }
    let s = tr.begin("ser_s.check");
    let ser_ok = engine.ser_log().check_excluding(&ctl.aborted_ids).is_ok();
    tr.end(s);
    let pass_ns = start.elapsed().as_nanos() as u64;

    let stats = engine.stats();
    let wake = engine.wake_scan_histogram();
    Pass {
        stats,
        steps: engine.steps(),
        wake_scans: wake.count(),
        wake_retests: wake.sum(),
        ser_events: engine.ser_log().events().to_vec(),
        ser_ok,
        violations: ctl.violations,
        completed: (stats.fins as usize).saturating_sub(ctl.aborted_ids.len()),
        aborted: ctl.aborted_ids,
        left_waiting: engine.wait_len(),
        left_queued: engine.queue_len(),
        request_ns,
        pass_ns,
    }
}

/// A fresh engine for `kind` on the default dense kernel, with no trace
/// sink whatever the environment asks for.
pub fn engine(kind: SchemeKind) -> Gtm2 {
    let mut g = Gtm2::new(kind.build_kernel(KernelKind::Dense));
    g.set_sink(None);
    g
}

/// Differences between a driven pass and `replay_kernel` on the same
/// script: steps, stats, wake totals, per-site `ser(S)` order, outcome.
pub fn verify_against_reference(kind: SchemeKind, script: &Script, pass: &Pass) -> Vec<String> {
    let reference = replay_kernel(kind, KernelKind::Dense, script);
    let mut diffs = Vec::new();
    let mut same = |what: &str, ok: bool| {
        if !ok {
            diffs.push(format!("{}: {what} differs from replay_kernel", tag(kind)));
        }
    };
    same("steps", pass.steps == reference.steps);
    same("stats", pass.stats == reference.stats);
    same(
        "wake totals",
        (pass.wake_scans, pass.wake_retests)
            == (reference.wake_scan_count, reference.wake_scan_sum),
    );
    same(
        "per-site ser(S) order",
        per_site(&pass.ser_events) == per_site(&reference.ser_events),
    );
    same("ser(S) verdict", pass.ser_ok == reference.ser_serializable);
    same("completed", pass.completed == reference.completed);
    same("aborted", pass.aborted == reference.aborted);
    same(
        "protocol violations",
        pass.violations == reference.protocol_violations,
    );
    diffs
}

fn per_site(events: &[(GlobalTxnId, SiteId)]) -> BTreeMap<SiteId, Vec<GlobalTxnId>> {
    let mut m: BTreeMap<SiteId, Vec<GlobalTxnId>> = BTreeMap::new();
    for &(t, s) in events {
        m.entry(s).or_default().push(t);
    }
    m
}

/// What a round keeps of a pass: the counts that must repeat, the checks'
/// inputs and the request-latency percentiles.
struct PassSummary {
    stats: Gtm2Stats,
    steps: StepCounter,
    wake_scans: u64,
    wake_retests: u64,
    /// Hash of the acted `ser(S)` events, for repetition checks.
    ser_hash: u64,
    ser_events: usize,
    ser_ok: bool,
    violations: u64,
    completed: usize,
    left_waiting: usize,
    left_queued: usize,
    requests: usize,
    beyond_p99: usize,
    /// Share of the summed request time spent in the requests beyond p99.
    tail_share: f64,
    req_p50_ns: u64,
    req_p99_ns: u64,
    req_max_ns: u64,
}

impl PassSummary {
    fn of(p: &Pass) -> PassSummary {
        let mut sorted = p.request_ns.clone();
        sorted.sort_unstable();
        let mut h = DefaultHasher::new();
        p.ser_events.hash(&mut h);
        PassSummary {
            stats: p.stats,
            steps: p.steps,
            wake_scans: p.wake_scans,
            wake_retests: p.wake_retests,
            ser_hash: h.finish(),
            ser_events: p.ser_events.len(),
            ser_ok: p.ser_ok,
            violations: p.violations,
            completed: p.completed,
            left_waiting: p.left_waiting,
            left_queued: p.left_queued,
            requests: sorted.len(),
            beyond_p99: stats::beyond(&sorted, 99.0),
            tail_share: {
                let cut = stats::nearest_rank(&sorted, 99.0);
                let tail: u64 = sorted.iter().filter(|&&v| v > cut).sum();
                stats::ratio(tail as f64, sorted.iter().sum::<u64>() as f64)
            },
            req_p50_ns: stats::nearest_rank(&sorted, 50.0),
            req_p99_ns: stats::nearest_rank(&sorted, 99.0),
            req_max_ns: sorted.last().copied().unwrap_or(0),
        }
    }

    /// The deterministic part, equal on every repetition of one input.
    fn fingerprint(&self) -> (Gtm2Stats, StepCounter, u64, u64, u64) {
        (
            self.stats,
            self.steps,
            self.wake_scans,
            self.wake_retests,
            self.ser_hash,
        )
    }
}

/// One round: set-up, then one pass per scheme.
struct Round {
    times: RoundTimes,
    passes: Vec<PassSummary>,
    /// Span totals of the set-up and of each pass (empty when untraced).
    setup_spans: BTreeMap<&'static str, (u64, u64)>,
    pass_spans: Vec<BTreeMap<&'static str, (u64, u64)>>,
    /// Differences from `replay_kernel`, when the round was compared.
    reference_diffs: Vec<String>,
}

/// Set up input `input`, then drive one pass per scheme; with `verify`,
/// compare each pass with the reference replay afterwards (untimed).
fn round(p: Params, seed: u64, input: usize, verify: bool, tr: &mut Tracer) -> Round {
    let mark = tr.mark();
    let t0 = Instant::now();
    let s = tr.begin("setup");
    let g = tr.begin("workload.generate");
    let script = Script::random(p.txns, p.sites, p.dav, input_seed(seed, input));
    tr.end(g);
    let engines: Vec<Gtm2> = SCHEMES
        .iter()
        .map(|&kind| {
            let e = tr.begin("gtm2.new");
            let g = engine(kind);
            tr.end(e);
            g
        })
        .collect();
    tr.end(s);
    let setup_ns = t0.elapsed().as_nanos() as u64;
    let setup_spans = tr.totals_since(mark);

    let mut passes = Vec::new();
    let mut pass_spans = Vec::new();
    let mut times = Vec::new();
    let mut reference_diffs = Vec::new();
    for (engine, kind) in engines.into_iter().zip(SCHEMES) {
        let mark = tr.mark();
        let s = tr.begin("replay.pass");
        let pass = drive(engine, &script, tr);
        tr.end(s);
        pass_spans.push(tr.totals_since(mark));
        times.push((pass.completed as u64, pass.pass_ns));
        if verify {
            reference_diffs.extend(verify_against_reference(kind, &script, &pass));
        }
        passes.push(PassSummary::of(&pass));
    }
    Round {
        times: RoundTimes {
            input,
            setup_ns,
            passes: times,
        },
        passes,
        setup_spans,
        pass_spans,
        reference_diffs,
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let p = Params::for_size(cfg.size);
    // The very first round (input 0, the seed's own script) is also
    // compared with the reference replay.
    let mut verify = true;
    let phases = crate::run_phases(cfg, p.inputs, |tr, input| {
        round(p, cfg.seed, input, std::mem::take(&mut verify), tr)
    });
    let mut out = Outcome::new();

    // Correctness: every pass complete and serializable, and every
    // repetition of an input the same as its first.
    let mut firsts: BTreeMap<usize, &Round> = BTreeMap::new();
    for r in phases.untraced.iter().chain(&phases.traced) {
        let first = *firsts.entry(r.times.input).or_insert(r);
        out.problems.extend(r.reference_diffs.iter().cloned());
        for (k, (pass, kind)) in r.passes.iter().zip(SCHEMES).enumerate() {
            let t = tag(kind);
            out.attempted += p.txns as u64;
            out.failed += (p.txns - pass.completed.min(p.txns)) as u64 + pass.violations;
            out.check(pass.violations == 0, || {
                format!("{t}: {} protocol violations", pass.violations)
            });
            out.check(pass.left_waiting == 0 && pass.left_queued == 0, || {
                format!(
                    "{t}: WAIT {} / QUEUE {} not empty at the end",
                    pass.left_waiting, pass.left_queued
                )
            });
            out.check(pass.stats.fins == p.txns as u64, || {
                format!("{t}: {} of {} fins", pass.stats.fins, p.txns)
            });
            out.check(pass.ser_ok, || format!("{t}: ser(S) not serializable"));
            out.check(pass.fingerprint() == first.passes[k].fingerprint(), || {
                format!("{t}: a repetition of input {} differs", r.times.input)
            });
        }
    }

    finish(&mut out, &SCHEMES, &phases, |r: &Round| &r.times);

    let input0 = firsts[&0];
    for (k, kind) in SCHEMES.iter().enumerate() {
        let t = tag(*kind);
        // Request latency: per-pass percentiles, median over untraced rounds.
        for (metric, f) in [
            (
                "gtm2.req_p50_us",
                (|s: &PassSummary| s.req_p50_ns) as fn(&PassSummary) -> u64,
            ),
            ("gtm2.req_p99_us", |s| s.req_p99_ns),
            ("gtm2.req_max_us", |s| s.req_max_ns),
        ] {
            out.per_layer.insert(
                format!("{t}.{metric}"),
                median_of(&phases.untraced, |r: &Round| f(&r.passes[k]) as f64 / 1e3),
            );
        }
        let f = &input0.passes[k];
        out.notes.push(format!(
            "{t}: {} requests per pass, {} beyond p99 taking {:.1}% of request time (input 0, first pass)",
            f.requests,
            f.beyond_p99,
            100.0 * f.tail_share
        ));
        // Deterministic counts of input 0 (the seed's own script).
        let counts = [
            ("gtm2.wake_retests", f.wake_retests),
            ("gtm2.wake_scans", f.wake_scans),
            ("gtm2.waited", f.stats.waited),
            ("gtm2.waited_ser", f.stats.waited_kind[1]),
            ("gtm2.peak_wait", f.stats.peak_wait),
            ("gtm2.peak_active", f.stats.peak_active),
            ("gtm2.fins", f.stats.fins),
            ("scheme.steps_cond", f.steps.cond),
            ("scheme.steps_act", f.steps.act),
            ("scheme.steps_wait_scan", f.steps.wait_scan),
            ("ser_s.events", f.ser_events as u64),
        ];
        for (name, v) in counts {
            out.counts.push((format!("{t}.{name}"), v));
        }
        for (name, v) in [
            ("gtm2.wake_retests", f.wake_retests),
            ("gtm2.waited", f.stats.waited),
            ("gtm2.peak_wait", f.stats.peak_wait),
            ("scheme.steps_cond", f.steps.cond),
            ("scheme.steps_act", f.steps.act),
            ("scheme.steps_wait_scan", f.steps.wait_scan),
        ] {
            out.per_layer.insert(format!("{t}.{name}"), v as f64);
        }
        out.per_layer.insert(
            format!("{t}.gtm2.wake_yield"),
            stats::ratio(f.stats.waited as f64, f.wake_retests as f64),
        );
        if !phases.traced.is_empty() {
            for (metric, span) in [
                ("gtm2.enqueue_ms", "gtm2.enqueue"),
                ("gtm2.pump_ms", "gtm2.pump"),
                ("ser_s.check_ms", "ser_s.check"),
            ] {
                out.per_layer.insert(
                    format!("{t}.{metric}"),
                    median_of(&phases.traced, |r: &Round| {
                        ms(span_ns(&r.pass_spans[k], span))
                    }),
                );
            }
        }
    }
    if !phases.traced.is_empty() {
        out.per_layer.insert(
            "workload.generate_ms".into(),
            median_of(&phases.traced, |r: &Round| {
                ms(span_ns(&r.setup_spans, "workload.generate"))
            }),
        );
        out.tracer = Some(phases.tracer);
    }
    out
}
