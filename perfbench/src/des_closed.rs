//! `des-closed`: the whole MDBS in the discrete-event simulator.
//!
//! Six sites, one per local protocol, so every serialization event —
//! the ticket included — appears; global transactions in a closed loop at
//! MPL 8 plus background local transactions; one [`MdbsSystem::run`] per
//! scheme. The simulator is deterministic in simulated time, so every
//! counter must repeat exactly across rounds.
//!
//! `run` ends with the global audit. To split it out, the traced phase
//! repeats that audit from outside — [`GlobalSerializationGraph::build`]
//! and `check` on each site's history — and takes the DES core as the
//! run time minus that audit time.

use crate::stats;
use crate::trace::Tracer;
use crate::{
    finish, input_seed, median_of, ms, span_ns, tag, Outcome, RoundTimes, RunConfig, Size, SCHEMES,
};
use mdbs_common::ids::SiteId;
use mdbs_localdb::protocol::LocalProtocolKind;
use mdbs_schedule::global::GlobalSerializationGraph;
use mdbs_sim::system::{MdbsSystem, RunReport, SystemConfig};
use mdbs_workload::distributions::AccessDistribution;
use mdbs_workload::generator::Workload as Programs;
use mdbs_workload::spec::WorkloadSpec;
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Global transactions.
    pub globals: usize,
    /// Local transactions per site.
    pub locals_per_site: usize,
    /// Items per site.
    pub items: u64,
    /// Closed-loop multiprogramming level.
    pub mpl: usize,
    /// Workloads per run, generated from the seed (rounds cycle over them).
    pub inputs: usize,
}

impl Params {
    /// The measured size, or the tiny one.
    pub fn for_size(size: Size) -> Params {
        match size {
            Size::Full => Params {
                globals: 1500,
                locals_per_site: 50,
                items: 256,
                mpl: 8,
                inputs: 8,
            },
            Size::Tiny => Params {
                globals: 30,
                locals_per_site: 3,
                items: 64,
                mpl: 4,
                inputs: 2,
            },
        }
    }

    /// The generator spec for `seed`.
    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            sites: LocalProtocolKind::ALL.len(),
            global_txns: self.globals,
            avg_sites_per_txn: 2.0,
            ops_per_subtxn: 2,
            read_ratio: 0.5,
            items_per_site: self.items,
            distribution: AccessDistribution::Uniform,
            local_txns_per_site: self.locals_per_site,
            ops_per_local_txn: 2,
            seed,
        }
    }

    /// The system configuration for `kind` and `seed`.
    pub fn config(&self, kind: mdbs_core::scheme::SchemeKind, seed: u64) -> SystemConfig {
        let mut b = SystemConfig::builder()
            .scheme(kind)
            .seed(seed)
            .mpl(self.mpl);
        for p in LocalProtocolKind::ALL {
            b = b.site(p);
        }
        b.build()
    }
}

/// What a round keeps of one scheme pass.
struct Pass {
    run_ns: u64,
    ser_s_ok: bool,
    serializable: bool,
    /// Counts that must repeat exactly, by name.
    counts: Vec<(String, u64)>,
    /// Set by the traced phase: the audit repeated from outside.
    audit: Option<Audit>,
}

struct Audit {
    build_ns: u64,
    check_ns: u64,
    history_ops: u64,
    serializable: bool,
}

struct Round {
    times: RoundTimes,
    globals: u64,
    passes: Vec<Pass>,
    setup_spans: BTreeMap<&'static str, (u64, u64)>,
}

/// The counts of a report that the simulator must reproduce exactly.
fn det_counts(r: &RunReport) -> Vec<(String, u64)> {
    let m = &r.metrics;
    let site = |f: fn(&mdbs_localdb::engine::EngineStats) -> u64| -> u64 {
        r.site_stats.iter().map(|(_, _, s)| f(s)).sum()
    };
    let wake = r.registry.histogram("gtm2.wake_scan");
    vec![
        ("sim.global_commits".into(), m.global_commits),
        ("sim.global_aborts".into(), m.global_aborts),
        ("sim.global_failures".into(), m.global_failures),
        ("sim.local_commits".into(), m.local_commits),
        ("sim.local_aborts".into(), m.local_aborts),
        ("sim.timeouts".into(), m.timeouts),
        ("sim.events".into(), m.events),
        ("sim.makespan_us".into(), m.makespan),
        ("sim.resp_p50_us".into(), m.global_response.percentile(50.0)),
        ("sim.resp_p99_us".into(), m.global_response.percentile(99.0)),
        ("sim.resp_max_us".into(), m.global_response.max()),
        ("gtm1.aborted".into(), r.gtm1.aborted),
        (
            "gtm1.protocol_violations".into(),
            r.gtm1.protocol_violations,
        ),
        ("gtm2.waited".into(), r.gtm2.waited),
        ("gtm2.peak_wait".into(), r.gtm2.peak_wait),
        (
            "gtm2.protocol_violations".into(),
            r.gtm2.protocol_violations,
        ),
        ("gtm2.wake_retests".into(), wake.map_or(0, |h| h.sum())),
        ("gtm2.wake_scans".into(), wake.map_or(0, |h| h.count())),
        ("scheme.steps_cond".into(), r.gtm2_steps.cond),
        ("scheme.steps_act".into(), r.gtm2_steps.act),
        ("scheme.steps_wait_scan".into(), r.gtm2_steps.wait_scan),
        ("localdb.granted".into(), site(|s| s.granted)),
        ("localdb.blocked".into(), site(|s| s.blocked)),
        ("localdb.aborts".into(), site(|s| s.aborts)),
        (
            "localdb.deadlock_victims".into(),
            site(|s| s.deadlock_victims),
        ),
    ]
}

fn count(counts: &[(String, u64)], name: &str) -> u64 {
    counts
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn round(p: Params, seed: u64, input: usize, tr: &mut Tracer) -> Round {
    let seed = input_seed(seed, input);
    let mark = tr.mark();
    let t0 = Instant::now();
    let s = tr.begin("setup");
    let g = tr.begin("workload.generate");
    let programs = Programs::generate(&p.spec(seed));
    let globals = programs.global_count() as u64;
    tr.end(g);
    let mut systems = Vec::new();
    for kind in SCHEMES {
        let c = tr.begin("workload.clone");
        let w = programs.clone();
        tr.end(c);
        let n = tr.begin("des.new");
        systems.push((MdbsSystem::new(p.config(kind, seed)), w));
        tr.end(n);
    }
    tr.end(s);
    let setup_ns = t0.elapsed().as_nanos() as u64;
    let setup_spans = tr.totals_since(mark);

    let mut passes = Vec::new();
    for (mut sys, w) in systems {
        let sp = tr.begin("des.pass");
        let t = Instant::now();
        let r = tr.begin("des.run");
        let report = sys.run(w);
        tr.end(r);
        let run_ns = t.elapsed().as_nanos() as u64;
        let audit = tr.is_on().then(|| {
            let sites: Vec<SiteId> = (0..LocalProtocolKind::ALL.len() as u32)
                .map(SiteId)
                .collect();
            let t = Instant::now();
            let b = tr.begin("audit.build");
            let graph =
                GlobalSerializationGraph::build(sites.iter().map(|&s| (s, sys.site(s).history())));
            tr.end(b);
            let build_ns = t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let c = tr.begin("audit.check");
            let verdict = graph.check();
            tr.end(c);
            Audit {
                build_ns,
                check_ns: t.elapsed().as_nanos() as u64,
                history_ops: sites
                    .iter()
                    .map(|&s| sys.site(s).history().len() as u64)
                    .sum(),
                serializable: verdict.is_serializable(),
            }
        });
        tr.end(sp);
        passes.push(Pass {
            counts: det_counts(&report),
            ser_s_ok: report.ser_s_ok,
            serializable: report.is_serializable(),
            run_ns,
            audit,
        });
    }
    let times = passes
        .iter()
        .map(|p| (count(&p.counts, "sim.global_commits"), p.run_ns))
        .collect();
    Round {
        times: RoundTimes {
            input,
            setup_ns,
            passes: times,
        },
        globals,
        passes,
        setup_spans,
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let p = Params::for_size(cfg.size);
    let phases = crate::run_phases(cfg, p.inputs, |tr, input| round(p, cfg.seed, input, tr));
    let mut out = Outcome::new();

    let mut firsts: BTreeMap<usize, &Round> = BTreeMap::new();
    for r in phases.untraced.iter().chain(&phases.traced) {
        let first = *firsts.entry(r.times.input).or_insert(r);
        for (k, (pass, kind)) in r.passes.iter().zip(SCHEMES).enumerate() {
            let t = tag(kind);
            let c = &pass.counts;
            let violations =
                count(c, "gtm1.protocol_violations") + count(c, "gtm2.protocol_violations");
            let done = count(c, "sim.global_commits") + count(c, "sim.global_failures");
            out.attempted += r.globals;
            out.failed +=
                count(c, "sim.global_failures") + r.globals.saturating_sub(done) + violations;
            out.check(violations == 0, || {
                format!("{t}: {violations} protocol violations")
            });
            out.check(pass.ser_s_ok, || format!("{t}: ser(S) not serializable"));
            out.check(pass.serializable, || {
                format!("{t}: run not globally serializable")
            });
            if let Some(a) = &pass.audit {
                out.check(a.serializable, || {
                    format!("{t}: repeated audit not serializable")
                });
            }
            out.check(pass.counts == first.passes[k].counts, || {
                format!(
                    "{t}: simulated counters of input {} differ across repetitions",
                    r.times.input
                )
            });
        }
    }

    finish(&mut out, &SCHEMES, &phases, |r: &Round| &r.times);

    // Deterministic counts of input 0 (the seed's own workload).
    let input0 = firsts[&0];
    for (k, kind) in SCHEMES.iter().enumerate() {
        let t = tag(*kind);
        let c = &input0.passes[k].counts;
        for (name, v) in c {
            out.counts.push((format!("{t}.{name}"), *v));
        }
        for name in [
            "gtm2.wake_retests",
            "gtm2.waited",
            "gtm2.peak_wait",
            "scheme.steps_cond",
            "scheme.steps_act",
            "scheme.steps_wait_scan",
            "localdb.blocked",
            "localdb.aborts",
            "localdb.deadlock_victims",
            "gtm1.aborted",
            "sim.events",
            "sim.timeouts",
        ] {
            out.per_layer
                .insert(format!("{t}.{name}"), count(c, name) as f64);
        }
        let blocked = count(c, "localdb.blocked") as f64;
        out.per_layer.insert(
            format!("{t}.localdb.block_ratio"),
            stats::ratio(blocked, blocked + count(c, "localdb.granted") as f64),
        );
        out.per_layer.insert(
            format!("{t}.gtm2.wake_yield"),
            stats::ratio(
                count(c, "gtm2.waited") as f64,
                count(c, "gtm2.wake_retests") as f64,
            ),
        );
        out.per_layer.insert(
            format!("{t}.sim.resp_p50_ms"),
            count(c, "sim.resp_p50_us") as f64 / 1e3,
        );
        out.per_layer.insert(
            format!("{t}.sim.resp_p99_ms"),
            count(c, "sim.resp_p99_us") as f64 / 1e3,
        );
        if !phases.traced.is_empty() {
            let audit = |r: &Round| {
                r.passes[k]
                    .audit
                    .as_ref()
                    .map_or((0, 0, 0), |a| (a.build_ns, a.check_ns, a.history_ops))
            };
            let traced = &phases.traced;
            out.per_layer.insert(
                format!("{t}.des.run_ms"),
                median_of(traced, |r: &Round| ms(r.passes[k].run_ns)),
            );
            out.per_layer.insert(
                format!("{t}.audit.build_ms"),
                median_of(traced, |r: &Round| ms(audit(r).0)),
            );
            out.per_layer.insert(
                format!("{t}.audit.check_ms"),
                median_of(traced, |r: &Round| ms(audit(r).1)),
            );
            out.per_layer.insert(
                format!("{t}.des.core_ms"),
                median_of(traced, |r: &Round| {
                    let (b, c, _) = audit(r);
                    ms(r.passes[k].run_ns.saturating_sub(b + c))
                }),
            );
            // The first traced round ran input 0, like the counts above.
            out.per_layer
                .insert(format!("{t}.audit.history_ops"), audit(&traced[0]).2 as f64);
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
