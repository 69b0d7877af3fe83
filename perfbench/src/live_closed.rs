//! `live-closed`: the threaded runtime.
//!
//! Eight strict-2PL sites and global-only transactions in a closed loop
//! at MPL 8, on Scheme 3, through [`ThreadedMdbs::run`]. This is the one
//! workload where the work-stealing pool, the channels, `ShardedGtm2`'s
//! shard locks and wake hints, and real blocking in the local engines
//! run. `ThreadedMdbs` exposes only `run`, so the benchmark times the
//! whole run and reads the counters the runtime exports. Its counts vary
//! from run to run (real threads race); they are reported as medians.

use crate::stats;
use crate::trace::Tracer;
use crate::{finish, input_seed, median_of, ms, span_ns, Outcome, RoundTimes, RunConfig, Size};
use mdbs_common::instrument::Registry;
use mdbs_core::scheme::SchemeKind;
use mdbs_localdb::protocol::LocalProtocolKind;
use mdbs_sim::threaded::ThreadedMdbs;
use mdbs_workload::distributions::AccessDistribution;
use mdbs_workload::generator::Workload as Programs;
use mdbs_workload::spec::WorkloadSpec;
use std::collections::BTreeMap;
use std::time::Instant;

/// The one scheme this workload runs.
pub const SCHEME: SchemeKind = SchemeKind::Scheme3;

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Sites (all strict 2PL).
    pub sites: usize,
    /// Global transactions.
    pub globals: usize,
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
                sites: 8,
                globals: 3000,
                items: 1024,
                mpl: 8,
                inputs: 8,
            },
            Size::Tiny => Params {
                sites: 3,
                globals: 30,
                items: 64,
                mpl: 4,
                inputs: 2,
            },
        }
    }

    /// The generator spec for `seed`.
    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            sites: self.sites,
            global_txns: self.globals,
            avg_sites_per_txn: 2.0,
            ops_per_subtxn: 2,
            read_ratio: 0.5,
            items_per_site: self.items,
            distribution: AccessDistribution::Uniform,
            local_txns_per_site: 0,
            ops_per_local_txn: 0,
            seed,
        }
    }
}

/// What a round keeps of its run.
struct Round {
    times: RoundTimes,
    run_ns: u64,
    commits: u64,
    aborts: u64,
    ser_s_ok: bool,
    serializable: bool,
    /// The runtime's exported metrics.
    registry: Registry,
    setup_spans: BTreeMap<&'static str, (u64, u64)>,
}

fn round(p: Params, seed: u64, input: usize, tr: &mut Tracer) -> Round {
    let seed = input_seed(seed, input);
    let mark = tr.mark();
    let t0 = Instant::now();
    let s = tr.begin("setup");
    let g = tr.begin("workload.generate");
    let programs = Programs::generate(&p.spec(seed)).globals;
    tr.end(g);
    let n = tr.begin("live.new");
    let mut rt = ThreadedMdbs::new(
        vec![LocalProtocolKind::TwoPhaseLocking; p.sites],
        SCHEME,
        p.mpl,
    );
    // One GTM2 shard per site, whatever MDBS_SHARDS says.
    rt.set_shards(p.sites);
    tr.end(n);
    tr.end(s);
    let setup_ns = t0.elapsed().as_nanos() as u64;
    let setup_spans = tr.totals_since(mark);

    let t = Instant::now();
    let r = tr.begin("live.run");
    let report = rt.run(programs);
    tr.end(r);
    let run_ns = t.elapsed().as_nanos() as u64;
    Round {
        times: RoundTimes {
            input,
            setup_ns,
            passes: vec![(report.commits, run_ns)],
        },
        run_ns,
        commits: report.commits,
        aborts: report.aborts,
        ser_s_ok: report.ser_s_ok,
        serializable: report.is_serializable(),
        registry: report.registry,
        setup_spans,
    }
}

/// Registry counters this workload reports, by metric name.
const REGISTRY_METRICS: [(&str, &str); 14] = [
    ("pool.steal", "pool.steal"),
    ("pool.park", "pool.park"),
    ("pool.wake", "pool.wake"),
    ("gtm2.shard_lock_contended", "gtm2.shard_lock_contended"),
    ("gtm2.shard_lock_parks", "gtm2.shard_lock_parks"),
    ("gtm2.cross_shard_handoff", "gtm2.cross_shard_handoff"),
    ("s3.localdb.blocked", "site.total.blocked"),
    ("s3.localdb.aborts", "site.total.aborts"),
    ("s3.localdb.deadlock_victims", "site.total.deadlock_victims"),
    ("s3.gtm1.aborted", "gtm1.aborted"),
    ("s3.gtm2.waited", "gtm2.waited"),
    ("s3.scheme.steps_cond", "gtm2.steps.cond"),
    ("s3.scheme.steps_act", "gtm2.steps.act"),
    ("s3.scheme.steps_wait_scan", "gtm2.steps.wait_scan"),
];

fn wake(reg: &Registry) -> (u64, u64) {
    reg.histogram("gtm2.wake_scan")
        .map_or((0, 0), |h| (h.count(), h.sum()))
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let p = Params::for_size(cfg.size);
    let phases = crate::run_phases(cfg, p.inputs, |tr, input| round(p, cfg.seed, input, tr));
    let mut out = Outcome::new();

    for r in phases.untraced.iter().chain(&phases.traced) {
        let reg = &r.registry;
        let violations =
            reg.counter("gtm1.protocol_violations") + reg.counter("gtm2.protocol_violations");
        let unfinished = (p.globals as u64).saturating_sub(r.commits + r.aborts);
        out.attempted += p.globals as u64;
        out.failed += r.aborts + unfinished + violations;
        out.check(r.commits + r.aborts == p.globals as u64, || {
            format!(
                "commits {} + aborts {} != {} attempted",
                r.commits, r.aborts, p.globals
            )
        });
        out.check(violations == 0, || {
            format!("{violations} protocol violations")
        });
        out.check(r.ser_s_ok, || "ser(S) not serializable".into());
        out.check(r.serializable, || "run not globally serializable".into());
        let dropped = reg.counter("threaded.send_dropped");
        out.check(dropped == 0, || {
            format!("threaded.send_dropped = {dropped}")
        });
    }

    finish(&mut out, &[SCHEME], &phases, |r: &Round| &r.times);

    let all: Vec<&Round> = phases.untraced.iter().chain(&phases.traced).collect();
    for (metric, counter) in REGISTRY_METRICS {
        out.per_layer.insert(
            metric.into(),
            median_of(&all, |r: &&Round| r.registry.counter(counter) as f64),
        );
    }
    let gauge = |name: &str| median_of(&all, |r: &&Round| r.registry.gauge(name) as f64);
    out.per_layer
        .insert("s3.gtm2.peak_wait".into(), gauge("gtm2.peak_wait"));
    out.per_layer.insert(
        "s3.gtm2.wake_retests".into(),
        median_of(&all, |r: &&Round| wake(&r.registry).1 as f64),
    );
    out.per_layer.insert(
        "s3.gtm2.wake_yield".into(),
        median_of(&all, |r: &&Round| {
            stats::ratio(
                r.registry.counter("gtm2.waited") as f64,
                wake(&r.registry).1 as f64,
            )
        }),
    );
    out.per_layer.insert(
        "s3.localdb.block_ratio".into(),
        median_of(&all, |r: &&Round| {
            let reg = &r.registry;
            let blocked = reg.counter("site.total.blocked") as f64;
            stats::ratio(blocked, blocked + reg.counter("site.total.granted") as f64)
        }),
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.notes.push(format!(
        "available_parallelism {nproc}; pool workers min(sites {}, nproc) = {}",
        p.sites,
        p.sites.min(nproc)
    ));
    let first = &phases.untraced[0];
    out.counts.push(("s3.commits".into(), first.commits));
    out.counts.push(("s3.aborts".into(), first.aborts));

    if !phases.traced.is_empty() {
        out.per_layer.insert(
            "s3.live.run_ms".into(),
            median_of(&phases.traced, |r: &Round| ms(r.run_ns)),
        );
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
