//! Tests of the benchmark itself: every workload and every check at tiny
//! size, the benchmark's replay loop against `replay_kernel`, and `BENCHMARK.json`
//! against the metric catalog.

use mdbs_core::replay::Script;
use mdbs_perfbench::replay_open::{drive, engine, verify_against_reference};
use mdbs_perfbench::trace::{Tracer, ROOT};
use mdbs_perfbench::{per_layer_catalog, run, RunConfig, Size, Workload, END_TO_END, SCHEMES};
use std::collections::BTreeSet;

fn tiny(workload: Workload, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    }
}

/// Spans the traced phase must hold, per workload: one per public call
/// the benchmark makes into a layer.
fn expected_spans(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::ReplayOpen => &[
            "setup",
            "workload.generate",
            "gtm2.new",
            "replay.pass",
            "replay.request",
            "gtm2.enqueue",
            "gtm2.pump",
            "ser_s.check",
        ],
        Workload::DesClosed => &[
            "setup",
            "workload.generate",
            "workload.clone",
            "des.new",
            "des.pass",
            "des.run",
            "audit.build",
            "audit.check",
        ],
        Workload::LiveClosed => &["setup", "workload.generate", "live.new", "live.run"],
    }
}

#[test]
fn tiny_untraced_runs_pass_every_check() {
    for w in Workload::ALL {
        let out = run(&tiny(w, 42, false));
        assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0, "{}", w.name());
        let metrics = out.metrics(false);
        assert_eq!(metrics.len(), END_TO_END.len());
        for (name, v, _) in &metrics {
            assert!(v.is_finite() && *v > 0.0, "{}: {name} = {v}", w.name());
        }
        assert!(out.tracer.is_none(), "untraced runs keep no spans");
    }
}

#[test]
fn tiny_traced_runs_report_every_layer_and_span() {
    let catalog: Vec<String> = per_layer_catalog().into_iter().map(|m| m.0).collect();
    for w in Workload::ALL {
        let out = run(&tiny(w, 7, true));
        assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
        let metrics = out.metrics(true);
        let names: Vec<String> = metrics.iter().map(|m| m.0.clone()).collect();
        assert_eq!(names, catalog);
        for (name, v, _) in &metrics {
            assert!(v.is_finite(), "{}: {name} = {v}", w.name());
        }
        // Every metric the workload filled is in the catalog.
        for name in out.per_layer.keys() {
            assert!(catalog.contains(name), "{}: stray metric {name}", w.name());
        }
        for m in [
            "workload.generate_ms",
            "trace.overhead.txn_per_s",
            "s3.txn_per_s",
        ] {
            assert!(out.per_layer.contains_key(m), "{}: {m} missing", w.name());
        }
        let tracer = out.tracer.expect("traced runs keep spans");
        let spans = tracer.spans();
        let seen: BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
        for want in expected_spans(w) {
            assert!(seen.contains(want), "{}: no {want} span", w.name());
        }
        let ids: BTreeSet<u32> = spans.iter().map(|s| s.id).collect();
        for s in spans {
            assert!(s.end_ns >= s.start_ns);
            assert!(
                s.parent == ROOT || ids.contains(&s.parent),
                "dangling parent"
            );
        }
    }
}

#[test]
fn workload_specific_layers_are_filled() {
    let replay = run(&tiny(Workload::ReplayOpen, 3, true));
    for m in ["s1.gtm2.pump_ms", "s1.gtm2.req_p99_us", "s0.ser_s.check_ms"] {
        assert!(replay.per_layer[m] > 0.0, "replay-open {m}");
    }
    let des = run(&tiny(Workload::DesClosed, 3, true));
    for m in ["s2.audit.build_ms", "s2.audit.history_ops", "s2.sim.events"] {
        assert!(des.per_layer[m] > 0.0, "des-closed {m}");
    }
    assert!(!des.per_layer.contains_key("s2.gtm2.pump_ms"));
    let live = run(&tiny(Workload::LiveClosed, 3, true));
    assert!(live.per_layer["s3.live.run_ms"] > 0.0);
    assert!(live.per_layer.contains_key("pool.wake"));
    assert!(!live.per_layer.contains_key("s0.txn_per_s"));
}

#[test]
fn deterministic_counts_repeat_for_a_seed() {
    for w in [Workload::ReplayOpen, Workload::DesClosed] {
        let a = run(&tiny(w, 11, false)).counts;
        let b = run(&tiny(w, 11, false)).counts;
        assert!(!a.is_empty());
        assert_eq!(a, b, "{}", w.name());
        let c = run(&tiny(w, 12, false)).counts;
        assert_ne!(a, c, "{}: another seed gives other inputs", w.name());
    }
}

#[test]
fn replay_loop_equals_replay_kernel() {
    for seed in 0..12 {
        for script in [
            Script::random(12, 4, 2.5, seed),
            Script::random(30, 5, 2.0, seed),
            Script::serializable_order(12, 4, 2.5, seed),
        ] {
            for kind in SCHEMES {
                let pass = drive(engine(kind), &script, &mut Tracer::new(seed % 2 == 0));
                let diffs = verify_against_reference(kind, &script, &pass);
                assert!(diffs.is_empty(), "seed {seed}: {diffs:?}");
                assert_eq!(pass.request_ns.len(), script.events.len());
            }
        }
    }
}

#[test]
fn reference_check_catches_a_different_pass() {
    let script = Script::random(20, 4, 2.5, 5);
    let pass = drive(engine(SCHEMES[0]), &script, &mut Tracer::new(false));
    assert!(verify_against_reference(SCHEMES[0], &script, &pass).is_empty());
    let diffs = verify_against_reference(SCHEMES[3], &script, &pass);
    assert!(
        !diffs.is_empty(),
        "a Scheme 0 pass must not pass as Scheme 3"
    );
}

fn str_of<'a>(v: &'a serde_json::Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(serde_json::Value::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn arr_of<'a>(v: &'a serde_json::Value, key: &str) -> &'a [serde_json::Value] {
    match v.get(key) {
        Some(serde_json::Value::Arr(a)) => a,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = serde_json::from_str_value(&text).expect("valid JSON");

    let workloads: Vec<&str> = arr_of(&json, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));

    let e2e: Vec<(&str, &str, &str)> = arr_of(&json, "end_to_end")
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
        .collect();
    assert_eq!(e2e, END_TO_END.to_vec());

    let layers: Vec<(String, &str, &str)> = arr_of(&json, "per_layer")
        .iter()
        .map(|m| {
            (
                str_of(m, "name").to_string(),
                str_of(m, "unit"),
                str_of(m, "better"),
            )
        })
        .collect();
    assert_eq!(layers, per_layer_catalog());
}
