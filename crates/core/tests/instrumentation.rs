//! Instrumentation-layer integration tests: structured protocol-violation
//! effects, the GTM2 active-count clamp, sink toggling mid-run, and the
//! guarantee that attaching a sink never changes scheduling behavior.

use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::instrument::{Registry, SchedEvent, SharedSink, TraceSink, TracedEvent};
use mdbs_common::ops::{QueueOp, QueueOpKind};
use mdbs_common::step::StepCounter;
use mdbs_core::gtm2::Gtm2;
use mdbs_core::replay::{replay_with, Script};
use mdbs_core::scheme::{KernelKind, ProtocolViolationKind, SchemeEffect, SchemeKind};
use mdbs_core::scheme0::Scheme0;

fn g(i: u64) -> GlobalTxnId {
    GlobalTxnId(i)
}
fn s(i: u32) -> SiteId {
    SiteId(i)
}

fn scheme0() -> Gtm2 {
    Gtm2::new(Box::new(Scheme0::new()))
}

// ---------------------------------------------------------------------
// Scheme 0 ack hardening: malformed acks surface as structured
// ProtocolViolation effects instead of panicking the scheduler.
// ---------------------------------------------------------------------

#[test]
fn scheme0_ack_for_unknown_site_is_violation() {
    let mut e = scheme0();
    e.enqueue(QueueOp::Ack {
        txn: g(1),
        site: s(7),
    });
    let fx = e.pump();
    assert_eq!(
        fx,
        vec![SchemeEffect::ProtocolViolation {
            txn: g(1),
            site: Some(s(7)),
            kind: ProtocolViolationKind::UnknownSite,
        }]
    );
    assert_eq!(e.stats().protocol_violations, 1);
}

#[test]
fn scheme0_out_of_order_ack_still_forwards() {
    let mut e = scheme0();
    e.enqueue(QueueOp::Init {
        txn: g(1),
        sites: vec![s(0)],
    });
    e.enqueue(QueueOp::Init {
        txn: g(2),
        sites: vec![s(0)],
    });
    e.pump();
    // G2 is queued behind G1 but its ack arrives first (a server bug):
    // the scheduler notes the violation, removes exactly G2, and still
    // forwards the ack because the local DBMS genuinely executed it.
    e.enqueue(QueueOp::Ack {
        txn: g(2),
        site: s(0),
    });
    let fx = e.pump();
    assert!(fx.contains(&SchemeEffect::ProtocolViolation {
        txn: g(2),
        site: Some(s(0)),
        kind: ProtocolViolationKind::AckOutOfOrder,
    }));
    assert!(fx.contains(&SchemeEffect::ForwardAck {
        txn: g(2),
        site: s(0),
    }));
    assert_eq!(e.stats().protocol_violations, 1);
    // G1 keeps its queue position: its ser op is still eligible.
    e.enqueue(QueueOp::Ser {
        txn: g(1),
        site: s(0),
    });
    let fx = e.pump();
    assert!(fx.contains(&SchemeEffect::SubmitSer {
        txn: g(1),
        site: s(0),
    }));
}

#[test]
fn scheme0_ack_never_queued_is_violation_without_forward() {
    let mut e = scheme0();
    e.enqueue(QueueOp::Init {
        txn: g(1),
        sites: vec![s(0)],
    });
    e.pump();
    e.enqueue(QueueOp::Ack {
        txn: g(9),
        site: s(0),
    });
    let fx = e.pump();
    assert_eq!(
        fx,
        vec![SchemeEffect::ProtocolViolation {
            txn: g(9),
            site: Some(s(0)),
            kind: ProtocolViolationKind::AckNotQueued,
        }]
    );
}

// ---------------------------------------------------------------------
// GTM2 active-count clamp: a fin without a matching init must not
// underflow; it is counted as a protocol violation instead.
// ---------------------------------------------------------------------

#[test]
fn gtm2_fin_without_init_clamps_active_count() {
    let mut e = scheme0();
    e.enqueue(QueueOp::Fin { txn: g(1) });
    e.pump();
    let stats = e.stats();
    assert_eq!(stats.protocol_violations, 1);
    // A normal init/fin cycle afterwards still balances.
    e.enqueue(QueueOp::Init {
        txn: g(2),
        sites: vec![s(0)],
    });
    e.enqueue(QueueOp::Fin { txn: g(2) });
    e.pump();
    let stats = e.stats();
    assert_eq!(stats.protocol_violations, 1);
    assert_eq!(stats.fins, 2);

    let mut registry = Registry::default();
    e.export_metrics(&mut registry);
    assert_eq!(registry.counter("gtm2.protocol_violations"), 1);
    assert_eq!(registry.counter("gtm2.fins"), 2);
}

// ---------------------------------------------------------------------
// Sink lifecycle: toggling mid-run only affects what is recorded, never
// what is scheduled.
// ---------------------------------------------------------------------

#[test]
fn sink_toggling_mid_run_records_only_while_attached() {
    let sink = SharedSink::new();
    let mut e = scheme0();

    // Phase 1: no sink — nothing recorded.
    e.enqueue(QueueOp::Init {
        txn: g(1),
        sites: vec![s(0)],
    });
    e.pump();
    assert!(sink.is_empty());

    // Phase 2: sink attached — events flow.
    e.set_sink(Some(Box::new(sink.clone())));
    e.enqueue(QueueOp::Ser {
        txn: g(1),
        site: s(0),
    });
    e.pump();
    let recorded_attached = sink.drain();
    assert!(
        recorded_attached
            .iter()
            .any(|ev| matches!(ev.event, SchedEvent::Enqueue { .. })),
        "expected an enqueue event, got {recorded_attached:?}"
    );
    assert!(recorded_attached
        .iter()
        .any(|ev| matches!(ev.event, SchedEvent::Act { .. })));

    // Phase 3: sink detached again — scheduling continues, recording stops.
    e.set_sink(None);
    e.enqueue(QueueOp::Ack {
        txn: g(1),
        site: s(0),
    });
    e.enqueue(QueueOp::Fin { txn: g(1) });
    e.pump();
    assert!(sink.is_empty());
    let stats = e.stats();
    assert_eq!(stats.fins, 1);
    assert_eq!(stats.protocol_violations, 0);
}

#[test]
fn sink_events_carry_the_engine_clock() {
    let sink = SharedSink::new();
    let mut e = scheme0();
    e.set_sink(Some(Box::new(sink.clone())));
    e.set_now(42);
    e.enqueue(QueueOp::Init {
        txn: g(1),
        sites: vec![s(0)],
    });
    e.pump();
    e.set_now(99);
    e.enqueue(QueueOp::Fin { txn: g(1) });
    e.pump();
    let events = sink.drain();
    assert!(events.iter().any(|ev| ev.at == 42));
    assert!(events.iter().any(|ev| ev.at == 99));
    assert!(events.iter().all(|ev| ev.at == 42 || ev.at == 99));
}

// ---------------------------------------------------------------------
// Observation is free of side effects: for every conservative scheme and
// a spread of random scripts, a run with a sink attached produces the
// identical schedule (stats, step counts, completions) as one without.
// ---------------------------------------------------------------------

#[test]
fn sinks_do_not_change_scheduling() {
    for kind in SchemeKind::CONSERVATIVE {
        for seed in 0..8u64 {
            let script = Script::random(24, 5, 2.5, seed);

            let plain = replay_with(Gtm2::new(kind.build()), &script);

            let sink = SharedSink::new();
            let mut observed_engine = Gtm2::new(kind.build());
            observed_engine.set_sink(Some(Box::new(sink.clone())));
            let observed = replay_with(observed_engine, &script);

            assert_eq!(
                plain.stats, observed.stats,
                "{kind:?} seed {seed}: stats diverged with a sink attached"
            );
            assert_eq!(
                plain.steps, observed.steps,
                "{kind:?} seed {seed}: step counts diverged with a sink attached"
            );
            assert_eq!(
                (plain.wake_scan_count, plain.wake_scan_sum),
                (observed.wake_scan_count, observed.wake_scan_sum),
                "{kind:?} seed {seed}: wake-scan work diverged with a sink attached"
            );
            assert_eq!(plain.completed, observed.completed);
            assert_eq!(plain.ser_serializable, observed.ser_serializable);
            // And the observation itself is non-trivial.
            assert!(!sink.is_empty(), "{kind:?} seed {seed}: no events recorded");
        }
    }
}

// ---------------------------------------------------------------------
// Scheme 1's dense kernel charges an ack's fin re-tests in aggregate
// without running them. A sink must still see the event stream of the
// literal re-tests (the BTree reference runs them all), and the skipped
// re-tests are counted as `gtm2.wake_retests_aggregated`.
// ---------------------------------------------------------------------

/// What one Scheme 1 run exposes: trace, metrics, steps, wake totals.
type Scheme1Run = (Vec<TracedEvent>, Registry, StepCounter, (u64, u64));

fn scheme1_run(kernel: KernelKind, traced: bool, ops: &[QueueOp]) -> Scheme1Run {
    let sink = SharedSink::new();
    let mut e = Gtm2::new(SchemeKind::Scheme1.build_kernel(kernel));
    e.set_sink(traced.then(|| Box::new(sink.clone()) as Box<dyn TraceSink + Send>));
    for op in ops {
        e.enqueue(op.clone());
        e.pump();
    }
    let mut registry = Registry::default();
    e.export_metrics(&mut registry);
    let wake = e.wake_scan_histogram();
    (
        sink.drain(),
        registry,
        e.steps(),
        (wake.count(), wake.sum()),
    )
}

#[test]
fn aggregated_fin_retests_trace_like_literal_ones() {
    let ser = |t: u64, k: u32| QueueOp::Ser {
        txn: g(t),
        site: s(k),
    };
    let ack = |t: u64, k: u32| QueueOp::Ack {
        txn: g(t),
        site: s(k),
    };
    let mut ops: Vec<QueueOp> = [(1, 0), (2, 0), (3, 1)]
        .into_iter()
        .map(|(t, k)| QueueOp::Init {
            txn: g(t),
            sites: vec![s(k)],
        })
        .collect();
    // fin_2 waits behind G1's delete-queue entry at s0; G3's ack then
    // charges its re-test in aggregate; fin_1 finally wakes it.
    ops.extend([
        ser(1, 0),
        ack(1, 0),
        ser(2, 0),
        ack(2, 0),
        QueueOp::Fin { txn: g(2) },
        ser(3, 1),
        ack(3, 1),
        QueueOp::Fin { txn: g(1) },
        QueueOp::Fin { txn: g(3) },
    ]);
    let (literal, ..) = scheme1_run(KernelKind::BTree, true, &ops);
    let (traced, traced_metrics, traced_steps, traced_wake) =
        scheme1_run(KernelKind::Dense, true, &ops);
    let (silent, metrics, steps, wake) = scheme1_run(KernelKind::Dense, false, &ops);
    assert_eq!(traced, literal, "trace differs from the literal re-tests");
    assert!(silent.is_empty());
    let skipped = SchedEvent::Cond {
        kind: QueueOpKind::Fin,
        txn: g(2),
        site: None,
        eligible: false,
    };
    // Once on arrival, once for the re-test charged at G3's ack.
    assert_eq!(traced.iter().filter(|ev| ev.event == skipped).count(), 2);
    assert_eq!(metrics.counter("gtm2.wake_retests_aggregated"), 1);
    assert_eq!(traced_metrics.counter("gtm2.wake_retests_aggregated"), 1);
    assert_eq!((traced_steps, traced_wake), (steps, wake));
}

#[test]
fn scheme1_dense_trace_matches_literal_reference() {
    for seed in 0..8u64 {
        let script = Script::random(24, 5, 2.5, seed);
        let run = |kernel: KernelKind| {
            let sink = SharedSink::new();
            let mut engine = Gtm2::new(SchemeKind::Scheme1.build_kernel(kernel));
            engine.set_sink(Some(Box::new(sink.clone())));
            let out = replay_with(engine, &script);
            (
                sink.drain(),
                out.steps,
                out.wake_scan_count,
                out.wake_scan_sum,
            )
        };
        assert_eq!(
            run(KernelKind::Dense),
            run(KernelKind::BTree),
            "seed {seed}: Scheme 1 trace diverged from the literal reference"
        );
    }
}
