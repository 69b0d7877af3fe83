//! GTM2 — the Basic_Scheme engine of Figure 3.
//!
//! ```text
//! procedure Basic_Scheme():
//!   Initialize data structures;
//!   while (true)
//!     Select operation o_j from the front of QUEUE;
//!     if cond(o_j) then
//!        act(o_j);
//!        while (there exists o_l ∈ WAIT such that cond(o_l)) do
//!            act(o_l);  WAIT := WAIT − {o_l}
//!     else WAIT := WAIT ∪ {o_j};
//! ```
//!
//! [`Gtm2::pump`] runs this loop over whatever is currently in QUEUE; the
//! surrounding system calls [`Gtm2::enqueue`] as GTM1 and the servers
//! produce operations. The inner "while exists" search is driven by the
//! scheme's [`wake_candidates`](crate::scheme::Gtm2Scheme::wake_candidates)
//! hints so each scheme pays exactly its own rescan cost.
//!
//! The engine also maintains the [`SerSLog`] — the order in which
//! `ser_k(G_i)` operations were acted — from which the serializability of
//! `ser(S)` is checked (Theorems 3, 5, 8 empirically).

use crate::scheme::{Candidate, Gtm2Scheme, SchemeEffect, WaitSet};
use crate::ser_s::SerSLog;
use mdbs_common::instrument::{Histogram, Registry, SchedEvent, StderrSink, TraceSink};
use mdbs_common::ops::{QueueOp, QueueOpKind};
use mdbs_common::step::StepCounter;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Counters for experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gtm2Stats {
    /// Operations inserted into QUEUE.
    pub enqueued: u64,
    /// Operations acted (processed successfully).
    pub processed: u64,
    /// Operations added to WAIT at least once — the paper's degree-of-
    /// concurrency metric (fewer is better).
    pub waited: u64,
    /// Operations added to WAIT, by kind `[init, ser, ack, fin]`. The
    /// paper's Scheme 3 all-serializable-schedules claim is about the `ser`
    /// component.
    pub waited_kind: [u64; 4],
    /// Global transactions aborted by the scheme (always 0 for the paper's
    /// conservative schemes; nonzero only for baselines).
    pub scheme_aborts: u64,
    /// `init` operations processed (transactions entering GTM2).
    pub inits: u64,
    /// `fin` operations processed (transactions leaving GTM2).
    pub fins: u64,
    /// Peak size of the WAIT set.
    pub peak_wait: u64,
    /// Peak number of concurrently active transactions (`n` observed).
    pub peak_active: u64,
    /// Malformed operations detected (unmatched fins, out-of-order acks —
    /// surfaced by schemes as [`SchemeEffect::ProtocolViolation`]).
    pub protocol_violations: u64,
}

/// The GTM2 scheduler: QUEUE + WAIT + a scheme.
///
/// ```
/// use mdbs_core::gtm2::Gtm2;
/// use mdbs_core::scheme::{SchemeEffect, SchemeKind};
/// use mdbs_common::ids::{GlobalTxnId, SiteId};
/// use mdbs_common::ops::QueueOp;
///
/// let mut gtm2 = Gtm2::new(SchemeKind::Scheme0.build());
/// gtm2.enqueue(QueueOp::Init { txn: GlobalTxnId(1), sites: vec![SiteId(0)] });
/// gtm2.enqueue(QueueOp::Ser { txn: GlobalTxnId(1), site: SiteId(0) });
/// let effects = gtm2.pump();
/// assert_eq!(
///     effects,
///     vec![SchemeEffect::SubmitSer { txn: GlobalTxnId(1), site: SiteId(0) }],
/// );
/// ```
pub struct Gtm2 {
    scheme: Box<dyn Gtm2Scheme + Send>,
    queue: VecDeque<QueueOp>,
    wait: WaitSet,
    steps: StepCounter,
    stats: Gtm2Stats,
    ser_log: SerSLog,
    active: u64,
    /// Validate scheme invariants after every act (used by tests).
    validate: bool,
    /// Wake candidates examined per act (log₂ histogram).
    wake_scan: Histogram,
    /// Reusable buffer for the cascading wake worklist (no per-act
    /// allocation).
    wake_buf: VecDeque<Candidate>,
    /// Structured event sink; `None` = tracing disabled (one branch, no
    /// formatting or allocation on the hot path).
    sink: Option<Box<dyn TraceSink + Send>>,
    /// Producer clock stamped onto sink events (set by the embedding
    /// runtime; stays 0 where there is no clock).
    clock: u64,
}

impl Gtm2 {
    /// Create an engine around a scheme. The `MDBS_TRACE` environment
    /// variable attaches a [`StderrSink`] for parity with the old debug
    /// tracing; use [`Gtm2::set_sink`] for structured collection.
    pub fn new(scheme: Box<dyn Gtm2Scheme + Send>) -> Self {
        let sink: Option<Box<dyn TraceSink + Send>> = if std::env::var_os("MDBS_TRACE").is_some() {
            Some(Box::new(StderrSink))
        } else {
            None
        };
        Gtm2 {
            scheme,
            queue: VecDeque::new(),
            wait: WaitSet::new(),
            steps: StepCounter::new(),
            stats: Gtm2Stats::default(),
            ser_log: SerSLog::new(),
            active: 0,
            validate: cfg!(debug_assertions),
            wake_scan: Histogram::new(),
            wake_buf: VecDeque::new(),
            sink,
            clock: 0,
        }
    }

    /// Enable/disable per-act scheme invariant validation.
    pub fn set_validate(&mut self, on: bool) {
        self.validate = on;
    }

    /// Attach (or with `None`, detach) a structured event sink. Can be
    /// toggled mid-run; scheduling behavior is unaffected either way.
    pub fn set_sink(&mut self, sink: Option<Box<dyn TraceSink + Send>>) {
        self.sink = sink;
    }

    /// Detach and return the current sink.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink + Send>> {
        self.sink.take()
    }

    /// Set the clock value stamped onto subsequent sink events.
    pub fn set_now(&mut self, at: u64) {
        self.clock = at;
    }

    /// Wake candidates examined per act.
    pub fn wake_scan_histogram(&self) -> &Histogram {
        &self.wake_scan
    }

    /// Export counters, gauges and histograms into `registry` under the
    /// `gtm2.` prefix.
    pub fn export_metrics(&self, registry: &mut Registry) {
        let s = &self.stats;
        registry.inc("gtm2.enqueued", s.enqueued);
        registry.inc("gtm2.processed", s.processed);
        registry.inc("gtm2.waited", s.waited);
        registry.inc("gtm2.waited.init", s.waited_kind[0]);
        registry.inc("gtm2.waited.ser", s.waited_kind[1]);
        registry.inc("gtm2.waited.ack", s.waited_kind[2]);
        registry.inc("gtm2.waited.fin", s.waited_kind[3]);
        registry.inc("gtm2.scheme_aborts", s.scheme_aborts);
        registry.inc("gtm2.inits", s.inits);
        registry.inc("gtm2.fins", s.fins);
        registry.inc("gtm2.protocol_violations", s.protocol_violations);
        registry.inc("gtm2.steps.cond", self.steps.cond);
        registry.inc("gtm2.steps.act", self.steps.act);
        registry.inc("gtm2.steps.wait_scan", self.steps.wait_scan);
        registry.max_gauge("gtm2.peak_wait", s.peak_wait as i64);
        registry.max_gauge("gtm2.peak_active", s.peak_active as i64);
        registry.merge_histogram("gtm2.wake_scan", &self.wake_scan);
        self.scheme.export_metrics(registry);
    }

    /// The scheme's display name.
    pub fn scheme_name(&self) -> &'static str {
        self.scheme.name()
    }

    /// Accumulated abstract step counts.
    pub fn steps(&self) -> StepCounter {
        self.steps
    }

    /// Engine counters.
    pub fn stats(&self) -> Gtm2Stats {
        self.stats
    }

    /// The recorded `ser(S)` log.
    pub fn ser_log(&self) -> &SerSLog {
        &self.ser_log
    }

    /// Number of operations currently waiting.
    pub fn wait_len(&self) -> usize {
        self.wait.len()
    }

    /// Number of operations queued but not yet examined.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Insert an operation at the end of QUEUE.
    pub fn enqueue(&mut self, op: QueueOp) {
        if let Some(sink) = &mut self.sink {
            sink.record(self.clock, SchedEvent::enqueue(&op));
        }
        self.stats.enqueued += 1;
        self.queue.push_back(op);
    }

    /// Run the Basic_Scheme loop until QUEUE is empty. Returns the effects
    /// produced, in order.
    pub fn pump(&mut self) -> Vec<SchemeEffect> {
        let mut effects = Vec::new();
        while let Some(op) = self.queue.pop_front() {
            let eligible = self.scheme.cond(&op, &mut self.steps);
            if let Some(sink) = &mut self.sink {
                sink.record(self.clock, SchedEvent::cond(&op, eligible));
            }
            if eligible {
                self.do_act(op, &mut effects);
            } else {
                if let Some(sink) = &mut self.sink {
                    sink.record(self.clock, SchedEvent::wait(&op));
                }
                self.stats.waited += 1;
                // mdbs-lint: allow(no-panic-in-scheduler) — kind_index maps the four QueueOp kinds to 0..=3, within the fixed-size array.
                self.stats.waited_kind[kind_index(op.kind())] += 1;
                self.scheme.on_wait(&op, true);
                self.wait.insert(op);
                self.stats.peak_wait = self.stats.peak_wait.max(self.wait.len() as u64);
            }
        }
        effects
    }

    /// `act(op)` followed by the cascading WAIT re-examination.
    ///
    /// Figure 3's inner loop is `while ∃ o_l ∈ WAIT with cond(o_l): act(o_l)`
    /// — each eligible waiter is acted **immediately**, with `cond`
    /// evaluated against the *current* data structures. Batching the
    /// eligibility checks would let two mutually exclusive operations
    /// (e.g. two ser ops at one site whose conds both looked true before
    /// either acted) slip through together.
    fn do_act(&mut self, op: QueueOp, effects: &mut Vec<SchemeEffect>) {
        let act_now = |this: &mut Self,
                       acted: &QueueOp,
                       woken: bool,
                       effects: &mut Vec<SchemeEffect>,
                       candidates: &mut VecDeque<Candidate>| {
            if let Some(sink) = &mut this.sink {
                let ev = if woken {
                    SchedEvent::wake(acted)
                } else {
                    SchedEvent::act(acted)
                };
                sink.record(this.clock, ev);
            }
            this.note_processed(acted);
            let fx = this.scheme.act(acted, &mut this.steps);
            if this.validate {
                this.scheme.debug_validate();
            }
            for effect in &fx {
                match effect {
                    SchemeEffect::SubmitSer { txn, site } => this.ser_log.record(*txn, *site),
                    SchemeEffect::AbortGlobal { txn } => {
                        this.stats.scheme_aborts += 1;
                        if let Some(sink) = &mut this.sink {
                            sink.record(this.clock, SchedEvent::Abort { txn: *txn });
                        }
                    }
                    SchemeEffect::ForwardAck { .. } => {}
                    SchemeEffect::ProtocolViolation { .. } => {
                        this.stats.protocol_violations += 1;
                    }
                }
            }
            effects.extend(fx.iter().copied());
            let wake = this
                .scheme
                .wake_candidates(acted, &this.wait, &mut this.steps);
            let examined = this
                .wait
                .resolve_into(&wake, this.sink.is_some(), candidates);
            this.wake_scan.observe(examined as u64);
        };
        // Reuse the engine-owned worklist (taken so the closure can borrow
        // `self` mutably alongside it).
        let mut candidates = std::mem::take(&mut self.wake_buf);
        candidates.clear();
        act_now(self, &op, false, effects, &mut candidates);
        while let Some(candidate) = candidates.pop_front() {
            let woken = retest(
                candidate,
                &mut self.wait,
                self.scheme.as_mut(),
                &mut self.steps,
                &mut self.sink,
                self.clock,
            );
            if let Some(woken) = woken {
                // Act immediately; its own wake candidates join the queue.
                act_now(self, &woken, true, effects, &mut candidates);
            }
        }
        self.wake_buf = candidates;
    }

    fn note_processed(&mut self, op: &QueueOp) {
        self.stats.processed += 1;
        match op.kind() {
            QueueOpKind::Init => {
                self.stats.inits += 1;
                self.active += 1;
                self.stats.peak_active = self.stats.peak_active.max(self.active);
            }
            QueueOpKind::Fin => {
                self.stats.fins += 1;
                // An unmatched fin must not underflow the active count
                // (and thereby skew peak_active for the rest of the run).
                match self.active.checked_sub(1) {
                    Some(a) => self.active = a,
                    None => self.stats.protocol_violations += 1,
                }
            }
            QueueOpKind::Ser | QueueOpKind::Ack => {}
        }
    }
}

/// One re-test of Figure 3's inner loop, shared by [`Gtm2`] and
/// [`ShardedGtm2`](crate::sharded::ShardedGtm2) so both run the same
/// cascade semantics.
///
/// `cond` is evaluated on the waiting operation where it lies: an
/// eligible one leaves WAIT (and the scheme's [`on_wait`] hook hears of
/// it) and is returned for the caller to act; a failed re-test leaves
/// WAIT untouched. A key no longer in WAIT (woken earlier in the cascade)
/// is skipped. A [`Candidate::Charged`] re-test was proved to fail and
/// charged by the scheme, so nothing runs; a sink still records its
/// `cond = false`, keeping the trace identical to a literal re-test.
///
/// [`on_wait`]: Gtm2Scheme::on_wait
pub(crate) fn retest(
    candidate: Candidate,
    wait: &mut WaitSet,
    scheme: &mut dyn Gtm2Scheme,
    steps: &mut StepCounter,
    sink: &mut Option<Box<dyn TraceSink + Send>>,
    clock: u64,
) -> Option<QueueOp> {
    match candidate {
        Candidate::Retest(key) => {
            let op = wait.take_if(&key, |op| {
                let eligible = scheme.cond(op, steps);
                if let Some(sink) = sink {
                    sink.record(clock, SchedEvent::cond(op, eligible));
                }
                eligible
            })?;
            scheme.on_wait(&op, false);
            Some(op)
        }
        Candidate::Charged(key) => {
            if let (Some(sink), Some(op)) = (sink, wait.get(&key)) {
                sink.record(clock, SchedEvent::cond(op, false));
            }
            None
        }
    }
}

/// Dense index of a queue-op kind for the `waited_kind` counters.
fn kind_index(kind: QueueOpKind) -> usize {
    match kind {
        QueueOpKind::Init => 0,
        QueueOpKind::Ser => 1,
        QueueOpKind::Ack => 2,
        QueueOpKind::Fin => 3,
    }
}

impl std::fmt::Debug for Gtm2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gtm2")
            .field("scheme", &self.scheme.name())
            .field("queue", &self.queue.len())
            .field("wait", &self.wait.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeKind;
    use mdbs_common::ids::{GlobalTxnId, SiteId};

    fn g(i: u64) -> GlobalTxnId {
        GlobalTxnId(i)
    }
    fn s(i: u32) -> SiteId {
        SiteId(i)
    }

    /// Drive one transaction through Scheme 0 end to end.
    #[test]
    fn single_txn_flows_through() {
        let mut e = Gtm2::new(SchemeKind::Scheme0.build());
        e.enqueue(QueueOp::Init {
            txn: g(1),
            sites: vec![s(0), s(1)],
        });
        e.enqueue(QueueOp::Ser {
            txn: g(1),
            site: s(0),
        });
        e.enqueue(QueueOp::Ser {
            txn: g(1),
            site: s(1),
        });
        let fx = e.pump();
        assert_eq!(
            fx,
            vec![
                SchemeEffect::SubmitSer {
                    txn: g(1),
                    site: s(0)
                },
                SchemeEffect::SubmitSer {
                    txn: g(1),
                    site: s(1)
                },
            ]
        );
        e.enqueue(QueueOp::Ack {
            txn: g(1),
            site: s(0),
        });
        e.enqueue(QueueOp::Ack {
            txn: g(1),
            site: s(1),
        });
        e.enqueue(QueueOp::Fin { txn: g(1) });
        let fx = e.pump();
        assert_eq!(
            fx,
            vec![
                SchemeEffect::ForwardAck {
                    txn: g(1),
                    site: s(0)
                },
                SchemeEffect::ForwardAck {
                    txn: g(1),
                    site: s(1)
                },
            ]
        );
        assert_eq!(e.stats().processed, 6);
        assert_eq!(e.stats().waited, 0);
        assert_eq!(e.wait_len(), 0);
        assert!(e.ser_log().check().is_ok());
    }

    /// Two transactions at one site: the second ser op waits for the
    /// first's ack under Scheme 0.
    #[test]
    fn contention_waits_and_wakes() {
        let mut e = Gtm2::new(SchemeKind::Scheme0.build());
        e.enqueue(QueueOp::Init {
            txn: g(1),
            sites: vec![s(0)],
        });
        e.enqueue(QueueOp::Init {
            txn: g(2),
            sites: vec![s(0)],
        });
        e.enqueue(QueueOp::Ser {
            txn: g(1),
            site: s(0),
        });
        e.enqueue(QueueOp::Ser {
            txn: g(2),
            site: s(0),
        });
        let fx = e.pump();
        assert_eq!(
            fx,
            vec![SchemeEffect::SubmitSer {
                txn: g(1),
                site: s(0)
            }]
        );
        assert_eq!(e.wait_len(), 1);
        assert_eq!(e.stats().waited, 1);
        // Ack of g1 wakes g2's ser.
        e.enqueue(QueueOp::Ack {
            txn: g(1),
            site: s(0),
        });
        let fx = e.pump();
        assert_eq!(
            fx,
            vec![
                SchemeEffect::ForwardAck {
                    txn: g(1),
                    site: s(0)
                },
                SchemeEffect::SubmitSer {
                    txn: g(2),
                    site: s(0)
                },
            ]
        );
        assert_eq!(e.wait_len(), 0);
    }

    #[test]
    fn stats_track_active_peak() {
        let mut e = Gtm2::new(SchemeKind::Scheme0.build());
        for i in 1..=3 {
            e.enqueue(QueueOp::Init {
                txn: g(i),
                sites: vec![s(0)],
            });
        }
        e.pump();
        assert_eq!(e.stats().peak_active, 3);
        assert_eq!(e.stats().inits, 3);
    }
}
