//! The benchmark's own tracing, built only from the library's public
//! API:
//!
//! * [`CountingTransport`] — the library's [`MemTransport`] plus a
//!   tree-wide per-kind envelope tally (no clocks): the transport of the
//!   untraced runs;
//! * [`TimingTransport`] — an in-memory FIFO transport that does what
//!   [`MemTransport`] does through [`Envelope::to_bytes`] /
//!   [`Envelope::from_bytes`], timing the codec apart from the queue;
//! * [`LeafProbe`] — a timing decorator around one leaf
//!   [`SecureAggregator`] of the grouped tree.

use lsa_field::Field;
use lsa_protocol::federation::{RoundOutcome, SecureAggregator};
use lsa_protocol::ratchet::{CohortFingerprint, PadTopology};
use lsa_protocol::telemetry::RoundReport;
use lsa_protocol::transport::{Delivery, MemTransport, Transport};
use lsa_protocol::wire::{Envelope, EnvelopeKind};
use lsa_protocol::{LsaConfig, ProtocolError, Recipient, SyncFederation};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of envelope kinds on the wire.
pub const KINDS: usize = EnvelopeKind::ALL.len();

/// Per-kind envelope counts, indexed like [`EnvelopeKind::ALL`].
pub type KindCounts = [u64; KINDS];

/// Where `kind` sits in a [`KindCounts`] (wire tags start at 1).
pub fn kind_index(kind: EnvelopeKind) -> usize {
    usize::from(kind.tag() - 1)
}

/// Nanoseconds from `start` to `end`.
pub fn nanos_between(start: Instant, end: Instant) -> u64 {
    u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX)
}

/// A per-kind envelope tally shared by every clone of a
/// [`CountingTransport`] (one clone per leaf of a tree).
#[derive(Debug, Default)]
pub struct KindTally([AtomicU64; KINDS]);

impl KindTally {
    /// The counts so far.
    pub fn snapshot(&self) -> KindCounts {
        // Relaxed: plain statistics, read after the round's worker
        // threads have been joined.
        std::array::from_fn(|k| self.0[k].load(Ordering::Relaxed))
    }
}

/// [`MemTransport`] with its sends tallied by envelope kind across all
/// clones.
#[derive(Debug, Clone, Default)]
pub struct CountingTransport {
    inner: MemTransport,
    tally: Arc<KindTally>,
}

impl CountingTransport {
    /// A transport feeding `tally`.
    pub fn new(tally: Arc<KindTally>) -> Self {
        Self {
            inner: MemTransport::new(),
            tally,
        }
    }
}

impl<F: Field> Transport<F> for CountingTransport {
    fn send(
        &mut self,
        from: Recipient,
        to: Recipient,
        envelope: &Envelope<F>,
    ) -> Result<(), ProtocolError> {
        self.tally.0[kind_index(envelope.kind())].fetch_add(1, Ordering::Relaxed);
        Transport::<F>::send(&mut self.inner, from, to, envelope)
    }

    fn recv(&mut self) -> Result<Option<Delivery<F>>, ProtocolError> {
        Transport::<F>::recv(&mut self.inner)
    }

    fn bytes_sent(&self) -> usize {
        self.inner.bytes_sent()
    }

    fn messages_sent(&self) -> usize {
        self.inner.messages_sent()
    }
}

/// Cumulative wire and queue counters of one [`TimingTransport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Time in [`Envelope::to_bytes`].
    pub encode_ns: u64,
    /// Time in [`Envelope::from_bytes`].
    pub decode_ns: u64,
    /// Total time inside `send` and `recv`, codec included.
    pub io_ns: u64,
    /// Serialized bytes sent.
    pub bytes: u64,
    /// Envelopes sent, per kind.
    pub kinds: KindCounts,
    /// `recv` calls.
    pub recv_polls: u64,
    /// `recv` calls that found the queue empty.
    pub empty_polls: u64,
    /// Most envelopes ever queued at once.
    pub max_in_flight: u64,
}

impl WireStats {
    /// Envelopes sent, all kinds.
    pub fn envelopes(&self) -> u64 {
        self.kinds.iter().sum()
    }

    /// Time in `send`/`recv` outside the codec.
    pub fn queue_ns(&self) -> u64 {
        self.io_ns
            .saturating_sub(self.encode_ns)
            .saturating_sub(self.decode_ns)
    }

    /// The counters accrued since `earlier` (the high-water mark is
    /// kept as is).
    pub fn since(&self, earlier: &WireStats) -> WireStats {
        WireStats {
            encode_ns: self.encode_ns - earlier.encode_ns,
            decode_ns: self.decode_ns - earlier.decode_ns,
            io_ns: self.io_ns - earlier.io_ns,
            bytes: self.bytes - earlier.bytes,
            kinds: std::array::from_fn(|k| self.kinds[k] - earlier.kinds[k]),
            recv_polls: self.recv_polls - earlier.recv_polls,
            empty_polls: self.empty_polls - earlier.empty_polls,
            max_in_flight: self.max_in_flight,
        }
    }

    /// Add `other`'s counters (high-water marks take the max).
    pub fn absorb(&mut self, other: &WireStats) {
        self.encode_ns += other.encode_ns;
        self.decode_ns += other.decode_ns;
        self.io_ns += other.io_ns;
        self.bytes += other.bytes;
        for (mine, theirs) in self.kinds.iter_mut().zip(&other.kinds) {
            *mine += theirs;
        }
        self.recv_polls += other.recv_polls;
        self.empty_polls += other.empty_polls;
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
    }
}

/// An ordered in-memory transport with the semantics of
/// [`MemTransport`] (FIFO delivery after a serialize → deserialize round
/// trip), timing the codec and the queue separately.
#[derive(Debug, Default)]
pub struct TimingTransport {
    queue: VecDeque<(Recipient, Recipient, Vec<u8>)>,
    stats: WireStats,
}

impl TimingTransport {
    /// An empty transport.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters so far.
    pub fn stats(&self) -> WireStats {
        self.stats
    }
}

impl<F: Field> Transport<F> for TimingTransport {
    fn send(
        &mut self,
        from: Recipient,
        to: Recipient,
        envelope: &Envelope<F>,
    ) -> Result<(), ProtocolError> {
        // three clock reads per call: each costs about as much as the
        // queue operation it brackets, so none is spent twice
        let start = Instant::now();
        let bytes = envelope.to_bytes();
        let encoded = Instant::now();
        self.stats.bytes += bytes.len() as u64;
        self.stats.kinds[kind_index(envelope.kind())] += 1;
        self.queue.push_back((from, to, bytes));
        self.stats.max_in_flight = self.stats.max_in_flight.max(self.queue.len() as u64);
        let end = Instant::now();
        self.stats.encode_ns += nanos_between(start, encoded);
        self.stats.io_ns += nanos_between(start, end);
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Delivery<F>>, ProtocolError> {
        let start = Instant::now();
        self.stats.recv_polls += 1;
        let Some((from, to, bytes)) = self.queue.pop_front() else {
            self.stats.empty_polls += 1;
            self.stats.io_ns += nanos_between(start, Instant::now());
            return Ok(None);
        };
        let popped = Instant::now();
        let decoded = Envelope::from_bytes(&bytes);
        let end = Instant::now();
        self.stats.decode_ns += nanos_between(popped, end);
        self.stats.io_ns += nanos_between(start, end);
        Ok(Some(Delivery {
            from,
            to,
            envelope: decoded.map_err(ProtocolError::Wire)?,
            wire_bytes: bytes.len(),
        }))
    }

    fn bytes_sent(&self) -> usize {
        usize::try_from(self.stats.bytes).expect("byte count fits in usize")
    }

    fn messages_sent(&self) -> usize {
        usize::try_from(self.stats.envelopes()).expect("envelope count fits in usize")
    }
}

/// What one leaf did since the root last took its trace.
#[derive(Debug, Clone, Default)]
pub struct LeafTrace {
    /// Time in `open_round`.
    pub open_ns: u64,
    /// Time in `submit` and `mark_dropped`.
    pub submit_ns: u64,
    /// Time in `finish_round`.
    pub finish_ns: u64,
    /// When the last `finish_round` ran.
    pub finish_span: Option<(Instant, Instant)>,
    /// The leaf transport's cumulative counters after its last call.
    pub wire: WireStats,
}

/// A shared handle on one leaf's trace: the decorator writes it from
/// whichever worker thread runs the leaf, the root reads it between
/// rounds.
pub type LeafHandle = Arc<Mutex<LeafTrace>>;

/// A timing decorator around one leaf of the grouped tree. Every trait
/// method delegates to the wrapped federation; the round calls are
/// timed into the shared [`LeafHandle`].
#[derive(Debug)]
pub struct LeafProbe<F: Field> {
    inner: SyncFederation<F, TimingTransport>,
    trace: LeafHandle,
}

impl<F: Field> LeafProbe<F> {
    /// Wrap `inner`, returning the probe and the handle its trace is
    /// read through.
    pub fn wrap(inner: SyncFederation<F, TimingTransport>) -> (Self, LeafHandle) {
        let trace = LeafHandle::default();
        (
            Self {
                inner,
                trace: Arc::clone(&trace),
            },
            trace,
        )
    }

    /// Run `call` on the wrapped leaf and book its duration (and the
    /// transport's counters) into the trace.
    fn timed<R>(
        &mut self,
        call: impl FnOnce(&mut SyncFederation<F, TimingTransport>) -> R,
        book: impl FnOnce(&mut LeafTrace, u64, (Instant, Instant)),
    ) -> R {
        let start = Instant::now();
        let out = call(&mut self.inner);
        let end = Instant::now();
        let ns = nanos_between(start, end);
        let mut trace = self.trace.lock().expect("no leaf call panicked");
        book(&mut trace, ns, (start, end));
        trace.wire = self.inner.transport().stats();
        out
    }
}

impl<F: Field> SecureAggregator<F> for LeafProbe<F> {
    fn config(&self) -> LsaConfig {
        self.inner.config()
    }

    fn round(&self) -> u64 {
        self.inner.round()
    }

    fn open_round(&mut self, cohort: &[usize]) -> Result<u64, ProtocolError> {
        self.timed(|leaf| leaf.open_round(cohort), |t, ns, _| t.open_ns += ns)
    }

    fn prepare_next(&mut self, cohort: &[usize]) -> Result<(), ProtocolError> {
        self.timed(|leaf| leaf.prepare_next(cohort), |t, ns, _| t.open_ns += ns)
    }

    fn submit(&mut self, id: usize, update: &[F]) -> Result<(), ProtocolError> {
        self.timed(|leaf| leaf.submit(id, update), |t, ns, _| t.submit_ns += ns)
    }

    fn mark_dropped(&mut self, id: usize) -> Result<(), ProtocolError> {
        self.timed(|leaf| leaf.mark_dropped(id), |t, ns, _| t.submit_ns += ns)
    }

    fn finish_round(&mut self) -> Result<RoundOutcome<F>, ProtocolError> {
        self.timed(SyncFederation::finish_round, |t, ns, span| {
            t.finish_ns += ns;
            t.finish_span = Some(span);
        })
    }

    fn abort_round(&mut self) {
        self.inner.abort_round();
    }

    fn reassign(&mut self, seed: u64) -> Result<(), ProtocolError> {
        self.inner.reassign(seed)
    }

    fn set_partial_recovery(&mut self, enabled: bool) {
        self.inner.set_partial_recovery(enabled);
    }

    fn stalled_leaves(&self) -> Vec<usize> {
        self.inner.stalled_leaves()
    }

    fn requeues_on_failure(&self) -> bool {
        self.inner.requeues_on_failure()
    }

    fn has_pending_requeue(&self) -> bool {
        self.inner.has_pending_requeue()
    }

    fn clear_ratchet(&mut self) {
        self.inner.clear_ratchet();
    }

    fn reseat_ratchet(&mut self, seed: u64) {
        self.inner.reseat_ratchet(seed);
    }

    fn set_pad_topology(&mut self, topology: PadTopology) {
        self.inner.set_pad_topology(topology);
    }

    fn set_commit_window(&mut self, window: usize) {
        self.inner.set_commit_window(window);
    }

    fn cohort_fingerprint(&self, cohort: &[usize]) -> Option<CohortFingerprint> {
        self.inner.cohort_fingerprint(cohort)
    }

    fn bytes_sent(&self) -> usize {
        self.inner.bytes_sent()
    }

    fn round_report(&self) -> Option<RoundReport> {
        self.inner.round_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::{Field, Fp61};
    use lsa_protocol::{run_sync_round_over, DropoutSchedule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Run one small round over `transport`, returning its aggregate.
    fn small_round<T: Transport<Fp61>>(transport: &mut T) -> Vec<Fp61> {
        let cfg = LsaConfig::new(6, 2, 4, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let models: Vec<Vec<Fp61>> = (0..6)
            .map(|i| (0..10).map(|k| Fp61::from_u64(100 * i + k)).collect())
            .collect();
        let dropouts = DropoutSchedule {
            before_upload: vec![1],
            after_upload: vec![4],
        };
        run_sync_round_over(cfg, &models, &dropouts, &mut rng, transport)
            .unwrap()
            .aggregate
    }

    /// Record every delivery a transport hands out during a round.
    struct Recording<T> {
        inner: T,
        seen: Vec<(Recipient, Recipient, Vec<u8>, usize)>,
    }

    impl<F: Field, T: Transport<F>> Transport<F> for Recording<T> {
        fn send(
            &mut self,
            from: Recipient,
            to: Recipient,
            envelope: &Envelope<F>,
        ) -> Result<(), ProtocolError> {
            self.inner.send(from, to, envelope)
        }

        fn recv(&mut self) -> Result<Option<Delivery<F>>, ProtocolError> {
            let got = self.inner.recv()?;
            if let Some(d) = &got {
                self.seen
                    .push((d.from, d.to, d.envelope.to_bytes(), d.wire_bytes));
            }
            Ok(got)
        }

        fn bytes_sent(&self) -> usize {
            self.inner.bytes_sent()
        }

        fn messages_sent(&self) -> usize {
            self.inner.messages_sent()
        }
    }

    #[test]
    fn timing_transport_is_byte_identical_to_mem_transport() {
        let mut mem = Recording {
            inner: MemTransport::new(),
            seen: Vec::new(),
        };
        let mut timed = Recording {
            inner: TimingTransport::new(),
            seen: Vec::new(),
        };
        let a = small_round(&mut mem);
        let b = small_round(&mut timed);
        assert_eq!(a, b, "same aggregate");
        assert!(!mem.seen.is_empty());
        assert_eq!(
            mem.seen, timed.seen,
            "same deliveries, same bytes, same order"
        );
        let stats = timed.inner.stats();
        assert_eq!(stats.bytes as usize, mem.inner.bytes_sent());
        assert_eq!(stats.envelopes() as usize, mem.inner.messages_sent());
        for kind in EnvelopeKind::ALL {
            assert_eq!(
                stats.kinds[kind_index(kind)] as usize,
                mem.inner.kind_count(kind),
                "{kind}"
            );
        }
        assert!(stats.io_ns >= stats.encode_ns + stats.decode_ns);
        assert!(stats.empty_polls >= 1 && stats.recv_polls > stats.empty_polls);
        assert!(stats.max_in_flight >= 1);
    }

    #[test]
    fn counting_transport_tallies_kinds_across_clones() {
        let tally = Arc::new(KindTally::default());
        let mut a = CountingTransport::new(Arc::clone(&tally));
        let mut b = a.clone();
        let mut mem = MemTransport::new();
        let x = small_round(&mut a);
        let y = small_round(&mut b);
        assert_eq!(x, small_round(&mut mem));
        assert_eq!(x, y);
        let counts = tally.snapshot();
        for kind in EnvelopeKind::ALL {
            assert_eq!(counts[kind_index(kind)] as usize, 2 * mem.kind_count(kind));
        }
    }

    #[test]
    fn wire_stats_deltas_and_sums() {
        let mut early = WireStats {
            bytes: 10,
            encode_ns: 5,
            max_in_flight: 3,
            ..WireStats::default()
        };
        early.kinds[0] = 2;
        let mut late = early;
        late.bytes = 25;
        late.encode_ns = 9;
        late.kinds[0] = 7;
        late.max_in_flight = 4;
        let delta = late.since(&early);
        assert_eq!((delta.bytes, delta.encode_ns, delta.kinds[0]), (15, 4, 5));
        assert_eq!(delta.max_in_flight, 4);
        let mut sum = WireStats::default();
        sum.absorb(&delta);
        sum.absorb(&early);
        assert_eq!((sum.bytes, sum.envelopes(), sum.max_in_flight), (25, 7, 4));
    }
}
