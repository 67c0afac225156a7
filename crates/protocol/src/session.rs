//! Sans-IO protocol endpoints: pure event-driven state machines.
//!
//! An endpoint owns its protocol state and *never* touches a socket, a
//! clock or an RNG while handling messages: you feed it envelopes with
//! [`Session::handle`], it returns the envelopes that must be sent in
//! response, and [`Session::poll_output`] drains envelopes produced by
//! local actions (joining a round, model upload, phase close). All
//! entropy is injected at construction, so an endpoint's behaviour is a
//! deterministic function of its inputs — the property that makes the
//! protocol testable, replayable and portable across transports
//! (in-memory queues, the discrete-event simulator, or a real network
//! stack).
//!
//! # Endpoints
//!
//! Each protocol variant has one client and one server endpoint, both
//! driven by the one leaf driver,
//! [`LeafFederation`](crate::federation::LeafFederation), and both on
//! one mask core: every masked round is a [`Client`](crate::Client),
//! and every recovery decodes as [`ServerRound`](crate::ServerRound)
//! does.
//!
//! * synchronous (§4.1, Algorithm 1): `Client` →
//!   [`FederationClient`](crate::FederationClient) → `LeafFederation`,
//!   served by [`FederationServer`](crate::FederationServer) over
//!   `ServerRound`;
//! * buffered-asynchronous (§4.2, Appendix F): one `Client` per masked
//!   round in an [`AsyncClient`] → [`AsyncClientSession`] →
//!   `LeafFederation`, served by [`AsyncServerSession`] over
//!   [`AsyncServer`] (a staleness-weighted buffer).
//!
//! This module holds the uniform [`Session`] interface, the
//! [`Recipient`] address and the buffered-async pair; the synchronous
//! pair lives in [`crate::federation`].
//!
//! # Example: pumping the synchronous endpoints by hand
//!
//! ```
//! use lsa_protocol::session::{Recipient, Session};
//! use lsa_protocol::{FederationClient, FederationServer, LsaConfig};
//! use lsa_field::{Field, Fp61};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let cfg = LsaConfig::new(2, 0, 2, 4).unwrap();
//! let mut a = FederationClient::<Fp61>::new(0, cfg, StdRng::seed_from_u64(1)).unwrap();
//! let mut b = FederationClient::<Fp61>::new(1, cfg, StdRng::seed_from_u64(2)).unwrap();
//! let mut server = FederationServer::<Fp61>::new(cfg);
//!
//! // offline: joining round 0 queues each client's coded shares
//! a.prepare(0).unwrap();
//! b.prepare(0).unwrap();
//! while let Some((to, env)) = a.poll_output() {
//!     assert_eq!(to, Recipient::Client(1));
//!     b.handle(env).unwrap();
//! }
//! while let Some((_, env)) = b.poll_output() {
//!     a.handle(env).unwrap();
//! }
//!
//! // upload + recovery
//! server.open_round(0).unwrap();
//! a.upload(0, &[Fp61::from_u64(1); 4]).unwrap();
//! b.upload(0, &[Fp61::from_u64(2); 4]).unwrap();
//! for c in [&mut a, &mut b] {
//!     while let Some((_, env)) = c.poll_output() {
//!         server.handle(env).unwrap();
//!     }
//! }
//! server.close_upload().unwrap();
//! while let Some((to, env)) = server.poll_output() {
//!     let c = if to == Recipient::Client(0) { &mut a } else { &mut b };
//!     for (_, reply) in c.handle(env).unwrap() {
//!         server.handle(reply).unwrap();
//!     }
//! }
//! assert_eq!(server.close_round().unwrap()[0], Fp61::from_u64(3));
//! ```

use crate::asynchronous::{AsyncClient, AsyncServer, WeightedAggregate};
use crate::config::LsaConfig;
use crate::federation::seam::{LeafClient, LeafServer};
use crate::federation::RoundOutcome;
use crate::ratchet::{Commit, CommitTracker, RatchetBank};
use crate::wire::{BufferAnnouncement, Envelope};
use crate::ProtocolError;
use lsa_field::Field;
use lsa_quantize::QuantizedStaleness;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// A protocol endpoint address: where an envelope should be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Recipient {
    /// User (client) `i`.
    Client(usize),
    /// The aggregation server.
    Server,
}

/// An envelope together with its destination.
pub type Outgoing<F> = (Recipient, Envelope<F>);

/// The uniform sans-IO interface every endpoint implements.
pub trait Session<F: Field> {
    /// This session's own address.
    fn local_addr(&self) -> Recipient;

    /// Process one incoming envelope, returning the envelopes to send in
    /// response (possibly none).
    ///
    /// # Errors
    ///
    /// Every malformed input surfaces as a typed [`ProtocolError`]:
    /// misrouted shares, duplicates, wrong-phase messages and envelope
    /// kinds the endpoint never accepts
    /// ([`ProtocolError::UnexpectedEnvelope`]). Errors leave the
    /// endpoint in its previous state; the offending envelope is
    /// discarded.
    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError>;

    /// Drain the next envelope produced by a local action (joining a
    /// round, upload, phase close). Returns `None` when the outbox is
    /// empty.
    fn poll_output(&mut self) -> Option<Outgoing<F>>;
}

// ---------------------------------------------------------------------
// Buffered-asynchronous protocol
// ---------------------------------------------------------------------

/// Sans-IO client for the buffered-asynchronous protocol (§4.2).
///
/// Owns a deterministic entropy stream injected at construction; mask
/// generation ([`AsyncClientSession::generate_round_mask`]) draws from
/// it, message handling never does.
#[derive(Debug, Clone)]
pub struct AsyncClientSession<F> {
    inner: AsyncClient<F>,
    entropy: StdRng,
    outbox: VecDeque<Outgoing<F>>,
    /// The stable-cohort ratchet ([`crate::ratchet`]): the retained base
    /// is the round whose full offline exchange later rounds derive
    /// their masks from.
    bank: RatchetBank<u64>,
}

impl<F: Field> AsyncClientSession<F> {
    /// Create the session for user `id` with its own entropy stream.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub fn new(id: usize, cfg: LsaConfig, entropy: StdRng) -> Result<Self, ProtocolError> {
        Ok(Self {
            inner: AsyncClient::new(id, cfg)?,
            entropy,
            outbox: VecDeque::new(),
            bank: RatchetBank::new(),
        })
    }

    /// Create with an entropy stream derived from `rng` (convenience for
    /// drivers that hold one master RNG).
    ///
    /// # Errors
    ///
    /// Same as [`Self::new`].
    pub fn from_rng<R: Rng + ?Sized>(
        id: usize,
        cfg: LsaConfig,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        Self::new(id, cfg, StdRng::seed_from_u64(rng.gen()))
    }

    /// This client's user index.
    pub fn id(&self) -> usize {
        self.inner.id()
    }

    /// Local action: run the offline phase for `round` — sample the
    /// round mask from the session's entropy stream and queue the coded
    /// shares for every other user.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::DuplicateMessage`] if the round's mask already
    /// exists.
    pub fn generate_round_mask(&mut self, round: u64) -> Result<(), ProtocolError> {
        let shares = self.inner.generate_round_mask(round, &mut self.entropy)?;
        for s in shares {
            self.outbox
                .push_back((Recipient::Client(s.to), Envelope::TimestampedShare(s)));
        }
        Ok(())
    }

    /// Local action: mask the quantized update for `round` and queue the
    /// upload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MissingShares`] if the round's mask was never
    /// generated, or a length mismatch as [`ProtocolError::Coding`].
    pub fn upload_update(&mut self, round: u64, update: &[F]) -> Result<(), ProtocolError> {
        let masked = self.inner.mask_update(round, update)?;
        self.outbox
            .push_back((Recipient::Server, Envelope::TimestampedUpdate(masked)));
        Ok(())
    }

    /// Drop state for rounds `< keep_from` (bounded staleness). While a
    /// ratchet base is retained, the base round's state is kept alive
    /// regardless (and intermediate ratcheted rounds are evicted).
    pub fn discard_before(&mut self, keep_from: u64) {
        match self.bank.base() {
            Some(&base) => self.inner.discard_before_keeping(keep_from, base),
            None => self.inner.discard_before(keep_from),
        }
    }

    /// Number of stored `(sender, round)` coded shares.
    pub fn shares_stored(&self) -> usize {
        self.inner.shares_stored()
    }

    /// A server ratchet commit: derive the round's mask from the
    /// retained base round and return the fingerprint-agreement ack.
    fn accept_commit(&mut self, envelope: &Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        let commit = Commit::from_server(envelope)?;
        // a commit replayed from an already-masked round is a replay,
        // not a fresh ratchet
        if let Some(current) = self.inner.latest_mask_round() {
            if commit.round <= current {
                return Err(ProtocolError::StaleRound {
                    got: commit.round,
                    current,
                });
            }
        }
        let inner = &mut self.inner;
        let ack = self
            .bank
            .accept(&commit, inner.id(), 0, |&base, round, nonce, topology| {
                inner.ratchet_round_mask(round, base, nonce, topology)
            })?;
        Ok(vec![ack])
    }
}

impl<F: Field> LeafClient<F> for AsyncClientSession<F> {
    type Base = u64;

    fn prepare_round(&mut self, round: u64) -> Result<(), ProtocolError> {
        self.generate_round_mask(round)
    }

    fn upload_round(&mut self, round: u64, update: &[F]) -> Result<(), ProtocolError> {
        self.upload_update(round, update)
    }

    fn retire(&mut self, round: u64) {
        self.discard_before(round);
    }

    /// Masks are per round, not per session: an aborted round's state
    /// ages out with the next finished round.
    fn retire_aborted(&mut self, _round: u64) {}

    fn forget_round(&mut self, round: u64) {
        self.inner.forget_round(round);
    }

    fn harvest_ratchet(&mut self, round: u64, fingerprint: u64) {
        self.bank.retain(round, fingerprint);
    }

    fn ratchet_join(&mut self, round: u64) -> Result<(), ProtocolError> {
        let (&base, nonce, topology) = self.bank.join(round)?;
        self.inner.ratchet_round_mask(round, base, nonce, topology)
    }

    /// The retained base masks are not re-derived under a new pad
    /// epoch: a reseat costs this variant a full exchange.
    fn reseat_ratchet(&mut self, _seed: u64) -> bool {
        false
    }

    fn bank(&mut self) -> &mut RatchetBank<u64> {
        &mut self.bank
    }
}

impl<F: Field> Session<F> for AsyncClientSession<F> {
    fn local_addr(&self) -> Recipient {
        Recipient::Client(self.inner.id())
    }

    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        // the variant runs flat: cross-group traffic is rejected first
        crate::check_group(envelope.group(), 0)?;
        match envelope {
            Envelope::TimestampedShare(share) => {
                self.inner.receive_share(share)?;
                Ok(Vec::new())
            }
            Envelope::BufferAnnouncement(ann) => {
                let share = self.inner.aggregated_share_for(ann.round, &ann.entries)?;
                Ok(vec![(Recipient::Server, Envelope::AggregatedShare(share))])
            }
            Envelope::RatchetAnnouncement(_) | Envelope::RatchetWindowCommit(_) => {
                self.accept_commit(&envelope)
            }
            other => Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
        }
    }

    fn poll_output(&mut self) -> Option<Outgoing<F>> {
        self.outbox.pop_front()
    }
}

/// Sans-IO server for the buffered-asynchronous protocol (§4.2).
///
/// The global round clock advances only through
/// [`AsyncServerSession::advance_to`]; staleness-weight randomness comes
/// from the entropy stream injected at construction.
#[derive(Debug, Clone)]
pub struct AsyncServerSession<F: Field> {
    inner: AsyncServer<F>,
    entropy: StdRng,
    now: u64,
    n: usize,
    outbox: VecDeque<Outgoing<F>>,
    /// The stable-cohort ratchet handshake ([`crate::ratchet`]).
    ratchet: CommitTracker<F>,
}

impl<F: Field> AsyncServerSession<F> {
    /// Create a server session with buffer size `K`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `buffer_size == 0`.
    pub fn new(
        cfg: LsaConfig,
        buffer_size: usize,
        staleness: QuantizedStaleness,
        entropy: StdRng,
    ) -> Result<Self, ProtocolError> {
        Ok(Self {
            inner: AsyncServer::new(cfg, buffer_size, staleness)?,
            entropy,
            now: 0,
            n: cfg.n(),
            outbox: VecDeque::new(),
            ratchet: CommitTracker::new(0),
        })
    }

    /// The current global round.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Local action: advance the global round clock (never backwards).
    pub fn advance_to(&mut self, round: u64) {
        self.now = self.now.max(round);
    }

    /// Number of buffered updates.
    pub fn buffered(&self) -> usize {
        self.inner.buffered()
    }

    /// Whether the buffer has reached capacity.
    pub fn buffer_full(&self) -> bool {
        self.inner.buffer_full()
    }

    /// Local action: fix the (full) buffer and queue a
    /// [`BufferAnnouncement`] (stamped with the current round) to every
    /// user.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] until the buffer is full.
    pub fn announce(&mut self) -> Result<(), ProtocolError> {
        let entries = self.inner.announce(self.now)?;
        self.queue_announcement(entries);
        Ok(())
    }

    /// Local action: announce a partial buffer (deadline flush, §4.2).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] if the buffer is empty or already
    /// announced.
    pub fn announce_partial(&mut self) -> Result<(), ProtocolError> {
        let entries = self.inner.announce_partial(self.now)?;
        self.queue_announcement(entries);
        Ok(())
    }

    fn queue_announcement(&mut self, entries: Vec<crate::asynchronous::BufferEntry>) {
        for id in 0..self.n {
            self.outbox.push_back((
                Recipient::Client(id),
                Envelope::BufferAnnouncement(BufferAnnouncement {
                    group: 0,
                    round: self.now,
                    entries: entries.clone(),
                }),
            ));
        }
    }

    /// Local action: recover the staleness-weighted aggregate once `U`
    /// aggregated shares have arrived, clearing the buffer.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] /
    /// [`ProtocolError::NotEnoughSurvivors`] before then.
    pub fn recover(&mut self) -> Result<WeightedAggregate<F>, ProtocolError> {
        self.inner.recover()
    }
}

impl<F: Field> LeafServer<F> for AsyncServerSession<F> {
    fn open(&mut self, round: u64) -> Result<(), ProtocolError> {
        self.advance_to(round);
        Ok(())
    }

    /// §4.2: fix whatever the buffer holds — the group size need not be
    /// fixed across rounds.
    fn close(&mut self) -> Result<(), ProtocolError> {
        self.announce_partial()
    }

    fn recover_round(&mut self, round: u64) -> Result<RoundOutcome<F>, ProtocolError> {
        let recovered = self.inner.recover()?;
        let mut contributors: Vec<usize> = recovered.entries.iter().map(|e| e.who).collect();
        contributors.sort_unstable();
        contributors.dedup();
        Ok(RoundOutcome {
            round,
            aggregate: recovered.aggregate,
            contributors,
            total_weight: recovered.total_weight,
        })
    }

    /// The server is persistent: `open` re-anchors its clock.
    fn abort(&mut self) {}

    fn ingress(&self) -> (usize, usize) {
        (0, 0)
    }

    fn tracker(&mut self) -> &mut CommitTracker<F> {
        &mut self.ratchet
    }
}

impl<F: Field> Session<F> for AsyncServerSession<F> {
    fn local_addr(&self) -> Recipient {
        Recipient::Server
    }

    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        match envelope {
            Envelope::TimestampedUpdate(update) => {
                self.inner
                    .receive_update(update, self.now, &mut self.entropy)?;
                Ok(Vec::new())
            }
            Envelope::AggregatedShare(share) => {
                self.inner.receive_aggregated_share(share)?;
                Ok(Vec::new())
            }
            Envelope::RatchetAnnouncement(_) | Envelope::RatchetWindowCommit(_) => {
                self.ratchet.ack(&envelope).map(|()| Vec::new())
            }
            other => Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
        }
    }

    fn poll_output(&mut self) -> Option<Outgoing<F>> {
        self.ratchet
            .poll_output()
            .or_else(|| self.outbox.pop_front())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::{FederationClient, FederationServer};
    use crate::ratchet::PadTopology;
    use lsa_field::Fp61;

    fn cfg() -> LsaConfig {
        LsaConfig::new(4, 1, 3, 6).unwrap()
    }

    /// The synchronous client endpoint `id`, joined to round 0.
    fn joined(id: usize, seed: u64) -> FederationClient<Fp61> {
        let mut c = FederationClient::new(id, cfg(), StdRng::seed_from_u64(seed)).unwrap();
        c.prepare(0).unwrap();
        c
    }

    #[test]
    fn construction_queues_shares() {
        let mut c = joined(0, 1);
        let mut count = 0;
        while let Some((to, env)) = c.poll_output() {
            assert!(matches!(env, Envelope::CodedMaskShare(_)));
            assert_ne!(to, Recipient::Client(0));
            count += 1;
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn double_upload_rejected() {
        let mut c = joined(0, 2);
        c.upload(0, &[Fp61::ZERO; 6]).unwrap();
        assert!(matches!(
            c.upload(0, &[Fp61::ZERO; 6]),
            Err(ProtocolError::DuplicateMessage(0))
        ));
    }

    #[test]
    fn client_rejects_server_bound_envelopes() {
        let mut c = joined(0, 3);
        let masked = Envelope::MaskedModel(crate::messages::MaskedModel {
            from: 1,
            group: 0,
            round: 0,
            payload: vec![Fp61::ZERO; cfg().padded_len()],
        });
        assert!(matches!(
            c.handle(masked),
            Err(ProtocolError::UnexpectedEnvelope {
                kind: crate::wire::EnvelopeKind::MaskedModel
            })
        ));
    }

    #[test]
    fn server_rejects_client_bound_envelopes() {
        let mut s = FederationServer::<Fp61>::new(cfg());
        s.open_round(0).unwrap();
        let ann = Envelope::SurvivorAnnouncement(crate::wire::SurvivorAnnouncement {
            group: 0,
            round: 0,
            survivors: vec![0, 1, 2],
        });
        assert!(matches!(
            s.handle(ann),
            Err(ProtocolError::UnexpectedEnvelope {
                kind: crate::wire::EnvelopeKind::SurvivorAnnouncement
            })
        ));
    }

    #[test]
    fn full_round_through_sessions() {
        let mut clients: Vec<FederationClient<Fp61>> =
            (0..4).map(|id| joined(id, 4 + id as u64)).collect();
        let mut server = FederationServer::<Fp61>::new(cfg());
        server.open_round(0).unwrap();

        // offline exchange
        let mut pending = Vec::new();
        for c in clients.iter_mut() {
            while let Some(out) = c.poll_output() {
                pending.push(out);
            }
        }
        for (to, env) in pending {
            let Recipient::Client(i) = to else { panic!() };
            clients[i].handle(env).unwrap();
        }

        // upload
        for (i, c) in clients.iter_mut().enumerate() {
            c.upload(0, &[Fp61::from_u64(i as u64); 6]).unwrap();
            while let Some((to, env)) = c.poll_output() {
                assert_eq!(to, Recipient::Server);
                server.handle(env).unwrap();
            }
        }

        // recovery
        server.close_upload().unwrap();
        let mut announcements = Vec::new();
        while let Some(out) = server.poll_output() {
            announcements.push(out);
        }
        for (to, env) in announcements {
            let Recipient::Client(i) = to else { panic!() };
            for (_, reply) in clients[i].handle(env).unwrap() {
                server.handle(reply).unwrap();
            }
        }
        assert_eq!(server.shares_received(), 4);
        // the decode is lazy: the last share left the round open, and
        // close_round decodes it exactly once
        assert!(server.is_open());
        assert_eq!(server.close_round().unwrap(), vec![Fp61::from_u64(6); 6]);
        assert!(!server.is_open());
        assert!(matches!(
            server.close_round(),
            Err(ProtocolError::WrongPhase)
        ));
    }

    #[test]
    fn buffered_server_rejects_a_replayed_upload() {
        // clients 0 and 1 upload all-ones; buffering a replay of client
        // 0's upload would recover [3; d] with total weight 3
        let cfg = LsaConfig::new(4, 1, 3, 4).unwrap();
        let staleness = QuantizedStaleness::new(lsa_quantize::StalenessFn::Constant, 1);
        let mut server =
            AsyncServerSession::<Fp61>::new(cfg, 3, staleness, StdRng::seed_from_u64(1)).unwrap();
        let mut clients: Vec<AsyncClientSession<Fp61>> = (0..4)
            .map(|id| AsyncClientSession::new(id, cfg, StdRng::seed_from_u64(10 + id as u64)))
            .collect::<Result<_, _>>()
            .unwrap();
        let mut shares = Vec::new();
        for c in clients.iter_mut() {
            c.generate_round_mask(0).unwrap();
            shares.extend(std::iter::from_fn(|| c.poll_output()));
        }
        for (to, env) in shares {
            let Recipient::Client(i) = to else { panic!() };
            clients[i].handle(env).unwrap();
        }
        let mut uploads = Vec::new();
        for c in &mut clients[..2] {
            c.upload_update(0, &[Fp61::from_u64(1); 4]).unwrap();
            uploads.push(c.poll_output().unwrap().1);
        }
        let replay = uploads[0].clone();
        for env in uploads {
            server.handle(env).unwrap();
        }
        assert!(matches!(
            server.handle(replay),
            Err(ProtocolError::DuplicateMessage(0))
        ));
        assert_eq!(server.buffered(), 2);

        server.announce_partial().unwrap();
        let announcements: Vec<_> = std::iter::from_fn(|| server.poll_output()).collect();
        for (to, env) in announcements {
            let Recipient::Client(i) = to else { panic!() };
            for (_, reply) in clients[i].handle(env).unwrap() {
                server.handle(reply).unwrap();
            }
        }
        let recovered = server.recover().unwrap();
        assert_eq!(recovered.aggregate, vec![Fp61::from_u64(2); 4]);
        assert_eq!(recovered.total_weight, 2);
    }

    #[test]
    fn buffered_ratchet_acks_must_come_from_exactly_the_cohort() {
        // cohort {0, 1, 2, 3} of n = 5: the ack of non-member 4 is
        // rejected, and cannot stand in for member 3's missing one
        use crate::ratchet::{RatchetAnnouncement, RatchetWindowCommit};
        let cfg = LsaConfig::new(5, 1, 3, 6).unwrap();
        let staleness = QuantizedStaleness::new(lsa_quantize::StalenessFn::Constant, 1);
        let cohort: std::collections::BTreeSet<usize> = (0..4).collect();
        for window in [false, true] {
            let mut server =
                AsyncServerSession::<Fp61>::new(cfg, 5, staleness, StdRng::seed_from_u64(5))
                    .unwrap();
            let topology = window.then_some(PadTopology::Hypercube);
            let nonces = if window { vec![7, 8] } else { vec![7] };
            let commit = Commit {
                round: 1,
                fingerprint: 9,
                nonces,
                topology,
            };
            server.tracker().commit(commit, &cohort);
            for from in [0, 1, 2, 4] {
                let ack = if window {
                    Envelope::RatchetWindowCommit(RatchetWindowCommit {
                        from,
                        group: 0,
                        round: 1,
                        fingerprint: 9,
                        topology: PadTopology::Hypercube,
                        nonces: Vec::new(),
                    })
                } else {
                    Envelope::RatchetAnnouncement(RatchetAnnouncement {
                        from,
                        group: 0,
                        round: 1,
                        nonce: 7,
                        fingerprint: 9,
                    })
                };
                let result = server.handle(ack);
                if from == 4 {
                    assert!(matches!(result, Err(ProtocolError::UnknownUser(4))));
                } else {
                    assert!(result.is_ok(), "member {from}: {result:?}");
                }
            }
            assert!(matches!(
                server.tracker().ready(1),
                Err(ProtocolError::RatchetMismatch)
            ));
        }
    }
}
