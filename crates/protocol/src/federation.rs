//! Multi-round federation: one [`SecureAggregator`] trait over the sync
//! and buffered-async endpoint pairs, with a persistent round lifecycle.
//!
//! LightSecAgg's point (§4.1 of the paper) is *amortizing* secure
//! aggregation across a training run: the offline mask exchange for
//! round `t+1` overlaps round `t`'s computation, so the per-round online
//! cost is just one masked upload and one aggregated share. This module
//! is that lifecycle as an API:
//!
//! * [`SecureAggregator`] — an **object-safe** trait capturing one
//!   round: `open_round → submit* → prepare_next? → mark_dropped* →
//!   finish_round`. Implemented once, by [`LeafFederation`], over the
//!   §4.1 synchronous ([`SyncFederation`]) and §4.2 buffered-async
//!   ([`BufferedFederation`]) endpoint pairs, so callers pick a variant
//!   **by value** (`Box<dyn SecureAggregator<F>>`), not by code path.
//! * [`FederationClient`] / [`FederationServer`] — the synchronous
//!   protocol's only endpoints: persistent sans-IO state machines that
//!   keep one [`Client`] / [`crate::ServerRound`] per active round and
//!   route interleaved multi-round traffic by the round id every wire
//!   envelope carries. A replayed envelope from a finished round is
//!   rejected with [`ProtocolError::StaleRound`] — never confused with a
//!   same-round [`ProtocolError::DuplicateMessage`].
//! * [`Federation`] / [`RoundPlan`] — the driver loop: per-round cohort
//!   selection with cross-round churn (clients join, leave and rejoin
//!   between rounds) and overlapped next-round mask sharing.
//!
//! # Example: three rounds with churn through a trait object
//!
//! ```
//! use lsa_protocol::federation::{Federation, RoundPlan, SyncFederation};
//! use lsa_protocol::transport::MemTransport;
//! use lsa_protocol::LsaConfig;
//! use lsa_field::{Field, Fp61};
//!
//! let cfg = LsaConfig::new(4, 1, 2, 3).unwrap();
//! let sync = SyncFederation::new(cfg, MemTransport::new(), 7).unwrap();
//! let mut fed = Federation::new(Box::new(sync));
//!
//! let ones = vec![Fp61::ONE; 3];
//! // round 0: everyone participates
//! let r0 = fed
//!     .run_round(&RoundPlan::full(4).with_uniform_updates(ones.clone()))
//!     .unwrap();
//! assert_eq!(r0.contributors.len(), 4);
//! // round 1: client 3 left the cohort
//! let r1 = fed
//!     .run_round(&RoundPlan::new(vec![0, 1, 2]).with_uniform_updates(ones.clone()))
//!     .unwrap();
//! assert_eq!(r1.contributors, vec![0, 1, 2]);
//! // round 2: client 3 rejoined
//! let r2 = fed
//!     .run_round(&RoundPlan::full(4).with_uniform_updates(ones))
//!     .unwrap();
//! assert_eq!(r2.round, 2);
//! assert_eq!(r2.aggregate, vec![Fp61::from_u64(4); 3]);
//! ```

use crate::client::Client;
use crate::config::LsaConfig;
use crate::ratchet::{
    ratchet_enabled, CohortFingerprint, Commit, CommitTracker, PadTopology, RatchetBank,
};
use crate::server::{ServerPhase, ServerRound};
use crate::session::{AsyncClientSession, AsyncServerSession, Outgoing, Recipient, Session};
use crate::telemetry::{RoundReport, TrafficMark};
use crate::transport::Transport;
use crate::wire::{Envelope, SurvivorAnnouncement};
use crate::ProtocolError;
use lsa_field::Field;
use lsa_quantize::{QuantizedStaleness, StalenessFn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seam::{LeafClient, LeafServer};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::marker::PhantomData;

/// Outcome of one federated round, uniform across variants.
///
/// The aggregate is `Σ w_i·x_i` over the contributors with
/// `Σ w_i = total_weight`; for the synchronous variant every weight is
/// 1, for the buffered variant weights are the integer staleness weights
/// of Eq. (34). Dequantize an average with
/// `quantizer.dequantize_sum(&outcome.aggregate, outcome.total_weight)`.
#[derive(Debug, Clone)]
pub struct RoundOutcome<F> {
    /// The round that was recovered.
    pub round: u64,
    /// The recovered (weighted) aggregate, length `d`.
    pub aggregate: Vec<F>,
    /// The clients whose updates are included, ascending.
    pub contributors: Vec<usize>,
    /// `Σ w_i` over the contributors (the averaging divisor).
    pub total_weight: u64,
}

/// One round of secure aggregation, variant-agnostic and object-safe.
///
/// The lifecycle per round is
/// `open_round → submit* → [prepare_next] → [mark_dropped*] → finish_round`.
/// Entropy is injected at construction only, so implementations coerce
/// to `Box<dyn SecureAggregator<F>>` and a single [`Federation`] loop
/// drives any variant. The stable-cohort ratchet knobs
/// (`LSA_RATCHET`, `LSA_PAD_TOPOLOGY`, `LSA_COMMIT_WINDOW`,
/// [`crate::ratchet`]) are likewise read once, when a leaf is built.
pub trait SecureAggregator<F: Field> {
    /// The protocol configuration.
    fn config(&self) -> LsaConfig;

    /// The round currently open, or the next one to open.
    fn round(&self) -> u64;

    /// Open the next round with the given cohort, running the offline
    /// mask exchange unless [`SecureAggregator::prepare_next`] already
    /// did (the §4.1 overlap).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] if a round is already open;
    /// [`ProtocolError::NotEnoughSurvivors`] if the cohort is smaller
    /// than `U`; [`ProtocolError::InvalidConfig`] for out-of-range or
    /// duplicate cohort ids, or a cohort that differs from the one the
    /// round was prepared with.
    fn open_round(&mut self, cohort: &[usize]) -> Result<u64, ProtocolError>;

    /// Run the offline mask exchange for the *next* round while the
    /// current one is still in flight — the paper's offline/online
    /// overlap. The next `open_round` with the same cohort then skips
    /// straight to the online phase.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] if that round is already
    /// prepared or the cohort is malformed.
    fn prepare_next(&mut self, cohort: &[usize]) -> Result<(), ProtocolError>;

    /// Submit client `id`'s quantized update for the open round.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] without an open round;
    /// [`ProtocolError::UnknownUser`] if `id` is not in the cohort;
    /// [`ProtocolError::DuplicateMessage`] on a second submission.
    fn submit(&mut self, id: usize, update: &[F]) -> Result<(), ProtocolError>;

    /// Mark a cohort client as vanished *after* its upload: its update
    /// stays in the aggregate but it serves no recovery traffic (the
    /// §7.1 worst case).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] /
    /// [`ProtocolError::UnknownUser`] as for
    /// [`SecureAggregator::submit`].
    fn mark_dropped(&mut self, id: usize) -> Result<(), ProtocolError>;

    /// Close the round: fix the survivors, run the one-shot mask
    /// recovery and return the aggregate.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] without an open round;
    /// [`ProtocolError::NotEnoughSurvivors`] if dropouts exceeded the
    /// budget; any protocol error from the endpoints.
    fn finish_round(&mut self) -> Result<RoundOutcome<F>, ProtocolError>;

    /// Abandon the open round (if any), discarding its per-round state
    /// so the next round can open. Used by an aggregator tree to retire
    /// a stalled child after its `finish_round` failed; a no-op when no
    /// round is open.
    fn abort_round(&mut self) {}

    /// Re-seat the client-id mapping with a permutation derived from
    /// `seed`, between rounds. For a flat aggregator there is a single
    /// privacy domain and nothing to permute (the default no-op); an
    /// aggregator tree re-assigns clients across its leaf groups so
    /// slowly-accumulating intra-group collusion never watches the same
    /// peers for long.
    ///
    /// # Errors
    ///
    /// Implementations reject a reassignment while a round is open or
    /// prepared ([`ProtocolError::WrongPhase`] /
    /// [`ProtocolError::InvalidConfig`]) — the mapping is part of a
    /// round's identity.
    fn reassign(&mut self, seed: u64) -> Result<(), ProtocolError> {
        let _ = seed;
        Ok(())
    }

    /// Opt in or out of partial recovery, recursively for composed
    /// aggregators: a subtree that cannot decode is skipped (and its
    /// submitted updates re-queued into the next round) instead of
    /// failing the whole round. Flat aggregators have a single recovery
    /// domain and ignore this.
    fn set_partial_recovery(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Leaf groups (tree-namespaced wire ids) skipped by the most
    /// recent `finish_round` under partial recovery; empty after a full
    /// round and for flat aggregators.
    fn stalled_leaves(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Whether this aggregator retains its submitted updates for
    /// re-queue when its own `finish_round` fails outright. A parent
    /// node skips its own re-queue for such a child — otherwise the
    /// same update would be buffered at two levels and land twice.
    fn requeues_on_failure(&self) -> bool {
        false
    }

    /// Whether this aggregator (or any composed child) is holding
    /// re-queued updates that have not yet landed in an aggregate. A
    /// parent refuses to reassign its id mapping while a subtree holds
    /// such updates, because subtree buffers are keyed by seat, not by
    /// client identity.
    fn has_pending_requeue(&self) -> bool {
        false
    }

    /// Discard all stable-cohort ratchet state ([`crate::ratchet`]):
    /// retained base masks, in-flight commits, and any *prepared* round
    /// whose masks were derived by ratcheting (so a retry runs the full
    /// offline exchange). Recursive for composed aggregators; a no-op
    /// where the variant keeps no such state.
    fn clear_ratchet(&mut self) {}

    /// Carry the ratchet *across* a seat permutation derived from
    /// `seed`: keep the retained base masks and shares (recovery is
    /// seat-based and untouched by the permute) but advance every
    /// member's pad-derivation epoch in lockstep
    /// ([`crate::ratchet::reseat_epoch`]) and drop any pre-committed
    /// nonce window. Variants that cannot reseat fall back to
    /// [`SecureAggregator::clear_ratchet`] — correct, just slower (the
    /// next round pays a full exchange).
    fn reseat_ratchet(&mut self, seed: u64) {
        let _ = seed;
        self.clear_ratchet();
    }

    /// Fix the pad topology ratcheted rounds derive pairwise pads over
    /// ([`crate::ratchet::PadTopology`]), overriding the
    /// `LSA_PAD_TOPOLOGY` environment knob resolved at construction.
    /// Ignored by variants without a ratchet.
    fn set_pad_topology(&mut self, topology: PadTopology) {
        let _ = topology;
    }

    /// Fix the nonce commit window `W` (rounds amortized per ratchet
    /// handshake), overriding the `LSA_COMMIT_WINDOW` environment knob
    /// resolved at construction; `W = 1` reproduces the per-round
    /// commit/ack flow exactly. Ignored by variants without a ratchet.
    fn set_commit_window(&mut self, window: usize) {
        let _ = window;
    }

    /// The order-independent fingerprint of `cohort`'s current seating
    /// ([`crate::ratchet::CohortFingerprint`]), or `None` when the
    /// variant does not track one. A driver stamps this into its
    /// [`RoundPlan`] so a round silently re-seated under it fails typed
    /// instead of aggregating across the wrong peers.
    fn cohort_fingerprint(&self, cohort: &[usize]) -> Option<CohortFingerprint> {
        let _ = cohort;
        None
    }

    /// Total serialized bytes this aggregator (including any composed
    /// children) has moved across its transport(s).
    fn bytes_sent(&self) -> usize {
        0
    }

    /// The [`RoundReport`] of the most recent *finished* round —
    /// per-phase timings, traffic and event counters — or `None` before
    /// any round completed. A composed aggregator returns the
    /// [`RoundReport::merge`] of its children's reports: subtrees run
    /// concurrently in a real hierarchy, so the merged view is the
    /// root's critical path.
    fn round_report(&self) -> Option<RoundReport> {
        None
    }
}

/// A [`SecureAggregator`] that can be handed to another thread — the
/// unit of composition of the aggregator tree ([`crate::topology`]),
/// where per-subtree `finish_round` decodes run on the scoped worker
/// pool.
pub type BoxedAggregator<F> = Box<dyn SecureAggregator<F> + Send>;

// ---------------------------------------------------------------------
// Persistent endpoints
// ---------------------------------------------------------------------

/// A persistent federation client: one entity across the whole training
/// run, holding one [`Client`] state per *active* round and routing
/// incoming envelopes by their round id.
///
/// Holding two adjacent rounds at once is the normal state: round `t`
/// is online while round `t+1`'s masks are being shared. An envelope
/// for a *near-future* round (within [`Self::LOOKAHEAD`] of the newest
/// active round) that arrives before this client joined it — a peer
/// raced ahead on a non-lockstep transport — is buffered and replayed
/// when [`FederationClient::prepare`] joins the round;
/// [`ProtocolError::StaleRound`] is reserved for rounds that are
/// genuinely unroutable (retired, or implausibly far ahead).
#[derive(Debug, Clone)]
pub struct FederationClient<F> {
    id: usize,
    cfg: LsaConfig,
    /// The aggregation group this client belongs to (0 when flat); every
    /// envelope is stamped with it and cross-group envelopes are
    /// rejected with [`ProtocolError::WrongGroup`] before any routing.
    group: usize,
    entropy: StdRng,
    /// Each active round's protocol state and whether its model was
    /// uploaded.
    rounds: BTreeMap<u64, (Client<F>, bool)>,
    /// Early-arriving envelopes for rounds not yet joined.
    pending: BTreeMap<u64, Vec<Envelope<F>>>,
    /// Envelopes produced by local actions (coded shares, uploads) and
    /// by replaying early envelopes, in order.
    outbox: VecDeque<Outgoing<F>>,
    /// Rounds below this are retired; envelopes for them are stale.
    horizon: u64,
    /// The stable-cohort ratchet ([`crate::ratchet`]): the retained base
    /// is the fully-exchanged client state of the last full offline
    /// round.
    bank: RatchetBank<Client<F>>,
}

impl<F: Field> FederationClient<F> {
    /// How many rounds ahead of the newest active round an envelope may
    /// arrive and still be buffered (overlap keeps at most the next
    /// round in flight; one extra round of slack bounds the buffer
    /// against misbehaving peers).
    pub const LOOKAHEAD: u64 = 2;

    /// Hard cap on envelopes buffered across all lookahead rounds. A
    /// legitimate future round delivers at most `n − 1` coded shares
    /// plus a couple of server announcements, so `2n + 2` per lookahead
    /// round is generous for both protocol variants — while keeping the
    /// worst case a peer can pin at `O(LOOKAHEAD · n)` envelopes
    /// instead of unbounded (the memory-amplification vector once
    /// untrusted sockets feed [`Session::handle`]).
    pub fn pending_cap(&self) -> usize {
        Self::LOOKAHEAD as usize * (2 * self.cfg.n() + 2)
    }

    /// Create the persistent client for user `id` with its own entropy
    /// stream (the only randomness it will ever use).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub fn new(id: usize, cfg: LsaConfig, entropy: StdRng) -> Result<Self, ProtocolError> {
        Self::in_group(0, id, cfg, entropy)
    }

    /// Create the persistent client for the *group-local* user `id` of
    /// aggregation group `group` in a grouped topology
    /// ([`crate::topology`]): `cfg` is the group's own configuration,
    /// every emitted envelope is stamped with `group`, and any incoming
    /// envelope from another group is rejected with
    /// [`ProtocolError::WrongGroup`] — never buffered, never routed.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub fn in_group(
        group: usize,
        id: usize,
        cfg: LsaConfig,
        entropy: StdRng,
    ) -> Result<Self, ProtocolError> {
        if id >= cfg.n() {
            return Err(ProtocolError::InvalidConfig(format!(
                "client id {id} out of range for N={}",
                cfg.n()
            )));
        }
        Ok(Self {
            id,
            cfg,
            group,
            entropy,
            rounds: BTreeMap::new(),
            pending: BTreeMap::new(),
            outbox: VecDeque::new(),
            horizon: 0,
            bank: RatchetBank::new(),
        })
    }

    /// This client's user index (group-local in a grouped topology).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The aggregation group this client belongs to (0 when flat).
    pub fn group(&self) -> usize {
        self.group
    }

    /// The highest active round, or the retirement horizon when no
    /// round is live.
    pub fn current_round(&self) -> u64 {
        self.rounds
            .keys()
            .next_back()
            .copied()
            .unwrap_or(self.horizon)
    }

    /// Number of live rounds (usually 1, or 2 while the next round's
    /// masks are being shared).
    pub fn active_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Join `round`: run the offline mask generation, queue the coded
    /// shares (drain them with [`Session::poll_output`]) and replay any
    /// envelopes that arrived for this round before it was joined.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::StaleRound`] for a retired round,
    /// [`ProtocolError::DuplicateMessage`] if already joined; replayed
    /// early envelopes surface their own errors.
    pub fn prepare(&mut self, round: u64) -> Result<(), ProtocolError> {
        self.ensure_joinable(round)?;
        let client =
            Client::for_round_in_group(self.id, round, self.group, self.cfg, &mut self.entropy)?;
        self.join(round, client)
    }

    /// Join `round` with the freshly generated `client` state: replay
    /// the envelopes that arrived for it early, then queue its coded
    /// shares.
    pub(crate) fn join(&mut self, round: u64, client: Client<F>) -> Result<(), ProtocolError> {
        let shares = client.outgoing_shares();
        self.install(round, client)?;
        self.outbox.extend(
            shares
                .into_iter()
                .map(|s| (Recipient::Client(s.to), Envelope::CodedMaskShare(s))),
        );
        Ok(())
    }

    /// Mask the quantized model for `round` and queue the upload
    /// (Algorithm 1 line 14).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::StaleRound`] if the round is not active,
    /// [`ProtocolError::DuplicateMessage`] on a second upload, or a
    /// length mismatch as [`ProtocolError::Coding`].
    pub fn upload(&mut self, round: u64, model: &[F]) -> Result<(), ProtocolError> {
        let current = self.current_round();
        let (client, uploaded) = self
            .rounds
            .get_mut(&round)
            .ok_or(ProtocolError::StaleRound {
                got: round,
                current,
            })?;
        if *uploaded {
            return Err(ProtocolError::DuplicateMessage(self.id));
        }
        let masked = client.mask_model(model)?;
        *uploaded = true;
        self.outbox
            .push_back((Recipient::Server, Envelope::MaskedModel(masked)));
        Ok(())
    }

    /// Retire every round below `round` (their aggregates are recovered;
    /// any further envelope for them is a stale replay), with whatever
    /// they still had queued.
    pub fn retire_below(&mut self, round: u64) {
        self.rounds.retain(|&r, _| r >= round);
        self.pending.retain(|&r, _| r >= round);
        self.outbox
            .retain(|(_, envelope)| envelope.round() >= round);
        self.horizon = self.horizon.max(round);
    }

    /// `round` may be joined: it is neither retired
    /// ([`ProtocolError::StaleRound`]) nor already joined
    /// ([`ProtocolError::DuplicateMessage`]).
    fn ensure_joinable(&self, round: u64) -> Result<(), ProtocolError> {
        if round < self.horizon {
            return Err(ProtocolError::StaleRound {
                got: round,
                current: self.horizon,
            });
        }
        if self.rounds.contains_key(&round) {
            return Err(ProtocolError::DuplicateMessage(self.id));
        }
        Ok(())
    }

    /// Make `client` the live state of `round`, replaying the envelopes
    /// that arrived for it early.
    fn install(&mut self, round: u64, mut client: Client<F>) -> Result<(), ProtocolError> {
        for envelope in self.pending.remove(&round).unwrap_or_default() {
            self.outbox.extend(handle_round(&mut client, envelope)?);
        }
        self.rounds.insert(round, (client, false));
        Ok(())
    }
}

/// Route one envelope to the client state of the round it is stamped
/// with: the caller has already checked its group and round.
fn handle_round<F: Field>(
    client: &mut Client<F>,
    envelope: Envelope<F>,
) -> Result<Vec<Outgoing<F>>, ProtocolError> {
    match envelope {
        Envelope::CodedMaskShare(share) => {
            client.receive_share(share)?;
            Ok(Vec::new())
        }
        Envelope::SurvivorAnnouncement(ann) => {
            let share = client.aggregated_share_for(&ann.survivors)?;
            Ok(vec![(Recipient::Server, Envelope::AggregatedShare(share))])
        }
        other => Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
    }
}

impl<F: Field> LeafClient<F> for FederationClient<F> {
    type Base = Client<F>;

    fn prepare_round(&mut self, round: u64) -> Result<(), ProtocolError> {
        self.prepare(round)
    }

    fn upload_round(&mut self, round: u64, update: &[F]) -> Result<(), ProtocolError> {
        self.upload(round, update)
    }

    fn retire(&mut self, round: u64) {
        self.retire_below(round);
    }

    /// Envelopes for the aborted round surface as
    /// [`ProtocolError::StaleRound`] from now on.
    fn retire_aborted(&mut self, round: u64) {
        self.retire_below(round);
    }

    fn forget_round(&mut self, round: u64) {
        self.rounds.remove(&round);
        self.pending.remove(&round);
        self.outbox
            .retain(|(_, envelope)| envelope.round() != round);
    }

    /// The finished round's client is moved into the bank, not copied:
    /// the retire that follows the harvest would drop it anyway.
    fn harvest_ratchet(&mut self, round: u64, fingerprint: u64) {
        if let Some((client, _)) = self.rounds.remove(&round) {
            self.bank.retain(client, fingerprint);
        }
    }

    fn ratchet_join(&mut self, round: u64) -> Result<(), ProtocolError> {
        self.ensure_joinable(round)?;
        let (base, nonce, topology) = self.bank.join(round)?;
        let client = Client::ratcheted_from(base, round, nonce, topology);
        self.install(round, client)
    }

    /// Every cohort member applies the same `seed`, so the permuted
    /// edges still cancel ([`crate::ratchet::reseat_epoch`]).
    fn reseat_ratchet(&mut self, seed: u64) -> bool {
        if let Some(base) = self.bank.reseat() {
            base.bump_pad_epoch(seed);
        }
        true
    }

    fn bank(&mut self) -> &mut RatchetBank<Client<F>> {
        &mut self.bank
    }
}

impl<F: Field> Session<F> for FederationClient<F> {
    fn local_addr(&self) -> Recipient {
        Recipient::Client(self.id)
    }

    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        // cross-group traffic is rejected before any routing or
        // buffering: its local indices mean nothing in this group
        if envelope.group() != self.group {
            return Err(ProtocolError::WrongGroup {
                got: envelope.group(),
                expected: self.group,
            });
        }
        // ratchet commits are round-*creating*, not round-routed: the
        // round's client state is derived from the retained base
        if matches!(
            envelope,
            Envelope::RatchetAnnouncement(_) | Envelope::RatchetWindowCommit(_)
        ) {
            let commit = Commit::from_server(&envelope)?;
            self.ensure_joinable(commit.round)?;
            let rounds = &mut self.rounds;
            let ack = self.bank.accept(
                &commit,
                self.id,
                self.group,
                |base, round, nonce, topology| {
                    let client = Client::ratcheted_from(base, round, nonce, topology);
                    rounds.insert(round, (client, false));
                    Ok(())
                },
            )?;
            return Ok(vec![ack]);
        }
        let round = envelope.round();
        let current = self.current_round();
        match self.rounds.get_mut(&round) {
            Some((client, _)) => handle_round(client, envelope),
            // a peer raced ahead: hold the envelope for prepare() —
            // within the bounded budget
            None if round > current && round <= current + Self::LOOKAHEAD => {
                let cap = self.pending_cap();
                if self.pending.values().map(Vec::len).sum::<usize>() >= cap {
                    return Err(ProtocolError::PendingOverflow {
                        client: self.id,
                        round,
                        cap,
                    });
                }
                self.pending.entry(round).or_default().push(envelope);
                Ok(Vec::new())
            }
            None => Err(ProtocolError::StaleRound {
                got: round,
                current,
            }),
        }
    }

    fn poll_output(&mut self) -> Option<Outgoing<F>> {
        self.outbox.pop_front()
    }
}

/// The persistent federation server: one [`ServerRound`] per round,
/// opened and closed through the round lifecycle.
///
/// Collects masked models; [`Self::close_upload`] fixes the survivor
/// set and queues one [`SurvivorAnnouncement`] per survivor; once `U`
/// aggregated shares arrive, [`Self::close_round`] runs the one-shot
/// decode. Recovery is **deliberately lazy**: receiving the `U`-th share
/// only marks the round ready, and the `O(U²) + O(U·d)` decode runs on
/// the owner's thread — which lets a grouped topology decode its
/// independent groups on a thread pool instead of inline in the
/// (serial) message pump.
#[derive(Debug, Clone)]
pub struct FederationServer<F: Field> {
    cfg: LsaConfig,
    group: usize,
    round: u64,
    /// The open round's protocol state (`None` between rounds).
    current: Option<ServerRound<F>>,
    /// The survivor announcements [`Self::close_upload`] queued for the
    /// open round.
    announcements: VecDeque<Outgoing<F>>,
    /// The stable-cohort ratchet handshake ([`crate::ratchet`]).
    ratchet: CommitTracker<F>,
    /// Rejected-envelope strikes per claimed sender, reset at each
    /// `open_round` — the per-round ingress quota state.
    strikes: BTreeMap<usize, usize>,
    /// Strikes a client may accumulate per round before crossing the
    /// quota.
    quota: usize,
    /// Envelopes rejected with a typed error, cumulatively.
    rejections: usize,
    /// Envelopes silently discarded from over-quota senders,
    /// cumulatively.
    quarantined: usize,
}

/// Default per-client ingress quota: rejected envelopes a client may
/// accumulate in one round before the server raises
/// [`ProtocolError::QuotaExceeded`] and quarantines its further
/// traffic. A well-behaved client triggers at most a handful of typed
/// rejections per round (races around phase boundaries), so eight
/// strikes separates glitches from floods.
pub const DEFAULT_INGRESS_QUOTA: usize = 8;

impl<F: Field> FederationServer<F> {
    /// Create the server; no round is open yet.
    pub fn new(cfg: LsaConfig) -> Self {
        Self::in_group(0, cfg)
    }

    /// Create the server for aggregation group `group` of a grouped
    /// topology ([`crate::topology`]); envelopes from any other group
    /// are rejected with [`ProtocolError::WrongGroup`].
    pub fn in_group(group: usize, cfg: LsaConfig) -> Self {
        Self {
            cfg,
            group,
            round: 0,
            current: None,
            announcements: VecDeque::new(),
            ratchet: CommitTracker::new(group),
            strikes: BTreeMap::new(),
            quota: DEFAULT_INGRESS_QUOTA,
            rejections: 0,
            quarantined: 0,
        }
    }

    /// The round currently open (or the last one served).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The aggregation group this server serves (0 when flat).
    pub fn group(&self) -> usize {
        self.group
    }

    /// Whether a round is currently open.
    pub fn is_open(&self) -> bool {
        self.current.is_some()
    }

    /// Open `round`: accept uploads stamped with it, reject everything
    /// else as stale.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] if a round is already open;
    /// [`ProtocolError::StaleRound`] when reopening a past round.
    pub fn open_round(&mut self, round: u64) -> Result<(), ProtocolError> {
        if self.current.is_some() {
            return Err(ProtocolError::WrongPhase);
        }
        if round < self.round {
            return Err(ProtocolError::StaleRound {
                got: round,
                current: self.round,
            });
        }
        self.current = Some(ServerRound::for_round_in_group(
            self.cfg, round, self.group,
        )?);
        self.round = round;
        // the ingress quota is per round: a client that misbehaved last
        // round starts the new one with a clean slate
        self.strikes.clear();
        Ok(())
    }

    /// The per-client ingress quota in force (rejected envelopes per
    /// round before [`ProtocolError::QuotaExceeded`]).
    pub fn ingress_quota(&self) -> usize {
        self.quota
    }

    /// Override the per-client ingress quota (minimum 1).
    pub fn set_ingress_quota(&mut self, quota: usize) {
        self.quota = quota.max(1);
    }

    /// Envelopes rejected with a typed error so far, cumulatively
    /// across rounds (a round's delta lands in
    /// [`crate::telemetry::EventCounters::rejections`]).
    pub fn rejections(&self) -> usize {
        self.rejections
    }

    /// Envelopes silently discarded from over-quota senders so far,
    /// cumulatively across rounds.
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Close the upload phase of the open round, fixing the survivor set
    /// `U₁` and queueing a [`SurvivorAnnouncement`] to every survivor.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] without an open round or on a
    /// second close; [`ProtocolError::NotEnoughSurvivors`] if fewer than
    /// `U` users uploaded.
    pub fn close_upload(&mut self) -> Result<Vec<usize>, ProtocolError> {
        let current = self.current.as_mut().ok_or(ProtocolError::WrongPhase)?;
        let survivors = current.close_upload_phase()?.to_vec();
        let announcement = SurvivorAnnouncement {
            group: self.group,
            round: self.round,
            survivors: survivors.clone(),
        };
        self.announcements.extend(survivors.iter().map(|&s| {
            let envelope = Envelope::SurvivorAnnouncement(announcement.clone());
            (Recipient::Client(s), envelope)
        }));
        Ok(survivors)
    }

    /// How many aggregated shares the open round has received.
    pub fn shares_received(&self) -> usize {
        self.current
            .as_ref()
            .map_or(0, ServerRound::shares_received)
    }

    /// Abandon the open round, discarding its state (used by the
    /// grouped topology's partial-recovery mode to retire a stalled
    /// group without blocking the next round). A no-op when no round is
    /// open.
    pub fn abort_round(&mut self) {
        self.current = None;
        self.announcements.clear();
    }

    /// Close the open round, running the one-shot decode and returning
    /// the recovered aggregate. The server holds **no per-round state**
    /// afterwards — its memory across the run is `O(d)`, not
    /// `O(rounds · N · d)`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] without an open round;
    /// [`ProtocolError::NotEnoughSurvivors`] if recovery never
    /// completed; a [`ProtocolError::Coding`] decode failure. On error
    /// the round stays open, so the caller can pump more shares.
    pub fn close_round(&mut self) -> Result<Vec<F>, ProtocolError> {
        let current = self.current.as_mut().ok_or(ProtocolError::WrongPhase)?;
        if current.phase() != ServerPhase::ReadyToRecover {
            return Err(ProtocolError::NotEnoughSurvivors {
                got: current.shares_received(),
                need: self.cfg.u(),
            });
        }
        let aggregate = current.recover_aggregate()?;
        self.abort_round();
        Ok(aggregate)
    }

    /// Group check → ratchet-ack routing → round routing, without the
    /// ingress-quota accounting that [`Session::handle`] wraps around
    /// it.
    fn handle_inner(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        if envelope.group() != self.group {
            return Err(ProtocolError::WrongGroup {
                got: envelope.group(),
                expected: self.group,
            });
        }
        if matches!(
            envelope,
            Envelope::RatchetAnnouncement(_) | Envelope::RatchetWindowCommit(_)
        ) {
            return self.ratchet.ack(&envelope).map(|()| Vec::new());
        }
        let Some(current) = self.current.as_mut() else {
            return Err(ProtocolError::StaleRound {
                got: envelope.round(),
                current: self.round,
            });
        };
        match envelope {
            Envelope::MaskedModel(m) => current.receive_masked_model(m)?,
            // the U-th share only marks the round ready: the decode
            // waits for `close_round`
            Envelope::AggregatedShare(s) => {
                current.receive_aggregated_share(s)?;
            }
            other => return Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
        }
        Ok(Vec::new())
    }
}

impl<F: Field> LeafServer<F> for FederationServer<F> {
    fn open(&mut self, round: u64) -> Result<(), ProtocolError> {
        self.open_round(round)
    }

    fn close(&mut self) -> Result<(), ProtocolError> {
        self.close_upload().map(|_| ())
    }

    fn recover_round(&mut self, round: u64) -> Result<RoundOutcome<F>, ProtocolError> {
        let survivors = self
            .current
            .as_ref()
            .map_or_else(Vec::new, |current| current.survivors().to_vec());
        let aggregate = self.close_round()?;
        Ok(RoundOutcome {
            round,
            aggregate,
            total_weight: survivors.len() as u64,
            contributors: survivors,
        })
    }

    fn abort(&mut self) {
        self.abort_round();
    }

    fn ingress(&self) -> (usize, usize) {
        (self.rejections, self.quarantined)
    }

    fn tracker(&mut self) -> &mut CommitTracker<F> {
        &mut self.ratchet
    }
}

impl<F: Field> Session<F> for FederationServer<F> {
    fn local_addr(&self) -> Recipient {
        Recipient::Server
    }

    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        // Ingress quota: key on the claimed sender when it is at least
        // a plausible client id. An over-quota sender's traffic is
        // dropped *silently* — erroring on every flooded envelope
        // would let the flood wedge the round it failed to corrupt.
        let sender = envelope.sender().filter(|&id| id < self.cfg.n());
        if let Some(id) = sender {
            if self.strikes.get(&id).copied().unwrap_or(0) >= self.quota {
                self.quarantined += 1;
                return Ok(Vec::new());
            }
        }
        let result = self.handle_inner(envelope);
        if result.is_err() {
            self.rejections += 1;
            if let Some(id) = sender {
                let strikes = self.strikes.entry(id).or_insert(0);
                *strikes += 1;
                if *strikes >= self.quota {
                    // the crossing envelope surfaces typed, once
                    return Err(ProtocolError::QuotaExceeded {
                        client: id,
                        strikes: *strikes,
                        cap: self.quota,
                    });
                }
            }
        }
        result
    }

    fn poll_output(&mut self) -> Option<Outgoing<F>> {
        self.ratchet
            .poll_output()
            .or_else(|| self.announcements.pop_front())
    }
}

// ---------------------------------------------------------------------
// Shared round bookkeeping
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub(crate) struct OpenRound {
    pub(crate) round: u64,
    pub(crate) cohort: BTreeSet<usize>,
    pub(crate) submitted: BTreeSet<usize>,
    pub(crate) dropped: BTreeSet<usize>,
    /// Whether this round's masks were derived by the stable-cohort
    /// ratchet ([`crate::ratchet`]) instead of a full exchange. A
    /// ratcheted round's pairwise pads cancel only over the *full*
    /// cohort, so `finish_round` requires every member to have
    /// submitted.
    pub(crate) ratcheted: bool,
    /// Whether this ratcheted round was *joined* from a pre-committed
    /// nonce window with zero wire traffic, rather than paying a
    /// commit/ack handshake ([`crate::ratchet::RatchetWindowCommit`]).
    pub(crate) windowed: bool,
}

impl OpenRound {
    pub(crate) fn new(round: u64, cohort: BTreeSet<usize>) -> Self {
        Self {
            round,
            cohort,
            submitted: BTreeSet::new(),
            dropped: BTreeSet::new(),
            ratcheted: false,
            windowed: false,
        }
    }

    pub(crate) fn require_member(&self, id: usize) -> Result<(), ProtocolError> {
        if self.cohort.contains(&id) {
            Ok(())
        } else {
            Err(ProtocolError::UnknownUser(id))
        }
    }

    /// Clients still online: cohort members that have not vanished.
    pub(crate) fn online(&self) -> BTreeSet<usize> {
        self.cohort.difference(&self.dropped).copied().collect()
    }
}

/// Consume the preparation for `round` if its cohort matches.
///
/// `Ok(true)` — prepared with this cohort, entry consumed (the overlap
/// paid off). `Ok(false)` — never prepared; the caller must run the
/// offline exchange now. `Err` — prepared with a *different* cohort; the
/// entry is left intact so a corrected retry can still use it. Shared by
/// every `SecureAggregator` impl (including the grouped topology) so
/// the retry semantics cannot drift.
pub(crate) fn claim_prepared(
    prepared: &mut BTreeMap<u64, BTreeSet<usize>>,
    round: u64,
    cohort: &BTreeSet<usize>,
) -> Result<bool, ProtocolError> {
    match prepared.get(&round) {
        Some(p) if p == cohort => {
            prepared.remove(&round);
            Ok(true)
        }
        Some(_) => Err(ProtocolError::InvalidConfig(format!(
            "round {round} was prepared with a different cohort"
        ))),
        None => Ok(false),
    }
}

/// Reject a second preparation of the same round (shared by every
/// `SecureAggregator` impl).
pub(crate) fn ensure_unprepared(
    prepared: &BTreeMap<u64, BTreeSet<usize>>,
    round: u64,
) -> Result<(), ProtocolError> {
    if prepared.contains_key(&round) {
        return Err(ProtocolError::InvalidConfig(format!(
            "round {round} is already prepared"
        )));
    }
    Ok(())
}

fn validate_cohort(cfg: &LsaConfig, cohort: &[usize]) -> Result<BTreeSet<usize>, ProtocolError> {
    let set: BTreeSet<usize> = cohort.iter().copied().collect();
    if set.len() != cohort.len() {
        return Err(ProtocolError::InvalidConfig(
            "cohort contains duplicate ids".into(),
        ));
    }
    if let Some(&bad) = set.iter().find(|&&id| id >= cfg.n()) {
        return Err(ProtocolError::UnknownUser(bad));
    }
    if set.len() < cfg.u() {
        return Err(ProtocolError::NotEnoughSurvivors {
            got: set.len(),
            need: cfg.u(),
        });
    }
    Ok(set)
}

/// Deliver every receivable envelope: the server always accepts;
/// clients only while listed in `online` (everyone else has left or
/// vanished — their envelopes are discarded undelivered). Responses are
/// forwarded back into the transport. The crate's one message pump,
/// shared by every driver.
pub(crate) fn pump<F, T, C, S>(
    transport: &mut T,
    server: &mut S,
    clients: &mut [C],
    online: &BTreeSet<usize>,
) -> Result<(), ProtocolError>
where
    F: Field,
    T: Transport<F>,
    C: Session<F>,
    S: Session<F>,
{
    while let Some(delivery) = transport.recv()? {
        let responses = match delivery.to {
            Recipient::Client(i) => {
                if !online.contains(&i) {
                    continue;
                }
                clients[i].handle(delivery.envelope)?
            }
            Recipient::Server => server.handle(delivery.envelope)?,
        };
        let from = delivery.to;
        for (to, envelope) in responses {
            transport.send(from, to, &envelope)?;
        }
    }
    Ok(())
}

/// Drain an endpoint's queued envelopes into the transport, discarding
/// those addressed to clients outside `online`.
pub(crate) fn drain_to<F, T, S>(
    session: &mut S,
    transport: &mut T,
    online: &BTreeSet<usize>,
) -> Result<(), ProtocolError>
where
    F: Field,
    T: Transport<F>,
    S: Session<F>,
{
    let from = session.local_addr();
    while let Some((to, envelope)) = session.poll_output() {
        if let Recipient::Client(i) = to {
            if !online.contains(&i) {
                continue;
            }
        }
        transport.send(from, to, &envelope)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The leaf driver
// ---------------------------------------------------------------------

/// The per-variant seam under [`LeafFederation`]: one client and one
/// server endpoint type per protocol variant. The traits are public
/// only in name — their module is crate-private, so no other variant
/// can be plugged in.
pub(crate) mod seam {
    use super::{Field, ProtocolError, RoundOutcome, Session};
    use crate::ratchet::{CommitTracker, RatchetBank};

    /// A persistent client endpoint of one leaf.
    pub trait LeafClient<F: Field>: Session<F> {
        /// The retained ratchet base material.
        type Base;
        /// Run the full offline phase for `round`, queueing its shares.
        fn prepare_round(&mut self, round: u64) -> Result<(), ProtocolError>;
        /// Mask `update` for `round` and queue the upload.
        fn upload_round(&mut self, round: u64, update: &[F]) -> Result<(), ProtocolError>;
        /// Drop the state of every round below `round`.
        fn retire(&mut self, round: u64);
        /// As [`Self::retire`] after the round below `round` was
        /// aborted.
        fn retire_aborted(&mut self, round: u64);
        /// Drop exactly `round`'s state: the rollback of a half-built
        /// ratcheted round.
        fn forget_round(&mut self, round: u64);
        /// Retain finished, fully-exchanged `round` as the ratchet base
        /// of the cohort fingerprinted by `fingerprint`. Called just
        /// before [`Self::retire`] drops the round, so an implementation
        /// may take the round's state instead of copying it.
        fn harvest_ratchet(&mut self, round: u64, fingerprint: u64);
        /// Derive `round` from the nonce a window commit banked, with
        /// zero wire traffic.
        fn ratchet_join(&mut self, round: u64) -> Result<(), ProtocolError>;
        /// Carry the retained base across a seat permutation derived
        /// from `seed`; `false` when this variant cannot, and the
        /// ratchet must be cleared instead.
        fn reseat_ratchet(&mut self, seed: u64) -> bool;
        /// The retained base and banked window nonces.
        fn bank(&mut self) -> &mut RatchetBank<Self::Base>;
    }

    /// The server endpoint of one leaf.
    pub trait LeafServer<F: Field>: Session<F> {
        /// Accept uploads for `round`, whose masks are in place.
        fn open(&mut self, round: u64) -> Result<(), ProtocolError>;
        /// Fix the contributors and queue the recovery announcements.
        fn close(&mut self) -> Result<(), ProtocolError>;
        /// Decode `round`'s aggregate from the collected shares.
        fn recover_round(&mut self, round: u64) -> Result<RoundOutcome<F>, ProtocolError>;
        /// Drop the state of an aborted round.
        fn abort(&mut self);
        /// Cumulative `(rejected, quarantined)` ingress counts.
        fn ingress(&self) -> (usize, usize);
        /// The ratchet commit in flight and its queued envelopes.
        fn tracker(&mut self) -> &mut CommitTracker<F>;
    }
}

/// One leaf of secure aggregation behind the [`SecureAggregator`]
/// trait: `cfg.n()` persistent clients and one server of a protocol
/// variant, over a transport, with overlapped next-round mask sharing
/// and the stable-cohort ratchet ([`crate::ratchet`]).
/// [`SyncFederation`] and [`BufferedFederation`] name its two variants.
#[derive(Debug, Clone)]
pub struct LeafFederation<F, T, C, S> {
    cfg: LsaConfig,
    /// The namespaced leaf-group id every envelope is stamped with
    /// (0 for a standalone flat federation).
    group: usize,
    transport: T,
    clients: Vec<C>,
    server: S,
    next_round: u64,
    open: Option<OpenRound>,
    /// Rounds whose offline exchange already ran, with their cohorts.
    prepared: BTreeMap<u64, BTreeSet<usize>>,
    /// Prepared rounds whose masks came from the ratchet, not a full
    /// exchange (dropped wholesale by [`SecureAggregator::clear_ratchet`]);
    /// the value records whether the round was joined from a window
    /// with zero handshake traffic.
    prepared_ratcheted: BTreeMap<u64, bool>,
    /// Driver-side nonce entropy for ratchet commits.
    entropy: StdRng,
    /// Whether the stable-cohort ratchet runs (`LSA_RATCHET`, resolved
    /// at construction).
    ratchet: bool,
    /// Fingerprint of the cohort whose base masks the clients retain,
    /// set after each successful round.
    ratchet_fp: Option<u64>,
    /// Pad topology ratcheted rounds derive pairwise pads over.
    topology: PadTopology,
    /// Nonce commit window `W`: rounds amortized per ratchet handshake
    /// (`1` = the per-round legacy flow).
    commit_window: usize,
    /// Rounds whose nonces the clients banked from the last window
    /// commit: such a round joins with zero traffic.
    window: BTreeSet<u64>,
    /// Transport counters snapshotted when the open round started (its
    /// traffic delta becomes the round's [`RoundReport`]). Traffic from
    /// an overlapped `prepare_next` is billed to the round it ran
    /// *during* — the paper's point is exactly that this cost hides
    /// inside the current round.
    mark: TrafficMark,
    /// Server ingress counts at the same snapshot.
    mark_ingress: (usize, usize),
    /// Telemetry of the most recent finished round.
    last_report: Option<RoundReport>,
    field: PhantomData<fn() -> F>,
}

/// The §4.1 synchronous protocol behind the [`SecureAggregator`] trait:
/// per-round client and server state with exact (unit-weight)
/// aggregation and `O(d)` server memory.
pub type SyncFederation<F, T> = LeafFederation<F, T, FederationClient<F>, FederationServer<F>>;

/// The §4.2 buffered-asynchronous protocol behind the
/// [`SecureAggregator`] trait: persistent [`AsyncClientSession`]s whose
/// round-stamped masks let the server recover a staleness-weighted
/// aggregate from whatever the buffer holds when the round closes.
pub type BufferedFederation<F, T> =
    LeafFederation<F, T, AsyncClientSession<F>, AsyncServerSession<F>>;

impl<F: Field, T: Transport<F>> SyncFederation<F, T> {
    /// Create a federation of `cfg.n()` persistent clients over
    /// `transport`. All entropy for the whole run derives from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration.
    pub fn new(cfg: LsaConfig, transport: T, seed: u64) -> Result<Self, ProtocolError> {
        Self::in_group(0, cfg, transport, seed)
    }

    /// As [`Self::new`], but serving as leaf group `group` of an
    /// aggregator tree ([`crate::topology`]): every envelope is stamped
    /// with the tree-namespaced id and traffic stamped for any other
    /// leaf is rejected with [`ProtocolError::WrongGroup`].
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration.
    pub fn in_group(
        group: usize,
        cfg: LsaConfig,
        transport: T,
        seed: u64,
    ) -> Result<Self, ProtocolError> {
        let mut master = StdRng::seed_from_u64(seed);
        let clients = (0..cfg.n())
            .map(|id| {
                FederationClient::in_group(group, id, cfg, StdRng::seed_from_u64(master.gen()))
            })
            .collect::<Result<_, _>>()?;
        let server = FederationServer::in_group(group, cfg);
        Ok(Self::assemble(
            cfg,
            group,
            transport,
            clients,
            server,
            &mut master,
        ))
    }
}

impl<F: Field, T: Transport<F>> BufferedFederation<F, T> {
    /// Create a buffered federation with the given staleness weighting.
    /// Updates submitted through the [`SecureAggregator`] interface are
    /// always fresh (`τ = 0`), so any staleness function yields uniform
    /// weights; the function matters when feeding the server stale
    /// uploads directly.
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration.
    pub fn new(
        cfg: LsaConfig,
        staleness: QuantizedStaleness,
        transport: T,
        seed: u64,
    ) -> Result<Self, ProtocolError> {
        let mut master = StdRng::seed_from_u64(seed);
        let clients = (0..cfg.n())
            .map(|id| AsyncClientSession::from_rng(id, cfg, &mut master))
            .collect::<Result<_, _>>()?;
        let server =
            AsyncServerSession::new(cfg, cfg.n(), staleness, StdRng::seed_from_u64(master.gen()))?;
        Ok(Self::assemble(
            cfg,
            0,
            transport,
            clients,
            server,
            &mut master,
        ))
    }

    /// As [`Self::new`] with unit weights (`s(τ) = 1`, `c_g = 1`) —
    /// the drop-in replacement for the synchronous variant.
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration.
    pub fn unit_weight(cfg: LsaConfig, transport: T, seed: u64) -> Result<Self, ProtocolError> {
        Self::new(
            cfg,
            QuantizedStaleness::new(StalenessFn::Constant, 1),
            transport,
            seed,
        )
    }
}

impl<F, T, C, S> LeafFederation<F, T, C, S>
where
    F: Field,
    T: Transport<F>,
    C: LeafClient<F>,
    S: LeafServer<F>,
{
    fn assemble(
        cfg: LsaConfig,
        group: usize,
        transport: T,
        clients: Vec<C>,
        server: S,
        master: &mut StdRng,
    ) -> Self {
        let mut leaf = Self {
            cfg,
            group,
            transport,
            clients,
            server,
            next_round: 0,
            open: None,
            prepared: BTreeMap::new(),
            prepared_ratcheted: BTreeMap::new(),
            // drawn after every per-session seed so those streams are
            // unchanged
            entropy: StdRng::seed_from_u64(master.gen()),
            ratchet: ratchet_enabled(),
            ratchet_fp: None,
            topology: PadTopology::default(),
            commit_window: crate::ratchet::commit_window(),
            window: BTreeSet::new(),
            mark: TrafficMark::default(),
            mark_ingress: (0, 0),
            last_report: None,
            field: PhantomData,
        };
        // the leaf reads the pad-topology knob once, for all its clients
        leaf.set_pad_topology(crate::ratchet::pad_topology());
        leaf
    }

    /// The namespaced leaf-group id this federation stamps its
    /// envelopes with (0 when flat).
    pub fn group(&self) -> usize {
        self.group
    }

    /// The underlying transport (for byte/timing statistics).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable access to the transport (e.g. to advance a simulated
    /// clock between rounds).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Corrupt client `id`'s retained base fingerprint — test hook for
    /// the stale-fingerprint failure path.
    #[doc(hidden)]
    pub fn poison_ratchet(&mut self, id: usize, fingerprint: u64) {
        self.clients[id].bank().poison(fingerprint);
    }

    fn fingerprint(&self, cohort: &BTreeSet<usize>) -> u64 {
        let members: Vec<usize> = cohort.iter().copied().collect();
        CohortFingerprint::of_flat(self.group, self.cfg, &members).raw()
    }

    /// Cut the finished round's [`RoundReport`] from the baseline.
    fn cut_report(&mut self, open: &OpenRound) -> RoundReport {
        let mut report = self.mark.cut::<F, T>(&self.transport, open.round);
        report.events.dropouts = open.dropped.len();
        // a windowed join is counted apart from handshake-bearing
        // ratchets so bench JSON can tell amortized rounds from
        // commit/ack ones
        report.events.ratchets = usize::from(open.ratcheted && !open.windowed);
        report.events.windowed_ratchets = usize::from(open.windowed);
        let (rejections, quarantined) = self.server.ingress();
        report.events.rejections = rejections - self.mark_ingress.0;
        report.events.quarantined = quarantined - self.mark_ingress.1;
        report
    }

    /// Put `round`'s masks in place among `cohort`: by the ratchet when
    /// it can (`Some(windowed)`), else by the full offline exchange
    /// (`None`).
    fn mask_round(
        &mut self,
        round: u64,
        cohort: &BTreeSet<usize>,
        label: &'static str,
    ) -> Result<Option<bool>, ProtocolError> {
        let ratcheted = self.try_ratchet(round, cohort, label);
        if ratcheted.is_none() {
            self.exchange_masks(round, cohort, label)?;
        }
        Ok(ratcheted)
    }

    /// Run the offline mask exchange for `round` among `cohort`.
    fn exchange_masks(
        &mut self,
        round: u64,
        cohort: &BTreeSet<usize>,
        label: &'static str,
    ) -> Result<(), ProtocolError> {
        for &id in cohort {
            self.clients[id].prepare_round(round)?;
        }
        for &id in cohort {
            drain_to(&mut self.clients[id], &mut self.transport, cohort)?;
        }
        self.transport.flush(label);
        pump(
            &mut self.transport,
            &mut self.server,
            &mut self.clients,
            cohort,
        )
    }

    /// Attempt the stable-cohort fast path for `round`:
    /// `Some(windowed)` iff the cohort's fingerprint matches the
    /// retained bases and either the round joined a pre-committed nonce
    /// window with zero traffic (`Some(true)`) or the commit → derive →
    /// ack handshake succeeded (`Some(false)`; one commit covers the
    /// next `W` rounds when the window is wider than 1). On
    /// ineligibility *or any failure* the half-built state is rolled
    /// back and `None` is returned — the caller runs the full offline
    /// exchange.
    fn try_ratchet(
        &mut self,
        round: u64,
        cohort: &BTreeSet<usize>,
        label: &'static str,
    ) -> Option<bool> {
        if !self.ratchet {
            return None;
        }
        let fp = self.fingerprint(cohort);
        if self.ratchet_fp != Some(fp) {
            // churn mid-window: the remaining nonces were committed to
            // a cohort that no longer exists — purge them everywhere so
            // the re-key below starts clean
            if !self.window.is_empty() {
                self.window.clear();
                for client in &mut self.clients {
                    client.bank().clear();
                }
            }
            return None;
        }
        let joined = if self.window.remove(&round) {
            // every member derives the round locally: the whole window
            // was committed and acked up front
            cohort
                .iter()
                .try_for_each(|&id| self.clients[id].ratchet_join(round))
                .map(|()| true)
        } else {
            self.exchange_ratchet(round, cohort, fp, label)
                .map(|()| false)
        };
        match joined {
            Ok(windowed) => Some(windowed),
            Err(_) => {
                self.ratchet_rollback(round, cohort);
                None
            }
        }
    }

    /// The ratchet handshake: the server commits fresh nonces — one for
    /// `round` alone when `commit_window == 1` (the wire-exact legacy
    /// flow), or a window of `W` covering `round..round + W` — and
    /// every cohort member derives the first round's mask from its
    /// retained base and acks fingerprint agreement.
    fn exchange_ratchet(
        &mut self,
        round: u64,
        cohort: &BTreeSet<usize>,
        fingerprint: u64,
        label: &'static str,
    ) -> Result<(), ProtocolError> {
        let w = self.commit_window.max(1);
        let nonces: Vec<u64> = (0..w).map(|_| self.entropy.gen()).collect();
        let topology = (w > 1).then_some(self.topology);
        if w > 1 {
            self.window = (round + 1..round + w as u64).collect();
        }
        let commit = Commit {
            round,
            fingerprint,
            nonces,
            topology,
        };
        self.server.tracker().commit(commit, cohort);
        drain_to(&mut self.server, &mut self.transport, cohort)?;
        self.transport.flush(label);
        pump(
            &mut self.transport,
            &mut self.server,
            &mut self.clients,
            cohort,
        )?;
        // acks produced during the first pump may still be pending on a
        // phase-buffered transport
        self.transport.flush(label);
        pump(
            &mut self.transport,
            &mut self.server,
            &mut self.clients,
            cohort,
        )?;
        self.server.tracker().ready(round)
    }

    /// Discard everything a failed ratchet handshake may have built:
    /// retained bases, the server commit, pre-committed window nonces,
    /// half-built round state and in-flight announcements.
    fn ratchet_rollback(&mut self, round: u64, cohort: &BTreeSet<usize>) {
        self.forget_ratchet(cohort.iter().copied());
        for &id in cohort {
            self.clients[id].forget_round(round);
        }
        self.discard_in_flight("ratchet-abort");
    }

    /// Forget the retained cohort fingerprint, the banked window, any
    /// commit in flight and the bases of the `members`.
    fn forget_ratchet(&mut self, members: impl IntoIterator<Item = usize>) {
        self.ratchet_fp = None;
        self.window.clear();
        self.server.tracker().clear();
        for id in members {
            self.clients[id].bank().clear();
        }
    }

    /// Deliver nothing more: flush the transport and drop what it holds.
    fn discard_in_flight(&mut self, label: &'static str) {
        self.transport.flush(label);
        while let Ok(Some(_)) = self.transport.recv() {}
    }
}

impl<F, T, C, S> SecureAggregator<F> for LeafFederation<F, T, C, S>
where
    F: Field,
    T: Transport<F>,
    C: LeafClient<F>,
    S: LeafServer<F>,
{
    fn config(&self) -> LsaConfig {
        self.cfg
    }

    fn round(&self) -> u64 {
        self.open.as_ref().map_or(self.next_round, |o| o.round)
    }

    fn open_round(&mut self, cohort: &[usize]) -> Result<u64, ProtocolError> {
        if self.open.is_some() {
            return Err(ProtocolError::WrongPhase);
        }
        let cohort = validate_cohort(&self.cfg, cohort)?;
        let round = self.next_round;
        // telemetry baseline: everything from here to `finish_round`
        // (including an overlapped `prepare_next`) bills to this round
        self.mark = TrafficMark::of::<F, T>(&self.transport);
        self.mark_ingress = self.server.ingress();
        let ratcheted = if claim_prepared(&mut self.prepared, round, &cohort)? {
            self.prepared_ratcheted.remove(&round)
        } else {
            self.mask_round(round, &cohort, "offline")?
        };
        self.server.open(round)?;
        self.next_round = round + 1;
        let mut open = OpenRound::new(round, cohort);
        open.ratcheted = ratcheted.is_some();
        open.windowed = ratcheted == Some(true);
        self.open = Some(open);
        Ok(round)
    }

    fn prepare_next(&mut self, cohort: &[usize]) -> Result<(), ProtocolError> {
        let round = self.next_round;
        ensure_unprepared(&self.prepared, round)?;
        let cohort = validate_cohort(&self.cfg, cohort)?;
        if let Some(windowed) = self.mask_round(round, &cohort, "offline-overlap")? {
            self.prepared_ratcheted.insert(round, windowed);
        }
        self.prepared.insert(round, cohort);
        Ok(())
    }

    fn submit(&mut self, id: usize, update: &[F]) -> Result<(), ProtocolError> {
        let open = self.open.as_ref().ok_or(ProtocolError::WrongPhase)?;
        open.require_member(id)?;
        if open.submitted.contains(&id) {
            return Err(ProtocolError::DuplicateMessage(id));
        }
        let round = open.round;
        let online = open.online();
        self.clients[id].upload_round(round, update)?;
        self.open
            .as_mut()
            .expect("round is open")
            .submitted
            .insert(id);
        drain_to(&mut self.clients[id], &mut self.transport, &online)
    }

    fn mark_dropped(&mut self, id: usize) -> Result<(), ProtocolError> {
        let open = self.open.as_mut().ok_or(ProtocolError::WrongPhase)?;
        open.require_member(id)?;
        open.dropped.insert(id);
        Ok(())
    }

    fn finish_round(&mut self) -> Result<RoundOutcome<F>, ProtocolError> {
        let open = self.open.clone().ok_or(ProtocolError::WrongPhase)?;
        // A ratcheted round's pairwise pads cancel only when *every*
        // cohort member's masked upload is in the sum: a before-upload
        // dropout invalidates the round, typed so the driver can abort
        // and replay the plan with a full exchange. The round stays open
        // for `abort_round`.
        if open.ratcheted && open.submitted.len() != open.cohort.len() {
            return Err(ProtocolError::RatchetMismatch);
        }
        let online = open.online();

        // Deliver the (already sent) masked uploads.
        self.transport.flush("upload");
        pump(
            &mut self.transport,
            &mut self.server,
            &mut self.clients,
            &online,
        )?;

        // Fix the contributors, announce, collect aggregated shares.
        self.server.close()?;
        drain_to(&mut self.server, &mut self.transport, &online)?;
        self.transport.flush("announce");
        pump(
            &mut self.transport,
            &mut self.server,
            &mut self.clients,
            &online,
        )?;
        self.transport.flush("recovery");
        pump(
            &mut self.transport,
            &mut self.server,
            &mut self.clients,
            &online,
        )?;

        let outcome = self.server.recover_round(open.round)?;
        // Every cohort member completed this round: retain the full
        // exchange as the ratchet base for the next stable round (a
        // ratcheted round's mask is `m + u`, not base material, so the
        // previous base is kept). The harvest runs before the retire
        // below drops the round's state.
        if self.ratchet {
            let fp = self.fingerprint(&open.cohort);
            if !open.ratcheted {
                for &id in &open.cohort {
                    self.clients[id].harvest_ratchet(open.round, fp);
                }
            }
            self.ratchet_fp = Some(fp);
        }
        // Retire the finished round everywhere; prepared next-round
        // state survives (it is >= round + 1).
        for client in &mut self.clients {
            client.retire(open.round + 1);
        }
        self.last_report = Some(self.cut_report(&open));
        self.open = None;
        Ok(outcome)
    }

    fn abort_round(&mut self) {
        if let Some(open) = self.open.take() {
            self.server.abort();
            // an abort means the cohort did not complete the round:
            // conservatively forget the ratchet bases too
            self.forget_ratchet(0..self.clients.len());
            // the aborted round can never complete, while any prepared
            // round >= round + 1 survives
            for client in &mut self.clients {
                client.retire_aborted(open.round + 1);
            }
            self.discard_in_flight("abort");
        }
    }

    fn clear_ratchet(&mut self) {
        self.forget_ratchet(0..self.clients.len());
        // ratchet-derived preparations are as suspect as the base they
        // came from: drop them so a retry full-exchanges
        for round in std::mem::take(&mut self.prepared_ratcheted).into_keys() {
            self.prepared.remove(&round);
            for client in &mut self.clients {
                client.forget_round(round);
            }
        }
    }

    fn reseat_ratchet(&mut self, seed: u64) {
        // the leaf fingerprint is seat-based and unchanged by a global
        // permute, so the retained bases stay valid — only the pad
        // derivation must diverge from the pre-permute stretch (and any
        // pre-committed window dies with the old seating)
        self.window.clear();
        self.server.tracker().clear();
        let mut carried = true;
        for client in &mut self.clients {
            carried &= client.reseat_ratchet(seed);
        }
        if !carried {
            self.clear_ratchet();
        }
    }

    fn set_pad_topology(&mut self, topology: PadTopology) {
        self.topology = topology;
        for client in &mut self.clients {
            client.bank().set_topology(topology);
        }
    }

    fn set_commit_window(&mut self, window: usize) {
        self.commit_window = window.clamp(1, crate::ratchet::MAX_COMMIT_WINDOW);
    }

    fn cohort_fingerprint(&self, cohort: &[usize]) -> Option<CohortFingerprint> {
        Some(CohortFingerprint::of_flat(self.group, self.cfg, cohort))
    }

    fn bytes_sent(&self) -> usize {
        self.transport.bytes_sent()
    }

    fn round_report(&self) -> Option<RoundReport> {
        self.last_report.clone()
    }
}

// ---------------------------------------------------------------------
// The driver loop
// ---------------------------------------------------------------------

/// Declarative description of one federated round for
/// [`Federation::run_round`].
#[derive(Debug, Clone)]
pub struct RoundPlan<F> {
    /// The participating clients.
    pub cohort: Vec<usize>,
    /// `(client, quantized update)` submissions; cohort members without
    /// an update drop *before* upload.
    pub updates: Vec<(usize, Vec<F>)>,
    /// Cohort members that vanish after uploading (§7.1 worst case).
    pub drop_after_upload: Vec<usize>,
    /// When set, the next round's mask exchange runs overlapped with
    /// this round (§4.1).
    pub prepare_next: Option<Vec<usize>>,
    /// When set, [`SecureAggregator::reassign`] runs with this seed
    /// *before* the round opens: an aggregator tree permutes its
    /// global↔leaf id mapping so clients face fresh group peers
    /// (privacy against slowly-accumulating intra-group collusion).
    pub reassign_seed: Option<u64>,
    /// When set, the aggregator's
    /// [`SecureAggregator::cohort_fingerprint`] of this plan's cohort
    /// must match before the round opens — a seating change under the
    /// caller's feet fails typed
    /// ([`ProtocolError::RatchetMismatch`], never retried) instead of
    /// aggregating across the wrong peers.
    pub fingerprint: Option<CohortFingerprint>,
}

impl<F> RoundPlan<F> {
    /// A plan with the given cohort and no submissions yet.
    pub fn new(cohort: Vec<usize>) -> Self {
        Self {
            cohort,
            updates: Vec::new(),
            drop_after_upload: Vec::new(),
            prepare_next: None,
            reassign_seed: None,
            fingerprint: None,
        }
    }

    /// Full participation: cohort `0..n`.
    pub fn full(n: usize) -> Self {
        Self::new((0..n).collect())
    }

    /// Add one client's update.
    #[must_use]
    pub fn with_update(mut self, id: usize, update: Vec<F>) -> Self {
        self.updates.push((id, update));
        self
    }

    /// Give every cohort member its update, in cohort order.
    ///
    /// # Panics
    ///
    /// Panics if `updates.len() != cohort.len()`.
    #[must_use]
    pub fn with_updates(mut self, updates: Vec<Vec<F>>) -> Self {
        assert_eq!(updates.len(), self.cohort.len(), "one update per member");
        self.updates = self.cohort.iter().copied().zip(updates).collect();
        self
    }

    /// Give every cohort member the *same* update (convenient in tests).
    #[must_use]
    pub fn with_uniform_updates(self, update: Vec<F>) -> Self
    where
        F: Clone,
    {
        let updates = vec![update; self.cohort.len()];
        self.with_updates(updates)
    }

    /// Mark a client as vanishing after its upload.
    #[must_use]
    pub fn with_drop_after_upload(mut self, id: usize) -> Self {
        self.drop_after_upload.push(id);
        self
    }

    /// Overlap the next round's offline mask exchange with this round.
    #[must_use]
    pub fn with_prepare_next(mut self, cohort: Vec<usize>) -> Self {
        self.prepare_next = Some(cohort);
        self
    }

    /// Permute the aggregator's global↔leaf id mapping with this seed
    /// before the round opens (no-op on flat aggregators).
    #[must_use]
    pub fn with_reassignment(mut self, seed: u64) -> Self {
        self.reassign_seed = Some(seed);
        self
    }

    /// Pin the cohort's seating: the round only opens if the
    /// aggregator's fingerprint of this cohort still matches.
    #[must_use]
    pub fn with_fingerprint(mut self, fingerprint: CohortFingerprint) -> Self {
        self.fingerprint = Some(fingerprint);
        self
    }
}

/// The multi-round driver: owns a boxed [`SecureAggregator`] (either
/// variant) and executes [`RoundPlan`]s against it — the *same* loop for
/// synchronous and buffered-asynchronous federations.
pub struct Federation<F> {
    aggregator: Box<dyn SecureAggregator<F>>,
    /// Telemetry of the most recent successful [`Federation::run_round`],
    /// with driver-level events (ratchet fallbacks) folded in.
    last_report: Option<RoundReport>,
}

impl<F: Field> Federation<F> {
    /// Wrap an aggregator variant chosen by value.
    pub fn new(aggregator: Box<dyn SecureAggregator<F>>) -> Self {
        Self {
            aggregator,
            last_report: None,
        }
    }

    /// The [`RoundReport`] of the most recent successful
    /// [`Federation::run_round`]: the aggregator's own report plus the
    /// driver's event view (a ratchet fast path that failed mid-round
    /// and was replayed with a full exchange counts as one `fallbacks`).
    pub fn last_report(&self) -> Option<&RoundReport> {
        self.last_report.as_ref()
    }

    /// The protocol configuration.
    pub fn config(&self) -> LsaConfig {
        self.aggregator.config()
    }

    /// The round currently open, or the next one to open.
    pub fn round(&self) -> u64 {
        self.aggregator.round()
    }

    /// The wrapped aggregator.
    pub fn aggregator(&self) -> &dyn SecureAggregator<F> {
        self.aggregator.as_ref()
    }

    /// Mutable access to the wrapped aggregator (e.g. to drive the
    /// lifecycle by hand).
    pub fn aggregator_mut(&mut self) -> &mut dyn SecureAggregator<F> {
        self.aggregator.as_mut()
    }

    /// Execute one round: open with the plan's cohort, submit the
    /// updates, overlap the next round's mask exchange if requested,
    /// apply the after-upload drops, and recover the aggregate.
    ///
    /// When the stable-cohort fast path diverges mid-round (a ratcheted
    /// round lost a member before upload —
    /// [`ProtocolError::RatchetMismatch`]), the ratchet state is
    /// discarded, the round aborted, and the plan replayed **once**
    /// with a full mask exchange; the failed round number is burned. A
    /// mismatch against the plan's own pinned
    /// [`RoundPlan::fingerprint`] is a caller error and is never
    /// retried.
    ///
    /// # Errors
    ///
    /// Propagates any [`ProtocolError`] from the lifecycle.
    pub fn run_round(&mut self, plan: &RoundPlan<F>) -> Result<RoundOutcome<F>, ProtocolError> {
        if let Some(expected) = plan.fingerprint {
            match self.aggregator.cohort_fingerprint(&plan.cohort) {
                Some(actual) if actual == expected => {}
                _ => return Err(ProtocolError::RatchetMismatch),
            }
        }
        // cross-round reassignment happens strictly between rounds: the
        // permutation is part of the opened round's identity
        if let Some(seed) = plan.reassign_seed {
            self.aggregator.reassign(seed)?;
        }
        let (out, fell_back) = match attempt_round(self.aggregator.as_mut(), plan) {
            Err(ProtocolError::RatchetMismatch) => {
                self.aggregator.clear_ratchet();
                self.aggregator.abort_round();
                (attempt_round(self.aggregator.as_mut(), plan), true)
            }
            out => (out, false),
        };
        let out = out?;
        let mut report = self.aggregator.round_report();
        if let Some(r) = &mut report {
            r.events.fallbacks += usize::from(fell_back);
        }
        self.last_report = report;
        Ok(out)
    }
}

/// One attempt at a [`RoundPlan`]'s lifecycle (extracted so
/// [`Federation::run_round`] can replay it after a ratchet fallback).
fn attempt_round<F: Field>(
    aggregator: &mut dyn SecureAggregator<F>,
    plan: &RoundPlan<F>,
) -> Result<RoundOutcome<F>, ProtocolError> {
    aggregator.open_round(&plan.cohort)?;
    // §4.1 overlap: the next round's offline phase runs while this
    // round's participants are still computing their updates. It
    // must run *before* the submissions so its transport flush
    // carries only mask traffic — otherwise pending uploads would be
    // mis-billed to the overlapped offline phase on a SimTransport.
    if let Some(next) = &plan.prepare_next {
        aggregator.prepare_next(next)?;
    }
    for (id, update) in &plan.updates {
        aggregator.submit(*id, update)?;
    }
    for &id in &plan.drop_after_upload {
        aggregator.mark_dropped(id)?;
    }
    aggregator.finish_round()
}

impl<F> core::fmt::Debug for Federation<F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Federation").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratchet::{RatchetAnnouncement, RATCHET_FROM_SERVER};
    use crate::transport::MemTransport;
    use lsa_field::Fp61;

    fn cfg() -> LsaConfig {
        LsaConfig::new(5, 1, 3, 4).unwrap()
    }

    fn updates(ids: &[usize]) -> Vec<(usize, Vec<Fp61>)> {
        ids.iter()
            .map(|&i| (i, vec![Fp61::from_u64(i as u64 + 1); 4]))
            .collect()
    }

    fn expected(ids: &[usize]) -> Vec<Fp61> {
        let total: u64 = ids.iter().map(|&i| i as u64 + 1).sum();
        vec![Fp61::from_u64(total); 4]
    }

    fn variants() -> Vec<(&'static str, Federation<Fp61>)> {
        vec![
            (
                "sync",
                Federation::new(Box::new(
                    SyncFederation::new(cfg(), MemTransport::new(), 1).unwrap(),
                )),
            ),
            (
                "buffered",
                Federation::new(Box::new(
                    BufferedFederation::unit_weight(cfg(), MemTransport::new(), 2).unwrap(),
                )),
            ),
        ]
    }

    #[test]
    fn both_variants_run_the_same_multi_round_loop() {
        // the acceptance shape: ONE loop, a trait object per variant
        for (name, mut fed) in variants() {
            for round in 0..3u64 {
                let mut plan = RoundPlan::new(vec![0, 1, 2, 3, 4]);
                plan.updates = updates(&[0, 1, 2, 3, 4]);
                let out = fed.run_round(&plan).unwrap_or_else(|e| {
                    panic!("{name} round {round} failed: {e}");
                });
                assert_eq!(out.round, round, "{name}");
                assert_eq!(out.aggregate, expected(&[0, 1, 2, 3, 4]), "{name}");
                assert_eq!(out.total_weight, 5, "{name}");
            }
        }
    }

    #[test]
    fn churn_leave_and_rejoin_between_rounds() {
        for (name, mut fed) in variants() {
            // round 0: full cohort
            let mut p0 = RoundPlan::new(vec![0, 1, 2, 3, 4]);
            p0.updates = updates(&[0, 1, 2, 3, 4]);
            fed.run_round(&p0).unwrap();
            // round 1: clients 1 and 4 left
            let mut p1 = RoundPlan::new(vec![0, 2, 3]);
            p1.updates = updates(&[0, 2, 3]);
            let out1 = fed.run_round(&p1).unwrap();
            assert_eq!(out1.contributors, vec![0, 2, 3], "{name}");
            assert_eq!(out1.aggregate, expected(&[0, 2, 3]), "{name}");
            // round 2: client 1 rejoined
            let mut p2 = RoundPlan::new(vec![0, 1, 2, 3]);
            p2.updates = updates(&[0, 1, 2, 3]);
            let out2 = fed.run_round(&p2).unwrap();
            assert_eq!(out2.contributors, vec![0, 1, 2, 3], "{name}");
            assert_eq!(out2.aggregate, expected(&[0, 1, 2, 3]), "{name}");
        }
    }

    #[test]
    fn overlapped_preparation_matches_unprepared_rounds() {
        for (name, mut fed) in variants() {
            let cohort = vec![0usize, 1, 2, 3, 4];
            let mut p0 = RoundPlan::new(cohort.clone()).with_prepare_next(cohort.clone());
            p0.updates = updates(&cohort);
            let out0 = fed.run_round(&p0).unwrap();
            // round 1 rides on the masks shared during round 0
            let mut p1 = RoundPlan::new(cohort.clone());
            p1.updates = updates(&cohort);
            let out1 = fed.run_round(&p1).unwrap();
            assert_eq!(out0.aggregate, out1.aggregate, "{name}");
            assert_eq!(out1.round, 1, "{name}");
        }
    }

    #[test]
    fn drop_after_upload_keeps_contribution() {
        for (name, mut fed) in variants() {
            let cohort = vec![0usize, 1, 2, 3, 4];
            let mut plan = RoundPlan::new(cohort.clone());
            plan.updates = updates(&cohort);
            plan.drop_after_upload = vec![4];
            let out = fed.run_round(&plan).unwrap();
            // user 4 uploaded, then vanished: still in the aggregate
            assert_eq!(out.aggregate, expected(&[0, 1, 2, 3, 4]), "{name}");
        }
    }

    #[test]
    fn cohort_below_u_rejected() {
        for (name, mut fed) in variants() {
            let err = fed.run_round(&RoundPlan::new(vec![0, 1])).unwrap_err();
            assert!(
                matches!(err, ProtocolError::NotEnoughSurvivors { got: 2, need: 3 }),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn double_submit_is_duplicate() {
        for (name, mut fed) in variants() {
            let agg = fed.aggregator_mut();
            agg.open_round(&[0, 1, 2, 3, 4]).unwrap();
            agg.submit(0, &[Fp61::ONE; 4]).unwrap();
            let err = agg.submit(0, &[Fp61::ONE; 4]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::DuplicateMessage(0)),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn non_member_submit_rejected() {
        let mut fed: Federation<Fp61> = Federation::new(Box::new(
            SyncFederation::new(cfg(), MemTransport::new(), 3).unwrap(),
        ));
        let agg = fed.aggregator_mut();
        agg.open_round(&[0, 1, 2, 3]).unwrap();
        assert!(matches!(
            agg.submit(4, &[Fp61::ONE; 4]),
            Err(ProtocolError::UnknownUser(4))
        ));
    }

    #[test]
    fn mismatched_open_after_prepare_leaves_preparation_usable() {
        // a cohort mismatch must NOT consume the preparation: retrying
        // with the prepared cohort still opens (and reuses the masks)
        for (name, mut fed) in variants() {
            let agg = fed.aggregator_mut();
            agg.prepare_next(&[0, 1, 2, 3, 4]).unwrap();
            let err = agg.open_round(&[0, 1, 2, 3]).unwrap_err();
            assert!(matches!(err, ProtocolError::InvalidConfig(_)), "{name}");
            agg.open_round(&[0, 1, 2, 3, 4])
                .unwrap_or_else(|e| panic!("{name}: corrected retry failed: {e}"));
            for id in 0..5 {
                agg.submit(id, &[Fp61::ONE; 4]).unwrap();
            }
            let out = agg.finish_round().unwrap();
            assert_eq!(out.aggregate, vec![Fp61::from_u64(5); 4], "{name}");
        }
    }

    #[test]
    fn overlap_phase_never_swallows_upload_traffic() {
        // over SimTransport the overlapped offline exchange must be
        // billed to "offline-overlap" and the masked uploads to
        // "upload" — the critical-path accounting the bench relies on
        use crate::transport::SimTransport;
        use lsa_net::{Duplex, NetworkConfig};

        let cfg = cfg();
        let n = cfg.n();
        let sync = SyncFederation::new(
            cfg,
            SimTransport::new(NetworkConfig::paper_default(n), Duplex::Full),
            4,
        )
        .unwrap();
        let mut fed: Federation<Fp61> = Federation::new(Box::new(sync));
        let cohort: Vec<usize> = (0..n).collect();
        let mut plan = RoundPlan::new(cohort.clone()).with_prepare_next(cohort);
        plan.updates = updates(&[0, 1, 2, 3, 4]);
        fed.run_round(&plan).unwrap();

        // downcast not available through the trait object; rebuild the
        // same run on a concrete federation to inspect timings
        let mut sync = SyncFederation::<Fp61, SimTransport>::new(
            cfg,
            SimTransport::new(NetworkConfig::paper_default(n), Duplex::Full),
            4,
        )
        .unwrap();
        sync.open_round(&(0..n).collect::<Vec<_>>()).unwrap();
        sync.prepare_next(&(0..n).collect::<Vec<_>>()).unwrap();
        for (id, update) in updates(&[0, 1, 2, 3, 4]) {
            sync.submit(id, &update).unwrap();
        }
        sync.finish_round().unwrap();
        let phases: Vec<(&str, usize)> = sync
            .transport()
            .timings()
            .iter()
            .map(|t| (t.label, t.messages))
            .collect();
        let msgs = |label: &str| {
            phases
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, m)| *m)
                .unwrap_or_else(|| panic!("missing phase {label}: {phases:?}"))
        };
        assert_eq!(msgs("offline"), n * (n - 1));
        assert_eq!(msgs("offline-overlap"), n * (n - 1));
        assert_eq!(msgs("upload"), n, "uploads mis-billed: {phases:?}");
    }

    #[test]
    fn early_next_round_share_buffered_until_prepare() {
        // a peer's round-1 share arriving before this client joined
        // round 1 is held, then replayed by prepare(1); an implausibly
        // far-future round is still rejected
        let mut rng = StdRng::seed_from_u64(6);
        let mut a =
            FederationClient::<Fp61>::new(0, cfg(), StdRng::seed_from_u64(rng.gen())).unwrap();
        let mut b =
            FederationClient::<Fp61>::new(1, cfg(), StdRng::seed_from_u64(rng.gen())).unwrap();
        b.prepare(0).unwrap();
        a.prepare(1).unwrap();
        let share_r1 = loop {
            let (to, env) = a.poll_output().expect("has shares");
            if to == Recipient::Client(1) {
                break env;
            }
        };
        // b is still on round 0: the round-1 share is buffered, not lost
        assert_eq!(b.handle(share_r1).unwrap(), Vec::new());
        b.prepare(1).unwrap();
        let (r1, _) = b.rounds.get(&1).unwrap();
        assert_eq!(r1.shares_received(), 2, "replayed share must land");
        // far beyond the lookahead window → unroutable
        let far = Envelope::CodedMaskShare(crate::messages::CodedMaskShare {
            from: 0,
            to: 1,
            group: 0,
            round: 50,
            payload: vec![Fp61::ZERO; cfg().segment_len()],
        });
        assert!(matches!(
            b.handle(far),
            Err(ProtocolError::StaleRound { got: 50, .. })
        ));
    }

    #[test]
    fn future_round_buffer_is_bounded_with_typed_rejection() {
        // an untrusted peer flooding near-future envelopes hits the cap
        // instead of growing the buffer without bound
        let mut b = FederationClient::<Fp61>::new(1, cfg(), StdRng::seed_from_u64(9)).unwrap();
        b.prepare(0).unwrap();
        let cap = b.pending_cap();
        assert_eq!(cap, 2 * (2 * cfg().n() + 2), "cap is O(LOOKAHEAD · n)");
        let flood = |round: u64| {
            Envelope::CodedMaskShare(crate::messages::CodedMaskShare {
                from: 0,
                to: 1,
                group: 0,
                round,
                payload: vec![Fp61::ZERO; cfg().segment_len()],
            })
        };
        for i in 0..cap {
            // alternate between the two lookahead rounds: the cap is
            // shared, not per-round
            let round = 1 + (i as u64 % 2);
            assert_eq!(
                b.handle(flood(round)).unwrap(),
                Vec::new(),
                "under cap at {i}"
            );
        }
        assert!(matches!(
            b.handle(flood(1)),
            Err(ProtocolError::PendingOverflow { client: 1, round: 1, cap: c }) if c == cap
        ));
        assert!(matches!(
            b.handle(flood(2)),
            Err(ProtocolError::PendingOverflow {
                client: 1,
                round: 2,
                ..
            })
        ));
        // joining round 1 drains its share of the buffer: new round-2
        // traffic fits again (the replay of duplicate shares errors —
        // only the buffering policy is under test here)
        let _ = b.prepare(1);
        assert!(b.handle(flood(2)).is_ok(), "buffer frees as rounds open");
    }

    #[test]
    fn federation_client_rejects_retired_round_envelopes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut a =
            FederationClient::<Fp61>::new(0, cfg(), StdRng::seed_from_u64(rng.gen())).unwrap();
        let mut b =
            FederationClient::<Fp61>::new(1, cfg(), StdRng::seed_from_u64(rng.gen())).unwrap();
        a.prepare(0).unwrap();
        b.prepare(0).unwrap();
        // capture one of a's round-0 shares for b
        let share_for_b = loop {
            let (to, env) = a.poll_output().expect("has shares");
            if to == Recipient::Client(1) {
                break env;
            }
        };
        b.handle(share_for_b.clone()).unwrap();
        // b moves on to round 1; the replayed round-0 share is stale
        b.retire_below(1);
        b.prepare(1).unwrap();
        assert!(matches!(
            b.handle(share_for_b),
            Err(ProtocolError::StaleRound { got: 0, current: 1 })
        ));
    }

    #[test]
    fn replayed_ratchet_commits_and_acks_are_rejected_typed() {
        let mut fed = SyncFederation::<Fp61, _>::new(cfg(), MemTransport::new(), 21).unwrap();
        let cohort: Vec<usize> = (0..5).collect();
        for _ in 0..2 {
            fed.open_round(&cohort).unwrap();
            for (id, u) in updates(&cohort) {
                fed.submit(id, &u).unwrap();
            }
            fed.finish_round().unwrap();
        }
        // rounds 0 and 1 are retired: a commit replayed from round 1 is
        // rejected as stale before any mask re-derivation, whatever its
        // nonce claims
        let fp = CohortFingerprint::of_flat(0, cfg(), &cohort).raw();
        let replay = RatchetAnnouncement {
            from: RATCHET_FROM_SERVER,
            group: 0,
            round: 1,
            nonce: 99,
            fingerprint: fp,
        };
        assert!(matches!(
            fed.clients[0].handle(Envelope::RatchetAnnouncement(replay.clone())),
            Err(ProtocolError::StaleRound { got: 1, current: 2 })
        ));
        // an ack replayed to the server after its handshake was consumed
        // finds no in-flight commit to attach to
        let ack = RatchetAnnouncement { from: 0, ..replay };
        assert!(matches!(
            fed.server.handle(Envelope::RatchetAnnouncement(ack)),
            Err(ProtocolError::RatchetMismatch)
        ));
        // a commit for a round the client already holds state for is
        // a duplicate — a second nonce must not rebuild the round's mask
        fed.open_round(&cohort).unwrap();
        let dup = RatchetAnnouncement {
            from: RATCHET_FROM_SERVER,
            group: 0,
            round: 2,
            nonce: 7,
            fingerprint: fp,
        };
        assert!(matches!(
            fed.clients[0].handle(Envelope::RatchetAnnouncement(dup)),
            Err(ProtocolError::DuplicateMessage(0))
        ));
    }
}
