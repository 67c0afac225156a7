//! Buffered-asynchronous LightSecAgg (§4.2 and Appendix F of the paper).
//!
//! The server buffers `K` masked local updates that may originate from
//! *different* global rounds (staleness `τ_i = t − t_i ≤ τ_max`). Because
//! MDS coding commutes with addition, users can aggregate their stored
//! coded masks `[~z_i^{(t_i)}]_j` with the *round-matched* timestamps the
//! server announces, and the server still recovers the (staleness-
//! weighted) aggregate mask in one shot — the property SecAgg/SecAgg+
//! fundamentally lack (Remark 1).
//!
//! Staleness compensation happens inside the field via the quantized
//! weights `s_{c_g}(τ)` of Eq. (34).
//!
//! Round stamps and weights aside, this is the synchronous protocol on
//! the synchronous core: [`AsyncClient`] keeps one [`crate::Client`] per
//! masked round, and an announced flush recovers as a
//! [`crate::ServerRound`].

use crate::client::Client;
use crate::config::LsaConfig;
use crate::federation::{drain_to, pump};
use crate::messages::{AggregatedShare, CodedMaskShare, MaskedModel};
use crate::server::ServerRound;
use crate::session::{AsyncClientSession, AsyncServerSession};
use crate::transport::Transport;
use crate::ProtocolError;
use lsa_field::Field;
use lsa_quantize::{QuantizedStaleness, VectorQuantizer};
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// A coded mask share tagged with the generation round (Appendix F.3.1):
/// the synchronous [`CodedMaskShare`], whose `round` is the round `t_i`
/// the mask was generated in. It travels under its own wire tag
/// ([`crate::wire::Envelope::TimestampedShare`]).
pub type TimestampedShare<F> = CodedMaskShare<F>;

/// A masked, quantized local update tagged with its base round
/// (Appendix F.3.2), `~Δ_i = Δ̄_i + z_i^{(t_i)}`: the synchronous
/// [`MaskedModel`] under its own wire tag
/// ([`crate::wire::Envelope::TimestampedUpdate`]).
pub type TimestampedUpdate<F> = MaskedModel<F>;

/// One buffered entry the server announces for mask aggregation:
/// user `who` contributed an update based on round `round`, to be weighted
/// by the integer staleness weight `weight` (`= s_{c_g}(t − round)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferEntry {
    /// Contributing user.
    pub who: usize,
    /// Base round of the contribution.
    pub round: u64,
    /// Integer staleness weight `c_g·Q_{c_g}(s(τ))`.
    pub weight: u64,
}

/// Client side of asynchronous LightSecAgg.
///
/// Every round this client masks runs on the synchronous [`Client`]: the
/// same mask sampling and MDS encoding, share checks, masking and cached
/// ratchet derivation. What is asynchronous stays here: rounds are kept
/// side by side under their timestamps, shares for rounds this client
/// never masked are kept by `(round, sender)` (a flush may name any
/// buffered contributor's round), and aggregation requests mix rounds
/// under staleness weights.
#[derive(Debug, Clone)]
pub struct AsyncClient<F> {
    id: usize,
    cfg: LsaConfig,
    /// The mask-owner state of every round this client masked.
    pub(crate) rounds: BTreeMap<u64, Client<F>>,
    /// Coded shares for rounds without a mask here, keyed by
    /// `(round, sender)`; at most [`crate::FederationClient::pending_cap`]
    /// of them.
    foreign: BTreeMap<(u64, usize), TimestampedShare<F>>,
}

impl<F: Field> AsyncClient<F> {
    /// Create the client for user `id`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub fn new(id: usize, cfg: LsaConfig) -> Result<Self, ProtocolError> {
        crate::check_id(id, &cfg)?;
        Ok(Self {
            id,
            cfg,
            rounds: BTreeMap::new(),
            foreign: BTreeMap::new(),
        })
    }

    /// This client's user index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Offline phase for round `round`: sample `z_i^{(round)}`, encode,
    /// and return the shares for the other users. The own share is stored
    /// internally, and so are the shares that arrived for the round
    /// before its mask existed.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::DuplicateMessage`] if the round's mask was
    /// already generated.
    pub fn generate_round_mask<R: Rng + ?Sized>(
        &mut self,
        round: u64,
        rng: &mut R,
    ) -> Result<Vec<TimestampedShare<F>>, ProtocolError> {
        if self.rounds.contains_key(&round) {
            return Err(ProtocolError::DuplicateMessage(self.id));
        }
        let mut client = Client::for_round(self.id, round, self.cfg, rng)?;
        // senders are < n, so the round's early shares sit below
        // (round, usize::MAX)
        let mut early = self.foreign.split_off(&(round, 0));
        self.foreign
            .append(&mut early.split_off(&(round, usize::MAX)));
        for share in early.into_values() {
            client.receive_share(share)?;
        }
        let shares = client.outgoing_shares();
        self.rounds.insert(round, client);
        Ok(shares)
    }

    /// Accept a timestamped coded share from a peer.
    ///
    /// # Errors
    ///
    /// Those of [`crate::Client::receive_share`], and
    /// [`ProtocolError::PendingOverflow`] once the shares held for rounds
    /// this client never masked reach
    /// [`crate::FederationClient::pending_cap`].
    pub fn receive_share(&mut self, share: TimestampedShare<F>) -> Result<(), ProtocolError> {
        if let Some(client) = self.rounds.get_mut(&share.round) {
            return client.receive_share(share);
        }
        crate::client::check_share(&self.cfg, self.id, 0, share.round, &share)?;
        // the own share of a round is the mask owner's to generate
        let key = (share.round, share.from);
        if share.from == self.id || self.foreign.contains_key(&key) {
            return Err(ProtocolError::DuplicateMessage(share.from));
        }
        let cap = crate::federation::pending_cap::<F>(self.cfg.n());
        crate::check_pending(self.id, share.round, self.foreign.len(), cap)?;
        self.foreign.insert(key, share);
        Ok(())
    }

    /// Mask a quantized local update computed from base round `round`.
    ///
    /// **Privacy invariant**: each round's mask must protect at most one
    /// uploaded update — masking two *different* updates with the same
    /// `z_i^{(round)}` would let the server learn their difference.
    /// Generate a fresh round mask (with a fresh round id) per upload;
    /// the type does not consume the mask because legitimate retries of
    /// the *same* payload are safe.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::MissingShares`] if no mask was generated for the
    ///   round;
    /// * [`ProtocolError::Coding`] on length mismatch.
    pub fn mask_update(
        &self,
        round: u64,
        update: &[F],
    ) -> Result<TimestampedUpdate<F>, ProtocolError> {
        self.rounds
            .get(&round)
            .ok_or(ProtocolError::MissingShares { from: self.id })?
            .mask_model(update)
    }

    /// Serve the server's aggregation request for the flush announced at
    /// `announced_round`: compute
    /// `Σ_entries weight · [~z_who^{(round)}]_id` (Appendix F.3.3). The
    /// response is stamped with `announced_round` so the server can
    /// reject answers to an earlier flush.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::MissingShares`] if a requested share was
    /// never received.
    pub fn aggregated_share_for(
        &self,
        announced_round: u64,
        entries: &[BufferEntry],
    ) -> Result<AggregatedShare<F>, ProtocolError> {
        let mut weights = Vec::with_capacity(entries.len());
        let mut shares: Vec<&[F]> = Vec::with_capacity(entries.len());
        for e in entries {
            let share = match self.rounds.get(&e.round) {
                Some(client) => client.share_from(e.who),
                None => self.foreign.get(&(e.round, e.who)).map(|s| &s.payload[..]),
            };
            weights.push(F::from_u64(e.weight));
            shares.push(share.ok_or(ProtocolError::MissingShares { from: e.who })?);
        }
        let mut acc = vec![F::ZERO; self.cfg.segment_len()];
        lsa_field::ops::weighted_sum_into(&mut acc, &weights, &shares);
        Ok(AggregatedShare {
            from: self.id,
            group: 0,
            round: announced_round,
            payload: acc,
        })
    }

    /// Drop masks and shares for rounds `< keep_from` (bounded staleness
    /// means they can never be requested again).
    pub fn discard_before(&mut self, keep_from: u64) {
        self.retain(|r| r >= keep_from);
    }

    /// Number of stored (sender, round) coded shares.
    pub fn shares_stored(&self) -> usize {
        let own: usize = self.rounds.values().map(Client::shares_received).sum();
        own + self.foreign.len()
    }

    /// The most recent round a mask exists for, if any.
    pub fn latest_mask_round(&self) -> Option<u64> {
        self.rounds.keys().next_back().copied()
    }

    /// Drop exactly one round's mask and share state — rollback of a
    /// half-built ratcheted round before falling back to a full
    /// exchange (which regenerates the round from scratch).
    pub fn forget_round(&mut self, round: u64) {
        self.retain(|r| r != round);
    }

    /// Derive the mask for `round` by ratcheting `base_round`'s retained
    /// state under `nonce` and `topology` ([`crate::ratchet`]), as the
    /// synchronous client does, from the base round's cached edge seeds.
    /// The new round shares the base round's coded shares, so requests
    /// naming `(who, round)` resolve to them (for *every* peer — recovery
    /// needs the full share set). No share traffic is produced.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::DuplicateMessage`] if `round` already has a
    ///   mask;
    /// * [`ProtocolError::RatchetMismatch`] if the base round's mask is
    ///   missing.
    pub fn ratchet_round_mask(
        &mut self,
        round: u64,
        base_round: u64,
        nonce: u64,
        topology: crate::ratchet::PadTopology,
    ) -> Result<(), ProtocolError> {
        if self.rounds.contains_key(&round) {
            return Err(ProtocolError::DuplicateMessage(self.id));
        }
        let base = self
            .rounds
            .get(&base_round)
            .ok_or(ProtocolError::RatchetMismatch)?;
        let client = Client::ratcheted_from(base, round, nonce, topology);
        self.rounds.insert(round, client);
        Ok(())
    }

    /// As [`Self::discard_before`], but additionally keeping exactly
    /// round `keep` resident — the ratchet base round, which must
    /// outlive every round derived from it. Intermediate ratcheted
    /// rounds between the base and `keep_from` are evicted, so a long
    /// stable stretch stays `O(1)` rounds of state.
    pub fn discard_before_keeping(&mut self, keep_from: u64, keep: u64) {
        self.retain(|r| r >= keep_from || r == keep);
    }

    /// Keep the masks and shares of the rounds `keep` admits.
    fn retain(&mut self, keep: impl Fn(u64) -> bool) {
        self.rounds.retain(|&r, _| keep(r));
        self.foreign.retain(|&(r, _), _| keep(r));
    }
}

/// The weighted aggregate recovered by the async server, still in the
/// field. Use [`WeightedAggregate::dequantize`] to obtain the real-valued
/// weighted-average update of Eq. (37).
#[derive(Debug, Clone)]
pub struct WeightedAggregate<F> {
    /// `Σ w_i·Δ̄_i` (field elements, length `d`).
    pub aggregate: Vec<F>,
    /// `Σ w_i` — the integer normalizer.
    pub total_weight: u64,
    /// The buffer entries that contributed.
    pub entries: Vec<BufferEntry>,
}

impl<F: Field> WeightedAggregate<F> {
    /// Convert to the real-valued *weighted average* update
    /// `Σ w_i Q_{c_l}(Δ_i) / Σ w_i` (Eq. 37), given the quantizer used by
    /// the clients.
    pub fn dequantize(&self, quantizer: &VectorQuantizer) -> Vec<f64> {
        quantizer.dequantize_sum(&self.aggregate, self.total_weight.max(1))
    }
}

/// Server side of asynchronous LightSecAgg with a FedBuff-style buffer.
///
/// The weighted buffer and its announcement are its own; an announced
/// flush recovers as a synchronous [`ServerRound`] in its recovery
/// phase, open to shares from every user.
#[derive(Debug, Clone)]
pub struct AsyncServer<F: Field> {
    cfg: LsaConfig,
    staleness: QuantizedStaleness,
    buffer_size: usize,
    buffer: Vec<(BufferEntry, Vec<F>)>,
    /// The recovery of the announced flush.
    flush: Option<ServerRound<F>>,
}

impl<F: Field> AsyncServer<F> {
    /// Create a server with buffer size `K` and a staleness-weighting
    /// strategy.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `buffer_size == 0`.
    pub fn new(
        cfg: LsaConfig,
        buffer_size: usize,
        staleness: QuantizedStaleness,
    ) -> Result<Self, ProtocolError> {
        if buffer_size == 0 {
            return Err(ProtocolError::InvalidConfig(
                "buffer size must be positive".into(),
            ));
        }
        Ok(Self {
            cfg,
            staleness,
            buffer_size,
            buffer: Vec::new(),
            flush: None,
        })
    }

    /// Accept a masked update at global round `now`; the staleness weight
    /// `s_{c_g}(now − update.round)` is drawn immediately. Returns `true`
    /// when the buffer is full.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::WrongPhase`] if the buffer is already full;
    /// * [`ProtocolError::Coding`] / [`ProtocolError::UnknownUser`] on
    ///   malformed input;
    /// * [`ProtocolError::StaleUpdate`] if `update.round > now`;
    /// * [`ProtocolError::DuplicateMessage`] if `update.from` already
    ///   buffered an update of the same base round: one mask protects
    ///   one update, and a replay would be counted twice.
    pub fn receive_update<R: Rng + ?Sized>(
        &mut self,
        update: TimestampedUpdate<F>,
        now: u64,
        rng: &mut R,
    ) -> Result<bool, ProtocolError> {
        if self.flush.is_some() || self.buffer.len() >= self.buffer_size {
            return Err(ProtocolError::WrongPhase);
        }
        crate::check_group(update.group, 0)?;
        if update.from >= self.cfg.n() {
            return Err(ProtocolError::UnknownUser(update.from));
        }
        if update.round > now {
            return Err(ProtocolError::StaleUpdate {
                round: update.round,
                now,
            });
        }
        crate::check_len(self.cfg.padded_len(), update.payload.len())?;
        if self
            .buffer
            .iter()
            .any(|(e, _)| (e.who, e.round) == (update.from, update.round))
        {
            return Err(ProtocolError::DuplicateMessage(update.from));
        }
        let tau = now - update.round;
        let weight = self.staleness.integer_weight(tau, rng);
        self.buffer.push((
            BufferEntry {
                who: update.from,
                round: update.round,
                weight,
            },
            update.payload,
        ));
        Ok(self.buffer.len() >= self.buffer_size)
    }

    /// Whether the buffer has reached capacity.
    pub fn buffer_full(&self) -> bool {
        self.buffer.len() >= self.buffer_size
    }

    /// Number of buffered updates.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Fix and announce the buffer contents (entries with weights) at
    /// flush round `round`, so users can compute weighted aggregated
    /// shares.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::WrongPhase`] until the buffer is full.
    pub fn announce(&mut self, round: u64) -> Result<Vec<BufferEntry>, ProtocolError> {
        if !self.buffer_full() {
            return Err(ProtocolError::WrongPhase);
        }
        self.announce_partial(round)
    }

    /// Announce whatever the buffer currently holds, even if not full.
    ///
    /// §4.2 of the paper notes the aggregated group size "does not need
    /// to be fixed in all rounds" — this supports deadline-triggered
    /// flushes where the server aggregates a partial buffer rather than
    /// waiting for `K` stragglers.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::WrongPhase`] if the buffer is empty or a
    /// round is already announced.
    pub fn announce_partial(&mut self, round: u64) -> Result<Vec<BufferEntry>, ProtocolError> {
        if self.buffer.is_empty() || self.flush.is_some() {
            return Err(ProtocolError::WrongPhase);
        }
        self.flush = Some(ServerRound::recovering(self.cfg, round)?);
        Ok(self.buffer.iter().map(|(e, _)| *e).collect())
    }

    /// Accept a weighted aggregated share from any user; returns `true`
    /// once `U` shares arrived.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] before the announcement; otherwise
    /// those of [`crate::ServerRound::receive_aggregated_share`], where
    /// every user may answer and a share answering a different flush
    /// round is [`ProtocolError::StaleRound`].
    pub fn receive_aggregated_share(
        &mut self,
        msg: AggregatedShare<F>,
    ) -> Result<bool, ProtocolError> {
        self.flush
            .as_mut()
            .ok_or(ProtocolError::WrongPhase)?
            .receive_aggregated_share(msg)
    }

    /// Recover the weighted aggregate `Σ w_i Δ̄_i` by one-shot decoding of
    /// `Σ w_i z_i^{(t_i)}` and clear the buffer for the next round.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongPhase`] before the announcement,
    /// [`ProtocolError::NotEnoughSurvivors`] before `U` shares arrive,
    /// or a [`ProtocolError::Coding`] decode failure.
    pub fn recover(&mut self) -> Result<WeightedAggregate<F>, ProtocolError> {
        let flush = self.flush.as_mut().ok_or(ProtocolError::WrongPhase)?;
        flush.ensure_ready()?;
        // One-shot decode of Σ w_i z_i^{(t_i)} (coding commutes with the
        // weighted sum because the weights are scalars), stripped from
        // Σ w_i ~Δ_i over the buffer: one fused widened pass, reduced
        // once per element instead of once per buffered update.
        let (entries, payloads): (Vec<BufferEntry>, Vec<&[F]>) =
            self.buffer.iter().map(|(e, p)| (*e, p.as_slice())).unzip();
        let weights: Vec<F> = entries.iter().map(|e| F::from_u64(e.weight)).collect();
        let aggregate = flush.unmask(|_| {
            let mut weighted_sum = vec![F::ZERO; self.cfg.padded_len()];
            lsa_field::ops::weighted_sum_into(&mut weighted_sum, &weights, &payloads);
            weighted_sum
        })?;
        self.buffer.clear();
        self.flush = None;
        Ok(WeightedAggregate {
            aggregate,
            total_weight: entries.iter().map(|e| e.weight).sum(),
            entries,
        })
    }
}

/// One buffered contribution fed to [`run_buffered_flush`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushInput<F> {
    /// The contributing user (buffer slot owner).
    pub slot: usize,
    /// The base round the update was computed from.
    pub round: u64,
    /// The quantized update (length `cfg.d()`).
    pub update: Vec<F>,
}

/// Run one buffered-asynchronous flush over an explicit [`Transport`],
/// pumping [`AsyncClientSession`]s and an [`AsyncServerSession`].
///
/// This is the only driver in which each buffered slot masks under its
/// *own* stale base round (`inputs[k].round`) — the FedBuff staleness
/// the Figs 7/11/12 experiments weight. [`crate::BufferedFederation`]
/// opens every round fresh (`τ = 0`) for the whole cohort; routing
/// stale slots through it would make the shared leaf driver branch on
/// its caller, so this flush stays a separate, single-use pump over the
/// same endpoints.
///
/// Phase boundaries are flushed under the labels `"mask-exchange"`,
/// `"buffered-upload"`, `"buffer-announce"` and `"async-recovery"`. The
/// global round is `max` of the input rounds; each endpoint's entropy
/// stream is derived from `rng` at construction, after which message
/// handling is deterministic.
///
/// # Errors
///
/// Propagates any protocol error from the endpoints.
pub fn run_buffered_flush<F: Field, R: Rng + ?Sized, T: Transport<F>>(
    cfg: LsaConfig,
    inputs: &[FlushInput<F>],
    staleness: QuantizedStaleness,
    rng: &mut R,
    transport: &mut T,
) -> Result<WeightedAggregate<F>, ProtocolError> {
    if inputs.is_empty() {
        return Err(ProtocolError::InvalidConfig("empty flush".into()));
    }
    let n = cfg.n();
    if let Some(bad) = inputs.iter().find(|i| i.slot >= n) {
        return Err(ProtocolError::UnknownUser(bad.slot));
    }
    let now = inputs.iter().map(|i| i.round).max().expect("non-empty");

    let mut clients: Vec<AsyncClientSession<F>> = (0..n)
        .map(|id| AsyncClientSession::from_rng(id, cfg, rng))
        .collect::<Result<_, _>>()?;
    let mut server = AsyncServerSession::new(
        cfg,
        inputs.len(),
        staleness,
        rand::rngs::StdRng::seed_from_u64(rng.gen()),
    )?;
    server.advance_to(now);
    let everyone: BTreeSet<usize> = (0..n).collect();

    // Offline: each contributing slot generates its round mask and the
    // coded shares travel to every peer.
    for input in inputs {
        clients[input.slot].generate_round_mask(input.round)?;
    }
    for client in clients.iter_mut() {
        drain_to(client, transport, &everyone)?;
    }
    transport.flush("mask-exchange");
    pump(transport, &mut server, &mut clients, &everyone)?;

    // Upload: masked, round-stamped updates.
    for input in inputs {
        clients[input.slot].upload_update(input.round, &input.update)?;
        drain_to(&mut clients[input.slot], transport, &everyone)?;
    }
    transport.flush("buffered-upload");
    pump(transport, &mut server, &mut clients, &everyone)?;

    // Recovery: announce the buffer, collect weighted aggregated shares.
    server.announce()?;
    drain_to(&mut server, transport, &everyone)?;
    transport.flush("buffer-announce");
    pump(transport, &mut server, &mut clients, &everyone)?;
    transport.flush("async-recovery");
    pump(transport, &mut server, &mut clients, &everyone)?;

    server.recover()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::Fp61;
    use lsa_quantize::StalenessFn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> LsaConfig {
        LsaConfig::new(4, 1, 3, 6).unwrap()
    }

    fn staleness() -> QuantizedStaleness {
        QuantizedStaleness::new(StalenessFn::Constant, 1)
    }

    #[test]
    fn update_from_future_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut server = AsyncServer::<Fp61>::new(cfg(), 2, staleness()).unwrap();
        let upd = TimestampedUpdate {
            from: 0,
            group: 0,
            round: 5,
            payload: vec![Fp61::ZERO; cfg().padded_len()],
        };
        assert!(matches!(
            server.receive_update(upd, 3, &mut rng),
            Err(ProtocolError::StaleUpdate { round: 5, now: 3 })
        ));
    }

    #[test]
    fn buffer_fills_and_announces() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut server = AsyncServer::<Fp61>::new(cfg(), 2, staleness()).unwrap();
        assert!(matches!(server.announce(1), Err(ProtocolError::WrongPhase)));
        for (id, round) in [(0usize, 0u64), (1, 1)] {
            let full = server
                .receive_update(
                    TimestampedUpdate {
                        from: id,
                        group: 0,
                        round,
                        payload: vec![Fp61::ZERO; cfg().padded_len()],
                    },
                    1,
                    &mut rng,
                )
                .unwrap();
            assert_eq!(full, id == 1);
        }
        let entries = server.announce(1).unwrap();
        assert_eq!(entries.len(), 2);
        // constant staleness with c_g = 1 gives weight 1
        assert!(entries.iter().all(|e| e.weight == 1));
    }

    #[test]
    fn client_discard_before_prunes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = AsyncClient::<Fp61>::new(0, cfg()).unwrap();
        c.generate_round_mask(0, &mut rng).unwrap();
        c.generate_round_mask(1, &mut rng).unwrap();
        c.generate_round_mask(2, &mut rng).unwrap();
        assert_eq!(c.shares_stored(), 3);
        c.discard_before(2);
        assert_eq!(c.shares_stored(), 1);
        // masking with a pruned round now fails
        assert!(c.mask_update(0, &[Fp61::ZERO; 6]).is_err());
        assert!(c.mask_update(2, &[Fp61::ZERO; 6]).is_ok());
    }

    /// Client `c`'s mask of `round`: what it uploads for a zero update.
    fn mask(c: &AsyncClient<Fp61>, round: u64) -> Vec<Fp61> {
        c.mask_update(round, &[Fp61::ZERO; 6]).unwrap().payload
    }

    #[test]
    fn ratcheted_masks_cancel_and_refile_shares() {
        // Full exchange at round 0, then ratchet round 1 on every client:
        // the pairwise pads must cancel over the cohort (Σ z_i^1 == Σ z_i^0)
        // and the base shares must be re-filed so aggregation requests
        // naming round 1 resolve without any new share traffic.
        let mut rng = StdRng::seed_from_u64(17);
        let cfg = cfg();
        let mut clients: Vec<AsyncClient<Fp61>> = (0..4)
            .map(|id| AsyncClient::new(id, cfg).unwrap())
            .collect();
        let mut pending = Vec::new();
        for c in clients.iter_mut() {
            pending.extend(c.generate_round_mask(0, &mut rng).unwrap());
        }
        for s in pending {
            clients[s.to].receive_share(s).unwrap();
        }
        let base_sum: Vec<Fp61> = {
            let mut acc = vec![Fp61::ZERO; cfg.padded_len()];
            for c in &clients {
                lsa_field::ops::add_assign(&mut acc, &mask(c, 0));
            }
            acc
        };
        for c in clients.iter_mut() {
            c.ratchet_round_mask(1, 0, 0xfeed, crate::ratchet::PadTopology::Clique)
                .unwrap();
            // shares re-filed under the new round, none sent
            assert_eq!(c.shares_stored(), 8);
        }
        let mut ratchet_sum = vec![Fp61::ZERO; cfg.padded_len()];
        for c in &clients {
            lsa_field::ops::add_assign(&mut ratchet_sum, &mask(c, 1));
            // each individual mask is fresh, not the base replayed
            assert_ne!(mask(c, 1), mask(c, 0));
            assert_eq!(c.rounds[&1].share_from(0), c.rounds[&0].share_from(0));
        }
        assert_eq!(ratchet_sum, base_sum);
        // a second ratchet from the same base coexists with round 1
        // until eviction; discard_before_keeping then retires the
        // intermediate ratcheted round while pinning the base
        for c in clients.iter_mut() {
            c.ratchet_round_mask(2, 0, 0xbeef, crate::ratchet::PadTopology::Hypercube)
                .unwrap();
            c.discard_before_keeping(2, 0);
            assert!(!c.rounds.contains_key(&1));
            assert!(c.rounds.contains_key(&0), "base stays resident");
            assert_eq!(c.shares_stored(), 8);
        }
        // duplicate and missing-base cases are typed
        assert!(matches!(
            clients[0].ratchet_round_mask(2, 0, 1, crate::ratchet::PadTopology::Clique),
            Err(ProtocolError::DuplicateMessage(0))
        ));
        assert!(matches!(
            clients[0].ratchet_round_mask(5, 3, 1, crate::ratchet::PadTopology::Clique),
            Err(ProtocolError::RatchetMismatch)
        ));
    }

    #[test]
    fn shares_for_unmasked_rounds_are_bounded() {
        // a peer streaming shares for rounds this client never masks
        // hits the synchronous client's lookahead budget, typed
        let cfg = cfg();
        let cap = crate::FederationClient::<Fp61>::new(0, cfg, StdRng::seed_from_u64(0))
            .unwrap()
            .pending_cap();
        let share = |from, round| TimestampedShare {
            from,
            to: 0,
            group: 0,
            round,
            payload: vec![Fp61::ZERO; cfg.segment_len()],
        };
        let mut c = AsyncClient::<Fp61>::new(0, cfg).unwrap();
        for round in 0..cap as u64 {
            c.receive_share(share(1, round)).unwrap();
        }
        assert_eq!(c.shares_stored(), cap);
        assert!(matches!(
            c.receive_share(share(1, cap as u64)),
            Err(ProtocolError::PendingOverflow { client: 0, round, cap: got })
                if round == cap as u64 && got == cap
        ));
        assert_eq!(c.shares_stored(), cap);
        // a masked round still takes shares, and the early one moved in
        // with its mask
        c.generate_round_mask(0, &mut StdRng::seed_from_u64(5))
            .unwrap();
        c.receive_share(share(2, 0)).unwrap();
        assert_eq!(c.rounds[&0].shares_received(), 3);
        assert_eq!(c.shares_stored(), cap + 2);
        let entries = [
            BufferEntry {
                who: 1,
                round: 0,
                weight: 1,
            },
            BufferEntry {
                who: 1,
                round: 3,
                weight: 1,
            },
        ];
        assert!(c.aggregated_share_for(3, &entries).is_ok());
    }

    #[test]
    fn partial_flush_aggregates_fewer_than_k() {
        // §4.2: the group size may vary per round — a deadline flush with
        // 1 < K entries still recovers exactly.
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = cfg();
        let mut clients: Vec<AsyncClient<Fp61>> = (0..4)
            .map(|id| AsyncClient::new(id, cfg).unwrap())
            .collect();
        let mut pending = Vec::new();
        for c in clients.iter_mut() {
            pending.extend(c.generate_round_mask(0, &mut rng).unwrap());
        }
        for s in pending {
            clients[s.to].receive_share(s).unwrap();
        }
        let mut server = AsyncServer::<Fp61>::new(cfg, 3, staleness()).unwrap();
        let update = vec![Fp61::from_u64(7); cfg.d()];
        let masked = clients[0].mask_update(0, &update).unwrap();
        server.receive_update(masked, 0, &mut rng).unwrap();
        // only 1 of 3 buffered; flush early
        assert!(matches!(server.announce(0), Err(ProtocolError::WrongPhase)));
        let entries = server.announce_partial(0).unwrap();
        assert_eq!(entries.len(), 1);
        for client in clients.iter().take(3) {
            server
                .receive_aggregated_share(client.aggregated_share_for(0, &entries).unwrap())
                .unwrap();
        }
        let agg = server.recover().unwrap();
        assert_eq!(agg.aggregate, update);
    }

    #[test]
    fn empty_partial_flush_rejected() {
        let mut server = AsyncServer::<Fp61>::new(cfg(), 3, staleness()).unwrap();
        assert!(matches!(
            server.announce_partial(0),
            Err(ProtocolError::WrongPhase)
        ));
    }

    #[test]
    fn duplicate_round_mask_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut c = AsyncClient::<Fp61>::new(0, cfg()).unwrap();
        c.generate_round_mask(0, &mut rng).unwrap();
        assert!(c.generate_round_mask(0, &mut rng).is_err());
    }

    #[test]
    fn buffered_flush_driver_recovers_weighted_sum() {
        // mixed base rounds through the session driver over a wire:
        // Poly staleness at c_g = 4 gives exact weights 4 (τ=0), 2 (τ=1)
        let cfg = LsaConfig::new(4, 1, 3, 6).unwrap();
        let staleness = QuantizedStaleness::new(lsa_quantize::StalenessFn::Poly { alpha: 1.0 }, 4);
        let inputs = vec![
            FlushInput {
                slot: 0,
                round: 1,
                update: vec![Fp61::from_u64(10); 6],
            },
            FlushInput {
                slot: 2,
                round: 0,
                update: vec![Fp61::from_u64(3); 6],
            },
        ];
        let mut rng = StdRng::seed_from_u64(20);
        let mut transport = crate::transport::MemTransport::new();
        let agg = run_buffered_flush(cfg, &inputs, staleness, &mut rng, &mut transport).unwrap();
        assert_eq!(agg.total_weight, 6);
        // 4·10 + 2·3 = 46 in every coordinate
        assert_eq!(agg.aggregate, vec![Fp61::from_u64(46); 6]);
        // every phase actually crossed the wire
        assert!(transport.messages_sent() > 0);
    }

    #[test]
    fn out_of_range_slot_rejected_not_panicking() {
        let cfg = LsaConfig::new(4, 1, 3, 6).unwrap();
        let inputs = vec![FlushInput {
            slot: 7,
            round: 0,
            update: vec![Fp61::ZERO; 6],
        }];
        let mut rng = StdRng::seed_from_u64(22);
        let mut transport = crate::transport::MemTransport::new();
        assert!(matches!(
            run_buffered_flush(cfg, &inputs, staleness(), &mut rng, &mut transport),
            Err(ProtocolError::UnknownUser(7))
        ));
    }

    #[test]
    fn empty_flush_rejected() {
        let cfg = LsaConfig::new(4, 1, 3, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let mut transport = crate::transport::MemTransport::new();
        assert!(matches!(
            run_buffered_flush::<Fp61, _, _>(cfg, &[], staleness(), &mut rng, &mut transport),
            Err(ProtocolError::InvalidConfig(_))
        ));
    }
}
