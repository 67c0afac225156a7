//! The LightSecAgg client (user) state machine for synchronous FL.

use crate::config::LsaConfig;
use crate::messages::{AggregatedShare, CodedMaskShare, MaskedModel};
use crate::ProtocolError;
use lsa_coding::{vandermonde, VandermondeCode};
use lsa_crypto::Seed;
use lsa_field::Field;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A LightSecAgg user.
///
/// Lifecycle per round (Algorithm 1 of the paper):
///
/// 1. [`Client::new`] — samples the local mask `z_i` and the `T` noise
///    segments, and encodes the `N` coded segments (offline phase,
///    overlappable with training);
/// 2. [`Client::outgoing_shares`] / [`Client::receive_share`] — exchange
///    `[~z_i]_j` with every other user;
/// 3. [`Client::mask_model`] — upload `~x_i = x_i + z_i`;
/// 4. [`Client::aggregated_share_for`] — if surviving, upload
///    `Σ_{i∈U₁} [~z_i]_j` for the server's one-shot recovery.
///
/// # Example
///
/// ```
/// use lsa_protocol::{Client, LsaConfig};
/// use lsa_field::Fp61;
/// use rand::SeedableRng;
///
/// let cfg = LsaConfig::new(4, 1, 3, 8).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let client = Client::<Fp61>::new(0, cfg, &mut rng).unwrap();
/// assert_eq!(client.outgoing_shares().len(), 3); // one per other user
/// ```
#[derive(Debug, Clone)]
pub struct Client<F> {
    id: usize,
    cfg: LsaConfig,
    group: usize,
    round: u64,
    // The code and the share material are shared, not copied, by the
    // clients ratcheted from this one.
    code: Arc<VandermondeCode<F>>,
    /// The local random mask `z_i`, padded length.
    mask: Vec<F>,
    /// Own coded segments `[~z_i]_j` for every `j ∈ [N]` (including self).
    coded_for: Arc<Vec<Vec<F>>>,
    /// Received coded segments `[~z_j]_i`, keyed by sender `j`.
    received: Arc<BTreeMap<usize, Vec<F>>>,
    /// Pad epoch for ratchet pads derived from this state: 0 at the
    /// base exchange, evolved in lockstep across the cohort by
    /// [`Client::bump_pad_epoch`] on a reseat ([`crate::ratchet`]).
    pad_epoch: u64,
    /// Ratchet edge seeds ([`crate::ratchet::edge_seed`]) by peer id,
    /// each derived on first use and valid for the current `pad_epoch`.
    /// Empty on a ratcheted client, which is never a base.
    edge_seeds: Vec<OnceLock<Seed>>,
}

impl<F: Field> Client<F> {
    /// Create the client for user `id` at round 0 (single-round use).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub fn new<R: Rng + ?Sized>(
        id: usize,
        cfg: LsaConfig,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        Self::for_round(id, 0, cfg, rng)
    }

    /// Create the client for user `id` serving federation round `round`,
    /// running the offline mask generation and encoding. Every message
    /// the client emits is stamped with `round`; every message it accepts
    /// must carry it, or it is rejected as
    /// [`ProtocolError::StaleRound`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub fn for_round<R: Rng + ?Sized>(
        id: usize,
        round: u64,
        cfg: LsaConfig,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        Self::for_round_in_group(id, round, 0, cfg, rng)
    }

    /// As [`Self::for_round`], but serving aggregation group `group` of a
    /// grouped topology ([`crate::topology`]): `id` is the *group-local*
    /// index, every emitted message is stamped with `group`, and any
    /// accepted message must carry it or be rejected as
    /// [`ProtocolError::WrongGroup`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `id >= cfg.n()`.
    pub fn for_round_in_group<R: Rng + ?Sized>(
        id: usize,
        round: u64,
        group: usize,
        cfg: LsaConfig,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        crate::check_id(id, &cfg)?;
        let code = VandermondeCode::new(cfg.n(), cfg.u())?;

        // z_i uniform over the padded length (Algorithm 1 line 4).
        let mask = lsa_field::ops::random_vector(cfg.padded_len(), rng);
        // Partition into U−T data segments (line 5), pad with T noise
        // segments (line 6).
        let mut segments = vandermonde::partition(&mask, cfg.data_segments())?;
        for _ in 0..cfg.t() {
            segments.push(lsa_field::ops::random_vector(cfg.segment_len(), rng));
        }
        debug_assert_eq!(segments.len(), cfg.u());
        // Encode with the T-private MDS matrix (line 7).
        let coded_for = code.encode_all(&segments);

        let mut received = BTreeMap::new();
        // A user trivially "receives" its own coded segment.
        received.insert(id, coded_for[id].clone());

        Ok(Self {
            id,
            cfg,
            group,
            round,
            code: Arc::new(code),
            mask,
            coded_for: Arc::new(coded_for),
            received: Arc::new(received),
            pad_epoch: 0,
            edge_seeds: (0..cfg.n()).map(|_| OnceLock::new()).collect(),
        })
    }

    /// Derive the client for a *ratcheted* round from retained base
    /// state ([`crate::ratchet`]): same peers, same coded shares, and a
    /// fresh mask `z_i = m_i + Σ_j σ(i,j)·PRG(ρ_ij ‖ nonce)` whose
    /// pairwise pads cancel over the full cohort. No new share traffic:
    /// `coded_for` / `received` are carried over from the base round,
    /// so recovery decodes `Σ m_i` exactly as it did then.
    ///
    /// The cohort is implicit: every peer the base client exchanged
    /// shares with (its `received` keys) is the fingerprinted
    /// membership — callers must have verified fingerprint agreement
    /// before ratcheting. `topology` selects which of those peers
    /// contribute a pad ([`crate::ratchet::PadTopology`]): the clique
    /// pads against all of them, the hypercube only along the
    /// `⌈log₂ n_g⌉` edges of this member's cohort rank. The retained
    /// share material (`coded_for` / `received`) is carried over
    /// unchanged either way, so recovery still decodes `Σ m_i`.
    ///
    /// The derived client shares the base's code and share material
    /// instead of copying it, and the base keeps each edge seed after
    /// its first use, so later rounds hash no share material: each edge
    /// costs one PRG expansion into a scratch pad reused across edges.
    pub(crate) fn ratcheted_from(
        base: &Self,
        round: u64,
        nonce: u64,
        topology: crate::ratchet::PadTopology,
    ) -> Self {
        let members: Vec<usize> = base.received.keys().copied().collect();
        let mut mask = base.mask.clone();
        let mut pad = vec![F::ZERO; mask.len()];
        for peer in topology.partners(&members, base.id) {
            let edge = base.edge_seed(peer);
            crate::ratchet::add_edge_pad(&mut mask, &mut pad, edge, nonce, base.id, peer);
        }
        Self {
            id: base.id,
            cfg: base.cfg,
            group: base.group,
            round,
            code: Arc::clone(&base.code),
            mask,
            coded_for: Arc::clone(&base.coded_for),
            received: Arc::clone(&base.received),
            pad_epoch: base.pad_epoch,
            edge_seeds: Vec::new(),
        }
    }

    /// The ratchet edge seed towards `peer` under the current pad
    /// epoch, from the cache when this client has one.
    fn edge_seed(&self, peer: usize) -> Seed {
        let derive = || {
            crate::ratchet::edge_seed(
                self.group,
                self.round,
                self.pad_epoch,
                self.id,
                peer,
                &self.coded_for[peer],
                &self.received[&peer],
            )
        };
        match self.edge_seeds.get(peer) {
            Some(cell) => *cell.get_or_init(derive),
            None => derive(),
        }
    }

    /// Evolve the pad epoch across a reseat ([`crate::ratchet`]): the
    /// mask and share material — the recovery-critical state — are
    /// untouched; only future ratchet pads derive under the new epoch.
    /// Every member of a leaf must bump with the same `seed` so the
    /// refreshed pads still cancel. The cached edge seeds belong to the
    /// old epoch and are dropped.
    pub(crate) fn bump_pad_epoch(&mut self, seed: u64) {
        self.pad_epoch = crate::ratchet::reseat_epoch(self.pad_epoch, seed);
        for cell in &mut self.edge_seeds {
            cell.take();
        }
    }

    /// The peers this client holds base shares from (its ratchetable
    /// cohort), ascending; includes the client itself.
    #[cfg(test)]
    pub(crate) fn share_peers(&self) -> Vec<usize> {
        self.received.keys().copied().collect()
    }

    /// This client's user index (group-local in a grouped topology).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The federation round this client is serving.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The aggregation group this client belongs to (0 when flat).
    pub fn group(&self) -> usize {
        self.group
    }

    /// The protocol configuration.
    pub fn config(&self) -> &LsaConfig {
        &self.cfg
    }

    /// The coded mask shares destined to every *other* user
    /// (Algorithm 1 line 8).
    pub fn outgoing_shares(&self) -> Vec<CodedMaskShare<F>> {
        (0..self.cfg.n())
            .filter(|&j| j != self.id)
            .map(|j| CodedMaskShare {
                from: self.id,
                to: j,
                group: self.group,
                round: self.round,
                payload: self.coded_for[j].clone(),
            })
            .collect()
    }

    /// Accept the coded share `[~z_from]_id` from another user
    /// (Algorithm 1 line 9).
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::WrongGroup`] if the share belongs to another
    ///   aggregation group (checked first: local indices only mean
    ///   anything within the right group);
    /// * [`ProtocolError::StaleRound`] if the share belongs to another
    ///   round (checked *before* the duplicate check, so a cross-round
    ///   replay is never misreported as a duplicate);
    /// * [`ProtocolError::MisroutedShare`] if the share is not addressed
    ///   to this client;
    /// * [`ProtocolError::UnknownUser`] for an out-of-range sender;
    /// * [`ProtocolError::DuplicateMessage`] if the sender already shared;
    /// * [`ProtocolError::Coding`] for a wrong payload length.
    pub fn receive_share(&mut self, share: CodedMaskShare<F>) -> Result<(), ProtocolError> {
        check_share(&self.cfg, self.id, self.group, self.round, &share)?;
        if self.received.contains_key(&share.from) {
            return Err(ProtocolError::DuplicateMessage(share.from));
        }
        // the sole owner during the exchange, so this never copies
        Arc::make_mut(&mut self.received).insert(share.from, share.payload);
        Ok(())
    }

    /// How many coded shares have been received (incl. the self share).
    pub fn shares_received(&self) -> usize {
        self.received.len()
    }

    /// The coded share `[~z_from]_id` received from `from`, if any.
    pub(crate) fn share_from(&self, from: usize) -> Option<&[F]> {
        self.received.get(&from).map(Vec::as_slice)
    }

    /// Mask a quantized local model: `~x_i = x_i + z_i` (Algorithm 1
    /// line 14). The input is zero-padded to the padded length.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Coding`] if the model length is not
    /// exactly `cfg.d()`.
    pub fn mask_model(&self, model: &[F]) -> Result<MaskedModel<F>, ProtocolError> {
        crate::check_len(self.cfg.d(), model.len())?;
        let mut payload = model.to_vec();
        payload.resize(self.cfg.padded_len(), F::ZERO);
        lsa_field::ops::add_assign(&mut payload, &self.mask);
        Ok(MaskedModel {
            from: self.id,
            group: self.group,
            round: self.round,
            payload,
        })
    }

    /// Mask a *weighted* model `s_i·x_i` (Remark 3 of the paper): the
    /// weight multiplies the model only — the mask is shared unscaled, so
    /// the server recovers `Σ s_i·x_i` and can divide by `Σ s_i` to get
    /// the weighted average (e.g. for unequal dataset sizes).
    ///
    /// # Errors
    ///
    /// Same as [`Self::mask_model`].
    pub fn mask_weighted_model(
        &self,
        model: &[F],
        weight: u64,
    ) -> Result<MaskedModel<F>, ProtocolError> {
        let w = F::from_u64(weight);
        let weighted: Vec<F> = model.iter().map(|&x| x * w).collect();
        self.mask_model(&weighted)
    }

    /// Compute the aggregated coded mask `Σ_{i∈survivors} [~z_i]_id`
    /// for the server's one-shot recovery (Algorithm 1 lines 20–22).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::MissingShares`] if some survivor's coded
    /// share was never received.
    pub fn aggregated_share_for(
        &self,
        survivors: &[usize],
    ) -> Result<AggregatedShare<F>, ProtocolError> {
        let mut shares: Vec<&[F]> = Vec::with_capacity(survivors.len());
        for &i in survivors {
            shares.push(
                self.share_from(i)
                    .ok_or(ProtocolError::MissingShares { from: i })?,
            );
        }
        // one widened pass over all survivor shares, reduced once per
        // element
        let acc = lsa_field::ops::sum_vectors(shares.iter().copied())
            .unwrap_or_else(|| vec![F::ZERO; self.cfg.segment_len()]);
        Ok(AggregatedShare {
            from: self.id,
            group: self.group,
            round: self.round,
            payload: acc,
        })
    }

    /// The evaluation point this client's shares correspond to (needed by
    /// anyone decoding with this client's aggregated share).
    pub fn evaluation_point(&self) -> F {
        self.code.point(self.id)
    }
}

/// The checks of [`Client::receive_share`] short of the duplicate
/// check, for a share addressed to client `id` of `group` in `round`.
pub(crate) fn check_share<F>(
    cfg: &LsaConfig,
    id: usize,
    group: usize,
    round: u64,
    share: &CodedMaskShare<F>,
) -> Result<(), ProtocolError> {
    crate::check_group(share.group, group)?;
    crate::check_round(share.round, round)?;
    if share.to != id {
        return Err(ProtocolError::MisroutedShare {
            expected: id,
            got: share.to,
        });
    }
    if share.from >= cfg.n() {
        return Err(ProtocolError::UnknownUser(share.from));
    }
    crate::check_len(cfg.segment_len(), share.payload.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::Fp61;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> LsaConfig {
        LsaConfig::new(5, 1, 3, 10).unwrap()
    }

    fn cfg4() -> LsaConfig {
        LsaConfig::new(4, 1, 3, 6).unwrap()
    }

    #[test]
    fn new_client_has_own_share() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = Client::<Fp61>::new(2, cfg(), &mut rng).unwrap();
        assert_eq!(c.shares_received(), 1);
        assert_eq!(c.outgoing_shares().len(), 4);
    }

    #[test]
    fn out_of_range_id_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(Client::<Fp61>::new(7, cfg(), &mut rng).is_err());
    }

    #[test]
    fn misrouted_share_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let c0 = Client::<Fp61>::new(0, cfg(), &mut rng).unwrap();
        let mut c1 = Client::<Fp61>::new(1, cfg(), &mut rng).unwrap();
        // share addressed to user 2, delivered to user 1
        let share = c0
            .outgoing_shares()
            .into_iter()
            .find(|s| s.to == 2)
            .unwrap();
        assert!(matches!(
            c1.receive_share(share),
            Err(ProtocolError::MisroutedShare {
                expected: 1,
                got: 2
            })
        ));
    }

    #[test]
    fn duplicate_share_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let c0 = Client::<Fp61>::new(0, cfg(), &mut rng).unwrap();
        let mut c1 = Client::<Fp61>::new(1, cfg(), &mut rng).unwrap();
        let share = c0
            .outgoing_shares()
            .into_iter()
            .find(|s| s.to == 1)
            .unwrap();
        c1.receive_share(share.clone()).unwrap();
        assert!(matches!(
            c1.receive_share(share),
            Err(ProtocolError::DuplicateMessage(0))
        ));
    }

    #[test]
    fn mask_model_checks_length() {
        let mut rng = StdRng::seed_from_u64(5);
        let c = Client::<Fp61>::new(0, cfg(), &mut rng).unwrap();
        assert!(c.mask_model(&[Fp61::ZERO; 9]).is_err());
        let m = c.mask_model(&[Fp61::ZERO; 10]).unwrap();
        assert_eq!(m.payload.len(), cfg().padded_len());
    }

    #[test]
    fn masked_zero_model_equals_mask() {
        let mut rng = StdRng::seed_from_u64(6);
        let c = Client::<Fp61>::new(0, cfg(), &mut rng).unwrap();
        let m = c.mask_model(&[Fp61::ZERO; 10]).unwrap();
        assert_eq!(m.payload, c.mask);
    }

    #[test]
    fn ratcheted_masks_sum_to_base_masks() {
        // full offline exchange among all 5 clients, then ratchet each:
        // the pairwise pads must telescope away, so Σ z_i^(r+1) = Σ m_i
        // while every individual mask is fresh — under both topologies
        use crate::ratchet::PadTopology;
        let mut rng = StdRng::seed_from_u64(8);
        let mut clients: Vec<Client<Fp61>> = (0..5)
            .map(|i| Client::new(i, cfg(), &mut rng).unwrap())
            .collect();
        let shares: Vec<_> = clients.iter().flat_map(|c| c.outgoing_shares()).collect();
        for s in shares {
            clients[s.to].receive_share(s).unwrap();
        }
        let sum = |cs: &[Client<Fp61>]| {
            let mut acc = vec![Fp61::ZERO; cfg().padded_len()];
            for c in cs {
                lsa_field::ops::add_assign(&mut acc, &c.mask);
            }
            acc
        };
        let base_sum = sum(&clients);
        for topology in [PadTopology::Clique, PadTopology::Hypercube] {
            let ratcheted: Vec<Client<Fp61>> = clients
                .iter()
                .map(|c| Client::ratcheted_from(c, 1, 0xA5A5, topology))
                .collect();
            assert_eq!(sum(&ratcheted), base_sum, "pads must cancel in the sum");
            for (b, r) in clients.iter().zip(&ratcheted) {
                assert_ne!(b.mask, r.mask, "client {}: mask must be refreshed", b.id);
                assert_eq!(r.round, 1);
                assert_eq!(r.shares_received(), b.shares_received());
            }
            // a different nonce refreshes every mask again
            let again = Client::ratcheted_from(&clients[0], 2, 0x5A5A, topology);
            assert_ne!(again.mask, ratcheted[0].mask);
        }
        assert_eq!(clients[0].share_peers(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn epoch_bumped_ratchets_still_cancel_and_differ() {
        // a uniform epoch bump across the cohort keeps the pads
        // cancelling while refreshing every edge secret
        use crate::ratchet::PadTopology;
        let mut rng = StdRng::seed_from_u64(9);
        let mut clients: Vec<Client<Fp61>> = (0..4)
            .map(|i| Client::new(i, cfg4(), &mut rng).unwrap())
            .collect();
        let shares: Vec<_> = clients.iter().flat_map(|c| c.outgoing_shares()).collect();
        for s in shares {
            clients[s.to].receive_share(s).unwrap();
        }
        let before: Vec<Client<Fp61>> = clients
            .iter()
            .map(|c| Client::ratcheted_from(c, 1, 7, PadTopology::Hypercube))
            .collect();
        for c in clients.iter_mut() {
            c.bump_pad_epoch(0xD00D);
        }
        let after: Vec<Client<Fp61>> = clients
            .iter()
            .map(|c| Client::ratcheted_from(c, 1, 7, PadTopology::Hypercube))
            .collect();
        let sum = |cs: &[Client<Fp61>]| {
            let mut acc = vec![Fp61::ZERO; cfg4().padded_len()];
            for c in cs {
                lsa_field::ops::add_assign(&mut acc, &c.mask);
            }
            acc
        };
        assert_eq!(sum(&before), sum(&after), "both epochs cancel to Σ m_i");
        for (b, a) in before.iter().zip(&after) {
            assert_ne!(b.mask, a.mask, "epoch must refresh the edge secrets");
        }
    }

    /// The ratcheted mask of `c` computed straight from the definition:
    /// `pair_seed → derive(epoch) → derive(nonce) → expand` per edge,
    /// with no cache involved.
    fn reference_mask(
        c: &Client<Fp61>,
        nonce: u64,
        topology: crate::ratchet::PadTopology,
    ) -> Vec<Fp61> {
        let mut mask = c.mask.clone();
        for peer in topology.partners(&c.share_peers(), c.id) {
            let (sent, recv) = (&c.coded_for[peer], &c.received[&peer]);
            let (lo, hi, lo_to_hi, hi_to_lo) = if c.id < peer {
                (c.id, peer, sent, recv)
            } else {
                (peer, c.id, recv, sent)
            };
            let seed = crate::ratchet::pair_seed(c.group, c.round, lo, hi, lo_to_hi, hi_to_lo)
                .derive(c.pad_epoch)
                .derive(nonce);
            let pad: Vec<Fp61> = lsa_crypto::FieldPrg::new(seed).expand(mask.len());
            if c.id < peer {
                lsa_field::ops::add_assign(&mut mask, &pad);
            } else {
                lsa_field::ops::sub_assign(&mut mask, &pad);
            }
        }
        mask
    }

    #[test]
    fn cached_edge_seeds_match_the_reference_chain_across_epochs() {
        use crate::asynchronous::AsyncClient;
        use crate::ratchet::PadTopology;
        for topology in [PadTopology::Clique, PadTopology::Hypercube] {
            let mut rng = StdRng::seed_from_u64(10);
            // a non-zero group and base round, so both are really bound
            let mut clients: Vec<Client<Fp61>> = (0..5)
                .map(|i| Client::for_round_in_group(i, 5, 3, cfg(), &mut rng).unwrap())
                .collect();
            let shares: Vec<_> = clients.iter().flat_map(|c| c.outgoing_shares()).collect();
            for s in shares {
                clients[s.to].receive_share(s).unwrap();
            }
            // the buffered client masks round 5 through the same state
            let mut buffered: Vec<AsyncClient<Fp61>> = (0..5)
                .map(|i| AsyncClient::new(i, cfg()).unwrap())
                .collect();
            let mut shares = Vec::new();
            for c in buffered.iter_mut() {
                shares.extend(c.generate_round_mask(5, &mut rng).unwrap());
            }
            for s in shares {
                buffered[s.to].receive_share(s).unwrap();
            }
            let mut derived = 6;
            for (epoch_seed, nonces) in [(None, [11, 12]), (Some(0xBEEF), [11, 13])] {
                if let Some(seed) = epoch_seed {
                    for c in clients.iter_mut() {
                        c.bump_pad_epoch(seed);
                    }
                    for c in buffered.iter_mut() {
                        c.rounds.get_mut(&5).unwrap().bump_pad_epoch(seed);
                    }
                }
                // the first nonce fills the cache, the second reads it
                for nonce in nonces {
                    for c in &clients {
                        let got = Client::ratcheted_from(c, 6, nonce, topology);
                        assert_eq!(
                            got.mask,
                            reference_mask(c, nonce, topology),
                            "{topology:?}, epoch {}, nonce {nonce}, client {}",
                            c.pad_epoch,
                            c.id
                        );
                    }
                    for b in buffered.iter_mut() {
                        b.ratchet_round_mask(derived, 5, nonce, topology).unwrap();
                        let base = &b.rounds[&5];
                        assert_eq!(
                            b.rounds[&derived].mask,
                            reference_mask(base, nonce, topology),
                            "buffered, {topology:?}, epoch {}, nonce {nonce}, client {}",
                            base.pad_epoch,
                            base.id
                        );
                    }
                    derived += 1;
                }
                assert!(
                    clients[0].edge_seeds.iter().any(|s| s.get().is_some()),
                    "the ratchet went through the cache"
                );
                assert!(
                    buffered[0].rounds[&5]
                        .edge_seeds
                        .iter()
                        .any(|s| s.get().is_some()),
                    "the buffered ratchet went through the cache"
                );
            }
        }
    }

    #[test]
    fn ratcheted_client_shares_the_base_material() {
        let mut rng = StdRng::seed_from_u64(11);
        let base = Client::<Fp61>::new(0, cfg(), &mut rng).unwrap();
        let derived = Client::ratcheted_from(&base, 1, 3, crate::ratchet::PadTopology::Clique);
        assert!(Arc::ptr_eq(&base.code, &derived.code));
        assert!(Arc::ptr_eq(&base.coded_for, &derived.coded_for));
        assert!(Arc::ptr_eq(&base.received, &derived.received));
    }

    #[test]
    fn aggregated_share_requires_all_survivor_shares() {
        let mut rng = StdRng::seed_from_u64(7);
        let c = Client::<Fp61>::new(0, cfg(), &mut rng).unwrap();
        // survivor 3's share never arrived
        assert!(matches!(
            c.aggregated_share_for(&[0, 3]),
            Err(ProtocolError::MissingShares { from: 3 })
        ));
        // own share suffices for survivor set {0}
        assert!(c.aggregated_share_for(&[0]).is_ok());
    }
}
