//! Stable-cohort mask ratchet: skip the offline phase when the cohort
//! doesn't change.
//!
//! LightSecAgg re-runs the full offline mask-encoding/share-exchange
//! phase every round, even when the cohort is identical to the last
//! round's. In that stable case the expensive part — the all-to-all
//! [`CodedMaskShare`](crate::CodedMaskShare) exchange — can be elided
//! entirely: every client *retains* its round-r base state (its own
//! mask `m_i`, the coded shares it sent, and the coded shares it
//! received), and derives its round-(r+k) mask as
//!
//! ```text
//!     z_i^(r+k) = m_i + u_i^(r+k)
//!     u_i^(r+k) = Σ_{j ∈ cohort, j ≠ i}  σ(i,j) · PRG(ρ_ij ‖ nonce_{r+k})
//! ```
//!
//! where `σ(i,j) = +1` for the lower-id endpoint of the pair and `−1`
//! for the higher one, and the pairwise seed `ρ_ij` is hashed from
//! material both endpoints of the edge already hold — the two coded
//! shares that crossed the edge during the base round's offline phase.
//! The pairwise pads telescope to zero over the full cohort, so the sum
//! of the ratcheted masks equals the sum of the *base* masks, and the
//! server recovers `Σ m_i` through the unchanged partial-recovery
//! machinery (survivors answer the survivor announcement with sums of
//! their *retained* base shares). No new share traffic, no new
//! recovery code path.
//!
//! The handshake that replaces the offline phase is a single
//! [`RatchetAnnouncement`] round trip: the server commits a fresh
//! per-round `nonce` (and the cohort fingerprint it believes in), each
//! client checks the fingerprint against its retained state and acks.
//! Any churn, reassignment, or disagreement surfaces as the typed
//! [`ProtocolError::RatchetMismatch`]
//! and falls back to the ordinary full offline exchange.
//!
//! Security: in a ratcheted round each mask is `m_i` plus a pad that is
//! *pseudorandom* under the committed nonce, so per-round privacy
//! degrades from information-theoretic to computational (PRG) — the
//! pads are fresh per round (the nonce is hashed into every pad seed),
//! so masked uploads from different rounds never reuse a pad, and the
//! base masks `m_i` are never exposed because the server only ever
//! learns `Σ m_i` over the announced survivor set. See README
//! ("Stable-cohort fast path") for the full argument.

use lsa_crypto::{sha256, FieldPrg, Seed};
use lsa_field::Field;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::LsaConfig;
use crate::session::{Outgoing, Recipient};
use crate::wire::Envelope;
use crate::ProtocolError;

/// Domain tag for per-member fingerprint digests.
const FP_DOMAIN: &[u8] = b"lsa-ratchet-fp-v1";
/// Domain tag for pairwise pad seeds.
const PAIR_DOMAIN: &[u8] = b"lsa-ratchet-pair-v1";
/// Domain tag for the pad-epoch evolution across reseats.
const EPOCH_DOMAIN: &[u8] = b"lsa-ratchet-epoch-v1";

/// Sender id the server stamps into a [`RatchetAnnouncement`]; client
/// acks carry the client's own id, which is always `< n < u32::MAX`.
pub const RATCHET_FROM_SERVER: u32 = u32::MAX;

/// Order-independent digest of a cohort: who participates, in which
/// seat, under which per-group code parameters.
///
/// Two rounds with equal fingerprints see the same clients in the same
/// leaf slots under the same `LsaConfig`, which is exactly the
/// condition under which retained offline state can be re-used. The
/// combine is a wrapping sum of per-member SHA-256 digests, so the
/// fingerprint does not depend on cohort ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CohortFingerprint(u64);

impl CohortFingerprint {
    /// Rebuild a fingerprint from its raw wire representation.
    pub fn from_raw(raw: u64) -> Self {
        CohortFingerprint(raw)
    }

    /// The raw 64-bit value (what [`RatchetAnnouncement`] carries).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Fingerprint a cohort given per-member `(group, config, global
    /// id, slot)` tuples. Order-independent.
    pub fn of_members<I>(members: I) -> Self
    where
        I: IntoIterator<Item = (usize, LsaConfig, usize, usize)>,
    {
        let mut acc = 0u64;
        for (group, cfg, id, slot) in members {
            acc = acc.wrapping_add(member_digest(group, cfg, id, slot));
        }
        CohortFingerprint(acc)
    }

    /// Fingerprint a flat (single-group) cohort, where each member's
    /// slot is its own id.
    pub fn of_flat(group: usize, cfg: LsaConfig, cohort: &[usize]) -> Self {
        Self::of_members(cohort.iter().map(|&id| (group, cfg, id, id)))
    }
}

/// SHA-256-derived digest of one cohort seat.
fn member_digest(group: usize, cfg: LsaConfig, id: usize, slot: usize) -> u64 {
    let mut buf = Vec::with_capacity(FP_DOMAIN.len() + 8 * 7);
    buf.extend_from_slice(FP_DOMAIN);
    for v in [
        group as u64,
        cfg.n() as u64,
        cfg.t() as u64,
        cfg.u() as u64,
        cfg.d() as u64,
        id as u64,
        slot as u64,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    let digest = sha256::digest(&buf);
    u64::from_le_bytes(digest[..8].try_into().expect("8-byte prefix"))
}

/// The wire handshake that replaces the offline phase in a ratcheted
/// round.
///
/// Server → client: commits the per-round `nonce` under the cohort
/// `fingerprint` the server expects (`from` is
/// [`RATCHET_FROM_SERVER`]). Client → server: echoes the same fields as
/// an ack (`from` is the client id). A mismatched fingerprint or nonce
/// is [`ProtocolError::RatchetMismatch`];
/// a replayed announcement from an earlier round is
/// [`ProtocolError::StaleRound`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatchetAnnouncement {
    /// [`RATCHET_FROM_SERVER`] for the commit, the client id for acks.
    pub from: u32,
    /// Group the round belongs to (wire group id).
    pub group: usize,
    /// The round being opened without an offline exchange.
    pub round: u64,
    /// Per-round nonce hashed into every pairwise pad seed.
    pub nonce: u64,
    /// [`CohortFingerprint::raw`] of the cohort both sides must agree on.
    pub fingerprint: u64,
}

/// The batched form of [`RatchetAnnouncement`]: one commit carries the
/// nonces of `W` consecutive rounds, so a steady stretch pays the
/// commit/ack round trip once per window instead of once per round.
///
/// Server → client: commits `nonces[k]` for round `round + k` under
/// `fingerprint` and the pad `topology` both sides must use (`from` is
/// [`RATCHET_FROM_SERVER`]). Client → server: echoes every field as an
/// ack (`from` is the client id). The first window round is derived and
/// acked immediately; later rounds are joined locally with **zero**
/// wire traffic. Any churn, fingerprint or topology disagreement is
/// [`ProtocolError::RatchetMismatch`]
/// and purges the remaining window nonces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatchetWindowCommit {
    /// [`RATCHET_FROM_SERVER`] for the commit, the client id for acks.
    pub from: u32,
    /// Group the window belongs to (wire group id).
    pub group: usize,
    /// First round the window covers.
    pub round: u64,
    /// [`CohortFingerprint::raw`] of the cohort both sides must agree on.
    pub fingerprint: u64,
    /// Pad topology every window round derives its pads under.
    pub topology: PadTopology,
    /// Per-round nonces: `nonces[k]` serves round `round + k`.
    pub nonces: Vec<u64>,
}

impl RatchetWindowCommit {
    /// The committed nonce for `round`, if this window covers it.
    pub fn nonce_for(&self, round: u64) -> Option<u64> {
        let offset = round.checked_sub(self.round)?;
        self.nonces.get(usize::try_from(offset).ok()?).copied()
    }
}

/// Is the stable-cohort ratchet enabled? Defaults to on; set
/// `LSA_RATCHET=off` (or `0`) to force the full offline exchange every
/// round — both paths must produce identical aggregates. Each leaf
/// federation reads the knob once, at construction, like
/// [`pad_topology`] and [`commit_window`]; changing it afterwards does
/// not affect a built federation.
pub fn ratchet_enabled() -> bool {
    match std::env::var("LSA_RATCHET") {
        Ok(v) => !matches!(v.trim(), "off" | "0" | "false"),
        Err(_) => true,
    }
}

/// Which pairwise pads a ratcheted member derives per round.
///
/// The signed pads (`+PRG` at the lower endpoint, `−PRG` at the
/// higher) cancel edge-by-edge, so the telescoping argument holds over
/// **any** agreed edge set — not just the full clique. The topology is
/// therefore a pure cost/privacy dial:
///
/// | topology  | pads per member | collusion threshold |
/// |-----------|-----------------|---------------------|
/// | clique    | `n_g − 1`       | `n_g − 2`           |
/// | hypercube | `⌈log₂ n_g⌉`    | `⌈log₂ n_g⌉ − 1`*   |
///
/// *A member's ratchet pad is the sum of its edge pads; an adversary
/// must corrupt **all** of a member's topology neighbours to strip its
/// pad, so the per-member threshold drops from `n_g − 2` (clique) to
/// `degree − 1`. The base masks `m_i` keep their information-theoretic
/// `T`-privacy either way — only the *per-round refresh* weakens.
///
/// Selected via `LSA_PAD_TOPOLOGY` (`clique` | `hypercube`); the
/// default is `hypercube`, which breaks the `O(n_g · d)` PRG bound of
/// the ratcheted round down to `O(log n_g · d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PadTopology {
    /// Every pair derives a pad: `n_g − 1` PRG expansions per member.
    Clique,
    /// Pads only along the hypercube edges of the member's cohort rank:
    /// `⌈log₂ n_g⌉` PRG expansions per member.
    #[default]
    Hypercube,
}

impl PadTopology {
    /// Stable one-byte wire tag (carried in [`RatchetWindowCommit`]).
    pub fn tag(self) -> u8 {
        match self {
            PadTopology::Clique => 0,
            PadTopology::Hypercube => 1,
        }
    }

    /// Decode a wire tag; `None` for an unknown byte.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(PadTopology::Clique),
            1 => Some(PadTopology::Hypercube),
            _ => None,
        }
    }

    /// Human-readable name (knob values, bench row labels, JSON).
    pub fn name(self) -> &'static str {
        match self {
            PadTopology::Clique => "clique",
            PadTopology::Hypercube => "hypercube",
        }
    }

    /// The maximum pads any one member derives in a cohort of `m`.
    pub fn max_degree(self, m: usize) -> usize {
        match self {
            PadTopology::Clique => m.saturating_sub(1),
            PadTopology::Hypercube => {
                // ⌈log₂ m⌉: the number of hypercube dimensions needed
                // to address m seats
                let mut bits = 0;
                while (1usize << bits) < m {
                    bits += 1;
                }
                bits
            }
        }
    }

    /// The peers member `id` pads against, given the ascending cohort
    /// `members` (which contains `id`). Symmetric: `a ∈ partners(b)`
    /// iff `b ∈ partners(a)`, so every edge pad appears exactly twice
    /// with opposite signs and cancels in the cohort sum.
    ///
    /// Hypercube edges connect cohort *ranks* differing in one bit
    /// (edges to ranks `≥ m` are simply absent — the incomplete
    /// hypercube stays connected for any `m`), so the edge set depends
    /// only on the agreed membership, never on raw id values.
    pub(crate) fn partners(self, members: &[usize], id: usize) -> Vec<usize> {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "sorted cohort");
        match self {
            PadTopology::Clique => members.iter().copied().filter(|&j| j != id).collect(),
            PadTopology::Hypercube => {
                let m = members.len();
                let rank = members
                    .binary_search(&id)
                    .expect("member is in its own cohort");
                let mut out = Vec::with_capacity(self.max_degree(m));
                let mut bit = 1usize;
                while bit < m {
                    let peer = rank ^ bit;
                    if peer < m {
                        out.push(members[peer]);
                    }
                    bit <<= 1;
                }
                out
            }
        }
    }
}

/// The pad topology in force, from `LSA_PAD_TOPOLOGY`
/// (`clique` | `hypercube`); defaults to [`PadTopology::Hypercube`].
/// Unrecognised values fall back to the default.
pub fn pad_topology() -> PadTopology {
    match std::env::var("LSA_PAD_TOPOLOGY") {
        Ok(v) if v.trim().eq_ignore_ascii_case("clique") => PadTopology::Clique,
        _ => PadTopology::Hypercube,
    }
}

/// Default number of rounds a single [`RatchetWindowCommit`] covers.
pub const DEFAULT_COMMIT_WINDOW: usize = 8;

/// Hard cap on the commit-window knob (also the decode-side sanity
/// bound on the nonce count a commit may carry).
pub const MAX_COMMIT_WINDOW: usize = 1024;

/// The batched-commit window size `W`, from `LSA_COMMIT_WINDOW`:
/// one server commit carries `W` round nonces, amortizing the
/// commit/ack handshake to `1/W` round trips over a steady stretch.
/// `W = 1` reproduces the per-round [`RatchetAnnouncement`] handshake
/// byte-for-byte. Defaults to [`DEFAULT_COMMIT_WINDOW`]; values are
/// clamped to `1..=`[`MAX_COMMIT_WINDOW`].
pub fn commit_window() -> usize {
    match std::env::var("LSA_COMMIT_WINDOW") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(w) => w.clamp(1, MAX_COMMIT_WINDOW),
            Err(_) => DEFAULT_COMMIT_WINDOW,
        },
        Err(_) => DEFAULT_COMMIT_WINDOW,
    }
}

/// Evolve the pad epoch across a reseat ([`crate::topology`]'s
/// `reassign`): every member of a leaf folds the same `(old epoch,
/// reseat seed)` through SHA-256, so the refreshed edge secrets still
/// agree pairwise and the pads keep cancelling — while pads from
/// before the reseat become underivable without the new epoch.
pub(crate) fn reseat_epoch(old: u64, seed: u64) -> u64 {
    let mut buf = Vec::with_capacity(EPOCH_DOMAIN.len() + 16);
    buf.extend_from_slice(EPOCH_DOMAIN);
    buf.extend_from_slice(&old.to_le_bytes());
    buf.extend_from_slice(&seed.to_le_bytes());
    let digest = sha256::digest(&buf);
    u64::from_le_bytes(digest[..8].try_into().expect("8-byte prefix"))
}

/// Derive the pairwise pad seed for the edge `lo ↔ hi` (ids with
/// `lo < hi`) from the two coded shares that crossed that edge during
/// the base round's offline phase.
///
/// Both endpoints hold both shares (each sent one and received the
/// other), and no third party holds either: a share `S_{i→j}` is a
/// point on client i's degree-(U−1) encoding polynomial, delivered only
/// to j. Binding the seed to `(group, base_round, lo, hi)` domain-
/// separates edges; the per-round nonce is applied by the caller via
/// [`Seed::derive`].
pub(crate) fn pair_seed<F: Field>(
    group: usize,
    base_round: u64,
    lo: usize,
    hi: usize,
    lo_to_hi: &[F],
    hi_to_lo: &[F],
) -> Seed {
    let mut buf =
        Vec::with_capacity(PAIR_DOMAIN.len() + 8 * 4 + 8 * (lo_to_hi.len() + hi_to_lo.len()));
    buf.extend_from_slice(PAIR_DOMAIN);
    for v in [group as u64, base_round, lo as u64, hi as u64] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for x in lo_to_hi {
        buf.extend_from_slice(&x.residue().to_le_bytes());
    }
    for x in hi_to_lo {
        buf.extend_from_slice(&x.residue().to_le_bytes());
    }
    Seed(sha256::digest(&buf))
}

/// The nonce-independent secret of the edge between client `id` and
/// `peer`: the [`pair_seed`] under the pad `epoch` both endpoints
/// evolved in lockstep across reseats ([`reseat_epoch`]; 0 until the
/// first reseat). `sent` is the share `id` encoded **for** `peer` in
/// the base round, `recv` the share it received **from** `peer`; both
/// endpoints derive the same seed. It depends only on retained base
/// state, so a base can compute it once and reuse it every round.
pub(crate) fn edge_seed<F: Field>(
    group: usize,
    base_round: u64,
    epoch: u64,
    id: usize,
    peer: usize,
    sent: &[F],
    recv: &[F],
) -> Seed {
    debug_assert_ne!(id, peer);
    let (lo, hi, lo_to_hi, hi_to_lo) = if id < peer {
        (id, peer, sent, recv)
    } else {
        (peer, id, recv, sent)
    };
    pair_seed(group, base_round, lo, hi, lo_to_hi, hi_to_lo).derive(epoch)
}

/// Add client `id`'s pad on the edge to `peer` for the round `nonce`
/// into `mask` (in place): `+PRG(edge ‖ nonce)` if `id` is the lower
/// endpoint, `−PRG(edge ‖ nonce)` if it is the higher one. `edge` is the
/// [`edge_seed`]; `pad` is scratch space of `mask`'s length, overwritten,
/// so one buffer serves every edge of a member.
pub(crate) fn add_edge_pad<F: Field>(
    mask: &mut [F],
    pad: &mut [F],
    edge: Seed,
    nonce: u64,
    id: usize,
    peer: usize,
) {
    FieldPrg::new(edge.derive(nonce)).fill(pad);
    if id < peer {
        lsa_field::ops::add_assign(mask, pad);
    } else {
        lsa_field::ops::sub_assign(mask, pad);
    }
}

// ---------------------------------------------------------------------
// The commit/ack handshake, shared by the sync and buffered variants
// ---------------------------------------------------------------------

pub(crate) use handshake::{Commit, CommitTracker, RatchetBank};

/// The handshake types are public only in name: the module is private,
/// so the crate-private variant seam ([`crate::federation`]) can name
/// them without exporting them.
mod handshake {
    use super::*;

    /// A server ratchet commit in either wire form: a single-round
    /// [`RatchetAnnouncement`] (`topology` is `None`, one nonce) or a
    /// [`RatchetWindowCommit`] whose `nonces[k]` serves round `round + k`.
    #[derive(Debug, Clone)]
    pub struct Commit {
        pub(crate) round: u64,
        pub(crate) fingerprint: u64,
        pub(crate) nonces: Vec<u64>,
        pub(crate) topology: Option<PadTopology>,
    }

    impl Commit {
        /// The commit a ratchet `envelope` carries.
        ///
        /// # Errors
        ///
        /// [`ProtocolError::UnexpectedEnvelope`] for an ack (a ratchet
        /// envelope not sent by the server), a window without nonces, or
        /// any other kind.
        pub(crate) fn from_server<F: Field>(envelope: &Envelope<F>) -> Result<Self, ProtocolError> {
            let unexpected = ProtocolError::UnexpectedEnvelope {
                kind: envelope.kind(),
            };
            let (from, commit) = match envelope {
                Envelope::RatchetAnnouncement(a) => (
                    a.from,
                    Commit {
                        round: a.round,
                        fingerprint: a.fingerprint,
                        nonces: vec![a.nonce],
                        topology: None,
                    },
                ),
                Envelope::RatchetWindowCommit(w) => (
                    w.from,
                    Commit {
                        round: w.round,
                        fingerprint: w.fingerprint,
                        nonces: w.nonces.clone(),
                        topology: Some(w.topology),
                    },
                ),
                _ => return Err(unexpected),
            };
            if from != RATCHET_FROM_SERVER || commit.nonces.is_empty() {
                return Err(unexpected);
            }
            Ok(commit)
        }

        /// The envelope sent as `from` in `group`: the server's commit, or
        /// a client's ack (which echoes every field but a window's nonces).
        fn envelope<F>(&self, from: u32, group: usize) -> Envelope<F> {
            match self.topology {
                None => Envelope::RatchetAnnouncement(RatchetAnnouncement {
                    from,
                    group,
                    round: self.round,
                    nonce: self.nonces[0],
                    fingerprint: self.fingerprint,
                }),
                Some(topology) => Envelope::RatchetWindowCommit(RatchetWindowCommit {
                    from,
                    group,
                    round: self.round,
                    fingerprint: self.fingerprint,
                    topology,
                    nonces: if from == RATCHET_FROM_SERVER {
                        self.nonces.clone()
                    } else {
                        Vec::new()
                    },
                }),
            }
        }
    }

    /// Server half of the handshake: the one commit in flight, the cohort
    /// it was sent to, the acks collected so far, and the queued commit
    /// envelopes (a commit precedes its round, so no per-round session can
    /// carry them).
    #[derive(Debug, Clone)]
    pub struct CommitTracker<F> {
        group: usize,
        in_flight: Option<(Commit, BTreeSet<usize>, BTreeSet<usize>)>,
        outbox: VecDeque<Outgoing<F>>,
    }

    impl<F: Field> CommitTracker<F> {
        pub(crate) fn new(group: usize) -> Self {
            Self {
                group,
                in_flight: None,
                outbox: VecDeque::new(),
            }
        }

        /// Put `commit` in flight for `cohort`, queueing one envelope per
        /// member in ascending id order. Replaces any earlier commit.
        pub(crate) fn commit(&mut self, commit: Commit, cohort: &BTreeSet<usize>) {
            for &id in cohort {
                let envelope = commit.envelope(RATCHET_FROM_SERVER, self.group);
                self.outbox.push_back((Recipient::Client(id), envelope));
            }
            self.in_flight = Some((commit, cohort.clone(), BTreeSet::new()));
        }

        /// Record one client's ack of the commit in flight.
        ///
        /// # Errors
        ///
        /// [`ProtocolError::RatchetMismatch`] without a commit of the ack's
        /// form in flight, or on a nonce or fingerprint that differs from
        /// it; [`ProtocolError::StaleRound`] for another round;
        /// [`ProtocolError::UnknownUser`] from outside the cohort;
        /// [`ProtocolError::DuplicateMessage`] for a second ack.
        pub(crate) fn ack(&mut self, envelope: &Envelope<F>) -> Result<(), ProtocolError> {
            let (from, round, fingerprint, nonce) = match envelope {
                Envelope::RatchetAnnouncement(a) => (a.from, a.round, a.fingerprint, Some(a.nonce)),
                Envelope::RatchetWindowCommit(w) => (w.from, w.round, w.fingerprint, None),
                other => return Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
            };
            let Some((commit, cohort, acks)) = self
                .in_flight
                .as_mut()
                .filter(|(c, _, _)| c.topology.is_none() == nonce.is_some())
            else {
                return Err(ProtocolError::RatchetMismatch);
            };
            crate::check_round(round, commit.round)?;
            if fingerprint != commit.fingerprint || nonce.is_some_and(|n| n != commit.nonces[0]) {
                return Err(ProtocolError::RatchetMismatch);
            }
            let id = from as usize;
            if !cohort.contains(&id) {
                return Err(ProtocolError::UnknownUser(id));
            }
            if !acks.insert(id) {
                return Err(ProtocolError::DuplicateMessage(id));
            }
            Ok(())
        }

        /// Consume the commit in flight: `Ok` iff it opens `round` and the
        /// acks came from exactly its cohort.
        ///
        /// # Errors
        ///
        /// [`ProtocolError::RatchetMismatch`] otherwise.
        pub(crate) fn ready(&mut self, round: u64) -> Result<(), ProtocolError> {
            match self.in_flight.take() {
                Some((commit, cohort, acks)) if commit.round == round && acks == cohort => Ok(()),
                _ => Err(ProtocolError::RatchetMismatch),
            }
        }

        /// Forget the commit in flight and its undelivered envelopes (a
        /// commit replayed after a rollback would poison fresh rounds).
        pub(crate) fn clear(&mut self) {
            self.in_flight = None;
            self.outbox.clear();
        }

        pub(crate) fn poll_output(&mut self) -> Option<Outgoing<F>> {
            self.outbox.pop_front()
        }
    }

    /// Client half of the handshake: the retained base (with the
    /// fingerprint of the cohort it was exchanged in), the pad topology of
    /// ratcheted rounds, and the nonces the last window commit banked for
    /// zero-traffic joins, `round → nonce`. `B` is the variant's base
    /// material.
    #[derive(Debug, Clone)]
    pub struct RatchetBank<B> {
        base: Option<(B, u64)>,
        topology: PadTopology,
        window: BTreeMap<u64, u64>,
    }

    impl<B> RatchetBank<B> {
        /// An empty bank under the default pad topology: the leaf
        /// pushes the topology it resolved into every bank it assembles.
        pub(crate) fn new() -> Self {
            Self {
                base: None,
                topology: PadTopology::default(),
                window: BTreeMap::new(),
            }
        }

        pub(crate) fn base(&self) -> Option<&B> {
            self.base.as_ref().map(|(base, _)| base)
        }

        /// Retain `base` for the cohort fingerprinted by `fingerprint`.
        pub(crate) fn retain(&mut self, base: B, fingerprint: u64) {
            self.base = Some((base, fingerprint));
        }

        /// Forget the base (churn, reassignment, mismatch) and every banked
        /// nonce: they were bound to the dead cohort and must never mask
        /// another one.
        pub(crate) fn clear(&mut self) {
            self.base = None;
            self.window.clear();
        }

        /// Drop the banked nonces (committed under the old seating) and
        /// hand out the base for its pad epoch to be advanced.
        pub(crate) fn reseat(&mut self) -> Option<&mut B> {
            self.window.clear();
            self.base.as_mut().map(|(base, _)| base)
        }

        /// Corrupt the retained fingerprint — test hook for the
        /// stale-fingerprint path.
        pub(crate) fn poison(&mut self, fingerprint: u64) {
            if let Some((_, fp)) = self.base.as_mut() {
                *fp = fingerprint;
            }
        }

        pub(crate) fn set_topology(&mut self, topology: PadTopology) {
            self.topology = topology;
        }

        /// Accept a server `commit` whose round the caller found fresh:
        /// check the fingerprint, derive the first round with
        /// `derive(base, round, nonce, topology)`, bank the rest of a
        /// window (replacing any earlier one) and return client `id`'s ack.
        /// A window commit also fixes the pad topology.
        ///
        /// # Errors
        ///
        /// [`ProtocolError::RatchetMismatch`] without a base or on a
        /// fingerprint mismatch; whatever `derive` returns.
        pub(crate) fn accept<F: Field>(
            &mut self,
            commit: &Commit,
            id: usize,
            group: usize,
            derive: impl FnOnce(&B, u64, u64, PadTopology) -> Result<(), ProtocolError>,
        ) -> Result<Outgoing<F>, ProtocolError> {
            let Some((base, fingerprint)) = self.base.as_ref() else {
                return Err(ProtocolError::RatchetMismatch);
            };
            if commit.fingerprint != *fingerprint {
                return Err(ProtocolError::RatchetMismatch);
            }
            if let Some(topology) = commit.topology {
                self.topology = topology;
            }
            derive(base, commit.round, commit.nonces[0], self.topology)?;
            if commit.topology.is_some() {
                self.window = commit
                    .nonces
                    .iter()
                    .enumerate()
                    .skip(1)
                    .map(|(k, &nonce)| (commit.round + k as u64, nonce))
                    .collect();
            }
            Ok((Recipient::Server, commit.envelope(id as u32, group)))
        }

        /// Take the banked nonce for `round`, with the base and topology a
        /// zero-traffic join derives the round from.
        ///
        /// # Errors
        ///
        /// [`ProtocolError::RatchetMismatch`] without a base or when no
        /// nonce is banked for `round`.
        pub(crate) fn join(&mut self, round: u64) -> Result<(&B, u64, PadTopology), ProtocolError> {
            let Some((base, _)) = self.base.as_ref() else {
                return Err(ProtocolError::RatchetMismatch);
            };
            let nonce = self
                .window
                .remove(&round)
                .ok_or(ProtocolError::RatchetMismatch)?;
            Ok((base, nonce, self.topology))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::Fp61;

    fn cfg() -> LsaConfig {
        LsaConfig::new(4, 1, 3, 6).unwrap()
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let a = CohortFingerprint::of_flat(0, cfg(), &[0, 1, 2, 3]);
        let b = CohortFingerprint::of_flat(0, cfg(), &[3, 1, 0, 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_separates_membership_seat_group_and_config() {
        let base = CohortFingerprint::of_flat(0, cfg(), &[0, 1, 2]);
        // membership
        assert_ne!(base, CohortFingerprint::of_flat(0, cfg(), &[0, 1, 3]));
        // group namespace
        assert_ne!(base, CohortFingerprint::of_flat(1, cfg(), &[0, 1, 2]));
        // config (same shape, different dimension)
        let other = LsaConfig::new(4, 1, 3, 7).unwrap();
        assert_ne!(base, CohortFingerprint::of_flat(0, other, &[0, 1, 2]));
        // seat: same ids in different slots
        let reseated =
            CohortFingerprint::of_members([(0, cfg(), 0, 1), (0, cfg(), 1, 0), (0, cfg(), 2, 2)]);
        assert_ne!(base, reseated);
    }

    /// Client `id`'s pad on the edge to `peer`, alone (zero base mask).
    #[allow(clippy::too_many_arguments)]
    fn pad_of(
        len: usize,
        group: usize,
        base_round: u64,
        epoch: u64,
        nonce: u64,
        id: usize,
        peer: usize,
        sent: &[Fp61],
        recv: &[Fp61],
    ) -> Vec<Fp61> {
        let edge = edge_seed(group, base_round, epoch, id, peer, sent, recv);
        let mut mask = vec![Fp61::ZERO; len];
        let mut pad = vec![Fp61::ZERO; len];
        add_edge_pad(&mut mask, &mut pad, edge, nonce, id, peer);
        mask
    }

    #[test]
    fn pair_pads_cancel_over_the_edge() {
        let sent: Vec<Fp61> = (0..5).map(Fp61::from_u64).collect();
        let recv: Vec<Fp61> = (10..15).map(Fp61::from_u64).collect();
        // endpoint 2 sent `sent` to 5 and received `recv` from it;
        // endpoint 5 saw the mirror image of the same two vectors
        let a = pad_of(8, 3, 7, 0, 99, 2, 5, &sent, &recv);
        let b = pad_of(8, 3, 7, 0, 99, 5, 2, &recv, &sent);
        assert!(a.iter().any(|x| *x != Fp61::ZERO), "pad must be non-zero");
        let sum: Vec<Fp61> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        assert!(sum.iter().all(|x| *x == Fp61::ZERO), "pads must cancel");
    }

    #[test]
    fn pads_differ_across_nonces_rounds_and_epochs() {
        let sent: Vec<Fp61> = (0..3).map(Fp61::from_u64).collect();
        let recv: Vec<Fp61> = (4..7).map(Fp61::from_u64).collect();
        let n1 = pad_of(6, 0, 0, 0, 1, 0, 1, &sent, &recv);
        let n2 = pad_of(6, 0, 0, 0, 2, 0, 1, &sent, &recv);
        let r2 = pad_of(6, 0, 5, 0, 1, 0, 1, &sent, &recv);
        let e2 = pad_of(6, 0, 0, 9, 1, 0, 1, &sent, &recv);
        assert_ne!(n1, n2, "nonce must refresh the pad");
        assert_ne!(n1, r2, "base round must domain-separate the pad");
        assert_ne!(n1, e2, "pad epoch must refresh the pad");
    }

    #[test]
    fn ratchet_env_knob_parses() {
        // no env manipulation here (tests run in parallel); just the
        // default paths
        assert!(ratchet_enabled() || !ratchet_enabled());
        assert!(commit_window() >= 1);
        let _ = pad_topology();
    }

    #[test]
    fn hypercube_partners_are_symmetric_and_connected() {
        // symmetry makes every edge pad cancel; connectivity keeps the
        // incomplete hypercube a single privacy component for any m
        for m in 2..=33usize {
            // a non-contiguous id set: partners must work on ranks
            let members: Vec<usize> = (0..m).map(|i| i * 3 + 1).collect();
            let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
            for (r, &id) in members.iter().enumerate() {
                let partners = PadTopology::Hypercube.partners(&members, id);
                assert!(partners.len() <= PadTopology::Hypercube.max_degree(m));
                assert!(!partners.contains(&id));
                for p in partners {
                    adj[r].push(members.binary_search(&p).unwrap());
                }
            }
            for (r, peers) in adj.iter().enumerate() {
                for &p in peers {
                    assert!(adj[p].contains(&r), "m={m}: edge {r}<->{p} one-sided");
                }
            }
            // BFS from rank 0
            let mut seen = vec![false; m];
            let mut queue = vec![0usize];
            seen[0] = true;
            while let Some(r) = queue.pop() {
                for &p in &adj[r] {
                    if !seen[p] {
                        seen[p] = true;
                        queue.push(p);
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "m={m}: hypercube disconnected");
        }
    }

    #[test]
    fn clique_partners_are_everyone_else() {
        let members = [2usize, 5, 9, 11];
        assert_eq!(PadTopology::Clique.partners(&members, 5), vec![2, 9, 11]);
        assert_eq!(PadTopology::Clique.max_degree(4), 3);
    }

    #[test]
    fn hypercube_degree_is_logarithmic() {
        assert_eq!(PadTopology::Hypercube.max_degree(16), 4);
        assert_eq!(PadTopology::Hypercube.max_degree(17), 5);
        assert_eq!(PadTopology::Hypercube.max_degree(1024), 10);
        assert_eq!(PadTopology::Hypercube.max_degree(1), 0);
    }

    #[test]
    fn topology_tags_roundtrip() {
        for t in [PadTopology::Clique, PadTopology::Hypercube] {
            assert_eq!(PadTopology::from_tag(t.tag()), Some(t));
        }
        assert_eq!(PadTopology::from_tag(2), None);
        assert_eq!(PadTopology::default(), PadTopology::Hypercube);
    }

    #[test]
    fn window_commit_maps_rounds_to_nonces() {
        let wc = RatchetWindowCommit {
            from: RATCHET_FROM_SERVER,
            group: 0,
            round: 10,
            fingerprint: 7,
            topology: PadTopology::Hypercube,
            nonces: vec![100, 101, 102],
        };
        assert_eq!(wc.nonce_for(10), Some(100));
        assert_eq!(wc.nonce_for(12), Some(102));
        assert_eq!(wc.nonce_for(13), None);
        assert_eq!(wc.nonce_for(9), None);
    }

    #[test]
    fn reseat_epoch_moves_and_is_deterministic() {
        let e1 = reseat_epoch(0, 42);
        assert_eq!(e1, reseat_epoch(0, 42));
        assert_ne!(e1, 0);
        assert_ne!(e1, reseat_epoch(0, 43));
        assert_ne!(e1, reseat_epoch(e1, 42));
    }
}
