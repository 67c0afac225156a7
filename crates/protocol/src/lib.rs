//! The LightSecAgg secure-aggregation protocol (So et al., MLSys 2022).
//!
//! LightSecAgg protects each user's local model with a single locally
//! generated random mask `z_i` whose MDS-coded shares are distributed to
//! the other users, such that the server can reconstruct the **aggregate**
//! mask of any sufficiently large surviving set in **one shot** —
//! independent of how many users dropped. This replaces the per-dropped-
//! user seed reconstruction that bottlenecks SecAgg/SecAgg+.
//!
//! The crate is organised as a **sans-IO protocol engine** under a
//! **multi-round federation layer**:
//!
//! * [`federation`] — the persistent multi-round API:
//!   [`federation::SecureAggregator`] (one object-safe trait over the
//!   sync and buffered-async variants), implemented once by the leaf
//!   driver [`federation::LeafFederation`];
//!   [`federation::FederationClient`] /
//!   [`federation::FederationServer`] (the synchronous endpoints: round
//!   lifecycle with cohort churn); and [`federation::Federation`] (the
//!   driver loop with §4.1's overlapped next-round mask sharing);
//! * [`wire`] — [`wire::Envelope`], the single serializable message type
//!   unifying every protocol message, with a canonical byte encoding;
//!   every envelope is **round-scoped** and cross-round replays are
//!   rejected with [`ProtocolError::StaleRound`];
//! * [`session`] — the uniform sans-IO [`Session`] interface
//!   (`handle(Envelope) -> Vec<(Recipient, Envelope)>` +
//!   `poll_output()`) every endpoint implements, the map of the one
//!   endpoint per side and variant, and the buffered-async endpoints;
//!   entropy is injected at construction, never during message
//!   handling;
//! * [`transport`] — the [`transport::Transport`] trait with
//!   [`transport::MemTransport`] (ordered in-memory queues) and
//!   [`transport::SimTransport`] (drives the [`lsa_net`] discrete-event
//!   network, so protocol bytes pay simulated bandwidth/latency and
//!   phase timings come from real serialized message sizes);
//! * [`Client`] / [`ServerRound`] — the mask core both variants run
//!   on: mask sampling and MDS encoding, share intake, masking, the
//!   ratchet derivation, and the one-shot aggregate-mask decode (§4.1);
//! * [`asynchronous`] — buffered asynchronous variant (§4.2, Appendix F):
//!   round-stamped masks and staleness weights over that core;
//! * [`run_sync_round`] / [`run_sync_round_over`] — the single-round
//!   oracle: one round of [`FederationClient`]s and a
//!   [`FederationServer`] pumped over a transport (used by tests,
//!   examples and the simulator).
//!
//! Guarantees (Theorem 1): for any `T + D < N`, privacy against any `T`
//! colluding users (information-theoretic, given the `T`-private MDS
//! code) and exact aggregate recovery despite any `D` dropouts.
//!
//! # Example: 3 users, 1 dropout, 1 colluder — the paper's Figure 3
//!
//! ```
//! use lsa_protocol::{run_sync_round, DropoutSchedule, LsaConfig};
//! use lsa_field::{Field, Fp61};
//! use rand::SeedableRng;
//!
//! let cfg = LsaConfig::new(3, 1, 2, 4).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let models: Vec<Vec<Fp61>> = (0..3)
//!     .map(|i| (0..4).map(|k| Fp61::from_u64((10 * i + k) as u64)).collect())
//!     .collect();
//! // user 0 drops after uploading its masked model (worst case §7.1)
//! let out = run_sync_round(
//!     cfg,
//!     &models,
//!     &DropoutSchedule::after_upload(vec![0]),
//!     &mut rng,
//! )
//! .unwrap();
//! // the aggregate covers ALL uploaders (incl. the delayed user 0)
//! for k in 0..4 {
//!     let want: Fp61 = (0..3).map(|i| models[i][k]).sum();
//!     assert_eq!(out.aggregate[k], want);
//! }
//! ```
//!
//! # Example: pumping the engine over an explicit transport
//!
//! The same round, but with the transport visible — swap
//! [`transport::MemTransport`] for [`transport::SimTransport`] and the
//! identical protocol bytes pay simulated network time:
//!
//! ```
//! use lsa_protocol::transport::MemTransport;
//! use lsa_protocol::{run_sync_round_over, DropoutSchedule, LsaConfig};
//! use lsa_field::{Field, Fp61};
//! use rand::SeedableRng;
//!
//! let cfg = LsaConfig::new(3, 1, 2, 4).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let models: Vec<Vec<Fp61>> = (0..3)
//!     .map(|i| (0..4).map(|k| Fp61::from_u64((10 * i + k) as u64)).collect())
//!     .collect();
//! let mut transport = MemTransport::new();
//! let out = run_sync_round_over(
//!     cfg,
//!     &models,
//!     &DropoutSchedule::none(),
//!     &mut rng,
//!     &mut transport,
//! )
//! .unwrap();
//! assert_eq!(out.survivors.len(), 3);
//! // every protocol message crossed the wire as canonical bytes
//! assert!(transport.bytes_sent() > 0);
//! ```

pub mod asynchronous;
mod client;
mod config;
pub mod federation;
mod messages;
pub mod ratchet;
mod server;
pub mod session;
pub mod telemetry;
pub mod topology;
pub mod transport;
pub mod wire;

pub use client::Client;
pub use config::LsaConfig;
pub use federation::{
    BoxedAggregator, BufferedFederation, Federation, FederationClient, FederationServer,
    RoundOutcome, RoundPlan, SecureAggregator, SyncFederation,
};
pub use messages::{wire_bytes, AggregatedShare, CodedMaskShare, MaskedModel};
pub use ratchet::{
    commit_window, pad_topology, ratchet_enabled, CohortFingerprint, PadTopology,
    RatchetAnnouncement, RatchetWindowCommit, DEFAULT_COMMIT_WINDOW, MAX_COMMIT_WINDOW,
    RATCHET_FROM_SERVER,
};
pub use server::{ServerPhase, ServerRound};
pub use session::{Recipient, Session};
pub use telemetry::{EventCounters, RoundReport, TrafficMark};
pub use topology::{GroupTopology, GroupedFederation, TopologyNode};
pub use transport::{Delivery, MemTransport, PhaseTiming, SimTransport, Transport};
pub use wire::{
    peek_group, peek_version, Envelope, EnvelopeKind, SurvivorAnnouncement, WireError,
    GROUP_VERSION_BIT, MAX_GROUP_ID, WIRE_VERSION,
};

use core::fmt;
use federation::{drain_to, pump};
use lsa_field::Field;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Errors produced by the protocol layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Configuration violates `N ≥ U > T ≥ 0` (or similar).
    InvalidConfig(String),
    /// A message referenced a user index outside `[0, N)` or outside the
    /// expected set (e.g. a non-survivor in the recovery phase).
    UnknownUser(usize),
    /// A message arrived in the wrong protocol phase.
    WrongPhase,
    /// The same user sent the same kind of message twice.
    DuplicateMessage(usize),
    /// A coded share was delivered to the wrong recipient.
    MisroutedShare {
        /// The receiving client's id.
        expected: usize,
        /// The share's `to` field.
        got: usize,
    },
    /// A required coded share was never received from `from`.
    MissingShares {
        /// The user whose share is missing.
        from: usize,
    },
    /// Fewer survivors/shares than the protocol needs.
    NotEnoughSurvivors {
        /// How many are available.
        got: usize,
        /// How many are needed (`U`).
        need: usize,
    },
    /// An async update claimed a base round in the future.
    StaleUpdate {
        /// The update's claimed round.
        round: u64,
        /// The server's current round.
        now: u64,
    },
    /// An envelope stamped with a different round than the endpoint is
    /// serving — a cross-round replay or a message that outlived its
    /// round. Distinct from [`ProtocolError::DuplicateMessage`]: a
    /// duplicate repeats a message *within* the current round.
    StaleRound {
        /// The round id the envelope carries.
        got: u64,
        /// The round the endpoint is serving.
        current: u64,
    },
    /// An envelope stamped with a different aggregation group than the
    /// endpoint belongs to — in a grouped topology ([`topology`]) user
    /// indices are group-local, so a cross-group share must be rejected
    /// *before* it could be mistaken for a same-group message from the
    /// same local index.
    WrongGroup {
        /// The group id the envelope carries.
        got: usize,
        /// The group the endpoint belongs to.
        expected: usize,
    },
    /// An envelope stamped with a group id the deployment does not have
    /// at all — unroutable, as opposed to [`ProtocolError::WrongGroup`]
    /// where a real (but different) group's endpoint received it.
    UnknownGroup {
        /// The group id the envelope carries.
        got: usize,
        /// How many groups the deployment has (valid ids are `0..groups`).
        groups: usize,
    },
    /// An envelope kind this endpoint never accepts (e.g. a masked model
    /// delivered to a client) — the session analogue of a wrong-phase or
    /// misaddressed message.
    UnexpectedEnvelope {
        /// The offending message kind.
        kind: wire::EnvelopeKind,
    },
    /// A message failed to encode or decode on the wire.
    Wire(wire::WireError),
    /// An underlying coding error (share decode, length mismatch, …).
    Coding(lsa_coding::CodingError),
    /// A client's buffer of near-future envelopes hit its cap — the
    /// envelope is rejected instead of amplifying memory (once
    /// untrusted sockets feed the session, a peer racing ahead must not
    /// grow the lookahead queue without bound).
    PendingOverflow {
        /// The client whose buffer is full.
        client: usize,
        /// The future round the rejected envelope was stamped for.
        round: u64,
        /// The cap that was hit (envelopes buffered across all
        /// lookahead rounds).
        cap: usize,
    },
    /// The stable-cohort mask ratchet could not engage or complete: the
    /// cohort fingerprint, committed nonce, or submission set diverged
    /// from the retained round state. The round must fall back to the
    /// full offline mask exchange ([`ratchet`]).
    RatchetMismatch,
    /// A client crossed its per-round ingress quota of rejected
    /// envelopes at the server ([`federation::FederationServer`]).
    /// Raised once, on the crossing envelope; everything further from
    /// that client this round is silently quarantined (counted in
    /// [`telemetry::EventCounters::quarantined`]) so a flooding client
    /// cannot wedge the round.
    QuotaExceeded {
        /// The offending client.
        client: usize,
        /// Rejected envelopes accumulated by that client this round.
        strikes: usize,
        /// The quota that was crossed.
        cap: usize,
    },
    /// An operating-system I/O failure on a real network transport.
    Io(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ProtocolError::UnknownUser(id) => write!(f, "unknown or unexpected user {id}"),
            ProtocolError::WrongPhase => write!(f, "message arrived in the wrong protocol phase"),
            ProtocolError::DuplicateMessage(id) => {
                write!(f, "duplicate message from user {id}")
            }
            ProtocolError::MisroutedShare { expected, got } => {
                write!(f, "share addressed to {got} delivered to {expected}")
            }
            ProtocolError::MissingShares { from } => {
                write!(f, "coded share from user {from} was never received")
            }
            ProtocolError::NotEnoughSurvivors { got, need } => {
                write!(f, "not enough survivors: got {got}, need {need}")
            }
            ProtocolError::StaleUpdate { round, now } => {
                write!(f, "update claims future round {round} (now {now})")
            }
            ProtocolError::StaleRound { got, current } => {
                write!(
                    f,
                    "envelope stamped for round {got} but the endpoint serves round {current}"
                )
            }
            ProtocolError::WrongGroup { got, expected } => {
                write!(
                    f,
                    "envelope stamped for group {got} but the endpoint belongs to group {expected}"
                )
            }
            ProtocolError::UnknownGroup { got, groups } => {
                write!(
                    f,
                    "envelope stamped for unknown group {got} (deployment has {groups} groups)"
                )
            }
            ProtocolError::UnexpectedEnvelope { kind } => {
                write!(f, "endpoint cannot accept a {kind} envelope")
            }
            ProtocolError::Wire(e) => write!(f, "wire error: {e}"),
            ProtocolError::Coding(e) => write!(f, "coding error: {e}"),
            ProtocolError::PendingOverflow { client, round, cap } => {
                write!(
                    f,
                    "client {client}: future-round buffer full (cap {cap} envelopes); \
                     rejected an envelope for round {round}"
                )
            }
            ProtocolError::RatchetMismatch => {
                write!(
                    f,
                    "stable-cohort ratchet state diverged; the round requires a full mask exchange"
                )
            }
            ProtocolError::QuotaExceeded {
                client,
                strikes,
                cap,
            } => {
                write!(
                    f,
                    "client {client}: ingress quota exceeded ({strikes} rejected envelopes, \
                     cap {cap}); further traffic from it is quarantined this round"
                )
            }
            ProtocolError::Io(msg) => write!(f, "transport I/O error: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Coding(e) => Some(e),
            ProtocolError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wire::WireError> for ProtocolError {
    fn from(e: wire::WireError) -> Self {
        ProtocolError::Wire(e)
    }
}

impl From<lsa_coding::CodingError> for ProtocolError {
    fn from(e: lsa_coding::CodingError) -> Self {
        ProtocolError::Coding(e)
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e.to_string())
    }
}

/// `Ok` iff a payload of `got` elements has the `expected` length, else
/// the typed [`ProtocolError::Coding`] length mismatch.
pub(crate) fn check_len(expected: usize, got: usize) -> Result<(), ProtocolError> {
    let mismatch = lsa_coding::CodingError::LengthMismatch { expected, got };
    (got == expected).then_some(()).ok_or(mismatch.into())
}

/// `Ok` iff a message stamped for group `got` belongs to the endpoint's
/// group `expected`, else [`ProtocolError::WrongGroup`].
pub(crate) fn check_group(got: usize, expected: usize) -> Result<(), ProtocolError> {
    (got == expected)
        .then_some(())
        .ok_or(ProtocolError::WrongGroup { got, expected })
}

/// `Ok` iff a message stamped for round `got` belongs to the round
/// `current` the endpoint serves, else [`ProtocolError::StaleRound`].
pub(crate) fn check_round(got: u64, current: u64) -> Result<(), ProtocolError> {
    (got == current)
        .then_some(())
        .ok_or(ProtocolError::StaleRound { got, current })
}

/// `Ok` iff client `client`, holding `held` envelopes for rounds it has
/// not joined, may hold one more for `round`, else
/// [`ProtocolError::PendingOverflow`] at the `cap`.
pub(crate) fn check_pending(
    client: usize,
    round: u64,
    held: usize,
    cap: usize,
) -> Result<(), ProtocolError> {
    (held < cap)
        .then_some(())
        .ok_or(ProtocolError::PendingOverflow { client, round, cap })
}

/// `Ok` iff `id` names one of `cfg`'s users, else
/// [`ProtocolError::InvalidConfig`].
pub(crate) fn check_id(id: usize, cfg: &LsaConfig) -> Result<(), ProtocolError> {
    let n = cfg.n();
    (id < n).then_some(()).ok_or_else(|| {
        ProtocolError::InvalidConfig(format!("client id {id} out of range for N={n}"))
    })
}

/// When users drop during a round (the paper's §7.1 worst case drops
/// users *after* they upload masked models, maximising server work in the
/// baselines; dropping before upload is the milder case).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DropoutSchedule {
    /// Users that vanish before uploading their masked model (they did
    /// participate in the offline mask exchange).
    pub before_upload: Vec<usize>,
    /// Users whose masked model arrives but who vanish before serving the
    /// recovery phase ("artificial drop" of §7.1).
    pub after_upload: Vec<usize>,
}

impl DropoutSchedule {
    /// No dropouts.
    pub fn none() -> Self {
        Self::default()
    }

    /// Drop the given users before the upload phase.
    pub fn before_upload(users: Vec<usize>) -> Self {
        Self {
            before_upload: users,
            after_upload: Vec::new(),
        }
    }

    /// Drop the given users after the upload phase (worst case).
    pub fn after_upload(users: Vec<usize>) -> Self {
        Self {
            before_upload: Vec::new(),
            after_upload: users,
        }
    }

    /// Total number of distinct dropped users.
    pub fn total(&self) -> usize {
        let mut all: Vec<usize> = self
            .before_upload
            .iter()
            .chain(&self.after_upload)
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }
}

/// Outcome of a synchronous round.
#[derive(Debug, Clone)]
pub struct SyncRoundOutput<F> {
    /// The recovered aggregate `Σ_{i∈U₁} x_i` (length `d`).
    pub aggregate: Vec<F>,
    /// The survivor set `U₁` whose models are included.
    pub survivors: Vec<usize>,
}

/// Reference driver: run one full synchronous LightSecAgg round in memory.
///
/// `models[i]` is user `i`'s quantized model (length `cfg.d()`).
/// Users in `dropouts.before_upload` never upload; users in
/// `dropouts.after_upload` upload but do not serve recovery.
///
/// This is [`run_sync_round_over`] with a [`MemTransport`]: every
/// message still crosses a (serialized) wire.
///
/// # Errors
///
/// As for [`run_sync_round_over`].
pub fn run_sync_round<F: Field, R: Rng + ?Sized>(
    cfg: LsaConfig,
    models: &[Vec<F>],
    dropouts: &DropoutSchedule,
    rng: &mut R,
) -> Result<SyncRoundOutput<F>, ProtocolError> {
    let mut transport = MemTransport::new();
    run_sync_round_over(cfg, models, dropouts, rng, &mut transport)
}

/// The single-round oracle: run one full synchronous LightSecAgg round
/// over an explicit [`Transport`], pumping one [`FederationClient`] per
/// user and a [`FederationServer`] through round 0.
///
/// Phase boundaries are marked with [`Transport::flush`] under the
/// labels `"offline"`, `"upload"`, `"announce"` and `"recovery"`, so a
/// [`SimTransport`] reports per-phase wall-clock derived from the actual
/// serialized envelope sizes. Every client's mask is drawn from `rng`,
/// in user order.
///
/// Dropout semantics (§7.1): users in `dropouts.before_upload` never
/// upload (they still serve the offline exchange); users in
/// `dropouts.after_upload` upload but vanish afterwards — envelopes
/// addressed to them are sent but discarded undelivered.
///
/// # Errors
///
/// [`ProtocolError::InvalidConfig`] unless there is one model per user;
/// [`ProtocolError::UnknownUser`] for a scheduled dropout outside
/// `0..N`; otherwise any protocol error, notably
/// [`ProtocolError::NotEnoughSurvivors`] when dropouts exceed `N − U`.
pub fn run_sync_round_over<F: Field, R: Rng + ?Sized, T: Transport<F>>(
    cfg: LsaConfig,
    models: &[Vec<F>],
    dropouts: &DropoutSchedule,
    rng: &mut R,
    transport: &mut T,
) -> Result<SyncRoundOutput<F>, ProtocolError> {
    let n = cfg.n();
    if models.len() != n {
        return Err(ProtocolError::InvalidConfig(format!(
            "{} models for N={n} users",
            models.len()
        )));
    }
    let mut scheduled = dropouts.before_upload.iter().chain(&dropouts.after_upload);
    if let Some(&bad) = scheduled.find(|&&id| id >= n) {
        return Err(ProtocolError::UnknownUser(bad));
    }

    // Offline: joining round 0 queues each client's coded shares. The
    // endpoints' own entropy streams stay unused: the masks come from
    // `rng`.
    let mut clients = (0..n)
        .map(|id| {
            let mut client = FederationClient::new(id, cfg, StdRng::seed_from_u64(0))?;
            client.join(0, Client::new(id, cfg, rng)?)?;
            Ok(client)
        })
        .collect::<Result<Vec<_>, ProtocolError>>()?;
    let mut server = FederationServer::new(cfg);
    server.open_round(0)?;
    let everyone: BTreeSet<usize> = (0..n).collect();
    for client in &mut clients {
        drain_to(client, transport, &everyone)?;
    }
    transport.flush("offline");
    pump(transport, &mut server, &mut clients, &everyone)?;

    // Upload phase.
    for (id, client) in clients.iter_mut().enumerate() {
        if !dropouts.before_upload.contains(&id) {
            client.upload(0, &models[id])?;
            drain_to(client, transport, &everyone)?;
        }
    }
    transport.flush("upload");
    pump(transport, &mut server, &mut clients, &everyone)?;

    // Recovery: announce the survivor set; users dropped after upload
    // have vanished, so envelopes to them are discarded undelivered.
    let survivors = server.close_upload()?;
    drain_to(&mut server, transport, &everyone)?;
    let online: BTreeSet<usize> = everyone
        .into_iter()
        .filter(|id| !dropouts.after_upload.contains(id))
        .collect();
    transport.flush("announce");
    pump(transport, &mut server, &mut clients, &online)?;
    transport.flush("recovery");
    pump(transport, &mut server, &mut clients, &online)?;

    Ok(SyncRoundOutput {
        aggregate: server.close_round()?,
        survivors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::{Fp32, Fp61};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn models<F: Field>(n: usize, d: usize, seed: u64) -> Vec<Vec<F>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| lsa_field::ops::random_vector(d, &mut rng))
            .collect()
    }

    fn expected_sum<F: Field>(models: &[Vec<F>], who: &[usize]) -> Vec<F> {
        let mut acc = vec![F::ZERO; models[0].len()];
        for &i in who {
            lsa_field::ops::add_assign(&mut acc, &models[i]);
        }
        acc
    }

    #[test]
    fn no_dropout_round_recovers_full_sum() {
        let cfg = LsaConfig::new(6, 2, 4, 17).unwrap();
        let ms = models::<Fp61>(6, 17, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let out = run_sync_round(cfg, &ms, &DropoutSchedule::none(), &mut rng).unwrap();
        assert_eq!(out.survivors, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(out.aggregate, expected_sum(&ms, &out.survivors));
    }

    #[test]
    fn dropouts_before_upload_excluded_from_aggregate() {
        let cfg = LsaConfig::new(6, 2, 4, 10).unwrap();
        let ms = models::<Fp61>(6, 10, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let out = run_sync_round(
            cfg,
            &ms,
            &DropoutSchedule::before_upload(vec![1, 4]),
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.survivors, vec![0, 2, 3, 5]);
        assert_eq!(out.aggregate, expected_sum(&ms, &[0, 2, 3, 5]));
    }

    #[test]
    fn dropouts_after_upload_still_included() {
        // The §7.1 worst case: users drop after uploading, so their models
        // ARE in the aggregate but they don't help recovery.
        let cfg = LsaConfig::new(6, 2, 4, 10).unwrap();
        let ms = models::<Fp61>(6, 10, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let out = run_sync_round(
            cfg,
            &ms,
            &DropoutSchedule::after_upload(vec![0, 5]),
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.survivors, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(out.aggregate, expected_sum(&ms, &out.survivors));
    }

    #[test]
    fn mixed_dropouts() {
        let cfg = LsaConfig::new(8, 3, 5, 12).unwrap();
        let ms = models::<Fp61>(8, 12, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let sched = DropoutSchedule {
            before_upload: vec![2],
            after_upload: vec![0, 6],
        };
        let out = run_sync_round(cfg, &ms, &sched, &mut rng).unwrap();
        assert_eq!(out.survivors, vec![0, 1, 3, 4, 5, 6, 7]);
        assert_eq!(out.aggregate, expected_sum(&ms, &out.survivors));
    }

    #[test]
    fn too_many_dropouts_fails_loudly() {
        let cfg = LsaConfig::new(4, 1, 3, 5).unwrap(); // tolerates 1 dropout
        let ms = models::<Fp61>(4, 5, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let err = run_sync_round(
            cfg,
            &ms,
            &DropoutSchedule::before_upload(vec![0, 1]),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::NotEnoughSurvivors { got: 2, need: 3 }
        ));
    }

    #[test]
    fn works_over_fp32() {
        let cfg = LsaConfig::new(5, 2, 3, 8).unwrap();
        let ms = models::<Fp32>(5, 8, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let out = run_sync_round(
            cfg,
            &ms,
            &DropoutSchedule::after_upload(vec![1, 2]),
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.aggregate, expected_sum(&ms, &out.survivors));
    }

    #[test]
    fn d_not_divisible_by_segments_padding_works() {
        // padded_len > d exercises the truncation path
        let cfg = LsaConfig::new(5, 1, 4, 10).unwrap(); // U−T = 3, d=10 → pad to 12
        assert!(cfg.padded_len() > cfg.d());
        let ms = models::<Fp61>(5, 10, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let out = run_sync_round(cfg, &ms, &DropoutSchedule::none(), &mut rng).unwrap();
        assert_eq!(out.aggregate.len(), 10);
        assert_eq!(out.aggregate, expected_sum(&ms, &out.survivors));
    }

    #[test]
    fn weighted_models_remark3() {
        // Remark 3: users scale models by a weight before masking; the
        // protocol recovers the weighted sum with unmodified masks.
        let cfg = LsaConfig::new(4, 1, 3, 6).unwrap();
        let ms = models::<Fp61>(4, 6, 15);
        let weights = [3u64, 1, 4, 1];
        let weighted: Vec<Vec<Fp61>> = ms
            .iter()
            .zip(&weights)
            .map(|(m, &w)| m.iter().map(|&x| x * Fp61::from_u64(w)).collect())
            .collect();
        let mut rng = StdRng::seed_from_u64(16);
        let out = run_sync_round(cfg, &weighted, &DropoutSchedule::none(), &mut rng).unwrap();
        let want = expected_sum(&weighted, &[0, 1, 2, 3]);
        assert_eq!(out.aggregate, want);
    }

    #[test]
    fn malformed_round_inputs_rejected_typed() {
        // a model count that is not N, or a dropout outside 0..N, is a
        // typed error rather than a panic or a silently ignored id
        let cfg = LsaConfig::new(4, 1, 3, 5).unwrap();
        let ms = models::<Fp61>(4, 5, 19);
        let mut rng = StdRng::seed_from_u64(20);
        let err = run_sync_round(cfg, &ms[..3], &DropoutSchedule::none(), &mut rng).unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidConfig(_)), "{err}");
        for sched in [
            DropoutSchedule::before_upload(vec![4]),
            DropoutSchedule::after_upload(vec![1, 7]),
        ] {
            let bad = *sched
                .before_upload
                .iter()
                .chain(&sched.after_upload)
                .max()
                .unwrap();
            let err = run_sync_round(cfg, &ms, &sched, &mut rng).unwrap_err();
            assert_eq!(err, ProtocolError::UnknownUser(bad));
        }
    }

    #[test]
    fn server_only_sees_masked_payloads() {
        // Smoke privacy test: a single user's masked model is (pseudo)
        // uniformly distributed — empirically its low bits look uniform —
        // and differs from the raw model.
        let cfg = LsaConfig::new(3, 1, 2, 256).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let client = Client::<Fp61>::new(0, cfg, &mut rng).unwrap();
        let model = vec![Fp61::ZERO; 256];
        let masked = client.mask_model(&model).unwrap();
        assert_ne!(&masked.payload[..256], model.as_slice());
        let ones: u32 = masked
            .payload
            .iter()
            .map(|v| (v.residue() & 1) as u32)
            .sum();
        // ~half the low bits set
        assert!((80..176).contains(&ones), "low-bit count {ones}");
    }
}
