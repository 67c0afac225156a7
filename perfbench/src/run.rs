//! Building a workload's aggregator (plain or traced) and driving its
//! rounds through the public [`SecureAggregator`] API.

use crate::trace::{
    kind_index, nanos_between, CountingTransport, KindCounts, KindTally, LeafHandle, LeafProbe,
    LeafTrace, TimingTransport, WireStats,
};
use crate::workload::{check_round, RoundInput, Sampler, Shape, Workload};
use lsa_crypto::sha256::Sha256;
use lsa_field::Field;
use lsa_protocol::federation::{BoxedAggregator, SecureAggregator};
use lsa_protocol::telemetry::EventCounters;
use lsa_protocol::wire::EnvelopeKind;
use lsa_protocol::{
    BufferedFederation, GroupedFederation, ProtocolError, SyncFederation, TopologyNode,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Rounds run after the base round before anything is measured: one
/// full commit window, so the stable cohort's first measured round
/// opens a fresh window.
pub const WARMUP_ROUNDS: usize = 8;

/// Measured rounds come in blocks of this many, so every measured
/// stretch covers whole commit windows.
pub const BLOCK: usize = 8;

/// One aggregator under test, plain or traced.
pub trait Harness<F: Field> {
    /// The aggregator the rounds drive.
    fn agg(&mut self) -> &mut dyn SecureAggregator<F>;

    /// Envelopes sent so far across the whole aggregator, per kind.
    fn kinds(&self) -> KindCounts;

    /// What each layer did since the last call (`None` when untraced).
    fn take_layers(&mut self) -> Option<Layers>;
}

/// One round's layer trace.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Per-leaf call times (empty for a flat aggregator).
    pub leaves: Vec<LeafTrace>,
    /// Transport counters accrued this round, summed over every link.
    pub wire: WireStats,
}

impl Layers {
    /// `f` summed over the leaves.
    pub fn leaf_sum(&self, f: fn(&LeafTrace) -> u64) -> u64 {
        self.leaves.iter().map(f).sum()
    }

    /// Wall time inside at least one leaf's `finish_round`: the union
    /// of the leaves' finish intervals, which overlap across worker
    /// threads.
    pub fn finish_cover_ns(&self) -> u64 {
        let spans: Vec<(Instant, Instant)> =
            self.leaves.iter().filter_map(|t| t.finish_span).collect();
        union_ns(spans)
    }
}

/// Total length of the union of `spans`.
pub fn union_ns(mut spans: Vec<(Instant, Instant)>) -> u64 {
    spans.sort_by_key(|s| s.0);
    let mut covered = 0;
    let mut current: Option<(Instant, Instant)> = None;
    for (start, end) in spans {
        current = match current {
            Some((cs, ce)) if start <= ce => Some((cs, ce.max(end))),
            _ => {
                if let Some((cs, ce)) = current {
                    covered += nanos_between(cs, ce);
                }
                Some((start, end))
            }
        };
    }
    covered + current.map_or(0, |(cs, ce)| nanos_between(cs, ce))
}

/// An untraced aggregator over [`CountingTransport`]s.
pub struct Plain<A> {
    agg: A,
    tally: Arc<KindTally>,
}

impl<F: Field, A: SecureAggregator<F>> Harness<F> for Plain<A> {
    fn agg(&mut self) -> &mut dyn SecureAggregator<F> {
        &mut self.agg
    }

    fn kinds(&self) -> KindCounts {
        self.tally.snapshot()
    }

    fn take_layers(&mut self) -> Option<Layers> {
        None
    }
}

/// A grouped tree whose leaves are [`LeafProbe`]s over
/// [`TimingTransport`]s.
pub struct TracedTree<F: Field> {
    agg: GroupedFederation<F>,
    leaves: Vec<LeafHandle>,
    prev: Vec<WireStats>,
}

impl<F: Field> Harness<F> for TracedTree<F> {
    fn agg(&mut self) -> &mut dyn SecureAggregator<F> {
        &mut self.agg
    }

    fn kinds(&self) -> KindCounts {
        let mut sum = WireStats::default();
        for leaf in &self.leaves {
            sum.absorb(&leaf.lock().expect("no leaf call panicked").wire);
        }
        sum.kinds
    }

    fn take_layers(&mut self) -> Option<Layers> {
        let mut layers = Layers::default();
        for (leaf, prev) in self.leaves.iter().zip(&mut self.prev) {
            let mut trace = leaf.lock().expect("no leaf call panicked");
            let now = trace.wire;
            let mut taken = std::mem::take(&mut *trace);
            trace.wire = now;
            taken.wire = now.since(prev);
            *prev = now;
            layers.wire.absorb(&taken.wire);
            layers.leaves.push(taken);
        }
        Some(layers)
    }
}

/// A flat buffered federation over one [`TimingTransport`].
pub struct TracedFlat<F: Field> {
    agg: BufferedFederation<F, TimingTransport>,
    prev: WireStats,
}

impl<F: Field> Harness<F> for TracedFlat<F> {
    fn agg(&mut self) -> &mut dyn SecureAggregator<F> {
        &mut self.agg
    }

    fn kinds(&self) -> KindCounts {
        self.agg.transport().stats().kinds
    }

    fn take_layers(&mut self) -> Option<Layers> {
        let now = self.agg.transport().stats();
        let wire = now.since(&self.prev);
        self.prev = now;
        Some(Layers {
            leaves: Vec::new(),
            wire,
        })
    }
}

/// The library's own grouped tree (`GroupedFederation::new`) over
/// counted in-memory transports.
pub fn plain_grouped<F: Field>(
    shape: &Shape,
    seed: u64,
) -> Result<Plain<GroupedFederation<F>>, ProtocolError> {
    let tally = Arc::new(KindTally::default());
    let topology = shape.topology().expect("grouped shape");
    let agg = GroupedFederation::new(topology, CountingTransport::new(Arc::clone(&tally)), seed)?;
    Ok(Plain { agg, tally })
}

/// The same tree composed by hand with `GroupedFederation::from_children`
/// from [`LeafProbe`]-wrapped leaves, drawing the leaf wire ids and seeds
/// exactly as `GroupedFederation::new` does — so it replays the plain
/// tree's rounds bit for bit.
pub fn traced_grouped<F: Field>(shape: &Shape, seed: u64) -> Result<TracedTree<F>, ProtocolError> {
    let topology = shape.topology().expect("grouped shape");
    let mut master = StdRng::seed_from_u64(seed);
    let mut children: Vec<BoxedAggregator<F>> = Vec::new();
    let mut leaves = Vec::new();
    for sub in topology.child_topologies() {
        let TopologyNode::Leaf(cfg) = sub.root() else {
            panic!("workload trees are one level deep");
        };
        let leaf = SyncFederation::in_group(
            sub.wire_id(0) as usize,
            *cfg,
            TimingTransport::new(),
            master.gen(),
        )?;
        let (probe, handle) = LeafProbe::wrap(leaf);
        children.push(Box::new(probe));
        leaves.push(handle);
    }
    Ok(TracedTree {
        agg: GroupedFederation::from_children(children)?,
        prev: vec![WireStats::default(); leaves.len()],
        leaves,
    })
}

/// The flat buffered federation over a counted in-memory transport.
pub fn plain_flat<F: Field>(
    shape: &Shape,
    seed: u64,
) -> Result<Plain<BufferedFederation<F, CountingTransport>>, ProtocolError> {
    let tally = Arc::new(KindTally::default());
    let agg = BufferedFederation::unit_weight(
        shape.domain_config(),
        CountingTransport::new(Arc::clone(&tally)),
        seed,
    )?;
    Ok(Plain { agg, tally })
}

/// The flat buffered federation over a [`TimingTransport`].
pub fn traced_flat<F: Field>(shape: &Shape, seed: u64) -> Result<TracedFlat<F>, ProtocolError> {
    let agg = BufferedFederation::unit_weight(shape.domain_config(), TimingTransport::new(), seed)?;
    Ok(TracedFlat {
        agg,
        prev: WireStats::default(),
    })
}

/// What one round did and cost.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// The correctness gate's verdict.
    pub verdict: Result<(), String>,
    /// Wall-clock inside `open_round`.
    pub open_ns: u64,
    /// Wall-clock inside the `submit` and `mark_dropped` calls.
    pub submit_ns: u64,
    /// Wall-clock inside `finish_round`.
    pub finish_ns: u64,
    /// Cohort size.
    pub cohort: usize,
    /// Bytes sent during `open_round` (the offline exchange).
    pub offline_bytes: u64,
    /// Bytes sent from the first `submit` to the aggregate.
    pub online_bytes: u64,
    /// Envelopes sent this round, per kind.
    pub kinds: KindCounts,
    /// Shares a full coded-mask exchange among this cohort sends.
    pub full_exchange: u64,
    /// The round report's event counters (default on failure).
    pub events: EventCounters,
    /// The round report's payload bytes and envelope count.
    pub report_traffic: (usize, usize),
    /// SHA-256 of the aggregate's residues (zero on failure).
    pub digest: [u8; 32],
    /// The layer trace (traced runs only).
    pub layers: Option<Layers>,
}

impl RoundRecord {
    /// Wall-clock from `open_round` to `finish_round`'s return, in ms.
    pub fn round_ms(&self) -> f64 {
        (self.open_ns + self.submit_ns + self.finish_ns) as f64 / 1e6
    }

    /// Wall-clock from the first `submit` to the aggregate, in ms.
    pub fn online_ms(&self) -> f64 {
        (self.submit_ns + self.finish_ns) as f64 / 1e6
    }

    /// Whether the round passed the correctness gate.
    pub fn ok(&self) -> bool {
        self.verdict.is_ok()
    }
}

/// Ratcheted leaf-rounds (with or without a handshake) and ratchet
/// fallbacks over `records`, from the round reports.
pub fn ratchet_totals(records: &[RoundRecord]) -> (usize, usize) {
    records.iter().fold((0, 0), |(hits, fallbacks), r| {
        (
            hits + r.events.ratchets + r.events.windowed_ratchets,
            fallbacks + r.events.fallbacks,
        )
    })
}

/// Drive one round through `h` and gate its aggregate. A failed round
/// is aborted and recorded as failed — never retried.
pub fn run_round<F: Field, H: Harness<F>>(
    h: &mut H,
    input: &RoundInput<F>,
    full_exchange: u64,
) -> RoundRecord {
    let kinds_before = h.kinds();
    let bytes_before = h.agg().bytes_sent();

    let t0 = Instant::now();
    let opened = h.agg().open_round(&input.cohort);
    let t1 = Instant::now();
    let bytes_opened = h.agg().bytes_sent();
    let t2 = Instant::now();
    let uploaded = opened.and_then(|_| {
        let agg = h.agg();
        for (&id, update) in input.cohort.iter().zip(&input.updates) {
            agg.submit(id, update)?;
        }
        for &id in &input.dropped {
            agg.mark_dropped(id)?;
        }
        Ok(())
    });
    let t3 = Instant::now();
    let outcome = uploaded.and_then(|()| h.agg().finish_round());
    let t4 = Instant::now();

    let verdict = check_round(&outcome, input);
    if outcome.is_err() {
        h.agg().abort_round();
    }
    let report = h.agg().round_report().filter(|_| outcome.is_ok());
    let kinds_after = h.kinds();
    let bytes_after = h.agg().bytes_sent();
    let digest = match &outcome {
        Ok(out) => {
            let mut hasher = Sha256::new();
            for x in &out.aggregate {
                hasher.update(&x.residue().to_le_bytes());
            }
            hasher.finalize()
        }
        Err(_) => [0; 32],
    };
    RoundRecord {
        verdict,
        open_ns: nanos_between(t0, t1),
        submit_ns: nanos_between(t2, t3),
        finish_ns: nanos_between(t3, t4),
        cohort: input.cohort.len(),
        offline_bytes: (bytes_opened - bytes_before) as u64,
        online_bytes: (bytes_after - bytes_opened) as u64,
        kinds: std::array::from_fn(|k| kinds_after[k] - kinds_before[k]),
        full_exchange,
        events: report.as_ref().map(|r| r.events).unwrap_or_default(),
        report_traffic: report
            .as_ref()
            .map_or((0, 0), |r| (r.payload_bytes, r.envelopes)),
        digest,
        layers: h.take_layers(),
    }
}

/// Build a harness and bring it to steady state: the base round plus
/// [`WARMUP_ROUNDS`], all gated. Returns the harness, the sampler
/// positioned at the first measured round, and the set-up seconds
/// (construction plus the rounds' protocol calls; generating inputs and
/// checking outputs is excluded).
pub fn set_up<F: Field, H: Harness<F>>(
    build: &dyn Fn() -> Result<H, ProtocolError>,
    sampler: Sampler,
) -> Result<(H, Sampler, f64), String> {
    let mut sampler = sampler;
    let start = Instant::now();
    let mut h = build().map_err(|e| format!("construction failed: {e}"))?;
    let mut seconds = start.elapsed().as_secs_f64();
    for round in 0..=WARMUP_ROUNDS {
        let input = sampler.next_round::<F>();
        let full = sampler.full_exchange_shares(&input.cohort);
        let rec = run_round(&mut h, &input, full);
        seconds += rec.round_ms() / 1e3;
        rec.verdict
            .map_err(|e| format!("set-up round {round} failed: {e}"))?;
    }
    Ok((h, sampler, seconds))
}

/// Run measured rounds in blocks of [`BLOCK`] until at least
/// `min_rounds` have run and `budget_s` seconds have passed, or until
/// exactly `min_rounds` when `budget_s` is `None`.
pub fn measure<F: Field, H: Harness<F>>(
    h: &mut H,
    sampler: &mut Sampler,
    min_rounds: usize,
    budget_s: Option<f64>,
) -> Vec<RoundRecord> {
    let start = Instant::now();
    let mut records = Vec::new();
    loop {
        let done = records.len() >= min_rounds
            && budget_s.is_none_or(|b| start.elapsed().as_secs_f64() >= b);
        if done {
            return records;
        }
        for _ in 0..BLOCK {
            let input = sampler.next_round::<F>();
            let full = sampler.full_exchange_shares(&input.cohort);
            records.push(run_round(h, &input, full));
        }
    }
}

/// Compare the traced pass with the untraced one round by round:
/// aggregates, bytes and per-kind envelope counts must be identical.
pub fn first_divergence(plain: &[RoundRecord], traced: &[RoundRecord]) -> Option<String> {
    if plain.len() != traced.len() {
        return Some(format!(
            "traced pass ran {} rounds, untraced {}",
            traced.len(),
            plain.len()
        ));
    }
    plain
        .iter()
        .zip(traced)
        .enumerate()
        .find_map(|(i, (a, b))| {
            let what = if a.digest != b.digest {
                "aggregate"
            } else if (a.offline_bytes, a.online_bytes) != (b.offline_bytes, b.online_bytes)
                || a.report_traffic != b.report_traffic
            {
                "bytes"
            } else if a.kinds != b.kinds {
                "per-kind envelope counts"
            } else if a.events != b.events {
                "round events"
            } else {
                return None;
            };
            Some(format!(
                "measured round {i}: traced {what} differ from untraced"
            ))
        })
}

/// Workload self-checks from the protocol's own counts: the stable
/// cohort must ratchet, the sampled cohort and the async workload must
/// run the full exchange every round, and the async workload must
/// recover from exactly `U` survivors.
pub fn self_check(workload: Workload, shape: &Shape, records: &[RoundRecord]) -> Vec<String> {
    let mut problems = Vec::new();
    let rounds = records.len();
    let domains = shape.topology().map_or(1, |t| t.num_groups());
    let (hits, fallbacks) = ratchet_totals(records);
    let hit_frac = hits as f64 / (domains * rounds).max(1) as f64;
    let share_kind = if workload.grouped() {
        EnvelopeKind::CodedMaskShare
    } else {
        EnvelopeKind::TimestampedShare
    };
    let shares = |r: &RoundRecord| r.kinds[kind_index(share_kind)];
    match workload {
        Workload::StableCohort => {
            if hit_frac < 0.99 {
                problems.push(format!(
                    "stable_cohort ratcheted only {hit_frac:.4} of leaf-rounds"
                ));
            }
        }
        Workload::SampledCohort | Workload::AsyncWide => {
            if hits > 0 || fallbacks > 0 {
                problems.push(format!(
                    "{} ratcheted {hits} times with {fallbacks} fallbacks; it must never ratchet",
                    workload.name()
                ));
            }
            if let Some((i, r)) = records
                .iter()
                .enumerate()
                .find(|(_, r)| r.ok() && shares(r) != r.full_exchange)
            {
                problems.push(format!(
                    "measured round {i} sent {} {share_kind} envelopes, a full exchange sends {}",
                    shares(r),
                    r.full_exchange
                ));
            }
        }
    }
    if let Shape::Flat {
        u, cohort, dropped, ..
    } = *shape
    {
        let agg_kind = kind_index(EnvelopeKind::AggregatedShare);
        if cohort - dropped != u {
            problems.push(format!(
                "async workload keeps {} survivors, not U = {u}",
                cohort - dropped
            ));
        }
        if let Some((i, r)) = records
            .iter()
            .enumerate()
            .find(|(_, r)| r.ok() && r.kinds[agg_kind] != u as u64)
        {
            problems.push(format!(
                "measured round {i} recovered from {} aggregated shares, not U = {u}",
                r.kinds[agg_kind]
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::{Fp32, Fp61};

    const SMALL_TREE: Shape = Shape::Grouped {
        n: 64,
        leaves: 4,
        t_frac: 0.25,
        u_frac: 0.75,
        d: 24,
    };

    const SMALL_FLAT: Shape = Shape::Flat {
        n: 20,
        t: 4,
        u: 12,
        d: 64,
        cohort: 18,
        dropped: 6,
    };

    /// The base round, warm-up and one measured block through `build`.
    fn replay<F: Field, H: Harness<F>>(
        workload: Workload,
        shape: Shape,
        build: &dyn Fn() -> Result<H, ProtocolError>,
    ) -> Vec<RoundRecord> {
        let (mut h, mut sampler, setup_s) =
            set_up::<F, H>(build, Sampler::with_shape(workload, shape, 3)).unwrap();
        assert!(setup_s > 0.0);
        measure(&mut h, &mut sampler, BLOCK, None)
    }

    #[test]
    fn union_counts_overlaps_once() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        assert_eq!(union_ns(Vec::new()), 0);
        // [0,10) ∪ [5,12) ∪ [20,25) ∪ [21,22): 12 + 5 ms, in any order
        let spans = vec![
            (at(20), at(25)),
            (at(5), at(12)),
            (at(0), at(10)),
            (at(21), at(22)),
        ];
        assert_eq!(union_ns(spans), 17_000_000);
        // touching spans merge; nested ones add nothing
        assert_eq!(
            union_ns(vec![(at(0), at(4)), (at(4), at(6)), (at(1), at(2))]),
            6_000_000
        );
    }

    #[test]
    fn traced_tree_replays_the_library_tree() {
        for workload in [Workload::StableCohort, Workload::SampledCohort] {
            let plain = replay::<Fp61, _>(workload, SMALL_TREE, &|| plain_grouped(&SMALL_TREE, 5));
            let traced =
                replay::<Fp61, _>(workload, SMALL_TREE, &|| traced_grouped(&SMALL_TREE, 5));
            assert_eq!(plain.len(), BLOCK);
            assert!(plain.iter().chain(&traced).all(RoundRecord::ok));
            assert_eq!(first_divergence(&plain, &traced), None, "{workload:?}");
            let layers = traced[0].layers.as_ref().unwrap();
            assert_eq!(layers.leaves.len(), 4);
            assert!(layers.leaves.iter().all(|l| l.finish_span.is_some()));
            assert_eq!(layers.wire.kinds, traced[0].kinds);
            assert!(plain[0].layers.is_none());
        }
    }

    #[test]
    fn traced_flat_replays_the_plain_flat() {
        let plain = replay::<Fp32, _>(Workload::AsyncWide, SMALL_FLAT, &|| {
            plain_flat(&SMALL_FLAT, 5)
        });
        let traced = replay::<Fp32, _>(Workload::AsyncWide, SMALL_FLAT, &|| {
            traced_flat(&SMALL_FLAT, 5)
        });
        assert!(plain.iter().chain(&traced).all(RoundRecord::ok));
        assert_eq!(first_divergence(&plain, &traced), None);
        assert_eq!(
            traced[0].layers.as_ref().unwrap().wire.kinds,
            traced[0].kinds
        );
    }

    #[test]
    fn divergence_is_reported_by_round_and_field() {
        let a = replay::<Fp61, _>(Workload::SampledCohort, SMALL_TREE, &|| {
            plain_grouped(&SMALL_TREE, 5)
        });
        let b = replay::<Fp61, _>(Workload::SampledCohort, SMALL_TREE, &|| {
            plain_grouped(&SMALL_TREE, 6)
        });
        // same inputs, other federation entropy: same aggregates (the
        // masks cancel) — the comparison must still see every field
        assert_eq!(first_divergence(&a, &b), None);
        let mut c = b.clone();
        c[3].kinds[0] += 1;
        let msg = first_divergence(&a, &c).unwrap();
        assert!(msg.contains("round 3") && msg.contains("per-kind"), "{msg}");
        c[3].digest[0] ^= 1;
        assert!(first_divergence(&a, &c).unwrap().contains("aggregate"));
        assert!(first_divergence(&a, &c[..4]).is_some());
    }

    #[test]
    fn self_checks_hold_on_real_rounds_and_catch_doctored_counts() {
        let stable = replay::<Fp61, _>(Workload::StableCohort, SMALL_TREE, &|| {
            plain_grouped(&SMALL_TREE, 5)
        });
        assert!(self_check(Workload::StableCohort, &SMALL_TREE, &stable).is_empty());
        // a stable cohort that stopped ratcheting
        let mut broken = stable.clone();
        for r in &mut broken {
            r.events = EventCounters::default();
        }
        assert_eq!(
            self_check(Workload::StableCohort, &SMALL_TREE, &broken).len(),
            1
        );

        let sampled = replay::<Fp61, _>(Workload::SampledCohort, SMALL_TREE, &|| {
            plain_grouped(&SMALL_TREE, 5)
        });
        assert!(self_check(Workload::SampledCohort, &SMALL_TREE, &sampled).is_empty());
        let mut ratcheted = sampled.clone();
        ratcheted[2].events.windowed_ratchets = 1;
        assert_eq!(
            self_check(Workload::SampledCohort, &SMALL_TREE, &ratcheted).len(),
            1
        );
        let mut skipped = sampled;
        skipped[5].kinds[kind_index(EnvelopeKind::CodedMaskShare)] -= 1;
        let problems = self_check(Workload::SampledCohort, &SMALL_TREE, &skipped);
        assert!(problems[0].contains("measured round 5"), "{problems:?}");

        let flat = replay::<Fp32, _>(Workload::AsyncWide, SMALL_FLAT, &|| {
            plain_flat(&SMALL_FLAT, 5)
        });
        assert!(self_check(Workload::AsyncWide, &SMALL_FLAT, &flat).is_empty());
        let mut short = flat;
        short[0].kinds[kind_index(EnvelopeKind::AggregatedShare)] += 1;
        assert_eq!(
            self_check(Workload::AsyncWide, &SMALL_FLAT, &short).len(),
            1
        );
    }

    #[test]
    fn stable_rounds_ratchet_and_sampled_rounds_exchange() {
        let stable = replay::<Fp61, _>(Workload::StableCohort, SMALL_TREE, &|| {
            plain_grouped(&SMALL_TREE, 5)
        });
        // one window commit, then seven wire-silent joins, in every leaf
        assert_eq!(stable[0].events.ratchets, 4);
        assert!(stable[1..].iter().all(|r| r.events.windowed_ratchets == 4));
        assert!(stable.iter().all(|r| r.kinds[0] == 0));
        let sampled = replay::<Fp61, _>(Workload::SampledCohort, SMALL_TREE, &|| {
            plain_grouped(&SMALL_TREE, 5)
        });
        for r in &sampled {
            assert_eq!(r.events.ratchets + r.events.windowed_ratchets, 0);
            assert_eq!(r.kinds[0], r.full_exchange);
            assert!(r.offline_bytes > 0);
        }
    }
}
