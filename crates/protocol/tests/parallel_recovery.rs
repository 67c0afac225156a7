//! Parallel group recovery must be bit-identical to serial recovery.
//!
//! `GroupedFederation::finish_round` decodes its `G` independent groups
//! on the scoped worker pool (`LSA_THREADS`), and `open_round` runs
//! their mask exchanges or ratchet derivations there too. These tests
//! pin that the thread count never changes a single residue of the
//! aggregate, a byte of traffic or an event — the per-group work shares
//! no state and the global fold stays serial in group order — and that
//! a failed parallel open reports and cleans up like a serial one.

use lsa_field::{par, Field, Fp32, Fp61};
use lsa_protocol::federation::{
    BoxedAggregator, Federation, RoundOutcome, RoundPlan, SecureAggregator,
};
use lsa_protocol::ratchet::{ratchet_enabled, DEFAULT_COMMIT_WINDOW};
use lsa_protocol::topology::{GroupTopology, GroupedFederation};
use lsa_protocol::transport::{Delivery, MemTransport, Transport};
use lsa_protocol::wire::Envelope;
use lsa_protocol::{
    EventCounters, LsaConfig, ProtocolError, Recipient, RoundReport, SyncFederation,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const N: usize = 256;
const G: usize = 4;
const D: usize = 64;

fn run_round<F: Field>(threads: usize, seed: u64) -> RoundOutcome<F> {
    let topo = GroupTopology::uniform(N, G, 0.25, 0.9, D).unwrap();
    let grouped = GroupedFederation::<F>::new(topo, MemTransport::new(), seed).unwrap();
    let mut fed = Federation::new(Box::new(grouped));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    let cohort: Vec<usize> = (0..N).collect();
    let mut plan = RoundPlan::new(cohort.clone());
    plan.updates = cohort
        .iter()
        .map(|&i| (i, lsa_field::ops::random_vector(D, &mut rng)))
        .collect();
    // one straggler per group vanishes after upload: the recovery path
    // (announcement + aggregated shares + per-group decode) really runs
    plan.drop_after_upload = (0..G).map(|g| g * (N / G)).collect();
    par::with_threads(threads, || fed.run_round(&plan).unwrap())
}

fn parallel_matches_serial<F: Field>() {
    let serial = run_round::<F>(1, 7);
    for threads in [2usize, 4, 8] {
        let parallel = run_round::<F>(threads, 7);
        assert_eq!(
            serial.aggregate, parallel.aggregate,
            "aggregate diverged at {threads} threads"
        );
        assert_eq!(serial.contributors, parallel.contributors);
        assert_eq!(serial.total_weight, parallel.total_weight);
    }
}

#[test]
fn parallel_recovery_bit_identical_n256_g4_fp61() {
    parallel_matches_serial::<Fp61>();
}

#[test]
fn parallel_recovery_bit_identical_n256_g4_fp32() {
    parallel_matches_serial::<Fp32>();
}

/// The parallel path agrees with the plaintext sum, not merely with
/// itself: known uniform updates give a closed-form aggregate.
#[test]
fn parallel_recovery_is_exact() {
    let topo = GroupTopology::uniform(N, G, 0.25, 0.9, D).unwrap();
    let grouped = GroupedFederation::<Fp61>::new(topo, MemTransport::new(), 3).unwrap();
    let mut fed = Federation::new(Box::new(grouped));
    let cohort: Vec<usize> = (0..N).collect();
    let out = par::with_threads(4, || {
        fed.run_round(&RoundPlan::new(cohort.clone()).with_uniform_updates(vec![Fp61::ONE; D]))
            .unwrap()
    });
    assert_eq!(out.aggregate, vec![Fp61::from_u64(N as u64); D]);
    assert_eq!(out.total_weight, N as u64);
}

/// The tree-parallel decode path: a two-level hierarchy's
/// `finish_round` fans its super-groups across the pool (each
/// super-group's own fan-out runs inline on the worker), and the
/// aggregate stays bit-identical across thread counts — the acceptance
/// pin for `LSA_THREADS ∈ {1, 4}`.
fn run_hierarchical_round<F: Field>(threads: usize, seed: u64) -> RoundOutcome<F> {
    // 4 super-groups x 4 leaf groups x 16 clients
    let topo = GroupTopology::hierarchical(N, &[4, 4], 0.25, 0.9, D).unwrap();
    assert_eq!(topo.depth(), 2);
    let grouped = GroupedFederation::<F>::new(topo, MemTransport::new(), seed).unwrap();
    let mut fed = Federation::new(Box::new(grouped));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
    let cohort: Vec<usize> = (0..N).collect();
    let mut plan = RoundPlan::new(cohort.clone());
    plan.updates = cohort
        .iter()
        .map(|&i| (i, lsa_field::ops::random_vector(D, &mut rng)))
        .collect();
    // one straggler per leaf group vanishes after upload
    plan.drop_after_upload = (0..16).map(|g| g * (N / 16)).collect();
    par::with_threads(threads, || fed.run_round(&plan).unwrap())
}

#[test]
fn tree_parallel_recovery_bit_identical_two_level_fp61() {
    let serial = run_hierarchical_round::<Fp61>(1, 9);
    for threads in [4usize, 8] {
        let parallel = run_hierarchical_round::<Fp61>(threads, 9);
        assert_eq!(
            serial.aggregate, parallel.aggregate,
            "aggregate diverged at {threads} threads"
        );
        assert_eq!(serial.contributors, parallel.contributors);
        assert_eq!(serial.total_weight, parallel.total_weight);
    }
}

#[test]
fn tree_parallel_recovery_bit_identical_two_level_fp32() {
    let serial = run_hierarchical_round::<Fp32>(1, 10);
    let parallel = run_hierarchical_round::<Fp32>(4, 10);
    assert_eq!(serial.aggregate, parallel.aggregate);
    assert_eq!(serial.contributors, parallel.contributors);
}

/// Hierarchy is sum-preserving: the two-level aggregate equals the
/// depth-1 aggregate over the same updates (masks differ, sums agree).
#[test]
fn two_level_matches_depth_one_aggregate() {
    let mut rng = StdRng::seed_from_u64(31);
    let cohort: Vec<usize> = (0..N).collect();
    let updates: Vec<(usize, Vec<Fp61>)> = cohort
        .iter()
        .map(|&i| (i, lsa_field::ops::random_vector(D, &mut rng)))
        .collect();
    let mut outs = Vec::new();
    for topo in [
        GroupTopology::uniform(N, 16, 0.25, 0.9, D).unwrap(),
        GroupTopology::hierarchical(N, &[4, 4], 0.25, 0.9, D).unwrap(),
    ] {
        let grouped = GroupedFederation::<Fp61>::new(topo, MemTransport::new(), 5).unwrap();
        let mut fed = Federation::new(Box::new(grouped));
        let mut plan = RoundPlan::new(cohort.clone());
        plan.updates = updates.clone();
        outs.push(fed.run_round(&plan).unwrap());
    }
    assert_eq!(outs[0].aggregate, outs[1].aggregate);
    assert_eq!(outs[0].contributors, outs[1].contributors);
}

// ---------------------------------------------------------------------
// Tree-parallel opens: `open_round` fans the leaves across the pool too
// ---------------------------------------------------------------------

/// A [`MemTransport`] whose clones share one tally of envelopes sent
/// per kind, so a tree's per-leaf transports count as one.
#[derive(Clone, Default)]
struct KindTally {
    inner: MemTransport,
    tally: Arc<Mutex<BTreeMap<u8, usize>>>,
}

impl KindTally {
    fn snapshot(&self) -> BTreeMap<u8, usize> {
        self.tally.lock().unwrap().clone()
    }
}

impl<F: Field> Transport<F> for KindTally {
    fn send(
        &mut self,
        from: Recipient,
        to: Recipient,
        envelope: &Envelope<F>,
    ) -> Result<(), ProtocolError> {
        *self
            .tally
            .lock()
            .unwrap()
            .entry(envelope.kind().tag())
            .or_default() += 1;
        Transport::<F>::send(&mut self.inner, from, to, envelope)
    }

    fn recv(&mut self) -> Result<Option<Delivery<F>>, ProtocolError> {
        Transport::<F>::recv(&mut self.inner)
    }

    fn bytes_sent(&self) -> usize {
        Transport::<F>::bytes_sent(&self.inner)
    }

    fn messages_sent(&self) -> usize {
        Transport::<F>::messages_sent(&self.inner)
    }
}

/// Everything a round leaves observable: the outcome, the report's
/// traffic and events, and the tree-wide envelope count per kind.
#[derive(Debug, PartialEq)]
struct Observed {
    aggregate: Vec<Fp61>,
    contributors: Vec<usize>,
    total_weight: u64,
    payload_bytes: usize,
    framing_bytes: usize,
    envelopes: usize,
    events: EventCounters,
    kinds: BTreeMap<u8, usize>,
}

const STRETCH_N: usize = 64;
const STRETCH_LEAF: usize = 16;
const STRETCH_D: usize = 24;

/// Drive `cohorts[r]` through a 4-leaf tree, round by round, with one
/// rotating after-upload dropout, checking each aggregate against the
/// plaintext sum.
fn run_stretch(threads: usize, cohorts: &[Vec<usize>]) -> Vec<Observed> {
    let topo =
        GroupTopology::uniform(STRETCH_N, STRETCH_N / STRETCH_LEAF, 0.25, 0.75, STRETCH_D).unwrap();
    let transport = KindTally::default();
    let mut tree = GroupedFederation::<Fp61>::new(topo, transport.clone(), 21).unwrap();
    let mut rng = StdRng::seed_from_u64(22);
    par::with_threads(threads, || {
        cohorts
            .iter()
            .enumerate()
            .map(|(r, cohort)| {
                tree.open_round(cohort).unwrap();
                let mut sum = vec![Fp61::ZERO; STRETCH_D];
                for &id in cohort {
                    let update = lsa_field::ops::random_vector(STRETCH_D, &mut rng);
                    lsa_field::ops::add_assign(&mut sum, &update);
                    tree.submit(id, &update).unwrap();
                }
                tree.mark_dropped(cohort[(5 * r) % cohort.len()]).unwrap();
                let out = tree.finish_round().unwrap();
                assert_eq!(out.aggregate, sum, "round {r}: not the plaintext sum");
                let report = tree.round_report().expect("a finished round reports");
                Observed {
                    aggregate: out.aggregate,
                    contributors: out.contributors,
                    total_weight: out.total_weight,
                    payload_bytes: report.payload_bytes,
                    framing_bytes: report.framing_bytes,
                    envelopes: report.envelopes,
                    events: report.events,
                    kinds: transport.snapshot(),
                }
            })
            .collect()
    })
}

fn assert_thread_count_invisible(cohorts: &[Vec<usize>]) -> Vec<Observed> {
    let serial = run_stretch(1, cohorts);
    let parallel = run_stretch(4, cohorts);
    for (r, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "round {r} differs between 1 and 4 threads");
    }
    serial
}

/// A stable cohort over the base round plus two whole commit windows
/// and the next window's commit round: the ratcheted opens (commit,
/// ack and zero-traffic joins) must not depend on the thread count.
#[test]
fn stable_stretch_is_identical_across_thread_counts() {
    let rounds = 2 * DEFAULT_COMMIT_WINDOW + 2;
    let cohorts = vec![(0..STRETCH_N).collect::<Vec<_>>(); rounds];
    let serial = assert_thread_count_invisible(&cohorts);
    if ratchet_enabled() {
        let ratcheted: usize = serial
            .iter()
            .map(|o| o.events.ratchets + o.events.windowed_ratchets)
            .sum();
        assert!(ratcheted > 0, "the stable stretch must ratchet");
    }
}

/// Every leaf omits one member, a different one each round: every open
/// runs the full coded-mask exchange.
#[test]
fn sampled_stretch_is_identical_across_thread_counts() {
    let cohorts: Vec<Vec<usize>> = (0..6)
        .map(|r| {
            (0..STRETCH_N)
                .filter(|&id| id % STRETCH_LEAF != (r + id / STRETCH_LEAF) % STRETCH_LEAF)
                .collect()
        })
        .collect();
    let serial = assert_thread_count_invisible(&cohorts);
    assert!(serial
        .iter()
        .all(|o| o.events.ratchets + o.events.windowed_ratchets == 0));
}

/// What the children of [`FlakyChild`] did, in call order.
type CallLog = Arc<Mutex<Vec<(usize, &'static str)>>>;

/// A leaf whose `open_round` fails while its `broken` flag is set, and
/// which logs every successful open and every abort.
struct FlakyChild {
    index: usize,
    inner: SyncFederation<Fp61, MemTransport>,
    broken: Arc<AtomicBool>,
    log: CallLog,
}

impl SecureAggregator<Fp61> for FlakyChild {
    fn config(&self) -> LsaConfig {
        self.inner.config()
    }

    fn round(&self) -> u64 {
        self.inner.round()
    }

    fn open_round(&mut self, cohort: &[usize]) -> Result<u64, ProtocolError> {
        if self.broken.load(Ordering::SeqCst) {
            return Err(ProtocolError::InvalidConfig(format!(
                "child {} refuses to open",
                self.index
            )));
        }
        let round = self.inner.open_round(cohort)?;
        self.log.lock().unwrap().push((self.index, "open"));
        Ok(round)
    }

    fn prepare_next(&mut self, cohort: &[usize]) -> Result<(), ProtocolError> {
        self.inner.prepare_next(cohort)
    }

    fn submit(&mut self, id: usize, update: &[Fp61]) -> Result<(), ProtocolError> {
        self.inner.submit(id, update)
    }

    fn mark_dropped(&mut self, id: usize) -> Result<(), ProtocolError> {
        self.inner.mark_dropped(id)
    }

    fn finish_round(&mut self) -> Result<RoundOutcome<Fp61>, ProtocolError> {
        self.inner.finish_round()
    }

    fn abort_round(&mut self) {
        self.log.lock().unwrap().push((self.index, "abort"));
        self.inner.abort_round();
    }

    fn bytes_sent(&self) -> usize {
        self.inner.bytes_sent()
    }

    fn round_report(&self) -> Option<RoundReport> {
        self.inner.round_report()
    }
}

#[test]
fn failed_parallel_open_reports_the_lowest_child_and_aborts_the_rest() {
    const CHILDREN: usize = 5;
    let cfg = LsaConfig::new(4, 1, 3, 8).unwrap();
    let log = CallLog::default();
    let flags: Vec<Arc<AtomicBool>> = (0..CHILDREN)
        .map(|c| Arc::new(AtomicBool::new(c == 1 || c == 3)))
        .collect();
    let children: Vec<BoxedAggregator<Fp61>> = flags
        .iter()
        .enumerate()
        .map(|(index, broken)| {
            Box::new(FlakyChild {
                index,
                inner: SyncFederation::new(cfg, MemTransport::new(), 40 + index as u64).unwrap(),
                broken: Arc::clone(broken),
                log: Arc::clone(&log),
            }) as BoxedAggregator<Fp61>
        })
        .collect();
    let mut tree = GroupedFederation::from_children(children).unwrap();
    let cohort: Vec<usize> = (0..CHILDREN * cfg.n()).collect();

    for threads in [1usize, 4] {
        log.lock().unwrap().clear();
        let err = par::with_threads(threads, || tree.open_round(&cohort)).unwrap_err();
        assert_eq!(
            err.to_string(),
            ProtocolError::InvalidConfig("child 1 refuses to open".into()).to_string(),
            "{threads} threads: the lowest failing child's error"
        );
        let calls = log.lock().unwrap().clone();
        let opened: BTreeSet<usize> = calls
            .iter()
            .filter(|c| c.1 == "open")
            .map(|c| c.0)
            .collect();
        let aborted: BTreeSet<usize> = calls
            .iter()
            .filter(|c| c.1 == "abort")
            .map(|c| c.0)
            .collect();
        assert!(opened.is_subset(&BTreeSet::from([0, 2, 4])), "{calls:?}");
        assert!(opened.contains(&0), "a child before the failure opened");
        assert_eq!(
            opened, aborted,
            "{threads} threads: every opened child is aborted"
        );
        assert!(calls.iter().all(|c| c.1 == "open" || opened.contains(&c.0)));
    }

    // healthy again: the next round opens and sums exactly
    for flag in &flags {
        flag.store(false, Ordering::SeqCst);
    }
    let mut rng = StdRng::seed_from_u64(41);
    let updates: Vec<Vec<Fp61>> = cohort
        .iter()
        .map(|_| lsa_field::ops::random_vector(cfg.d(), &mut rng))
        .collect();
    let out = par::with_threads(4, || {
        tree.open_round(&cohort).unwrap();
        for (&id, update) in cohort.iter().zip(&updates) {
            tree.submit(id, update).unwrap();
        }
        tree.finish_round().unwrap()
    });
    let mut sum = vec![Fp61::ZERO; cfg.d()];
    for update in &updates {
        lsa_field::ops::add_assign(&mut sum, update);
    }
    assert_eq!(out.aggregate, sum);
    assert_eq!(out.contributors, cohort);
}
