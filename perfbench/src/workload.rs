//! The named workloads: their shapes, the seeded per-round sampler that
//! generates every input, and the correctness gate.
//!
//! Everything a round needs — cohort, after-upload dropouts and every
//! member's update — derives from the `--seed` argument alone, so the
//! same seed replays the same rounds bit for bit.

use lsa_field::Field;
use lsa_protocol::{GroupTopology, LsaConfig, ProtocolError, RoundOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A benchmark workload, selected by name on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The whole grouped cohort every round: the mask ratchet engages.
    StableCohort,
    /// Every leaf's cohort changes every round: the full coded-mask
    /// exchange runs every round.
    SampledCohort,
    /// The flat buffered-asynchronous variant at a wide model.
    AsyncWide,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::StableCohort,
        Workload::SampledCohort,
        Workload::AsyncWide,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StableCohort => "stable_cohort",
            Workload::SampledCohort => "sampled_cohort",
            Workload::AsyncWide => "async_wide",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the grouped aggregator tree.
    pub fn grouped(self) -> bool {
        !matches!(self, Workload::AsyncWide)
    }

    /// The population shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::StableCohort | Workload::SampledCohort => Shape::Grouped {
                n: 1024,
                leaves: 64,
                t_frac: 0.25,
                u_frac: 0.75,
                d: 256,
            },
            Workload::AsyncWide => Shape::Flat {
                n: 100,
                t: 25,
                u: 70,
                d: 8192,
                cohort: 90,
                dropped: 20,
            },
        }
    }
}

/// A workload's population and protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// `n` users in `leaves` equal leaf groups under one root, with
    /// per-leaf thresholds from the fractions.
    Grouped {
        n: usize,
        leaves: usize,
        t_frac: f64,
        u_frac: f64,
        d: usize,
    },
    /// A flat population of `n` users; each round a `cohort`-sized
    /// subset takes part and `dropped` of them vanish after upload.
    Flat {
        n: usize,
        t: usize,
        u: usize,
        d: usize,
        cohort: usize,
        dropped: usize,
    },
}

impl Shape {
    /// The model dimension.
    pub fn d(&self) -> usize {
        match *self {
            Shape::Grouped { d, .. } | Shape::Flat { d, .. } => d,
        }
    }

    /// The grouped topology (`None` when flat).
    pub fn topology(&self) -> Option<GroupTopology> {
        match *self {
            Shape::Grouped {
                n,
                leaves,
                t_frac,
                u_frac,
                d,
            } => Some(
                GroupTopology::uniform(n, leaves, t_frac, u_frac, d)
                    .expect("workload topology is valid"),
            ),
            Shape::Flat { .. } => None,
        }
    }

    /// The configuration of one recovery domain: a leaf when grouped,
    /// the whole population when flat.
    pub fn domain_config(&self) -> LsaConfig {
        match *self {
            Shape::Grouped { .. } => self.topology().expect("grouped").group_config(0),
            Shape::Flat { n, t, u, d, .. } => {
                LsaConfig::new(n, t, u, d).expect("workload config is valid")
            }
        }
    }
}

/// Everything one round needs, plus its expected aggregate.
#[derive(Debug, Clone)]
pub struct RoundInput<F> {
    /// Global ids taking part, ascending.
    pub cohort: Vec<usize>,
    /// Cohort members that vanish after uploading, ascending.
    pub dropped: Vec<usize>,
    /// One update per cohort member, aligned with `cohort`.
    pub updates: Vec<Vec<F>>,
    /// The plaintext sum of every uploader's update — every cohort
    /// member uploads, so this is the sum over the whole cohort.
    pub expected: Vec<F>,
}

/// The seeded generator of a workload's rounds.
#[derive(Debug, Clone)]
pub struct Sampler {
    workload: Workload,
    shape: Shape,
    /// Leaf memberships (global ids) for grouped workloads.
    leaves: Vec<Vec<usize>>,
    /// The leaf of every global id (grouped workloads).
    leaf_of: Vec<usize>,
    /// Cohort and dropout choices.
    plan_rng: StdRng,
    /// Update values (a stream of its own, so plan choices never shift
    /// the values and vice versa).
    value_rng: StdRng,
    /// The rotating dropout's starting offset.
    offset: usize,
    /// Per-leaf member omitted last round (sampled cohorts).
    prev_omitted: Vec<Option<usize>>,
    /// Last round's cohort (flat workloads).
    prev_cohort: Vec<usize>,
    round: usize,
}

impl Sampler {
    /// The sampler for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self::with_shape(workload, workload.shape(), seed)
    }

    /// The sampler for `workload`'s cohort policy over another `shape`
    /// (tests use small ones).
    pub fn with_shape(workload: Workload, shape: Shape, seed: u64) -> Self {
        let leaves: Vec<Vec<usize>> = shape.topology().map_or_else(Vec::new, |topo| {
            (0..topo.num_groups()).map(|g| topo.members_of(g)).collect()
        });
        let mut leaf_of = vec![0; leaves.iter().map(Vec::len).sum()];
        for (g, members) in leaves.iter().enumerate() {
            for &id in members {
                leaf_of[id] = g;
            }
        }
        let mut plan_rng = StdRng::seed_from_u64(seed ^ 0x706c_616e_5f72_6e67);
        let value_rng = StdRng::seed_from_u64(seed ^ 0x7661_6c75_655f_726e);
        let offset = plan_rng.gen_range(0..1 << 20);
        Self {
            workload,
            shape,
            prev_omitted: vec![None; leaves.len()],
            leaves,
            leaf_of,
            plan_rng,
            value_rng,
            offset,
            prev_cohort: Vec::new(),
            round: 0,
        }
    }

    /// The next round's cohort and after-upload dropouts.
    pub fn next_plan(&mut self) -> (Vec<usize>, Vec<usize>) {
        let round = self.round;
        self.round += 1;
        match self.shape {
            Shape::Grouped { .. } => {
                let mut cohort: Vec<usize> = match self.workload {
                    Workload::SampledCohort => {
                        let mut cohort = Vec::new();
                        for (leaf, members) in self.leaves.iter().enumerate() {
                            let omit = loop {
                                let pick = members[self.plan_rng.gen_range(0..members.len())];
                                if Some(pick) != self.prev_omitted[leaf] {
                                    break pick;
                                }
                            };
                            self.prev_omitted[leaf] = Some(omit);
                            cohort.extend(members.iter().copied().filter(|&id| id != omit));
                        }
                        cohort
                    }
                    _ => self.leaves.concat(),
                };
                cohort.sort_unstable();
                let dropped = vec![cohort[(self.offset + round) % cohort.len()]];
                (cohort, dropped)
            }
            Shape::Flat {
                n,
                cohort: size,
                dropped,
                ..
            } => {
                let cohort = loop {
                    let mut pick = sample_without_replacement(&mut self.plan_rng, n, size);
                    pick.sort_unstable();
                    if pick != self.prev_cohort {
                        break pick;
                    }
                };
                self.prev_cohort = cohort.clone();
                let mut gone: Vec<usize> =
                    sample_without_replacement(&mut self.plan_rng, size, dropped)
                        .into_iter()
                        .map(|i| cohort[i])
                        .collect();
                gone.sort_unstable();
                (cohort, gone)
            }
        }
    }

    /// Coded mask shares a full exchange among `cohort` sends: every
    /// member codes one share for every other member of its recovery
    /// domain, so `Σ c(c − 1)` over domains of `c` members.
    pub fn full_exchange_shares(&self, cohort: &[usize]) -> u64 {
        let mut per_domain = vec![0u64; self.leaves.len().max(1)];
        for &id in cohort {
            per_domain[self.leaf_of.get(id).copied().unwrap_or(0)] += 1;
        }
        per_domain.iter().map(|&c| c * c.saturating_sub(1)).sum()
    }

    /// The next round's full input: plan, updates and expected sum.
    pub fn next_round<F: Field>(&mut self) -> RoundInput<F> {
        let (cohort, dropped) = self.next_plan();
        let d = self.shape.d();
        let updates: Vec<Vec<F>> = cohort
            .iter()
            .map(|_| lsa_field::ops::random_vector(d, &mut self.value_rng))
            .collect();
        let mut expected = vec![F::ZERO; d];
        for update in &updates {
            lsa_field::ops::add_assign(&mut expected, update);
        }
        RoundInput {
            cohort,
            dropped,
            updates,
            expected,
        }
    }
}

/// `k` distinct indices from `0..n`, in sampling order (partial
/// Fisher–Yates).
fn sample_without_replacement(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// Check one round's result against its input: the aggregate must be
/// the plaintext sum, every cohort member must be a contributor, and
/// every weight must be 1. Returns why the round failed.
pub fn check_round<F: Field>(
    outcome: &Result<RoundOutcome<F>, ProtocolError>,
    input: &RoundInput<F>,
) -> Result<(), String> {
    let out = outcome
        .as_ref()
        .map_err(|e| format!("protocol error: {e}"))?;
    if out.aggregate != input.expected {
        let first = out
            .aggregate
            .iter()
            .zip(&input.expected)
            .position(|(got, want)| got != want);
        return Err(match first {
            Some(k) => format!("aggregate differs from the plaintext sum at element {k}"),
            None => format!(
                "aggregate length {} != model dimension {}",
                out.aggregate.len(),
                input.expected.len()
            ),
        });
    }
    if out.contributors != input.cohort {
        return Err(format!(
            "{} contributors, expected the {} uploaders",
            out.contributors.len(),
            input.cohort.len()
        ));
    }
    if out.total_weight != input.cohort.len() as u64 {
        return Err(format!(
            "total weight {} != {} uploaders",
            out.total_weight,
            input.cohort.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::Fp61;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_rounds() {
        let mut a = Sampler::new(Workload::SampledCohort, 7);
        let mut b = Sampler::new(Workload::SampledCohort, 7);
        for _ in 0..3 {
            let (x, y) = (a.next_round::<Fp61>(), b.next_round::<Fp61>());
            assert_eq!(x.cohort, y.cohort);
            assert_eq!(x.dropped, y.dropped);
            assert_eq!(x.updates, y.updates);
        }
        let mut c = Sampler::new(Workload::SampledCohort, 8);
        assert_ne!(
            a.next_plan(),
            c.next_plan(),
            "another seed gives another plan"
        );
    }

    #[test]
    fn stable_cohort_is_everyone_with_one_rotating_dropout() {
        let mut s = Sampler::new(Workload::StableCohort, 3);
        let mut drops = Vec::new();
        for _ in 0..4 {
            let (cohort, dropped) = s.next_plan();
            assert_eq!(cohort, (0..1024).collect::<Vec<_>>());
            assert_eq!(dropped.len(), 1);
            drops.push(dropped[0]);
        }
        for pair in drops.windows(2) {
            assert_eq!((pair[0] + 1) % 1024, pair[1], "dropout rotates");
        }
    }

    #[test]
    fn sampled_cohort_changes_every_leaf_every_round_above_threshold() {
        let shape = Workload::SampledCohort.shape();
        let topo = shape.topology().unwrap();
        let mut s = Sampler::new(Workload::SampledCohort, 11);
        let mut prev: Option<Vec<Vec<usize>>> = None;
        for _ in 0..50 {
            let (cohort, dropped) = s.next_plan();
            let per_leaf: Vec<Vec<usize>> = (0..topo.num_groups())
                .map(|g| {
                    let members = topo.members_of(g);
                    cohort
                        .iter()
                        .copied()
                        .filter(|id| members.contains(id))
                        .collect()
                })
                .collect();
            for (g, leaf) in per_leaf.iter().enumerate() {
                let cfg = topo.group_config(g);
                assert_eq!(leaf.len(), cfg.n() - 1, "one member omitted per leaf");
                let survivors = leaf.iter().filter(|id| !dropped.contains(id)).count();
                assert!(survivors >= cfg.u(), "leaf {g}: {survivors} < U");
            }
            if let Some(prev) = &prev {
                for (g, (now, before)) in per_leaf.iter().zip(prev).enumerate() {
                    assert_ne!(now, before, "leaf {g} kept its cohort");
                }
            }
            assert!(dropped.iter().all(|id| cohort.contains(id)));
            prev = Some(per_leaf);
        }
    }

    #[test]
    fn async_wide_leaves_exactly_u_survivors_and_always_changes() {
        let Shape::Flat {
            n,
            u,
            cohort: size,
            dropped: gone,
            ..
        } = Workload::AsyncWide.shape()
        else {
            panic!("async_wide is flat");
        };
        let mut s = Sampler::new(Workload::AsyncWide, 5);
        let mut prev = Vec::new();
        for _ in 0..50 {
            let (cohort, dropped) = s.next_plan();
            assert_eq!(cohort.len(), size);
            assert!(cohort.windows(2).all(|w| w[0] < w[1]) && cohort[size - 1] < n);
            assert_eq!(dropped.len(), gone);
            assert!(dropped.windows(2).all(|w| w[0] < w[1]));
            assert!(dropped.iter().all(|id| cohort.contains(id)));
            assert_eq!(cohort.len() - dropped.len(), u, "exactly U survivors");
            assert_ne!(cohort, prev, "the cohort changes every round");
            prev = cohort;
        }
    }

    #[test]
    fn expected_is_the_sum_of_every_update() {
        let mut s = Sampler::new(Workload::AsyncWide, 1);
        let input = s.next_round::<Fp61>();
        assert_eq!(input.updates.len(), input.cohort.len());
        for k in [0, 17, 8191] {
            let want: Fp61 = input.updates.iter().map(|u| u[k]).sum();
            assert_eq!(input.expected[k], want);
        }
    }

    fn passing_outcome(input: &RoundInput<Fp61>) -> RoundOutcome<Fp61> {
        RoundOutcome {
            round: 0,
            aggregate: input.expected.clone(),
            contributors: input.cohort.clone(),
            total_weight: input.cohort.len() as u64,
        }
    }

    #[test]
    fn gate_accepts_the_plaintext_sum() {
        let input = Sampler::new(Workload::StableCohort, 2).next_round::<Fp61>();
        assert_eq!(check_round(&Ok(passing_outcome(&input)), &input), Ok(()));
    }

    #[test]
    fn gate_rejects_a_corrupted_aggregate() {
        let input = Sampler::new(Workload::StableCohort, 2).next_round::<Fp61>();
        let mut out = passing_outcome(&input);
        out.aggregate[100] += Fp61::ONE;
        let err = check_round(&Ok(out), &input).unwrap_err();
        assert!(err.contains("element 100"), "{err}");
    }

    #[test]
    fn gate_rejects_truncation_lost_contributors_and_errors() {
        let input = Sampler::new(Workload::StableCohort, 2).next_round::<Fp61>();
        let mut short = passing_outcome(&input);
        short.aggregate.pop();
        assert!(check_round(&Ok(short), &input).is_err());
        let mut lost = passing_outcome(&input);
        lost.contributors.pop();
        assert!(check_round(&Ok(lost), &input).is_err());
        let mut heavy = passing_outcome(&input);
        heavy.total_weight += 1;
        assert!(check_round(&Ok(heavy), &input).is_err());
        let err = check_round(&Err(ProtocolError::RatchetMismatch), &input).unwrap_err();
        assert!(err.starts_with("protocol error"), "{err}");
    }
}
