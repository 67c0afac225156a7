//! Standalone probes of the kernel crates' public functions at one
//! recovery domain's shape. Each kernel is timed alone, with warm
//! caches, so a probe shows what a kernel change saves per call — not
//! what it saves inside a round.

use lsa_coding::VandermondeCode;
use lsa_crypto::{sha256, FieldPrg, Seed};
use lsa_field::Field;
use lsa_protocol::LsaConfig;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Length of the ratchet's pair-seed domain tag plus its four `u64`
/// binding words (group, base round, lower and higher endpoint).
const PAIR_SEED_HEADER: usize = 19 + 4 * 8;

/// Microseconds per call of each probed kernel.
#[derive(Debug, Clone, Copy)]
pub struct KernelTimes {
    /// `VandermondeCode::encode_all`: one user's mask into `n` shares.
    pub encode_us: f64,
    /// `VandermondeCode::decode_prefix`: the one-shot aggregate-mask
    /// recovery from `U` shares.
    pub decode_us: f64,
    /// `FieldPrg::expand` of `d` elements, PRG set-up included.
    pub prg_us: f64,
    /// `sha256::digest` of one pair-seed input (two coded segments).
    pub sha256_us: f64,
    /// `ops::add_assign` over `d` elements.
    pub add_assign_us: f64,
    /// `ops::weighted_sum_into` of `U` inputs of `d` elements.
    pub weighted_sum_us: f64,
}

/// Median microseconds per call of `f` over `batches` batches, each
/// long enough (≥ 1 ms) for the clock's resolution not to matter.
fn time_us(batches: usize, mut f: impl FnMut()) -> f64 {
    let mut per_batch = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        if start.elapsed() >= Duration::from_millis(1) {
            break;
        }
        per_batch *= 2;
    }
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect();
    crate::stats::median(&samples).expect("at least one batch")
}

/// Probe every kernel at `cfg`'s shape (`n` users, `U` segments of the
/// configuration's segment length, `d`-element model).
pub fn probe<F: Field>(cfg: LsaConfig, seed: u64) -> KernelTimes {
    const BATCHES: usize = 15;
    let mut rng = StdRng::seed_from_u64(seed);
    let (n, u, t, d, seg) = (cfg.n(), cfg.u(), cfg.t(), cfg.d(), cfg.segment_len());

    let code = VandermondeCode::<F>::new(n, u).expect("domain code is valid");
    let segments: Vec<Vec<F>> = (0..u)
        .map(|_| lsa_field::ops::random_vector(seg, &mut rng))
        .collect();
    let encode_us = time_us(BATCHES, || {
        black_box(code.encode_all(black_box(&segments)));
    });
    let coded = code.encode_all(&segments);
    let shares: Vec<(usize, Vec<F>)> = coded.into_iter().enumerate().take(u).collect();
    let decode_us = time_us(BATCHES, || {
        black_box(
            code.decode_prefix(black_box(&shares), u - t)
                .expect("U shares decode"),
        );
    });

    let mut key = [0u8; 32];
    rng.fill_bytes(&mut key);
    let prg_us = time_us(BATCHES, || {
        black_box(FieldPrg::new(Seed(black_box(key))).expand::<F>(d));
    });

    let mut pair_input = vec![0u8; PAIR_SEED_HEADER + 2 * 8 * seg];
    rng.fill_bytes(&mut pair_input);
    let sha256_us = time_us(BATCHES, || {
        black_box(sha256::digest(black_box(&pair_input)));
    });

    let x: Vec<F> = lsa_field::ops::random_vector(d, &mut rng);
    let mut acc: Vec<F> = lsa_field::ops::random_vector(d, &mut rng);
    let add_assign_us = time_us(BATCHES, || {
        lsa_field::ops::add_assign(black_box(&mut acc), black_box(&x));
    });

    let inputs: Vec<Vec<F>> = (0..u)
        .map(|_| lsa_field::ops::random_vector(d, &mut rng))
        .collect();
    let refs: Vec<&[F]> = inputs.iter().map(Vec::as_slice).collect();
    let coeffs: Vec<F> = lsa_field::ops::random_vector(u, &mut rng);
    let mut out = vec![F::ZERO; d];
    let weighted_sum_us = time_us(BATCHES, || {
        lsa_field::ops::weighted_sum_into(black_box(&mut out), black_box(&coeffs), &refs);
    });

    KernelTimes {
        encode_us,
        decode_us,
        prg_us,
        sha256_us,
        add_assign_us,
        weighted_sum_us,
    }
}
