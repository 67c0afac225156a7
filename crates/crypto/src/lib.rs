//! Cryptographic primitives for the LightSecAgg reproduction.
//!
//! The secure-aggregation protocols need three primitives:
//!
//! * a **PRG** expanding a short seed into `d` field elements — used by
//!   SecAgg/SecAgg+ for the pairwise masks `PRG(a_{i,j})` and self-masks
//!   `PRG(b_i)`; implemented as a from-scratch [`chacha::ChaCha20`] stream
//!   feeding rejection sampling ([`FieldPrg`]);
//! * a **key agreement** so each user pair derives a common seed — the
//!   paper uses Diffie–Hellman; we implement classic DH over the
//!   multiplicative group of a 62-bit safe prime ([`dh`]). *Substitution
//!   note*: production systems use X25519; the group size here is a
//!   simulation-scale parameter and does not change protocol logic,
//!   message flow or asymptotics (documented in `DESIGN.md` §4);
//! * a **KDF/hash** to turn group elements into PRG seeds — a
//!   from-scratch [`sha256`] implementation validated against FIPS 180-4
//!   test vectors.
//!
//! # Example: two users derive the same pairwise mask
//!
//! ```
//! use lsa_crypto::{dh::KeyPair, FieldPrg, Seed};
//! use lsa_field::Fp32;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let alice = KeyPair::generate(&mut rng);
//! let bob = KeyPair::generate(&mut rng);
//!
//! let seed_a = alice.agree(&bob.public_key());
//! let seed_b = bob.agree(&alice.public_key());
//! assert_eq!(seed_a, seed_b);
//!
//! let mask_a: Vec<Fp32> = FieldPrg::new(seed_a).expand(16);
//! let mask_b: Vec<Fp32> = FieldPrg::new(seed_b).expand(16);
//! assert_eq!(mask_a, mask_b);
//! ```

pub mod chacha;
pub mod dh;
pub mod sha256;

use lsa_field::Field;

/// A 256-bit PRG seed.
///
/// Seeds come from key agreement ([`dh::KeyPair::agree`]), from fresh
/// randomness (`Seed::random`), or deterministically from a label for
/// tests (`Seed::from_label`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Seed(pub [u8; 32]);

impl Seed {
    /// Sample a fresh uniformly random seed.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        Seed(bytes)
    }

    /// Deterministically derive a seed from a label (SHA-256 of the bytes).
    /// Useful for reproducible tests and examples.
    pub fn from_label(label: &[u8]) -> Self {
        Seed(sha256::digest(label))
    }

    /// Derive a sub-seed for a domain (e.g. a round number), so one shared
    /// secret can yield independent per-round masks.
    pub fn derive(&self, domain: u64) -> Self {
        let mut buf = [0u8; 40];
        buf[..32].copy_from_slice(&self.0);
        buf[32..].copy_from_slice(&domain.to_le_bytes());
        Seed(sha256::digest(&buf))
    }
}

/// A PRG expanding a [`Seed`] into uniformly random field elements.
///
/// Uses the ChaCha20 keystream with rejection sampling, so elements are
/// exactly uniform over `F_q` and two parties expanding the same seed get
/// identical vectors (the property SecAgg's pairwise cancellation rests
/// on).
#[derive(Debug, Clone)]
pub struct FieldPrg {
    stream: chacha::ChaCha20,
}

impl FieldPrg {
    /// Create a PRG from a seed (ChaCha20 keyed by the seed, zero nonce).
    pub fn new(seed: Seed) -> Self {
        Self {
            stream: chacha::ChaCha20::new(&seed.0, &[0u8; 12]),
        }
    }

    /// Generate `len` uniformly random field elements.
    pub fn expand<F: Field>(&mut self, len: usize) -> Vec<F> {
        let mut out = vec![F::ZERO; len];
        self.fill(&mut out);
        out
    }

    /// Overwrite `out` with the next `out.len()` elements — the same
    /// stream [`Self::expand`] returns, into a caller-owned buffer.
    pub fn fill<F: Field>(&mut self, out: &mut [F]) {
        for x in out {
            *x = self.next_element();
        }
    }

    /// Generate the next single field element.
    pub fn next_element<F: Field>(&mut self) -> F {
        // Draw ceil(BITS/8)-byte words; reject values >= MODULUS.
        let nbytes = usize::max(1, F::BITS.div_ceil(8) as usize);
        loop {
            let v = self.stream.next_word_le(nbytes);
            // mask off excess bits to keep the rejection rate low
            let v = if F::BITS >= 64 {
                v
            } else {
                v & ((1u64 << F::BITS) - 1)
            };
            if v < F::MODULUS {
                return F::from_u64(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::{Fp32, Fp61};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn same_seed_same_expansion() {
        let seed = Seed::from_label(b"test");
        let a: Vec<Fp32> = FieldPrg::new(seed).expand(100);
        let b: Vec<Fp32> = FieldPrg::new(seed).expand(100);
        assert_eq!(a, b);
    }

    #[test]
    fn fill_equals_expand() {
        let seed = Seed::from_label(b"fill");
        let want: Vec<Fp61> = FieldPrg::new(seed).expand(37);
        // a dirty buffer: fill must overwrite, not accumulate
        let mut got = vec![Fp61::ONE; 37];
        FieldPrg::new(seed).fill(&mut got);
        assert_eq!(got, want);
        // successive fills continue one stream
        let mut prg = FieldPrg::new(seed);
        let (mut head, mut tail) = (vec![Fp32::ZERO; 5], vec![Fp32::ZERO; 9]);
        prg.fill(&mut head);
        prg.fill(&mut tail);
        head.extend(tail);
        assert_eq!(head, FieldPrg::new(seed).expand::<Fp32>(14));
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<Fp32> = FieldPrg::new(Seed::from_label(b"a")).expand(32);
        let b: Vec<Fp32> = FieldPrg::new(Seed::from_label(b"b")).expand(32);
        assert_ne!(a, b);
    }

    #[test]
    fn derive_gives_independent_streams() {
        let root = Seed::from_label(b"root");
        let a: Vec<Fp32> = FieldPrg::new(root.derive(0)).expand(32);
        let b: Vec<Fp32> = FieldPrg::new(root.derive(1)).expand(32);
        assert_ne!(a, b);
        // deterministic
        let a2: Vec<Fp32> = FieldPrg::new(root.derive(0)).expand(32);
        assert_eq!(a, a2);
    }

    #[test]
    fn expansion_covers_field_roughly_uniformly() {
        let mut prg = FieldPrg::new(Seed::from_label(b"uniform"));
        let xs: Vec<Fp61> = prg.expand(20_000);
        let mut buckets = [0u32; 8];
        for x in &xs {
            buckets[(x.residue() >> 58) as usize] += 1; // top 3 bits
        }
        for b in buckets {
            assert!((2000..3000).contains(&b), "bucket {b}");
        }
    }

    #[test]
    fn random_seed_uses_rng() {
        let mut rng = StdRng::seed_from_u64(7);
        let s1 = Seed::random(&mut rng);
        let s2 = Seed::random(&mut rng);
        assert_ne!(s1, s2);
    }
}
