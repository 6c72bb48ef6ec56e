//! Packed binary hypervectors and integer accumulator hypervectors.
//!
//! Binary hypervectors use the *bipolar* interpretation throughout the
//! crate: a stored bit `0` denotes the component value `+1` and a stored
//! bit `1` denotes `-1`. Under this mapping, element-wise multiplication of
//! bipolar vectors is exactly XOR of the stored bits, which is what the
//! GENERIC datapath computes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::kernels::{self, KernelSet};
use crate::HdcError;

const WORD_BITS: usize = 64;

/// A dense, bit-packed binary hypervector of fixed dimensionality.
///
/// Bits beyond `dim` in the last word are always zero; every operation
/// maintains this invariant so that population counts and word-level XORs
/// never see garbage padding.
///
/// ```
/// use generic_hdc::BinaryHv;
///
/// # fn main() -> Result<(), generic_hdc::HdcError> {
/// let a = BinaryHv::random_seeded(1024, 1)?;
/// let b = BinaryHv::random_seeded(1024, 2)?;
/// // Random hypervectors are quasi-orthogonal...
/// assert!(a.dot_binary(&b)?.abs() < 150);
/// // ...and XOR binding is an isometry.
/// let key = BinaryHv::random_seeded(1024, 3)?;
/// assert_eq!(a.hamming(&b)?, a.xor(&key)?.hamming(&b.xor(&key)?)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BinaryHv {
    dim: usize,
    words: Vec<u64>,
}

impl BinaryHv {
    /// Creates the all-`+1` hypervector (all stored bits zero).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] if `dim == 0`.
    pub fn zeros(dim: usize) -> Result<Self, HdcError> {
        if dim == 0 {
            return Err(HdcError::invalid("dim", "must be positive"));
        }
        Ok(BinaryHv {
            dim,
            words: vec![0; dim.div_ceil(WORD_BITS)],
        })
    }

    /// Draws a uniformly random hypervector from a seeded generator.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] if `dim == 0`.
    pub fn random(dim: usize, rng: &mut StdRng) -> Result<Self, HdcError> {
        let mut hv = Self::zeros(dim)?;
        for w in &mut hv.words {
            *w = rng.random();
        }
        hv.mask_padding();
        Ok(hv)
    }

    /// Convenience constructor seeding a fresh generator from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] if `dim == 0`.
    pub fn random_seeded(dim: usize, seed: u64) -> Result<Self, HdcError> {
        Self::random(dim, &mut StdRng::seed_from_u64(seed))
    }

    /// Builds a hypervector from explicit bits (`true` = stored bit 1 =
    /// bipolar `-1`).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] if `bits` is empty.
    pub fn from_bits(bits: &[bool]) -> Result<Self, HdcError> {
        let mut hv = Self::zeros(bits.len())?;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                hv.set_bit(i);
            }
        }
        Ok(hv)
    }

    /// The dimensionality of the hypervector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow of the packed 64-bit words (little-endian bit order: bit `i`
    /// lives at word `i / 64`, position `i % 64`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns the stored bit at dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(
            i < self.dim,
            "bit index {i} out of range for dim {}",
            self.dim
        );
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets the stored bit at dimension `i` (component becomes `-1`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    pub fn set_bit(&mut self, i: usize) {
        assert!(
            i < self.dim,
            "bit index {i} out of range for dim {}",
            self.dim
        );
        self.words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
    }

    /// Flips the stored bit at dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    pub fn flip_bit(&mut self, i: usize) {
        assert!(
            i < self.dim,
            "bit index {i} out of range for dim {}",
            self.dim
        );
        self.words[i / WORD_BITS] ^= 1 << (i % WORD_BITS);
    }

    /// Number of stored `1` bits (bipolar `-1` components).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to another hypervector of the same dimensionality.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensionalities differ.
    pub fn hamming(&self, other: &BinaryHv) -> Result<usize, HdcError> {
        self.check_dim(other)?;
        Ok(self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum())
    }

    /// Bipolar dot product with another binary hypervector:
    /// `dim - 2 * hamming`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensionalities differ.
    pub fn dot_binary(&self, other: &BinaryHv) -> Result<i64, HdcError> {
        let h = self.hamming(other)? as i64;
        Ok(self.dim as i64 - 2 * h)
    }

    /// XORs `other` into `self` in place (bipolar element-wise multiply,
    /// the HDC *binding* operation).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensionalities differ.
    pub fn xor_assign(&mut self, other: &BinaryHv) -> Result<(), HdcError> {
        self.check_dim(other)?;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
        Ok(())
    }

    /// Returns `self XOR other` (bipolar element-wise multiply).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensionalities differ.
    pub fn xor(&self, other: &BinaryHv) -> Result<BinaryHv, HdcError> {
        let mut out = self.clone();
        out.xor_assign(other)?;
        Ok(out)
    }

    /// Circularly rotates the hypervector *upward* by `k` positions: output
    /// bit `(i + k) mod dim` equals input bit `i`.
    ///
    /// This is the permutation ρ of the paper — it preserves the population
    /// count and (quasi-)orthogonality, and is how the accelerator derives
    /// id hypervectors from a single stored seed (§4.3.1).
    pub fn rotated(&self, k: usize) -> BinaryHv {
        let k = k % self.dim;
        if k == 0 {
            return self.clone();
        }
        if self.dim.is_multiple_of(WORD_BITS) {
            self.rotated_word_aligned(k)
        } else {
            self.rotated_bitwise(k)
        }
    }

    fn rotated_word_aligned(&self, k: usize) -> BinaryHv {
        let nw = self.words.len();
        let word_shift = k / WORD_BITS;
        let bit_shift = k % WORD_BITS;
        let mut out = BinaryHv {
            dim: self.dim,
            words: vec![0; nw],
        };
        for j in 0..nw {
            let src = (j + nw - word_shift) % nw;
            let prev = (src + nw - 1) % nw;
            out.words[j] = if bit_shift == 0 {
                self.words[src]
            } else {
                (self.words[src] << bit_shift) | (self.words[prev] >> (WORD_BITS - bit_shift))
            };
        }
        out
    }

    fn rotated_bitwise(&self, k: usize) -> BinaryHv {
        let mut out = BinaryHv {
            dim: self.dim,
            words: vec![0; self.words.len()],
        };
        for i in 0..self.dim {
            if self.bit(i) {
                out.set_bit((i + k) % self.dim);
            }
        }
        out
    }

    /// Rotates by one position in place (the per-window id update of the
    /// hardware's `tmp`-register scheme).
    pub fn rotate_one_in_place(&mut self) {
        *self = self.rotated(1);
    }

    /// Adds the bipolar interpretation of this hypervector into an integer
    /// accumulator slice (`+1` for stored bit 0, `-1` for stored bit 1).
    ///
    /// This is the retained *scalar reference kernel* for bundling: it walks
    /// one dimension at a time. Hot paths bundle through
    /// [`BitSliceAccumulator`], which produces bit-identical results 64
    /// dimensions per word operation; the property tests pin the two
    /// together.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `acc.len() != self.dim()`.
    pub fn accumulate_into(&self, acc: &mut [i32]) -> Result<(), HdcError> {
        if acc.len() != self.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                actual: acc.len(),
            });
        }
        for (wi, &w) in self.words.iter().enumerate() {
            let base = wi * WORD_BITS;
            let n = WORD_BITS.min(self.dim - base);
            let chunk = &mut acc[base..base + n];
            for (b, slot) in chunk.iter_mut().enumerate() {
                *slot += 1 - 2 * ((w >> b) & 1) as i32;
            }
        }
        Ok(())
    }

    /// Bipolar components as `+1/-1` integers (mostly for tests and small
    /// examples; prefer the packed operations in hot paths).
    pub fn to_bipolar(&self) -> Vec<i32> {
        (0..self.dim)
            .map(|i| if self.bit(i) { -1 } else { 1 })
            .collect()
    }

    fn mask_padding(&mut self) {
        let rem = self.dim % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    fn check_dim(&self, other: &BinaryHv) -> Result<(), HdcError> {
        if self.dim != other.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                actual: other.dim,
            });
        }
        Ok(())
    }
}

/// Word-parallel bundling accumulator: per-dimension counters held as
/// bit planes (a carry-save "column counter" array), so adding a binary
/// hypervector costs an amortized two word operations per 64 dimensions
/// instead of 64 scalar adds.
///
/// Plane `k` holds bit `k` of every dimension's count of stored-`1` bits.
/// Adding a hypervector ripples a carry through the planes exactly like a
/// binary counter increment, which is amortized O(1) planes per word.
/// [`BitSliceAccumulator::accumulate_into`] converts the counts back to
/// bipolar sums (`count_of(+1) − count_of(−1) = n − 2·ones`), making the
/// result bit-identical to repeated [`BinaryHv::accumulate_into`].
///
/// ```
/// use generic_hdc::{BinaryHv, BitSliceAccumulator, IntHv};
///
/// # fn main() -> Result<(), generic_hdc::HdcError> {
/// let a = BinaryHv::random_seeded(256, 1)?;
/// let b = BinaryHv::random_seeded(256, 2)?;
/// let mut fast = BitSliceAccumulator::new(256)?;
/// fast.add(&a)?;
/// fast.add(&b)?;
/// let mut scalar = IntHv::zeros(256)?;
/// scalar.bundle_binary(&a)?;
/// scalar.bundle_binary(&b)?;
/// assert_eq!(fast.to_int_hv(), scalar);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BitSliceAccumulator {
    dim: usize,
    /// `planes[k][w]`: bit `k` of the ones-count of dimensions `64w..64w+63`.
    planes: Vec<Vec<u64>>,
    /// Number of hypervectors added so far.
    count: usize,
    /// Carry scratch: holds the incoming addend while it ripples through
    /// the planes (kept allocated across adds; not part of the value).
    carry: Vec<u64>,
    /// Kernel set the ripple dispatches through (not part of the value —
    /// every set produces bit-identical planes).
    kernels: &'static KernelSet,
}

impl PartialEq for BitSliceAccumulator {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.count == other.count && self.planes == other.planes
    }
}

impl Eq for BitSliceAccumulator {}

impl BitSliceAccumulator {
    /// Creates an empty accumulator of dimensionality `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] if `dim == 0`.
    pub fn new(dim: usize) -> Result<Self, HdcError> {
        Self::with_kernels(dim, kernels::active())
    }

    /// [`BitSliceAccumulator::new`] with an explicit kernel set — the hook
    /// the differential oracles use to pin every SIMD ripple variant
    /// against the portable reference.
    pub(crate) fn with_kernels(dim: usize, kernels: &'static KernelSet) -> Result<Self, HdcError> {
        if dim == 0 {
            return Err(HdcError::invalid("dim", "must be positive"));
        }
        Ok(BitSliceAccumulator {
            dim,
            planes: Vec::new(),
            count: 0,
            carry: Vec::new(),
            kernels,
        })
    }

    /// The dimensionality of the accumulator.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of hypervectors bundled so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Resets the accumulator to empty without releasing plane storage.
    pub fn clear(&mut self) {
        for plane in &mut self.planes {
            plane.iter_mut().for_each(|w| *w = 0);
        }
        self.count = 0;
    }

    /// Bundles one binary hypervector (counts its stored-`1` bits per
    /// dimension, word-parallel).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensionalities
    /// differ.
    pub fn add(&mut self, hv: &BinaryHv) -> Result<(), HdcError> {
        if hv.dim != self.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                actual: hv.dim,
            });
        }
        self.carry.clear();
        self.carry.extend_from_slice(&hv.words);
        self.ripple();
        self.count += 1;
        Ok(())
    }

    /// Bundles the XOR of `srcs` (the HDC *bind-then-bundle* step) without
    /// materializing the bound hypervector: the XOR is computed straight
    /// into the carry scratch and rippled from there. This is the
    /// per-window hot path of the GENERIC encoder — one fused read pass
    /// over the operands instead of a clone plus one read-modify-write
    /// pass per operand.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] if `srcs` is empty, or
    /// [`HdcError::DimensionMismatch`] if any operand has the wrong
    /// dimensionality.
    pub fn add_xor(&mut self, srcs: &[&BinaryHv]) -> Result<(), HdcError> {
        let (first, rest) = srcs.split_first().ok_or(HdcError::EmptyInput)?;
        if let Some(bad) = srcs.iter().find(|hv| hv.dim != self.dim) {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                actual: bad.dim,
            });
        }
        self.carry.clear();
        self.carry.extend_from_slice(&first.words);
        for hv in rest {
            for (c, &w) in self.carry.iter_mut().zip(&hv.words) {
                *c ^= w;
            }
        }
        self.ripple();
        self.count += 1;
        Ok(())
    }

    /// Ripples the addend in `self.carry` through the planes like a binary
    /// counter increment, plane-major so each pass is a straight-line
    /// word loop (no per-word branching). The carry scratch is consumed.
    fn ripple(&mut self) {
        let kernels = self.kernels;
        for plane in &mut self.planes {
            if kernels.ripple_step(plane, &mut self.carry) == 0 {
                return;
            }
        }
        self.planes.push(self.carry.clone());
    }

    /// Adds the accumulated bipolar sums into an integer slice: each
    /// dimension receives `count − 2·ones`, exactly what bundling the same
    /// hypervectors one by one with [`BinaryHv::accumulate_into`] yields.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `acc.len() != self.dim()`.
    pub fn accumulate_into(&self, acc: &mut [i32]) -> Result<(), HdcError> {
        if acc.len() != self.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                actual: acc.len(),
            });
        }
        let n = self.count as i32;
        let n_words = self.dim.div_ceil(WORD_BITS);
        let mut ones = [0i32; WORD_BITS];
        for wi in 0..n_words {
            let base = wi * WORD_BITS;
            let lanes = WORD_BITS.min(self.dim - base);
            ones[..lanes].iter_mut().for_each(|o| *o = 0);
            for (k, plane) in self.planes.iter().enumerate() {
                let w = plane[wi];
                if w == 0 {
                    continue;
                }
                for (b, o) in ones[..lanes].iter_mut().enumerate() {
                    *o += (((w >> b) & 1) as i32) << k;
                }
            }
            for (slot, &o) in acc[base..base + lanes].iter_mut().zip(&ones[..lanes]) {
                *slot += n - 2 * o;
            }
        }
        Ok(())
    }

    /// Consumes nothing: materializes the accumulated bundle as an
    /// [`IntHv`].
    pub fn to_int_hv(&self) -> IntHv {
        let mut out = IntHv::zeros(self.dim).expect("dim validated non-zero");
        self.accumulate_into(out.values_mut())
            .expect("dimensions match by construction");
        out
    }
}

/// An integer-valued hypervector: the result of bundling (element-wise
/// adding) bipolar hypervectors, e.g. an encoded input or a class
/// accumulator.
///
/// ```
/// use generic_hdc::{BinaryHv, IntHv};
///
/// # fn main() -> Result<(), generic_hdc::HdcError> {
/// let a = BinaryHv::random_seeded(256, 1)?;
/// let mut bundle = IntHv::zeros(256)?;
/// bundle.bundle_binary(&a)?;
/// bundle.bundle_binary(&a)?;
/// bundle.bundle_binary(&BinaryHv::random_seeded(256, 2)?)?;
/// // The majority of the bundle is still `a`.
/// assert_eq!(bundle.to_binary(), a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct IntHv {
    values: Vec<i32>,
}

impl IntHv {
    /// Creates a zero accumulator of dimensionality `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] if `dim == 0`.
    pub fn zeros(dim: usize) -> Result<Self, HdcError> {
        if dim == 0 {
            return Err(HdcError::invalid("dim", "must be positive"));
        }
        Ok(IntHv {
            values: vec![0; dim],
        })
    }

    /// Wraps an explicit component vector.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] if `values` is empty.
    pub fn from_values(values: Vec<i32>) -> Result<Self, HdcError> {
        if values.is_empty() {
            return Err(HdcError::invalid("values", "must be non-empty"));
        }
        Ok(IntHv { values })
    }

    /// The dimensionality of the hypervector.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Borrow of the raw components.
    pub fn values(&self) -> &[i32] {
        &self.values
    }

    /// Mutable borrow of the raw components.
    pub fn values_mut(&mut self) -> &mut [i32] {
        &mut self.values
    }

    /// Consumes the hypervector and returns its components.
    pub fn into_values(self) -> Vec<i32> {
        self.values
    }

    /// Bundles a bipolar binary hypervector into this accumulator.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensionalities differ.
    pub fn bundle_binary(&mut self, hv: &BinaryHv) -> Result<(), HdcError> {
        hv.accumulate_into(&mut self.values)
    }

    /// Element-wise adds another integer hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensionalities differ.
    pub fn add_assign(&mut self, other: &IntHv) -> Result<(), HdcError> {
        self.check_dim(other)?;
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += b;
        }
        Ok(())
    }

    /// Element-wise subtracts another integer hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensionalities differ.
    pub fn sub_assign(&mut self, other: &IntHv) -> Result<(), HdcError> {
        self.check_dim(other)?;
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a -= b;
        }
        Ok(())
    }

    /// Dot product with another integer hypervector over the first
    /// `dims` dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensionalities differ
    /// or `dims` exceeds them.
    pub fn dot_prefix(&self, other: &IntHv, dims: usize) -> Result<i64, HdcError> {
        self.check_dim(other)?;
        if dims > self.dim() {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim(),
                actual: dims,
            });
        }
        Ok(self.values[..dims]
            .iter()
            .zip(&other.values[..dims])
            .map(|(&a, &b)| i64::from(a) * i64::from(b))
            .sum())
    }

    /// Full-width dot product with another integer hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensionalities differ.
    pub fn dot(&self, other: &IntHv) -> Result<i64, HdcError> {
        self.dot_prefix(other, self.dim())
    }

    /// Squared L2 norm (as `f64`, exact for the magnitudes HDC produces).
    pub fn norm2(&self) -> f64 {
        self.values
            .iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum()
    }

    /// Binarizes by sign: components `>= 0` become bipolar `+1` (stored
    /// bit 0), negative components become `-1` (stored bit 1).
    pub fn to_binary(&self) -> BinaryHv {
        let mut hv = BinaryHv::zeros(self.dim()).expect("IntHv dim is validated non-zero");
        for (i, &v) in self.values.iter().enumerate() {
            if v < 0 {
                hv.set_bit(i);
            }
        }
        hv
    }

    /// Cosine similarity with another integer hypervector. Returns `0.0`
    /// when either vector is all-zero.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensionalities differ.
    pub fn cosine(&self, other: &IntHv) -> Result<f64, HdcError> {
        let dot = self.dot(other)? as f64;
        let denom = (self.norm2() * other.norm2()).sqrt();
        Ok(if denom == 0.0 { 0.0 } else { dot / denom })
    }

    fn check_dim(&self, other: &IntHv) -> Result<(), HdcError> {
        if self.dim() != other.dim() {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim(),
                actual: other.dim(),
            });
        }
        Ok(())
    }
}

impl From<BinaryHv> for IntHv {
    fn from(hv: BinaryHv) -> Self {
        let mut acc = IntHv::zeros(hv.dim()).expect("BinaryHv dim is validated non-zero");
        acc.bundle_binary(&hv)
            .expect("dimensions match by construction");
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn zeros_has_no_ones() {
        let hv = BinaryHv::zeros(100).unwrap();
        assert_eq!(hv.count_ones(), 0);
        assert_eq!(hv.dim(), 100);
    }

    #[test]
    fn zero_dim_rejected() {
        assert!(BinaryHv::zeros(0).is_err());
        assert!(IntHv::zeros(0).is_err());
    }

    #[test]
    fn random_is_roughly_balanced() {
        let hv = BinaryHv::random(4096, &mut rng(1)).unwrap();
        let ones = hv.count_ones();
        assert!((1800..=2300).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn random_respects_padding() {
        // dim not a multiple of 64: padding bits must stay clear so that
        // count_ones is meaningful.
        let hv = BinaryHv::random(70, &mut rng(2)).unwrap();
        assert!(hv.count_ones() <= 70);
    }

    #[test]
    fn xor_is_involution() {
        let a = BinaryHv::random(256, &mut rng(3)).unwrap();
        let b = BinaryHv::random(256, &mut rng(4)).unwrap();
        let c = a.xor(&b).unwrap().xor(&b).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn xor_dimension_mismatch() {
        let a = BinaryHv::zeros(64).unwrap();
        let b = BinaryHv::zeros(128).unwrap();
        assert!(matches!(
            a.xor(&b),
            Err(HdcError::DimensionMismatch {
                expected: 64,
                actual: 128
            })
        ));
    }

    #[test]
    fn hamming_of_self_is_zero() {
        let a = BinaryHv::random(512, &mut rng(5)).unwrap();
        assert_eq!(a.hamming(&a).unwrap(), 0);
        assert_eq!(a.dot_binary(&a).unwrap(), 512);
    }

    #[test]
    fn random_pair_is_quasi_orthogonal() {
        let a = BinaryHv::random(4096, &mut rng(6)).unwrap();
        let b = BinaryHv::random(4096, &mut rng(7)).unwrap();
        let dot = a.dot_binary(&b).unwrap();
        assert!(dot.abs() < 300, "dot = {dot}");
    }

    #[test]
    fn rotation_round_trips() {
        for dim in [64, 128, 4096, 70, 130] {
            let a = BinaryHv::random(dim, &mut rng(8)).unwrap();
            assert_eq!(a.rotated(dim), a, "dim={dim}");
            let r = a.rotated(13);
            assert_eq!(r.rotated(dim - 13), a, "dim={dim}");
        }
    }

    #[test]
    fn rotation_matches_bitwise_reference() {
        let a = BinaryHv::random(256, &mut rng(9)).unwrap();
        for k in [0, 1, 5, 63, 64, 65, 200, 255] {
            let fast = a.rotated(k);
            let slow = a.rotated_bitwise(k % 256);
            assert_eq!(fast, slow, "k={k}");
        }
    }

    #[test]
    fn rotation_preserves_population() {
        let a = BinaryHv::random(4096, &mut rng(10)).unwrap();
        assert_eq!(a.rotated(1000).count_ones(), a.count_ones());
    }

    #[test]
    fn rotation_by_one_moves_each_bit() {
        let mut a = BinaryHv::zeros(128).unwrap();
        a.set_bit(127);
        let r = a.rotated(1);
        assert!(r.bit(0));
        assert_eq!(r.count_ones(), 1);
    }

    #[test]
    fn accumulate_matches_bipolar() {
        let a = BinaryHv::random(200, &mut rng(11)).unwrap();
        let mut acc = vec![0i32; 200];
        a.accumulate_into(&mut acc).unwrap();
        assert_eq!(acc, a.to_bipolar());
    }

    #[test]
    fn bundle_and_binarize() {
        let a = BinaryHv::random(128, &mut rng(13)).unwrap();
        let mut acc = IntHv::zeros(128).unwrap();
        acc.bundle_binary(&a).unwrap();
        acc.bundle_binary(&a).unwrap();
        acc.bundle_binary(&a).unwrap();
        // Majority of three copies of `a` is `a` itself.
        assert_eq!(acc.to_binary(), a);
    }

    #[test]
    fn cosine_of_self_is_one() {
        let a: IntHv = BinaryHv::random(512, &mut rng(14)).unwrap().into();
        let c = a.cosine(&a).unwrap();
        assert!((c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_zero_is_zero() {
        let z = IntHv::zeros(64).unwrap();
        let a: IntHv = BinaryHv::random(64, &mut rng(15)).unwrap().into();
        assert_eq!(z.cosine(&a).unwrap(), 0.0);
    }

    #[test]
    fn add_sub_round_trip() {
        let a: IntHv = BinaryHv::random(128, &mut rng(16)).unwrap().into();
        let b: IntHv = BinaryHv::random(128, &mut rng(17)).unwrap().into();
        let mut c = a.clone();
        c.add_assign(&b).unwrap();
        c.sub_assign(&b).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn dot_prefix_bounds_checked() {
        let a = IntHv::zeros(64).unwrap();
        let b = IntHv::zeros(64).unwrap();
        assert!(a.dot_prefix(&b, 65).is_err());
        assert_eq!(a.dot_prefix(&b, 64).unwrap(), 0);
    }

    #[test]
    fn seeded_random_is_deterministic() {
        let a = BinaryHv::random_seeded(256, 42).unwrap();
        let b = BinaryHv::random_seeded(256, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bit_slice_accumulator_matches_scalar_bundling() {
        for dim in [64usize, 70, 128, 130, 192, 1000] {
            let mut fast = BitSliceAccumulator::new(dim).unwrap();
            let mut scalar = vec![0i32; dim];
            let mut r = rng(dim as u64);
            for _ in 0..37 {
                let hv = BinaryHv::random(dim, &mut r).unwrap();
                fast.add(&hv).unwrap();
                hv.accumulate_into(&mut scalar).unwrap();
            }
            let mut folded = vec![0i32; dim];
            fast.accumulate_into(&mut folded).unwrap();
            assert_eq!(folded, scalar, "dim={dim}");
            assert_eq!(fast.count(), 37);
        }
    }

    #[test]
    fn bit_slice_accumulator_clear_reuses_planes() {
        let mut acc = BitSliceAccumulator::new(128).unwrap();
        for s in 0..9 {
            acc.add(&BinaryHv::random_seeded(128, s).unwrap()).unwrap();
        }
        acc.clear();
        assert_eq!(acc.count(), 0);
        let hv = BinaryHv::random_seeded(128, 99).unwrap();
        acc.add(&hv).unwrap();
        assert_eq!(acc.to_int_hv(), IntHv::from(hv));
    }

    #[test]
    fn bit_slice_accumulator_validates() {
        assert!(BitSliceAccumulator::new(0).is_err());
        let mut acc = BitSliceAccumulator::new(64).unwrap();
        let wrong = BinaryHv::zeros(128).unwrap();
        assert!(acc.add(&wrong).is_err());
        let mut short = vec![0i32; 32];
        assert!(acc.accumulate_into(&mut short).is_err());
    }

    /// Scores of `query` against `classes` packed at `bit_width`: the
    /// view's bit-plane dot on every available ISA, checked against the
    /// integer dot of the bipolar query (`QuantizedModel::scores`).
    fn packed_scores(query: &BinaryHv, bit_width: u8, classes: Vec<Vec<i16>>) -> Vec<f64> {
        let q = crate::QuantizedModel::from_parts(query.dim(), bit_width, classes).unwrap();
        let expected = q.scores(&IntHv::from(query.clone()));
        let packed = q.pack().unwrap();
        for isa in crate::kernels::available() {
            let mut out = Vec::new();
            let kernels = crate::kernels::for_isa(isa).unwrap();
            packed
                .view()
                .scores_into_with(query, kernels, &mut out)
                .unwrap();
            assert_eq!(out, expected, "isa={isa}");
        }
        expected
    }

    #[test]
    fn dot_packed_matches_dot_int() {
        let a = BinaryHv::random(300, &mut rng(21)).unwrap();
        let vals: Vec<i16> = (0..300).map(|i| (i % 31) - 15).collect();
        packed_scores(&a, 5, vec![vals]);
    }

    #[test]
    fn dot_packed_handles_all_zero_and_extremes() {
        // i16::MIN needs all 16 magnitude planes; 1000 is not a multiple
        // of 64.
        let extremes: Vec<i16> = (0..1000)
            .map(|i| if i % 2 == 0 { i16::MAX } else { i16::MIN })
            .collect();
        for seed in 22..26 {
            let a = BinaryHv::random(1000, &mut rng(seed)).unwrap();
            let classes = vec![vec![0; 1000], extremes.clone()];
            assert_eq!(packed_scores(&a, 16, classes)[0], 0.0);
        }
    }

    #[test]
    fn packed_ints_validates() {
        // A zero-dimensional model has no bit-plane image.
        let empty = crate::QuantizedModel::from_parts(0, 4, vec![Vec::new()]).unwrap();
        assert!(empty.pack().is_err());
        // 8 is outside the 4-bit range [-8, 7].
        assert!(crate::QuantizedModel::from_parts(2, 4, vec![vec![1, 8]]).is_err());
        let packed = crate::QuantizedModel::from_parts(3, 16, vec![vec![1, -2, 3]])
            .unwrap()
            .pack()
            .unwrap();
        assert_eq!(packed.view().dim(), 3);
        let wrong = BinaryHv::zeros(64).unwrap();
        assert!(packed.view().scores(&wrong).is_err());
    }
}
