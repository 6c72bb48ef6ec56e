//! Runtime-dispatched SIMD kernels for the bit-level hot primitives.
//!
//! The similarity and bundling hot loops spend their time in three tiny
//! primitives: the masked popcount at the heart of
//! [`PackedModelView`](crate::PackedModelView) scoring, one carry-save
//! ripple step of the bit-sliced bundler, and the `i32 × i32 → i64` dot
//! product of blocked class scoring. This module provides vector-wide
//! implementations of each (AVX2 and AVX-512 VPOPCNTDQ on `x86_64`, NEON
//! on `aarch64`) behind a table of function pointers selected once per
//! process by runtime CPU-feature detection, with the existing word-wise
//! loops retained as the portable fallback.
//!
//! Every variant is *bit-identical* to the portable reference: the
//! primitives are pure integer reductions (XOR/AND/popcount and exact
//! 64-bit sums), so reassociating lanes cannot change the result. The
//! conformance harness re-proves this on every host by running each
//! available variant against the scalar oracle (see
//! [`crate::oracle::ORACLE_REGISTRY`]).
//!
//! Setting `GENERIC_FORCE_PORTABLE=1` in the environment pins the active
//! set to the portable kernels, reproducing pre-dispatch numbers.
//!
//! # Safety
//!
//! This is the only module in the crate allowed to contain `unsafe`
//! (the crate root denies it elsewhere). The `unsafe` surface is limited
//! to (a) calling `#[target_feature]` functions, which is sound only
//! after the matching `is_*_feature_detected!` check — enforced by
//! construction because the SIMD wrappers are private and only ever
//! installed into a [`KernelSet`] guarded by that check — and (b)
//! unaligned vector loads/stores through raw pointers derived from
//! in-bounds slice indices.

use std::sync::OnceLock;

/// Instruction-set families a [`KernelSet`] can be specialised for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// The word-wise scalar loops; always available, and the oracle the
    /// other variants are differentially checked against.
    Portable,
    /// 256-bit AVX2 (`x86_64`), popcounts via the nibble-LUT `vpshufb`
    /// technique.
    Avx2,
    /// 512-bit AVX-512 with the VPOPCNTDQ extension (`x86_64`),
    /// popcounts via the native `vpopcntq` instruction.
    Avx512Vpopcnt,
    /// 128-bit NEON (`aarch64`), popcounts via `cnt` + horizontal add.
    Neon,
}

impl Isa {
    /// Stable lower-case name used in bench reports and logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            Isa::Avx2 => "avx2",
            Isa::Avx512Vpopcnt => "avx512-vpopcntdq",
            Isa::Neon => "neon",
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One coherent set of kernel implementations for a single ISA.
///
/// The function pointers are plain safe `fn`s: each SIMD entry is a thin
/// wrapper whose body performs the (detection-guarded) `unsafe` call, so
/// holding a `KernelSet` is always safe — sets for unavailable ISAs are
/// unobtainable through the public constructors.
#[derive(Clone, Copy)]
pub struct KernelSet {
    isa: Isa,
    masked_popcount: fn(&[u64], &[u64], &[u64]) -> i64,
    ripple_step: fn(&mut [u64], &mut [u64]) -> u64,
    dot_i32: fn(&[i32], &[i32]) -> i64,
}

impl std::fmt::Debug for KernelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelSet").field("isa", &self.isa).finish()
    }
}

impl KernelSet {
    /// The ISA this set is specialised for.
    #[must_use]
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// Masked disagreement count: `Σ popcount((q[i] ^ s[i]) & m[i])`
    /// over the common prefix — the inner reduction of the sign/magnitude
    /// packed dot product.
    #[must_use]
    pub fn masked_popcount(&self, q: &[u64], s: &[u64], m: &[u64]) -> i64 {
        (self.masked_popcount)(q, s, m)
    }

    /// One carry-save ripple step of the bit-sliced bundler: replaces
    /// `plane` with `plane ^ carry` and `carry` with `plane & carry`
    /// element-wise, returning the OR of all surviving carry words (zero
    /// means the ripple has terminated).
    pub fn ripple_step(&self, plane: &mut [u64], carry: &mut [u64]) -> u64 {
        (self.ripple_step)(plane, carry)
    }

    /// Exact widening dot product `Σ a[i] as i64 * b[i] as i64` over the
    /// common prefix.
    #[must_use]
    pub fn dot_i32(&self, a: &[i32], b: &[i32]) -> i64 {
        (self.dot_i32)(a, b)
    }
}

/// The portable (always available) kernel set — the scalar oracle.
static PORTABLE: KernelSet = KernelSet {
    isa: Isa::Portable,
    masked_popcount: masked_popcount_portable,
    ripple_step: ripple_step_portable,
    dot_i32: dot_i32_portable,
};

#[cfg(target_arch = "x86_64")]
static AVX2: KernelSet = KernelSet {
    isa: Isa::Avx2,
    masked_popcount: masked_popcount_avx2,
    ripple_step: ripple_step_avx2,
    dot_i32: dot_i32_avx2,
};

#[cfg(target_arch = "x86_64")]
static AVX512: KernelSet = KernelSet {
    isa: Isa::Avx512Vpopcnt,
    masked_popcount: masked_popcount_avx512,
    ripple_step: ripple_step_avx512,
    dot_i32: dot_i32_avx512,
};

#[cfg(target_arch = "aarch64")]
static NEON: KernelSet = KernelSet {
    isa: Isa::Neon,
    masked_popcount: masked_popcount_neon,
    ripple_step: ripple_step_neon,
    dot_i32: dot_i32_neon,
};

/// Whether `isa` is usable on the current host.
fn detected(isa: Isa) -> bool {
    match isa {
        Isa::Portable => true,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512Vpopcnt => {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        }
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => std::arch::is_aarch64_feature_detected!("neon"),
        #[allow(unreachable_patterns)] // ISAs of other architectures
        _ => false,
    }
}

/// Every ISA usable on the current host, portable first, fastest last.
#[must_use]
pub fn available() -> Vec<Isa> {
    let mut isas = vec![Isa::Portable];
    #[cfg(target_arch = "x86_64")]
    for isa in [Isa::Avx2, Isa::Avx512Vpopcnt] {
        if detected(isa) {
            isas.push(isa);
        }
    }
    #[cfg(target_arch = "aarch64")]
    if detected(Isa::Neon) {
        isas.push(Isa::Neon);
    }
    isas
}

/// The kernel set for `isa`, or `None` when the current host cannot
/// execute it. [`Isa::Portable`] always succeeds.
#[must_use]
pub fn for_isa(isa: Isa) -> Option<&'static KernelSet> {
    if !detected(isa) {
        return None;
    }
    match isa {
        Isa::Portable => Some(&PORTABLE),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => Some(&AVX2),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512Vpopcnt => Some(&AVX512),
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => Some(&NEON),
        #[allow(unreachable_patterns)] // ISAs of other architectures
        _ => None,
    }
}

/// The kernel set every hot path dispatches through: the widest ISA the
/// host supports, selected once per process. `GENERIC_FORCE_PORTABLE=1`
/// (any value but `0`) pins it to the portable set.
pub fn active() -> &'static KernelSet {
    static ACTIVE: OnceLock<&'static KernelSet> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        if std::env::var_os("GENERIC_FORCE_PORTABLE").is_some_and(|v| v != *"0") {
            return &PORTABLE;
        }
        available()
            .last()
            .and_then(|&isa| for_isa(isa))
            .unwrap_or(&PORTABLE)
    })
}

// ---------------------------------------------------------------------
// Portable reference implementations (the scalar oracles).
// ---------------------------------------------------------------------

fn masked_popcount_portable(q: &[u64], s: &[u64], m: &[u64]) -> i64 {
    let mut disagree: i64 = 0;
    for ((&q, &s), &m) in q.iter().zip(s).zip(m) {
        disagree += i64::from(((q ^ s) & m).count_ones());
    }
    disagree
}

fn ripple_step_portable(plane: &mut [u64], carry: &mut [u64]) -> u64 {
    let mut surviving = 0u64;
    for (p, c) in plane.iter_mut().zip(carry.iter_mut()) {
        let sum = *p ^ *c;
        *c &= *p;
        *p = sum;
        surviving |= *c;
    }
    surviving
}

fn dot_i32_portable(a: &[i32], b: &[i32]) -> i64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| i64::from(x) * i64::from(y))
        .sum()
}

// ---------------------------------------------------------------------
// x86_64: AVX2 and AVX-512 VPOPCNTDQ.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_castsi256_si128,
        _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_mul_epi32, _mm256_or_si256,
        _mm256_sad_epu8, _mm256_set1_epi8, _mm256_setr_epi8, _mm256_setzero_si256,
        _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256,
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_mul_epi32, _mm512_or_si512,
        _mm512_popcnt_epi64, _mm512_reduce_add_epi64, _mm512_reduce_or_epi64, _mm512_setzero_si512,
        _mm512_srli_epi64, _mm512_storeu_si512, _mm512_xor_si512, _mm_add_epi64, _mm_cvtsi128_si64,
        _mm_or_si128, _mm_srli_si128,
    };

    /// Sums the four 64-bit lanes of `v`.
    #[target_feature(enable = "avx2")]
    fn reduce_add_epi64(v: __m256i) -> i64 {
        let hi = _mm256_extracti128_si256::<1>(v);
        let lo = _mm256_castsi256_si128(v);
        let sum2 = _mm_add_epi64(lo, hi);
        let sum1 = _mm_add_epi64(sum2, _mm_srli_si128::<8>(sum2));
        _mm_cvtsi128_si64(sum1)
    }

    /// ORs the four 64-bit lanes of `v`.
    #[target_feature(enable = "avx2")]
    fn reduce_or_epi64(v: __m256i) -> i64 {
        let hi = _mm256_extracti128_si256::<1>(v);
        let lo = _mm256_castsi256_si128(v);
        let or2 = _mm_or_si128(lo, hi);
        let or1 = _mm_or_si128(or2, _mm_srli_si128::<8>(or2));
        _mm_cvtsi128_si64(or1)
    }

    /// Per-byte popcount of `v` via the nibble-LUT `vpshufb` technique.
    #[target_feature(enable = "avx2")]
    fn popcount_epi8(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(v), low_mask);
        _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi))
    }

    #[target_feature(enable = "avx2")]
    pub fn masked_popcount_avx2(q: &[u64], s: &[u64], m: &[u64]) -> i64 {
        let n = q.len().min(s.len()).min(m.len());
        let chunks = n / 4;
        let mut acc = _mm256_setzero_si256();
        for i in 0..chunks {
            // SAFETY: `i * 4 + 3 < chunks * 4 <= n`, so all three
            // 32-byte unaligned loads stay inside the slices.
            let (vq, vs, vm) = unsafe {
                (
                    _mm256_loadu_si256(q.as_ptr().add(i * 4).cast()),
                    _mm256_loadu_si256(s.as_ptr().add(i * 4).cast()),
                    _mm256_loadu_si256(m.as_ptr().add(i * 4).cast()),
                )
            };
            let x = _mm256_and_si256(_mm256_xor_si256(vq, vs), vm);
            acc = _mm256_add_epi64(
                acc,
                _mm256_sad_epu8(popcount_epi8(x), _mm256_setzero_si256()),
            );
        }
        let mut total = reduce_add_epi64(acc);
        for ((&q, &s), &m) in q[chunks * 4..n]
            .iter()
            .zip(&s[chunks * 4..n])
            .zip(&m[chunks * 4..n])
        {
            total += i64::from(((q ^ s) & m).count_ones());
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub fn ripple_step_avx2(plane: &mut [u64], carry: &mut [u64]) -> u64 {
        let n = plane.len().min(carry.len());
        let chunks = n / 4;
        let mut surv = _mm256_setzero_si256();
        for i in 0..chunks {
            let pp = plane[i * 4..].as_mut_ptr();
            let cp = carry[i * 4..].as_mut_ptr();
            // SAFETY: `i * 4 + 3 < chunks * 4 <= n`, so the 32-byte
            // unaligned loads and stores stay inside the slices; `plane`
            // and `carry` are distinct `&mut` slices, so the pointers
            // cannot alias.
            unsafe {
                let vp = _mm256_loadu_si256(pp.cast());
                let vc = _mm256_loadu_si256(cp.cast());
                let sum = _mm256_xor_si256(vp, vc);
                let new_carry = _mm256_and_si256(vp, vc);
                _mm256_storeu_si256(pp.cast(), sum);
                _mm256_storeu_si256(cp.cast(), new_carry);
                surv = _mm256_or_si256(surv, new_carry);
            }
        }
        let mut surviving = reduce_or_epi64(surv) as u64;
        for (p, c) in plane[chunks * 4..n]
            .iter_mut()
            .zip(&mut carry[chunks * 4..n])
        {
            let sum = *p ^ *c;
            *c &= *p;
            *p = sum;
            surviving |= *c;
        }
        surviving
    }

    #[target_feature(enable = "avx2")]
    pub fn dot_i32_avx2(a: &[i32], b: &[i32]) -> i64 {
        let n = a.len().min(b.len());
        let chunks = n / 8;
        let mut acc_even = _mm256_setzero_si256();
        let mut acc_odd = _mm256_setzero_si256();
        for i in 0..chunks {
            // SAFETY: `i * 8 + 7 < chunks * 8 <= n`, so both 32-byte
            // unaligned loads stay inside the slices.
            let (va, vb) = unsafe {
                (
                    _mm256_loadu_si256(a.as_ptr().add(i * 8).cast()),
                    _mm256_loadu_si256(b.as_ptr().add(i * 8).cast()),
                )
            };
            // `vpmuldq` sign-extends the low 32 bits of each 64-bit lane
            // (elements 0,2,4,6); shifting right by 32 exposes elements
            // 1,3,5,7 for a second pass. Exact i64 products, no rounding.
            let even = _mm256_mul_epi32(va, vb);
            let odd = _mm256_mul_epi32(_mm256_srli_epi64::<32>(va), _mm256_srli_epi64::<32>(vb));
            acc_even = _mm256_add_epi64(acc_even, even);
            acc_odd = _mm256_add_epi64(acc_odd, odd);
        }
        let mut total = reduce_add_epi64(_mm256_add_epi64(acc_even, acc_odd));
        for (&x, &y) in a[chunks * 8..n].iter().zip(&b[chunks * 8..n]) {
            total += i64::from(x) * i64::from(y);
        }
        total
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub fn masked_popcount_avx512(q: &[u64], s: &[u64], m: &[u64]) -> i64 {
        let n = q.len().min(s.len()).min(m.len());
        let chunks = n / 8;
        let mut acc = _mm512_setzero_si512();
        for i in 0..chunks {
            // SAFETY: `i * 8 + 7 < chunks * 8 <= n`, so all three
            // 64-byte unaligned loads stay inside the slices.
            let (vq, vs, vm) = unsafe {
                (
                    _mm512_loadu_si512(q.as_ptr().add(i * 8).cast()),
                    _mm512_loadu_si512(s.as_ptr().add(i * 8).cast()),
                    _mm512_loadu_si512(m.as_ptr().add(i * 8).cast()),
                )
            };
            let x = _mm512_and_si512(_mm512_xor_si512(vq, vs), vm);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
        }
        let mut total = _mm512_reduce_add_epi64(acc);
        for ((&q, &s), &m) in q[chunks * 8..n]
            .iter()
            .zip(&s[chunks * 8..n])
            .zip(&m[chunks * 8..n])
        {
            total += i64::from(((q ^ s) & m).count_ones());
        }
        total
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub fn ripple_step_avx512(plane: &mut [u64], carry: &mut [u64]) -> u64 {
        let n = plane.len().min(carry.len());
        let chunks = n / 8;
        let mut surv = _mm512_setzero_si512();
        for i in 0..chunks {
            let pp = plane[i * 8..].as_mut_ptr();
            let cp = carry[i * 8..].as_mut_ptr();
            // SAFETY: `i * 8 + 7 < chunks * 8 <= n`, so the 64-byte
            // unaligned loads and stores stay inside the slices; `plane`
            // and `carry` are distinct `&mut` slices, so the pointers
            // cannot alias.
            unsafe {
                let vp = _mm512_loadu_si512(pp.cast());
                let vc = _mm512_loadu_si512(cp.cast());
                let sum = _mm512_xor_si512(vp, vc);
                let new_carry = _mm512_and_si512(vp, vc);
                _mm512_storeu_si512(pp.cast(), sum);
                _mm512_storeu_si512(cp.cast(), new_carry);
                surv = _mm512_or_si512(surv, new_carry);
            }
        }
        let mut surviving = _mm512_reduce_or_epi64(surv) as u64;
        for (p, c) in plane[chunks * 8..n]
            .iter_mut()
            .zip(&mut carry[chunks * 8..n])
        {
            let sum = *p ^ *c;
            *c &= *p;
            *p = sum;
            surviving |= *c;
        }
        surviving
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub fn dot_i32_avx512(a: &[i32], b: &[i32]) -> i64 {
        let n = a.len().min(b.len());
        let chunks = n / 16;
        let mut acc_even = _mm512_setzero_si512();
        let mut acc_odd = _mm512_setzero_si512();
        for i in 0..chunks {
            // SAFETY: `i * 16 + 15 < chunks * 16 <= n`, so both 64-byte
            // unaligned loads stay inside the slices.
            let (va, vb) = unsafe {
                (
                    _mm512_loadu_si512(a.as_ptr().add(i * 16).cast()),
                    _mm512_loadu_si512(b.as_ptr().add(i * 16).cast()),
                )
            };
            // Same even/odd `vpmuldq` split as the AVX2 variant: exact
            // sign-extended 32×32→64 products in every lane.
            let even = _mm512_mul_epi32(va, vb);
            let odd = _mm512_mul_epi32(_mm512_srli_epi64::<32>(va), _mm512_srli_epi64::<32>(vb));
            acc_even = _mm512_add_epi64(acc_even, even);
            acc_odd = _mm512_add_epi64(acc_odd, odd);
        }
        let mut total = _mm512_reduce_add_epi64(_mm512_add_epi64(acc_even, acc_odd));
        for (&x, &y) in a[chunks * 16..n].iter().zip(&b[chunks * 16..n]) {
            total += i64::from(x) * i64::from(y);
        }
        total
    }
}

#[cfg(target_arch = "x86_64")]
fn masked_popcount_avx2(q: &[u64], s: &[u64], m: &[u64]) -> i64 {
    // SAFETY: this wrapper is only installed into the `AVX2` set, which
    // is only handed out after `is_x86_feature_detected!("avx2")`.
    unsafe { x86::masked_popcount_avx2(q, s, m) }
}

#[cfg(target_arch = "x86_64")]
fn ripple_step_avx2(plane: &mut [u64], carry: &mut [u64]) -> u64 {
    // SAFETY: only reachable through the detection-guarded `AVX2` set.
    unsafe { x86::ripple_step_avx2(plane, carry) }
}

#[cfg(target_arch = "x86_64")]
fn dot_i32_avx2(a: &[i32], b: &[i32]) -> i64 {
    // SAFETY: only reachable through the detection-guarded `AVX2` set.
    unsafe { x86::dot_i32_avx2(a, b) }
}

#[cfg(target_arch = "x86_64")]
fn masked_popcount_avx512(q: &[u64], s: &[u64], m: &[u64]) -> i64 {
    // SAFETY: this wrapper is only installed into the `AVX512` set,
    // which is only handed out after `is_x86_feature_detected!` confirms
    // both `avx512f` and `avx512vpopcntdq`.
    unsafe { x86::masked_popcount_avx512(q, s, m) }
}

#[cfg(target_arch = "x86_64")]
fn ripple_step_avx512(plane: &mut [u64], carry: &mut [u64]) -> u64 {
    // SAFETY: only reachable through the detection-guarded `AVX512` set.
    unsafe { x86::ripple_step_avx512(plane, carry) }
}

#[cfg(target_arch = "x86_64")]
fn dot_i32_avx512(a: &[i32], b: &[i32]) -> i64 {
    // SAFETY: only reachable through the detection-guarded `AVX512` set.
    unsafe { x86::dot_i32_avx512(a, b) }
}

// ---------------------------------------------------------------------
// aarch64: NEON.
// ---------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod arm {
    use core::arch::aarch64::{
        int64x2_t, uint64x2_t, vaddq_s64, vaddvq_s64, vaddvq_u8, vandq_u64, vcntq_u8, veorq_u64,
        vget_low_s32, vgetq_lane_u64, vld1q_s32, vld1q_u64, vmull_high_s32, vmull_s32, vorrq_u64,
        vreinterpretq_u8_u64, vst1q_u64,
    };

    #[target_feature(enable = "neon")]
    pub fn masked_popcount_neon(q: &[u64], s: &[u64], m: &[u64]) -> i64 {
        let n = q.len().min(s.len()).min(m.len());
        let chunks = n / 2;
        let mut total: i64 = 0;
        for i in 0..chunks {
            // SAFETY: `i * 2 + 1 < chunks * 2 <= n`, so all three
            // 16-byte loads stay inside the slices.
            let x: uint64x2_t = unsafe {
                vandq_u64(
                    veorq_u64(
                        vld1q_u64(q.as_ptr().add(i * 2)),
                        vld1q_u64(s.as_ptr().add(i * 2)),
                    ),
                    vld1q_u64(m.as_ptr().add(i * 2)),
                )
            };
            total += i64::from(vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(x))));
        }
        for ((&q, &s), &m) in q[chunks * 2..n]
            .iter()
            .zip(&s[chunks * 2..n])
            .zip(&m[chunks * 2..n])
        {
            total += i64::from(((q ^ s) & m).count_ones());
        }
        total
    }

    #[target_feature(enable = "neon")]
    pub fn ripple_step_neon(plane: &mut [u64], carry: &mut [u64]) -> u64 {
        let n = plane.len().min(carry.len());
        let chunks = n / 2;
        let mut surviving: u64 = 0;
        for i in 0..chunks {
            let pp = plane[i * 2..].as_mut_ptr();
            let cp = carry[i * 2..].as_mut_ptr();
            // SAFETY: `i * 2 + 1 < chunks * 2 <= n`, so the 16-byte
            // loads and stores stay inside the slices; `plane` and
            // `carry` are distinct `&mut` slices, so no aliasing.
            unsafe {
                let vp = vld1q_u64(pp);
                let vc = vld1q_u64(cp);
                let sum = veorq_u64(vp, vc);
                let new_carry = vandq_u64(vp, vc);
                vst1q_u64(pp, sum);
                vst1q_u64(cp, new_carry);
                let surv = vorrq_u64(new_carry, new_carry);
                surviving |= vgetq_lane_u64::<0>(surv) | vgetq_lane_u64::<1>(surv);
            }
        }
        for (p, c) in plane[chunks * 2..n]
            .iter_mut()
            .zip(&mut carry[chunks * 2..n])
        {
            let sum = *p ^ *c;
            *c &= *p;
            *p = sum;
            surviving |= *c;
        }
        surviving
    }

    #[target_feature(enable = "neon")]
    pub fn dot_i32_neon(a: &[i32], b: &[i32]) -> i64 {
        let n = a.len().min(b.len());
        let chunks = n / 4;
        let mut acc: int64x2_t = unsafe { core::mem::zeroed() };
        for i in 0..chunks {
            // SAFETY: `i * 4 + 3 < chunks * 4 <= n`, so both 16-byte
            // loads stay inside the slices.
            unsafe {
                let va = vld1q_s32(a.as_ptr().add(i * 4));
                let vb = vld1q_s32(b.as_ptr().add(i * 4));
                // Widening 32×32→64 multiplies: exact, no rounding.
                let lo = vmull_s32(vget_low_s32(va), vget_low_s32(vb));
                let hi = vmull_high_s32(va, vb);
                acc = vaddq_s64(acc, vaddq_s64(lo, hi));
            }
        }
        let mut total = vaddvq_s64(acc);
        for (&x, &y) in a[chunks * 4..n].iter().zip(&b[chunks * 4..n]) {
            total += i64::from(x) * i64::from(y);
        }
        total
    }
}

#[cfg(target_arch = "aarch64")]
fn masked_popcount_neon(q: &[u64], s: &[u64], m: &[u64]) -> i64 {
    // SAFETY: this wrapper is only installed into the `NEON` set, which
    // is only handed out after `is_aarch64_feature_detected!("neon")`.
    unsafe { arm::masked_popcount_neon(q, s, m) }
}

#[cfg(target_arch = "aarch64")]
fn ripple_step_neon(plane: &mut [u64], carry: &mut [u64]) -> u64 {
    // SAFETY: only reachable through the detection-guarded `NEON` set.
    unsafe { arm::ripple_step_neon(plane, carry) }
}

#[cfg(target_arch = "aarch64")]
fn dot_i32_neon(a: &[i32], b: &[i32]) -> i64 {
    // SAFETY: only reachable through the detection-guarded `NEON` set.
    unsafe { arm::dot_i32_neon(a, b) }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic 64-bit generator (SplitMix64) so the differential
    /// sweeps below cover irregular bit patterns without a rand dep.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn words(rng: &mut Mix, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.next()).collect()
    }

    fn ints(rng: &mut Mix, n: usize) -> Vec<i32> {
        (0..n).map(|_| (rng.next() as i32) % 10_000).collect()
    }

    /// Lengths chosen to hit empty inputs, pure tails, full vector
    /// blocks, and blocks-plus-tail for every lane width in play.
    const LENGTHS: [usize; 8] = [0, 1, 3, 7, 16, 31, 64, 129];

    #[test]
    fn portable_is_always_available_and_active_resolves() {
        assert!(available().contains(&Isa::Portable));
        assert!(for_isa(Isa::Portable).is_some());
        // `active` must be one of the available sets.
        assert!(available().contains(&active().isa()));
    }

    #[test]
    fn every_available_isa_matches_portable_on_masked_popcount() {
        let mut rng = Mix(2);
        for &n in &LENGTHS {
            let q = words(&mut rng, n);
            let s = words(&mut rng, n);
            let m = words(&mut rng, n);
            let want = PORTABLE.masked_popcount(&q, &s, &m);
            for isa in available() {
                let set = for_isa(isa).expect("available implies constructible");
                assert_eq!(set.masked_popcount(&q, &s, &m), want, "{isa} n={n}");
            }
        }
    }

    #[test]
    fn every_available_isa_matches_portable_on_ripple_step() {
        let mut rng = Mix(3);
        for &n in &LENGTHS {
            let plane = words(&mut rng, n);
            let carry = words(&mut rng, n);
            let mut want_plane = plane.clone();
            let mut want_carry = carry.clone();
            let want_surv = PORTABLE.ripple_step(&mut want_plane, &mut want_carry);
            for isa in available() {
                let set = for_isa(isa).expect("available implies constructible");
                let mut got_plane = plane.clone();
                let mut got_carry = carry.clone();
                let got_surv = set.ripple_step(&mut got_plane, &mut got_carry);
                assert_eq!(got_plane, want_plane, "{isa} n={n} plane");
                assert_eq!(got_carry, want_carry, "{isa} n={n} carry");
                assert_eq!(got_surv == 0, want_surv == 0, "{isa} n={n} surviving");
            }
        }
    }

    #[test]
    fn every_available_isa_matches_portable_on_dot_i32() {
        let mut rng = Mix(4);
        for &n in &LENGTHS {
            let a = ints(&mut rng, n);
            let b = ints(&mut rng, n);
            let want = PORTABLE.dot_i32(&a, &b);
            for isa in available() {
                let set = for_isa(isa).expect("available implies constructible");
                assert_eq!(set.dot_i32(&a, &b), want, "{isa} n={n}");
            }
        }
    }

    #[test]
    fn dot_i32_handles_extreme_magnitudes_exactly() {
        // Sign-extension bugs in the even/odd lane split show up at the
        // extremes, not in small random values.
        let a = vec![
            i32::MAX,
            i32::MIN + 1,
            -1,
            1,
            i32::MAX,
            i32::MIN + 1,
            -7,
            1 << 30,
        ];
        let b = vec![i32::MAX, i32::MAX, -1, i32::MIN + 1, -2, 3, 7, -(1 << 30)];
        let want = PORTABLE.dot_i32(&a, &b);
        for isa in available() {
            let set = for_isa(isa).expect("available implies constructible");
            assert_eq!(set.dot_i32(&a, &b), want, "{isa}");
        }
    }

    #[test]
    fn isa_names_are_stable() {
        assert_eq!(Isa::Portable.name(), "portable");
        assert_eq!(Isa::Avx2.name(), "avx2");
        assert_eq!(Isa::Avx512Vpopcnt.name(), "avx512-vpopcntdq");
        assert_eq!(Isa::Neon.name(), "neon");
    }
}
