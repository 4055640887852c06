//! Bit-exact table-driven `exp`: one scalar spec, and one intrinsic form
//! per vector backend that follows it op for op.
//!
//! This is a port of `exp` from Arm's optimized-routines (`math/exp.c`,
//! Copyright (c) 2018 Arm Limited, MIT OR Apache-2.0 WITH
//! LLVM-exception), the `exp` that glibc ships since 2.28. For
//! `2⁻⁵⁴ ≤ |x| < 512` it writes `x = k·ln2/N + r` with `N = 128` and
//! `|r| ≤ ln2/2N`, looks `2^(k/N)` up as `scale·(1 + tail)` in a
//! 128-entry table, and approximates `e^r − 1` by a degree-5 polynomial:
//!
//! ```text
//! exp(x) = scale + scale·(tail + r + r²·(C2 + r·C3) + r⁴·(C4 + r·C5))
//! ```
//!
//! The spec [`exp_one`] rounds every step exactly as glibc's x86-64 FMA
//! build does: a fused multiply-add where that build fuses (written here
//! as an explicit `mul_add`), a plain exactly rounded op everywhere
//! else. Every backend evaluates the same op sequence lane by lane, so
//! the vector forms reproduce the spec bit for bit — the same argument as
//! for the module's other kernels, with `fma` added to the exactly rounded
//! ops. Lanes outside the window (tiny, huge, `±∞`, NaN) take `f64::exp`,
//! whose special-case handling (overflow, the subnormal range) this port
//! does not duplicate.

/// Table entries per octave: `2^(i/N)` for `i ∈ [0, N)`.
const N: u64 = 128;
/// `52 − log₂ N`: shifting `k` left by this moves `k / N` into the
/// exponent field (the low bits fall on the table entry's mantissa).
const K_SHIFT: u32 = 45;
/// `N / ln 2` (`0x1.71547652b82fep7`).
const INV_LN2_N: f64 = f64::from_bits(0x4067_1547_652b_82fe);
/// `−ln 2 / N`, high part (`−0x1.62e42fefa0000p−8`).
const NEG_LN2_HI_N: f64 = f64::from_bits(0xbf76_2e42_fefa_0000);
/// `−ln 2 / N`, low part (`−0x1.cf79abc9e3b3ap−47`).
const NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0c_f79a_bc9e_3b3a);
/// `1.5·2⁵²`: adding it rounds `x·N/ln2` to the integer `k` held in the
/// low mantissa bits (`0x1.8p52`).
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// Polynomial coefficients for `e^r − 1 − r` (`0x1.ffffffffffdbdp−2`,
/// `0x1.555555555543cp−3`, `0x1.55555cf172b91p−5`,
/// `0x1.1111167a4d017p−7`).
const C2: f64 = f64::from_bits(0x3fdf_ffff_ffff_fdbd);
const C3: f64 = f64::from_bits(0x3fc5_5555_5555_543c);
const C4: f64 = f64::from_bits(0x3fa5_5555_cf17_2b91);
const C5: f64 = f64::from_bits(0x3f81_1111_67a4_d017);
/// `2⁻⁵⁴` and `512.0`: `|x|` in `[TINY, HUGE)` takes the table path.
const TINY: f64 = f64::from_bits(0x3c90_0000_0000_0000);
const HUGE: f64 = 512.0;

/// `2^(i/N) ≈ H[i]·(1 + T[i])`, interleaved as `TAB[2i] = bits(T[i])`
/// and `TAB[2i+1] = bits(H[i]) − (i << K_SHIFT)`: `H[i]` is `2^(i/N)` rounded
/// to nearest and `T[i]` the rounded relative error of that rounding
/// (the same 256 words as optimized-routines' `__exp_data.tab`).
#[rustfmt::skip]
static TAB: [u64; 2 * N as usize] = [
    0x0000000000000000, 0x3ff0000000000000,
    0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061,
    0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574,
    0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8,
    0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f,
    0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2,
    0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51,
    0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0,
    0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b,
    0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75,
    0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa,
    0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6,
    0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238,
    0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd,
    0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1,
    0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b,
    0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715,
    0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff,
    0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb,
    0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7,
    0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422,
    0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a,
    0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d,
    0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0,
    0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27,
    0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7,
    0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82,
    0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da,
    0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429,
    0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148,
    0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585,
    0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225,
    0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd,
    0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f,
    0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74,
    0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9,
    0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187,
    0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62,
    0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13,
    0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed,
    0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db,
    0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736,
    0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5,
    0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50,
    0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090,
    0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565,
    0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d,
    0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf,
    0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad,
    0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb,
    0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47,
    0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2,
    0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c,
    0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b,
    0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069,
    0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c,
    0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487,
    0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285,
    0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f,
    0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6,
    0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da,
    0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27,
    0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540,
    0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8,
    0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
];

/// Whether `x` takes the table path (`2⁻⁵⁴ ≤ |x| < 512`; false for NaN).
#[inline(always)]
fn in_window(x: f64) -> bool {
    (TINY..HUGE).contains(&x.abs())
}

/// The scalar spec: `e^x`, rounded exactly as glibc's x86-64 FMA `exp`.
#[inline(always)]
pub(super) fn exp_one(x: f64) -> f64 {
    if !in_window(x) {
        return x.exp();
    }
    // x = k·ln2/N + r, |r| ≤ ln2/2N.
    let kd = x.mul_add(INV_LN2_N, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = kd.mul_add(NEG_LN2_LO_N, kd.mul_add(NEG_LN2_HI_N, x));
    // 2^(k/N) = scale·(1 + tail); k's high bits land in the exponent.
    let idx = 2 * (ki % N) as usize;
    let tail = f64::from_bits(TAB[idx]);
    let scale = f64::from_bits(TAB[idx + 1].wrapping_add(ki << K_SHIFT));
    let r2 = r * r;
    let p23 = r.mul_add(C3, C2);
    let p45 = r.mul_add(C5, C4);
    let tmp = (r2 * r2).mul_add(p45, r2.mul_add(p23, tail + r));
    scale.mul_add(tmp, scale)
}

/// The scalar loop over [`exp_one`].
#[inline(always)]
pub(super) fn exp_body(xs: &mut [f64]) {
    for v in xs {
        *v = exp_one(*v);
    }
}

/// 4-lane AVX2 + FMA form of [`exp_one`]: lane-masked loads and stores
/// cover the tail, table words come in by gather, and only the lanes
/// inside the window are stored — the others still hold `x` and take
/// `f64::exp` in place.
#[cfg(target_arch = "x86_64")]
pub(super) mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must have verified AVX2 and FMA support.
    #[target_feature(enable = "avx2,fma")]
    pub(in crate::simd) unsafe fn exp_inplace(xs: &mut [f64]) {
        let lanes = _mm256_setr_epi64x(0, 1, 2, 3);
        let sign = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MIN));
        let mut k = 0;
        while k < xs.len() {
            let len = (xs.len() - k).min(4);
            let p = xs.as_mut_ptr().add(k);
            let live = _mm256_cmpgt_epi64(_mm256_set1_epi64x(len as i64), lanes);
            let x = _mm256_maskload_pd(p, live);
            let ax = _mm256_andnot_pd(sign, x);
            let window = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GE_OQ>(ax, _mm256_set1_pd(TINY)),
                _mm256_cmp_pd::<_CMP_LT_OQ>(ax, _mm256_set1_pd(HUGE)),
            );
            let fast = _mm256_and_si256(live, _mm256_castpd_si256(window));
            _mm256_maskstore_pd(p, fast, exp4(x));
            let slow = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_andnot_si256(fast, live)));
            if slow != 0 {
                fall_back(&mut xs[k..k + len], slow as u32);
            }
            k += 4;
        }
    }

    /// [`exp_one`]'s table path on four lanes, op for op.
    #[inline(always)]
    unsafe fn exp4(x: __m256d) -> __m256d {
        let kd = _mm256_fmadd_pd(x, _mm256_set1_pd(INV_LN2_N), _mm256_set1_pd(SHIFT));
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, _mm256_set1_pd(SHIFT));
        let r = _mm256_fmadd_pd(
            kd,
            _mm256_set1_pd(NEG_LN2_LO_N),
            _mm256_fmadd_pd(kd, _mm256_set1_pd(NEG_LN2_HI_N), x),
        );
        let idx = _mm256_slli_epi64::<1>(_mm256_and_si256(ki, _mm256_set1_epi64x(N as i64 - 1)));
        let tab = TAB.as_ptr() as *const i64;
        let tail = _mm256_castsi256_pd(_mm256_i64gather_epi64::<8>(tab, idx));
        let sbits = _mm256_i64gather_epi64::<8>(tab.add(1), idx);
        let scale = _mm256_castsi256_pd(_mm256_add_epi64(
            sbits,
            _mm256_slli_epi64::<{ K_SHIFT as i32 }>(ki),
        ));
        let r2 = _mm256_mul_pd(r, r);
        let p23 = _mm256_fmadd_pd(r, _mm256_set1_pd(C3), _mm256_set1_pd(C2));
        let p45 = _mm256_fmadd_pd(r, _mm256_set1_pd(C5), _mm256_set1_pd(C4));
        let tmp = _mm256_fmadd_pd(
            _mm256_mul_pd(r2, r2),
            p45,
            _mm256_fmadd_pd(r2, p23, _mm256_add_pd(tail, r)),
        );
        _mm256_fmadd_pd(scale, tmp, scale)
    }
}

/// 8-lane AVX-512F form of [`exp_one`], structured like [`avx2`] with
/// mask registers in place of lane masks.
#[cfg(target_arch = "x86_64")]
pub(super) mod avx512 {
    use super::*;
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must have verified AVX-512F support.
    #[target_feature(enable = "avx512f")]
    pub(in crate::simd) unsafe fn exp_inplace(xs: &mut [f64]) {
        let mut k = 0;
        while k < xs.len() {
            let len = (xs.len() - k).min(8);
            let p = xs.as_mut_ptr().add(k);
            let live = (0xffu16 >> (8 - len)) as __mmask8;
            let x = _mm512_maskz_loadu_pd(live, p);
            let ax = _mm512_castsi512_pd(_mm512_and_si512(
                _mm512_castpd_si512(x),
                _mm512_set1_epi64(i64::MAX),
            ));
            let fast = live
                & _mm512_cmp_pd_mask::<_CMP_GE_OQ>(ax, _mm512_set1_pd(TINY))
                & _mm512_cmp_pd_mask::<_CMP_LT_OQ>(ax, _mm512_set1_pd(HUGE));
            _mm512_mask_storeu_pd(p, fast, exp8(x));
            let slow = live & !fast;
            if slow != 0 {
                fall_back(&mut xs[k..k + len], u32::from(slow));
            }
            k += 8;
        }
    }

    /// [`exp_one`]'s table path on eight lanes, op for op.
    #[inline(always)]
    unsafe fn exp8(x: __m512d) -> __m512d {
        let kd = _mm512_fmadd_pd(x, _mm512_set1_pd(INV_LN2_N), _mm512_set1_pd(SHIFT));
        let ki = _mm512_castpd_si512(kd);
        let kd = _mm512_sub_pd(kd, _mm512_set1_pd(SHIFT));
        let r = _mm512_fmadd_pd(
            kd,
            _mm512_set1_pd(NEG_LN2_LO_N),
            _mm512_fmadd_pd(kd, _mm512_set1_pd(NEG_LN2_HI_N), x),
        );
        let idx = _mm512_slli_epi64::<1>(_mm512_and_si512(ki, _mm512_set1_epi64(N as i64 - 1)));
        let tab = TAB.as_ptr() as *const i64;
        let tail = _mm512_castsi512_pd(_mm512_i64gather_epi64::<8>(idx, tab));
        let sbits = _mm512_i64gather_epi64::<8>(idx, tab.add(1));
        let scale = _mm512_castsi512_pd(_mm512_add_epi64(sbits, _mm512_slli_epi64::<K_SHIFT>(ki)));
        let r2 = _mm512_mul_pd(r, r);
        let p23 = _mm512_fmadd_pd(r, _mm512_set1_pd(C3), _mm512_set1_pd(C2));
        let p45 = _mm512_fmadd_pd(r, _mm512_set1_pd(C5), _mm512_set1_pd(C4));
        let tmp = _mm512_fmadd_pd(
            _mm512_mul_pd(r2, r2),
            p45,
            _mm512_fmadd_pd(r2, p23, _mm512_add_pd(tail, r)),
        );
        _mm512_fmadd_pd(scale, tmp, scale)
    }
}

/// Lanes flagged in `slow` (bit `l` ↔ `block[l]`) still hold their input;
/// replace each with `f64::exp`, as [`exp_one`] does outside the window.
#[cfg(target_arch = "x86_64")]
#[cold]
fn fall_back(block: &mut [f64], slow: u32) {
    for (l, v) in block.iter_mut().enumerate() {
        if slow & (1 << l) != 0 {
            *v = v.exp();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_words_are_two_to_the_i_over_n() {
        // H[i] must be 2^(i/N) to within an ulp (it is the rounded value;
        // a transcription slip would be off by far more), and T[i] is a
        // relative rounding error, so |T[i]| ≤ 2⁻⁵³.
        for i in 0..N as usize {
            let h = f64::from_bits(TAB[2 * i + 1] + ((i as u64) << K_SHIFT));
            let want = (i as f64 / N as f64).exp2();
            assert!(
                (h - want).abs() <= f64::EPSILON * want,
                "H[{i}] = {h}, want {want}"
            );
            let t = f64::from_bits(TAB[2 * i]);
            assert!(t.abs() <= f64::EPSILON / 2.0, "T[{i}] = {t}");
        }
        assert_eq!(TAB[0], 0);
        assert_eq!(TAB[1], 1.0f64.to_bits());
    }

    #[test]
    fn window_edges() {
        assert!(in_window(TINY) && in_window(-TINY));
        assert!(!in_window(TINY / 2.0 * 1.999) && !in_window(0.0) && !in_window(-0.0));
        assert!(in_window(511.999) && in_window(-511.999));
        assert!(!in_window(HUGE) && !in_window(-HUGE));
        assert!(!in_window(f64::NAN) && !in_window(f64::INFINITY));
    }

    #[test]
    fn spec_is_close_to_exp_everywhere_in_the_window() {
        // A loose sanity bound, valid on any libm: both sides are within
        // about half an ulp of e^x.
        let mut x = -700.0;
        while x < 700.0 {
            let (got, want) = (exp_one(x), x.exp());
            assert!(
                (got - want).abs() <= 2.0 * f64::EPSILON * want,
                "x={x}: {got} vs {want}"
            );
            x += 0.37;
        }
        assert_eq!(exp_one(1.0), std::f64::consts::E);
    }
}
