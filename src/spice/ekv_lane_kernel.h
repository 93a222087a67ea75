// The width-templated MOSFET lane kernels, included by the per-target
// translation units (ekv_kernel_w1/w4/w8.cpp) — never compile this header
// into more than one TU per width.
//
// ekv_eval_lanes_impl<W> mirrors ekv_current(..., softplus_logistic_fast)
// and cap_eval_lanes_impl<W> mirrors the capacitance model
// (Mosfet::evaluate_caps is its W=1 instance) operation for operation over
// simd::DVec<W>: same reduction tables (common/numeric_tables.h), same
// association order on every +,-,*,/ and sqrt, and the per-target TUs
// compile with -ffp-contract=off so no FMA contraction perturbs the
// sequence. Each lane therefore produces the exact bits of the scalar
// code — the property the determinism tests pin.
//
// Deviations from the scalar control flow, value-preserving by selection:
//   - NaN inputs: the scalar kernel early-returns {x, x} before its int
//     cast. Lanes can't branch, so NaN lanes are sanitized to 0 for the
//     table index math and the NaN is re-selected into both outputs.
//   - log1p small-z branch: both the mantissa-reduced log and the
//     alternating series are computed for every lane, then blended at the
//     scalar's exact z < 2^-12 cut. Both paths are finite for z in [0, 1].
//   - Junction caps: both pieces of the junction model (depletion and the
//     linear extension beyond fc*pb) are computed for every lane and
//     blended at the exact vj < fc*pb cut. The grading base (1 - vj/pb or
//     1 - fc) is selected first, so each lane raises one base to its power.
#ifndef MCSM_SPICE_EKV_LANE_KERNEL_H
#define MCSM_SPICE_EKV_LANE_KERNEL_H

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/numeric_tables.h"
#include "common/simd.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace mcsm::spice {

namespace lanes_detail {

using simd::DVec;

// ---- table-reduction index math -----------------------------------------
// The exp/log reductions mix FP with integer bit manipulation and table
// lookups. Written as per-lane loops the compiler lowers them to long
// extract/insert chains that dominate the chunk cost, so the vector widths
// get explicit integer-SIMD + gather specializations. Every specialization
// produces the exact doubles of the generic loop (same table slots, same
// int arithmetic, same final multiplies), so lane bits are unchanged.

// ts = kExp2Neg32[n & 31] * 2^-(n >> 5) for n = (int64)nd per lane.
// nd is floor(u * 32/ln2 + 0.5) with u in [0, 708]: a small non-negative
// integer-valued double (fits int32), which the vector paths rely on.
template <int W>
MCSM_SIMD_INLINE DVec<W> exp_slot_scale(DVec<W> nd) {
    namespace nt = mcsm::numeric_tables;
    DVec<W> ts;
    for (int k = 0; k < W; ++k) {
        const auto n64 = static_cast<std::int64_t>(nd.v[k]);
        const auto j = static_cast<std::uint64_t>(n64) & 31u;
        const auto e = n64 >> 5;
        const double scale = std::bit_cast<double>(
            static_cast<std::uint64_t>(1023 - e) << 52);
        ts.v[k] = nt::kExp2Neg32[j] * scale;
    }
    return ts;
}

// Mantissa/exponent split of y = 1 + z (y in [1, 2], so the unbiased
// exponent is never negative): m is y's mantissa renormalized to [1, 2),
// invm the 64-slot reciprocal anchor, anchor = e*ln2 + log(m0).
template <int W>
MCSM_SIMD_INLINE void log_reduce(DVec<W> y, DVec<W>& m, DVec<W>& invm,
                                 DVec<W>& anchor) {
    namespace nt = mcsm::numeric_tables;
    for (int k = 0; k < W; ++k) {
        const auto bits = std::bit_cast<std::uint64_t>(y.v[k]);
        const auto e = static_cast<int>(bits >> 52) - 1023;
        m.v[k] = std::bit_cast<double>(
            (bits & 0x000FFFFFFFFFFFFFull) | 0x3FF0000000000000ull);
        const auto j = (bits >> 46) & 63u;
        invm.v[k] = nt::kInvM0_64[j];
        anchor.v[k] =
            static_cast<double>(e) * nt::kLn2 + nt::kLogM0_64[j];
    }
}

#if defined(__AVX2__)
template <>
MCSM_SIMD_INLINE DVec<4> exp_slot_scale<4>(DVec<4> nd) {
    namespace nt = mcsm::numeric_tables;
    const __m256d ndv = (__m256d)nd.v;
    const __m128i n32 = _mm256_cvttpd_epi32(ndv);  // truncation, like (int)
    const __m128i j32 = _mm_and_si128(n32, _mm_set1_epi32(31));
    const __m128i e32 = _mm_srai_epi32(n32, 5);
    const __m256i sbits = _mm256_slli_epi64(
        _mm256_sub_epi64(_mm256_set1_epi64x(1023),
                         _mm256_cvtepi32_epi64(e32)),
        52);
    const __m256d slot = _mm256_i32gather_pd(nt::kExp2Neg32, j32, 8);
    return {(DVec<4>::vec)_mm256_mul_pd(slot,
                                        _mm256_castsi256_pd(sbits))};
}

template <>
MCSM_SIMD_INLINE void log_reduce<4>(DVec<4> y, DVec<4>& m, DVec<4>& invm,
                                    DVec<4>& anchor) {
    namespace nt = mcsm::numeric_tables;
    const __m256i bits = _mm256_castpd_si256((__m256d)y.v);
    const __m256i e64 = _mm256_sub_epi64(_mm256_srli_epi64(bits, 52),
                                         _mm256_set1_epi64x(1023));
    m.v = (DVec<4>::vec)_mm256_castsi256_pd(_mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFll)),
        _mm256_set1_epi64x(0x3FF0000000000000ll)));
    const __m256i j64 = _mm256_and_si256(_mm256_srli_epi64(bits, 46),
                                         _mm256_set1_epi64x(63));
    invm.v = (DVec<4>::vec)_mm256_i64gather_pd(nt::kInvM0_64, j64, 8);
    const __m256d logm0 = _mm256_i64gather_pd(nt::kLogM0_64, j64, 8);
    // int64 -> double via the 2^52 bit trick (exact for 0 <= e < 2^52;
    // e >= 0 because y >= 1).
    const __m256d e_d = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            e64, _mm256_set1_epi64x(0x4330000000000000ll))),
        _mm256_set1_pd(0x1p52));
    anchor.v = (DVec<4>::vec)_mm256_add_pd(
        _mm256_mul_pd(e_d, _mm256_set1_pd(nt::kLn2)), logm0);
}
#endif  // __AVX2__

#if defined(__AVX512F__) && defined(__AVX512DQ__)
template <>
MCSM_SIMD_INLINE DVec<8> exp_slot_scale<8>(DVec<8> nd) {
    namespace nt = mcsm::numeric_tables;
    const __m512i n64 = _mm512_cvttpd_epi64((__m512d)nd.v);
    const __m512i j64 = _mm512_and_epi64(n64, _mm512_set1_epi64(31));
    const __m512i sbits = _mm512_slli_epi64(
        _mm512_sub_epi64(_mm512_set1_epi64(1023),
                         _mm512_srai_epi64(n64, 5)),
        52);
    const __m512d slot = _mm512_i64gather_pd(j64, nt::kExp2Neg32, 8);
    return {(DVec<8>::vec)_mm512_mul_pd(slot,
                                        _mm512_castsi512_pd(sbits))};
}

template <>
MCSM_SIMD_INLINE void log_reduce<8>(DVec<8> y, DVec<8>& m, DVec<8>& invm,
                                    DVec<8>& anchor) {
    namespace nt = mcsm::numeric_tables;
    const __m512i bits = _mm512_castpd_si512((__m512d)y.v);
    const __m512i e64 = _mm512_sub_epi64(_mm512_srli_epi64(bits, 52),
                                         _mm512_set1_epi64(1023));
    m.v = (DVec<8>::vec)_mm512_castsi512_pd(_mm512_or_epi64(
        _mm512_and_epi64(bits, _mm512_set1_epi64(0x000FFFFFFFFFFFFFll)),
        _mm512_set1_epi64(0x3FF0000000000000ll)));
    const __m512i j64 = _mm512_and_epi64(_mm512_srli_epi64(bits, 46),
                                         _mm512_set1_epi64(63));
    invm.v = (DVec<8>::vec)_mm512_i64gather_pd(j64, nt::kInvM0_64, 8);
    const __m512d logm0 = _mm512_i64gather_pd(j64, nt::kLogM0_64, 8);
    const __m512d e_d = _mm512_cvtepi64_pd(e64);  // exact (AVX-512 DQ)
    anchor.v = (DVec<8>::vec)_mm512_add_pd(
        _mm512_mul_pd(e_d, _mm512_set1_pd(nt::kLn2)), logm0);
}
#endif  // __AVX512F__ && __AVX512DQ__

// {softplus(x), logistic(x)} across W lanes, bit-equal per lane to
// mcsm::softplus_logistic_fast.
template <int W>
MCSM_SIMD_INLINE void sp_sig_lanes(DVec<W> x, DVec<W>& sp, DVec<W>& sig) {
    namespace nt = mcsm::numeric_tables;
    const DVec<W> zero = simd::broadcast<W>(0.0);
    const DVec<W> one = simd::broadcast<W>(1.0);

    // NaN lanes take the sanitized value 0 through the pipeline; the NaN
    // itself is re-selected into the outputs at the end.
    const DVec<W> xs = simd::select_nan(x, zero, x);

    // z = e^-u, u = min(|x|, 708): 32-slot table-reduced exponential.
    const DVec<W> u = simd::vmin(simd::vabs(xs), simd::broadcast<W>(708.0));
    const DVec<W> nd = simd::vfloor(u * simd::broadcast<W>(nt::kExpInvStep32) +
                                    simd::broadcast<W>(0.5));
    const DVec<W> r = (nd * simd::broadcast<W>(nt::kExpStep32Hi) - u) +
                      nd * simd::broadcast<W>(nt::kExpStep32Lo);
    // 2^-k * 2^(-j/32): the table slot pre-multiplied by the scale.
    const DVec<W> ts = exp_slot_scale<W>(nd);
    DVec<W> p = simd::broadcast<W>(1.0 / 24.0);
    p = p * r + simd::broadcast<W>(1.0 / 6.0);
    p = p * r + simd::broadcast<W>(0.5);
    p = p * r + one;
    p = p * r + one;
    const DVec<W> z = p * ts;

    // log1p(z), large branch: 64-slot mantissa-reduced log of y = 1 + z.
    const DVec<W> y = one + z;
    DVec<W> m, invm, anchor;  // anchor = e*ln2 + log(m0)
    log_reduce<W>(y, m, invm, anchor);
    const DVec<W> t = m * invm - one;
    DVec<W> q = simd::broadcast<W>(-1.0 / 7.0);
    q = q * t + simd::broadcast<W>(1.0 / 6.0);
    q = q * t - simd::broadcast<W>(1.0 / 5.0);
    q = q * t + simd::broadcast<W>(1.0 / 4.0);
    q = q * t - simd::broadcast<W>(1.0 / 3.0);
    q = q * t + simd::broadcast<W>(0.5);
    const DVec<W> log_y = anchor + (t - t * t * q);

    // log1p(z), small branch: alternating series below the scalar's cut.
    const DVec<W> series =
        z * (one - z * (simd::broadcast<W>(0.5) -
                        z * (simd::broadcast<W>(1.0 / 3.0) -
                             z * simd::broadcast<W>(0.25))));
    const DVec<W> l1p =
        simd::select_lt(z, simd::broadcast<W>(0x1p-12), series, log_y);

    const DVec<W> inv = one / (one + z);
    // softplus = max(x, 0) + log1p(z); std::max(x, 0.0) keeps -0.0.
    const DVec<W> sp_clean = simd::select_lt(xs, zero, zero, xs) + l1p;
    const DVec<W> sig_clean = simd::select_ge(xs, zero, inv, z * inv);
    sp = simd::select_nan(x, x, sp_clean);
    sig = simd::select_nan(x, x, sig_clean);
}

// One junction component (area or sidewall) of zero-bias capacitance c0
// and grading coefficient m at diode forward bias vj:
//     c0 / (1 - vj/pb)^m                                  vj <  fc*pb
//     c0 / (1 - fc)^m * (1 + m (vj - fc*pb) / (pb (1 - fc)))  otherwise
//     0                                                    c0 <= 0
// The grading power is sqrt where m == 0.5 (exact: both are correctly
// rounded) and a per-lane std::pow otherwise, so the bits are libm's.
// pow(1, m) == 1 exactly, so a base of exactly 1 (a junction at zero bias,
// e.g. a source tied to its bulk) keeps the sqrt and skips the call, as do
// lanes with no junction (c0 <= 0, which include the pad lanes).
template <int W>
MCSM_SIMD_INLINE DVec<W> junction_lanes(DVec<W> vj, DVec<W> c0, DVec<W> m,
                                        DVec<W> pb, DVec<W> fc) {
    const DVec<W> zero = simd::broadcast<W>(0.0);
    const DVec<W> one = simd::broadcast<W>(1.0);
    const DVec<W> fcpb = fc * pb;
    const DVec<W> x = simd::select_lt(vj, fcpb, one - vj / pb, one - fc);
    DVec<W> g = simd::vsqrt(x);
    for (int k = 0; k < W; ++k)
        if (m.v[k] != 0.5 && x.v[k] != 1.0 && c0.v[k] > 0.0)
            g.v[k] = std::pow(x.v[k], m.v[k]);
    const DVec<W> q = c0 / g;
    const DVec<W> ext = q * (one + m * (vj - fcpb) / (pb * (one - fc)));
    return simd::select_ge(zero, c0, zero,
                           simd::select_lt(vj, fcpb, q, ext));
}

}  // namespace lanes_detail

// One W-wide chunk starting at `base`; `a`'s arrays must be readable and
// writable for W lanes from there.
template <int W>
MCSM_SIMD_INLINE void ekv_chunk(const EkvLanes& a, std::size_t base) {
    using simd::DVec;
    using lanes_detail::sp_sig_lanes;

    const DVec<W> vd = simd::load<W>(a.vd + base);
    const DVec<W> vg = simd::load<W>(a.vg + base);
    const DVec<W> vs = simd::load<W>(a.vs + base);
    const DVec<W> vb = simd::load<W>(a.vb + base);
    const DVec<W> pol = simd::load<W>(a.pol + base);
    const DVec<W> is = simd::load<W>(a.is + base);
    const DVec<W> nn = simd::load<W>(a.nn + base);
    const DVec<W> vt0 = simd::load<W>(a.vt0 + base);
    const DVec<W> lambda = simd::load<W>(a.lambda + base);
    const DVec<W> ut = simd::load<W>(a.ut + base);

    // Polarity-normalized, bulk-referenced voltages (ekv_current order).
    const DVec<W> wg = pol * (vg - vb);
    const DVec<W> wd = pol * (vd - vb);
    const DVec<W> ws = pol * (vs - vb);

    const DVec<W> vp = (wg - vt0) / nn;

    const DVec<W> two_ut = simd::broadcast<W>(2.0) * ut;
    DVec<W> sp_s, sig_s, sp_d, sig_d;
    sp_sig_lanes<W>((vp - ws) / two_ut, sp_s, sig_s);
    sp_sig_lanes<W>((vp - wd) / two_ut, sp_d, sig_d);
    const DVec<W> ff = sp_s * sp_s;
    const DVec<W> dff = sp_s * sig_s / ut;
    const DVec<W> fr = sp_d * sp_d;
    const DVec<W> dfr = sp_d * sig_d / ut;
    const DVec<W> diff = ff - fr;

    // smooth_abs / smooth_abs_deriv share one sqrt(x^2 + eps^2); operands
    // are identical so reusing it preserves the scalar bits.
    const DVec<W> eps = simd::broadcast<W>(1e-3);
    const DVec<W> dv = wd - ws;
    const DVec<W> root = simd::vsqrt(dv * dv + eps * eps);
    const DVec<W> sabs = root - eps;
    const DVec<W> dsabs = dv / root;
    const DVec<W> clm = simd::broadcast<W>(1.0) + lambda * sabs;

    const DVec<W> iw = is * diff * clm;

    const DVec<W> di_dwg = is * clm * (dff - dfr) / nn;
    const DVec<W> di_dws = -is * clm * dff - is * diff * lambda * dsabs;
    const DVec<W> di_dwd = is * clm * dfr + is * diff * lambda * dsabs;

    const DVec<W> ids = pol * iw;
    const DVec<W> gm = di_dwg;
    const DVec<W> gds = di_dwd;
    const DVec<W> gms = di_dws;
    const DVec<W> gmb = -(gm + gds + gms);
    // Affine RHS term, associated exactly like the scalar stamping path:
    // ids - (((gm*vg + gds*vd) + gms*vs) + gmb*vb).
    const DVec<W> ia =
        ids - (gm * vg + gds * vd + gms * vs + gmb * vb);

    simd::store<W>(a.gm + base, gm);
    simd::store<W>(a.gds + base, gds);
    simd::store<W>(a.gms + base, gms);
    simd::store<W>(a.gmb + base, gmb);
    simd::store<W>(a.ids + base, ids);
    simd::store<W>(a.ia + base, ia);
}

template <int W>
void ekv_eval_lanes_impl(const EkvLanes& a, std::size_t n) {
    for (std::size_t base = 0; base < n; base += W) ekv_chunk<W>(a, base);
}

// One W-wide chunk of the capacitance model: Meyer-style region-blended
// gate capacitances and bias-dependent junction capacitances at the
// terminal voltages in `a`, for W devices starting at `base`.
template <int W>
MCSM_SIMD_INLINE void cap_chunk(const CapLanes& a, std::size_t base) {
    using simd::DVec;
    using lanes_detail::junction_lanes;
    using lanes_detail::sp_sig_lanes;
    const auto coef = [&](CapCoeff k) {
        return simd::load<W>(a.coef + static_cast<std::size_t>(k) * a.stride +
                             base);
    };
    const DVec<W> zero = simd::broadcast<W>(0.0);
    const DVec<W> one = simd::broadcast<W>(1.0);

    const DVec<W> vd = simd::load<W>(a.vd + base);
    const DVec<W> vg = simd::load<W>(a.vg + base);
    const DVec<W> vs = simd::load<W>(a.vs + base);
    const DVec<W> vb = simd::load<W>(a.vb + base);
    const DVec<W> pol = coef(kCapPol);
    const DVec<W> bw = coef(kCapBlend);

    // Polarity-normalized, bulk-referenced voltages.
    const DVec<W> wg = pol * (vg - vb);
    const DVec<W> wd = pol * (vd - vb);
    const DVec<W> ws = pol * (vs - vb);
    const DVec<W> wgs = wg - ws;
    const DVec<W> wgd = wg - wd;

    // Body-affected threshold seen from the conducting (source) side, with
    // a smooth max of the two channel ends for symmetry. psrc, the
    // probability that the s terminal acts as the source, routes the
    // saturation 2/3 Cox to the source side smoothly.
    DVec<W> sp_side, psrc;
    sp_sig_lanes<W>((wgs - wgd) / bw, sp_side, psrc);
    const DVec<W> smax = bw * sp_side + wgd;
    const DVec<W> smin = wgs + wgd - smax;
    const DVec<W> w_side_min = simd::vmin(ws, wd);
    // std::max(0.0, w): (0 < w) ? w : 0.
    const DVec<W> vt_eff =
        coef(kCapVt0) + (coef(kCapN) - one) *
                            simd::select_lt(zero, w_side_min, w_side_min,
                                            zero);

    // sigma: channel inverted somewhere; tau: inverted at both ends.
    DVec<W> unused, sigma, tau;
    sp_sig_lanes<W>((smax - vt_eff) / bw, unused, sigma);
    sp_sig_lanes<W>((smin - vt_eff) / bw, unused, tau);

    const DVec<W> c_ch = coef(kCapCch);
    const DVec<W> half = simd::broadcast<W>(0.5);
    const DVec<W> two_thirds = simd::broadcast<W>(2.0 / 3.0);
    const DVec<W> cgs =
        c_ch * (tau * half + (sigma - tau) * two_thirds * psrc) +
        coef(kCapCgsOv);
    const DVec<W> cgd =
        c_ch * (tau * half + (sigma - tau) * two_thirds * (one - psrc)) +
        coef(kCapCgdOv);
    const DVec<W> cgb =
        c_ch * (one - sigma) * coef(kCapCgbFrac) + coef(kCapCgbOv);

    // Junction caps: forward bias of the bulk junction diode is
    // pol*(vb - vx); area plus sidewall component.
    const DVec<W> pb = coef(kCapPb);
    const DVec<W> fc = coef(kCapFc);
    const DVec<W> mj = coef(kCapMj);
    const DVec<W> mjsw = coef(kCapMjsw);
    const DVec<W> vjd = pol * (vb - vd);
    const DVec<W> vjs = pol * (vb - vs);
    const DVec<W> cdb = junction_lanes<W>(vjd, coef(kCapCjD), mj, pb, fc) +
                        junction_lanes<W>(vjd, coef(kCapCjswD), mjsw, pb, fc);
    const DVec<W> csb = junction_lanes<W>(vjs, coef(kCapCjS), mj, pb, fc) +
                        junction_lanes<W>(vjs, coef(kCapCjswS), mjsw, pb, fc);

    simd::store<W>(a.cgs + base, cgs);
    simd::store<W>(a.cgd + base, cgd);
    simd::store<W>(a.cgb + base, cgb);
    simd::store<W>(a.cdb + base, cdb);
    simd::store<W>(a.csb + base, csb);
}

template <int W>
void cap_eval_lanes_impl(const CapLanes& a, std::size_t n) {
    for (std::size_t base = 0; base < n; base += W) cap_chunk<W>(a, base);
}

}  // namespace mcsm::spice

#endif  // MCSM_SPICE_EKV_LANE_KERNEL_H
