//! The explicit x86_64 AVX-512 tier: 16-wide f32 microkernels plus the
//! int8 quantized kernels on 512-bit integer lanes.
//!
//! Every function here is compiled with `#[target_feature(enable =
//! "avx512f,avx512bw")]`; the dispatcher only routes to this tier after
//! `is_x86_feature_detected!` confirmed both features at runtime (or after
//! `force_tier` asserted support), which is what makes the `unsafe` call
//! sites sound. `avx512f` covers the f32 FMA kernels; `avx512bw` covers the
//! 512-bit byte/word conversions and the widening `pmaddwd` of the
//! quantized kernels (the `vl`/`dq` extensions the container also exposes
//! are not needed).
//!
//! ## Determinism contract
//!
//! Same contract as the AVX2 tier, independently satisfied: every f32
//! output element is one fused-multiply-add chain in ascending-`k` order —
//! a 16-wide lane's `fma` chain is bit-identical to the scalar
//! `f32::mul_add` chain — so within this tier an element's bits never
//! depend on which shard, panel or register tile computed it. (The chain
//! *shape* of [`dot`] differs from the AVX2 tier's — four 16-wide chains
//! instead of four 8-wide — so cross-tier agreement is the usual ≤ 1e-5 /
//! bit-exact-on-integers contract, while within-tier row grouping stays
//! bit-exact.) The quantized kernels accumulate in `i32`, which is exact:
//! their scores are bit-identical across **all** tiers.

use super::{pack_panel_kmajor, quantized_score, row_is_sparse, GEMM_B_PANEL};
use crate::quant::{QuantizedMatrix, QuantizedQuery};
use crate::Matrix;
use core::arch::x86_64::*;

/// Rows of `A` per register tile in the GEMM microkernel: 4 rows × two
/// 16-float accumulators each is 8 of the 32 zmm registers, leaving ample
/// room for panel loads and broadcasts.
const GEMM_MR: usize = 4;

/// Dot product: four independent 16-wide FMA accumulator chains (64 floats
/// in flight), one fixed-order horizontal reduction, scalar-FMA tail.
///
/// The accumulators are four named variables rather than a
/// rotating-index array: a dynamic `acc[lane]` index defeats register
/// allocation for 64-byte zmm values and the resulting spills made this
/// tier slower than the portable one at serving dimensions. The remainder
/// ladder below keeps the chain *shape* a pure function of the row length,
/// which is what the position-independence contract needs.
#[target_feature(enable = "avx512f,avx512bw")]
// ham-lint: hot-path
pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "avx512::dot: length mismatch (the dispatcher asserts this)");
    let len = a.len().min(b.len());
    let mut acc0 = _mm512_setzero_ps();
    let mut acc1 = _mm512_setzero_ps();
    let mut acc2 = _mm512_setzero_ps();
    let mut acc3 = _mm512_setzero_ps();
    let mut k = 0;
    while k + 64 <= len {
        // SAFETY: the loop condition guarantees every unaligned 16-float
        // load at k..k+64 is in bounds on both slices.
        unsafe {
            acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a.as_ptr().add(k)), _mm512_loadu_ps(b.as_ptr().add(k)), acc0);
            acc1 =
                _mm512_fmadd_ps(_mm512_loadu_ps(a.as_ptr().add(k + 16)), _mm512_loadu_ps(b.as_ptr().add(k + 16)), acc1);
            acc2 =
                _mm512_fmadd_ps(_mm512_loadu_ps(a.as_ptr().add(k + 32)), _mm512_loadu_ps(b.as_ptr().add(k + 32)), acc2);
            acc3 =
                _mm512_fmadd_ps(_mm512_loadu_ps(a.as_ptr().add(k + 48)), _mm512_loadu_ps(b.as_ptr().add(k + 48)), acc3);
        }
        k += 64;
    }
    if k + 32 <= len {
        // SAFETY: the branch condition guarantees both 16-float loads at
        // k..k+32 are in bounds on both slices.
        unsafe {
            acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a.as_ptr().add(k)), _mm512_loadu_ps(b.as_ptr().add(k)), acc0);
            acc1 =
                _mm512_fmadd_ps(_mm512_loadu_ps(a.as_ptr().add(k + 16)), _mm512_loadu_ps(b.as_ptr().add(k + 16)), acc1);
        }
        k += 32;
    }
    if k + 16 <= len {
        // SAFETY: the branch condition guarantees the 16-float load at
        // k..k+16 is in bounds on both slices.
        unsafe {
            acc2 = _mm512_fmadd_ps(_mm512_loadu_ps(a.as_ptr().add(k)), _mm512_loadu_ps(b.as_ptr().add(k)), acc2);
        }
        k += 16;
    }
    let mut sum = hsum16(_mm512_add_ps(_mm512_add_ps(acc0, acc1), _mm512_add_ps(acc2, acc3)));
    for (x, y) in a[k..len].iter().zip(&b[k..len]) {
        sum = x.mul_add(*y, sum);
    }
    sum
}

/// Horizontal sum of one 16-float vector in a fixed reduction order: the
/// two 256-bit halves are added lane-wise, then reduced with the same
/// explicit shuffle tree as the AVX2 tier's `hsum8`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
// ham-lint: hot-path
fn hsum16(v: __m512) -> f32 {
    let lo = _mm512_castps512_ps256(v);
    // Extract the upper 256 bits via the f64 view: `_mm512_extractf64x4_pd`
    // only needs avx512f (the f32 flavour would pull in avx512dq).
    let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v)));
    let o = _mm256_add_ps(lo, hi);
    let q = _mm_add_ps(_mm256_castps256_ps128(o), _mm256_extractf128_ps::<1>(o));
    let h = _mm_add_ps(q, _mm_movehl_ps(q, q));
    let s = _mm_add_ss(h, _mm_shuffle_ps::<0b01>(h, h));
    _mm_cvtss_f32(s)
}

/// `out[j] = w.row(j) · q`: the one-user/whole-catalogue GEMV. Each row is
/// an independent [`dot`], so a row's score never depends on which shard or
/// position it occupies.
#[target_feature(enable = "avx512f,avx512bw")]
// ham-lint: hot-path
pub(super) fn matvec_transposed_into(w: &Matrix, q: &[f32], out: &mut [f32]) {
    let d = w.cols();
    let data = w.as_slice();
    for (j, o) in out.iter_mut().enumerate() {
        *o = dot(&data[j * d..(j + 1) * d], q);
    }
}

/// `out[i] = w.row(rows[i]) · q` with the [`dot`] chain of
/// [`matvec_transposed_into`], so each output matches that row of the GEMV
/// bit for bit. The dispatcher validated the shapes and row indices.
#[target_feature(enable = "avx512f,avx512bw")]
// ham-lint: hot-path
pub(super) fn dot_rows_into(w: &Matrix, rows: &[usize], q: &[f32], out: &mut [f32]) {
    let d = w.cols();
    let data = w.as_slice();
    for (o, &r) in out.iter_mut().zip(rows) {
        *o = dot(&data[r * d..(r + 1) * d], q);
    }
}

/// Register-blocked `a · bᵀ` into `out` (overwrites): the packed-panel
/// layout of the portable tier with an explicit [`GEMM_MR`]-row × 32-column
/// FMA register tile over the panel.
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) fn matmul_transposed_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, d) = a.shape();
    let n = b.rows();
    if d == 0 {
        out.as_mut_slice().fill(0.0);
        return;
    }
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let out_data = out.as_mut_slice();

    let mut packed = vec![0.0f32; GEMM_B_PANEL * d];
    let mut j0 = 0;
    while j0 < n {
        let jw = (n - j0).min(GEMM_B_PANEL);
        pack_panel_kmajor(b_data, d, j0, jw, &mut packed);
        let mut i0 = 0;
        while i0 + GEMM_MR <= m {
            gemm_panel_rows::<GEMM_MR>(&a_data[i0 * d..], d, &packed, jw, out_data, n, i0 * n + j0);
            i0 += GEMM_MR;
        }
        while i0 < m {
            gemm_panel_rows::<1>(&a_data[i0 * d..], d, &packed, jw, out_data, n, i0 * n + j0);
            i0 += 1;
        }
        j0 += jw;
    }
}

/// Scores `R` consecutive rows of `A` against one packed k-major panel,
/// writing `R × jw` output elements. Every element is one FMA chain in
/// ascending `k`, whichever of the 32-wide / 16-wide / scalar paths covers
/// its column.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
// ham-lint: hot-path
fn gemm_panel_rows<const R: usize>(
    a_rows: &[f32], // at least R*d floats, row-major
    d: usize,
    packed: &[f32], // jw*d floats, k-major panel
    jw: usize,
    out: &mut [f32], // full output buffer
    out_stride: usize,
    out_base: usize, // index of this tile's (row 0, column 0) in `out`
) {
    let mut j = 0;
    while j + 32 <= jw {
        let mut acc = [[_mm512_setzero_ps(); 2]; R];
        for k in 0..d {
            // SAFETY: `j + 32 <= jw` and `k < d` bound both loads within the
            // `jw * d`-float packed panel.
            let (p0, p1) = unsafe {
                (
                    _mm512_loadu_ps(packed.as_ptr().add(k * jw + j)),
                    _mm512_loadu_ps(packed.as_ptr().add(k * jw + j + 16)),
                )
            };
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(a_rows[r * d + k]);
                acc_r[0] = _mm512_fmadd_ps(av, p0, acc_r[0]);
                acc_r[1] = _mm512_fmadd_ps(av, p1, acc_r[1]);
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let dst = out_base + r * out_stride + j;
            // SAFETY: `dst + 32 <= out.len()`: the tile's rows and columns
            // are in range by the caller's i0/j0 loop bounds.
            unsafe {
                _mm512_storeu_ps(out.as_mut_ptr().add(dst), acc_r[0]);
                _mm512_storeu_ps(out.as_mut_ptr().add(dst + 16), acc_r[1]);
            }
        }
        j += 32;
    }
    while j + 16 <= jw {
        let mut acc = [_mm512_setzero_ps(); R];
        for k in 0..d {
            // SAFETY: `j + 16 <= jw` and `k < d` bound the panel load.
            let p0 = unsafe { _mm512_loadu_ps(packed.as_ptr().add(k * jw + j)) };
            for (r, acc_r) in acc.iter_mut().enumerate() {
                *acc_r = _mm512_fmadd_ps(_mm512_set1_ps(a_rows[r * d + k]), p0, *acc_r);
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            // SAFETY: same bounds argument as the 32-wide store above.
            unsafe { _mm512_storeu_ps(out.as_mut_ptr().add(out_base + r * out_stride + j), *acc_r) };
        }
        j += 16;
    }
    while j < jw {
        for r in 0..R {
            let mut acc = 0.0f32;
            for k in 0..d {
                // Scalar mul_add compiles to a hardware FMA here, so the
                // tail chain is bit-identical to a vector lane's chain.
                acc = a_rows[r * d + k].mul_add(packed[k * jw + j], acc);
            }
            out[out_base + r * out_stride + j] = acc;
        }
        j += 1;
    }
}

/// `out += alpha * x`: one FMA per 16-float lane with a scalar-FMA tail.
/// Each output element is a single `fma(alpha, x, out)` — no accumulation
/// chain to reassociate, so the update is position-independent by
/// construction.
#[target_feature(enable = "avx512f,avx512bw")]
// ham-lint: hot-path
pub(super) fn axpy(out: &mut [f32], alpha: f32, x: &[f32]) {
    let len = out.len().min(x.len());
    let av = _mm512_set1_ps(alpha);
    let mut k = 0;
    while k + 16 <= len {
        // SAFETY: `k + 16 <= len` bounds the two unaligned loads and the store.
        unsafe {
            let xv = _mm512_loadu_ps(x.as_ptr().add(k));
            let ov = _mm512_loadu_ps(out.as_ptr().add(k));
            _mm512_storeu_ps(out.as_mut_ptr().add(k), _mm512_fmadd_ps(av, xv, ov));
        }
        k += 16;
    }
    for (o, &xv) in out[k..len].iter_mut().zip(&x[k..len]) {
        *o = alpha.mul_add(xv, *o);
    }
}

/// Batched scatter of rank-1 row updates (see the portable tier); every row
/// update is one [`axpy`] over `d` columns.
#[target_feature(enable = "avx512f,avx512bw")]
// ham-lint: hot-path
pub(super) fn axpy_rows(dst: &mut Matrix, dst_rows: &[usize], scales: &[f32], src: &Matrix, src_rows: &[usize]) {
    let d = src.cols();
    let src_data = src.as_slice();
    let dst_data = dst.as_mut_slice();
    for ((&dr, &scale), &sr) in dst_rows.iter().zip(scales).zip(src_rows) {
        axpy(&mut dst_data[dr * d..(dr + 1) * d], scale, &src_data[sr * d..(sr + 1) * d]);
    }
}

/// `a · b` into `out` (overwrites): per-row 64-wide FMA register tiles over
/// the output, with the same dense/sparse row split as the other tiers —
/// the dense inner loop has no zero test, sparse (one-hot / masked) rows
/// skip their zero entries, and the two are bit-identical for finite inputs.
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, p) = a.shape();
    let n = b.cols();
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let out_data = out.as_mut_slice();
    for i in 0..m {
        let a_row = &a_data[i * p..(i + 1) * p];
        let out_row = &mut out_data[i * n..(i + 1) * n];
        if row_is_sparse(a_row) {
            matmul_row::<true>(a_row, b_data, n, out_row);
        } else {
            matmul_row::<false>(a_row, b_data, n, out_row);
        }
    }
}

/// One output row of [`matmul_into`]: `out_row[j] = Σ_k a_row[k] · b[k][j]`,
/// register-tiled 64 columns at a time. `SKIP_ZEROS` compiles the one-hot
/// fast path (skip `a_row[k] == 0.0`) without putting a branch in the dense
/// loop.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
// ham-lint: hot-path
fn matmul_row<const SKIP_ZEROS: bool>(a_row: &[f32], b_data: &[f32], n: usize, out_row: &mut [f32]) {
    let mut j = 0;
    while j + 64 <= n {
        let mut acc = [_mm512_setzero_ps(); 4];
        for (k, &av) in a_row.iter().enumerate() {
            if SKIP_ZEROS && av == 0.0 {
                continue;
            }
            let avv = _mm512_set1_ps(av);
            for (l, acc_l) in acc.iter_mut().enumerate() {
                // SAFETY: `j + 64 <= n` and `k < p` bound the load within
                // the `p * n`-float `b`.
                let bv = unsafe { _mm512_loadu_ps(b_data.as_ptr().add(k * n + j + 16 * l)) };
                *acc_l = _mm512_fmadd_ps(avv, bv, *acc_l);
            }
        }
        for (l, acc_l) in acc.iter().enumerate() {
            // SAFETY: `j + 64 <= n == out_row.len()` bounds the four stores.
            unsafe { _mm512_storeu_ps(out_row.as_mut_ptr().add(j + 16 * l), *acc_l) };
        }
        j += 64;
    }
    while j + 16 <= n {
        let mut acc = _mm512_setzero_ps();
        for (k, &av) in a_row.iter().enumerate() {
            if SKIP_ZEROS && av == 0.0 {
                continue;
            }
            // SAFETY: `j + 16 <= n` and `k < p` bound the load.
            let bv = unsafe { _mm512_loadu_ps(b_data.as_ptr().add(k * n + j)) };
            acc = _mm512_fmadd_ps(_mm512_set1_ps(av), bv, acc);
        }
        // SAFETY: `j + 16 <= n == out_row.len()` bounds the store.
        unsafe { _mm512_storeu_ps(out_row.as_mut_ptr().add(j), acc) };
        j += 16;
    }
    while j < n {
        let mut acc = 0.0f32;
        for (k, &av) in a_row.iter().enumerate() {
            if SKIP_ZEROS && av == 0.0 {
                continue;
            }
            acc = av.mul_add(b_data[k * n + j], acc);
        }
        out_row[j] = acc;
        j += 1;
    }
}

/// Exact integer core of the quantized kernels: `Σ_k p[k] · s[k]` in `i32`,
/// 32 elements per step — zero-/sign-extend 32 bytes to `i16` in one zmm,
/// one widening multiply-add (`vpmaddwd`) into 16 `i32` lanes. Exact for the
/// same reasons as the AVX2 version (no `i16` product can overflow), and
/// bit-identical to every other tier because integer addition is
/// associative.
#[target_feature(enable = "avx512f,avx512bw")]
// ham-lint: hot-path
pub(super) fn quantized_dot_i32(p: &[u8], s: &[i8]) -> i32 {
    let len = p.len().min(s.len());
    let mut acc = _mm512_setzero_si512();
    let mut k = 0;
    while k + 32 <= len {
        // SAFETY: `k + 32 <= len` bounds both 32-byte unaligned loads.
        let (pv, sv) = unsafe {
            (
                _mm256_loadu_si256(p.as_ptr().add(k) as *const __m256i),
                _mm256_loadu_si256(s.as_ptr().add(k) as *const __m256i),
            )
        };
        let prod = _mm512_madd_epi16(_mm512_cvtepu8_epi16(pv), _mm512_cvtepi8_epi16(sv));
        acc = _mm512_add_epi32(acc, prod);
        k += 32;
    }
    // Exact in any order: `_mm512_reduce_add_epi32` is integer addition.
    let mut sum = _mm512_reduce_add_epi32(acc);
    for (&pv, &sv) in p[k..len].iter().zip(&s[k..len]) {
        sum += pv as i32 * sv as i32;
    }
    sum
}

/// Quantized GEMV from the int8 panel: one integer [`quantized_dot_i32`]
/// plus the zero-point fixup per catalogue row.
#[target_feature(enable = "avx512f,avx512bw")]
// ham-lint: hot-path
pub(super) fn quantized_matvec_into(w: &QuantizedMatrix, q: &QuantizedQuery, out: &mut [f32]) {
    let d = w.cols();
    let payload = w.payload();
    for (j, o) in out.iter_mut().enumerate() {
        let acc = quantized_dot_i32(&payload[j * d..(j + 1) * d], q.payload());
        *o = quantized_score(acc, w.zero_point(j), w.scale(j), q);
    }
}

/// Rows per vertical group in the quantized GEMM: one zmm of 16 `i32`
/// accumulators scores 16 catalogue rows at once.
const QGEMM_GROUP: usize = 16;

/// Catalogue rows packed per panel block of the quantized GEMM: the block's
/// `i16` panel (`2·d` bytes per row) stays L2-resident while all queries
/// stream over it.
const QGEMM_ROW_BLOCK: usize = 2048;

/// Quantized batched scoring with a **vertical** integer microkernel: no
/// horizontal reductions at all (the reduce per (row, query) pair is what
/// capped the horizontal formulation at small `d`).
///
/// The panel is repacked per row block in k-pair-major groups of
/// [`QGEMM_GROUP`] rows, widened to `i16` once during packing: one zmm slot
/// holds `(p[2g], p[2g+1])` for 16 consecutive rows. Each query's `i8`
/// payload is padded into `(s[2g], s[2g+1])` dword pairs once per call;
/// `vpmaddwd` against the broadcast pair then accumulates both `k` steps
/// for 16 rows vertically, and the accumulator zmm *is* the 16 row sums.
/// The score epilogue `(scale_r · scale_q) · (acc − zp · Σs)` is applied
/// 16-wide with the exact arithmetic of [`quantized_score`] (same
/// operations, same order), so every element is bit-identical to the
/// scalar and portable paths — integer accumulation is exact, and the one
/// f32 rounding happens in the same place.
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) fn quantized_matmul_transposed_into(queries: &[QuantizedQuery], w: &QuantizedMatrix, out: &mut Matrix) {
    let d = w.cols();
    let n = w.rows();
    if queries.is_empty() || n == 0 {
        return;
    }
    if d == 0 {
        out.as_mut_slice().fill(0.0);
        return;
    }
    let payload = w.payload();
    let out_data = out.as_mut_slice();
    let kp = d.div_ceil(2); // i16 (k, k+1) pairs per row

    // Per-query broadcast operands: each dword is (s[2g] as i16, s[2g+1] as
    // i16), zero-padded past `d`. Zero query padding multiplies against the
    // panel's zero padding, so padded lanes contribute exactly 0.
    let mut qpairs = vec![0i32; queries.len() * kp];
    for (qi, q) in queries.iter().enumerate() {
        let s = q.payload();
        for g in 0..kp {
            let lo = s[2 * g] as i16 as u16 as u32;
            let hi = if 2 * g + 1 < d { s[2 * g + 1] as i16 as u16 as u32 } else { 0 };
            qpairs[qi * kp + g] = (lo | (hi << 16)) as i32;
        }
    }

    let mut panel = vec![0i16; QGEMM_ROW_BLOCK.min(n.next_multiple_of(QGEMM_GROUP)) * kp * 2];
    let mut block_start = 0;
    while block_start < n {
        let block_rows = (n - block_start).min(QGEMM_ROW_BLOCK);
        let groups = block_rows.div_ceil(QGEMM_GROUP);
        // Pack: group-major, then k-pair-major, 16 rows' (lo, hi) i16 pairs
        // per slot; rows past `n` and the odd-`d` hi half stay zero.
        panel[..groups * kp * 2 * QGEMM_GROUP].fill(0);
        for g in 0..groups {
            for r in 0..QGEMM_GROUP {
                let j = block_start + g * QGEMM_GROUP + r;
                if j >= n {
                    break;
                }
                let row = &payload[j * d..(j + 1) * d];
                for kg in 0..kp {
                    let slot = (g * kp + kg) * 2 * QGEMM_GROUP + 2 * r;
                    panel[slot] = row[2 * kg] as i16;
                    if 2 * kg + 1 < d {
                        panel[slot + 1] = row[2 * kg + 1] as i16;
                    }
                }
            }
        }
        for (qi, q) in queries.iter().enumerate() {
            let qp = &qpairs[qi * kp..(qi + 1) * kp];
            let qsum_v = _mm512_set1_epi32(q.sum());
            let qscale_v = _mm512_set1_ps(q.scale());
            for g in 0..groups {
                let mut acc = _mm512_setzero_si512();
                let base = g * kp * 2 * QGEMM_GROUP;
                for (kg, &pair) in qp.iter().enumerate() {
                    // SAFETY: the slot index is within the `groups·kp` slots
                    // packed above, each 32 i16 = 64 bytes.
                    let pv = unsafe { _mm512_loadu_si512(panel.as_ptr().add(base + kg * 2 * QGEMM_GROUP) as *const _) };
                    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(pv, _mm512_set1_epi32(pair)));
                }
                let j0 = block_start + g * QGEMM_GROUP;
                if j0 + QGEMM_GROUP <= n {
                    // SAFETY: `j0 + 16 <= n` bounds the zero-point/scale
                    // loads and the 16-float store into this query's row.
                    unsafe {
                        let zp_v = _mm512_loadu_si512(w.zero_points().as_ptr().add(j0) as *const _);
                        let sc_v = _mm512_loadu_ps(w.scales().as_ptr().add(j0));
                        let diff = _mm512_sub_epi32(acc, _mm512_mullo_epi32(zp_v, qsum_v));
                        let score = _mm512_mul_ps(_mm512_cvtepi32_ps(diff), _mm512_mul_ps(sc_v, qscale_v));
                        _mm512_storeu_ps(out_data.as_mut_ptr().add(qi * n + j0), score);
                    }
                } else {
                    let mut sums = [0i32; QGEMM_GROUP];
                    // SAFETY: `sums` is exactly one 64-byte zmm wide.
                    unsafe { _mm512_storeu_si512(sums.as_mut_ptr() as *mut _, acc) };
                    for (r, &sum) in sums.iter().enumerate().take(n - j0) {
                        out_data[qi * n + j0 + r] = quantized_score(sum, w.zero_point(j0 + r), w.scale(j0 + r), q);
                    }
                }
            }
        }
        block_start += block_rows;
    }
}
