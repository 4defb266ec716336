//! The explicit x86_64 AVX2+FMA tier: `std::arch` microkernels that do not
//! depend on auto-vectorization or `-C target-cpu=native`.
//!
//! Every function here is compiled with `#[target_feature(enable =
//! "avx2,fma")]`; the dispatcher in the parent module only routes to this
//! tier after `is_x86_feature_detected!` confirmed both features at runtime
//! (or after `force_tier` asserted support), which is what makes the
//! `unsafe` call sites sound.
//!
//! ## Determinism contract
//!
//! The sharded serving layer depends on scores being **bit-identical**
//! regardless of how catalogue rows are grouped into shards, panels or
//! register tiles. Every kernel here therefore accumulates each output
//! element as a single fused-multiply-add chain in ascending-`k` order: a
//! vector lane performing `acc = fma(a, b, acc)` per step is bit-identical
//! to the scalar `f32::mul_add` chain (IEEE FMA rounds once per step), so
//! the 16-wide, 8-wide and scalar-tail paths all produce the same bits for
//! the same row data — an element's value never depends on which path
//! computed it or where it sat in a tile.

use super::{pack_panel_kmajor, quantized_score, row_is_sparse, GEMM_B_PANEL, SERIAL_DOT_LEN};
use crate::quant::{QuantizedMatrix, QuantizedQuery};
use crate::Matrix;
use core::arch::x86_64::*;

/// Rows of `A` per register tile in the GEMM microkernel: 4 rows × two
/// 8-float accumulators each is 8 of the 16 ymm registers, leaving room for
/// the panel loads and the broadcast.
const GEMM_MR: usize = 4;

/// Dot product: four independent 8-wide FMA accumulator chains (32 floats in
/// flight), one fixed-order horizontal reduction, scalar-FMA tail. Rows
/// shorter than [`SERIAL_DOT_LEN`] are one ascending FMA chain from zero —
/// the chain the GEMM computes for every element — so at those widths a
/// lone request's GEMV and a batched request's GEMM agree bit for bit.
#[target_feature(enable = "avx2,fma")]
// ham-lint: hot-path
pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "avx2::dot: length mismatch (the dispatcher asserts this)");
    let len = a.len().min(b.len());
    if len < SERIAL_DOT_LEN {
        return a[..len].iter().zip(&b[..len]).fold(0.0, |sum, (x, y)| x.mul_add(*y, sum));
    }
    let mut acc = [_mm256_setzero_ps(); 4];
    let mut k = 0;
    let mut lane = 0;
    while k + 8 <= len {
        // SAFETY: `k + 8 <= len` bounds both 8-float unaligned loads.
        let (av, bv) = unsafe { (_mm256_loadu_ps(a.as_ptr().add(k)), _mm256_loadu_ps(b.as_ptr().add(k))) };
        acc[lane] = _mm256_fmadd_ps(av, bv, acc[lane]);
        lane = (lane + 1) & 3;
        k += 8;
    }
    let mut sum = hsum8(_mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3])));
    for (x, y) in a[k..len].iter().zip(&b[k..len]) {
        sum = x.mul_add(*y, sum);
    }
    sum
}

/// Horizontal sum of one 8-float vector in a fixed reduction order:
/// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
#[inline]
#[target_feature(enable = "avx2,fma")]
// ham-lint: hot-path
fn hsum8(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps::<1>(v);
    let q = _mm_add_ps(lo, hi);
    let h = _mm_add_ps(q, _mm_movehl_ps(q, q));
    let s = _mm_add_ss(h, _mm_shuffle_ps::<0b01>(h, h));
    _mm_cvtss_f32(s)
}

/// `out[j] = w.row(j) · q`: the one-user/whole-catalogue GEMV. Each row is an
/// independent [`dot`], so a row's score never depends on which shard or
/// position it occupies.
#[target_feature(enable = "avx2,fma")]
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
#[target_feature(enable = "avx2,fma")]
// ham-lint: hot-path
pub(super) fn dot_rows_into(w: &Matrix, rows: &[usize], q: &[f32], out: &mut [f32]) {
    let d = w.cols();
    let data = w.as_slice();
    for (o, &r) in out.iter_mut().zip(rows) {
        *o = dot(&data[r * d..(r + 1) * d], q);
    }
}

/// Register-blocked `a · bᵀ` into `out` (overwrites): the packed-panel
/// layout of the portable tier with an explicit [`GEMM_MR`]-row × 16-column
/// FMA register tile over the panel.
#[target_feature(enable = "avx2,fma")]
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
/// ascending `k`, whichever of the 16-wide / 8-wide / scalar paths covers
/// its column.
#[inline]
#[target_feature(enable = "avx2,fma")]
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
    while j + 16 <= jw {
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        for k in 0..d {
            // SAFETY: `j + 16 <= jw` and `k < d` bound both loads within the
            // `jw * d`-float packed panel.
            let (p0, p1) = unsafe {
                (_mm256_loadu_ps(packed.as_ptr().add(k * jw + j)), _mm256_loadu_ps(packed.as_ptr().add(k * jw + j + 8)))
            };
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(a_rows[r * d + k]);
                acc_r[0] = _mm256_fmadd_ps(av, p0, acc_r[0]);
                acc_r[1] = _mm256_fmadd_ps(av, p1, acc_r[1]);
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let dst = out_base + r * out_stride + j;
            // SAFETY: `dst + 16 <= out.len()`: the tile's rows and columns
            // are in range by the caller's i0/j0 loop bounds.
            unsafe {
                _mm256_storeu_ps(out.as_mut_ptr().add(dst), acc_r[0]);
                _mm256_storeu_ps(out.as_mut_ptr().add(dst + 8), acc_r[1]);
            }
        }
        j += 16;
    }
    while j + 8 <= jw {
        let mut acc = [_mm256_setzero_ps(); R];
        for k in 0..d {
            // SAFETY: `j + 8 <= jw` and `k < d` bound the panel load.
            let p0 = unsafe { _mm256_loadu_ps(packed.as_ptr().add(k * jw + j)) };
            for (r, acc_r) in acc.iter_mut().enumerate() {
                *acc_r = _mm256_fmadd_ps(_mm256_set1_ps(a_rows[r * d + k]), p0, *acc_r);
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            // SAFETY: same bounds argument as the 16-wide store above.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(out_base + r * out_stride + j), *acc_r) };
        }
        j += 8;
    }
    while j < jw {
        for r in 0..R {
            let mut acc = 0.0f32;
            for k in 0..d {
                // Scalar mul_add compiles to a hardware FMA here (the `fma`
                // target feature is enabled), so the tail chain is
                // bit-identical to a vector lane's chain.
                acc = a_rows[r * d + k].mul_add(packed[k * jw + j], acc);
            }
            out[out_base + r * out_stride + j] = acc;
        }
        j += 1;
    }
}

/// `out += alpha * x`: one FMA per 8-float lane with a scalar-FMA tail. Each
/// output element is a single `fma(alpha, x, out)` — there is no accumulation
/// chain to reassociate, so the update is position-independent by
/// construction.
#[target_feature(enable = "avx2,fma")]
// ham-lint: hot-path
pub(super) fn axpy(out: &mut [f32], alpha: f32, x: &[f32]) {
    let len = out.len().min(x.len());
    let av = _mm256_set1_ps(alpha);
    let mut k = 0;
    while k + 8 <= len {
        // SAFETY: `k + 8 <= len` bounds the two unaligned loads and the store.
        unsafe {
            let xv = _mm256_loadu_ps(x.as_ptr().add(k));
            let ov = _mm256_loadu_ps(out.as_ptr().add(k));
            _mm256_storeu_ps(out.as_mut_ptr().add(k), _mm256_fmadd_ps(av, xv, ov));
        }
        k += 8;
    }
    for (o, &xv) in out[k..len].iter_mut().zip(&x[k..len]) {
        *o = alpha.mul_add(xv, *o);
    }
}

/// Batched scatter of rank-1 row updates (see the portable tier); every row
/// update is one [`axpy`] over `d` columns.
#[target_feature(enable = "avx2,fma")]
// ham-lint: hot-path
pub(super) fn axpy_rows(dst: &mut Matrix, dst_rows: &[usize], scales: &[f32], src: &Matrix, src_rows: &[usize]) {
    let d = src.cols();
    let src_data = src.as_slice();
    let dst_data = dst.as_mut_slice();
    for ((&dr, &scale), &sr) in dst_rows.iter().zip(scales).zip(src_rows) {
        axpy(&mut dst_data[dr * d..(dr + 1) * d], scale, &src_data[sr * d..(sr + 1) * d]);
    }
}

/// Exact integer core of the quantized kernels: `Σ_k p[k] · s[k]` in `i32`,
/// 16 elements per step — zero-extend the `u8` payload and sign-extend the
/// `i8` query to `i16`, one widening multiply-add (`pmaddwd`) into 8 `i32`
/// lanes. The `i16` products (≤ 255·127) and pair sums cannot overflow, so
/// the accumulation is exact and, integer addition being associative,
/// bit-identical to every other tier.
#[target_feature(enable = "avx2")]
// ham-lint: hot-path
pub(super) fn quantized_dot_i32(p: &[u8], s: &[i8]) -> i32 {
    let len = p.len().min(s.len());
    let mut acc = _mm256_setzero_si256();
    let mut k = 0;
    while k + 16 <= len {
        // SAFETY: `k + 16 <= len` bounds both 16-byte unaligned loads.
        let (pv, sv) = unsafe {
            (_mm_loadu_si128(p.as_ptr().add(k) as *const __m128i), _mm_loadu_si128(s.as_ptr().add(k) as *const __m128i))
        };
        let prod = _mm256_madd_epi16(_mm256_cvtepu8_epi16(pv), _mm256_cvtepi8_epi16(sv));
        acc = _mm256_add_epi32(acc, prod);
        k += 16;
    }
    let mut sum = hsum_epi32(acc);
    for (&pv, &sv) in p[k..len].iter().zip(&s[k..len]) {
        sum += pv as i32 * sv as i32;
    }
    sum
}

/// Horizontal sum of 8 `i32` lanes (exact in any order).
#[inline]
#[target_feature(enable = "avx2")]
// ham-lint: hot-path
fn hsum_epi32(v: __m256i) -> i32 {
    let lo = _mm256_castsi256_si128(v);
    let hi = _mm256_extracti128_si256::<1>(v);
    let q = _mm_add_epi32(lo, hi);
    let h = _mm_add_epi32(q, _mm_shuffle_epi32::<0b0100_1110>(q));
    let s = _mm_add_epi32(h, _mm_shuffle_epi32::<0b0101_0101>(h));
    _mm_cvtsi128_si32(s)
}

/// Quantized GEMV from the int8 panel: one integer [`quantized_dot_i32`]
/// plus the zero-point fixup per catalogue row.
#[target_feature(enable = "avx2")]
// ham-lint: hot-path
pub(super) fn quantized_matvec_into(w: &QuantizedMatrix, q: &QuantizedQuery, out: &mut [f32]) {
    let d = w.cols();
    let payload = w.payload();
    for (j, o) in out.iter_mut().enumerate() {
        let acc = quantized_dot_i32(&payload[j * d..(j + 1) * d], q.payload());
        *o = quantized_score(acc, w.zero_point(j), w.scale(j), q);
    }
}

/// Rows per vertical group in the quantized GEMM: one ymm of 8 `i32`
/// accumulators scores 8 catalogue rows at once.
const QGEMM_GROUP: usize = 8;

/// Catalogue rows packed per panel block of the quantized GEMM (see the
/// AVX-512 tier — same cache story, 8-row groups instead of 16).
const QGEMM_ROW_BLOCK: usize = 2048;

/// Quantized batched scoring with a **vertical** integer microkernel: the
/// ymm mirror of the AVX-512 tier's kernel (see its doc comment for the
/// layout). The panel is repacked per row block in k-pair-major groups of
/// [`QGEMM_GROUP`] rows widened to `i16`; `vpmaddwd` against a broadcast
/// query `(s[2g], s[2g+1])` dword accumulates both `k` steps for 8 rows
/// vertically, so there are no horizontal reductions, and the score
/// epilogue is applied 8-wide with exactly the arithmetic of
/// [`quantized_score`] — integer accumulation is exact and the one f32
/// rounding is unchanged, keeping every element bit-identical to the
/// scalar and portable paths.
#[target_feature(enable = "avx2")]
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
    // i16), zero-padded past `d` (zero query padding multiplies against the
    // panel's zero padding, so padded lanes contribute exactly 0).
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
        // Pack: group-major, then k-pair-major, 8 rows' (lo, hi) i16 pairs
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
            let qsum_v = _mm256_set1_epi32(q.sum());
            let qscale_v = _mm256_set1_ps(q.scale());
            for g in 0..groups {
                let mut acc = _mm256_setzero_si256();
                let base = g * kp * 2 * QGEMM_GROUP;
                for (kg, &pair) in qp.iter().enumerate() {
                    // SAFETY: the slot index is within the `groups·kp` slots
                    // packed above, each 16 i16 = 32 bytes.
                    let pv = unsafe { _mm256_loadu_si256(panel.as_ptr().add(base + kg * 2 * QGEMM_GROUP) as *const _) };
                    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pv, _mm256_set1_epi32(pair)));
                }
                let j0 = block_start + g * QGEMM_GROUP;
                if j0 + QGEMM_GROUP <= n {
                    // SAFETY: `j0 + 8 <= n` bounds the zero-point/scale loads
                    // and the 8-float store into this query's row.
                    unsafe {
                        let zp_v = _mm256_loadu_si256(w.zero_points().as_ptr().add(j0) as *const _);
                        let sc_v = _mm256_loadu_ps(w.scales().as_ptr().add(j0));
                        let diff = _mm256_sub_epi32(acc, _mm256_mullo_epi32(zp_v, qsum_v));
                        let score = _mm256_mul_ps(_mm256_cvtepi32_ps(diff), _mm256_mul_ps(sc_v, qscale_v));
                        _mm256_storeu_ps(out_data.as_mut_ptr().add(qi * n + j0), score);
                    }
                } else {
                    let mut sums = [0i32; QGEMM_GROUP];
                    // SAFETY: `sums` is exactly one 32-byte ymm wide.
                    unsafe { _mm256_storeu_si256(sums.as_mut_ptr() as *mut _, acc) };
                    for (r, &sum) in sums.iter().enumerate().take(n - j0) {
                        out_data[qi * n + j0 + r] = quantized_score(sum, w.zero_point(j0 + r), w.scale(j0 + r), q);
                    }
                }
            }
        }
        block_start += block_rows;
    }
}

/// `a · b` into `out` (overwrites): per-row 32-wide FMA register tiles over
/// the output, with the same dense/sparse row split as the portable tier —
/// the dense inner loop has no zero test, sparse (one-hot / masked) rows
/// skip their zero entries, and the two are bit-identical for finite inputs.
#[target_feature(enable = "avx2,fma")]
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
/// register-tiled 32 columns at a time. `SKIP_ZEROS` compiles the one-hot
/// fast path (skip `a_row[k] == 0.0`) without putting a branch in the dense
/// loop.
#[inline]
#[target_feature(enable = "avx2,fma")]
// ham-lint: hot-path
fn matmul_row<const SKIP_ZEROS: bool>(a_row: &[f32], b_data: &[f32], n: usize, out_row: &mut [f32]) {
    let mut j = 0;
    while j + 32 <= n {
        let mut acc = [_mm256_setzero_ps(); 4];
        for (k, &av) in a_row.iter().enumerate() {
            if SKIP_ZEROS && av == 0.0 {
                continue;
            }
            let avv = _mm256_set1_ps(av);
            for (l, acc_l) in acc.iter_mut().enumerate() {
                // SAFETY: `j + 32 <= n` and `k < p` bound the load within the
                // `p * n`-float `b`.
                let bv = unsafe { _mm256_loadu_ps(b_data.as_ptr().add(k * n + j + 8 * l)) };
                *acc_l = _mm256_fmadd_ps(avv, bv, *acc_l);
            }
        }
        for (l, acc_l) in acc.iter().enumerate() {
            // SAFETY: `j + 32 <= n == out_row.len()` bounds the four stores.
            unsafe { _mm256_storeu_ps(out_row.as_mut_ptr().add(j + 8 * l), *acc_l) };
        }
        j += 32;
    }
    while j + 8 <= n {
        let mut acc = _mm256_setzero_ps();
        for (k, &av) in a_row.iter().enumerate() {
            if SKIP_ZEROS && av == 0.0 {
                continue;
            }
            // SAFETY: `j + 8 <= n` and `k < p` bound the load.
            let bv = unsafe { _mm256_loadu_ps(b_data.as_ptr().add(k * n + j)) };
            acc = _mm256_fmadd_ps(_mm256_set1_ps(av), bv, acc);
        }
        // SAFETY: `j + 8 <= n == out_row.len()` bounds the store.
        unsafe { _mm256_storeu_ps(out_row.as_mut_ptr().add(j), acc) };
        j += 8;
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
