//! Int8 affine quantization of candidate matrices and query vectors.
//!
//! Serving millions of candidate items per node is a memory-bandwidth
//! problem before it is a FLOP problem: every request streams the candidate
//! matrix `W` once, and at f32 that stream saturates the bus long before the
//! FMA units saturate. Quantizing `W` to 8 bits cuts the streamed bytes per
//! row 4x — the [`QuantizedMatrix`] here is the storage side of that trade,
//! and the `quantized_*` kernels in [`crate::kernels`] are the compute side.
//!
//! ## The scheme
//!
//! Each **candidate row** is quantized independently with the standard
//! asymmetric affine (scale + zero-point) int8 scheme:
//!
//! ```text
//! w[k] ≈ scale_r · (p[k] − zp_r)        p[k] ∈ [0, 255]
//! ```
//!
//! The quantization range of a row is `[min(w) ∪ 0, max(w) ∪ 0]` (nudged to
//! contain zero, so 0.0 always round-trips near-exactly and a degenerate
//! constant row still gets a positive scale). `p` is stored biased by the
//! zero-point into `u8` — the natural layout for the widening
//! unsigned×signed integer multiplies of the SIMD kernels; `zp_r` itself is
//! kept as `i32` so the integer dot can subtract it exactly.
//!
//! The **query** is quantized symmetrically to `i8` ([`QuantizedQuery`]):
//! `q[k] ≈ scale_q · s[k]`, `s[k] ∈ [−127, 127]`. A query is d elements —
//! quantizing it per request is nanoseconds next to streaming the catalogue.
//!
//! A quantized score then reduces to one integer dot product plus one
//! per-row fixup:
//!
//! ```text
//! r_j ≈ scale_r · scale_q · ( Σ_k p[k]·s[k]  −  zp_r · Σ_k s[k] )
//! ```
//!
//! `Σ s[k]` is computed once per query ([`QuantizedQuery::sum`]). The inner
//! sum is **exact integer arithmetic** — `u8·i8` products accumulated in
//! `i32` cannot overflow below d ≈ 66 000 and integer addition is
//! associative — so a quantized score is **bit-identical across tiers and
//! across shard/panel positions** by construction. The only rounding is the
//! final f32 multiply, identical everywhere. That determinism is what lets
//! the serving layer's quantized candidate-selection stage stay exact across
//! shard counts (the re-rank guardrail in `ham-serve` does the rest).
//!
//! ## Error bound
//!
//! Rounding to nearest bounds the per-element errors by half a step:
//! `|w[k] − ŵ[k]| ≤ scale_r / 2` and `|q[k] − q̂[k]| ≤ scale_q / 2`, so a
//! d-length score obeys
//!
//! ```text
//! |r − r̂| ≤ Σ_k ( |q[k]|·scale_r/2 + |w[k]|·scale_q/2 + scale_r·scale_q/4 )
//! ```
//!
//! — proportional to the per-row magnitude through `scale_r`. The property
//! suite in `tests/quantized.rs` pins this bound for every row.
//!
//! ## The certified bound
//!
//! Serving ranks by the f32 score `s` the tier's own `dot` computes, not by
//! the real-valued `r`. [`ScoreBound`] widens [`score_error_bound`] into a
//! rigorous bound on `|s − a|`, where `a` is the int8 score the quantized
//! kernels return, so that an int8 pass can *certify* which rows may still
//! reach a top-k and leave every other row unread in f32:
//!
//! ```text
//! |s − a| ≤ e_r·(‖q‖₁ + d·e_q)                  quantization of both sides
//!         + ‖w‖₁·(e_q + γ_d·max|q|)              e_q on w, f32 rounding of s
//!         + 4u·|a| + η                            f32 rounding of a
//! ```
//!
//! with `u = 2⁻²⁴`, `γ_d = d·u/(1 − d·u)` (any summation order of `d`
//! products, fused or not), `e_r` and `e_q` the row's and the query's
//! worst element error `|w[k] − ŵ[k]|` / `|q[k] − q̂[k]|`, and `η` an
//! absolute term for gradual underflow. The element errors are *measured*,
//! not assumed — `e_r` once at build time, `e_q` per request — so rows the
//! scheme represents exactly (zero rows, say) cost no slack. The two row
//! terms `e_r` and `‖w‖₁` are stored per row, rounded upward; the rest is
//! per request. A matrix is [`certifiable`](QuantizedMatrix::certifiable)
//! only when every value, scale, error and L1 norm is finite and `d` keeps
//! the `i32` accumulator from overflowing. The coefficients are inflated so
//! the bound still holds after the f32 roundings of evaluating it and of
//! forming `a ± bound`.

use crate::Matrix;

/// Unit roundoff of f32 (`2⁻²⁴`).
const U: f64 = f32::EPSILON as f64 / 2.0;

/// Widest row a snapshot certifies: beyond it the `i32` accumulator of
/// `Σ (p − zp)·s` could overflow (`2·255·127·d < 2³¹`).
const MAX_CERTIFIED_COLS: usize = 32_768;

/// Coefficient of `|a|` in [`ScoreBound::row`]: `4u` for the rounding of the
/// int8 score, the rest for the roundings of evaluating the bound and of
/// `a ± bound`.
const APPROX_REL: f32 = 8.0 * f32::EPSILON / 2.0;

/// Absolute slack of [`ScoreBound::row`] for gradual underflow: every
/// underflowing operation of the f32 dot, the int8 epilogue and the bound
/// itself loses at most `2⁻¹⁵⁰` (times the `i32` sum for the epilogue's
/// scale product), at most `2⁻¹¹⁹` in total for certified shapes.
const ABS_SLACK: f32 = f32::from_bits((127 - 96) << 23); // 2⁻⁹⁶

/// Largest magnitude a certified score, bound or partial sum may reach: an
/// eighth of `f32::MAX`, so no f32 operation on the certified path
/// overflows.
const SAFE_MAGNITUDE: f64 = f32::MAX as f64 / 8.0;

/// Lanes of the build-time row statistics: independent min/max/L1
/// accumulators, so the reductions vectorize.
const STAT_LANES: usize = 16;

/// Rounds a non-negative `f64` to the nearest `f32` at or above it.
fn f32_up(x: f64) -> f32 {
    let f = x as f32;
    if (f as f64) < x {
        f.next_up()
    } else {
        f
    }
}

/// A-priori upper bound on `|exact − quantized|` for scoring `w_row`
/// against `q` under this module's scheme, computed from the same
/// scale formulas the quantizers use.
///
/// The ideal-arithmetic bound (module docs) uses half a step per element;
/// this function doubles the per-element terms to absorb the two non-ideal
/// effects — payload clamping at the range edge can cost up to a full step
/// on an element, and the scales themselves are f32-rounded — so the
/// property suite can assert it unconditionally. Still proportional to the
/// per-row magnitude through `scale_r = (max−min)/255`. [`ScoreBound`] is its
/// serving form, widened to cover the f32 rounding of both scores.
pub fn score_error_bound(w_row: &[f32], q: &[f32]) -> f32 {
    let lo = w_row.iter().copied().fold(0.0f32, f32::min);
    let hi = w_row.iter().copied().fold(0.0f32, f32::max);
    let scale_r = if hi > lo { (hi - lo) / 255.0 } else { 1.0 };
    let amax = q.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale_q = if amax > 0.0 { amax / 127.0 } else { 1.0 };
    w_row.iter().zip(q).map(|(&w, &qv)| qv.abs() * scale_r + w.abs() * scale_q + scale_r * scale_q).sum()
}

/// The per-request half of the certified bound (module docs): for one f32
/// query and its [`QuantizedQuery`], [`Self::row`] bounds the distance
/// between a row's f32 score — as the tier's `dot` computes it — and its
/// int8 score, from the row's stored element error and L1 norm.
#[derive(Debug, Clone, Copy)]
pub struct ScoreBound {
    /// Coefficient of the row's element error: `‖q‖₁ + d·e_q`, inflated and
    /// rounded up.
    per_error: f32,
    /// Coefficient of the row L1 norm: `e_q + γ_d·max|q|`, inflated and
    /// rounded up.
    per_l1: f32,
    qmax: f64,
    scale_q: f64,
    cols: usize,
}

impl ScoreBound {
    /// The bound terms of query `q` quantized as `qq`; `None` when `q` holds
    /// a non-finite value (no bound can cover it).
    ///
    /// # Panics
    /// Panics if `qq` is not the quantization of a query of `q`'s length.
    pub fn new(q: &[f32], qq: &QuantizedQuery) -> Option<Self> {
        assert_eq!(q.len(), qq.len(), "ScoreBound: query length {} vs quantized length {}", q.len(), qq.len());
        let d = q.len();
        let scale_q = qq.scale() as f64;
        let (mut qmax, mut q1, mut e_q) = (0.0f64, 0.0f64, 0.0f64);
        for (&v, &s) in q.iter().zip(qq.payload()) {
            if !v.is_finite() {
                return None;
            }
            let v = v as f64;
            qmax = qmax.max(v.abs());
            q1 += v.abs();
            // `scale_q·s` is exact in f64 (24 × 8 significant bits).
            e_q = e_q.max((scale_q * s as f64 - v).abs());
        }
        // Slack for the f64 arithmetic above (d additions, one subtraction).
        let f64_slack = 1.0 + (d as f64 + 2.0) * f64::EPSILON;
        let (q1, e_q) = (q1 * f64_slack, e_q * f64_slack);
        let du = d as f64 * U;
        let gamma = du / (1.0 - du);
        let inflate = 1.0 + 8.0 * U;
        Some(Self {
            per_error: f32_up((q1 + d as f64 * e_q) * inflate),
            per_l1: f32_up((e_q + gamma * qmax) * inflate),
            qmax,
            scale_q,
            cols: d,
        })
    }

    /// Whether the bound holds for every row of `w`: `w` is
    /// [`certifiable`](QuantizedMatrix::certifiable), has the query's width,
    /// and no f32 score, int8 score or bound over it can overflow.
    pub fn covers(&self, w: &QuantizedMatrix) -> bool {
        let int_range = (255 * 127 * w.cols) as f64;
        w.certifiable
            && w.cols == self.cols
            && self.qmax * w.max_l1 as f64 <= SAFE_MAGNITUDE
            && w.max_scale as f64 * self.scale_q * int_range <= SAFE_MAGNITUDE
    }

    /// Bound on `|s − a|` for a row with stored element error `error` and
    /// L1 norm `l1` ([`QuantizedMatrix::errors`] /
    /// [`QuantizedMatrix::l1_norms`]) whose int8 score is `approx`, valid
    /// when [`Self::covers`] holds for the row's matrix. Computed in f32 and
    /// still an upper bound after its own rounding and that of
    /// `approx ± bound`: the interval `[approx − bound, approx + bound]`,
    /// evaluated in f32, contains `s`.
    #[inline]
    pub fn row(&self, error: f32, l1: f32, approx: f32) -> f32 {
        self.per_error * error + self.per_l1 * l1 + APPROX_REL * approx.abs() + ABS_SLACK
    }
}

/// A row-quantized int8 snapshot of a candidate matrix (see module docs).
///
/// Immutable by design: it is built once at publish time from a frozen f32
/// matrix and then only read by the scoring kernels. The f32 original stays
/// authoritative — the certified scan re-scores its candidates from it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    /// Row-major zero-point-biased payload: `data[r*cols + k] ∈ [0, 255]`.
    data: Vec<u8>,
    /// Per-row dequantization scale (always > 0 on finite rows).
    scales: Vec<f32>,
    /// Per-row zero-point in payload space.
    zero_points: Vec<i32>,
    /// Per-row L1 norm of the f32 row, rounded upward.
    l1_norms: Vec<f32>,
    /// Per-row worst element error `|w[k] − ŵ[k]|`, rounded upward.
    errors: Vec<f32>,
    /// Largest row scale and L1 norm (the overflow guards of
    /// [`ScoreBound::covers`]).
    max_scale: f32,
    max_l1: f32,
    /// Whether [`ScoreBound`] holds for every row (module docs).
    certifiable: bool,
}

impl QuantizedMatrix {
    /// Quantizes `w` row-by-row with the asymmetric affine scheme.
    pub fn quantize(w: &Matrix) -> Self {
        Self::build(w.as_slice(), w.rows(), w.cols(), None)
    }

    /// Quantizes the `rows × cols` row-major `src` and copies it into an
    /// f32 [`Matrix`] in the same pass: each row is copied, then quantized
    /// while it is cache-resident, so `src` is read from memory once.
    ///
    /// # Panics
    /// Panics if `src.len() != rows * cols`.
    pub fn quantize_copy(src: &[f32], rows: usize, cols: usize) -> (Matrix, Self) {
        let mut copy = Vec::with_capacity(rows * cols);
        let quantized = Self::build(src, rows, cols, Some(&mut copy));
        (Matrix::from_vec(rows, cols, copy), quantized)
    }

    fn build(src: &[f32], rows: usize, cols: usize, mut copy: Option<&mut Vec<f32>>) -> Self {
        assert_eq!(src.len(), rows * cols, "QuantizedMatrix: {} values for a {rows}x{cols} matrix", src.len());
        let mut out = Self {
            rows,
            cols,
            data: vec![0; rows * cols],
            scales: Vec::with_capacity(rows),
            zero_points: Vec::with_capacity(rows),
            l1_norms: Vec::with_capacity(rows),
            errors: Vec::with_capacity(rows),
            max_scale: 0.0,
            max_l1: 0.0,
            certifiable: cols <= MAX_CERTIFIED_COLS,
        };
        // The f32 lanes of the L1 sum round at most `cols` times; this
        // factor (then an upward rounding) makes the stored norm an upper
        // bound.
        let l1_slack = 1.0 + (cols as f64 + 2.0) * f32::EPSILON as f64;
        for (r, payload) in out.data.chunks_exact_mut(cols.max(1)).enumerate() {
            let row = &src[r * cols..(r + 1) * cols];
            if let Some(copy) = copy.as_deref_mut() {
                copy.extend_from_slice(row);
            }
            let (lo, hi, l1) = row_stats(row);
            // The range is nudged to contain zero: 0.0 then maps
            // (near-)exactly to the zero-point, and a constant row keeps a
            // positive scale.
            let scale = if hi > lo { (hi - lo) / 255.0 } else { 1.0 };
            let zp = (round_half_away(-lo / scale) as i32).clamp(0, 255);
            for (p, &v) in payload.iter_mut().zip(row) {
                *p = quantize_value(v, scale, zp as f32);
            }
            let l1 = f32_up(l1 as f64 * l1_slack);
            let error = worst_error(row, payload, scale, zp);
            out.certifiable &= scale.is_finite() && l1.is_finite() && error.is_finite();
            out.max_scale = out.max_scale.max(scale);
            out.max_l1 = out.max_l1.max(l1);
            out.scales.push(scale);
            out.zero_points.push(zp);
            out.l1_norms.push(l1);
            out.errors.push(error);
        }
        // `chunks_exact_mut` yields nothing for cols == 0: the rows still
        // get their (trivial) metadata.
        for _ in out.scales.len()..rows {
            out.scales.push(1.0);
            out.zero_points.push(0);
            out.l1_norms.push(0.0);
            out.errors.push(0.0);
            out.max_scale = out.max_scale.max(1.0);
        }
        out
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the embedding dimension).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The biased `u8` payload of row `r`.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u8] {
        assert!(r < self.rows, "QuantizedMatrix::row: index {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Dequantization scale of row `r`.
    #[inline]
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Zero-point of row `r` (payload space).
    #[inline]
    pub fn zero_point(&self, r: usize) -> i32 {
        self.zero_points[r]
    }

    /// The full row-major payload (kernel entry points).
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.data
    }

    /// Per-row scales (kernel entry points).
    #[inline]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Per-row zero-points (kernel entry points).
    #[inline]
    pub fn zero_points(&self) -> &[i32] {
        &self.zero_points
    }

    /// Per-row L1 norms of the f32 rows, each rounded upward.
    #[inline]
    pub fn l1_norms(&self) -> &[f32] {
        &self.l1_norms
    }

    /// Per-row worst element error `|w[k] − scale·(p[k] − zp)|` of the f32
    /// rows, each rounded upward (0 for a row the scheme represents
    /// exactly).
    #[inline]
    pub fn errors(&self) -> &[f32] {
        &self.errors
    }

    /// Whether the certified bound ([`ScoreBound`]) holds for every row:
    /// every value, scale, element error and L1 norm finite, and the width
    /// within the exact `i32` range.
    #[inline]
    pub fn certifiable(&self) -> bool {
        self.certifiable
    }

    /// Reconstructs row `r` as f32 values (tests and diagnostics — the
    /// serving path never dequantizes, it re-scores from the f32 original).
    pub fn dequantize_row(&self, r: usize) -> Vec<f32> {
        let scale = self.scales[r];
        let zp = self.zero_points[r];
        self.row(r).iter().map(|&p| scale * (p as i32 - zp) as f32).collect()
    }

    /// Bytes of payload streamed per full-catalogue pass (the bandwidth
    /// denominator reported by `kernel_report`; scales and zero-points ride
    /// along but are one read per row, not per element; the L1 norms and
    /// element errors are read by the certified scan only).
    pub fn payload_bytes(&self) -> usize {
        self.data.len() + self.rows * (std::mem::size_of::<f32>() + std::mem::size_of::<i32>())
    }
}

/// Min (nudged to ≤ 0), max (nudged to ≥ 0) and f32 L1 norm of `row`, in
/// [`STAT_LANES`] independent lanes. NaN never wins a min or max, as with
/// `f32::min`/`f32::max`; it propagates into the L1 norm.
fn row_stats(row: &[f32]) -> (f32, f32, f32) {
    let mut lo = [0.0f32; STAT_LANES];
    let mut hi = [0.0f32; STAT_LANES];
    let mut l1 = [0.0f32; STAT_LANES];
    let mut chunks = row.chunks_exact(STAT_LANES);
    for chunk in chunks.by_ref() {
        for l in 0..STAT_LANES {
            let v = chunk[l];
            lo[l] = if v < lo[l] { v } else { lo[l] };
            hi[l] = if v > hi[l] { v } else { hi[l] };
            l1[l] += v.abs();
        }
    }
    for (l, &v) in chunks.remainder().iter().enumerate() {
        lo[l] = if v < lo[l] { v } else { lo[l] };
        hi[l] = if v > hi[l] { v } else { hi[l] };
        l1[l] += v.abs();
    }
    let lo = lo.iter().fold(0.0f32, |m, &v| if v < m { v } else { m });
    let hi = hi.iter().fold(0.0f32, |m, &v| if v > m { v } else { m });
    (lo, hi, l1.iter().sum())
}

/// `x.round()` (ties away from zero) as `trunc(x + copysign(0.5⁻, x))`,
/// the same value for every `f32` — adding the largest float below one half
/// can only carry into the next integer when the fraction is at least one
/// half — but in a form that vectorizes.
#[inline]
fn round_half_away(x: f32) -> f32 {
    (x + 0.5f32.next_down().copysign(x)).trunc()
}

/// The payload byte of `v`: `round(v / scale) + zp` clamped to `[0, 255]`,
/// a NaN quotient counting as 0 (as an `as i32` cast takes it). The sum is
/// an integer in `[0, 255]` after the clamp, so it is read out of the low
/// mantissa bits of `sum + 2²³` instead of through a saturating float→int
/// cast, which keeps the loop vectorized.
#[inline]
fn quantize_value(v: f32, scale: f32, zp: f32) -> u8 {
    let r = round_half_away(v / scale);
    let r = if r.is_nan() { 0.0 } else { r };
    ((r + zp).clamp(0.0, 255.0) + 8_388_608.0).to_bits() as u8
}

/// The worst element error `|v − scale·(p − zp)|` of `row`, rounded up to
/// an `f32`: the products are exact in f64 and the margin covers the one
/// rounded subtraction. NaN when an element is NaN.
fn worst_error(row: &[f32], payload: &[u8], scale: f32, zp: i32) -> f32 {
    let (scale, zp) = (scale as f64, zp as f64);
    let worst = row.iter().zip(payload).fold(0.0f64, |worst, (&v, &p)| {
        let error = (scale * (p as f64 - zp) - v as f64).abs();
        // Not `f64::max`: a NaN error must win, and the select vectorizes.
        if error > worst || error.is_nan() {
            error
        } else {
            worst
        }
    });
    f32_up(worst * (1.0 + 2.0 * f64::EPSILON))
}

/// A query vector quantized symmetrically to `i8` (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedQuery {
    /// Symmetric `i8` payload: `data[k] ∈ [−127, 127]`.
    data: Vec<i8>,
    /// Dequantization scale (always > 0).
    scale: f32,
    /// `Σ_k data[k]`, precomputed for the per-row zero-point fixup.
    sum: i32,
}

impl QuantizedQuery {
    /// Quantizes one query vector.
    pub fn quantize(q: &[f32]) -> Self {
        let mut out = Self { data: Vec::new(), scale: 1.0, sum: 0 };
        out.requantize(q);
        out
    }

    /// Re-quantizes `q` in place, reusing the payload allocation — the
    /// serving scratch holds one `QuantizedQuery` across requests.
    pub fn requantize(&mut self, q: &[f32]) {
        let amax = q.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = if amax > 0.0 { amax / 127.0 } else { 1.0 };
        self.data.clear();
        let mut sum = 0i32;
        for &v in q {
            let s = ((v / scale).round() as i32).clamp(-127, 127);
            sum += s;
            self.data.push(s as i8);
        }
        self.scale = scale;
        self.sum = sum;
    }

    /// The `i8` payload.
    #[inline]
    pub fn payload(&self) -> &[i8] {
        &self.data
    }

    /// Dequantization scale.
    #[inline]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Precomputed payload sum.
    #[inline]
    pub fn sum(&self) -> i32 {
        self.sum
    }

    /// Query length.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the query is empty (d = 0).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_matrix() -> Matrix {
        Matrix::from_rows(&[
            &[0.5, -1.25, 3.0, 0.0],
            &[-2.0, -2.0, -2.0, -2.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[1e-3, -1e-3, 5e-4, 0.0],
        ])
    }

    #[test]
    fn round_trip_error_is_within_half_a_step() {
        let w = toy_matrix();
        let qm = QuantizedMatrix::quantize(&w);
        for r in 0..w.rows() {
            let back = qm.dequantize_row(r);
            for (k, (&orig, &deq)) in w.row(r).iter().zip(&back).enumerate() {
                assert!(
                    (orig - deq).abs() <= qm.scale(r) * 0.5 + 1e-7,
                    "row {r} col {k}: {orig} vs {deq} (scale {})",
                    qm.scale(r)
                );
            }
        }
    }

    #[test]
    fn zero_rows_quantize_to_exact_zero() {
        let qm = QuantizedMatrix::quantize(&toy_matrix());
        assert!(qm.dequantize_row(2).iter().all(|&v| v == 0.0));
        // The nudged range keeps 0.0 representable in every row.
        for r in 0..4 {
            let zp = qm.zero_point(r);
            assert!((0..=255).contains(&zp), "row {r} zero point {zp}");
            assert_eq!(qm.scale(r) * (zp - zp) as f32, 0.0);
        }
    }

    #[test]
    fn constant_rows_keep_a_positive_scale() {
        let qm = QuantizedMatrix::quantize(&toy_matrix());
        for r in 0..4 {
            assert!(qm.scale(r) > 0.0, "row {r}");
        }
        let back = qm.dequantize_row(1);
        for &v in &back {
            assert!((v - -2.0).abs() <= qm.scale(1) * 0.5 + 1e-6, "{v}");
        }
    }

    #[test]
    fn query_quantization_is_symmetric_and_summed() {
        let q = [1.0f32, -0.5, 0.25, 0.0];
        let qq = QuantizedQuery::quantize(&q);
        assert_eq!(qq.len(), 4);
        assert_eq!(qq.payload()[0], 127);
        assert_eq!(qq.payload()[3], 0);
        assert_eq!(qq.sum(), qq.payload().iter().map(|&v| v as i32).sum::<i32>());
        for (k, &v) in q.iter().enumerate() {
            let deq = qq.scale() * qq.payload()[k] as f32;
            assert!((v - deq).abs() <= qq.scale() * 0.5 + 1e-7, "col {k}");
        }
    }

    #[test]
    fn zero_query_quantizes_cleanly() {
        let qq = QuantizedQuery::quantize(&[0.0; 8]);
        assert!(qq.payload().iter().all(|&v| v == 0));
        assert_eq!(qq.sum(), 0);
        assert!(qq.scale() > 0.0);
    }

    #[test]
    fn requantize_reuses_the_buffer() {
        let mut qq = QuantizedQuery::quantize(&[1.0, 2.0, 3.0]);
        qq.requantize(&[-4.0, 0.0]);
        assert_eq!(qq.len(), 2);
        assert_eq!(qq.payload()[0], -127);
        assert_eq!(qq.payload()[1], 0);
    }

    #[test]
    fn round_half_away_is_round() {
        // Every tie and its neighbours over the quantizer's range, plus the
        // extremes.
        for i in -600..600 {
            let tie = i as f32 + 0.5;
            for x in [i as f32, tie, tie.next_up(), tie.next_down(), (i as f32).next_up(), (i as f32).next_down()] {
                assert_eq!(round_half_away(x).to_bits(), x.round().to_bits(), "{x}");
            }
        }
        for x in [f32::MAX, f32::MIN, 8_388_609.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 0.5f32.next_down(), 1e-45] {
            assert_eq!(round_half_away(x).to_bits(), x.round().to_bits(), "{x}");
        }
        assert!(round_half_away(f32::NAN).is_nan());
    }

    #[test]
    fn quantize_value_is_the_clamped_rounded_cast() {
        let reference = |v: f32, scale: f32, zp: i32| ((v / scale).round() as i32 + zp).clamp(0, 255) as u8;
        for zp in [0, 1, 127, 200, 255] {
            for scale in [1.0f32, 0.01, 3.0e-3, 7.5] {
                for i in -70_000..70_000 {
                    let v = i as f32 * 1.0e-3 * scale * 3.7;
                    assert_eq!(quantize_value(v, scale, zp as f32), reference(v, scale, zp), "{v} / {scale} + {zp}");
                }
            }
            // Past the i32 range the reference cast saturates (and its `+ zp`
            // can overflow); the clamp decides those.
            for (v, want) in
                [(f32::NAN, zp as u8), (f32::INFINITY, 255), (f32::NEG_INFINITY, 0), (1e30, 255), (-1e30, 0)]
            {
                assert_eq!(quantize_value(v, 0.5, zp as f32), want, "{v} + {zp}");
            }
        }
    }

    #[test]
    fn payload_bytes_counts_payload_plus_row_metadata() {
        let qm = QuantizedMatrix::quantize(&Matrix::zeros(10, 16));
        assert_eq!(qm.payload_bytes(), 10 * 16 + 10 * 8);
    }
}
