//! The naive oracle and the response checks.
//!
//! The oracle scores every catalogue item with an `f64` dot loop, drops the
//! seen items, and ranks with a full stable sort (score descending, lower id
//! first on ties). It shares nothing with the kernels, the fused mask+select
//! or the k-way merge it checks.

use std::collections::HashSet;

/// Checks one served top-`k` list: exactly `k` ids, all in the catalogue,
/// no duplicates, none from the request history.
pub fn check_response(items: &[usize], k: usize, history: &[usize], num_items: usize) -> Result<(), String> {
    if items.len() != k {
        return Err(format!("{} items instead of {k}", items.len()));
    }
    let mut seen = HashSet::with_capacity(items.len());
    for &item in items {
        if item >= num_items {
            return Err(format!("item {item} outside the {num_items}-item catalogue"));
        }
        if !seen.insert(item) {
            return Err(format!("item {item} served twice"));
        }
        if history.contains(&item) {
            return Err(format!("item {item} is in the request history"));
        }
    }
    Ok(())
}

/// One catalogue row with its global id.
pub trait Rows {
    fn num_items(&self) -> usize;
    fn row(&self, item: usize) -> &[f32];
}

/// `f64` score of one item and the sum of `|q_i w_i|` that bounds its `f32`
/// rounding error.
fn score(query: &[f32], row: &[f32]) -> (f64, f64) {
    let mut dot = 0.0f64;
    let mut magnitude = 0.0f64;
    for (&q, &w) in query.iter().zip(row) {
        let p = f64::from(q) * f64::from(w);
        dot += p;
        magnitude += p.abs();
    }
    (dot, magnitude)
}

/// What the oracle thinks of one served list.
pub struct Verdict {
    /// `|served ∩ oracle| / k`.
    pub overlap: f64,
    /// Served items outside the oracle's top-`k` that are not explained by a
    /// near-tie with the oracle's `k`-th item.
    pub unexplained: usize,
}

/// Compares a served top-`k` with the oracle's. A served item outside the
/// oracle's list is a near-tie — allowed — when its exact score is within
/// `f32` accumulation error of the oracle's `k`-th score.
pub fn judge(query: &[f32], rows: &dyn Rows, history: &[usize], served: &[usize], k: usize) -> Verdict {
    let n = rows.num_items();
    let mut masked = vec![false; n];
    for &item in history {
        if item < n {
            masked[item] = true;
        }
    }
    let mut ranked: Vec<(f64, usize)> =
        (0..n).filter(|&i| !masked[i]).map(|i| (score(query, rows.row(i)).0, i)).collect();
    // Stable sort on score alone keeps ascending ids among exact ties.
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    let top: Vec<usize> = ranked.iter().take(k).map(|&(_, i)| i).collect();
    let Some(&kth) = top.last() else {
        return Verdict { overlap: 1.0, unexplained: 0 };
    };
    let (kth_score, kth_magnitude) = score(query, rows.row(kth));
    let mut hits = 0usize;
    let mut unexplained = 0usize;
    for &item in served {
        if top.contains(&item) {
            hits += 1;
            continue;
        }
        let (s, magnitude) = score(query, rows.row(item));
        let tolerance = 1e-5 * (magnitude + kth_magnitude) + 1e-12;
        if s < kth_score - tolerance {
            unexplained += 1;
        }
    }
    Verdict { overlap: hits as f64 / k as f64, unexplained }
}

/// A plain row-major matrix view (`HamModel` candidate embeddings).
pub struct DenseRows<'a>(pub &'a ham_tensor::Matrix);

impl Rows for DenseRows<'_> {
    fn num_items(&self) -> usize {
        self.0.rows()
    }
    fn row(&self, item: usize) -> &[f32] {
        self.0.row(item)
    }
}

/// The rows of a sharded serving catalogue, addressed by global id.
pub struct ShardRows<'a>(pub &'a ham_serve::ShardedCatalog);

impl Rows for ShardRows<'_> {
    fn num_items(&self) -> usize {
        self.0.num_items()
    }
    fn row(&self, item: usize) -> &[f32] {
        let shard = self
            .0
            .shards()
            .iter()
            .find(|s| item >= s.offset() && item < s.offset() + s.len())
            .expect("item id inside the catalogue");
        shard.rows().row(item - shard.offset())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham_tensor::Matrix;

    #[test]
    fn malformed_responses_are_rejected() {
        assert!(check_response(&[1, 2, 3], 3, &[7], 10).is_ok());
        assert!(check_response(&[1, 2], 3, &[], 10).is_err());
        assert!(check_response(&[1, 1, 2], 3, &[], 10).is_err());
        assert!(check_response(&[1, 2, 7], 3, &[7], 10).is_err());
        assert!(check_response(&[1, 2, 10], 3, &[], 10).is_err());
    }

    #[test]
    fn oracle_ranks_by_exact_score_and_skips_history() {
        let w = Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.5, 0.5]);
        let q = [1.0, 0.0];
        let v = judge(&q, &DenseRows(&w), &[2], &[0, 3], 2);
        assert_eq!((v.overlap, v.unexplained), (1.0, 0));
        let v = judge(&q, &DenseRows(&w), &[2], &[0, 1], 2);
        assert_eq!((v.overlap, v.unexplained), (0.5, 1));
    }
}
