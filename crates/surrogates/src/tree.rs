//! CART regression trees, with exact or randomized split selection.
//!
//! One implementation serves three ensemble members: `RandomForest` uses
//! exact best splits on bootstrap samples, `ExtraTrees` uses randomized
//! thresholds ([`SplitMode::Random`]), and `GradientBoosting` uses shallow
//! exact trees. Leaves store mean, variance, and count, so ensembles can
//! apply the law of total variance.
//!
//! A tree is stored flat: one `Vec` of nodes in preorder, so a split's
//! left child is the node right after it and its right child is named by
//! a `u32` index. Growing works on one buffer of sample indices in which
//! every node owns a contiguous range; a split partitions its range in
//! place, stably (the order `Iterator::partition` gives), through one
//! spill buffer. The buffers live in a [`GrowScratch`] that the ensembles
//! reuse across all the trees of a fit, so growing a tree allocates only
//! its node array.

use rand::rngs::StdRng;
use rand::Rng;

/// How split thresholds are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitMode {
    /// Scan every candidate threshold; pick the best SSE reduction (CART).
    Best,
    /// Draw one uniform threshold per feature; pick the best feature
    /// (extremely-randomized trees).
    Random,
}

/// Tree growth limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Maximum depth; `None` grows until purity or minimum size.
    pub max_depth: Option<usize>,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child.
    pub min_samples_leaf: usize,
    /// Threshold selection mode.
    pub split_mode: SplitMode,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            split_mode: SplitMode::Best,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Node {
    Leaf {
        mean: f64,
        var: f64,
        count: u32,
    },
    /// The left child is the next node; `right` is the right child's
    /// index.
    Split {
        feature: u32,
        threshold: f64,
        right: u32,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    /// Preorder node array; the root is node 0.
    nodes: Vec<Node>,
    dim: usize,
}

/// A leaf's summary statistics at a query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafStats {
    /// Mean of the training targets in the leaf.
    pub mean: f64,
    /// Population variance of the training targets in the leaf.
    pub var: f64,
    /// Number of training samples in the leaf.
    pub count: usize,
}

/// Buffers of tree growth, reused across the trees of an ensemble fit.
#[derive(Debug, Default)]
pub(crate) struct GrowScratch {
    /// Sample indices of the tree being grown; each node owns a range.
    idx: Vec<usize>,
    /// The right side of an in-place partition, before it is copied back.
    spill: Vec<usize>,
    /// `(feature value, target)` pairs of a `Best`-mode split search.
    pairs: Vec<(f64, f64)>,
}

impl DecisionTree {
    /// Fits a tree on `x`/`y` (pre-validated by the caller), using `rng`
    /// for randomized split modes.
    ///
    /// # Panics
    ///
    /// Panics on empty input — callers validate via
    /// `validate_training_set` first.
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: &TreeConfig, rng: &mut StdRng) -> Self {
        Self::fit_with(x, y, None, config, rng, &mut GrowScratch::default())
    }

    /// Fits a tree on the multiset of rows selected by `indices` (possibly
    /// with repeats), without materializing the resampled data — the
    /// bootstrap path of [`crate::RandomForest`].
    ///
    /// # Panics
    ///
    /// Panics on empty input (callers validate first).
    pub fn fit_indices(
        x: &[Vec<f64>],
        y: &[f64],
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> Self {
        Self::fit_with(
            x,
            y,
            Some(indices),
            config,
            rng,
            &mut GrowScratch::default(),
        )
    }

    /// [`Self::fit`] (`indices` = `None`) or [`Self::fit_indices`], grown
    /// in `scratch`'s buffers.
    pub(crate) fn fit_with(
        x: &[Vec<f64>],
        y: &[f64],
        indices: Option<&[usize]>,
        config: &TreeConfig,
        rng: &mut StdRng,
        scratch: &mut GrowScratch,
    ) -> Self {
        assert!(!x.is_empty() && x.len() == y.len(), "validated by caller");
        scratch.idx.clear();
        match indices {
            Some(indices) => scratch.idx.extend_from_slice(indices),
            None => scratch.idx.extend(0..x.len()),
        }
        let n = scratch.idx.len();
        assert!(n > 0, "validated by caller");
        // Reserve to the largest size a node's range can need, so the
        // buffers grow once, not by doubling as the ranges come.
        scratch.spill.clear();
        scratch.spill.reserve(n);
        if config.split_mode == SplitMode::Best {
            scratch.pairs.clear();
            scratch.pairs.reserve(n);
        }
        let mut grower = Grower {
            x,
            y,
            config,
            rng,
            scratch,
            // A binary tree over n samples has at most 2n − 1 nodes.
            nodes: Vec::with_capacity(2 * n - 1),
        };
        grower.grow(0, n, 0);
        Self {
            nodes: grower.nodes,
            dim: x[0].len(),
        }
    }

    /// Feature dimensionality the tree was trained with.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns the leaf statistics for a point.
    pub fn leaf_stats(&self, point: &[f64]) -> LeafStats {
        let mut i = 0;
        loop {
            match self.nodes[i] {
                Node::Leaf { mean, var, count } => {
                    return LeafStats {
                        mean,
                        var,
                        count: count as usize,
                    }
                }
                Node::Split {
                    feature,
                    threshold,
                    right,
                } => {
                    let v = point.get(feature as usize).copied().unwrap_or(0.0);
                    i = if v <= threshold {
                        i + 1
                    } else {
                        right as usize
                    };
                }
            }
        }
    }

    /// Predicted mean at a point.
    pub fn predict_mean(&self, point: &[f64]) -> f64 {
        self.leaf_stats(point).mean
    }

    /// Number of leaves (diagnostic).
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }
}

/// One tree's growth: the training data, the buffers, and the node array
/// being filled.
struct Grower<'a> {
    x: &'a [Vec<f64>],
    y: &'a [f64],
    config: &'a TreeConfig,
    rng: &'a mut StdRng,
    scratch: &'a mut GrowScratch,
    nodes: Vec<Node>,
}

impl Grower<'_> {
    /// Grows the subtree over the samples `scratch.idx[lo..hi]`, left
    /// subtree first (the order `Random` mode draws thresholds in), and
    /// returns its root's index.
    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> u32 {
        let at = self.nodes.len();
        let (mean, var) = mean_var(self.y, &self.scratch.idx[lo..hi]);
        let leaf = Node::Leaf {
            mean,
            var,
            count: (hi - lo) as u32,
        };
        let config = self.config;
        let at_depth_limit = config.max_depth.map(|d| depth >= d).unwrap_or(false);
        if hi - lo < config.min_samples_split || var <= 1e-24 || at_depth_limit {
            self.nodes.push(leaf);
            return at as u32;
        }
        let Some((feature, threshold)) = choose_split(
            self.x,
            self.y,
            &self.scratch.idx[lo..hi],
            config,
            self.rng,
            &mut self.scratch.pairs,
        ) else {
            self.nodes.push(leaf);
            return at as u32;
        };
        let mid = lo
            + partition(
                self.x,
                &mut self.scratch.idx[lo..hi],
                &mut self.scratch.spill,
                feature,
                threshold,
            );
        if mid - lo < config.min_samples_leaf || hi - mid < config.min_samples_leaf {
            self.nodes.push(leaf);
            return at as u32;
        }
        self.nodes.push(Node::Split {
            feature: feature as u32,
            threshold,
            right: 0,
        });
        self.grow(lo, mid, depth + 1);
        let right = self.grow(mid, hi, depth + 1);
        if let Node::Split { right: slot, .. } = &mut self.nodes[at] {
            *slot = right;
        }
        at as u32
    }
}

/// Stably partitions `idx` into the samples with
/// `x[i][feature] <= threshold` followed by the rest, each side keeping
/// its order (as `Iterator::partition` would), and returns the left
/// side's length. The right side passes through `spill`.
fn partition(
    x: &[Vec<f64>],
    idx: &mut [usize],
    spill: &mut Vec<usize>,
    feature: usize,
    threshold: f64,
) -> usize {
    spill.clear();
    let mut left = 0;
    for k in 0..idx.len() {
        let i = idx[k];
        if x[i][feature] <= threshold {
            idx[left] = i;
            left += 1;
        } else {
            spill.push(i);
        }
    }
    idx[left..].copy_from_slice(spill);
    left
}

/// Picks (feature, threshold) minimizing the weighted child SSE.
///
/// `Best` mode uses the classic CART sweep: sort the node's
/// (value, target) pairs once per feature, then walk the candidate
/// thresholds left to right maintaining running sums, so scoring all
/// thresholds costs O(m log m) instead of the O(m²) of re-partitioning
/// per threshold. This is the inner loop of every forest and boosting
/// fit in the BO hot path. `Random` mode needs only each feature's range,
/// which one min/max scan finds.
fn choose_split(
    x: &[Vec<f64>],
    y: &[f64],
    indices: &[usize],
    config: &TreeConfig,
    rng: &mut StdRng,
    pairs: &mut Vec<(f64, f64)>,
) -> Option<(usize, f64)> {
    let dim = x[0].len();
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
    for feature in 0..dim {
        match config.split_mode {
            SplitMode::Best => {
                pairs.clear();
                pairs.extend(indices.iter().map(|&i| (x[i][feature], y[i])));
                // Stable: tied values keep index order, which fixes the
                // order the running sums below add targets in.
                pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
                let lo = pairs[0].0;
                let hi = pairs[pairs.len() - 1].0;
                if lo == hi {
                    continue;
                }
                // Totals for the right side start as the node totals.
                let n = pairs.len() as f64;
                let (mut sr, mut sr2) = (0.0f64, 0.0f64);
                for &(_, v) in pairs.iter() {
                    sr += v;
                    sr2 += v * v;
                }
                let (mut nl, mut sl, mut sl2) = (0.0f64, 0.0f64, 0.0f64);
                for w in 0..pairs.len() - 1 {
                    let (value, target) = pairs[w];
                    nl += 1.0;
                    sl += target;
                    sl2 += target * target;
                    sr -= target;
                    sr2 -= target * target;
                    let next = pairs[w + 1].0;
                    if value == next {
                        continue; // not a boundary between distinct values
                    }
                    let threshold = (value + next) / 2.0;
                    let sse = (sl2 - sl * sl / nl) + (sr2 - sr * sr / (n - nl));
                    let better = best.map(|b| sse < b.2).unwrap_or(true);
                    if better {
                        best = Some((feature, threshold, sse));
                    }
                }
            }
            SplitMode::Random => {
                // The extremes under `total_cmp`, as a sort would put
                // them first and last.
                let first = x[indices[0]][feature];
                let (lo, hi) = indices[1..].iter().fold((first, first), |(lo, hi), &i| {
                    let v = x[i][feature];
                    (
                        if v.total_cmp(&lo).is_lt() { v } else { lo },
                        if v.total_cmp(&hi).is_gt() { v } else { hi },
                    )
                });
                if lo == hi {
                    continue;
                }
                let threshold = rng.gen_range(lo..hi);
                if let Some(sse) = split_sse(x, y, indices, feature, threshold) {
                    let better = best.map(|b| sse < b.2).unwrap_or(true);
                    if better {
                        best = Some((feature, threshold, sse));
                    }
                }
            }
        }
    }
    best.map(|(f, t, _)| (f, t))
}

/// The training set of an ensemble's last fit, flattened into buffers
/// reused from fit to fit, kept to recognise the one-row-appended update
/// the warm paths accelerate.
#[derive(Debug, Clone, Default)]
pub(crate) struct TrainingSetCopy {
    /// Rows, row-major.
    x: Vec<f64>,
    y: Vec<f64>,
}

impl TrainingSetCopy {
    /// Replaces the copy with `(x, y)`, a validated training set.
    pub(crate) fn store(&mut self, x: &[Vec<f64>], y: &[f64]) {
        self.x.clear();
        self.x.reserve(x.len() * x[0].len());
        for row in x {
            self.x.extend_from_slice(row);
        }
        self.y.clear();
        self.y.extend_from_slice(y);
    }

    /// Whether `(x, y)` is the stored set with exactly one row of
    /// dimension `dim` (the stored rows' dimension) appended.
    pub(crate) fn appended_one_row(&self, x: &[Vec<f64>], y: &[f64], dim: usize) -> bool {
        let n = self.y.len();
        x.len() == n + 1
            && y.len() == n + 1
            && x.last().is_some_and(|row| row.len() == dim)
            && x[..n]
                .iter()
                .zip(self.x.chunks_exact(dim))
                .all(|(row, stored)| row[..] == *stored)
            && y[..n] == self.y[..]
    }
}

/// The candidate points a batch-prediction cache was filled for,
/// flattened, so a call can tell whether it scores the same candidates.
#[derive(Debug, Clone, Default)]
pub(crate) struct CandidateSet {
    flat: Vec<f64>,
    count: usize,
}

impl CandidateSet {
    /// Whether `points`, each of dimension `dim`, are the stored
    /// candidates, compared with `==` (so ±0 match: a tree routes them
    /// alike).
    pub(crate) fn holds(&self, points: &[Vec<f64>], dim: usize) -> bool {
        points.len() == self.count
            && self.flat.len() == self.count * dim
            && points
                .iter()
                .zip(self.flat.chunks_exact(dim.max(1)))
                .all(|(p, stored)| p[..] == *stored)
    }

    /// Replaces the stored candidates with `points`.
    pub(crate) fn set(&mut self, points: &[Vec<f64>]) {
        self.flat.clear();
        for p in points {
            self.flat.extend_from_slice(p);
        }
        self.count = points.len();
    }
}

fn mean_var(y: &[f64], indices: &[usize]) -> (f64, f64) {
    let n = indices.len() as f64;
    let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / n;
    let var = indices.iter().map(|&i| (y[i] - mean).powi(2)).sum::<f64>() / n;
    (mean, var)
}

/// Weighted sum of child SSEs for a candidate split, `None` when a side is
/// empty.
fn split_sse(
    x: &[Vec<f64>],
    y: &[f64],
    indices: &[usize],
    feature: usize,
    threshold: f64,
) -> Option<f64> {
    let (mut nl, mut sl, mut sl2) = (0usize, 0.0f64, 0.0f64);
    let (mut nr, mut sr, mut sr2) = (0usize, 0.0f64, 0.0f64);
    for &i in indices {
        let v = y[i];
        if x[i][feature] <= threshold {
            nl += 1;
            sl += v;
            sl2 += v * v;
        } else {
            nr += 1;
            sr += v;
            sr2 += v * v;
        }
    }
    if nl == 0 || nr == 0 {
        return None;
    }
    let sse_l = sl2 - sl * sl / nl as f64;
    let sse_r = sr2 - sr * sr / nr as f64;
    Some(sse_l + sse_r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        (x, y)
    }

    #[test]
    fn learns_a_step_function_exactly() {
        let (x, y) = step_data();
        let tree = DecisionTree::fit(&x, &y, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.predict_mean(&[3.0]), 1.0);
        assert_eq!(tree.predict_mean(&[15.0]), 5.0);
        // The split lands between 9 and 10.
        assert_eq!(tree.predict_mean(&[9.4]), 1.0);
        assert_eq!(tree.predict_mean(&[9.6]), 5.0);
    }

    #[test]
    fn depth_limit_caps_tree_size() {
        let (x, y) = step_data();
        let config = TreeConfig {
            max_depth: Some(0),
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&x, &y, &config, &mut rng());
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.predict_mean(&[0.0]), 3.0); // global mean
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let (x, y) = step_data();
        let config = TreeConfig {
            min_samples_leaf: 10,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&x, &y, &config, &mut rng());
        // The only admissible split is exactly down the middle.
        assert_eq!(tree.leaf_count(), 2);
        let stats = tree.leaf_stats(&[0.0]);
        assert_eq!(stats.count, 10);
        assert_eq!(stats.var, 0.0);
    }

    #[test]
    fn random_mode_still_learns_structure() {
        let (x, y) = step_data();
        let config = TreeConfig {
            split_mode: SplitMode::Random,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&x, &y, &config, &mut rng());
        assert_eq!(tree.predict_mean(&[0.0]), 1.0);
        assert_eq!(tree.predict_mean(&[19.0]), 5.0);
    }

    #[test]
    fn pure_targets_yield_single_leaf() {
        let x: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 5];
        let tree = DecisionTree::fit(&x, &y, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.leaf_count(), 1);
        let stats = tree.leaf_stats(&[2.0]);
        assert_eq!(stats.mean, 7.0);
        assert_eq!(stats.count, 5);
    }

    #[test]
    fn splits_on_the_informative_feature() {
        // Feature 1 is noise; feature 0 carries the signal.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..16 {
            x.push(vec![(i / 8) as f64, (i % 4) as f64]);
            y.push(if i < 8 { 0.0 } else { 10.0 });
        }
        let tree = DecisionTree::fit(&x, &y, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.predict_mean(&[0.0, 3.0]), 0.0);
        assert_eq!(tree.predict_mean(&[1.0, 0.0]), 10.0);
        assert_eq!(tree.dim(), 2);
    }
}
