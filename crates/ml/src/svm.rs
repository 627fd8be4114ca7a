//! A linear support vector machine trained with Pegasos SGD.
//!
//! The fraud-detection application in the paper "runs a machine learning
//! algorithm (SVM) to predict anomalies in a stream of financial
//! transactions". This is that algorithm: primal linear SVM with hinge loss
//! and L2 regularization, trained by the Pegasos stochastic sub-gradient
//! method (Shalev-Shwartz et al., ICML'07). Deterministic given a seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
/// A binary label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// The positive class (e.g. fraudulent).
    Positive,
    /// The negative class (e.g. legitimate).
    Negative,
}

impl Label {
    /// +1.0 / -1.0.
    pub fn sign(self) -> f64 {
        match self {
            Label::Positive => 1.0,
            Label::Negative => -1.0,
        }
    }

    /// From a sign.
    pub(crate) fn from_sign(s: f64) -> Label {
        if s >= 0.0 {
            Label::Positive
        } else {
            Label::Negative
        }
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct SvmParams {
    /// L2 regularization strength λ.
    pub lambda: f64,
    /// Number of SGD steps.
    pub steps: usize,
    /// RNG seed for example sampling.
    pub seed: u64,
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams {
            lambda: 1e-3,
            steps: 20_000,
            seed: 7,
        }
    }
}

/// A trained linear SVM.
///
/// # Examples
///
/// ```
/// use s2g_ml::{Label, LinearSvm, SvmParams};
///
/// // Two separable clusters in 2D.
/// let data: Vec<(Vec<f64>, Label)> = (0..50)
///     .map(|i| {
///         let x = i as f64 / 50.0;
///         (vec![x, x + 2.0], Label::Positive)
///     })
///     .chain((0..50).map(|i| {
///         let x = i as f64 / 50.0;
///         (vec![x, x - 2.0], Label::Negative)
///     }))
///     .collect();
/// let svm = LinearSvm::train(&data, SvmParams::default());
/// assert_eq!(svm.predict(&[0.5, 2.5]), Label::Positive);
/// assert_eq!(svm.predict(&[0.5, -1.5]), Label::Negative);
/// ```
#[derive(Debug, Clone)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
}

impl LinearSvm {
    /// Trains on `(features, label)` pairs with Pegasos.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or feature vectors have inconsistent
    /// dimensions.
    pub fn train(data: &[(Vec<f64>, Label)], params: SvmParams) -> LinearSvm {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let dim = data[0].0.len();
        assert!(
            data.iter().all(|(x, _)| x.len() == dim),
            "inconsistent feature dimensions"
        );
        // The bias is folded into the weight vector as a constant feature,
        // so it is shrunk and projected like every other coordinate —
        // otherwise early large-step bias updates dominate under class
        // imbalance and the model collapses to the majority class.
        let mut w = vec![0.0f64; dim + 1];
        let mut rng = StdRng::seed_from_u64(params.seed);
        for t in 1..=params.steps {
            let (x, y) = &data[rng.gen_range(0..data.len())];
            let y = y.sign();
            let eta = 1.0 / (params.lambda * t as f64);
            let wx = dot(&w[..dim], x) + w[dim];
            let margin = y * wx;
            // w ← (1 − ηλ)w  [+ ηy·x if the example violates the margin]
            let shrink = 1.0 - eta * params.lambda;
            for wi in w.iter_mut() {
                *wi *= shrink;
            }
            if margin < 1.0 {
                for (wi, xi) in w.iter_mut().zip(x) {
                    *wi += eta * y * xi;
                }
                w[dim] += eta * y;
            }
            // Pegasos projection onto the ‖w‖ ≤ 1/√λ ball.
            let norm = dot(&w, &w).sqrt();
            let cap = 1.0 / params.lambda.sqrt();
            if norm > cap {
                let scale = cap / norm;
                for wi in w.iter_mut() {
                    *wi *= scale;
                }
            }
        }
        let bias = w.pop().expect("augmented coordinate");
        LinearSvm { weights: w, bias }
    }

    /// The signed distance to the separating hyperplane.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn margin(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "feature dimension mismatch");
        dot(&self.weights, x) + self.bias
    }

    /// Classifies a feature vector.
    pub fn predict(&self, x: &[f64]) -> Label {
        Label::from_sign(self.margin(x))
    }

    /// Fraction of `data` classified correctly.
    pub fn accuracy(&self, data: &[(Vec<f64>, Label)]) -> f64 {
        if data.is_empty() {
            return 1.0;
        }
        let correct = data.iter().filter(|(x, y)| self.predict(x) == *y).count();
        correct as f64 / data.len() as f64
    }

    /// The weight vector.
    #[cfg(test)]
    fn weights(&self) -> &[f64] {
        &self.weights
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clusters(n: usize, gap: f64, seed: u64) -> Vec<(Vec<f64>, Label)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        for _ in 0..n {
            let x: f64 = rng.gen_range(-1.0..1.0);
            let noise: f64 = rng.gen_range(-0.3..0.3);
            data.push((vec![x, gap + noise], Label::Positive));
            let x: f64 = rng.gen_range(-1.0..1.0);
            let noise: f64 = rng.gen_range(-0.3..0.3);
            data.push((vec![x, -gap + noise], Label::Negative));
        }
        data
    }

    #[test]
    fn separable_data_high_accuracy() {
        let data = clusters(200, 1.5, 3);
        let svm = LinearSvm::train(&data, SvmParams::default());
        assert!(
            svm.accuracy(&data) > 0.98,
            "accuracy {}",
            svm.accuracy(&data)
        );
    }

    #[test]
    fn margins_have_correct_sign() {
        let data = clusters(100, 2.0, 5);
        let svm = LinearSvm::train(&data, SvmParams::default());
        assert!(svm.margin(&[0.0, 3.0]) > 0.0);
        assert!(svm.margin(&[0.0, -3.0]) < 0.0);
    }

    #[test]
    fn training_is_deterministic() {
        let data = clusters(100, 1.0, 9);
        let a = LinearSvm::train(&data, SvmParams::default());
        let b = LinearSvm::train(&data, SvmParams::default());
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.margin(&[0.0, 0.0]), b.margin(&[0.0, 0.0]));
    }

    #[test]
    fn weight_norm_respects_pegasos_ball() {
        let data = clusters(100, 1.0, 11);
        let params = SvmParams {
            lambda: 0.01,
            ..SvmParams::default()
        };
        let svm = LinearSvm::train(&data, params);
        let norm: f64 = svm.weights().iter().map(|w| w * w).sum::<f64>().sqrt();
        assert!(norm <= 1.0 / params.lambda.sqrt() + 1e-9);
    }

    #[test]
    fn label_signs() {
        assert_eq!(Label::Positive.sign(), 1.0);
        assert_eq!(Label::Negative.sign(), -1.0);
        assert_eq!(Label::from_sign(0.5), Label::Positive);
        assert_eq!(Label::from_sign(-0.5), Label::Negative);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_training_panics() {
        let _ = LinearSvm::train(&[], SvmParams::default());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_panics() {
        let data = clusters(10, 1.0, 1);
        let svm = LinearSvm::train(&data, SvmParams::default());
        let _ = svm.margin(&[1.0, 2.0, 3.0]);
    }
}
