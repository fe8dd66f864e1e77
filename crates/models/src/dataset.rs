//! Deterministic synthetic MNIST-like dataset (the §5.5 substitution).
//!
//! Ten class-conditional Gaussian blobs in 28×28 pixel space: each class has
//! a fixed random prototype image; samples are the prototype plus noise.
//! This preserves what the training case study needs — a learnable
//! classification problem whose loss demonstrably decreases — without
//! shipping the real dataset.

use ptsim_common::rng::Rng;
use ptsim_tensor::ops::one_hot;
use ptsim_tensor::Tensor;

/// A deterministic synthetic dataset of 28×28 "digit" images.
#[derive(Debug, Clone)]
pub struct SyntheticMnist {
    images: Tensor,
    labels: Vec<usize>,
}

impl SyntheticMnist {
    /// Number of classes.
    pub const CLASSES: usize = 10;
    /// Flattened image size.
    pub const PIXELS: usize = 784;

    /// Generates `n` samples from `seed`.
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        // Class prototypes.
        let protos = Tensor::randn([Self::CLASSES, Self::PIXELS], seed ^ 0x9E37_79B9);
        let mut images = vec![0.0f32; n * Self::PIXELS];
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = rng.gen_range(0..Self::CLASSES);
            labels.push(label);
            let proto = &protos.data()[label * Self::PIXELS..(label + 1) * Self::PIXELS];
            for (dst, &p) in images[i * Self::PIXELS..(i + 1) * Self::PIXELS].iter_mut().zip(proto)
            {
                *dst = p + 0.7 * rng.gen_range(-1.0f32..1.0);
            }
        }
        SyntheticMnist {
            images: Tensor::from_vec(images, [n, Self::PIXELS])
                .expect("generated data is consistent"),
            labels,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// All images, `[n, 784]`.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The `i`-th minibatch of size `batch` (wrapping): `(x, one-hot t,
    /// labels)`.
    pub fn batch(&self, i: usize, batch: usize) -> (Tensor, Tensor, Vec<usize>) {
        let n = self.len();
        let mut xs = Vec::with_capacity(batch * Self::PIXELS);
        let mut ls = Vec::with_capacity(batch);
        for j in 0..batch {
            let idx = (i * batch + j) % n;
            xs.extend_from_slice(&self.images.data()[idx * Self::PIXELS..(idx + 1) * Self::PIXELS]);
            ls.push(self.labels[idx]);
        }
        let x = Tensor::from_vec(xs, [batch, Self::PIXELS]).expect("batch data consistent");
        let t = one_hot(&ls, Self::CLASSES).expect("labels in range");
        (x, t, ls)
    }

    /// Classification accuracy of `logits` (`[n, 10]`) against labels
    /// starting at batch index `i`.
    pub fn accuracy(&self, logits: &Tensor, i: usize, batch: usize) -> f64 {
        let preds = logits.argmax_last_axis().expect("logits are 2-D");
        let n = self.len();
        let mut correct = 0;
        for (j, &p) in preds.data().iter().enumerate() {
            if p as usize == self.labels[(i * batch + j) % n] {
                correct += 1;
            }
        }
        correct as f64 / preds.numel() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticMnist::generate(64, 5);
        let b = SyntheticMnist::generate(64, 5);
        assert_eq!(a.images(), b.images());
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn batches_wrap_and_encode_labels() {
        let d = SyntheticMnist::generate(10, 1);
        let (x, t, ls) = d.batch(3, 4);
        assert_eq!(x.dims(), &[4, 784]);
        assert_eq!(t.dims(), &[4, 10]);
        assert_eq!(ls.len(), 4);
        for (row, &l) in ls.iter().enumerate() {
            assert_eq!(t.at(&[row, l]).unwrap(), 1.0);
        }
    }

    #[test]
    fn classes_are_separable_by_nearest_prototype() {
        // The class structure must be learnable: samples of the same class
        // are closer to each other than to other classes on average.
        let d = SyntheticMnist::generate(200, 2);
        let imgs = d.images();
        let mut same = 0.0f64;
        let mut diff = 0.0f64;
        let (mut ns, mut nd) = (0u32, 0u32);
        for i in 0..50 {
            for j in (i + 1)..50 {
                let a = &imgs.data()[i * 784..(i + 1) * 784];
                let b = &imgs.data()[j * 784..(j + 1) * 784];
                let dist: f32 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                if d.labels()[i] == d.labels()[j] {
                    same += dist as f64;
                    ns += 1;
                } else {
                    diff += dist as f64;
                    nd += 1;
                }
            }
        }
        assert!(same / ns as f64 * 1.5 < diff / nd as f64);
    }
}
