//! Dataset abstractions.

use ndsnn_tensor::Tensor;

/// A labelled image dataset.
///
/// Images are `(C, H, W)` tensors with values in `[0, 1]`; labels are class
/// indices in `[0, num_classes)`.
pub trait Dataset: Send {
    /// Number of samples.
    fn len(&self) -> usize;

    /// Whether the dataset is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th sample. Panics if `i >= len()`.
    fn get(&self, i: usize) -> (Tensor, usize);

    /// Number of distinct classes.
    fn num_classes(&self) -> usize;

    /// Image dimensions `(C, H, W)`.
    fn image_dims(&self) -> (usize, usize, usize);
}

/// A dataset fully materialized in memory.
#[derive(Debug, Clone)]
pub struct InMemoryDataset {
    images: Vec<Tensor>,
    labels: Vec<usize>,
    num_classes: usize,
    dims: (usize, usize, usize),
}

impl InMemoryDataset {
    /// Builds from parallel image/label vectors.
    ///
    /// # Panics
    /// Panics if the vectors' lengths differ, any label is out of range, or
    /// image shapes are inconsistent.
    pub fn new(images: Vec<Tensor>, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        assert!(!images.is_empty(), "empty dataset");
        let d = images[0].dims();
        assert_eq!(d.len(), 3, "images must be (C, H, W)");
        let dims = (d[0], d[1], d[2]);
        for img in &images {
            assert_eq!(img.dims(), d, "inconsistent image shapes");
        }
        for &l in &labels {
            assert!(l < num_classes, "label {l} out of range");
        }
        InMemoryDataset {
            images,
            labels,
            num_classes,
            dims,
        }
    }

    /// Splits into `(first, second)` at `at` samples.
    pub fn split(self, at: usize) -> (InMemoryDataset, InMemoryDataset) {
        let at = at.min(self.images.len());
        let mut images = self.images;
        let mut labels = self.labels;
        let tail_images = images.split_off(at);
        let tail_labels = labels.split_off(at);
        (
            InMemoryDataset::new(images, labels, self.num_classes),
            InMemoryDataset::new(tail_images, tail_labels, self.num_classes),
        )
    }

    /// Class label histogram.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

impl Dataset for InMemoryDataset {
    fn len(&self) -> usize {
        self.images.len()
    }

    fn get(&self, i: usize) -> (Tensor, usize) {
        (self.images[i].clone(), self.labels[i])
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn image_dims(&self) -> (usize, usize, usize) {
        self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> InMemoryDataset {
        let images = (0..6).map(|i| Tensor::full([1, 2, 2], i as f32)).collect();
        InMemoryDataset::new(images, vec![0, 1, 0, 1, 0, 1], 2)
    }

    #[test]
    fn basic_access() {
        let d = ds();
        assert_eq!(d.len(), 6);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.image_dims(), (1, 2, 2));
        let (img, label) = d.get(3);
        assert_eq!(img.as_slice()[0], 3.0);
        assert_eq!(label, 1);
    }

    #[test]
    fn split_preserves_order() {
        let (a, b) = ds().split(4);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(0).0.as_slice()[0], 4.0);
    }

    #[test]
    fn class_counts() {
        assert_eq!(ds().class_counts(), vec![3, 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        InMemoryDataset::new(vec![Tensor::zeros([1, 2, 2])], vec![0, 1], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        InMemoryDataset::new(vec![Tensor::zeros([1, 2, 2])], vec![5], 2);
    }
}
