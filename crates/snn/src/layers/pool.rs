//! Pooling layers.

use ndsnn_tensor::ops::pool::{
    avg_pool2d_backward, avg_pool2d_forward, max_pool2d_backward, max_pool2d_forward,
    Pool2dGeometry,
};
use ndsnn_tensor::{Csr, Tensor};

use crate::error::{Result, SnnError};
use crate::layers::Layer;

/// True when `ab` describes the `(B, C, H, W)` input this pool just consumed.
fn active_matches_input(ab: &Csr, in_dims: &[usize]) -> bool {
    in_dims.len() == 4 && ab.rows() == in_dims[0] && ab.cols() == in_dims[1..].iter().product()
}

/// Maps an input-space active set through max pooling: the backward scatters
/// each output-position gradient to its argmax input pixel, so output `p` is
/// gradient-relevant iff that pixel is active. `argmax` holds plane-relative
/// winner indices, one per output element, exactly as the forward cached them.
fn map_active_max(ab: &Csr, in_dims: &[usize], out_dims: &[usize], argmax: &[u32]) -> Csr {
    let (b, h, w) = (in_dims[0], in_dims[2], in_dims[3]);
    let (oh, ow) = (out_dims[2], out_dims[3]);
    let (plane_in, plane_out) = (h * w, oh * ow);
    let in_cols = in_dims[1] * plane_in;
    let out_cols = in_dims[1] * plane_out;
    // Per-sample membership mask over the input features, cleared by
    // revisiting only the marked entries so the buffer amortizes across rows.
    let mut mask = vec![false; in_cols];
    let mut flat = Vec::new();
    for s in 0..b {
        let row = ab.row(s);
        for &i in row {
            mask[i as usize] = true;
        }
        let am = &argmax[s * out_cols..(s + 1) * out_cols];
        for (p, &ai) in am.iter().enumerate() {
            let in_flat = (p / plane_out) * plane_in + ai as usize;
            if mask[in_flat] {
                flat.push((s * out_cols + p) as u32);
            }
        }
        for &i in row {
            mask[i as usize] = false;
        }
    }
    Csr::from_flat_indices(b, out_cols, flat)
}

/// Maps an input-space active set through average pooling: the backward
/// spreads each output-position gradient over its whole window, so output `p`
/// is gradient-relevant iff *any* window pixel is active.
fn map_active_avg(
    ab: &Csr,
    in_dims: &[usize],
    out_dims: &[usize],
    geometry: &Pool2dGeometry,
) -> Csr {
    let (b, h, w) = (in_dims[0], in_dims[2], in_dims[3]);
    let (oh, ow) = (out_dims[2], out_dims[3]);
    let (plane_in, plane_out) = (h * w, oh * ow);
    let in_cols = in_dims[1] * plane_in;
    let out_cols = in_dims[1] * plane_out;
    let (k, stride) = (geometry.kernel, geometry.stride);
    let mut mask = vec![false; in_cols];
    let mut flat = Vec::new();
    for s in 0..b {
        let row = ab.row(s);
        for &i in row {
            mask[i as usize] = true;
        }
        for p in 0..out_cols {
            let c = p / plane_out;
            let rem = p % plane_out;
            let (oy, ox) = (rem / ow, rem % ow);
            let needed = (oy * stride..(oy * stride + k).min(h)).any(|iy| {
                (ox * stride..(ox * stride + k).min(w)).any(|ix| mask[c * plane_in + iy * w + ix])
            });
            if needed {
                flat.push((s * out_cols + p) as u32);
            }
        }
        for &i in row {
            mask[i as usize] = false;
        }
    }
    Csr::from_flat_indices(b, out_cols, flat)
}

/// Non-overlapping average pooling applied per timestep.
#[derive(Debug)]
pub struct AvgPool2d {
    name: String,
    geometry: Pool2dGeometry,
    input_dims: Vec<Vec<usize>>,
    training: bool,
}

impl AvgPool2d {
    /// Creates a `k × k` average pool with stride `k`.
    pub fn new(name: impl Into<String>, kernel: usize) -> Self {
        AvgPool2d {
            name: name.into(),
            geometry: Pool2dGeometry::non_overlapping(kernel),
            input_dims: Vec::new(),
            training: true,
        }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, step: usize) -> Result<Tensor> {
        let out = avg_pool2d_forward(input, &self.geometry)?;
        if self.training {
            debug_assert_eq!(step, self.input_dims.len());
            self.input_dims.push(input.dims().to_vec());
        }
        Ok(out)
    }

    fn forward_active(
        &mut self,
        input: &Tensor,
        _spikes: Option<Csr>,
        active: Option<Csr>,
        step: usize,
    ) -> Result<(Tensor, Option<Csr>, Option<Csr>)> {
        // Averages are not binary, so no spikes leave this layer.
        let in_dims = input.dims().to_vec();
        let out = self.forward(input, step)?;
        let ab = active
            .filter(|ab| active_matches_input(ab, &in_dims) && out.rank() == 4)
            .map(|ab| map_active_avg(&ab, &in_dims, out.dims(), &self.geometry));
        Ok((out, None, ab))
    }

    fn backward(&mut self, grad_out: &Tensor, step: usize) -> Result<Tensor> {
        let dims = self.input_dims.get(step).ok_or_else(|| {
            SnnError::InvalidState(format!("{} backward without forward", self.name))
        })?;
        Ok(avg_pool2d_backward(dims, grad_out, &self.geometry)?)
    }

    fn reset_state(&mut self) {
        self.input_dims.clear();
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    fn describe(&self) -> crate::describe::LayerDesc {
        crate::describe::LayerDesc::AvgPool2d {
            name: self.name.clone(),
            kernel: self.geometry.kernel,
        }
    }
}

/// Non-overlapping max pooling applied per timestep.
#[derive(Debug)]
pub struct MaxPool2d {
    name: String,
    geometry: Pool2dGeometry,
    cache: Vec<(Vec<usize>, Vec<u32>)>,
    training: bool,
}

impl MaxPool2d {
    /// Creates a `k × k` max pool with stride `k`.
    pub fn new(name: impl Into<String>, kernel: usize) -> Self {
        MaxPool2d {
            name: name.into(),
            geometry: Pool2dGeometry::non_overlapping(kernel),
            cache: Vec::new(),
            training: true,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, step: usize) -> Result<Tensor> {
        let (out, argmax) = max_pool2d_forward(input, &self.geometry)?;
        if self.training {
            debug_assert_eq!(step, self.cache.len());
            self.cache.push((input.dims().to_vec(), argmax));
        }
        Ok(out)
    }

    fn forward_active(
        &mut self,
        input: &Tensor,
        spikes: Option<Csr>,
        active: Option<Csr>,
        step: usize,
    ) -> Result<(Tensor, Option<Csr>, Option<Csr>)> {
        let in_dims = input.dims().to_vec();
        // Max pooling of a binary map is binary, so when the input carried
        // spikes (certifying binarity) rebuild them over the pooled output —
        // the downstream conv keeps its multiply-free dispatch.
        let out = self.forward(input, step)?;
        let sb = match spikes {
            Some(_) if out.rank() >= 2 && out.dims()[0] > 0 && !out.is_empty() => {
                Csr::from_binary(out.dims()[0], out.len() / out.dims()[0], out.as_slice())
            }
            _ => None,
        };
        // The argmax cache only exists in training mode — which is also the
        // only mode where the active set has a consumer.
        let ab = match (active, self.cache.get(step)) {
            (Some(ab), Some((_, argmax)))
                if active_matches_input(&ab, &in_dims) && out.rank() == 4 =>
            {
                Some(map_active_max(&ab, &in_dims, out.dims(), argmax))
            }
            _ => None,
        };
        Ok((out, sb, ab))
    }

    fn backward(&mut self, grad_out: &Tensor, step: usize) -> Result<Tensor> {
        let (dims, argmax) = self.cache.get(step).ok_or_else(|| {
            SnnError::InvalidState(format!("{} backward without forward", self.name))
        })?;
        Ok(max_pool2d_backward(dims, grad_out, argmax, &self.geometry)?)
    }

    fn reset_state(&mut self) {
        self.cache.clear();
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    fn describe(&self) -> crate::describe::LayerDesc {
        crate::describe::LayerDesc::MaxPool2d {
            name: self.name.clone(),
            kernel: self.geometry.kernel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_pool_layer_round_trip() {
        let mut p = AvgPool2d::new("pool", 2);
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = p.forward(&x, 0).unwrap();
        assert_eq!(y.as_slice(), &[2.5]);
        let gx = p.backward(&Tensor::ones([1, 1, 1, 1]), 0).unwrap();
        assert_eq!(gx.as_slice(), &[0.25; 4]);
    }

    #[test]
    fn max_pool_layer_routes_gradient() {
        let mut p = MaxPool2d::new("pool", 2);
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 9.0, 3.0, 4.0]).unwrap();
        let y = p.forward(&x, 0).unwrap();
        assert_eq!(y.as_slice(), &[9.0]);
        let gx = p.backward(&Tensor::ones([1, 1, 1, 1]), 0).unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn spiking_input_preserved_semantics() {
        // Max pooling of a binary spike map stays binary; avg does not.
        let mut p = MaxPool2d::new("pool", 2);
        let x = Tensor::from_vec([1, 1, 2, 2], vec![0.0, 1.0, 0.0, 0.0]).unwrap();
        let y = p.forward(&x, 0).unwrap();
        assert_eq!(y.as_slice(), &[1.0]);
    }

    #[test]
    fn backward_without_forward_fails() {
        let mut p = AvgPool2d::new("pool", 2);
        assert!(p.backward(&Tensor::ones([1, 1, 1, 1]), 0).is_err());
        let mut m = MaxPool2d::new("pool", 2);
        assert!(m.backward(&Tensor::ones([1, 1, 1, 1]), 0).is_err());
    }
}
