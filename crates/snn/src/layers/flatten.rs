//! Shape adapter between convolutional and fully-connected stages.

use ndsnn_tensor::{Csr, Tensor};

use crate::error::{Result, SnnError};
use crate::layers::Layer;

/// Flattens `(B, C, H, W)` (or any rank ≥ 2) into `(B, C·H·W)` per timestep.
#[derive(Debug)]
pub struct Flatten {
    name: String,
    input_dims: Vec<Vec<usize>>,
    training: bool,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new(name: impl Into<String>) -> Self {
        Flatten {
            name: name.into(),
            input_dims: Vec::new(),
            training: true,
        }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, step: usize) -> Result<Tensor> {
        if input.rank() < 2 {
            return Err(SnnError::InvalidState(format!(
                "{}: cannot flatten rank-{} tensor",
                self.name,
                input.rank()
            )));
        }
        let b = input.dims()[0];
        let rest: usize = input.dims()[1..].iter().product();
        if self.training {
            debug_assert_eq!(step, self.input_dims.len());
            self.input_dims.push(input.dims().to_vec());
        }
        Ok(input.reshape([b, rest])?)
    }

    fn forward_active(
        &mut self,
        input: &Tensor,
        spikes: Option<Csr>,
        active: Option<Csr>,
        step: usize,
    ) -> Result<(Tensor, Option<Csr>, Option<Csr>)> {
        // Both lists are already `[batch, flattened features]`, the exact
        // view this layer produces: flattening reinterprets shape without
        // moving data, so spikes pass through untouched and the active set's
        // flat indices are equally valid on both sides.
        let out = self.forward(input, step)?;
        let ab = active.filter(|ab| out.rank() == 2 && ab.dims() == (out.dims()[0], out.dims()[1]));
        Ok((out, spikes, ab))
    }

    fn backward(&mut self, grad_out: &Tensor, step: usize) -> Result<Tensor> {
        let dims = self.input_dims.get(step).ok_or_else(|| {
            SnnError::InvalidState(format!("{} backward without forward", self.name))
        })?;
        Ok(grad_out.reshape(dims.as_slice())?)
    }

    fn reset_state(&mut self) {
        self.input_dims.clear();
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    fn describe(&self) -> crate::describe::LayerDesc {
        crate::describe::LayerDesc::Flatten {
            name: self.name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_and_restores() {
        let mut f = Flatten::new("flat");
        let x = Tensor::zeros([2, 3, 4, 4]);
        let y = f.forward(&x, 0).unwrap();
        assert_eq!(y.dims(), &[2, 48]);
        let gx = f.backward(&Tensor::ones([2, 48]), 0).unwrap();
        assert_eq!(gx.dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn rejects_rank1() {
        let mut f = Flatten::new("flat");
        assert!(f.forward(&Tensor::zeros([4]), 0).is_err());
    }
}
