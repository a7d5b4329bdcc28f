use noble_linalg::Matrix;

/// A trainable parameter tensor with its gradient and optimizer state.
///
/// Keeping the Adam/momentum moments inside the parameter avoids a separate
/// state registry keyed by parameter identity: the optimizer is a pure
/// update rule applied uniformly to every [`Param`] a network exposes.
///
/// The `grad`/`m`/`v` buffers are sized lazily. Parameters of restored
/// networks ([`crate::Mlp::from_specs`], [`crate::Dense::from_parts`])
/// start with them `0x0`; every backward pass and optimizer update sizes
/// them to zeros on first use, so a model that never trains never pays
/// for them. Zeros allocated late are the same zeros [`Param::new`]
/// allocates eagerly, so training is bit-identical either way.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient for the current step.
    pub grad: Matrix,
    /// First-moment buffer (momentum / Adam m).
    pub m: Matrix,
    /// Second-moment buffer (Adam v).
    pub v: Matrix,
}

impl Param {
    /// Wraps an initial value with zeroed gradient and moments.
    pub fn new(value: Matrix) -> Self {
        let mut p = Param::frozen(value);
        p.ensure_state();
        p
    }

    /// Wraps a value with `0x0` gradient and moments: an inference-only
    /// parameter that allocates its training buffers only if it is
    /// ever trained (see [`Param::ensure_state`]).
    pub(crate) fn frozen(value: Matrix) -> Self {
        Param {
            value,
            grad: Matrix::zeros(0, 0),
            m: Matrix::zeros(0, 0),
            v: Matrix::zeros(0, 0),
        }
    }

    /// Sizes `grad`, `m` and `v` to zeros of the value's shape wherever
    /// they do not already match it; buffers already sized keep their
    /// contents.
    pub(crate) fn ensure_state(&mut self) {
        let (r, c) = self.value.shape();
        for buf in [&mut self.grad, &mut self.m, &mut self.v] {
            if buf.shape() != (r, c) {
                *buf = Matrix::zeros(r, c);
            }
        }
    }

    /// Drops the gradient and moment buffers back to `0x0` (the state of
    /// [`Param::frozen`]), e.g. once training has finished.
    pub(crate) fn release_state(&mut self) {
        for buf in [&mut self.grad, &mut self.m, &mut self.v] {
            *buf = Matrix::zeros(0, 0);
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.as_mut_slice().fill(0.0);
    }

    /// Number of scalar parameters in this tensor.
    pub fn len(&self) -> usize {
        self.value.as_slice().len()
    }

    /// Whether this parameter holds no scalars.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_zeroed_state() {
        let p = Param::new(Matrix::filled(2, 3, 1.5));
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
        assert!(p.m.as_slice().iter().all(|&g| g == 0.0));
        assert!(p.v.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn frozen_param_sizes_state_lazily() {
        let mut p = Param::frozen(Matrix::filled(2, 3, 1.5));
        assert_eq!(p.len(), 6);
        for buf in [&p.grad, &p.m, &p.v] {
            assert_eq!(buf.shape(), (0, 0));
        }
        p.ensure_state();
        for buf in [&p.grad, &p.m, &p.v] {
            assert_eq!(buf.shape(), (2, 3));
            assert!(buf.as_slice().iter().all(|&x| x == 0.0));
        }
        // Sized buffers keep their contents.
        p.m.as_mut_slice()[0] = 4.0;
        p.ensure_state();
        assert_eq!(p.m.as_slice()[0], 4.0);
        p.release_state();
        for buf in [&p.grad, &p.m, &p.v] {
            assert_eq!(buf.shape(), (0, 0));
        }
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Matrix::zeros(1, 2));
        p.grad.as_mut_slice().copy_from_slice(&[1.0, -2.0]);
        p.zero_grad();
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0]);
    }
}
