//! Element-wise activation functions with analytic derivatives.

use noble_linalg::{tanh_in_place, Matrix};

/// An element-wise activation function.
///
/// The paper's WiFi and IMU networks use hyperbolic tangent activations;
/// ReLU and sigmoid are included for ablations and for the sigmoid output
/// interpretation of the multi-label loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Hyperbolic tangent (the paper's choice).
    #[default]
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (no-op; useful for testing layer stacks).
    Identity,
}

impl Activation {
    /// Applies the activation element-wise.
    ///
    /// `Tanh` is [`noble_linalg::tanh`], IEEE arithmetic alone, so the
    /// same input gives the same bits on every host and under every libm.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        match self {
            Activation::Tanh => {
                let mut y = x.clone();
                tanh_in_place(y.as_mut_slice());
                y
            }
            Activation::Relu => x.map(|v| v.max(0.0)),
            Activation::Sigmoid => x.map(sigmoid),
            Activation::Identity => x.clone(),
        }
    }

    /// Applies the activation element-wise, in place: the same function
    /// on each element as [`Activation::forward`], without a new matrix.
    pub(crate) fn apply_in_place(&self, y: &mut Matrix) {
        match self {
            Activation::Tanh => tanh_in_place(y.as_mut_slice()),
            Activation::Relu => y.map_in_place(|v| v.max(0.0)),
            Activation::Sigmoid => y.map_in_place(sigmoid),
            Activation::Identity => {}
        }
    }

    /// Derivative expressed in terms of the *output* `y = f(x)`.
    ///
    /// All four supported activations admit this form, which lets the
    /// backward pass reuse the cached forward output instead of the input.
    pub fn derivative_from_output(&self, y: &Matrix) -> Matrix {
        match self {
            Activation::Tanh => y.map(|v| 1.0 - v * v),
            Activation::Relu => y.map(|v| if v > 0.0 { 1.0 } else { 0.0 }),
            Activation::Sigmoid => y.map(|v| v * (1.0 - v)),
            Activation::Identity => Matrix::filled(y.rows(), y.cols(), 1.0),
        }
    }
}

/// Numerically stable logistic sigmoid.
pub(crate) fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(f: impl Fn(f64) -> f64, x: f64) -> f64 {
        let h = 1e-6;
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn tanh_forward_and_derivative() {
        let x = Matrix::from_rows(&[vec![0.0, 1.0, -2.0]]).unwrap();
        let y = Activation::Tanh.forward(&x);
        assert_eq!(y[(0, 0)], 0.0);
        assert!((y[(0, 1)] - 1.0f64.tanh()).abs() < 1e-15);
        let d = Activation::Tanh.derivative_from_output(&y);
        for (j, &xv) in [0.0, 1.0, -2.0].iter().enumerate() {
            let expected = finite_diff(f64::tanh, xv);
            assert!((d[(0, j)] - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Matrix::from_rows(&[vec![-1.0, 0.0, 2.0]]).unwrap();
        let y = Activation::Relu.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        let d = Activation::Relu.derivative_from_output(&y);
        assert_eq!(d.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_matches_definition_and_is_stable() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!(sigmoid(800.0) <= 1.0 && sigmoid(800.0) > 0.999);
        assert!(sigmoid(-800.0) >= 0.0 && sigmoid(-800.0) < 1e-300_f64.max(1e-100));
        let x = Matrix::from_rows(&[vec![2.0]]).unwrap();
        let y = Activation::Sigmoid.forward(&x);
        let d = Activation::Sigmoid.derivative_from_output(&y);
        let expected = finite_diff(sigmoid, 2.0);
        assert!((d[(0, 0)] - expected).abs() < 1e-6);
    }

    #[test]
    fn identity_passthrough() {
        let x = Matrix::from_rows(&[vec![3.0, -4.0]]).unwrap();
        assert_eq!(Activation::Identity.forward(&x), x);
        let d = Activation::Identity.derivative_from_output(&x);
        assert!(d.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn default_is_tanh() {
        assert_eq!(Activation::default(), Activation::Tanh);
    }
}
