//! Gradient-descent update rules.

use crate::Param;

/// A first-order optimizer applied uniformly to every [`Param`].
///
/// Construct with [`Optimizer::sgd`], [`Optimizer::sgd_momentum`] or
/// [`Optimizer::adam`]; tune with the builder-style [`Optimizer::with_weight_decay`].
#[derive(Debug, Clone, PartialEq)]
pub struct Optimizer {
    rule: Rule,
    learning_rate: f64,
    weight_decay: f64,
    /// Adam step counter (bias correction).
    step: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    Sgd,
    Momentum { beta: f64 },
    Adam { beta1: f64, beta2: f64, eps: f64 },
}

impl Optimizer {
    /// Plain stochastic gradient descent.
    pub fn sgd(learning_rate: f64) -> Self {
        Optimizer {
            rule: Rule::Sgd,
            learning_rate,
            weight_decay: 0.0,
            step: 0,
        }
    }

    /// SGD with classical momentum (`beta = 0.9`).
    pub fn sgd_momentum(learning_rate: f64) -> Self {
        Optimizer {
            rule: Rule::Momentum { beta: 0.9 },
            learning_rate,
            weight_decay: 0.0,
            step: 0,
        }
    }

    /// Adam with the standard `(0.9, 0.999, 1e-8)` hyper-parameters.
    pub fn adam(learning_rate: f64) -> Self {
        Optimizer {
            rule: Rule::Adam {
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            },
            learning_rate,
            weight_decay: 0.0,
            step: 0,
        }
    }

    /// Adds decoupled L2 weight decay (applied directly to the value, not
    /// through the gradient; AdamW-style when combined with Adam).
    pub fn with_weight_decay(mut self, weight_decay: f64) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Replaces the learning rate (used by the trainer's decay schedule).
    pub fn set_learning_rate(&mut self, lr: f64) {
        self.learning_rate = lr;
    }

    /// Advances the shared step counter; call once per batch before
    /// updating parameters so Adam's bias correction is consistent.
    pub fn begin_step(&mut self) {
        self.step += 1;
    }

    /// Applies one update to a parameter in place and clears its gradient.
    /// A parameter whose buffers are still unsized (a restored network's)
    /// is sized to zeros first.
    pub fn update(&self, p: &mut Param) {
        p.ensure_state();
        let lr = self.learning_rate;
        // Disjoint field borrows: the zipped loops see every length up
        // front, so they run without per-element bounds checks.
        let value = p.value.as_mut_slice();
        let grad = p.grad.as_slice();
        match self.rule {
            Rule::Sgd => {
                for (v, g) in value.iter_mut().zip(grad) {
                    *v -= lr * g;
                }
            }
            Rule::Momentum { beta } => {
                for ((v, &g), m) in value.iter_mut().zip(grad).zip(p.m.as_mut_slice()) {
                    *m = beta * *m + g;
                    *v -= lr * *m;
                }
            }
            Rule::Adam { beta1, beta2, eps } => {
                let t = self.step.max(1) as i32;
                let bc1 = 1.0 - beta1.powi(t);
                let bc2 = 1.0 - beta2.powi(t);
                let moments = p.m.as_mut_slice().iter_mut().zip(p.v.as_mut_slice());
                for ((v, &g), (m, s)) in value.iter_mut().zip(grad).zip(moments) {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *s = beta2 * *s + (1.0 - beta2) * g * g;
                    let m_hat = *m / bc1;
                    let v_hat = *s / bc2;
                    *v -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
        if self.weight_decay > 0.0 {
            let decay = 1.0 - lr * self.weight_decay;
            for v in p.value.as_mut_slice() {
                *v *= decay;
            }
        }
        p.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noble_linalg::Matrix;

    fn quadratic_step(opt: &mut Optimizer, p: &mut Param) {
        // f(x) = x^2, grad = 2x
        let g: Vec<f64> = p.value.as_slice().iter().map(|v| 2.0 * v).collect();
        p.grad.as_mut_slice().copy_from_slice(&g);
        opt.begin_step();
        opt.update(p);
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut p = Param::new(Matrix::filled(1, 1, 5.0));
        let mut opt = Optimizer::sgd(0.1);
        for _ in 0..100 {
            quadratic_step(&mut opt, &mut p);
        }
        assert!(p.value[(0, 0)].abs() < 1e-6);
    }

    #[test]
    fn momentum_descends_quadratic() {
        let mut p = Param::new(Matrix::filled(1, 1, 5.0));
        let mut opt = Optimizer::sgd_momentum(0.02);
        for _ in 0..300 {
            quadratic_step(&mut opt, &mut p);
        }
        assert!(p.value[(0, 0)].abs() < 1e-4, "got {}", p.value[(0, 0)]);
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut p = Param::new(Matrix::filled(1, 1, 5.0));
        let mut opt = Optimizer::adam(0.3);
        for _ in 0..300 {
            quadratic_step(&mut opt, &mut p);
        }
        assert!(p.value[(0, 0)].abs() < 1e-3, "got {}", p.value[(0, 0)]);
    }

    #[test]
    fn update_clears_gradient() {
        let mut p = Param::new(Matrix::filled(1, 2, 1.0));
        p.grad.as_mut_slice().copy_from_slice(&[1.0, 1.0]);
        let opt = Optimizer::sgd(0.1);
        opt.update(&mut p);
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut p = Param::new(Matrix::filled(1, 1, 10.0));
        let opt = Optimizer::sgd(0.1).with_weight_decay(1.0);
        // Zero gradient: only the decay acts.
        opt.update(&mut p);
        assert!((p.value[(0, 0)] - 9.0).abs() < 1e-12);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Optimizer::sgd(0.5);
        assert_eq!(opt.learning_rate(), 0.5);
        opt.set_learning_rate(0.25);
        assert_eq!(opt.learning_rate(), 0.25);
    }

    #[test]
    fn sgd_exact_first_step() {
        let mut p = Param::new(Matrix::filled(1, 1, 2.0));
        p.grad.as_mut_slice()[0] = 4.0;
        let opt = Optimizer::sgd(0.5);
        opt.update(&mut p);
        assert_eq!(p.value[(0, 0)], 0.0);
    }
}
