//! Lazily sized optimizer state must not change training by one bit.
//!
//! A network restored through [`Mlp::from_specs`] + [`load_parameters`]
//! holds frozen parameters: `0x0` gradient and moment buffers, sized to
//! zeros on first use. Training it has to reproduce, bit for bit, the
//! same network built with eagerly zeroed buffers (`Param::new`, which the
//! builder uses) — every loss, every weight, every moment, under
//! every update rule. CI greps for this suite by name.

use noble_linalg::Matrix;
use noble_nn::{
    load_parameters, save_parameters, Activation, Dense, Loss, Mlp, MseLoss, Optimizer,
};

const STEPS: usize = 25;

fn builder_network(seed: u64) -> Mlp {
    Mlp::builder(5, seed)
        .dense(12)
        .batch_norm()
        .activation(Activation::Tanh)
        .dense(12)
        .batch_norm()
        .activation(Activation::Tanh)
        .dense(3)
        .build()
}

fn data() -> (Matrix, Matrix) {
    let x = Matrix::from_fn(16, 5, |i, j| ((i * 7 + j * 3) % 11) as f64 / 5.0 - 1.0);
    let y = Matrix::from_fn(16, 3, |i, j| ((i + 2 * j) % 5) as f64 / 4.0 - 0.5);
    (x, y)
}

/// A trained source network's blob, so the restored copies start from
/// weights and running statistics that are not the builder's init.
fn trained_blob() -> Vec<u8> {
    let mut source = builder_network(3);
    let (x, y) = data();
    let mut opt = Optimizer::adam(0.01);
    for _ in 0..5 {
        let out = source.forward(&x, true).unwrap();
        let (_, g) = MseLoss.evaluate(&out, &y).unwrap();
        source.backward(&g).unwrap();
        source.apply_gradients(&mut opt);
    }
    save_parameters(&source)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Trains `mlp` for [`STEPS`] full-batch steps, returning the loss bits.
fn train(mlp: &mut Mlp, mut opt: Optimizer) -> Vec<u64> {
    let (x, y) = data();
    (0..STEPS)
        .map(|_| {
            let out = mlp.forward(&x, true).unwrap();
            let (loss, grad) = MseLoss.evaluate(&out, &y).unwrap();
            mlp.backward(&grad).unwrap();
            mlp.apply_gradients(&mut opt);
            loss.to_bits()
        })
        .collect()
}

fn all_unsized(mlp: &Mlp) -> bool {
    mlp.params()
        .iter()
        .all(|p| [&p.grad, &p.m, &p.v].iter().all(|b| b.shape() == (0, 0)))
}

#[test]
fn frozen_params_train_bit_identically_to_eager_ones() {
    let blob = trained_blob();
    let rules = [
        ("sgd", Optimizer::sgd(0.05)),
        ("momentum", Optimizer::sgd_momentum(0.02)),
        ("adam", Optimizer::adam(0.01).with_weight_decay(1e-3)),
    ];
    for (name, opt) in rules {
        // Frozen: the restore path a hydrated model takes.
        let mut frozen = Mlp::from_specs(5, &builder_network(0).layer_specs()).unwrap();
        load_parameters(&mut frozen, &blob).unwrap();
        assert!(all_unsized(&frozen), "{name}: restored network holds state");

        // Eager: builder layers are Param::new, zeroed up front.
        let mut eager = builder_network(99);
        load_parameters(&mut eager, &blob).unwrap();
        assert!(eager
            .params()
            .iter()
            .all(|p| p.grad.shape() == p.value.shape()));

        let frozen_losses = train(&mut frozen, opt.clone());
        let eager_losses = train(&mut eager, opt);
        assert_eq!(frozen_losses, eager_losses, "{name}: loss curves diverged");

        for (i, (f, e)) in frozen.params().iter().zip(eager.params()).enumerate() {
            assert_eq!(bits(&f.value), bits(&e.value), "{name}: tensor {i} value");
            assert_eq!(bits(&f.grad), bits(&e.grad), "{name}: tensor {i} grad");
            assert_eq!(bits(&f.m), bits(&e.m), "{name}: tensor {i} m");
            assert_eq!(bits(&f.v), bits(&e.v), "{name}: tensor {i} v");
        }
        assert_eq!(save_parameters(&frozen), save_parameters(&eager));
    }
}

#[test]
fn released_state_resizes_to_zeros_and_keeps_inference() {
    let blob = trained_blob();
    let mut mlp = builder_network(1);
    load_parameters(&mut mlp, &blob).unwrap();
    train(&mut mlp, Optimizer::adam(0.01));
    let (x, _) = data();
    let before = mlp.predict(&x).unwrap();
    mlp.release_training_state();
    assert!(all_unsized(&mlp));
    assert_eq!(bits(&mlp.predict(&x).unwrap()), bits(&before));
    // The training caches went too: backward needs a new training pass.
    assert!(mlp.backward(&Matrix::zeros(16, 3)).is_err());

    // Training again starts from fresh zero state, exactly like a network
    // whose buffers were allocated eagerly with the same weights.
    let snapshot = save_parameters(&mlp);
    let mut eager = builder_network(2);
    load_parameters(&mut eager, &snapshot).unwrap();
    assert_eq!(
        train(&mut mlp, Optimizer::adam(0.01)),
        train(&mut eager, Optimizer::adam(0.01))
    );
}

#[test]
fn lazily_sized_moments_persist_across_updates() {
    // An absolute reference, independent of any eager copy: two updates
    // of a frozen scalar with gradient 1, checked against the update
    // rules written out by hand. Moments sized on the first update must
    // carry into the second, and the gradient set before an update must
    // survive the sizing.
    let (lr, g) = (0.1, 1.0);
    let step = |opt: &mut Optimizer, layer: &mut Dense| {
        let p = &mut layer.params_mut()[0];
        p.grad = Matrix::filled(1, 1, g);
        opt.begin_step();
        opt.update(p);
        p.value[(0, 0)]
    };
    let frozen = || Dense::from_parts(Matrix::zeros(1, 1), Matrix::zeros(1, 1)).unwrap();

    let (mut layer, mut opt) = (frozen(), Optimizer::sgd_momentum(lr));
    assert_eq!(layer.params_mut()[0].m.shape(), (0, 0));
    let m1 = g;
    let m2 = 0.9 * m1 + g;
    assert_eq!(step(&mut opt, &mut layer).to_bits(), (-(lr * m1)).to_bits());
    assert_eq!(
        step(&mut opt, &mut layer).to_bits(),
        (-(lr * m1) - lr * m2).to_bits()
    );

    let (mut layer, mut opt) = (frozen(), Optimizer::adam(lr));
    let (b1, b2, eps) = (0.9f64, 0.999f64, 1e-8);
    let (mut m, mut v, mut x) = (0.0, 0.0, 0.0);
    for t in 1..=2 {
        m = b1 * m + (1.0 - b1) * g;
        v = b2 * v + (1.0 - b2) * g * g;
        let m_hat = m / (1.0 - b1.powi(t));
        let v_hat = v / (1.0 - b2.powi(t));
        x -= lr * m_hat / (v_hat.sqrt() + eps);
        assert_eq!(
            step(&mut opt, &mut layer).to_bits(),
            x.to_bits(),
            "adam step {t}"
        );
    }
}
