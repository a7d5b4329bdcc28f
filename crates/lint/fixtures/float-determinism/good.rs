//! float-determinism good fixture: f64 end to end, ordered reduction,
//! the deterministic tanh, and a gated fast path with a reasoned allow
//! — none may fire.
use std::collections::BTreeMap;

pub fn keep_exact(x: f64) -> f64 {
    x * 2.0
}

pub fn reduce(weights: &BTreeMap<u64, f64>) -> f64 {
    weights.values().sum()
}

pub fn gated_fast_path(x: f64) -> f32 {
    // noble-lint: allow(float-determinism, "fixture: explicit accuracy-gated fast path that documents the bits it trades")
    x as f32
}

pub fn separate_multiply_and_add(a: f64, b: f64, c: f64) -> f64 {
    a * b + c
}

pub fn fused_outside_the_reference(a: f64, b: f64, c: f64) -> f64 {
    // noble-lint: allow(float-determinism, "fixture: a reduced-precision helper whose single rounding is covered by its tier's tolerance gate, never compared bitwise")
    a.mul_add(b, c)
}

/// The one definition: a tanh from IEEE arithmetic alone.
pub fn tanh(x: f64) -> f64 {
    let e = (-2.0 * x.abs()).exp();
    ((1.0 - e) / (1.0 + e)).copysign(x)
}

pub fn deterministic_activation(xs: &mut [f64]) {
    for x in xs {
        *x = tanh(*x);
    }
}
