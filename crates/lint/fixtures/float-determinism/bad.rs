//! float-determinism bad fixture: an f32 truncation, a hash-ordered
//! float reduction, three ways to fuse a multiply into an add, and two
//! calls into the host libm's tanh in kernel-style code.
use std::collections::HashMap;

pub fn truncate(x: f64) -> f32 {
    x as f32
}

pub fn reduce(weights: &HashMap<u64, f64>) -> f64 {
    weights.values().sum()
}

pub fn fused(a: f64, b: f64, c: f64) -> f64 {
    a.mul_add(b, c)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub fn fused_lanes(
    a: std::arch::x86_64::__m256d,
    b: std::arch::x86_64::__m256d,
    c: std::arch::x86_64::__m256d,
) -> std::arch::x86_64::__m256d {
    std::arch::x86_64::_mm256_fmadd_pd(a, b, c)
}

pub fn libm_activation(x: f64) -> f64 {
    x.tanh()
}

pub fn libm_activation_by_path(xs: &mut [f64]) {
    for x in xs {
        *x = f64::tanh(*x);
    }
}
