//! `float-determinism`: exact-by-construction kernels stay exact.

use super::{is_method_call, receiver_of, Lint};
use crate::diagnostics::{Finding, Severity};
use crate::lexer::TokenKind;
use crate::policy::Policy;
use crate::source::SourceFile;

use super::unordered_iteration::ITER_METHODS;

const REDUCERS: [&str; 3] = ["sum", "fold", "product"];

/// Name fragments of the x86 fused multiply-add intrinsics
/// (`_mm256_fmadd_pd`, `_mm_fnmsub_sd`, `_mm256_fmaddsub_pd`, …).
const FMA_INTRINSICS: [&str; 4] = ["_fmadd", "_fmsub", "_fnmadd", "_fnmsub"];

/// Flags `as f32` narrowing casts, float reductions over unordered
/// iterators, and fused multiply-add in kernel/decode code.
///
/// The matmul kernels and decode paths are the *bit-exact reference*
/// every serving-parity and snapshot-roundtrip test pins against
/// (f64 end to end, shape/thread-invariant dispatch). Three silent ways
/// to lose that: truncating through `f32` mid-pipeline, reducing
/// floats in a container-defined order (float addition does not
/// reassociate), and fusing a multiply into an add. FMA rounds once
/// where the reference rounds twice, so `.mul_add(`, an FMA intrinsic or
/// a `target_feature(enable = "…fma…")` would make the SIMD kernel
/// disagree with its portable twin. The f32 fast path lives in
/// path-scoped modules behind explicit accuracy gates; it must not leak
/// into the reference kernels.
pub struct FloatDeterminism;

impl Lint for FloatDeterminism {
    fn name(&self) -> &'static str {
        "float-determinism"
    }

    fn summary(&self) -> &'static str {
        "no f32-truncating casts, hash-ordered float reductions or FMA in kernel/decode code"
    }

    fn contract(&self) -> &'static str {
        "kernels and decode paths are exact-by-construction f64 — the reference the \
         parity suites pin bit-identity against (ARCHITECTURE.md, determinism contracts)"
    }

    fn check(&self, file: &SourceFile, _policy: &Policy) -> Vec<Finding> {
        let mut findings = Vec::new();
        for ci in 0..file.code.len() {
            if file.in_test[ci] {
                continue;
            }
            // `<expr> as f32` — a truncation the f64 reference never does.
            if file.is_ident(ci, "as") && ci + 1 < file.code.len() && file.is_ident(ci + 1, "f32") {
                let tok = file.tok(ci);
                findings.push(Finding {
                    lint: self.name(),
                    file: file.path.clone(),
                    line: tok.line,
                    col: tok.col,
                    width: 6,
                    message: "`as f32` narrowing cast in exact-kernel code".into(),
                    contract: self.contract(),
                    help: "keep the reference path f64; an intentional f32 fast path \
                           belongs behind an accuracy gate with a reasoned allow"
                        .into(),
                    severity: Severity::Error,
                });
                continue;
            }
            // Fused multiply-add: `.mul_add(`, an FMA intrinsic, or a
            // `target_feature(enable = "…fma…")` that lets one in.
            if let Some((width, what)) = fused_multiply_add(file, ci) {
                let tok = file.tok(ci);
                findings.push(Finding {
                    lint: self.name(),
                    file: file.path.clone(),
                    line: tok.line,
                    col: tok.col,
                    width,
                    message: format!("{what} in exact-kernel code: FMA rounds once where the reference rounds twice"),
                    contract: self.contract(),
                    help: "keep the multiply and the add separate (`_mm256_mul_pd` then \
                           `_mm256_add_pd`, or `a * b + c`) so every output keeps the \
                           portable kernel's operation sequence"
                        .into(),
                    severity: Severity::Error,
                });
                continue;
            }
            // `hash.iter()…sum()/fold()/product()` — a reduction whose
            // operand order the hasher picks.
            if ITER_METHODS.iter().any(|m| is_method_call(file, ci, m)) {
                let Some(receiver) = receiver_of(file, ci) else {
                    continue;
                };
                if !file.hash_names.contains(&receiver) {
                    continue;
                }
                // Scan the rest of the method chain (until the statement
                // ends) for a reduction.
                let mut depth = 0i32;
                let mut k = ci + 1;
                while k < file.code.len() {
                    let t = file.tok(k);
                    if t.kind == TokenKind::Punct {
                        match t.text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => {
                                depth -= 1;
                                if depth < 0 {
                                    break;
                                }
                            }
                            ";" if depth == 0 => break,
                            _ => {}
                        }
                    } else if depth == 0 && REDUCERS.iter().any(|r| is_method_call(file, k, r)) {
                        let tok = file.tok(k);
                        findings.push(Finding {
                            lint: self.name(),
                            file: file.path.clone(),
                            line: tok.line,
                            col: tok.col,
                            width: tok.text.chars().count() as u32,
                            message: format!(
                                "float reduction `.{}()` over hash-ordered `{receiver}` — \
                                 addition order is hasher-defined",
                                tok.text
                            ),
                            contract: self.contract(),
                            help: "iterate a BTree container (or sort into a Vec) so the \
                                   reduction order is fixed"
                                .into(),
                            severity: Severity::Error,
                        });
                        break;
                    }
                    k += 1;
                }
            }
        }
        findings
    }
}

/// Whether the code token at `ci` starts a fused multiply-add: returns
/// the highlight width and a description of what was found.
fn fused_multiply_add(file: &SourceFile, ci: usize) -> Option<(u32, String)> {
    let tok = file.tok(ci);
    if tok.kind != TokenKind::Ident {
        return None;
    }
    // `x.mul_add(y, z)` or `f64::mul_add(x, y, z)`.
    let fused_call = file.is_ident(ci, "mul_add")
        && ci > 0
        && (file.is_punct(ci - 1, '.') || file.is_punct(ci - 1, ':'))
        && ci + 1 < file.code.len()
        && file.is_punct(ci + 1, '(');
    if fused_call {
        return Some((7, "`mul_add`".into()));
    }
    if FMA_INTRINSICS.iter().any(|f| tok.text.contains(f)) {
        return Some((
            tok.text.chars().count() as u32,
            format!("FMA intrinsic `{}`", tok.text),
        ));
    }
    // `target_feature(enable = "avx2,fma")`
    let enables_fma = file.is_ident(ci, "target_feature")
        && ci + 4 < file.code.len()
        && file.is_punct(ci + 1, '(')
        && file.is_ident(ci + 2, "enable")
        && file.is_punct(ci + 3, '=')
        && file.tok(ci + 4).kind == TokenKind::Str
        && file.tok(ci + 4).text.contains("fma");
    enables_fma.then(|| {
        (
            14,
            format!("`target_feature(enable = {})`", file.tok(ci + 4).text),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_each_way_to_fuse_a_multiply_into_an_add() {
        let src = r#"fn f(a: f64) -> f64 { a.mul_add(2.0, 1.0) + f64::mul_add(a, 2.0, 1.0) }
#[target_feature(enable = "avx2,fma")]
fn g() { _mm256_fmadd_pd(x, y, z); _mm_fnmsub_sd(x, y, z); }
#[target_feature(enable = "avx2")]
fn h(a: f64) -> f64 { let mul_add = a * 2.0 + 1.0; mul_add } // a.mul_add(b, c)
"#;
        let file = SourceFile::parse("kernel.rs", src);
        let policy = Policy::everywhere(&["float-determinism"]);
        let found: Vec<(u32, String)> = FloatDeterminism
            .check(&file, &policy)
            .into_iter()
            .map(|f| (f.line, f.message))
            .collect();
        let lines: Vec<u32> = found.iter().map(|(line, _)| *line).collect();
        assert_eq!(lines, [1, 1, 2, 3, 3], "{found:?}");
        assert!(found[2].1.contains("avx2,fma"), "{found:?}");
        assert!(found[3].1.contains("_mm256_fmadd_pd"), "{found:?}");
    }
}
