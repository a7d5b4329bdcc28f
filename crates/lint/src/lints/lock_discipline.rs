//! `lock-discipline`: guard scopes vs. channels and the declared order.

use super::{is_method_call, receiver_of, Lint};
use crate::diagnostics::{Finding, Severity};
use crate::lexer::TokenKind;
use crate::policy::Policy;
use crate::source::SourceFile;

const CHANNEL_OPS: [&str; 4] = ["send", "recv", "try_recv", "recv_timeout"];

/// Tracks mutex-guard scopes through the token stream and flags:
///
/// 1. a channel `send`/`recv` while any guard is held — a blocked
///    channel op under a lock is the classic serving-stack deadlock
///    (the deliberate marker-ordering sends in the paged engine carry
///    reasoned allows citing the no-drop argument);
/// 2. acquiring a lock that the declared order
///    (`[lock-discipline] order` in `noble-lint.toml`) places *before*
///    one already held — the PR 5/6 deadlock-freedom argument is
///    exactly that the catalog/slots locks are always outermost;
/// 3. re-acquiring a lock whose guard is still live (self-deadlock).
///
/// Acquisition sites are `.lock()` calls and the `relock(&…)` poisoning
/// recovery helper; a guard's name is the receiver field (`self.slots
/// .lock()` → `slots`). `let`-bound guards live to the end of their
/// block (or an explicit `drop(guard)`); temporary guards
/// (`relock(&x).field += 1;`) die at the statement's `;`. Condvar
/// `wait`/`wait_timeout` atomically release and re-acquire, so they are
/// neutral here. The tracker is intra-function by construction — guard
/// state cannot leak across `fn` items because every body closes its
/// braces.
pub struct LockDiscipline;

struct GuardState {
    /// Receiver field name (`slots`, `state`, …).
    name: String,
    /// `let` binding holding the guard, when one exists.
    binding: Option<String>,
    /// Brace depth at acquisition (scope tracking).
    depth: i32,
    /// Acquisition line, cited in findings.
    line: u32,
}

impl Lint for LockDiscipline {
    fn name(&self) -> &'static str {
        "lock-discipline"
    }

    fn summary(&self) -> &'static str {
        "no channel ops under a lock guard; declared lock order never inverted"
    }

    fn contract(&self) -> &'static str {
        "deadlock freedom by construction: locks in declared order only (slots/state \
         before session shards before counters), channel waits never under a guard \
         without a documented no-drop argument (ARCHITECTURE.md, threading model)"
    }

    fn check(&self, file: &SourceFile, policy: &Policy) -> Vec<Finding> {
        let mut findings = Vec::new();
        let order = &policy.lock_order;
        let mut guards: Vec<GuardState> = Vec::new();
        let mut depth = 0i32;
        for ci in 0..file.code.len() {
            let tok = file.tok(ci);
            if tok.kind == TokenKind::Punct {
                match tok.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        guards.retain(|g| g.depth <= depth);
                    }
                    ";" => {
                        let d = depth;
                        guards.retain(|g| !(g.binding.is_none() && g.depth >= d));
                    }
                    _ => {}
                }
                continue;
            }
            if file.in_test[ci] {
                continue;
            }
            // `drop(binding)` releases a named guard early.
            if file.is_ident(ci, "drop") && ci + 2 < file.code.len() && file.is_punct(ci + 1, '(') {
                let dropped = file.tok(ci + 2).text.clone();
                guards.retain(|g| g.binding.as_deref() != Some(dropped.as_str()));
                continue;
            }
            // Acquisitions: `.lock()` or `relock(&path)`.
            let acquired = if is_method_call(file, ci, "lock") {
                receiver_of(file, ci)
            } else if file.is_ident(ci, "relock")
                && ci + 1 < file.code.len()
                && file.is_punct(ci + 1, '(')
                && (ci == 0 || !file.is_punct(ci - 1, '.'))
            {
                relock_argument(file, ci)
            } else {
                None
            };
            if let Some(name) = acquired {
                for held in &guards {
                    if held.name == name {
                        findings.push(self.finding(
                            file,
                            file.tok(ci),
                            format!(
                                "`{name}` re-acquired while its guard from line {} is \
                                 still live (self-deadlock)",
                                held.line
                            ),
                        ));
                    } else if let (Some(new_rank), Some(held_rank)) = (
                        order.iter().position(|o| o == &name),
                        order.iter().position(|o| o == &held.name),
                    ) {
                        if new_rank < held_rank {
                            findings.push(self.finding(
                                file,
                                file.tok(ci),
                                format!(
                                    "`{name}` acquired while holding `{}` (line {}) — \
                                     declared order puts `{name}` first",
                                    held.name, held.line
                                ),
                            ));
                        }
                    }
                }
                guards.push(GuardState {
                    name,
                    binding: binding_of(file, ci),
                    depth,
                    line: file.tok(ci).line,
                });
                continue;
            }
            // Channel ops under any held guard.
            if CHANNEL_OPS.iter().any(|m| is_method_call(file, ci, m)) {
                if let Some(held) = guards.last() {
                    let tok = file.tok(ci);
                    findings.push(self.finding(
                        file,
                        tok,
                        format!(
                            "channel `.{}()` while holding the `{}` guard from line {}",
                            tok.text, held.name, held.line
                        ),
                    ));
                }
            }
        }
        findings
    }
}

impl LockDiscipline {
    fn finding(&self, file: &SourceFile, tok: &crate::lexer::Token, message: String) -> Finding {
        Finding {
            lint: self.name(),
            file: file.path.clone(),
            line: tok.line,
            col: tok.col,
            width: tok.text.chars().count() as u32,
            message,
            contract: self.contract(),
            help: "shrink the guard scope (drop before the channel op / second lock), \
                   acquire in declared order, or document the no-drop argument with a \
                   reasoned allow"
                .into(),
            severity: Severity::Error,
        }
    }
}

/// The lock name inside `relock(&self.slots)`-style calls: the last
/// identifier at bracket depth 0 before the closing paren.
fn relock_argument(file: &SourceFile, ci: usize) -> Option<String> {
    let mut k = ci + 2;
    let mut paren = 1i32;
    let mut bracket = 0i32;
    let mut last: Option<String> = None;
    while k < file.code.len() {
        let t = file.tok(k);
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => {
                    paren -= 1;
                    if paren == 0 {
                        break;
                    }
                }
                "[" => bracket += 1,
                "]" => bracket -= 1,
                _ => {}
            }
        } else if t.kind == TokenKind::Ident && paren == 1 && bracket == 0 {
            last = Some(t.text.clone());
        }
        k += 1;
    }
    last
}

/// The `let` binding receiving the guard acquired at `ci`, found by
/// scanning back to the statement start for `… <ident> = …`.
fn binding_of(file: &SourceFile, ci: usize) -> Option<String> {
    let mut k = ci;
    while k > 0 {
        k -= 1;
        let t = file.tok(k);
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                ";" | "{" | "}" => return None,
                "=" => {
                    let b = file.tok(k.checked_sub(1)?);
                    if b.kind == TokenKind::Ident {
                        return Some(b.text.clone());
                    }
                    return None;
                }
                _ => {}
            }
        }
        if ci - k > 48 {
            return None;
        }
    }
    None
}
