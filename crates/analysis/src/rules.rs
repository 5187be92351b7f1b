//! The named determinism rules.
//!
//! Every rule reports `file:line` diagnostics and can be suppressed for a
//! single line with `// aq-lint: allow(<rule>)` — either trailing on the
//! offending line or standalone on the line directly above it. Rules are
//! source-level heuristics, deliberately dependency-free; they catch the
//! patterns that have historically corrupted reproduction runs, not every
//! conceivable variant.

use crate::scan::{ScannedLine, Token};

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name as used in diagnostics and `aq-lint: allow(...)`.
    pub name: &'static str,
    /// One-line rationale.
    pub summary: &'static str,
}

/// All rules, in evaluation order: the line rules, then `unused-allow`,
/// which has no line check or scope of its own — [`crate::lint_file`]
/// reports it for every allow the line rules left unconsumed.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-hash-collections",
        summary: "std HashMap/HashSet iteration order is nondeterministic; \
                  use BTreeMap/BTreeSet or index-keyed Vecs in sim-state crates",
    },
    RuleInfo {
        name: "no-wall-clock",
        summary: "Instant::now/SystemTime::now leak host time into results — \
                  simulation time is the only clock; only the harness pool \
                  supervisor (crates/harness/src/pool.rs) may read the wall clock",
    },
    RuleInfo {
        name: "no-float-eq",
        summary: "==/!= on floating-point values is representation-fragile; \
                  compare against an epsilon or use integer arithmetic",
    },
    RuleInfo {
        name: "no-narrowing-cast",
        summary: "`as u32`/`as i32` (and `as usize` on byte/time counters, \
                  which is 32-bit on 32-bit targets) silently truncates in \
                  core and netsim; use u64 or an explicit checked/masked conversion",
    },
    RuleInfo {
        name: "no-thread-in-sim",
        summary: "thread spawning and channels inside sim-state crates break the \
                  single-threaded determinism contract; run-level parallelism \
                  lives only in crates/harness",
    },
    RuleInfo {
        name: "no-cross-shard-mutation",
        summary: "the sharded-simulation driver may synchronize only through \
                  Mutex-guarded shard cells, barriers, and scoped threads; \
                  atomics, RwLock, Condvar, channels, unscoped spawns, \
                  `static mut`, and `unsafe` invite cross-shard mutation \
                  that scheduling order can observe",
    },
    RuleInfo {
        name: "unused-allow",
        summary: "an `aq-lint: allow(...)` that no longer suppresses any \
                  diagnostic is stale and hides future violations on its line; \
                  delete it",
    },
];

/// Look up a rule by name.
pub fn rule(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Whether `rule` applies to the file at workspace-relative `path`
/// (forward-slash separated).
pub fn in_scope(rule: &str, path: &str) -> bool {
    /// The one file in sim-state crates allowed to touch threads: the
    /// sharded-simulation driver, scope of `no-cross-shard-mutation`.
    const SHARD_DRIVER_SRC: &str = "crates/netsim/src/shard.rs";
    const SIM_STATE_SRC: &[&str] = &[
        "crates/core/src/",
        "crates/netsim/src/",
        "crates/transport/src/",
        "crates/baselines/src/",
        "crates/workloads/src/",
    ];
    match rule {
        // Iteration-order and float-equality nondeterminism matter where
        // simulator/switch state lives and evolves.
        "no-hash-collections" | "no-float-eq" => SIM_STATE_SRC.iter().any(|p| path.starts_with(p)),
        // Simulation results must be a pure function of (scenario, seed),
        // so host time is banned everywhere but the one sanctioned
        // wall-clock reader: the sweep pool's supervisor, which enforces
        // per-run wall-clock budgets.
        "no-wall-clock" => path != "crates/harness/src/pool.rs",
        // Byte and time counters are 64-bit in core and netsim; a stray
        // 32-bit cast wraps after ~4 GB or ~4 s.
        "no-narrowing-cast" => {
            path.starts_with("crates/core/src/") || path.starts_with("crates/netsim/src/")
        }
        // Every simulation run is a single-threaded event loop; scheduling
        // nondeterminism can only enter through threads or channels. The
        // sweep harness (crates/harness) parallelizes at whole-run
        // granularity and is deliberately outside this scope. The one
        // in-simulator exception is the sharded driver (netsim's
        // `shard.rs`), which owns run-level parallelism and is policed by
        // the stricter `no-cross-shard-mutation` rule instead; the scopes
        // are disjoint so a violation carries exactly one rule name.
        "no-thread-in-sim" => {
            SIM_STATE_SRC.iter().any(|p| path.starts_with(p)) && path != SHARD_DRIVER_SRC
        }
        // The sharded driver is allowed threads, but only the
        // deterministic synchronization vocabulary: Mutex-guarded shard
        // cells, barriers, scoped threads.
        "no-cross-shard-mutation" => path == SHARD_DRIVER_SRC,
        _ => false,
    }
}

/// Run one rule against one line of tokenized code. Returns a message for
/// each violation found on the line.
pub fn check_line(rule: &str, toks: &[Token]) -> Vec<String> {
    match rule {
        "no-hash-collections" => banned_idents(toks, &["HashMap", "HashSet"]),
        "no-wall-clock" => banned_calls(toks, &["Instant", "SystemTime"], "now"),
        "no-float-eq" => float_eq(toks),
        "no-narrowing-cast" => narrowing_cast(toks),
        "no-thread-in-sim" => thread_in_sim(toks),
        "no-cross-shard-mutation" => cross_shard_mutation(toks),
        _ => Vec::new(),
    }
}

fn banned_idents(toks: &[Token], banned: &[&str]) -> Vec<String> {
    toks.iter()
        .filter_map(Token::ident)
        .filter(|id| banned.contains(id))
        .map(|id| format!("use of `{id}`"))
        .collect()
}

/// Flags `Type::method` token triples for any of the given types.
fn banned_calls(toks: &[Token], types: &[&str], method: &str) -> Vec<String> {
    let mut out = Vec::new();
    for w in toks.windows(3) {
        if let [Token::Ident(t), Token::Punct(p), Token::Ident(m)] = w {
            if p == "::" && m == method && types.contains(&t.as_str()) {
                out.push(format!("call of `{t}::{m}`"));
            }
        }
    }
    out
}

/// Flags `==` / `!=` with a float-typed operand, detected as: a float
/// literal on either side, an `as f64`/`as f32` cast directly before the
/// operator, or an `f64::CONST` / `f32::CONST` path adjacent to it. (A
/// comparison of two float *variables* is type-blind to a source linter
/// and is left to `clippy::float_cmp`.)
fn float_eq(toks: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Token::Punct(op) = t else { continue };
        if op != "==" && op != "!=" {
            continue;
        }
        let before = &toks[..i];
        let after = &toks[i + 1..];
        if float_operand_ending(before) || float_operand_starting(after) {
            out.push(format!("`{op}` on a floating-point operand"));
        }
    }
    out
}

/// Does a float-typed expression end at the end of `toks`?
fn float_operand_ending(toks: &[Token]) -> bool {
    match toks {
        [.., t] if t.is_float_literal() => true,
        // `expr as f64 ==`
        [.., Token::Ident(a), Token::Ident(f)] if a == "as" && (f == "f64" || f == "f32") => true,
        // `f64::NAN ==`
        [.., Token::Ident(f), Token::Punct(c), Token::Ident(_)]
            if c == "::" && (f == "f64" || f == "f32") =>
        {
            true
        }
        _ => false,
    }
}

/// Does a float-typed expression start at the beginning of `toks`?
fn float_operand_starting(toks: &[Token]) -> bool {
    match toks {
        [t, ..] if t.is_float_literal() => true,
        // `== f64::NAN`
        [Token::Ident(f), Token::Punct(c), ..] if c == "::" && (f == "f64" || f == "f32") => true,
        _ => false,
    }
}

/// Flags thread spawning (`thread::spawn`, `thread::scope`) and channel
/// concurrency (`mpsc`, `JoinHandle`). Method-call forms like
/// `scope.spawn(..)` only occur inside a `thread::scope` block, which is
/// already flagged at its opening line.
fn thread_in_sim(toks: &[Token]) -> Vec<String> {
    let mut out = banned_calls(toks, &["thread"], "spawn");
    out.extend(banned_calls(toks, &["thread"], "scope"));
    out.extend(banned_idents(toks, &["mpsc", "JoinHandle"]));
    out
}

/// Flags every shared-mutability primitive except the sharded driver's
/// sanctioned vocabulary (Mutex, Barrier, `thread::scope` + `scope.spawn`):
/// atomics (`Atomic*`), `RwLock`, `Condvar`, `mpsc`, `JoinHandle`,
/// unscoped `thread::spawn`, `static mut`, and `unsafe`. Any of these lets
/// one shard observe another mid-round, which turns worker scheduling
/// order into simulation input.
fn cross_shard_mutation(toks: &[Token]) -> Vec<String> {
    let mut out = banned_calls(toks, &["thread"], "spawn");
    out.extend(banned_idents(
        toks,
        &["RwLock", "Condvar", "mpsc", "JoinHandle", "unsafe"],
    ));
    out.extend(
        toks.iter()
            .filter_map(Token::ident)
            .filter(|id| id.starts_with("Atomic"))
            .map(|id| format!("use of atomic `{id}`")),
    );
    for w in toks.windows(2) {
        if let [Token::Ident(a), Token::Ident(b)] = w {
            if a == "static" && b == "mut" {
                out.push("`static mut` shared state".to_string());
            }
        }
    }
    out
}

/// Flags `as u32` / `as i32` always, and `as usize` when the cast source
/// looks like a byte or time counter (`usize` is 32-bit on 32-bit
/// targets, so such casts truncate exactly like `as u32` there).
fn narrowing_cast(toks: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, w) in toks.windows(2).enumerate() {
        if let [Token::Ident(a), Token::Ident(ty)] = w {
            if a != "as" {
                continue;
            }
            if ty == "u32" || ty == "i32" {
                out.push(format!("narrowing `as {ty}` cast"));
            } else if ty == "usize" && counterish_cast_source(&toks[..i]) {
                out.push(
                    "`as usize` on a byte/time counter (32-bit on 32-bit targets)".to_string(),
                );
            }
        }
    }
    out
}

/// Does the expression being cast (tokens before the `as`, back to the
/// nearest statement/assignment boundary) mention a byte- or time-counter
/// identifier? Plain index casts (`id.0 as usize`) stay clean.
fn counterish_cast_source(before: &[Token]) -> bool {
    const COUNTERISH: &[&str] = &["bytes", "nanos", "micros", "millis"];
    for t in before.iter().rev() {
        match t {
            Token::Punct(p) if p == "=" || p == ";" => return false,
            Token::Ident(id) if COUNTERISH.iter().any(|k| id.contains(k)) => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// One `aq-lint: allow(<rule>)` directive occurrence — the unit the
/// `unused-allow` audit works on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// 1-based line the directive comment sits on (diagnostic anchor).
    pub directive_line: usize,
    /// 1-based line the directive guards (the directive's own line for a
    /// trailing comment, the next code line for a standalone one). `0` if
    /// a standalone directive is followed by no code at all — such an
    /// entry can never suppress anything.
    pub effective_line: usize,
    /// The rule name inside `allow(...)`.
    pub rule: String,
}

/// Every allow directive in the file, in source order: a trailing comment
/// suppresses its own line; a standalone comment line suppresses the next
/// line that has code on it (and chains across further standalone comment
/// lines).
pub fn allow_ledger(lines: &[ScannedLine]) -> Vec<AllowEntry> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    // Indices into `entries` still waiting for their guarded code line.
    let mut pending: Vec<usize> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let here = parse_allows(&line.comment);
        let has_code = !line.code.trim().is_empty();
        for rule in here {
            let e = AllowEntry {
                directive_line: idx + 1,
                effective_line: if has_code { idx + 1 } else { 0 },
                rule,
            };
            if !has_code {
                pending.push(entries.len());
            }
            entries.push(e);
        }
        if has_code {
            for p in pending.drain(..) {
                entries[p].effective_line = idx + 1;
            }
        }
    }
    entries
}

/// Extract rule names from an `aq-lint: allow(a, b)` directive. The
/// directive must sit at the *start* of the comment (after the comment
/// markers), so prose that merely mentions the syntax — like this doc
/// comment — is not a directive.
fn parse_allows(comment: &str) -> Vec<String> {
    let body = comment.trim_start_matches(['/', '!', '*', ' ', '\t']);
    let Some(rest) = body.strip_prefix("aq-lint:") else {
        return Vec::new();
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Vec::new();
    };
    let Some(close) = rest.find(')') else {
        return Vec::new();
    };
    rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{scan, tokens};

    fn msgs(rule: &str, code: &str) -> Vec<String> {
        check_line(rule, &tokens(code))
    }

    #[test]
    fn hash_collections_fire_on_use_and_type_position() {
        assert!(!msgs("no-hash-collections", "use std::collections::HashMap;").is_empty());
        assert!(!msgs("no-hash-collections", "x: HashSet<u32>,").is_empty());
        assert!(msgs("no-hash-collections", "x: BTreeMap<u32, u64>,").is_empty());
    }

    #[test]
    fn wall_clock_fires_on_now_only() {
        assert!(!msgs("no-wall-clock", "let t = Instant::now();").is_empty());
        assert!(!msgs("no-wall-clock", "let t = SystemTime::now();").is_empty());
        assert!(msgs("no-wall-clock", "let d: Instant = cached;").is_empty());
        // The sim's own Time/Duration vocabulary must not trip it.
        assert!(msgs("no-wall-clock", "let t = sim.now();").is_empty());
        assert!(msgs("no-wall-clock", "let t = Time::from_millis(3);").is_empty());
    }

    #[test]
    fn float_eq_heuristics() {
        assert!(!msgs("no-float-eq", "if x == 0.0 {").is_empty());
        assert!(!msgs("no-float-eq", "if 1e-9 != y {").is_empty());
        assert!(!msgs("no-float-eq", "if a as f64 == b {").is_empty());
        assert!(!msgs("no-float-eq", "if v == f64::NAN {").is_empty());
        assert!(msgs("no-float-eq", "if a == b {").is_empty());
        assert!(msgs("no-float-eq", "if n == 10 {").is_empty());
        assert!(msgs("no-float-eq", "let ok = x <= 1.0;").is_empty());
    }

    #[test]
    fn narrowing_cast_flags_u32_and_i32_only() {
        assert!(!msgs("no-narrowing-cast", "let x = big as u32;").is_empty());
        assert!(!msgs("no-narrowing-cast", "let x = big as i32;").is_empty());
        assert!(msgs("no-narrowing-cast", "let x = small as u64;").is_empty());
    }

    #[test]
    fn narrowing_cast_flags_usize_on_counters_only() {
        // Byte/time counters truncate through `as usize` on 32-bit hosts.
        assert!(!msgs("no-narrowing-cast", "let i = (t.as_nanos() / w) as usize;").is_empty());
        assert!(!msgs("no-narrowing-cast", "let n = total_bytes as usize;").is_empty());
        assert!(!msgs("no-narrowing-cast", "let n = dur.as_millis() as usize;").is_empty());
        // Plain index casts stay clean.
        assert!(msgs(
            "no-narrowing-cast",
            "let s = self.slots.get(id.0 as usize);"
        )
        .is_empty());
        assert!(msgs("no-narrowing-cast", "let r = (rank).clamp(1, n) as usize;").is_empty());
        // A counter earlier in the line but behind a statement/assignment
        // boundary does not taint the cast.
        assert!(msgs(
            "no-narrowing-cast",
            "let b = tx_bytes; let i = idx as usize;"
        )
        .is_empty());
    }

    #[test]
    fn allow_ledger_tracks_directive_and_effective_lines() {
        let lines = scan(
            "let a = x as u32; // aq-lint: allow(no-narrowing-cast)\n\
             // aq-lint: allow(no-wall-clock)\n\
             \n\
             let b = Instant::now();\n\
             // aq-lint: allow(no-float-eq)\n",
        );
        let ledger = allow_ledger(&lines);
        assert_eq!(ledger.len(), 3);
        assert_eq!((ledger[0].directive_line, ledger[0].effective_line), (1, 1));
        assert_eq!(ledger[0].rule, "no-narrowing-cast");
        // Standalone directive guards the next code line, across blanks.
        assert_eq!((ledger[1].directive_line, ledger[1].effective_line), (2, 4));
        // A trailing directive with no code after it guards nothing.
        assert_eq!((ledger[2].directive_line, ledger[2].effective_line), (5, 0));
    }

    #[test]
    fn thread_in_sim_flags_spawn_scope_and_channels() {
        assert!(!msgs("no-thread-in-sim", "std::thread::spawn(move || run());").is_empty());
        assert!(!msgs("no-thread-in-sim", "thread::scope(|s| {").is_empty());
        assert!(!msgs("no-thread-in-sim", "use std::sync::mpsc;").is_empty());
        assert!(!msgs("no-thread-in-sim", "let h: JoinHandle<()> = x;").is_empty());
        // The sim's own vocabulary must not trip it.
        assert!(msgs("no-thread-in-sim", "self.scheduler.spawn_flow(f);").is_empty());
        assert!(msgs("no-thread-in-sim", "let scope = Scope::Ingress;").is_empty());
    }

    #[test]
    fn cross_shard_mutation_flags_everything_but_mutex_and_barrier() {
        for line in [
            "let n = AtomicUsize::new(0);",
            "use std::sync::atomic::AtomicU64;",
            "let flag: AtomicBool = AtomicBool::new(false);",
            "let l = RwLock::new(state);",
            "let cv = Condvar::new();",
            "let (tx, rx) = mpsc::channel();",
            "let h: JoinHandle<()> = handle;",
            "std::thread::spawn(move || run());",
            "static mut COUNTER: u64 = 0;",
            "unsafe { *ptr += 1 }",
        ] {
            assert!(
                !msgs("no-cross-shard-mutation", line).is_empty(),
                "must fire on: {line}"
            );
        }
        // The sanctioned vocabulary stays clean.
        for line in [
            "let cells: Vec<Mutex<Simulator>> = Vec::new();",
            "let b = Barrier::new(jobs + 1);",
            "std::thread::scope(|scope| {",
            "scope.spawn(|| loop {",
            "let mut cursor = claim.lock().expect(\"claim lock poisoned\");",
        ] {
            assert!(
                msgs("no-cross-shard-mutation", line).is_empty(),
                "must not fire on: {line}"
            );
        }
    }

    #[test]
    fn scope_boundaries() {
        assert!(in_scope("no-hash-collections", "crates/core/src/table.rs"));
        assert!(!in_scope(
            "no-hash-collections",
            "crates/core/tests/prop_gap.rs"
        ));
        // The pool supervisor's watchdog is the workspace's one sanctioned
        // wall-clock read. Everything else is in scope: each sim-state
        // crate, their tests, the bench crate, the rest of the harness,
        // the vendored stubs, examples, and the out-of-workspace benchmark
        // package (whose one read, in `clock.rs`, carries an allow).
        for path in [
            "crates/core/src/table.rs",
            "crates/netsim/src/sim.rs",
            "crates/transport/src/sender.rs",
            "crates/baselines/src/drr.rs",
            "crates/workloads/src/websearch.rs",
            "crates/netsim/tests/conservation.rs",
            "crates/bench/src/lib.rs",
            "crates/harness/src/sweep.rs",
            "vendor/proptest/src/lib.rs",
            "examples/scalability.rs",
            "benchmark/src/clock.rs",
        ] {
            assert!(in_scope("no-wall-clock", path), "{path}");
        }
        assert!(!in_scope("no-wall-clock", "crates/harness/src/pool.rs"));
        // `unused-allow` is an audit over the other rules' escapes, not a
        // line rule: it is in scope nowhere.
        assert!(!in_scope("unused-allow", "crates/core/src/table.rs"));
        // The sharded driver swaps `no-thread-in-sim` for the stricter
        // `no-cross-shard-mutation`; every other netsim file keeps the
        // thread ban and stays outside the shard rule.
        assert!(!in_scope("no-thread-in-sim", "crates/netsim/src/shard.rs"));
        assert!(in_scope(
            "no-cross-shard-mutation",
            "crates/netsim/src/shard.rs"
        ));
        assert!(in_scope("no-thread-in-sim", "crates/netsim/src/sim.rs"));
        assert!(!in_scope(
            "no-cross-shard-mutation",
            "crates/netsim/src/sim.rs"
        ));
        assert!(!in_scope(
            "no-cross-shard-mutation",
            "crates/harness/src/pool.rs"
        ));
        assert!(!in_scope(
            "no-narrowing-cast",
            "crates/transport/src/flow.rs"
        ));
        assert!(in_scope("no-thread-in-sim", "crates/netsim/src/sim.rs"));
        assert!(in_scope("no-thread-in-sim", "crates/baselines/src/drr.rs"));
        // The harness is the sanctioned home of run-level parallelism.
        assert!(!in_scope("no-thread-in-sim", "crates/harness/src/pool.rs"));
        assert!(!in_scope("no-thread-in-sim", "crates/bench/src/lib.rs"));
    }

    #[test]
    fn one_directive_may_name_several_rules() {
        let lines = scan(
            "// aq-lint: allow(no-wall-clock, no-float-eq)\n\
             let b = Instant::now();\n",
        );
        let guarded: Vec<(usize, String)> = allow_ledger(&lines)
            .into_iter()
            .map(|e| (e.effective_line, e.rule))
            .collect();
        assert_eq!(
            guarded,
            [
                (2, "no-wall-clock".to_string()),
                (2, "no-float-eq".to_string())
            ]
        );
    }
}
