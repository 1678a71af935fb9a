//! The typed rule table and the per-file checker.
//!
//! Every rule has an id, a one-line rationale, and a **scope policy** —
//! which crates and which kinds of code (library vs test) it applies to.
//! The scope tables below are the single source of truth; the README's
//! "Static analysis" section renders the same table for humans.

use crate::lexer::{lex, Allow, Tok, TokKind};

/// Crates in which iteration order can leak into committed outputs: the
/// deterministic-LOCAL guarantee (byte-identical results across engines,
/// and pool sizes) flows through these.
const DETERMINISTIC_CRATES: &[&str] =
    &["graph", "sim", "algos", "decomp", "problems", "gen", "check"];

/// Crates that adopted the u32 CSR index space (PR 6) and must route every
/// index conversion through the typed helpers in `crates/graph/src/ids.rs`.
/// `check` joins them from birth: a certificate checker that truncates an
/// index silently would accept certificates it should reject. `gen` joined
/// when generators became streaming `EdgeSource`s (PR 10): they now emit
/// u32 endpoint records straight into the CSR builder, so a truncating
/// cast there corrupts the graph before any other layer can notice.
const INDEX_CRATES: &[&str] = &["graph", "sim", "gen", "decomp", "check"];

/// The crate allowed to touch wall clocks (it measures things).
const WALL_CLOCK_CRATE: &str = "bench";

/// The one non-vendor file allowed to reference `std::thread`: the pool
/// facade that the vendored rayon subset and the engines share.
const SPAWN_FACADE: &str = "crates/sim/src/par.rs";

/// One lint rule: id, scope description and rationale (both rendered by
/// `--list-rules` and mirrored in the README).
pub struct Rule {
    /// Stable diagnostic id, e.g. `no-unordered-iteration`.
    pub id: &'static str,
    /// Human-readable scope, e.g. `graph, sim, algos, decomp, problems,
    /// gen, check — all code`.
    pub scope: &'static str,
    /// Why the pattern is banned.
    pub rationale: &'static str,
}

/// The rule table. `unjustified-allow` is the meta rule policing the
/// escape hatch itself and cannot be allowed away.
pub const RULES: &[Rule] = &[
    Rule {
        id: "no-unordered-iteration",
        scope: "graph, sim, algos, decomp, problems, gen, check — all code, tests included",
        rationale: "HashMap/HashSet iteration order is seed- and platform-dependent and can leak \
                    into committed outputs; use index-keyed Vec scratch or BTreeMap/BTreeSet",
    },
    Rule {
        id: "no-bare-index-cast",
        scope: "graph, sim, gen, decomp, check — all code, tests included",
        rationale: "bare `as u32`/`as usize`/`as u64` bypasses the u32 CSR boundary; use \
                    widen_u32/widen_u64/narrow_u32 from treelocal_graph (or try_from + \
                    or_invariant for other widths)",
    },
    Rule {
        id: "no-panic-in-lib",
        scope: "every non-vendor crate — library code only (tests, benches, examples, binaries \
                exempt)",
        rationale: "unwrap()/expect()/panic! in library code turns recoverable conditions into \
                    aborts; return a typed error, or assert a named invariant via the assert! \
                    family or OrInvariant::or_invariant",
    },
    Rule {
        id: "no-wall-clock",
        scope: "every crate except bench — library code only",
        rationale: "Instant/SystemTime outside the bench crate makes outcomes time-dependent; \
                    measure in crates/bench or thread a logical clock in explicitly",
    },
    Rule {
        id: "no-raw-spawn",
        scope: "every non-vendor file except crates/sim/src/par.rs — all code",
        rationale: "raw std::thread bypasses the pool facade's determinism ordering and nesting \
                    guards; go through treelocal_sim's par module (vendored rayon scope)",
    },
    Rule {
        id: "forbid-unsafe",
        scope: "every non-vendor crate root",
        rationale: "each crate must carry #![forbid(unsafe_code)] so the guarantee is local and \
                    survives workspace-manifest edits",
    },
    Rule {
        id: "unjustified-allow",
        scope: "everywhere (meta rule — not allowable)",
        rationale: "a lint:allow must name a known rule and carry a reason: \
                    `// lint:allow(rule-id): why this site is sound`",
    },
];

/// Looks up a rule id in [`RULES`].
pub fn rule_exists(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// What kind of file is being checked — decides which rules apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Library source under `src/` (rules about lib code apply).
    Lib,
    /// A binary target (`src/bin/…`): CLI surfaces may panic on exit paths.
    Bin,
    /// Integration tests, benches or examples: test code throughout.
    TestDir,
}

/// Where a file sits in the workspace, as far as scope policy cares.
#[derive(Clone, Debug)]
pub struct FileCtx {
    /// Workspace-relative path with `/` separators (used for diagnostics
    /// and the spawn-facade exemption).
    pub path: String,
    /// The member crate name (`graph`, `sim`, …, `lint`), or `treelocal`
    /// for the facade's `src/`, `tests/` and `examples/`.
    pub crate_name: String,
    /// Library / binary / test-directory classification.
    pub kind: FileKind,
    /// Whether this file is a crate root (`src/lib.rs`) — the place
    /// `forbid-unsafe` inspects.
    pub is_crate_root: bool,
}

/// One diagnostic: `path:line: rule-id: message`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.path, self.line, self.rule, self.message)
    }
}

/// Checks one file's source against every applicable rule.
pub fn check_source(src: &str, ctx: &FileCtx) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let test_mask = test_region_mask(toks, ctx.kind == FileKind::TestDir);
    let mut diags: Vec<Diagnostic> = Vec::new();

    let diag = |line: u32, rule: &'static str, message: String| Diagnostic {
        path: ctx.path.clone(),
        line,
        rule,
        message,
    };

    // (1) no-unordered-iteration — deterministic crates, tests included:
    // a test that commits an expectation derived from hash order is
    // exactly as flaky as library code doing it.
    if DETERMINISTIC_CRATES.contains(&ctx.crate_name.as_str()) {
        for t in toks {
            if let TokKind::Ident(name) = &t.kind {
                if name == "HashMap" || name == "HashSet" {
                    diags.push(diag(
                        t.line,
                        "no-unordered-iteration",
                        format!(
                            "`{name}` iteration order is nondeterministic; use index-keyed Vec \
                             scratch (see sparse_bfs_farthest) or BTreeMap/BTreeSet"
                        ),
                    ));
                }
            }
        }
    }

    // (2) no-bare-index-cast — CSR crates, tests included (the acceptance
    // bar is grep-level zero).
    if INDEX_CRATES.contains(&ctx.crate_name.as_str()) {
        for (i, t) in toks.iter().enumerate() {
            let TokKind::Ident(name) = &t.kind else { continue };
            if name != "as" {
                continue;
            }
            let Some(Tok { kind: TokKind::Ident(ty), .. }) = toks.get(i + 1) else { continue };
            if ty == "u32" || ty == "usize" || ty == "u64" {
                diags.push(diag(
                    t.line,
                    "no-bare-index-cast",
                    format!(
                        "bare `as {ty}` on the index path; use \
                         treelocal_graph::{{widen_u32, widen_u64, narrow_u32}} or \
                         try_from + or_invariant"
                    ),
                ));
            }
        }
    }

    // (3) no-panic-in-lib — library code of every crate (the facade and
    // the lint itself included); binaries and test code are exempt.
    if ctx.kind == FileKind::Lib {
        for (i, t) in toks.iter().enumerate() {
            if test_mask[i] {
                continue;
            }
            let TokKind::Ident(name) = &t.kind else { continue };
            let next = toks.get(i + 1).map(|n| &n.kind);
            let what = match (name.as_str(), next) {
                ("unwrap" | "expect", Some(TokKind::Punct('('))) => format!("{name}()"),
                ("panic", Some(TokKind::Punct('!'))) => "panic!".to_string(),
                _ => continue,
            };
            diags.push(diag(
                t.line,
                "no-panic-in-lib",
                format!(
                    "`{what}` in library code; return a typed error or assert a named invariant \
                     (assert! family or OrInvariant::or_invariant)"
                ),
            ));
        }
    }

    // (4) no-wall-clock — library code outside the bench crate.
    if ctx.crate_name != WALL_CLOCK_CRATE && ctx.kind == FileKind::Lib {
        for (i, t) in toks.iter().enumerate() {
            if test_mask[i] {
                continue;
            }
            if let TokKind::Ident(name) = &t.kind {
                if name == "Instant" || name == "SystemTime" {
                    diags.push(diag(
                        t.line,
                        "no-wall-clock",
                        format!("`{name}` outside crates/bench makes outcomes time-dependent"),
                    ));
                }
            }
        }
    }

    // (5) no-raw-spawn — everywhere except the pool facade.
    if ctx.path != SPAWN_FACADE {
        for (i, t) in toks.iter().enumerate() {
            let TokKind::Ident(name) = &t.kind else { continue };
            if name != "std" {
                continue;
            }
            let path_is = |j: usize, s: &str| {
                matches!(toks.get(j), Some(Tok { kind: TokKind::Punct(c), .. }) if *c == ':')
                    && matches!(toks.get(j + 1), Some(Tok { kind: TokKind::Punct(c), .. }) if *c == ':')
                    && matches!(toks.get(j + 2), Some(Tok { kind: TokKind::Ident(n), .. }) if n == s)
            };
            if path_is(i + 1, "thread") {
                diags.push(diag(
                    t.line,
                    "no-raw-spawn",
                    "`std::thread` outside the pool facade (crates/sim/src/par.rs); use the \
                     facade so determinism ordering and nesting guards apply"
                        .to_string(),
                ));
            }
        }
    }

    // (6) forbid-unsafe — crate roots must carry the attribute.
    if ctx.is_crate_root && !has_forbid_unsafe(toks) {
        diags.push(diag(
            1,
            "forbid-unsafe",
            "crate root lacks #![forbid(unsafe_code)]".to_string(),
        ));
    }

    apply_allows(diags, &lexed.allows, toks, ctx)
}

/// Suppresses diagnostics covered by a **justified** allow, and turns
/// every unjustified/malformed/unknown-rule allow into a diagnostic of its
/// own. An allow covers its own line plus — when it stands on a line of
/// its own — the next line that carries any token, so a comment block of
/// stacked allows above a statement works naturally.
fn apply_allows(
    diags: Vec<Diagnostic>,
    allows: &[Allow],
    toks: &[Tok],
    ctx: &FileCtx,
) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::new();
    // Lines that carry at least one token, sorted (token lines ascend).
    let token_lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
    let next_token_line = |after: u32| -> Option<u32> {
        match token_lines.binary_search(&(after + 1)) {
            Ok(_) => Some(after + 1),
            Err(pos) => token_lines.get(pos).copied(),
        }
    };
    for a in allows {
        if a.malformed {
            out.push(Diagnostic {
                path: ctx.path.clone(),
                line: a.line,
                rule: "unjustified-allow",
                message: "malformed lint:allow — write `// lint:allow(rule-id): reason`"
                    .to_string(),
            });
        } else if !rule_exists(&a.rule) || a.rule == "unjustified-allow" {
            out.push(Diagnostic {
                path: ctx.path.clone(),
                line: a.line,
                rule: "unjustified-allow",
                message: format!("lint:allow names unknown or unallowable rule `{}`", a.rule),
            });
        } else if !a.has_reason {
            out.push(Diagnostic {
                path: ctx.path.clone(),
                line: a.line,
                rule: "unjustified-allow",
                message: format!(
                    "lint:allow({}) without a reason — write `// lint:allow({}): why this site \
                     is sound`",
                    a.rule, a.rule
                ),
            });
        }
    }
    'diag: for d in diags {
        for a in allows {
            if a.malformed || !a.has_reason || a.rule != d.rule {
                continue;
            }
            let covers = a.line == d.line
                || (!token_lines.contains(&a.line) && next_token_line(a.line) == Some(d.line));
            if covers {
                continue 'diag;
            }
        }
        out.push(d);
    }
    out.sort();
    out
}

/// Marks which tokens sit in test code: `#[cfg(test)]` / `#[test]`-gated
/// items (attribute through matching close brace), or the entire file for
/// test directories and files with a test-gating inner attribute.
fn test_region_mask(toks: &[Tok], whole_file: bool) -> Vec<bool> {
    let mut mask = vec![whole_file; toks.len()];
    if whole_file {
        return mask;
    }
    let mut i = 0usize;
    while i < toks.len() {
        if !matches!(toks[i].kind, TokKind::Punct('#')) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = matches!(toks.get(j), Some(Tok { kind: TokKind::Punct('!'), .. }));
        if inner {
            j += 1;
        }
        if !matches!(toks.get(j), Some(Tok { kind: TokKind::Punct('['), .. })) {
            i += 1;
            continue;
        }
        // Collect the attribute's identifiers up to the matching `]`.
        let mut depth = 0i32;
        let mut idents: Vec<&str> = Vec::new();
        let attr_end;
        loop {
            match toks.get(j) {
                None => return mask, // unterminated attribute: nothing more to do
                Some(Tok { kind: TokKind::Punct('['), .. }) => depth += 1,
                Some(Tok { kind: TokKind::Punct(']'), .. }) => {
                    depth -= 1;
                    if depth == 0 {
                        attr_end = j;
                        break;
                    }
                }
                Some(Tok { kind: TokKind::Ident(name), .. }) => idents.push(name),
                _ => {}
            }
            j += 1;
        }
        let gates_test = match idents.first() {
            Some(&"test") => true,
            Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
            _ => false,
        };
        if !gates_test {
            i = attr_end + 1;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the whole file is test code.
            return vec![true; toks.len()];
        }
        // Skip to the gated item's opening `{` (or give up at `;` for
        // brace-less items like `#[cfg(test)] mod tests;`), then mark
        // through the matching `}`.
        let mut k = attr_end + 1;
        let mut body_start = None;
        while let Some(t) = toks.get(k) {
            match &t.kind {
                TokKind::Punct('{') => {
                    body_start = Some(k);
                    break;
                }
                TokKind::Punct(';') => break,
                _ => k += 1,
            }
            // (unreachable — both arms above break or advance)
        }
        let Some(start) = body_start else {
            i = attr_end + 1;
            continue;
        };
        let mut brace = 0i32;
        let mut end = toks.len();
        for (idx, t) in toks.iter().enumerate().skip(start) {
            match t.kind {
                TokKind::Punct('{') => brace += 1,
                TokKind::Punct('}') => {
                    brace -= 1;
                    if brace == 0 {
                        end = idx + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        for m in &mut mask[i..end] {
            *m = true;
        }
        i = end;
    }
    mask
}

/// Whether the token stream contains `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.windows(8).any(|w| {
        matches!(&w[0].kind, TokKind::Punct('#'))
            && matches!(&w[1].kind, TokKind::Punct('!'))
            && matches!(&w[2].kind, TokKind::Punct('['))
            && matches!(&w[3].kind, TokKind::Ident(n) if n == "forbid")
            && matches!(&w[4].kind, TokKind::Punct('('))
            && matches!(&w[5].kind, TokKind::Ident(n) if n == "unsafe_code")
            && matches!(&w[6].kind, TokKind::Punct(')'))
            && matches!(&w[7].kind, TokKind::Punct(']'))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(crate_name: &str, kind: FileKind) -> FileCtx {
        FileCtx {
            path: format!("crates/{crate_name}/src/x.rs"),
            crate_name: crate_name.to_string(),
            kind,
            is_crate_root: false,
        }
    }

    fn ids(diags: &[Diagnostic]) -> Vec<(&'static str, u32)> {
        diags.iter().map(|d| (d.rule, d.line)).collect()
    }

    #[test]
    fn hashmap_flagged_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            ids(&check_source(src, &ctx("sim", FileKind::Lib))),
            vec![("no-unordered-iteration", 1)]
        );
        assert!(check_source(src, &ctx("bench", FileKind::Lib)).is_empty());
    }

    #[test]
    fn check_crate_is_in_both_scope_tables() {
        // The certificate checker is deterministic surface: hash iteration
        // or a truncating index cast could accept a bad certificate.
        let src = "use std::collections::HashMap;\nfn f(x: usize) -> u32 { x as u32 }\n";
        assert_eq!(
            ids(&check_source(src, &ctx("check", FileKind::Lib))),
            vec![("no-unordered-iteration", 1), ("no-bare-index-cast", 2)]
        );
        // Tests included, as in the other deterministic crates.
        let test_src = "#[cfg(test)]\nmod tests { use std::collections::HashSet; }\n";
        assert_eq!(
            ids(&check_source(test_src, &ctx("check", FileKind::Lib))),
            vec![("no-unordered-iteration", 2)]
        );
    }

    #[test]
    fn gen_crate_is_in_the_index_scope_table() {
        // Generators emit u32 endpoint records straight into the CSR
        // builder since the streaming-construction refactor, so a bare
        // cast there is as dangerous as one in the graph crate itself.
        let src = "fn f(x: usize) -> u32 { x as u32 }\n";
        assert_eq!(
            ids(&check_source(src, &ctx("gen", FileKind::Lib))),
            vec![("no-bare-index-cast", 1)]
        );
    }

    #[test]
    fn index_casts_flagged_in_tests_too() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(x: usize) -> u32 { x as u32 }\n}\n";
        assert_eq!(
            ids(&check_source(src, &ctx("decomp", FileKind::Lib))),
            vec![("no-bare-index-cast", 3)]
        );
        // …but `as f64` and non-index crates are fine.
        assert!(check_source("let y = 1 as f64;", &ctx("algos", FileKind::Lib)).is_empty());
    }

    #[test]
    fn panics_exempt_in_test_regions_and_bins() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n";
        assert_eq!(
            ids(&check_source(src, &ctx("core", FileKind::Lib))),
            vec![("no-panic-in-lib", 1)]
        );
        assert!(check_source(src, &ctx("bench", FileKind::Bin)).is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_not_unwrap() {
        let src = "fn f() { a.unwrap_or(0); b.unwrap_or_else(g); c.unwrap_or_default(); }";
        assert!(check_source(src, &ctx("core", FileKind::Lib)).is_empty());
    }

    #[test]
    fn wall_clock_allowed_in_bench_banned_elsewhere() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(check_source(src, &ctx("bench", FileKind::Lib)).is_empty());
        assert_eq!(ids(&check_source(src, &ctx("gen", FileKind::Lib))), vec![("no-wall-clock", 1)]);
    }

    #[test]
    fn raw_spawn_exempts_the_facade_file() {
        let src = "fn f() { std::thread::spawn(|| ()); }";
        let mut facade = ctx("sim", FileKind::Lib);
        facade.path = "crates/sim/src/par.rs".to_string();
        assert!(check_source(src, &facade).is_empty());
        assert_eq!(ids(&check_source(src, &ctx("sim", FileKind::Lib))), vec![("no-raw-spawn", 1)]);
    }

    #[test]
    fn forbid_unsafe_checked_on_crate_roots() {
        let mut root = ctx("problems", FileKind::Lib);
        root.is_crate_root = true;
        assert_eq!(ids(&check_source("pub fn f() {}", &root)), vec![("forbid-unsafe", 1)]);
        assert!(check_source("#![forbid(unsafe_code)]\npub fn f() {}", &root).is_empty());
    }

    #[test]
    fn justified_allow_suppresses_own_line_and_next_code_line() {
        let trailing = "fn f() { x.unwrap() } // lint:allow(no-panic-in-lib): fixture reason";
        assert!(check_source(trailing, &ctx("core", FileKind::Lib)).is_empty());
        let above = "// lint:allow(no-panic-in-lib): reason spans the comment gap\n\n// more\nfn f() { x.unwrap() }";
        assert!(check_source(above, &ctx("core", FileKind::Lib)).is_empty());
    }

    #[test]
    fn unjustified_allow_is_a_diagnostic_and_does_not_suppress() {
        let src = "// lint:allow(no-panic-in-lib)\nfn f() { x.unwrap() }";
        let got = ids(&check_source(src, &ctx("core", FileKind::Lib)));
        assert_eq!(got, vec![("unjustified-allow", 1), ("no-panic-in-lib", 2)]);
    }

    #[test]
    fn allow_for_the_wrong_rule_does_not_suppress() {
        let src = "// lint:allow(no-wall-clock): wrong rule entirely\nfn f() { x.unwrap() }";
        let got = ids(&check_source(src, &ctx("core", FileKind::Lib)));
        assert_eq!(got, vec![("no-panic-in-lib", 2)]);
    }

    #[test]
    fn unknown_rule_allow_is_flagged() {
        let src = "// lint:allow(no-such-rule): reason\nfn f() {}";
        let got = ids(&check_source(src, &ctx("core", FileKind::Lib)));
        assert_eq!(got, vec![("unjustified-allow", 1)]);
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }";
        assert_eq!(
            ids(&check_source(src, &ctx("core", FileKind::Lib))),
            vec![("no-panic-in-lib", 2)]
        );
    }

    #[test]
    fn test_attribute_gates_the_following_fn_only() {
        let src = "#[test]\nfn t() { a.unwrap(); }\nfn lib() { b.unwrap(); }";
        assert_eq!(
            ids(&check_source(src, &ctx("core", FileKind::Lib))),
            vec![("no-panic-in-lib", 3)]
        );
    }
}
