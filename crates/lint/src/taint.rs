//! Determinism taint pass (`D-taint`): every random value feeding a
//! capture must derive from the campaign seed.
//!
//! PR 1's bit-identity promise works because all randomness flows from
//! one root: `mix_seed(seed, coordinate)` / per-task SplitMix64 `fork`
//! derivation makes each capture's RNG a pure function of its
//! coordinates. Anything else — `from_entropy`, `thread_rng`, an RNG
//! seeded from a value with no seed lineage — silently breaks
//! reproducibility across thread counts and reruns.
//!
//! Three checks:
//!
//! 1. **Fresh entropy** (`from_entropy`, `thread_rng`, `OsRng`,
//!    `getrandom`) is flagged anywhere in determinism-scope files, and in
//!    any function reachable from a capture root elsewhere.
//! 2. **RNG construction** (`seed_from_u64`, `from_seed`) inside
//!    capture-reachable functions must take a *seed-derived* argument: a
//!    call to a deriver (`mix_seed`, `fork`, or any function that
//!    transitively calls one), an identifier with seed lineage in its
//!    name (`seed`, `band_seed`, `stream`), or a literal constant.
//! 3. **Merge and fusion paths** (functions whose name contains `merge`
//!    or `fuse`): unordered hash collections — and float accumulation
//!    over them — make the merged result depend on hasher state and
//!    summation order; merges must iterate deterministically. Fusion
//!    paths sort carriers by fused *score*, so a `partial_cmp`
//!    comparator is an extra hazard there: it is non-total under NaN,
//!    and which carrier wins the sort can change between runs (or
//!    panic). Merged/fused orderings must use `total_cmp`.
//!
//! Capture roots are recognized by name (`run_campaign*`, `run_sweep*`,
//! `capture*`, `execute_capture*`, `measure_alternation*`, `merge_*`,
//! `fuse_*`); everything they transitively call through the resolved
//! call graph is capture-reachable.

use crate::graph::Graphs;
use crate::lexer::TokKind;
use crate::report::Finding;
use std::collections::BTreeSet;

/// Identifiers that mint fresh, run-dependent entropy.
const ENTROPY: &[&str] = &["from_entropy", "thread_rng", "OsRng", "getrandom"];

/// RNG constructors whose argument must carry seed lineage.
const RNG_CTORS: &[&str] = &["seed_from_u64", "from_seed"];

/// Base seed derivers; calling one (transitively) makes a fn a deriver.
const DERIVER_BASE: &[&str] = &["mix_seed", "fork"];

/// Identifier name that carries seed lineage without containing "seed":
/// the per-task SplitMix64 stream id.
const STREAM_IDENT: &str = "stream";

/// Function-name prefixes that root the capture-reachable set.
const ROOT_PREFIXES: &[&str] = &[
    "run_campaign",
    "run_sweep",
    "capture",
    "execute_capture",
    "measure_alternation",
    "merge_",
    "fuse_",
];

/// Unordered collections whose iteration order depends on hasher state.
const UNORDERED: &[&str] = &["HashMap", "HashSet"];

/// Order-sensitive float accumulators.
const ACCUMULATORS: &[&str] = &["sum", "product", "fold"];

/// The non-total float comparator: forbidden in merge/fusion paths,
/// where score sorting must be reproducible even with NaN present.
const NON_TOTAL_CMP: &str = "partial_cmp";

/// Runs the taint pass over the resolved graphs, returning raw
/// (pre-pragma) findings.
pub fn check(g: &Graphs<'_>) -> Vec<Finding> {
    let reachable = capture_reachable(g);
    let derivers = deriver_names(g);
    let mut out = Vec::new();
    check_entropy(g, &reachable, &mut out);
    check_rng_ctors(g, &reachable, &derivers, &mut out);
    check_merge_paths(g, &mut out);
    out
}

/// Functions reachable from a capture root through resolved call edges.
fn capture_reachable(g: &Graphs<'_>) -> Vec<bool> {
    let n = g.fns.len();
    let mut reach = vec![false; n];
    let mut stack: Vec<usize> = (0..n)
        .filter(|&i| {
            let name = &g.fns[i].f.name;
            ROOT_PREFIXES.iter().any(|p| name.starts_with(p))
        })
        .collect();
    for &i in &stack {
        reach[i] = true;
    }
    while let Some(i) = stack.pop() {
        for target in g.resolved[i].iter().flatten() {
            if !reach[*target] {
                reach[*target] = true;
                stack.push(*target);
            }
        }
    }
    reach
}

/// The transitive deriver-name set: `mix_seed`/`fork` plus every
/// function that calls a deriver (so `attempt_seed`, which wraps
/// `mix_seed`, confers lineage too).
fn deriver_names(g: &Graphs<'_>) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = DERIVER_BASE.iter().map(|s| (*s).to_owned()).collect();
    loop {
        let mut changed = false;
        for fr in &g.fns {
            if names.contains(&fr.f.name) {
                continue;
            }
            if fr.f.calls.iter().any(|c| names.contains(&c.callee)) {
                names.insert(fr.f.name.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    names
}

/// Check 1: fresh entropy. Token-level in determinism-scope files
/// (outside test regions), function-level in capture-reachable fns of
/// other files.
fn check_entropy(g: &Graphs<'_>, reachable: &[bool], out: &mut Vec<Finding>) {
    for (fi, m) in g.models.iter().enumerate() {
        if m.rules.determinism {
            let in_test = |i: usize| m.test_tok.iter().any(|&(a, b)| i >= a && i <= b);
            for (i, t) in m.lexed.tokens.iter().enumerate() {
                if t.kind == TokKind::Ident && ENTROPY.contains(&t.text.as_str()) && !in_test(i) {
                    out.push(entropy_finding(&m.rel, t.line, &t.text));
                }
            }
        } else {
            for (i, fr) in g.fns.iter().enumerate() {
                if fr.file != fi || !reachable[i] {
                    continue;
                }
                let Some((a, b)) = fr.f.body else { continue };
                for t in &m.lexed.tokens[a..=b.min(m.lexed.tokens.len() - 1)] {
                    if t.kind == TokKind::Ident && ENTROPY.contains(&t.text.as_str()) {
                        out.push(entropy_finding(&m.rel, t.line, &t.text));
                    }
                }
            }
        }
    }
}

fn entropy_finding(rel: &str, line: u32, what: &str) -> Finding {
    Finding {
        rule: "D-taint",
        file: rel.to_owned(),
        line,
        col: 1,
        message: format!(
            "fresh entropy `{what}` breaks bit-identical reproduction; derive all \
             randomness from the campaign seed via `mix_seed`/stream forking"
        ),
    }
}

/// Check 2: RNG constructors in capture-reachable functions must be fed
/// a seed-derived argument.
fn check_rng_ctors(
    g: &Graphs<'_>,
    reachable: &[bool],
    derivers: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    for (i, fr) in g.fns.iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        let m = &g.models[fr.file];
        let tokens = &m.lexed.tokens;
        for c in &fr.f.calls {
            if !RNG_CTORS.contains(&c.callee.as_str()) {
                continue;
            }
            // Balanced argument token range: `ctor ( <args> )`.
            let open = c.tok + 1;
            let mut depth = 0usize;
            let mut close = open;
            for (j, t) in tokens.iter().enumerate().skip(open) {
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
            }
            let args = &tokens[open + 1..close];
            let mut has_lineage = false;
            let mut all_literal = !args.is_empty();
            for t in args {
                match t.kind {
                    TokKind::Ident => {
                        all_literal = false;
                        let lower = t.text.to_ascii_lowercase();
                        if derivers.contains(&t.text)
                            || lower.contains("seed")
                            || lower == STREAM_IDENT
                        {
                            has_lineage = true;
                        }
                    }
                    TokKind::Int => {}
                    TokKind::Punct => {}
                    _ => all_literal = false,
                }
            }
            if !has_lineage && !all_literal {
                out.push(Finding {
                    rule: "D-taint",
                    file: m.rel.clone(),
                    line: c.line,
                    col: 1,
                    message: format!(
                        "`{}` on a capture path takes a value with no seed lineage; derive \
                         it from the campaign seed (`mix_seed`, stream fork, or a constant)",
                        c.callee
                    ),
                });
            }
        }
    }
}

/// Check 3: merge/fusion paths must not iterate unordered collections,
/// accumulate floats over them, or order floats with a non-total
/// comparator.
fn check_merge_paths(g: &Graphs<'_>, out: &mut Vec<Finding>) {
    for fr in &g.fns {
        if !fr.f.name.contains("merge") && !fr.f.name.contains("fuse") {
            continue;
        }
        let m = &g.models[fr.file];
        let tokens = &m.lexed.tokens;
        let Some((a, b)) = fr.f.body else { continue };
        let mut unordered = false;
        for t in &tokens[a..=b.min(tokens.len() - 1)] {
            if t.kind == TokKind::Ident && t.text == NON_TOTAL_CMP {
                out.push(Finding {
                    rule: "D-taint",
                    file: m.rel.clone(),
                    line: t.line,
                    col: 1,
                    message: format!(
                        "`{NON_TOTAL_CMP}` in merge/fusion path `{}`: the comparator is \
                         non-total under NaN, so score-ordered results can differ between \
                         runs; order floats with `total_cmp`",
                        fr.f.name
                    ),
                });
            }
            if t.kind == TokKind::Ident && UNORDERED.contains(&t.text.as_str()) {
                unordered = true;
                out.push(Finding {
                    rule: "D-taint",
                    file: m.rel.clone(),
                    line: t.line,
                    col: 1,
                    message: format!(
                        "`{}` in merge path `{}`: iteration order depends on hasher state, \
                         so the merged result is not reproducible; use BTreeMap/BTreeSet",
                        t.text, fr.f.name
                    ),
                });
            }
        }
        if !unordered {
            continue;
        }
        for c in &fr.f.calls {
            if c.method && ACCUMULATORS.contains(&c.callee.as_str()) {
                out.push(Finding {
                    rule: "D-taint",
                    file: m.rel.clone(),
                    line: c.line,
                    col: 1,
                    message: format!(
                        "float accumulation `.{}(..)` in merge path `{}` next to an \
                         unordered collection: accumulation order changes the result; \
                         iterate in sorted order before accumulating",
                        c.callee, fr.f.name
                    ),
                });
            }
        }
    }
}
