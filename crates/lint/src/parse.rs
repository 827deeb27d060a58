//! Item-level parsing on top of the lexer: functions, call sites, lock
//! acquisitions with guard scopes, and loop regions.
//!
//! This is deliberately *not* a Rust parser. It recovers just enough
//! structure from the token stream for the workspace-level passes in
//! [`crate::graph`] and [`crate::taint`]: which functions exist, what
//! they call, where they take locks and how long the guards live, and
//! where their loops are. The recovery is conservative and forgiving —
//! anything it cannot classify it skips, because a file that does not
//! parse will fail `cargo build` long before the lint matters.

use crate::lexer::{Lexed, Tok, TokKind};

/// A call site inside a function body: `name(...)` or `recv.name(...)`.
#[derive(Debug, Clone)]
pub struct Call {
    /// Last path segment of the callee (`pop`, `recv_timeout`, `lock`).
    pub callee: String,
    /// 1-based source line of the callee token.
    pub line: u32,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// True for `.name(...)` method syntax (vs. a free/assoc-fn call).
    pub method: bool,
}

/// One lock acquisition and the token range its guard is held over.
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// Lock identity: the final field/receiver identifier of the lock
    /// expression (`queues` for `shared.queues.lock()` and for
    /// `lock(&shared.queues)` alike).
    pub name: String,
    /// 1-based source line of the acquisition.
    pub line: u32,
    /// Token index of the acquiring `lock`/`read`/`write` identifier.
    pub tok: usize,
    /// Exclusive token index the guard is dropped at: end of statement
    /// for temporaries, end of the enclosing block (or an explicit
    /// `drop(guard)`) for `let`-bound guards.
    pub scope_end: usize,
    /// The guard's binding name, when `let`-bound to a plain identifier.
    pub guard: Option<String>,
}

/// A `loop` / `while` / `for` region.
#[derive(Debug, Clone)]
pub struct Loop {
    /// Loop keyword (`loop`, `while`, `for`).
    pub kind: String,
    /// 1-based source line of the loop keyword.
    pub line: u32,
    /// Token index of the loop keyword (the loop's condition/iterator
    /// header is part of the loop for every analysis: a `while
    /// rx.recv().is_ok()` loop blocks on each iteration).
    pub tok: usize,
    /// Token index of the loop body's closing `}` (inclusive region is
    /// `tok..=close`).
    pub close: usize,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct ParsedFn {
    /// The function's name (last path segment only; impl/trait context
    /// is not tracked).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True when the function sits inside a `#[cfg(test)]` module or is
    /// itself `#[test]`-attributed; test functions are excluded from
    /// every workspace pass.
    pub is_test: bool,
    /// Token indices of the body's `{` and matching `}`; `None` for
    /// bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Call sites in body order (nested closures included, nested `fn`
    /// items excluded — they are parsed as their own functions).
    pub calls: Vec<Call>,
    /// Lock acquisitions in body order.
    pub locks: Vec<LockAcq>,
    /// Loop regions in body order.
    pub loops: Vec<Loop>,
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "else", "let", "mut",
    "ref", "box", "break", "continue", "unsafe", "fn", "impl", "where", "dyn",
];

/// Parses every function item in the file. `test_regions` are inclusive
/// token ranges of `#[test]`/`#[cfg(test)]` items (from
/// `rules::test_regions`).
pub fn parse(lexed: &Lexed, test_regions: &[(usize, usize)]) -> Vec<ParsedFn> {
    let tokens = &lexed.tokens;
    let in_test = |i: usize| test_regions.iter().any(|&(a, b)| i >= a && i <= b);

    // Pass 1: locate every fn header and its body range.
    type Header = (usize, String, Option<(usize, usize)>);
    let mut headers: Vec<Header> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            if let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                let body = fn_body_range(tokens, i + 2);
                headers.push((i, name.text.clone(), body));
                // Do not skip the body: nested fns inside it must be
                // found too.
            }
        }
        i += 1;
    }

    let mut out = Vec::new();
    for (h, (fn_tok, name, body)) in headers.iter().enumerate() {
        // Token ranges of fns nested inside this one, to exclude from
        // the event scan (they become their own ParsedFn).
        let nested: Vec<(usize, usize)> = match body {
            Some((b0, b1)) => headers
                .iter()
                .enumerate()
                .filter(|&(j, (t, _, _))| j != h && *t > *b0 && *t < *b1)
                .map(|(_, (t, _, nb))| (*t, nb.map_or(*t, |(_, e)| e)))
                .collect(),
            None => Vec::new(),
        };
        let in_nested = |i: usize| nested.iter().any(|&(a, b)| i >= a && i <= b);

        let mut f = ParsedFn {
            name: name.clone(),
            line: tokens[*fn_tok].line,
            is_test: in_test(*fn_tok),
            body: *body,
            calls: Vec::new(),
            locks: Vec::new(),
            loops: Vec::new(),
        };
        if let Some((b0, b1)) = body {
            let mut j = b0 + 1;
            while j < *b1 {
                if in_nested(j) {
                    j += 1;
                    continue;
                }
                let t = &tokens[j];
                if t.kind == TokKind::Ident {
                    scan_ident(tokens, j, &mut f);
                }
                j += 1;
            }
        }
        out.push(f);
    }
    out
}

/// Classifies the identifier at `j` as a call / lock / loop event.
fn scan_ident(tokens: &[Tok], j: usize, f: &mut ParsedFn) {
    let t = &tokens[j];
    match t.text.as_str() {
        "loop" | "while" | "for" => {
            if let Some((_, close)) = loop_body(tokens, j) {
                f.loops.push(Loop {
                    kind: t.text.clone(),
                    line: t.line,
                    tok: j,
                    close,
                });
            }
            return;
        }
        _ => {}
    }
    let next_is_paren = tokens.get(j + 1).is_some_and(|n| n.is_punct('('));
    if !next_is_paren || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
        return;
    }
    let method = j >= 1 && tokens[j - 1].is_punct('.');
    f.calls.push(Call {
        callee: t.text.clone(),
        line: t.line,
        tok: j,
        method,
    });

    // Lock acquisition patterns:
    //   (a) `expr.lock()` / zero-arg `expr.read()` / `expr.write()`
    //   (b) the free-helper form `lock(&path.to.mutex)`
    let zero_arg = tokens.get(j + 2).is_some_and(|n| n.is_punct(')'));
    let ident = if method {
        if matches!(t.text.as_str(), "lock" | "read" | "write") && zero_arg {
            receiver_ident(tokens, j - 1)
        } else {
            None
        }
    } else if t.text == "lock" && !zero_arg && !path_call(tokens, j) {
        last_arg_ident(tokens, j + 1)
    } else {
        None
    };
    if let Some(name) = ident {
        let (scope_end, guard) = guard_scope(tokens, j);
        f.locks.push(LockAcq {
            name,
            line: t.line,
            tok: j,
            scope_end,
            guard,
        });
    }
}

/// True when the call at `j` is path-qualified (`foo::lock(...)`) —
/// those are not the workspace's guard-returning helper.
fn path_call(tokens: &[Tok], j: usize) -> bool {
    j >= 2 && tokens[j - 1].is_punct(':') && tokens[j - 2].is_punct(':')
}

/// The receiver's final field identifier for `recv.method()`: walks back
/// from the `.` at `dot`, skipping one balanced `[...]`/`(...)` group.
fn receiver_ident(tokens: &[Tok], dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    if tokens[j].is_punct(']') || tokens[j].is_punct(')') {
        let close = if tokens[j].is_punct(']') { ']' } else { ')' };
        let open = if close == ']' { '[' } else { '(' };
        let mut depth = 0usize;
        loop {
            if tokens[j].is_punct(close) {
                depth += 1;
            } else if tokens[j].is_punct(open) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j = j.checked_sub(1)?;
        }
        j = j.checked_sub(1)?;
    }
    (tokens[j].kind == TokKind::Ident).then(|| tokens[j].text.clone())
}

/// The last identifier inside the balanced parens opening at `open` —
/// the lock identity of `lock(&shared.queues)`.
fn last_arg_ident(tokens: &[Tok], open: usize) -> Option<String> {
    let mut depth = 0usize;
    let mut last = None;
    for t in tokens.iter().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident {
            last = Some(t.text.clone());
        }
    }
    last
}

/// Computes how long the guard produced at token `acq` lives.
///
/// A `let`-bound guard (`let g = m.lock();`) lives to the end of the
/// enclosing block — or to an explicit `drop(g)` — while a temporary
/// (`m.lock().push(x)`) lives to the end of its statement. A `let` binds
/// the guard only when the lock call, plus any `.unwrap()`, `.expect(..)`,
/// `.unwrap_or_else(..)` or `?`, ends the initializer:
/// `let hit = lock(m).get(&k).cloned();` binds a value, not the guard.
fn guard_scope(tokens: &[Tok], acq: usize) -> (usize, Option<String>) {
    if !ends_initializer(tokens, acq) {
        return (statement_end(tokens, acq), None);
    }
    let stmt_start = statement_start(tokens, acq);
    // The binding `let` nearest the acquisition at statement depth 0.
    let mut depth = 0i32;
    let mut let_idx = None;
    let mut k = stmt_start;
    while k < acq {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("let") {
            let_idx = Some(k);
        }
        k += 1;
    }
    let guard = let_idx.and_then(|l| {
        let mut n = l + 1;
        if tokens.get(n).is_some_and(|t| t.is_ident("mut")) {
            n += 1;
        }
        let name = tokens.get(n).filter(|t| t.kind == TokKind::Ident)?;
        tokens
            .get(n + 1)
            .filter(|t| t.is_punct('=') || t.is_punct(':'))?;
        Some(name.text.clone())
    });

    match &guard {
        Some(name) => {
            let block_end = enclosing_block_end(tokens, acq);
            // An explicit drop shortens the scope.
            let mut j = acq;
            while j + 3 < block_end {
                if tokens[j].is_ident("drop")
                    && tokens[j + 1].is_punct('(')
                    && tokens[j + 2].is_ident(name)
                    && tokens[j + 3].is_punct(')')
                {
                    return (j, guard);
                }
                j += 1;
            }
            (block_end, guard)
        }
        None => (statement_end(tokens, acq), None),
    }
}

/// True when the lock call at `acq`, with any unwrapping adapters, runs
/// to the end of its statement.
fn ends_initializer(tokens: &[Tok], acq: usize) -> bool {
    const ADAPTERS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];
    let mut j = matching(tokens, acq + 1, ('(', ')')) + 1;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('?') {
            j += 1;
        } else if t.is_punct('.')
            && tokens
                .get(j + 1)
                .is_some_and(|m| ADAPTERS.contains(&m.text.as_str()))
        {
            j = matching(tokens, j + 2, ('(', ')')) + 1;
        } else {
            break;
        }
    }
    j >= statement_end(tokens, acq)
}

/// Token index of the `close` bracket matching the `open` one at
/// `start`, or of the last token when it is unmatched.
fn matching(tokens: &[Tok], start: usize, (open, close): (char, char)) -> usize {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(start) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Token index where the statement containing `i` begins: just past the
/// previous top-level `;`, or just past the opening `{` of the
/// enclosing block.
fn statement_start(tokens: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            if depth == 0 {
                return j + 1;
            }
            depth -= 1;
        } else if depth == 0 && t.is_punct(';') {
            return j + 1;
        }
    }
    0
}

/// Exclusive token index where the statement containing `i` ends (its
/// `;`, or the enclosing block's `}` for a tail expression).
fn statement_end(tokens: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        } else if depth == 0 && t.is_punct(';') {
            return j;
        }
        j += 1;
    }
    tokens.len()
}

/// Exclusive token index of the `}` closing the block that encloses `i`.
fn enclosing_block_end(tokens: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        }
        j += 1;
    }
    tokens.len()
}

/// Finds a fn's parameter list starting at `after_name` and returns the
/// body's `{`/`}` token range, or `None` for a `;`-terminated
/// declaration.
fn fn_body_range(tokens: &[Tok], after_name: usize) -> Option<(usize, usize)> {
    // Skip generics to the parameter list's `(` at angle depth 0.
    let mut angle = 0i32;
    let mut p = after_name;
    while p < tokens.len() {
        let t = &tokens[p];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('(') && angle <= 0 {
            break;
        } else if t.is_punct('{') || t.is_punct(';') {
            return None; // malformed header
        }
        p += 1;
    }
    // Scan past the parameter parens, through the return type / where
    // clause, for the body's `{`.
    let mut q = matching(tokens, p, ('(', ')')) + 1;
    while q < tokens.len() {
        let t = &tokens[q];
        if t.is_punct('{') {
            return Some((q, matching(tokens, q, ('{', '}'))));
        }
        if t.is_punct(';') {
            return None;
        }
        q += 1;
    }
    None
}

/// The `{`/`}` range of the loop body whose keyword sits at `kw`. Loop
/// headers (`while cond`, `for pat in expr`) are scanned with
/// paren/bracket awareness; the first `{` at depth 0 opens the body.
fn loop_body(tokens: &[Tok], kw: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut j = kw + 1;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') && depth <= 0 {
            return Some((j, matching(tokens, j, ('{', '}'))));
        } else if t.is_punct(';') || t.is_punct('}') {
            return None; // malformed header
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_regions;

    fn parse_src(src: &str) -> Vec<ParsedFn> {
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        parse(&lexed, &regions)
    }

    #[test]
    fn functions_calls_and_loops_are_found() {
        let src = "\
fn outer(n: usize) -> usize {
    let mut total = 0;
    for i in 0..n {
        total += helper(i);
    }
    while total > 10 {
        total -= shrink(total);
    }
    total
}
fn helper(i: usize) -> usize { i }
";
        let fns = parse_src(src);
        assert_eq!(fns.len(), 2); // outer + helper
        let outer = &fns[0];
        assert_eq!(outer.name, "outer");
        let callees: Vec<&str> = outer.calls.iter().map(|c| c.callee.as_str()).collect();
        assert!(callees.contains(&"helper") && callees.contains(&"shrink"));
        assert_eq!(outer.loops.len(), 2);
        assert_eq!(outer.loops[0].kind, "for");
        assert_eq!(outer.loops[1].kind, "while");
    }

    #[test]
    fn nested_fns_are_split_out() {
        let src = "\
fn outer() {
    fn inner() { helper(); }
    other();
}
";
        let fns = parse_src(src);
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.calls.iter().all(|c| c.callee != "helper"));
        assert!(outer.calls.iter().any(|c| c.callee == "other"));
        assert!(inner.calls.iter().any(|c| c.callee == "helper"));
    }

    #[test]
    fn let_bound_guard_scopes_to_block_end() {
        let src = "\
fn f(m: &std::sync::Mutex<u32>) -> u32 {
    {
        let g = m.lock().unwrap_or_else(|e| e.into_inner());
        use_it(&g);
    }
    after();
    0
}
";
        let fns = parse_src(src);
        let f = &fns[0];
        assert_eq!(f.locks.len(), 1);
        let l = &f.locks[0];
        assert_eq!(l.name, "m");
        assert_eq!(l.guard.as_deref(), Some("g"));
        // `after` is called outside the guard scope, `use_it` inside.
        let use_it = f.calls.iter().find(|c| c.callee == "use_it").unwrap();
        let after = f.calls.iter().find(|c| c.callee == "after").unwrap();
        assert!(use_it.tok < l.scope_end);
        assert!(after.tok > l.scope_end);
    }

    #[test]
    fn temporary_guard_scopes_to_statement_end() {
        let src = "\
fn f(m: &std::sync::Mutex<Vec<u32>>) {
    m.lock().unwrap_or_else(|e| e.into_inner()).push(1);
    later();
}
";
        let fns = parse_src(src);
        let l = &fns[0].locks[0];
        assert!(l.guard.is_none());
        let later = fns[0].calls.iter().find(|c| c.callee == "later").unwrap();
        assert!(later.tok > l.scope_end);
    }

    #[test]
    fn helper_call_form_and_drop_shorten_scope() {
        let src = "\
fn f(shared: &Shared) {
    let queues = lock(&shared.queues);
    step(&queues);
    drop(queues);
    blocking_wait();
}
";
        let fns = parse_src(src);
        let l = &fns[0].locks[0];
        assert_eq!(l.name, "queues");
        let wait = fns[0]
            .calls
            .iter()
            .find(|c| c.callee == "blocking_wait")
            .unwrap();
        assert!(wait.tok > l.scope_end, "drop(queues) must end the scope");
    }

    #[test]
    fn test_functions_are_marked() {
        let src = "\
fn real() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
";
        let fns = parse_src(src);
        assert!(!fns.iter().find(|f| f.name == "real").unwrap().is_test);
        assert!(fns.iter().find(|f| f.name == "helper").unwrap().is_test);
    }

    #[test]
    fn while_header_is_part_of_the_loop() {
        let src = "\
fn f(rx: &Receiver<u32>) {
    while rx.recv().is_ok() {
        work();
    }
}
";
        let fns = parse_src(src);
        let f = &fns[0];
        let lp = &f.loops[0];
        let recv = f.calls.iter().find(|c| c.callee == "recv").unwrap();
        assert!(recv.tok > lp.tok && recv.tok < lp.close);
    }
}
