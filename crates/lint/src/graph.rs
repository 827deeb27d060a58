//! Workspace-level concurrency analysis: cross-crate call graph, lock-order
//! graph, and the `C-*` rules built on them.
//!
//! Three rules ride on the graphs:
//!
//! * **C-lockorder** — the lock-order graph has an edge `A → B` whenever a
//!   `B` guard is acquired (directly, or transitively through a call)
//!   while an `A` guard is held. A cycle in that graph is a potential
//!   deadlock; so is a self-edge (re-acquiring a `std::sync::Mutex` on the
//!   same thread deadlocks outright).
//! * **C-lockheld** — a guard held across a blocking wait (`recv`,
//!   `recv_timeout`, `accept`, `connect`, socket/file I/O) stalls every
//!   other thread needing that lock for the full wait. `Condvar` waits are
//!   exempt: `wait_timeout(guard, ..)` *releases* the lock while waiting —
//!   that is the sanctioned blocking-under-a-lock pattern.
//! * **C-cancel** — loops in `crates/specan` / `crates/serve` that perform
//!   captures or blocking waits (directly or transitively) must mention a
//!   cancellation check (`is_cancelled` or the server's `phase` gate)
//!   somewhere in the loop, so a fired `CancelToken` stops the loop
//!   within one iteration. `CancelToken` lives in `fase_specan::cancel`.
//!
//! Lock identity is lexical: the final field/receiver identifier of the
//! lock expression, qualified by crate (`serve::queues`). Call edges
//! resolve by callee name, preferring same-file, then same-crate, then a
//! unique workspace-wide match; ambiguous names stay unresolved rather
//! than guess. Test functions are excluded throughout.

use crate::parse::ParsedFn;
use crate::report::Finding;
use crate::FileModel;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Method/function names that block the calling thread: channel waits,
/// socket establishment, and stream I/O.
const BLOCKING: &[&str] = &[
    "recv",
    "recv_timeout",
    "recv_deadline",
    "accept",
    "connect",
    "wait",
    "wait_timeout",
    "wait_while",
    "wait_timeout_while",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_until",
    "read_line",
    "write_all",
];

/// The `Condvar` wait family: blocking, but it *releases* the guard it is
/// handed, so it is exempt from C-lockheld (and is the reason the rule
/// exists at all — every other blocking call keeps the lock).
const CONDVAR_WAITS: &[&str] = &["wait", "wait_timeout", "wait_while", "wait_timeout_while"];

/// Functions that execute a capture; loops reaching one must be
/// cancellable.
const CAPTURE_FNS: &[&str] = &["capture", "capture_once", "execute_capture"];

/// Identifiers that count as a cancellation check inside a loop:
/// `CancelToken::is_cancelled` and the server's drain-phase gate.
const CANCEL_CHECKS: &[&str] = &["is_cancelled", "phase"];

/// Path prefixes whose loops are held to C-cancel.
const CANCEL_SCOPE: &[&str] = &["crates/specan/src/", "crates/serve/src/"];

/// Names so dominated by std/primitive methods that resolving a call to
/// a same-named workspace function is almost always wrong (`.store()` on
/// an atomic is not `CaptureCache::store`; `.join()` on a `JoinHandle`
/// or `Path` is not `ServerHandle::join`). Calls to these names stay
/// unresolved; the by-name `BLOCKING`/`CAPTURE_FNS` checks still see
/// them.
const NO_RESOLVE: &[&str] = &[
    "new",
    "default",
    "clone",
    "drop",
    "join",
    "store",
    "load",
    "swap",
    "fetch_add",
    "fetch_sub",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "contains",
    "contains_key",
    "min",
    "max",
    "sum",
    "map",
    "filter",
    "collect",
    "find",
    "position",
    "any",
    "all",
    "fold",
    "rev",
    "zip",
    "entry",
    "keys",
    "values",
    "first",
    "last",
    "sort",
    "take",
    "replace",
    "send",
    "flush",
    "name",
    "spawn",
    "sleep",
    "from_millis",
    "from_secs",
    "as_millis",
    "as_secs",
    "drain",
    "abs",
    "to_owned",
    "to_string",
    "parse",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "extend",
    "clear",
    "split",
    "trim",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "expect",
    "clamp",
    "floor",
    "ceil",
    "round",
    "powi",
    "powf",
    "exp",
];

/// One function in the workspace model.
#[derive(Debug)]
pub(crate) struct FnRef<'a> {
    pub(crate) file: usize,
    pub(crate) f: &'a ParsedFn,
    /// `crate::name`, for graph output.
    pub(crate) qname: String,
}

/// The resolved workspace graphs.
#[derive(Debug)]
pub struct Graphs<'a> {
    pub(crate) models: &'a [FileModel],
    pub(crate) fns: Vec<FnRef<'a>>,
    /// Per-fn resolved call targets (indices into `fns`), one per call
    /// site; unresolvable calls are `None`.
    pub(crate) resolved: Vec<Vec<Option<usize>>>,
    /// Transitively blocking functions.
    pub(crate) blocking: Vec<bool>,
    /// Functions that (transitively) execute a capture.
    pub(crate) captures: Vec<bool>,
    /// Transitive crate-qualified lock identities each fn acquires.
    pub(crate) acquires: Vec<BTreeSet<String>>,
    /// Lock-order edges: `from → {to → (file, line)}` (first site wins).
    pub(crate) lock_edges: BTreeMap<String, BTreeMap<String, (String, u32)>>,
}

/// Builds the call and lock graphs for the parsed workspace.
pub fn build(models: &[FileModel]) -> Graphs<'_> {
    let mut fns = Vec::new();
    for (file, m) in models.iter().enumerate() {
        for f in &m.fns {
            if f.is_test || f.body.is_none() {
                continue;
            }
            fns.push(FnRef {
                file,
                f,
                qname: format!("{}::{}", m.crate_name, f.name),
            });
        }
    }

    // Name → candidate fn indices.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, fr) in fns.iter().enumerate() {
        by_name.entry(&fr.f.name).or_default().push(i);
    }

    // Resolve each call: same file, then same crate, then unique global —
    // each level only when it narrows to exactly one candidate.
    let resolved: Vec<Vec<Option<usize>>> = fns
        .iter()
        .map(|fr| {
            fr.f.calls
                .iter()
                .map(|c| {
                    if NO_RESOLVE.contains(&c.callee.as_str()) {
                        return None;
                    }
                    let cands = by_name.get(c.callee.as_str())?;
                    let same_file: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&j| fns[j].file == fr.file)
                        .collect();
                    if same_file.len() == 1 {
                        return Some(same_file[0]);
                    }
                    let crate_name = &models[fr.file].crate_name;
                    let same_crate: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&j| &models[fns[j].file].crate_name == crate_name)
                        .collect();
                    if same_crate.len() == 1 {
                        return Some(same_crate[0]);
                    }
                    if cands.len() == 1 {
                        return Some(cands[0]);
                    }
                    None
                })
                .collect()
        })
        .collect();

    // Seed the transitive properties from direct evidence.
    let n = fns.len();
    let mut blocking = vec![false; n];
    let mut captures = vec![false; n];
    let mut acquires: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for (i, fr) in fns.iter().enumerate() {
        let crate_name = &models[fr.file].crate_name;
        for c in &fr.f.calls {
            if BLOCKING.contains(&c.callee.as_str()) {
                blocking[i] = true;
            }
            if CAPTURE_FNS.contains(&c.callee.as_str()) {
                captures[i] = true;
            }
        }
        for l in &fr.f.locks {
            acquires[i].insert(format!("{crate_name}::{}", l.name));
        }
    }

    // Propagate caller-ward to a fixpoint.
    loop {
        let mut changed = false;
        for i in 0..n {
            for target in resolved[i].iter().flatten() {
                let g = *target;
                if blocking[g] && !blocking[i] {
                    blocking[i] = true;
                    changed = true;
                }
                if captures[g] && !captures[i] {
                    captures[i] = true;
                    changed = true;
                }
                if !acquires[g].is_empty() && g != i {
                    let add: Vec<String> = acquires[g]
                        .iter()
                        .filter(|l| !acquires[i].contains(*l))
                        .cloned()
                        .collect();
                    if !add.is_empty() {
                        acquires[i].extend(add);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Lock-order edges: a direct or transitive acquisition inside a held
    // guard's scope.
    let mut lock_edges: BTreeMap<String, BTreeMap<String, (String, u32)>> = BTreeMap::new();
    let mut edge = |from: &str, to: &str, file: &str, line: u32| {
        lock_edges
            .entry(from.to_owned())
            .or_default()
            .entry(to.to_owned())
            .or_insert((file.to_owned(), line));
    };
    for (i, fr) in fns.iter().enumerate() {
        let m = &models[fr.file];
        if !m.rules.locks {
            continue;
        }
        let crate_name = &m.crate_name;
        for l in &fr.f.locks {
            let from = format!("{crate_name}::{}", l.name);
            for l2 in &fr.f.locks {
                if l2.tok > l.tok && l2.tok < l.scope_end {
                    let to = format!("{crate_name}::{}", l2.name);
                    edge(&from, &to, &m.rel, l2.line);
                }
            }
            for (c, target) in fr.f.calls.iter().zip(&resolved[i]) {
                if c.tok <= l.tok || c.tok >= l.scope_end {
                    continue;
                }
                // The acquisition call itself is not an edge.
                if fr.f.locks.iter().any(|o| o.tok == c.tok) {
                    continue;
                }
                if let Some(g) = target {
                    for to in &acquires[*g] {
                        edge(&from, to, &m.rel, c.line);
                    }
                }
            }
        }
    }

    Graphs {
        models,
        fns,
        resolved,
        blocking,
        captures,
        acquires,
        lock_edges,
    }
}

impl Graphs<'_> {
    /// Runs the C-rules over the graphs, returning raw (pre-pragma)
    /// findings.
    pub fn check(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        self.check_lockheld(&mut out);
        self.check_lockorder(&mut out);
        self.check_cancel(&mut out);
        out
    }

    /// C-lockheld: a guard held across a blocking call.
    fn check_lockheld(&self, out: &mut Vec<Finding>) {
        for (i, fr) in self.fns.iter().enumerate() {
            let m = &self.models[fr.file];
            if !m.rules.locks {
                continue;
            }
            let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
            for (li, l) in fr.f.locks.iter().enumerate() {
                for (c, target) in fr.f.calls.iter().zip(&self.resolved[i]) {
                    if c.tok <= l.tok || c.tok >= l.scope_end {
                        continue;
                    }
                    if fr.f.locks.iter().any(|o| o.tok == c.tok) {
                        continue; // nested acquisitions are C-lockorder's job
                    }
                    if CONDVAR_WAITS.contains(&c.callee.as_str()) {
                        continue; // Condvar waits release the guard
                    }
                    let direct = BLOCKING.contains(&c.callee.as_str());
                    let transitive = target.is_some_and(|g| self.blocking[g]);
                    if (direct || transitive) && seen.insert((li, c.tok)) {
                        let how = if direct {
                            format!("blocking `.{}(..)`", c.callee)
                        } else {
                            format!("`{}(..)`, which blocks on its call path", c.callee)
                        };
                        out.push(Finding {
                            rule: "C-lockheld",
                            file: m.rel.clone(),
                            line: c.line,
                            col: 1,
                            message: format!(
                                "guard of lock `{}` (taken line {}) is held across {how}; \
                                 drop the guard before waiting",
                                l.name, l.line
                            ),
                        });
                    }
                }
            }
        }
    }

    /// C-lockorder: self-edges and cycles in the lock-order graph.
    fn check_lockorder(&self, out: &mut Vec<Finding>) {
        // Self-edges: re-acquiring a std Mutex on the same thread is an
        // immediate deadlock.
        for (from, tos) in &self.lock_edges {
            if let Some((file, line)) = tos.get(from) {
                out.push(Finding {
                    rule: "C-lockorder",
                    file: file.clone(),
                    line: *line,
                    col: 1,
                    message: format!(
                        "lock `{from}` is acquired again while already held \
                         (self-deadlock with std::sync::Mutex)"
                    ),
                });
            }
        }
        // Cycles across distinct locks: strongly connected components of
        // the order graph with more than one node.
        let reach = |start: &String| -> BTreeSet<String> {
            let mut seen = BTreeSet::new();
            let mut stack = vec![start.clone()];
            while let Some(node) = stack.pop() {
                if let Some(tos) = self.lock_edges.get(&node) {
                    for to in tos.keys() {
                        if to != start && seen.insert(to.clone()) {
                            stack.push(to.clone());
                        }
                    }
                }
            }
            seen
        };
        let nodes: BTreeSet<&String> = self.lock_edges.keys().collect();
        let reachable: BTreeMap<&String, BTreeSet<String>> =
            nodes.iter().map(|&n| (n, reach(n))).collect();
        let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
        for &a in &nodes {
            for b in &reachable[a] {
                if b == a.as_str() || !reachable.get(b).is_some_and(|r| r.contains(a.as_str())) {
                    continue;
                }
                // a and b are mutually reachable: collect their SCC.
                let mut scc: Vec<String> = reachable[a]
                    .iter()
                    .filter(|c| {
                        reachable
                            .get(*c)
                            .is_some_and(|r| r.contains(a.as_str()) || *c == a)
                    })
                    .cloned()
                    .collect();
                scc.push(a.clone());
                scc.sort();
                scc.dedup();
                if !reported.insert(scc.clone()) {
                    continue;
                }
                // Anchor at the lexicographically smallest edge site
                // inside the cycle.
                let site = scc
                    .iter()
                    .flat_map(|f| {
                        self.lock_edges.get(f).into_iter().flat_map(|tos| {
                            tos.iter()
                                .filter(|(to, _)| scc.contains(to))
                                .map(|(_, site)| site.clone())
                        })
                    })
                    .min();
                let (file, line) = site.unwrap_or_else(|| (String::from("<workspace>"), 0));
                out.push(Finding {
                    rule: "C-lockorder",
                    file,
                    line,
                    col: 1,
                    message: format!(
                        "lock-order cycle {{{}}}: different call paths acquire these locks \
                         in conflicting orders (potential deadlock); pick one global order",
                        scc.join(" -> ")
                    ),
                });
            }
        }
    }

    /// C-cancel: capture/blocking loops in specan/serve must poll the
    /// token.
    fn check_cancel(&self, out: &mut Vec<Finding>) {
        for (i, fr) in self.fns.iter().enumerate() {
            let m = &self.models[fr.file];
            if !CANCEL_SCOPE.iter().any(|p| m.rel.starts_with(p)) {
                continue;
            }
            let tokens = &m.lexed.tokens;
            for lp in &fr.f.loops {
                let in_loop = |tok: usize| tok > lp.tok && tok <= lp.close;
                let mut why: Option<String> = None;
                for (c, target) in fr.f.calls.iter().zip(&self.resolved[i]) {
                    if !in_loop(c.tok) {
                        continue;
                    }
                    if CAPTURE_FNS.contains(&c.callee.as_str()) {
                        why = Some(format!("executes captures via `{}`", c.callee));
                        break;
                    }
                    if BLOCKING.contains(&c.callee.as_str()) {
                        why = Some(format!("blocks in `.{}(..)`", c.callee));
                        break;
                    }
                    if let Some(g) = target {
                        if self.captures[*g] {
                            why = Some(format!("reaches captures through `{}`", c.callee));
                            break;
                        }
                        if self.blocking[*g] {
                            why = Some(format!("blocks through `{}`", c.callee));
                            break;
                        }
                    }
                }
                let Some(why) = why else { continue };
                let checked = tokens[lp.tok..=lp.close.min(tokens.len() - 1)]
                    .iter()
                    .any(|t| CANCEL_CHECKS.iter().any(|c| t.is_ident(c)));
                if !checked {
                    out.push(Finding {
                        rule: "C-cancel",
                        file: m.rel.clone(),
                        line: lp.line,
                        col: 1,
                        message: format!(
                            "`{}` loop {why} but never checks the CancelToken; poll \
                             `is_cancelled()` (or the drain phase) every iteration",
                            lp.kind
                        ),
                    });
                }
            }
        }
    }

    /// Deterministic JSON dump of the call and lock graphs. Contains no
    /// timestamps or absolute paths, so two runs over the same tree are
    /// byte-identical.
    pub fn to_json(&self) -> String {
        // Unique, sorted call edges by qualified name.
        let mut call_edges: BTreeSet<(String, String)> = BTreeSet::new();
        for (i, fr) in self.fns.iter().enumerate() {
            for target in self.resolved[i].iter().flatten() {
                let to = &self.fns[*target].qname;
                if *to != fr.qname {
                    call_edges.insert((fr.qname.clone(), to.clone()));
                }
            }
        }
        let locks: BTreeSet<&String> = self
            .acquires
            .iter()
            .flat_map(|s| s.iter())
            .collect::<BTreeSet<_>>();
        let functions: BTreeSet<&String> = self.fns.iter().map(|f| &f.qname).collect();

        let mut out = String::from("{\n  \"version\": 1,\n  \"stats\": {");
        let edge_count: usize = self.lock_edges.values().map(BTreeMap::len).sum();
        let _ = writeln!(
            out,
            "\"files\": {}, \"functions\": {}, \"call_edges\": {}, \"locks\": {}, \
             \"lock_edges\": {}}},",
            self.models.len(),
            functions.len(),
            call_edges.len(),
            locks.len(),
            edge_count
        );
        out.push_str("  \"locks\": [");
        for (i, l) in locks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", crate::report::json_str(l));
        }
        out.push_str("],\n  \"lock_edges\": [");
        let mut first = true;
        for (from, tos) in &self.lock_edges {
            for (to, (file, line)) in tos {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\n    {{\"from\": {}, \"to\": {}, \"file\": {}, \"line\": {}}}",
                    crate::report::json_str(from),
                    crate::report::json_str(to),
                    crate::report::json_str(file),
                    line
                );
            }
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"call_edges\": [");
        for (i, (from, to)) in call_edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    [{}, {}]",
                crate::report::json_str(from),
                crate::report::json_str(to)
            );
        }
        if !call_edges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// True when the named function (qualified or not) transitively
    /// blocks — exposed for tests.
    pub fn fn_blocks(&self, name: &str) -> bool {
        self.fns
            .iter()
            .enumerate()
            .any(|(i, f)| (f.qname == name || f.f.name == name) && self.blocking[i])
    }

    /// The transitive lock set of the named function — exposed for tests.
    pub fn fn_acquires(&self, name: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (i, f) in self.fns.iter().enumerate() {
            if f.qname == name || f.f.name == name {
                out.extend(self.acquires[i].iter().cloned());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models_from;

    #[test]
    fn blocking_and_locks_propagate_through_calls() {
        let models = models_from(&[(
            "crates/serve/src/lib.rs",
            "pub fn wait_msg(rx: &Receiver<u32>) {\n    let m = rx.recv();\n    drop(m);\n}\n\
             pub fn outer(rx: &Receiver<u32>, q: &Mutex<u32>) {\n    let g = q.lock();\n    \
             drop(g);\n    wait_msg(rx);\n}\n",
        )]);
        let g = build(&models);
        assert!(g.fn_blocks("serve::wait_msg"), "direct recv must block");
        assert!(g.fn_blocks("serve::outer"), "blocking must propagate");
        assert!(g.fn_acquires("outer").contains("serve::q"), "{g:?}");
    }

    #[test]
    fn std_dominated_names_stay_unresolved() {
        // `.store()` on an atomic must not resolve to a workspace fn named
        // `store`, which would smear its lock set onto every caller.
        let models = models_from(&[(
            "crates/serve/src/lib.rs",
            "pub fn store(q: &Mutex<u32>) {\n    let g = q.lock();\n    drop(g);\n}\n\
             pub fn tick(flag: &AtomicBool) {\n    flag.store(true, Ordering::SeqCst);\n}\n",
        )]);
        let g = build(&models);
        assert!(g.fn_acquires("tick").is_empty(), "{g:?}");
    }
}
