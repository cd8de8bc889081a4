//! Workspace automation. `cargo xtask lint` runs the custom static
//! analysis pass over the CI-Rank-specific invariants that clippy cannot
//! express (ISSUE 1, layer 2):
//!
//! 1. **Admissibility asserts** — every `pub fn` in
//!    `crates/search/src/bounds.rs` returning a bound (`-> f64`) must carry
//!    a paired `debug_assert` that mentions admissibility, so the Lemma 1
//!    soundness obligation (`ub(C) ≥` the score of any answer grown from
//!    `C`) stays machine-visible next to the code that computes the bound.
//! 2. **Tagged exemptions** — `#[allow(...)]` attributes in the five
//!    hot-path crates (`ci-graph`, `ci-walk`, `ci-rwmp`, `ci-search`,
//!    `ci-index`) are only legal underneath a `// LINT-EXEMPT(reason)`
//!    comment. The workspace lint wall catches the panics themselves; this
//!    rule keeps every escape hatch justified in-place.
//! 3. **Non-panicking public surface** — library crates must not reach
//!    panicking constructs (`unwrap`, `expect`, `panic!`, `todo!`,
//!    `unimplemented!`) outside their `#[cfg(test)]` modules, except under
//!    a `LINT-EXEMPT` tag. This re-checks, without compiling, what the
//!    clippy wall enforces — so the rule also holds on machines that run
//!    only `cargo xtask lint`.
//! 4. **Static oracle dispatch on the hot path** — the search inner loops
//!    (`crates/search/src/{bnb,bounds,naive}.rs`) must not mention
//!    `dyn DistanceOracle` outside their test modules. The search
//!    functions are generic over `O: DistanceOracle` so bound probes
//!    inline; a `dyn` slipping back in would silently reintroduce a
//!    virtual call per probe. The index's `DistIndex::with_oracle` is the
//!    one sanctioned dispatch point.
//! 5. **Scoped threads only** — library crates must not call detached
//!    `thread::spawn`. The parallel offline build borrows the graph and
//!    dampening vectors across its workers; `std::thread::scope` makes the
//!    borrow sound *and* joins (propagating panics) before returning, while
//!    a detached spawn would force `'static` bounds (cloning the graph) or
//!    leak a running worker past an early error return. Tests may still
//!    spawn freely (e.g. the concurrent-serving harness).
//! 6. **No hashed containers in the branch-and-bound inner loop** — the
//!    files the per-candidate hot path runs through
//!    (`crates/search/src/{bnb,bounds,cache,candidate,scratch,flows,validity}.rs`)
//!    must not mention `HashMap`, `HashSet` or `BTreeMap` outside their
//!    test modules. The query hot path replaced every per-candidate map
//!    and set with flat structures (the oracle-cache slab, the intrusive
//!    root chains, the open-addressing admission dedup set); a hashed
//!    container slipping back in would silently reintroduce SipHash and
//!    per-key allocation per candidate. `query.rs`'s per-query matcher map
//!    (built once per query, outside the loop) and the top-k's answer set
//!    (touched once per complete answer) are outside the rule's files. A
//!    `LINT-EXEMPT(reason)` comment within 8 lines above the use exempts
//!    audited cases.
//! 7. **One Eq. 2 kernel** — non-test code in `crates/search/src` and
//!    `crates/rwmp/src` may call `edge_weight(` only in
//!    `crates/rwmp/src/scorer.rs`. Bounds, answer scores and score
//!    explanations all read the RWMP flow kernel there (`FlowState`,
//!    `Scorer::fill_flows`, `FlowState::reduce`) and agree bit for bit by
//!    construction; a second weight-split loop elsewhere would have to be
//!    kept equal by hand again.
//!
//! The checker is deliberately textual (the offline build environment has
//! no `syn`); the heuristics below are documented inline and tuned to this
//! repository's layout: one `#[cfg(test)] mod tests` block at the end of a
//! file, attribute-per-line formatting (enforced by rustfmt).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates whose `#[allow(...)]`s require a `LINT-EXEMPT(reason)` tag.
const HOT_PATH_CRATES: &[&str] = &["graph", "walk", "rwmp", "search", "index"];

/// Library crates whose non-test code must not panic (rule 3). The shim
/// crates mirror external dependencies and are exempt by design; datagen
/// is exempt per the lint-wall policy (generator code may panic).
const LIBRARY_CRATES: &[&str] = &[
    "storage",
    "text",
    "graph",
    "walk",
    "rwmp",
    "search",
    "index",
    "baselines",
    "core",
    "eval",
    "cli",
    "bench",
];

/// How many lines above a site a `LINT-EXEMPT` comment still covers it.
const EXEMPT_WINDOW: usize = 8;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some(other) => {
            eprintln!("unknown xtask {other:?}\n\nUSAGE:\n  cargo xtask lint");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("USAGE:\n  cargo xtask lint");
            ExitCode::FAILURE
        }
    }
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut findings: Vec<String> = Vec::new();

    check_admissibility_asserts(&root, &mut findings);
    for krate in HOT_PATH_CRATES {
        check_tagged_allows(&root.join("crates").join(krate).join("src"), &mut findings);
    }
    for krate in LIBRARY_CRATES {
        let src = root.join("crates").join(krate).join("src");
        check_no_panicking(&src, &mut findings);
        check_no_detached_threads(&src, &mut findings);
    }
    check_no_dyn_oracle(&root, &mut findings);
    check_no_inner_loop_maps(&root, &mut findings);
    check_single_flow_kernel(&root, &mut findings);

    if findings.is_empty() {
        println!("xtask lint: ok");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("xtask lint: {f}");
        }
        eprintln!("xtask lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// The workspace root: this binary lives in `crates/xtask`, so it is two
/// directories above the manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Rule 1: every `pub fn` in `search/src/bounds.rs` returning `-> f64`
/// must contain a `debug_assert` whose message mentions admissibility
/// before the next top-level `fn`.
fn check_admissibility_asserts(root: &Path, findings: &mut Vec<String>) {
    let path = root.join("crates/search/src/bounds.rs");
    let Ok(src) = fs::read_to_string(&path) else {
        findings.push(format!("{}: cannot read file", path.display()));
        return;
    };
    let lines: Vec<&str> = non_test_region(&src).collect();
    let mut i = 0;
    while i < lines.len() {
        let Some(&line) = lines.get(i) else { break };
        if !line.trim_start().starts_with("pub fn ") {
            i += 1;
            continue;
        }
        // The signature may span lines; collect until the opening brace.
        let mut sig = String::new();
        let mut j = i;
        while let Some(&l) = lines.get(j) {
            sig.push_str(l);
            sig.push(' ');
            if l.contains('{') {
                break;
            }
            j += 1;
        }
        let name = sig
            .split("pub fn ")
            .nth(1)
            .and_then(|rest| rest.split(['(', '<']).next())
            .unwrap_or("?")
            .to_string();
        let returns_bound = sig.contains("-> f64");
        // Scan the body: up to the next `fn ` at column 0/4 or EOF.
        let mut has_assert = false;
        let mut k = j + 1;
        while let Some(&l) = lines.get(k) {
            let t = l.trim_start();
            if (t.starts_with("pub fn ") || t.starts_with("fn ")) && leading_spaces(l) == 0 {
                break;
            }
            if t.contains("debug_assert") {
                // Look for the admissibility marker on this or nearby lines
                // (the assert message may wrap).
                let window = lines
                    .get(k..(k + 4).min(lines.len()))
                    .unwrap_or(&[])
                    .join(" ");
                if window.to_lowercase().contains("admissib") {
                    has_assert = true;
                }
            }
            k += 1;
        }
        if returns_bound && !has_assert {
            findings.push(format!(
                "{}: pub fn {name} returns a bound but has no paired \
                 admissibility debug_assert",
                path.display()
            ));
        }
        i = j + 1;
    }
}

/// Rule 2: `#[allow(...)]` / `#![allow(...)]` in hot-path crates must sit
/// within [`EXEMPT_WINDOW`] lines below a `LINT-EXEMPT(` comment.
fn check_tagged_allows(src_dir: &Path, findings: &mut Vec<String>) {
    for file in rust_files(src_dir) {
        let Ok(src) = fs::read_to_string(&file) else {
            continue;
        };
        let lines: Vec<&str> = src.lines().collect();
        for (n, line) in lines.iter().enumerate() {
            let t = line.trim_start();
            // Test-scoped relaxations (`cfg_attr(test, allow(...))`) need no
            // justification: the lint-wall policy already allows panicking
            // constructs in tests. Only unconditional allows are audited.
            let is_allow = t.starts_with("#[allow(") || t.starts_with("#![allow(");
            if !is_allow {
                continue;
            }
            let start = n.saturating_sub(EXEMPT_WINDOW);
            let covered = lines
                .get(start..n)
                .unwrap_or(&[])
                .iter()
                .any(|l| l.contains("LINT-EXEMPT("));
            if !covered {
                findings.push(format!(
                    "{}:{}: #[allow] in a hot-path crate without a \
                     LINT-EXEMPT(reason) comment",
                    file.display(),
                    n + 1
                ));
            }
        }
    }
}

/// Rule 3: panicking constructs outside tests and LINT-EXEMPT coverage.
fn check_no_panicking(src_dir: &Path, findings: &mut Vec<String>) {
    const FORBIDDEN: &[&str] = &[
        ".unwrap()",
        ".expect(",
        "panic!(",
        "todo!(",
        "unimplemented!(",
    ];
    for file in rust_files(src_dir) {
        let Ok(src) = fs::read_to_string(&file) else {
            continue;
        };
        // A file (or its directory's mod.rs) may opt out wholesale with a
        // tagged module-level allow — e.g. the eval experiment drivers.
        if file_has_tagged_allow(&src) || dir_has_tagged_allow(&file, src_dir) {
            continue;
        }
        let lines: Vec<&str> = src.lines().collect();
        let test_start = lines
            .iter()
            .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
            .unwrap_or(lines.len());
        for (n, line) in lines.iter().enumerate().take(test_start) {
            let t = line.trim_start();
            if t.starts_with("//") {
                continue;
            }
            let code = strip_strings(line);
            if !FORBIDDEN.iter().any(|f| code.contains(f)) {
                continue;
            }
            // `debug_assert!(...)`-style lines are fine; `unwrap_or*` is
            // non-panicking and excluded by the exact `.unwrap()` pattern.
            let start = n.saturating_sub(EXEMPT_WINDOW);
            let covered = lines
                .get(start..n)
                .unwrap_or(&[])
                .iter()
                .any(|l| l.contains("LINT-EXEMPT("));
            if !covered {
                findings.push(format!(
                    "{}:{}: panicking construct in library code without a \
                     LINT-EXEMPT(reason) tag",
                    file.display(),
                    n + 1
                ));
            }
        }
    }
}

/// Rule 5: no detached `thread::spawn` in library code. Scoped spawns
/// (`std::thread::scope(|s| s.spawn(...))`) do not match the pattern and
/// stay legal — they join before returning and admit borrowed data.
fn check_no_detached_threads(src_dir: &Path, findings: &mut Vec<String>) {
    for file in rust_files(src_dir) {
        let Ok(src) = fs::read_to_string(&file) else {
            continue;
        };
        for n in detached_spawn_hits(&src) {
            findings.push(format!(
                "{}:{}: detached `thread::spawn` in library code — use \
                 `std::thread::scope` so workers join (and may borrow) \
                 before the call returns",
                file.display(),
                n
            ));
        }
    }
}

/// 1-based line numbers in the non-test region of `src` that call
/// `thread::spawn` outside comments, string literals, and `LINT-EXEMPT`
/// coverage. The scoped `s.spawn(...)` form deliberately does not match.
fn detached_spawn_hits(src: &str) -> Vec<usize> {
    let lines: Vec<&str> = non_test_region(src).collect();
    let mut hits = Vec::new();
    for (n, line) in lines.iter().enumerate() {
        if line.trim_start().starts_with("//") {
            continue;
        }
        if !strip_strings(line).contains("thread::spawn") {
            continue;
        }
        let start = n.saturating_sub(EXEMPT_WINDOW);
        let covered = lines
            .get(start..n)
            .unwrap_or(&[])
            .iter()
            .any(|l| l.contains("LINT-EXEMPT("));
        if !covered {
            hits.push(n + 1);
        }
    }
    hits
}

/// Rule 4: no `dyn DistanceOracle` in the search hot path. The non-test
/// region of the branch-and-bound loop, the bound computations, and the
/// naive enumerator must stay generic over the oracle; tests may still use
/// trait objects (e.g. arrays of heterogeneous oracles).
fn check_no_dyn_oracle(root: &Path, findings: &mut Vec<String>) {
    const HOT_PATH_FILES: &[&str] = &[
        "crates/search/src/bnb.rs",
        "crates/search/src/bounds.rs",
        "crates/search/src/naive.rs",
    ];
    for rel in HOT_PATH_FILES {
        let path = root.join(rel);
        let Ok(src) = fs::read_to_string(&path) else {
            findings.push(format!("{}: cannot read file", path.display()));
            continue;
        };
        for n in dyn_oracle_hits(&src) {
            findings.push(format!(
                "{}:{}: `dyn DistanceOracle` on the search hot path — \
                 keep the oracle generic (static dispatch) and route \
                 variant selection through DistIndex::with_oracle",
                path.display(),
                n
            ));
        }
    }
}

/// The branch-and-bound inner-loop files rule 6 covers.
const INNER_LOOP_FILES: &[&str] = &[
    "crates/search/src/bnb.rs",
    "crates/search/src/bounds.rs",
    "crates/search/src/cache.rs",
    "crates/search/src/candidate.rs",
    "crates/search/src/scratch.rs",
    "crates/search/src/flows.rs",
    "crates/search/src/query.rs",
    "crates/search/src/validity.rs",
];

/// Rule 6: no `HashMap`/`HashSet`/`BTreeMap` in the branch-and-bound
/// inner-loop files. The hot path replaced per-candidate maps and sets
/// with flat structures (oracle-cache slab, intrusive root chains, the
/// flat per-run candidate store, open-addressing dedup set and matcher
/// table); this keeps them from regressing. Tests may still use them, and
/// an audited use can be tagged `LINT-EXEMPT(reason)`.
fn check_no_inner_loop_maps(root: &Path, findings: &mut Vec<String>) {
    for rel in INNER_LOOP_FILES {
        let path = root.join(rel);
        let Ok(src) = fs::read_to_string(&path) else {
            findings.push(format!("{}: cannot read file", path.display()));
            continue;
        };
        for n in inner_loop_map_hits(&src) {
            findings.push(format!(
                "{}:{}: hashed/ordered container in a branch-and-bound \
                 inner-loop file — use the flat structures (oracle-cache \
                 slab, root chains, candidate store, dedup set, matcher \
                 table) or tag an audited exemption with LINT-EXEMPT(reason)",
                path.display(),
                n
            ));
        }
    }
}

/// Rule 7: the Eq. 2 weight split lives only in the flow kernel. Outside
/// `crates/rwmp/src/scorer.rs`, non-test code in the scoring and search
/// crates must not read edge weights (`edge_weight(`).
fn check_single_flow_kernel(root: &Path, findings: &mut Vec<String>) {
    const KERNEL: &str = "crates/rwmp/src/scorer.rs";
    for krate in ["rwmp", "search"] {
        for path in rust_files(&root.join("crates").join(krate).join("src")) {
            if path == root.join(KERNEL) {
                continue;
            }
            let Ok(src) = fs::read_to_string(&path) else {
                findings.push(format!("{}: cannot read file", path.display()));
                continue;
            };
            for n in edge_weight_hits(&src) {
                findings.push(format!(
                    "{}:{}: `edge_weight(` outside the flow kernel — compute \
                     RWMP flows through {KERNEL} (Scorer::fill_flows / \
                     grow_flows) instead of splitting weights here",
                    path.display(),
                    n
                ));
            }
        }
    }
}

/// 1-based line numbers in the non-test region of `src` that call
/// `edge_weight(` outside comments and string literals.
fn edge_weight_hits(src: &str) -> Vec<usize> {
    non_test_region(src)
        .enumerate()
        .filter(|(_, line)| {
            !line.trim_start().starts_with("//") && strip_strings(line).contains("edge_weight(")
        })
        .map(|(n, _)| n + 1)
        .collect()
}

/// 1-based line numbers in the non-test region of `src` that mention
/// `HashMap`, `HashSet` or `BTreeMap` outside comments, string literals,
/// and `LINT-EXEMPT` coverage.
fn inner_loop_map_hits(src: &str) -> Vec<usize> {
    let lines: Vec<&str> = non_test_region(src).collect();
    let mut hits = Vec::new();
    for (n, line) in lines.iter().enumerate() {
        if line.trim_start().starts_with("//") {
            continue;
        }
        let code = strip_strings(line);
        if !["HashMap", "HashSet", "BTreeMap"]
            .iter()
            .any(|name| code.contains(name))
        {
            continue;
        }
        let start = n.saturating_sub(EXEMPT_WINDOW);
        let covered = lines
            .get(start..n)
            .unwrap_or(&[])
            .iter()
            .any(|l| l.contains("LINT-EXEMPT("));
        if !covered {
            hits.push(n + 1);
        }
    }
    hits
}

/// 1-based line numbers in the non-test region of `src` that mention
/// `dyn DistanceOracle` outside comments and string literals.
fn dyn_oracle_hits(src: &str) -> Vec<usize> {
    non_test_region(src)
        .enumerate()
        .filter(|(_, line)| {
            !line.trim_start().starts_with("//")
                && strip_strings(line).contains("dyn DistanceOracle")
        })
        .map(|(n, _)| n + 1)
        .collect()
}

/// True if the file carries a module-level `#![allow(...)]` under a
/// `LINT-EXEMPT` tag (the whole file is then an audited exemption).
fn file_has_tagged_allow(src: &str) -> bool {
    let lines: Vec<&str> = src.lines().collect();
    lines.iter().enumerate().any(|(n, l)| {
        l.trim_start().starts_with("#![allow(") && {
            let start = n.saturating_sub(EXEMPT_WINDOW);
            lines
                .get(start..n)
                .unwrap_or(&[])
                .iter()
                .any(|p| p.contains("LINT-EXEMPT("))
        }
    })
}

/// True if an enclosing `mod.rs` (between the file and the crate's `src/`)
/// carries a tagged module-level allow covering this file.
fn dir_has_tagged_allow(file: &Path, src_dir: &Path) -> bool {
    let mut dir = file.parent();
    while let Some(d) = dir {
        if d == src_dir {
            break;
        }
        let mod_rs = d.join("mod.rs");
        if mod_rs != file {
            if let Ok(src) = fs::read_to_string(&mod_rs) {
                if file_has_tagged_allow(&src) {
                    return true;
                }
            }
        }
        dir = d.parent();
    }
    false
}

/// Lines of `src` before the trailing `#[cfg(test)]` module.
fn non_test_region(src: &str) -> impl Iterator<Item = &str> {
    let lines: Vec<&str> = src.lines().collect();
    let test_start = lines
        .iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(lines.len());
    lines.into_iter().take(test_start)
}

/// Crude string-literal stripper so `"call .unwrap() on it"` inside a
/// message does not count as a violation. Char literals and raw strings are
/// rare enough in this workspace to ignore.
fn strip_strings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut in_str = false;
    let mut prev = '\0';
    for c in line.chars() {
        if c == '"' && prev != '\\' {
            in_str = !in_str;
            prev = c;
            continue;
        }
        if !in_str {
            out.push(c);
        }
        prev = c;
    }
    out
}

fn leading_spaces(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// All `.rs` files under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_stripped() {
        assert_eq!(strip_strings(r#"let x = "a.unwrap()b";"#), "let x = ;");
        assert_eq!(strip_strings("y.unwrap();"), "y.unwrap();");
    }

    #[test]
    fn non_test_region_stops_at_cfg_test() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {}\n";
        let kept: Vec<&str> = non_test_region(src).collect();
        assert_eq!(kept, vec!["fn a() {}"]);
    }

    #[test]
    fn dyn_oracle_flagged_outside_tests_only() {
        let bad = "fn f(o: &dyn DistanceOracle) {}\n";
        assert_eq!(dyn_oracle_hits(bad), vec![1]);
        let in_tests = "fn f<O: DistanceOracle>(o: &O) {}\n\
                        #[cfg(test)]\n\
                        mod tests {\n    let o: &dyn DistanceOracle = &x;\n}\n";
        assert!(dyn_oracle_hits(in_tests).is_empty());
        let in_comment = "// a &dyn DistanceOracle used to live here\n";
        assert!(dyn_oracle_hits(in_comment).is_empty());
    }

    #[test]
    fn detached_spawn_flagged_scoped_spawn_legal() {
        let detached = "let h = std::thread::spawn(move || work());\n";
        assert_eq!(detached_spawn_hits(detached), vec![1]);
        let bare = "thread::spawn(|| {});\n";
        assert_eq!(detached_spawn_hits(bare), vec![1]);
        let scoped = "std::thread::scope(|s| {\n    s.spawn(|| work());\n});\n";
        assert!(detached_spawn_hits(scoped).is_empty());
        let in_tests = "fn f() {}\n#[cfg(test)]\nmod tests {\n\
                            fn g() { std::thread::spawn(|| {}); }\n}\n";
        assert!(detached_spawn_hits(in_tests).is_empty());
        let in_comment = "// thread::spawn would be wrong here\n";
        assert!(detached_spawn_hits(in_comment).is_empty());
        let exempted = "// LINT-EXEMPT(demo): must detach\n\
                        std::thread::spawn(|| {});\n";
        assert!(detached_spawn_hits(exempted).is_empty());
    }

    #[test]
    fn inner_loop_maps_flagged_outside_tests_only() {
        let bad = "use std::collections::HashMap;\n";
        assert_eq!(inner_loop_map_hits(bad), vec![1]);
        let btree = "let m: BTreeMap<u32, u32> = BTreeMap::new();\n";
        assert_eq!(inner_loop_map_hits(btree), vec![1]);
        let set = "fn f() {}\nlet seen: HashSet<u64> = HashSet::new();\n";
        assert_eq!(inner_loop_map_hits(set), vec![2]);
        let in_tests = "fn f() {}\n\
                        #[cfg(test)]\n\
                        mod tests {\n    use std::collections::{HashMap, HashSet};\n}\n";
        assert!(inner_loop_map_hits(in_tests).is_empty());
        let in_comment = "// the HashMap this slab replaced\n";
        assert!(inner_loop_map_hits(in_comment).is_empty());
        let exempted = "// LINT-EXEMPT(demo): audited cold-path map\n\
                        use std::collections::HashMap;\n";
        assert!(inner_loop_map_hits(exempted).is_empty());
    }

    #[test]
    fn inner_loop_files_exist_and_include_the_matcher_table() {
        assert!(INNER_LOOP_FILES.contains(&"crates/search/src/query.rs"));
        let root = workspace_root();
        for rel in INNER_LOOP_FILES {
            assert!(root.join(rel).is_file(), "{rel} is listed but missing");
        }
    }

    #[test]
    fn edge_weight_flagged_outside_tests_only() {
        let bad = "fn f() {}\nlet w = graph.edge_weight(u, v);\n";
        assert_eq!(edge_weight_hits(bad), vec![2]);
        let in_tests = "fn f() {}\n\
                        #[cfg(test)]\n\
                        mod tests {\n    let w = g.edge_weight(u, v);\n}\n";
        assert!(edge_weight_hits(in_tests).is_empty());
        let in_comment = "// the old copy called edge_weight(vm, vk) here\n";
        assert!(edge_weight_hits(in_comment).is_empty());
        let in_string = "let msg = \"edge_weight( is kernel-only\";\n";
        assert!(edge_weight_hits(in_string).is_empty());
        let other = "let w = graph.edge_norm_weight(u, v);\n";
        assert!(edge_weight_hits(other).is_empty());
    }

    #[test]
    fn tagged_allow_detection() {
        let tagged = "// LINT-EXEMPT(demo): reason\n#![allow(clippy::unwrap_used)]\n";
        assert!(file_has_tagged_allow(tagged));
        let untagged = "#![allow(clippy::unwrap_used)]\n";
        assert!(!file_has_tagged_allow(untagged));
    }
}
