//! Workspace automation. `cargo xtask lint` runs the custom static
//! analysis pass over the CI-Rank-specific invariants that clippy cannot
//! express (ISSUE 1, layer 2):
//!
//! 1. **Admissibility asserts** — every `pub fn` in
//!    `crates/search/src/bounds.rs` returning a bound (`-> f64` or
//!    `-> BoundParts`) must carry a paired `debug_assert` that mentions
//!    admissibility, so the Lemma 1 soundness obligation (`ub(C) ≥` the
//!    score of any answer grown from `C`) stays machine-visible next to
//!    the code that computes the bound. A file with no bound function at
//!    all is a finding too, so the rule cannot silently check nothing.
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
//! 6. **No hashed containers in the branch-and-bound inner loop or the
//!    index build** — the
//!    files the per-candidate hot path runs through
//!    (`crates/search/src/{bnb,bounds,cache,candidate,scratch,query,validity}.rs`)
//!    must not mention `HashMap`, `HashSet`, `BTreeMap` or `BTreeSet`
//!    outside their test modules. The query hot path replaced every per-candidate map
//!    and set with flat structures (the oracle-cache slab, the intrusive
//!    root chains, the open-addressing admission dedup set and matcher
//!    table); a hashed container slipping back in would silently
//!    reintroduce SipHash and per-key allocation per candidate. The top-k's
//!    answer set (touched once per complete answer) is outside the rule's
//!    files. The same holds for the §V index build
//!    (`crates/graph/src/traverse.rs`,
//!    `crates/index/src/{naive,star,parallel}.rs`): its hop-layered DP
//!    keeps dense per-node arrays and its pair tables are flat per-source
//!    rows, where a map per traversal and one for the table once cost
//!    most of the build in hashing. `BTreeSet` is banned with the others.
//!    A `LINT-EXEMPT(reason)` comment within 8 lines above the use
//!    exempts audited cases.
//! 7. **One Eq. 2 kernel** — non-test code in `crates/search/src` and
//!    `crates/rwmp/src` may call `edge_weight(` only in
//!    `crates/rwmp/src/scorer.rs`. Bounds, answer scores and score
//!    explanations all read the RWMP flow kernel there (`FlowState`,
//!    `Scorer::fill_flows`, `FlowState::reduce`) and agree bit for bit by
//!    construction; a second weight-split loop elsewhere would have to be
//!    kept equal by hand again.
//! 8. **One metered query path** — non-test code may call
//!    `MetricsRegistry::record_search` / `record_error` only in
//!    `crates/core/src/session.rs`. Every query method of `QuerySession`
//!    runs through its one metered path, which records the run; a second
//!    recording site would let an entry point drift out of the registry
//!    (or count a query twice).
//! 9. **The trace level selects no code path** — in non-test code under
//!    `crates/search/src`, a `level().full()` result may only guard an
//!    emission directly (`if ….level().full() {`): it may not be bound
//!    with `let` or combined with `&&` / `||`. Tracing
//!    records the run the engine does; a level stored in a variable or
//!    mixed into another condition is how a trace level starts steering
//!    the enumeration, so that a traced run does different work.
//! 10. **One counter list** — the non-test code of the per-run counter
//!     aggregates (`crates/core/src/metrics.rs`,
//!     `crates/bench/src/bin/bench_query.rs`) may not read a
//!     `.rejections` or `.cache` field. Both iterate
//!     `SearchStats::counters`, the one `(name, value)` list of per-run
//!     counters; reading the fields one by one is how every aggregate
//!     once kept its own copy of the list, and a counter missing from one
//!     copy silently dropped out of the JSON or the agreement test.
//!
//! The checker is deliberately textual (the offline build environment has
//! no `syn`); the heuristics below are documented inline and tuned to this
//! repository's layout: one `#[cfg(test)] mod tests` block at the end of a
//! file, attribute-per-line formatting (enforced by rustfmt).
//!
//! `cargo xtask loc <rev>` reports a change's net size with the same
//! non-test-region scanner: for every `.rs` file that differs between the
//! git revision `<rev>` and the working tree (untracked files included),
//! the non-test code lines and doc-comment lines on both sides, then the
//! totals over the library crates' `src` trees (the crates rule 3
//! scans). Code lines are non-blank lines that are not comments; doc
//! lines are `///` and `//!` lines.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

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

const USAGE: &str = "USAGE:\n  cargo xtask lint\n  cargo xtask loc <rev>";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match (args.next().as_deref(), args.next()) {
        (Some("lint"), None) => lint(),
        (Some("loc"), Some(rev)) => match loc(&rev) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("xtask loc: {e}");
                ExitCode::FAILURE
            }
        },
        (Some(other), _) => {
            eprintln!("unknown xtask {other:?} or wrong arguments\n\n{USAGE}");
            ExitCode::FAILURE
        }
        (None, _) => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Non-test line counts of one file version.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Loc {
    /// Non-blank lines that are not comments.
    code: usize,
    /// `///` and `//!` lines.
    docs: usize,
}

impl Loc {
    fn add(self, other: Loc) -> Loc {
        Loc {
            code: self.code + other.code,
            docs: self.docs + other.docs,
        }
    }
}

/// Counts the code and doc-comment lines of `src`'s non-test region.
fn count_loc(src: &str) -> Loc {
    let mut loc = Loc::default();
    for line in non_test_region(src) {
        let t = line.trim_start();
        if t.starts_with("///") || t.starts_with("//!") {
            loc.docs += 1;
        } else if !t.is_empty() && !t.starts_with("//") {
            loc.code += 1;
        }
    }
    loc
}

/// True for a file under a library crate's `src` tree (see
/// [`LIBRARY_CRATES`]).
fn is_library_file(path: &str) -> bool {
    let mut parts = path.split('/');
    parts.next() == Some("crates")
        && parts.next().is_some_and(|k| LIBRARY_CRATES.contains(&k))
        && parts.next() == Some("src")
}

/// Runs git in the workspace root; `None` if it fails.
fn git(root: &Path, args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Prints the per-file and library-crate non-test line counts at `rev`
/// and in the working tree.
fn loc(rev: &str) -> Result<(), String> {
    let root = workspace_root();
    let commit = format!("{rev}^{{commit}}");
    git(&root, &["rev-parse", "--verify", "--quiet", &commit])
        .ok_or_else(|| format!("{rev:?} is not a git revision"))?;
    let changed =
        git(&root, &["diff", "--name-only", rev, "--", "*.rs"]).ok_or("git diff failed")?;
    let untracked = git(
        &root,
        &["ls-files", "--others", "--exclude-standard", "--", "*.rs"],
    )
    .ok_or("git ls-files failed")?;
    let mut files: Vec<&str> = changed.lines().chain(untracked.lines()).collect();
    files.sort_unstable();
    files.dedup();

    let signed = |before: usize, after: usize| {
        let delta = after as i64 - before as i64;
        format!("{before:>5} -> {after:>5} ({delta:+})")
    };
    println!("non-test lines, {rev} -> working tree");
    println!("{:<27}{:<27}file", "code", "docs");
    let (mut lib_before, mut lib_after) = (Loc::default(), Loc::default());
    for file in files {
        let before = git(&root, &["show", &format!("{rev}:{file}")])
            .map_or_else(Loc::default, |src| count_loc(&src));
        let after = fs::read_to_string(root.join(file))
            .map_or_else(|_| Loc::default(), |src| count_loc(&src));
        println!(
            "{:<27}{:<27}{file}",
            signed(before.code, after.code),
            signed(before.docs, after.docs)
        );
        if is_library_file(file) {
            lib_before = lib_before.add(before);
            lib_after = lib_after.add(after);
        }
    }
    println!(
        "{:<27}{:<27}library crates (changed files)",
        signed(lib_before.code, lib_after.code),
        signed(lib_before.docs, lib_after.docs)
    );
    Ok(())
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
    check_single_metered_path(&root, &mut findings);
    check_trace_level_guards(&root, &mut findings);
    check_counter_list_reads(&root, &mut findings);

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

/// Rule 1: every `pub fn` in `search/src/bounds.rs` returning a bound
/// (`-> f64` or `-> BoundParts`) must contain a `debug_assert` whose
/// message mentions admissibility before the next top-level `fn`, and the
/// file must hold at least one such function.
fn check_admissibility_asserts(root: &Path, findings: &mut Vec<String>) {
    let path = root.join("crates/search/src/bounds.rs");
    let Ok(src) = fs::read_to_string(&path) else {
        findings.push(format!("{}: cannot read file", path.display()));
        return;
    };
    findings.extend(admissibility_findings(&src, &path.display().to_string()));
}

/// Rule 1's findings for the source `src` of the file `file`.
fn admissibility_findings(src: &str, file: &str) -> Vec<String> {
    let bounds = bound_fns(src);
    if bounds.is_empty() {
        return vec![format!(
            "{file}: no bound function (`pub fn` returning f64 or BoundParts) \
             found — rule 1 would check nothing"
        )];
    }
    bounds
        .into_iter()
        .filter(|(_, has_assert)| !has_assert)
        .map(|(name, _)| {
            format!(
                "{file}: pub fn {name} returns a bound but has no paired \
                 admissibility debug_assert"
            )
        })
        .collect()
}

/// The bound functions in the non-test region of `src` — `pub fn`s
/// returning `f64` or `BoundParts` — each with whether its body carries a
/// `debug_assert` that mentions admissibility.
fn bound_fns(src: &str) -> Vec<(String, bool)> {
    let lines: Vec<&str> = non_test_region(src).collect();
    let mut out = Vec::new();
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
        let returns_bound = sig.contains("-> f64") || sig.contains("-> BoundParts");
        // Scan the body: up to the next `fn ` at column 0 or EOF.
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
        if returns_bound {
            out.push((name, has_assert));
        }
        i = j + 1;
    }
    out
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
    "crates/search/src/query.rs",
    "crates/search/src/roots.rs",
    "crates/search/src/validity.rs",
];

/// The §V index-build files rule 6 covers.
const INDEX_BUILD_FILES: &[&str] = &[
    "crates/graph/src/traverse.rs",
    "crates/index/src/naive.rs",
    "crates/index/src/star.rs",
    "crates/index/src/parallel.rs",
];

/// Rule 6: no hashed or ordered std container in the branch-and-bound
/// inner-loop files or the index-build files. The hot path replaced
/// per-candidate maps and sets with flat structures (oracle-cache slab,
/// intrusive root chains, the flat per-run candidate store,
/// open-addressing dedup set, matcher table and run-stamped root table),
/// and the index build its per-traversal hop maps and pair-table map with
/// dense per-node arrays and flat per-source rows; this keeps them from
/// regressing. Tests may still use them, and an audited use can be tagged
/// `LINT-EXEMPT(reason)`.
fn check_no_inner_loop_maps(root: &Path, findings: &mut Vec<String>) {
    let groups = [
        (
            INNER_LOOP_FILES,
            "a branch-and-bound inner-loop file — use the flat structures \
             (oracle-cache slab, root chains, candidate store, dedup set, \
             matcher table)",
        ),
        (
            INDEX_BUILD_FILES,
            "an index-build file — keep the DP's dense per-node arrays and \
             the flat per-source pair rows",
        ),
    ];
    for (files, fix) in groups {
        for rel in files {
            let path = root.join(rel);
            let Ok(src) = fs::read_to_string(&path) else {
                findings.push(format!("{}: cannot read file", path.display()));
                continue;
            };
            for n in inner_loop_map_hits(&src) {
                findings.push(format!(
                    "{}:{}: hashed/ordered container in {fix} or tag an \
                     audited exemption with LINT-EXEMPT(reason)",
                    path.display(),
                    n
                ));
            }
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

/// Rule 8: every query entry point feeds the registry through one path.
/// Outside `crates/core/src/session.rs`, non-test code in the workspace's
/// crates must not call `MetricsRegistry::record_search` or
/// `record_error`.
fn check_single_metered_path(root: &Path, findings: &mut Vec<String>) {
    const SESSION: &str = "crates/core/src/session.rs";
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut crates: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| !p.ends_with("xtask"))
            .collect();
        crates.sort();
        dirs.extend(crates.into_iter().map(|c| c.join("src")));
    }
    for dir in dirs {
        for path in rust_files(&dir) {
            if path == root.join(SESSION) {
                continue;
            }
            let Ok(src) = fs::read_to_string(&path) else {
                findings.push(format!("{}: cannot read file", path.display()));
                continue;
            };
            for n in metrics_record_hits(&src) {
                findings.push(format!(
                    "{}:{}: registry recording outside {SESSION} — run the \
                     query through a QuerySession method, whose one metered \
                     path records it",
                    path.display(),
                    n
                ));
            }
        }
    }
}

/// Rule 9: the trace level selects no code path. In non-test code under
/// `crates/search/src`, a `level().full()` result may not be bound with
/// `let` or combined with `&&` / `||`.
fn check_trace_level_guards(root: &Path, findings: &mut Vec<String>) {
    for path in rust_files(&root.join("crates/search/src")) {
        let Ok(src) = fs::read_to_string(&path) else {
            findings.push(format!("{}: cannot read file", path.display()));
            continue;
        };
        for n in trace_level_hits(&src) {
            findings.push(format!(
                "{}:{}: a trace level bound with `let` or combined with \
                 `&&`/`||` — guard each emission with its own \
                 `if ….level().full() {{` so no level changes the work",
                path.display(),
                n
            ));
        }
    }
}

/// The per-run counter aggregates that must read `SearchStats` through
/// its counter list (rule 10).
const COUNTER_LIST_READERS: &[&str] = &[
    "crates/core/src/metrics.rs",
    "crates/bench/src/bin/bench_query.rs",
];

/// Rule 10: the counter aggregates iterate `SearchStats::counters`. In
/// their non-test code, no `.rejections` or `.cache` field is read.
fn check_counter_list_reads(root: &Path, findings: &mut Vec<String>) {
    for rel in COUNTER_LIST_READERS {
        let path = root.join(rel);
        let Ok(src) = fs::read_to_string(&path) else {
            findings.push(format!("{}: cannot read file", path.display()));
            continue;
        };
        for n in per_field_stats_hits(&src) {
            findings.push(format!(
                "{}:{}: a per-run counter read field by field — iterate \
                 `SearchStats::counters()` (the one counter list) instead",
                path.display(),
                n
            ));
        }
    }
}

/// 1-based line numbers in the non-test region of `src` that read a
/// `.rejections` or `.cache` field outside comments and string literals.
/// A name continuing past the field (`.cache_hits`) or a method call
/// (`.cache(`) is not a read of the field.
fn per_field_stats_hits(src: &str) -> Vec<usize> {
    non_test_region(src)
        .enumerate()
        .filter(|(_, line)| {
            let stripped = strip_strings(line);
            let code = stripped.split("//").next().unwrap_or_default();
            [".rejections", ".cache"].iter().any(|field| {
                code.match_indices(field).any(|(i, _)| {
                    let rest = code.get(i + field.len()..).unwrap_or_default();
                    !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_' || c == '(')
                })
            })
        })
        .map(|(n, _)| n + 1)
        .collect()
}

/// 1-based line numbers in the non-test region of `src` of statements
/// that read `level().full()` and either start with `let` or contain
/// `&&` / `||`. A statement runs from the line after the
/// previous one ending in `;`, `{` or `}` to the next such line, so a
/// method chain or condition rustfmt splits over lines counts whole. The
/// line reported is the one holding `.full()`.
fn trace_level_hits(src: &str) -> Vec<usize> {
    let code: Vec<String> = non_test_region(src)
        .map(|line| {
            let stripped = strip_strings(line);
            match stripped.find("//") {
                Some(i) => stripped.get(..i).unwrap_or_default().to_string(),
                None => stripped,
            }
        })
        .collect();
    let ends = |l: &str| {
        let t = l.trim_end();
        t.ends_with(';') || t.ends_with('{') || t.ends_with('}')
    };
    let mut hits = Vec::new();
    for (n, line) in code.iter().enumerate() {
        if !line.contains(".full()") {
            continue;
        }
        let mut start = n;
        while start > 0 && code.get(start - 1).is_some_and(|l| !ends(l)) {
            start -= 1;
        }
        let mut end = n;
        while code.get(end).is_some_and(|l| !ends(l)) && end + 1 < code.len() {
            end += 1;
        }
        let stmt: String = code
            .get(start..=end)
            .unwrap_or_default()
            .concat()
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ");
        let compact: String = stmt.split_whitespace().collect();
        if compact.contains("level().full()")
            && (stmt.starts_with("let ") || stmt.contains("&&") || stmt.contains("||"))
        {
            hits.push(n + 1);
        }
    }
    hits
}

/// 1-based line numbers in the non-test region of `src` that call
/// `record_search(` or `record_error(` outside comments, string literals
/// and the methods' own definitions.
fn metrics_record_hits(src: &str) -> Vec<usize> {
    non_test_region(src)
        .enumerate()
        .filter(|(_, line)| {
            let code = strip_strings(line);
            !line.trim_start().starts_with("//")
                && ["record_search(", "record_error("]
                    .iter()
                    .any(|call| code.contains(call) && !code.contains(&format!("fn {call}")))
        })
        .map(|(n, _)| n + 1)
        .collect()
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
/// `HashMap`, `HashSet`, `BTreeMap` or `BTreeSet` outside comments, string literals,
/// and `LINT-EXEMPT` coverage.
fn inner_loop_map_hits(src: &str) -> Vec<usize> {
    let lines: Vec<&str> = non_test_region(src).collect();
    let mut hits = Vec::new();
    for (n, line) in lines.iter().enumerate() {
        if line.trim_start().starts_with("//") {
            continue;
        }
        let code = strip_strings(line);
        if !["HashMap", "HashSet", "BTreeMap", "BTreeSet"]
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
    fn loc_counts_code_and_docs_before_the_tests() {
        let fixture = "//! Module doc.\n\
                       \n\
                       /// Item doc.\n\
                       pub fn f() -> u32 {\n\
                       \x20   // a plain comment\n\
                       \x20   let s = \"// not a comment\";\n\
                       \x20   1\n\
                       }\n\
                       #[cfg(test)]\n\
                       mod tests {\n\
                       \x20   /// Test doc.\n\
                       \x20   fn t() {}\n\
                       }\n";
        assert_eq!(count_loc(fixture), Loc { code: 4, docs: 2 });
        assert_eq!(count_loc(""), Loc::default());
        assert!(is_library_file("crates/search/src/bnb.rs"));
        assert!(is_library_file("crates/core/src/session.rs"));
        assert!(!is_library_file("crates/search/tests/equivalence.rs"));
        assert!(!is_library_file("crates/xtask/src/main.rs"));
        assert!(!is_library_file("perfbench/src/main.rs"));
        assert!(!is_library_file("src/fingerprint.rs"));
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
    fn index_build_maps_flagged() {
        let root = workspace_root();
        for rel in INDEX_BUILD_FILES {
            assert!(root.join(rel).is_file(), "{rel} is listed but missing");
        }
        // The hash-map build: hop counts and pair tables in maps.
        let parent = "use std::collections::HashMap;\n\
                      let mut hops: HashMap<u32, u32> = HashMap::from([(src.0, 0)]);\n\
                      fn f(e: &HashMap<(u32, u32), (u32, f64)>) {}\n\
                      let rels: HashSet<u16> = star_relations.iter().copied().collect();\n";
        assert_eq!(inner_loop_map_hits(parent), vec![1, 2, 3, 4]);
        assert_eq!(
            inner_loop_map_hits("let s: BTreeSet<u32> = BTreeSet::new();\n"),
            vec![1]
        );
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
    fn bound_fns_cover_f64_and_bound_parts() {
        let src = "pub fn ub(self) -> f64 {\n    debug_assert!(ok, \"admissibility\");\n}\n\
                   pub fn parts(c: &C) -> BoundParts {\n    compute(c)\n}\n\
                   pub fn prune(c: &C) -> bool {\n    false\n}\n";
        assert_eq!(
            bound_fns(src),
            vec![("ub".to_string(), true), ("parts".to_string(), false)],
            "a BoundParts bound without its assert is flagged; non-bounds are skipped"
        );
        let in_tests = "fn f() {}\n#[cfg(test)]\nmod tests {\npub fn ub() -> f64 { 0.0 }\n}\n";
        assert!(bound_fns(in_tests).is_empty());
    }

    #[test]
    fn rule_1_fails_when_it_finds_no_bound_function() {
        let findings = admissibility_findings("pub fn prune() -> bool { false }\n", "bounds.rs");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings
                .first()
                .is_some_and(|f| f.contains("no bound function")),
            "{findings:?}"
        );
        // The real file has bound functions, and every one is asserted.
        let src = fs::read_to_string(workspace_root().join("crates/search/src/bounds.rs"))
            .unwrap_or_default();
        assert!(!bound_fns(&src).is_empty());
        assert!(admissibility_findings(&src, "bounds.rs").is_empty());
    }

    #[test]
    fn metrics_recording_flagged_outside_tests_only() {
        let bad = "fn f() {}\nself.metrics.record_search(&stats, 1, t);\nm.record_error();\n";
        assert_eq!(metrics_record_hits(bad), vec![2, 3]);
        let defs =
            "pub fn record_search(&self, s: &SearchStats) {}\npub fn record_error(&self) {}\n";
        assert!(metrics_record_hits(defs).is_empty());
        let in_tests = "fn f() {}\n#[cfg(test)]\nmod tests {\n    m.record_error();\n}\n";
        assert!(metrics_record_hits(in_tests).is_empty());
        let in_comment = "// the session calls record_search(..) once per query\n";
        assert!(metrics_record_hits(in_comment).is_empty());
        let mut findings = Vec::new();
        check_single_metered_path(&workspace_root(), &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn trace_level_steering_flagged_outside_tests_only() {
        // The two ways a trace level once forked the search: a bound
        // level, and a level folded into a skip condition.
        let bound = "fn f() {}\n    let full = self.scratch.trace.level().full();\n";
        assert_eq!(trace_level_hits(bound), vec![2]);
        let combined = "fn f() {\n    if !run.scratch.trace.level().full() && run.gate().is_none() {\n        continue;\n    }\n}\n";
        assert_eq!(trace_level_hits(combined), vec![2]);
        let split = "fn f() {\n    if ready\n        || self\n            .scratch\n            .trace\n            .level()\n            .full()\n    {\n    }\n}\n";
        assert_eq!(trace_level_hits(split), vec![7]);
        let guard = "fn f() {\n    if self.scratch.trace.level().full() {\n        emit();\n    }\n    if !self.scratch.trace.level().full() {\n        return;\n    }\n    let ok = a && b;\n}\n";
        assert!(trace_level_hits(guard).is_empty());
        let elsewhere =
            "fn f() {\n    let n = self.full();\n    // let full = trace.level().full() && x;\n}\n";
        assert!(trace_level_hits(elsewhere).is_empty());
        let in_tests =
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    let full = t.level().full();\n}\n";
        assert!(trace_level_hits(in_tests).is_empty());
        let mut findings = Vec::new();
        check_trace_level_guards(&workspace_root(), &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn per_field_counter_reads_flagged_outside_tests_only() {
        // Per-field reads as the registry and bench_query once made them.
        let registry = "fn f() {\n        self.record_rejections(&stats.rejections);\n        if let Some(cache) = &stats.cache {\n";
        assert_eq!(per_field_stats_hits(registry), vec![2, 3]);
        let bench = "fn f() {\n    let r = &stats.rejections;\n    for c in r.rejections.iter() {}\n    let c = stats.cache\n";
        assert_eq!(per_field_stats_hits(bench), vec![2, 3, 4]);
        let list = "fn f() {\n    for (n, v) in stats.counters() {}\n    self.cache_hits.load(r);\n    s.cache().stats();\n    // stats.rejections is summed by the list\n    let k = \"x.cache\";\n}\n";
        assert!(per_field_stats_hits(list).is_empty());
        let in_tests = "fn f() {}\n#[cfg(test)]\nmod tests {\n    let r = stats.rejections;\n}\n";
        assert!(per_field_stats_hits(in_tests).is_empty());
        let mut findings = Vec::new();
        check_counter_list_reads(&workspace_root(), &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn tagged_allow_detection() {
        let tagged = "// LINT-EXEMPT(demo): reason\n#![allow(clippy::unwrap_used)]\n";
        assert!(file_has_tagged_allow(tagged));
        let untagged = "#![allow(clippy::unwrap_used)]\n";
        assert!(!file_has_tagged_allow(untagged));
    }
}
