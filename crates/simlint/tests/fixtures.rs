//! Fixture corpus: every rule must fire on a seeded violation and stay
//! quiet when an allow-pragma (or an exempt path) sanctions it. The
//! fixtures live in string literals, which the scanner blanks out —
//! so this file itself stays lint-clean when simlint walks the repo.

use simlint::{lint, Diagnostic, Rule, SourceFile};

fn lint_one(path: &str, text: &str) -> Vec<Diagnostic> {
    lint(&[SourceFile::new(path, text)])
}

fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
    diags.iter().map(|d| d.rule).collect()
}

// ---- hash-collections -------------------------------------------------

#[test]
fn hash_collections_fires_in_sim_crate() {
    let diags = lint_one(
        "crates/os/tests/fix.rs",
        r#"
use std::collections::HashMap;
fn f() -> HashSet<u32> { todo!() }
"#,
    );
    assert_eq!(
        rules_of(&diags),
        vec![Rule::HashCollections, Rule::HashCollections]
    );
    assert_eq!(diags[0].line, 2);
    assert_eq!(diags[1].line, 3);
}

#[test]
fn hash_collections_pragma_suppresses() {
    let diags = lint_one(
        "crates/os/tests/fix.rs",
        r#"
// simlint: allow(hash-collections) -- test-only tally, order never observed
use std::collections::HashMap;
let m = HashMap::new(); // simlint: allow(hash-collections) -- same tally
"#,
    );
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}

#[test]
fn hash_collections_ignores_non_sim_crates_and_prose() {
    // Not a sim crate: the bench harness may hash freely.
    let diags = lint_one(
        "crates/bench/benches/fix.rs",
        "use std::collections::HashMap;\n",
    );
    assert!(diags.is_empty());
    // Comment prose and string literals never fire.
    let diags = lint_one(
        "crates/os/tests/fix.rs",
        "// HashMap is banned here\nlet s = \"HashMap\";\n",
    );
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}

// ---- wall-clock -------------------------------------------------------

#[test]
fn wall_clock_fires_everywhere_but_the_shims() {
    let bad = "let t = std::time::Instant::now();\nlet s = SystemTime::now();\n";
    let diags = lint_one("crates/machine/tests/fix.rs", bad);
    assert_eq!(rules_of(&diags), vec![Rule::WallClock, Rule::WallClock]);
    // The criterion and timeref shims are the sanctioned exceptions.
    assert!(lint_one("crates/criterion/tests/fix.rs", bad).is_empty());
    assert!(lint_one("crates/timeref/tests/fix.rs", bad).is_empty());
}

#[test]
fn wall_clock_pragma_suppresses() {
    let diags = lint_one(
        "src/bin/fix.rs",
        r#"
// simlint: allow(wall-clock) -- CLI progress display only, not measurement
let t = std::time::Instant::now();
"#,
    );
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}

// ---- ambient-entropy --------------------------------------------------

#[test]
fn ambient_entropy_fires_outside_the_rng_shim() {
    let diags = lint_one(
        "tests/fix.rs",
        "let x = rand::thread_rng();\nlet y = OsRng;\nlet z = getrandom();\n",
    );
    assert_eq!(
        rules_of(&diags),
        vec![
            Rule::AmbientEntropy,
            Rule::AmbientEntropy,
            Rule::AmbientEntropy
        ]
    );
}

#[test]
fn ambient_entropy_allows_the_rng_shim_itself() {
    let files = [
        SourceFile::new(
            "crates/simcore/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod rng;\n",
        ),
        SourceFile::new(
            "crates/simcore/src/rng.rs",
            "// only the shim may even name thread_rng\nfn no_thread_rng_here() {}\n",
        ),
    ];
    assert!(lint(&files).is_empty());
}

#[test]
fn ambient_entropy_pragma_suppresses() {
    let diags = lint_one(
        "tests/fix.rs",
        "let x = thread_rng(); // simlint: allow(ambient-entropy) -- doc example, never run\n",
    );
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}

// ---- os-threads -------------------------------------------------------

#[test]
fn os_threads_fires_in_sim_crates_outside_the_pool() {
    let src = "std::thread::scope(|s| {\n    s.spawn(|| ());\n});\nthread::spawn(|| ());\n";
    let diags = lint_one("crates/grid/tests/fix.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::OsThreads, Rule::OsThreads]);
    assert_eq!((diags[0].line, diags[1].line), (1, 4));
    // Neither the pool itself nor a non-sim crate fires.
    let pool = lint_one("crates/simcore/src/pool.rs", src);
    assert!(!rules_of(&pool).contains(&Rule::OsThreads), "{pool:?}");
    assert!(lint_one("tests/fix.rs", src).is_empty());
}

#[test]
fn os_threads_pragma_suppresses() {
    let diags = lint_one(
        "crates/serve/tests/fix.rs",
        "// simlint: allow(os-threads) -- fixed worker count, not one per item\n\
         std::thread::scope(|s| ());\n",
    );
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}

// ---- unstable-sort ----------------------------------------------------

#[test]
fn unstable_sort_fires_on_all_variants() {
    let diags = lint_one(
        "crates/simcore/tests/fix.rs",
        "v.sort_unstable();\nv.sort_unstable_by(cmp);\nv.sort_unstable_by_key(|x| x.0);\n",
    );
    assert_eq!(diags.len(), 3);
    assert!(diags.iter().all(|d| d.rule == Rule::UnstableSort));
}

#[test]
fn unstable_sort_pragma_suppresses() {
    let diags = lint_one(
        "crates/simcore/tests/fix.rs",
        "// simlint: allow(unstable-sort) -- u64 keys are total\nv.sort_unstable();\n",
    );
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}

// ---- substrate-collections --------------------------------------------

#[test]
fn substrate_collections_fires_in_substrate_files() {
    // Substrate files are module files, so lint them next to a crate
    // root that declares them (keeps the stray-file rule quiet).
    let root = SourceFile::new(
        "crates/grid/src/lib.rs",
        "#![forbid(unsafe_code)]\nmod sim;\nmod archetype;\nmod hydrate;\nmod fastforward;\n",
    );
    for path in [
        "crates/grid/src/sim.rs",
        "crates/grid/src/archetype.rs",
        "crates/grid/src/hydrate.rs",
        "crates/grid/src/fastforward.rs",
    ] {
        let fixture = SourceFile::new(
            path,
            "use std::collections::BTreeMap;\nlet s: BTreeSet<u32> = Default::default();\n",
        );
        let diags = lint(&[root.clone(), fixture]);
        assert_eq!(
            rules_of(&diags),
            vec![Rule::SubstrateCollections, Rule::SubstrateCollections],
            "at {path}"
        );
    }
}

#[test]
fn substrate_collections_ignores_other_files_and_pragma_suppresses() {
    // DetMap's own implementation (and any non-substrate file) may wrap
    // a BTreeMap freely.
    let diags = lint(&[
        SourceFile::new(
            "crates/simcore/src/lib.rs",
            "#![forbid(unsafe_code)]\nmod detmap;\n",
        ),
        SourceFile::new(
            "crates/simcore/src/detmap.rs",
            "pub struct DetMap<K, V>(BTreeMap<K, V>);\n",
        ),
    ]);
    assert!(diags.is_empty(), "unexpected: {diags:?}");
    let diags = lint(&[
        SourceFile::new("crates/grid/src/lib.rs", "#![forbid(unsafe_code)]\nmod sim;\n"),
        SourceFile::new(
            "crates/grid/src/sim.rs",
            "// simlint: allow(substrate-collections) -- local scratch, never iterated\nlet m = BTreeMap::new();\n",
        ),
    ]);
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}

// ---- stray-file -------------------------------------------------------

#[test]
fn stray_file_catches_undeclared_and_non_rs_files() {
    let files = [
        SourceFile::new(
            "crates/os/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod good;\n// mod dead;\n",
        ),
        SourceFile::new("crates/os/src/good.rs", "pub fn ok() {}\n"),
        SourceFile::new("crates/os/src/dead.rs", "pub fn gone() {}\n"),
        SourceFile {
            path: "crates/os/src/system.rs.memtest".to_string(),
            text: None,
        },
    ];
    let diags = lint(&files);
    assert_eq!(rules_of(&diags), vec![Rule::StrayFile, Rule::StrayFile]);
    // A commented-out `mod dead;` does not count as a reference.
    assert_eq!(diags[0].path, "crates/os/src/dead.rs");
    assert_eq!(diags[1].path, "crates/os/src/system.rs.memtest");
}

#[test]
fn stray_file_understands_mod_rs_and_roots() {
    let files = [
        SourceFile::new(
            "crates/workloads/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod nbench;\n",
        ),
        SourceFile::new("crates/workloads/src/nbench/mod.rs", "pub mod lu;\n"),
        SourceFile::new("crates/workloads/src/nbench/lu.rs", "pub fn lu() {}\n"),
        // Compilation roots cargo discovers on its own need no `mod`.
        SourceFile::new("crates/workloads/src/main.rs", "fn main() {}\n"),
        SourceFile::new("src/bin/tool.rs", "fn main() {}\n"),
    ];
    assert!(lint(&files).is_empty());
}

// ---- forbid-unsafe ----------------------------------------------------

#[test]
fn forbid_unsafe_requires_the_attribute_on_crate_roots() {
    let diags = lint_one("crates/grid/src/lib.rs", "pub fn f() {}\n");
    assert_eq!(rules_of(&diags), vec![Rule::ForbidUnsafe]);
    let diags = lint_one(
        "crates/grid/src/lib.rs",
        "//! docs\n\n#![forbid(unsafe_code)]\npub fn f() {}\n",
    );
    assert!(diags.is_empty());
    // Non-root files are not required to repeat it.
    assert!(lint_one("crates/grid/tests/fix.rs", "pub fn f() {}\n").is_empty());
}

// ---- pragma hygiene ---------------------------------------------------

#[test]
fn malformed_pragmas_are_diagnosed() {
    // Unknown rule id.
    let diags = lint_one("tests/fix.rs", "// simlint: allow(nonsense) -- why\n");
    assert_eq!(rules_of(&diags), vec![Rule::BadPragma]);
    // File-scoped rules cannot be allowed per line.
    let diags = lint_one("tests/fix.rs", "// simlint: allow(stray-file) -- nope\n");
    assert_eq!(rules_of(&diags), vec![Rule::BadPragma]);
    // Missing justification.
    let diags = lint_one("tests/fix.rs", "// simlint: allow(unstable-sort)\n");
    assert_eq!(rules_of(&diags), vec![Rule::BadPragma]);
    // Missing justification does not suppress the violation either.
    let diags = lint_one(
        "crates/os/tests/fix.rs",
        "// simlint: allow(unstable-sort)\nv.sort_unstable();\n",
    );
    assert_eq!(rules_of(&diags), vec![Rule::BadPragma, Rule::UnstableSort]);
}

#[test]
fn pragma_only_reaches_its_own_and_next_line() {
    let diags = lint_one(
        "crates/os/tests/fix.rs",
        r#"
// simlint: allow(unstable-sort) -- only covers the next line
v.sort_unstable();
w.sort_unstable();
"#,
    );
    assert_eq!(rules_of(&diags), vec![Rule::UnstableSort]);
    assert_eq!(diags[0].line, 4);
}

// ---- global-state-registry --------------------------------------------

/// Synthetic registry naming the two fast-forward locks with their
/// canonical ranks, for the shared-state fixtures below.
const REG_FF: &str = r#"
[[global]]
name  = "SEGMENT_MEMO"
path  = "crates/grid/src/fastforward.rs"
owner = "grid::fastforward"
kind  = "mutex"
rank  = 40
reset = "grid::fastforward::reset_all"

[[global]]
name  = "TRAJECTORIES"
path  = "crates/grid/src/fastforward.rs"
owner = "grid::fastforward"
kind  = "mutex"
rank  = 60
reset = "grid::fastforward::reset_all"
"#;

fn ff_root() -> SourceFile {
    SourceFile::new(
        "crates/grid/src/lib.rs",
        "#![forbid(unsafe_code)]\npub mod fastforward;\n",
    )
}

fn ff_file(body: &str) -> SourceFile {
    SourceFile::new(
        "crates/grid/src/fastforward.rs",
        &format!(
            "static SEGMENT_MEMO: Mutex<Option<u32>> = Mutex::new(None);\n\
             static TRAJECTORIES: Mutex<Option<u32>> = Mutex::new(None);\n{body}"
        ),
    )
}

#[test]
fn unregistered_global_fails() {
    // The acceptance fixture: an interior-mutable static in a sim
    // crate with no GLOBALS.toml entry must fail the lint (exit 1).
    let files = [
        SourceFile::new("GLOBALS.toml", REG_FF),
        ff_root(),
        ff_file("static ROGUE: Mutex<u32> = Mutex::new(0);\n"),
    ];
    let diags = lint(&files);
    assert_eq!(rules_of(&diags), vec![Rule::GlobalStateRegistry]);
    assert!(diags[0].message.contains("ROGUE"), "{diags:?}");
    assert_eq!(diags[0].line, 3);
}

#[test]
fn registry_entry_without_a_static_fails() {
    // Reverse direction: a stale registry entry is itself an error.
    let files = [
        SourceFile::new("GLOBALS.toml", REG_FF),
        ff_root(),
        SourceFile::new(
            "crates/grid/src/fastforward.rs",
            "static SEGMENT_MEMO: Mutex<Option<u32>> = Mutex::new(None);\n",
        ),
    ];
    let diags = lint(&files);
    assert_eq!(rules_of(&diags), vec![Rule::GlobalStateRegistry]);
    assert_eq!(diags[0].path, "GLOBALS.toml");
    assert!(diags[0].message.contains("TRAJECTORIES"), "{diags:?}");
}

#[test]
fn registry_kind_mismatch_fails() {
    let files = [
        SourceFile::new("GLOBALS.toml", REG_FF),
        ff_root(),
        SourceFile::new(
            "crates/grid/src/fastforward.rs",
            "static SEGMENT_MEMO: AtomicU64 = AtomicU64::new(0);\n\
             static TRAJECTORIES: Mutex<Option<u32>> = Mutex::new(None);\n",
        ),
    ];
    let diags = lint(&files);
    assert_eq!(rules_of(&diags), vec![Rule::GlobalStateRegistry]);
    assert!(
        diags[0].message.contains("`atomic`") && diags[0].message.contains("`mutex`"),
        "{diags:?}"
    );
}

#[test]
fn registered_globals_are_clean_and_plain_statics_are_exempt() {
    let files = [
        SourceFile::new("GLOBALS.toml", REG_FF),
        ff_root(),
        // A plain const-like static carries no interior mutability and
        // needs no registration.
        ff_file("static TABLE: [u32; 4] = [1, 2, 3, 4];\n"),
    ];
    assert!(lint(&files).is_empty(), "{:?}", lint(&files));
}

#[test]
fn malformed_registry_is_diagnosed() {
    let files = [
        SourceFile::new(
            "GLOBALS.toml",
            "[[global]]\nname = \"X\"\npath = \"crates/grid/src/lib.rs\"\nowner = \"g\"\nkind = \"mutex\"\nreset = \"none\"\n",
        ),
        ff_root(),
    ];
    let diags = lint(&files);
    // Missing rank on a lockable kind, plus the stale-entry check.
    assert!(diags
        .iter()
        .any(|d| d.rule == Rule::GlobalStateRegistry && d.message.contains("rank")));
}

// ---- lock-order -------------------------------------------------------

#[test]
fn seeded_lock_order_inversion_fails() {
    // The acceptance fixture: acquiring SEGMENT_MEMO (rank 40) while
    // TRAJECTORIES (rank 60) is held is a rank inversion.
    let files = [
        SourceFile::new("GLOBALS.toml", REG_FF),
        ff_root(),
        ff_file(
            "fn bad() {\n    let t = TRAJECTORIES.lock().expect(\"t\");\n    let s = SEGMENT_MEMO.lock().expect(\"s\");\n}\n",
        ),
    ];
    let diags = lint(&files);
    assert_eq!(rules_of(&diags), vec![Rule::LockOrder]);
    assert!(diags[0].message.contains("inversion"), "{diags:?}");
    assert_eq!(diags[0].line, 5);
}

#[test]
fn rank_ordered_nesting_is_clean() {
    let files = [
        SourceFile::new("GLOBALS.toml", REG_FF),
        ff_root(),
        ff_file(
            "fn good() {\n    let s = SEGMENT_MEMO.lock().expect(\"s\");\n    let t = TRAJECTORIES.lock().expect(\"t\");\n}\n",
        ),
    ];
    assert!(lint(&files).is_empty(), "{:?}", lint(&files));
}

#[test]
fn released_guard_permits_reacquisition() {
    // Scope exit and explicit drop() both release a hold, so the
    // lock-then-relock idiom of the real caches stays clean.
    let files = [
        SourceFile::new("GLOBALS.toml", REG_FF),
        ff_root(),
        ff_file(
            "fn scoped() {\n    {\n        let s = SEGMENT_MEMO.lock().expect(\"s\");\n    }\n    let s = SEGMENT_MEMO.lock().expect(\"s\");\n}\n\
             fn dropped() {\n    let t = TRAJECTORIES.lock().expect(\"t\");\n    drop(t);\n    let s = SEGMENT_MEMO.lock().expect(\"s\");\n}\n",
        ),
    ];
    assert!(lint(&files).is_empty(), "{:?}", lint(&files));
}

#[test]
fn self_reacquisition_is_a_deadlock() {
    let files = [
        SourceFile::new("GLOBALS.toml", REG_FF),
        ff_root(),
        ff_file(
            "fn twice() {\n    let a = SEGMENT_MEMO.lock().expect(\"a\");\n    let b = SEGMENT_MEMO.lock().expect(\"b\");\n}\n",
        ),
    ];
    let diags = lint(&files);
    assert_eq!(rules_of(&diags), vec![Rule::LockOrder]);
    assert!(diags[0].message.contains("self-deadlock"), "{diags:?}");
}

#[test]
fn lock_order_pragma_suppresses() {
    let files = [
        SourceFile::new("GLOBALS.toml", REG_FF),
        ff_root(),
        ff_file(
            "fn bad() {\n    let t = TRAJECTORIES.lock().expect(\"t\");\n    // simlint: allow(lock-order) -- fixture: inversion is unreachable here\n    let s = SEGMENT_MEMO.lock().expect(\"s\");\n}\n",
        ),
    ];
    assert!(lint(&files).is_empty(), "{:?}", lint(&files));
}

// ---- send-clean -------------------------------------------------------

#[test]
fn send_clean_flags_cells_reachable_from_roots() {
    let files = [
        SourceFile::new(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod engine;\n",
        ),
        SourceFile::new(
            "crates/core/src/engine.rs",
            "pub struct TrialSpec {\n    inner: Inner,\n}\npub struct Inner {\n    cell: RefCell<u32>,\n}\n",
        ),
    ];
    let diags = lint(&files);
    assert_eq!(rules_of(&diags), vec![Rule::SendClean]);
    assert!(diags[0].message.contains("RefCell"), "{diags:?}");
    assert!(diags[0].message.contains("Inner"), "{diags:?}");
}

#[test]
fn send_clean_ignores_unreachable_types() {
    // An Rc in a type nobody reaches from the serve-critical roots is
    // not this rule's business (part (b) is reachability-scoped).
    let files = [
        SourceFile::new(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod scratch;\n",
        ),
        SourceFile::new(
            "crates/core/src/scratch.rs",
            "pub struct LocalOnly {\n    cell: Rc<u32>,\n}\n",
        ),
    ];
    assert!(lint(&files).is_empty(), "{:?}", lint(&files));
}

#[test]
fn send_clean_static_needs_a_pragma() {
    let reg = r#"
[[global]]
name  = "SCRATCH"
path  = "crates/grid/src/sim.rs"
owner = "grid::sim"
kind  = "thread-local"
reset = "cleared per campaign"
"#;
    let bare = [
        SourceFile::new("GLOBALS.toml", reg),
        SourceFile::new(
            "crates/grid/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod sim;\n",
        ),
        SourceFile::new(
            "crates/grid/src/sim.rs",
            "thread_local! {\n    static SCRATCH: RefCell<Vec<u32>> = RefCell::new(Vec::new());\n}\n",
        ),
    ];
    let diags = lint(&bare);
    assert_eq!(rules_of(&diags), vec![Rule::SendClean]);
    let justified = [
        bare[0].clone(),
        bare[1].clone(),
        SourceFile::new(
            "crates/grid/src/sim.rs",
            "thread_local! {\n    // simlint: allow(send-clean) -- thread-confined scratch, never escapes\n    static SCRATCH: RefCell<Vec<u32>> = RefCell::new(Vec::new());\n}\n",
        ),
    ];
    assert!(lint(&justified).is_empty(), "{:?}", lint(&justified));
}

// ---- float-fold-order -------------------------------------------------

#[test]
fn float_fold_fires_on_sum_and_fold() {
    let diags = lint_one(
        "crates/grid/tests/fix.rs",
        "let a: f64 = xs.iter().sum();\nlet b = ys.iter().fold(0.0_f64, |acc, x| acc + x);\n",
    );
    assert_eq!(
        rules_of(&diags),
        vec![Rule::FloatFoldOrder, Rule::FloatFoldOrder]
    );
}

#[test]
fn float_fold_ignores_integer_reductions_and_blessed_helpers() {
    // Integer reductions are order-free.
    assert!(lint_one(
        "crates/grid/tests/fix.rs",
        "let n: u64 = xs.iter().sum();\n"
    )
    .is_empty());
    // The fixed-op-order helpers are the blessed home for float folds.
    let files = [
        SourceFile::new(
            "crates/simcore/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod stats;\n",
        ),
        SourceFile::new(
            "crates/simcore/src/stats.rs",
            "pub fn mean(xs: &[f64]) -> f64 {\n    xs.iter().sum::<f64>() / xs.len() as f64\n}\n",
        ),
    ];
    assert!(lint(&files).is_empty(), "{:?}", lint(&files));
}

#[test]
fn float_fold_pragma_suppresses() {
    let diags = lint_one(
        "crates/grid/tests/fix.rs",
        "let a: f64 = xs.iter().sum(); // simlint: allow(float-fold-order) -- test statistic over a fixed sample order\n",
    );
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}

// ---- mutex-poison -----------------------------------------------------

#[test]
fn mutex_poison_fires_on_bare_unwrap_only() {
    let diags = lint_one("crates/core/tests/fix.rs", "let g = m.lock().unwrap();\n");
    assert_eq!(rules_of(&diags), vec![Rule::MutexPoison]);
    // Named diagnostics are exactly what the rule wants.
    assert!(lint_one(
        "crates/core/tests/fix.rs",
        "let g = m.lock().expect(\"core::x::M poisoned\");\n"
    )
    .is_empty());
    // A lock() with no unwrap (stdout, try_lock paths) is fine.
    assert!(lint_one("crates/core/tests/fix.rs", "let g = stdout.lock();\n").is_empty());
    // Outside the sim crates the idiom is not enforced.
    assert!(lint_one("crates/bench/tests/fix.rs", "let g = m.lock().unwrap();\n").is_empty());
}

#[test]
fn mutex_poison_pragma_needs_a_reason() {
    let diags = lint_one(
        "crates/core/tests/fix.rs",
        "// simlint: allow(mutex-poison)\nlet g = m.lock().unwrap();\n",
    );
    assert_eq!(rules_of(&diags), vec![Rule::BadPragma, Rule::MutexPoison]);
    let diags = lint_one(
        "crates/core/tests/fix.rs",
        "// simlint: allow(mutex-poison) -- poison is unreachable, lock scope is panic-free\nlet g = m.lock().unwrap();\n",
    );
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}
