//! # simlint
//!
//! A rustc-`tidy`-style static-analysis pass that machine-checks the
//! `vgrid` determinism and shared-state contracts (DESIGN.md §8, §14).
//! Every simulation run must be a pure function of (config, seed), and
//! every piece of process-global mutable state must be declared,
//! ranked, and resettable before `vgrid serve` lets concurrent tenants
//! share the caches. The pass walks the workspace source tree as a
//! comment/string-aware token stream with lightweight item parsing
//! (functions, statics, struct/enum fields) and rejects the constructs
//! that silently break those properties:
//!
//! | rule id                 | what it checks                                                |
//! |-------------------------|---------------------------------------------------------------|
//! | `hash-collections`      | no `HashMap`/`HashSet` in sim crates (iteration-order entropy) |
//! | `wall-clock`            | no `Instant::now`/`SystemTime` outside the criterion/timeref shims |
//! | `ambient-entropy`       | no `thread_rng`/`OsRng`/`getrandom`/`from_entropy` outside `simcore::rng` |
//! | `os-threads`            | no `thread::scope`/`thread::spawn` in sim crates outside `simcore`'s bounded pool |
//! | `unstable-sort`         | no `sort_unstable*` without an explicit key-totality pragma   |
//! | `substrate-collections` | no raw `BTreeMap`/`BTreeSet` in the grid host substrate       |
//! | `stray-file`            | no unreferenced / non-`.rs` files under any `src/` directory  |
//! | `forbid-unsafe`         | crate roots carry `#![forbid(unsafe_code)]`                   |
//! | `global-state-registry` | every interior-mutable `static` in sim crates is declared in `GLOBALS.toml`, and vice versa |
//! | `lock-order`            | locks on registered globals are acquired in strictly increasing rank order, with no cycles |
//! | `send-clean`            | no `Rc`/`RefCell`/`Cell` in types reachable from the engine/cache state `vgrid serve` ships across threads |
//! | `float-fold-order`      | no ad-hoc float `sum()`/`fold()` reductions outside the blessed fixed-op-order helpers |
//! | `mutex-poison`          | `.lock().expect("…")` with a named diagnostic, never bare `.unwrap()` |
//!
//! A violation line can be sanctioned with a pragma comment, either
//! trailing the line or on the line directly above it:
//!
//! ```text
//! // simlint: allow(hash-collections) -- debug dump, order never observed
//! ```
//!
//! The reason is mandatory: an allow without a justification is itself
//! a diagnostic (`bad-pragma`). Pragmas are only recognised inside
//! comments — the lexer separates code, comments and string literals,
//! so neither banned tokens in doc prose nor pragma look-alikes in
//! string literals (e.g. this crate's own rule tables and test
//! fixtures) ever fire or suppress anything.
//!
//! The library is pure — [`lint`] maps a set of in-memory
//! [`SourceFile`]s (including the `GLOBALS.toml` registry, when
//! present) to [`Diagnostic`]s — so the fixture tests run without
//! touching the filesystem; the `simlint` binary glues
//! [`collect_tree`] + [`lint`] to the real workspace and turns the
//! outcome into a machine-readable exit code (0 clean, 1 violations,
//! 2 I/O or usage error).

#![forbid(unsafe_code)]

pub mod lexer;
pub mod parse;
pub mod registry;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use lexer::{Kind, Lexed, Tok};
use parse::{match_paren, FnDecl, Items, StaticDecl};
use registry::GlobalEntry;

/// The crates whose source must be free of iteration-order,
/// comparison, and shared-state nondeterminism. Everything under
/// `crates/<name>/`.
pub const SIM_CRATES: &[&str] = &[
    "simcore",
    "simobs",
    "os",
    "machine",
    "vmm",
    "workloads",
    "grid",
    "core",
    "serve",
];

/// Crates allowed to read host wall-clock time: the in-repo criterion
/// shim (benchmarks the simulator itself) and the external
/// time-reference model.
pub const WALL_CLOCK_SHIMS: &[&str] = &["criterion", "timeref"];

/// The one file allowed to define entropy plumbing: the seedable
/// simulation RNG.
pub const ENTROPY_SHIM: &str = "crates/simcore/src/rng.rs";

/// The one sim-crate file allowed to start OS threads: the bounded
/// repetition pool, which never runs more workers than cores.
pub const THREAD_POOL: &str = "crates/simcore/src/pool.rs";

/// The grid host-substrate files, where per-host state must live in
/// the deterministic wrappers (`DetMap`/`DetSet`) rather than raw
/// B-tree collections, so the batched/hydrated equivalence contract
/// stays visible in the types (DESIGN.md §12).
pub const SUBSTRATE_FILES: &[&str] = &[
    "crates/grid/src/sim.rs",
    "crates/grid/src/archetype.rs",
    "crates/grid/src/hydrate.rs",
    "crates/grid/src/fastforward.rs",
];

/// Workspace-relative path of the shared-state registry.
pub const REGISTRY_PATH: &str = "GLOBALS.toml";

/// Roots of the send-clean reachability check: the types `vgrid serve`
/// must ship across threads — trial inputs/outputs, the campaign
/// substrate state, and every value type stored in a process-global
/// cache. Any struct/enum reachable from these through field types
/// must be free of `Rc`/`RefCell`/`Cell`.
pub const SEND_CLEAN_ROOTS: &[&str] = &[
    "TrialSpec",
    "TrialResult",
    "SimState",
    "CampaignCheckpoint",
    "SegmentSolution",
    "TrajectoryCache",
];

/// Files whose float reductions are blessed: the Welford /
/// fixed-op-order statistics helpers every other crate must use.
pub const FLOAT_FOLD_BLESSED: &[&str] = &["crates/simcore/src/stats.rs"];

/// A rule enforced by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` in a sim crate.
    HashCollections,
    /// `Instant::now`/`SystemTime` outside the wall-clock shims.
    WallClock,
    /// Ambient entropy (`thread_rng` & co.) outside `simcore::rng`.
    AmbientEntropy,
    /// `thread::scope`/`thread::spawn` in a sim crate outside the pool.
    OsThreads,
    /// `sort_unstable*` without a key-totality pragma.
    UnstableSort,
    /// Raw `BTreeMap`/`BTreeSet` in the grid host substrate.
    SubstrateCollections,
    /// Unreferenced or non-`.rs` file under a `src/` directory.
    StrayFile,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// Interior-mutable static not declared in `GLOBALS.toml` (or a
    /// registry entry with no matching static).
    GlobalStateRegistry,
    /// Lock acquired out of rank order, re-acquired while held, or
    /// part of an acquisition cycle.
    LockOrder,
    /// `Rc`/`RefCell`/`Cell` reachable from the serve-critical types.
    SendClean,
    /// Ad-hoc float reduction outside the blessed helpers.
    FloatFoldOrder,
    /// Bare `.lock().unwrap()` instead of a named `.expect("…")`.
    MutexPoison,
    /// Malformed or unknown allow-pragma.
    BadPragma,
}

impl Rule {
    /// The id used in pragmas and diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashCollections => "hash-collections",
            Rule::WallClock => "wall-clock",
            Rule::AmbientEntropy => "ambient-entropy",
            Rule::OsThreads => "os-threads",
            Rule::UnstableSort => "unstable-sort",
            Rule::SubstrateCollections => "substrate-collections",
            Rule::StrayFile => "stray-file",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::GlobalStateRegistry => "global-state-registry",
            Rule::LockOrder => "lock-order",
            Rule::SendClean => "send-clean",
            Rule::FloatFoldOrder => "float-fold-order",
            Rule::MutexPoison => "mutex-poison",
            Rule::BadPragma => "bad-pragma",
        }
    }

    /// Parse a pragma rule id. Only line-scoped rules can be allowed,
    /// so the file-scoped ones (`stray-file`, `forbid-unsafe`) and
    /// `bad-pragma` itself are not recognised here.
    pub fn from_pragma_id(id: &str) -> Option<Rule> {
        match id {
            "hash-collections" => Some(Rule::HashCollections),
            "wall-clock" => Some(Rule::WallClock),
            "ambient-entropy" => Some(Rule::AmbientEntropy),
            "os-threads" => Some(Rule::OsThreads),
            "unstable-sort" => Some(Rule::UnstableSort),
            "substrate-collections" => Some(Rule::SubstrateCollections),
            "global-state-registry" => Some(Rule::GlobalStateRegistry),
            "lock-order" => Some(Rule::LockOrder),
            "send-clean" => Some(Rule::SendClean),
            "float-fold-order" => Some(Rule::FloatFoldOrder),
            "mutex-poison" => Some(Rule::MutexPoison),
            _ => None,
        }
    }

    /// Every rule, for `--list-rules` and the docs.
    pub fn all() -> &'static [Rule] {
        &[
            Rule::HashCollections,
            Rule::WallClock,
            Rule::AmbientEntropy,
            Rule::OsThreads,
            Rule::UnstableSort,
            Rule::SubstrateCollections,
            Rule::StrayFile,
            Rule::ForbidUnsafe,
            Rule::GlobalStateRegistry,
            Rule::LockOrder,
            Rule::SendClean,
            Rule::FloatFoldOrder,
            Rule::MutexPoison,
            Rule::BadPragma,
        ]
    }

    /// One-line description, for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::HashCollections => "no HashMap/HashSet in sim crates",
            Rule::WallClock => "no Instant::now/SystemTime outside criterion/timeref",
            Rule::AmbientEntropy => "no thread_rng/OsRng/getrandom outside simcore::rng",
            Rule::OsThreads => {
                "no thread::scope/thread::spawn in sim crates outside simcore's pool"
            }
            Rule::UnstableSort => "no sort_unstable* without a key-totality pragma",
            Rule::SubstrateCollections => "no raw BTreeMap/BTreeSet in the grid host substrate",
            Rule::StrayFile => "no unreferenced or non-.rs files under src/",
            Rule::ForbidUnsafe => "crate roots must carry #![forbid(unsafe_code)]",
            Rule::GlobalStateRegistry => {
                "interior-mutable statics in sim crates must be declared in GLOBALS.toml"
            }
            Rule::LockOrder => {
                "registered locks must be acquired in strictly increasing rank order"
            }
            Rule::SendClean => "no Rc/RefCell/Cell reachable from serve-critical engine state",
            Rule::FloatFoldOrder => "no ad-hoc float reductions outside the blessed stats helpers",
            Rule::MutexPoison => ".lock() must use .expect(\"…\") with a named diagnostic",
            Rule::BadPragma => "pragmas must be `allow(<rule>) -- <reason>`",
        }
    }
}

/// One finding, pointing at a workspace-relative `path:line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number (1 for whole-file findings).
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// A file handed to [`lint`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// UTF-8 contents for `.rs` files and `GLOBALS.toml`; `None` for
    /// other files (which only the `stray-file` rule looks at).
    pub text: Option<String>,
}

impl SourceFile {
    /// Convenience constructor for tests and callers.
    pub fn new(path: &str, text: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            text: Some(text.to_string()),
        }
    }
}

/// Per-file pragma table: line number -> rules allowed on that line
/// and the next.
type Allows = BTreeMap<usize, Vec<Rule>>;

/// Parse allow-pragmas out of the lexed comments. Malformed pragmas
/// become `bad-pragma` diagnostics.
fn parse_pragmas(path: &str, comments: &[(usize, String)], diags: &mut Vec<Diagnostic>) -> Allows {
    let mut allows: Allows = BTreeMap::new();
    let marker = "simlint:";
    for (lineno, comment) in comments {
        let lineno = *lineno;
        let mut cursor = 0;
        while let Some(pos) = comment[cursor..].find(marker) {
            let after = &comment[cursor + pos + marker.len()..];
            cursor += pos + marker.len();
            let after = after.trim_start();
            let Some(rest) = after.strip_prefix("allow(") else {
                report(
                    diags,
                    path,
                    lineno,
                    Rule::BadPragma,
                    "expected `allow(<rule>) -- <reason>` after `simlint:`",
                );
                continue;
            };
            let Some(close) = rest.find(')') else {
                report(
                    diags,
                    path,
                    lineno,
                    Rule::BadPragma,
                    "unclosed `allow(` pragma",
                );
                continue;
            };
            let id = rest[..close].trim();
            let tail = rest[close + 1..].trim_start();
            let Some(rule) = Rule::from_pragma_id(id) else {
                report(
                    diags,
                    path,
                    lineno,
                    Rule::BadPragma,
                    format!("unknown or non-allowable rule `{id}` in pragma"),
                );
                continue;
            };
            let reason_ok = tail
                .strip_prefix("--")
                .map(|r| !r.trim().is_empty())
                .unwrap_or(false);
            if !reason_ok {
                report(
                    diags,
                    path,
                    lineno,
                    Rule::BadPragma,
                    format!("pragma `allow({id})` needs a justification: `-- <reason>`"),
                );
                continue;
            }
            allows.entry(lineno).or_default().push(rule);
        }
    }
    allows
}

fn allowed(allows: &Allows, rule: Rule, line: usize) -> bool {
    let on = |l: usize| allows.get(&l).map(|v| v.contains(&rule)).unwrap_or(false);
    on(line) || (line > 0 && on(line - 1))
}

/// Does `path` live in one of the sim crates?
fn in_sim_crate(path: &str) -> bool {
    SIM_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/")))
}

/// Sim-crate library source (not tests/benches): where statics must be
/// registered and the send-clean type graph lives.
fn in_sim_src(path: &str) -> bool {
    in_sim_crate(path) && path.contains("/src/")
}

fn in_wall_clock_shim(path: &str) -> bool {
    WALL_CLOCK_SHIMS
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/")))
}

/// The top-level unit a path belongs to: `crates/<name>` or `""` for
/// the root package. Module references only count within their unit.
fn unit_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        match rest.find('/') {
            Some(cut) => format!("crates/{}", &rest[..cut]),
            None => String::new(),
        }
    } else {
        String::new()
    }
}

/// Is `path` a compilation root cargo discovers on its own (crate
/// roots, bin/test/bench/example targets)?
fn is_compilation_root(path: &str, unit: &str) -> bool {
    let local = if unit.is_empty() {
        path
    } else {
        match path.strip_prefix(&format!("{unit}/")) {
            Some(l) => l,
            None => return false,
        }
    };
    local == "src/lib.rs"
        || local == "src/main.rs"
        || local == "build.rs"
        || (local.starts_with("src/bin/") && local.ends_with(".rs"))
        || (local.starts_with("tests/") && local.ends_with(".rs"))
        || (local.starts_with("benches/") && local.ends_with(".rs"))
        || (local.starts_with("examples/") && local.ends_with(".rs"))
}

/// One lexed + item-parsed source file, ready for the rule passes.
struct Prep<'a> {
    file: &'a SourceFile,
    lexed: Lexed,
    items: Items,
    allows: Allows,
}

fn is_punct(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).and_then(|t| t.ident())
}

/// Classify a static's interior-mutability kind from its type tokens,
/// or `None` for plain (immutable) statics.
fn classify_static(s: &StaticDecl) -> Option<&'static str> {
    let has = |n: &str| s.ty.iter().any(|t| t == n);
    let base = if has("Mutex") {
        "mutex"
    } else if has("RwLock") {
        "rwlock"
    } else if has("OnceLock") || has("OnceCell") || has("LazyLock") {
        "once"
    } else if s.ty.iter().any(|t| t.starts_with("Atomic")) {
        "atomic"
    } else if has("RefCell") || has("Cell") || has("UnsafeCell") {
        "cell"
    } else {
        return None;
    };
    Some(if s.thread_local { "thread-local" } else { base })
}

/// Field type idents that break the Send-clean contract. `Cell` and
/// `RefCell` are matched as exact identifiers, so `OnceCell` (which is
/// Sync-safe behind `OnceLock`-style APIs) never fires.
fn send_unclean_ident(ty: &[String]) -> Option<&str> {
    ty.iter()
        .find(|t| matches!(t.as_str(), "Rc" | "RefCell" | "Cell" | "UnsafeCell"))
        .map(|s| s.as_str())
}

/// A lock acquisition observed while walking a function body.
struct Hold {
    name: String,
    depth: i32,
    binding: Option<String>,
}

/// A nested acquisition: `to` was taken while `from` was held.
struct LockEdge {
    from: String,
    to: String,
    path: String,
    line: usize,
    allowed: bool,
}

/// Record one finding. Every pass reports through here; findings that
/// a pragma may suppress go through [`Prep::flag`] first.
fn report(
    diags: &mut Vec<Diagnostic>,
    path: &str,
    line: usize,
    rule: Rule,
    message: impl Into<String>,
) {
    diags.push(Diagnostic {
        path: path.to_string(),
        line,
        rule,
        message: message.into(),
    });
}

impl Prep<'_> {
    /// Report a finding in this file unless a pragma allows `rule` on
    /// `line`.
    fn flag(
        &self,
        diags: &mut Vec<Diagnostic>,
        line: usize,
        rule: Rule,
        message: impl Into<String>,
    ) {
        if !allowed(&self.allows, rule, line) {
            report(diags, &self.file.path, line, rule, message);
        }
    }
}

/// Run every rule over the given files. Paths are workspace-relative
/// with `/` separators; diagnostics come back sorted by (path, line).
pub fn lint(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let registry = registry_file(files, &mut diags);
    let preps = prepare(files, &mut diags);
    for p in &preps {
        token_rules(p, &mut diags);
        mutex_poison(p, &mut diags);
        float_fold_order(p, &mut diags);
        forbid_unsafe(p, &mut diags);
    }
    global_state_registry(&preps, &registry, &mut diags);
    send_clean(&preps, &mut diags);
    lock_order(&preps, &registry, &mut diags);
    stray_files(files, &preps, &mut diags);
    diags.sort();
    diags.dedup();
    diags
}

/// Parse `GLOBALS.toml` (empty when absent), reporting syntax errors
/// and duplicate entries. Registry-file findings are unsuppressible.
fn registry_file(files: &[SourceFile], diags: &mut Vec<Diagnostic>) -> Vec<GlobalEntry> {
    let registry_text = files
        .iter()
        .find(|f| f.path == REGISTRY_PATH)
        .and_then(|f| f.text.as_deref());
    let (registry, reg_errors) = match registry_text {
        Some(text) => registry::parse(text),
        None => (Vec::new(), Vec::new()),
    };
    for (line, message) in reg_errors {
        report(
            diags,
            REGISTRY_PATH,
            line,
            Rule::GlobalStateRegistry,
            message,
        );
    }
    for (i, e) in registry.iter().enumerate() {
        if registry[..i].iter().any(|p| p.name == e.name) {
            report(
                diags,
                REGISTRY_PATH,
                e.line,
                Rule::GlobalStateRegistry,
                format!("duplicate registry entry for `{}`", e.name),
            );
        }
    }
    registry
}

/// Lex, item-parse and read the pragmas of every `.rs` file.
fn prepare<'a>(files: &'a [SourceFile], diags: &mut Vec<Diagnostic>) -> Vec<Prep<'a>> {
    let mut preps: Vec<Prep> = Vec::new();
    for f in files {
        if !f.path.ends_with(".rs") {
            continue;
        }
        let Some(text) = &f.text else { continue };
        let lexed = lexer::lex(text);
        let items = parse::parse(&lexed.toks);
        let allows = parse_pragmas(&f.path, &lexed.comments, diags);
        preps.push(Prep {
            file: f,
            lexed,
            items,
            allows,
        });
    }
    preps
}

const WALL_CLOCK_MSG: &str = "host wall-clock reads are banned outside the criterion/timeref \
                              shims; simulated time comes from `vgrid_simcore::SimTime`";

/// The single-token rules: hash-collections, wall-clock,
/// ambient-entropy, os-threads, unstable-sort and
/// substrate-collections.
fn token_rules(p: &Prep, diags: &mut Vec<Diagnostic>) {
    let path = &p.file.path;
    let toks = &p.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        let (rule, message) = match id {
            "HashMap" | "HashSet" if in_sim_crate(path) => (
                Rule::HashCollections,
                format!(
                    "`{id}` iterates in RandomState order; use \
                     `vgrid_simcore::DetMap`/`DetSet` in sim crates"
                ),
            ),
            "SystemTime" if !in_wall_clock_shim(path) => (Rule::WallClock, WALL_CLOCK_MSG.into()),
            "Instant"
                if !in_wall_clock_shim(path)
                    && is_punct(toks, i + 1, ':')
                    && is_punct(toks, i + 2, ':')
                    && ident_at(toks, i + 3) == Some("now") =>
            {
                (Rule::WallClock, WALL_CLOCK_MSG.into())
            }
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" if path != ENTROPY_SHIM => (
                Rule::AmbientEntropy,
                "ambient entropy is banned outside `simcore::rng`; \
                 fork a seeded `SimRng` stream instead"
                    .into(),
            ),
            "thread"
                if in_sim_crate(path)
                    && path != THREAD_POOL
                    && is_punct(toks, i + 1, ':')
                    && is_punct(toks, i + 2, ':')
                    && matches!(ident_at(toks, i + 3), Some("scope" | "spawn")) =>
            {
                (
                    Rule::OsThreads,
                    "per-item OS threads are banned in sim crates: fan work out with \
                     `vgrid_simcore::parallel_map`, which never starts more workers \
                     than cores"
                        .into(),
                )
            }
            s if s.starts_with("sort_unstable") => (
                Rule::UnstableSort,
                "`sort_unstable*` reorders equal keys; prove the key is total and \
                 annotate, or use a stable sort"
                    .into(),
            ),
            "BTreeMap" | "BTreeSet" if SUBSTRATE_FILES.contains(&path.as_str()) => (
                Rule::SubstrateCollections,
                "host-substrate state must use `vgrid_simcore::DetMap`/`DetSet` so the \
                 batched/hydrated equivalence contract stays visible in the types"
                    .into(),
            ),
            _ => continue,
        };
        p.flag(diags, t.line, rule, message);
    }
}

/// mutex-poison: `.lock().unwrap()` anywhere in a sim crate.
fn mutex_poison(p: &Prep, diags: &mut Vec<Diagnostic>) {
    if !in_sim_crate(&p.file.path) {
        return;
    }
    let toks = &p.lexed.toks;
    for i in 0..toks.len() {
        if toks[i].is_punct('.')
            && ident_at(toks, i + 1) == Some("lock")
            && is_punct(toks, i + 2, '(')
            && is_punct(toks, i + 3, ')')
            && is_punct(toks, i + 4, '.')
            && ident_at(toks, i + 5) == Some("unwrap")
        {
            p.flag(
                diags,
                toks[i + 5].line,
                Rule::MutexPoison,
                "bare `.lock().unwrap()` loses the poison context; use \
                 `.lock().expect(\"<which lock> poisoned\")` so a crashed thread \
                 names the lock it corrupted",
            );
        }
    }
}

/// float-fold-order: `.sum()`/`.product()`/`.fold(…)` whose statement
/// mentions f32/f64 or a float literal, outside the blessed
/// fixed-op-order helpers.
fn float_fold_order(p: &Prep, diags: &mut Vec<Diagnostic>) {
    let path = &p.file.path;
    if !in_sim_crate(path) || FLOAT_FOLD_BLESSED.contains(&path.as_str()) {
        return;
    }
    let toks = &p.lexed.toks;
    for i in 0..toks.len() {
        if !toks[i].is_punct('.') {
            continue;
        }
        let Some(m) = ident_at(toks, i + 1) else {
            continue;
        };
        if !matches!(m, "sum" | "product" | "fold") {
            continue;
        }
        // Statement window: back to the previous `;`/`{`/`}`, forward
        // through the call's argument list.
        let mut a = i;
        while a > 0 {
            match toks[a - 1].kind {
                Kind::Punct(';') | Kind::Punct('{') | Kind::Punct('}') => break,
                _ => a -= 1,
            }
        }
        let mut b = i + 1;
        for j in i + 2..(i + 8).min(toks.len()) {
            if toks[j].is_punct('(') {
                b = match_paren(toks, j).unwrap_or(j);
                break;
            }
        }
        let floaty = toks[a..=b.min(toks.len() - 1)]
            .iter()
            .any(|t| t.is_float() || t.is_ident("f64") || t.is_ident("f32"));
        if floaty {
            p.flag(
                diags,
                toks[i + 1].line,
                Rule::FloatFoldOrder,
                format!(
                    "float `.{m}()` reduction: summation order changes the result \
                     bit-for-bit; use the fixed-op-order helpers in \
                     `vgrid_simcore::stats` or justify the op order with a pragma"
                ),
            );
        }
    }
}

/// forbid-unsafe: crate roots must carry the attribute. Unsuppressible.
fn forbid_unsafe(p: &Prep, diags: &mut Vec<Diagnostic>) {
    let path = &p.file.path;
    let is_crate_root =
        path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"));
    if !is_crate_root {
        return;
    }
    let toks = &p.lexed.toks;
    let has_forbid = (0..toks.len()).any(|i| {
        toks[i].is_punct('#')
            && is_punct(toks, i + 1, '!')
            && is_punct(toks, i + 2, '[')
            && ident_at(toks, i + 3) == Some("forbid")
            && is_punct(toks, i + 4, '(')
            && ident_at(toks, i + 5) == Some("unsafe_code")
            && is_punct(toks, i + 6, ')')
            && is_punct(toks, i + 7, ']')
    });
    if !has_forbid {
        report(
            diags,
            path,
            1,
            Rule::ForbidUnsafe,
            "crate root is missing `#![forbid(unsafe_code)]`",
        );
    }
}

/// global-state-registry: every interior-mutable static in sim-crate
/// source is registered with the right kind, and every registry entry
/// names a static that exists (that direction is unsuppressible).
fn global_state_registry(preps: &[Prep], registry: &[GlobalEntry], diags: &mut Vec<Diagnostic>) {
    let mut found: Vec<(&str, &str)> = Vec::new(); // (name, path) of classified statics
    for p in preps {
        let path = &p.file.path;
        if !in_sim_src(path) {
            continue;
        }
        for s in &p.items.statics {
            let Some(kind) = classify_static(s) else {
                continue;
            };
            found.push((s.name.as_str(), path.as_str()));
            let message = match registry
                .iter()
                .find(|e| e.name == s.name && e.path == *path)
            {
                None => format!(
                    "interior-mutable static `{}` ({kind}) is not declared in GLOBALS.toml; \
                     register it with an owner, kind, and reset hook",
                    s.name
                ),
                Some(e) if e.kind != kind => format!(
                    "static `{}` is `{kind}` in code but `{}` in GLOBALS.toml",
                    s.name, e.kind
                ),
                Some(_) => continue,
            };
            p.flag(diags, s.line, Rule::GlobalStateRegistry, message);
        }
    }
    for e in registry {
        if !found.iter().any(|(n, p)| *n == e.name && *p == e.path) {
            report(
                diags,
                REGISTRY_PATH,
                e.line,
                Rule::GlobalStateRegistry,
                format!(
                    "registry entry `{}` has no matching static in `{}`; \
                     remove the entry or fix its path",
                    e.name, e.path
                ),
            );
        }
    }
}

/// send-clean: no cell types in sim-crate statics, and none in any
/// type reachable from [`SEND_CLEAN_ROOTS`] through field types.
fn send_clean(preps: &[Prep], diags: &mut Vec<Diagnostic>) {
    // (a) Interior-mutability cells in sim-crate statics (e.g. a
    // `thread_local!` `RefCell`) need an explicit justification.
    for p in preps.iter().filter(|p| in_sim_src(&p.file.path)) {
        for s in &p.items.statics {
            if let Some(bad) = send_unclean_ident(&s.ty) {
                p.flag(
                    diags,
                    s.line,
                    Rule::SendClean,
                    format!(
                        "`{bad}` in static `{}`: cell state is invisible to the \
                         Send checker; justify with a pragma that it never crosses \
                         threads, or use a lock",
                        s.name
                    ),
                );
            }
        }
    }
    // (b) Reachability from the serve-critical roots over field types.
    let mut type_map: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (pi, p) in preps.iter().enumerate() {
        if !in_sim_src(&p.file.path) {
            continue;
        }
        for (ti, td) in p.items.types.iter().enumerate() {
            type_map.entry(td.name.as_str()).or_default().push((pi, ti));
        }
    }
    let mut reach: Vec<&str> = SEND_CLEAN_ROOTS.to_vec();
    let mut queue: Vec<&str> = reach.clone();
    while let Some(name) = queue.pop() {
        let Some(defs) = type_map.get(name) else {
            continue;
        };
        for &(pi, ti) in defs {
            for field in &preps[pi].items.types[ti].fields {
                for ty in &field.ty {
                    if type_map.contains_key(ty.as_str()) && !reach.contains(&ty.as_str()) {
                        reach.push(ty.as_str());
                        queue.push(ty.as_str());
                    }
                }
            }
        }
    }
    for name in &reach {
        let Some(defs) = type_map.get(name) else {
            continue;
        };
        for &(pi, ti) in defs {
            let p = &preps[pi];
            let td = &p.items.types[ti];
            for field in &td.fields {
                if let Some(bad) = send_unclean_ident(&field.ty) {
                    p.flag(
                        diags,
                        field.line,
                        Rule::SendClean,
                        format!(
                            "`{bad}` in `{}` is reachable from the serve-critical \
                             roots ({}); engine and cache state must be Send-clean",
                            td.name,
                            SEND_CLEAN_ROOTS.join("/")
                        ),
                    );
                }
            }
        }
    }
}

/// lock-order: walk every sim-crate function for nested acquisitions
/// of registered locks, then report rank inversions and, as a
/// backstop, an acquisition cycle (unsuppressible).
fn lock_order(preps: &[Prep], registry: &[GlobalEntry], diags: &mut Vec<Diagnostic>) {
    let lock_ranks: BTreeMap<&str, Option<u32>> = registry
        .iter()
        .filter(|e| matches!(e.kind.as_str(), "mutex" | "rwlock"))
        .map(|e| (e.name.as_str(), e.rank))
        .collect();
    let mut edges: Vec<LockEdge> = Vec::new();
    for p in preps.iter().filter(|p| in_sim_crate(&p.file.path)) {
        for f in &p.items.fns {
            walk_locks(p, f, &lock_ranks, &mut edges, diags);
        }
    }
    // Rank inversions: an edge A -> B needs rank(A) < rank(B).
    let mut inversion: Vec<(&str, &str)> = Vec::new();
    for e in &edges {
        let (Some(&Some(rf)), Some(&Some(rt))) = (
            lock_ranks.get(e.from.as_str()),
            lock_ranks.get(e.to.as_str()),
        ) else {
            continue; // missing rank already diagnosed by the registry
        };
        if rf >= rt {
            inversion.push((e.from.as_str(), e.to.as_str()));
            if !e.allowed {
                report(
                    diags,
                    &e.path,
                    e.line,
                    Rule::LockOrder,
                    format!(
                        "lock-order inversion: `{}` (rank {rt}) acquired while `{}` \
                         (rank {rf}) is held; ranks must strictly increase",
                        e.to, e.from
                    ),
                );
            }
        }
    }
    // Cycle backstop: only reported when no inversion already covers
    // it (with all ranks present, any cycle contains an inversion).
    if let Some(cycle) = find_cycle(&edges) {
        let covered = cycle.windows(2).any(|w| inversion.contains(&(w[0], w[1])));
        if !covered {
            let site = edges
                .iter()
                .find(|e| e.from == cycle[0] && e.to == cycle[1])
                .expect("cycle edges come from the edge list");
            report(
                diags,
                &site.path,
                site.line,
                Rule::LockOrder,
                format!("lock acquisition cycle: {}", cycle.join(" -> ")),
            );
        }
    }
}

/// Walk one function body, tracking which registered locks are held
/// (by brace depth and guard binding). Records an edge for every lock
/// taken while another is held, and reports re-acquisition of a held
/// lock as a self-deadlock.
fn walk_locks(
    p: &Prep,
    f: &FnDecl,
    lock_ranks: &BTreeMap<&str, Option<u32>>,
    edges: &mut Vec<LockEdge>,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &p.lexed.toks;
    let (open, close) = f.body;
    let mut depth = 0i32;
    let mut held: Vec<Hold> = Vec::new();
    for i in open..=close {
        let t = &toks[i];
        match &t.kind {
            Kind::Punct('{') => depth += 1,
            Kind::Punct('}') => {
                depth -= 1;
                held.retain(|h| h.depth <= depth);
            }
            // A guard never bound to a name is a temporary: dropped at
            // the end of its statement.
            Kind::Punct(';') => held.retain(|h| h.binding.is_some() || h.depth != depth),
            Kind::Ident(name) => {
                if name == "drop" && is_punct(toks, i + 1, '(') && is_punct(toks, i + 3, ')') {
                    if let Some(b) = ident_at(toks, i + 2) {
                        held.retain(|h| h.binding.as_deref() != Some(b));
                    }
                } else if lock_ranks.contains_key(name.as_str())
                    && is_punct(toks, i + 1, '.')
                    && matches!(ident_at(toks, i + 2), Some("lock" | "read" | "write"))
                    && is_punct(toks, i + 3, '(')
                {
                    let line = t.line;
                    // `let [mut] name = GLOBAL.lock()` binding.
                    let binding = if i >= 2 && toks[i - 1].is_punct('=') {
                        ident_at(toks, i - 2)
                            .filter(|b| *b != "mut" && *b != "let")
                            .map(str::to_string)
                    } else {
                        None
                    };
                    for h in &held {
                        if h.name == *name {
                            p.flag(
                                diags,
                                line,
                                Rule::LockOrder,
                                format!(
                                    "`{name}` re-acquired while already held in `{}` — \
                                     self-deadlock",
                                    f.name
                                ),
                            );
                        } else {
                            edges.push(LockEdge {
                                from: h.name.clone(),
                                to: name.clone(),
                                path: p.file.path.clone(),
                                line,
                                allowed: allowed(&p.allows, Rule::LockOrder, line),
                            });
                        }
                    }
                    held.push(Hold {
                        name: name.clone(),
                        depth,
                        binding,
                    });
                }
            }
            _ => {}
        }
    }
}

/// stray-file: every file under a `src/` directory is a `.rs` file
/// that is a compilation root or declared by a `mod name;` in its
/// unit. Unsuppressible.
fn stray_files(files: &[SourceFile], preps: &[Prep], diags: &mut Vec<Diagnostic>) {
    // Per-unit `mod name;` declarations.
    let mut mod_decls: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for p in preps {
        let decls = mod_decls.entry(unit_of(&p.file.path)).or_default();
        let toks = &p.lexed.toks;
        for i in 0..toks.len() {
            if toks[i].is_ident("mod") {
                if let Some(name) = ident_at(toks, i + 1) {
                    if is_punct(toks, i + 2, ';') {
                        decls.push(name.to_string());
                    }
                }
            }
        }
    }
    for f in files {
        let under_src = f.path.starts_with("src/") || f.path.contains("/src/");
        if !under_src {
            continue;
        }
        if !f.path.ends_with(".rs") {
            report(
                diags,
                &f.path,
                1,
                Rule::StrayFile,
                "non-`.rs` file under src/; delete it or move it out of the source tree",
            );
            continue;
        }
        let unit = unit_of(&f.path);
        if is_compilation_root(&f.path, &unit) {
            continue;
        }
        let file_name = f.path.rsplit('/').next().unwrap_or(&f.path);
        let mod_name = if file_name == "mod.rs" {
            let parent = f.path.rsplit('/').nth(1).unwrap_or("");
            parent.to_string()
        } else {
            file_name.trim_end_matches(".rs").to_string()
        };
        let declared = mod_decls
            .get(&unit)
            .map(|v| v.contains(&mod_name))
            .unwrap_or(false);
        if !declared {
            report(
                diags,
                &f.path,
                1,
                Rule::StrayFile,
                format!(
                    "unreferenced source file: no `mod {mod_name};` in {}",
                    if unit.is_empty() {
                        "the root package"
                    } else {
                        &unit
                    }
                ),
            );
        }
    }
}

/// DFS for a cycle in the (deduplicated) lock acquisition graph.
/// Returns the cycle as `[a, b, …, a]` node names.
fn find_cycle(edges: &[LockEdge]) -> Option<Vec<&str>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in edges {
        let succs = adj.entry(e.from.as_str()).or_default();
        if !succs.contains(&e.to.as_str()) {
            succs.push(e.to.as_str());
        }
    }
    let mut done: Vec<&str> = Vec::new();
    for &start in adj.keys().collect::<Vec<_>>() {
        if done.contains(&start) {
            continue;
        }
        let mut path: Vec<&str> = Vec::new();
        // Recursive DFS with an explicit path; small graphs only.
        fn dfs<'e>(
            node: &'e str,
            adj: &BTreeMap<&'e str, Vec<&'e str>>,
            path: &mut Vec<&'e str>,
            done: &mut Vec<&'e str>,
        ) -> Option<Vec<&'e str>> {
            if let Some(pos) = path.iter().position(|&n| n == node) {
                let mut cycle: Vec<&str> = path[pos..].to_vec();
                cycle.push(node);
                return Some(cycle);
            }
            if done.contains(&node) {
                return None;
            }
            path.push(node);
            if let Some(succs) = adj.get(node) {
                for &s in succs {
                    if let Some(c) = dfs(s, adj, path, done) {
                        return Some(c);
                    }
                }
            }
            path.pop();
            done.push(node);
            None
        }
        if let Some(c) = dfs(start, &adj, &mut path, &mut done) {
            return Some(c);
        }
    }
    None
}

const SKIP_DIRS: &[&str] = &["target", ".git", ".claude", "node_modules"];

/// Walk the workspace at `root` and collect every `.rs` file, every
/// other file that sits under a `src/` directory (for the `stray-file`
/// rule), and the `GLOBALS.toml` registry. Paths come back
/// workspace-relative with `/` separators, sorted.
pub fn collect_tree(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
                continue;
            }
            let rel = path
                .strip_prefix(root)
                .expect("walk stays under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            let is_rs = rel.ends_with(".rs");
            let is_registry = rel == REGISTRY_PATH;
            let under_src = rel.starts_with("src/") || rel.contains("/src/");
            if !is_rs && !under_src && !is_registry {
                continue;
            }
            let text = if is_rs || is_registry {
                fs::read_to_string(&path).ok()
            } else {
                None
            };
            out.push(SourceFile { path: rel, text });
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT_ATTR: &str = "#![forbid(unsafe_code)]\n";

    #[test]
    fn tokens_in_strings_and_comments_never_fire() {
        let files = [SourceFile::new(
            "crates/grid/src/lib.rs",
            &format!("{ROOT_ATTR}// HashMap in prose\nlet s = \"HashMap\";\n"),
        )];
        assert!(lint(&files).is_empty());
    }

    #[test]
    fn multiline_lock_unwrap_is_caught() {
        let files = [SourceFile::new(
            "crates/core/src/lib.rs",
            &format!("{ROOT_ATTR}fn f() {{\n    cache\n        .lock()\n        .unwrap();\n}}\n"),
        )];
        let diags = lint(&files);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::MutexPoison);
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn pragma_on_line_above_suppresses() {
        let files = [SourceFile::new(
            "crates/grid/src/lib.rs",
            &format!(
                "{ROOT_ATTR}// simlint: allow(hash-collections) -- fixture, order never observed\nuse std::collections::HashMap;\n"
            ),
        )];
        assert!(lint(&files).is_empty());
    }
}
