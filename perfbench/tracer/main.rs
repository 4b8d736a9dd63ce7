//! In-process layer tracer for the vgrid end-to-end benchmark.
//!
//! Each subcommand replays one workload's operations through the public
//! API of the vgrid crates and wraps every call the benchmark makes into
//! a layer in a span: name, start, end, parent span and request id.
//! Spans and counters stay in memory and are written as JSON into the
//! output directory when the subcommand ends; `perfbench/run.py` turns
//! them into the per-layer metrics. Counters come only from public
//! outputs (`GridReport`, `fastforward::stats()`, run manifests).
//!
//! ```text
//! perfbench-tracer paper-suite   <out> <trace>                the calls vgrid-report makes
//! perfbench-tracer paper-ids     <out>                        experiments::run_by_id per id
//! perfbench-tracer paper-observe <out>                        obs::run_observed manifests
//! perfbench-tracer probes        <out> <request.json>         single-layer probes
//! perfbench-tracer campaigns     <out> <trace> <request.json>…  cold in-process campaigns
//! perfbench-tracer replay        <out> <bodies> <threads> <trace>
//! ```
//!
//! `<trace>` is 1 to record spans or 0 to run the same calls with the
//! recorder off; either way `counters.json` holds `ops_s`, the wall time
//! of all operations, so the two give the tracing overhead.
//!
//! `replay` reads one request per line as `<client>\t<body>` and writes
//! `responses.txt`: per line a `<status> <length>\n` head followed by
//! the response bytes, exactly what `vgrid serve` would answer. Each of
//! the `<threads>` threads runs its clients' lines in order, like the
//! server's workers.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use vgrid::core::{calibration, experiments, obs, Fidelity};
use vgrid::grid::{fastforward, wire, GridReport};
use vgrid::machine::ops::OpBlock;
use vgrid::machine::MachineSpec;
use vgrid::os::{Action, Priority, System, SystemConfig, ThreadBody, ThreadCtx};
use vgrid::simcore::SimTime;
use vgrid::workloads::corpus;
use vgrid::workloads::counter::OpCounter;
use vgrid::workloads::einstein::fft;
use vgrid::workloads::lzma::{compress, LzmaConfig};

/// The registry ids in the order `vgrid-report` runs them.
const REPORT_ORDER: [&str; 20] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "figfp",
    "fig7",
    "fig8",
    "tab-mem",
    "abl-prio",
    "abl-cores",
    "abl-l2",
    "abl-bt",
    "abl-lzma",
    "abl-quad",
    "grid-tradeoff",
    "grid-image",
    "grid-migration",
    "timing-method",
];
/// The one registry id `vgrid-report` leaves out.
const NOT_IN_REPORT: &str = "grid-churn";

struct Span {
    name: String,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
    req: u64,
}

/// In-memory span recorder; [`Tracer::write`] dumps it at the end.
struct Tracer {
    t0: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Host wall clock: measuring it is what the benchmark is for.
fn wall_now() -> Instant {
    // simlint: allow(wall-clock) -- benchmark timing; no wall value enters a program artifact
    Instant::now()
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: wall_now(),
            on: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder, or with `trace` false one that records nothing: the
    /// untraced twin of a traced run, for the tracing overhead.
    fn for_run(trace: bool) -> Self {
        Tracer {
            on: trace,
            ..Tracer::new()
        }
    }

    fn enter(&mut self, name: impl Into<String>, req: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.t0.elapsed().as_nanos(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.t0.elapsed().as_nanos();
    }

    /// Append another recorder's spans, rebased onto this one's clock.
    fn absorb(&mut self, other: Tracer) {
        let shift = other.t0.saturating_duration_since(self.t0).as_nanos();
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    fn span<T>(&mut self, name: impl Into<String>, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }

    fn seconds(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    fn write(&self, out: &Path) -> std::io::Result<()> {
        if !self.on {
            return Ok(());
        }
        let mut doc = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                doc,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.req,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        doc.push_str("]\n");
        std::fs::write(out.join("spans.json"), doc)
    }
}

/// Named numeric outputs of one subcommand, written as a flat JSON map.
#[derive(Default)]
struct Counters(BTreeMap<String, f64>);

impl Counters {
    fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }

    fn max(&mut self, name: &str, v: f64) {
        let e = self.0.entry(name.to_string()).or_insert(v);
        *e = e.max(v);
    }

    fn add_report(&mut self, r: &GridReport) {
        self.add("grid.campaigns", 1.0);
        self.add("grid.results_returned", r.results_returned as f64);
        self.add("grid.reissues", r.reissues as f64);
        self.add("grid.checkpoint_writes", r.checkpoint_writes as f64);
        self.add("grid.owner_preemptions", r.owner_preemptions as f64);
        self.add("grid.vm_kills", r.vm_kills as f64);
        self.add("grid.migrations", r.migrations as f64);
        self.add("grid.evacuations", r.evacuations as f64);
        self.add("grid.rescue_wins", r.rescue_wins as f64);
        self.add("grid.fault_transitions", r.fault_transitions as f64);
        self.add("grid.hydrate.windows", r.hydration.windows as f64);
        self.add("grid.hydrate.hydrations", r.hydration.hydrations as f64);
        self.add("grid.hydrate.memo_hits", r.hydration.memo_hits as f64);
        self.max(
            "grid.hydrate.peak_resident",
            r.hydration.peak_resident as f64,
        );
    }

    /// Fast-forward cache counters accumulated since the last
    /// `grid::reset_all()`.
    fn add_fastforward(&mut self) {
        let ff = fastforward::stats();
        self.add("grid.ff.segment_hits", ff.segment_hits as f64);
        self.add("grid.ff.segment_misses", ff.segment_misses as f64);
        self.add("grid.ff.trajectory_hits", ff.trajectory_hits as f64);
        self.add("grid.ff.trajectory_misses", ff.trajectory_misses as f64);
    }

    fn write(&self, out: &Path) -> std::io::Result<()> {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        std::fs::write(
            out.join("counters.json"),
            format!("{{{}}}\n", body.join(",")),
        )
    }
}

/// What `vgrid serve` answers for one body, split into the calls
/// `wire::run_request_json` makes so each gets its own span.
fn serve_one(tr: &mut Tracer, c: &mut Counters, req: u64, body: &str) -> (u16, String) {
    let parsed = match tr.span("grid.wire.parse", req, || wire::parse_request(body)) {
        Ok(p) => p,
        Err(e) => return (400, wire::render_error(&e)),
    };
    let campaign = match tr.span("grid.campaign.build", req, || parsed.spec.clone().build()) {
        Ok(camp) => camp,
        Err(e) => return (400, wire::render_error(&wire::WireError::from(e))),
    };
    let result = tr.span("grid.campaign_run", req, || {
        campaign.run_with(&parsed.options)
    });
    for r in result.reports() {
        c.add_report(r);
    }
    let doc = tr.span("grid.wire.render", req, || {
        wire::render_response(&parsed.spec, &parsed.options, &result)
    });
    (200, doc)
}

/// The calls `vgrid-report --paper` makes, one span each.
fn paper_suite(out: &Path, trace: bool) -> Result<(), String> {
    let mut tr = Tracer::for_run(trace);
    let t0 = wall_now();
    let root = tr.enter("core.report", 0);
    let figures = tr.span("core.run_paper_suite", 0, || {
        experiments::run_paper_suite(Fidelity::Paper)
    });
    let table = tr.span("core.calibration", 0, || {
        calibration::render_markdown(&calibration::collect(&figures))
    });
    let ablations = tr.span("core.run_ablation_suite", 0, || {
        experiments::run_ablation_suite(Fidelity::Paper)
    });
    let extensions = tr.span("core.run_extension_suite", 0, || {
        experiments::run_extension_suite(Fidelity::Paper)
    });
    black_box((figures, table, ablations, extensions));
    tr.exit(root);
    let mut c = Counters::default();
    c.add("ops_s", t0.elapsed().as_secs_f64());
    tr.write(out).map_err(|e| e.to_string())?;
    c.write(out).map_err(|e| e.to_string())
}

/// Every registry id through `experiments::run_by_id`, in report order.
fn paper_ids(out: &Path) -> Result<(), String> {
    let mut tr = Tracer::new();
    let ids = REPORT_ORDER.iter().chain(std::iter::once(&NOT_IN_REPORT));
    for (i, id) in ids.enumerate() {
        let fig = tr.span(format!("core.experiment/{id}"), i as u64, || {
            experiments::run_by_id(id, Fidelity::Paper)
        });
        black_box(fig.ok_or_else(|| format!("unknown experiment id {id}"))?);
    }
    tr.write(out).map_err(|e| e.to_string())
}

fn paper_observe(out: &Path) -> Result<(), String> {
    let mut tr = Tracer::new();
    let ids = REPORT_ORDER.iter().chain(std::iter::once(&NOT_IN_REPORT));
    for (i, id) in ids.enumerate() {
        let run = tr
            .span(format!("core.run_observed/{id}"), i as u64, || {
                obs::run_observed(id, Fidelity::Paper)
            })
            .ok_or_else(|| format!("unknown experiment id {id}"))?;
        std::fs::write(out.join(format!("manifest-{id}.json")), run.manifest_json)
            .map_err(|e| e.to_string())?;
    }
    tr.write(out).map_err(|e| e.to_string())
}

/// Loops one shared compute block, like a kernel's inner loop.
#[derive(Debug)]
struct BlockLoop(Rc<OpBlock>);
impl ThreadBody for BlockLoop {
    fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
        Action::Compute(Rc::clone(&self.0))
    }
}

/// Figure 1's scheduling scene: one compute kernel alone on one core.
fn fig1_scene() -> (System, SimTime) {
    let mut sys = System::new(SystemConfig {
        machine: MachineSpec::core2_duo_6600().core2_solo(),
        ..SystemConfig::testbed(3)
    });
    let block = Rc::new(OpBlock::int_alu(1_500_000_000));
    sys.spawn("7z", Priority::Normal, Box::new(BlockLoop(block)));
    (sys, SimTime::from_secs(30))
}

/// Figure 7's scheduling scene: a Normal kernel against an Idle memory
/// hog on both cores.
fn fig7_scene() -> (System, SimTime) {
    let mut sys = System::new(SystemConfig::testbed(7));
    let kernel = Rc::new(OpBlock::int_alu(1_500_000_000));
    let hog = Rc::new(OpBlock::mem_stream(50_000_000, 32 << 20));
    sys.spawn("7z", Priority::Normal, Box::new(BlockLoop(kernel)));
    sys.spawn("hog", Priority::Idle, Box::new(BlockLoop(hog)));
    (sys, SimTime::from_secs(4))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median seconds per call of `f`, over `rounds` spans of `calls`
/// calls each.
fn per_call(
    tr: &mut Tracer,
    name: &str,
    rounds: usize,
    calls: usize,
    mut f: impl FnMut() -> f64,
) -> f64 {
    let mut times = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let id = tr.enter(name, r as u64);
        let mut sink = 0.0;
        for _ in 0..calls {
            sink += f();
        }
        tr.exit(id);
        black_box(sink);
        times.push(tr.seconds(id) / calls as f64);
    }
    median(times)
}

fn probes(out: &Path, request: &Path) -> Result<(), String> {
    let body = std::fs::read_to_string(request).map_err(|e| e.to_string())?;
    let deploy = wire::parse_request(&body)
        .map_err(|e| e.to_string())?
        .spec
        .deploy;
    let mut tr = Tracer::new();
    let mut c = Counters::default();

    let cm = MachineSpec::core2_duo_6600().contention_model();
    let a = OpBlock::mem_stream(1_000_000, 16 << 20);
    let b = OpBlock::mem_stream(500_000, 2 << 20);
    let s = per_call(&mut tr, "machine.slowdown_against", 9, 20_000, || {
        cm.slowdown_against(black_box(&a), &[black_box(&b)])
    });
    c.add("machine.contention_solve_ns", s * 1e9);

    for (name, scene) in [
        (
            "os.fig1_substrate_us",
            fig1_scene as fn() -> (System, SimTime),
        ),
        ("os.fig7_substrate_us", fig7_scene),
    ] {
        let mut times = Vec::new();
        for r in 0..7 {
            let (mut sys, until) = scene();
            let id = tr.enter("os.run_until", r);
            sys.run_until(until);
            tr.exit(id);
            black_box(sys.now());
            times.push(tr.seconds(id));
        }
        c.add(name, median(times) * 1e6);
    }

    let data = corpus::seven_zip_bench(64 * 1024, 1);
    let s = per_call(&mut tr, "workloads.lzma_compress", 7, 4, || {
        let mut ops = OpCounter::new();
        compress(black_box(&data), LzmaConfig::default(), &mut ops).len() as f64
    });
    c.add(
        "workloads.lzma_compress_mb_s",
        data.len() as f64 / s / (1 << 20) as f64,
    );

    let n = 16_384;
    let re0: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let im0 = vec![0.0; n];
    let s = per_call(&mut tr, "workloads.fft", 9, 20, || {
        let (mut re, mut im) = (re0.clone(), im0.clone());
        let mut ops = OpCounter::new();
        fft(&mut re, &mut im, &mut ops);
        re[1]
    });
    c.add("workloads.fft_16k_us", s * 1e6);

    let s = per_call(&mut tr, "grid.archetype.solve_direct", 9, 200, || {
        vgrid::grid::archetype::solve_direct(black_box(&deploy)).vm_factor
    });
    c.add("grid.segment_solve_direct_us", s * 1e6);
    let s = per_call(&mut tr, "grid.archetype.solve", 9, 200, || {
        vgrid::grid::archetype::solve(black_box(&deploy)).vm_factor
    });
    c.add("grid.segment_solve_memo_us", s * 1e6);

    tr.write(out).map_err(|e| e.to_string())?;
    c.write(out).map_err(|e| e.to_string())
}

fn campaigns(out: &Path, trace: bool, requests: &[PathBuf]) -> Result<(), String> {
    let bodies = requests
        .iter()
        .map(std::fs::read_to_string)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut tr = Tracer::for_run(trace);
    let mut c = Counters::default();
    let mut docs = Vec::new();
    let t0 = wall_now();
    for (i, body) in bodies.iter().enumerate() {
        let req = i as u64;
        tr.span("grid.reset_all", req, vgrid::grid::reset_all);
        let id = tr.enter("grid.request", req);
        let (status, doc) = serve_one(&mut tr, &mut c, req, body);
        tr.exit(id);
        c.add_fastforward();
        if status != 200 {
            return Err(format!("{}: {doc}", requests[i].display()));
        }
        docs.push(doc);
    }
    c.add("ops_s", t0.elapsed().as_secs_f64());
    for (i, doc) in docs.iter().enumerate() {
        std::fs::write(out.join(format!("response-{i}.json")), doc).map_err(|e| e.to_string())?;
    }
    tr.write(out).map_err(|e| e.to_string())?;
    c.write(out).map_err(|e| e.to_string())
}

fn replay(out: &Path, bodies: &Path, threads: usize, trace: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(bodies).map_err(|e| e.to_string())?;
    let mut lines = Vec::new();
    for line in text.lines() {
        let (client, body) = line
            .split_once('\t')
            .ok_or("line without a client column")?;
        let client: usize = client.parse().map_err(|_| "bad client column")?;
        lines.push((client, body));
    }
    if threads == 0 {
        return Err("replay needs at least one thread".to_string());
    }
    vgrid::grid::reset_all();
    let mut merged = Tracer::for_run(trace);
    let t0 = wall_now();
    let done: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lines = &lines;
                s.spawn(move || {
                    let mut tr = Tracer::for_run(trace);
                    let mut c = Counters::default();
                    let answers: Vec<_> = lines
                        .iter()
                        .enumerate()
                        .filter(|(_, (client, _))| client % threads == t)
                        .map(|(i, (_, body))| {
                            let id = tr.enter("serve.request", i as u64);
                            let answer = serve_one(&mut tr, &mut c, i as u64, body);
                            tr.exit(id);
                            (i, answer)
                        })
                        .collect();
                    (answers, tr, c)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut counters = Counters::default();
    counters.add("ops_s", t0.elapsed().as_secs_f64());
    counters.add_fastforward();
    let mut answers: Vec<Option<(u16, String)>> = vec![None; lines.len()];
    for (done, tr, c) in done {
        for (i, answer) in done {
            answers[i] = Some(answer);
        }
        for (k, v) in c.0 {
            counters.add(&k, v);
        }
        merged.absorb(tr);
    }
    merged.write(out).map_err(|e| e.to_string())?;
    counters.write(out).map_err(|e| e.to_string())?;
    let mut doc = Vec::new();
    for answer in answers {
        let (status, body) = answer.expect("every line answered");
        doc.extend_from_slice(format!("{status} {}\n", body.len()).as_bytes());
        doc.extend_from_slice(body.as_bytes());
    }
    std::fs::write(out.join("responses.txt"), doc).map_err(|e| e.to_string())
}

fn flag(arg: &str) -> Result<bool, String> {
    match arg {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("expected a trace flag 0 or 1, got {arg:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, out, rest @ ..] => {
            let out = Path::new(out);
            match (cmd.as_str(), rest) {
                ("paper-suite", [trace]) => flag(trace).and_then(|t| paper_suite(out, t)),
                ("paper-ids", []) => paper_ids(out),
                ("paper-observe", []) => paper_observe(out),
                ("probes", [request]) => probes(out, Path::new(request)),
                ("campaigns", [trace, requests @ ..]) if !requests.is_empty() => {
                    let paths: Vec<PathBuf> = requests.iter().map(PathBuf::from).collect();
                    flag(trace).and_then(|t| campaigns(out, t, &paths))
                }
                ("replay", [bodies, threads, trace]) => match threads.parse() {
                    Ok(n) => flag(trace).and_then(|t| replay(out, Path::new(bodies), n, t)),
                    Err(_) => Err(format!("bad thread count {threads:?}")),
                },
                _ => Err(format!("unknown invocation: {}", args.join(" "))),
            }
        }
        _ => Err("usage: perfbench-tracer <subcommand> <out-dir> [args]".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}
