//! Offline, in-tree benchmark harness exposing the subset of the
//! `criterion` crate's surface the `vgrid-bench` targets use.
//!
//! The container building this repository has no registry access, so the
//! real `criterion` cannot be fetched. This stand-in keeps every
//! `[[bench]]` target compiling and producing useful wall-clock numbers:
//! `benchmark_group` / `sample_size` / `throughput` / `bench_function` /
//! `Bencher::iter` plus the `criterion_group!` / `criterion_main!`
//! macros. Reporting is a simple mean/median/min/max over the sampled
//! iterations — no statistical regression analysis or HTML output.
//!
//! Two environment variables extend the surface for scripted use
//! (`scripts/bench.sh`):
//!
//! * `VGRID_BENCH_JSON=<path>` — append one JSON object per benchmark
//!   (`{"type":"bench","group":…,"id":…,"mean_ns":…,"median_ns":…,
//!   "min_ns":…,"max_ns":…,"n":…}`) and per reported metric
//!   (`{"type":"metric","group":…,"id":…,"metric":…,"value":…}`);
//! * `VGRID_BENCH_QUICK=1` — clamp every group's sample size to 3 for
//!   smoke runs.

#![forbid(unsafe_code)]

use std::io::Write;
use std::time::{Duration, Instant};
use vgrid_simobs::json;

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// Top-level harness handle.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
            sample_size: 100,
            throughput: None,
        }
    }
}

/// A named collection of benchmarks sharing sample settings.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark (minimum 1; clamped to 3
    /// when `VGRID_BENCH_QUICK=1`).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        if quick_mode() {
            self.sample_size = self.sample_size.min(3);
        }
        self
    }

    /// Annotate subsequent benchmarks with a per-iteration throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Time one benchmark function.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            samples: Vec::with_capacity(self.sample_size),
        };
        // One warm-up pass, then the timed samples.
        f(&mut bencher);
        bencher.samples.clear();
        for _ in 0..self.sample_size {
            f(&mut bencher);
        }
        report(&self.name, id, &bencher.samples, self.throughput);
        self
    }

    /// Finish the group (no-op; kept for API compatibility).
    pub fn finish(&mut self) {}
}

/// Per-benchmark timing collector.
pub struct Bencher {
    samples: Vec<Duration>,
}

impl Bencher {
    /// Time one iteration of `f`.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        let start = Instant::now();
        let out = f();
        self.samples.push(start.elapsed());
        std::hint::black_box(out);
    }
}

/// Report a named scalar alongside a group's timings — deterministic
/// simulation outputs (event counts, ratios) that regression checks can
/// gate on without timing noise. Mirrored to stdout and, when
/// `VGRID_BENCH_JSON` is set, to the JSON-lines file.
pub fn report_metric(group: &str, id: &str, metric: &str, value: f64) {
    println!("{group}/{id}: {metric} = {value}");
    write_json_line(&format!(
        "{{\"type\":\"metric\",\"group\":{},\"id\":{},\"metric\":{},\"value\":{}}}",
        json::string(group),
        json::string(id),
        json::string(metric),
        value,
    ));
}

fn quick_mode() -> bool {
    std::env::var("VGRID_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn write_json_line(line: &str) {
    let Ok(path) = std::env::var("VGRID_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(f, "{line}");
    }
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn report(group: &str, id: &str, samples: &[Duration], throughput: Option<Throughput>) {
    if samples.is_empty() {
        println!("{group}/{id}: no samples");
        return;
    }
    let secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    let mean = secs.iter().sum::<f64>() / secs.len() as f64;
    let mut sorted = secs.clone();
    sorted.sort_by(f64::total_cmp);
    let med = median(&sorted);
    let min = sorted[0];
    let max = sorted[sorted.len() - 1];
    write_json_line(&format!(
        "{{\"type\":\"bench\",\"group\":{},\"id\":{},\"mean_ns\":{},\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\"n\":{}}}",
        json::string(group),
        json::string(id),
        mean * 1e9,
        med * 1e9,
        min * 1e9,
        max * 1e9,
        secs.len(),
    ));
    let rate = match throughput {
        Some(Throughput::Bytes(b)) if mean > 0.0 => {
            format!("  {:.1} MiB/s", b as f64 / mean / (1 << 20) as f64)
        }
        Some(Throughput::Elements(n)) if mean > 0.0 => {
            format!("  {:.0} elem/s", n as f64 / mean)
        }
        _ => String::new(),
    };
    println!(
        "{group}/{id}: mean {} median {} (min {}, max {}, n={}){rate}",
        fmt_time(mean),
        fmt_time(med),
        fmt_time(min),
        fmt_time(max),
        secs.len(),
    );
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Collect benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ( $group:ident, $( $target:path ),+ $(,)? ) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Entry point invoking one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ( $( $group:path ),+ $(,)? ) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_sampled_iterations() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("t");
        let mut calls = 0u32;
        group.sample_size(5).bench_function("count", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        group.finish();
        // 1 warm-up + 5 samples.
        assert_eq!(calls, 6);
    }

    #[test]
    fn median_splits_samples() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 9.0]), 2.5);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json::string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json::string("plain"), "\"plain\"");
        assert_eq!(json::string("a\tb"), "\"a\\tb\"");
        assert_eq!(json::string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn macros_compose() {
        fn target(c: &mut Criterion) {
            c.benchmark_group("m")
                .sample_size(2)
                .throughput(Throughput::Bytes(1024))
                .bench_function("noop", |b| b.iter(|| 1 + 1));
        }
        criterion_group!(benches, target);
        benches();
    }
}
