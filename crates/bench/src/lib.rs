//! # vgrid-bench
//!
//! Criterion benchmarks of the simulator itself — how long the testbed
//! takes, which is the meaningful wall-clock metric for a simulator (the
//! figures' own values are simulated time and deterministic). Every
//! target here is run by `scripts/bench.sh`:
//!
//! * `substrate` — the hot layers (event loop, LZMA kernel, contention
//!   solver);
//! * `grid_scale` — cold campaigns over growing volunteer pools;
//! * `fastforward` — the grid-churn sweep with the fast-forward caches
//!   off and on;
//! * `grid_tradeoff` — the grid-tradeoff figure via [`bench_figure`],
//!   plus the pinned migration-policy rows.
//!
//! Per-figure wall times live in `perfbench` (`core.experiment_s.*`),
//! which times every registry id in a cold process; the reproduced
//! figures themselves come from `vgrid run` / `vgrid-report`.

#![forbid(unsafe_code)]

use criterion::Criterion;
use vgrid_core::FigureResult;

/// Print a figure once, then benchmark regenerating it.
pub fn bench_figure<F>(c: &mut Criterion, name: &str, f: F)
where
    F: Fn() -> FigureResult,
{
    let fig = f();
    println!("\n{}", fig.render());
    let mut group = c.benchmark_group("reproduce");
    group.sample_size(10);
    group.bench_function(name, |b| b.iter(&f));
    group.finish();
}
