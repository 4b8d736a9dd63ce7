//! Extension: volunteer-project throughput.
//!
//! Prints the reproduced figure, then benchmarks the simulator's
//! wall-clock cost of regenerating it — and records the deterministic
//! outputs of the migration-policy sweep (high churn, checkpoint-only
//! vs full policy) so `bench.sh --check` Gate 5 can pin them exactly.

use criterion::{criterion_group, criterion_main, report_metric, Criterion};
use vgrid_bench::bench_figure;
use vgrid_core::{experiments, Fidelity};
use vgrid_grid::{
    CampaignSpec, ChurnConfig, DeployConfig, GridReport, MigrationPolicy, PoolConfig,
    ProjectConfig, RunOptions,
};
use vgrid_simcore::{SimDuration, SimTime};
use vgrid_vmm::VmmProfile;

/// The Gate 5 fixture: a finishing workload at the sweep's highest
/// churn level with a tight reissue deadline. Fixed parameters (never
/// fidelity-scaled) so quick and `--full` runs pin identical rows.
fn migration_campaign(policy: MigrationPolicy) -> GridReport {
    CampaignSpec::new("bench-migration")
        .project(ProjectConfig {
            workunits: 24,
            wu_ref_secs: 3.0 * 3600.0,
            deadline: SimDuration::from_secs(24 * 3600),
            ..Default::default()
        })
        .pool(PoolConfig {
            volunteers: 30,
            ..Default::default()
        })
        .deploy(DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20).with_policy(policy))
        .churn(ChurnConfig::intensity(3.0))
        .seed(0x7e5c)
        .horizon(SimTime::from_secs(10 * 24 * 3600))
        .build()
        .expect("valid migration scenario")
        .run_with(&RunOptions::default())
        .reports()[0]
        .clone()
}

/// FNV-1a over the report's debug rendering, folded to 53 bits so the
/// digest survives the f64 metric channel exactly (same scheme as the
/// grid_scale rows).
fn report_digest(report: &GridReport) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{report:?}").bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h >> 11) as f64
}

fn record_migration() {
    let off = migration_campaign(MigrationPolicy::off());
    let full = migration_campaign(MigrationPolicy::full());
    assert!(
        full.rescue_wins > 0,
        "migration policy never paid off at high churn: {full:?}"
    );
    assert!(
        full.makespan_inflation < off.makespan_inflation,
        "policy did not reduce inflation: full {} vs checkpoint-only {}",
        full.makespan_inflation,
        off.makespan_inflation
    );
    let base = "churn3_checkpoint_only";
    report_metric(
        "grid_migration",
        base,
        "makespan_inflation",
        off.makespan_inflation,
    );
    report_metric("grid_migration", base, "report_digest", report_digest(&off));
    let pol = "churn3_policy_full";
    report_metric("grid_migration", pol, "migrations", full.migrations as f64);
    report_metric(
        "grid_migration",
        pol,
        "evacuations",
        full.evacuations as f64,
    );
    report_metric(
        "grid_migration",
        pol,
        "rescue_wins",
        full.rescue_wins as f64,
    );
    report_metric("grid_migration", pol, "transfer_secs", full.transfer_secs);
    report_metric(
        "grid_migration",
        pol,
        "makespan_inflation",
        full.makespan_inflation,
    );
    report_metric("grid_migration", pol, "report_digest", report_digest(&full));
}

fn bench(c: &mut Criterion) {
    bench_figure(c, "grid_tradeoff", || {
        experiments::gridx::run(Fidelity::Fast)
    });
    record_migration();
}

criterion_group!(benches, bench);
criterion_main!(benches);
