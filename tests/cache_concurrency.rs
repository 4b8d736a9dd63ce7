//! 16-thread stress over the grid fast-forward caches: the runtime
//! witness for what `simlint`'s static shared-state pass proves
//! (DESIGN.md §14). Sixteen threads hammer the process-wide
//! probe-dilation and trajectory caches with the same campaign list a
//! single-threaded run executes — eight in each scheduler execution
//! mode, at the same time — and every thread's rendered run manifest
//! must stay byte-identical to the sequential reference of its mode.
//!
//! Hit/miss *counters* are deliberately excluded from the manifests
//! built here: under concurrent cold misses two threads may race to
//! solve the same key, so the counts are not deterministic. The
//! *results* are — that is the contract this test pins.
//!
//! Everything lives in one `#[test]` because the cache reset hook is
//! process-global; parallel test functions would race on it.

use vgrid::grid::{
    self, CampaignSpec, DeployConfig, PoolConfig, ProjectConfig, RunOptions, SchedulerMode,
};
use vgrid::simcore::{SimDuration, SimTime};
use vgrid::simobs::manifest::config_digest;
use vgrid::simobs::{fnv1a64, MetricsRegistry, RunManifest};
use vgrid::vmm::VmmProfile;

const THREADS: usize = 16;

/// The campaign list every participant runs, covering both cache
/// layers: native and two VM modes hit the dilation cache,
/// and the same VM configuration at two horizons exercises the
/// trajectory cache's prefix-resume path.
fn spec_list() -> Vec<CampaignSpec> {
    let project = ProjectConfig {
        workunits: 8,
        wu_ref_secs: 600.0,
        ..Default::default()
    };
    let pool = PoolConfig {
        volunteers: 12,
        ..Default::default()
    };
    let week = SimTime::from_secs(7 * 24 * 3600);
    let base = |label: &str| {
        CampaignSpec::new(label)
            .project(project.clone())
            .pool(pool.clone())
            .horizon(week)
    };
    let mut ckpt_vm = DeployConfig::vm(VmmProfile::qemu(), 300 << 20);
    ckpt_vm.checkpoint_interval = SimDuration::from_secs(1800);
    vec![
        base("native"),
        base("qemu-ckpt").deploy(ckpt_vm.clone()),
        // Same configuration, longer horizon: resumes from the stored
        // prefix trajectory instead of t=0.
        base("qemu-ckpt-long")
            .deploy(ckpt_vm)
            .horizon(SimTime::from_secs(14 * 24 * 3600)),
        base("vmplayer").deploy(DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20)),
    ]
}

/// Run the list on the calling thread and render a run manifest whose
/// metrics are per-campaign FNV digests of the full result (every
/// float of every repetition participates via the `Debug` rendering).
fn run_and_render(scheduler: SchedulerMode) -> String {
    let options = RunOptions::default().scheduler(scheduler);
    let mut metrics = MetricsRegistry::new();
    let mut labels = Vec::new();
    for spec in spec_list() {
        let label = spec.label.clone();
        let result = spec
            .build()
            .expect("stress spec is valid")
            .run_with(&options);
        metrics.counter_add(
            &format!("campaign.{label}.result_digest"),
            fnv1a64(format!("{result:?}").as_bytes()),
        );
        labels.push(label);
    }
    RunManifest {
        experiment: "cache-concurrency".to_string(),
        fidelity: "fast".to_string(),
        scheduler_mode: format!("{scheduler:?}"),
        seed: 0,
        config_digest: config_digest(&labels),
        trials: labels,
        bench_links: Vec::new(),
        metrics,
    }
    .render_json()
}

#[test]
fn sixteen_threads_render_manifests_byte_identical_to_sequential() {
    const MODES: [SchedulerMode; 2] =
        [SchedulerMode::Coalesced, SchedulerMode::PerQuantumReference];

    // Sequential references: cold caches, one thread, one per mode.
    let reference_docs: Vec<String> = MODES
        .iter()
        .map(|&mode| {
            grid::reset_all();
            let doc = run_and_render(mode);
            assert!(!doc.is_empty());
            doc
        })
        .collect();

    // Stress: cold caches again, sixteen threads — half in each
    // scheduler mode — racing the same list against the shared caches.
    grid::reset_all();
    let docs: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| scope.spawn(move || run_and_render(MODES[i % 2])))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress thread"))
            .collect()
    });
    for (i, doc) in docs.iter().enumerate() {
        assert_eq!(
            *doc,
            reference_docs[i % 2],
            "thread {i} manifest diverged from the sequential run ({:?})",
            MODES[i % 2]
        );
    }
    grid::reset_all();
}
