//! Property-based tests of campaign-level invariants.

use proptest::prelude::*;
use vgrid_grid::{CampaignSpec, ChurnConfig, DeployConfig, PoolConfig, ProjectConfig, RunOptions};
use vgrid_simcore::SimTime;
use vgrid_vmm::VmmProfile;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary seeds and pool shapes the accounting invariants
    /// hold: validated <= workunits, lost <= spent, efficiency bounded,
    /// and the run is reproducible.
    #[test]
    fn campaign_accounting_invariants(
        seed in any::<u64>(),
        volunteers in 5u32..40,
        uptime_h in 1u32..24,
        use_vm in any::<bool>(),
        migrate in any::<bool>(),
        churn_level in 0u32..4,
    ) {
        let project = ProjectConfig {
            workunits: 25,
            wu_ref_secs: 1800.0,
            ..Default::default()
        };
        let pool = PoolConfig {
            volunteers,
            mean_uptime_secs: uptime_h as f64 * 3600.0,
            mean_downtime_secs: 4.0 * 3600.0,
            ram_range: (1 << 30, 2 << 30),
            ..Default::default()
        };
        let deploy = if use_vm {
            let d = DeployConfig::vm(VmmProfile::virtualbox(), 300 << 20);
            if migrate { d.with_migration() } else { d }
        } else {
            DeployConfig::native()
        };
        let spec = CampaignSpec::new("props")
            .project(project.clone())
            .pool(pool)
            .deploy(deploy)
            .churn(ChurnConfig::intensity(churn_level as f64))
            .seed(seed)
            .horizon(SimTime::from_secs(10 * 24 * 3600));
        let a = spec.clone().build().unwrap().run_with(&RunOptions::default());
        let a = &a.reports()[0];
        prop_assert!(a.validated_wus <= project.workunits);
        prop_assert!(a.cpu_secs_lost <= a.cpu_secs_spent + 1e-6);
        prop_assert!(a.efficiency >= 0.0);
        prop_assert!(a.efficiency <= 2.5, "efficiency {} (bounded by top speed)", a.efficiency);
        prop_assert!(a.bad_results <= a.results_returned);
        prop_assert!(a.goodput >= 0.0);
        prop_assert!(a.wasted_cpu_secs >= -1e-6);
        prop_assert!(a.wasted_cpu_secs <= a.cpu_secs_spent + 1e-6);
        prop_assert!(a.makespan_inflation >= 0.0);
        if !use_vm {
            prop_assert_eq!(a.hosts_excluded_ram, 0);
            prop_assert_eq!(a.image_transfer_secs, 0.0);
        }
        if !migrate {
            prop_assert_eq!(a.migrations, 0);
        }
        if churn_level == 0 {
            prop_assert_eq!(a.owner_preemptions, 0);
            prop_assert_eq!(a.vm_kills, 0);
        }
        // Determinism: the fault schedule is a pure function of
        // (config, seed), so a rebuilt campaign replays bit-identically.
        let b = spec.build().unwrap().run_with(&RunOptions::default());
        let b = &b.reports()[0];
        prop_assert_eq!(a, b);
    }

    /// Repetition fan-out is an implementation detail: for arbitrary
    /// churn configurations the parallel runner folds the same
    /// per-repetition reports, in the same order, as the sequential one.
    #[test]
    fn parallel_repetitions_match_sequential(
        seed in any::<u64>(),
        volunteers in 5u32..25,
        shape_tenths in 5u32..15,
        owner_arrival_h in 1u32..12,
        kill_h in 6u32..72,
        use_vm in any::<bool>(),
    ) {
        let churn = ChurnConfig {
            availability_shape: shape_tenths as f64 / 10.0,
            uptime_factor: 0.6,
            owner_arrival_mean_secs: owner_arrival_h as f64 * 3600.0,
            owner_session_mean_secs: 1800.0,
            preempt_kill_prob: 0.2,
            vm_kill_mean_secs: kill_h as f64 * 3600.0,
        };
        let deploy = if use_vm {
            DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20)
        } else {
            DeployConfig::native()
        };
        let spec = CampaignSpec::new("par-vs-seq")
            .project(ProjectConfig { workunits: 15, wu_ref_secs: 1800.0, ..Default::default() })
            .pool(PoolConfig {
                volunteers,
                ram_range: (1 << 30, 2 << 30),
                ..Default::default()
            })
            .deploy(deploy)
            .churn(churn)
            .seed(seed)
            .repetitions(3)
            .horizon(SimTime::from_secs(5 * 24 * 3600));
        let par = spec.clone().build().unwrap().run_with(&RunOptions::default());
        let seq = spec.build().unwrap().run_seq_with(&RunOptions::default());
        prop_assert_eq!(par.reports(), seq.reports());
        for name in par.metric_names() {
            prop_assert_eq!(
                par.metric(name).mean.to_bits(),
                seq.metric(name).mean.to_bits(),
                "metric {} diverged between parallel and sequential",
                name
            );
        }
    }
}
