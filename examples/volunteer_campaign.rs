//! Deployment-scale extension: what VM sandboxing costs a whole
//! volunteer project.
//!
//! ```sh
//! cargo run --release --example volunteer_campaign
//! ```
//!
//! Simulates a BOINC-style campaign over a churning volunteer pool,
//! natively and under each monitor (paying the calibrated CPU dilation,
//! the 1.4 GB initialization-workunit image download, 300 MB VM
//! checkpoints and the committed-memory host exclusion), then shows the
//! guest-clock drift experiment that motivates the paper's UDP
//! time-server methodology.

use vgrid::core::{experiments, Fidelity};
use vgrid::grid::{CampaignSpec, DeployConfig, PoolConfig, ProjectConfig, RunOptions};
use vgrid::simcore::SimTime;
use vgrid::vmm::VmmProfile;

fn main() {
    let fidelity = if std::env::args().any(|a| a == "--paper") {
        Fidelity::Paper
    } else {
        Fidelity::Fast
    };
    println!("fidelity: {fidelity:?}\n");

    // The harness experiment (throughput at a fixed horizon).
    println!("{}", experiments::gridx::run(fidelity).render());

    // A deeper dive on one deployment: full campaign accounting.
    let project = ProjectConfig {
        workunits: 5_000,
        wu_ref_secs: 3600.0,
        ..Default::default()
    };
    let pool = PoolConfig::default();
    let horizon = SimTime::from_secs(14 * 24 * 3600);
    println!("14-day campaign detail ({} volunteers):", pool.volunteers);
    for deploy in [
        DeployConfig::native(),
        DeployConfig::vm(VmmProfile::vmplayer(), 1_400 << 20),
        DeployConfig::vm(VmmProfile::qemu(), 1_400 << 20),
    ] {
        let result = CampaignSpec::new("campaign detail")
            .project(project.clone())
            .pool(pool.clone())
            .deploy(deploy)
            .seed(42)
            .horizon(horizon)
            .build()
            .expect("valid campaign")
            .run_with(&RunOptions::default());
        let r = &result.reports()[0];
        println!(
            "  {:<16} validated {:>5}  cpu {:>9.0}s (lost {:>7.0}s)  images {:>6.0}s  excluded {}",
            r.mode,
            r.validated_wus,
            r.cpu_secs_spent,
            r.cpu_secs_lost,
            r.image_transfer_secs,
            r.hosts_excluded_ram
        );
    }
    println!();

    // Guest-clock drift: why benchmarks inside VMs need external timing.
    println!("{}", experiments::timing::run(fidelity).render());
}
