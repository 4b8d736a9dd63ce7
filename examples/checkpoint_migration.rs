//! VM checkpointing: the fault-tolerance/migration feature the paper's
//! introduction highlights ("saving the state of the guest OS to
//! persistent storage ... allows simultaneously for fault tolerance and
//! migration").
//!
//! ```sh
//! cargo run --release --example checkpoint_migration
//! ```
//!
//! Runs an Einstein@home VM, checkpoints its 300 MB of committed RAM to
//! host disk mid-computation, and reports what the checkpoint costs in
//! wall time and lost guest progress; then sweeps the checkpoint interval
//! in a churning volunteer campaign to show the fault-tolerance payoff.

use vgrid::grid::{CampaignSpec, ChurnConfig, DeployConfig, PoolConfig, ProjectConfig, RunOptions};
use vgrid::os::{Priority, System, SystemConfig};
use vgrid::simcore::{SimDuration, SimTime};
use vgrid::vmm::{GuestConfig, GuestVm, Vm, VmConfig, VmmProfile};
use vgrid::workloads::einstein::{EinsteinBody, EinsteinKernel};

fn main() {
    // --- Part 1: one checkpoint, measured precisely. ---
    let mut sys = System::new(SystemConfig::testbed(7));
    let kernel = EinsteinKernel {
        fft_len: 4096,
        templates: 4,
        seed: 1,
    };
    let (body, progress) = EinsteinBody::new(&kernel, None);
    let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::vmplayer()), sys.machine());
    guest.spawn("einstein", Box::new(body));
    let vm = Vm::install(&mut sys, VmConfig::new("worker", Priority::Normal), guest);

    sys.run_until(SimTime::from_secs(5));
    let chunks_before = progress.borrow().chunks_done;
    println!("t=5s: guest completed {chunks_before} work chunks; requesting checkpoint...");

    vm.request_checkpoint("/ckpt/worker.sav");
    let t_req = sys.now();
    while vm.checkpoint_done_at().is_none() {
        let next = sys.now() + SimDuration::from_millis(100);
        sys.run_until(next);
    }
    let done = vm.checkpoint_done_at().expect("finished");
    println!(
        "checkpoint of {} MB took {:.2} s (guest paused throughout)",
        vm.committed_memory >> 20,
        done.since(t_req).as_secs_f64()
    );
    println!(
        "checkpoint file on host: {} bytes at /ckpt/worker.sav",
        sys.fs.size_of("/ckpt/worker.sav").unwrap()
    );

    sys.run_until(done + SimDuration::from_secs(5));
    let chunks_after = progress.borrow().chunks_done;
    println!(
        "guest resumed: {} more chunks in the 5 s after the checkpoint\n",
        chunks_after - chunks_before
    );

    // --- Part 2: checkpoint-interval sweep under volunteer churn. ---
    println!("checkpoint interval vs work lost to churn (VMwarePlayer guests, churny pool):");
    let project = ProjectConfig {
        workunits: 10_000,
        wu_ref_secs: 2.0 * 3600.0,
        ..Default::default()
    };
    let pool = PoolConfig {
        volunteers: 60,
        mean_uptime_secs: 2.0 * 3600.0,
        mean_downtime_secs: 4.0 * 3600.0,
        ram_range: (1 << 30, 2 << 30),
        ..Default::default()
    };
    let horizon = SimTime::from_secs(7 * 24 * 3600);
    for interval_mins in [5u64, 15, 60, 240] {
        let mut deploy = DeployConfig::vm(VmmProfile::vmplayer(), 700 << 20);
        deploy.checkpoint_interval = SimDuration::from_secs(interval_mins * 60);
        let result = CampaignSpec::new("checkpoint sweep")
            .project(project.clone())
            .pool(pool.clone())
            .deploy(deploy)
            .churn(ChurnConfig::intensity(1.0))
            .seed(9)
            .horizon(horizon)
            .build()
            .expect("valid campaign")
            .run_with(&RunOptions::default());
        let r = &result.reports()[0];
        println!(
            "  every {:>3} min: validated {:>4} WUs, lost {:>6.1} h of computation to churn \
             ({} owner preemptions, {} sandbox kills)",
            interval_mins,
            r.validated_wus,
            r.cpu_secs_lost / 3600.0,
            r.owner_preemptions,
            r.vm_kills
        );
    }
    println!("\n(frequent checkpoints waste bandwidth on 300 MB state writes; rare ones waste computation)");
}
