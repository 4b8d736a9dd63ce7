//! Quickstart: simulate one benchmark natively and inside a VM.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's testbed (Core 2 Duo 6600, Windows-XP-like host),
//! runs the 7z LZMA kernel natively and inside a VMware-Player-profile
//! guest, and prints the slowdown — the single number behind the paper's
//! Figure 1, reproduced end to end in a few seconds.

use vgrid::core::{Engine, Environment, Fidelity, KernelSpec, TrialSpec};
use vgrid::vmm::VmmProfile;
use vgrid::workloads::sevenz::{SevenZConfig, SevenZKernel};

fn main() {
    // 1. Characterize the real compressor: this actually compresses and
    //    decompresses a synthetic corpus with the crate's LZMA
    //    implementation, counting abstract operations.
    let cfg = SevenZConfig {
        corpus_len: 64 * 1024,
        depth: 16,
        ..Default::default()
    };
    let kernel = SevenZKernel::characterize(&cfg);
    println!(
        "7z kernel: {} ops/iteration, corpus {} B -> {} B compressed",
        kernel.ops_per_iter, cfg.corpus_len, kernel.packed_len
    );

    // 2. Time it on the simulated native machine: a one-shot engine
    //    trial whose wall-time metric is the loop's span.
    let iters = 50;
    let engine = Engine::new();
    let time_loop = |env: Environment| {
        let op_loop = KernelSpec::OpLoop {
            block: kernel.block.clone(),
            iters,
        };
        engine
            .run_trial(&TrialSpec::new("7z", env, op_loop, Fidelity::Fast).seed(1))
            .value()
    };
    let native = time_loop(Environment::Native);
    println!("native:        {native:.3} s for {iters} iterations");

    // 3. Time it inside each monitor's guest.
    for profile in VmmProfile::all() {
        let name = profile.name;
        let guest = time_loop(Environment::Guest {
            profile,
            vnic: None,
        });
        println!("{name:<14} {guest:.3} s  ({:.2}x slower)", guest / native);
    }

    println!();
    println!("Paper (Figure 1): VmPlayer ~1.15x, VirtualBox ~1.20x, VirtualPC ~1.36x, QEMU >2x");
}
