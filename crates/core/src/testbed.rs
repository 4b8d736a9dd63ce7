//! Shared experiment machinery: fidelity levels, the kernel-loop body,
//! the testbed host and the background Einstein VM. Timing a kernel loop
//! natively or in a guest is an engine trial
//! ([`crate::engine::KernelSpec::OpLoop`]).

use std::cell::RefCell;
use std::rc::Rc;
use vgrid_machine::ops::OpBlock;
use vgrid_os::{Action, Priority, System, SystemConfig, ThreadBody, ThreadCtx};
use vgrid_simcore::SimTime;
use vgrid_vmm::{GuestConfig, GuestVm, Vm, VmConfig, VmHandle, VmmProfile, VnicMode};

/// How faithfully to reproduce the paper's configuration.
///
/// `Fast` shrinks corpora/iterations/repetitions so the whole suite runs
/// in seconds (used by unit/integration tests); `Paper` uses the paper's
/// sizes and 50 repetitions where randomness matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Scaled-down, seconds-per-figure.
    Fast,
    /// Paper-faithful sizes.
    Paper,
}

impl Fidelity {
    /// Pick between a fast and a paper-faithful value.
    pub fn pick<T>(self, fast: T, paper: T) -> T {
        match self {
            Fidelity::Fast => fast,
            Fidelity::Paper => paper,
        }
    }

    /// Repetition count for repeated measurements (paper: >= 50).
    pub fn repetitions(self) -> u32 {
        self.pick(3, 50)
    }
}

/// Shared cell receiving a loop's (start, end) wall-time span.
pub type SpanCell = Rc<RefCell<Option<(SimTime, SimTime)>>>;

/// ThreadBody that executes `block` `iters` times, records the wall-time
/// span into a shared cell, then exits.
#[derive(Debug)]
pub struct KernelLoop {
    /// Shared handle to the block; re-issued (not deep-copied) per
    /// iteration.
    block: Rc<OpBlock>,
    iters: u64,
    done: u64,
    started: Option<SimTime>,
    /// Receives (start, end) when finished.
    pub span: SpanCell,
}

impl KernelLoop {
    /// Build the body and its result cell.
    pub fn new(block: OpBlock, iters: u64) -> (Self, SpanCell) {
        let span = Rc::new(RefCell::new(None));
        (
            KernelLoop {
                block: Rc::new(block),
                iters: iters.max(1),
                done: 0,
                started: None,
                span: span.clone(),
            },
            span,
        )
    }
}

impl ThreadBody for KernelLoop {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        match self.started {
            None => {
                self.started = Some(ctx.now);
                Action::Compute(self.block.clone())
            }
            Some(t0) => {
                self.done += 1;
                if self.done >= self.iters {
                    *self.span.borrow_mut() = Some((t0, ctx.now));
                    Action::Exit
                } else {
                    Action::Compute(self.block.clone())
                }
            }
        }
    }
}

/// Build the standard testbed host system.
pub fn host_system(seed: u64) -> System {
    System::new(SystemConfig::testbed(seed))
}

/// Install a VM running the Einstein@home surrogate at 100 % virtual CPU
/// (the paper's host-impact workload), at the given host priority.
pub fn install_einstein_vm(
    sys: &mut System,
    profile: &VmmProfile,
    priority: Priority,
    fidelity: Fidelity,
) -> VmHandle {
    use vgrid_workloads::einstein::{EinsteinBody, EinsteinKernel};
    let kernel = EinsteinKernel {
        fft_len: fidelity.pick(4_096, 262_144),
        templates: fidelity.pick(4, 16),
        seed: 0xe5e5,
    };
    let (body, _progress) = EinsteinBody::new(&kernel, None);
    let mut guest = GuestVm::new(GuestConfig::new(profile.clone()), sys.machine());
    guest.spawn("einstein", Box::new(body));
    Vm::install(
        sys,
        VmConfig::new(format!("vm-{}", profile.name), priority),
        guest,
    )
}

/// Convenience: all four profiles plus, for network experiments, the
/// VmPlayer-bridged variant.
pub fn paper_profiles() -> Vec<VmmProfile> {
    VmmProfile::all()
}

/// Network environments of Figure 4: (label, profile, mode).
pub fn fig4_environments() -> Vec<(String, VmmProfile, VnicMode)> {
    vec![
        (
            "VmPlayer-bridged".to_string(),
            VmmProfile::vmplayer(),
            VnicMode::Bridged,
        ),
        (
            "VmPlayer-NAT".to_string(),
            VmmProfile::vmplayer(),
            VnicMode::Nat,
        ),
        ("QEMU".to_string(), VmmProfile::qemu(), VnicMode::Nat),
        (
            "VirtualBox".to_string(),
            VmmProfile::virtualbox(),
            VnicMode::Nat,
        ),
        (
            "VirtualPC".to_string(),
            VmmProfile::virtualpc(),
            VnicMode::Nat,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Environment, KernelSpec, TrialSpec};

    #[test]
    fn fidelity_pick() {
        assert_eq!(Fidelity::Fast.pick(1, 2), 1);
        assert_eq!(Fidelity::Paper.pick(1, 2), 2);
        assert_eq!(Fidelity::Paper.repetitions(), 50);
    }

    /// Wall seconds of `block` x `iters` in `env`, as a one-shot engine
    /// trial with seed 1.
    fn loop_secs(env: Environment, block: OpBlock, iters: u64) -> f64 {
        let kernel = KernelSpec::OpLoop { block, iters };
        Engine::new()
            .run_trial(&TrialSpec::new("loop", env, kernel, Fidelity::Fast).seed(1))
            .value()
    }

    #[test]
    fn native_loop_timing_matches_block_estimate() {
        // 24M int ops = 4 ms at 6e9 ops/s; 10 iters = 40 ms.
        let wall = loop_secs(Environment::Native, OpBlock::int_alu(24_000_000), 10);
        assert!((wall - 0.040).abs() < 0.002, "wall {wall}");
    }

    #[test]
    fn guest_loop_is_dilated_native_loop() {
        let block = OpBlock::int_alu(240_000_000); // 40 ms native
        let native = loop_secs(Environment::Native, block.clone(), 5);
        let guest = loop_secs(
            Environment::Guest {
                profile: VmmProfile::vmplayer(),
                vnic: None,
            },
            block,
            5,
        );
        let rel = guest / native;
        assert!((1.10..1.25).contains(&rel), "rel {rel}");
    }

    #[test]
    fn einstein_vm_pins_its_vcpu() {
        let mut sys = host_system(3);
        let vm = install_einstein_vm(
            &mut sys,
            &VmmProfile::virtualbox(),
            Priority::Normal,
            Fidelity::Fast,
        );
        sys.run_until(SimTime::from_secs(2));
        let cpu = sys.thread_stats(vm.vcpu).cpu_time.as_secs_f64();
        assert!(cpu > 1.8, "vcpu cpu {cpu}");
    }

    #[test]
    fn fig4_env_list_matches_paper() {
        let envs = fig4_environments();
        assert_eq!(envs.len(), 5);
        assert_eq!(envs[0].0, "VmPlayer-bridged");
        assert_eq!(envs[1].0, "VmPlayer-NAT");
    }
}
