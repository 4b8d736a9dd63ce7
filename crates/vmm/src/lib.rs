//! # vgrid-vmm
//!
//! System-level virtual machine monitors for the `vgrid` testbed — the
//! four products the paper evaluates (VMware Player, QEMU+kqemu,
//! VirtualBox, VirtualPC), modeled mechanistically:
//!
//! * [`profiles::VmmProfile`] — calibrated per-product cost parameters
//!   (instruction dilation, device-exit costs, vNIC per-frame costs,
//!   host service duty, committed memory);
//! * [`guest::GuestVm`] — a full nested guest kernel (scheduler, page
//!   cache, network stack, distortable clock) driven by the host through
//!   a step/complete protocol;
//! * [`body`] — the host-side threads of a running VM: one thread per
//!   vCPU executing dilated guest work and escaping device operations to
//!   host file/network I/O, and the service thread burning the monitor's
//!   fixed emulation duty; plus VM lifecycle (install, checkpoint).
//!
//! ```
//! use vgrid_machine::ops::OpBlock;
//! use vgrid_os::{Action, Priority, System, SystemConfig, ThreadBody, ThreadCtx};
//! use vgrid_simcore::SimTime;
//! use vgrid_vmm::{GuestConfig, GuestVm, Vm, VmConfig, VmmProfile};
//!
//! #[derive(Debug)]
//! struct Burn(u32);
//! impl ThreadBody for Burn {
//!     fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
//!         if self.0 == 0 { return Action::Exit; }
//!         self.0 -= 1;
//!         Action::compute(OpBlock::int_alu(60_000_000)) // 10 ms guest
//!     }
//! }
//!
//! let mut sys = System::new(SystemConfig::testbed(1));
//! let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::qemu()), sys.machine());
//! guest.spawn("science", Box::new(Burn(10)));
//! let vm = Vm::install(&mut sys, VmConfig::new("demo", Priority::Normal), guest);
//! sys.run_until(SimTime::from_secs(2));
//! assert!(vm.halted());
//! // QEMU's dilation made 100 ms of guest work cost ~0.25-0.30 s of host CPU.
//! let host_cpu = sys.thread_stats(vm.vcpu).cpu_time.as_secs_f64();
//! assert!(host_cpu > 0.2 && host_cpu < 0.4, "host cpu {host_cpu}");
//! ```

#![forbid(unsafe_code)]

pub mod body;
pub mod guest;
pub mod profiles;

pub use body::{Vm, VmConfig, VmHandle};
pub use guest::{GuestConfig, GuestStep, GuestVm};
pub use profiles::{VmmProfile, VnicMode};
