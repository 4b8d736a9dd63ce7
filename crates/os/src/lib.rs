//! # vgrid-os
//!
//! Operating-system model for the `vgrid` desktop-grid virtualization
//! testbed: a preemptive priority scheduler in the style of Windows XP
//! (the paper's host OS), a filesystem with a page cache, and a transport
//! stack — all over the hardware models of `vgrid-machine`.
//!
//! The central type is [`System`]: spawn [`ThreadBody`] state machines
//! into it, run it, and measure. Workload implementations live in
//! `vgrid-workloads`; the virtual machine monitor that runs a nested
//! guest kernel as a host thread lives in `vgrid-vmm`.
//!
//! ```
//! use vgrid_os::{Action, Priority, System, SystemConfig, ThreadBody, ThreadCtx};
//! use vgrid_machine::ops::OpBlock;
//! use vgrid_simcore::SimTime;
//!
//! #[derive(Debug)]
//! struct OneShot;
//! impl ThreadBody for OneShot {
//!     fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
//!         if ctx.cpu_time.is_zero() {
//!             Action::compute(OpBlock::int_alu(240_000_000))
//!         } else {
//!             Action::Exit
//!         }
//!     }
//! }
//!
//! let mut sys = System::new(SystemConfig::testbed(1));
//! let tid = sys.spawn("oneshot", Priority::Normal, Box::new(OneShot));
//! assert!(sys.run_to_completion(SimTime::from_secs(1)));
//! // 240 M int ops at 2.5 ops/cycle on 2.4 GHz: 40 ms.
//! let cpu = sys.thread_stats(tid).cpu_time.as_millis_f64();
//! assert!((cpu - 40.0).abs() < 2.0);
//! ```

#![forbid(unsafe_code)]

pub mod action;
pub mod fs;
pub mod net;
pub mod sched;
pub mod system;

pub use action::{
    Action, ActionResult, ConnId, FileId, FileOp, NetOp, OsError, Priority, RemoteHost, RemoteKind,
    ThreadBody, ThreadCtx, ThreadId,
};
pub use fs::{FileSystem, FsConfig, IoPlan};
pub use net::{NetConfig, NetPlan, NetStack};
pub use system::{System, SystemConfig, ThreadState, ThreadStats};
