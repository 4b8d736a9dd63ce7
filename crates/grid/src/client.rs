//! A BOINC-style client as a runnable thread body.
//!
//! [`BoincClientBody`] is the paper's deployment unit made executable:
//! it cycles fetch -> download input -> compute -> upload -> report,
//! using only the portable `vgrid-os` action protocol — so the *same*
//! body runs directly on a host `System` (native deployment) or inside a
//! `vgrid-vmm` guest (the vm-wrapper deployment the paper studies),
//! where its downloads cross the virtual NIC and its computation pays
//! the monitor's dilation. Full-stack tests drive it both ways.

use std::cell::RefCell;
use std::rc::Rc;
use vgrid_machine::ops::OpBlock;
use vgrid_os::{Action, ActionResult, ConnId, NetOp, RemoteHost, ThreadBody, ThreadCtx};

/// One work unit's worth of client work.
#[derive(Debug, Clone)]
pub struct ClientWorkSpec {
    /// Input payload downloaded per work unit.
    pub input_bytes: u64,
    /// Output payload uploaded per work unit.
    pub output_bytes: u64,
    /// The science kernel's per-chunk block.
    pub chunk: OpBlock,
    /// Chunks per work unit.
    pub chunks_per_wu: u32,
}

/// Observable client progress.
#[derive(Debug, Clone, Default)]
pub struct ClientStats {
    /// Work units fully processed and uploaded.
    pub wus_completed: u64,
    /// Compute chunks executed.
    pub chunks_done: u64,
    /// Bytes downloaded (inputs).
    pub bytes_down: u64,
    /// Bytes uploaded (results).
    pub bytes_up: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Connect,
    Fetch,
    Compute,
    Upload,
}

/// The client state machine.
#[derive(Debug)]
pub struct BoincClientBody {
    spec: ClientWorkSpec,
    /// Shared handle to the per-chunk block, cloned per compute step.
    chunk: Rc<OpBlock>,
    server: RemoteHost,
    /// Stop after this many work units (`None`: run forever).
    wu_limit: Option<u64>,
    stats: Rc<RefCell<ClientStats>>,
    phase: Phase,
    conn: Option<ConnId>,
    chunks_left: u32,
}

impl BoincClientBody {
    /// Build the body and its shared stats cell. The server is modeled
    /// as a LAN/WAN peer able to both supply inputs and absorb results.
    pub fn new(spec: ClientWorkSpec, wu_limit: Option<u64>) -> (Self, Rc<RefCell<ClientStats>>) {
        let stats = Rc::new(RefCell::new(ClientStats::default()));
        (
            BoincClientBody {
                chunk: Rc::new(spec.chunk.clone()),
                spec,
                server: RemoteHost::lan_source(),
                wu_limit,
                stats: stats.clone(),
                phase: Phase::Connect,
                conn: None,
                chunks_left: 0,
            },
            stats,
        )
    }
}

impl ThreadBody for BoincClientBody {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if let ActionResult::Err(e) = ctx.result {
            panic!("boinc client: unexpected OS error {e:?}");
        }
        loop {
            match self.phase {
                Phase::Connect => {
                    if let ActionResult::Connected(c) = ctx.result {
                        self.conn = Some(c);
                        self.phase = Phase::Fetch;
                        continue;
                    }
                    return Action::Net(NetOp::Connect {
                        remote: self.server,
                    });
                }
                Phase::Fetch => {
                    if let ActionResult::Received { bytes } = ctx.result {
                        self.stats.borrow_mut().bytes_down += bytes;
                        self.phase = Phase::Compute;
                        self.chunks_left = self.spec.chunks_per_wu;
                        ctx.result = ActionResult::None;
                        continue;
                    }
                    if self
                        .wu_limit
                        .map(|n| self.stats.borrow().wus_completed >= n)
                        .unwrap_or(false)
                    {
                        return Action::Exit;
                    }
                    return Action::Net(NetOp::Recv {
                        conn: self.conn.expect("connected"),
                        bytes: self.spec.input_bytes,
                    });
                }
                Phase::Compute => {
                    if self.chunks_left == 0 {
                        self.phase = Phase::Upload;
                        continue;
                    }
                    self.chunks_left -= 1;
                    self.stats.borrow_mut().chunks_done += 1;
                    return Action::Compute(self.chunk.clone());
                }
                Phase::Upload => {
                    if let ActionResult::Sent { bytes } = ctx.result {
                        let mut s = self.stats.borrow_mut();
                        s.bytes_up += bytes;
                        s.wus_completed += 1;
                        self.phase = Phase::Fetch;
                        ctx.result = ActionResult::None;
                        continue;
                    }
                    return Action::Net(NetOp::Send {
                        conn: self.conn.expect("connected"),
                        bytes: self.spec.output_bytes,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgrid_os::{Priority, System, SystemConfig};
    use vgrid_simcore::SimTime;

    fn spec() -> ClientWorkSpec {
        ClientWorkSpec {
            input_bytes: 256 * 1024,
            output_bytes: 32 * 1024,
            chunk: OpBlock::fp_alu(24_000_000), // ~10 ms
            chunks_per_wu: 5,
        }
    }

    #[test]
    fn client_cycles_on_the_host() {
        let mut sys = System::new(SystemConfig::testbed(1));
        let (body, stats) = BoincClientBody::new(spec(), Some(3));
        sys.spawn("boinc", Priority::Normal, Box::new(body));
        assert!(sys.run_to_completion(SimTime::from_secs(60)));
        let s = stats.borrow();
        assert_eq!(s.wus_completed, 3);
        assert_eq!(s.chunks_done, 15);
        assert_eq!(s.bytes_down, 3 * 256 * 1024);
        assert_eq!(s.bytes_up, 3 * 32 * 1024);
    }

    #[test]
    fn unlimited_client_keeps_running() {
        let mut sys = System::new(SystemConfig::testbed(2));
        let (body, stats) = BoincClientBody::new(spec(), None);
        sys.spawn("boinc", Priority::Normal, Box::new(body));
        sys.run_until(SimTime::from_secs(5));
        assert!(stats.borrow().wus_completed > 10);
    }
}
