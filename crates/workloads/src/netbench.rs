//! NetBench: the paper's network benchmark — an iperf wrapper measuring
//! the transfer of a 10 MB TCP stream to a server on the LAN (Section 2).

use std::cell::RefCell;
use std::rc::Rc;
use vgrid_os::{Action, ActionResult, ConnId, NetOp, RemoteHost, ThreadBody, ThreadCtx};
use vgrid_simcore::SimTime;

/// Per-send chunk (iperf default buffer is 8-128 KB; 64 KB here).
const CHUNK: u64 = 64 * 1024;

/// NetBench configuration.
#[derive(Debug, Clone)]
pub struct NetBenchConfig {
    /// Total payload (paper: 10 MB).
    pub total_bytes: u64,
    /// The iperf server peer model.
    pub remote: RemoteHost,
}

impl Default for NetBenchConfig {
    fn default() -> Self {
        NetBenchConfig {
            total_bytes: 10 * 1024 * 1024,
            remote: RemoteHost::lan_sink(),
        }
    }
}

/// NetBench result.
#[derive(Debug, Clone, Default)]
pub struct NetBenchReport {
    /// Measured goodput in Mbit/s (iperf's headline figure).
    pub mbps: f64,
    /// Wall time of the transfer.
    pub wall_secs: f64,
    /// True when finished.
    pub complete: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Connect,
    Send,
    Close,
}

/// The NetBench thread body.
#[derive(Debug)]
pub struct NetBenchBody {
    cfg: NetBenchConfig,
    report: Rc<RefCell<NetBenchReport>>,
    phase: Phase,
    conn: Option<ConnId>,
    sent: u64,
    started: Option<SimTime>,
}

impl NetBenchBody {
    /// Create the body and its shared report.
    pub fn new(cfg: NetBenchConfig) -> (Self, Rc<RefCell<NetBenchReport>>) {
        let report = Rc::new(RefCell::new(NetBenchReport::default()));
        (
            NetBenchBody {
                cfg,
                report: report.clone(),
                phase: Phase::Connect,
                conn: None,
                sent: 0,
                started: None,
            },
            report,
        )
    }
}

impl ThreadBody for NetBenchBody {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if let ActionResult::Err(e) = ctx.result {
            panic!("netbench: unexpected OS error {e:?}");
        }
        loop {
            match self.phase {
                Phase::Connect => {
                    if let ActionResult::Connected(c) = ctx.result {
                        self.conn = Some(c);
                        self.phase = Phase::Send;
                        self.started = Some(ctx.now);
                        continue;
                    }
                    return Action::Net(NetOp::Connect {
                        remote: self.cfg.remote,
                    });
                }
                Phase::Send => {
                    if self.sent >= self.cfg.total_bytes {
                        let wall = ctx
                            .now
                            .since(self.started.expect("connected"))
                            .as_secs_f64();
                        let mut rep = self.report.borrow_mut();
                        rep.wall_secs = wall;
                        rep.mbps = self.cfg.total_bytes as f64 * 8.0 / wall.max(1e-12) / 1e6;
                        rep.complete = true;
                        self.phase = Phase::Close;
                        continue;
                    }
                    let n = CHUNK.min(self.cfg.total_bytes - self.sent);
                    self.sent += n;
                    return Action::Net(NetOp::Send {
                        conn: self.conn.expect("connected"),
                        bytes: n,
                    });
                }
                Phase::Close => {
                    if ctx.result == ActionResult::NetClosed {
                        return Action::Exit;
                    }
                    return Action::Net(NetOp::Close {
                        conn: self.conn.expect("connected"),
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

    #[test]
    fn native_run_hits_papers_line_rate() {
        let mut sys = System::new(SystemConfig::testbed(5));
        let (body, report) = NetBenchBody::new(NetBenchConfig::default());
        sys.spawn("netbench", Priority::Normal, Box::new(body));
        assert!(sys.run_to_completion(SimTime::from_secs(30)));
        let r = report.borrow();
        assert!(r.complete);
        // The paper's native figure is 97.60 Mbps; per-chunk latency and
        // stack CPU shave a little below the pure line rate.
        assert!((90.0..98.0).contains(&r.mbps), "mbps {}", r.mbps);
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut sys = System::new(SystemConfig::testbed(5));
            let (body, report) = NetBenchBody::new(NetBenchConfig::default());
            sys.spawn("netbench", Priority::Normal, Box::new(body));
            sys.run_to_completion(SimTime::from_secs(30));
            let m = report.borrow().mbps;
            m
        };
        assert_eq!(run(), run());
    }
}
