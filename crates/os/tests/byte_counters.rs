//! Pins the host kernel's published byte counters to exact values.
//!
//! `os.fs.read_bytes`, `os.fs.write_bytes`, `os.net.tx_bytes` and
//! `os.net.rx_bytes` count the bytes each thread *asked for*, at the
//! moment the kernel decodes the action: a short read at end of file and
//! an operation on a stale handle count in full.

use std::collections::VecDeque;
use vgrid_os::{
    Action, ActionResult, ConnId, FileId, FileOp, NetOp, OsError, Priority, RemoteHost, System,
    SystemConfig, ThreadBody, ThreadCtx,
};
use vgrid_simcore::SimTime;
use vgrid_simobs::MetricsRegistry;

/// Issues one scripted action per step, on the file and connection the
/// last open and connect returned.
#[derive(Debug)]
struct Script {
    steps: VecDeque<Step>,
    file: Option<FileId>,
    conn: Option<ConnId>,
}

#[derive(Debug)]
enum Step {
    Open,
    Write(u64),
    Seek(u64),
    Read(u64),
    ReadStale(u64),
    WriteStale(u64),
    Connect(RemoteHost),
    Send(u64),
    Recv(u64),
    SendStale(u64),
    Close,
}

impl ThreadBody for Script {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        match ctx.result {
            ActionResult::Opened(f) => self.file = Some(f),
            ActionResult::Connected(c) => self.conn = Some(c),
            _ => {}
        }
        let file = || self.file.expect("file opened");
        let conn = || self.conn.expect("connected");
        match self.steps.pop_front() {
            None => Action::Exit,
            Some(Step::Open) => Action::File(FileOp::Open {
                path: "/data".into(),
                create: true,
                truncate: true,
                direct: false,
            }),
            Some(Step::Write(bytes)) => Action::File(FileOp::Write {
                file: file(),
                bytes,
            }),
            Some(Step::Seek(pos)) => Action::File(FileOp::Seek { file: file(), pos }),
            Some(Step::Read(bytes)) => Action::File(FileOp::Read {
                file: file(),
                bytes,
            }),
            Some(Step::ReadStale(bytes)) => Action::File(FileOp::Read {
                file: FileId(999),
                bytes,
            }),
            Some(Step::WriteStale(bytes)) => Action::File(FileOp::Write {
                file: FileId(998),
                bytes,
            }),
            Some(Step::Connect(remote)) => Action::Net(NetOp::Connect { remote }),
            Some(Step::Send(bytes)) => Action::Net(NetOp::Send {
                conn: conn(),
                bytes,
            }),
            Some(Step::Recv(bytes)) => Action::Net(NetOp::Recv {
                conn: conn(),
                bytes,
            }),
            Some(Step::SendStale(bytes)) => Action::Net(NetOp::Send {
                conn: ConnId(77),
                bytes,
            }),
            Some(Step::Close) => Action::Net(NetOp::Close { conn: conn() }),
        }
    }
}

#[test]
fn published_byte_counters_are_exact() {
    let steps = vec![
        Step::Open,
        Step::Write(3_000),
        Step::Write(5_000),
        Step::Seek(0),
        Step::Read(4_096),
        // Short read: 3_904 bytes remain before EOF, 10_000 are counted.
        Step::Read(10_000),
        Step::ReadStale(777),
        Step::WriteStale(333),
        Step::Connect(RemoteHost::lan_sink()),
        Step::Send(4_380),
        Step::Send(1_000_000),
        Step::Close,
        Step::Connect(RemoteHost::lan_source()),
        Step::Recv(2_000),
        Step::Recv(65_536),
        Step::Close,
        Step::SendStale(123),
    ];
    let mut sys = System::new(SystemConfig::testbed(5));
    let script = Script {
        steps: steps.into(),
        file: None,
        conn: None,
    };
    let tid = sys.spawn("script", Priority::Normal, Box::new(script));
    assert!(sys.run_to_completion(SimTime::from_secs(10)));
    assert!(sys.is_exited(tid));

    let mut m = MetricsRegistry::new();
    sys.publish_metrics(&mut m);
    assert_eq!(m.counter("os.fs.write_bytes"), 3_000 + 5_000 + 333);
    assert_eq!(m.counter("os.fs.read_bytes"), 4_096 + 10_000 + 777);
    assert_eq!(m.counter("os.net.tx_bytes"), 4_380 + 1_000_000 + 123);
    assert_eq!(m.counter("os.net.rx_bytes"), 2_000 + 65_536);
}

/// The failed operations the counters include really do fail.
#[test]
fn stale_handles_fail_but_still_count() {
    #[derive(Debug)]
    struct Stale {
        issued: u8,
    }
    impl ThreadBody for Stale {
        fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            self.issued += 1;
            match self.issued {
                1 => Action::File(FileOp::Read {
                    file: FileId(42),
                    bytes: 10,
                }),
                2 => {
                    assert_eq!(ctx.result, ActionResult::Err(OsError::BadHandle));
                    Action::Net(NetOp::Recv {
                        conn: ConnId(42),
                        bytes: 20,
                    })
                }
                _ => {
                    assert_eq!(ctx.result, ActionResult::Err(OsError::BadHandle));
                    Action::Exit
                }
            }
        }
    }
    let mut sys = System::new(SystemConfig::testbed(6));
    let body = Stale { issued: 0 };
    let tid = sys.spawn("stale", Priority::Normal, Box::new(body));
    assert!(sys.run_to_completion(SimTime::from_secs(1)));
    assert!(sys.is_exited(tid));
    let mut m = MetricsRegistry::new();
    sys.publish_metrics(&mut m);
    assert_eq!(m.counter("os.fs.read_bytes"), 10);
    assert_eq!(m.counter("os.net.rx_bytes"), 20);
}
