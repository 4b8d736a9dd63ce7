//! Property-based tests of the filesystem's invariants under arbitrary
//! operation sequences.

use proptest::prelude::*;
use vgrid_os::fs::{FileSystem, FsConfig};
use vgrid_os::{ActionResult, FileId, FileOp};

#[derive(Debug, Clone)]
enum Op {
    Write(u64),
    Read(u64),
    SeekStart,
    Sync,
    DropCache,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..2_000_000).prop_map(Op::Write),
        (1u64..2_000_000).prop_map(Op::Read),
        Just(Op::SeekStart),
        Just(Op::Sync),
        Just(Op::DropCache),
    ]
}

proptest! {
    /// Whatever sequence of operations runs: the cache never exceeds its
    /// limit by more than one in-flight write, sizes only grow via
    /// writes, reads never return more than was written, and plans are
    /// always well-formed.
    #[test]
    fn fs_invariants_hold_under_arbitrary_ops(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let limit = 8u64 << 20;
        let mut fs = FileSystem::new(FsConfig {
            cache_limit: limit,
            dirty_limit: 1 << 20,
            ..Default::default()
        });
        let open = FileOp::Open {
            path: "/f".into(),
            create: true,
            truncate: true,
            direct: false,
        };
        let id: FileId = match fs.apply(open).result {
            ActionResult::Opened(id) => id,
            other => panic!("{other:?}"),
        };
        let mut written_total = 0u64;
        let mut requested_reads = 0u64;
        for op in ops {
            match op {
                Op::Write(n) => {
                    let plan = fs.apply(FileOp::Write { file: id, bytes: n });
                    let wrote = matches!(plan.result, ActionResult::Wrote { .. });
                    prop_assert!(wrote);
                    written_total += n;
                }
                Op::Read(n) => {
                    requested_reads += n;
                    let plan = fs.apply(FileOp::Read { file: id, bytes: n });
                    let ActionResult::Read { bytes } = plan.result else {
                        panic!("read failed")
                    };
                    prop_assert!(bytes <= n);
                }
                Op::SeekStart => {
                    fs.apply(FileOp::Seek { file: id, pos: 0 });
                }
                Op::Sync => {
                    let plan = fs.apply(FileOp::Sync { file: id });
                    prop_assert_eq!(plan.result, ActionResult::Synced);
                    // Second sync is always a no-op on the device.
                    let again = fs.apply(FileOp::Sync { file: id });
                    prop_assert!(again.disk.is_empty());
                }
                Op::DropCache => {
                    fs.apply(FileOp::DropCache { file: id });
                }
            }
            // One in-flight write may overshoot before eviction runs;
            // bound it by the largest single write.
            prop_assert!(
                fs.cache_used() <= limit + 2_000_000,
                "cache {} exceeds limit {}",
                fs.cache_used(),
                limit
            );
            prop_assert!(fs.size_of("/f").unwrap() <= written_total);
            // The byte counters count what was asked for, short or not.
            prop_assert_eq!(fs.write_bytes(), written_total);
            prop_assert_eq!(fs.read_bytes(), requested_reads);
        }
    }
}
