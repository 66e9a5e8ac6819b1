//! A count that a peer announces sizes nothing: a parser reserves room
//! for the records it has read, so a one-line reply that announces a
//! million records cannot make the client allocate hundreds of
//! megabytes before the first record arrives.
//!
//! A test binary of its own, because it installs a global allocator
//! that records the largest block the whole process asks for: sibling
//! tests allocating in parallel would move that figure under it.

use sofia_fleet::protocol::wire::LineCursor;
use sofia_net::stats::{parse_net_stats, push_net_stats, NetStats};
use sofia_net::wire::{parse_fleet_stats, ShardMap};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest block asked of it.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward their arguments unchanged to `System`,
// so `System`'s guarantees are this allocator's; the only addition is
// a relaxed atomic update, which neither allocates nor unwinds. The
// trait's default `alloc_zeroed` and `realloc` allocate through
// `alloc`, so every block the process asks for is recorded.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// The largest single allocation made while `f` runs.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    f();
    LARGEST.load(Ordering::Relaxed)
}

#[test]
fn announced_counts_reserve_nothing() {
    const MIB: usize = 1 << 20;
    // A stats block that announces the most slow records the parser
    // admits and then ends.
    let mut net_stats = String::new();
    push_net_stats(&mut net_stats, &NetStats::default());
    let net_stats = net_stats.replacen("slow 0\n", "slow 65536\n", 1);
    // Each header announces the most records its parser admits, then
    // the text ends: the parse fails on the first missing record.
    let cases: [(&str, &dyn Fn() -> bool); 3] = [
        ("shards 1048576", &|| {
            parse_fleet_stats(&mut LineCursor::new("shards 1048576\n")).is_err()
        }),
        ("shardmap 1048576", &|| {
            ShardMap::parse(&mut LineCursor::new("shardmap 1048576\n")).is_err()
        }),
        ("slow 65536", &|| {
            parse_net_stats(&mut LineCursor::new(&net_stats)).is_err()
        }),
    ];
    for (header, parse) in cases {
        let mut refused = false;
        let largest = largest_allocation(|| refused = parse());
        assert!(refused, "`{header}` with no records must not parse");
        assert!(
            largest <= MIB,
            "`{header}` made a {largest}-byte allocation before reading a record"
        );
    }
}
