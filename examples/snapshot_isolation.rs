//! Snapshot isolation by renaming (§IV-C of the paper).
//!
//! Readers capped at their task id see a consistent snapshot of multiple
//! locations, no matter how writers mutate them concurrently — renaming
//! eliminates write-after-read dependencies without any reader-side locks.
//! The second half runs the paper's Figure 8 comparison in the simulator:
//! a versioned binary tree against one protected by a read-write lock.
//!
//! Run with `cargo run --release --example snapshot_isolation`.

use std::cmp::Ordering;
use std::thread;

use ostructs::core::OCell;
use ostructs::cpu::MachineCfg;
use ostructs::workloads::btree;
use ostructs::workloads::harness::DsCfg;

fn main() {
    // --- Software layer: a two-location invariant ------------------------
    // Two cells always sum to 100 at every version boundary. Writers move
    // amounts between them (new versions); readers at any cap must see the
    // invariant hold — a torn read would break it.
    let a = OCell::with_initial(0, 60i64);
    let b = OCell::with_initial(0, 40i64);
    let mut writers = Vec::new();
    for t in 1..=50u64 {
        let a = a.clone();
        let b = b.clone();
        writers.push(thread::spawn(move || {
            // Exact loads pin the true dependency on the predecessor's
            // fully committed snapshot.
            let av = a.load_version(t - 1);
            let bv = b.load_version(t - 1);
            let moved = (t as i64 * 7) % 23 - 11;
            a.store_version(t, av - moved).unwrap();
            b.store_version(t, bv + moved).unwrap();
        }));
    }
    let readers: Vec<_> = (1..=50u64)
        .map(|cap| {
            let a = a.clone();
            let b = b.clone();
            thread::spawn(move || {
                // Readers name the snapshot they want; renaming guarantees
                // it is immutable once both stores landed.
                let av = a.load_version(cap);
                let bv = b.load_version(cap);
                (cap, av + bv)
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let mut checked = 0;
    for r in readers {
        let (cap, sum) = r.join().unwrap();
        assert_eq!(sum, 100, "snapshot at cap {cap} was torn");
        checked += 1;
    }
    println!("software layer: {checked} concurrent snapshot reads, invariant a+b=100 held in all");

    // --- Simulated hardware: Figure 8 in miniature -----------------------
    let cfg = DsCfg {
        initial: 400,
        ops: 128,
        reads_per_write: 3,
        scan_range: 8,
        key_space: 1600,
        seed: 0xf8,
        insert_only: true,
    };
    println!("\nsimulated 8-core machine, binary tree, 3 scans : 1 insert, scan range 8:");
    let v = btree::run_versioned(MachineCfg::paper(8), &cfg);
    v.assert_ok();
    let r = btree::run_rwlock(MachineCfg::paper(8), &cfg);
    r.assert_ok();
    println!("  versioned (snapshot isolation): {:>9} cycles", v.cycles);
    println!("  read-write lock baseline:       {:>9} cycles", r.cycles);
    let verdict = match v.cycles.cmp(&r.cycles) {
        Ordering::Less => "the versioned tree is faster",
        Ordering::Greater => "the read-write lock is faster",
        Ordering::Equal => "both take the same time",
    };
    println!(
        "  rwlock/versioned cycle ratio: {:.2} ({verdict} at this size)",
        r.cycles as f64 / v.cycles as f64
    );
}
