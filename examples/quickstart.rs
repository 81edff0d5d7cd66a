//! Quickstart: the O-structure memory interface in five minutes.
//!
//! Run with `cargo run --example quickstart`.

use ostructs::core::{OCell, OError, ORuntime};

fn main() {
    // --- 1. A multi-version memory cell --------------------------------
    // An O-structure holds *every* version of a value, ordered by version
    // id. Loads name the version they need; stores create versions.
    let cell: OCell<&str> = OCell::new();
    cell.store_version(1, "v1").unwrap();
    cell.store_version(3, "v3").unwrap();

    // Exact loads get exactly what they ask for; capped loads get the
    // newest version not exceeding their cap — a consistent snapshot.
    assert_eq!(cell.load_version(1), "v1");
    assert_eq!(cell.load_latest(2), (1, "v1")); // version 3 is the future
    assert_eq!(cell.load_latest(9), (3, "v3"));
    println!("snapshot reads: cap 2 -> v1, cap 9 -> v3");

    // Versions are write-once: renaming (creating a new version) replaces
    // mutation, which is what eliminates write-after-read and
    // write-after-write hazards.
    assert_eq!(cell.store_version(3, "nope"), Err(OError::VersionExists(3)));

    // --- 2. Fine-grained locking ----------------------------------------
    // A version can be locked; exact loads of *that* version stall while
    // loads of other versions are unaffected.
    let shared: OCell<u32> = OCell::with_initial(1, 10);
    let got = shared.lock_load_version(1, /* task */ 7).unwrap();
    assert_eq!(got, 10);
    assert_eq!(shared.try_load_version(1), None, "locked");
    // Unlock and rename in one step: version 2 carries the same value.
    shared.unlock_version(7, Some(2)).unwrap();
    assert_eq!(shared.load_version(2), 10);
    println!("lock/unlock-rename: version 2 created from locked version 1");

    // --- 3. Task-parallel execution --------------------------------------
    // The runtime executes a sequential task list across threads; task ids
    // double as versions, so the parallel run has sequential semantics.
    let rt = ORuntime::new(4);
    let chain = OCell::with_initial(0, 0u64);
    rt.track(&chain); // garbage-collect superseded versions
    let tasks: Vec<Box<dyn FnOnce(u64) + Send>> = (0..100)
        .map(|_| {
            let chain = chain.clone();
            Box::new(move |tid: u64| {
                // True dependency on the predecessor task, expressed as a
                // versioned load — no locks, no races.
                let prev = chain.load_version(tid - 1);
                chain.store_version(tid, prev + 1).unwrap();
            }) as Box<dyn FnOnce(u64) + Send>
        })
        .collect();
    rt.run(tasks);
    assert_eq!(chain.load_latest(u64::MAX), (100, 100));
    println!(
        "100 chained tasks on 4 threads -> value 100; GC reclaimed {} versions in {} passes",
        rt.gc_stats().reclaimed,
        rt.gc_stats().passes
    );
}
