//! Design-choice ablations called out in DESIGN.md:
//!
//! * per-pass renaming (Fig. 1-faithful) vs lock-only ordering in the
//!   linked-list pipeline;
//! * long vs short order-cell holds in the red-black writer (the §IV-D
//!   delete-locking observation).

use bench::{bench, bench_cfg, group};
use osim_cpu::MachineCfg;
use osim_workloads::rbtree::LockHold;
use osim_workloads::{linked_list, rbtree};

fn main() {
    group("ablations");
    let cfg = bench_cfg(80, 48, 1);
    bench("list/rename_on_pass", || {
        linked_list::run_versioned_with(MachineCfg::paper(8), &cfg, true)
            .assert_ok()
            .cycles
    });
    bench("list/lock_only", || {
        linked_list::run_versioned_with(MachineCfg::paper(8), &cfg, false)
            .assert_ok()
            .cycles
    });
    bench("rbtree/long_hold", || {
        rbtree::run_versioned_with(MachineCfg::paper(8), &cfg, LockHold::Long)
            .assert_ok()
            .cycles
    });
    bench("rbtree/short_hold", || {
        rbtree::run_versioned_with(MachineCfg::paper(8), &cfg, LockHold::Short)
            .assert_ok()
            .cycles
    });
}
