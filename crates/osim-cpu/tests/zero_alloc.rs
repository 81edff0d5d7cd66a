//! Proof that the instruction layer is allocation-free once warm: one
//! core's conventional loads, stores, compare-and-swaps and `work` steps
//! sweeping an array eight times its L1, and the versioned stores, loads,
//! lock-loads and unlocks of four cores that park on each other's locks
//! and wake through the machine's gates, all run without touching the
//! heap. Each op costs a state borrow, a sleep and its counters, and
//! nothing on that path needs host storage beyond what the warm-up sized.
//!
//! The shared per-thread counting allocator is armed from inside the
//! simulation once every task has finished its warm-up rounds, and
//! disarmed when the first task finishes its measured rounds, before any
//! task ends; the count of allocations inside the window must be exactly
//! zero. The machine runs its tasks on the test thread, so every counted
//! operation is on the arming thread.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use osim_cpu::{task, CpuStats, Machine, MachineCfg, MachineState};
use osim_mem::CacheCfg;

/// Lines in the conventional array: 64 kB, eight times the 8 kB L1.
const LINES: u32 = 1024;
const CORES: usize = 4;

/// The counting window, opened and closed by the tasks themselves. It
/// snapshots the core counters at both ends, so the test can show what
/// ran inside it.
struct Window {
    st: Rc<RefCell<MachineState>>,
    tasks: usize,
    warmed: Cell<usize>,
    closed: Cell<bool>,
    at_open: RefCell<Option<CpuStats>>,
    at_close: RefCell<Option<CpuStats>>,
}

impl Window {
    fn new(m: &Machine, tasks: usize) -> Rc<Window> {
        Rc::new(Window {
            st: m.state(),
            tasks,
            warmed: Cell::new(0),
            closed: Cell::new(false),
            at_open: RefCell::new(None),
            at_close: RefCell::new(None),
        })
    }

    /// A task finished its warm-up; the last one to do so opens the window
    /// (unless another task already finished, which would leave it empty).
    fn warmed(&self) {
        self.warmed.set(self.warmed.get() + 1);
        if self.warmed.get() == self.tasks && !self.closed.get() {
            *self.at_open.borrow_mut() = Some(self.st.borrow().cpu.clone());
            counting_alloc::arm();
        }
    }

    /// A task finished its measured rounds; the first one closes the window.
    fn finished(&self) {
        if !self.closed.replace(true) {
            counting_alloc::disarm();
            *self.at_close.borrow_mut() = Some(self.st.borrow().cpu.clone());
        }
    }

    /// Allocations counted and the counters' `(instructions, versioned
    /// ops, stalled versioned loads)` advance inside the window.
    fn result(&self) -> (u64, [u64; 3]) {
        let open = self.at_open.borrow();
        let close = self.at_close.borrow();
        let (Some(a), Some(b)) = (&*open, &*close) else {
            panic!("the counting window never opened");
        };
        let delta = [
            b.instructions - a.instructions,
            b.versioned_ops - a.versioned_ops,
            b.versioned_loads_stalled - a.versioned_loads_stalled,
        ];
        (counting_alloc::allocs(), delta)
    }
}

/// One core with an 8 kB L1 sweeping 64 kB: every line is loaded, stored,
/// compare-and-swapped and followed by a `work` step, so most loads miss
/// and evict.
fn conventional_sweep() -> (u64, [u64; 3]) {
    const WARM: u32 = 4;
    const MEASURED: u32 = 16;
    let mut cfg = MachineCfg::paper(1);
    cfg.hier.l1 = CacheCfg::l1_sized(8);
    let mut m = Machine::new(cfg);
    let base = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_data(&mut s.ms, LINES * 64).unwrap()
    };
    let win = Window::new(&m, 1);
    let w = Rc::clone(&win);
    m.run_tasks(vec![task(move |ctx| async move {
        for round in 0..WARM + MEASURED {
            if round == WARM {
                w.warmed();
            }
            for line in 0..LINES {
                let va = base + line * 64;
                let x = ctx.load_u32(va).await;
                ctx.store_u32(va + 4, x + round).await;
                ctx.cas_u32(va, x, x + 1).await;
                ctx.work(4).await;
            }
        }
        w.finished();
    })])
    .unwrap();
    win.result()
}

/// Four cores, each owning one O-structure: a round stores the next
/// version of its own, reads the newest version of its neighbour's (which
/// parks while the neighbour holds it locked), and lock-loads then unlocks
/// its own newest version.
///
/// Every store takes a fresh version block, so the rounds keep reaching
/// new lines. A cache set's storage grows on its first fills, so the
/// caches are shrunk (8 kB L1s, a 16 kB L2) until the warm-up has filled
/// every set; from then on a new line evicts an old one.
fn versioned_ring() -> (u64, [u64; 3]) {
    const WARM: u32 = 768;
    const MEASURED: u32 = 256;
    let mut cfg = MachineCfg::paper(CORES);
    cfg.hier.l1 = CacheCfg::l1_sized(8);
    cfg.hier.l2 = CacheCfg {
        size_bytes: 16 * 1024,
        ..CacheCfg::l2_paper(CORES)
    };
    let mut m = Machine::new(cfg);
    let roots: [u32; CORES] = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        std::array::from_fn(|_| s.alloc.alloc_root(&mut s.ms).unwrap())
    };
    let win = Window::new(&m, CORES);
    let tasks = (0..CORES)
        .map(|c| {
            let w = Rc::clone(&win);
            task(move |ctx| async move {
                let (own, next) = (roots[c], roots[(c + 1) % CORES]);
                for v in 1..=WARM + MEASURED {
                    if v == WARM + 1 {
                        w.warmed();
                    }
                    ctx.store_version(own, v, v).await;
                    let (seen, val) = ctx.load_latest(next, v).await;
                    assert!(seen <= v && val == seen);
                    let (locked, val) = ctx.lock_load_latest(own, v).await;
                    assert_eq!((locked, val), (v, v));
                    ctx.unlock_version(own, locked, None).await;
                    // Keep the ring in step: wait for the neighbour's round.
                    assert_eq!(ctx.load_version(next, v).await, v);
                }
                w.finished();
            })
        })
        .collect();
    m.run_tasks(tasks).unwrap();
    win.result()
}

#[test]
fn instruction_layer_is_allocation_free_once_warm() {
    let (allocs, [instrs, _, _]) = conventional_sweep();
    assert!(instrs > 0, "conventional ops ran inside the window");
    assert_eq!(allocs, 0, "conventional ops allocated {allocs} times");

    let (allocs, [_, versioned, stalled]) = versioned_ring();
    assert!(versioned > 0, "versioned ops ran inside the window");
    assert!(stalled > 0, "some loads parked on a gate inside the window");
    assert_eq!(allocs, 0, "versioned ops allocated {allocs} times");
}
