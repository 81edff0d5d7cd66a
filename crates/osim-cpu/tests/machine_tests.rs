//! Integration tests of the simulated machine: cores, runtime, versioned
//! operations end-to-end, and the reader-writer lock baseline.

use std::cell::RefCell;
use std::rc::Rc;

use osim_cpu::{task, Machine, MachineCfg, ShakePolicy, SimError, WaitClass};

fn machine(cores: usize) -> Machine {
    Machine::new(MachineCfg::paper(cores))
}

#[test]
fn producer_consumer_across_cores() {
    let mut m = machine(2);
    let root = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_root(&mut s.ms).unwrap()
    };
    let got = Rc::new(RefCell::new(None));
    let got2 = Rc::clone(&got);
    let tasks = vec![
        // Task 1 on core 0: long compute, then publish version 1.
        task(move |ctx| async move {
            ctx.work(10_000).await;
            ctx.store_version(root, 1, 0xabcd).await;
        }),
        // Task 2 on core 1: starts immediately, must stall on version 1.
        task(move |ctx| async move {
            let v = ctx.load_version(root, 1).await;
            *got2.borrow_mut() = Some((v, ctx.now()));
        }),
    ];
    let report = m.run_tasks(tasks).unwrap();
    let (v, t) = got.borrow().unwrap();
    assert_eq!(v, 0xabcd);
    assert!(t >= 5_000, "consumer had to wait for the producer");
    assert!(report.cycles() >= 5_000);
    let st = m.state();
    let st = st.borrow();
    assert_eq!(st.cpu.versioned_loads, 1);
    assert_eq!(st.cpu.versioned_loads_stalled, 1);
    assert!(st.cpu.stall_cycles > 0);
    assert_eq!(st.cpu.tasks_run, 2);
}

#[test]
fn static_assignment_round_robins_cores() {
    let mut m = machine(4);
    let cores_seen = Rc::new(RefCell::new(Vec::new()));
    let tasks = (0..8)
        .map(|i| {
            let log = Rc::clone(&cores_seen);
            task(move |ctx| async move {
                log.borrow_mut().push((i, ctx.core(), ctx.tid()));
                ctx.work(1).await;
            })
        })
        .collect();
    m.run_tasks(tasks).unwrap();
    let mut log = cores_seen.borrow_mut();
    log.sort();
    let expect: Vec<(usize, usize, u32)> = (0..8).map(|i| (i, i % 4, i as u32 + 1)).collect();
    assert_eq!(*log, expect);
}

/// GC rule 3 under shaken same-cycle order: however a seed orders the
/// cores' first polls, no task begins below the oldest active one. The
/// check is `OManager::task_begin`'s debug assertion, so this test guards
/// debug builds (`cargo test` without `--release`).
#[test]
fn shaken_phases_begin_tasks_in_id_order() {
    for seed in 1..=8u64 {
        let mut m = Machine::new(MachineCfg {
            shake: ShakePolicy::Seeded(seed),
            ..MachineCfg::paper(4)
        });
        for _phase in 0..2 {
            let tasks = (0..12u64)
                .map(|i| task(move |ctx| async move { ctx.work(1 + i % 3).await }))
                .collect();
            m.run_tasks(tasks).unwrap();
        }
        assert_eq!(m.state().borrow().cpu.tasks_run, 24, "seed {seed}");
    }
}

#[test]
fn hand_over_hand_pipeline_is_ordered() {
    // Four tasks pass through one cell in task order using the Fig. 1
    // protocol: LOCK-LOAD-LATEST, then UNLOCK(vl, tid+1).
    let mut m = machine(4);
    let root = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_root(&mut s.ms).unwrap()
    };
    let order = Rc::new(RefCell::new(Vec::new()));
    let mut tasks = vec![task(move |ctx| async move {
        // Task 1 seeds version 1.
        ctx.store_version(root, 1, 7).await;
    })];
    for _ in 0..3 {
        let order = Rc::clone(&order);
        tasks.push(task(move |ctx| async move {
            let tid = ctx.tid();
            let (vl, val) = ctx.lock_load_latest(root, tid).await;
            assert_eq!(val, 7);
            order.borrow_mut().push(tid);
            // Simulate some critical-section work before releasing.
            ctx.work(200).await;
            ctx.unlock_version(root, vl, Some(tid + 1)).await;
        }));
    }
    m.run_tasks(tasks).unwrap();
    assert_eq!(*order.borrow(), vec![2, 3, 4], "tasks entered in id order");
}

#[test]
fn conventional_memory_is_coherent_across_cores() {
    let mut m = machine(2);
    let buf = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_data(&mut s.ms, 4).unwrap()
    };
    let seen = Rc::new(RefCell::new(0));
    let seen2 = Rc::clone(&seen);
    let tasks = vec![
        task(move |ctx| async move {
            ctx.store_u32(buf, 99).await;
            ctx.work(100).await;
        }),
        task(move |ctx| async move {
            // Poll until the writer's value is visible.
            loop {
                let v = ctx.load_u32(buf).await;
                if v == 99 {
                    *seen2.borrow_mut() = v;
                    break;
                }
                ctx.work(10).await;
            }
        }),
    ];
    m.run_tasks(tasks).unwrap();
    assert_eq!(*seen.borrow(), 99);
}

#[test]
fn rwlock_excludes_writers() {
    let mut m = machine(4);
    let (lock_va, counter) = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        let l = s.alloc.alloc_data(&mut s.ms, 4).unwrap();
        let c = s.alloc.alloc_data(&mut s.ms, 4).unwrap();
        (l, c)
    };
    let n = 16;
    let tasks = (0..n)
        .map(|_| {
            task(move |ctx| async move {
                let lock = osim_cpu::SimRwLock::at(lock_va);
                lock.write_lock(&ctx).await;
                // Non-atomic read-modify-write protected by the lock.
                let v = ctx.load_u32(counter).await;
                ctx.work(50).await;
                ctx.store_u32(counter, v + 1).await;
                lock.write_unlock(&ctx).await;
            })
        })
        .collect();
    m.run_tasks(tasks).unwrap();
    let st = m.state();
    let mut st = st.borrow_mut();
    let s = &mut *st;
    let pa = s.ms.pt.translate_conventional(counter).unwrap();
    assert_eq!(s.ms.phys.read_u32(pa), n);
}

#[test]
fn rwlock_readers_overlap_but_writers_do_not() {
    let mut m = machine(4);
    let lock_va = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_data(&mut s.ms, 4).unwrap()
    };
    let concurrency = Rc::new(RefCell::new((0u32, 0u32))); // (current, max)
    let mut tasks = Vec::new();
    for _ in 0..4 {
        let conc = Rc::clone(&concurrency);
        tasks.push(task(move |ctx| async move {
            let lock = osim_cpu::SimRwLock::at(lock_va);
            lock.read_lock(&ctx).await;
            {
                let mut c = conc.borrow_mut();
                c.0 += 1;
                c.1 = c.1.max(c.0);
            }
            ctx.work(5_000).await;
            conc.borrow_mut().0 -= 1;
            lock.read_unlock(&ctx).await;
        }));
    }
    m.run_tasks(tasks).unwrap();
    assert!(
        concurrency.borrow().1 >= 2,
        "readers must overlap, max concurrency {}",
        concurrency.borrow().1
    );
}

#[test]
fn deadlock_on_never_created_version() {
    let mut m = machine(1);
    let root = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_root(&mut s.ms).unwrap()
    };
    let tasks = vec![task(move |ctx| async move {
        ctx.load_version(root, 42).await;
    })];
    let err = m.run_tasks(tasks).expect_err("must deadlock");
    let SimError::Deadlock(report) = err else {
        panic!("expected deadlock report, got: {err}");
    };
    assert_eq!(report.entries.len(), 1);
    let e = &report.entries[0];
    assert_eq!(e.tid, Some(1));
    assert_eq!(e.va, Some(u64::from(root)));
    assert_eq!(e.version, Some(42));
    assert_eq!(e.class, WaitClass::NeverProduced);
    let text = format!("{report}");
    assert!(text.contains("version 42"), "blame text: {text}");
    assert!(text.contains("never-produced"), "blame text: {text}");
}

#[test]
fn phases_accumulate_time_and_task_ids() {
    let mut m = machine(2);
    let root = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_root(&mut s.ms).unwrap()
    };
    let r1 = m
        .run_tasks(vec![task(move |ctx| async move {
            assert_eq!(ctx.tid(), 1);
            ctx.store_version(root, ctx.tid(), 5).await;
        })])
        .unwrap();
    let r2 = m
        .run_tasks(vec![task(move |ctx| async move {
            // Task ids continue across phases.
            assert_eq!(ctx.tid(), 2);
            let (ver, val) = ctx.load_latest(root, ctx.tid()).await;
            assert_eq!((ver, val), (1, 5));
        })])
        .unwrap();
    assert_eq!(r2.start, r1.end);
    assert!(r2.end >= r2.start);
}

#[test]
fn reset_stats_separates_warmup_from_measurement() {
    let mut m = machine(1);
    let buf = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_data(&mut s.ms, 64).unwrap()
    };
    m.run_tasks(vec![task(move |ctx| async move {
        for i in 0..16 {
            ctx.store_u32(buf + (i % 4) * 4, i).await;
        }
    })])
    .unwrap();
    m.reset_stats();
    {
        let st = m.state();
        assert_eq!(st.borrow().cpu.stores, 0);
    }
    m.run_tasks(vec![task(move |ctx| async move {
        ctx.load_u32(buf).await;
    })])
    .unwrap();
    let st = m.state();
    let st = st.borrow();
    assert_eq!(st.cpu.loads, 1);
    // The warm-up's cache contents survive the stats reset.
    assert_eq!(st.ms.hier.stats.l1_read_hits[0], 1);
}

#[test]
fn l1_access_holds_the_hit_latency_once_per_l1_hit() {
    let mut m = machine(1);
    let buf = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_data(&mut s.ms, 64).unwrap()
    };
    m.run_tasks(vec![task(move |ctx| async move {
        ctx.store_u32(buf, 1).await; // write miss
        for _ in 0..3 {
            ctx.load_u32(buf).await; // read hits
        }
        for i in 0..2 {
            ctx.store_u32(buf + 4, i).await; // write hits
        }
    })])
    .unwrap();
    let hit = m.cfg().hier.l1.hit_latency;
    let h = m.run_hists();
    assert_eq!(h.l1_access.count(), 5, "three read hits and two write hits");
    assert_eq!((h.l1_access.min(), h.l1_access.max()), (hit, hit));
    assert_eq!(h.l1_access.sum(), 5 * hit);
    assert_eq!(h.l2_access.count(), 1, "the first store missed");
    m.reset_stats();
    assert!(m.run_hists().l1_access.is_empty());
}

#[test]
fn determinism_across_machines() {
    let run = || {
        let mut m = machine(4);
        let root = {
            let st = m.state();
            let mut st = st.borrow_mut();
            let s = &mut *st;
            s.alloc.alloc_root(&mut s.ms).unwrap()
        };
        let mut tasks = vec![task(move |ctx| async move {
            ctx.store_version(root, 1, 0).await;
        })];
        for _ in 0..12 {
            tasks.push(task(move |ctx| async move {
                let tid = ctx.tid();
                let (vl, v) = ctx.lock_load_latest(root, tid).await;
                ctx.work((v as u64 * 13) % 97 + 5).await;
                ctx.unlock_version(root, vl, Some(tid + 1)).await;
                let _ = ctx.load_latest(root, tid).await;
            }));
        }
        let r = m.run_tasks(tasks).unwrap();
        r.cycles()
    };
    assert_eq!(run(), run());
}

#[test]
fn work_respects_issue_width() {
    let mut m = machine(1);
    let t0 = Rc::new(RefCell::new((0, 0)));
    let t0c = Rc::clone(&t0);
    m.run_tasks(vec![task(move |ctx| async move {
        let a = ctx.now();
        ctx.work(100).await; // 2-way: 50 cycles
        let b = ctx.now();
        *t0c.borrow_mut() = (a, b);
    })])
    .unwrap();
    let (a, b) = *t0.borrow();
    assert_eq!(b - a, 50);
}
