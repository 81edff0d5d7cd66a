//! Chained dense matrix multiplication `R = (A × B) × C` (§IV-B).
//!
//! The intermediate product `T = A × B` lives in O-structures used as
//! I-structures (one version per element, version 1): producer tasks
//! compute rows of `T` with `STORE-VERSION`, consumer tasks compute rows of
//! `R` with `LOAD-VERSION`, blocking element-wise until the producer
//! catches up — the fine-grained RAW synchronization of §II-A without any
//! renaming or locking. `A`, `B`, `C` and `R` are conventional arrays.
//!
//! The paper runs 100×100 matrices ("larger workloads could not be
//! simulated in reasonable time" — same here); the dimension is a
//! parameter.

use std::rc::Rc;

use osim_cpu::{task, Machine, MachineCfg, TaskCtx};

use crate::harness::{self, peek_word, DsResult};

/// Version used for every I-structure element.
const IVER: u32 = 1;
/// Instruction budget for one multiply-accumulate step.
const FMA_WORK: u64 = 4;
/// Instruction budget for per-row loop overhead.
const ROW_WORK: u64 = 8;

/// Matmul configuration.
#[derive(Debug, Clone, Copy)]
pub struct MatmulCfg {
    /// Matrix dimension (paper: 100).
    pub n: usize,
    /// RNG-free deterministic input seed.
    pub seed: u32,
}

impl MatmulCfg {
    /// The paper's configuration: 3 dense 100×100 matrices.
    pub fn paper() -> Self {
        MatmulCfg { n: 100, seed: 1 }
    }
}

fn gen_matrix(cfg: &MatmulCfg, which: u32) -> Vec<u32> {
    let n = cfg.n;
    (0..n * n)
        .map(|i| {
            let x = (i as u32)
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(cfg.seed.wrapping_mul(which + 1));
            x >> 24 // small values; products stay meaningful mod 2^32
        })
        .collect()
}

/// Host-side reference: `(A × B) × C` with wrapping arithmetic.
fn reference(cfg: &MatmulCfg) -> Vec<u32> {
    let n = cfg.n;
    let a = gen_matrix(cfg, 0);
    let b = gen_matrix(cfg, 1);
    let c = gen_matrix(cfg, 2);
    let mul = |x: &[u32], y: &[u32]| {
        let mut out = vec![0u32; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0u32;
                for k in 0..n {
                    acc = acc.wrapping_add(x[i * n + k].wrapping_mul(y[k * n + j]));
                }
                out[i * n + j] = acc;
            }
        }
        out
    };
    mul(&mul(&a, &b), &c)
}

async fn write_matrix(ctx: &TaskCtx, base: u32, m: &[u32]) {
    for (i, &v) in m.iter().enumerate() {
        ctx.store_u32(base + 4 * i as u32, v).await;
    }
}

struct Layout {
    a: u32,
    b: u32,
    c: u32,
    r: u32,
    /// Base va of the n×n versioned cells of T (contiguous root words).
    t: u32,
    n: u32,
}

/// Producer task: row `i` of `T = A × B`, stored element-wise as version 1.
async fn t_row(ctx: TaskCtx, l: Rc<Layout>, i: u32) {
    let n = l.n;
    ctx.work(ROW_WORK).await;
    for j in 0..n {
        let mut acc = 0u32;
        for k in 0..n {
            let av = ctx.load_u32(l.a + 4 * (i * n + k)).await;
            let bv = ctx.load_u32(l.b + 4 * (k * n + j)).await;
            ctx.work(FMA_WORK).await;
            acc = acc.wrapping_add(av.wrapping_mul(bv));
        }
        ctx.store_version(l.t + 4 * (i * n + j), IVER, acc).await;
    }
}

/// Consumer task: row `i` of `R = T × C`, loading T element-wise and
/// blocking until each element has been produced.
async fn r_row(ctx: TaskCtx, l: Rc<Layout>, i: u32) {
    let n = l.n;
    ctx.work(ROW_WORK).await;
    for j in 0..n {
        let mut acc = 0u32;
        for k in 0..n {
            let tv = ctx.load_version(l.t + 4 * (i * n + k), IVER).await;
            let cv = ctx.load_u32(l.c + 4 * (k * n + j)).await;
            ctx.work(FMA_WORK).await;
            acc = acc.wrapping_add(tv.wrapping_mul(cv));
        }
        ctx.store_u32(l.r + 4 * (i * n + j), acc).await;
    }
}

fn run_common(mut m: Machine, cfg: &MatmulCfg, versioned: bool) -> DsResult {
    let n = cfg.n as u32;
    let words = n * n * 4;
    let (a, b, c, r) = (
        harness::alloc_data(&m, words),
        harness::alloc_data(&m, words),
        harness::alloc_data(&m, words),
        harness::alloc_data(&m, words),
    );
    let t = if versioned {
        harness::alloc_roots(&m, n * n)
    } else {
        harness::alloc_data(&m, words)
    };
    let layout = Rc::new(Layout { a, b, c, r, t, n });

    // Population: write the inputs.
    let (ma, mb, mc) = (gen_matrix(cfg, 0), gen_matrix(cfg, 1), gen_matrix(cfg, 2));
    let l2 = Rc::clone(&layout);
    m.run_tasks(vec![task(move |ctx| async move {
        write_matrix(&ctx, l2.a, &ma).await;
        write_matrix(&ctx, l2.b, &mb).await;
        write_matrix(&ctx, l2.c, &mc).await;
    })])
    .expect("population");
    m.reset_stats();

    let report = if versioned {
        // One task per T row and per R row; the static scheduler interleaves
        // them across cores and versioned loads pipeline R behind T.
        let mut tasks = Vec::with_capacity(2 * cfg.n);
        for i in 0..n {
            let l = Rc::clone(&layout);
            tasks.push(task(move |ctx| t_row(ctx, l, i)));
        }
        for i in 0..n {
            let l = Rc::clone(&layout);
            tasks.push(task(move |ctx| r_row(ctx, l, i)));
        }
        m.run_tasks(tasks).expect("measurement")
    } else {
        // Sequential unversioned: both products in one task.
        let l = Rc::clone(&layout);
        m.run_tasks(vec![task(move |ctx| async move {
            let n = l.n;
            ctx.work(ROW_WORK).await;
            for i in 0..n {
                for j in 0..n {
                    let mut acc = 0u32;
                    for k in 0..n {
                        let av = ctx.load_u32(l.a + 4 * (i * n + k)).await;
                        let bv = ctx.load_u32(l.b + 4 * (k * n + j)).await;
                        ctx.work(FMA_WORK).await;
                        acc = acc.wrapping_add(av.wrapping_mul(bv));
                    }
                    ctx.store_u32(l.t + 4 * (i * n + j), acc).await;
                }
            }
            for i in 0..n {
                for j in 0..n {
                    let mut acc = 0u32;
                    for k in 0..n {
                        let tv = ctx.load_u32(l.t + 4 * (i * n + k)).await;
                        let cv = ctx.load_u32(l.c + 4 * (k * n + j)).await;
                        ctx.work(FMA_WORK).await;
                        acc = acc.wrapping_add(tv.wrapping_mul(cv));
                    }
                    ctx.store_u32(l.r + 4 * (i * n + j), acc).await;
                }
            }
        })])
        .expect("measurement")
    };

    // Validate R against the host reference.
    let want = reference(cfg);
    let (ok, detail) = {
        let st = m.state();
        let st = st.borrow();
        let r_at = |i: usize| peek_word(&st, layout.r + 4 * i as u32);
        match want.iter().enumerate().find(|&(i, &w)| r_at(i) != w) {
            Some((i, w)) => (false, format!("R[{i}] = {}, expected {w}", r_at(i))),
            None => (true, String::new()),
        }
    };
    harness::collect(&m, report.cycles(), ok, detail)
}

/// Versioned parallel matmul chain.
pub fn run_versioned(mcfg: MachineCfg, cfg: &MatmulCfg) -> DsResult {
    run_common(Machine::new(mcfg), cfg, true)
}

/// Unversioned sequential baseline.
pub fn run_unversioned(mcfg: MachineCfg, cfg: &MatmulCfg) -> DsResult {
    run_common(Machine::new(mcfg), cfg, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MatmulCfg {
        MatmulCfg { n: 12, seed: 5 }
    }

    #[test]
    fn unversioned_matches_reference() {
        run_unversioned(MachineCfg::paper(1), &small()).assert_ok();
    }

    #[test]
    fn versioned_sequential_matches_reference() {
        run_versioned(MachineCfg::paper(1), &small()).assert_ok();
    }

    #[test]
    fn versioned_parallel_matches_reference_and_scales() {
        let seq = run_versioned(MachineCfg::paper(1), &small());
        let par = run_versioned(MachineCfg::paper(8), &small());
        seq.assert_ok();
        par.assert_ok();
        assert!(
            par.cycles * 3 < seq.cycles,
            "matmul is data-parallel: {} vs {}",
            par.cycles,
            seq.cycles
        );
    }

    #[test]
    fn versioning_overhead_visible_on_one_core() {
        // §IV-B: single-threaded versioned matmul is notably slower than
        // unversioned (the paper reports about 2.5x).
        let unv = run_unversioned(MachineCfg::paper(1), &small());
        let ver = run_versioned(MachineCfg::paper(1), &small());
        assert!(ver.cycles > unv.cycles);
    }

    #[test]
    fn consumers_block_until_producers_store() {
        let r = run_versioned(MachineCfg::paper(2), &small());
        r.assert_ok();
        // With 2 cores and the T/R task interleaving, at least some R-row
        // loads must have stalled on unproduced T elements.
        assert!(r.cpu.versioned_loads > 0);
    }

    #[test]
    fn deterministic() {
        let a = run_versioned(MachineCfg::paper(4), &small());
        let b = run_versioned(MachineCfg::paper(4), &small());
        assert_eq!(a.cycles, b.cycles);
    }
}
