//! Levenshtein edit distance (§IV-B).
//!
//! The dynamic-programming matrix `D[(n+1) × (m+1)]` is stored in
//! O-structures used as I-structures (one version per cell). Row `i` is one
//! task: it keeps `D[i][j-1]` in a register and loads `D[i-1][j-1]` /
//! `D[i-1][j]` with `LOAD-VERSION`, so row tasks pipeline in a wavefront —
//! row `i` starts as soon as row `i-1` has produced its first cells, the
//! same "direct translation of the sequential code, augmented with
//! versioning" the paper describes.

use std::rc::Rc;

use osim_cpu::{task, Machine, MachineCfg, TaskCtx};

use crate::harness::{self, peek_latest, peek_word, DsResult};

const IVER: u32 = 1;
/// Instruction budget per DP cell (two compares, one add, a select).
const CELL_WORK: u64 = 8;
const ROW_WORK: u64 = 8;

/// Levenshtein configuration.
#[derive(Debug, Clone, Copy)]
pub struct LevCfg {
    /// String length (paper: 1000).
    pub len: usize,
    /// Input seed.
    pub seed: u32,
}

impl LevCfg {
    /// The paper's configuration: strings of length 1000.
    pub fn paper() -> Self {
        LevCfg { len: 1000, seed: 2 }
    }
}

fn gen_string(cfg: &LevCfg, which: u32) -> Vec<u32> {
    (0..cfg.len as u32)
        .map(|i| {
            let mut x = i ^ which.wrapping_mul(0xdead_beef) ^ cfg.seed.rotate_left(16);
            x = x.wrapping_mul(0x85eb_ca6b);
            x ^= x >> 13;
            x = x.wrapping_mul(0xc2b2_ae35);
            (x >> 13) & 0x7 // 8-letter alphabet: plenty of matches
        })
        .collect()
}

fn reference(cfg: &LevCfg) -> u32 {
    let a = gen_string(cfg, 0);
    let b = gen_string(cfg, 1);
    let n = a.len();
    let mut prev: Vec<u32> = (0..=n as u32).collect();
    let mut cur = vec![0u32; n + 1];
    for i in 1..=n {
        cur[0] = i as u32;
        for j in 1..=n {
            let cost = u32::from(a[i - 1] != b[j - 1]);
            cur[j] = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n]
}

struct Layout {
    a: u32,
    b: u32,
    /// (len+1)^2 versioned cells, row-major.
    d: u32,
    len: u32,
}

impl Layout {
    fn cell(&self, i: u32, j: u32) -> u32 {
        self.d + 4 * (i * (self.len + 1) + j)
    }
}

/// Row task `i` (1-based): consumes row `i-1`, produces row `i`.
async fn row_task(ctx: TaskCtx, l: Rc<Layout>, i: u32) {
    let n = l.len;
    ctx.work(ROW_WORK).await;
    let ai = ctx.load_u32(l.a + 4 * (i - 1)).await;
    // D[i][0] = i.
    ctx.store_version(l.cell(i, 0), IVER, i).await;
    let mut left = i; // D[i][j-1]
    let mut diag = ctx.load_version(l.cell(i - 1, 0), IVER).await;
    for j in 1..=n {
        let up = ctx.load_version(l.cell(i - 1, j), IVER).await;
        let bj = ctx.load_u32(l.b + 4 * (j - 1)).await;
        ctx.work(CELL_WORK).await;
        let cost = u32::from(ai != bj);
        let v = (up + 1).min(left + 1).min(diag + cost);
        ctx.store_version(l.cell(i, j), IVER, v).await;
        diag = up;
        left = v;
    }
}

fn run_common(mut m: Machine, cfg: &LevCfg, versioned: bool) -> DsResult {
    let n = cfg.len as u32;
    let a = harness::alloc_data(&m, n * 4);
    let b = harness::alloc_data(&m, n * 4);
    let cells = (n + 1) * (n + 1);
    let d = if versioned {
        harness::alloc_roots(&m, cells)
    } else {
        harness::alloc_data(&m, cells * 4)
    };
    let layout = Rc::new(Layout { a, b, d, len: n });

    // Population: the strings and the base row D[0][*].
    let (sa, sb) = (gen_string(cfg, 0), gen_string(cfg, 1));
    let l2 = Rc::clone(&layout);
    let versioned2 = versioned;
    m.run_tasks(vec![task(move |ctx| async move {
        for (i, &v) in sa.iter().enumerate() {
            ctx.store_u32(l2.a + 4 * i as u32, v).await;
        }
        for (i, &v) in sb.iter().enumerate() {
            ctx.store_u32(l2.b + 4 * i as u32, v).await;
        }
        for j in 0..=l2.len {
            if versioned2 {
                ctx.store_version(l2.cell(0, j), IVER, j).await;
            } else {
                ctx.store_u32(l2.cell(0, j), j).await;
            }
        }
    })])
    .expect("population");
    m.reset_stats();

    let report = if versioned {
        let tasks = (1..=n)
            .map(|i| {
                let l = Rc::clone(&layout);
                task(move |ctx| row_task(ctx, l, i))
            })
            .collect();
        m.run_tasks(tasks).expect("measurement")
    } else {
        let l = Rc::clone(&layout);
        m.run_tasks(vec![task(move |ctx| async move {
            let n = l.len;
            for i in 1..=n {
                ctx.work(ROW_WORK).await;
                let ai = ctx.load_u32(l.a + 4 * (i - 1)).await;
                ctx.store_u32(l.cell(i, 0), i).await;
                let mut left = i;
                let mut diag = ctx.load_u32(l.cell(i - 1, 0)).await;
                for j in 1..=n {
                    let up = ctx.load_u32(l.cell(i - 1, j)).await;
                    let bj = ctx.load_u32(l.b + 4 * (j - 1)).await;
                    ctx.work(CELL_WORK).await;
                    let cost = u32::from(ai != bj);
                    let v = (up + 1).min(left + 1).min(diag + cost);
                    ctx.store_u32(l.cell(i, j), v).await;
                    diag = up;
                    left = v;
                }
            }
        })])
        .expect("measurement")
    };

    let want = reference(cfg);
    let got = {
        let st = m.state();
        let st = st.borrow();
        let cell = layout.cell(n, n);
        if versioned {
            peek_latest(&st, cell).unwrap_or(u32::MAX)
        } else {
            peek_word(&st, cell)
        }
    };
    let ok = got == want;
    let detail = if ok {
        String::new()
    } else {
        format!("distance {got}, expected {want}")
    };
    harness::collect(&m, report.cycles(), ok, detail)
}

/// Versioned parallel (row-pipelined) Levenshtein.
pub fn run_versioned(mcfg: MachineCfg, cfg: &LevCfg) -> DsResult {
    run_common(Machine::new(mcfg), cfg, true)
}

/// Unversioned sequential baseline.
pub fn run_unversioned(mcfg: MachineCfg, cfg: &LevCfg) -> DsResult {
    run_common(Machine::new(mcfg), cfg, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LevCfg {
        LevCfg { len: 32, seed: 9 }
    }

    #[test]
    fn reference_sanity() {
        // Distance of a string to itself is 0.
        let c = LevCfg { len: 16, seed: 4 };
        let a = gen_string(&c, 0);
        assert_eq!(a.len(), 16);
        // The reference of equal strings would be 0; our two strings differ.
        assert!(reference(&c) > 0);
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
    fn versioned_parallel_matches_and_scales() {
        let seq = run_versioned(MachineCfg::paper(1), &small());
        let par = run_versioned(MachineCfg::paper(8), &small());
        seq.assert_ok();
        par.assert_ok();
        assert!(
            par.cycles * 2 < seq.cycles,
            "wavefront pipelining: {} vs {}",
            par.cycles,
            seq.cycles
        );
    }

    #[test]
    fn deterministic() {
        let a = run_versioned(MachineCfg::paper(4), &small());
        let b = run_versioned(MachineCfg::paper(4), &small());
        assert_eq!(a.cycles, b.cycles);
    }
}
