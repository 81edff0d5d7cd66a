//! The paper's evaluation workloads (§IV), implemented against the
//! simulated machine.
//!
//! Regular (versioning-only) workloads:
//!
//! * [`matmul`] — chained dense matrix multiplication, `R = (A×B)×C`, with
//!   the intermediate product in O-structures used as I-structures.
//! * [`levenshtein`] — edit-distance dynamic program; row tasks pipeline on
//!   versioned cells of the previous row.
//!
//! Irregular (versioning + renaming + locking) workloads, each in a
//! versioned parallel variant and an unversioned sequential baseline:
//!
//! * [`linked_list`] — sorted singly-linked list, the Fig. 1 pipeline.
//! * [`btree`] — unbalanced binary search tree, plus the read-write-lock
//!   parallel baseline of the snapshot-isolation study (Fig. 8) and range
//!   scans.
//! * [`hashtable`] — chained hash table with in-order root entry.
//! * [`rbtree`] — red-black tree with a single serialized writer and
//!   snapshot readers.
//!
//! The [`harness`] module generates deterministic operation mixes, replays
//! them on a host-side reference to get the sequential semantics, and
//! checks the simulated run (including every lookup/scan result) against
//! it — the "output identical to a sequential execution" property of
//! §IV-D. Its two drivers, `run_per_op` (versioned) and `run_sequential`
//! (unversioned), run every irregular structure; a structure supplies only
//! its setup, population, operation and final-keys hooks.
//!
//! Version-id discipline: see [`vers`]. Task ids map to version *slots* of
//! 16, so one task can write a cell several times (red-black rotations),
//! rename cells it passes (hand-over-hand), and never collide with another
//! task's versions.

pub mod btree;
pub mod harness;
pub mod hashtable;
pub mod levenshtein;
pub mod linked_list;
pub mod matmul;
pub mod rbtree;
pub mod vers;

pub use harness::{DsCfg, DsResult, Op, OpResult};
