//! Error type for O-structure misuse.

use crate::{TaskId, Version};

/// A violation of the O-structure protocol.
///
/// Semantically valid but *blocking* situations (loading a version that
/// does not exist yet, locking a locked version) are not errors — they
/// suspend the caller. Errors are protocol violations that a correct
/// program never commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OError {
    /// `STORE-VERSION` to a version that already exists ("Once created, a
    /// version can be locked but not modified").
    VersionExists(Version),
    /// `UNLOCK-VERSION` by a task that holds no lock on this cell.
    NotLockOwner(TaskId),
    /// Task id 0 is reserved.
    ReservedTaskId,
    /// A `LOCK-LOAD` by a task that already holds a lock on this cell (on
    /// the carried version); a task holds at most one lock per cell.
    AlreadyHolds(Version),
}

impl std::fmt::Display for OError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OError::VersionExists(v) => write!(f, "version {v} already exists"),
            OError::NotLockOwner(t) => write!(f, "task {t} does not hold a lock on this cell"),
            OError::ReservedTaskId => write!(f, "task id 0 is reserved"),
            OError::AlreadyHolds(v) => {
                write!(
                    f,
                    "the task already holds a lock on version {v} of this cell"
                )
            }
        }
    }
}

impl std::error::Error for OError {}
