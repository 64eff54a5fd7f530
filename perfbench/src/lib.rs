//! End-to-end and per-layer benchmark of the non-answer debugger.
//!
//! Three workloads drive the system through its real entry points: the
//! `kwserve` server and `DebugClient` for served traffic, and
//! `kwdebug::MutableDatabase` for writes. A traced run replays the same
//! inputs through each layer's public functions to attribute time and work
//! to layers. See `README.md` beside this crate for the workloads, every
//! metric and how to run it.

pub mod gen;
pub mod report;
pub mod run;
pub mod served;
pub mod trace;
pub mod workload;
pub mod writes;
