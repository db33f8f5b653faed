//! The benchmark harness: the paper's two microbenchmarks and the
//! table generators.
//!
//! - [`ttcp`]: "a memory-to-memory throughput benchmark for TCP that
//!   transfers 16 MB of data from one host to another".
//! - [`protolat`]: "a program that measures protocol round trip latency
//!   for UDP and TCP".
//!
//! Both are written event-driven against the [`psd_core::AppLib`]
//! proxy interface — the same socket API every configuration exports —
//! so a single workload implementation measures all eight systems.
//!
//! Every bin parses its command line with [`cli`] and attaches the
//! observability planes through [`observe`].

pub mod benchdiff;
pub mod cli;
pub mod filterbench;
pub mod json;
pub mod microbench;
pub mod observe;
pub mod scaling;
pub mod selfbench;
pub mod table6;
pub mod tables;

pub use microbench::{protolat, ttcp, ApiStyle, ProtolatResult, TtcpResult};
pub use observe::Observe;
pub use scaling::{session_scaling, ScaleReport, WorkloadSpec};
