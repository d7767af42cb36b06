//! Execution of IR programs over simulated memory.
//!
//! The interpreter runs a [`cmt_ir::Program`] on real `f64` arrays laid
//! out column-major (Fortran), emitting every load and store — with its
//! byte address — to a pluggable [`TraceSink`]. Two uses:
//!
//! * **Cache evaluation** — [`simulate()`] feeds the trace to `cmt-cache`
//!   simulators to regenerate the paper's hit-rate and timing tables;
//! * **Correctness oracle** — run original and transformed programs and
//!   compare final array contents bit-exactly, validating every
//!   transformation end-to-end.
//!
//! # Example
//!
//! ```
//! use cmt_ir::build::ProgramBuilder;
//! use cmt_ir::expr::Expr;
//! use cmt_interp::{Machine, CountingSink};
//!
//! let mut b = ProgramBuilder::new("fill");
//! let n = b.param("N");
//! let a = b.array("A", vec![n.into()]);
//! b.loop_("I", 1, n, |b| {
//!     let i = b.var("I");
//!     let lhs = b.at(a, [i]);
//!     b.assign(lhs, Expr::Const(7.0));
//! });
//! let p = b.finish();
//!
//! let mut m = Machine::new(&p, &[10]).unwrap();
//! let mut sink = CountingSink::default();
//! m.run(&p, &mut sink).unwrap();
//! assert_eq!(sink.stores, 10);
//! assert!(m.array_data(a).iter().all(|&x| x == 7.0));
//! ```

pub mod exec;
pub mod machine;
pub mod simulate;
pub mod sink;
pub mod verify;

pub use exec::{ExecError, ExecSummary};
pub use machine::Machine;
pub use simulate::{simulate, SimCache};
pub use sink::{
    pack_access, unpack_access, CountingSink, NullSink, RecordingSink, SampledSink, TraceSink,
    BATCH_LEN, WRITE_BIT,
};
pub use verify::{assert_equivalent, equivalent, EquivalenceReport};
