//! # qudit-circuit
//!
//! A circuit intermediate representation for `d`-level qudits, mirroring the
//! abstractions the paper builds on top of Google's Cirq: named gates,
//! operations with per-control activation levels, circuits, as-early-as-
//! possible moment scheduling, cost analysis, and fast classical
//! (basis-state) simulation for exhaustive verification.
//!
//! ## Example
//!
//! ```
//! use qudit_circuit::{classical, Circuit, Control, Gate, Schedule};
//!
//! // The paper's Figure 4: a Toffoli on qubit inputs, implemented with
//! // three two-qutrit gates by borrowing the |2⟩ state.
//! let mut toffoli = Circuit::new(3, 3);
//! toffoli.push_controlled(Gate::increment(3), &[Control::on_one(0)], &[1])?;
//! toffoli.push_controlled(Gate::x(3), &[Control::on_two(1)], &[2])?;
//! toffoli.push_controlled(Gate::decrement(3), &[Control::on_one(0)], &[1])?;
//!
//! assert_eq!(Schedule::asap(&toffoli).depth(), 3);
//! assert_eq!(classical::simulate_classical(&toffoli, &[1, 1, 0])?, vec![1, 1, 1]);
//! assert_eq!(classical::simulate_classical(&toffoli, &[1, 0, 0])?, vec![1, 0, 0]);
//! # Ok::<(), qudit_circuit::CircuitError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod circuit;
pub mod classical;
pub mod cost;
pub mod decompose;
mod error;
mod gate;
mod operation;
pub mod passes;
pub mod routing;
mod schedule;
#[cfg(feature = "serde")]
mod serde_impls;
pub mod topology;

pub use circuit::Circuit;
pub use cost::CircuitCosts;
pub use decompose::decompose_operation;
pub use error::{CircuitError, CircuitResult};
pub use gate::Gate;
pub use operation::{Control, Operation};
pub use passes::{KernelClass, PassLevel, ResourceReport, RoutedCosts};
pub use routing::RoutingSummary;
pub use schedule::{Frame, FrameDuration, FrameSchedule, Moment, Schedule};
pub use topology::{Topology, TopologyKind};
