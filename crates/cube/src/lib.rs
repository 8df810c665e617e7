//! The data-cube model over boolean dimensions (§III, §IV-A).
//!
//! The paper's problem setting is a relation `R` with *boolean dimensions*
//! `A1..Ab` (categorical attributes queried with equality predicates) and
//! *preference dimensions* `N1..Np` (numeric attributes ranked or
//! skyline-compared). This crate owns the relational side:
//!
//! * [`Schema`] and [`Dictionary`] — named dimensions; string values of
//!   boolean dimensions are dictionary-encoded to dense `u32` codes.
//! * [`Relation`] — a columnar base table with a simulated heap file, so
//!   table scans and random tuple accesses are charged to the same I/O
//!   ledger the indexes use (`DBool` in Fig 9 is exactly the random-access
//!   counter).
//! * [`CuboidMask`], [`CellKey`], [`CellRegistry`] — the cuboid lattice and
//!   dense cell ids. P-Cube materializes the *atomic* (one-dimensional)
//!   cuboids by default and assembles higher-order cells at query time by
//!   signature intersection.
//! * [`Predicate`] / [`Selection`] — conjunctive multi-dimensional boolean
//!   selections, the `WHERE A1 = a1 AND …` part of the paper's queries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cube;
mod predicate;
mod relation;
mod schema;

pub use cube::{group_by, group_rows, CellKey, CellRegistry, CuboidMask, MaterializationPlan};
pub use predicate::{normalize, Predicate, Selection};
pub use relation::Relation;
pub use schema::{Dictionary, Schema};
