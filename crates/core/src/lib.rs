//! # disco-core
//!
//! The DISCO mediator facade — the single-process Prototype 0 of Fig. 2,
//! combining the ODL/OQL parsers, the internal database (catalog), the
//! query optimizer, the run-time system and the wrapper bindings — plus
//! mediator composition (Fig. 1): mediators can be stacked by exposing a
//! lower mediator to an upper one through [`MediatorWrapper`], and a
//! [`disco_catalog::CatalogComponent`] tracks which mediator advertises
//! which interfaces.
//!
//! The central type is [`Mediator`]; see its documentation for the
//! registration (DBA) and query (end-user) interfaces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod mediator;
mod multi;

pub use error::MediatorError;
pub use mediator::Mediator;
pub use multi::{advertise, MediatorWrapper};

// Re-exported so downstream users of the facade can name the common types
// without depending on every crate individually.
pub use disco_algebra::CapabilitySet;
pub use disco_catalog::{
    Attribute, Catalog, InterfaceDef, MetaExtent, Repository, TypeMap, TypeRef, ViewDef, WrapperDef,
};
pub use disco_optimizer::{CostParams, Explained, Plan};
pub use disco_runtime::{Answer, ExecutionStats};
pub use disco_source::{Availability, NetworkProfile, Table};
pub use disco_value::{Bag, StructValue, Value};

/// Convenience result alias for mediator operations.
pub type Result<T> = std::result::Result<T, MediatorError>;
