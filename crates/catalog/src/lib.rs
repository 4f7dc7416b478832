//! # disco-catalog
//!
//! The mediator data model of DISCO (§2 of the paper): an ODMG-93–style
//! schema extended so that *data sources are first-class objects*.
//!
//! The extensions the paper introduces, all implemented here:
//!
//! * **multiple extents per interface** — each [`MetaExtent`] mirrors the
//!   collection of objects in one data source; the implicit extent of an
//!   interface (e.g. `person`) is the union of all its registered extents,
//! * **`MetaExtent`** — the meta-data type recording
//!   `name / interface / wrapper / repository / map` for every source,
//! * **[`Repository`]** — "essentially the address of a database",
//! * **[`WrapperDef`]** — the catalog-level record of a wrapper object,
//! * **local transformation [`TypeMap`]s** — flat renamings between a
//!   mediator type and a data-source type (§2.2.2),
//! * **subtyping** with the recursive-extent syntax `person*` (§2.2.1),
//! * **views** (`define … as …`) for reconciling dissimilar structures
//!   (§2.2.3, §2.3),
//! * **the catalog component** (C in Fig. 1) which tracks which mediator
//!   advertises which interfaces.
//!
//! # Examples
//!
//! ```
//! use disco_catalog::{Catalog, InterfaceDef, Attribute, TypeRef, Repository, WrapperDef, MetaExtent};
//!
//! # fn main() -> Result<(), disco_catalog::CatalogError> {
//! let mut catalog = Catalog::new();
//! catalog.define_interface(
//!     InterfaceDef::new("Person")
//!         .with_extent_name("person")
//!         .with_attribute(Attribute::new("name", TypeRef::String))
//!         .with_attribute(Attribute::new("salary", TypeRef::Int)),
//! )?;
//! catalog.add_repository(Repository::new("r0").with_host("rodin").with_address("123.45.6.7"))?;
//! catalog.add_wrapper(WrapperDef::new("w0", "postgres"))?;
//! catalog.add_extent(MetaExtent::new("person0", "Person", "w0", "r0"))?;
//! assert_eq!(catalog.extents_of_interface("Person", false)?.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog_component;
mod changes;
mod error;
mod handle;
mod map;
mod meta_extent;
mod repository;
mod schema;
mod types;
mod views;
mod wrapper_def;

pub use catalog_component::{CatalogComponent, MediatorAdvertisement};
pub use changes::CatalogChange;
pub use error::CatalogError;
pub use handle::CatalogHandle;
pub use map::{MapEntry, TypeMap};
pub use meta_extent::MetaExtent;
pub use repository::Repository;
pub use schema::{Catalog, NameBinding, NameRef};
pub use types::{Attribute, InterfaceDef, TypeRef};
pub use views::ViewDef;
pub use wrapper_def::WrapperDef;

/// Convenience result alias for catalog operations.
pub type Result<T> = std::result::Result<T, CatalogError>;
