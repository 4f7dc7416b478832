//! # disco-value
//!
//! Value model for the DISCO heterogeneous-database mediator reproduction.
//!
//! The DISCO paper (Tomasic, Raschid, Valduriez, 1995/1996) is built on the
//! ODMG-93 object model and the OQL query language.  Queries produce *bags*
//! of values — literals, structs, or nested bags — and, under DISCO's
//! partial-evaluation semantics, an answer may even embed another query.
//! This crate provides the runtime representation of such values:
//!
//! * [`Value`] — a dynamically typed value (null, bool, int, float, string,
//!   struct, list, bag),
//! * [`StructValue`] — an ordered record of named fields, the result of the
//!   OQL `struct(...)` constructor,
//! * [`Bag`] — an unordered multiset, the canonical OQL collection, with
//!   multiset equality and the bag union used throughout the paper
//!   ("In DISCO, the union of two bags is a bag"),
//! * [`ValueError`] — error type for conversions and field access.
//!
//! # Shared (zero-clone) representation
//!
//! The mediator's job is to *combine* bags produced by many autonomous
//! sources, so rows are copied between operators constantly.  To make that
//! combine step O(1) per row, every heap-carrying variant is backed by an
//! [`std::sync::Arc`]:
//!
//! * `Value::Str` holds `Arc<str>`,
//! * [`StructValue`] holds `Arc<[(Arc<str>, Value)]>` — one block per
//!   struct; field names are shared too, so projecting/renaming/merging
//!   rows reuses name storage,
//! * `Value::List` holds `Arc<Vec<Value>>`,
//! * [`Bag`] holds `Arc<Vec<Value>>` with copy-on-write mutation
//!   ([`Bag::insert`]/[`Bag::extend`] mutate in place while unique, clone
//!   only when shared) — or, for the uniform struct rows a relational
//!   wrapper answers with, shared named [`Column`]s under a selection
//!   ([`BagColumns`]): the same bag to every reader, its rows built once
//!   and only if somebody reads rows.
//!
//! `Value::clone` is therefore always a reference-count bump, never a deep
//! copy.  Equality, ordering and hashing form a consistent triangle:
//! `total_cmp` is a total order (floats via [`f64::total_cmp`], structs as
//! field sets, bags as multisets), `Eq` is `total_cmp == Equal`, and
//! `Hash` is canonical with respect to it — numerically equal ints and
//! floats hash identically, a struct hashes its field values in field-name
//! order and a bag its elements in `total_cmp` order, so neither depends
//! on declaration or element order.  That canonical hash is what
//! lets the runtime build hash joins and hash distinct directly on `Value`
//! keys.
//!
//! # Thread safety
//!
//! The whole value plane is immutable-after-construction and `Arc`-backed
//! with **no interior mutability** but one write-once cell — the rows a
//! column-faced [`Bag`] builds for its first reader sit in a
//! [`std::sync::OnceLock`], the same elements in another form, invisible
//! to `Eq`/`Hash`/`Ord` — so every type in this crate is
//! [`Send`] `+` [`Sync`]: a wrapper's answer is built on a worker of the
//! runtime's call executor and read by the query thread while the call is
//! still streaming, and plans holding literal bags are shared between
//! the server's sessions.  This guarantee is load-bearing and is pinned
//! by the compile-time assertions below, so a future variant that
//! introduced `Rc` or `Cell` storage would fail to build rather than
//! quietly making the runtime unsound.
//!
//! # Examples
//!
//! ```
//! use disco_value::{Value, Bag};
//!
//! // The answer of the paper's introductory query:
//! //   select x.name from x in person where x.salary > 10
//! let answer: Bag = ["Mary", "Sam"].into_iter().map(Value::from).collect();
//! assert_eq!(answer.len(), 2);
//! assert_eq!(answer.to_string(), r#"Bag("Mary", "Sam")"#);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bag;
mod chunk;
mod columns;
mod convert;
mod display;
mod error;
mod ord;
pub mod spill;
mod value;

pub use bag::{Bag, BagCursor};
pub use chunk::{ChunkBuilder, Column, ColumnarChunk, FnvHasher, KeyHasher, StrDict, NULL_CODE};
pub use columns::BagColumns;
pub use error::ValueError;
pub use ord::{
    hash_bool, hash_float, hash_int, hash_null, hash_str, hash_struct_head, hash_struct_with,
};
pub use spill::{approx_value_bytes, read_value, write_value, RunReader, RunWriter};
pub use value::{StructValue, Value};

/// Convenience result alias for fallible value operations.
pub type Result<T> = std::result::Result<T, ValueError>;

// Compile-time `Send + Sync` audit (see the crate docs): rows and values
// cross from the call executor's workers to the query thread, so losing
// either auto-trait on any of these types must be a build error, not a
// latent data race.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Value>();
    assert_send_sync::<StructValue>();
    assert_send_sync::<Bag>();
    assert_send_sync::<BagCursor>();
    assert_send_sync::<BagColumns>();
    assert_send_sync::<ValueError>();
    assert_send_sync::<ColumnarChunk>();
    assert_send_sync::<Column>();
    assert_send_sync::<ChunkBuilder>();
};

// A `Value` is three words — rows are moved and cloned by the million — and
// a struct's one block is a wide pointer, no wider than a string's.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Value>() == 24);
