//! Shared plan/value generators for the differential test suites: seeded
//! random person bags, random mediator-shaped plans, random partial-answer
//! scenarios with mixed source availability, and a federation of
//! relational person sources behind simulated links.

#![allow(dead_code)] // each integration test compiles its own copy

use std::sync::Arc;

use disco_algebra::{LogicalExpr, ScalarExpr, ScalarOp};
use disco_catalog::{
    Attribute, Catalog, InterfaceDef, MetaExtent, Repository, TypeRef, WrapperDef,
};
use disco_runtime::{ExecKey, ExecOutcome, ResolvedExecs, SourceCallStats};
use disco_source::{generator, NetworkProfile, RelationalStore, SimulatedLink};
use disco_value::{Bag, BagColumns, StructValue, Value};
use disco_wrapper::{RelationalWrapper, WrapperRegistry};
use rand::rngs::StdRng;
use rand::Rng;

pub fn person(id: i64, name: &str, salary: i64) -> Value {
    Value::Struct(
        StructValue::new(vec![
            ("id", Value::Int(id)),
            ("name", Value::from(name)),
            ("salary", Value::Int(salary)),
        ])
        .unwrap(),
    )
}

pub fn random_people(rng: &mut StdRng, rows: usize, id_space: i64) -> Bag {
    (0..rows)
        .map(|_| {
            person(
                rng.gen_range(0..id_space),
                &format!("p{}", rng.gen_range(0..id_space)),
                rng.gen_range(0..100i64),
            )
        })
        .collect()
}

/// A random source pipeline bound to `var`: data, optionally filtered.
pub fn random_branch(rng: &mut StdRng, var: &str) -> LogicalExpr {
    let rows = rng.gen_range(0..30);
    let source = LogicalExpr::Data(random_people(rng, rows, 8)).bind(var);
    if rng.gen_bool(0.5) {
        source.filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::var_field(var, "salary"),
            ScalarExpr::constant(rng.gen_range(0..100i64)),
        ))
    } else {
        source
    }
}

/// One random plan out of the shape families the mediator produces.
pub fn random_plan(rng: &mut StdRng) -> LogicalExpr {
    match rng.gen_range(0..6) {
        // filter → map
        0 => random_branch(rng, "x").map_project(ScalarExpr::var_field("x", "name")),
        // union of branches, optionally distinct
        1 => {
            let n = rng.gen_range(2..4);
            let branches = (0..n)
                .map(|_| random_branch(rng, "x").map_project(ScalarExpr::var_field("x", "name")))
                .collect();
            let union = LogicalExpr::Union(branches);
            if rng.gen_bool(0.5) {
                LogicalExpr::Distinct(Box::new(union))
            } else {
                union
            }
        }
        // equi-join (lowers to a hash join) → computed projection
        2 => LogicalExpr::Join {
            left: Box::new(random_branch(rng, "x")),
            right: Box::new(random_branch(rng, "y")),
            predicate: Some(ScalarExpr::binary(
                ScalarOp::Eq,
                ScalarExpr::var_field("x", "id"),
                ScalarExpr::var_field("y", "id"),
            )),
        }
        .map_project(ScalarExpr::StructLit(vec![
            ("name".into(), ScalarExpr::var_field("x", "name")),
            (
                "total".into(),
                ScalarExpr::binary(
                    ScalarOp::Add,
                    ScalarExpr::var_field("x", "salary"),
                    ScalarExpr::var_field("y", "salary"),
                ),
            ),
        ])),
        // non-equi join (lowers to a nested loop)
        3 => LogicalExpr::Join {
            left: Box::new(random_branch(rng, "x")),
            right: Box::new(random_branch(rng, "y")),
            predicate: Some(ScalarExpr::binary(
                ScalarOp::Lt,
                ScalarExpr::var_field("x", "id"),
                ScalarExpr::var_field("y", "id"),
            )),
        }
        .map_project(ScalarExpr::var_field("x", "name")),
        // aggregate over a mapped, filtered source
        4 => {
            let func = [
                disco_algebra::AggKind::Sum,
                disco_algebra::AggKind::Count,
                disco_algebra::AggKind::Min,
                disco_algebra::AggKind::Max,
                disco_algebra::AggKind::Avg,
            ][rng.gen_range(0..5usize)];
            LogicalExpr::Aggregate {
                func,
                input: Box::new(
                    random_branch(rng, "x").map_project(ScalarExpr::var_field("x", "salary")),
                ),
            }
        }
        // distinct over a join projection (the deep-pipeline shape)
        _ => LogicalExpr::Distinct(Box::new(
            LogicalExpr::Join {
                left: Box::new(random_branch(rng, "x")),
                right: Box::new(random_branch(rng, "y")),
                predicate: Some(ScalarExpr::binary(
                    ScalarOp::Eq,
                    ScalarExpr::var_field("x", "id"),
                    ScalarExpr::var_field("y", "id"),
                )),
            }
            .map_project(ScalarExpr::var_field("y", "name")),
        )),
    }
}

/// `bag` as a relational wrapper would answer with it: column-faced, when
/// its rows are structs of one layout (as it is otherwise, and when
/// empty).
pub fn column_faced(bag: &Bag) -> Bag {
    let rows: Option<Vec<StructValue>> = bag
        .iter()
        .map(|row| row.as_struct().ok().cloned())
        .collect();
    let Some(first) = rows.as_ref().and_then(|rows| rows.first()) else {
        return bag.clone();
    };
    let names: Vec<Arc<str>> = first.field_names().map(Arc::from).collect();
    match BagColumns::image_of(&names, Arc::new(rows.expect("checked above"))) {
        Some(image) => Bag::from_columns(image),
        None => bag.clone(),
    }
}

/// Moves every literal bag of `plan` behind an `exec` call that has
/// answered already, twice: once with the bag as it is (rows) and once
/// [`column_faced`].  The twins must evaluate alike.
pub fn resolved_twins(plan: &LogicalExpr) -> (LogicalExpr, ResolvedExecs, ResolvedExecs) {
    let twins = std::cell::RefCell::new((ResolvedExecs::default(), ResolvedExecs::default()));
    let mut plan = plan.clone();
    plan.rewrite_in_place(&|node| {
        let LogicalExpr::Data(rows) = node else {
            return false;
        };
        let (by_rows, by_columns) = &mut *twins.borrow_mut();
        let i = by_rows.call_count();
        let (extent, repo) = (format!("person{i}"), format!("r{i}"));
        let shipped = LogicalExpr::get(&extent);
        for (resolved, rows) in [(by_rows, rows.clone()), (by_columns, column_faced(rows))] {
            resolved.insert(
                ExecKey::new(&repo, &extent, &shipped),
                ExecOutcome::Rows(rows.clone()),
                stats_for(&repo, &extent, true, rows.len()),
            );
        }
        *node = shipped.submit(repo, "w0", extent);
        true
    });
    let (by_rows, by_columns) = twins.into_inner();
    (plan, by_rows, by_columns)
}

pub fn stats_for(repo: &str, extent: &str, available: bool, rows: usize) -> SourceCallStats {
    SourceCallStats {
        repository: repo.into(),
        extent: extent.into(),
        available,
        rows_returned: rows,
        rows_scanned: rows,
        latency: std::time::Duration::ZERO,
    }
}

/// Builds a random federation query over `n` submit branches and a random
/// resolution in which each source independently answered or not.
pub fn random_partial_scenario(rng: &mut StdRng) -> (LogicalExpr, ResolvedExecs) {
    let n = rng.gen_range(1..5usize);
    let mut resolved = ResolvedExecs::default();
    let mut branches = Vec::with_capacity(n);
    for i in 0..n {
        let extent = format!("person{i}");
        let repo = format!("r{i}");
        let shipped = LogicalExpr::get(&extent);
        let branch = shipped
            .clone()
            .submit(&repo, "w0", &extent)
            .filter(ScalarExpr::binary(
                ScalarOp::Gt,
                ScalarExpr::attr("salary"),
                ScalarExpr::constant(rng.gen_range(0..100i64)),
            ))
            .bind("x")
            .map_project(ScalarExpr::var_field("x", "name"));
        branches.push(branch);
        let key = ExecKey::new(&repo, &extent, &shipped);
        if rng.gen_bool(0.6) {
            let n_rows = rng.gen_range(0..10);
            let rows = random_people(rng, n_rows, 6);
            let len = rows.len();
            resolved.insert(
                key,
                ExecOutcome::Rows(rows),
                stats_for(&repo, &extent, true, len),
            );
        } else {
            resolved.insert(
                key,
                ExecOutcome::Unavailable,
                stats_for(&repo, &extent, false, 0),
            );
        }
    }
    let plan = if branches.len() == 1 {
        branches.into_iter().next().unwrap()
    } else {
        LogicalExpr::Union(branches)
    };
    (plan, resolved)
}

/// A federation of `n` relational person sources (`person0..person{n-1}`
/// on repositories `r0..`), each behind its own simulated link.
pub struct Federation {
    pub catalog: Catalog,
    pub registry: WrapperRegistry,
    pub links: Vec<Arc<SimulatedLink>>,
}

pub fn federation_with(profiles: &[NetworkProfile], rows: usize, seed: u64) -> Federation {
    let mut catalog = Catalog::new();
    catalog
        .define_interface(
            InterfaceDef::new("Person")
                .with_extent_name("person")
                .with_attribute(Attribute::new("id", TypeRef::Int))
                .with_attribute(Attribute::new("name", TypeRef::String))
                .with_attribute(Attribute::new("salary", TypeRef::Int)),
        )
        .unwrap();
    let registry = WrapperRegistry::new();
    let mut links = Vec::new();
    for (i, profile) in profiles.iter().enumerate() {
        let extent = format!("person{i}");
        let repo = format!("r{i}");
        let wrapper_name = format!("w{i}");
        catalog
            .add_wrapper(WrapperDef::new(&wrapper_name, "relational"))
            .unwrap();
        catalog.add_repository(Repository::new(&repo)).unwrap();
        catalog
            .add_extent(MetaExtent::new(&extent, "Person", &wrapper_name, &repo))
            .unwrap();
        let store = Arc::new(RelationalStore::new());
        store.put_table(generator::person_table(&extent, rows, i as u64, seed));
        let link = Arc::new(SimulatedLink::new(&repo, profile.clone(), seed + i as u64));
        registry.register(Arc::new(RelationalWrapper::new(
            &wrapper_name,
            store,
            Arc::clone(&link),
        )));
        links.push(link);
    }
    Federation {
        catalog,
        registry,
        links,
    }
}

/// An instant, deterministic profile (no real sleeps, no jitter).
pub fn instant_profile(chunk_rows: usize) -> NetworkProfile {
    NetworkProfile {
        jitter: 0.0,
        chunk_rows,
        ..NetworkProfile::fast()
    }
}

pub fn branch(i: usize, threshold: i64) -> LogicalExpr {
    LogicalExpr::get(format!("person{i}"))
        .submit(format!("r{i}"), format!("w{i}"), format!("person{i}"))
        .filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(threshold),
        ))
        .bind("x")
        .map_project(ScalarExpr::var_field("x", "name"))
}

/// Waits (bounded) until the process-wide call executor holds no call:
/// the leak check that closes a suite.
pub fn assert_no_calls_in_flight() {
    let give_up = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while disco_runtime::calls_in_flight() > 0 {
        assert!(
            std::time::Instant::now() < give_up,
            "{} wrapper calls still in flight",
            disco_runtime::calls_in_flight()
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}
