//! Workload builders shared by the experiments and the Criterion benches.
//!
//! Every builder is deterministic (seeded) so the harness output is
//! reproducible run to run.

use std::sync::Arc;

use disco_catalog::{Attribute, InterfaceDef, TypeRef};
use disco_core::{CapabilitySet, Mediator, NetworkProfile};
use disco_source::{generator, SimulatedLink};

/// A federation plus the per-source links for availability injection.
pub struct Federation {
    /// The mediator integrating every source.
    pub mediator: Mediator,
    /// One simulated link per source, in registration order.
    pub links: Vec<Arc<SimulatedLink>>,
}

/// Builds a federation of `n` person sources with `rows` rows each.
#[must_use]
pub fn person_federation(n: usize, rows: usize, capabilities: CapabilitySet) -> Federation {
    person_federation_with_profile(n, rows, capabilities, NetworkProfile::fast())
}

/// Builds a person federation with a specific network profile per source.
#[must_use]
pub fn person_federation_with_profile(
    n: usize,
    rows: usize,
    capabilities: CapabilitySet,
    profile: NetworkProfile,
) -> Federation {
    let mut mediator = Mediator::new("bench-person");
    mediator
        .define_interface(
            InterfaceDef::new("Person")
                .with_extent_name("person")
                .with_attribute(Attribute::new("id", TypeRef::Int))
                .with_attribute(Attribute::new("name", TypeRef::String))
                .with_attribute(Attribute::new("salary", TypeRef::Int)),
        )
        .expect("fresh catalog");
    let mut links = Vec::with_capacity(n);
    for i in 0..n {
        let table = generator::person_table(&format!("person{i}"), rows, i as u64, 97);
        let link = mediator
            .add_relational_source(
                &format!("person{i}"),
                "Person",
                &format!("r{i}"),
                table,
                profile.clone(),
                capabilities,
            )
            .expect("registration succeeds");
        links.push(link);
    }
    Federation { mediator, links }
}

/// Builds a federation of `n` water-quality monitoring stations with
/// `days` measurements each — the paper's environmental application.
#[must_use]
pub fn water_federation(n: usize, days: usize) -> Federation {
    let mut mediator = Mediator::new("bench-water");
    mediator
        .define_interface(
            InterfaceDef::new("Measurement")
                .with_extent_name("measurement")
                .with_attribute(Attribute::new("site", TypeRef::String))
                .with_attribute(Attribute::new("day", TypeRef::Int))
                .with_attribute(Attribute::new("ph", TypeRef::Float))
                .with_attribute(Attribute::new("turbidity", TypeRef::Int))
                .with_attribute(Attribute::new("dissolved_oxygen", TypeRef::Float)),
        )
        .expect("fresh catalog");
    let mut links = Vec::with_capacity(n);
    for i in 0..n {
        let table = generator::water_quality_table(&format!("measurement{i}"), i, days, 41);
        let link = mediator
            .add_relational_source(
                &format!("measurement{i}"),
                "Measurement",
                &format!("r_station{i}"),
                table,
                NetworkProfile::fast(),
                CapabilitySet::full(),
            )
            .expect("registration succeeds");
        links.push(link);
    }
    Federation { mediator, links }
}

/// Deterministic person bag for the E9 evaluator pipelines: `id` cycles
/// over `id_space`, salary over a 0-999 spread.  Shared by the criterion
/// bench and the harness experiment so their workloads cannot drift
/// apart.
#[must_use]
pub fn e9_person_bag(rows: usize, id_space: i64) -> disco_value::Bag {
    use disco_value::{Bag, StructValue, Value};
    let mut bag = Bag::with_capacity(rows);
    for i in 0..rows {
        let i64i = i as i64;
        bag.insert(Value::Struct(
            StructValue::new(vec![
                ("id", Value::Int(i64i % id_space)),
                ("name", Value::from(format!("person-{}", i64i % id_space))),
                ("salary", Value::Int((i64i * 37) % 1000)),
            ])
            .expect("distinct fields"),
        ));
    }
    bag
}

/// E9 pipeline: filter salary > 500, project the name.
#[must_use]
pub fn e9_filter_project_plan(rows: usize) -> disco_algebra::LogicalExpr {
    use disco_algebra::{LogicalExpr, ScalarExpr, ScalarOp};
    LogicalExpr::Data(e9_person_bag(rows, 1024))
        .bind("x")
        .filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::var_field("x", "salary"),
            ScalarExpr::constant(500i64),
        ))
        .map_project(ScalarExpr::var_field("x", "name"))
}

/// E9 pipeline: equi-join `rows` left rows against `rows / 10` right rows
/// on a shared id space, projecting a computed struct.
#[must_use]
pub fn e9_hash_join_plan(rows: usize) -> disco_algebra::LogicalExpr {
    use disco_algebra::{LogicalExpr, ScalarExpr, ScalarOp};
    LogicalExpr::Join {
        left: Box::new(LogicalExpr::Data(e9_person_bag(rows, 1024)).bind("x")),
        right: Box::new(LogicalExpr::Data(e9_person_bag(rows / 10, 1024)).bind("y")),
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
    ]))
}

/// E9 pipeline: project the (cycling) name, then distinct.
#[must_use]
pub fn e9_distinct_plan(rows: usize) -> disco_algebra::LogicalExpr {
    use disco_algebra::{LogicalExpr, ScalarExpr};
    LogicalExpr::Distinct(Box::new(
        LogicalExpr::Data(e9_person_bag(rows, 1024))
            .bind("x")
            .map_project(ScalarExpr::var_field("x", "name")),
    ))
}

/// E9 deep pipeline: filter → hash-join → computed projection → distinct.
///
/// The streaming engine's showcase shape: four chained operators of which
/// only the join build side (`rows / 10` rows) and the distinct seen-set
/// buffer anything; the seed evaluator materialized a full intermediate
/// bag at every one of the four boundaries.
#[must_use]
pub fn e9_deep_pipeline_plan(rows: usize) -> disco_algebra::LogicalExpr {
    use disco_algebra::{LogicalExpr, ScalarExpr, ScalarOp};
    let joined = LogicalExpr::Join {
        left: Box::new(
            LogicalExpr::Data(e9_person_bag(rows, 1024))
                .bind("x")
                .filter(ScalarExpr::binary(
                    ScalarOp::Gt,
                    ScalarExpr::var_field("x", "salary"),
                    ScalarExpr::constant(250i64),
                )),
        ),
        right: Box::new(LogicalExpr::Data(e9_person_bag(rows / 10, 1024)).bind("y")),
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
    ]));
    LogicalExpr::Distinct(Box::new(joined))
}

/// The standard capability levels compared by the pushdown experiment.
#[must_use]
pub fn capability_levels() -> Vec<(&'static str, CapabilitySet)> {
    use disco_algebra::OperatorKind;
    vec![
        ("get", CapabilitySet::get_only()),
        (
            "get+project",
            CapabilitySet::new([OperatorKind::Get, OperatorKind::Project]).with_composition(true),
        ),
        (
            "get+project+select",
            CapabilitySet::new([
                OperatorKind::Get,
                OperatorKind::Project,
                OperatorKind::Select,
            ])
            .with_composition(true),
        ),
        ("full(+join)", CapabilitySet::full()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn person_federation_builds_and_answers() {
        let federation = person_federation(3, 10, CapabilitySet::full());
        assert_eq!(federation.links.len(), 3);
        let answer = federation
            .mediator
            .query("count(select p.id from p in person)")
            .unwrap();
        assert!(answer.is_complete());
    }

    #[test]
    fn water_federation_builds() {
        let water = water_federation(2, 5);
        assert_eq!(water.mediator.catalog().stats().extents, 2);
        assert_eq!(capability_levels().len(), 4);
    }
}
