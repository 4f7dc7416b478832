//! Integration tests for capability-driven query processing (§1.4, §3.2):
//! the optimizer pushes work onto wrappers exactly when their advertised
//! capabilities allow it, answers are identical either way, and pushing
//! reduces the data transferred from sources.

use disco::algebra::{CapabilityGrammar, CapabilitySet, LogicalExpr, OperatorKind, PhysicalExpr};
use disco::core::{Attribute, InterfaceDef, Mediator, NetworkProfile, TypeRef};
use disco::source::generator;

const ROWS_PER_SOURCE: usize = 200;

fn mediator_with_capabilities(caps: CapabilitySet) -> Mediator {
    let mut m = Mediator::new("caps");
    m.define_interface(
        InterfaceDef::new("Employee")
            .with_extent_name("employee")
            .with_attribute(Attribute::new("id", TypeRef::Int))
            .with_attribute(Attribute::new("name", TypeRef::String))
            .with_attribute(Attribute::new("dept", TypeRef::Int))
            .with_attribute(Attribute::new("salary", TypeRef::Int)),
    )
    .unwrap();
    for i in 0..2 {
        m.add_relational_source(
            &format!("employee{i}"),
            "Employee",
            &format!("r{i}"),
            generator::employee_table(&format!("employee{i}"), ROWS_PER_SOURCE, 8, i as u64),
            NetworkProfile::fast(),
            caps,
        )
        .unwrap();
    }
    m
}

const SELECTIVE_QUERY: &str = "select e.name from e in employee where e.salary > 880";

#[test]
fn answers_are_identical_regardless_of_wrapper_power() {
    let full = mediator_with_capabilities(CapabilitySet::full());
    let minimal = mediator_with_capabilities(CapabilitySet::get_only());
    let a = full.query(SELECTIVE_QUERY).unwrap();
    let b = minimal.query(SELECTIVE_QUERY).unwrap();
    assert_eq!(
        a.data(),
        b.data(),
        "semantics must not depend on capabilities"
    );
    assert!(a.is_complete() && b.is_complete());
}

#[test]
fn pushdown_transfers_fewer_rows_than_get_only() {
    let full = mediator_with_capabilities(CapabilitySet::full());
    let minimal = mediator_with_capabilities(CapabilitySet::get_only());
    let pushed = full.query(SELECTIVE_QUERY).unwrap();
    let shipped_everything = minimal.query(SELECTIVE_QUERY).unwrap();
    assert!(
        pushed.stats().rows_transferred < shipped_everything.stats().rows_transferred,
        "pushdown {} rows vs full fetch {} rows",
        pushed.stats().rows_transferred,
        shipped_everything.stats().rows_transferred
    );
    assert_eq!(
        shipped_everything.stats().rows_transferred,
        2 * ROWS_PER_SOURCE,
        "a get-only wrapper must ship whole collections"
    );
}

#[test]
fn e3_get_only_ships_everything_and_project_narrows() {
    let minimal = mediator_with_capabilities(CapabilitySet::get_only());
    let shipped_everything = minimal.query(SELECTIVE_QUERY).unwrap();
    assert_eq!(
        shipped_everything.stats().rows_transferred,
        2 * ROWS_PER_SOURCE,
        "a get-only wrapper must ship whole collections"
    );

    // A wrapper that can project but not select ships every row, but
    // narrower tuples than the interface's four attributes.  Planned cold,
    // as its first query is: no call has been observed yet.
    let projecting = mediator_with_capabilities(
        CapabilitySet::new([OperatorKind::Get, OperatorKind::Project]).with_composition(true),
    );
    let shipped_widths = |m: &Mediator| -> Vec<Option<usize>> {
        let plan = m.explain(SELECTIVE_QUERY).unwrap().plan;
        plan.physical
            .collect_execs()
            .into_iter()
            .map(|exec| match exec {
                PhysicalExpr::Exec { logical, .. } => match &*logical {
                    LogicalExpr::Project { columns, .. } => Some(columns.len()),
                    _ => None,
                },
                _ => unreachable!("collect_execs returns exec nodes"),
            })
            .collect()
    };
    assert_eq!(shipped_widths(&minimal), [None, None], "whole tuples");
    let narrow = shipped_widths(&projecting);
    assert_eq!(narrow.len(), 2);
    assert!(
        narrow.iter().all(|w| matches!(w, Some(w) if *w < 4)),
        "shipped widths {narrow:?}"
    );
    let narrowed = projecting.query(SELECTIVE_QUERY).unwrap();
    assert_eq!(narrowed.data(), shipped_everything.data());
    assert_eq!(narrowed.stats().rows_transferred, 2 * ROWS_PER_SOURCE);
}

#[test]
fn plan_shapes_reflect_capabilities() {
    let full = mediator_with_capabilities(CapabilitySet::full());
    let minimal = mediator_with_capabilities(CapabilitySet::get_only());
    let pushed_plan = full.explain(SELECTIVE_QUERY).unwrap().plan;
    let minimal_plan = minimal.explain(SELECTIVE_QUERY).unwrap().plan;
    let pushed_text = pushed_plan.logical.to_string();
    let minimal_text = minimal_plan.logical.to_string();
    // Full wrappers receive select/project inside the submit…
    assert!(
        pushed_text.contains("submit(r0, project(") || pushed_text.contains("submit(r0, select("),
        "expected pushdown in: {pushed_text}"
    );
    // …get-only wrappers receive exactly `get(extent)`.
    assert!(
        minimal_text.contains("submit(r0, get(employee0))"),
        "expected bare get in: {minimal_text}"
    );
    assert!(pushed_plan.alternatives.len() >= 2);
}

#[test]
fn mixed_capability_federation_pushes_per_source() {
    let mut m = Mediator::new("mixed");
    m.define_interface(
        InterfaceDef::new("Employee")
            .with_extent_name("employee")
            .with_attribute(Attribute::new("id", TypeRef::Int))
            .with_attribute(Attribute::new("name", TypeRef::String))
            .with_attribute(Attribute::new("dept", TypeRef::Int))
            .with_attribute(Attribute::new("salary", TypeRef::Int)),
    )
    .unwrap();
    m.add_relational_source(
        "employee0",
        "Employee",
        "r0",
        generator::employee_table("employee0", ROWS_PER_SOURCE, 8, 0),
        NetworkProfile::fast(),
        CapabilitySet::full(),
    )
    .unwrap();
    m.add_relational_source(
        "employee1",
        "Employee",
        "r1",
        generator::employee_table("employee1", ROWS_PER_SOURCE, 8, 1),
        NetworkProfile::fast(),
        CapabilitySet::get_only(),
    )
    .unwrap();
    let plan = m.explain(SELECTIVE_QUERY).unwrap().plan;
    let text = plan.logical.to_string();
    assert!(
        text.contains("submit(r1, get(employee1))"),
        "legacy source receives only get: {text}"
    );
    assert!(
        text.contains("submit(r0, project(") || text.contains("submit(r0, select("),
        "capable source receives pushed operators: {text}"
    );
    // The answer combines both sources and matches the all-full federation.
    let answer = m.query(SELECTIVE_QUERY).unwrap();
    let reference = mediator_with_capabilities(CapabilitySet::full())
        .query(SELECTIVE_QUERY)
        .unwrap();
    assert_eq!(answer.data(), reference.data());
}

#[test]
fn join_is_pushed_only_when_both_relations_live_in_the_same_repository() {
    // Built directly on the algebra, as the §3.2 employee/manager example.
    use disco::algebra::rules::push_join_into_submit;
    use std::collections::BTreeMap;

    let mut caps = BTreeMap::new();
    caps.insert("w0".to_owned(), CapabilitySet::full());
    let same_repo = LogicalExpr::SourceJoin {
        left: Box::new(LogicalExpr::get("employee0").submit("r0", "w0", "employee0")),
        right: Box::new(LogicalExpr::get("manager0").submit("r0", "w0", "manager0")),
        on: vec![("dept".into(), "dept".into())],
    };
    let mut pushed = same_repo.clone();
    assert!(push_join_into_submit(&mut pushed, &caps));
    assert_eq!(
        pushed.to_string(),
        "submit(r0, join(get(employee0), get(manager0), dept=dept))"
    );
    let mut cross_repo = LogicalExpr::SourceJoin {
        left: Box::new(LogicalExpr::get("employee0").submit("r0", "w0", "employee0")),
        right: Box::new(LogicalExpr::get("manager1").submit("r1", "w0", "manager1")),
        on: vec![("dept".into(), "dept".into())],
    };
    let untouched = cross_repo.clone();
    assert!(
        !push_join_into_submit(&mut cross_repo, &caps),
        "submit has RPC semantics: semijoin-style shipping between sources is impossible"
    );
    assert_eq!(cross_repo, untouched);
}

/// The price of `submit`'s RPC semantics (§3.2), pinned as numbers: a
/// join inside one repository ships only its result; across repositories
/// both inputs ship to the mediator, although a semijoin — keys one way,
/// matching rows back — would ship strictly fewer rows.
#[test]
fn a_cross_repository_join_ships_both_inputs_and_a_semijoin_would_ship_fewer() {
    use disco::algebra::{lower, ScalarExpr, ScalarOp};
    use disco::catalog::{Catalog, MetaExtent, Repository, WrapperDef};
    use disco::runtime::Executor;
    use disco::source::{RelationalStore, SimulatedLink};
    use disco::wrapper::{RelationalWrapper, WrapperRegistry};
    use std::sync::Arc;

    // Managers exist for two of eight departments, so the join is
    // selective: the case where a semijoin would pay off.
    let (departments, managed) = (8, 2);
    let mut catalog = Catalog::new();
    catalog
        .define_interface(
            InterfaceDef::new("Employee")
                .with_extent_name("employee")
                .with_attribute(Attribute::new("id", TypeRef::Int))
                .with_attribute(Attribute::new("name", TypeRef::String))
                .with_attribute(Attribute::new("dept", TypeRef::Int))
                .with_attribute(Attribute::new("salary", TypeRef::Int)),
        )
        .unwrap();
    catalog
        .define_interface(
            InterfaceDef::new("Manager")
                .with_extent_name("manager")
                .with_attribute(Attribute::new("name", TypeRef::String))
                .with_attribute(Attribute::new("dept", TypeRef::Int)),
        )
        .unwrap();
    // `r0` holds employees and managers, `r1` managers only.
    let registry = WrapperRegistry::new();
    let employees = generator::employee_table("employee0", ROWS_PER_SOURCE, departments, 11);
    let matching_employees = employees
        .rows()
        .iter()
        .filter(|row| row.field("dept").unwrap().as_int().unwrap() < managed as i64)
        .count();
    let sources = [
        (
            "r0",
            "w0",
            vec![
                (employees, "Employee"),
                (generator::manager_table("manager0", managed, 11), "Manager"),
            ],
        ),
        (
            "r1",
            "w1",
            vec![(generator::manager_table("manager1", managed, 11), "Manager")],
        ),
    ];
    for (seed, (repo, wrapper, tables)) in (1..).zip(sources) {
        catalog.add_repository(Repository::new(repo)).unwrap();
        catalog
            .add_wrapper(WrapperDef::new(wrapper, "relational"))
            .unwrap();
        let store = Arc::new(RelationalStore::new());
        for (table, interface) in tables {
            catalog
                .add_extent(MetaExtent::new(table.name(), interface, wrapper, repo))
                .unwrap();
            store.put_table(table);
        }
        let link = Arc::new(SimulatedLink::new(repo, NetworkProfile::fast(), seed));
        registry.register(Arc::new(RelationalWrapper::new(wrapper, store, link)));
    }
    let executor = Executor::new(registry);
    let run = |plan: &LogicalExpr| {
        let answer = executor.execute(&lower(plan).unwrap(), &catalog).unwrap();
        assert!(answer.is_complete());
        (answer.stats().rows_transferred, answer.data().len())
    };

    let pushed = LogicalExpr::SourceJoin {
        left: Box::new(LogicalExpr::get("employee0")),
        right: Box::new(LogicalExpr::get("manager0")),
        on: vec![("dept".into(), "dept".into())],
    }
    .submit("r0", "w0", "employee0");
    let (pushed_transferred, pushed_rows) = run(&pushed);
    assert_eq!(pushed_rows, matching_employees);
    assert_eq!(
        pushed_transferred, pushed_rows,
        "only the join result crosses the network"
    );

    let scan = |extent: &str, repo: &str, wrapper: &str, var: &str| {
        Box::new(
            LogicalExpr::get(extent)
                .submit(repo, wrapper, extent)
                .bind(var),
        )
    };
    let cross = LogicalExpr::Join {
        left: scan("employee0", "r0", "w0", "x"),
        right: scan("manager1", "r1", "w1", "y"),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "dept"),
            ScalarExpr::var_field("y", "dept"),
        )),
    }
    .map_project(ScalarExpr::var_field("x", "name"));
    let (cross_transferred, cross_rows) = run(&cross);
    assert_eq!(cross_rows, matching_employees);
    assert_eq!(
        cross_transferred,
        ROWS_PER_SOURCE + managed,
        "both inputs ship whole"
    );

    // Distinct manager keys one way, the matching employees back.
    let semijoin_bound = managed + matching_employees;
    assert!(
        semijoin_bound < cross_transferred,
        "semijoin {semijoin_bound} rows vs mediator join {cross_transferred}"
    );
}

#[test]
fn capability_grammars_travel_as_text_between_wrapper_and_mediator() {
    // §3.2: the wrapper returns a grammar; the mediator reconstructs the
    // capability set from it and checks expressions against it.
    let advertised =
        CapabilitySet::new([OperatorKind::Get, OperatorKind::Project]).with_composition(true);
    let grammar_text = advertised.to_grammar().to_string();
    assert!(grammar_text.contains("project OPEN ATTRIBUTE COMMA s CLOSE"));
    let parsed = CapabilityGrammar::parse(&grammar_text).unwrap();
    let reconstructed = CapabilitySet::from_grammar(&parsed).unwrap();
    let pushed = LogicalExpr::get("person0").project(["name"]);
    assert!(reconstructed.accepts(&pushed).is_ok());
    let filter = LogicalExpr::get("person0").filter(disco::algebra::ScalarExpr::binary(
        disco::algebra::ScalarOp::Gt,
        disco::algebra::ScalarExpr::attr("salary"),
        disco::algebra::ScalarExpr::constant(10i64),
    ));
    assert!(reconstructed.accepts(&filter).is_err());
}

#[test]
fn document_sources_expose_restricted_selects_only() {
    let mut m = Mediator::new("docs");
    m.define_interface(
        InterfaceDef::new("Report")
            .with_extent_name("report")
            .with_attribute(Attribute::new("id", TypeRef::Int))
            .with_attribute(Attribute::new("title", TypeRef::String))
            .with_attribute(Attribute::new("body", TypeRef::String))
            .with_attribute(Attribute::new("keyword", TypeRef::String)),
    )
    .unwrap();
    m.add_document_source(
        "report0",
        "Report",
        "r_doc",
        generator::document_store(60, 5),
        NetworkProfile::fast(),
    )
    .unwrap();
    // Equality on the keyword pseudo-attribute uses the native index and is
    // pushable; a range predicate on id is not and runs at the mediator.
    let keyword = m
        .query("select d.title from d in report where d.keyword = \"water\"")
        .unwrap();
    let range = m
        .query("select d.title from d in report where d.id > 40")
        .unwrap();
    assert!(keyword.is_complete() && range.is_complete());
    assert!(keyword.stats().rows_transferred <= 60);
    assert_eq!(
        range.stats().rows_transferred,
        60,
        "range predicates cannot be pushed"
    );
}
