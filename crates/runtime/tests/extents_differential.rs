//! The fan-out of an interface's extent against the union it stands for
//! (guards a hazard only the extents node has).
//!
//! An interface's extent is one node from compile to lowering: one branch
//! template per capability class over the members, each member's branch
//! its class's template with its names, its call found by its index.  A
//! member given another class's template, another member's names or
//! another member's call would change an answer, a residual or a plan's
//! text.  Over seeded federations of 1–40 members whose wrappers fall into
//! 1–4 capability classes interleaved in catalog order, and some of whose
//! sources are down, every query shape the planner tests plan is run as
//! optimized — with its fan-outs — and with each fan-out expanded into
//! the `mkunion` of its members' branches: through the executor under a
//! deadline, and through the reference evaluator over materialized
//! outcomes.  Both must give the same multiset, the same residual text
//! (which parses back to itself), and print the same plan.

use std::sync::Arc;
use std::time::Duration;

use disco_algebra::{CapabilitySet, ComparisonKind, LogicalExpr, OperatorKind, PhysicalExpr};
use disco_catalog::{
    Attribute, Catalog, InterfaceDef, MetaExtent, Repository, TypeRef, WrapperDef,
};
use disco_optimizer::Optimizer;
use disco_oql::{parse_query, print_expr};
use disco_runtime::{
    partial_evaluate_reference, reference, resolve_execs, Answer, ExecutionConfig, Executor,
};
use disco_source::{generator, NetworkProfile, RelationalStore, SimulatedLink};
use disco_value::{Bag, Value};
use disco_wrapper::{RelationalWrapper, WrapperRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The query shapes: filter and projection, a struct, a sum, a distinct,
/// a join of two interface extents, a nested select, and an interface's
/// extent inside a correlated sub-query.
const TEXTS: &[&str] = &[
    "select x.name from x in person where x.salary > 50",
    "select struct(name: x.name, pay: x.salary + 17) from x in person where x.salary > 40",
    "sum(select x.salary from x in person where x.salary > 30)",
    "select distinct struct(pay: x.salary + 5, grp: x.id / 5) from x in person",
    "select struct(a: x.name, b: y.name) from x in person, y in person \
     where x.id = y.id and x.salary > 60",
    "select y.name from y in (select x from x in person where x.salary > 10) where y.salary < 90",
    "select struct(name: x.name, peers: count(select z.id from z in person \
     where z.salary = x.salary)) from x in person0",
];

/// The capability classes a wrapper falls into.
fn capability_classes() -> [CapabilitySet; 4] {
    [
        CapabilitySet::full(),
        CapabilitySet::get_only(),
        CapabilitySet::new([
            OperatorKind::Get,
            OperatorKind::Select,
            OperatorKind::Project,
        ]),
        CapabilitySet::full().with_comparisons([ComparisonKind::Eq, ComparisonKind::Lt]),
    ]
}

/// `members` person sources, each behind a wrapper of its own whose
/// capabilities are one of the first `classes` classes, a fifth of them
/// down.
fn federation(rng: &mut StdRng, members: usize, classes: usize) -> (Catalog, WrapperRegistry) {
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
    let sets = capability_classes();
    for i in 0..members {
        let (extent, repository, wrapper) =
            (format!("person{i}"), format!("r{i}"), format!("w{i}"));
        catalog
            .add_wrapper(WrapperDef::new(&wrapper, "relational"))
            .unwrap();
        catalog
            .add_repository(Repository::new(&repository))
            .unwrap();
        catalog
            .add_extent(MetaExtent::new(&extent, "Person", &wrapper, &repository))
            .unwrap();
        let store = Arc::new(RelationalStore::new());
        let rows = rng.gen_range(0..12usize);
        store.put_table(generator::person_table(
            &extent,
            rows,
            i as u64,
            rng.gen_range(0..1000u64),
        ));
        let mut profile = NetworkProfile {
            jitter: 0.0,
            ..NetworkProfile::fast()
        };
        if rng.gen_bool(0.2) {
            profile = NetworkProfile::unavailable();
        }
        let link = Arc::new(SimulatedLink::new(&repository, profile, i as u64));
        let wrapper = RelationalWrapper::new(&wrapper, store, link)
            .with_capabilities(sets[rng.gen_range(0..classes)]);
        registry.register(Arc::new(wrapper));
    }
    (catalog, registry)
}

/// `plan` with every fan-out expanded into the `mkunion` of its members'
/// branches.
fn expanded(plan: &PhysicalExpr) -> PhysicalExpr {
    use PhysicalExpr as P;
    let boxed = |e: &PhysicalExpr| Box::new(expanded(e));
    match plan {
        P::FanOut(node) => P::MkUnion((0..node.members.len()).map(|i| node.branch(i)).collect()),
        P::MkUnion(items) => P::MkUnion(items.iter().map(expanded).collect()),
        P::Exec { .. } | P::MemScan(_) => plan.clone(),
        P::FilterOp { input, predicate } => P::FilterOp {
            input: boxed(input),
            predicate: predicate.clone(),
        },
        P::ProjectOp { input, columns } => P::ProjectOp {
            input: boxed(input),
            columns: columns.clone(),
        },
        P::MapOp { input, projection } => P::MapOp {
            input: boxed(input),
            projection: projection.clone(),
        },
        P::BindOp { var, input } => P::BindOp {
            var: var.clone(),
            input: boxed(input),
        },
        P::NestedLoopJoin {
            left,
            right,
            predicate,
        } => P::NestedLoopJoin {
            left: boxed(left),
            right: boxed(right),
            predicate: predicate.clone(),
        },
        P::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => P::HashJoin {
            left: boxed(left),
            right: boxed(right),
            left_key: left_key.clone(),
            right_key: right_key.clone(),
            residual: residual.clone(),
        },
        P::MergeTuplesJoin { left, right, on } => P::MergeTuplesJoin {
            left: boxed(left),
            right: boxed(right),
            on: on.clone(),
        },
        P::MkFlatten(inner) => P::MkFlatten(boxed(inner)),
        P::MkDistinct(inner) => P::MkDistinct(boxed(inner)),
        P::MkAggregate { func, input } => P::MkAggregate {
            func: *func,
            input: boxed(input),
        },
    }
}

fn fan_outs(plan: &PhysicalExpr) -> usize {
    let mut count = 0;
    plan.walk(&mut |node| count += usize::from(matches!(node, PhysicalExpr::FanOut(_))));
    count
}

fn sorted(bag: &Bag) -> Vec<Value> {
    let mut values: Vec<Value> = bag.iter().cloned().collect();
    values.sort();
    values
}

/// The residual's text, checked to parse back to itself.
fn residual_text(residual: Option<&LogicalExpr>, case: &str) -> Option<String> {
    let text = print_expr(&disco_algebra::logical_to_oql(residual?));
    let reparsed = parse_query(&text).unwrap_or_else(|e| panic!("{case}: {text}: {e}"));
    assert_eq!(
        print_expr(&reparsed),
        text,
        "{case}: the residual re-parses"
    );
    Some(text)
}

fn answer_parts(answer: &Answer, case: &str) -> (Vec<Value>, Option<String>) {
    let text = answer.residual_oql();
    if let Some(text) = &text {
        let reparsed = parse_query(text).unwrap_or_else(|e| panic!("{case}: {text}: {e}"));
        assert_eq!(
            &print_expr(&reparsed),
            text,
            "{case}: the residual re-parses"
        );
    }
    (sorted(answer.data()), text)
}

#[test]
fn a_fan_out_answers_as_the_union_of_its_members_branches() {
    let mut rng = StdRng::seed_from_u64(0xE7E5);
    let (mut cases, mut partial, mut classed) = (0, 0, 0);
    for seed in 0..24u64 {
        let members = match seed {
            0 => 1,
            1 => 40,
            _ => rng.gen_range(2..=40usize),
        };
        let classes = rng.gen_range(1..=4usize);
        let (catalog, registry) = federation(&mut rng, members, classes);
        let optimizer = Optimizer::new(registry.clone());
        let executor = Executor::new(registry.clone()).with_deadline(Some(Duration::from_secs(10)));
        let config = ExecutionConfig {
            deadline: Some(Duration::from_secs(10)),
            ..ExecutionConfig::default()
        };
        for text in TEXTS {
            let case = format!("seed {seed}, {members} members in {classes} classes, {text}");
            let plan = optimizer.optimize_text(text, &catalog).unwrap();
            let node = &plan.physical;
            let union = expanded(node);
            // The correlated sub-query's node is lowered as it runs.
            let correlated = text.contains("peers");
            assert_eq!(
                fan_outs(node) > 0,
                members > 1 && !correlated,
                "{case}: {node}"
            );
            plan.logical.walk(&mut |e| {
                if let LogicalExpr::Extents(extents) = e {
                    classed += usize::from(extents.templates.len() > 1);
                }
            });
            // Explained alike.
            assert_eq!(node.to_string(), union.to_string(), "{case}");
            assert_eq!(
                node.to_logical().to_string(),
                union.to_logical().to_string(),
                "{case}"
            );

            // Executed alike, under a deadline.
            let by_node = executor.execute(node, &catalog).unwrap();
            let by_union = executor.execute(&union, &catalog).unwrap();
            let (node_data, node_residual) = answer_parts(&by_node, &case);
            let (union_data, union_residual) = answer_parts(&by_union, &case);
            assert_eq!(node_data, union_data, "{case}");
            assert_eq!(node_residual, union_residual, "{case}");
            assert_eq!(by_node.is_complete(), by_union.is_complete(), "{case}");
            assert_eq!(
                by_node.unavailable_sources(),
                by_union.unavailable_sources(),
                "{case}"
            );
            disco_runtime_calls_drained(&case);

            // Evaluated alike by the reference evaluator.
            let resolved = resolve_execs(node, &registry, &catalog, &config).unwrap();
            if resolved.all_available() {
                assert!(by_node.is_complete(), "{case}");
                let by_reference = reference::evaluate_physical(node, &resolved).unwrap();
                let union_resolved = resolve_execs(&union, &registry, &catalog, &config).unwrap();
                let by_union_reference =
                    reference::evaluate_physical(&union, &union_resolved).unwrap();
                assert_eq!(sorted(&by_reference), node_data, "{case}");
                assert_eq!(sorted(&by_union_reference), node_data, "{case}");
            } else {
                partial += 1;
                let (data, residual) =
                    partial_evaluate_reference(&node.to_logical(), &resolved).unwrap();
                let (union_data, union_residual) =
                    partial_evaluate_reference(&union.to_logical(), &resolved).unwrap();
                assert_eq!(sorted(&data), sorted(&union_data), "{case}");
                let residual = residual_text(residual.as_ref(), &case);
                assert_eq!(
                    residual,
                    residual_text(union_residual.as_ref(), &case),
                    "{case}"
                );
                assert_eq!(residual, node_residual, "{case}");
                assert_eq!(sorted(&data), node_data, "{case}");
            }
            cases += 1;
        }
    }
    assert_eq!(cases, 24 * TEXTS.len());
    assert!(partial > 20, "{partial} partial cases");
    assert!(classed > 10, "{classed} plans with two classes or more");
}

/// Every wrapper call has wound down.
fn disco_runtime_calls_drained(case: &str) {
    for _ in 0..200 {
        if disco_runtime::calls_in_flight() == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("{case}: calls still in flight");
}

/// A resolution may outlive the plan it was made for, and a fan-out
/// lowered later may take its place in memory: its members' calls are
/// found by what they ship, and a wider fan-out's extra members are
/// reported unresolved.
#[test]
fn a_resolution_serves_a_fan_out_lowered_again() {
    let mut rng = StdRng::seed_from_u64(0xA11);
    let (catalog, registry) = federation(&mut rng, 6, 2);
    let (wider, _) = federation(&mut StdRng::seed_from_u64(0xA12), 9, 2);
    let optimizer = Optimizer::new(registry.clone());
    let config = ExecutionConfig::default();
    for _ in 0..16 {
        let plan = optimizer
            .optimize_text(TEXTS[0], &catalog)
            .unwrap()
            .physical;
        let resolved = resolve_execs(&plan, &registry, &catalog, &config).unwrap();
        let expected = reference::evaluate_physical(&plan, &resolved).map(|bag| sorted(&bag));
        drop(plan);
        let again = optimizer
            .optimize_text(TEXTS[0], &catalog)
            .unwrap()
            .physical;
        let found = disco_runtime::evaluate_physical(&again, &resolved).map(|bag| sorted(&bag));
        assert_eq!(
            found.map_err(|e| e.to_string()),
            expected.map_err(|e| e.to_string())
        );
        drop(again);
        let wide = optimizer.optimize_text(TEXTS[0], &wider).unwrap().physical;
        assert!(disco_runtime::evaluate_physical(&wide, &resolved).is_err());
    }
}
