//! Plan identity: what the planner *finds* is pinned, byte for byte.
//!
//! For every text × capability assignment × calibration store below the
//! test renders every alternative (strategy, printed logical plan, both
//! cost figures as `f64::to_bits`), the winner's strategy and its printed
//! physical plan, and compares the rendering with
//! `plan_identity.golden`.  The golden file was generated at the commit
//! *before* the transformation rules were made to rewrite in place and
//! has not been edited since: a change that makes planning cheaper must
//! leave it untouched, a change that alters which plan is found must say
//! so by regenerating it (`PLAN_IDENTITY_BLESS=1 cargo test -p
//! disco-optimizer --test plan_identity`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use disco_algebra::{CapabilitySet, ComparisonKind, LogicalExpr, OperatorKind};
use disco_algebra::{ScalarExpr, ScalarOp};
use disco_catalog::{
    Attribute, Catalog, InterfaceDef, MetaExtent, Repository, TypeMap, TypeRef, ViewDef, WrapperDef,
};
use disco_optimizer::{CalibrationStore, Optimizer};

const PERSON_SOURCES: usize = 12;

/// Every query shape of `tests/{paper_examples,pushdown,scaling}.rs` and
/// of perfbench's six shapes, plus the shapes the rules treat specially
/// (nested unions, whole-variable selects, predicates that cannot be
/// pushed, projections equal to the predicate's columns).
const TEXTS: &[&str] = &[
    // tests/paper_examples.rs
    "select x.name from x in person where x.salary > 10",
    "select x.name from x in person0 where x.salary > 10",
    "select x.name from x in union(person0, person1) where x.salary > 10",
    "select x.name from x in person* where x.salary > 10",
    "select x.n from x in personprime0 where x.s > 10",
    "select d from d in double",
    "select v from v in multiple",
    "select p.salary from p in personnew",
    // tests/pushdown.rs
    "select e.name from e in employee where e.salary > 880",
    "select d.title from d in report where d.keyword = \"water\"",
    "select d.title from d in report where d.id > 40",
    // tests/scaling.rs
    "count(select m.day from m in measurement where m.ph > 7.5)",
    "select distinct m.site from m in measurement",
    "count(select a.site from a in alkaline)",
    "select struct(site: m.site, ph: m.ph) from m in measurement where m.ph > 8.0",
    // perfbench: filter/project, struct(...), sum, join, distinct, join + distinct
    "select x.name from x in person where x.salary > 5000",
    "select struct(name: x.name, pay: x.salary + 17) from x in person where x.salary > 4990",
    "sum(select x.salary from x in person where x.salary > 5010)",
    "select struct(name: x.name, total: x.salary + y.salary + 3) \
     from x in person0, y in person1 where x.id = y.id",
    "select distinct struct(pay: x.salary + 5, grp: x.id / 500) from x in person",
    "select distinct struct(pay: x.salary + 5, peer: y.salary) \
     from x in person2, y in person3 where x.id = y.id",
    // views, nested selects, explicit and nested unions
    "select y.name from y in (select x from x in person where x.salary > 10) where y.salary < 100",
    "select y.name from y in rich where y.salary < 1000",
    "select n from n in rich_names",
    "select x.name from x in union(person0, union(person1, person2))",
    "select x.name from x in union(person0, person*, student0) where x.id < 7",
    "select x.name from x in empty",
    // what the rules look at: whole variables, no filter, compound and
    // non-pushable predicates, restricted comparisons, column overlap
    "select x from x in person",
    "select x from x in person where x.salary > 10",
    "select x.name from x in person",
    "select x.name from x in person where x.salary > 10 and x.id < 5",
    "select x.name from x in person where not (x.salary > 10)",
    "select x.name from x in person where x.salary = 10",
    "select x.name from x in person where x.salary + 1 > 10",
    "select x.name from x in person where x.name = \"Mary\"",
    "select x.salary from x in person where x.salary > 10",
    "select x.id from x in person where x.salary >= 10 or x.id != 3",
    "select struct(a: x.name) from x in person* where x.salary <= 40",
    // joins: same repository, across repositories, three ways, with an
    // implicit extent on one side
    "select e.name from e in employee0, m in manager0 where e.dept = m.dept",
    "select e.name from e in employee, m in manager0 where e.dept = m.dept and e.salary > 100",
    "select x.name from x in person, s in student0 where x.id = s.id and x.salary > 10",
    "select struct(a: x.name, b: y.name, c: z.name) \
     from x in person0, y in person1, z in person2 where x.id = y.id and y.id = z.id",
    // aggregates, correlated aggregates, data
    "max(select x.salary from x in person)",
    "avg(select x.salary from x in person* where x.id > 2)",
    "select struct(name: x.name, peers: count(select z.id from z in person where z.salary = x.salary)) \
     from x in person0",
    "select b from b in bag(1, 2, 3)",
    "flatten(bag(select x.name from x in person0, select x.name from x in person1))",
];

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let person_attrs = |def: InterfaceDef| {
        def.with_attribute(Attribute::new("id", TypeRef::Int))
            .with_attribute(Attribute::new("name", TypeRef::String))
            .with_attribute(Attribute::new("salary", TypeRef::Int))
    };
    c.define_interface(person_attrs(
        InterfaceDef::new("Person").with_extent_name("person"),
    ))
    .unwrap();
    c.define_interface(InterfaceDef::new("Student").with_supertype("Person"))
        .unwrap();
    c.define_interface(
        InterfaceDef::new("PersonPrime")
            .with_attribute(Attribute::new("n", TypeRef::String))
            .with_attribute(Attribute::new("s", TypeRef::Int)),
    )
    .unwrap();
    c.define_interface(
        InterfaceDef::new("PersonTwo")
            .with_extent_name("persontwo")
            .with_attribute(Attribute::new("name", TypeRef::String))
            .with_attribute(Attribute::new("regular", TypeRef::Int))
            .with_attribute(Attribute::new("consult", TypeRef::Int)),
    )
    .unwrap();
    c.define_interface(
        person_attrs(InterfaceDef::new("Employee").with_extent_name("employee"))
            .with_attribute(Attribute::new("dept", TypeRef::String)),
    )
    .unwrap();
    c.define_interface(
        InterfaceDef::new("Manager")
            .with_extent_name("manager")
            .with_attribute(Attribute::new("dept", TypeRef::String))
            .with_attribute(Attribute::new("boss", TypeRef::String)),
    )
    .unwrap();
    c.define_interface(
        InterfaceDef::new("Report")
            .with_extent_name("report")
            .with_attribute(Attribute::new("id", TypeRef::Int))
            .with_attribute(Attribute::new("title", TypeRef::String))
            .with_attribute(Attribute::new("keyword", TypeRef::String)),
    )
    .unwrap();
    c.define_interface(
        InterfaceDef::new("Measurement")
            .with_extent_name("measurement")
            .with_attribute(Attribute::new("site", TypeRef::String))
            .with_attribute(Attribute::new("day", TypeRef::Int))
            .with_attribute(Attribute::new("ph", TypeRef::Float)),
    )
    .unwrap();
    c.define_interface(InterfaceDef::new("Empty").with_extent_name("empty"))
        .unwrap();

    for w in 0..6 {
        c.add_wrapper(WrapperDef::new(format!("w{w}"), "relational"))
            .unwrap();
    }
    let mut repositories = 0;
    let mut source = |c: &mut Catalog, extent: String, interface: &str, map: Option<TypeMap>| {
        let repository = format!("r{repositories}");
        c.add_repository(Repository::new(repository.clone()))
            .unwrap();
        let mut meta = MetaExtent::new(
            extent,
            interface,
            format!("w{}", repositories % 6),
            repository,
        );
        if let Some(map) = map {
            meta = meta.with_map(map);
        }
        c.add_extent(meta).unwrap();
        repositories += 1;
    };
    for i in 0..PERSON_SOURCES {
        source(&mut c, format!("person{i}"), "Person", None);
    }
    source(&mut c, "student0".into(), "Student", None);
    source(
        &mut c,
        "personprime0".into(),
        "PersonPrime",
        Some(
            TypeMap::builder()
                .relation("person0", "personprime0")
                .attribute("name", "n")
                .attribute("salary", "s")
                .build()
                .unwrap(),
        ),
    );
    source(&mut c, "persontwo0".into(), "PersonTwo", None);
    for i in 0..3 {
        source(&mut c, format!("employee{i}"), "Employee", None);
    }
    for i in 0..2 {
        source(&mut c, format!("report{i}"), "Report", None);
    }
    for i in 0..6 {
        source(&mut c, format!("measurement{i}"), "Measurement", None);
    }
    // The §3.2 employee/manager pair: one repository, one wrapper.
    c.add_extent(MetaExtent::new("manager0", "Manager", "w3", "r15"))
        .unwrap();

    for (name, body, references) in [
        (
            "double",
            "select struct(name: x.name, salary: x.salary + y.salary) \
             from x in person0, y in person1 where x.id = y.id",
            vec!["person0", "person1"],
        ),
        (
            "multiple",
            "select struct(name: x.name, salary: sum(select z.salary from z in person* where x.id = z.id)) \
             from x in person0",
            vec!["person0", "person*"],
        ),
        (
            "personnew",
            "bag(select struct(name: x.name, salary: x.salary) from x in person, \
                 select struct(name: x.name, salary: x.regular + x.consult) from x in persontwo0)",
            vec!["person", "persontwo0"],
        ),
        (
            "alkaline",
            "select struct(site: m.site, ph: m.ph) from m in measurement where m.ph > 8.0",
            vec!["measurement"],
        ),
        (
            "rich",
            "select x from x in person where x.salary > 100",
            vec!["person"],
        ),
        ("rich_names", "select r.name from r in rich", vec!["rich"]),
    ] {
        c.define_view(ViewDef::new(name, body).with_references(references))
            .unwrap();
    }
    c
}

/// Three capability assignments over the catalog's six wrappers.
fn capability_maps() -> Vec<(&'static str, BTreeMap<String, CapabilitySet>)> {
    let all = |caps: CapabilitySet| -> BTreeMap<String, CapabilitySet> {
        (0..6).map(|w| (format!("w{w}"), caps.clone())).collect()
    };
    let mixed = [
        CapabilitySet::full(),
        CapabilitySet::get_only(),
        CapabilitySet::new([OperatorKind::Get, OperatorKind::Project]).with_composition(true),
        CapabilitySet::new([OperatorKind::Get, OperatorKind::Select, OperatorKind::Join])
            .with_composition(true),
        CapabilitySet::new([
            OperatorKind::Get,
            OperatorKind::Select,
            OperatorKind::Project,
        ]),
        CapabilitySet::full().with_comparisons([ComparisonKind::Eq, ComparisonKind::Lt]),
    ];
    vec![
        ("all-capable", all(CapabilitySet::full())),
        (
            "mixed",
            mixed
                .into_iter()
                .enumerate()
                .map(|(w, caps)| (format!("w{w}"), caps))
                .collect(),
        ),
        ("get-only", all(CapabilitySet::get_only())),
    ]
}

/// A store that has seen, on some repositories, a bare `get`, the pushed
/// shape of the paper's intro query and its close match, with times that
/// make pushing cheap on some sources and dear on others; one repository
/// is degraded.
fn seeded_store() -> Arc<CalibrationStore> {
    let store = Arc::new(CalibrationStore::new());
    let salary_above = |k: i64| {
        ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(k),
        )
    };
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = |modulus: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % modulus
    };
    for i in 0..PERSON_SOURCES {
        let repository = format!("r{i}");
        let get = LogicalExpr::get(format!("person{i}"));
        if i % 3 != 2 {
            #[allow(clippy::cast_precision_loss)]
            store.record(
                &repository,
                &get,
                0.25 * next(40) as f64,
                100 + next(900) as usize,
            );
        }
        if i % 2 == 0 {
            let pushed = get
                .clone()
                .project(["name", "salary"])
                .filter(salary_above(10));
            #[allow(clippy::cast_precision_loss)]
            store.record(
                &repository,
                &pushed,
                0.5 * next(60) as f64,
                next(50) as usize,
            );
        }
        if i % 4 == 1 {
            let filtered_first = get
                .clone()
                .filter(salary_above(77))
                .project(["name", "salary"]);
            #[allow(clippy::cast_precision_loss)]
            store.record(
                &repository,
                &filtered_first,
                0.125 * next(80) as f64,
                next(200) as usize,
            );
        }
        if i % 5 == 3 {
            let narrowed = get.project(["name", "salary"]);
            #[allow(clippy::cast_precision_loss)]
            store.record(&repository, &narrowed, 0.5 * next(20) as f64, 400);
        }
    }
    store.note_source_wait("r4", 1.0, 100);
    store.note_source_wait("r4", 9.0, 100);
    store
}

fn render() -> String {
    let catalog = catalog();
    let mut out = String::new();
    for (caps_name, caps) in capability_maps() {
        for (store_name, store) in [
            ("empty", Arc::new(CalibrationStore::new())),
            ("seeded", seeded_store()),
        ] {
            let optimizer = Optimizer::with_store(caps.clone(), store);
            for text in TEXTS {
                writeln!(out, "=== {caps_name} / {store_name} / {text}").unwrap();
                match optimizer.optimize_text(text, &catalog) {
                    Ok(plan) => {
                        for alt in &plan.alternatives {
                            writeln!(
                                out,
                                "alt {} time={:016x} rows={:016x}\n  {}",
                                alt.strategy,
                                alt.cost.time_ms.to_bits(),
                                alt.cost.rows.to_bits(),
                                alt.logical
                            )
                            .unwrap();
                        }
                        writeln!(
                            out,
                            "winner {} time={:016x} rows={:016x}\n  {}",
                            plan.chosen_strategy(),
                            plan.cost.time_ms.to_bits(),
                            plan.cost.rows.to_bits(),
                            plan.physical
                        )
                        .unwrap();
                    }
                    Err(error) => writeln!(out, "error {error}").unwrap(),
                }
            }
        }
    }
    out
}

#[test]
fn every_alternative_cost_and_winner_matches_the_golden_file() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/plan_identity.golden");
    let actual = render();
    if std::env::var_os("PLAN_IDENTITY_BLESS").is_some() {
        std::fs::write(golden_path, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path).unwrap();
    assert!(TEXTS.len() >= 40);
    let planned = actual.lines().filter(|l| l.starts_with("winner ")).count();
    assert!(
        planned >= 40 * 6,
        "only {planned} of {} cases planned",
        TEXTS.len() * 6
    );
    for (line, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "plan_identity.golden line {}", line + 1);
    }
    assert_eq!(golden.lines().count(), actual.lines().count());
}
