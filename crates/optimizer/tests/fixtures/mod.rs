//! What the planner tests share: the query texts and the catalog they are
//! planned against.

use disco_catalog::{
    Attribute, Catalog, InterfaceDef, MetaExtent, Repository, TypeMap, TypeRef, ViewDef, WrapperDef,
};

pub const PERSON_SOURCES: usize = 12;

/// How many repositories [`catalog`] declares.
pub const REPOSITORIES: usize = 26;

/// Every query shape of `tests/{paper_examples,pushdown,scaling}.rs` and
/// of perfbench's six shapes, plus the shapes the rules treat specially
/// (nested unions, whole-variable selects, predicates that cannot be
/// pushed, projections equal to the predicate's columns).
pub const TEXTS: &[&str] = &[
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

/// The catalog of [`TEXTS`]: 26 repositories `r0…r25`, one extent each
/// (repository `r` behind wrapper `w{wrappers[r]}`, of six), plus
/// `manager0` on `r15` beside `employee0`, and six views.
pub fn catalog(wrappers: &[usize; REPOSITORIES]) -> Catalog {
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
            format!("w{}", wrappers[repositories]),
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
    c.add_extent(MetaExtent::new(
        "manager0",
        "Manager",
        format!("w{}", wrappers[15]),
        "r15",
    ))
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
