//! A patched plan-cache entry against the plan made from scratch (guards
//! a hazard only patching has).
//!
//! When an extent is added to or removed from an interface a cached text
//! reads, the plan cache patches the entry — the fan-out's member list,
//! the call table spliced, the winner decided again from the costs the
//! miss kept — instead of planning the text again.  A patch that kept a
//! stale call, put a member in the wrong class, gave a member another's
//! call or map, or kept a winner a fresh search would not choose, would
//! change a plan, an answer or a residual.  Over seeded federations of
//! 1–40 members in 1–4 capability classes, each run through a seeded
//! stream of catalog and wrapper changes — members added (in a class the
//! node has, or a new one) and removed, a name added again with another
//! map or repository, a node shrunk to one member, another interface, a
//! view or an interface defined, a wrapper bound again — every cached
//! text's entry after every step must equal what `optimize_text` and
//! `PreparedPlan::new` make against the new catalog over the same, frozen
//! calibration store: the same physical plan and the same calls in the
//! same order — and, patched from the optimizer's own plans, the same
//! logical plan and every alternative's cost bit for bit.  Both are run under a deadline with a fifth of the sources
//! down and must give the same answer and residual.  The steps that took
//! the patch path and those that planned again are counted, per kind.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use disco_algebra::{
    CapabilitySet, ComparisonKind, LogicalExpr, OperatorKind, ScalarExpr, ScalarOp,
};
use disco_catalog::{
    Attribute, Catalog, InterfaceDef, MetaExtent, Repository, TypeMap, TypeRef, ViewDef, WrapperDef,
};
use disco_optimizer::{CalibrationStore, Optimizer, PlanCache};
use disco_runtime::{Answer, Executor, PreparedPlan};
use disco_source::{generator, NetworkProfile, RelationalStore, SimulatedLink};
use disco_value::Value;
use disco_wrapper::{RelationalWrapper, WrapperRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The cached texts: filter and projection, a struct, a sum, a distinct,
/// a join of the interface with itself, the recursive extent, a view,
/// the interface's extent inside a correlated sub-query, and a join of
/// the interface with an explicit union of like branches — folded into a
/// node with no name, which a patch of the interface's node walks past —
/// over `Student` extents, which the stream adds but never removes.
const TEXTS: &[&str] = &[
    "select x.name from x in person where x.salary > 50",
    "select struct(name: x.name, pay: x.salary + 17) from x in person where x.salary > 40",
    "sum(select x.salary from x in person where x.salary > 30)",
    "select distinct struct(pay: x.salary + 5, grp: x.id / 5) from x in person",
    "select struct(a: x.name, b: y.name) from x in person, y in person \
     where x.id = y.id and x.salary > 60",
    "select x.name from x in person* where x.salary < 200",
    "select r.name from r in rich where r.salary < 300",
    "select struct(name: x.name, peers: count(select z.id from z in person \
     where z.salary = x.salary)) from x in person where x.salary > 400",
    "select struct(a: x.name, b: y.name) from x in union(person4, person9), y in person \
     where x.id = y.id and y.salary > 20",
];

/// Member slots of `person`, and of the other interface.
const SLOTS: usize = 48;
const OTHERS: usize = 4;

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

/// What a step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    Add,
    AddInNewClass,
    Remove,
    AddAgain,
    Shrink,
    OtherInterface,
    View,
    Interface,
    Rebind,
}

/// A federation whose every repository and wrapper is registered up
/// front: its steps change extents, views, interfaces and bindings only.
struct Federation {
    catalog: Catalog,
    registry: WrapperRegistry,
    /// Per slot: its store, its link and the class its wrapper is bound
    /// with.
    stores: Vec<Arc<RelationalStore>>,
    links: Vec<Arc<SimulatedLink>>,
    class_of: Vec<usize>,
    /// The classes the federation was built with.
    classes: usize,
    /// Views and interfaces defined so far (for fresh names).
    defined: usize,
}

impl Federation {
    fn new(rng: &mut StdRng, members: usize, classes: usize) -> Self {
        let mut catalog = Catalog::new();
        let person = || {
            [
                Attribute::new("id", TypeRef::Int),
                Attribute::new("name", TypeRef::String),
                Attribute::new("salary", TypeRef::Int),
            ]
        };
        let mut def = InterfaceDef::new("Person").with_extent_name("person");
        for a in person() {
            def = def.with_attribute(a);
        }
        catalog.define_interface(def).unwrap();
        catalog
            .define_interface(
                InterfaceDef::new("Student")
                    .with_extent_name("student")
                    .with_supertype("Person"),
            )
            .unwrap();
        let mut course = InterfaceDef::new("Course").with_extent_name("course");
        for a in person() {
            course = course.with_attribute(a);
        }
        catalog.define_interface(course).unwrap();
        catalog
            .define_view(
                ViewDef::new("rich", "select x from x in person where x.salary > 100")
                    .with_references(["person"]),
            )
            .unwrap();
        let registry = WrapperRegistry::new();
        let sets = capability_classes();
        let (mut stores, mut links, mut class_of) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..SLOTS + OTHERS {
            let wrapper = format!("w{i}");
            catalog
                .add_wrapper(WrapperDef::new(&wrapper, "relational"))
                .unwrap();
            for repository in [format!("r{i}"), format!("r{i}b")] {
                catalog.add_repository(Repository::new(repository)).unwrap();
            }
            let store = Arc::new(RelationalStore::new());
            // The table an identity map reads, and the one a renaming map
            // reads: other rows.
            for (table, seed) in [(format!("person{i}"), 1), (format!("tbl{i}"), 2)] {
                let rows = rng.gen_range(0..10usize);
                store.put_table(generator::person_table(&table, rows, i as u64, seed));
            }
            let mut profile = NetworkProfile {
                jitter: 0.0,
                ..NetworkProfile::fast()
            };
            if rng.gen_bool(0.2) {
                profile = NetworkProfile::unavailable();
            }
            let link = Arc::new(SimulatedLink::new(format!("r{i}"), profile, i as u64));
            // Most slots fall in the federation's classes; a few in one
            // it does not have yet.
            let class = if rng.gen_bool(0.85) {
                rng.gen_range(0..classes)
            } else {
                rng.gen_range(0..4)
            };
            registry.register(Arc::new(
                RelationalWrapper::new(&wrapper, Arc::clone(&store), Arc::clone(&link))
                    .with_capabilities(sets[class]),
            ));
            stores.push(store);
            links.push(link);
            class_of.push(class);
        }
        let mut federation = Federation {
            catalog,
            registry,
            stores,
            links,
            class_of,
            classes,
            defined: 0,
        };
        let mut slots: Vec<usize> = (0..SLOTS).collect();
        for _ in 0..members {
            let at = rng.gen_range(0..slots.len());
            federation.add(slots.swap_remove(at), false, false);
        }
        federation
    }

    fn extent(slot: usize) -> String {
        if slot < SLOTS {
            format!("person{slot}")
        } else {
            format!("course{slot}")
        }
    }

    /// Registers the slot's extent: of `Student` for every fifth slot,
    /// through the renaming map or from the second repository on demand.
    fn add(&mut self, slot: usize, renamed: bool, moved: bool) {
        let name = Self::extent(slot);
        let interface = match slot {
            s if s >= SLOTS => "Course",
            s if s % 5 == 4 => "Student",
            _ => "Person",
        };
        let repository = if moved {
            format!("r{slot}b")
        } else {
            format!("r{slot}")
        };
        let mut extent = MetaExtent::new(&name, interface, format!("w{slot}"), repository);
        if renamed {
            let map = TypeMap::builder()
                .relation(format!("tbl{slot}"), &name)
                .build()
                .unwrap();
            extent = extent.with_map(map);
        }
        self.catalog.add_extent(extent).unwrap();
    }

    fn present(&self) -> Vec<usize> {
        (0..SLOTS + OTHERS)
            .filter(|&slot| self.catalog.extent(&Self::extent(slot)).is_ok())
            .collect()
    }

    /// The `person` members, not `Student`'s.
    fn persons(&self) -> Vec<usize> {
        self.present()
            .into_iter()
            .filter(|&s| s < SLOTS && s % 5 != 4)
            .collect()
    }

    fn absent_person(&self, rng: &mut StdRng, new_class: bool) -> Option<usize> {
        let present = self.present();
        let candidates: Vec<usize> = (0..SLOTS)
            .filter(|s| !present.contains(s))
            .filter(|&s| (self.class_of[s] >= self.classes) == new_class)
            .collect();
        (!candidates.is_empty()).then(|| candidates[rng.gen_range(0..candidates.len())])
    }

    /// One step of the stream; what it did.
    fn step(&mut self, rng: &mut StdRng) -> Step {
        let roll = rng.gen_range(0..100);
        let persons = self.persons();
        let pick = |rng: &mut StdRng, from: &[usize]| from[rng.gen_range(0..from.len())];
        if roll < 30 {
            if let Some(slot) = self.absent_person(rng, false) {
                self.add(slot, false, false);
                return Step::Add;
            }
        } else if roll < 35 {
            if let Some(slot) = self.absent_person(rng, true) {
                self.add(slot, false, false);
                return Step::AddInNewClass;
            }
        } else if roll < 58 {
            if !persons.is_empty() {
                let slot = pick(rng, &persons);
                self.catalog.remove_extent(&Self::extent(slot)).unwrap();
                return Step::Remove;
            }
        } else if roll < 68 {
            if !persons.is_empty() {
                let slot = pick(rng, &persons);
                self.catalog.remove_extent(&Self::extent(slot)).unwrap();
                let renamed = rng.gen_bool(0.5);
                self.add(slot, renamed, !renamed);
                return Step::AddAgain;
            }
        } else if roll < 71 {
            if persons.len() > 1 {
                let keep = pick(rng, &persons);
                for slot in persons.into_iter().filter(|&s| s != keep) {
                    self.catalog.remove_extent(&Self::extent(slot)).unwrap();
                }
                return Step::Shrink;
            }
        } else if roll < 80 {
            let slot = SLOTS + rng.gen_range(0..OTHERS);
            if self.catalog.extent(&Self::extent(slot)).is_ok() {
                self.catalog.remove_extent(&Self::extent(slot)).unwrap();
            } else {
                self.add(slot, false, false);
            }
            return Step::OtherInterface;
        } else if roll < 85 {
            self.defined += 1;
            let name = format!("view{}", self.defined);
            let view = ViewDef::new(&name, "select x from x in course").with_references(["course"]);
            self.catalog.define_view(view).unwrap();
            return Step::View;
        } else if roll < 88 {
            self.defined += 1;
            let name = format!("Interface{}", self.defined);
            self.catalog
                .define_interface(InterfaceDef::new(name))
                .unwrap();
            return Step::Interface;
        } else {
            let slot = pick(rng, &self.present());
            // As bound, or in another class.
            let class = if rng.gen_bool(0.5) {
                self.class_of[slot]
            } else {
                rng.gen_range(0..4)
            };
            self.class_of[slot] = class;
            self.registry.register(Arc::new(
                RelationalWrapper::new(
                    format!("w{slot}"),
                    Arc::clone(&self.stores[slot]),
                    Arc::clone(&self.links[slot]),
                )
                .with_capabilities(capability_classes()[class]),
            ));
            return Step::Rebind;
        }
        // Nothing to do for the roll: add a member in a known class, or
        // define an interface.
        match self.absent_person(rng, false) {
            Some(slot) => {
                self.add(slot, false, false);
                Step::Add
            }
            None => {
                self.defined += 1;
                let name = format!("Interface{}", self.defined);
                self.catalog
                    .define_interface(InterfaceDef::new(name))
                    .unwrap();
                Step::Interface
            }
        }
    }
}

/// A store that has seen some sources answer some shapes: frozen once
/// the federation is built, so a fresh search costs each kept member as
/// the miss that planned it did.
fn seeded_store(rng: &mut StdRng) -> Arc<CalibrationStore> {
    let store = Arc::new(CalibrationStore::new());
    for slot in 0..SLOTS {
        if rng.gen_bool(0.5) {
            continue;
        }
        let get = LogicalExpr::get(format!("person{slot}"));
        let filtered = get.clone().filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(50i64),
        ));
        // Each repository the slot's extent may live in, with its own
        // costs.
        for repository in [format!("r{slot}"), format!("r{slot}b")] {
            let time = f64::from(rng.gen_range(1..40u32)) / 10.0;
            store.record(&repository, &get, time, rng.gen_range(1..12));
            store.record(&repository, &filtered, time / 2.0, rng.gen_range(1..6));
        }
    }
    store
}

fn answer_parts(answer: &Answer) -> (Vec<Value>, Option<String>, bool) {
    let mut values: Vec<Value> = answer.data().iter().cloned().collect();
    values.sort();
    (values, answer.residual_oql(), answer.is_complete())
}

#[test]
fn a_patched_entry_is_the_plan_made_from_scratch() {
    let mut rng = StdRng::seed_from_u64(0x9A7C);
    // Per kind of step: (patched, planned again) lookups.
    let mut paths: BTreeMap<Step, (usize, usize)> = BTreeMap::new();
    let mut compared = 0;
    for seed in 0..10u64 {
        let members = match seed {
            0 => 1,
            1 => 40,
            _ => rng.gen_range(2..=40usize),
        };
        let classes = rng.gen_range(1..=4usize);
        let mut federation = Federation::new(&mut rng, members, classes);
        let store = seeded_store(&mut rng);
        let optimizer = Optimizer::with_store(federation.registry.clone(), store);
        let executor =
            Executor::new(federation.registry.clone()).with_deadline(Some(Duration::from_secs(10)));
        let cache = PlanCache::<PreparedPlan>::default();
        // The optimizer's own plans, patched alike: their costs too.
        let plans = PlanCache::new();
        for step in 0..24 {
            let kind = (step > 0).then(|| federation.step(&mut rng));
            let catalog = &federation.catalog;
            for text in TEXTS {
                let case = format!("seed {seed}, step {step} ({kind:?}), {text}");
                let plan = || -> Result<PreparedPlan, String> {
                    let plan = optimizer
                        .optimize_text(text, catalog)
                        .map_err(|e| e.to_string())?;
                    PreparedPlan::new(plan, catalog).map_err(|e| e.to_string())
                };
                let (patches, (_, misses)) = (cache.patches(), cache.stats());
                let cached = cache.get_or_plan(text, catalog, &optimizer, plan);
                let fresh = plan();
                let optimize = || optimizer.optimize_text(text, catalog);
                if let (Ok(cached), Ok(fresh)) = (
                    plans.get_or_plan(text, catalog, &optimizer, optimize),
                    optimize(),
                ) {
                    assert_eq!(cached.logical, fresh.logical, "{case}");
                    // Bit for bit: every alternative's cost, and the winner.
                    assert_eq!(cached.alternatives, fresh.alternatives, "{case}");
                    assert_eq!(cached.strategy, fresh.strategy, "{case}");
                    assert_eq!(cached.cost, fresh.cost, "{case}");
                }
                let (cached, fresh) = match (cached, fresh) {
                    (Ok(cached), Ok(fresh)) => (cached, fresh),
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "{case}");
                        continue;
                    }
                    (a, b) => panic!("{case}: {:?} against {:?}", a.err(), b.err()),
                };
                assert!(
                    *cached == fresh,
                    "{case}: {}\nagainst {}",
                    cached.physical(),
                    fresh.physical()
                );
                if let Some(kind) = kind {
                    let path = paths.entry(kind).or_default();
                    if cache.patches() > patches {
                        path.0 += 1;
                    } else if cache.stats().1 > misses {
                        path.1 += 1;
                    }
                }
                let by_cached = executor.execute_prepared(&cached).unwrap();
                let by_fresh = executor.execute_prepared(&fresh).unwrap();
                assert_eq!(answer_parts(&by_cached), answer_parts(&by_fresh), "{case}");
                compared += 1;
            }
        }
    }
    println!("(patched, planned again) lookups per kind of step: {paths:?}");
    assert!(compared > 1000, "{compared} entries compared");
    let count = |kind: Step| paths.get(&kind).copied().unwrap_or_default();
    // Members added in a known class and removed patch; another kind of
    // change plans again.
    for kind in [
        Step::Add,
        Step::Remove,
        Step::AddAgain,
        Step::OtherInterface,
    ] {
        assert!(count(kind).0 > 20, "{kind:?}: {:?}", count(kind));
    }
    for kind in [Step::View, Step::Interface] {
        assert_eq!(count(kind).0, 0, "{kind:?}: {:?}", count(kind));
        assert!(count(kind).1 > 0, "{kind:?}: {:?}", count(kind));
    }
    assert!(
        count(Step::AddInNewClass).1 > 0,
        "{:?}",
        count(Step::AddInNewClass)
    );
    assert!(count(Step::Rebind).1 > 0, "{:?}", count(Step::Rebind));
    // A change to another interface touches no node of these texts.
    assert_eq!(count(Step::OtherInterface).1, 0);
    // Most additions patch: those that plan again are a text's first
    // second member, a new class, a class's new first member, a changed
    // winner, and the texts whose calls serve two places or whose node is
    // inside a correlated sub-query.
    assert!(
        count(Step::Add).0 > count(Step::Add).1,
        "{:?}",
        count(Step::Add)
    );
}
