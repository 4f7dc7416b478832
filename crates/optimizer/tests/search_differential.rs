//! The search by decisions against a brute force (guards a hazard only
//! the one-tree planner has).
//!
//! The planner costs every alternative without building it: one rewrite
//! per class of like push sites, each site costed with its own names
//! spliced into the class's calibration keys.  A class that groups sites
//! which do not rewrite alike — names equal in one and not in the other,
//! wrappers of different capabilities — or a key spliced with the wrong
//! names would change a cost or a winner.  The brute force here is the
//! planner as it was: build every alternative's tree, drop repeats, lower
//! and cost each, take the cheapest by (time, size).  Over seeded
//! federations (capability sets assigned at random to the six wrappers,
//! so like-typed sources fall into interleaved classes) and seeded stores
//! (exact, close and default estimates, degraded repositories) every text
//! of `plan_identity.rs` and a set of hand-built source-join plans must
//! find the same alternatives, costs (`f64::to_bits`), trees and winner.

use std::collections::BTreeMap;
use std::sync::Arc;

use disco_algebra::rules::{
    self, push_filter_into_submit, push_project_into_submit, push_project_past_filter,
};
use disco_algebra::{
    lower, CapabilityLookup, CapabilitySet, ComparisonKind, LogicalExpr, OperatorKind, ScalarExpr,
    ScalarOp,
};
use disco_optimizer::{compile_text, CalibrationStore, CostModel, Explained, Optimizer, PlanCost};

mod fixtures;

use fixtures::{REPOSITORIES, TEXTS};

const SEEDS: u64 = 8;

/// A small deterministic generator.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        usize::try_from(self.0 >> 33).unwrap() % n
    }
}

/// The capability sets a wrapper is given: full, get-only, selection and
/// projection without composition, restricted comparisons, and two
/// partial compositions.
fn capability_sets() -> [CapabilitySet; 6] {
    [
        CapabilitySet::full(),
        CapabilitySet::get_only(),
        CapabilitySet::new([
            OperatorKind::Get,
            OperatorKind::Select,
            OperatorKind::Project,
        ]),
        CapabilitySet::full().with_comparisons([ComparisonKind::Eq, ComparisonKind::Lt]),
        CapabilitySet::new([OperatorKind::Get, OperatorKind::Project]).with_composition(true),
        CapabilitySet::new([OperatorKind::Get, OperatorKind::Select, OperatorKind::Join])
            .with_composition(true),
    ]
}

fn salary_above(k: i64) -> ScalarExpr {
    ScalarExpr::binary(
        ScalarOp::Gt,
        ScalarExpr::attr("salary"),
        ScalarExpr::constant(k),
    )
}

/// A store that has seen, on random repositories, the shapes the texts'
/// alternatives ship — with the texts' constants (exact matches) or others
/// (close matches) — and has degraded two repositories.
fn seeded_store(rng: &mut Lcg) -> Arc<CalibrationStore> {
    let store = Arc::new(CalibrationStore::new());
    let extents = (0..fixtures::PERSON_SOURCES)
        .map(|i| format!("person{i}"))
        .chain((0..3).map(|i| format!("employee{i}")));
    #[allow(clippy::cast_precision_loss)]
    for (r, extent) in extents.enumerate() {
        let repository = if r < fixtures::PERSON_SOURCES {
            format!("r{r}")
        } else {
            format!("r{}", r + 3)
        };
        let get = LogicalExpr::get(extent);
        let constant = [10, 100, 77][rng.below(3)];
        let shapes = [
            get.clone(),
            get.clone().filter(salary_above(constant)),
            get.clone()
                .filter(salary_above(constant))
                .project(["name", "salary"]),
            get.clone()
                .project(["name", "salary"])
                .filter(salary_above(constant)),
            get.clone().project(["name"]),
        ];
        for shape in shapes {
            if rng.below(2) == 0 {
                store.record(
                    &repository,
                    &shape,
                    0.25 * rng.below(40) as f64,
                    rng.below(500),
                );
            }
        }
    }
    store.record(
        "r15",
        &LogicalExpr::SourceJoin {
            left: Box::new(LogicalExpr::get("employee0")),
            right: Box::new(LogicalExpr::get("manager0")),
            on: vec![("dept".into(), "dept".into())],
        },
        3.5,
        40,
    );
    for _ in 0..2 {
        let degraded = format!("r{}", rng.below(REPOSITORIES));
        store.note_source_wait(&degraded, 1.0, 100);
        store.note_source_wait(&degraded, 9.0, 100);
    }
    store
}

/// The planner as it was: every alternative built, repeats dropped, each
/// lowered and costed; the index of the cheapest by (time, size), the
/// first on a tie.
fn brute_force(
    compiled: &LogicalExpr,
    lookup: &dyn CapabilityLookup,
    model: &CostModel,
) -> (Vec<(&'static str, LogicalExpr, PlanCost)>, usize) {
    let normalized = rules::normalize(compiled);
    let subset = |filters: bool, projections: bool| {
        let mut plan = normalized.clone();
        rules::rewrite_to_fixpoint(&mut plan, &|e| {
            (filters && push_filter_into_submit(e, lookup))
                || (projections
                    && (push_project_past_filter(e, lookup) || push_project_into_submit(e, lookup)))
        });
        plan
    };
    let candidates = [
        ("mediator-only", normalized.clone()),
        ("push-selections", subset(true, false)),
        ("push-projections", subset(false, true)),
        ("push-selections-projections", subset(true, true)),
        (
            "push-everything",
            rules::push_to_wrappers(&normalized, lookup),
        ),
    ];
    let mut alternatives: Vec<(&'static str, LogicalExpr, PlanCost)> = Vec::new();
    for (strategy, tree) in candidates {
        if alternatives.iter().all(|(_, known, _)| *known != tree) {
            let cost = model.cost(&lower(&tree).unwrap());
            alternatives.push((strategy, tree, cost));
        }
    }
    let winner = (0..alternatives.len())
        .min_by(|&a, &b| {
            let (a, b) = (&alternatives[a], &alternatives[b]);
            a.2.time_ms
                .total_cmp(&b.2.time_ms)
                .then_with(|| a.1.size().cmp(&b.1.size()))
        })
        .unwrap();
    (alternatives, winner)
}

fn bits(cost: PlanCost) -> (u64, u64) {
    (cost.time_ms.to_bits(), cost.rows.to_bits())
}

/// A submit of `extent` to repository `r{repository}` through the wrapper
/// the catalog puts there: `employee0` and `manager0` share `r15` and its
/// wrapper, `employee1` (`r16`) and `employee2` (`r17`) neither.
fn submit(extent: &str, repository: usize, wrappers: &[usize; REPOSITORIES]) -> LogicalExpr {
    LogicalExpr::get(extent).submit(
        format!("r{repository}"),
        format!("w{}", wrappers[repository]),
        extent,
    )
}

/// Hand-built plans with source-join sites — no text compiles to one —
/// next to like-shaped joins whose submits do not share a repository, so a
/// class must keep which names are equal within a site.  Besides the
/// catalog's wrappers, the joins go through `w_sql`, which joins, so R3
/// fires on one shape and not on the other.
fn source_join_plans(wrappers: &[usize; REPOSITORIES]) -> Vec<LogicalExpr> {
    let join = |left: LogicalExpr, right: LogicalExpr| LogicalExpr::SourceJoin {
        left: Box::new(left),
        right: Box::new(right),
        on: vec![("dept".into(), "dept".into())],
    };
    let sql = |extent: &str, repository: usize| {
        LogicalExpr::get(extent).submit(format!("r{repository}"), "w_sql", extent)
    };
    let same_sql = || join(sql("employee0", 15), sql("manager0", 15));
    let across_sql = || join(sql("employee1", 16), sql("employee2", 17));
    let in_dept = ScalarExpr::binary(
        ScalarOp::Eq,
        ScalarExpr::attr("dept"),
        ScalarExpr::constant("water"),
    );
    let same = || {
        join(
            submit("employee0", 15, wrappers),
            submit("manager0", 15, wrappers),
        )
    };
    let across = || {
        join(
            submit("employee1", 16, wrappers),
            submit("employee2", 17, wrappers),
        )
    };
    let person = |i: usize| submit(&format!("person{i}"), i, wrappers).filter(salary_above(10));
    vec![
        same(),
        LogicalExpr::Union(vec![
            across_sql().project(["name"]),
            same_sql().project(["name"]),
            across_sql().filter(in_dept.clone()),
            same_sql().filter(in_dept.clone()),
        ]),
        LogicalExpr::Union(vec![
            same().filter(in_dept.clone()).project(["name"]),
            across().filter(in_dept.clone()).project(["name"]),
            person(3).project(["name"]),
            same().project(["name", "dept"]),
            across(),
            person(4).project(["name"]),
        ])
        .bind("x")
        .map_project(ScalarExpr::var_field("x", "name")),
        LogicalExpr::Join {
            left: Box::new(same().bind("x")),
            right: Box::new(across().filter(in_dept).bind("y")),
            predicate: None,
        },
    ]
}

#[test]
fn the_search_finds_what_building_every_alternative_finds() {
    let mut rng = Lcg(0x5eed);
    let mut cases = 0;
    for seed in 0..SEEDS {
        let wrappers: [usize; REPOSITORIES] = std::array::from_fn(|_| rng.below(6));
        let catalog = fixtures::catalog(&wrappers);
        let sets = capability_sets();
        let mut caps: BTreeMap<String, CapabilitySet> = (0..6)
            .map(|w| (format!("w{w}"), sets[rng.below(sets.len())]))
            .collect();
        caps.insert("w_sql".to_owned(), CapabilitySet::full());
        let store = if seed == 0 {
            Arc::new(CalibrationStore::new())
        } else {
            seeded_store(&mut rng)
        };
        let optimizer = Optimizer::with_store(caps.clone(), store);
        let model = optimizer.cost_model();

        for text in TEXTS {
            let Ok(compiled) = compile_text(text, &catalog) else {
                assert!(optimizer.explain_text(text, &catalog).is_err(), "{text}");
                continue;
            };
            let Explained { plan, trees } = optimizer.explain_text(text, &catalog).unwrap();
            let (brute, winner) = brute_force(&compiled, &caps, model);
            let case = format!("seed {seed}, {text}");
            assert_eq!(plan.alternatives.len(), brute.len(), "{case}");
            for ((alternative, tree), (strategy, brute_tree, brute_cost)) in
                plan.alternatives.iter().zip(&trees).zip(&brute)
            {
                assert_eq!(alternative.strategy, *strategy, "{case}");
                assert_eq!(tree, brute_tree, "{case}: {strategy}");
                assert_eq!(
                    bits(alternative.cost),
                    bits(model.cost(&lower(tree).unwrap())),
                    "{case}: {strategy}"
                );
                assert_eq!(bits(alternative.cost), bits(*brute_cost), "{case}");
            }
            assert_eq!(plan.strategy, brute[winner].0, "{case}");
            assert_eq!(plan.logical, brute[winner].1, "{case}");
            cases += 1;
        }

        for (i, compiled) in source_join_plans(&wrappers).iter().enumerate() {
            let plan = optimizer.optimize_logical(compiled, 0).unwrap();
            let (brute, winner) = brute_force(compiled, &caps, model);
            let case = format!("seed {seed}, source-join plan {i}");
            let found: Vec<_> = plan
                .alternatives
                .iter()
                .map(|a| (a.strategy, bits(a.cost)))
                .collect();
            let expected: Vec<_> = brute.iter().map(|(s, _, c)| (*s, bits(*c))).collect();
            assert_eq!(found, expected, "{case}");
            assert_eq!(plan.strategy, brute[winner].0, "{case}");
            assert_eq!(plan.logical, brute[winner].1, "{case}");
            cases += 1;
        }
    }
    assert!(
        cases >= 40 * usize::try_from(SEEDS).unwrap(),
        "{cases} cases"
    );
}
