//! The contract of the in-place transformation rules, over seeded random
//! plans: a rule returns `true` iff it changed the node it was handed, a
//! pass returns `true` iff it changed the tree, and the two fixpoint
//! drivers are idempotent.  These are the properties that replace the
//! whole-plan `==` the fixpoint loops used to end on — a flag that lies
//! either ends a loop early (a lost rewrite) or spins it to the pass cap.
//!
//! Cases are generated with the offline `rand` shim; every failure
//! reproduces from its printed seed.

use std::collections::BTreeMap;

use disco::algebra::rules::{
    distribute_bind_over_union, distribute_filter_over_union, distribute_project_over_union,
    normalize, push_filter_below_project, push_filter_into_submit, push_filter_through_bind,
    push_join_into_submit, push_project_below_filter, push_project_into_submit,
    push_project_past_filter, push_to_wrappers, simplify_union, CapabilityLookup,
};
use disco::algebra::{
    CapabilitySet, ComparisonKind, LogicalExpr, OperatorKind, ScalarExpr, ScalarOp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 400;
const WRAPPERS: usize = 4;

fn random_capabilities(rng: &mut StdRng) -> BTreeMap<String, CapabilitySet> {
    (0..WRAPPERS)
        .filter_map(|w| {
            let mut operators = vec![OperatorKind::Get];
            for op in [
                OperatorKind::Select,
                OperatorKind::Project,
                OperatorKind::Join,
            ] {
                if rng.gen_bool(0.6) {
                    operators.push(op);
                }
            }
            let mut caps = CapabilitySet::new(operators).with_composition(rng.gen_bool(0.7));
            if rng.gen_bool(0.25) {
                caps = caps.with_comparisons([ComparisonKind::Eq, ComparisonKind::Lt]);
            }
            // One wrapper in four is unknown to the lookup: get-only by default.
            rng.gen_bool(0.75).then(|| (format!("w{w}"), caps))
        })
        .collect()
}

const COLUMNS: [&str; 3] = ["id", "name", "salary"];

fn source_predicate(rng: &mut StdRng) -> ScalarExpr {
    let op = [ScalarOp::Gt, ScalarOp::Eq, ScalarOp::Lt][rng.gen_range(0..3usize)];
    ScalarExpr::binary(
        op,
        ScalarExpr::attr(COLUMNS[rng.gen_range(0..3usize)]),
        ScalarExpr::constant(rng.gen_range(0..100i64)),
    )
}

fn env_predicate(rng: &mut StdRng) -> ScalarExpr {
    let column = COLUMNS[rng.gen_range(0..3usize)];
    match rng.gen_range(0..4u32) {
        // Mentions another variable: stays above the bind.
        0 => ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", column),
            ScalarExpr::var_field("y", column),
        ),
        1 => ScalarExpr::Not(Box::new(ScalarExpr::binary(
            ScalarOp::Lt,
            ScalarExpr::var_field("x", column),
            ScalarExpr::constant(rng.gen_range(0..100i64)),
        ))),
        _ => ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::var_field("x", column),
            ScalarExpr::constant(rng.gen_range(0..100i64)),
        ),
    }
}

fn random_columns(rng: &mut StdRng) -> Vec<&'static str> {
    let columns: Vec<&str> = COLUMNS.into_iter().filter(|_| rng.gen_bool(0.6)).collect();
    if columns.is_empty() {
        vec!["name"]
    } else {
        columns
    }
}

/// A union of 1–9 submits — some nested one level, some empty data —
/// under a random stack of source-row operators, a bind, and a random
/// stack of environment-row operators.
fn random_plan(rng: &mut StdRng) -> LogicalExpr {
    let submit = |rng: &mut StdRng, i: usize| {
        let mut shipped = LogicalExpr::get(format!("person{i}"));
        // Some sources already have work shipped to them.
        if rng.gen_bool(0.2) {
            shipped = shipped.filter(source_predicate(rng));
        }
        shipped.submit(
            format!("r{i}"),
            format!("w{}", rng.gen_range(0..WRAPPERS)),
            format!("person{i}"),
        )
    };
    let sources = rng.gen_range(1..=9usize);
    let mut branches = Vec::new();
    let mut i = 0;
    while i < sources {
        match rng.gen_range(0..8u32) {
            0 => branches.push(LogicalExpr::Data(disco::value::Bag::new())),
            1 => {
                let nested = rng.gen_range(1..=3usize).min(sources - i);
                branches.push(LogicalExpr::Union(
                    (i..i + nested).map(|j| submit(rng, j)).collect(),
                ));
                i += nested;
            }
            _ => {
                branches.push(submit(rng, i));
                i += 1;
            }
        }
    }
    let mut plan = if branches.len() == 1 && rng.gen_bool(0.5) {
        branches.pop().expect("one branch")
    } else {
        LogicalExpr::Union(branches)
    };
    for _ in 0..rng.gen_range(0..4u32) {
        plan = match rng.gen_range(0..3u32) {
            0 => plan.filter(source_predicate(rng)),
            1 => plan.project(random_columns(rng)),
            _ => LogicalExpr::Distinct(Box::new(plan)),
        };
    }
    if rng.gen_bool(0.15) {
        // A source-side join of the plan with one more shipped relation.
        let wrapper = format!("w{}", rng.gen_range(0..WRAPPERS));
        let side = |extent: &str| LogicalExpr::get(extent).submit("r0", wrapper.clone(), extent);
        return LogicalExpr::Union(vec![
            plan,
            LogicalExpr::SourceJoin {
                left: Box::new(side("employee0")),
                right: Box::new(side("manager0")),
                on: vec![("dept".into(), "dept".into())],
            },
        ]);
    }
    plan = plan.bind("x");
    for _ in 0..rng.gen_range(0..4u32) {
        plan = match rng.gen_range(0..3u32) {
            0 => plan.filter(env_predicate(rng)),
            1 => plan.map_project(ScalarExpr::var_field("x", "name")),
            _ => LogicalExpr::Distinct(Box::new(plan)),
        };
    }
    plan
}

type Rule<'a> = (&'static str, Box<dyn Fn(&mut LogicalExpr) -> bool + 'a>);

fn rules(lookup: &dyn CapabilityLookup) -> Vec<Rule<'_>> {
    vec![
        (
            "R1",
            Box::new(move |e: &mut LogicalExpr| push_filter_into_submit(e, lookup)),
        ),
        (
            "R2",
            Box::new(move |e: &mut LogicalExpr| push_project_into_submit(e, lookup)),
        ),
        (
            "R3",
            Box::new(move |e: &mut LogicalExpr| push_join_into_submit(e, lookup)),
        ),
        ("R4", Box::new(distribute_bind_over_union)),
        ("R5", Box::new(distribute_filter_over_union)),
        ("R6", Box::new(distribute_project_over_union)),
        ("R7", Box::new(push_filter_through_bind)),
        ("R8", Box::new(push_filter_below_project)),
        ("R9", Box::new(push_project_below_filter)),
        (
            "R9+R2",
            Box::new(move |e: &mut LogicalExpr| push_project_past_filter(e, lookup)),
        ),
        ("R10", Box::new(simplify_union)),
    ]
}

/// One bottom-up pass of `rule`, checking the contract at every node and
/// for the pass as a whole.
fn checked_pass(plan: &mut LogicalExpr, rule: &dyn Fn(&mut LogicalExpr) -> bool, context: &str) {
    let before = plan.clone();
    let rewrote = plan.rewrite_in_place(&|node| {
        let node_before = node.clone();
        let rewrote = rule(node);
        assert_eq!(
            rewrote,
            *node != node_before,
            "{context}: the rule's flag and its effect disagree at {node_before}"
        );
        rewrote
    });
    assert_eq!(
        rewrote,
        *plan != before,
        "{context}: the pass's flag and its effect disagree on {before}"
    );
}

#[test]
fn a_rule_reports_true_iff_it_changed_its_node() {
    let mut fired = BTreeMap::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let lookup = random_capabilities(&mut rng);
        let plan = random_plan(&mut rng);
        let normalized = normalize(&plan);
        for (name, rule) in rules(&lookup) {
            // On the compiled shape, on the normalized one, and repeatedly
            // on its own output until it has nothing left to do.
            for (shape, start) in [("compiled", &plan), ("normalized", &normalized)] {
                let mut current = start.clone();
                for pass in 0..8 {
                    let before = current.clone();
                    checked_pass(
                        &mut current,
                        &rule,
                        &format!("seed {seed} {name} {shape} pass {pass}"),
                    );
                    if current == before {
                        break;
                    }
                    *fired.entry(name).or_insert(0u32) += 1;
                }
            }
        }
    }
    // The generator reaches every rule, so every rule's flag was tested
    // in both directions.
    for (name, _) in rules(&BTreeMap::new()) {
        assert!(
            fired.get(name).copied().unwrap_or(0) >= 10,
            "{name}: {fired:?}"
        );
    }
}

#[test]
fn the_fixpoint_drivers_are_idempotent() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5eed_0000 + seed);
        let lookup = random_capabilities(&mut rng);
        let plan = random_plan(&mut rng);

        let normalized = normalize(&plan);
        assert_eq!(normalize(&normalized), normalized, "seed {seed}: {plan}");
        // A normalized plan is one no normalization rule fires on.
        let mut again = normalized.clone();
        assert!(
            !again.rewrite_in_place(&|e| {
                distribute_bind_over_union(e)
                    || distribute_filter_over_union(e)
                    || distribute_project_over_union(e)
                    || push_filter_through_bind(e)
                    || push_filter_below_project(e)
                    || simplify_union(e)
            }),
            "seed {seed}"
        );
        assert_eq!(again, normalized, "seed {seed}");

        for start in [&plan, &normalized] {
            let pushed = push_to_wrappers(start, &lookup);
            assert_eq!(
                push_to_wrappers(&pushed, &lookup),
                pushed,
                "seed {seed}: {start}"
            );
            // Pushing only moves operators across `submit` (and merges
            // the two submits of a pushed join): no operator is lost.
            let operators = |p: &LogicalExpr| p.size() - p.collect_submits().len();
            assert_eq!(operators(&pushed), operators(start), "seed {seed}: {start}");
        }
    }
}
