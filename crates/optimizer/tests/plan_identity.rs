//! Plan identity: what the planner *finds* is pinned, byte for byte.
//!
//! For every text × capability assignment × calibration store below the
//! test renders every alternative through `Optimizer::explain_text`
//! (strategy, printed logical plan, both cost figures as `f64::to_bits`),
//! the winner's strategy and its printed physical plan, and compares the
//! rendering with `plan_identity.golden`; the plan `optimize_text` finds
//! must be the explained winner in strategy, cost, logical and physical
//! tree.  The golden file was generated at the commit
//! *before* the transformation rules were made to rewrite in place and
//! has not been edited since: a change that makes planning cheaper must
//! leave it untouched, a change that alters which plan is found must say
//! so by regenerating it (`PLAN_IDENTITY_BLESS=1 cargo test -p
//! disco-optimizer --test plan_identity`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use disco_algebra::{lower, CapabilitySet, ComparisonKind, LogicalExpr, OperatorKind};
use disco_algebra::{ScalarExpr, ScalarOp};
use disco_catalog::Catalog;
use disco_optimizer::{CalibrationStore, Explained, Optimizer};

mod fixtures;

use fixtures::{PERSON_SOURCES, REPOSITORIES, TEXTS};

/// The catalog the golden file was generated against: repository `r`
/// behind wrapper `w{r % 6}`.
fn catalog() -> Catalog {
    fixtures::catalog(&std::array::from_fn::<_, REPOSITORIES, _>(|r| r % 6))
}

/// Three capability assignments over the catalog's six wrappers.
fn capability_maps() -> Vec<(&'static str, BTreeMap<String, CapabilitySet>)> {
    let all = |caps: CapabilitySet| -> BTreeMap<String, CapabilitySet> {
        (0..6).map(|w| (format!("w{w}"), caps)).collect()
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

/// Renders every case through the explain entry point — the one path
/// that builds the losing alternatives' trees — and checks that the plan
/// the query path finds is the explained winner.
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
                match optimizer.explain_text(text, &catalog) {
                    Ok(Explained { plan, trees }) => {
                        assert_eq!(plan.alternatives.len(), trees.len(), "{text}");
                        for (alt, tree) in plan.alternatives.iter().zip(&trees) {
                            writeln!(
                                out,
                                "alt {} time={:016x} rows={:016x}\n  {}",
                                alt.strategy,
                                alt.cost.time_ms.to_bits(),
                                alt.cost.rows.to_bits(),
                                tree
                            )
                            .unwrap();
                        }
                        writeln!(
                            out,
                            "winner {} time={:016x} rows={:016x}\n  {}",
                            plan.strategy,
                            plan.cost.time_ms.to_bits(),
                            plan.cost.rows.to_bits(),
                            plan.physical
                        )
                        .unwrap();
                        let explained_winner = plan
                            .alternatives
                            .iter()
                            .position(|alt| alt.strategy == plan.strategy)
                            .map(|i| &trees[i])
                            .expect("the winner is an alternative");
                        let optimized = optimizer.optimize_text(text, &catalog).unwrap();
                        assert_eq!(optimized.strategy, plan.strategy, "{text}");
                        assert_eq!(
                            optimized.cost.time_ms.to_bits(),
                            plan.cost.time_ms.to_bits(),
                            "{text}"
                        );
                        assert_eq!(
                            optimized.cost.rows.to_bits(),
                            plan.cost.rows.to_bits(),
                            "{text}"
                        );
                        assert_eq!(&optimized.logical, explained_winner, "{text}");
                        assert_eq!(optimized.physical, lower(explained_winner).unwrap());
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
