//! Spill files must never outlive the execution that created them, a
//! budget must never send a spool to disk, and a spill directory that
//! cannot be written must fail the breaker that spills, loudly.
//!
//! Runs a spilling evaluation with `DISCO_SPILL_DIR` pointed at a fresh
//! private directory and asserts the directory holds no `disco-spill-*`
//! files afterwards — on the success path *and* when the evaluation
//! dies mid-spill with an error — and runs a federated query and a
//! spilling evaluation with the variable pointed at an unwritable path.
//! This lives in its own test
//! binary (its own process) because it mutates process environment
//! variables; the tests additionally serialize on a lock since tests
//! within one binary run on sibling threads.

mod common;

use std::fs;
use std::sync::Mutex;

use common::{branch, federation_with, instant_profile, person};
use disco_algebra::{lower, LogicalExpr, ScalarExpr, ScalarOp};
use disco_runtime::{
    evaluate_physical_with, Executor, MemBudget, PipelineMetrics, PipelineOptions, ResolvedExecs,
    RuntimeError,
};
use disco_value::{Bag, StructValue, Value};

static SPILL_DIR_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with `DISCO_SPILL_DIR` pointed at a fresh directory and
/// returns its result plus the `disco-spill-*` files left behind.
fn with_spill_dir<T>(name: &str, f: impl FnOnce() -> T) -> (T, Vec<String>) {
    let _guard = SPILL_DIR_LOCK.lock().unwrap();
    let dir =
        std::env::temp_dir().join(format!("disco-spill-cleanup-{}-{name}", std::process::id()));
    fs::create_dir_all(&dir).expect("create spill dir");
    std::env::set_var("DISCO_SPILL_DIR", &dir);
    let out = f();
    std::env::remove_var("DISCO_SPILL_DIR");
    let leftovers: Vec<String> = fs::read_dir(&dir)
        .expect("read spill dir")
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|file| file.starts_with("disco-spill-"))
        .collect();
    let _ = fs::remove_dir_all(&dir);
    (out, leftovers)
}

fn join_distinct(left: Bag, right: Bag) -> LogicalExpr {
    LogicalExpr::Distinct(Box::new(
        LogicalExpr::Join {
            left: Box::new(LogicalExpr::Data(left).bind("x")),
            right: Box::new(LogicalExpr::Data(right).bind("y")),
            predicate: Some(ScalarExpr::binary(
                ScalarOp::Eq,
                ScalarExpr::var_field("x", "id"),
                ScalarExpr::var_field("y", "id"),
            )),
        }
        .map_project(ScalarExpr::binary(
            ScalarOp::Add,
            ScalarExpr::var_field("x", "salary"),
            ScalarExpr::var_field("y", "salary"),
        )),
    ))
}

fn people(rows: usize) -> Bag {
    (0..rows)
        .map(|i| person((i % 53) as i64, &format!("p{i}"), (i % 199) as i64))
        .collect()
}

fn budgeted() -> PipelineOptions {
    PipelineOptions {
        mem_budget: MemBudget::Bytes(4096),
        ..PipelineOptions::default()
    }
}

#[test]
fn spill_files_are_cleaned_up_on_success() {
    let physical = lower(&join_distinct(people(1_500), people(300))).expect("lowers");
    let resolved = ResolvedExecs::default();
    let (bytes_spilled, leftovers) = with_spill_dir("success", || {
        let metrics = PipelineMetrics::new();
        evaluate_physical_with(&physical, &resolved, &metrics, budgeted()).expect("evaluates");
        metrics.bytes_spilled()
    });
    assert!(bytes_spilled > 0, "the run must actually have spilled");
    assert!(
        leftovers.is_empty(),
        "spill files must be deleted on success, found: {leftovers:?}"
    );
}

#[test]
fn spill_files_are_cleaned_up_on_error() {
    // One malformed probe row (no `salary`) late in the input: the
    // projection errors after the build side has already spilled.
    let mut left = people(1_500);
    left.insert(Value::Struct(
        StructValue::new(vec![("id", Value::Int(7))]).unwrap(),
    ));
    let physical = lower(&join_distinct(left, people(300))).expect("lowers");
    let resolved = ResolvedExecs::default();
    let ((bytes_spilled, err), leftovers) = with_spill_dir("error", || {
        let metrics = PipelineMetrics::new();
        let err = evaluate_physical_with(&physical, &resolved, &metrics, budgeted())
            .expect_err("the malformed row must error");
        (metrics.bytes_spilled(), err)
    });
    assert!(bytes_spilled > 0, "the run must have spilled before dying");
    assert!(
        leftovers.is_empty(),
        "spill files must be deleted on the error path too, found: {leftovers:?} (error was: {err})"
    );
}

/// Points `DISCO_SPILL_DIR` below a regular file — a directory that
/// cannot be created, whoever runs the test — for the duration of `f`,
/// and reports whether the spill directory came to exist.
fn with_unwritable_spill_dir<T>(f: impl FnOnce() -> T) -> (T, bool) {
    let _guard = SPILL_DIR_LOCK.lock().unwrap();
    let blocker = std::env::temp_dir().join(format!("disco-spill-blocker-{}", std::process::id()));
    fs::write(&blocker, b"not a directory").expect("create blocker file");
    std::env::set_var("DISCO_SPILL_DIR", blocker.join("spill"));
    let out = f();
    std::env::remove_var("DISCO_SPILL_DIR");
    let spill_dir_created = blocker.join("spill").exists();
    let _ = fs::remove_file(&blocker);
    (out, spill_dir_created)
}

/// A budget never sends a spool to disk: under 64 KiB and an unwritable
/// spill directory, a source returning ~300 KiB answers in full, exactly
/// as without a budget.  Rewritten from the parent's
/// `unwritable_spill_dir_fails_the_source_not_the_budget`, which pinned
/// the deleted hot-window spool (its failed disk tier made r1
/// unavailable); there is no spool spill left to fail.
#[test]
fn a_budget_never_sends_a_spool_to_disk() {
    // r0 ships a filter and returns 20 rows; r1 returns ~300 KiB.
    let federation = federation_with(&vec![instant_profile(64); 2], 2_000, 29);
    let small = LogicalExpr::get("person0")
        .filter(ScalarExpr::binary(
            ScalarOp::Lt,
            ScalarExpr::attr("id"),
            ScalarExpr::constant(20i64),
        ))
        .submit("r0", "w0", "person0")
        .bind("x")
        .map_project(ScalarExpr::var_field("x", "name"));
    let physical = lower(&LogicalExpr::Union(vec![small, branch(1, -1)])).expect("lowers");
    let run = |budget| {
        Executor::new(federation.registry.clone())
            .with_mem_budget(budget)
            .with_deadline(Some(std::time::Duration::from_secs(5)))
            .execute(&physical, &federation.catalog)
            .expect("a budget is not an error")
    };
    let ((bounded, unbounded), spill_dir_created) =
        with_unwritable_spill_dir(|| (run(MemBudget::Bytes(64 * 1024)), run(MemBudget::Unbounded)));

    assert!(bounded.is_complete(), "no source is failed by a spill");
    assert_eq!(bounded.data().len(), 2_020);
    assert_eq!(bounded.data(), unbounded.data());
    assert_eq!(bounded.stats().bytes_spilled, 0, "nothing reached the disk");
    assert!(!spill_dir_created, "nothing tried to spill");
    assert!(unbounded.is_complete());
}

/// The only thing left that spills — a pipeline breaker over its budget —
/// fails loudly on a spill directory it cannot create: a typed
/// `RuntimeError::Spill`, no panic, no file left.  Split out of the
/// parent's `unwritable_spill_dir_fails_the_source_not_the_budget`
/// (whose spool half is `a_budget_never_sends_a_spool_to_disk`); no
/// test covered this case before.
#[test]
fn an_unwritable_spill_dir_fails_a_spilling_breaker_loudly() {
    let physical = lower(&join_distinct(people(1_500), people(300))).expect("lowers");
    let resolved = ResolvedExecs::default();
    let (result, spill_dir_created) = with_unwritable_spill_dir(|| {
        evaluate_physical_with(&physical, &resolved, &PipelineMetrics::new(), budgeted())
    });
    let err = result.expect_err("the breaker had to spill and could not");
    assert!(matches!(err, RuntimeError::Spill(_)), "{err:?}");
    assert!(
        err.to_string().contains("creating spill directory"),
        "{err}"
    );
    assert!(
        !spill_dir_created,
        "no disco-spill-* file can be left behind"
    );
}

/// Starts after the tests above (name order) and outwaits them: a call
/// left behind by an error path — a producer blocked on a spool nobody
/// reads any more — keeps the executor's count above zero for good.
#[test]
fn zz_no_call_outlives_its_query() {
    common::assert_no_calls_in_flight();
}
