//! Integration tests for the scalability claims (§1, §2): adding a data
//! source is a single extent declaration, query text never changes, the
//! catalog and plan cache track the growth, and answers keep covering the
//! enlarged federation.

use disco::algebra::PhysicalExpr;
use disco::core::{CapabilitySet, InterfaceDef, Mediator, NetworkProfile, Value};
use disco::source::generator;
use disco::value::Bag;

fn water_mediator(sources: usize) -> Mediator {
    let mut m = Mediator::new("environment");
    m.define_interface(
        InterfaceDef::new("Measurement")
            .with_extent_name("measurement")
            .with_attribute(disco::catalog::Attribute::new(
                "site",
                disco::catalog::TypeRef::String,
            ))
            .with_attribute(disco::catalog::Attribute::new(
                "day",
                disco::catalog::TypeRef::Int,
            ))
            .with_attribute(disco::catalog::Attribute::new(
                "ph",
                disco::catalog::TypeRef::Float,
            ))
            .with_attribute(disco::catalog::Attribute::new(
                "turbidity",
                disco::catalog::TypeRef::Int,
            ))
            .with_attribute(disco::catalog::Attribute::new(
                "dissolved_oxygen",
                disco::catalog::TypeRef::Float,
            )),
    )
    .unwrap();
    for i in 0..sources {
        add_station(&mut m, i);
    }
    m
}

fn add_station(m: &mut Mediator, index: usize) {
    add_station_over(m, index, NetworkProfile::fast());
}

fn add_station_over(m: &mut Mediator, index: usize, profile: NetworkProfile) {
    m.add_relational_source(
        &format!("measurement{index}"),
        "Measurement",
        &format!("r_station{index}"),
        generator::water_quality_table(&format!("measurement{index}"), index, 20, 17),
        profile,
        CapabilitySet::full(),
    )
    .unwrap();
}

const QUERY: &str = "count(select m.day from m in measurement where m.ph > 7.5)";

#[test]
fn the_query_text_never_changes_as_sources_are_added() {
    let mut m = water_mediator(2);
    let mut previous_count = 0i64;
    for next_station in 2..10 {
        let answer = m.query(QUERY).unwrap();
        assert!(answer.is_complete());
        assert_eq!(
            answer.stats().exec_calls,
            next_station,
            "one call per registered station"
        );
        let count = answer.data().iter().next().unwrap().as_int().unwrap();
        assert!(count >= previous_count, "coverage only grows");
        previous_count = count;
        add_station(&mut m, next_station);
    }
}

#[test]
fn registration_is_one_catalog_operation_per_source() {
    let mut m = water_mediator(0);
    for i in 0..32 {
        let before = m.catalog().stats();
        add_station(&mut m, i);
        let after = m.catalog().stats();
        assert_eq!(after.extents, before.extents + 1);
        assert_eq!(
            after.interfaces, before.interfaces,
            "no schema change needed"
        );
    }
    assert_eq!(m.catalog().stats().extents, 32);
    // Every extent is visible through the meta-extent collection.
    assert_eq!(m.catalog().meta_extents().count(), 32);
}

#[test]
fn plan_cache_is_invalidated_when_the_federation_grows() {
    let mut m = water_mediator(3);
    let a1 = m.query(QUERY).unwrap();
    let a2 = m.query(QUERY).unwrap();
    assert_eq!(a1.data(), a2.data());
    let (hits_before, _) = m.plan_cache_stats();
    assert!(
        hits_before >= 1,
        "second identical query hits the plan cache"
    );
    add_station(&mut m, 3);
    let a3 = m.query(QUERY).unwrap();
    // The new plan covers four sources.
    assert_eq!(a3.stats().exec_calls, 4);
}

#[test]
fn removing_a_source_shrinks_coverage() {
    let mut m = water_mediator(4);
    let before = m.query(QUERY).unwrap();
    assert_eq!(before.stats().exec_calls, 4);
    m.remove_extent("measurement2").unwrap();
    let after = m.query(QUERY).unwrap();
    assert_eq!(after.stats().exec_calls, 3);
    let count_before = before.data().iter().next().unwrap().as_int().unwrap();
    let count_after = after.data().iter().next().unwrap().as_int().unwrap();
    assert!(count_after <= count_before);
}

#[test]
fn large_federation_remains_queryable() {
    let m = water_mediator(64);
    let answer = m
        .query("select distinct m.site from m in measurement")
        .unwrap();
    assert!(answer.is_complete());
    assert_eq!(answer.stats().exec_calls, 64);
    assert_eq!(
        answer.data().len(),
        64,
        "each station reports a distinct site"
    );
    // Spot-check a value.
    assert!(answer.data().iter().all(|v| matches!(v, Value::Str(_))));
}

#[test]
fn views_extend_transparently_over_new_sources() {
    let mut m = water_mediator(2);
    m.define_view(
        "alkaline",
        "select struct(site: m.site, ph: m.ph) from m in measurement where m.ph > 8.0",
    )
    .unwrap();
    let before = m.query("count(select a.site from a in alkaline)").unwrap();
    add_station(&mut m, 2);
    add_station(&mut m, 3);
    let after = m.query("count(select a.site from a in alkaline)").unwrap();
    let count_before = before.data().iter().next().unwrap().as_int().unwrap();
    let count_after = after.data().iter().next().unwrap().as_int().unwrap();
    assert!(count_after >= count_before);
    assert_eq!(
        after.stats().exec_calls,
        4,
        "the view now ranges over four stations"
    );
}

/// The two tests below read the process-wide call executor's thread
/// counter; they take turns so neither sees the other's spare workers.
static CALL_THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn threads_are_bounded_by_the_machine_not_by_the_source_count() {
    let _turn = CALL_THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let m = water_mediator(256);
    let cores = std::thread::available_parallelism().map_or(2, usize::from);
    let before = disco::runtime::call_threads_spawned();
    for _ in 0..2 {
        let answer = m.query(QUERY).unwrap();
        assert!(answer.is_complete());
        assert_eq!(answer.stats().exec_calls, 256);
    }
    // Links that answer without waiting never block a call, so nothing
    // beyond the runners is started (the other tests of this file are of
    // that kind too).  One thread per call made this 512.
    let spawned = disco::runtime::call_threads_spawned() - before;
    assert!(
        spawned <= cores.max(2) + 2,
        "{spawned} call threads for 2 x 256 calls on {cores} cores"
    );
}

#[test]
fn sleeping_sources_are_still_called_in_parallel() {
    let _turn = CALL_THREADS.lock().unwrap_or_else(|e| e.into_inner());
    // 48 links that really take 20 ms each: §3.3's "issues all calls in
    // parallel" means about one link delay for all of them, not 48 (960
    // ms) and not 48 over the runner count (480 ms on two runners).
    let mut m = water_mediator(0);
    let sleepy = NetworkProfile {
        base_latency_us: 20_000,
        per_row_us: 0,
        jitter: 0.0,
        ..NetworkProfile::fast()
    }
    .with_real_sleep(true);
    for i in 0..48 {
        add_station_over(&mut m, i, sleepy.clone());
    }
    m.query(QUERY).unwrap(); // plans, starts the workers
    let started = std::time::Instant::now();
    let answer = m.query(QUERY).unwrap();
    let elapsed = started.elapsed();
    assert!(answer.is_complete());
    assert_eq!(answer.stats().exec_calls, 48);
    assert!(
        elapsed < std::time::Duration::from_millis(200),
        "48 sources of 20 ms took {elapsed:?}"
    );
}

/// The fused stretch of a union branch with its scan blanked out: two
/// branches are of one class exactly when these are equal.
fn stretch_of(branch: &PhysicalExpr) -> PhysicalExpr {
    let mut stretch = branch.clone();
    let mut node = &mut stretch;
    loop {
        node = match node {
            PhysicalExpr::MapOp { input, .. }
            | PhysicalExpr::FilterOp { input, .. }
            | PhysicalExpr::BindOp { input, .. }
            | PhysicalExpr::ProjectOp { input, .. } => input,
            scan => {
                *scan = PhysicalExpr::MemScan(Bag::new());
                return stretch;
            }
        };
    }
}

/// The fan-out a plan combines its sources with (under an aggregate or
/// not): how many branches it has, and how many distinct stretches.
fn distinct_stretches(plan: &PhysicalExpr) -> (usize, usize) {
    let union = match plan {
        PhysicalExpr::MkAggregate { input, .. } => input,
        plan => plan,
    };
    let PhysicalExpr::FanOut(node) = union else {
        panic!("a federated extent is a fan-out: {plan}");
    };
    let branches: Vec<PhysicalExpr> = (0..node.members.len()).map(|i| node.branch(i)).collect();
    let mut stretches: Vec<PhysicalExpr> = Vec::new();
    for branch in &branches {
        let stretch = stretch_of(branch);
        if !stretches.contains(&stretch) {
            stretches.push(stretch);
        }
    }
    (branches.len(), stretches.len())
}

/// Fails at the parent commit, which compiled a spine per source: a hot
/// query over 256 like sources compiles one spine per distinct stretch of
/// its union — however many sources share it — and runs every row
/// through the kernels.
#[test]
fn a_hot_query_compiles_a_spine_per_class_of_branches_not_per_source() {
    let m = water_mediator(256);
    for text in [
        "select m.site from m in measurement where m.ph > 7.5",
        QUERY,
    ] {
        let (branches, stretches) = distinct_stretches(&m.explain(text).unwrap().plan.physical);
        assert_eq!(branches, 256);
        m.query(text).unwrap();
        let answer = m.query(text).unwrap(); // a plan-cache hit
        assert!(answer.is_complete());
        let stats = answer.stats();
        assert_eq!(stats.exec_calls, 256);
        assert_eq!(stats.spines_compiled, stretches, "{text}");
        assert!(
            stretches <= 2,
            "{text}: like sources fall into one class or two"
        );
        assert!(stats.rows_kernel > 0, "{text}");
        assert_eq!(stats.rows_fallback, 0, "{text}: kernel coverage 1.0");
    }
}
