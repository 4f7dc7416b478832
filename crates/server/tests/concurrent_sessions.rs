//! Concurrent-session behaviour of the serving layer: parity with serial
//! execution, copy-on-write catalog isolation, per-query deadline and
//! row-budget isolation, and shared connection-pool metering.

use std::sync::Arc;
use std::time::Duration;

use disco_core::{
    Attribute, Availability, CapabilitySet, InterfaceDef, Mediator, MetaExtent, NetworkProfile,
    Repository, Table, TypeRef, Value,
};
use disco_server::{DiscoServer, ServerConfig};

/// A `Person` interface federated over `sources` relational sources,
/// each holding `rows` people with salaries 0, 100, 200, …
fn person_mediator(sources: usize, rows: usize, profile: NetworkProfile) -> Mediator {
    let mut mediator = Mediator::new("serving-test");
    mediator
        .define_interface(
            InterfaceDef::new("Person")
                .with_extent_name("person")
                .with_attribute(Attribute::new("name", TypeRef::String))
                .with_attribute(Attribute::new("salary", TypeRef::Int)),
        )
        .unwrap();
    for s in 0..sources {
        let extent = format!("person{s}");
        let mut table = Table::new(&extent, ["name", "salary"]);
        for r in 0..rows {
            table
                .insert_values([
                    ("name", Value::from(format!("p{s}_{r}").as_str())),
                    ("salary", Value::Int(100 * r as i64)),
                ])
                .unwrap();
        }
        mediator
            .add_relational_source(
                &extent,
                "Person",
                &format!("r{s}"),
                table,
                profile.clone(),
                CapabilitySet::full(),
            )
            .unwrap();
    }
    mediator
}

const QUERIES: [&str; 3] = [
    "select x.name from x in person where x.salary > 150",
    "select x.salary from x in person",
    "select x.name from x in person where x.salary = 0",
];

#[test]
fn concurrent_sessions_match_serial_answers() {
    let mediator = person_mediator(3, 4, NetworkProfile::fast());
    // Exercise admission control too: at most 2 queries execute at once.
    let server =
        DiscoServer::from_mediator(&mediator, ServerConfig::default().with_max_concurrent(2));

    // Serial ground truth, straight from the mediator.
    let expected: Vec<_> = QUERIES.iter().map(|q| mediator.query(q).unwrap()).collect();
    for answer in &expected {
        assert!(answer.is_complete());
    }

    let threads = 8;
    let per_thread = 6;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let server = &server;
            let expected = &expected;
            scope.spawn(move || {
                let session = server.session();
                for i in 0..per_thread {
                    let pick = (t + i) % QUERIES.len();
                    let answer = session.query(QUERIES[pick]).unwrap();
                    assert!(answer.is_complete());
                    assert_eq!(
                        answer.data(),
                        expected[pick].data(),
                        "concurrent answer diverged from serial for {:?}",
                        QUERIES[pick]
                    );
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.queries_served, (threads * per_thread) as u64);
    // 48 queries over 3 texts against one catalog generation: the shared
    // plan cache must have been reused across sessions.
    assert!(stats.plan_cache.0 > 0, "expected plan-cache hits");
}

#[test]
fn mid_flight_catalog_update_does_not_affect_admitted_queries() {
    // One slow source so the first query is reliably in flight while the
    // schema changes under it.
    let slow = NetworkProfile::fast()
        .with_availability(Availability::Slow { extra_ms: 80 })
        .with_real_sleep(true);
    let mut mediator = person_mediator(1, 2, slow);
    mediator.set_deadline(None);
    let server = DiscoServer::from_mediator(&mediator, ServerConfig::default());

    let in_flight = {
        let session = server.session();
        std::thread::spawn(move || session.query("select x.name from x in person").unwrap())
    };
    // Give the query time to be admitted and take its snapshot.
    std::thread::sleep(Duration::from_millis(20));

    // DDL while the query is in flight: a second Person source appears.
    // The wrapper implementation must be registered before the extent
    // becomes queryable; the registry is shared and synchronized.
    let store = Arc::new(disco_source::RelationalStore::new());
    let mut table = Table::new("person_extra", ["name", "salary"]);
    table
        .insert_values([
            ("name", Value::from("Newcomer")),
            ("salary", Value::Int(999)),
        ])
        .unwrap();
    store.put_table(table);
    let link = Arc::new(disco_source::SimulatedLink::new(
        "r_extra",
        NetworkProfile::fast(),
        7,
    ));
    server
        .registry()
        .register(Arc::new(disco_wrapper::RelationalWrapper::new(
            "w_person_extra",
            store,
            link,
        )));
    server
        .update_catalog(|catalog| {
            catalog.add_repository(disco_core::Repository::new("r_extra"))?;
            catalog.add_wrapper(disco_core::WrapperDef::new("w_person_extra", "relational"))?;
            catalog.add_extent(disco_core::MetaExtent::new(
                "person_extra",
                "Person",
                "w_person_extra",
                "r_extra",
            ))
        })
        .unwrap();

    // The admitted query answered against its snapshot: no Newcomer.
    let old = in_flight.join().unwrap();
    assert!(old.is_complete());
    assert_eq!(old.data().len(), 2);
    assert!(!old.data().iter().any(|v| *v == Value::from("Newcomer")));

    // A query admitted after the update sees the new source.
    let new = server
        .session()
        .query("select x.name from x in person")
        .unwrap();
    assert!(new.is_complete());
    assert_eq!(new.data().len(), 3);
    assert!(new.data().iter().any(|v| *v == Value::from("Newcomer")));
}

#[test]
fn per_query_deadline_cancels_only_its_own_query() {
    let slow = NetworkProfile::fast()
        .with_availability(Availability::Slow { extra_ms: 150 })
        .with_real_sleep(true);
    let mediator = person_mediator(1, 2, slow);
    let server = DiscoServer::from_mediator(&mediator, ServerConfig::default());

    let strict = server
        .session()
        .with_deadline(Some(Duration::from_millis(25)));
    let patient = server.session().with_deadline(None);
    std::thread::scope(|scope| {
        let strict_answer =
            scope.spawn(move || strict.query("select x.name from x in person").unwrap());
        let patient_answer =
            scope.spawn(move || patient.query("select x.name from x in person").unwrap());
        let strict_answer = strict_answer.join().unwrap();
        let patient_answer = patient_answer.join().unwrap();
        // The strict session's query hit its deadline: partial answer
        // with a residual over the slow source.
        assert!(!strict_answer.is_complete());
        assert_eq!(strict_answer.unavailable_sources(), &["r0".to_owned()]);
        // The concurrent patient query was untouched by that cancellation.
        assert!(patient_answer.is_complete());
        assert_eq!(patient_answer.data().len(), 2);
    });
}

#[test]
fn row_budget_degrades_to_a_partial_answer_with_residual() {
    let mediator = person_mediator(2, 1, NetworkProfile::fast());
    let server = DiscoServer::from_mediator(&mediator, ServerConfig::default());
    let session = server.session().with_row_budget(Some(1));
    let answer = session.query("select x.name from x in person").unwrap();
    // Two sources of one row each against a budget of one: exactly one
    // source delivers, the other is cancelled through the deadline path
    // and becomes residual.
    assert!(!answer.is_complete());
    assert_eq!(answer.data().len(), 1);
    assert_eq!(answer.unavailable_sources().len(), 1);
    assert!(answer.residual().is_some());

    // An unbudgeted session on the same server is unaffected.
    let full = server
        .session()
        .query("select x.name from x in person")
        .unwrap();
    assert!(full.is_complete());
    assert_eq!(full.data().len(), 2);
}

#[test]
fn shared_source_pool_caps_concurrency_and_meters_waits() {
    let slow = NetworkProfile::fast()
        .with_availability(Availability::Slow { extra_ms: 20 })
        .with_real_sleep(true);
    let mut mediator = person_mediator(2, 2, slow);
    mediator.set_deadline(None);
    let pool = Arc::new(disco_runtime::SourcePool::new(1));
    let server = DiscoServer::from_mediator(
        &mediator,
        ServerConfig::default().with_source_pool(Arc::clone(&pool)),
    );
    let expected = mediator.query("select x.salary from x in person").unwrap();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let server = &server;
            let expected = &expected;
            scope.spawn(move || {
                let answer = server
                    .session()
                    .query("select x.salary from x in person")
                    .unwrap();
                assert!(answer.is_complete());
                assert_eq!(answer.data(), expected.data());
            });
        }
    });

    // 8 wrapper calls over 2 repositories at cap 1, each holding its
    // slot ≥ 20 ms: queuing must have happened and been metered.
    let (queued, waited) = pool.queue_stats();
    assert!(queued > 0, "expected queued wrapper calls");
    assert!(waited > Duration::ZERO);
    let stats = server.stats();
    assert_eq!(stats.source_pool_queued, Some((queued, waited)));
}

/// Fails at the parent commit: `queries_served` was counted only after a
/// query had planned and executed, so no failed query ever counted.
#[test]
fn failed_queries_count_as_served() {
    let mediator = person_mediator(1, 2, NetworkProfile::fast());
    let server = DiscoServer::from_mediator(&mediator, ServerConfig::default());
    // An extent whose wrapper is declared but bound to no implementation.
    server
        .update_catalog(|catalog| {
            catalog.add_repository(disco_core::Repository::new("r_ghost"))?;
            catalog.add_wrapper(disco_core::WrapperDef::new("w_ghost", "relational"))?;
            catalog.add_extent(disco_core::MetaExtent::new(
                "ghost0", "Person", "w_ghost", "r_ghost",
            ))
        })
        .unwrap();
    let session = server.session();
    assert!(session.query("select x.name from x in person0").is_ok());
    assert!(session.query("select from where").is_err());
    assert!(matches!(
        session.query("select x.name from x in ghost0"),
        Err(disco_core::MediatorError::Runtime(
            disco_runtime::RuntimeError::UnknownWrapper(_)
        ))
    ));
    assert_eq!(server.stats().queries_served, 3);
}

/// Guards a hazard only a cache of prepared plans has: a cached plan's
/// call table names its wrappers, and the handle is looked up per
/// execution, so re-registering a wrapper — which leaves the catalog, and
/// with it the cached plan, as it was — takes effect at the next hit.
#[test]
fn a_wrapper_re_registered_between_two_hits_is_the_one_the_second_hit_calls() {
    let mediator = person_mediator(1, 2, NetworkProfile::fast());
    let server = DiscoServer::from_mediator(&mediator, ServerConfig::default());
    let session = server.session();
    let text = "select x.name from x in person";
    for _ in 0..2 {
        assert_eq!(session.query(text).unwrap().data().len(), 2);
    }
    let store = Arc::new(disco_source::RelationalStore::new());
    let mut table = Table::new("person0", ["name", "salary"]);
    table
        .insert_values([("name", Value::from("Rebound")), ("salary", Value::Int(1))])
        .unwrap();
    store.put_table(table);
    let link = Arc::new(disco_source::SimulatedLink::new(
        "r0",
        NetworkProfile::fast(),
        7,
    ));
    server.registry().register(Arc::new(
        disco_wrapper::RelationalWrapper::new("w_person0", store, link)
            .with_capabilities(CapabilitySet::full()),
    ));
    let answer = session.query(text).unwrap();
    assert_eq!(
        *answer.data(),
        [Value::from("Rebound")].into_iter().collect()
    );
    assert_eq!(
        server.stats().plan_cache,
        (2, 1),
        "the third query was a hit"
    );
}

/// Sessions query the interface while another session adds and removes
/// extents of it: each query runs the entry of the text at the catalog
/// snapshot it took — planned, hit or patched from an older one — so its
/// answer is the one the snapshot's members give, whatever the DDL does
/// meanwhile.
#[test]
fn sessions_run_the_plan_of_their_own_snapshot_while_extents_come_and_go() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Barrier, Mutex};

    const SOURCES: usize = 6;
    let mut mediator = person_mediator(SOURCES, 4, NetworkProfile::fast());
    // The last two sources' repositories and wrappers stay registered;
    // their extents come and go.
    let mut extents: Vec<_> = (4..SOURCES)
        .map(|s| mediator.remove_extent(&format!("person{s}")).unwrap())
        .collect();
    let server = DiscoServer::from_mediator(&mediator, ServerConfig::default());
    let text = "select x.name from x in person where x.salary > 150";
    // The members at each generation the sessions may see.
    let members: Mutex<Vec<(u64, Vec<usize>)>> =
        Mutex::new(vec![(server.catalog().generation(), (0..4).collect())]);
    let expected = |sources: &[usize]| -> Vec<Value> {
        let mut names: Vec<Value> = sources
            .iter()
            .flat_map(|s| (2..4).map(move |r| Value::from(format!("p{s}_{r}").as_str())))
            .collect();
        names.sort();
        names
    };
    let done = AtomicBool::new(false);
    // The DDL starts once every session has its text cached.
    let cached = Barrier::new(5);
    std::thread::scope(|scope| {
        let (server, members, done, cached) = (&server, &members, &done, &cached);
        scope.spawn(move || {
            cached.wait();
            let mut present: Vec<usize> = (0..4).collect();
            for step in 0..60 {
                let slot = 4 + step % 2;
                let adds = (step / 2) % 2 == 0;
                server
                    .update_catalog(|catalog| {
                        if adds {
                            catalog.add_extent(extents[slot - 4].clone())?;
                            present.push(slot);
                        } else {
                            extents[slot - 4] = catalog.remove_extent(&format!("person{slot}"))?;
                            present.retain(|&s| s != slot);
                        }
                        let mut sorted = present.clone();
                        sorted.sort_unstable();
                        // Recorded before the snapshot is published.
                        members.lock().unwrap().push((catalog.generation(), sorted));
                        Ok(())
                    })
                    .unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            done.store(true, Ordering::SeqCst);
        });
        for _ in 0..4 {
            scope.spawn(move || {
                let session = server.session();
                session.query(text).unwrap();
                cached.wait();
                let mut queries = 0;
                while !done.load(Ordering::SeqCst) || queries < 20 {
                    let before = server.catalog().generation();
                    let answer = session.query(text).unwrap();
                    let after = server.catalog().generation();
                    assert!(answer.is_complete());
                    let mut got: Vec<Value> = answer.data().iter().cloned().collect();
                    got.sort();
                    // Some snapshot between the two reads gives this answer.
                    let members = members.lock().unwrap();
                    let ran_on = members
                        .iter()
                        .filter(|(generation, _)| (before..=after).contains(generation))
                        .any(|(_, sources)| expected(sources) == got);
                    assert!(ran_on, "generations {before}..={after}: {got:?}");
                    queries += 1;
                }
            });
        }
    });
    // One more extent, with no session about: the next lookup patches.
    // A patch holds only if the strategy that won still wins with the new
    // member costed from the calibration store, which the sessions filled
    // with call times taken under whatever load the machine had — enough,
    // on a loaded machine, for mediator-only to win by a few percent.  So
    // the store starts empty and the text is planned on it (a repository
    // is a change no patch takes), and the addition patches that plan:
    // every member costed from no observation, as when the text was first
    // planned.
    mediator.calibration().clear();
    server
        .update_catalog(|catalog| catalog.add_repository(Repository::new("r_idle")))
        .unwrap();
    assert_eq!(server.session().query(text).unwrap().data().len(), 8);
    let patches = server.stats().plan_cache_patches;
    server
        .update_catalog(|catalog| {
            catalog.add_extent(MetaExtent::new("person4", "Person", "w_person4", "r4"))
        })
        .unwrap();
    let answer = server.session().query(text).unwrap();
    assert_eq!(answer.data().len(), 10);
    let stats = server.stats();
    assert_eq!(stats.plan_cache_patches, patches + 1, "{stats:?}");
    assert!(stats.plan_cache.0 > stats.plan_cache.1, "{stats:?}");
}

/// Starts after the tests above (name order) and outwaits them: a call
/// that outlives its query — never cancelled after a deadline or a row
/// budget, or stuck behind a pool cap — keeps the process-wide call
/// executor's count above zero for good.
#[test]
fn zz_no_call_outlives_its_query() {
    let give_up = std::time::Instant::now() + Duration::from_secs(60);
    while disco_runtime::calls_in_flight() > 0 {
        assert!(
            std::time::Instant::now() < give_up,
            "{} wrapper calls still in flight",
            disco_runtime::calls_in_flight()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
