//! Quickstart: the paper's introductory scenario end to end.
//!
//! Builds a mediator over two person data sources (r0 holds Mary, r1 holds
//! Sam), runs the introductory query, shows the chosen plan, then adds a
//! third source and runs the *same* query again — the paper's key
//! scalability point for the DBA: the query text never changes.
//!
//! Run with: `cargo run -p disco --example quickstart`

use disco::core::{CapabilitySet, Mediator, NetworkProfile, Table, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut mediator = Mediator::new("hr");
    mediator.register_person_demo()?;

    let query = "select x.name from x in person where x.salary > 10";
    println!("query: {query}\n");

    // Show what the optimizer decided (logical plan, strategy, estimated
    // cost) and the alternatives it weighed.
    let explained = mediator.explain(query)?;
    let plan = &explained.plan;
    println!("chosen strategy : {}", plan.strategy);
    println!("logical plan    : {}", plan.logical);
    println!("physical plan   : {}", plan.physical);
    println!(
        "estimated cost  : {:.3} ms, {:.1} rows ({} alternatives considered)",
        plan.cost.time_ms,
        plan.cost.rows,
        plan.alternatives.len()
    );
    for (alternative, tree) in plan.alternatives.iter().zip(&explained.trees) {
        println!(
            "  {:<28} {:.3} ms  {tree}",
            alternative.strategy, alternative.cost.time_ms
        );
    }
    println!();

    // Execute.
    let answer = mediator.query(query)?;
    println!("answer          : {}", answer.as_query_text());
    println!("complete        : {}", answer.is_complete());
    println!(
        "exec calls      : {} ({} rows transferred)\n",
        answer.stats().exec_calls,
        answer.stats().rows_transferred
    );

    // Scaling: add a third person source.  Only an extent declaration is
    // needed; the query text does not change.
    let mut t2 = Table::new("person2", ["name", "salary"]);
    t2.insert_values([("name", Value::from("Olga")), ("salary", Value::Int(320))])?;
    mediator.add_relational_source(
        "person2",
        "Person",
        "r2",
        t2,
        NetworkProfile::fast(),
        CapabilitySet::full(),
    )?;
    println!("added a third source (person2); running the SAME query again …");
    let answer = mediator.query(query)?;
    println!("answer          : {}", answer.as_query_text());
    println!(
        "catalog         : {} interfaces, {} extents, {} wrappers",
        mediator.catalog().stats().interfaces,
        mediator.catalog().stats().extents,
        mediator.catalog().stats().wrappers,
    );
    Ok(())
}
