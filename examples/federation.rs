//! The distributed architecture of Fig. 1: applications, mediators, a
//! catalog component, wrappers and heterogeneous data sources — including
//! wrappers of very different querying power and a mediator stacked on top
//! of another mediator.
//!
//! Run with: `cargo run --example federation`

use std::sync::Arc;

use disco::catalog::CatalogComponent;
use disco::core::{
    advertise, Attribute, CapabilitySet, InterfaceDef, Mediator, MediatorWrapper, MetaExtent,
    NetworkProfile, Repository, TypeRef,
};
use disco::source::generator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // Lower mediator: "hr" integrates employee sources of mixed power.
    // ------------------------------------------------------------------
    let mut hr = Mediator::new("hr");
    hr.define_interface(
        InterfaceDef::new("Employee")
            .with_extent_name("employee")
            .with_attribute(Attribute::new("id", TypeRef::Int))
            .with_attribute(Attribute::new("name", TypeRef::String))
            .with_attribute(Attribute::new("dept", TypeRef::Int))
            .with_attribute(Attribute::new("salary", TypeRef::Int)),
    )?;
    // A full SQL-like source …
    hr.add_relational_source(
        "employee0",
        "Employee",
        "r_hq",
        generator::employee_table("employee0", 300, 8, 1),
        NetworkProfile::fast(),
        CapabilitySet::full(),
    )?;
    // … and a legacy source whose wrapper can only fetch everything.
    hr.add_relational_source(
        "employee1",
        "Employee",
        "r_branch",
        generator::employee_table("employee1", 200, 8, 2),
        NetworkProfile::wide_area(),
        CapabilitySet::get_only(),
    )?;

    let query = "select e.name from e in employee where e.salary > 800";
    let plan = hr.explain(query)?.plan;
    println!("hr mediator, query: {query}");
    println!("  chosen strategy: {}", plan.strategy);
    println!("  plan: {}", plan.logical);
    let answer = hr.query(query)?;
    println!(
        "  {} well-paid employees found across 2 sources ({} rows transferred)\n",
        answer.data().len(),
        answer.stats().rows_transferred
    );

    // ------------------------------------------------------------------
    // Upper mediator: "corp" sees the whole hr mediator as ONE source.
    // ------------------------------------------------------------------
    let hr = Arc::new(hr);
    let mut corp = Mediator::new("corp");
    corp.define_interface(
        InterfaceDef::new("Employee")
            .with_extent_name("employee")
            .with_attribute(Attribute::new("id", TypeRef::Int))
            .with_attribute(Attribute::new("name", TypeRef::String))
            .with_attribute(Attribute::new("dept", TypeRef::Int))
            .with_attribute(Attribute::new("salary", TypeRef::Int)),
    )?;
    corp.register_repository(Repository::new("r_hr").with_host("hr.example.org"))?;
    corp.register_wrapper(Arc::new(MediatorWrapper::new("w_hr", Arc::clone(&hr))))?;
    corp.register_extent(
        MetaExtent::new("employee_hr", "Employee", "w_hr", "r_hr").with_map(
            disco::catalog::TypeMap::builder()
                .relation("employee", "employee_hr")
                .build()
                .expect("valid map"),
        ),
    )?;
    // Plus one source corp manages directly.
    corp.add_relational_source(
        "employee_corp",
        "Employee",
        "r_corp",
        generator::employee_table("employee_corp", 100, 8, 3),
        NetworkProfile::fast(),
        CapabilitySet::full(),
    )?;

    let answer = corp.query("count(select e.id from e in employee)")?;
    println!("corp mediator counts every employee reachable through the hierarchy:");
    println!("  count = {}", answer.as_query_text());

    // ------------------------------------------------------------------
    // The catalog component (C in Fig. 1) keeps the system overview.
    // ------------------------------------------------------------------
    let mut catalog = CatalogComponent::new();
    advertise(&hr, &mut catalog);
    advertise(&corp, &mut catalog);
    println!("\ncatalog component overview:");
    for advertisement in catalog.iter() {
        println!(
            "  mediator {:10} interfaces {:?} ({} extents)",
            advertisement.mediator(),
            advertisement.interfaces(),
            advertisement.extent_count()
        );
    }
    println!(
        "  mediators answering Employee queries: {}",
        catalog.mediators_for_interface("Employee").len()
    );
    Ok(())
}
