use std::collections::BTreeMap;

use std::sync::Arc;

use crate::changes::ChangeLog;
use crate::{
    Attribute, CatalogChange, CatalogError, InterfaceDef, MetaExtent, Repository, Result, ViewDef,
    WrapperDef,
};

/// What a name in an OQL `from` clause resolves to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameBinding {
    /// A single registered extent (one data source), e.g. `person0`.
    Extent(MetaExtent),
    /// The implicit union extent of an interface, e.g. `person` —
    /// dynamically all extents registered for the interface.
    InterfaceExtent {
        /// The interface whose extents are collected.
        interface: String,
        /// The extents currently registered for that interface.
        extents: Vec<MetaExtent>,
    },
    /// The recursive union extent `person*` — the extents of the interface
    /// *and of all its subtypes* (§2.2.1).
    RecursiveExtent {
        /// The root interface of the subtype closure.
        interface: String,
        /// The extents of the interface and all its subtypes.
        extents: Vec<MetaExtent>,
    },
    /// A view (`define … as …`); the body must be expanded by the parser.
    View(ViewDef),
}

/// What a name resolves to, borrowed from the catalog: the answer of
/// [`Catalog::lookup`], which copies no meta-data.  [`NameBinding`] is its
/// owned form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameRef<'a> {
    /// A single registered extent.
    Extent(&'a MetaExtent),
    /// The implicit union extent of an interface.
    InterfaceExtent {
        /// The interface whose extents are collected.
        interface: &'a str,
        /// The extents currently registered for that interface, in name order.
        extents: Vec<&'a MetaExtent>,
    },
    /// The recursive union extent `name*`.
    RecursiveExtent {
        /// The root interface of the subtype closure.
        interface: &'a str,
        /// The extents of the interface and all its subtypes, in name order.
        extents: Vec<&'a MetaExtent>,
    },
    /// A view.
    View(&'a ViewDef),
}

impl NameRef<'_> {
    /// Copies the referenced meta-data out of the catalog.
    #[must_use]
    pub fn to_binding(&self) -> NameBinding {
        let owned = |extents: &[&MetaExtent]| extents.iter().map(|&e| e.clone()).collect();
        match self {
            NameRef::Extent(extent) => NameBinding::Extent((*extent).clone()),
            NameRef::InterfaceExtent { interface, extents } => NameBinding::InterfaceExtent {
                interface: (*interface).to_owned(),
                extents: owned(extents),
            },
            NameRef::RecursiveExtent { interface, extents } => NameBinding::RecursiveExtent {
                interface: (*interface).to_owned(),
                extents: owned(extents),
            },
            NameRef::View(view) => NameBinding::View((*view).clone()),
        }
    }
}

/// The mediator's internal schema catalog (the "internal db" of Fig. 2).
///
/// Holds interfaces, meta-extents, repositories, wrapper records and view
/// definitions, and answers the name-resolution and subtyping questions the
/// optimizer and runtime ask.  Every mutation bumps a generation counter
/// and logs what it changed ([`Catalog::changes_since`]), so that cached
/// query plans can be patched or planned again, as required by §3.3 ("the
/// mediator must monitor updates to extents, and modify or recompute plans
/// that are affected").
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    interfaces: BTreeMap<String, InterfaceDef>,
    extents: BTreeMap<String, MetaExtent>,
    repositories: BTreeMap<String, Repository>,
    wrappers: BTreeMap<String, WrapperDef>,
    views: BTreeMap<String, ViewDef>,
    generation: u64,
    changes: ChangeLog,
}

impl Catalog {
    /// Creates an empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The catalog generation, incremented on every mutation.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// What made each generation after `generation`, oldest first;
    /// `None` when the log no longer reaches back that far (it holds the
    /// last few dozen changes) or `generation` is newer than the catalog.
    #[must_use]
    pub fn changes_since(&self, generation: u64) -> Option<impl Iterator<Item = &CatalogChange>> {
        self.changes.last(self.generation.checked_sub(generation)?)
    }

    fn bump(&mut self) {
        self.bump_with(CatalogChange::Other);
    }

    fn bump_with(&mut self, change: CatalogChange) {
        self.generation += 1;
        self.changes.push(change);
    }

    // ------------------------------------------------------------------
    // Interfaces and subtyping
    // ------------------------------------------------------------------

    /// Defines a mediator interface (ODL `interface`).
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::DuplicateInterface`] if the name is taken,
    /// [`CatalogError::UnknownSupertype`] if the named supertype is not yet
    /// defined, and [`CatalogError::CyclicSubtype`] if the interface names
    /// itself as supertype.
    pub fn define_interface(&mut self, def: InterfaceDef) -> Result<()> {
        if self.interfaces.contains_key(def.name()) {
            return Err(CatalogError::DuplicateInterface(def.name().to_owned()));
        }
        if let Some(sup) = def.supertype() {
            if sup == def.name() {
                return Err(CatalogError::CyclicSubtype(def.name().to_owned()));
            }
            if !self.interfaces.contains_key(sup) {
                return Err(CatalogError::UnknownSupertype {
                    interface: def.name().to_owned(),
                    supertype: sup.to_owned(),
                });
            }
        }
        self.interfaces.insert(def.name().to_owned(), def);
        self.bump();
        Ok(())
    }

    /// Looks up an interface definition.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::UnknownInterface`] when absent.
    pub fn interface(&self, name: &str) -> Result<&InterfaceDef> {
        self.interfaces
            .get(name)
            .ok_or_else(|| CatalogError::UnknownInterface(name.to_owned()))
    }

    /// Returns `true` if the interface is defined.
    #[must_use]
    pub fn has_interface(&self, name: &str) -> bool {
        self.interfaces.contains_key(name)
    }

    /// Iterates over all interface definitions in name order.
    pub fn interfaces(&self) -> impl Iterator<Item = &InterfaceDef> {
        self.interfaces.values()
    }

    /// All attributes of an interface, including inherited ones
    /// (supertype attributes first).
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::UnknownInterface`] when absent.
    pub fn attributes_of(&self, name: &str) -> Result<Vec<Attribute>> {
        let mut chain = Vec::new();
        let mut current = Some(name.to_owned());
        while let Some(n) = current {
            let def = self.interface(&n)?;
            chain.push(def);
            current = def.supertype().map(ToOwned::to_owned);
            if chain.len() > self.interfaces.len() {
                return Err(CatalogError::CyclicSubtype(name.to_owned()));
            }
        }
        let mut attrs = Vec::new();
        for def in chain.iter().rev() {
            for a in def.attributes() {
                if !attrs.iter().any(|x: &Attribute| x.name() == a.name()) {
                    attrs.push(a.clone());
                }
            }
        }
        Ok(attrs)
    }

    /// Returns `true` if `sub` is `sup` or a (transitive) subtype of it.
    #[must_use]
    pub fn is_subtype_of(&self, sub: &str, sup: &str) -> bool {
        let mut current = Some(sub.to_owned());
        let mut steps = 0usize;
        while let Some(n) = current {
            if n == sup {
                return true;
            }
            steps += 1;
            if steps > self.interfaces.len() + 1 {
                return false;
            }
            current = self
                .interfaces
                .get(&n)
                .and_then(|d| d.supertype().map(ToOwned::to_owned));
        }
        false
    }

    /// The subtype closure of `name`: the interface itself plus every
    /// (transitive) subtype, in name order.
    #[must_use]
    pub fn subtype_closure(&self, name: &str) -> Vec<String> {
        self.interfaces
            .keys()
            .filter(|candidate| self.is_subtype_of(candidate, name))
            .cloned()
            .collect()
    }

    // ------------------------------------------------------------------
    // Repositories and wrappers
    // ------------------------------------------------------------------

    /// Registers a repository object.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::DuplicateRepository`] if the name is taken.
    pub fn add_repository(&mut self, repo: Repository) -> Result<()> {
        if self.repositories.contains_key(repo.name()) {
            return Err(CatalogError::DuplicateRepository(repo.name().to_owned()));
        }
        self.repositories.insert(repo.name().to_owned(), repo);
        self.bump();
        Ok(())
    }

    /// Looks up a repository.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::UnknownRepository`] when absent.
    pub fn repository(&self, name: &str) -> Result<&Repository> {
        self.repositories
            .get(name)
            .ok_or_else(|| CatalogError::UnknownRepository(name.to_owned()))
    }

    /// Iterates over repositories in name order.
    pub fn repositories(&self) -> impl Iterator<Item = &Repository> {
        self.repositories.values()
    }

    /// Registers a wrapper record.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::DuplicateWrapper`] if the name is taken.
    pub fn add_wrapper(&mut self, wrapper: WrapperDef) -> Result<()> {
        if self.wrappers.contains_key(wrapper.name()) {
            return Err(CatalogError::DuplicateWrapper(wrapper.name().to_owned()));
        }
        self.wrappers.insert(wrapper.name().to_owned(), wrapper);
        self.bump();
        Ok(())
    }

    /// Looks up a wrapper record.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::UnknownWrapper`] when absent.
    pub fn wrapper(&self, name: &str) -> Result<&WrapperDef> {
        self.wrappers
            .get(name)
            .ok_or_else(|| CatalogError::UnknownWrapper(name.to_owned()))
    }

    /// Iterates over wrapper records in name order.
    pub fn wrappers(&self) -> impl Iterator<Item = &WrapperDef> {
        self.wrappers.values()
    }

    // ------------------------------------------------------------------
    // Extents
    // ------------------------------------------------------------------

    /// Registers a meta-extent (the DISCO `extent … of … wrapper …
    /// repository …;` declaration).
    ///
    /// # Errors
    ///
    /// Returns an error if the extent name is already used, or if the
    /// interface, wrapper or repository it references is unknown.
    pub fn add_extent(&mut self, extent: MetaExtent) -> Result<()> {
        if self.extents.contains_key(extent.extent_name()) {
            return Err(CatalogError::DuplicateExtent(
                extent.extent_name().to_owned(),
            ));
        }
        if !self.interfaces.contains_key(extent.interface()) {
            return Err(CatalogError::UnknownInterface(
                extent.interface().to_owned(),
            ));
        }
        if !self.wrappers.contains_key(extent.wrapper()) {
            return Err(CatalogError::UnknownWrapper(extent.wrapper().to_owned()));
        }
        if !self.repositories.contains_key(extent.repository()) {
            return Err(CatalogError::UnknownRepository(
                extent.repository().to_owned(),
            ));
        }
        let change = CatalogChange::ExtentAdded {
            extent: Arc::from(extent.extent_name()),
            interface: Arc::from(extent.interface()),
        };
        self.extents.insert(extent.extent_name().to_owned(), extent);
        self.bump_with(change);
        Ok(())
    }

    /// Removes a registered extent.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::UnknownExtent`] when absent.
    pub fn remove_extent(&mut self, name: &str) -> Result<MetaExtent> {
        let removed = self
            .extents
            .remove(name)
            .ok_or_else(|| CatalogError::UnknownExtent(name.to_owned()))?;
        self.bump_with(CatalogChange::ExtentRemoved {
            extent: Arc::from(removed.extent_name()),
            interface: Arc::from(removed.interface()),
        });
        Ok(removed)
    }

    /// Looks up a single extent by name.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::UnknownExtent`] when absent.
    pub fn extent(&self, name: &str) -> Result<&MetaExtent> {
        self.extents
            .get(name)
            .ok_or_else(|| CatalogError::UnknownExtent(name.to_owned()))
    }

    /// Iterates over all registered extents in name order (the paper's
    /// `metaextent` extent).
    pub fn meta_extents(&self) -> impl Iterator<Item = &MetaExtent> {
        self.extents.values()
    }

    /// The extents registered for an interface.
    ///
    /// With `include_subtypes = false` this is the paper's implicit extent
    /// (`person`); with `true` it is the recursive `person*` extent that
    /// also collects subtype extents (§2.2.1).
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::UnknownInterface`] when the interface is not
    /// defined.
    pub fn extents_of_interface(
        &self,
        interface: &str,
        include_subtypes: bool,
    ) -> Result<Vec<MetaExtent>> {
        let extents = self.extent_refs_of_interface(interface, include_subtypes)?;
        Ok(extents.into_iter().cloned().collect())
    }

    /// [`Catalog::extents_of_interface`] without copying the extents.
    fn extent_refs_of_interface(
        &self,
        interface: &str,
        include_subtypes: bool,
    ) -> Result<Vec<&MetaExtent>> {
        if !self.interfaces.contains_key(interface) {
            return Err(CatalogError::UnknownInterface(interface.to_owned()));
        }
        // Counted first, so that the list is one allocation however long.
        let collect = |of: &dyn Fn(&MetaExtent) -> bool| {
            let extents = self.extents.values().filter(|e| of(e));
            let mut out = Vec::with_capacity(extents.clone().count());
            out.extend(extents);
            out
        };
        Ok(if include_subtypes {
            let accepted = self.subtype_closure(interface);
            collect(&|e| accepted.iter().any(|i| i == e.interface()))
        } else {
            collect(&|e| e.interface() == interface)
        })
    }

    // ------------------------------------------------------------------
    // Views
    // ------------------------------------------------------------------

    /// Defines a view (`define … as …`).
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::DuplicateView`] if the name is taken and
    /// [`CatalogError::CyclicView`] if, following the recorded references,
    /// the new view would participate in a reference cycle.
    pub fn define_view(&mut self, view: ViewDef) -> Result<()> {
        if self.views.contains_key(view.name()) {
            return Err(CatalogError::DuplicateView(view.name().to_owned()));
        }
        // Cycle check: walk references transitively from the new view.
        let mut stack: Vec<String> = view.references().to_vec();
        let mut visited: Vec<String> = Vec::new();
        while let Some(name) = stack.pop() {
            if name == view.name() {
                return Err(CatalogError::CyclicView(view.name().to_owned()));
            }
            if visited.contains(&name) {
                continue;
            }
            visited.push(name.clone());
            if let Some(other) = self.views.get(&name) {
                stack.extend(other.references().iter().cloned());
            }
        }
        self.views.insert(view.name().to_owned(), view);
        self.bump();
        Ok(())
    }

    /// Removes a view.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::UnknownView`] when absent.
    pub fn remove_view(&mut self, name: &str) -> Result<ViewDef> {
        let removed = self
            .views
            .remove(name)
            .ok_or_else(|| CatalogError::UnknownView(name.to_owned()))?;
        self.bump();
        Ok(removed)
    }

    /// Looks up a view.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::UnknownView`] when absent.
    pub fn view(&self, name: &str) -> Result<&ViewDef> {
        self.views
            .get(name)
            .ok_or_else(|| CatalogError::UnknownView(name.to_owned()))
    }

    /// Iterates over views in name order.
    pub fn views(&self) -> impl Iterator<Item = &ViewDef> {
        self.views.values()
    }

    // ------------------------------------------------------------------
    // Name resolution
    // ------------------------------------------------------------------

    /// Resolves a name appearing in an OQL `from` clause.
    ///
    /// Resolution order: registered extent (`person0`), recursive extent
    /// (`person*`), implicit interface extent (`person`), then view.
    /// The answer owns copies of the meta-data; the query path uses
    /// [`Catalog::lookup`], which borrows it.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::UnresolvedName`] when nothing matches.
    pub fn resolve(&self, name: &str) -> Result<NameBinding> {
        Ok(self.lookup(name)?.to_binding())
    }

    /// Resolves a name appearing in an OQL `from` clause to references
    /// into the catalog, in the resolution order of [`Catalog::resolve`].
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::UnresolvedName`] when nothing matches.
    pub fn lookup(&self, name: &str) -> Result<NameRef<'_>> {
        if let Some(extent) = self.extents.get(name) {
            return Ok(NameRef::Extent(extent));
        }
        // An interface is named by its declared extent name first, then by
        // its own name.
        let interface_named = |name: &str| {
            self.interfaces
                .values()
                .find(|d| d.extent_name() == Some(name))
                .or_else(|| self.interfaces.get(name))
                .map(InterfaceDef::name)
        };
        if let Some(interface) = name.strip_suffix('*').and_then(interface_named) {
            let extents = self.extent_refs_of_interface(interface, true)?;
            return Ok(NameRef::RecursiveExtent { interface, extents });
        }
        if let Some(interface) = interface_named(name) {
            let extents = self.extent_refs_of_interface(interface, false)?;
            return Ok(NameRef::InterfaceExtent { interface, extents });
        }
        if let Some(view) = self.views.get(name) {
            return Ok(NameRef::View(view));
        }
        Err(CatalogError::UnresolvedName(name.to_owned()))
    }

    /// Finds the interface whose declared implicit extent name is `name`.
    #[must_use]
    pub fn interface_by_extent_name(&self, name: &str) -> Option<String> {
        self.interfaces
            .values()
            .find(|d| d.extent_name() == Some(name))
            .map(|d| d.name().to_owned())
    }

    /// Summary statistics used by the scaling experiment (E5) and the
    /// catalog component.
    #[must_use]
    pub fn stats(&self) -> CatalogStats {
        CatalogStats {
            interfaces: self.interfaces.len(),
            extents: self.extents.len(),
            repositories: self.repositories.len(),
            wrappers: self.wrappers.len(),
            views: self.views.len(),
        }
    }
}

/// Size of each catalog section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogStats {
    /// Number of interfaces.
    pub interfaces: usize,
    /// Number of registered extents (= data sources).
    pub extents: usize,
    /// Number of repositories.
    pub repositories: usize,
    /// Number of wrapper records.
    pub wrappers: usize,
    /// Number of views.
    pub views: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, TypeRef};

    /// Builds the catalog of the paper's running example: Person with
    /// extents person0/person1, Student subtype with student0/student1.
    fn paper_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.define_interface(
            InterfaceDef::new("Person")
                .with_extent_name("person")
                .with_attribute(Attribute::new("name", TypeRef::String))
                .with_attribute(Attribute::new("salary", TypeRef::Int)),
        )
        .unwrap();
        c.define_interface(InterfaceDef::new("Student").with_supertype("Person"))
            .unwrap();
        c.add_wrapper(WrapperDef::new("w0", "relational")).unwrap();
        for r in ["r0", "r1", "r2", "r3"] {
            c.add_repository(Repository::new(r)).unwrap();
        }
        c.add_extent(MetaExtent::new("person0", "Person", "w0", "r0"))
            .unwrap();
        c.add_extent(MetaExtent::new("person1", "Person", "w0", "r1"))
            .unwrap();
        c.add_extent(MetaExtent::new("student0", "Student", "w0", "r2"))
            .unwrap();
        c.add_extent(MetaExtent::new("student1", "Student", "w0", "r3"))
            .unwrap();
        c
    }

    #[test]
    fn person_extent_contains_only_person_sources() {
        let c = paper_catalog();
        let plain = c.extents_of_interface("Person", false).unwrap();
        assert_eq!(plain.len(), 2, "person contains person0 and person1 only");
        let recursive = c.extents_of_interface("Person", true).unwrap();
        assert_eq!(recursive.len(), 4, "person* also collects student extents");
    }

    #[test]
    fn resolve_extent_interface_and_star() {
        let c = paper_catalog();
        assert!(matches!(
            c.resolve("person0").unwrap(),
            NameBinding::Extent(_)
        ));
        match c.resolve("person").unwrap() {
            NameBinding::InterfaceExtent { interface, extents } => {
                assert_eq!(interface, "Person");
                assert_eq!(extents.len(), 2);
            }
            other => panic!("unexpected binding {other:?}"),
        }
        match c.resolve("person*").unwrap() {
            NameBinding::RecursiveExtent { interface, extents } => {
                assert_eq!(interface, "Person");
                assert_eq!(extents.len(), 4);
            }
            other => panic!("unexpected binding {other:?}"),
        }
        assert!(matches!(
            c.resolve("nothing").unwrap_err(),
            CatalogError::UnresolvedName(_)
        ));
    }

    #[test]
    fn lookup_borrows_what_resolve_copies() {
        let mut c = paper_catalog();
        c.define_view(ViewDef::new("rich", "select x from x in person"))
            .unwrap();
        // Named by the interface too, and an extent name wins over both.
        for name in ["person0", "person", "Person", "person*", "Person*", "rich"] {
            assert_eq!(
                c.lookup(name).unwrap().to_binding(),
                c.resolve(name).unwrap()
            );
        }
        match c.lookup("person0").unwrap() {
            NameRef::Extent(extent) => {
                assert!(std::ptr::eq(extent, c.extent("person0").unwrap()));
            }
            other => panic!("unexpected binding {other:?}"),
        }
        match c.lookup("Person*").unwrap() {
            NameRef::RecursiveExtent { interface, extents } => {
                assert_eq!(interface, "Person");
                let names: Vec<&str> = extents.iter().map(|e| e.extent_name()).collect();
                let in_name_order: Vec<&str> = c
                    .meta_extents()
                    .map(MetaExtent::extent_name)
                    .filter(|n| n.starts_with("person") || n.starts_with("student"))
                    .collect();
                assert_eq!(names, in_name_order);
            }
            other => panic!("unexpected binding {other:?}"),
        }
        assert!(matches!(c.lookup("rich").unwrap(), NameRef::View(_)));
        assert!(matches!(
            c.lookup("nothing*").unwrap_err(),
            CatalogError::UnresolvedName(_)
        ));
    }

    #[test]
    fn subtype_queries() {
        let c = paper_catalog();
        assert!(c.is_subtype_of("Student", "Person"));
        assert!(c.is_subtype_of("Person", "Person"));
        assert!(!c.is_subtype_of("Person", "Student"));
        assert_eq!(c.subtype_closure("Person"), vec!["Person", "Student"]);
    }

    #[test]
    fn inherited_attributes_are_visible_on_subtype() {
        let c = paper_catalog();
        let attrs = c.attributes_of("Student").unwrap();
        let names: Vec<&str> = attrs.iter().map(Attribute::name).collect();
        assert_eq!(names, vec!["name", "salary"]);
    }

    #[test]
    fn adding_extent_requires_existing_interface_wrapper_repository() {
        let mut c = paper_catalog();
        assert!(matches!(
            c.add_extent(MetaExtent::new("x0", "Nope", "w0", "r0")),
            Err(CatalogError::UnknownInterface(_))
        ));
        assert!(matches!(
            c.add_extent(MetaExtent::new("x0", "Person", "wz", "r0")),
            Err(CatalogError::UnknownWrapper(_))
        ));
        assert!(matches!(
            c.add_extent(MetaExtent::new("x0", "Person", "w0", "rz")),
            Err(CatalogError::UnknownRepository(_))
        ));
        assert!(matches!(
            c.add_extent(MetaExtent::new("person0", "Person", "w0", "r0")),
            Err(CatalogError::DuplicateExtent(_))
        ));
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut c = Catalog::new();
        let g0 = c.generation();
        c.define_interface(InterfaceDef::new("T")).unwrap();
        assert!(c.generation() > g0);
        let g1 = c.generation();
        c.add_repository(Repository::new("r")).unwrap();
        c.add_wrapper(WrapperDef::new("w", "relational")).unwrap();
        c.add_extent(MetaExtent::new("t0", "T", "w", "r")).unwrap();
        assert!(c.generation() > g1);
        let g2 = c.generation();
        c.remove_extent("t0").unwrap();
        assert!(c.generation() > g2);
    }

    #[test]
    fn the_change_log_names_the_extents_each_generation_added_or_removed() {
        let mut c = Catalog::new();
        c.define_interface(InterfaceDef::new("T")).unwrap();
        c.add_repository(Repository::new("r")).unwrap();
        c.add_wrapper(WrapperDef::new("w", "relational")).unwrap();
        let g = c.generation();
        assert_eq!(c.changes_since(g).unwrap().count(), 0);
        c.add_extent(MetaExtent::new("t0", "T", "w", "r")).unwrap();
        c.remove_extent("t0").unwrap();
        let changes: Vec<_> = c
            .changes_since(g)
            .unwrap()
            .map(CatalogChange::extent)
            .collect();
        assert_eq!(changes, [Some(("t0", "T")), Some(("t0", "T"))]);
        assert!(matches!(
            c.changes_since(g).unwrap().next(),
            Some(CatalogChange::ExtentAdded { .. })
        ));
        // Anything but an extent is logged as such.
        c.add_repository(Repository::new("r1")).unwrap();
        assert_eq!(
            c.changes_since(g + 2).unwrap().collect::<Vec<_>>(),
            [&CatalogChange::Other]
        );
        // A snapshot newer than the catalog, or older than the log.
        assert!(c.changes_since(c.generation() + 1).is_none());
        for i in 0..40 {
            c.add_repository(Repository::new(format!("x{i}"))).unwrap();
        }
        assert!(c.changes_since(g).is_none());
        assert_eq!(c.changes_since(c.generation() - 3).unwrap().count(), 3);
    }

    #[test]
    fn view_cycles_are_rejected() {
        let mut c = Catalog::new();
        c.define_view(ViewDef::new("a", "select x from x in b").with_references(["b"]))
            .unwrap();
        // b references a, and a references b -> cycle.
        let err = c
            .define_view(ViewDef::new("b", "select x from x in a").with_references(["a"]))
            .unwrap_err();
        // Wait: the cycle is only detected if following the *new* view's
        // references reaches the new view itself. b -> a -> b: yes.
        assert!(matches!(err, CatalogError::CyclicView(_)));
        // Non-cyclic chains are fine.
        c.define_view(ViewDef::new("c", "select x from x in a").with_references(["a"]))
            .unwrap();
    }

    #[test]
    fn self_referential_view_is_rejected() {
        let mut c = Catalog::new();
        let err = c
            .define_view(ViewDef::new("v", "select x from x in v").with_references(["v"]))
            .unwrap_err();
        assert!(matches!(err, CatalogError::CyclicView(_)));
    }

    #[test]
    fn unknown_supertype_and_cyclic_supertype_rejected() {
        let mut c = Catalog::new();
        assert!(matches!(
            c.define_interface(InterfaceDef::new("A").with_supertype("Missing")),
            Err(CatalogError::UnknownSupertype { .. })
        ));
        assert!(matches!(
            c.define_interface(InterfaceDef::new("A").with_supertype("A")),
            Err(CatalogError::CyclicSubtype(_))
        ));
    }

    #[test]
    fn stats_count_each_section() {
        let c = paper_catalog();
        let s = c.stats();
        assert_eq!(s.interfaces, 2);
        assert_eq!(s.extents, 4);
        assert_eq!(s.repositories, 4);
        assert_eq!(s.wrappers, 1);
        assert_eq!(s.views, 0);
    }

    #[test]
    fn removing_unknown_items_errors() {
        let mut c = Catalog::new();
        assert!(c.remove_extent("nope").is_err());
        assert!(c.remove_view("nope").is_err());
        assert!(c.view("nope").is_err());
        assert!(c.wrapper("nope").is_err());
        assert!(c.repository("nope").is_err());
        assert!(c.interface("nope").is_err());
        assert!(c.extent("nope").is_err());
    }
}
