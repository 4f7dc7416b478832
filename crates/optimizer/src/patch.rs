//! Patching a planned query to a later catalog (§3.3).
//!
//! "The mediator must monitor updates to extents, and modify or recompute
//! plans that are affected by updates to the extents."  An interface's
//! extent is one [`Extents`] node from compile to lowering, so adding or
//! removing an extent of it changes one member list, and a plan need not
//! be searched and lowered again for it.  What the miss that planned a
//! text keeps for this is its [`PlanMemo`]: the collection names the text
//! resolved, the classed, normalized plan the search walked, the search's
//! classes and each member's site costs, the winning strategy, and the
//! capabilities each class was planned for.
//!
//! [`Optimizer::patch`] reads the catalog's change log since the plan's
//! generation.  If every change added or removed an extent, it resolves
//! the text's names again: a name none of the changed extents falls
//! under keeps its node; a node of a name some did gets the catalog's
//! member list now, every member kept as it was and each new one put in
//! the class whose capabilities its wrapper has.  The search then walks
//! the patched plan again, each kept member costed as at planning time and
//! each new one from the store — bit for bit the walk a fresh search of
//! the patched plan makes over the same calibration — and the patch holds
//! only if the same strategy wins.  A class whose first member changed
//! has its template named after the new one, as classing names it.
//! Anything else — another kind of change, a name that now resolves to
//! one extent or none, a new class, a class left empty or met out of its
//! order, a changed winner — is left to planning again.  A patched plan equals the plan
//! the text would be planned to from scratch: the physical plan differs
//! in member lists only, and the [`Patch`] says which.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use disco_algebra::rules::caps_of;
use disco_algebra::{CapabilityLookup, CapabilitySet, Extents, LogicalExpr, Member, PhysicalExpr};
use disco_catalog::{Catalog, MetaExtent, NameRef};

use crate::cost::PlanCost;
use crate::planner::{Optimizer, PlanAlternative};
use crate::search::{search_again, SearchMemo};

/// Heap bytes estimated per plan node (a node, its payload and its boxes):
/// what [`crate::CacheEntry::bytes`] estimates trees with.
pub const NODE_BYTES: usize = 160;

/// The heap bytes `plan` keeps, estimated: its nodes, a fan-out's
/// templates once, and its members with their names.
#[must_use]
pub fn physical_bytes(plan: &PhysicalExpr) -> usize {
    const ARC_HEADER: usize = 2 * std::mem::size_of::<usize>();
    match plan {
        PhysicalExpr::FanOut(node) => {
            let templates: usize = node.templates.iter().map(physical_bytes).sum();
            let members = node.members.iter().map(|m| {
                let names = m.repository.len() + m.wrapper.len() + m.extent.len();
                std::mem::size_of::<Member>() + 3 * ARC_HEADER + names
            });
            NODE_BYTES + templates + members.sum::<usize>()
        }
        _ => {
            let mut bytes = NODE_BYTES;
            plan.for_each_child(&mut |child| bytes += physical_bytes(child));
            bytes
        }
    }
}

/// The nodes of `plan`, an [`Extents`] node's templates once and its
/// members (which a logical plan shares with its physical one) not at
/// all.
pub(crate) fn logical_nodes(plan: &LogicalExpr) -> usize {
    let mut nodes = 0;
    outside_nodes(plan, &mut |e| {
        nodes += match e {
            LogicalExpr::Extents(node) => node.templates.iter().map(LogicalExpr::size).sum(),
            _ => 1,
        };
    });
    nodes
}

/// One use of a collection name in a planned text, and what it resolved
/// to: the number of extents of an interface's extent, `None` for an
/// extent named directly.
#[derive(Debug)]
pub(crate) struct NameUse {
    pub(crate) name: Box<str>,
    pub(crate) extents: Option<usize>,
}

/// What a plan-cache miss keeps so that a later catalog's plan can be
/// patched from the plan instead of planned again; see the module
/// documentation.
#[derive(Debug)]
pub struct PlanMemo {
    /// The names the text resolved, one per use; `None` for a plan not
    /// compiled from text, which is never patched.
    names: Option<Arc<[NameUse]>>,
    /// The classed, normalized plan the search walked.
    normalized: LogicalExpr,
    search: SearchMemo,
    /// The alternatives the search found, and the winner's index.
    alternatives: Vec<PlanAlternative>,
    winner: usize,
    capabilities: Arc<Capabilities>,
    /// The lookup version the capabilities were last found to hold at.
    checked: AtomicU64,
}

/// The capabilities a plan was planned for.
#[derive(Debug, Default)]
struct Capabilities {
    /// Per [`Extents`] node of the normalized plan, in walk order: each
    /// class's.
    nodes: Vec<Vec<CapabilitySet>>,
    /// Each wrapper a `submit` outside any node names: its.
    wrappers: Vec<(Box<str>, CapabilitySet)>,
}

impl PlanMemo {
    /// The memo of a plan searched over `normalized`, its capabilities
    /// read from `lookup` at `version`.
    pub(crate) fn new(
        names: Option<Vec<NameUse>>,
        normalized: LogicalExpr,
        (alternatives, winner, search): (Vec<PlanAlternative>, usize, SearchMemo),
        lookup: &dyn CapabilityLookup,
        version: u64,
    ) -> Self {
        let mut capabilities = Capabilities::default();
        outside_nodes(&normalized, &mut |e| match e {
            LogicalExpr::Extents(node) => {
                let mut classes = vec![CapabilitySet::get_only(); node.templates.len()];
                for m in node.members.iter().rev() {
                    classes[m.class] = caps_of(lookup, &m.wrapper);
                }
                capabilities.nodes.push(classes);
            }
            LogicalExpr::Submit { wrapper, .. }
                if !capabilities.wrappers.iter().any(|(w, _)| **w == **wrapper) =>
            {
                let caps = caps_of(lookup, wrapper);
                capabilities.wrappers.push((wrapper.as_str().into(), caps));
            }
            _ => {}
        });
        PlanMemo {
            names: names.map(Arc::from),
            normalized,
            search,
            alternatives,
            winner,
            capabilities: Arc::new(capabilities),
            checked: AtomicU64::new(version),
        }
    }

    /// Whether every wrapper the plan calls is bound to the capabilities
    /// it was planned for — checked against `lookup` once per version.
    pub(crate) fn capabilities_hold(&self, lookup: &dyn CapabilityLookup) -> bool {
        let version = lookup.version();
        if self.checked.load(Ordering::Acquire) == version {
            return true;
        }
        let caps = &self.capabilities;
        let mut nodes = caps.nodes.iter();
        let mut hold = caps
            .wrappers
            .iter()
            .all(|(wrapper, set)| caps_of(lookup, wrapper) == *set);
        outside_nodes(&self.normalized, &mut |e| {
            if let LogicalExpr::Extents(node) = e {
                hold &= nodes.next().is_some_and(|classes| {
                    node.members
                        .iter()
                        .all(|m| caps_of(lookup, &m.wrapper) == classes[m.class])
                });
            }
        });
        if hold {
            self.checked.store(version, Ordering::Release);
        }
        hold
    }

    /// The heap bytes the memo keeps, estimated; its member lists are the
    /// plan's and not counted.
    #[must_use]
    pub fn bytes(&self) -> usize {
        let names: usize = self
            .names
            .iter()
            .flat_map(|names| names.iter())
            .map(|n| std::mem::size_of::<NameUse>() + n.name.len())
            .sum();
        let nodes = logical_nodes(&self.normalized);
        std::mem::size_of::<Self>() + names + nodes * NODE_BYTES + self.search.bytes()
    }
}

/// Calls `f` on every node of `plan` in walk order, not descending into
/// the templates of an [`Extents`] node.
fn outside_nodes<'a>(plan: &'a LogicalExpr, f: &mut impl FnMut(&'a LogicalExpr)) {
    f(plan);
    if !matches!(plan, LogicalExpr::Extents(_)) {
        plan.for_each_child(&mut |child| outside_nodes(child, f));
    }
}

/// A node's members before a patch, and after.
type Repointed = (Arc<[Member]>, Arc<[Member]>);

/// The first member of each class of `members` whose first member in
/// `before` was another: the classes whose template is named anew.
fn renamed<'a>(
    before: &'a [Member],
    after: &'a [Member],
    classes: usize,
) -> impl Iterator<Item = (usize, &'a Member)> {
    (0..classes).filter_map(move |class| {
        let first = |members: &'a [Member]| members.iter().find(|m| m.class == class);
        let now = first(after)?;
        (!first(before).is_some_and(|was| Arc::ptr_eq(&was.extent, &now.extent)))
            .then_some((class, now))
    })
}

/// A plan patched to a later catalog: what [`Optimizer::patch`] found,
/// for a cache entry to apply to its own form of the plan.
#[derive(Debug)]
pub struct Patch {
    memo: Arc<PlanMemo>,
    /// Each patched node's members, before and after.
    nodes: Vec<Repointed>,
    generation: u64,
    alternatives: Vec<PlanAlternative>,
    winner: usize,
}

impl Patch {
    /// Whether the patch changes no node: the plan stays as it was.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The memo of the patched plan.
    #[must_use]
    pub fn memo(&self) -> &Arc<PlanMemo> {
        &self.memo
    }

    /// The catalog generation the patched plan is for.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The patched plan's alternatives.
    #[must_use]
    pub fn alternatives(&self) -> &[PlanAlternative] {
        &self.alternatives
    }

    /// The patched plan's cost.
    #[must_use]
    pub fn cost(&self) -> PlanCost {
        self.alternatives[self.winner].cost
    }

    /// Gives each patched node of `plan` its new members — and each class
    /// whose first member changed a template named after the new one;
    /// `false` unless each was found exactly once.
    #[must_use]
    pub fn apply_logical(&self, plan: &mut LogicalExpr) -> bool {
        let mut found = vec![0usize; self.nodes.len()];
        self.repoint_logical(plan, &mut found);
        found.iter().all(|&n| n == 1)
    }

    fn repoint_logical(&self, plan: &mut LogicalExpr, found: &mut [usize]) {
        if let LogicalExpr::Extents(node) = plan {
            if let Some(at) = self.position(&node.members) {
                found[at] += 1;
                let (before, after) = &self.nodes[at];
                for (class, first) in renamed(before, after, node.templates.len()) {
                    node.templates[class] = node.templates[class].instance(first);
                }
                node.members = Arc::clone(after);
            }
            return;
        }
        plan.for_each_child_mut(&mut |child| self.repoint_logical(child, found));
    }

    /// [`Patch::apply_logical`] for a physical plan's fan-outs.
    #[must_use]
    pub fn apply_physical(&self, plan: &mut PhysicalExpr) -> bool {
        let mut found = vec![0usize; self.nodes.len()];
        self.repoint_physical(plan, &mut found);
        found.iter().all(|&n| n == 1)
    }

    fn repoint_physical(&self, plan: &mut PhysicalExpr, found: &mut [usize]) {
        if let PhysicalExpr::FanOut(node) = plan {
            if let Some(at) = self.position(&node.members) {
                found[at] += 1;
                let (before, after) = &self.nodes[at];
                for (class, first) in renamed(before, after, node.templates.len()) {
                    node.templates[class] = node.templates[class].instance(first);
                }
                node.members = Arc::clone(after);
            }
            return;
        }
        plan.for_each_child_mut(&mut |child| self.repoint_physical(child, found));
    }

    fn position(&self, members: &Arc<[Member]>) -> Option<usize> {
        self.nodes
            .iter()
            .position(|(before, _)| Arc::ptr_eq(before, members))
    }
}

impl Optimizer {
    /// The patch of the plan `memo` was kept for, planned at catalog
    /// generation `generation`, to `catalog`; `None` when the text must
    /// be planned again.  See the module documentation.
    #[must_use]
    pub fn patch(&self, memo: &Arc<PlanMemo>, generation: u64, catalog: &Catalog) -> Option<Patch> {
        let names = memo.names.as_ref()?;
        let lookup = self.capabilities();
        let version = lookup.version();
        // The extents added or removed since, and their interfaces: a
        // member of one is new, whatever it was before.
        let mut changed: Vec<(&str, &str)> = Vec::new();
        for change in catalog.changes_since(generation)? {
            changed.push(change.extent()?);
        }
        if !memo.capabilities_hold(lookup) {
            return None;
        }
        let is_changed = |name: &str| changed.iter().any(|(extent, _)| *extent == name);
        // The names a changed extent falls under, with their extents now.
        let mut affected: Vec<(&str, Vec<&MetaExtent>)> = Vec::new();
        for (i, use_) in names.iter().enumerate() {
            let name = &*use_.name;
            if names[..i].iter().any(|earlier| *earlier.name == *name) {
                continue;
            }
            match (use_.extents, catalog.lookup(name).ok()?) {
                (None, NameRef::Extent(extent)) if !is_changed(extent.extent_name()) => {}
                (Some(before), NameRef::InterfaceExtent { interface, extents })
                | (Some(before), NameRef::RecursiveExtent { interface, extents }) => {
                    let recursive = name.ends_with('*');
                    let falls_under = |of: &str| {
                        of == interface || (recursive && catalog.is_subtype_of(of, interface))
                    };
                    if !changed.iter().any(|(_, of)| falls_under(of)) {
                        continue;
                    }
                    let uses = names.iter().filter(|u| *u.name == *name).count();
                    if before < 2
                        || extents.len() < 2
                        || uses != nodes_named(&memo.normalized, name)
                    {
                        return None;
                    }
                    affected.push((name, extents));
                }
                _ => return None,
            }
        }
        if affected.is_empty() {
            return Some(Patch {
                memo: Arc::clone(memo),
                nodes: Vec::new(),
                generation: catalog.generation(),
                alternatives: memo.alternatives.clone(),
                winner: memo.winner,
            });
        }
        let mut normalized = memo.normalized.clone();
        let mut nodes = Vec::new();
        let mut k = 0;
        let mut failed = false;
        repoint_nodes(&mut normalized, &mut |node| {
            let Some(classes) = memo.capabilities.nodes.get(k) else {
                failed = true;
                return;
            };
            k += 1;
            let Some((_, extents)) = affected
                .iter()
                .find(|(name, _)| node.name.as_deref() == Some(*name))
            else {
                return;
            };
            match merged(&node.members, extents, classes, &is_changed, lookup) {
                Some(members) => {
                    let classes = node.templates.len();
                    for (class, first) in renamed(&node.members, &members, classes) {
                        node.templates[class] = node.templates[class].instance(first);
                    }
                    nodes.push((Arc::clone(&node.members), Arc::clone(&members)));
                    node.members = members;
                }
                None => failed = true,
            }
        });
        if failed {
            return None;
        }
        let (alternatives, winner, search) = search_again(
            &normalized,
            &memo.normalized,
            &memo.search,
            lookup,
            self.cost_model(),
        )?;
        if alternatives[winner].strategy != memo.alternatives[memo.winner].strategy {
            return None;
        }
        let memo = PlanMemo {
            names: memo.names.clone(),
            normalized,
            search,
            alternatives: alternatives.clone(),
            winner,
            capabilities: Arc::clone(&memo.capabilities),
            checked: AtomicU64::new(version),
        };
        Some(Patch {
            memo: Arc::new(memo),
            nodes,
            generation: catalog.generation(),
            alternatives,
            winner,
        })
    }
}

/// The number of [`Extents`] nodes outside any node's templates named
/// `name`.
fn nodes_named(plan: &LogicalExpr, name: &str) -> usize {
    let mut count = 0;
    outside_nodes(plan, &mut |e| {
        if let LogicalExpr::Extents(node) = e {
            count += usize::from(node.name.as_deref() == Some(name));
        }
    });
    count
}

/// Calls `f` on every [`Extents`] node of `plan` in walk order.
fn repoint_nodes(plan: &mut LogicalExpr, f: &mut impl FnMut(&mut Extents)) {
    if let LogicalExpr::Extents(node) = plan {
        f(node);
        return;
    }
    plan.for_each_child_mut(&mut |child| repoint_nodes(child, f));
}

/// The members of a node over `extents`, whose members were `old`: each
/// old member whose extent is still there and not `changed` as it was,
/// each other one new, in the class whose capabilities (`classes`) its
/// wrapper has.  `None` when one has no class, when a class has no member
/// left, or when the classes no longer first appear in their order (a
/// fresh plan would number them otherwise).
fn merged(
    old: &[Member],
    extents: &[&MetaExtent],
    classes: &[CapabilitySet],
    changed: &dyn Fn(&str) -> bool,
    lookup: &dyn CapabilityLookup,
) -> Option<Arc<[Member]>> {
    let mut members = Vec::with_capacity(extents.len());
    let mut next = 0;
    for extent in extents {
        let name = extent.extent_name();
        while old.get(next).is_some_and(|m| *m.extent < *name) {
            next += 1;
        }
        match old.get(next) {
            Some(m) if *m.extent == *name && !changed(name) => {
                members.push(m.clone());
                next += 1;
                continue;
            }
            Some(m) if *m.extent == *name => next += 1,
            _ => {}
        }
        let caps = caps_of(lookup, extent.wrapper());
        let class = classes.iter().position(|c| *c == caps)?;
        members.push(Member {
            repository: Arc::from(extent.repository()),
            wrapper: Arc::from(extent.wrapper()),
            extent: Arc::from(name),
            class,
        });
    }
    // Classes are numbered in order of first appearance.
    let mut met = 0;
    for m in &members {
        if m.class == met {
            met += 1;
        } else if m.class > met {
            return None;
        }
    }
    (met == classes.len()).then(|| Arc::from(members))
}
