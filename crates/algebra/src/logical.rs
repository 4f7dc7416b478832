//! The logical algebra of the DISCO mediator (§3.1–3.2).
//!
//! The optimizer compiles OQL into a tree of [`LogicalExpr`] operators.
//! The operator set contains the paper's "usual logical operators of
//! project, join, etc." plus the DISCO-specific
//! [`LogicalExpr::Submit`] operator, which marks the boundary between the
//! mediator and a wrapper: "this operator means that the meaning of
//! `expression` is located at `source`".
//!
//! Two row shapes flow through a plan:
//!
//! * **source rows** — plain tuples of a data-source relation; produced by
//!   [`LogicalExpr::Get`] and consumed by the *pushable* operators
//!   ([`LogicalExpr::Filter`], [`LogicalExpr::Project`],
//!   [`LogicalExpr::SourceJoin`]) that may travel through `submit`,
//! * **environment rows** — structs binding each OQL range variable to its
//!   tuple; produced by [`LogicalExpr::Bind`] and consumed by the
//!   mediator-side operators ([`LogicalExpr::Join`],
//!   [`LogicalExpr::MapProject`], …).

use std::sync::Arc;

use disco_value::{Bag, Value};

use crate::scalar::{AggKind, ScalarExpr};

/// A logical query plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalExpr {
    /// Scan of a named collection (`get(person0)`).  The collection name is
    /// in the *mediator* name space; the `exec` physical algorithm applies
    /// the local transformation map when crossing into a data source.
    Get {
        /// The extent / relation name.
        collection: String,
    },
    /// Literal data embedded in a plan (used for partial answers and for
    /// `bag(...)` constructors).
    Data(Bag),
    /// Selection: keep rows satisfying the predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalExpr>,
        /// The predicate (over the input's row shape).
        predicate: ScalarExpr,
    },
    /// Pushable projection onto named attributes (`project(name, e)`).
    Project {
        /// Input plan.
        input: Box<LogicalExpr>,
        /// Attributes to keep, in order.
        columns: Vec<String>,
    },
    /// Generalized projection evaluated by the mediator: computes an
    /// arbitrary scalar expression (struct construction, arithmetic,
    /// correlated aggregates) per environment row.
    MapProject {
        /// Input plan (environment rows).
        input: Box<LogicalExpr>,
        /// The projected expression.
        projection: ScalarExpr,
    },
    /// Join executable inside a data source (`join(e1, e2, dept)`):
    /// equi-join of two source-row inputs on pairs of attribute names,
    /// merging the tuples.
    SourceJoin {
        /// Left input (source rows).
        left: Box<LogicalExpr>,
        /// Right input (source rows).
        right: Box<LogicalExpr>,
        /// Equality conditions `(left_attr, right_attr)`.
        on: Vec<(String, String)>,
    },
    /// Wraps each source row `t` into the environment row `{var: t}`.
    Bind {
        /// The OQL range variable.
        var: String,
        /// Input plan (source rows).
        input: Box<LogicalExpr>,
    },
    /// Mediator-side join of two environment-row inputs (cross product plus
    /// optional predicate); the environments are merged.
    Join {
        /// Left input (environment rows).
        left: Box<LogicalExpr>,
        /// Right input (environment rows).
        right: Box<LogicalExpr>,
        /// Optional join predicate over the merged environment.
        predicate: Option<ScalarExpr>,
    },
    /// Bag union of any number of inputs.
    Union(Vec<LogicalExpr>),
    /// Flattens a bag of bags.
    Flatten(Box<LogicalExpr>),
    /// Removes duplicates.
    Distinct(Box<LogicalExpr>),
    /// Aggregates the input bag of scalars into a single value.
    Aggregate {
        /// The aggregate function.
        func: AggKind,
        /// Input plan producing a bag of scalars.
        input: Box<LogicalExpr>,
    },
    /// The DISCO `submit(source, expression)` operator: `expr` is to be
    /// evaluated by the wrapper `wrapper` against the repository
    /// `repository`.  The operator has remote-procedure-call semantics —
    /// it cannot accept data from another data source (§3.2), which is why
    /// semijoins are not expressible.
    Submit {
        /// The repository (data source address object) name, e.g. `r0`.
        repository: String,
        /// The wrapper name, e.g. `w0`.
        wrapper: String,
        /// The extent whose map/namespace governs the translation.
        extent: String,
        /// The expression shipped to the wrapper (still in mediator
        /// name space; `exec` applies the map).
        expr: Box<LogicalExpr>,
    },
    /// The extent of an interface over two or more member extents, or a
    /// union of like branches: the bag union of one branch per member,
    /// held as one branch template per class (see [`Extents`]).  It
    /// prints, converts to OQL and compares as that union.
    Extents(Extents),
}

/// One member extent of an [`Extents`] node: where it lives and which
/// class's template its branch is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Member {
    /// The repository, e.g. `r0`.
    pub repository: Arc<str>,
    /// The wrapper, e.g. `w0`.
    pub wrapper: Arc<str>,
    /// The extent, e.g. `person0`.
    pub extent: Arc<str>,
    /// The index of its class's template.
    pub class: usize,
}

/// The extent of an interface, or a union of like branches: the union of
/// its members' branches, each the template of its class with the
/// member's names.
///
/// A template compiled from an interface holds one `submit(get)` and the
/// unary operators rules distributed over it; a folded union's are its
/// branches, one per class of alike branches
/// ([`crate::rules::simplify_union`]).  A template's submit and gets name
/// no source until the optimizer forms the classes
/// ([`crate::rules::classify_extents`]): members of one template whose
/// wrappers have equal capabilities share a class, and each class's
/// template names its first member, so that the capability-checked rules
/// rewrite it for all of them.  Members stay in catalog (or branch) order.
///
/// Equality is that of the expansion: the same members, each with the
/// same branch, however the members are classed (and whatever its name).
#[derive(Debug, Clone)]
pub struct Extents {
    /// The members, in catalog (or branch) order.
    pub members: Arc<[Member]>,
    /// One branch template per class.
    pub templates: Vec<LogicalExpr>,
    /// The collection name the node was compiled from (`person`,
    /// `person*`), by which a cached plan finds the node again when an
    /// extent of it is added or removed; `None` for a folded union and a
    /// node read back from a physical plan.
    pub name: Option<Arc<str>>,
}

impl Extents {
    /// The unclassed node over `(repository, wrapper, extent)` members:
    /// one template, `submit(get)`, naming no source.
    #[must_use]
    pub fn new(members: impl IntoIterator<Item = (Arc<str>, Arc<str>, Arc<str>)>) -> Self {
        let members = members
            .into_iter()
            .map(|(repository, wrapper, extent)| Member {
                repository,
                wrapper,
                extent,
                class: 0,
            });
        Extents {
            members: members.collect(),
            templates: vec![LogicalExpr::get("").submit("", "", "")],
            name: None,
        }
    }

    /// The node, compiled from the collection `name`.
    #[must_use]
    pub fn named(mut self, name: &str) -> Self {
        self.name = Some(Arc::from(name));
        self
    }

    /// Whether the classes are formed: no template's submit is unnamed.
    #[must_use]
    pub(crate) fn is_classified(&self) -> bool {
        let mut named = true;
        for template in &self.templates {
            template.walk(&mut |e| {
                if let LogicalExpr::Submit { wrapper, .. } = e {
                    named &= !wrapper.is_empty();
                }
            });
        }
        named
    }

    /// The branch of member `i`: its class's template with its names.
    #[must_use]
    pub fn branch(&self, i: usize) -> LogicalExpr {
        let member = &self.members[i];
        self.templates[member.class].instance(member)
    }

    /// The node as the union of its branches.
    #[must_use]
    pub fn to_union(&self) -> LogicalExpr {
        LogicalExpr::Union((0..self.members.len()).map(|i| self.branch(i)).collect())
    }
}

impl PartialEq for Extents {
    fn eq(&self, other: &Self) -> bool {
        self.members.len() == other.members.len()
            && self.members.iter().zip(other.members.iter()).all(|(a, b)| {
                a.repository == b.repository
                    && a.wrapper == b.wrapper
                    && a.extent == b.extent
                    && self.templates[a.class].same_but_names(&other.templates[b.class])
            })
    }
}

impl Default for LogicalExpr {
    /// The empty union: a plan that produces no rows and owns no heap
    /// memory.  It is what [`std::mem::take`] leaves in a slot while a
    /// transformation rule moves the slot's content elsewhere.
    fn default() -> Self {
        LogicalExpr::Union(Vec::new())
    }
}

impl LogicalExpr {
    /// Builds a `get` node.
    #[must_use]
    pub fn get(collection: impl Into<String>) -> LogicalExpr {
        LogicalExpr::Get {
            collection: collection.into(),
        }
    }

    /// Builds a filter node.
    #[must_use]
    pub fn filter(self, predicate: ScalarExpr) -> LogicalExpr {
        LogicalExpr::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Builds a pushable projection node.
    #[must_use]
    pub fn project<I, S>(self, columns: I) -> LogicalExpr
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        LogicalExpr::Project {
            input: Box::new(self),
            columns: columns.into_iter().map(Into::into).collect(),
        }
    }

    /// Builds a bind node.
    #[must_use]
    pub fn bind(self, var: impl Into<String>) -> LogicalExpr {
        LogicalExpr::Bind {
            var: var.into(),
            input: Box::new(self),
        }
    }

    /// Builds a generalized projection node.
    #[must_use]
    pub fn map_project(self, projection: ScalarExpr) -> LogicalExpr {
        LogicalExpr::MapProject {
            input: Box::new(self),
            projection,
        }
    }

    /// Builds a submit node around `self`.
    #[must_use]
    pub fn submit(
        self,
        repository: impl Into<String>,
        wrapper: impl Into<String>,
        extent: impl Into<String>,
    ) -> LogicalExpr {
        LogicalExpr::Submit {
            repository: repository.into(),
            wrapper: wrapper.into(),
            extent: extent.into(),
            expr: Box::new(self),
        }
    }

    /// The operator name used in capability checks and cost records.
    #[must_use]
    pub fn op_name(&self) -> &'static str {
        match self {
            LogicalExpr::Get { .. } => "get",
            LogicalExpr::Data(_) => "data",
            LogicalExpr::Filter { .. } => "select",
            LogicalExpr::Project { .. } => "project",
            LogicalExpr::MapProject { .. } => "map",
            LogicalExpr::SourceJoin { .. } => "join",
            LogicalExpr::Bind { .. } => "bind",
            LogicalExpr::Join { .. } => "mediator-join",
            LogicalExpr::Union(_) => "union",
            LogicalExpr::Flatten(_) => "flatten",
            LogicalExpr::Distinct(_) => "distinct",
            LogicalExpr::Aggregate { .. } => "aggregate",
            LogicalExpr::Submit { .. } => "submit",
            LogicalExpr::Extents(_) => "extents",
        }
    }

    /// A copy of a branch template (or of the expression its submit
    /// ships) with the names of `member`: its submit's repository,
    /// wrapper and extent, and its gets' collection.
    #[must_use]
    pub fn instance(&self, member: &Member) -> LogicalExpr {
        let mut out = self.clone();
        out.name_after(member);
        out
    }

    pub(crate) fn name_after(&mut self, member: &Member) {
        match self {
            LogicalExpr::Get { collection } => (*member.extent).clone_into(collection),
            LogicalExpr::Submit {
                repository,
                wrapper,
                extent,
                ..
            } => {
                (*member.repository).clone_into(repository);
                (*member.wrapper).clone_into(wrapper);
                (*member.extent).clone_into(extent);
            }
            _ => {}
        }
        self.for_each_child_mut(&mut |child| child.name_after(member));
    }

    /// Whether the plan equals `other` once the names of the sources they
    /// read are set aside: each get's collection, and each submit's
    /// repository, wrapper and extent.  Never for an [`Extents`] node,
    /// whose members are names too.
    pub(crate) fn same_but_names(&self, other: &LogicalExpr) -> bool {
        use LogicalExpr as L;
        let mut same = match (self, other) {
            (L::Get { .. }, L::Get { .. }) | (L::Submit { .. }, L::Submit { .. }) => true,
            (L::Flatten(_), L::Flatten(_)) | (L::Distinct(_), L::Distinct(_)) => true,
            (L::Data(x), L::Data(y)) => x == y,
            (L::Filter { predicate: x, .. }, L::Filter { predicate: y, .. }) => x == y,
            (L::Project { columns: x, .. }, L::Project { columns: y, .. }) => x == y,
            (L::MapProject { projection: x, .. }, L::MapProject { projection: y, .. }) => x == y,
            (L::Bind { var: x, .. }, L::Bind { var: y, .. }) => x == y,
            (L::Aggregate { func: x, .. }, L::Aggregate { func: y, .. }) => x == y,
            (L::SourceJoin { on: x, .. }, L::SourceJoin { on: y, .. }) => x == y,
            (L::Join { predicate: x, .. }, L::Join { predicate: y, .. }) => x == y,
            (L::Union(x), L::Union(y)) => x.len() == y.len(),
            _ => false,
        };
        // The `i`-th child of each, without collecting them.
        let mut i = 0;
        self.for_each_child(&mut |x| {
            let mut j = 0;
            other.for_each_child(&mut |y| {
                if same && i == j {
                    same = x.same_but_names(y);
                }
                j += 1;
            });
            i += 1;
        });
        same
    }

    /// Immediate children of this node.
    #[must_use]
    pub fn children(&self) -> Vec<&LogicalExpr> {
        let mut children = Vec::new();
        self.for_each_child(&mut |child| children.push(child));
        children
    }

    /// Calls `f` on each immediate child, left to right, without building
    /// a vector of them.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a LogicalExpr)) {
        match self {
            LogicalExpr::Get { .. } | LogicalExpr::Data(_) => {}
            LogicalExpr::Filter { input, .. }
            | LogicalExpr::Project { input, .. }
            | LogicalExpr::MapProject { input, .. }
            | LogicalExpr::Bind { input, .. }
            | LogicalExpr::Aggregate { input, .. } => f(input),
            LogicalExpr::Flatten(inner) | LogicalExpr::Distinct(inner) => f(inner),
            LogicalExpr::SourceJoin { left, right, .. } | LogicalExpr::Join { left, right, .. } => {
                f(left);
                f(right);
            }
            LogicalExpr::Union(items) => items.iter().for_each(f),
            LogicalExpr::Extents(node) => node.templates.iter().for_each(f),
            LogicalExpr::Submit { expr, .. } => f(expr),
        }
    }

    /// [`LogicalExpr::for_each_child`] with mutable access to the children.
    pub fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut LogicalExpr)) {
        match self {
            LogicalExpr::Get { .. } | LogicalExpr::Data(_) => {}
            LogicalExpr::Filter { input, .. }
            | LogicalExpr::Project { input, .. }
            | LogicalExpr::MapProject { input, .. }
            | LogicalExpr::Bind { input, .. }
            | LogicalExpr::Aggregate { input, .. } => f(input),
            LogicalExpr::Flatten(inner) | LogicalExpr::Distinct(inner) => f(inner),
            LogicalExpr::SourceJoin { left, right, .. } | LogicalExpr::Join { left, right, .. } => {
                f(left);
                f(right);
            }
            LogicalExpr::Union(items) => items.iter_mut().for_each(f),
            LogicalExpr::Extents(node) => node.templates.iter_mut().for_each(f),
            LogicalExpr::Submit { expr, .. } => f(expr),
        }
    }

    /// Every `submit` node of the plan, an [`Extents`] node's as its
    /// branches have them, in pre-order.
    #[must_use]
    pub fn collect_submits(&self) -> Vec<LogicalExpr> {
        let mut out = Vec::new();
        self.walk_expanded(&mut |e| {
            if matches!(e, LogicalExpr::Submit { .. }) {
                out.push(e.clone());
            }
        });
        out
    }

    /// Every collection name referenced by `get` nodes, an [`Extents`]
    /// node's members' included, in pre-order, without duplicates.
    #[must_use]
    pub fn collections(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk_expanded(&mut |e| {
            if let LogicalExpr::Get { collection } = e {
                if !out.contains(collection) {
                    out.push(collection.clone());
                }
            }
        });
        out
    }

    /// Pre-order traversal of the plan with every [`Extents`] node
    /// expanded into the union of its branches.
    fn walk_expanded(&self, f: &mut impl FnMut(&LogicalExpr)) {
        match self {
            LogicalExpr::Extents(node) => node.to_union().walk_expanded(f),
            _ => {
                f(self);
                self.for_each_child(&mut |child| child.walk_expanded(f));
            }
        }
    }

    /// Pre-order traversal.
    pub fn walk<'a, F: FnMut(&'a LogicalExpr)>(&'a self, f: &mut F) {
        f(self);
        self.for_each_child(&mut |child| child.walk(f));
    }

    /// Number of nodes in the plan, an [`Extents`] node counted as the
    /// union of its branches.
    #[must_use]
    pub fn size(&self) -> usize {
        if let LogicalExpr::Extents(node) = self {
            let sizes: Vec<usize> = node.templates.iter().map(LogicalExpr::size).collect();
            return 1 + node.members.iter().map(|m| sizes[m.class]).sum::<usize>();
        }
        let mut size = 1;
        self.for_each_child(&mut |child| size += child.size());
        size
    }

    /// Returns `true` when the plan contains no `submit`, `get` or other
    /// source access — it is pure data, so partial evaluation can stop.
    #[must_use]
    pub fn is_data_only(&self) -> bool {
        let mut pure = true;
        self.walk(&mut |e| {
            if matches!(e, LogicalExpr::Get { .. } | LogicalExpr::Submit { .. }) {
                pure = false;
            }
        });
        pure
    }

    /// Rewrites the plan bottom-up and in place: the children are rewritten
    /// first, then `f` is applied to the node itself.  `f` returns `true`
    /// iff it rewrote the node it was given, and must leave a node it
    /// returns `false` for exactly as it found it; the result is `true`
    /// iff `f` rewrote any node.  A pass that rewrites nothing allocates
    /// nothing.
    pub fn rewrite_in_place(&mut self, f: &impl Fn(&mut LogicalExpr) -> bool) -> bool {
        let mut rewrote = false;
        self.for_each_child_mut(&mut |child| rewrote |= child.rewrite_in_place(f));
        f(self) || rewrote
    }

    /// Rebuilds the node with each child replaced by `f(child)`.
    #[must_use]
    pub fn map_children<F>(&self, f: &F) -> LogicalExpr
    where
        F: Fn(&LogicalExpr) -> LogicalExpr,
    {
        match self {
            LogicalExpr::Get { .. } | LogicalExpr::Data(_) => self.clone(),
            LogicalExpr::Filter { input, predicate } => LogicalExpr::Filter {
                input: Box::new(f(input)),
                predicate: predicate.clone(),
            },
            LogicalExpr::Project { input, columns } => LogicalExpr::Project {
                input: Box::new(f(input)),
                columns: columns.clone(),
            },
            LogicalExpr::MapProject { input, projection } => LogicalExpr::MapProject {
                input: Box::new(f(input)),
                projection: projection.clone(),
            },
            LogicalExpr::SourceJoin { left, right, on } => LogicalExpr::SourceJoin {
                left: Box::new(f(left)),
                right: Box::new(f(right)),
                on: on.clone(),
            },
            LogicalExpr::Bind { var, input } => LogicalExpr::Bind {
                var: var.clone(),
                input: Box::new(f(input)),
            },
            LogicalExpr::Join {
                left,
                right,
                predicate,
            } => LogicalExpr::Join {
                left: Box::new(f(left)),
                right: Box::new(f(right)),
                predicate: predicate.clone(),
            },
            LogicalExpr::Union(items) => LogicalExpr::Union(items.iter().map(f).collect()),
            LogicalExpr::Flatten(inner) => LogicalExpr::Flatten(Box::new(f(inner))),
            LogicalExpr::Distinct(inner) => LogicalExpr::Distinct(Box::new(f(inner))),
            LogicalExpr::Aggregate { func, input } => LogicalExpr::Aggregate {
                func: *func,
                input: Box::new(f(input)),
            },
            LogicalExpr::Submit {
                repository,
                wrapper,
                extent,
                expr,
            } => LogicalExpr::Submit {
                repository: repository.clone(),
                wrapper: wrapper.clone(),
                extent: extent.clone(),
                expr: Box::new(f(expr)),
            },
            LogicalExpr::Extents(node) => LogicalExpr::Extents(Extents {
                members: Arc::clone(&node.members),
                templates: node.templates.iter().map(f).collect(),
                name: node.name.clone(),
            }),
        }
    }

    /// A structural fingerprint with constants erased, used by the
    /// self-calibrating cost model's *close match* lookup (§3.3): two
    /// `exec` calls that differ only in constants share a fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        fn scalar_fp(e: &ScalarExpr, out: &mut String) {
            match e {
                ScalarExpr::Const(_) => out.push('?'),
                ScalarExpr::Attr(a) => out.push_str(a),
                ScalarExpr::Var(v) => out.push_str(v),
                ScalarExpr::Field(b, f) => {
                    scalar_fp(b, out);
                    out.push('.');
                    out.push_str(f);
                }
                ScalarExpr::Binary { op, left, right } => {
                    out.push('(');
                    scalar_fp(left, out);
                    out.push_str(op.symbol());
                    scalar_fp(right, out);
                    out.push(')');
                }
                ScalarExpr::Not(inner) => {
                    out.push_str("not(");
                    scalar_fp(inner, out);
                    out.push(')');
                }
                ScalarExpr::StructLit(fields) => {
                    out.push_str("struct(");
                    for (n, e) in fields {
                        out.push_str(n);
                        out.push(':');
                        scalar_fp(e, out);
                        out.push(',');
                    }
                    out.push(')');
                }
                ScalarExpr::Agg(kind, plan) => {
                    out.push_str(kind.name());
                    out.push('(');
                    out.push_str(&plan.fingerprint());
                    out.push(')');
                }
                ScalarExpr::Call(name, args) => {
                    out.push_str(name);
                    out.push('(');
                    for a in args {
                        scalar_fp(a, out);
                        out.push(',');
                    }
                    out.push(')');
                }
            }
        }
        fn fp(e: &LogicalExpr, out: &mut String) {
            match e {
                LogicalExpr::Get { collection } => {
                    out.push_str("get(");
                    out.push_str(collection);
                    out.push(')');
                }
                LogicalExpr::Data(_) => out.push_str("data(?)"),
                LogicalExpr::Filter { input, predicate } => {
                    out.push_str("select(");
                    scalar_fp(predicate, out);
                    out.push(',');
                    fp(input, out);
                    out.push(')');
                }
                LogicalExpr::Project { input, columns } => {
                    out.push_str("project(");
                    out.push_str(&columns.join("+"));
                    out.push(',');
                    fp(input, out);
                    out.push(')');
                }
                LogicalExpr::MapProject { input, projection } => {
                    out.push_str("map(");
                    scalar_fp(projection, out);
                    out.push(',');
                    fp(input, out);
                    out.push(')');
                }
                LogicalExpr::SourceJoin { left, right, on } => {
                    out.push_str("join(");
                    fp(left, out);
                    out.push(',');
                    fp(right, out);
                    out.push(',');
                    for (l, r) in on {
                        out.push_str(l);
                        out.push('=');
                        out.push_str(r);
                        out.push(',');
                    }
                    out.push(')');
                }
                LogicalExpr::Bind { var, input } => {
                    out.push_str("bind(");
                    out.push_str(var);
                    out.push(',');
                    fp(input, out);
                    out.push(')');
                }
                LogicalExpr::Join {
                    left,
                    right,
                    predicate,
                } => {
                    out.push_str("mjoin(");
                    fp(left, out);
                    out.push(',');
                    fp(right, out);
                    if let Some(p) = predicate {
                        out.push(',');
                        scalar_fp(p, out);
                    }
                    out.push(')');
                }
                LogicalExpr::Union(items) => {
                    out.push_str("union(");
                    for i in items {
                        fp(i, out);
                        out.push(',');
                    }
                    out.push(')');
                }
                LogicalExpr::Flatten(inner) => {
                    out.push_str("flatten(");
                    fp(inner, out);
                    out.push(')');
                }
                LogicalExpr::Distinct(inner) => {
                    out.push_str("distinct(");
                    fp(inner, out);
                    out.push(')');
                }
                LogicalExpr::Aggregate { func, input } => {
                    out.push_str(func.name());
                    out.push('(');
                    fp(input, out);
                    out.push(')');
                }
                LogicalExpr::Submit {
                    repository, expr, ..
                } => {
                    out.push_str("submit(");
                    out.push_str(repository);
                    out.push(',');
                    fp(expr, out);
                    out.push(')');
                }
                LogicalExpr::Extents(node) => fp(&node.to_union(), out),
            }
        }
        let mut s = String::new();
        fp(self, &mut s);
        s
    }
}

impl std::fmt::Display for LogicalExpr {
    /// Prints the plan in the paper's textual notation, e.g.
    /// `union(project(name, submit(r0, get(person0))), …)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogicalExpr::Get { collection } => write!(f, "get({collection})"),
            LogicalExpr::Data(bag) => {
                if bag.len() <= 4 {
                    write!(f, "data({bag})")
                } else {
                    write!(f, "data(<{} values>)", bag.len())
                }
            }
            LogicalExpr::Filter { input, predicate } => {
                write!(f, "select({predicate}, {input})")
            }
            LogicalExpr::Project { input, columns } => {
                write!(f, "project({}, {input})", columns.join(", "))
            }
            LogicalExpr::MapProject { input, projection } => {
                write!(f, "map({projection}, {input})")
            }
            LogicalExpr::SourceJoin { left, right, on } => {
                let cond: Vec<String> = on.iter().map(|(l, r)| format!("{l}={r}")).collect();
                write!(f, "join({left}, {right}, {})", cond.join(","))
            }
            LogicalExpr::Bind { var, input } => write!(f, "bind({var}, {input})"),
            LogicalExpr::Join {
                left,
                right,
                predicate,
            } => match predicate {
                Some(p) => write!(f, "mjoin({left}, {right}, {p})"),
                None => write!(f, "mjoin({left}, {right})"),
            },
            LogicalExpr::Union(items) => {
                write!(f, "union(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
            LogicalExpr::Flatten(inner) => write!(f, "flatten({inner})"),
            LogicalExpr::Distinct(inner) => write!(f, "distinct({inner})"),
            LogicalExpr::Aggregate { func, input } => write!(f, "{}({input})", func.name()),
            LogicalExpr::Submit {
                repository, expr, ..
            } => write!(f, "submit({repository}, {expr})"),
            LogicalExpr::Extents(node) => write!(f, "{}", node.to_union()),
        }
    }
}

/// Builds a [`LogicalExpr::Data`] node from literal values.
#[must_use]
pub fn data_of<I, V>(values: I) -> LogicalExpr
where
    I: IntoIterator<Item = V>,
    V: Into<Value>,
{
    LogicalExpr::Data(values.into_iter().map(Into::into).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::ScalarOp;

    /// The paper's §3.2 running plan:
    /// `union(project(name, submit(r0, get(person0))),
    ///        project(name, submit(r1, get(person1))))`.
    fn paper_plan() -> LogicalExpr {
        LogicalExpr::Union(vec![
            LogicalExpr::get("person0")
                .submit("r0", "w0", "person0")
                .project(["name"]),
            LogicalExpr::get("person1")
                .submit("r1", "w0", "person1")
                .project(["name"]),
        ])
    }

    #[test]
    fn display_matches_paper_notation() {
        let plan = paper_plan();
        assert_eq!(
            plan.to_string(),
            "union(project(name, submit(r0, get(person0))), project(name, submit(r1, get(person1))))"
        );
    }

    #[test]
    fn pushed_project_displays_inside_submit() {
        // The §3.2 rewritten form where r0's wrapper supports project.
        let plan = LogicalExpr::Union(vec![
            LogicalExpr::get("person0")
                .project(["name"])
                .submit("r0", "w0", "person0"),
            LogicalExpr::get("person1")
                .submit("r1", "w0", "person1")
                .project(["name"]),
        ]);
        assert_eq!(
            plan.to_string(),
            "union(submit(r0, project(name, get(person0))), project(name, submit(r1, get(person1))))"
        );
    }

    #[test]
    fn collect_submits_and_collections() {
        let plan = paper_plan();
        assert_eq!(plan.collect_submits().len(), 2);
        assert_eq!(plan.collections(), vec!["person0", "person1"]);
        assert_eq!(plan.size(), 7);
    }

    #[test]
    fn is_data_only_detects_residual_work() {
        assert!(!paper_plan().is_data_only());
        assert!(data_of(["Sam"]).is_data_only());
        let mixed = LogicalExpr::Union(vec![data_of(["Sam"]), paper_plan()]);
        assert!(!mixed.is_data_only());
    }

    #[test]
    fn rewrite_bottom_up_replaces_nodes() {
        // Replace every Get with Data to simulate evaluation.
        let mut plan = paper_plan();
        let replace_submits = |e: &mut LogicalExpr| {
            let is_submit = matches!(e, LogicalExpr::Submit { .. });
            if is_submit {
                *e = data_of(["x"]);
            }
            is_submit
        };
        assert!(plan.rewrite_in_place(&replace_submits));
        assert!(plan.is_data_only());
        assert_eq!(plan.collect_submits().len(), 0);
        // Nothing left to rewrite: the flag says so and the plan is untouched.
        let before = plan.clone();
        assert!(!plan.rewrite_in_place(&replace_submits));
        assert_eq!(plan, before);
    }

    #[test]
    fn fingerprint_erases_constants_only() {
        let a = LogicalExpr::get("person0").filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(10i64),
        ));
        let b = LogicalExpr::get("person0").filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(9999i64),
        ));
        let c = LogicalExpr::get("person0").filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("age"),
            ScalarExpr::constant(10i64),
        ));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn op_names_cover_all_variants() {
        assert_eq!(LogicalExpr::get("x").op_name(), "get");
        assert_eq!(data_of([1i64]).op_name(), "data");
        assert_eq!(
            LogicalExpr::get("x")
                .filter(ScalarExpr::constant(true))
                .op_name(),
            "select"
        );
        assert_eq!(LogicalExpr::get("x").project(["a"]).op_name(), "project");
        assert_eq!(LogicalExpr::get("x").bind("v").op_name(), "bind");
        assert_eq!(
            LogicalExpr::get("x").submit("r", "w", "x").op_name(),
            "submit"
        );
    }

    #[test]
    fn map_children_preserves_structure() {
        let plan = paper_plan();
        let same = plan.map_children(&Clone::clone);
        assert_eq!(plan, same);
    }

    #[test]
    fn child_visitors_agree_with_children() {
        let mut plan = LogicalExpr::Join {
            left: Box::new(paper_plan().bind("x")),
            right: Box::new(LogicalExpr::Distinct(Box::new(data_of(["Sam"]))).bind("y")),
            predicate: None,
        };
        fn check(node: &mut LogicalExpr) {
            let listed: Vec<LogicalExpr> = node.children().into_iter().cloned().collect();
            let mut visited = Vec::new();
            node.for_each_child(&mut |child| visited.push(child.clone()));
            assert_eq!(listed, visited);
            let mut visited_mut = Vec::new();
            node.for_each_child_mut(&mut |child| {
                visited_mut.push(child.clone());
                check(child);
            });
            assert_eq!(listed, visited_mut);
        }
        check(&mut plan);
        assert_eq!(plan.size(), 12);
        // The placeholder a moved subtree leaves behind owns no memory.
        assert_eq!(LogicalExpr::default(), LogicalExpr::Union(Vec::new()));
    }
}
