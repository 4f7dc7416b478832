//! The plan search by decisions (§3.1): every strategy costed, no
//! alternative's tree built.  A pushdown pass rewrites each maximal push
//! site ([`rules::is_push_site`]) on its own; sites alike once their names
//! are set aside form a **class**, rewritten once per strategy
//! ([`materialise`]).  One walk of the normalized plan costs every
//! strategy with the formulas of [`CostModel::cost`], bit for bit, each
//! site over its own `exec` estimates.  ARCHITECTURE.md has the design.

use disco_algebra::{is_hash_join, rules, CapabilityLookup, LogicalExpr};

use crate::calibration::Estimator;
use crate::cost::{default_exec_rows, CostModel, PlanCost};
use crate::planner::{materialise, PlanAlternative, STRATEGIES};

const N: usize = STRATEGIES.len();

/// The distinct alternatives in strategy order, and the index of the
/// cheapest — by time, then tree size, the first on a tie.
pub(crate) fn search(
    normalized: &LogicalExpr,
    lookup: &dyn CapabilityLookup,
    model: &CostModel,
) -> (Vec<PlanAlternative>, usize) {
    let mut search = Search {
        lookup,
        model,
        estimator: model.store().read(),
        classes: Vec::new(),
        names: Vec::new(),
        keys: (String::new(), String::new()),
        sizes: [0; N],
    };
    let costs = search.walk(normalized);
    // Equal rewrites in every class: the same tree as an earlier strategy.
    let classes = &search.classes;
    let kept: Vec<usize> = (0..N)
        .filter(|&s| (0..s).all(|t| classes.iter().any(|c| c.of[s] != c.of[t])))
        .collect();
    let winner = (0..kept.len()).min_by(|&a, &b| {
        let (a, b) = (kept[a], kept[b]);
        (costs[a].time_ms.total_cmp(&costs[b].time_ms)).then(search.sizes[a].cmp(&search.sizes[b]))
    });
    let alternatives = kept.iter().map(|&s| PlanAlternative {
        strategy: STRATEGIES[s],
        cost: costs[s],
    });
    (alternatives.collect(), winner.unwrap_or(0))
}

struct Search<'p, 'a> {
    lookup: &'a dyn CapabilityLookup,
    model: &'a CostModel,
    estimator: Estimator<'a>,
    classes: Vec<Class<'p>>,
    /// The names of the site being costed, in walk order.
    names: Vec<&'p str>,
    /// Its calibration keys (text, fingerprint) as they are spliced.
    keys: (String, String),
    /// Each strategy's tree size.
    sizes: [usize; N],
}

/// A class: its first site's names and rewrites, and each strategy's one.
struct Class<'p> {
    names: Vec<&'p str>,
    rewrites: Vec<Rewrite>,
    of: [usize; N],
    /// What marks a name: a character no rendering of the site holds.
    mark: char,
}

struct Rewrite {
    /// The rewritten site, a name's index into the names between two
    /// marks in place of each collection and repository name.
    tree: LogicalExpr,
    /// The calibration keys (text, fingerprint) of its calls, in order.
    keys: Vec<(String, String)>,
}

impl<'p> Search<'p, '_> {
    /// Every strategy's cost of `e`.
    fn walk(&mut self, e: &'p LogicalExpr) -> [PlanCost; N] {
        use LogicalExpr as L;
        if rules::is_push_site(e) {
            return self.site(e);
        }
        self.sizes = self.sizes.map(|size| size + 1);
        let model = self.model;
        match e {
            // Not lowerable: lowering the winner reports it.
            L::Get { .. } => [PlanCost::zero(); N],
            L::Data(bag) => [model.scan(bag.len()); N],
            L::Filter { input, .. } => self.walk(input).map(|c| model.filter(c)),
            L::Project { input, .. }
            | L::MapProject { input, .. }
            | L::Bind { input, .. }
            | L::Flatten(input) => self.walk(input).map(|c| model.per_row(c)),
            L::Distinct(input) => self.walk(input).map(|c| model.distinct(c)),
            L::Aggregate { input, .. } => self.walk(input).map(|c| model.aggregate(c)),
            L::SourceJoin { left, right, .. } | L::Join { left, right, .. } => {
                let hash = matches!(e, L::Join { predicate, .. }
                    if is_hash_join(left, right, predicate.as_ref()));
                let (l, r) = (self.walk(left), self.walk(right));
                std::array::from_fn(|s| match hash {
                    true => model.hash_join(l[s], r[s]),
                    false => model.loop_join(l[s], r[s]),
                })
            }
            L::Union(items) => items.iter().fold([PlanCost::zero(); N], |mut total, item| {
                for (total, c) in total.iter_mut().zip(self.walk(item)) {
                    total.add(c);
                }
                total
            }),
            L::Submit { .. } => unreachable!("a submit is a push site"),
        }
    }

    /// Every strategy's cost of the maximal push site `site`.
    fn site(&mut self, site: &'p LogicalExpr) -> [PlanCost; N] {
        self.names.clear();
        site_names(site, &mut self.names);
        let known = self.classes.iter().position(|class| {
            same_shape(&class.rewrites[0].tree, site, self.lookup)
                && same_pattern(&class.names, &self.names)
        });
        if known.is_none() {
            let class = Class::new(site, self.names.clone(), self.lookup);
            self.classes.push(class);
        }
        let class = &self.classes[known.unwrap_or(self.classes.len() - 1)];
        let mut keys = std::mem::take(&mut self.keys);
        let mut costs = [PlanCost::zero(); N];
        for (cost, rewrite) in costs.iter_mut().zip(&class.rewrites) {
            *cost = self.site_cost(class, &rewrite.tree, &mut rewrite.keys.iter(), &mut keys);
        }
        self.keys = keys;
        for (size, r) in self.sizes.iter_mut().zip(class.of) {
            *size += class.rewrites[r].tree.size();
        }
        class.of.map(|r| costs[r])
    }

    /// The cost of `tree`, a class's rewrite or a node of one, at the site
    /// named `self.names`; `execs` are the keys of its calls.
    fn site_cost<'c>(
        &self,
        class: &Class<'_>,
        tree: &LogicalExpr,
        execs: &mut impl Iterator<Item = &'c (String, String)>,
        keys: &mut (String, String),
    ) -> PlanCost {
        use LogicalExpr as L;
        let model = self.model;
        match tree {
            L::Submit {
                repository, expr, ..
            } => {
                let (text, fingerprint) = execs.next().expect("keys per exec of the rewrite");
                splice(text, class.mark, &self.names, &mut keys.0);
                splice(fingerprint, class.mark, &self.names, &mut keys.1);
                let repository = self.names[marked(repository, class.mark)];
                let estimate = self.estimator.estimate(repository, &keys.0, &keys.1);
                model.exec(estimate, default_exec_rows(expr, model.params()))
            }
            L::Filter { input, .. } => model.filter(self.site_cost(class, input, execs, keys)),
            L::Project { input, .. } => model.per_row(self.site_cost(class, input, execs, keys)),
            L::SourceJoin { left, right, .. } => {
                let l = self.site_cost(class, left, execs, keys);
                let r = self.site_cost(class, right, execs, keys);
                model.loop_join(l, r)
            }
            _ => unreachable!("a push site holds submits, filters, projections and joins"),
        }
    }
}

impl<'p> Class<'p> {
    /// The class of `site`, named `names`.
    fn new(site: &LogicalExpr, names: Vec<&'p str>, lookup: &dyn CapabilityLookup) -> Self {
        let rendered = format!("{site}{}", site.fingerprint());
        let mark = ('\u{e000}'..)
            .find(|c| !rendered.contains(*c))
            .expect("a free character");
        let mut rewrites: Vec<Rewrite> = Vec::new();
        let of = std::array::from_fn(|s| {
            let mut tree = site.clone();
            materialise(STRATEGIES[s], &mut tree, lookup);
            mark_names(&mut tree, &names, mark);
            let known = rewrites.iter().position(|rewrite| rewrite.tree == tree);
            known.unwrap_or_else(|| {
                let mut keys = Vec::new();
                exec_keys(&tree, &mut keys);
                rewrites.push(Rewrite { tree, keys });
                rewrites.len() - 1
            })
        });
        Class {
            names,
            rewrites,
            of,
            mark,
        }
    }
}

/// Pushes the collection, repository, wrapper and extent names of `site`
/// to `out`, in walk order.
fn site_names<'p>(site: &'p LogicalExpr, out: &mut Vec<&'p str>) {
    match site {
        LogicalExpr::Get { collection } => out.push(collection),
        LogicalExpr::Submit {
            repository,
            wrapper,
            extent,
            ..
        } => out.extend([repository.as_str(), wrapper, extent]),
        _ => {}
    }
    site.for_each_child(&mut |child| site_names(child, out));
}

/// Whether push sites `a` and `b` have the same shape with their names
/// set aside, and wrappers of equal capabilities.  A node no compiled
/// plan's site holds makes its site a class of its own.
fn same_shape(a: &LogicalExpr, b: &LogicalExpr, lookup: &dyn CapabilityLookup) -> bool {
    use LogicalExpr as L;
    fn inputs(e: &LogicalExpr) -> [Option<&LogicalExpr>; 2] {
        match e {
            L::Filter { input, .. } | L::Project { input, .. } => [Some(input), None],
            L::SourceJoin { left, right, .. } => [Some(left), Some(right)],
            L::Submit { expr, .. } => [Some(expr), None],
            _ => [None, None],
        }
    }
    let same_node = match (a, b) {
        (L::Get { .. }, L::Get { .. }) => true,
        (L::Filter { predicate: p, .. }, L::Filter { predicate: q, .. }) => p == q,
        (L::Project { columns: p, .. }, L::Project { columns: q, .. }) => p == q,
        (L::SourceJoin { on: p, .. }, L::SourceJoin { on: q, .. }) => p == q,
        (L::Submit { wrapper: v, .. }, L::Submit { wrapper: w, .. }) => {
            v == w || lookup.capabilities(v) == lookup.capabilities(w)
        }
        _ => false,
    };
    same_node
        && inputs(a).into_iter().zip(inputs(b)).all(|pair| match pair {
            (Some(a), Some(b)) => same_shape(a, b, lookup),
            (a, b) => a.is_none() && b.is_none(),
        })
}

/// Whether `a` and `b` repeat alike, so that renaming one into the other
/// is consistent.
fn same_pattern(a: &[&str], b: &[&str]) -> bool {
    a.len() == b.len() && (0..a.len()).all(|i| (0..i).all(|j| (a[i] == a[j]) == (b[i] == b[j])))
}

/// Replaces each collection and repository name of `tree` by its index
/// in `names` between two `mark`s.
fn mark_names(tree: &mut LogicalExpr, names: &[&str], mark: char) {
    if let LogicalExpr::Get { collection: name }
    | LogicalExpr::Submit {
        repository: name, ..
    } = tree
    {
        let i = names.iter().position(|known| known == name);
        *name = format!("{mark}{}{mark}", i.expect("a name of the site"));
    }
    tree.for_each_child_mut(&mut |child| mark_names(child, names, mark));
}

/// Pushes the calibration keys of the `exec` calls of `tree` to `out`.
fn exec_keys(tree: &LogicalExpr, out: &mut Vec<(String, String)>) {
    match tree {
        LogicalExpr::Submit { expr, .. } => out.push((expr.to_string(), expr.fingerprint())),
        _ => tree.for_each_child(&mut |child| exec_keys(child, out)),
    }
}

/// The index a marked name stands for.
fn marked(name: &str, mark: char) -> usize {
    name.trim_matches(mark).parse().expect("a marked name")
}

/// Writes the marked key `key` to `out` with the site's own names.
fn splice(key: &str, mark: char, names: &[&str], out: &mut String) {
    out.clear();
    for (i, piece) in key.split(mark).enumerate() {
        out.push_str(if i % 2 == 0 {
            piece
        } else {
            names[marked(piece, mark)]
        });
    }
}
