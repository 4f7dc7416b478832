//! Wrapper capability description (§1.4, §3.2).
//!
//! A DISCO wrapper chooses a subset of logical operators to support and
//! advertises it through the `submit-functionality` call.  The paper
//! describes the most general form of the answer as a *grammar* over the
//! operator language; this module provides both:
//!
//! * [`CapabilitySet`] — the operational representation the optimizer
//!   consults (which operators, whether compositions are allowed, which
//!   comparison operators a selection predicate may use), and
//! * [`CapabilityGrammar`] — the paper-style grammar rendering of a
//!   capability set, with a parser so grammars can be exchanged as text
//!   between wrapper and mediator exactly as §3.2 describes.
//!
//! [`CapabilitySet::accepts`] is the recogniser the optimizer's
//! transformation rules call before pushing an expression through
//! `submit`.

use std::fmt;

use crate::logical::LogicalExpr;
use crate::scalar::ScalarOp;
use crate::{AlgebraError, Result};

/// The logical operators a wrapper may support.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OperatorKind {
    /// `get(SOURCE)` — scan a named collection.
    Get,
    /// `select(PREDICATE, e)` — filtering.
    Select,
    /// `project(ATTRIBUTE…, e)` — projection onto attributes.
    Project,
    /// `join(e1, e2, ATTRIBUTE…)` — equi-join inside the source.
    Join,
}

impl OperatorKind {
    /// The terminal symbol used in capability grammars.
    #[must_use]
    pub fn terminal(&self) -> &'static str {
        match self {
            OperatorKind::Get => "get",
            OperatorKind::Select => "select",
            OperatorKind::Project => "project",
            OperatorKind::Join => "join",
        }
    }

    /// Parses a terminal symbol.
    #[must_use]
    pub fn from_terminal(s: &str) -> Option<OperatorKind> {
        match s {
            "get" => Some(OperatorKind::Get),
            "select" => Some(OperatorKind::Select),
            "project" => Some(OperatorKind::Project),
            "join" => Some(OperatorKind::Join),
            _ => None,
        }
    }
}

/// The capabilities a wrapper advertises.
///
/// # Examples
///
/// ```
/// use disco_algebra::{CapabilitySet, OperatorKind, LogicalExpr, ScalarExpr, ScalarOp};
///
/// // The §3.2 example: r0's wrapper understands get, project and their
/// // composition; r1's wrapper understands only get.
/// let w_r0 = CapabilitySet::new([OperatorKind::Get, OperatorKind::Project]).with_composition(true);
/// let w_r1 = CapabilitySet::get_only();
///
/// let pushed = LogicalExpr::get("person0").project(["name"]);
/// assert!(w_r0.accepts(&pushed).is_ok());
/// assert!(w_r1.accepts(&pushed).is_err());
/// ```
///
/// Two bit masks and a flag: `Copy`, no heap memory, a cheap `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapabilitySet {
    /// Bit `op as u8` per supported operator.
    operators: u8,
    compose: bool,
    /// Bit `cmp as u8` per comparison a pushed selection may use.
    comparisons: u8,
}

/// Every operator, in grammar order.
const OPERATORS: [OperatorKind; 4] = [
    OperatorKind::Get,
    OperatorKind::Select,
    OperatorKind::Project,
    OperatorKind::Join,
];

/// The comparisons mask of an unrestricted set.
const ALL_COMPARISONS: u8 = (1 << 6) - 1;

fn operator_mask(operators: impl IntoIterator<Item = OperatorKind>) -> u8 {
    operators
        .into_iter()
        .fold(0, |mask, op| mask | (1 << op as u8))
}

/// Comparison operators a wrapper may restrict selections to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ComparisonKind {
    /// `=`
    Eq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl ComparisonKind {
    /// Converts a scalar comparison operator.
    #[must_use]
    pub fn from_scalar(op: ScalarOp) -> Option<ComparisonKind> {
        match op {
            ScalarOp::Eq => Some(ComparisonKind::Eq),
            ScalarOp::NotEq => Some(ComparisonKind::NotEq),
            ScalarOp::Lt => Some(ComparisonKind::Lt),
            ScalarOp::Le => Some(ComparisonKind::Le),
            ScalarOp::Gt => Some(ComparisonKind::Gt),
            ScalarOp::Ge => Some(ComparisonKind::Ge),
            _ => None,
        }
    }
}

impl CapabilitySet {
    /// Creates a capability set supporting the given operators, without
    /// composition.
    pub fn new<I: IntoIterator<Item = OperatorKind>>(operators: I) -> Self {
        CapabilitySet {
            operators: operator_mask(operators),
            compose: false,
            comparisons: ALL_COMPARISONS,
        }
    }

    /// The minimal wrapper: only `get` (fetch a whole collection).
    #[must_use]
    pub fn get_only() -> Self {
        CapabilitySet::new([OperatorKind::Get])
    }

    /// A wrapper supporting get/select/project/join and composition — a
    /// full relational (SQL-like) source.
    #[must_use]
    pub fn full() -> Self {
        CapabilitySet::new(OPERATORS).with_composition(true)
    }

    /// Enables or disables composition of the supported operators.
    #[must_use]
    pub fn with_composition(mut self, compose: bool) -> Self {
        self.compose = compose;
        self
    }

    /// Restricts selection predicates to the given comparison operators.
    #[must_use]
    pub fn with_comparisons<I: IntoIterator<Item = ComparisonKind>>(
        mut self,
        comparisons: I,
    ) -> Self {
        self.comparisons = comparisons
            .into_iter()
            .fold(0, |mask, cmp| mask | (1 << cmp as u8));
        self
    }

    /// Returns `true` if the operator is supported.
    #[must_use]
    pub fn supports(&self, op: OperatorKind) -> bool {
        self.operators & (1 << op as u8) != 0
    }

    /// Returns `true` if compositions of supported operators are allowed.
    #[must_use]
    pub fn supports_composition(&self) -> bool {
        self.compose
    }

    /// The supported operators, in a stable order.
    #[must_use]
    pub fn operators(&self) -> Vec<OperatorKind> {
        OPERATORS
            .into_iter()
            .filter(|op| self.supports(*op))
            .collect()
    }

    /// Returns `true` if the comparison operator may appear in a pushed
    /// selection predicate.
    #[must_use]
    pub fn supports_comparison(&self, cmp: ComparisonKind) -> bool {
        self.comparisons & (1 << cmp as u8) != 0
    }

    /// Checks that `expr` — the expression to be shipped through `submit`
    /// — only uses supported operators, supported comparisons, and
    /// composition where allowed.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::CapabilityViolation`] naming the offending
    /// operator.
    pub fn accepts(&self, expr: &LogicalExpr) -> Result<()> {
        self.accepts_named(expr, "<wrapper>")
    }

    /// Like [`CapabilitySet::accepts`] but reports `wrapper_name` in errors.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::CapabilityViolation`].
    pub fn accepts_named(&self, expr: &LogicalExpr, wrapper_name: &str) -> Result<()> {
        self.check(expr, wrapper_name, true)
    }

    fn violation(&self, operator: &str, wrapper: &str) -> AlgebraError {
        AlgebraError::CapabilityViolation {
            operator: operator.to_owned(),
            wrapper: wrapper.to_owned(),
        }
    }

    fn check(&self, expr: &LogicalExpr, wrapper: &str, top: bool) -> Result<()> {
        match expr {
            LogicalExpr::Get { .. } => {
                if self.supports(OperatorKind::Get) {
                    Ok(())
                } else {
                    Err(self.violation("get", wrapper))
                }
            }
            LogicalExpr::Filter { input, predicate } => {
                if !self.supports(OperatorKind::Select) {
                    return Err(self.violation("select", wrapper));
                }
                if !predicate.is_pushable() {
                    return Err(self.violation("select(non-pushable predicate)", wrapper));
                }
                for op in predicate.comparison_ops() {
                    if let Some(cmp) = ComparisonKind::from_scalar(op) {
                        if !self.supports_comparison(cmp) {
                            return Err(
                                self.violation(&format!("comparison {}", op.symbol()), wrapper)
                            );
                        }
                    }
                }
                self.check_child(input, wrapper, top)
            }
            LogicalExpr::Project { input, .. } => {
                if !self.supports(OperatorKind::Project) {
                    return Err(self.violation("project", wrapper));
                }
                self.check_child(input, wrapper, top)
            }
            LogicalExpr::SourceJoin { left, right, .. } => {
                if !self.supports(OperatorKind::Join) {
                    return Err(self.violation("join", wrapper));
                }
                self.check_child(left, wrapper, top)?;
                self.check_child(right, wrapper, top)
            }
            other => Err(self.violation(other.op_name(), wrapper)),
        }
    }

    fn check_child(&self, child: &LogicalExpr, wrapper: &str, parent_is_top: bool) -> Result<()> {
        // Without composition support, a non-get operator may only be
        // applied directly to a get — i.e. at most one operator above the
        // source (the paper's grammar with `SOURCE` in place of `s`).
        if !self.compose && !matches!(child, LogicalExpr::Get { .. }) {
            return Err(self.violation(&format!("composition over {}", child.op_name()), wrapper));
        }
        let _ = parent_is_top;
        self.check(child, wrapper, false)
    }

    /// Renders the paper-style grammar describing this capability set.
    #[must_use]
    pub fn to_grammar(&self) -> CapabilityGrammar {
        let mut productions = Vec::new();
        let nonterminals: Vec<(OperatorKind, char)> = self
            .operators()
            .into_iter()
            .zip(['b', 'c', 'd', 'e'])
            .collect();
        for (_, nt) in &nonterminals {
            productions.push(("a".to_owned(), vec![nt.to_string()]));
        }
        let source_symbol = if self.compose { "s" } else { "SOURCE" };
        for (op, nt) in &nonterminals {
            let rhs: Vec<String> = match op {
                OperatorKind::Get => vec![
                    "get".into(),
                    "OPEN".into(),
                    source_symbol.into(),
                    "CLOSE".into(),
                ],
                OperatorKind::Project => vec![
                    "project".into(),
                    "OPEN".into(),
                    "ATTRIBUTE".into(),
                    "COMMA".into(),
                    source_symbol.into(),
                    "CLOSE".into(),
                ],
                OperatorKind::Select => vec![
                    "select".into(),
                    "OPEN".into(),
                    "PREDICATE".into(),
                    "COMMA".into(),
                    source_symbol.into(),
                    "CLOSE".into(),
                ],
                OperatorKind::Join => vec![
                    "join".into(),
                    "OPEN".into(),
                    source_symbol.into(),
                    "COMMA".into(),
                    source_symbol.into(),
                    "COMMA".into(),
                    "ATTRIBUTE".into(),
                    "CLOSE".into(),
                ],
            };
            productions.push((nt.to_string(), rhs));
        }
        if self.compose {
            for (_, nt) in &nonterminals {
                productions.push(("s".to_owned(), vec![nt.to_string()]));
            }
            productions.push(("s".to_owned(), vec!["SOURCE".into()]));
        }
        CapabilityGrammar { productions }
    }

    /// Reconstructs a capability set from a grammar (the inverse of
    /// [`CapabilitySet::to_grammar`] for grammars in the paper's shape).
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::InvalidGrammar`] when the text cannot be
    /// parsed.
    pub fn from_grammar(grammar: &CapabilityGrammar) -> Result<CapabilitySet> {
        let operators = operator_mask(
            grammar
                .productions
                .iter()
                .filter_map(|(_, rhs)| OperatorKind::from_terminal(rhs.first()?)),
        );
        let compose = grammar
            .productions
            .iter()
            .any(|(lhs, rhs)| lhs == "s" || rhs.iter().any(|sym| sym == "s"));
        if operators == 0 {
            return Err(AlgebraError::InvalidGrammar(
                "grammar names no supported operator".into(),
            ));
        }
        Ok(CapabilitySet {
            operators,
            compose,
            comparisons: ALL_COMPARISONS,
        })
    }
}

/// A paper-style capability grammar: a list of productions
/// `lhs :- sym sym …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapabilityGrammar {
    productions: Vec<(String, Vec<String>)>,
}

impl CapabilityGrammar {
    /// The productions, in order.
    #[must_use]
    pub fn productions(&self) -> &[(String, Vec<String>)] {
        &self.productions
    }

    /// Parses the textual form (one production per line, `lhs :- rhs…`).
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::InvalidGrammar`] on malformed lines.
    pub fn parse(text: &str) -> Result<CapabilityGrammar> {
        let mut productions = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (lhs, rhs) = line
                .split_once(":-")
                .ok_or_else(|| AlgebraError::InvalidGrammar(format!("missing ':-' in: {line}")))?;
            let lhs = lhs.trim().to_owned();
            if lhs.is_empty() {
                return Err(AlgebraError::InvalidGrammar(format!(
                    "empty lhs in: {line}"
                )));
            }
            let rhs: Vec<String> = rhs.split_whitespace().map(ToOwned::to_owned).collect();
            if rhs.is_empty() {
                return Err(AlgebraError::InvalidGrammar(format!(
                    "empty rhs in: {line}"
                )));
            }
            productions.push((lhs, rhs));
        }
        if productions.is_empty() {
            return Err(AlgebraError::InvalidGrammar("empty grammar".into()));
        }
        Ok(CapabilityGrammar { productions })
    }
}

impl fmt::Display for CapabilityGrammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (lhs, rhs) in &self.productions {
            writeln!(f, "{lhs} :- {}", rhs.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::ScalarExpr;

    fn name_project(input: LogicalExpr) -> LogicalExpr {
        input.project(["name"])
    }

    #[test]
    fn get_only_wrapper_rejects_everything_else() {
        let caps = CapabilitySet::get_only();
        assert!(caps.accepts(&LogicalExpr::get("person0")).is_ok());
        assert!(caps
            .accepts(&name_project(LogicalExpr::get("person0")))
            .is_err());
        let filter = LogicalExpr::get("person0").filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(10i64),
        ));
        assert!(caps.accepts(&filter).is_err());
    }

    #[test]
    fn paper_section_3_2_example() {
        // r0: {get, project, compose}; r1: {get} only.
        let r0 =
            CapabilitySet::new([OperatorKind::Get, OperatorKind::Project]).with_composition(true);
        let r1 = CapabilitySet::get_only();
        let pushed = name_project(LogicalExpr::get("person0"));
        assert!(r0.accepts(&pushed).is_ok());
        assert!(r1.accepts(&pushed).is_err());
        assert!(r1.accepts(&LogicalExpr::get("person1")).is_ok());
    }

    #[test]
    fn composition_flag_controls_nesting() {
        // A wrapper that understands get and project *but not their
        // composition* (the first grammar in §3.2) accepts project(get)
        // — one operator over the source — but not project(select(get)).
        let no_compose = CapabilitySet::new([
            OperatorKind::Get,
            OperatorKind::Project,
            OperatorKind::Select,
        ]);
        let one_level = name_project(LogicalExpr::get("r"));
        assert!(no_compose.accepts(&one_level).is_ok());
        let nested = name_project(LogicalExpr::get("r").filter(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::attr("a"),
            ScalarExpr::constant(1i64),
        )));
        assert!(no_compose.accepts(&nested).is_err());
        let with_compose = no_compose.with_composition(true);
        assert!(with_compose.accepts(&nested).is_ok());
    }

    #[test]
    fn join_pushdown_requires_join_capability() {
        // The §3.2 employee/manager example.
        let join = LogicalExpr::SourceJoin {
            left: Box::new(LogicalExpr::get("employee0")),
            right: Box::new(LogicalExpr::get("manager0")),
            on: vec![("dept".into(), "dept".into())],
        };
        assert!(CapabilitySet::full().accepts(&join).is_ok());
        let no_join = CapabilitySet::new([
            OperatorKind::Get,
            OperatorKind::Select,
            OperatorKind::Project,
        ])
        .with_composition(true);
        assert!(no_join.accepts(&join).is_err());
    }

    #[test]
    fn comparison_restrictions_are_enforced() {
        let eq_only = CapabilitySet::new([OperatorKind::Get, OperatorKind::Select])
            .with_composition(true)
            .with_comparisons([ComparisonKind::Eq]);
        let eq_filter = LogicalExpr::get("r").filter(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::attr("a"),
            ScalarExpr::constant(1i64),
        ));
        let gt_filter = LogicalExpr::get("r").filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("a"),
            ScalarExpr::constant(1i64),
        ));
        assert!(eq_only.accepts(&eq_filter).is_ok());
        assert!(eq_only.accepts(&gt_filter).is_err());
    }

    #[test]
    fn non_pushable_predicates_are_rejected() {
        let caps = CapabilitySet::full();
        let filter = LogicalExpr::get("r").filter(ScalarExpr::var_field("x", "salary"));
        assert!(caps.accepts(&filter).is_err());
        // Mediator-only operators are always rejected.
        let map = LogicalExpr::get("r").bind("x");
        assert!(caps.accepts(&map).is_err());
    }

    #[test]
    fn grammar_rendering_matches_paper_shapes() {
        // Without composition: project/get over SOURCE.
        let no_compose = CapabilitySet::new([OperatorKind::Get, OperatorKind::Project]);
        let text = no_compose.to_grammar().to_string();
        assert!(text.contains("a :- b"));
        assert!(text.contains("a :- c"));
        assert!(text.contains("b :- get OPEN SOURCE CLOSE"));
        assert!(text.contains("c :- project OPEN ATTRIBUTE COMMA SOURCE CLOSE"));
        assert!(!text.contains("s :-"));
        // With composition: the `s` nonterminal appears.
        let compose = no_compose.with_composition(true);
        let text = compose.to_grammar().to_string();
        assert!(text.contains("b :- get OPEN s CLOSE"));
        assert!(text.contains("s :- b"));
        assert!(text.contains("s :- SOURCE"));
    }

    #[test]
    fn grammar_round_trips_to_capability_set() {
        for caps in [
            CapabilitySet::get_only(),
            CapabilitySet::new([OperatorKind::Get, OperatorKind::Project]),
            CapabilitySet::new([OperatorKind::Get, OperatorKind::Project]).with_composition(true),
            CapabilitySet::full(),
        ] {
            let grammar = caps.to_grammar();
            let parsed_text = CapabilityGrammar::parse(&grammar.to_string()).unwrap();
            let recovered = CapabilitySet::from_grammar(&parsed_text).unwrap();
            assert_eq!(recovered.operators(), caps.operators());
            assert_eq!(
                recovered.supports_composition(),
                caps.supports_composition()
            );
        }
    }

    #[test]
    fn grammar_parse_errors() {
        assert!(CapabilityGrammar::parse("").is_err());
        assert!(CapabilityGrammar::parse("nonsense line").is_err());
        assert!(CapabilityGrammar::parse("a :- ").is_err());
        assert!(CapabilityGrammar::parse(" :- b").is_err());
        let g = CapabilityGrammar::parse("a :- b\nb :- frobnicate OPEN SOURCE CLOSE").unwrap();
        assert!(CapabilitySet::from_grammar(&g).is_err());
    }
}
