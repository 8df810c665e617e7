//! A small SQL-style front end for the paper's query notation (§III):
//!
//! ```sql
//! SELECT SKYLINE FROM r WHERE type = 'sedan' AND color = 'red'
//!     PREFERENCE BY price, mileage
//!
//! SELECT TOP 10 FROM r WHERE type = 'sedan'
//!     ORDER BY (price - 0.3)^2 + 0.5 * (mileage - 0.15)^2
//!
//! EXPLAIN SELECT TOP 10 FROM r WHERE type = 'sedan' ORDER BY price
//! ```
//!
//! An `EXPLAIN` prefix routes the statement through the §VI cost-based
//! planner: the cheapest engine (P-Cube or a baseline) answers the query,
//! and the decision is recorded in the outcome's `stats.plan` (render it
//! with [`explain_plan`]).
//!
//! Ranking expressions are sums of terms, each either linear
//! (`[w *] dim`) or squared-distance (`[w *] (dim - target)^2` with
//! `w ≥ 0`), which covers the paper's Example 1 function family and the
//! evaluation's linear functions while guaranteeing a derivable lower bound
//! (§III's requirement).

use pcube_core::{
    CancelToken, DurableDb, PCubeDb, PSkylineClass, ParallelOptions, PriorityGraph, QueryBudget,
    QueryClass, QueryOutcome, QueryStats, RankingFunction, SkylineClass, SubspaceSkylineClass,
    TopKClass,
};
use pcube_cube::{Predicate, Selection};
use pcube_rtree::Mbr;
use pcube_storage::Counter;
use std::fmt;
use std::time::Duration;

/// A parse or binding failure, with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError(pub String);

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL error: {}", self.0)
    }
}

impl std::error::Error for SqlError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SqlError> {
    Err(SqlError(msg.into()))
}

/// One term of a ranking expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RankTerm {
    /// `weight * dim`
    Linear {
        /// Preference-dimension name.
        dim: String,
        /// Coefficient (any sign).
        weight: f64,
    },
    /// `weight * (dim - target)^2`, `weight ≥ 0`
    SquaredDistance {
        /// Preference-dimension name.
        dim: String,
        /// Non-negative coefficient.
        weight: f64,
        /// The preferred value.
        target: f64,
    },
}

/// A parsed query, not yet bound to a database.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlQuery {
    /// `SELECT SKYLINE FROM … [WHERE …] [PREFERENCE BY …]`
    Skyline {
        /// `(dimension, value)` equality predicates.
        predicates: Vec<(String, String)>,
        /// Preference dimensions (empty = all).
        pref_dims: Vec<String>,
    },
    /// `SELECT TOP k FROM … [WHERE …] ORDER BY expr`
    TopK {
        /// Result size.
        k: usize,
        /// `(dimension, value)` equality predicates.
        predicates: Vec<(String, String)>,
        /// The ranking expression.
        ranking: Vec<RankTerm>,
    },
    /// `SELECT SKYLINE [OF …] FROM … [WHERE …] PRIORITIZE a OVER b
    /// [AND c OVER d]*` — prioritized (p-)skyline under a dimension
    /// priority DAG.
    PSkyline {
        /// `(dimension, value)` equality predicates.
        predicates: Vec<(String, String)>,
        /// Preference dimensions (empty = all).
        pref_dims: Vec<String>,
        /// `(dominant, dominated)` priority edges.
        edges: Vec<(String, String)>,
    },
    /// `SELECT SKYLINE IN SUBSPACE (…) FROM … [WHERE …]` — skyline of the
    /// projection onto the listed dimensions, with distinct-value
    /// semantics on the projected duplicates.
    SubspaceSkyline {
        /// `(dimension, value)` equality predicates.
        predicates: Vec<(String, String)>,
        /// The subspace dimensions, in projection order.
        dims: Vec<String>,
    },
}

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    Number(f64),
    Symbol(char),
}

fn lex(input: &str) -> Result<Vec<Token>, SqlError> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && chars[j] != '\'' {
                    j += 1;
                }
                if j >= chars.len() {
                    return err("unterminated string literal");
                }
                out.push(Token::Str(chars[start..j].iter().collect()));
                i = j + 1;
            }
            c if c.is_ascii_digit() || (c == '.' && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())) => {
                let start = i;
                let mut j = i;
                while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '.') {
                    j += 1;
                }
                let text: String = chars[start..j].iter().collect();
                // A literal too long for an f64 parses as `inf`; refused here,
                // it cannot turn a score into `inf` or NaN.
                let value = text
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| SqlError(format!("bad number {text:?}")))?;
                out.push(Token::Number(value));
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                out.push(Token::Ident(chars[start..j].iter().collect()));
                i = j;
            }
            '=' | '(' | ')' | '+' | '-' | '*' | '^' | ',' => {
                out.push(Token::Symbol(c));
                i += 1;
            }
            other => return err(format!("unexpected character {other:?}")),
        }
    }
    Ok(out)
}

// --------------------------------------------------------------- parser --

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(w)) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.keyword(kw) {
            Ok(())
        } else {
            err(format!("expected {kw}, found {:?}", self.peek()))
        }
    }

    fn expect_symbol(&mut self, c: char) -> Result<(), SqlError> {
        match self.next() {
            Some(Token::Symbol(s)) if s == c => Ok(()),
            other => err(format!("expected {c:?}, found {other:?}")),
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.next() {
            Some(Token::Ident(w)) => Ok(w),
            other => err(format!("expected identifier, found {other:?}")),
        }
    }

    fn number(&mut self) -> Result<f64, SqlError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            other => err(format!("expected number, found {other:?}")),
        }
    }

    /// `ident (, ident)*`
    fn ident_list(&mut self) -> Result<Vec<String>, SqlError> {
        let mut dims = vec![self.ident()?];
        while matches!(self.peek(), Some(Token::Symbol(','))) {
            self.pos += 1;
            dims.push(self.ident()?);
        }
        Ok(dims)
    }

    fn predicates(&mut self) -> Result<Vec<(String, String)>, SqlError> {
        if !self.keyword("where") {
            return Ok(Vec::new());
        }
        let mut preds = Vec::new();
        loop {
            let dim = self.ident()?;
            self.expect_symbol('=')?;
            let value = match self.next() {
                Some(Token::Str(s)) => s,
                Some(Token::Ident(w)) => w,
                Some(Token::Number(n)) => format!("{n}"),
                other => return err(format!("expected value, found {other:?}")),
            };
            preds.push((dim, value));
            if !self.keyword("and") {
                break;
            }
        }
        Ok(preds)
    }

    /// `expr := term (+ term)*` where
    /// `term := [number *] base` and
    /// `base := ident | ( ident - number ) ^ 2`.
    fn ranking(&mut self) -> Result<Vec<RankTerm>, SqlError> {
        let mut terms = vec![self.term()?];
        while matches!(self.peek(), Some(Token::Symbol('+'))) {
            self.pos += 1;
            terms.push(self.term()?);
        }
        Ok(terms)
    }

    fn term(&mut self) -> Result<RankTerm, SqlError> {
        let weight = if let Some(Token::Number(_)) = self.peek() {
            let w = self.number()?;
            self.expect_symbol('*')?;
            w
        } else {
            1.0
        };
        match self.peek() {
            Some(Token::Symbol('(')) => {
                self.pos += 1;
                let dim = self.ident()?;
                self.expect_symbol('-')?;
                let target = self.number()?;
                self.expect_symbol(')')?;
                self.expect_symbol('^')?;
                match self.next() {
                    Some(Token::Number(n)) if (n - 2.0).abs() < f64::EPSILON => {}
                    other => return err(format!("only ^2 is supported, found {other:?}")),
                }
                if weight < 0.0 {
                    return err("squared-distance terms need a non-negative weight");
                }
                Ok(RankTerm::SquaredDistance { dim, weight, target })
            }
            Some(Token::Ident(_)) => {
                let dim = self.ident()?;
                Ok(RankTerm::Linear { dim, weight })
            }
            other => err(format!("expected a ranking term, found {other:?}")),
        }
    }
}

/// A parsed statement: the query plus whether it was prefixed with
/// `EXPLAIN` (run through the §VI cost-based planner, with the decision
/// reported in the outcome's stats).
#[derive(Debug, Clone, PartialEq)]
pub struct SqlStatement {
    /// `true` when the statement began with `EXPLAIN`.
    pub explain: bool,
    /// The query itself.
    pub query: SqlQuery,
}

/// A session directive or a query statement — what one REPL line parses
/// to under [`parse_command`].
#[derive(Debug, Clone, PartialEq)]
pub enum SqlCommand {
    /// A `SELECT …` (optionally `EXPLAIN`-prefixed) statement.
    Statement(SqlStatement),
    /// `SET DEADLINE_MS <n>` — apply an `n`-millisecond wall-clock
    /// deadline to every following statement (`0` clears it).
    SetDeadlineMs(u64),
    /// `SET MAX_BLOCKS <n>` — cap the block reads each following
    /// statement may charge (`0` clears it).
    SetMaxBlocks(u64),
    /// `CANCEL` — trip the session's [`CancelToken`]. Meant to be issued
    /// from another thread holding a clone of the token; at the prompt it
    /// demonstrates the path (every query returns `Partial(Cancelled)`
    /// until `RESET`).
    Cancel,
    /// `RESET` — re-arm a cancelled session.
    Reset,
    /// `CHECKPOINT` — flush dirty pages into the durable checkpoint image
    /// and truncate the WAL prefix it covers. Requires a durable session
    /// ([`SqlSession::run_durable`]); against a read-only database it is
    /// an error.
    Checkpoint,
    /// `SCRUB` — run an online integrity pass over the signature store
    /// under the session's deadline/block budget: verify every page's
    /// CRC32 and every cell's structural invariants, quarantining each
    /// deterministic failure so later probes skip it in O(1).
    Scrub,
    /// `REPAIR` — rebuild every quarantined signature page from the base
    /// table, through the WAL (crash-safe), publishing the healed store as
    /// a new epoch. Requires a durable session.
    Repair,
    /// `STATS` — the session database's I/O ledger: reads/writes plus the
    /// self-healing counters (`degraded_reads`, `pages_quarantined`,
    /// `quarantine_hits`, `pages_repaired`).
    Stats,
}

/// Parses one REPL line: a session directive (`SET …`, `CANCEL`, `RESET`)
/// or a query statement.
pub fn parse_command(sql: &str) -> Result<SqlCommand, SqlError> {
    let mut p = Parser { tokens: lex(sql)?, pos: 0 };
    if p.keyword("set") {
        let knob = p.ident()?;
        let n = p.number()?;
        if n < 0.0 || n.fract() != 0.0 {
            return err(format!("SET {} takes a non-negative integer", knob.to_uppercase()));
        }
        if p.peek().is_some() {
            return err(format!("trailing input at {:?}", p.peek()));
        }
        return if knob.eq_ignore_ascii_case("deadline_ms") {
            Ok(SqlCommand::SetDeadlineMs(n as u64))
        } else if knob.eq_ignore_ascii_case("max_blocks") {
            Ok(SqlCommand::SetMaxBlocks(n as u64))
        } else {
            err(format!("unknown session knob {knob:?} (try DEADLINE_MS or MAX_BLOCKS)"))
        };
    }
    // The one-word directives: the keyword, then nothing.
    const DIRECTIVES: [(&str, SqlCommand); 6] = [
        ("cancel", SqlCommand::Cancel),
        ("reset", SqlCommand::Reset),
        ("checkpoint", SqlCommand::Checkpoint),
        ("scrub", SqlCommand::Scrub),
        ("repair", SqlCommand::Repair),
        ("stats", SqlCommand::Stats),
    ];
    if let Some((_, command)) = DIRECTIVES.into_iter().find(|(kw, _)| p.keyword(kw)) {
        if p.peek().is_some() {
            return err(format!("trailing input at {:?}", p.peek()));
        }
        return Ok(command);
    }
    let explain = p.keyword("explain");
    let query = parse_query(&mut p)?;
    Ok(SqlCommand::Statement(SqlStatement { explain, query }))
}

/// Parses one statement of the paper's query notation.
pub fn parse(sql: &str) -> Result<SqlQuery, SqlError> {
    Ok(parse_statement(sql)?.query)
}

/// Parses one statement, honoring an optional leading `EXPLAIN`.
pub fn parse_statement(sql: &str) -> Result<SqlStatement, SqlError> {
    let mut p = Parser { tokens: lex(sql)?, pos: 0 };
    let explain = p.keyword("explain");
    let query = parse_query(&mut p)?;
    Ok(SqlStatement { explain, query })
}

fn parse_query(p: &mut Parser) -> Result<SqlQuery, SqlError> {
    p.expect_keyword("select")?;
    let query = if p.keyword("skyline") || p.keyword("skylines") {
        // `OF d1, d2` before FROM — same meaning as `PREFERENCE BY` after
        // the WHERE clause; at most one of the two may appear.
        let mut pref_dims = if p.keyword("of") { p.ident_list()? } else { Vec::new() };
        // `IN SUBSPACE (d1, d2)`: the projected-skyline form.
        let subspace = if p.keyword("in") {
            p.expect_keyword("subspace")?;
            p.expect_symbol('(')?;
            let dims = p.ident_list()?;
            p.expect_symbol(')')?;
            Some(dims)
        } else {
            None
        };
        p.expect_keyword("from")?;
        let _table = p.ident()?;
        let predicates = p.predicates()?;
        if p.keyword("preference") {
            p.expect_keyword("by")?;
            if !pref_dims.is_empty() {
                return err("give the skyline dimensions once: OF … or PREFERENCE BY …, not both");
            }
            pref_dims = p.ident_list()?;
        }
        // `PRIORITIZE a OVER b [AND c OVER d]*`: priority edges.
        let mut edges = Vec::new();
        if p.keyword("prioritize") {
            loop {
                let dominant = p.ident()?;
                p.expect_keyword("over")?;
                let dominated = p.ident()?;
                edges.push((dominant, dominated));
                if !p.keyword("and") {
                    break;
                }
            }
        }
        match subspace {
            Some(dims) => {
                if !pref_dims.is_empty() {
                    return err("IN SUBSPACE already fixes the dimensions; drop OF / PREFERENCE BY");
                }
                if !edges.is_empty() {
                    return err("PRIORITIZE cannot be combined with IN SUBSPACE");
                }
                SqlQuery::SubspaceSkyline { predicates, dims }
            }
            None if !edges.is_empty() => SqlQuery::PSkyline { predicates, pref_dims, edges },
            None => SqlQuery::Skyline { predicates, pref_dims },
        }
    } else if p.keyword("top") {
        let k = p.number()?;
        if k < 1.0 || k.fract() != 0.0 {
            return err(format!("TOP k takes a positive integer, found {k}"));
        }
        let k = k as usize;
        p.expect_keyword("from")?;
        let _table = p.ident()?;
        let predicates = p.predicates()?;
        p.expect_keyword("order")?;
        p.expect_keyword("by")?;
        let ranking = p.ranking()?;
        SqlQuery::TopK { k, predicates, ranking }
    } else {
        return err(format!("expected SKYLINE or TOP, found {:?}", p.peek()));
    };
    if p.peek().is_some() {
        return err(format!("trailing input at {:?}", p.peek()));
    }
    Ok(query)
}

// ------------------------------------------------------------- executor --

/// A compiled ranking expression (implements [`RankingFunction`]).
#[derive(Debug, Clone)]
pub struct CompiledRanking {
    terms: Vec<(usize, RankTerm)>,
}

impl RankingFunction for CompiledRanking {
    fn score(&self, point: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|(d, t)| match t {
                RankTerm::Linear { weight, .. } => weight * point[*d],
                RankTerm::SquaredDistance { weight, target, .. } => {
                    weight * (point[*d] - target) * (point[*d] - target)
                }
            })
            .sum()
    }

    fn lower_bound(&self, mbr: &Mbr) -> f64 {
        self.terms
            .iter()
            .map(|(d, t)| match t {
                RankTerm::Linear { weight, .. } => {
                    if *weight >= 0.0 {
                        weight * mbr.min[*d]
                    } else {
                        weight * mbr.max[*d]
                    }
                }
                RankTerm::SquaredDistance { weight, target, .. } => {
                    let c = target.clamp(mbr.min[*d], mbr.max[*d]);
                    weight * (c - target) * (c - target)
                }
            })
            .sum()
    }

    fn max_dim(&self) -> Option<usize> {
        self.terms.iter().map(|(d, _)| *d).max()
    }
}

/// One result row with decoded boolean values.
#[derive(Debug, Clone)]
pub struct ResultRow {
    /// Tuple id.
    pub tid: u64,
    /// Boolean-dimension values, decoded via the dictionaries (raw codes
    /// are rendered as `#<code>` when no string was interned).
    pub bool_values: Vec<String>,
    /// Preference coordinates.
    pub coords: Vec<f64>,
    /// Ranking score (`None` for skylines).
    pub score: Option<f64>,
}

/// A completed SQL query.
pub struct SqlOutcome {
    /// The rows.
    pub rows: Vec<ResultRow>,
    /// Execution metrics.
    pub stats: QueryStats,
}

fn bind_selection(db: &PCubeDb, predicates: &[(String, String)]) -> Result<Selection, SqlError> {
    let mut selection = Selection::new();
    for (dim_name, value) in predicates {
        let dim = db
            .relation()
            .schema()
            .bool_index(dim_name)
            .ok_or_else(|| SqlError(format!("unknown boolean dimension {dim_name:?}")))?;
        let dict = db.relation().dictionary(dim);
        let value = match dict.code(value) {
            Some(code) => code,
            // Dictionary-less relations (rows appended with raw codes,
            // e.g. the synthetic generators) accept numeric literals as
            // the codes themselves. Otherwise an unknown value is legal:
            // the query just matches nothing.
            None if dict.is_empty() => value.parse::<u32>().unwrap_or(u32::MAX),
            None => u32::MAX,
        };
        // A repeated predicate is legal; two values for one dimension are
        // not a selection (`normalize` would panic on them).
        if selection.iter().any(|p| p.dim == dim && p.value != value) {
            return err(format!("contradictory predicates on boolean dimension {dim_name:?}"));
        }
        selection.push(Predicate { dim, value });
    }
    Ok(selection)
}

fn bind_pref_dim(db: &PCubeDb, name: &str) -> Result<usize, SqlError> {
    db.relation()
        .schema()
        .pref_index(name)
        .ok_or_else(|| SqlError(format!("unknown preference dimension {name:?}")))
}

/// Refuses a ranking whose arithmetic can overflow an `f64` on the table:
/// summed over its terms, the largest magnitude each reaches over the
/// table's bounding box — `|w|·max(|min|, |max|)` for a linear term,
/// `w·max((min − t)², (max − t)²)` for a squared one — must be finite. An
/// overflow would score rows `±inf` (every row ties, the search reads the
/// whole tree and answers the lowest tids) or NaN (`inf + -inf`). The box
/// is read from the R-tree root uncounted; an empty table is not checked.
fn check_ranking_range(db: &PCubeDb, f: &CompiledRanking) -> Result<(), SqlError> {
    let Some(bounds) = db.rtree().bounds() else { return Ok(()) };
    let reach: f64 = f
        .terms
        .iter()
        .map(|(d, term)| {
            let (lo, hi) = (bounds.min[*d], bounds.max[*d]);
            match term {
                RankTerm::Linear { weight, .. } => weight.abs() * lo.abs().max(hi.abs()),
                RankTerm::SquaredDistance { weight, target, .. } => {
                    weight * (lo - target).powi(2).max((hi - target).powi(2))
                }
            }
        })
        .sum();
    if reach.is_finite() {
        Ok(())
    } else {
        err("the ranking overflows an f64 over the table's bounding box")
    }
}

fn decode_row(db: &PCubeDb, tid: u64, coords: &[f64], score: Option<f64>) -> ResultRow {
    let n_bool = db.relation().schema().n_bool();
    let bool_values = (0..n_bool)
        .map(|d| {
            let code = db.relation().bool_code(tid, d);
            db.relation()
                .dictionary(d)
                .value(code)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("#{code}"))
        })
        .collect();
    ResultRow { tid, bool_values, coords: coords.to_vec(), score }
}

/// Parses and runs one statement against a P-Cube database.
///
/// A statement prefixed with `EXPLAIN` is dispatched through the §VI
/// cost-based planner over every engine its class supports (P-Cube and the
/// comparison methods of §VI-A): the rows come back from whichever engine
/// the planner picked, and the decision — chosen engine, selectivity,
/// per-engine block estimates — is recorded in `stats.plan` (render it with
/// [`explain_plan`]). The planner's catalog and the boolean indexes are the
/// database's, not the statement's: the first `EXPLAIN` after a row change
/// builds the catalog, the first plan that lands on an engine reading the
/// indexes builds those, and every later one — in any session, or in none —
/// shares them.
pub fn execute(db: &PCubeDb, sql: &str) -> Result<SqlOutcome, SqlError> {
    execute_with(db, sql, &QueryBudget::unlimited(), None)
}

/// [`execute`] under a [`QueryBudget`] and optional [`CancelToken`]. When
/// the budget trips, the rows are a best-effort partial answer and
/// `stats.outcome` carries the [`QueryOutcome::Partial`] reason and
/// progress counters (render them with [`render_outcome`]). `EXPLAIN`
/// statements additionally plan with the budget: the planner substitutes
/// the cheapest engine whose §VI estimate fits, and the swap is reported
/// by [`explain_plan`].
pub fn execute_with(
    db: &PCubeDb,
    sql: &str,
    budget: &QueryBudget,
    cancel: Option<&CancelToken>,
) -> Result<SqlOutcome, SqlError> {
    let stmt = parse_statement(sql)?;
    execute_statement(db, stmt, budget, cancel)
}

fn execute_statement(
    db: &PCubeDb,
    stmt: SqlStatement,
    budget: &QueryBudget,
    cancel: Option<&CancelToken>,
) -> Result<SqlOutcome, SqlError> {
    match stmt.query {
        SqlQuery::Skyline { predicates, pref_dims } => {
            let selection = bind_selection(db, &predicates)?;
            let dims: Vec<usize> = if pref_dims.is_empty() {
                (0..db.relation().schema().n_pref()).collect()
            } else {
                pref_dims
                    .iter()
                    .map(|n| bind_pref_dim(db, n))
                    .collect::<Result<Vec<_>, _>>()?
            };
            let class = SkylineClass::new(dims);
            let (rows, stats) =
                run_class_statement(db, &class, &selection, stmt.explain, budget, cancel)?;
            Ok(skyline_outcome(db, &rows, stats))
        }
        SqlQuery::TopK { k, predicates, ranking } => {
            let selection = bind_selection(db, &predicates)?;
            let terms = ranking
                .into_iter()
                .map(|t| {
                    let name = match &t {
                        RankTerm::Linear { dim, .. } | RankTerm::SquaredDistance { dim, .. } => dim,
                    };
                    Ok((bind_pref_dim(db, name)?, t))
                })
                .collect::<Result<Vec<_>, SqlError>>()?;
            let f = CompiledRanking { terms };
            check_ranking_range(db, &f)?;
            let class = TopKClass::new(k, &f);
            let (topk, stats) =
                run_class_statement(db, &class, &selection, stmt.explain, budget, cancel)?;
            Ok(SqlOutcome {
                rows: topk
                    .iter()
                    .map(|(tid, coords, score)| decode_row(db, *tid, coords, Some(*score)))
                    .collect(),
                stats,
            })
        }
        SqlQuery::PSkyline { predicates, pref_dims, edges } => {
            let selection = bind_selection(db, &predicates)?;
            let names: Vec<String> = if pref_dims.is_empty() {
                (0..db.relation().schema().n_pref())
                    .map(|d| db.relation().schema().pref_name(d).to_owned())
                    .collect()
            } else {
                pref_dims
            };
            reject_duplicate_dims(&names, "the skyline dimension list")?;
            let dims = names
                .iter()
                .map(|n| bind_pref_dim(db, n))
                .collect::<Result<Vec<_>, _>>()?;
            let edge_ids = edges
                .iter()
                .map(|(a, b)| {
                    let a_id = bind_pref_dim(db, a)?;
                    let b_id = bind_pref_dim(db, b)?;
                    for (name, id) in [(a, a_id), (b, b_id)] {
                        if !dims.contains(&id) {
                            return err(format!(
                                "PRIORITIZE mentions {name:?}, which is not one of \
                                 this query's skyline dimensions"
                            ));
                        }
                    }
                    Ok((a_id, b_id))
                })
                .collect::<Result<Vec<_>, SqlError>>()?;
            let graph = PriorityGraph::new(dims, &edge_ids)
                .map_err(|e| SqlError(format!("invalid PRIORITIZE clause: {e}")))?;
            let class = PSkylineClass::new(graph);
            let (rows, stats) =
                run_class_statement(db, &class, &selection, stmt.explain, budget, cancel)?;
            Ok(skyline_outcome(db, &rows, stats))
        }
        SqlQuery::SubspaceSkyline { predicates, dims } => {
            let selection = bind_selection(db, &predicates)?;
            reject_duplicate_dims(&dims, "SUBSPACE")?;
            let dim_ids = dims
                .iter()
                .map(|n| bind_pref_dim(db, n))
                .collect::<Result<Vec<_>, _>>()?;
            let class = SubspaceSkylineClass::new(dim_ids);
            let (rows, stats) =
                run_class_statement(db, &class, &selection, stmt.explain, budget, cancel)?;
            // Subspace rows carry only the projected coordinates, in the
            // order the SUBSPACE clause listed them.
            Ok(skyline_outcome(db, &rows, stats))
        }
    }
}

/// The outcome of a skyline-family statement: rows without a score.
fn skyline_outcome(db: &PCubeDb, rows: &[(u64, Vec<f64>)], stats: QueryStats) -> SqlOutcome {
    let rows = rows.iter().map(|(tid, coords)| decode_row(db, *tid, coords, None)).collect();
    SqlOutcome { rows, stats }
}

fn reject_duplicate_dims(names: &[String], what: &str) -> Result<(), SqlError> {
    for (i, n) in names.iter().enumerate() {
        if names[..i].iter().any(|m| m == n) {
            return err(format!("duplicate dimension {n:?} in {what}"));
        }
    }
    Ok(())
}

/// Runs one bound statement: the serial engine under the session's budget
/// normally; for an `EXPLAIN`ed statement, [`PCubeDb::plan_and_run_class`]
/// over the database's §VI catalog ([`PCubeDb::planner`] — built by the first
/// statement that plans against this version of the database, shared by
/// every later one; the decision lands in `stats.plan`). Every class plans
/// over the engines of §VI-A it supports, under the same budget and cancel
/// token whichever engine wins.
fn run_class_statement<C: QueryClass + Sync>(
    db: &PCubeDb,
    class: &C,
    selection: &Selection,
    explain: bool,
    budget: &QueryBudget,
    cancel: Option<&CancelToken>,
) -> Result<(Vec<C::Row>, QueryStats), SqlError> {
    if explain {
        db.plan_and_run_class(&db.planner(), class, selection, budget, cancel)
            .map_err(|e| SqlError(e.to_string()))
    } else {
        let opts =
            ParallelOptions { budget: *budget, cancel: cancel.cloned(), ..Default::default() };
        let out = db.par_run(selection, class, opts);
        Ok((out.rows, out.stats))
    }
}

/// Per-connection execution state: a deadline and block cap applied to
/// every statement, plus a [`CancelToken`] that a concurrent thread (or a
/// `CANCEL` directive) can trip to stop the in-flight query. Drive it
/// with [`SqlSession::run`], which also interprets the session
/// directives of [`SqlCommand`].
#[derive(Debug, Clone, Default)]
pub struct SqlSession {
    deadline_ms: Option<u64>,
    max_blocks: Option<u64>,
    cancel: CancelToken,
}

/// What one [`SqlSession::run`] call produced.
pub enum SessionReply {
    /// A query ran; rows and stats.
    Rows(Box<SqlOutcome>),
    /// A session directive was applied; a one-line acknowledgement.
    Ack(String),
}

impl SqlSession {
    /// A fresh session: no deadline, no block cap, not cancelled.
    pub fn new() -> Self {
        SqlSession::default()
    }

    /// The session's cancel token. Clone it into another thread to cancel
    /// the statement currently running on this session.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The per-statement budget implied by the session knobs.
    pub fn budget(&self) -> QueryBudget {
        let mut b = QueryBudget::unlimited();
        if let Some(ms) = self.deadline_ms {
            b = b.with_deadline(Duration::from_millis(ms));
        }
        if let Some(blocks) = self.max_blocks {
            b = b.with_block_budget(blocks);
        }
        b
    }

    /// Parses and runs one line — a directive or a statement — against
    /// `db` under the session's budget and cancel token.
    pub fn run(&mut self, db: &PCubeDb, line: &str) -> Result<SessionReply, SqlError> {
        match parse_command(line)? {
            SqlCommand::SetDeadlineMs(ms) => {
                self.deadline_ms = (ms > 0).then_some(ms);
                Ok(SessionReply::Ack(match self.deadline_ms {
                    Some(ms) => format!("deadline set to {ms} ms per statement"),
                    None => "deadline cleared".to_owned(),
                }))
            }
            SqlCommand::SetMaxBlocks(blocks) => {
                self.max_blocks = (blocks > 0).then_some(blocks);
                Ok(SessionReply::Ack(match self.max_blocks {
                    Some(b) => format!("block budget set to {b} reads per statement"),
                    None => "block budget cleared".to_owned(),
                }))
            }
            SqlCommand::Cancel => {
                self.cancel.cancel();
                Ok(SessionReply::Ack(
                    "session cancelled — statements stop immediately until RESET".to_owned(),
                ))
            }
            SqlCommand::Reset => {
                self.cancel.reset();
                Ok(SessionReply::Ack("session re-armed".to_owned()))
            }
            SqlCommand::Checkpoint => err(
                "CHECKPOINT requires a durable session — open the database with \
                 DurableDb and drive it through SqlSession::run_durable",
            ),
            SqlCommand::Scrub => {
                let report = db.scrub(&self.budget());
                Ok(SessionReply::Ack(report.to_string()))
            }
            SqlCommand::Repair => err(
                "REPAIR requires a durable session — the rebuild is logged through \
                 the WAL; open the database with DurableDb and drive it through \
                 SqlSession::run_durable",
            ),
            SqlCommand::Stats => Ok(SessionReply::Ack(render_stats(db))),
            SqlCommand::Statement(stmt) => {
                execute_statement(db, stmt, &self.budget(), Some(&self.cancel))
                    .map(|out| SessionReply::Rows(Box::new(out)))
            }
        }
    }

    /// [`SqlSession::run`] against a durable database: additionally
    /// interprets `CHECKPOINT`, and runs queries against the live master.
    pub fn run_durable(
        &mut self,
        db: &mut DurableDb,
        line: &str,
    ) -> Result<SessionReply, SqlError> {
        match parse_command(line)? {
            SqlCommand::Checkpoint => {
                let outcome = db.checkpoint().map_err(|e| SqlError(e.to_string()))?;
                Ok(SessionReply::Ack(format!(
                    "checkpoint installed: epoch {}, {} txns covered, {} pages flushed, \
                     {} WAL bytes reclaimed",
                    outcome.epoch,
                    outcome.txns,
                    outcome.pages_flushed,
                    outcome.wal_bytes_reclaimed
                )))
            }
            SqlCommand::Repair => {
                let outcome = db.repair().map_err(|e| SqlError(e.to_string()))?;
                Ok(SessionReply::Ack(outcome.to_string()))
            }
            _ => self.run(db.db(), line),
        }
    }
}

/// Renders the database's I/O ledger as one line — the `STATS` directive:
/// total reads and writes, then every [`Counter`] by name. The self-healing
/// counters make degraded operation visible at the prompt: `degraded_reads`
/// grows while damaged pages are being verified around,
/// `pages_quarantined`/`quarantine_hits` show the memoization working, and
/// `pages_repaired` confirms a `REPAIR` healed them.
fn render_stats(db: &PCubeDb) -> String {
    let s = db.stats().snapshot();
    let mut line = format!("reads: {}, writes: {}", s.total_reads(), s.total_writes());
    for counter in Counter::ALL {
        line.push_str(&format!(", {}: {}", counter.name(), s.get(counter)));
    }
    line
}

/// Renders a [`QueryOutcome::Partial`] as a one-line notice (`None` for
/// complete queries): the stop reason plus how far the query got.
pub fn render_outcome(stats: &QueryStats) -> Option<String> {
    let QueryOutcome::Partial { reason, progress } = &stats.outcome else {
        return None;
    };
    Some(format!(
        "partial result: {reason} after {} pops, {} rows, {} blocks ({} heap entries unexplored)",
        progress.pops, progress.results_so_far, progress.blocks_used, progress.frontier,
    ))
}

/// Renders the planner decision recorded in `stats` as an `EXPLAIN`-style
/// report, one line per candidate engine; `None` when the statement ran
/// without the planner.
pub fn explain_plan(stats: &QueryStats) -> Option<String> {
    let plan = stats.plan.as_ref()?;
    let mut out = format!(
        "plan: {} via {} (selectivity {:.4}, ~{:.0} qualifying)\n",
        plan.class,
        plan.chosen.name(),
        plan.selectivity,
        plan.qualifying_est,
    );
    for e in &plan.estimates {
        out.push_str(&format!(
            "  {} {:<16} est {:>9.1} blocks ({:>9.1} random + {:>7.1} sequential, ~{:.4}s)\n",
            if e.engine == plan.chosen { "->" } else { "  " },
            e.engine.name(),
            e.random_blocks + e.sequential_blocks,
            e.random_blocks,
            e.sequential_blocks,
            e.seconds,
        ));
    }
    if plan.budget_limited {
        match plan.fallback_from {
            Some(from) => out.push_str(&format!(
                "  budget: {} exceeds the query budget; fell back to {}\n",
                from.name(),
                plan.chosen.name(),
            )),
            None => out.push_str(
                "  budget: no engine's estimate fits the query budget; \
                 running the cost winner under governance\n",
            ),
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_example_1() {
        let q = parse(
            "select top 10 from r where type = 'sedan' and color = 'red' \
             order by (price - 0.3)^2 + 0.5 * (mileage - 0.15)^2",
        )
        .unwrap();
        assert_eq!(
            q,
            SqlQuery::TopK {
                k: 10,
                predicates: vec![
                    ("type".into(), "sedan".into()),
                    ("color".into(), "red".into())
                ],
                ranking: vec![
                    RankTerm::SquaredDistance { dim: "price".into(), weight: 1.0, target: 0.3 },
                    RankTerm::SquaredDistance {
                        dim: "mileage".into(),
                        weight: 0.5,
                        target: 0.15
                    },
                ],
            }
        );
    }

    #[test]
    fn parses_skyline_with_preference_by() {
        let q = parse(
            "SELECT SKYLINE FROM cameras WHERE brand = 'canon' PREFERENCE BY price, neg_zoom",
        )
        .unwrap();
        assert_eq!(
            q,
            SqlQuery::Skyline {
                predicates: vec![("brand".into(), "canon".into())],
                pref_dims: vec!["price".into(), "neg_zoom".into()],
            }
        );
    }

    #[test]
    fn parses_minimal_forms() {
        assert_eq!(
            parse("select skyline from r").unwrap(),
            SqlQuery::Skyline { predicates: vec![], pref_dims: vec![] }
        );
        let q = parse("select top 3 from r order by price").unwrap();
        assert_eq!(
            q,
            SqlQuery::TopK {
                k: 3,
                predicates: vec![],
                ranking: vec![RankTerm::Linear { dim: "price".into(), weight: 1.0 }],
            }
        );
    }

    #[test]
    fn parses_linear_combination() {
        let q = parse("select top 5 from r order by 0.7 * x + y + 2 * z").unwrap();
        let SqlQuery::TopK { ranking, .. } = q else { panic!() };
        assert_eq!(
            ranking,
            vec![
                RankTerm::Linear { dim: "x".into(), weight: 0.7 },
                RankTerm::Linear { dim: "y".into(), weight: 1.0 },
                RankTerm::Linear { dim: "z".into(), weight: 2.0 },
            ]
        );
    }

    #[test]
    fn rejects_malformed_statements() {
        for bad in [
            "",
            "select",
            "select skyline",
            "select top from r order by x",
            "select top 0 from r order by x",
            "select top 2.5 from r order by x",
            "select top 5 from r order by (x - 1)^3",
            "select top 5 from r",
            "select skyline from r where a =",
            "select skyline from r where a = 'unclosed",
            "select skyline from r trailing junk",
            "select nothing from r",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("SeLeCt SkYlInE fRoM r").is_ok());
    }

    #[test]
    fn parses_session_directives() {
        assert_eq!(parse_command("SET DEADLINE_MS 250").unwrap(), SqlCommand::SetDeadlineMs(250));
        assert_eq!(parse_command("set max_blocks 1000").unwrap(), SqlCommand::SetMaxBlocks(1000));
        assert_eq!(parse_command("CANCEL").unwrap(), SqlCommand::Cancel);
        assert_eq!(parse_command("reset").unwrap(), SqlCommand::Reset);
        assert_eq!(parse_command("CHECKPOINT").unwrap(), SqlCommand::Checkpoint);
        assert!(matches!(
            parse_command("select skyline from r").unwrap(),
            SqlCommand::Statement(_)
        ));
        for bad in ["set", "set deadline_ms", "set deadline_ms -1", "set deadline_ms 1.5",
            "set warp_factor 9", "cancel now", "reset please", "checkpoint now"]
        {
            assert!(parse_command(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parses_self_healing_directives() {
        assert_eq!(parse_command("SCRUB").unwrap(), SqlCommand::Scrub);
        assert_eq!(parse_command("repair").unwrap(), SqlCommand::Repair);
        assert_eq!(parse_command("Stats").unwrap(), SqlCommand::Stats);
        for bad in ["scrub now", "repair all", "stats verbose"] {
            assert!(parse_command(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn scrub_and_repair_directives_heal_a_corrupted_durable_store() {
        use pcube_core::{DurabilityOptions, DurableDb, PCubeConfig};
        use pcube_data::{synthetic, SyntheticSpec};

        let spec = SyntheticSpec { n_tuples: 300, n_bool: 2, n_pref: 2, ..Default::default() };
        let relation = synthetic(&spec);
        let mut db =
            DurableDb::create(relation, &PCubeConfig::default(), DurabilityOptions::default());
        let mut session = SqlSession::new();

        let SessionReply::Rows(clean) =
            session.run_durable(&mut db, "select skyline from r").unwrap()
        else {
            panic!("query lines return rows");
        };

        // Arm checksums, then flip one bit on a live signature page —
        // silent media decay, invisible until someone looks.
        db.signature_store_mut().sig_pager_mut().set_checksums(true);
        let pid = db.signature_store_mut().sig_pager_mut().live_page_ids()[0];
        db.signature_store_mut().sig_pager_mut().corrupt_page(pid, 3, 0x20).unwrap();

        let SessionReply::Ack(scrub) = session.run_durable(&mut db, "SCRUB").unwrap() else {
            panic!("directives return acks");
        };
        assert!(scrub.contains("1 newly quarantined"), "scrub found the damage: {scrub}");

        let SessionReply::Ack(stats) = session.run_durable(&mut db, "STATS").unwrap() else {
            panic!("directives return acks");
        };
        assert!(stats.contains("pages_quarantined: 1"), "stats show the quarantine: {stats}");

        let SessionReply::Ack(repair) = session.run_durable(&mut db, "REPAIR").unwrap() else {
            panic!("directives return acks");
        };
        assert!(repair.contains("pages healed"), "repair reports healing: {repair}");

        // Healed store answers bit-identically and a second scrub is clean.
        let SessionReply::Ack(rescrub) = session.run_durable(&mut db, "SCRUB").unwrap() else {
            panic!("directives return acks");
        };
        assert!(rescrub.contains("0 newly quarantined"), "store is clean again: {rescrub}");
        let SessionReply::Rows(healed) =
            session.run_durable(&mut db, "select skyline from r").unwrap()
        else {
            panic!("query lines return rows");
        };
        let tids = |rows: &SqlOutcome| -> Vec<u64> {
            let mut t: Vec<u64> = rows.rows.iter().map(|r| r.tid).collect();
            t.sort_unstable();
            t
        };
        assert_eq!(tids(&clean), tids(&healed));
    }

    #[test]
    fn repair_requires_a_durable_session() {
        use pcube_core::PCubeConfig;
        use pcube_data::{synthetic, SyntheticSpec};

        let spec = SyntheticSpec { n_tuples: 50, n_bool: 2, n_pref: 2, ..Default::default() };
        let db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());
        let mut session = SqlSession::new();
        let Err(e) = session.run(&db, "REPAIR") else { panic!("REPAIR needs durability") };
        assert!(e.to_string().contains("durable"), "points at run_durable: {e}");
        // SCRUB and STATS work read-only.
        assert!(matches!(session.run(&db, "SCRUB"), Ok(SessionReply::Ack(_))));
        assert!(matches!(session.run(&db, "STATS"), Ok(SessionReply::Ack(_))));
    }

    #[test]
    fn session_budget_and_cancel_govern_statements() {
        use pcube_core::{PCubeConfig, StopReason};
        use pcube_data::{synthetic, SyntheticSpec};

        let spec = SyntheticSpec { n_tuples: 400, n_bool: 2, n_pref: 2, ..Default::default() };
        let db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());
        let mut session = SqlSession::new();

        // Ungoverned session: complete answer.
        let SessionReply::Rows(full) = session.run(&db, "select skyline from r").unwrap() else {
            panic!("query lines return rows");
        };
        assert!(full.stats.outcome.is_complete());
        assert!(render_outcome(&full.stats).is_none());

        // A one-block budget trips almost immediately; the partial result
        // is rendered, and a sound subset of the full skyline.
        let SessionReply::Ack(_) = session.run(&db, "set max_blocks 1").unwrap() else {
            panic!("directives return acks");
        };
        assert_eq!(session.budget().max_blocks(), Some(1));
        let SessionReply::Rows(cut) = session.run(&db, "select skyline from r").unwrap() else {
            panic!("query lines return rows");
        };
        assert_eq!(cut.stats.outcome.partial_reason(), Some(StopReason::BlockBudgetExceeded));
        assert!(render_outcome(&cut.stats).unwrap().contains("block budget exceeded"));
        let full_tids: std::collections::HashSet<u64> =
            full.rows.iter().map(|r| r.tid).collect();
        assert!(cut.rows.iter().all(|r| full_tids.contains(&r.tid)), "partial ⊆ full");

        // CANCEL stops statements instantly until RESET re-arms.
        session.run(&db, "set max_blocks 0").unwrap();
        session.run(&db, "cancel").unwrap();
        let SessionReply::Rows(out) = session.run(&db, "select skyline from r").unwrap() else {
            panic!("query lines return rows");
        };
        assert_eq!(out.stats.outcome.partial_reason(), Some(StopReason::Cancelled));
        session.run(&db, "reset").unwrap();
        let SessionReply::Rows(out) = session.run(&db, "select skyline from r").unwrap() else {
            panic!("query lines return rows");
        };
        assert!(out.stats.outcome.is_complete());
        assert_eq!(out.rows.len(), full.rows.len());
    }

    #[test]
    fn explain_renders_budget_fallback() {
        use pcube_core::{PCubeConfig, StopReason};
        use pcube_data::{synthetic, SyntheticSpec};

        let spec = SyntheticSpec { n_tuples: 400, n_bool: 2, n_pref: 2, ..Default::default() };
        let db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());

        // An unsatisfiably small block budget: no engine fits, the raw cost
        // winner runs governed, and EXPLAIN says so.
        let budget = QueryBudget::unlimited().with_block_budget(1);
        let out = execute_with(&db, "explain select skyline from r", &budget, None).unwrap();
        let plan = out.stats.plan.as_ref().expect("EXPLAIN records a plan");
        assert!(plan.budget_limited);
        assert!(explain_plan(&out.stats).unwrap().contains("budget:"));
        assert_eq!(
            out.stats.outcome.partial_reason(),
            Some(StopReason::BlockBudgetExceeded),
            "the chosen engine still stops when the budget trips"
        );
    }

    #[test]
    fn parses_pskyline_forms() {
        let q = parse(
            "SELECT SKYLINE OF price, mileage FROM cars WHERE type = 'sedan' \
             PRIORITIZE price OVER mileage",
        )
        .unwrap();
        assert_eq!(
            q,
            SqlQuery::PSkyline {
                predicates: vec![("type".into(), "sedan".into())],
                pref_dims: vec!["price".into(), "mileage".into()],
                edges: vec![("price".into(), "mileage".into())],
            }
        );
        // PREFERENCE BY works too, and AND chains edges.
        let q = parse(
            "select skyline from r preference by x, y, z \
             prioritize x over y and y over z",
        )
        .unwrap();
        let SqlQuery::PSkyline { edges, .. } = q else { panic!("expected p-skyline") };
        assert_eq!(edges.len(), 2);
        // No dimension list: priorities over all preference dimensions.
        let q = parse("select skyline from r prioritize x over y").unwrap();
        assert!(matches!(q, SqlQuery::PSkyline { ref pref_dims, .. } if pref_dims.is_empty()));
    }

    #[test]
    fn parses_subspace_forms() {
        let q = parse("SELECT SKYLINE IN SUBSPACE (price, age) FROM cars").unwrap();
        assert_eq!(
            q,
            SqlQuery::SubspaceSkyline {
                predicates: vec![],
                dims: vec!["price".into(), "age".into()],
            }
        );
    }

    #[test]
    fn rejects_malformed_class_clauses() {
        for bad in [
            "select skyline of from r",
            "select skyline of x from r preference by y",
            "select skyline in subspace from r",
            "select skyline in subspace () from r",
            "select skyline in subspace (x from r",
            "select skyline of x in subspace (y) from r",
            "select skyline in subspace (x) from r prioritize x over y",
            "select skyline from r prioritize x",
            "select skyline from r prioritize x over",
            "select skyline from r prioritize over x",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn binding_errors_are_typed_not_panics() {
        use pcube_core::PCubeConfig;
        use pcube_data::{synthetic, SyntheticSpec};

        let spec = SyntheticSpec { n_tuples: 100, n_bool: 2, n_pref: 3, ..Default::default() };
        let db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());
        // n_pref = 3 → dims N0, N1, N2.
        for bad in [
            // Unknown dimension names.
            "select skyline in subspace (nope) from r",
            "select skyline from r prioritize nope over N0",
            // Duplicates.
            "select skyline in subspace (N0, N0) from r",
            "select skyline of N0, N0 from r prioritize N0 over N0",
            // Edge endpoint outside the listed dimensions.
            "select skyline of N0, N1 from r prioritize N0 over N2",
            // Cycles (direct and via transitivity).
            "select skyline from r prioritize N0 over N0",
            "select skyline from r prioritize N0 over N1 and N1 over N2 and N2 over N0",
        ] {
            assert!(execute(&db, bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn executes_pskyline_and_subspace_statements() {
        use pcube_core::PCubeConfig;
        use pcube_data::{synthetic, SyntheticSpec};
        use std::collections::HashSet;

        let spec = SyntheticSpec { n_tuples: 400, n_bool: 2, n_pref: 3, ..Default::default() };
        let db = PCubeDb::build(synthetic(&spec), &PCubeConfig::default());

        // The p-skyline is a subset of the Pareto skyline over the same
        // dimensions, and an empty PRIORITIZE-free statement reproduces it.
        let pareto = execute(&db, "select skyline from r").unwrap();
        let pareto_tids: HashSet<u64> = pareto.rows.iter().map(|r| r.tid).collect();
        let p = execute(&db, "select skyline from r prioritize N0 over N1 and N0 over N2")
            .unwrap();
        assert!(!p.rows.is_empty());
        assert!(p.rows.iter().all(|r| pareto_tids.contains(&r.tid)), "p-skyline ⊆ skyline");

        // Subspace rows carry exactly the projected coordinates.
        let sub = execute(&db, "select skyline in subspace (N2, N0) from r").unwrap();
        assert!(!sub.rows.is_empty());
        assert!(sub.rows.iter().all(|r| r.coords.len() == 2));

        // EXPLAIN routes through the planner and names the class.
        let out = execute(&db, "explain select skyline from r prioritize N0 over N1").unwrap();
        let rendered = explain_plan(&out.stats).expect("EXPLAIN records a plan");
        assert!(rendered.contains("p-skyline"), "got: {rendered}");
        let out = execute(&db, "explain select skyline in subspace (N0, N1) from r").unwrap();
        assert!(explain_plan(&out.stats).unwrap().contains("subspace-skyline"));
    }

    #[test]
    fn parses_explain_prefix() {
        let stmt = parse_statement("explain select top 3 from r order by price").unwrap();
        assert!(stmt.explain);
        assert!(matches!(stmt.query, SqlQuery::TopK { k: 3, .. }));
        let stmt = parse_statement("select skyline from r").unwrap();
        assert!(!stmt.explain);
        // `EXPLAIN` alone is not a statement.
        assert!(parse_statement("explain").is_err());
    }
}
