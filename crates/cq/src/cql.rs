//! CQL — the textual continuous-query front-end.
//!
//! ```text
//! SELECT item {, item}
//! FROM <stream> [window] [WHERE expr] [GROUP BY field {, field}] [HAVING expr]
//!     [EMIT SPECULATIVE | EMIT WATERMARK]
//!
//! item   := expr [AS name]            -- over group fields / window_start / window_end
//!         | agg(field) [AS name]      -- count/sum/avg/min/max/stddev/first/last
//!         | count(*) [AS name]
//! window := [RANGE <n><unit> [SLIDE <n><unit>]]   -- sliding/tumbling time window
//!         | [ROWS <n>]                            -- count window
//!         | [SESSION <n><unit>]                   -- session window
//! unit   := ms | s | m | h
//! ```
//!
//! Compiles onto the operator pipeline: `WHERE` → window aggregate (when a
//! window or any aggregate appears) → `HAVING` → projection. Aggregates in
//! the select list and HAVING are rewritten to references to the
//! aggregation operator's output columns.
//!
//! `EMIT` selects the per-query consistency level (D12): `WATERMARK` (the
//! default) gates output on the watermark and never retracts; `SPECULATIVE`
//! emits eagerly on event time and issues retraction/correction pairs when
//! late events revise an already-emitted pane.

use std::sync::Arc;

use evdb_expr::parser::Parser;
use evdb_expr::token::{tokenize, TokenKind};
use evdb_expr::Expr;
use evdb_types::{Error, FieldDef, Result, Schema};

use crate::aggregate::{AggFunc, AggMode, AggSpec, WindowAggregateOp};
use crate::delta::ConsistencyLevel;
use crate::op::{FilterOp, Operator, Pipeline, ProjectOp};
use crate::window::WindowSpec;

/// A parsed (not yet compiled) continuous query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Select items: (expression, optional alias).
    pub items: Vec<(Expr, Option<String>)>,
    /// Source stream name.
    pub from: String,
    /// Window clause.
    pub window: Option<WindowSpec>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY field names.
    pub group_by: Vec<String>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// `EMIT` consistency level (default: [`ConsistencyLevel::Watermark`]).
    pub consistency: ConsistencyLevel,
}

/// Parse CQL text.
pub fn parse_query(src: &str) -> Result<Query> {
    let mut p = Parser::new(tokenize(src)?);
    p.expect_keyword("SELECT")?;
    let mut items = Vec::new();
    loop {
        let expr = p.parse_expr()?;
        let alias = if p.eat_keyword("AS") {
            Some(p.expect_ident()?)
        } else {
            None
        };
        items.push((expr, alias));
        if !p.eat(&TokenKind::Comma) {
            break;
        }
    }
    p.expect_keyword("FROM")?;
    let from = p.expect_ident()?;

    let mut window = None;
    if p.eat(&TokenKind::LBracket) {
        if p.eat_keyword("RANGE") {
            let width_ms = parse_duration(&mut p)?;
            let slide_ms = if p.eat_keyword("SLIDE") {
                parse_duration(&mut p)?
            } else {
                width_ms
            };
            window = Some(if slide_ms == width_ms {
                WindowSpec::Tumbling { width_ms }
            } else {
                WindowSpec::Sliding { width_ms, slide_ms }
            });
        } else if p.eat_keyword("ROWS") {
            let n = match p.advance().kind {
                TokenKind::Int(n) if n > 0 => n as usize,
                other => {
                    return Err(Error::Invalid(format!("ROWS needs a positive int, got {other:?}")))
                }
            };
            window = Some(WindowSpec::CountTumbling { count: n });
        } else if p.eat_keyword("SESSION") {
            let gap_ms = parse_duration(&mut p)?;
            window = Some(WindowSpec::Session { gap_ms });
        } else {
            return Err(Error::Invalid("expected RANGE, ROWS or SESSION".into()));
        }
        p.expect(&TokenKind::RBracket)?;
    }

    let where_clause = if p.eat_keyword("WHERE") {
        Some(p.parse_expr()?)
    } else {
        None
    };
    let mut group_by = Vec::new();
    if p.eat_keyword("GROUP") {
        p.expect_keyword("BY")?;
        loop {
            group_by.push(p.expect_ident()?);
            if !p.eat(&TokenKind::Comma) {
                break;
            }
        }
    }
    let having = if p.eat_keyword("HAVING") {
        Some(p.parse_expr()?)
    } else {
        None
    };
    let consistency = if p.eat_keyword("EMIT") {
        let level = p.expect_ident()?;
        match level.to_ascii_uppercase().as_str() {
            "SPECULATIVE" => ConsistencyLevel::Speculative,
            "WATERMARK" => ConsistencyLevel::Watermark,
            other => {
                return Err(Error::Invalid(format!(
                    "EMIT expects SPECULATIVE or WATERMARK, got '{other}'"
                )))
            }
        }
    } else {
        ConsistencyLevel::default()
    };
    let _ = p.eat(&TokenKind::Semi);
    p.expect_eof()?;
    Ok(Query {
        items,
        from,
        window,
        where_clause,
        group_by,
        having,
        consistency,
    })
}

fn parse_duration(p: &mut Parser) -> Result<i64> {
    let n = match p.advance().kind {
        TokenKind::Int(n) if n > 0 => n,
        other => return Err(Error::Invalid(format!("expected duration, got {other:?}"))),
    };
    let unit = p.expect_ident()?;
    let factor = match unit.to_ascii_lowercase().as_str() {
        "ms" => 1,
        "s" => 1_000,
        "m" => 60_000,
        "h" => 3_600_000,
        u => return Err(Error::Invalid(format!("unknown time unit '{u}'"))),
    };
    Ok(n * factor)
}

/// Replace aggregate calls in `expr` with references to aggregation output
/// columns, appending new [`AggSpec`]s as they are discovered.
fn rewrite_aggs(expr: &Expr, aggs: &mut Vec<AggSpec>, alias: Option<&str>) -> Result<Expr> {
    Ok(match expr {
        Expr::Func { name, args } => {
            if let Some(func) = AggFunc::from_name(name) {
                // Plain fields keep the named fast path; any other single
                // argument becomes a computed (compiled) expression.
                let (field, arg_expr) = match args.as_slice() {
                    [] if func == AggFunc::Count => (None, None),
                    [Expr::Field(f)] => (Some(f.clone()), None),
                    [e] => (None, Some(e.clone())),
                    _ => {
                        return Err(Error::Invalid(format!(
                            "aggregate {name}() takes a single argument"
                        )))
                    }
                };
                let out_name = alias.map(String::from).unwrap_or_else(|| match &field {
                    Some(f) => format!("{name}_{f}"),
                    None if arg_expr.is_some() => format!("{name}_{}", aggs.len()),
                    None => name.clone(),
                });
                // Reuse an existing spec with the same function+argument.
                let existing = aggs
                    .iter()
                    .find(|a| a.func == func && a.field == field && a.expr == arg_expr)
                    .map(|a| a.out_name.clone());
                let col = match existing {
                    Some(c) => c,
                    None => {
                        aggs.push(AggSpec {
                            func,
                            field,
                            expr: arg_expr,
                            out_name: out_name.clone(),
                        });
                        out_name
                    }
                };
                Expr::Field(col)
            } else {
                Expr::Func {
                    name: name.clone(),
                    args: args
                        .iter()
                        .map(|a| rewrite_aggs(a, aggs, None))
                        .collect::<Result<_>>()?,
                }
            }
        }
        Expr::Literal(_) | Expr::Field(_) => expr.clone(),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_aggs(expr, aggs, None)?),
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(rewrite_aggs(left, aggs, None)?),
            right: Box::new(rewrite_aggs(right, aggs, None)?),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite_aggs(expr, aggs, None)?),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(rewrite_aggs(expr, aggs, None)?),
            low: Box::new(rewrite_aggs(low, aggs, None)?),
            high: Box::new(rewrite_aggs(high, aggs, None)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rewrite_aggs(expr, aggs, None)?),
            list: list
                .iter()
                .map(|e| rewrite_aggs(e, aggs, None))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(rewrite_aggs(expr, aggs, None)?),
            pattern: Box::new(rewrite_aggs(pattern, aggs, None)?),
            negated: *negated,
        },
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => Expr::Case {
            operand: match operand {
                Some(o) => Some(Box::new(rewrite_aggs(o, aggs, None)?)),
                None => None,
            },
            branches: branches
                .iter()
                .map(|(w, t)| {
                    Ok((rewrite_aggs(w, aggs, None)?, rewrite_aggs(t, aggs, None)?))
                })
                .collect::<Result<_>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(rewrite_aggs(e, aggs, None)?)),
                None => None,
            },
        },
    })
}

fn contains_agg(expr: &Expr) -> bool {
    let mut found = false;
    expr.walk(&mut |e| {
        if let Expr::Func { name, .. } = e {
            if AggFunc::from_name(name).is_some() {
                found = true;
            }
        }
    });
    found
}

/// Compile CQL text into a [`Pipeline`] over `input` events.
///
/// # Example
///
/// ```
/// use evdb_cq::aggregate::AggMode;
/// use evdb_cq::compile_query;
/// use evdb_types::{DataType, Event, EventId, Record, Schema, TimestampMs, Value};
///
/// let schema = Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)]);
/// let mut q = compile_query(
///     "SELECT sym, avg(px) AS vwap FROM ticks [ROWS 2] GROUP BY sym",
///     &schema,
///     AggMode::Incremental,
/// ).unwrap();
///
/// let tick = |i: u64, px: f64| Event::new(
///     EventId(i), "ticks", TimestampMs(i as i64),
///     Record::from_iter([Value::from("IBM"), Value::Float(px)]),
///     schema.clone(),
/// );
/// assert!(q.push(&tick(1, 100.0)).unwrap().is_empty());
/// let out = q.push(&tick(2, 110.0)).unwrap(); // window of 2 closes
/// assert_eq!(out[0].payload.get(1), Some(&Value::Float(105.0)));
/// ```
pub fn compile_query(src: &str, input: &Arc<Schema>, mode: AggMode) -> Result<Pipeline> {
    let q = parse_query(src)?;
    compile(&q, input, mode)
}

/// Compile a parsed query. [`AggMode`] has one value, so `_mode` selects
/// nothing (see its doc comment).
pub fn compile(q: &Query, input: &Arc<Schema>, _mode: AggMode) -> Result<Pipeline> {
    let mut ops: Vec<Box<dyn Operator>> = Vec::new();

    // WHERE runs against raw input.
    if let Some(w) = &q.where_clause {
        if contains_agg(w) {
            return Err(Error::Invalid(
                "aggregates are not allowed in WHERE (use HAVING)".into(),
            ));
        }
        ops.push(Box::new(FilterOp::new(
            w.bind_predicate(input)?,
            Arc::clone(input),
        )));
    }

    let any_agg = q.items.iter().any(|(e, _)| contains_agg(e))
        || q.having.as_ref().map(contains_agg).unwrap_or(false);

    if q.window.is_none() && !any_agg {
        // Simple select: projection only.
        if q.having.is_some() || !q.group_by.is_empty() {
            return Err(Error::Invalid(
                "GROUP BY / HAVING require a window or aggregates".into(),
            ));
        }
        let (exprs, schema) = build_projection(&q.items, input)?;
        ops.push(Box::new(ProjectOp::new(exprs, schema)));
        return Ok(Pipeline::new(ops));
    }

    let window = q.window.unwrap_or(WindowSpec::Tumbling {
        width_ms: i64::MAX / 4, // "infinite" window: aggregates close only at stream end
    });

    // Rewrite aggregates out of select items and HAVING.
    let mut aggs: Vec<AggSpec> = Vec::new();
    let mut rewritten_items = Vec::with_capacity(q.items.len());
    for (e, alias) in &q.items {
        let r = rewrite_aggs(e, &mut aggs, alias.as_deref())?;
        rewritten_items.push((r, alias.clone()));
    }
    let rewritten_having = match &q.having {
        Some(h) => Some(rewrite_aggs(h, &mut aggs, None)?),
        None => None,
    };

    let group_refs: Vec<&str> = q.group_by.iter().map(String::as_str).collect();
    let agg_op = WindowAggregateOp::new(input, window, &group_refs, aggs)?
        .with_consistency(q.consistency);
    let agg_schema = agg_op.output_schema();
    ops.push(Box::new(agg_op));

    if let Some(h) = rewritten_having {
        ops.push(Box::new(FilterOp::new(
            h.bind_predicate(&agg_schema)?,
            Arc::clone(&agg_schema),
        )));
    }

    let (exprs, schema) = build_projection(&rewritten_items, &agg_schema)?;
    ops.push(Box::new(ProjectOp::new(exprs, schema)));
    Ok(Pipeline::new(ops))
}

/// Bind select items against a schema, deriving output field names/types.
fn build_projection(
    items: &[(Expr, Option<String>)],
    input: &Arc<Schema>,
) -> Result<(Vec<evdb_expr::BoundExpr>, Arc<Schema>)> {
    let mut exprs = Vec::with_capacity(items.len());
    let mut fields = Vec::with_capacity(items.len());
    for (i, (e, alias)) in items.iter().enumerate() {
        let ty = evdb_expr::typecheck::infer(e, input)?;
        let name = match (alias, e) {
            (Some(a), _) => a.clone(),
            (None, Expr::Field(f)) => f.clone(),
            (None, _) => format!("col{i}"),
        };
        fields.push(FieldDef::nullable(
            name,
            ty.unwrap_or(evdb_types::DataType::Str),
        ));
        exprs.push(e.bind(input)?);
    }
    Ok((exprs, Schema::new(fields)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use evdb_types::{DataType, Event, EventId, Record, TimestampMs, Value};

    fn schema() -> Arc<Schema> {
        Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)])
    }

    fn ev(ts: i64, sym: &str, px: f64) -> Event {
        Event::new(
            EventId(ts as u64),
            "ticks",
            TimestampMs(ts),
            Record::from_iter([Value::from(sym), Value::Float(px)]),
            schema(),
        )
    }

    #[test]
    fn parse_full_query() {
        let q = parse_query(
            "SELECT sym, avg(px) AS apx FROM ticks [RANGE 10 s SLIDE 2 s] \
             WHERE px > 0 GROUP BY sym HAVING avg(px) > 100",
        )
        .unwrap();
        assert_eq!(q.from, "ticks");
        assert_eq!(
            q.window,
            Some(WindowSpec::Sliding {
                width_ms: 10_000,
                slide_ms: 2_000
            })
        );
        assert_eq!(q.group_by, vec!["sym".to_string()]);
        assert!(q.having.is_some());
        assert_eq!(q.items.len(), 2);
        assert_eq!(q.items[1].1.as_deref(), Some("apx"));
    }

    #[test]
    fn parse_window_variants() {
        assert_eq!(
            parse_query("SELECT count() FROM s [ROWS 100]").unwrap().window,
            Some(WindowSpec::CountTumbling { count: 100 })
        );
        assert_eq!(
            parse_query("SELECT count() FROM s [SESSION 5 m]").unwrap().window,
            Some(WindowSpec::Session { gap_ms: 300_000 })
        );
        assert_eq!(
            parse_query("SELECT count() FROM s [RANGE 1 h]").unwrap().window,
            Some(WindowSpec::Tumbling { width_ms: 3_600_000 })
        );
        assert!(parse_query("SELECT 1 FROM s [RANGE 0 s]").is_err());
        assert!(parse_query("SELECT 1 FROM s [RANGE 5 parsecs]").is_err());
    }

    #[test]
    fn compile_select_where_project() {
        let mut p = compile_query(
            "SELECT sym, px * 2 AS dbl FROM ticks WHERE px > 10",
            &schema(),
            AggMode::Incremental,
        )
        .unwrap();
        assert!(p.push(&ev(1, "A", 5.0)).unwrap().is_empty());
        let out = p.push(&ev(2, "A", 20.0)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].payload,
            Record::from_iter([Value::from("A"), Value::Float(40.0)])
        );
        assert_eq!(p.output_schema().index_of("dbl"), Some(1));
    }

    #[test]
    fn compile_windowed_aggregate_with_having() {
        let mut p = compile_query(
            "SELECT sym, window_start, avg(px) AS apx, count() AS n \
             FROM ticks [RANGE 1 s] GROUP BY sym HAVING avg(px) > 50",
            &schema(),
            AggMode::Incremental,
        )
        .unwrap();
        p.push(&ev(100, "A", 100.0)).unwrap();
        p.push(&ev(200, "A", 200.0)).unwrap();
        p.push(&ev(300, "B", 10.0)).unwrap();
        let out = p.advance_watermark(TimestampMs(1_000)).unwrap();
        // B's avg (10) fails HAVING.
        assert_eq!(out.len(), 1);
        let r = &out[0].payload;
        assert_eq!(r.get(0), Some(&Value::from("A")));
        assert_eq!(r.get(1), Some(&Value::Timestamp(TimestampMs(0))));
        assert_eq!(r.get(2), Some(&Value::Float(150.0)));
        assert_eq!(r.get(3), Some(&Value::Int(2)));
    }

    #[test]
    fn shared_aggregates_are_computed_once() {
        // avg(px) appears twice; the agg op should compute it once.
        let p = compile_query(
            "SELECT avg(px) AS a1, avg(px) + 1 AS a2 FROM ticks [RANGE 1 s]",
            &schema(),
            AggMode::Incremental,
        )
        .unwrap();
        // Output schema has the two projected columns.
        assert_eq!(p.output_schema().len(), 2);
    }

    #[test]
    fn errors() {
        assert!(parse_query("SELECT FROM s").is_err());
        assert!(parse_query("SELECT 1").is_err());
        assert!(compile_query(
            "SELECT sym FROM s GROUP BY sym",
            &schema(),
            AggMode::Incremental
        )
        .is_err()); // group by without window/agg
        assert!(compile_query(
            "SELECT sym FROM s WHERE avg(px) > 1",
            &schema(),
            AggMode::Incremental
        )
        .is_err()); // agg in WHERE
        assert!(compile_query(
            "SELECT avg(px, 2) FROM s [RANGE 1 s]",
            &schema(),
            AggMode::Incremental
        )
        .is_err()); // agg arity
        assert!(compile_query(
            "SELECT ghost FROM s",
            &schema(),
            AggMode::Incremental
        )
        .is_err());
    }

    #[test]
    fn parse_emit_clause() {
        let q = parse_query("SELECT count() AS n FROM s [RANGE 1 s] EMIT SPECULATIVE").unwrap();
        assert_eq!(q.consistency, ConsistencyLevel::Speculative);
        let q = parse_query("SELECT count() AS n FROM s [RANGE 1 s] EMIT WATERMARK;").unwrap();
        assert_eq!(q.consistency, ConsistencyLevel::Watermark);
        // Default is Watermark (retraction-free).
        let q = parse_query("SELECT count() AS n FROM s [RANGE 1 s]").unwrap();
        assert_eq!(q.consistency, ConsistencyLevel::Watermark);
        assert!(parse_query("SELECT count() FROM s [RANGE 1 s] EMIT EVENTUALLY").is_err());
    }

    #[test]
    fn compile_speculative_emits_eagerly_and_retracts() {
        let mut p = compile_query(
            "SELECT count() AS n FROM ticks [RANGE 1 s] EMIT SPECULATIVE",
            &schema(),
            AggMode::Incremental,
        )
        .unwrap();
        p.push(&ev(100, "A", 1.0)).unwrap();
        // Event time passes the window end → pane [0,1000) emits eagerly,
        // no watermark required.
        let out = p.push(&ev(1_200, "A", 1.0)).unwrap();
        assert_eq!(out.len(), 1);
        assert!(!out[0].is_retraction());
        assert_eq!(out[0].payload.get(0), Some(&Value::Int(1)));
        // A late event revises the emitted pane: retract + corrected insert.
        let out = p.push(&ev(900, "A", 1.0)).unwrap();
        let flags: Vec<(bool, &Value)> = out
            .iter()
            .map(|e| (e.is_retraction(), e.payload.get(0).unwrap()))
            .collect();
        assert_eq!(flags, vec![(true, &Value::Int(1)), (false, &Value::Int(2))]);
        assert_eq!(p.op_stats().retractions, 1);
        assert_eq!(p.op_stats().pane_reopens, 1);
    }

    #[test]
    fn count_star_spelling() {
        let mut p = compile_query(
            "SELECT count() AS n FROM ticks [ROWS 2]",
            &schema(),
            AggMode::Incremental,
        )
        .unwrap();
        p.push(&ev(1, "A", 1.0)).unwrap();
        let out = p.push(&ev(2, "B", 1.0)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.get(0), Some(&Value::Int(2)));
    }
}
