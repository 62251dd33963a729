//! `dynamic-html`: dynamic HTML generation from a template (paper Table 3,
//! Webapps; original uses jinja2 / mustache).
//!
//! Contains a small but real template engine supporting variable
//! substitution, loops and conditionals, and the benchmark that renders a
//! page with a freshly generated list of values — the canonical "simple
//! website backend" with low CPU and memory demand (Table 4: ≈7M
//! instructions, ≈1.2 ms warm).

use std::collections::BTreeMap;
use std::fmt;

use sebs_sim::rng::{Rng, StreamRng};
use sebs_storage::ObjectStorage;

use crate::harness::{
    InvocationCtx, Language, Payload, Response, Scale, Workload, WorkloadError, WorkloadSpec,
};

/// A value bindable in a template context.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A plain string.
    Str(String),
    /// A number, rendered with up to 6 significant decimals.
    Num(f64),
    /// A list to iterate with `{% for %}`.
    List(Vec<Value>),
    /// A boolean for `{% if %}`.
    Bool(bool),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::List(l) => write!(f, "[list of {}]", l.len()),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Parse/render errors for [`Template`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateError {
    /// A `{%` block was not closed or closed out of order.
    UnbalancedBlock(String),
    /// A referenced variable is not bound in the context.
    UnknownVariable(String),
    /// `{% for %}` over a non-list value.
    NotIterable(String),
    /// `{% if %}` on a non-boolean value.
    NotBoolean(String),
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::UnbalancedBlock(b) => write!(f, "unbalanced block: {b}"),
            TemplateError::UnknownVariable(v) => write!(f, "unknown variable: {v}"),
            TemplateError::NotIterable(v) => write!(f, "not a list: {v}"),
            TemplateError::NotBoolean(v) => write!(f, "not a boolean: {v}"),
        }
    }
}

impl std::error::Error for TemplateError {}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Text(String),
    Var(String),
    For {
        var: String,
        list: String,
        body: Vec<Node>,
    },
    If {
        cond: String,
        body: Vec<Node>,
    },
}

/// A compiled template.
///
/// Syntax: `{{ name }}` substitutes a variable, `{% for x in xs %} … {%
/// endfor %}` iterates a list binding `x`, `{% if flag %} … {% endif %}`
/// renders conditionally.
///
/// # Example
///
/// ```
/// use sebs_workloads::templating::{Template, Value};
///
/// let t = Template::compile("<ul>{% for n in nums %}<li>{{ n }}</li>{% endfor %}</ul>")?;
/// let mut ctx = std::collections::BTreeMap::new();
/// ctx.insert("nums".to_string(),
///            Value::List(vec![Value::Num(1.0), Value::Num(2.0)]));
/// let (html, _work) = t.render(&ctx)?;
/// assert_eq!(html, "<ul><li>1</li><li>2</li></ul>");
/// # Ok::<(), sebs_workloads::templating::TemplateError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    nodes: Vec<Node>,
}

impl Template {
    /// Parses template source.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError::UnbalancedBlock`] on malformed block tags.
    pub fn compile(source: &str) -> Result<Template, TemplateError> {
        let tokens = tokenize(source);
        let mut pos = 0;
        let nodes = parse_nodes(&tokens, &mut pos, None)?;
        if pos != tokens.len() {
            return Err(TemplateError::UnbalancedBlock("stray end tag".into()));
        }
        Ok(Template { nodes })
    }

    /// Renders with the given context, returning the output and the number
    /// of abstract work units spent (≈ one per emitted character).
    ///
    /// # Errors
    ///
    /// Returns a [`TemplateError`] when the context is missing variables or
    /// has mismatched types.
    pub fn render(&self, ctx: &BTreeMap<String, Value>) -> Result<(String, u64), TemplateError> {
        let mut out = String::new();
        let mut work = 0u64;
        render_nodes(&self.nodes, ctx, &mut out, &mut work)?;
        Ok((out, work))
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Text(String),
    Var(String),
    BlockFor(String, String),
    BlockEndFor,
    BlockIf(String),
    BlockEndIf,
}

fn tokenize(source: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut rest = source;
    while !rest.is_empty() {
        if let Some(start) = rest
            .find("{{")
            .map(|v| (v, true))
            .into_iter()
            .chain(rest.find("{%").map(|v| (v, false)))
            .min_by_key(|(i, _)| *i)
        {
            let (idx, is_var) = start;
            if idx > 0 {
                tokens.push(Token::Text(rest[..idx].to_string()));
            }
            let close = if is_var { "}}" } else { "%}" };
            let after = &rest[idx + 2..];
            let Some(end) = after.find(close) else {
                tokens.push(Token::Text(rest[idx..].to_string()));
                break;
            };
            let inner = after[..end].trim();
            if is_var {
                tokens.push(Token::Var(inner.to_string()));
            } else {
                let words: Vec<&str> = inner.split_whitespace().collect();
                match words.as_slice() {
                    ["for", var, "in", list] => {
                        tokens.push(Token::BlockFor(var.to_string(), list.to_string()))
                    }
                    ["endfor"] => tokens.push(Token::BlockEndFor),
                    ["if", cond] => tokens.push(Token::BlockIf(cond.to_string())),
                    ["endif"] => tokens.push(Token::BlockEndIf),
                    _ => tokens.push(Token::Text(format!("{{% {inner} %}}"))),
                }
            }
            rest = &after[end + 2..];
        } else {
            tokens.push(Token::Text(rest.to_string()));
            break;
        }
    }
    tokens
}

fn parse_nodes(
    tokens: &[Token],
    pos: &mut usize,
    until: Option<&Token>,
) -> Result<Vec<Node>, TemplateError> {
    let mut nodes = Vec::new();
    while *pos < tokens.len() {
        let tok = &tokens[*pos];
        if let Some(u) = until {
            if tok == u {
                *pos += 1;
                return Ok(nodes);
            }
        }
        *pos += 1;
        match tok {
            Token::Text(t) => nodes.push(Node::Text(t.clone())),
            Token::Var(v) => nodes.push(Node::Var(v.clone())),
            Token::BlockFor(var, list) => {
                let body = parse_nodes(tokens, pos, Some(&Token::BlockEndFor))?;
                nodes.push(Node::For {
                    var: var.clone(),
                    list: list.clone(),
                    body,
                });
            }
            Token::BlockIf(cond) => {
                let body = parse_nodes(tokens, pos, Some(&Token::BlockEndIf))?;
                nodes.push(Node::If {
                    cond: cond.clone(),
                    body,
                });
            }
            Token::BlockEndFor => {
                return Err(TemplateError::UnbalancedBlock("endfor".into()));
            }
            Token::BlockEndIf => {
                return Err(TemplateError::UnbalancedBlock("endif".into()));
            }
        }
    }
    if until.is_some() {
        return Err(TemplateError::UnbalancedBlock("missing end tag".into()));
    }
    Ok(nodes)
}

fn render_nodes(
    nodes: &[Node],
    ctx: &BTreeMap<String, Value>,
    out: &mut String,
    work: &mut u64,
) -> Result<(), TemplateError> {
    for node in nodes {
        match node {
            Node::Text(t) => {
                out.push_str(t);
                *work += t.len() as u64;
            }
            Node::Var(v) => {
                let val = ctx
                    .get(v)
                    .ok_or_else(|| TemplateError::UnknownVariable(v.clone()))?;
                let rendered = val.to_string();
                *work += rendered.len() as u64 + 8;
                out.push_str(&rendered);
            }
            Node::For { var, list, body } => {
                let val = ctx
                    .get(list)
                    .ok_or_else(|| TemplateError::UnknownVariable(list.clone()))?;
                let Value::List(items) = val else {
                    return Err(TemplateError::NotIterable(list.clone()));
                };
                let mut inner = ctx.clone();
                for item in items {
                    inner.insert(var.clone(), item.clone());
                    *work += 4;
                    render_nodes(body, &inner, out, work)?;
                }
            }
            Node::If { cond, body } => {
                let val = ctx
                    .get(cond)
                    .ok_or_else(|| TemplateError::UnknownVariable(cond.clone()))?;
                let Value::Bool(b) = val else {
                    return Err(TemplateError::NotBoolean(cond.clone()));
                };
                *work += 2;
                if *b {
                    render_nodes(body, ctx, out, work)?;
                }
            }
        }
    }
    Ok(())
}

/// The SeBS `dynamic-html` page template (modelled on the original
/// benchmark: a greeting plus a list of freshly generated random numbers).
pub const PAGE_TEMPLATE: &str = r#"<!DOCTYPE html>
<html>
  <head><title>Randomly generated data</title></head>
  <body>
    <p>Welcome {{ username }}!</p>
    <p>Data generated at: {{ cur_time }}</p>
    {% if show_numbers %}
    <table>
      {% for item in random_numbers %}<tr><td>{{ item }}</td></tr>
      {% endfor %}
    </table>
    {% endif %}
  </body>
</html>"#;

/// The `dynamic-html` benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicHtml {
    /// Which language variant to report in the spec.
    pub language: Language,
}

impl DynamicHtml {
    /// Creates the benchmark in the given language variant.
    pub fn new(language: Language) -> Self {
        DynamicHtml { language }
    }

    fn size_for(scale: Scale) -> usize {
        match scale {
            Scale::Test => 100,
            Scale::Small => 1_000,
            Scale::Large => 100_000,
        }
    }
}

impl Workload for DynamicHtml {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "dynamic-html".into(),
            language: self.language,
            dependencies: vec![match self.language {
                Language::Python => "jinja2".into(),
                Language::NodeJs => "mustache".into(),
            }],
            code_package_bytes: 2_400_000,
            default_memory_mb: 128,
        }
    }

    fn prepare(
        &self,
        scale: Scale,
        _rng: &mut StreamRng,
        _storage: &mut dyn ObjectStorage,
    ) -> Payload {
        Payload::with_params(vec![
            ("username".into(), "benchmark-user".into()),
            ("size".into(), Self::size_for(scale).to_string()),
        ])
    }

    fn execute(
        &self,
        payload: &Payload,
        ctx: &mut InvocationCtx<'_>,
    ) -> Result<Response, WorkloadError> {
        let size: usize = payload
            .param("size")
            .ok_or_else(|| WorkloadError::BadPayload("missing `size`".into()))?
            .parse()
            .map_err(|e| WorkloadError::BadPayload(format!("bad `size`: {e}")))?;
        let username = payload.param("username").unwrap_or("anonymous");

        let template =
            // audit:allow(panic-hygiene): the template is a compile-time constant covered by unit tests
            Template::compile(PAGE_TEMPLATE).expect("built-in template always parses");
        ctx.work(PAGE_TEMPLATE.len() as u64);

        let numbers: Vec<Value> = (0..size)
            .map(|_| Value::Num(ctx.rng().gen_range(0..1_000_000) as f64))
            .collect();
        ctx.work(20 * size as u64); // RNG + list building
        ctx.alloc((size * 24) as u64);

        let mut tctx = BTreeMap::new();
        tctx.insert("username".into(), Value::Str(username.to_string()));
        tctx.insert("cur_time".into(), Value::Str("2021-01-01 00:00:00".into()));
        tctx.insert("show_numbers".into(), Value::Bool(true));
        tctx.insert("random_numbers".into(), Value::List(numbers));

        let (html, work) = template
            .render(&tctx)
            .map_err(|e| WorkloadError::BadPayload(e.to_string()))?;
        // Calibration: the paper measures ≈7M instructions for the small
        // input; scale rendering work up to the cost of an interpreted engine.
        ctx.work(work * 120);
        ctx.alloc(html.len() as u64);
        ctx.free((size * 24) as u64);
        Ok(Response::new(html))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::SimRng;
    use sebs_storage::SimObjectStore;

    fn ctx_parts() -> (SimObjectStore, StreamRng) {
        (
            SimObjectStore::local_minio_model(),
            SimRng::new(1).stream("tpl"),
        )
    }

    #[test]
    fn variable_substitution() {
        let t = Template::compile("Hello {{ name }}!").unwrap();
        let mut c = BTreeMap::new();
        c.insert("name".into(), Value::Str("world".into()));
        let (s, w) = t.render(&c).unwrap();
        assert_eq!(s, "Hello world!");
        assert!(w > 0);
    }

    #[test]
    fn loops_and_conditionals() {
        let t = Template::compile("{% if on %}{% for x in xs %}[{{ x }}]{% endfor %}{% endif %}")
            .unwrap();
        let mut c = BTreeMap::new();
        c.insert("on".into(), Value::Bool(true));
        c.insert(
            "xs".into(),
            Value::List(vec![Value::Num(1.0), Value::Str("a".into())]),
        );
        assert_eq!(t.render(&c).unwrap().0, "[1][a]");
        c.insert("on".into(), Value::Bool(false));
        assert_eq!(t.render(&c).unwrap().0, "");
    }

    #[test]
    fn nested_loops() {
        let t = Template::compile(
            "{% for x in xs %}{% for y in ys %}{{ x }}{{ y }};{% endfor %}{% endfor %}",
        )
        .unwrap();
        let mut c = BTreeMap::new();
        c.insert(
            "xs".into(),
            Value::List(vec![Value::Str("a".into()), Value::Str("b".into())]),
        );
        c.insert(
            "ys".into(),
            Value::List(vec![Value::Num(1.0), Value::Num(2.0)]),
        );
        assert_eq!(t.render(&c).unwrap().0, "a1;a2;b1;b2;");
    }

    #[test]
    fn error_cases() {
        assert!(matches!(
            Template::compile("{% for x in xs %}"),
            Err(TemplateError::UnbalancedBlock(_))
        ));
        assert!(matches!(
            Template::compile("{% endfor %}"),
            Err(TemplateError::UnbalancedBlock(_))
        ));
        let t = Template::compile("{{ missing }}").unwrap();
        assert!(matches!(
            t.render(&BTreeMap::new()),
            Err(TemplateError::UnknownVariable(_))
        ));
        let t = Template::compile("{% for x in notlist %}{% endfor %}").unwrap();
        let mut c = BTreeMap::new();
        c.insert("notlist".into(), Value::Bool(true));
        assert!(matches!(t.render(&c), Err(TemplateError::NotIterable(_))));
        let t = Template::compile("{% if x %}{% endif %}").unwrap();
        let mut c = BTreeMap::new();
        c.insert("x".into(), Value::Num(1.0));
        assert!(matches!(t.render(&c), Err(TemplateError::NotBoolean(_))));
    }

    #[test]
    fn unclosed_var_tag_is_literal_text() {
        let t = Template::compile("oops {{ name").unwrap();
        let (s, _) = t.render(&BTreeMap::new()).unwrap();
        assert_eq!(s, "oops {{ name");
    }

    #[test]
    fn unknown_block_is_literal() {
        let t = Template::compile("{% frobnicate now %}").unwrap();
        let (s, _) = t.render(&BTreeMap::new()).unwrap();
        assert!(s.contains("frobnicate"));
    }

    #[test]
    fn value_display_formats() {
        assert_eq!(Value::Num(3.0).to_string(), "3");
        assert_eq!(Value::Num(2.5).to_string(), "2.5");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::List(vec![]).to_string(), "[list of 0]");
    }

    #[test]
    fn benchmark_renders_page() {
        let wl = DynamicHtml::new(Language::Python);
        let (mut store, mut rng) = ctx_parts();
        let payload = wl.prepare(Scale::Test, &mut rng, &mut store);
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        let resp = wl.execute(&payload, &mut ctx).unwrap();
        let html = std::str::from_utf8(resp.body().unwrap()).unwrap();
        assert!(html.contains("Welcome benchmark-user!"));
        assert_eq!(html.matches("<tr>").count(), 100);
        assert!(ctx.counters().instructions > 0);
        assert_eq!(
            ctx.counters().storage_requests,
            0,
            "dynamic-html does not touch storage"
        );
    }

    #[test]
    fn benchmark_work_scales_with_input() {
        let wl = DynamicHtml::new(Language::Python);
        let (mut store, mut rng) = ctx_parts();
        let mut work_of = |scale: Scale| {
            let payload = wl.prepare(scale, &mut rng, &mut store);
            let mut ctx = InvocationCtx::new(&mut store, &mut rng);
            wl.execute(&payload, &mut ctx).unwrap();
            ctx.counters().instructions
        };
        let small = work_of(Scale::Test);
        let large = work_of(Scale::Small);
        assert!(large > 5 * small, "small={small} large={large}");
    }

    #[test]
    fn benchmark_is_deterministic_per_seed() {
        let wl = DynamicHtml::new(Language::Python);
        let run = || {
            let (mut store, mut rng) = ctx_parts();
            let payload = wl.prepare(Scale::Test, &mut rng, &mut store);
            let mut ctx = InvocationCtx::new(&mut store, &mut rng);
            wl.execute(&payload, &mut ctx).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spec_reports_language_dependency() {
        assert_eq!(
            DynamicHtml::new(Language::Python).spec().dependencies,
            vec!["jinja2"]
        );
        assert_eq!(
            DynamicHtml::new(Language::NodeJs).spec().dependencies,
            vec!["mustache"]
        );
    }
}
