//! Lexer and parser for the SPARQL-like dialect.

use snb_core::{EdgeLabel, PropKey, Result, SnbError, Value, VertexLabel, Vid};

use super::ast::*;
use crate::term::{edge_pred, prop_pred, Term, PRED_DST, PRED_SRC, PRED_TYPE};

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Var(String),
    /// `prefix:local`.
    Iri(String, String),
    Blank(String),
    Ident(String),
    Int(i64),
    Str(String),
    Dot,
    Comma,
    LBrace,
    RBrace,
    LParen,
    RParen,
    Pipe,
    Caret,
    Plus,
    Star,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let ident_end = |start: usize| {
        let mut j = start;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        j
    };
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '.' => {
                toks.push(Tok::Dot);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '{' => {
                toks.push(Tok::LBrace);
                i += 1;
            }
            '}' => {
                toks.push(Tok::RBrace);
                i += 1;
            }
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    toks.push(Tok::OrOr);
                    i += 2;
                } else {
                    toks.push(Tok::Pipe);
                    i += 1;
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    toks.push(Tok::AndAnd);
                    i += 2;
                } else {
                    return Err(SnbError::Parse("single `&`".into()));
                }
            }
            '^' => {
                toks.push(Tok::Caret);
                i += 1;
            }
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            '=' => {
                toks.push(Tok::Eq);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Ne);
                    i += 2;
                } else {
                    return Err(SnbError::Parse("single `!`".into()));
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Le);
                    i += 2;
                } else {
                    toks.push(Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Ge);
                    i += 2;
                } else {
                    toks.push(Tok::Gt);
                    i += 1;
                }
            }
            '?' => {
                let j = ident_end(i + 1);
                if j == i + 1 {
                    return Err(SnbError::Parse("empty variable name".into()));
                }
                toks.push(Tok::Var(input[i + 1..j].to_string()));
                i = j;
            }
            '_' if bytes.get(i + 1) == Some(&b':') => {
                let j = ident_end(i + 2);
                toks.push(Tok::Blank(input[i + 2..j].to_string()));
                i = j;
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(SnbError::Parse("unterminated string".into()));
                }
                toks.push(Tok::Str(input[start..j].to_string()));
                i = j + 1;
            }
            '-' | '0'..='9' => {
                let start = i;
                let mut j = if c == '-' { i + 1 } else { i };
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                toks.push(Tok::Int(
                    input[start..j].parse().map_err(|_| SnbError::Parse("bad integer".into()))?,
                ));
                i = j;
            }
            _ if c.is_ascii_alphabetic() => {
                let j = ident_end(i);
                let word = &input[i..j];
                if bytes.get(j) == Some(&b':') {
                    let k = ident_end(j + 1);
                    toks.push(Tok::Iri(word.to_string(), input[j + 1..k].to_string()));
                    i = k;
                } else {
                    toks.push(Tok::Ident(word.to_string()));
                    i = j;
                }
            }
            other => return Err(SnbError::Parse(format!("unexpected character `{other}`"))),
        }
    }
    Ok(toks)
}

fn pred_id(prefix: &str, local: &str) -> Result<u64> {
    if prefix.eq_ignore_ascii_case("rdf") && local.eq_ignore_ascii_case("type") {
        return Ok(PRED_TYPE);
    }
    if !prefix.eq_ignore_ascii_case("snb") {
        return Err(SnbError::Parse(format!("unknown predicate prefix `{prefix}`")));
    }
    if local.eq_ignore_ascii_case("src") {
        return Ok(PRED_SRC);
    }
    if local.eq_ignore_ascii_case("dst") {
        return Ok(PRED_DST);
    }
    if let Ok(l) = EdgeLabel::parse(local) {
        return Ok(edge_pred(l));
    }
    if let Ok(k) = PropKey::parse(local) {
        return Ok(prop_pred(k));
    }
    Err(SnbError::Parse(format!("unknown predicate `snb:{local}`")))
}

fn entity(prefix: &str, local: &str) -> Result<Term> {
    let label = VertexLabel::parse(prefix)?;
    let id: u64 = local
        .parse()
        .map_err(|_| SnbError::Parse(format!("bad entity id `{prefix}:{local}`")))?;
    Ok(Term::Entity(Vid::new(label, id)))
}

/// Deepest `FILTER` expression a query may build: each `||` and `&&`
/// adds one level. Evaluating and dropping a filter recurse once per
/// level, so a deeper filter is a parse error rather than a stack
/// overflow. The adapters' filters stay far below it.
const MAX_FILTER_DEPTH: usize = 64;

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Depth of the filter expression parsed last.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| SnbError::Parse("unexpected end of query".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> Result<()> {
        let got = self.next()?;
        if got == t {
            Ok(())
        } else {
            Err(SnbError::Parse(format!("expected {t:?}, got {got:?}")))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SnbError::Parse(format!("expected {kw}, got {:?}", self.peek())))
        }
    }

    fn parse_query(&mut self) -> Result<Query> {
        let q = if self.eat_kw("INSERT") {
            self.expect_kw("DATA")?;
            Query::InsertData(self.parse_ground_block()?)
        } else {
            self.expect_kw("SELECT")?;
            if self.eat_kw("TRANSITIVE") {
                self.parse_transitive()?
            } else {
                Query::Select(self.parse_select_body()?)
            }
        };
        if self.peek().is_some() {
            return Err(SnbError::Parse("trailing tokens".into()));
        }
        Ok(q)
    }

    fn parse_transitive(&mut self) -> Result<Query> {
        self.expect(Tok::LParen)?;
        let from = self.parse_ground_term()?;
        self.expect(Tok::Comma)?;
        let to = self.parse_ground_term()?;
        self.expect(Tok::Comma)?;
        let pred = match self.next()? {
            Tok::Iri(p, l) => pred_id(&p, &l)?,
            other => return Err(SnbError::Parse(format!("expected predicate, got {other:?}"))),
        };
        let max = if self.eat(&Tok::Comma) {
            match self.next()? {
                Tok::Int(n) if n > 0 => n as u32,
                other => return Err(SnbError::Parse(format!("bad max {other:?}"))),
            }
        } else {
            32
        };
        self.expect(Tok::RParen)?;
        Ok(Query::Transitive { from, to, pred, max })
    }

    fn parse_select_body(&mut self) -> Result<SelectQuery> {
        let distinct = self.eat_kw("DISTINCT");
        let projection = if self.eat_kw("COUNT") {
            self.expect(Tok::LParen)?;
            let inner_distinct = self.eat_kw("DISTINCT");
            let var = if self.eat(&Tok::Star) {
                None
            } else {
                match self.next()? {
                    Tok::Var(v) => Some(v),
                    other => return Err(SnbError::Parse(format!("expected ?var, got {other:?}"))),
                }
            };
            self.expect(Tok::RParen)?;
            Projection::Count { var, distinct: inner_distinct }
        } else {
            let mut vars = Vec::new();
            while let Some(Tok::Var(_)) = self.peek() {
                if let Tok::Var(v) = self.next()? {
                    vars.push(v);
                }
            }
            if vars.is_empty() {
                return Err(SnbError::Parse("SELECT needs at least one variable".into()));
            }
            Projection::Vars(vars)
        };
        self.expect_kw("WHERE")?;
        self.expect(Tok::LBrace)?;
        let mut patterns = Vec::new();
        let mut filters = Vec::new();
        loop {
            if self.eat(&Tok::RBrace) {
                break;
            }
            if self.eat_kw("FILTER") {
                self.expect(Tok::LParen)?;
                filters.push(self.parse_filter()?);
                self.expect(Tok::RParen)?;
                self.eat(&Tok::Dot);
                continue;
            }
            let subject = self.parse_pat_term()?;
            let path = self.parse_path()?;
            let object = self.parse_pat_term()?;
            patterns.push(Pattern { subject, path, object });
            self.eat(&Tok::Dot);
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                match self.peek() {
                    Some(Tok::Var(_)) => {
                        if let Tok::Var(v) = self.next()? {
                            order_by.push((v, true));
                        }
                    }
                    Some(Tok::Ident(s))
                        if s.eq_ignore_ascii_case("desc") || s.eq_ignore_ascii_case("asc") =>
                    {
                        let asc = s.eq_ignore_ascii_case("asc");
                        self.pos += 1;
                        self.expect(Tok::LParen)?;
                        match self.next()? {
                            Tok::Var(v) => order_by.push((v, asc)),
                            other => {
                                return Err(SnbError::Parse(format!("expected ?var, got {other:?}")))
                            }
                        }
                        self.expect(Tok::RParen)?;
                    }
                    _ => break,
                }
            }
            if order_by.is_empty() {
                return Err(SnbError::Parse("empty ORDER BY".into()));
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next()? {
                Tok::Int(n) if n >= 0 => Some(n as usize),
                other => return Err(SnbError::Parse(format!("bad LIMIT {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectQuery { distinct, projection, patterns, filters, order_by, limit })
    }

    fn parse_pat_term(&mut self) -> Result<PatTerm> {
        match self.next()? {
            Tok::Var(v) => Ok(PatTerm::Var(v)),
            Tok::Blank(b) => Ok(PatTerm::Blank(b)),
            Tok::Iri(p, l) => Ok(PatTerm::Ground(entity(&p, &l)?)),
            Tok::Int(n) => Ok(PatTerm::Ground(Term::Lit(Value::Int(n)))),
            Tok::Str(s) => Ok(PatTerm::Ground(Term::Lit(Value::string(s)))),
            other => Err(SnbError::Parse(format!("expected term, got {other:?}"))),
        }
    }

    fn parse_ground_term(&mut self) -> Result<Term> {
        match self.parse_pat_term()? {
            PatTerm::Ground(t) => Ok(t),
            other => Err(SnbError::Parse(format!("expected ground term, got {other:?}"))),
        }
    }

    fn parse_path(&mut self) -> Result<Path> {
        // Parenthesized alternation or a single step.
        let parenthesized = self.eat(&Tok::LParen);
        let mut steps = vec![self.parse_step()?];
        while self.eat(&Tok::Pipe) {
            steps.push(self.parse_step()?);
        }
        if parenthesized {
            self.expect(Tok::RParen)?;
        }
        let quant = if self.eat(&Tok::Plus) {
            (1, 32)
        } else if self.eat(&Tok::Star) {
            (0, 32)
        } else if self.peek() == Some(&Tok::LBrace) && matches!(self.toks.get(self.pos + 1), Some(Tok::Int(_))) {
            self.pos += 1;
            let min = match self.next()? {
                Tok::Int(n) if n >= 0 => n as u32,
                other => return Err(SnbError::Parse(format!("bad quantifier {other:?}"))),
            };
            self.expect(Tok::Comma)?;
            let max = match self.next()? {
                Tok::Int(n) if n >= min as i64 => n as u32,
                other => return Err(SnbError::Parse(format!("bad quantifier {other:?}"))),
            };
            self.expect(Tok::RBrace)?;
            (min, max)
        } else {
            (1, 1)
        };
        Ok(Path { steps, quant })
    }

    fn parse_step(&mut self) -> Result<PathStep> {
        let inverse = self.eat(&Tok::Caret);
        match self.next()? {
            Tok::Iri(p, l) => Ok(PathStep { pred: pred_id(&p, &l)?, inverse }),
            other => Err(SnbError::Parse(format!("expected predicate, got {other:?}"))),
        }
    }

    /// Parse the right operand of a `||` or `&&`, whose node sits one
    /// level above the deeper of its two operands.
    fn operand(&mut self, parse: fn(&mut Self) -> Result<FilterExpr>) -> Result<FilterExpr> {
        let lhs = self.depth;
        let e = parse(self)?;
        self.depth = self.depth.max(lhs) + 1;
        if self.depth > MAX_FILTER_DEPTH {
            return Err(SnbError::Parse(format!(
                "FILTER nested deeper than {MAX_FILTER_DEPTH} levels"
            )));
        }
        Ok(e)
    }

    fn parse_filter(&mut self) -> Result<FilterExpr> {
        let mut lhs = self.parse_filter_and()?;
        while self.eat(&Tok::OrOr) {
            lhs = FilterExpr::Or(Box::new(lhs), Box::new(self.operand(Self::parse_filter_and)?));
        }
        Ok(lhs)
    }

    fn parse_filter_and(&mut self) -> Result<FilterExpr> {
        let mut lhs = self.parse_filter_cmp()?;
        while self.eat(&Tok::AndAnd) {
            lhs = FilterExpr::And(Box::new(lhs), Box::new(self.operand(Self::parse_filter_cmp)?));
        }
        Ok(lhs)
    }

    fn parse_filter_cmp(&mut self) -> Result<FilterExpr> {
        self.depth = 0;
        let a = self.parse_filter_atom()?;
        let op = match self.next()? {
            Tok::Eq => FilterOp::Eq,
            Tok::Ne => FilterOp::Ne,
            Tok::Lt => FilterOp::Lt,
            Tok::Le => FilterOp::Le,
            Tok::Gt => FilterOp::Gt,
            Tok::Ge => FilterOp::Ge,
            other => return Err(SnbError::Parse(format!("expected comparison, got {other:?}"))),
        };
        let b = self.parse_filter_atom()?;
        Ok(FilterExpr::Cmp(a, op, b))
    }

    fn parse_filter_atom(&mut self) -> Result<FilterAtom> {
        match self.next()? {
            Tok::Var(v) => Ok(FilterAtom::Var(v)),
            Tok::Int(n) => Ok(FilterAtom::Lit(Value::Int(n))),
            Tok::Str(s) => Ok(FilterAtom::Lit(Value::string(s))),
            other => Err(SnbError::Parse(format!("expected filter operand, got {other:?}"))),
        }
    }

    fn parse_ground_block(&mut self) -> Result<Vec<(PatTerm, u64, PatTerm)>> {
        self.expect(Tok::LBrace)?;
        let mut triples = Vec::new();
        loop {
            if self.eat(&Tok::RBrace) {
                break;
            }
            let s = self.parse_pat_term()?;
            if matches!(s, PatTerm::Var(_)) {
                return Err(SnbError::Parse("INSERT DATA cannot contain variables".into()));
            }
            let pred = match self.next()? {
                Tok::Iri(p, l) => pred_id(&p, &l)?,
                other => return Err(SnbError::Parse(format!("expected predicate, got {other:?}"))),
            };
            let o = self.parse_pat_term()?;
            if matches!(o, PatTerm::Var(_)) {
                return Err(SnbError::Parse("INSERT DATA cannot contain variables".into()));
            }
            triples.push((s, pred, o));
            self.eat(&Tok::Dot);
        }
        Ok(triples)
    }
}

/// Parse a query string.
pub fn parse(query: &str) -> Result<Query> {
    let toks = lex(query)?;
    let mut p = Parser { toks, pos: 0, depth: 0 };
    p.parse_query()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_point_lookup() {
        let q = parse("SELECT ?fn WHERE { person:933 snb:firstName ?fn }").unwrap();
        match q {
            Query::Select(s) => {
                assert_eq!(s.patterns.len(), 1);
                assert_eq!(s.projection, Projection::Vars(vec!["fn".into()]));
                let p = &s.patterns[0];
                assert!(matches!(p.subject, PatTerm::Ground(Term::Entity(_))));
                assert_eq!(p.path.quant, (1, 1));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_alternation_with_quantifier() {
        let q = parse(
            "SELECT DISTINCT ?id WHERE { person:1 (snb:knows|^snb:knows){1,2} ?f . ?f snb:id ?id . FILTER(?id != 1) }",
        )
        .unwrap();
        match q {
            Query::Select(s) => {
                assert!(s.distinct);
                let p = &s.patterns[0];
                assert_eq!(p.path.steps.len(), 2);
                assert!(!p.path.steps[0].inverse);
                assert!(p.path.steps[1].inverse);
                assert_eq!(p.path.quant, (1, 2));
                assert_eq!(s.filters.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_count_order_limit() {
        let q = parse(
            "SELECT COUNT(DISTINCT ?f) WHERE { person:1 snb:knows ?f } ORDER BY DESC(?f) LIMIT 3",
        )
        .unwrap();
        match q {
            Query::Select(s) => {
                assert_eq!(s.projection, Projection::Count { var: Some("f".into()), distinct: true });
                assert_eq!(s.order_by, vec![("f".into(), false)]);
                assert_eq!(s.limit, Some(3));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_insert_data_with_blanks() {
        let q = parse(
            "INSERT DATA { person:1 snb:knows person:2 . \
             _:k snb:src person:1 . _:k snb:dst person:2 . _:k snb:creationDate 123 }",
        )
        .unwrap();
        match q {
            Query::InsertData(triples) => {
                assert_eq!(triples.len(), 4);
                assert!(matches!(triples[1].0, PatTerm::Blank(_)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_transitive() {
        let q = parse("SELECT TRANSITIVE(person:1, person:5, snb:knows, 16)").unwrap();
        match q {
            Query::Transitive { pred, max, .. } => {
                assert_eq!(pred, edge_pred(EdgeLabel::Knows));
                assert_eq!(max, 16);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("SELECT WHERE { }").is_err());
        assert!(parse("SELECT ?x WHERE { ?x snb:nosuchpred ?y }").is_err());
        assert!(parse("SELECT ?x WHERE { ?x snb:knows ?y ").is_err());
        assert!(parse("INSERT DATA { ?v snb:knows person:1 }").is_err());
        assert!(parse("SELECT ?x WHERE { badprefix:1 snb:knows ?x }").is_err());
    }

    fn or_chain(n: usize) -> String {
        format!("SELECT ?x WHERE {{ ?x snb:knows ?y . FILTER(?y = 1{}) }}", " || ?y = 1".repeat(n))
    }

    /// A flat `||` chain of 200,000 terms builds a left-leaning tree
    /// 200,000 levels deep, which used to overflow a 2 MiB stack (the
    /// size of a default spawned thread) when dropped.
    #[test]
    fn long_filter_chains_error_instead_of_overflowing_the_stack() {
        let q = or_chain(199_999);
        let r = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&q).map(|_| ()))
            .expect("spawn parser thread")
            .join()
            .expect("parser thread");
        assert!(matches!(r, Err(SnbError::Parse(_))), "{r:?}");
    }

    /// Each `||` and `&&` adds one level; a filter exactly
    /// `MAX_FILTER_DEPTH` deep parses and one more level does not.
    #[test]
    fn filter_depth_cap_is_exact() {
        let cap = MAX_FILTER_DEPTH;
        assert!(parse(&or_chain(cap)).is_ok());
        assert!(matches!(parse(&or_chain(cap + 1)), Err(SnbError::Parse(_))));
        let mixed = format!(
            "SELECT ?x WHERE {{ ?x snb:knows ?y . FILTER(?y = 1{} || ?y = 2) }}",
            " && ?y = 1".repeat(cap - 1)
        );
        assert!(parse(&mixed).is_ok());
        let deeper = mixed.replacen("?y = 1 &&", "?y = 1 && ?y = 1 &&", 1);
        assert!(matches!(parse(&deeper), Err(SnbError::Parse(_))));
    }
}
