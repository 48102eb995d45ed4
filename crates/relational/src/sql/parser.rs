//! Lexer and recursive-descent parser for the mini-SQL dialect.

use snb_core::{Result, SnbError, Value};

use super::ast::*;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Param(usize),
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '.' => {
                toks.push(Tok::Dot);
                i += 1;
            }
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                toks.push(Tok::Minus);
                i += 1;
            }
            '=' => {
                toks.push(Tok::Eq);
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Le);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    toks.push(Tok::Ne);
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
            '$' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                if j == start {
                    return Err(SnbError::Parse("expected digits after `$`".into()));
                }
                let n: usize = input[start..j]
                    .parse()
                    .map_err(|_| SnbError::Parse("bad parameter number".into()))?;
                if n == 0 {
                    return Err(SnbError::Parse("parameters are 1-based".into()));
                }
                toks.push(Tok::Param(n));
                i = j;
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(SnbError::Parse("unterminated string literal".into()));
                }
                toks.push(Tok::Str(input[start..j].to_string()));
                i = j + 1;
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                toks.push(Tok::Int(
                    input[start..j].parse().map_err(|_| SnbError::Parse("bad integer".into()))?,
                ));
                i = j;
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                toks.push(Tok::Ident(input[start..j].to_string()));
                i = j;
            }
            other => return Err(SnbError::Parse(format!("unexpected character `{other}`"))),
        }
    }
    Ok(toks)
}

const KEYWORDS: &[&str] = &[
    "select", "distinct", "from", "join", "on", "where", "and", "or", "not", "union", "all",
    "order", "by", "asc", "desc", "limit", "insert", "into", "values", "update", "set", "with",
    "recursive", "as", "count", "min", "max", "sum", "avg", "transitive", "directed", "null",
    "true", "false",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k))
}

/// Deepest expression tree a statement may build: each paren, `NOT`
/// and binary operator adds one level. Parsing, planning, evaluating
/// and dropping an expression all recurse once per level, so a deeper
/// statement is a parse error rather than a stack overflow. The
/// adapters' statements stay far below it.
const MAX_EXPR_DEPTH: usize = 64;

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Depth of the expression parsed last.
    depth: usize,
    /// Parens and `NOT`s open around the current position.
    open: usize,
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
            .ok_or_else(|| SnbError::Parse("unexpected end of statement".into()))?;
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

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
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

    fn expect_ident(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(SnbError::Parse(format!("expected identifier, got {other:?}"))),
        }
    }

    fn check_depth(depth: usize) -> Result<()> {
        if depth > MAX_EXPR_DEPTH {
            return Err(SnbError::Parse(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        Ok(())
    }

    /// Parse the operand of a paren or `NOT`, one level down.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Expr>) -> Result<Expr> {
        self.open += 1;
        Self::check_depth(self.open)?;
        let e = parse(self)?;
        self.open -= 1;
        self.depth += 1;
        Self::check_depth(self.depth)?;
        Ok(e)
    }

    /// Parse the right operand of a binary operator, whose node sits one
    /// level above the deeper of its two operands.
    fn operand(&mut self, parse: fn(&mut Self) -> Result<Expr>) -> Result<Expr> {
        let lhs = self.depth;
        let e = parse(self)?;
        self.depth = self.depth.max(lhs) + 1;
        Self::check_depth(self.depth)?;
        Ok(e)
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        let stmt = if self.eat_kw("INSERT") {
            self.parse_insert()?
        } else if self.eat_kw("UPDATE") {
            self.parse_update()?
        } else if self.eat_kw("WITH") {
            self.parse_with_recursive()?
        } else if self.peek_kw("SELECT") {
            // TRANSITIVE special form or plain select.
            if matches!(self.toks.get(self.pos + 1), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("transitive"))
            {
                self.pos += 1;
                self.parse_transitive()?
            } else {
                Stmt::Select(self.parse_select()?)
            }
        } else {
            return Err(SnbError::Parse(format!("unexpected token {:?}", self.peek())));
        };
        if self.peek().is_some() {
            return Err(SnbError::Parse("trailing tokens after statement".into()));
        }
        Ok(stmt)
    }

    fn parse_transitive(&mut self) -> Result<Stmt> {
        self.expect_kw("TRANSITIVE")?;
        self.expect(Tok::LParen)?;
        let table = self.expect_ident()?;
        self.expect(Tok::Comma)?;
        let from = self.parse_expr()?;
        self.expect(Tok::Comma)?;
        let to = self.parse_expr()?;
        let mut max = 32u32;
        let mut directed = false;
        if self.eat(&Tok::Comma) {
            match self.next()? {
                Tok::Int(n) if n > 0 => max = n as u32,
                other => return Err(SnbError::Parse(format!("bad max depth {other:?}"))),
            }
            if self.eat(&Tok::Comma) {
                self.expect_kw("DIRECTED")?;
                directed = true;
            }
        }
        self.expect(Tok::RParen)?;
        Ok(Stmt::Transitive { table, from, to, max, directed })
    }

    fn parse_insert(&mut self) -> Result<Stmt> {
        self.expect_kw("INTO")?;
        let table = self.expect_ident()?;
        let cols = if self.eat(&Tok::LParen) {
            let mut cols = vec![self.expect_ident()?];
            while self.eat(&Tok::Comma) {
                cols.push(self.expect_ident()?);
            }
            self.expect(Tok::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        self.expect(Tok::LParen)?;
        let mut values = vec![self.parse_expr()?];
        while self.eat(&Tok::Comma) {
            values.push(self.parse_expr()?);
        }
        self.expect(Tok::RParen)?;
        Ok(Stmt::Insert { table, cols, values })
    }

    fn parse_update(&mut self) -> Result<Stmt> {
        let table = self.expect_ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.expect_ident()?;
            self.expect(Tok::Eq)?;
            sets.push((col, self.parse_expr()?));
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect_kw("WHERE")?;
        let filter = self.parse_expr()?;
        Ok(Stmt::Update { table, sets, filter })
    }

    fn parse_with_recursive(&mut self) -> Result<Stmt> {
        self.expect_kw("RECURSIVE")?;
        let name = self.expect_ident()?;
        self.expect(Tok::LParen)?;
        let mut cols = vec![self.expect_ident()?];
        while self.eat(&Tok::Comma) {
            cols.push(self.expect_ident()?);
        }
        self.expect(Tok::RParen)?;
        self.expect_kw("AS")?;
        self.expect(Tok::LParen)?;
        let body = self.parse_select()?;
        self.expect(Tok::RParen)?;
        let tail = self.parse_select()?;
        Ok(Stmt::WithRecursive { name, cols, body, tail })
    }

    fn parse_select(&mut self) -> Result<SelectStmt> {
        let mut cores = vec![self.parse_select_core()?];
        let mut union_all = false;
        while self.eat_kw("UNION") {
            if self.eat_kw("ALL") {
                union_all = true;
            }
            cores.push(self.parse_select_core()?);
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let key = match self.next()? {
                    Tok::Int(n) if n >= 1 => OrderKey::Position(n as usize),
                    Tok::Ident(name) => OrderKey::Name(name),
                    other => return Err(SnbError::Parse(format!("bad ORDER BY key {other:?}"))),
                };
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push((key, asc));
                if !self.eat(&Tok::Comma) {
                    break;
                }
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
        Ok(SelectStmt { cores, union_all, order_by, limit })
    }

    fn parse_select_core(&mut self) -> Result<SelectCore> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut items = Vec::new();
        if self.eat(&Tok::Star) {
            // empty items == SELECT *
        } else {
            loop {
                let expr = self.parse_expr()?;
                let name = if self.eat_kw("AS") {
                    self.expect_ident()?
                } else {
                    synth_name(&expr)
                };
                items.push((expr, name));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect_kw("FROM")?;
        let from = self.parse_table_ref()?;
        let mut joins = Vec::new();
        while self.eat_kw("JOIN") {
            let table = self.parse_table_ref()?;
            self.expect_kw("ON")?;
            let on = self.parse_expr()?;
            joins.push((table, on));
        }
        let filter = if self.eat_kw("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(SelectCore { distinct, items, from, joins, filter })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let table = self.expect_ident()?;
        let alias = match self.peek() {
            Some(Tok::Ident(s)) if !is_keyword(s) => self.expect_ident()?,
            _ => table.clone(),
        };
        Ok(TableRef { table, alias })
    }

    fn parse_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_and()?;
        while self.eat_kw("OR") {
            lhs = Expr::Or(Box::new(lhs), Box::new(self.operand(Self::parse_and)?));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_not()?;
        while self.eat_kw("AND") {
            lhs = Expr::And(Box::new(lhs), Box::new(self.operand(Self::parse_not)?));
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.nested(Self::parse_not)?)))
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> Result<Expr> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Some(Tok::Eq) => Some(CmpOp::Eq),
            Some(Tok::Ne) => Some(CmpOp::Ne),
            Some(Tok::Lt) => Some(CmpOp::Lt),
            Some(Tok::Le) => Some(CmpOp::Le),
            Some(Tok::Gt) => Some(CmpOp::Gt),
            Some(Tok::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            Ok(Expr::Cmp(Box::new(lhs), op, Box::new(self.operand(Self::parse_add)?)))
        } else {
            Ok(lhs)
        }
    }

    fn parse_add(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_primary()?;
        loop {
            if self.eat(&Tok::Plus) {
                lhs = Expr::Add(Box::new(lhs), Box::new(self.operand(Self::parse_primary)?));
            } else if self.eat(&Tok::Minus) {
                lhs = Expr::Sub(Box::new(lhs), Box::new(self.operand(Self::parse_primary)?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        self.depth = 0;
        match self.next()? {
            Tok::Int(n) => Ok(Expr::Lit(Value::Int(n))),
            Tok::Str(s) => Ok(Expr::Lit(Value::string(s))),
            Tok::Param(n) => Ok(Expr::Param(n)),
            Tok::LParen => {
                let e = self.nested(Self::parse_expr)?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(id) => {
                let lower = id.to_ascii_lowercase();
                match lower.as_str() {
                    "true" => return Ok(Expr::Lit(Value::Bool(true))),
                    "false" => return Ok(Expr::Lit(Value::Bool(false))),
                    "null" => return Ok(Expr::Lit(Value::Null)),
                    "count" | "min" | "max" | "sum" | "avg" => {
                        let kind = match lower.as_str() {
                            "count" => AggKind::Count,
                            "min" => AggKind::Min,
                            "max" => AggKind::Max,
                            "sum" => AggKind::Sum,
                            _ => AggKind::Avg,
                        };
                        self.expect(Tok::LParen)?;
                        if kind == AggKind::Count && self.eat(&Tok::Star) {
                            self.expect(Tok::RParen)?;
                            return Ok(Expr::Agg(kind, None, false));
                        }
                        let distinct = self.eat_kw("DISTINCT");
                        let inner = self.nested(Self::parse_expr)?;
                        self.expect(Tok::RParen)?;
                        return Ok(Expr::Agg(kind, Some(Box::new(inner)), distinct));
                    }
                    _ => {}
                }
                if self.eat(&Tok::Dot) {
                    let col = self.expect_ident()?;
                    Ok(Expr::Col(id, col))
                } else {
                    Ok(Expr::Col(String::new(), id))
                }
            }
            other => Err(SnbError::Parse(format!("unexpected token {other:?} in expression"))),
        }
    }
}

fn synth_name(e: &Expr) -> String {
    match e {
        Expr::Col(a, c) if a.is_empty() => c.clone(),
        Expr::Col(a, c) => format!("{a}.{c}"),
        Expr::Agg(AggKind::Count, None, _) => "count".into(),
        Expr::Agg(k, ..) => format!("{k:?}").to_lowercase(),
        _ => "expr".into(),
    }
}

/// Parse one SQL statement.
pub fn parse(query: &str) -> Result<Stmt> {
    let toks = lex(query)?;
    let mut p = Parser { toks, pos: 0, depth: 0, open: 0 };
    p.parse_stmt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_point_lookup() {
        let s = parse("SELECT firstName, lastName FROM person WHERE id = $1").unwrap();
        match s {
            Stmt::Select(sel) => {
                assert_eq!(sel.cores.len(), 1);
                let core = &sel.cores[0];
                assert_eq!(core.items.len(), 2);
                assert_eq!(core.from.table, "person");
                assert_eq!(core.from.alias, "person");
                assert!(core.filter.is_some());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_join_with_aliases() {
        let s = parse(
            "SELECT p.id FROM person_knows_person k JOIN person p ON p.id = k.dst WHERE k.src = $1",
        )
        .unwrap();
        match s {
            Stmt::Select(sel) => {
                let core = &sel.cores[0];
                assert_eq!(core.from.alias, "k");
                assert_eq!(core.joins.len(), 1);
                assert_eq!(core.joins[0].0.alias, "p");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_union_order_limit() {
        let s = parse(
            "SELECT id FROM person WHERE id = $1 UNION SELECT id FROM person WHERE id = $2 \
             ORDER BY 1 DESC LIMIT 5",
        )
        .unwrap();
        match s {
            Stmt::Select(sel) => {
                assert_eq!(sel.cores.len(), 2);
                assert!(!sel.union_all);
                assert_eq!(sel.order_by, vec![(OrderKey::Position(1), false)]);
                assert_eq!(sel.limit, Some(5));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_with_recursive() {
        let s = parse(
            "WITH RECURSIVE reach(id, depth) AS ( \
               SELECT dst, 1 FROM person_knows_person WHERE src = $1 \
               UNION \
               SELECT k.dst, r.depth + 1 FROM reach r JOIN person_knows_person k ON k.src = r.id WHERE r.depth < 8 \
             ) SELECT MIN(depth) FROM reach WHERE id = $2",
        )
        .unwrap();
        match s {
            Stmt::WithRecursive { name, cols, body, tail } => {
                assert_eq!(name, "reach");
                assert_eq!(cols, vec!["id", "depth"]);
                assert_eq!(body.cores.len(), 2);
                assert_eq!(tail.cores.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_transitive() {
        let s = parse("SELECT TRANSITIVE(person_knows_person, $1, $2, 16)").unwrap();
        match s {
            Stmt::Transitive { table, max, directed, .. } => {
                assert_eq!(table, "person_knows_person");
                assert_eq!(max, 16);
                assert!(!directed);
            }
            _ => panic!(),
        }
        match parse("SELECT TRANSITIVE(tag_has_type_tagclass, $1, $2, 4, DIRECTED)").unwrap() {
            Stmt::Transitive { directed, .. } => assert!(directed),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_insert_and_update() {
        match parse("INSERT INTO person (id, firstName) VALUES ($1, $2)").unwrap() {
            Stmt::Insert { table, cols, values } => {
                assert_eq!(table, "person");
                assert_eq!(cols.unwrap(), vec!["id", "firstName"]);
                assert_eq!(values.len(), 2);
            }
            _ => panic!(),
        }
        match parse("UPDATE person SET firstName = $2 WHERE id = $1").unwrap() {
            Stmt::Update { sets, .. } => assert_eq!(sets.len(), 1),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_aggregates() {
        match parse("SELECT COUNT(*) FROM person").unwrap() {
            Stmt::Select(sel) => {
                assert_eq!(sel.cores[0].items[0].0, Expr::Agg(AggKind::Count, None, false))
            }
            _ => panic!(),
        }
        match parse("SELECT COUNT(DISTINCT dst) FROM person_knows_person").unwrap() {
            Stmt::Select(sel) => match &sel.cores[0].items[0].0 {
                Expr::Agg(AggKind::Count, Some(_), true) => {}
                other => panic!("{other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn select_star() {
        match parse("SELECT * FROM person WHERE id = $1").unwrap() {
            Stmt::Select(sel) => assert!(sel.cores[0].items.is_empty()),
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("SELECT FROM person").is_err());
        assert!(parse("SELECT id person").is_err());
        assert!(parse("INSERT person VALUES (1)").is_err());
        assert!(parse("SELECT id FROM person WHERE id = $0").is_err());
        assert!(parse("SELECT id FROM person LIMIT x").is_err());
        assert!(parse("SELECT 'oops FROM person").is_err());
    }

    /// Run `f` on a thread with a 2 MiB stack, the size of a default
    /// spawned thread.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .expect("spawn parser thread")
            .join()
            .expect("parser thread")
    }

    fn nested_parens(n: usize) -> String {
        format!("SELECT id FROM person WHERE {}id = 1{}", "(".repeat(n), ")".repeat(n))
    }

    /// 200,000 nested parens used to recurse the parser off its stack.
    #[test]
    fn deeply_nested_parens_error_instead_of_overflowing_the_stack() {
        let q = nested_parens(200_000);
        let r = on_small_stack(move || parse(&q).map(|_| ()));
        assert!(matches!(r, Err(SnbError::Parse(_))), "{r:?}");
    }

    /// A flat `1 + 1 + ...` chain of 200,000 terms parses without
    /// recursion, but builds a left-leaning tree 200,000 levels deep that
    /// used to overflow the stack when dropped.
    #[test]
    fn long_operator_chains_error_instead_of_overflowing_the_stack() {
        let q = format!("SELECT 1{} FROM person", " + 1".repeat(199_999));
        let r = on_small_stack(move || parse(&q).map(|_| ()));
        assert!(matches!(r, Err(SnbError::Parse(_))), "{r:?}");
    }

    /// Parens, `NOT`s and chained operators each add one level; a tree
    /// exactly `MAX_EXPR_DEPTH` deep parses and one more level does not.
    #[test]
    fn expression_depth_cap_is_exact() {
        let cap = MAX_EXPR_DEPTH;
        // The comparison is the innermost level.
        assert!(parse(&nested_parens(cap - 1)).is_ok());
        assert!(matches!(parse(&nested_parens(cap)), Err(SnbError::Parse(_))));
        let nots = |n: usize| format!("SELECT id FROM person WHERE {}id = 1", "NOT ".repeat(n));
        assert!(parse(&nots(cap - 1)).is_ok());
        assert!(matches!(parse(&nots(cap)), Err(SnbError::Parse(_))));
        let chain = |n: usize| format!("SELECT 1{} FROM person", " - 1".repeat(n));
        assert!(parse(&chain(cap)).is_ok());
        assert!(matches!(parse(&chain(cap + 1)), Err(SnbError::Parse(_))));
        let ors = |n: usize| format!("SELECT id FROM person WHERE id = 1{}", " OR id = 1".repeat(n));
        assert!(parse(&ors(cap - 1)).is_ok());
        assert!(matches!(parse(&ors(cap)), Err(SnbError::Parse(_))));
        let counts = |n: usize| format!("SELECT {}id{} FROM person", "count(".repeat(n), ")".repeat(n));
        assert!(parse(&counts(cap)).is_ok());
        assert!(matches!(parse(&counts(cap + 1)), Err(SnbError::Parse(_))));
    }
}
