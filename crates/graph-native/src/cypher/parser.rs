//! Lexer and recursive-descent parser for the Cypher-like dialect.

use snb_core::{Direction, EdgeLabel, PropKey, Result, SnbError, Value, VertexLabel};

use super::ast::*;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Param(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Colon,
    Comma,
    Dot,
    DotDot,
    Dash,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    Star,
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let mut toks = Vec::new();
    let bytes = input.as_bytes();
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
            '[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Tok::RBracket);
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
            ':' => {
                toks.push(Tok::Colon);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            '-' => {
                toks.push(Tok::Dash);
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
            '.' => {
                if bytes.get(i + 1) == Some(&b'.') {
                    toks.push(Tok::DotDot);
                    i += 2;
                } else {
                    toks.push(Tok::Dot);
                    i += 1;
                }
            }
            '$' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                if j == start {
                    return Err(SnbError::Parse("empty parameter name after `$`".into()));
                }
                toks.push(Tok::Param(input[start..j].to_string()));
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
                let n: i64 = input[start..j]
                    .parse()
                    .map_err(|_| SnbError::Parse(format!("bad integer at {start}")))?;
                toks.push(Tok::Int(n));
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

/// Deepest expression tree a query may build: each paren, `NOT` and
/// binary operator adds one level. Parsing, compiling, evaluating and
/// dropping an expression all recurse once per level, so a deeper query
/// is a parse error rather than a stack overflow. The adapters' queries
/// stay far below it.
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

    /// Case-insensitive keyword check without consuming.
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

    fn parse_statement(&mut self) -> Result<Statement> {
        let mut stmt = Statement::default();
        loop {
            if self.eat_kw("MATCH") {
                let mut paths = vec![self.parse_path()?];
                while self.eat(&Tok::Comma) {
                    paths.push(self.parse_path()?);
                }
                let filter = if self.eat_kw("WHERE") { Some(self.parse_expr()?) } else { None };
                stmt.matches.push(MatchClause { paths, filter });
            } else if self.eat_kw("CREATE") {
                stmt.creates.push(self.parse_path()?);
                while self.eat(&Tok::Comma) {
                    stmt.creates.push(self.parse_path()?);
                }
            } else if self.eat_kw("SET") {
                loop {
                    let var = self.expect_ident()?;
                    self.expect(Tok::Dot)?;
                    let key = PropKey::parse(&self.expect_ident()?)?;
                    self.expect(Tok::Eq)?;
                    let value = self.parse_primary()?;
                    stmt.sets.push(SetItem { var, key, value });
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
            } else if self.eat_kw("RETURN") {
                stmt.ret = Some(self.parse_return()?);
                break;
            } else if self.peek().is_none() {
                break;
            } else {
                return Err(SnbError::Parse(format!("unexpected token {:?}", self.peek())));
            }
        }
        if self.peek().is_some() {
            return Err(SnbError::Parse("trailing tokens after statement".into()));
        }
        Ok(stmt)
    }

    fn parse_path(&mut self) -> Result<PatternPath> {
        // `p = shortestPath(...)`?
        if let Some(Tok::Ident(name)) = self.peek() {
            if !name.eq_ignore_ascii_case("shortestpath")
                && self.toks.get(self.pos + 1) == Some(&Tok::Eq)
            {
                let path_var = self.expect_ident()?;
                self.expect(Tok::Eq)?;
                if !self.eat_kw("shortestPath") {
                    return Err(SnbError::Parse("expected shortestPath(...)".into()));
                }
                self.expect(Tok::LParen)?;
                let from = self.parse_node()?;
                let rel = self.parse_rel()?;
                let to = self.parse_node()?;
                self.expect(Tok::RParen)?;
                return Ok(PatternPath::ShortestPath { path_var, from, rel, to });
            }
        }
        let mut nodes = vec![self.parse_node()?];
        let mut rels = Vec::new();
        while matches!(self.peek(), Some(Tok::Dash) | Some(Tok::Lt)) {
            rels.push(self.parse_rel()?);
            nodes.push(self.parse_node()?);
        }
        Ok(PatternPath::Chain { nodes, rels })
    }

    fn parse_node(&mut self) -> Result<NodePat> {
        self.expect(Tok::LParen)?;
        let mut node = NodePat::default();
        if let Some(Tok::Ident(_)) = self.peek() {
            node.var = Some(self.expect_ident()?);
        }
        if self.eat(&Tok::Colon) {
            node.label = Some(VertexLabel::parse(&self.expect_ident()?)?);
        }
        if self.peek() == Some(&Tok::LBrace) {
            node.props = self.parse_map()?;
        }
        self.expect(Tok::RParen)?;
        Ok(node)
    }

    fn parse_rel(&mut self) -> Result<RelPat> {
        let left_arrow = self.eat(&Tok::Lt);
        self.expect(Tok::Dash)?;
        let mut rel = RelPat {
            var: None,
            label: None,
            dir: Direction::Both,
            range: None,
            props: Vec::new(),
        };
        if self.eat(&Tok::LBracket) {
            if let Some(Tok::Ident(_)) = self.peek() {
                rel.var = Some(self.expect_ident()?);
            }
            if self.eat(&Tok::Colon) {
                rel.label = Some(EdgeLabel::parse(&self.expect_ident()?)?);
            }
            if self.eat(&Tok::Star) {
                let min = if let Some(Tok::Int(n)) = self.peek() {
                    let n = *n as u32;
                    self.pos += 1;
                    n
                } else {
                    1
                };
                let max = if self.eat(&Tok::DotDot) {
                    if let Some(Tok::Int(n)) = self.peek() {
                        let n = *n as u32;
                        self.pos += 1;
                        n
                    } else {
                        u32::MAX
                    }
                } else if matches!(self.peek(), Some(Tok::RBracket)) && min == 1 {
                    // bare `*`: unbounded
                    u32::MAX
                } else {
                    min
                };
                rel.range = Some((min, max));
            }
            if self.peek() == Some(&Tok::LBrace) {
                rel.props = self.parse_map()?;
            }
            self.expect(Tok::RBracket)?;
        }
        self.expect(Tok::Dash)?;
        let right_arrow = self.eat(&Tok::Gt);
        rel.dir = match (left_arrow, right_arrow) {
            (false, true) => Direction::Out,
            (true, false) => Direction::In,
            (false, false) => Direction::Both,
            (true, true) => return Err(SnbError::Parse("relationship with two arrows".into())),
        };
        Ok(rel)
    }

    fn parse_map(&mut self) -> Result<Vec<(PropKey, Expr)>> {
        self.expect(Tok::LBrace)?;
        let mut props = Vec::new();
        if !self.eat(&Tok::RBrace) {
            loop {
                let key = PropKey::parse(&self.expect_ident()?)?;
                self.expect(Tok::Colon)?;
                props.push((key, self.parse_primary()?));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RBrace)?;
        }
        Ok(props)
    }

    fn parse_return(&mut self) -> Result<ReturnClause> {
        let distinct = self.eat_kw("DISTINCT");
        let mut items = vec![self.parse_return_item()?];
        while self.eat(&Tok::Comma) {
            items.push(self.parse_return_item()?);
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            if !self.eat_kw("BY") {
                return Err(SnbError::Parse("expected BY after ORDER".into()));
            }
            loop {
                let e = self.parse_expr()?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push((e, asc));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next()? {
                Tok::Int(n) if n >= 0 => Some(n as usize),
                other => return Err(SnbError::Parse(format!("bad LIMIT operand {other:?}"))),
            }
        } else {
            None
        };
        Ok(ReturnClause { distinct, items, order_by, limit })
    }

    fn parse_return_item(&mut self) -> Result<ReturnItem> {
        let expr = self.parse_expr()?;
        let name = if self.eat_kw("AS") {
            self.expect_ident()?
        } else {
            synth_name(&expr)
        };
        Ok(ReturnItem { expr, name })
    }

    fn parse_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_and()?;
        while self.eat_kw("OR") {
            let rhs = self.operand(Self::parse_and)?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_not()?;
        while self.eat_kw("AND") {
            let rhs = self.operand(Self::parse_not)?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
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
        let lhs = self.parse_primary()?;
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
            let rhs = self.operand(Self::parse_primary)?;
            Ok(Expr::Cmp(Box::new(lhs), op, Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        self.depth = 0;
        match self.next()? {
            Tok::Int(n) => Ok(Expr::Lit(Value::Int(n))),
            Tok::Str(s) => Ok(Expr::Lit(Value::string(s))),
            Tok::Param(p) => Ok(Expr::Param(p)),
            Tok::LParen => {
                let e = self.nested(Self::parse_expr)?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(id) => {
                if id.eq_ignore_ascii_case("true") {
                    return Ok(Expr::Lit(Value::Bool(true)));
                }
                if id.eq_ignore_ascii_case("false") {
                    return Ok(Expr::Lit(Value::Bool(false)));
                }
                if id.eq_ignore_ascii_case("null") {
                    return Ok(Expr::Lit(Value::Null));
                }
                if id.eq_ignore_ascii_case("count") {
                    self.expect(Tok::LParen)?;
                    if self.eat(&Tok::Star) {
                        self.expect(Tok::RParen)?;
                        return Ok(Expr::CountStar);
                    }
                    let distinct = self.eat_kw("DISTINCT");
                    let inner = self.nested(Self::parse_expr)?;
                    self.expect(Tok::RParen)?;
                    return Ok(Expr::Count(Box::new(inner), distinct));
                }
                if id.eq_ignore_ascii_case("length") {
                    self.expect(Tok::LParen)?;
                    let var = self.expect_ident()?;
                    self.expect(Tok::RParen)?;
                    return Ok(Expr::Length(var));
                }
                if self.eat(&Tok::Dot) {
                    let key = PropKey::parse(&self.expect_ident()?)?;
                    return Ok(Expr::Prop(id, key));
                }
                Ok(Expr::Var(id))
            }
            other => Err(SnbError::Parse(format!("unexpected token {other:?} in expression"))),
        }
    }
}

fn synth_name(e: &Expr) -> String {
    match e {
        Expr::Prop(v, k) => format!("{v}.{k}"),
        Expr::Var(v) => v.clone(),
        Expr::CountStar => "count(*)".into(),
        Expr::Count(..) => "count".into(),
        Expr::Length(v) => format!("length({v})"),
        _ => "expr".into(),
    }
}

/// Parse a query string into a [`Statement`].
pub fn parse(query: &str) -> Result<Statement> {
    let toks = lex(query)?;
    let mut p = Parser { toks, pos: 0, depth: 0, open: 0 };
    p.parse_statement()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_point_lookup() {
        let s = parse("MATCH (p:person {id: $id}) RETURN p.firstName, p.lastName").unwrap();
        assert_eq!(s.matches.len(), 1);
        match &s.matches[0].paths[0] {
            PatternPath::Chain { nodes, rels } => {
                assert_eq!(rels.len(), 0);
                assert_eq!(nodes[0].var.as_deref(), Some("p"));
                assert_eq!(nodes[0].label, Some(VertexLabel::Person));
                assert_eq!(nodes[0].props.len(), 1);
            }
            _ => panic!("expected chain"),
        }
        let ret = s.ret.unwrap();
        assert_eq!(ret.items.len(), 2);
        assert_eq!(ret.items[0].name, "p.firstName");
    }

    #[test]
    fn parses_directed_and_undirected_rels() {
        let s = parse("MATCH (a)-[:knows]->(b)<-[:likes]-(c)-[k:knows]-(d) RETURN a").unwrap();
        match &s.matches[0].paths[0] {
            PatternPath::Chain { rels, .. } => {
                assert_eq!(rels[0].dir, Direction::Out);
                assert_eq!(rels[0].label, Some(EdgeLabel::Knows));
                assert_eq!(rels[1].dir, Direction::In);
                assert_eq!(rels[2].dir, Direction::Both);
                assert_eq!(rels[2].var.as_deref(), Some("k"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_var_length_and_star() {
        let s = parse("MATCH (a)-[:knows*1..2]-(b) RETURN b").unwrap();
        match &s.matches[0].paths[0] {
            PatternPath::Chain { rels, .. } => assert_eq!(rels[0].range, Some((1, 2))),
            _ => panic!(),
        }
        let s = parse("MATCH (a)-[:knows*]-(b) RETURN b").unwrap();
        match &s.matches[0].paths[0] {
            PatternPath::Chain { rels, .. } => assert_eq!(rels[0].range, Some((1, u32::MAX))),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_shortest_path() {
        let s = parse(
            "MATCH p = shortestPath((a:person {id:$a})-[:knows*]-(b:person {id:$b})) RETURN length(p)",
        )
        .unwrap();
        match &s.matches[0].paths[0] {
            PatternPath::ShortestPath { path_var, from, to, rel } => {
                assert_eq!(path_var, "p");
                assert_eq!(from.label, Some(VertexLabel::Person));
                assert_eq!(to.label, Some(VertexLabel::Person));
                assert_eq!(rel.label, Some(EdgeLabel::Knows));
            }
            _ => panic!(),
        }
        let ret = s.ret.unwrap();
        assert_eq!(ret.items[0].expr, Expr::Length("p".into()));
    }

    #[test]
    fn parses_where_order_limit() {
        let s = parse(
            "MATCH (p:person {id:$id})-[:knows*1..2]-(f) WHERE f.id <> $id AND f.firstName = $n \
             RETURN DISTINCT f.id ORDER BY f.id DESC LIMIT 20",
        )
        .unwrap();
        assert!(s.matches[0].filter.is_some());
        let ret = s.ret.unwrap();
        assert!(ret.distinct);
        assert_eq!(ret.order_by.len(), 1);
        assert!(!ret.order_by[0].1, "DESC parsed");
        assert_eq!(ret.limit, Some(20));
    }

    #[test]
    fn parses_create_and_set() {
        let s = parse(
            "MATCH (a:person {id:$a}), (b:person {id:$b}) \
             CREATE (a)-[:knows {creationDate:$d}]->(b)",
        )
        .unwrap();
        assert_eq!(s.matches[0].paths.len(), 2);
        assert_eq!(s.creates.len(), 1);
        let s = parse("MATCH (p:person {id:$id}) SET p.firstName = $v, p.gender = 'male'").unwrap();
        assert_eq!(s.sets.len(), 2);
        assert_eq!(s.sets[1].value, Expr::Lit(Value::str("male")));
    }

    #[test]
    fn parses_count_variants() {
        let s = parse("MATCH (a)-[:knows]-(b) RETURN count(*)").unwrap();
        assert_eq!(s.ret.as_ref().unwrap().items[0].expr, Expr::CountStar);
        let s = parse("MATCH (a)-[:knows]-(b) RETURN count(DISTINCT b)").unwrap();
        match &s.ret.as_ref().unwrap().items[0].expr {
            Expr::Count(inner, true) => assert_eq!(**inner, Expr::Var("b".into())),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse("MATCH (p RETURN p").is_err());
        assert!(parse("MATCH (p:nosuchlabel) RETURN p").is_err());
        assert!(parse("MATCH (a)<-[:knows]->(b) RETURN a").is_err());
        assert!(parse("MATCH (p) RETURN p LIMIT").is_err());
        assert!(parse("MATCH (p) RETURN p trailing").is_err());
        assert!(parse("MATCH (p {id: $}) RETURN p").is_err());
        assert!(parse("RETURN 'unterminated").is_err());
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
        format!("MATCH (p) WHERE {}p.id = 1{} RETURN p", "(".repeat(n), ")".repeat(n))
    }

    fn and_chain(n: usize) -> String {
        format!("MATCH (p) WHERE p.id = 1{} RETURN p", " AND p.id = 1".repeat(n))
    }

    /// 200,000 nested parens used to recurse the parser off its stack.
    #[test]
    fn deeply_nested_parens_error_instead_of_overflowing_the_stack() {
        let q = nested_parens(200_000);
        let r = on_small_stack(move || parse(&q).map(|_| ()));
        assert!(matches!(r, Err(SnbError::Parse(_))), "{r:?}");
    }

    /// A flat `AND` chain of 200,000 terms builds a left-leaning tree
    /// 200,000 levels deep, which used to overflow the stack when dropped.
    #[test]
    fn long_operator_chains_error_instead_of_overflowing_the_stack() {
        let q = and_chain(199_999);
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
        let nots = |n: usize| format!("MATCH (p) WHERE {}p.id = 1 RETURN p", "NOT ".repeat(n));
        assert!(parse(&nots(cap - 1)).is_ok());
        assert!(matches!(parse(&nots(cap)), Err(SnbError::Parse(_))));
        assert!(parse(&and_chain(cap - 1)).is_ok());
        assert!(matches!(parse(&and_chain(cap)), Err(SnbError::Parse(_))));
        let counts = |n: usize| format!("MATCH (p) RETURN {}p{}", "count(".repeat(n), ")".repeat(n));
        assert!(parse(&counts(cap)).is_ok());
        assert!(matches!(parse(&counts(cap + 1)), Err(SnbError::Parse(_))));
    }

    #[test]
    fn rel_props_parse() {
        let s = parse("MATCH (a)-[k:knows]-(b) RETURN k.creationDate ORDER BY k.creationDate").unwrap();
        let ret = s.ret.unwrap();
        assert_eq!(ret.items[0].expr, Expr::Prop("k".into(), PropKey::CreationDate));
    }
}
