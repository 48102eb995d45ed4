//! End-to-end SPARQL tests on the familiar 1-2-3-4-5 friendship chain.

use snb_core::{EdgeLabel, PropKey, Value, VertexLabel, Vid};
use snb_datagen::{generate, GeneratorConfig};
use snb_rdf::store::scanned_triples;
use snb_rdf::TripleStore;

fn p(id: u64) -> Vid {
    Vid::new(VertexLabel::Person, id)
}

fn fixture() -> TripleStore {
    let s = TripleStore::new();
    for (id, name) in [(1, "Ada"), (2, "Bob"), (3, "Cai"), (4, "Dee"), (5, "Eli"), (9, "Zoe")] {
        s.insert_vertex(
            VertexLabel::Person,
            id,
            &[
                (PropKey::FirstName, Value::str(name)),
                (PropKey::CreationDate, Value::Date(id as i64 * 100)),
            ],
        );
    }
    for (a, b, d) in [(1, 2, 10), (2, 3, 20), (3, 4, 30), (4, 5, 40), (1, 3, 50)] {
        s.insert_edge(EdgeLabel::Knows, p(a), p(b), &[(PropKey::CreationDate, Value::Date(d))]);
    }
    // Post 100 by Bob, comment 200 by Cai.
    s.insert_vertex(VertexLabel::Post, 100, &[(PropKey::Content, Value::str("hello world"))]);
    s.insert_edge(EdgeLabel::HasCreator, Vid::new(VertexLabel::Post, 100), p(2), &[]);
    s.insert_vertex(VertexLabel::Comment, 200, &[(PropKey::Content, Value::str("nice"))]);
    s.insert_edge(
        EdgeLabel::ReplyOf,
        Vid::new(VertexLabel::Comment, 200),
        Vid::new(VertexLabel::Post, 100),
        &[],
    );
    s.insert_edge(EdgeLabel::HasCreator, Vid::new(VertexLabel::Comment, 200), p(3), &[]);
    s
}

#[test]
fn point_lookup() {
    let s = fixture();
    let r = s.sparql("SELECT ?fn ?cd WHERE { person:3 snb:firstName ?fn . person:3 snb:creationDate ?cd }").unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("Cai"), Value::Int(300)]]);
    let miss = s.sparql("SELECT ?fn WHERE { person:77 snb:firstName ?fn }").unwrap();
    assert!(miss.is_empty());
}

#[test]
fn one_hop_with_alternation() {
    let s = fixture();
    let r = s
        .sparql(
            "SELECT DISTINCT ?id WHERE { person:3 (snb:knows|^snb:knows) ?f . ?f snb:id ?id } ORDER BY ?id",
        )
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![1, 2, 4]);
}

#[test]
fn two_hop_quantified_path() {
    let s = fixture();
    let r = s
        .sparql(
            "SELECT DISTINCT ?id WHERE { person:1 (snb:knows|^snb:knows){1,2} ?f . ?f snb:id ?id . FILTER(?id != 1) } ORDER BY ?id",
        )
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![2, 3, 4]);
}

#[test]
fn transitive_extension() {
    let s = fixture();
    let r = s.sparql("SELECT TRANSITIVE(person:1, person:5, snb:knows, 16)").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(3)));
    let zero = s.sparql("SELECT TRANSITIVE(person:2, person:2, snb:knows)").unwrap();
    assert_eq!(zero.scalar(), Some(&Value::Int(0)));
    let none = s.sparql("SELECT TRANSITIVE(person:1, person:9, snb:knows)").unwrap();
    assert!(none.is_empty());
}

#[test]
fn reified_edge_properties() {
    let s = fixture();
    // knows creationDate via the reified statement nodes, both directions.
    let r = s
        .sparql(
            "SELECT ?id ?d WHERE { ?k snb:src person:1 . ?k snb:dst ?f . ?k snb:creationDate ?d . ?f snb:id ?id } ORDER BY DESC(?d)",
        )
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::Int(3), Value::Int(50)], vec![Value::Int(2), Value::Int(10)]]
    );
}

#[test]
fn count_and_count_distinct() {
    let s = fixture();
    let r = s.sparql("SELECT COUNT(*) WHERE { ?a snb:knows ?b }").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(5)));
    let r = s.sparql("SELECT COUNT(DISTINCT ?a) WHERE { ?a snb:knows ?b }").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(4)));
}

#[test]
fn reverse_anchor_pattern() {
    let s = fixture();
    let r = s
        .sparql("SELECT ?c WHERE { ?m snb:has_creator person:3 . ?m snb:content ?c }")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("nice")]]);
}

#[test]
fn multi_pattern_join() {
    let s = fixture();
    let r = s
        .sparql(
            "SELECT ?fn WHERE { comment:200 snb:reply_of ?m . ?m snb:has_creator ?p . ?p snb:firstName ?fn }",
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("Bob")]]);
}

#[test]
fn insert_data_roundtrip() {
    let s = fixture();
    s.sparql(
        "INSERT DATA { person:42 rdf:type 'person' . person:42 snb:id 42 . person:42 snb:firstName 'New' . \
         person:42 snb:knows person:1 . \
         _:k snb:src person:42 . _:k snb:dst person:1 . _:k snb:creationDate 999 }",
    )
    .unwrap();
    let r = s.sparql("SELECT ?fn WHERE { person:42 snb:firstName ?fn }").unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("New")]]);
    let d = s
        .sparql("SELECT ?d WHERE { ?k snb:src person:42 . ?k snb:creationDate ?d }")
        .unwrap();
    assert_eq!(d.rows, vec![vec![Value::Int(999)]]);
}

#[test]
fn filters_with_connectives() {
    let s = fixture();
    let r = s
        .sparql(
            "SELECT ?id WHERE { ?p rdf:type 'person' . ?p snb:id ?id . FILTER(?id > 1 && ?id < 5 || ?id = 9) } ORDER BY ?id",
        )
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![2, 3, 4, 9]);
}

#[test]
fn limit_applies_after_order() {
    let s = fixture();
    let r = s
        .sparql("SELECT ?id WHERE { ?p rdf:type 'person' . ?p snb:id ?id } ORDER BY DESC(?id) LIMIT 2")
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![9, 5]);
}

#[test]
fn date_and_int_literals_unify() {
    let s = fixture();
    // creationDate was inserted as Value::Date; the query uses a plain int.
    let r = s.sparql("SELECT ?p WHERE { ?p snb:creationDate 300 . }").unwrap();
    assert_eq!(r.len(), 1);
}

#[test]
fn unbound_filter_is_an_error() {
    let s = fixture();
    assert!(s.sparql("SELECT ?id WHERE { person:1 snb:id ?id . FILTER(?nope = 1) }").is_err());
}

// ---------------------------------------------------------------------------
// Join ordering: every textual order of a BGP returns the same rows, and
// ties between ground-anchored patterns go to the selective one.

/// One SELECT shape as the SPARQL adapter issues it: the head up to `{`,
/// its triple patterns, and the rest (filters, `}`, modifiers).
struct Shape {
    name: &'static str,
    head: String,
    patterns: Vec<String>,
    tail: String,
    /// The textual orders to run, as permutations of `patterns`.
    orders: Vec<Vec<usize>>,
}

impl Shape {
    /// A shape run in every permutation of its patterns.
    fn new(name: &'static str, head: &str, patterns: &[String], tail: &str) -> Shape {
        let mut orders = Vec::new();
        for_each_permutation(patterns.len(), |o| orders.push(o.to_vec()));
        Shape::with_orders(name, head, patterns, tail, orders)
    }

    fn with_orders(
        name: &'static str,
        head: &str,
        patterns: &[String],
        tail: &str,
        orders: Vec<Vec<usize>>,
    ) -> Shape {
        Shape { name, head: head.into(), patterns: patterns.to_vec(), tail: tail.into(), orders }
    }

    fn text(&self, order: &[usize]) -> String {
        let body: Vec<&str> = order.iter().map(|&i| self.patterns[i].as_str()).collect();
        format!("{} {} {}", self.head, body.join(" . "), self.tail)
    }
}

/// Heap's algorithm: call `f` once with every permutation of `0..n`.
fn for_each_permutation(n: usize, mut f: impl FnMut(&[usize])) {
    let mut order: Vec<usize> = (0..n).collect();
    let mut c = vec![0; n];
    f(&order);
    let mut i = 0;
    while i < n {
        if c[i] < i {
            order.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
            f(&order);
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
}

/// IS1 has nine patterns; its 9! orders take minutes in a debug build.
/// Its seven profile patterns have one form (`person:X snb:prop ?v`, the
/// point lookup, which runs in all 7! orders), so IS1 runs every placement
/// of its two location patterns among them (72), each with the profile
/// patterns filled in all 7 rotations.
fn is1_orders() -> Vec<Vec<usize>> {
    let mut orders = Vec::new();
    for located_in in 0..9 {
        for city in (0..9).filter(|&c| c != located_in) {
            for rot in 0..7 {
                let mut props = (0..7).map(|i| (i + rot) % 7);
                let order = (0..9)
                    .map(|slot| match slot {
                        _ if slot == located_in => 7,
                        _ if slot == city => 8,
                        _ => props.next().expect("seven profile slots"),
                    })
                    .collect();
                orders.push(order);
            }
        }
    }
    orders
}

/// Entities the shapes are instantiated with.
struct Params {
    person: String,
    post: String,
    message: String,
    comment: String,
    min_date: i64,
}

/// Every SELECT shape the SPARQL adapter sends to the triple store. The
/// adapter's IS2 also has `LIMIT`, dropped here: on tied dates it may
/// legally keep different rows under different plans.
fn adapter_shapes(x: &Params) -> Vec<Shape> {
    let props = |s: &str| -> Vec<String> {
        [
            "snb:firstName ?fn",
            "snb:lastName ?ln",
            "snb:gender ?g",
            "snb:birthday ?b",
            "snb:creationDate ?cd",
            "snb:locationIP ?ip",
            "snb:browserUsed ?br",
        ]
        .iter()
        .map(|p| format!("{s} {p}"))
        .collect()
    };
    let (p, m) = (&x.person, &x.message);
    let mut is1 = props(p);
    is1.extend([format!("{p} snb:is_located_in ?c"), "?c snb:id ?city".into()]);
    let v = |pats: &[&str]| -> Vec<String> { pats.iter().map(|s| s.to_string()).collect() };
    vec![
        Shape::new("point_lookup", "SELECT ?fn ?ln ?g ?b ?cd ?ip ?br WHERE {", &props(p), "}"),
        Shape::with_orders("is1", "SELECT ?fn ?ln ?g ?b ?cd ?ip ?br ?city WHERE {", &is1, "}", is1_orders()),
        Shape::new(
            "is2",
            "SELECT ?content ?cd WHERE {",
            &v(&[&format!("?m snb:has_creator {p}"), "?m snb:content ?content", "?m snb:creationDate ?cd"]),
            "} ORDER BY DESC(?cd)",
        ),
        Shape::new(
            "is3",
            "SELECT ?id ?d WHERE {",
            &v(&[
                "?k rdf:type 'knows'",
                &format!("?k snb:src {p}"),
                "?k snb:dst ?f",
                "?k snb:creationDate ?d",
                "?f snb:id ?id",
            ]),
            "} ORDER BY DESC(?d)",
        ),
        Shape::new(
            "is5",
            "SELECT ?id ?fn ?ln WHERE {",
            &v(&[&format!("{m} snb:has_creator ?p"), "?p snb:id ?id", "?p snb:firstName ?fn", "?p snb:lastName ?ln"]),
            "}",
        ),
        Shape::new(
            "is6",
            "SELECT ?fid ?title ?mid WHERE {",
            &v(&[
                &format!("?f snb:container_of {}", x.post),
                "?f snb:id ?fid",
                "?f snb:title ?title",
                "?f snb:has_moderator ?mod",
                "?mod snb:id ?mid",
            ]),
            "}",
        ),
        Shape::new(
            "is7",
            "SELECT ?cid ?cd ?aid WHERE {",
            &v(&[
                &format!("?c snb:reply_of {m}"),
                "?c snb:id ?cid",
                "?c snb:creationDate ?cd",
                "?c snb:has_creator ?a",
                "?a snb:id ?aid",
            ]),
            "} ORDER BY DESC(?cd)",
        ),
        Shape::new(
            "foaf_posts_member",
            "SELECT ?id ?cd WHERE {",
            &v(&[&format!("?m snb:has_creator {p}"), "?m rdf:type 'post'", "?m snb:id ?id", "?m snb:creationDate ?cd"]),
            &format!("FILTER(?cd >= {}) }}", x.min_date),
        ),
        Shape::new(
            "multi_pattern_join",
            "SELECT ?fn WHERE {",
            &v(&[&format!("{} snb:reply_of ?m", x.comment), "?m snb:has_creator ?p", "?p snb:firstName ?fn"]),
            "}",
        ),
    ]
}

fn sorted_rows(s: &TripleStore, query: &str) -> Vec<Vec<Value>> {
    let mut rows = s.sparql(query).unwrap_or_else(|e| panic!("{query}: {e}")).rows;
    rows.sort();
    rows
}

/// Run every shape in every textual order; returns the shapes whose rows
/// were non-empty.
fn assert_order_invariant(s: &TripleStore, x: &Params) -> Vec<&'static str> {
    let mut non_empty = Vec::new();
    for shape in adapter_shapes(x) {
        let want = sorted_rows(s, &shape.text(&(0..shape.patterns.len()).collect::<Vec<_>>()));
        for order in &shape.orders {
            let q = shape.text(order);
            assert_eq!(sorted_rows(s, &q), want, "{}: {q}", shape.name);
        }
        if !want.is_empty() {
            non_empty.push(shape.name);
        }
    }
    non_empty
}

#[test]
fn bgp_rows_do_not_depend_on_pattern_order_on_the_fixture() {
    let s = fixture();
    let x = Params {
        person: "person:2".into(),
        post: "post:100".into(),
        message: "post:100".into(),
        comment: "comment:200".into(),
        min_date: 0,
    };
    let non_empty = assert_order_invariant(&s, &x);
    // The fixture has no profile, forum, or message-date triples, so only
    // these shapes match anything on it.
    assert_eq!(non_empty, ["is3", "multi_pattern_join"]);
}

#[test]
fn bgp_rows_do_not_depend_on_pattern_order_on_generated_data() {
    let data = generate(&GeneratorConfig::tiny()).snapshot;
    let s = TripleStore::new();
    for v in &data.vertices {
        s.insert_vertex(v.label, v.id, &v.props);
    }
    for e in &data.edges {
        s.insert_edge(e.label, e.src, e.dst, &e.props);
    }
    let iri = |v: Vid| format!("{}:{}", v.label(), v.local());
    let edges = |label: EdgeLabel| data.edges.iter().filter(move |e| e.label == label);
    // The person with the most posts; a replied-to post inside a forum;
    // one of its replies; the median date of the person's posts.
    let post_creators: Vec<(Vid, Vid)> = edges(EdgeLabel::HasCreator)
        .filter(|e| e.src.label() == VertexLabel::Post)
        .map(|e| (e.src, e.dst))
        .collect();
    let person = data
        .vertices
        .iter()
        .filter(|v| v.label == VertexLabel::Person)
        .map(|v| Vid::new(VertexLabel::Person, v.id))
        .max_by_key(|&p| (post_creators.iter().filter(|(_, c)| *c == p).count(), p.local()))
        .expect("persons");
    let in_forum: Vec<Vid> = edges(EdgeLabel::ContainerOf).map(|e| e.dst).collect();
    let reply = edges(EdgeLabel::ReplyOf)
        .find(|e| e.dst.label() == VertexLabel::Post && in_forum.contains(&e.dst))
        .expect("a reply to a forum post");
    let mut dates: Vec<i64> = post_creators
        .iter()
        .filter(|(_, c)| *c == person)
        .map(|(m, _)| {
            let v = data.vertices.iter().find(|v| v.label == m.label() && v.id == m.local());
            v.expect("post vertex").creation_ms
        })
        .collect();
    dates.sort();
    let x = Params {
        person: iri(person),
        post: iri(reply.dst),
        message: iri(reply.dst),
        comment: iri(reply.src),
        min_date: dates[dates.len() / 2],
    };
    let non_empty = assert_order_invariant(&s, &x);
    assert_eq!(non_empty.len(), 9, "every shape matches something: {non_empty:?}");
}

/// Many posts and `knows` edges, of which person 7 has just two of each.
fn skewed_store() -> TripleStore {
    let s = TripleStore::new();
    for id in 1..=100 {
        s.insert_vertex(VertexLabel::Person, id, &[]);
    }
    let mut post = 0;
    for creator in 1..=100 {
        for _ in 0..if creator == 7 { 2 } else { 30 } {
            post += 1;
            s.insert_vertex(VertexLabel::Post, post, &[(PropKey::CreationDate, Value::Date(post as i64))]);
            s.insert_edge(EdgeLabel::HasCreator, Vid::new(VertexLabel::Post, post), p(creator), &[]);
        }
    }
    for a in 1..=100u64 {
        for b in (a + 1..=100).filter(|&b| a != 7 && b != 7 && (b - a) % 7 == 1) {
            s.insert_edge(EdgeLabel::Knows, p(a), p(b), &[(PropKey::CreationDate, Value::Date(1))]);
        }
    }
    s.insert_edge(EdgeLabel::Knows, p(7), p(1), &[(PropKey::CreationDate, Value::Date(2))]);
    s.insert_edge(EdgeLabel::Knows, p(7), p(2), &[(PropKey::CreationDate, Value::Date(3))]);
    s
}

/// Triples the index scans produced while running `query`.
fn touched(s: &TripleStore, query: &str) -> (u64, usize) {
    let before = scanned_triples();
    let rows = s.sparql(query).unwrap().len();
    (scanned_triples() - before, rows)
}

#[test]
fn planner_anchors_on_the_creator_not_on_every_post() {
    let s = skewed_store();
    let all_posts = s.sparql("SELECT COUNT(*) WHERE { ?m rdf:type 'post' }").unwrap();
    assert_eq!(all_posts.scalar(), Some(&Value::Int(99 * 30 + 2)));
    for body in [
        "?m snb:has_creator person:7 . ?m rdf:type 'post' . ?m snb:id ?id",
        "?m rdf:type 'post' . ?m snb:has_creator person:7 . ?m snb:id ?id",
    ] {
        let (n, rows) = touched(&s, &format!("SELECT ?id WHERE {{ {body} }}"));
        assert_eq!(rows, 2, "{body}");
        // Two posts and a handful of capped counting steps, not ~3000.
        assert!(n <= 64, "{body}: {n} triples scanned");
    }
}

#[test]
fn planner_anchors_is3_on_the_person_not_on_every_knows_edge() {
    let s = skewed_store();
    let all = s.sparql("SELECT COUNT(*) WHERE { ?k rdf:type 'knows' }").unwrap();
    assert!(all.scalar().and_then(Value::as_int).unwrap() > 1000, "{all:?}");
    for body in [
        "?k rdf:type 'knows' . ?k snb:src person:7 . ?k snb:dst ?f",
        "?k snb:src person:7 . ?k rdf:type 'knows' . ?k snb:dst ?f",
    ] {
        let (n, rows) = touched(&s, &format!("SELECT ?f WHERE {{ {body} }}"));
        assert_eq!(rows, 2, "{body}");
        assert!(n <= 64, "{body}: {n} triples scanned");
    }
}
