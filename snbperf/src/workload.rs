//! Inputs shared by the three workloads: datasets, read classes,
//! seeded parameter streams, the Gremlin traversal mix, and the row
//! normalisation used by the cross-engine output checks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snb_bench::Zipf;
use snb_core::{EdgeLabel, FastMap, FastSet, GraphBackend, PropKey, Value, VertexLabel, Vid};
use snb_datagen::{GeneratedData, GeneratorConfig};
use snb_driver::adapter::OpResult;
use snb_driver::ops::{ParamGen, ReadOp};
use snb_gremlin::{Predicate, Traversal};
use std::time::{Duration, Instant};

/// Persons in the engine_matrix / gremlin_tcp_hot dataset: well above
/// the 4096-entry adapter and reactor result caches.
pub const MATRIX_PERSONS: usize = 6000;
/// Persons in the ingest_reads dataset (its stream is ~7.5 ops/person).
pub const INGEST_PERSONS: usize = 10_000;
/// Zipf exponent of the gremlin_tcp_hot start vertices.
pub const ZIPF_S: f64 = 1.1;

/// The end-to-end read classes, in metric order.
pub const CLASSES: [&str; 6] = [
    "point_lookup",
    "one_hop",
    "two_hop",
    "shortest_path",
    "short_read",
    "complex_read",
];

pub fn class_of(op: &ReadOp) -> usize {
    match op {
        ReadOp::PointLookup { .. } => 0,
        ReadOp::OneHop { .. } => 1,
        ReadOp::TwoHop { .. } => 2,
        ReadOp::ShortestPath { .. } => 3,
        ReadOp::Is1Profile { .. }
        | ReadOp::Is2RecentMessages { .. }
        | ReadOp::Is3Friends { .. }
        | ReadOp::Is4MessageContent { .. }
        | ReadOp::Is5MessageCreator { .. }
        | ReadOp::Is6MessageForum { .. }
        | ReadOp::Is7MessageReplies { .. } => 4,
        ReadOp::Complex2Hop { .. }
        | ReadOp::RecentFriendMessages { .. }
        | ReadOp::IcFoafPosts { .. }
        | ReadOp::IcMutualFriends { .. } => 5,
    }
}

/// Read class of each kind in [`matrix_kinds`] order (see [`class_of`]).
pub const KIND_CLASS: [usize; 15] = [0, 1, 2, 3, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5];

/// Index of `op`'s kind in [`matrix_kinds`].
pub fn kind_of(op: &ReadOp) -> usize {
    matrix_kinds()
        .iter()
        .position(|k| *k == op.name())
        .expect("every ReadOp kind is listed")
}

/// All fifteen `ReadOp` kinds, by `ReadOp::name`.
pub fn matrix_kinds() -> [&'static str; 15] {
    [
        "point_lookup",
        "1-hop",
        "2-hop",
        "shortest_path",
        "IS1",
        "IS2",
        "IS3",
        "IS4",
        "IS5",
        "IS6",
        "IS7",
        "complex_2hop",
        "complex_friend_messages",
        "complex_foaf_posts",
        "complex_mutual_friends",
    ]
}

/// Mix a benchmark seed into a derived stream seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator config of a workload's dataset (memory-lean preset).
pub fn dataset_config(persons: usize, seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        seed: mix(seed, 1),
        ..GeneratorConfig::scale(persons)
    }
}

/// The snapshot with the whole stream applied: what the adapters hold
/// when the reads start (parameters and oracles are drawn from it).
pub fn after_stream(data: &GeneratedData) -> GeneratedData {
    let mut snapshot = data.snapshot.clone();
    for op in &data.updates {
        snapshot.vertices.extend(op.new_vertex.iter().cloned());
        snapshot.edges.extend(op.new_edges.iter().cloned());
    }
    GeneratedData {
        snapshot,
        updates: Vec::new(),
        cut_ms: data.cut_ms,
    }
}

/// What the parameter streams draw from, derived once per dataset:
/// the persons, the undirected Knows adjacency, the persons eligible
/// as complex-read starts, and the shortest-path pairs.
///
/// Complex reads start from the persons whose 1..2-hop Knows ring size
/// lies in the middle fifth of the ring-size distribution — LDBC-style
/// parameter curation, so one run's complex reads do comparable work
/// whatever the seed (a single SPARQL `IcFoafPosts` costs 0.3–1.5 s
/// depending on the ring, and a run holds only a few).
///
/// Shortest paths are curated for fixed work. Candidates are a uniform
/// start and a target in its 3-hop ball (Gremlin's `repeat_both_until`
/// enumerates simple paths, and pairs further apart can exceed the
/// executor's traverser budget and fail); the pairs kept are the ones
/// whose enumeration creates closest to [`SP_TARGET_PATHS`] paths before
/// it reaches the target. On the native store a pair's in-process time
/// is about 6 µs + 0.115 µs per path created (R² 0.94 over 15K pairs of
/// five datasets). Uncurated, one pair costs 8 to 120 µs (10th to 90th
/// percentile), the median moves 20% between the 45th and 55th
/// percentile, and a denser dataset has costlier pairs, so the seed, or
/// a host that stalls a tenth of the ops, moved the class median.
pub struct Inputs {
    persons: Vec<u64>,
    /// Knows neighbours: out-neighbours in edge order, then
    /// in-neighbours in edge order — the order the native CSR lists
    /// `both(Knows)`, so [`Inputs::paths_before_hit`] replays the Gremlin
    /// executor's enumeration on the native store exactly.
    adj: FastMap<u64, Vec<u64>>,
    complex: Vec<u64>,
    sp_pairs: Vec<(u64, u64)>,
}

/// Shortest-path candidates drawn per dataset, with a fixed seed (the
/// dataset already varies with `--seed`), and how many are kept.
const SP_CANDIDATES: usize = 4000;
const SP_CANDIDATE_SEED: u64 = 0x5EED_5A7B;
const SP_PAIRS: usize = 400;
/// Paths a kept shortest-path pair creates, about the candidates' median
/// at [`MATRIX_PERSONS`].
const SP_TARGET_PATHS: usize = 300;

impl Inputs {
    pub fn new(data: &GeneratedData) -> Self {
        let persons: Vec<u64> = data
            .snapshot
            .vertices_of(VertexLabel::Person)
            .map(|v| v.id)
            .collect();
        let mut adj: FastMap<u64, Vec<u64>> = FastMap::default();
        let mut in_adj: FastMap<u64, Vec<u64>> = FastMap::default();
        for e in data
            .snapshot
            .edges
            .iter()
            .filter(|e| e.label == EdgeLabel::Knows)
        {
            adj.entry(e.src.local()).or_default().push(e.dst.local());
            in_adj.entry(e.dst.local()).or_default().push(e.src.local());
        }
        for (p, ins) in in_adj {
            adj.entry(p).or_default().extend(ins);
        }
        let mut inputs = Inputs {
            persons,
            adj,
            complex: Vec::new(),
            sp_pairs: Vec::new(),
        };
        let mut ring: Vec<(usize, u64)> = inputs
            .persons
            .iter()
            .map(|&p| (inputs.ball(p, 2).len(), p))
            .collect();
        ring.sort_unstable();
        let n = ring.len();
        inputs.complex = ring[n * 2 / 5..(n * 3 / 5).max(n * 2 / 5 + 1)]
            .iter()
            .map(|&(_, p)| p)
            .collect();
        let mut rng = StdRng::seed_from_u64(SP_CANDIDATE_SEED);
        let mut pairs: Vec<(usize, u64, u64)> = Vec::new();
        for _ in 0..SP_CANDIDATES {
            let a = inputs.persons[rng.gen_range(0..inputs.persons.len())];
            let ball = inputs.ball(a, 3);
            if !ball.is_empty() {
                let b = ball[rng.gen_range(0..ball.len())];
                pairs.push((inputs.paths_before_hit(a, b), a, b));
            }
        }
        pairs.sort_unstable_by_key(|&(paths, a, b)| (paths.abs_diff(SP_TARGET_PATHS), a, b));
        inputs.sp_pairs = pairs
            .iter()
            .take(SP_PAIRS)
            .map(|&(_, a, b)| (a, b))
            .collect();
        inputs
    }

    fn neighbours(&self, p: u64) -> &[u64] {
        self.adj.get(&p).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Simple paths `repeat(both(Knows).simplePath()).until(hasId(b))`
    /// creates from `a` before it reaches `b`: level order, each path
    /// extended over its head's neighbours in [`Inputs::adj`] order,
    /// stopping at the first hit. `b` lies within 3 hops of `a`.
    fn paths_before_hit(&self, a: u64, b: u64) -> usize {
        let mut level = vec![vec![a]];
        let mut created = 0;
        while !level.is_empty() {
            let mut next = Vec::new();
            for path in &level {
                for &v in self.neighbours(*path.last().expect("paths are non-empty")) {
                    if path.contains(&v) {
                        continue;
                    }
                    created += 1;
                    if v == b {
                        return created;
                    }
                    let mut longer = path.clone();
                    longer.push(v);
                    next.push(longer);
                }
            }
            level = next;
        }
        created
    }

    /// Persons within `depth` undirected Knows hops of `p`, `p` excluded.
    fn ball(&self, p: u64, depth: usize) -> Vec<u64> {
        let mut seen: FastSet<u64> = FastSet::default();
        seen.insert(p);
        let mut level = vec![p];
        let mut out = Vec::new();
        for _ in 0..depth {
            let mut next = Vec::new();
            for v in &level {
                for &n in self.neighbours(*v) {
                    if seen.insert(n) {
                        next.push(n);
                        out.push(n);
                    }
                }
            }
            level = next;
        }
        out.sort_unstable();
        out
    }
}

/// A seeded parameter stream. Point-shaped and short reads draw persons
/// uniformly (so the adapter caches mostly miss on engine_matrix);
/// complex reads and shortest paths are curated as [`Inputs`] describes.
pub struct ParamStream<'a> {
    inputs: &'a Inputs,
    gen: ParamGen,
    rng: StdRng,
}

impl<'a> ParamStream<'a> {
    pub fn new(data: &GeneratedData, inputs: &'a Inputs, seed: u64) -> Self {
        ParamStream {
            inputs,
            gen: ParamGen::new(data, mix(seed, 2)),
            rng: StdRng::seed_from_u64(mix(seed, 3)),
        }
    }

    fn complex_person(&mut self) -> u64 {
        self.inputs.complex[self.rng.gen_range(0..self.inputs.complex.len())]
    }

    /// A curated shortest-path pair (see [`Inputs`]); a uniform person
    /// and itself when no person has a friend.
    pub fn sp_pair(&mut self) -> (u64, u64) {
        let pairs = &self.inputs.sp_pairs;
        if pairs.is_empty() {
            let a = self.gen.person();
            return (a, a);
        }
        pairs[self.rng.gen_range(0..pairs.len())]
    }

    fn shortest_path(&mut self) -> ReadOp {
        let (a, b) = self.sp_pair();
        ReadOp::ShortestPath { a, b }
    }

    /// One operation of the named kind.
    pub fn op(&mut self, kind: &str) -> ReadOp {
        let g = &mut self.gen;
        match kind {
            "point_lookup" | "1-hop" | "2-hop" => g.micro_op(kind),
            "shortest_path" => self.shortest_path(),
            "IS1" => ReadOp::Is1Profile { person: g.person() },
            "IS2" => ReadOp::Is2RecentMessages {
                person: g.person(),
                limit: 10,
            },
            "IS3" => ReadOp::Is3Friends { person: g.person() },
            "IS4" => ReadOp::Is4MessageContent {
                message: g.message(),
            },
            "IS5" => ReadOp::Is5MessageCreator {
                message: g.message(),
            },
            "IS6" => ReadOp::Is6MessageForum { post: g.post() },
            "IS7" => ReadOp::Is7MessageReplies {
                message: g.message(),
            },
            "complex_2hop" => {
                let first_name = g.first_name();
                ReadOp::Complex2Hop {
                    person: self.complex_person(),
                    first_name,
                    limit: 20,
                }
            }
            "complex_friend_messages" => ReadOp::RecentFriendMessages {
                person: self.complex_person(),
                limit: 20,
            },
            "complex_foaf_posts" => {
                let min_date = g.min_date();
                ReadOp::IcFoafPosts {
                    person: self.complex_person(),
                    min_date,
                    limit: 20,
                }
            }
            "complex_mutual_friends" => ReadOp::IcMutualFriends {
                person: self.complex_person(),
                limit: 10,
            },
            other => panic!("unknown read kind `{other}`"),
        }
    }

    pub fn draw(&mut self, kind: &str, n: usize) -> Vec<ReadOp> {
        (0..n).map(|_| self.op(kind)).collect()
    }

    /// The ingest_reads reader stream: §4.3's interactive mix (complex
    /// persons curated as above), with every 20th read a two-hop and
    /// every 20th a shortest path, so all six read classes are seen
    /// under writes.
    pub fn interactive(&mut self, i: u64) -> ReadOp {
        match i % 20 {
            9 => self.gen.micro_op("2-hop"),
            19 => self.shortest_path(),
            _ => match self.gen.interactive_read() {
                ReadOp::Complex2Hop {
                    first_name, limit, ..
                } => ReadOp::Complex2Hop {
                    person: self.complex_person(),
                    first_name,
                    limit,
                },
                op => op,
            },
        }
    }

    pub fn first_name(&mut self) -> String {
        self.gen.first_name()
    }

    /// A Zipf(`s`) sampler over the persons, ranked by a seeded shuffle.
    pub fn zipf_persons(&mut self, s: f64) -> ZipfPersons {
        let mut ranked = self.inputs.persons.clone();
        for i in (1..ranked.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            ranked.swap(i, j);
        }
        let zipf = Zipf::new(ranked.len(), s, self.rng.gen());
        ZipfPersons { ranked, zipf }
    }
}

pub struct ZipfPersons {
    ranked: Vec<u64>,
    zipf: Zipf,
}

impl ZipfPersons {
    pub fn next(&mut self) -> u64 {
        self.ranked[self.zipf.next()]
    }
}

fn pv(id: u64) -> Vid {
    Vid::new(VertexLabel::Person, id)
}

/// The traversal kinds of gremlin_tcp_hot: name and read class.
pub const GREMLIN_KINDS: [(&str, usize); 9] = [
    ("point_value_map", 0),
    ("one_hop", 1),
    ("two_hop", 2),
    ("shortest_path", 3),
    ("is1_city", 4),
    ("is2_messages", 4),
    ("is3_friend_dates", 4),
    ("complex_2hop_branch", 5),
    ("friend_messages", 5),
];

/// One round of gremlin_tcp_hot: `(kind, traversal)`, kinds indexing
/// [`GREMLIN_KINDS`], with Zipf start vertices except for shortest paths,
/// which take the curated pairs of [`Inputs`]: they bypass the result
/// cache either way, and a Zipf start would put a hub at the head of most
/// pairs, where simple-path enumeration cost swings tenfold with the
/// seed. Per round: 16 point, 16 one-hop, 8 two-hop, 2 shortest path, 4
/// of each short read and 2 of each complex read.
pub fn gremlin_round(params: &mut ParamStream, hot: &mut ZipfPersons) -> Vec<(usize, Traversal)> {
    let mut out = Vec::new();
    for _ in 0..16 {
        out.push((0, Traversal::v(pv(hot.next())).value_map()));
    }
    for _ in 0..16 {
        let t = Traversal::v(pv(hot.next())).both(EdgeLabel::Knows).dedup();
        out.push((1, t.values(PropKey::Id)));
    }
    for _ in 0..8 {
        let t = Traversal::v(pv(hot.next()))
            .both(EdgeLabel::Knows)
            .both(EdgeLabel::Knows);
        out.push((2, t.dedup().values(PropKey::Id)));
    }
    for _ in 0..2 {
        let (a, b) = params.sp_pair();
        let t = Traversal::v(pv(a)).repeat_both_until(EdgeLabel::Knows, pv(b), 10);
        out.push((3, t.path_len()));
    }
    for _ in 0..4 {
        let t = Traversal::v(pv(hot.next())).out(EdgeLabel::IsLocatedIn);
        out.push((4, t.values(PropKey::Id)));
        let t = Traversal::v(pv(hot.next())).in_(EdgeLabel::HasCreator);
        out.push((
            5,
            t.order_by(PropKey::CreationDate, false)
                .limit(10)
                .value_map(),
        ));
        let t = Traversal::v(pv(hot.next())).both_e(EdgeLabel::Knows);
        out.push((
            6,
            t.order_by(PropKey::CreationDate, false)
                .edge_values(PropKey::CreationDate),
        ));
    }
    for _ in 0..2 {
        let name = Predicate::Eq(Value::str(&params.first_name()));
        let t = Traversal::v(pv(hot.next()))
            .both(EdgeLabel::Knows)
            .both(EdgeLabel::Knows);
        out.push((7, t.dedup().has(PropKey::FirstName, name).value_map()));
        let t = Traversal::v(pv(hot.next())).both(EdgeLabel::Knows).dedup();
        let t = t
            .in_(EdgeLabel::HasCreator)
            .order_by(PropKey::CreationDate, false);
        out.push((8, t.limit(20).value_map()));
    }
    out
}

/// Rows in the form engines must agree on: sorted rows, except for the
/// two "latest messages" reads, whose limit boundary can cut a tie
/// group differently per engine — they compare their sorted dates.
pub fn canonical(op: &ReadOp, rows: &OpResult) -> OpResult {
    let mut rows: OpResult = match op {
        ReadOp::Is2RecentMessages { .. } | ReadOp::RecentFriendMessages { .. } => rows
            .iter()
            .map(|r| vec![r.get(1).cloned().unwrap_or(Value::Null)])
            .collect(),
        _ => rows.clone(),
    };
    rows.sort();
    rows
}

/// Wait until `backend` serves a snapshot that is exact for its write
/// sequence (the background compactor has folded, or the snapshot
/// cache has built). Returns false on timeout.
pub fn settle(backend: &dyn GraphBackend, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if backend.pin_snapshot().is_some() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_datagen::generate;

    #[test]
    fn kinds_map_to_their_classes() {
        let data = generate(&dataset_config(150, 3));
        let inputs = Inputs::new(&data);
        let mut params = ParamStream::new(&data, &inputs, 3);
        for (k, kind) in matrix_kinds().iter().enumerate() {
            let op = params.op(kind);
            assert_eq!(kind_of(&op), k);
            assert_eq!(KIND_CLASS[k], class_of(&op), "{kind}");
        }
        for i in 0..200 {
            let op = params.interactive(i);
            assert_eq!(KIND_CLASS[kind_of(&op)], class_of(&op));
        }
    }
}
