//! CI smoke gate for the million-vertex scale pipeline: runs the full
//! streaming build (generator → bulk load + partitioned ingest drain →
//! CSR fold) at a CI-sized person count and asserts its invariants —
//! a clean drain, a CSR that covers every vertex, the
//! memory-accounting ceiling on adjacency bytes, and live complex-read
//! operators.
//!
//! Usage: `cargo run --release -p snb-bench --bin scale_smoke`
//! (`SNB_SCALE_PERSONS` sizes the run; CI uses the 100K default.)

use snb_bench::scale::{run_scale, ScaleConfig};

/// Adjacency-bytes ceiling: a stored edge is one u32 target in an
/// out-list plus one in an in-list (8 bytes); the per-label offset
/// columns (amortized over edges) and the edge-property slots must keep
/// the total under 64 — a pointer-heavy adjacency map blows straight
/// through this.
const BYTES_PER_EDGE_CEILING: f64 = 64.0;

fn main() {
    let cfg = ScaleConfig::from_env();
    eprintln!(
        "[scale_smoke] persons={} chunk={} appliers={}",
        cfg.persons, cfg.chunk_size, cfg.appliers
    );
    let rep = run_scale(&cfg);
    eprintln!(
        "[scale_smoke] built {} vertices / {} edges in {:.1}s ({} chunks, \
         {} updates at {:.0}/s); {:.2} B/vertex, {:.2} B/edge, {} MiB resident",
        rep.vertices,
        rep.edges,
        rep.build_seconds,
        rep.chunks,
        rep.stream_updates,
        rep.ingest_updates_per_sec,
        rep.bytes_per_vertex,
        rep.bytes_per_edge,
        rep.resident_bytes / (1 << 20),
    );
    eprintln!(
        "[scale_smoke] reads: two_hop {:.0}/s, foaf_posts {:.0}/s, recent_messages {:.0}/s, \
         mutual_friends {:.0}/s",
        rep.two_hop_ops_per_sec,
        rep.foaf_posts_per_sec,
        rep.recent_messages_per_sec,
        rep.mutual_friends_per_sec
    );

    let mut fail = false;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("[scale_smoke] FAIL: {what}");
            fail = true;
        }
    };
    check(rep.vertices >= rep.persons, "at least one vertex per person");
    check(rep.edges > rep.vertices, "graph denser than a forest");
    check(rep.stream_updates > 0, "post-cut stream reached the ingest path");
    check(rep.chunks > 1, "emission actually chunked");
    check(
        rep.bytes_per_edge > 0.0 && rep.bytes_per_edge <= BYTES_PER_EDGE_CEILING,
        "bytes_per_edge within the memory-lean ceiling",
    );
    check(rep.two_hop_ops_per_sec > 0.0, "two-hop reads live");
    check(rep.foaf_posts_per_sec > 0.0, "foaf_posts reads live");
    check(rep.recent_messages_per_sec > 0.0, "recent_messages reads live");
    check(rep.mutual_friends_per_sec > 0.0, "mutual_friends reads live");
    if fail {
        std::process::exit(1);
    }
    println!(
        "[scale_smoke] OK: {} persons, {:.2} B/edge, complex reads live",
        rep.persons, rep.bytes_per_edge
    );
}
