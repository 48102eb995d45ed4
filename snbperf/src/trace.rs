//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into
//! each layer's public API: name, start, end, parent span and request
//! id. They stay in memory and are written out when the run ends,
//! together with per-name self times (a span's duration minus the part
//! its child spans cover).

use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = 0;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Intern a span name built at set-up time (the set of names is small
/// and fixed per workload, so the leak is bounded).
pub fn intern(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut names = NAMES
        .get_or_init(Default::default)
        .lock()
        .expect("intern table poisoned");
    if let Some(&n) = names.get(name) {
        return n;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    names.insert(leaked);
    leaked
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserve a span id so children can name it as their parent
    /// before the span itself ends.
    pub fn reserve(&self) -> u32 {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            ROOT
        }
    }

    /// Record a finished span under a reserved id.
    pub fn record_as(
        &self,
        id: u32,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Record a finished span with a fresh id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.reserve();
        self.record_as(id, name, parent, req, start, end);
        id
    }

    /// Run `f` inside a root span.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, ROOT, req, t0, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Per-name `(count, total_ns, self_ns)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &spans {
            if s.parent != ROOT {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        out
    }

    /// Write every span and the per-name self-time summary.
    pub fn write(&self, dir: &Path, workload: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("trace-{workload}.tsv")),
        )?);
        writeln!(f, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in self.spans() {
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("selftime-{workload}.tsv")),
        )?);
        writeln!(f, "name\tcount\ttotal_us\tself_us\tmean_us\tmean_self_us")?;
        for (name, (n, total, own)) in self.summary() {
            writeln!(
                f,
                "{name}\t{n}\t{:.1}\t{:.1}\t{:.3}\t{:.3}",
                total as f64 / 1e3,
                own as f64 / 1e3,
                total as f64 / 1e3 / n as f64,
                own as f64 / 1e3 / n as f64
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let t0 = Instant::now();
        let parent = t.reserve();
        t.record("child", parent, 1, t0, t0 + Duration::from_nanos(300));
        t.record_as(
            parent,
            "parent",
            ROOT,
            1,
            t0,
            t0 + Duration::from_nanos(1000),
        );
        let s = t.summary();
        assert_eq!(s["parent"], (1, 1000, 700));
        assert_eq!(s["child"], (1, 300, 300));
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("x", 0, || ());
        assert!(t.spans().is_empty());
        assert_eq!(intern("a.b"), intern("a.b"));
    }
}
