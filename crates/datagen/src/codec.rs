//! Compact binary codec for the update stream.
//!
//! The driver's producer used to serialize every [`UpdateOp`] to JSON
//! before appending it to the message log, and the writer thread paid
//! the matching parse cost per op — pure reproduction overhead that the
//! paper's substrate (Kafka + hand-rolled consumers) does not charge.
//! This module replaces that with a hand-rolled, length-prefixed,
//! little-endian binary format. Layout (all integers little-endian):
//!
//! ```text
//! UpdateOp  := kind:u8 ts_ms:i64 dependency_ms:i64
//!              has_vertex:u8 [VertexRec] edge_count:u32 EdgeRec*
//! VertexRec := vid:u64 creation_ms:i64 Props
//! EdgeRec   := label:u8 src:u64 dst:u64 creation_ms:i64 Props
//! Props     := count:u16 (key:u8 Value)*
//! Value     := tag:u8 payload   (strings/lists length-prefixed)
//! ```

use crate::model::{EdgeRec, UpdateKind, UpdateOp, VertexRec};
use snb_core::{EdgeLabel, PropKey, Result, SnbError, Value, Vid};

const KINDS: [UpdateKind; 8] = [
    UpdateKind::AddPerson,
    UpdateKind::AddLikePost,
    UpdateKind::AddLikeComment,
    UpdateKind::AddForum,
    UpdateKind::AddForumMembership,
    UpdateKind::AddPost,
    UpdateKind::AddComment,
    UpdateKind::AddFriendship,
];

fn kind_tag(kind: UpdateKind) -> u8 {
    KINDS.iter().position(|k| *k == kind).unwrap() as u8
}

/// Deepest list nesting a record may carry. Decoding recurses once per
/// level, so an uncapped depth lets a small record overflow the
/// decoding thread's stack. The generator emits lists one level deep.
const MAX_NESTING: u32 = 32;

struct Reader<'a> {
    data: &'a [u8],
    /// Current nesting depth of list values.
    depth: u32,
}

impl<'a> Reader<'a> {
    /// Enter one list level, failing past [`MAX_NESTING`]; pair with
    /// `self.depth -= 1` on the way out.
    fn nest(&mut self) -> Result<()> {
        if self.depth >= MAX_NESTING {
            return Err(SnbError::Codec(format!("update op nests deeper than {MAX_NESTING}")));
        }
        self.depth += 1;
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.data.len() < n {
            return Err(SnbError::Codec("truncated update op".into()));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    fn vid(&mut self) -> Result<Vid> {
        Vid::from_raw(self.u64()?)
    }
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Date(d) => {
            out.push(5);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Vertex(v) => {
            out.push(6);
            out.extend_from_slice(&v.raw().to_le_bytes());
        }
        Value::List(items) => {
            out.push(7);
            out.extend_from_slice(&(items.len() as u16).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
    }
}

fn decode_value(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.u8()? != 0),
        2 => Value::Int(r.i64()?),
        3 => Value::Float(f64::from_bits(r.u64()?)),
        4 => {
            let len = r.u32()? as usize;
            let raw = r.take(len)?;
            let s = std::str::from_utf8(raw)
                .map_err(|_| SnbError::Codec("invalid utf-8 in update op".into()))?;
            Value::string(s.to_string())
        }
        5 => Value::Date(r.i64()?),
        6 => Value::Vertex(r.vid()?),
        7 => {
            let n = r.u16()? as usize;
            r.nest()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(r)?);
            }
            r.depth -= 1;
            Value::List(items)
        }
        other => return Err(SnbError::Codec(format!("unknown value tag {other}"))),
    })
}

fn encode_props(props: &[(PropKey, Value)], out: &mut Vec<u8>) {
    out.extend_from_slice(&(props.len() as u16).to_le_bytes());
    for (k, v) in props {
        out.push(*k as u8);
        encode_value(v, out);
    }
}

fn decode_props(r: &mut Reader<'_>) -> Result<Vec<(PropKey, Value)>> {
    let n = r.u16()? as usize;
    let mut props = Vec::with_capacity(n);
    for _ in 0..n {
        let key = PropKey::from_tag(r.u8()?)?;
        props.push((key, decode_value(r)?));
    }
    Ok(props)
}

fn encode_vertex(v: &VertexRec, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.vid().raw().to_le_bytes());
    out.extend_from_slice(&v.creation_ms.to_le_bytes());
    encode_props(&v.props, out);
}

fn decode_vertex(r: &mut Reader<'_>) -> Result<VertexRec> {
    let vid = r.vid()?;
    let creation_ms = r.i64()?;
    let props = decode_props(r)?;
    Ok(VertexRec { label: vid.label(), id: vid.local(), props, creation_ms })
}

fn encode_edge(e: &EdgeRec, out: &mut Vec<u8>) {
    out.push(e.label as u8);
    out.extend_from_slice(&e.src.raw().to_le_bytes());
    out.extend_from_slice(&e.dst.raw().to_le_bytes());
    out.extend_from_slice(&e.creation_ms.to_le_bytes());
    encode_props(&e.props, out);
}

fn decode_edge(r: &mut Reader<'_>) -> Result<EdgeRec> {
    let label = EdgeLabel::from_tag(r.u8()?)?;
    let src = r.vid()?;
    let dst = r.vid()?;
    let creation_ms = r.i64()?;
    let props = decode_props(r)?;
    Ok(EdgeRec { label, src, dst, props, creation_ms })
}

impl UpdateOp {
    /// Encode to the compact binary wire format.
    pub fn encode_binary(&self) -> Vec<u8> {
        // 26 fixed header bytes plus a rough per-edge estimate.
        let mut out = Vec::with_capacity(32 + self.new_edges.len() * 48);
        out.push(kind_tag(self.kind));
        out.extend_from_slice(&self.ts_ms.to_le_bytes());
        out.extend_from_slice(&self.dependency_ms.to_le_bytes());
        match &self.new_vertex {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                encode_vertex(v, &mut out);
            }
        }
        out.extend_from_slice(&(self.new_edges.len() as u32).to_le_bytes());
        for e in &self.new_edges {
            encode_edge(e, &mut out);
        }
        out
    }

    /// Decode from the compact binary wire format.
    pub fn decode_binary(data: &[u8]) -> Result<UpdateOp> {
        let mut r = Reader { data, depth: 0 };
        let kind = *KINDS
            .get(r.u8()? as usize)
            .ok_or_else(|| SnbError::Codec("unknown update kind tag".into()))?;
        let ts_ms = r.i64()?;
        let dependency_ms = r.i64()?;
        let new_vertex = match r.u8()? {
            0 => None,
            1 => Some(decode_vertex(&mut r)?),
            other => return Err(SnbError::Codec(format!("bad vertex marker {other}"))),
        };
        let n_edges = r.u32()? as usize;
        let mut new_edges = Vec::with_capacity(n_edges.min(1024));
        for _ in 0..n_edges {
            new_edges.push(decode_edge(&mut r)?);
        }
        if !r.data.is_empty() {
            return Err(SnbError::Codec(format!(
                "{} trailing bytes after update op",
                r.data.len()
            )));
        }
        Ok(UpdateOp { kind, ts_ms, dependency_ms, new_vertex, new_edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_core::VertexLabel;

    fn sample_op() -> UpdateOp {
        UpdateOp {
            kind: UpdateKind::AddComment,
            ts_ms: 1_234_567,
            dependency_ms: -12,
            new_vertex: Some(VertexRec {
                label: VertexLabel::Comment,
                id: 77,
                props: vec![
                    (PropKey::Content, Value::str("hello")),
                    (PropKey::Length, Value::Int(5)),
                    (PropKey::CreationDate, Value::Date(1_234_567)),
                    (PropKey::Speaks, Value::List(vec![Value::str("en"), Value::Null])),
                ],
                creation_ms: 1_234_567,
            }),
            new_edges: vec![EdgeRec {
                label: EdgeLabel::ReplyOf,
                src: Vid::new(VertexLabel::Comment, 77),
                dst: Vid::new(VertexLabel::Post, 3),
                props: vec![],
                creation_ms: 1_234_567,
            }],
        }
    }

    #[test]
    fn binary_roundtrip() {
        let op = sample_op();
        let bytes = op.encode_binary();
        assert_eq!(UpdateOp::decode_binary(&bytes).unwrap(), op);
    }

    #[test]
    fn binary_is_compact() {
        // The point of the codec: far smaller than the ~400-byte JSON
        // this op used to serialize to.
        let bytes = sample_op().encode_binary();
        assert!(bytes.len() < 150, "encoded {} bytes", bytes.len());
    }

    #[test]
    fn truncation_and_garbage_error() {
        let bytes = sample_op().encode_binary();
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(UpdateOp::decode_binary(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(UpdateOp::decode_binary(&trailing).is_err());
        let mut bad_kind = bytes;
        bad_kind[0] = 200;
        assert!(UpdateOp::decode_binary(&bad_kind).is_err());
    }

    /// Decode on a thread with a 2 MiB stack, so unbounded recursion
    /// aborts the test binary instead of passing on a large main stack.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .expect("spawn decoder thread")
            .join()
            .expect("decoder thread")
    }

    /// An AddPerson record whose one property is `depth` one-element
    /// lists nested around a null: about 3 bytes per level.
    fn nested_list_record(depth: usize) -> Vec<u8> {
        let mut bytes = vec![kind_tag(UpdateKind::AddPerson)];
        bytes.extend_from_slice(&0i64.to_le_bytes()); // ts_ms
        bytes.extend_from_slice(&0i64.to_le_bytes()); // dependency_ms
        bytes.push(1); // has a vertex
        bytes.extend_from_slice(&Vid::new(VertexLabel::Person, 1).raw().to_le_bytes());
        bytes.extend_from_slice(&0i64.to_le_bytes()); // creation_ms
        bytes.extend_from_slice(&1u16.to_le_bytes()); // one property
        bytes.push(PropKey::Speaks as u8);
        for _ in 0..depth {
            bytes.push(7); // List tag
            bytes.extend_from_slice(&1u16.to_le_bytes());
        }
        bytes.push(0); // Null
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no edges
        bytes
    }

    #[test]
    fn deeply_nested_lists_error_instead_of_overflowing_the_stack() {
        let bytes = nested_list_record(200_000);
        assert!(bytes.len() > 600_000);
        let r = on_small_stack(move || UpdateOp::decode_binary(&bytes));
        assert!(matches!(r, Err(SnbError::Codec(_))), "{r:?}");
    }

    #[test]
    fn lists_nested_exactly_to_the_cap_decode() {
        let bytes = nested_list_record(MAX_NESTING as usize);
        let op = on_small_stack(move || UpdateOp::decode_binary(&bytes)).unwrap();
        let mut v = &op.new_vertex.as_ref().unwrap().props[0].1;
        for _ in 0..MAX_NESTING {
            match v {
                Value::List(items) => v = &items[0],
                other => panic!("expected a list, got {other:?}"),
            }
        }
        assert_eq!(*v, Value::Null);
        let deeper = nested_list_record(MAX_NESTING as usize + 1);
        assert!(matches!(UpdateOp::decode_binary(&deeper), Err(SnbError::Codec(_))));
    }
}
