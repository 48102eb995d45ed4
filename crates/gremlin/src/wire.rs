//! Binary wire protocol for the Gremlin Server analogue.
//!
//! Real Gremlin Server speaks GraphBinary, not JSON; this module plays
//! that role for the in-process server. Requests (a [`Traversal`]) and
//! responses (a `Vec<Value>`) are encoded to a compact little-endian,
//! length-prefixed format. The encode/queue/decode/execute/encode/decode
//! round-trip the paper charges to "Neo4j (Gremlin)" is preserved — it
//! is just no longer paying a JSON-parsing tax that the modelled system
//! never paid.

use crate::traversal::{Predicate, Step, Traversal};
use snb_core::ids::VERTEX_LABELS;
use snb_core::{EdgeLabel, PropKey, Result, SnbError, Value, VertexLabel, Vid};

/// Deepest nesting of `repeat` bodies and list values a frame may
/// carry. Decoding recurses once per level, so an uncapped depth lets a
/// small frame overflow the decoding thread's stack.
const MAX_NESTING: u32 = 32;

struct Reader<'a> {
    data: &'a [u8],
    /// Current nesting depth of `repeat` bodies and list values.
    depth: u32,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, depth: 0 }
    }

    /// Enter one nesting level, failing past [`MAX_NESTING`]; pair with
    /// `self.depth -= 1` on the way out.
    fn nest(&mut self) -> Result<()> {
        if self.depth >= MAX_NESTING {
            return Err(SnbError::Codec(format!("gremlin frame nests deeper than {MAX_NESTING}")));
        }
        self.depth += 1;
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.data.len() < n {
            return Err(SnbError::Codec("truncated gremlin frame".into()));
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

    fn prop_key(&mut self) -> Result<PropKey> {
        PropKey::from_tag(self.u8()?)
    }

    fn edge_label(&mut self) -> Result<EdgeLabel> {
        EdgeLabel::from_tag(self.u8()?)
    }

    fn vertex_label(&mut self) -> Result<VertexLabel> {
        let tag = self.u8()? as usize;
        VERTEX_LABELS
            .get(tag)
            .copied()
            .ok_or_else(|| SnbError::Codec(format!("invalid vertex label tag {tag}")))
    }
}

fn put_value(v: &Value, out: &mut Vec<u8>) {
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
        Value::Vertex(vid) => {
            out.push(6);
            out.extend_from_slice(&vid.raw().to_le_bytes());
        }
        Value::List(items) => {
            out.push(7);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                put_value(item, out);
            }
        }
    }
}

fn get_value(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.u8()? != 0),
        2 => Value::Int(r.i64()?),
        3 => Value::Float(f64::from_bits(r.u64()?)),
        4 => {
            let len = r.u32()? as usize;
            let raw = r.take(len)?;
            let s = std::str::from_utf8(raw)
                .map_err(|_| SnbError::Codec("invalid utf-8 in gremlin frame".into()))?;
            Value::string(s.to_string())
        }
        5 => Value::Date(r.i64()?),
        6 => Value::Vertex(r.vid()?),
        7 => {
            let n = r.u32()? as usize;
            r.nest()?;
            let mut items = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                items.push(get_value(r)?);
            }
            r.depth -= 1;
            Value::List(items)
        }
        other => return Err(SnbError::Codec(format!("unknown value tag {other}"))),
    })
}

fn put_props(props: &[(PropKey, Value)], out: &mut Vec<u8>) {
    out.extend_from_slice(&(props.len() as u16).to_le_bytes());
    for (k, v) in props {
        out.push(*k as u8);
        put_value(v, out);
    }
}

fn get_props(r: &mut Reader<'_>) -> Result<Vec<(PropKey, Value)>> {
    let n = r.u16()? as usize;
    let mut props = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let k = r.prop_key()?;
        props.push((k, get_value(r)?));
    }
    Ok(props)
}

fn put_opt_edge_label(l: &Option<EdgeLabel>, out: &mut Vec<u8>) {
    match l {
        None => out.push(0xFF),
        Some(l) => out.push(*l as u8),
    }
}

fn get_opt_edge_label(r: &mut Reader<'_>) -> Result<Option<EdgeLabel>> {
    let tag = r.u8()?;
    if tag == 0xFF {
        Ok(None)
    } else {
        Ok(Some(EdgeLabel::from_tag(tag)?))
    }
}

fn put_predicate(p: &Predicate, out: &mut Vec<u8>) {
    let (tag, v) = match p {
        Predicate::Eq(v) => (0u8, v),
        Predicate::Neq(v) => (1, v),
        Predicate::Lt(v) => (2, v),
        Predicate::Lte(v) => (3, v),
        Predicate::Gt(v) => (4, v),
        Predicate::Gte(v) => (5, v),
    };
    out.push(tag);
    put_value(v, out);
}

fn get_predicate(r: &mut Reader<'_>) -> Result<Predicate> {
    let tag = r.u8()?;
    let v = get_value(r)?;
    Ok(match tag {
        0 => Predicate::Eq(v),
        1 => Predicate::Neq(v),
        2 => Predicate::Lt(v),
        3 => Predicate::Lte(v),
        4 => Predicate::Gt(v),
        5 => Predicate::Gte(v),
        other => return Err(SnbError::Codec(format!("unknown predicate tag {other}"))),
    })
}

fn put_step(step: &Step, out: &mut Vec<u8>) {
    match step {
        Step::V(id) => {
            out.push(0);
            out.extend_from_slice(&id.raw().to_le_bytes());
        }
        Step::VLabel(l) => {
            out.push(1);
            out.push(*l as u8);
        }
        Step::Out(l) => {
            out.push(2);
            put_opt_edge_label(l, out);
        }
        Step::In(l) => {
            out.push(3);
            put_opt_edge_label(l, out);
        }
        Step::Both(l) => {
            out.push(4);
            put_opt_edge_label(l, out);
        }
        Step::OutE(l) => {
            out.push(5);
            out.push(*l as u8);
        }
        Step::InE(l) => {
            out.push(6);
            out.push(*l as u8);
        }
        Step::BothE(l) => {
            out.push(7);
            out.push(*l as u8);
        }
        Step::OtherV => out.push(8),
        Step::Has(k, p) => {
            out.push(9);
            out.push(*k as u8);
            put_predicate(p, out);
        }
        Step::HasId(id) => {
            out.push(10);
            out.extend_from_slice(&id.raw().to_le_bytes());
        }
        Step::Values(k) => {
            out.push(11);
            out.push(*k as u8);
        }
        Step::EdgeValues(k) => {
            out.push(12);
            out.push(*k as u8);
        }
        Step::ValueMap => out.push(13),
        Step::Dedup => out.push(14),
        Step::Limit(n) => {
            out.push(15);
            out.extend_from_slice(&(*n as u64).to_le_bytes());
        }
        Step::Count => out.push(16),
        Step::OrderBy(k, asc) => {
            out.push(17);
            out.push(*k as u8);
            out.push(*asc as u8);
        }
        Step::RepeatUntil { body, until, max_loops } => {
            out.push(18);
            out.extend_from_slice(&(body.len() as u16).to_le_bytes());
            for s in body {
                put_step(s, out);
            }
            out.extend_from_slice(&until.raw().to_le_bytes());
            out.extend_from_slice(&max_loops.to_le_bytes());
        }
        Step::PathLen => out.push(19),
        Step::AddV { label, id, props } => {
            out.push(20);
            out.push(*label as u8);
            out.extend_from_slice(&id.to_le_bytes());
            put_props(props, out);
        }
        Step::AddE { label, from, to, props } => {
            out.push(21);
            out.push(*label as u8);
            out.extend_from_slice(&from.raw().to_le_bytes());
            out.extend_from_slice(&to.raw().to_le_bytes());
            put_props(props, out);
        }
        Step::Property(k, v) => {
            out.push(22);
            out.push(*k as u8);
            put_value(v, out);
        }
    }
}

fn get_step(r: &mut Reader<'_>) -> Result<Step> {
    Ok(match r.u8()? {
        0 => Step::V(r.vid()?),
        1 => Step::VLabel(r.vertex_label()?),
        2 => Step::Out(get_opt_edge_label(r)?),
        3 => Step::In(get_opt_edge_label(r)?),
        4 => Step::Both(get_opt_edge_label(r)?),
        5 => Step::OutE(r.edge_label()?),
        6 => Step::InE(r.edge_label()?),
        7 => Step::BothE(r.edge_label()?),
        8 => Step::OtherV,
        9 => {
            let k = r.prop_key()?;
            Step::Has(k, get_predicate(r)?)
        }
        10 => Step::HasId(r.vid()?),
        11 => Step::Values(r.prop_key()?),
        12 => Step::EdgeValues(r.prop_key()?),
        13 => Step::ValueMap,
        14 => Step::Dedup,
        15 => Step::Limit(r.u64()? as usize),
        16 => Step::Count,
        17 => {
            let k = r.prop_key()?;
            Step::OrderBy(k, r.u8()? != 0)
        }
        18 => {
            let n = r.u16()? as usize;
            r.nest()?;
            let mut body = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                body.push(get_step(r)?);
            }
            r.depth -= 1;
            let until = r.vid()?;
            let max_loops = r.u32()?;
            Step::RepeatUntil { body, until, max_loops }
        }
        19 => Step::PathLen,
        20 => {
            let label = r.vertex_label()?;
            let id = r.u64()?;
            Step::AddV { label, id, props: get_props(r)? }
        }
        21 => {
            let label = r.edge_label()?;
            let from = r.vid()?;
            let to = r.vid()?;
            Step::AddE { label, from, to, props: get_props(r)? }
        }
        22 => {
            let k = r.prop_key()?;
            Step::Property(k, get_value(r)?)
        }
        other => return Err(SnbError::Codec(format!("unknown step tag {other}"))),
    })
}

/// Encode a request traversal to the wire format.
pub fn encode_traversal(t: &Traversal) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + t.steps.len() * 12);
    out.extend_from_slice(&(t.steps.len() as u16).to_le_bytes());
    for step in &t.steps {
        put_step(step, &mut out);
    }
    out
}

/// Decode a request traversal from the wire format.
pub fn decode_traversal(data: &[u8]) -> Result<Traversal> {
    let mut r = Reader::new(data);
    let n = r.u16()? as usize;
    let mut steps = Vec::with_capacity(n);
    for _ in 0..n {
        steps.push(get_step(&mut r)?);
    }
    if !r.data.is_empty() {
        return Err(SnbError::Codec("trailing bytes after traversal".into()));
    }
    Ok(Traversal { steps })
}

/// Encode a response value list to the wire format.
pub fn encode_values(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + values.len() * 12);
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        put_value(v, &mut out);
    }
    out
}

/// Encode an execution error for a typed error frame: `[kind tag u8]
/// [message len u32][message bytes]`. The network layer sends this as
/// the payload of an Error frame so clients get the same `SnbError`
/// variant a local caller would, instead of a dropped connection.
pub fn encode_error(e: &SnbError) -> Vec<u8> {
    let (tag, msg): (u8, &str) = match e {
        SnbError::NotFound(m) => (0, m),
        SnbError::Conflict(m) => (1, m),
        SnbError::Parse(m) => (2, m),
        SnbError::Plan(m) => (3, m),
        SnbError::Exec(m) => (4, m),
        SnbError::Backend(m) => (5, m),
        SnbError::Overloaded(m) => (6, m),
        SnbError::Codec(m) => (7, m),
        SnbError::Io(m) => (8, m),
        SnbError::Capacity(m) => (9, m),
    };
    let mut out = Vec::with_capacity(5 + msg.len());
    out.push(tag);
    out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
    out.extend_from_slice(msg.as_bytes());
    out
}

/// Decode a typed error frame payload back into the [`SnbError`] it
/// carries. The outer `Err` means the frame itself was malformed.
pub fn decode_error(data: &[u8]) -> Result<SnbError> {
    let mut r = Reader::new(data);
    let tag = r.u8()?;
    let len = r.u32()? as usize;
    let raw = r.take(len)?;
    let msg = std::str::from_utf8(raw)
        .map_err(|_| SnbError::Codec("invalid utf-8 in error frame".into()))?
        .to_string();
    if !r.data.is_empty() {
        return Err(SnbError::Codec("trailing bytes after error frame".into()));
    }
    Ok(match tag {
        0 => SnbError::NotFound(msg),
        1 => SnbError::Conflict(msg),
        2 => SnbError::Parse(msg),
        3 => SnbError::Plan(msg),
        4 => SnbError::Exec(msg),
        5 => SnbError::Backend(msg),
        6 => SnbError::Overloaded(msg),
        7 => SnbError::Codec(msg),
        8 => SnbError::Io(msg),
        9 => SnbError::Capacity(msg),
        other => return Err(SnbError::Codec(format!("unknown error tag {other}"))),
    })
}

/// Decode a response value list from the wire format.
pub fn decode_values(data: &[u8]) -> Result<Vec<Value>> {
    let mut r = Reader::new(data);
    let n = r.u32()? as usize;
    let mut values = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        values.push(get_value(&mut r)?);
    }
    if !r.data.is_empty() {
        return Err(SnbError::Codec("trailing bytes after values".into()));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_core::VertexLabel;

    fn every_step_traversal() -> Traversal {
        let p1 = Vid::new(VertexLabel::Person, 1);
        let p2 = Vid::new(VertexLabel::Person, 2);
        Traversal {
            steps: vec![
                Step::V(p1),
                Step::VLabel(VertexLabel::Forum),
                Step::Out(Some(EdgeLabel::Knows)),
                Step::In(None),
                Step::Both(Some(EdgeLabel::Likes)),
                Step::OutE(EdgeLabel::Knows),
                Step::InE(EdgeLabel::HasCreator),
                Step::BothE(EdgeLabel::Knows),
                Step::OtherV,
                Step::Has(PropKey::FirstName, Predicate::Eq(Value::str("Ada"))),
                Step::HasId(p2),
                Step::Values(PropKey::Id),
                Step::EdgeValues(PropKey::CreationDate),
                Step::ValueMap,
                Step::Dedup,
                Step::Limit(7),
                Step::Count,
                Step::OrderBy(PropKey::LastName, false),
                Step::RepeatUntil {
                    body: vec![Step::Both(Some(EdgeLabel::Knows)), Step::Dedup],
                    until: p2,
                    max_loops: 6,
                },
                Step::PathLen,
                Step::AddV {
                    label: VertexLabel::Person,
                    id: 42,
                    props: vec![(PropKey::FirstName, Value::str("x"))],
                },
                Step::AddE { label: EdgeLabel::Knows, from: p1, to: p2, props: vec![] },
                Step::Property(PropKey::BrowserUsed, Value::Null),
            ],
        }
    }

    #[test]
    fn traversal_roundtrips_every_step() {
        let t = every_step_traversal();
        let bytes = encode_traversal(&t);
        assert_eq!(decode_traversal(&bytes).unwrap(), t);
    }

    #[test]
    fn values_roundtrip() {
        let vals = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-9),
            Value::Float(2.5),
            Value::str("hello"),
            Value::Date(86_400_000),
            Value::Vertex(Vid::new(VertexLabel::Post, 5)),
            Value::List(vec![Value::Int(1), Value::str("two")]),
        ];
        let bytes = encode_values(&vals);
        assert_eq!(decode_values(&bytes).unwrap(), vals);
    }

    #[test]
    fn errors_roundtrip_every_variant() {
        let errors = [
            SnbError::NotFound("v".into()),
            SnbError::Conflict("dup".into()),
            SnbError::Parse("".into()),
            SnbError::Plan("p".into()),
            SnbError::Exec("step".into()),
            SnbError::Backend("down".into()),
            SnbError::Overloaded("queue full".into()),
            SnbError::Codec("bad tag".into()),
            SnbError::Io("reset".into()),
        ];
        for e in errors {
            let bytes = encode_error(&e);
            assert_eq!(decode_error(&bytes).unwrap(), e);
        }
        assert!(decode_error(&[]).is_err());
        assert!(decode_error(&[42, 0, 0, 0, 0]).is_err(), "unknown tag");
        let mut long = encode_error(&SnbError::Exec("hello".into()));
        long.push(0);
        assert!(decode_error(&long).is_err(), "trailing bytes");
    }

    #[test]
    fn truncated_frames_error() {
        let bytes = encode_traversal(&every_step_traversal());
        for cut in [0, 1, 3, bytes.len() - 1] {
            assert!(decode_traversal(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let vals = encode_values(&[Value::str("abc")]);
        assert!(decode_values(&vals[..vals.len() - 1]).is_err());
    }
}
