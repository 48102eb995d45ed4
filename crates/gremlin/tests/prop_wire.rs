//! Property tests: the wire decoders must never panic or over-allocate
//! on arbitrary bytes. Once the Gremlin Server sits behind a real TCP
//! socket, every byte of a request payload is attacker-controlled — the
//! frame layer checksums transport corruption, but a well-framed
//! malicious payload still reaches these decoders verbatim.

use proptest::prelude::*;
use snb_core::{SnbError, Value};
use snb_gremlin::wire;

proptest! {
    #[test]
    fn decode_traversal_never_panics_on_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        // Err or Ok are both acceptable; panicking or aborting is not.
        let _ = wire::decode_traversal(&data);
    }

    #[test]
    fn decode_values_never_panics_on_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        let _ = wire::decode_values(&data);
    }

    #[test]
    fn decode_error_never_panics_on_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        let _ = wire::decode_error(&data);
    }

    #[test]
    fn truncating_an_encoded_value_list_errors_cleanly(
        n in 0..8usize,
        cut in any::<u16>()
    ) {
        let values: Vec<Value> = (0..n as i64).map(Value::Int).collect();
        let bytes = wire::encode_values(&values);
        let cut = (cut as usize) % (bytes.len() + 1);
        let r = wire::decode_values(&bytes[..cut]);
        if cut == bytes.len() {
            prop_assert_eq!(r.unwrap(), values);
        } else {
            // Every strict prefix must fail (truncation or, for the
            // empty list prefix, trailing-byte detection), never panic.
            prop_assert!(r.is_err());
        }
    }
}

/// A declared element count far beyond the actual payload must fail
/// fast without allocating gigabytes up front.
#[test]
fn oversized_declared_value_count_errors_without_allocating() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.push(0); // one stray byte, not 4 billion values
    let r = wire::decode_values(&bytes);
    assert!(matches!(r, Err(SnbError::Codec(_))), "{r:?}");
}

/// Same for traversals: a huge declared step count with no steps behind
/// it is a codec error, not an OOM or a hang.
#[test]
fn oversized_declared_step_count_errors_without_allocating() {
    let bytes = u16::MAX.to_le_bytes().to_vec();
    let r = wire::decode_traversal(&bytes);
    assert!(matches!(r, Err(SnbError::Codec(_))), "{r:?}");
}

/// A string value whose declared length runs past the buffer end must
/// be rejected by bounds checks, not read out of bounds.
#[test]
fn string_length_past_end_of_buffer_is_rejected() {
    let good = wire::encode_values(&[Value::str("hello")]);
    // Find the 5-byte length prefix of "hello" and inflate it.
    let pos = good.windows(5).position(|w| w == b"hello").unwrap();
    let mut bad = good.clone();
    bad[pos - 4..pos].copy_from_slice(&1_000_000u32.to_le_bytes());
    let r = wire::decode_values(&bad);
    assert!(matches!(r, Err(SnbError::Codec(_))), "{r:?}");
}

/// Run `f` on a thread with a 2 MiB stack, the size of a default
/// spawned thread (the reactor's loops run on such threads).
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn decoder thread")
        .join()
        .expect("decoder thread")
}

/// One top-level step: 200,000 one-step `repeat` bodies nested inside
/// each other around a `count()`. Each level is well-formed, so only a
/// depth cap stops the decoder recursing 200,000 frames deep.
#[test]
fn deeply_nested_repeat_bodies_error_instead_of_overflowing_the_stack() {
    const DEPTH: usize = 200_000;
    let mut bytes = 1u16.to_le_bytes().to_vec();
    for _ in 0..DEPTH {
        bytes.push(18); // RepeatUntil tag
        bytes.extend_from_slice(&1u16.to_le_bytes()); // one body step
    }
    bytes.push(16); // Count
    for _ in 0..DEPTH {
        bytes.extend_from_slice(&0u64.to_le_bytes()); // until
        bytes.extend_from_slice(&1u32.to_le_bytes()); // max_loops
    }
    let r = on_small_stack(move || wire::decode_traversal(&bytes));
    assert!(matches!(r, Err(SnbError::Codec(_))), "{r:?}");
}

/// Same for values: a list holding a list holding ... a null, 200,000
/// levels deep.
#[test]
fn deeply_nested_list_values_error_instead_of_overflowing_the_stack() {
    const DEPTH: usize = 200_000;
    let mut bytes = 1u32.to_le_bytes().to_vec();
    for _ in 0..DEPTH {
        bytes.push(7); // List tag
        bytes.extend_from_slice(&1u32.to_le_bytes());
    }
    bytes.push(0); // Null
    let r = on_small_stack(move || wire::decode_values(&bytes));
    assert!(matches!(r, Err(SnbError::Codec(_))), "{r:?}");
}

/// Lists nested 32 deep still round-trip; 33 deep is a codec error.
#[test]
fn nesting_cap_is_exactly_32_levels() {
    let mut v = Value::Int(7);
    for _ in 0..32 {
        v = Value::List(vec![v]);
    }
    let values = vec![v.clone()];
    assert_eq!(wire::decode_values(&wire::encode_values(&values)).unwrap(), values);
    let deeper = wire::encode_values(&[Value::List(vec![v])]);
    assert!(matches!(wire::decode_values(&deeper), Err(SnbError::Codec(_))));
}
