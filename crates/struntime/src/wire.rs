//! Flat wire encoding and deep payload accounting for visitor messages.
//!
//! The traversal driver coalesces each per-destination visitor batch into
//! one flat byte buffer before it ships (see
//! [`crate::traversal`]): the batch is encoded element-by-element with
//! [`Wire`], the encoded length is charged through the channel group's
//! single accounting hook as the batch's *exact* wire size, and the batch
//! is decoded back out of the flat buffer before delivery. On a real
//! cluster the bytes themselves would cross the interconnect; in this
//! simulated runtime the encode/decode round-trip *is* the wire model —
//! it keeps the byte counters honest (no `size_of` padding, no container
//! headers) and exercises the codec end to end, since a corrupting codec
//! would corrupt the trees the tier-1 tests pin.
//!
//! [`DeepBytes`] is the memory-side twin: the bytes a value owns on the
//! heap beyond its inline `size_of` footprint. The visitor queue keeps a
//! running sum of its elements' heap bytes so
//! [`crate::queue::VisitorQueue::memory_bytes`] reports real footprints
//! for heap-carrying messages (the Fig 8 memory series), and the plain
//! [`crate::channels::ChannelGroup::send`] path charges
//! `size_of + heap_bytes` instead of a bare container header.
//!
//! Both traits are implemented here for the primitive and tuple shapes
//! the runtime's own tests use, and [`Wire`] also for `Option`, `Vec`,
//! arrays and `Duration`, so plain records (the Steiner crate's phase
//! checkpoints) derive theirs field by field with [`crate::wire_struct!`];
//! message enums (e.g. the Steiner crate's `VoronoiMsg`) implement them
//! by hand next to their definitions.

/// Bytes a value owns on the heap beyond `size_of::<Self>()`.
///
/// This measures *live* owned data (length-based for containers), not
/// allocation slack: buffer capacity is accounted where the buffer lives
/// (the queue counts its own ring capacity, a `Vec` payload's slack is
/// the sender's transient, not wire traffic). Plain-old-data types own
/// nothing and return 0.
pub trait DeepBytes {
    /// Owned heap bytes beyond the inline footprint (0 for POD).
    fn heap_bytes(&self) -> usize;
}

/// A self-describing flat byte encoding with a lossless round-trip.
///
/// Implementations must satisfy `decode_from(encode_into(v)) == v` and
/// `encoded_len` must equal the bytes `encode_into` appends; the
/// traversal driver debug-asserts the round-trip on every flushed batch.
pub trait Wire: Sized {
    /// Exact number of bytes [`Wire::encode_into`] appends.
    fn encoded_len(&self) -> usize;
    /// Appends this value's encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);
    /// Decodes one value at `*pos`, advancing it; `None` on truncated or
    /// malformed input.
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self>;
}

/// Encodes `batch` onto the end of `out` (not cleared first).
pub fn encode_batch<V: Wire>(batch: &[V], out: &mut Vec<u8>) {
    for v in batch {
        v.encode_into(out);
    }
}

/// Decodes exactly `count` values, requiring the buffer to be fully
/// consumed — trailing bytes mean a codec mismatch.
pub fn decode_batch<V: Wire>(buf: &[u8], count: usize) -> Option<Vec<V>> {
    let mut pos = 0;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(V::decode_from(buf, &mut pos)?);
    }
    if pos == buf.len() {
        Some(out)
    } else {
        None
    }
}

macro_rules! pod_wire {
    ($($t:ty),* $(,)?) => {$(
        impl Wire for $t {
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
                let n = std::mem::size_of::<$t>();
                let bytes = buf.get(*pos..*pos + n)?;
                *pos += n;
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
        impl DeepBytes for $t {
            fn heap_bytes(&self) -> usize {
                0
            }
        }
    )*};
}

pod_wire!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Wire for usize {
    fn encoded_len(&self) -> usize {
        8
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self as u64).encode_into(out);
    }
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        usize::try_from(u64::decode_from(buf, pos)?).ok()
    }
}
impl DeepBytes for usize {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl Wire for bool {
    fn encoded_len(&self) -> usize {
        1
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        match u8::decode_from(buf, pos)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}
impl DeepBytes for bool {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl Wire for char {
    fn encoded_len(&self) -> usize {
        4
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self as u32).encode_into(out);
    }
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        char::from_u32(u32::decode_from(buf, pos)?)
    }
}
impl DeepBytes for char {
    fn heap_bytes(&self) -> usize {
        0
    }
}

macro_rules! tuple_wire {
    ($(($($n:tt $T:ident),+))*) => {$(
        impl<$($T: Wire),+> Wire for ($($T,)+) {
            fn encoded_len(&self) -> usize {
                0 $(+ self.$n.encoded_len())+
            }
            fn encode_into(&self, out: &mut Vec<u8>) {
                $(self.$n.encode_into(out);)+
            }
            fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
                Some(($($T::decode_from(buf, pos)?,)+))
            }
        }
        impl<$($T: DeepBytes),+> DeepBytes for ($($T,)+) {
            fn heap_bytes(&self) -> usize {
                0 $(+ self.$n.heap_bytes())+
            }
        }
    )*};
}

tuple_wire! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// A one-byte presence flag, then the value.
impl<T: Wire> Wire for Option<T> {
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.is_some().encode_into(out);
        if let Some(v) = self {
            v.encode_into(out);
        }
    }
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        if bool::decode_from(buf, pos)? {
            Some(Some(T::decode_from(buf, pos)?))
        } else {
            Some(None)
        }
    }
}

/// A `u64` length, then the elements.
impl<T: Wire> Wire for Vec<T> {
    fn encoded_len(&self) -> usize {
        8 + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.len().encode_into(out);
        encode_batch(self, out);
    }
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let len = usize::decode_from(buf, pos)?;
        // Every element takes at least one byte, so a corrupt length
        // cannot reserve more than the buffer holds.
        let mut out = Vec::with_capacity(len.min(buf.len().saturating_sub(*pos)));
        for _ in 0..len {
            out.push(T::decode_from(buf, pos)?);
        }
        Some(out)
    }
}

/// The elements in order, with no length.
impl<T: Wire, const N: usize> Wire for [T; N] {
    fn encoded_len(&self) -> usize {
        self.iter().map(Wire::encoded_len).sum()
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        encode_batch(self, out);
    }
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let v: Vec<T> = (0..N)
            .map(|_| T::decode_from(buf, pos))
            .collect::<Option<_>>()?;
        v.try_into().ok()
    }
}

/// Whole seconds as a `u64`, then the nanoseconds as a `u32`: lossless.
impl Wire for std::time::Duration {
    fn encoded_len(&self) -> usize {
        12
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_secs().encode_into(out);
        self.subsec_nanos().encode_into(out);
    }
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let secs = u64::decode_from(buf, pos)?;
        let nanos = u32::decode_from(buf, pos)?;
        (nanos < 1_000_000_000).then(|| std::time::Duration::new(secs, nanos))
    }
}

/// Implements [`Wire`] for a struct with named fields: the fields'
/// encodings, in the listed order, which must name every field.
///
/// ```
/// struct Pair {
///     a: u32,
///     b: Option<u64>,
/// }
/// struntime::wire_struct!(Pair { a, b });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($t:ty { $($f:ident),+ $(,)? }) => {
        impl $crate::Wire for $t {
            fn encoded_len(&self) -> usize {
                0 $(+ $crate::Wire::encoded_len(&self.$f))+
            }
            fn encode_into(&self, out: &mut Vec<u8>) {
                $($crate::Wire::encode_into(&self.$f, out);)+
            }
            fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
                // Struct-literal fields evaluate in the order written.
                Some(Self {
                    $($f: $crate::Wire::decode_from(buf, pos)?,)+
                })
            }
        }
    };
}

impl<T: DeepBytes> DeepBytes for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
            + self.iter().map(DeepBytes::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<V: Wire + PartialEq + std::fmt::Debug + Clone>(vals: &[V]) {
        let mut buf = Vec::new();
        encode_batch(vals, &mut buf);
        let expect: usize = vals.iter().map(Wire::encoded_len).sum();
        assert_eq!(buf.len(), expect, "encoded_len must match actual bytes");
        let back = decode_batch::<V>(&buf, vals.len()).expect("round trip");
        assert_eq!(back, vals);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&[0u8, 1, 255]);
        round_trip(&[0u32, 7, u32::MAX]);
        round_trip(&[0u64, 42, u64::MAX]);
        round_trip(&[0usize, 9, 1 << 40]);
        round_trip(&[-1i64, 0, i64::MAX]);
        round_trip(&[true, false]);
        round_trip(&['a', 'ß', '🚀']);
    }

    #[test]
    fn tuples_round_trip() {
        round_trip(&[(1u32, 2u64), (u32::MAX, 0)]);
        round_trip(&[(1u8, 2u64, 3u32)]);
        round_trip(&[(1u32, 2u32, 3u64, 4u8)]);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&[None, Some(7u32)]);
        round_trip(&[vec![], vec![(1u32, 2u64)], vec![(3, 4), (5, 6)]]);
        round_trip(&[Some(vec![Some(1u8), None]), None]);
        round_trip(&[[1u64, 2, 3], [0, 0, u64::MAX]]);
        round_trip(&[
            std::time::Duration::ZERO,
            std::time::Duration::new(u64::MAX, 999_999_999),
        ]);
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Named {
        id: u32,
        tags: Vec<u8>,
        parent: Option<u64>,
    }
    crate::wire_struct!(Named { id, tags, parent });

    #[test]
    fn structs_round_trip_field_by_field() {
        round_trip(&[
            Named {
                id: 1,
                tags: vec![2, 3],
                parent: None,
            },
            Named {
                id: u32::MAX,
                tags: vec![],
                parent: Some(9),
            },
        ]);
    }

    #[test]
    fn corrupt_containers_are_rejected() {
        // A length past the buffer fails on the missing elements instead
        // of reserving the claimed length.
        let mut buf = Vec::new();
        u64::MAX.encode_into(&mut buf);
        assert_eq!(decode_batch::<Vec<u32>>(&buf, 1), None);
        // An invalid presence flag, and nanoseconds past one second.
        assert_eq!(decode_batch::<Option<u8>>(&[2, 0], 1), None);
        let mut buf = Vec::new();
        (0u64, 1_000_000_000u32).encode_into(&mut buf);
        assert_eq!(decode_batch::<std::time::Duration>(&buf, 1), None);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buf = Vec::new();
        7u64.encode_into(&mut buf);
        buf.pop();
        let mut pos = 0;
        assert_eq!(u64::decode_from(&buf, &mut pos), None);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_batch(&[1u32, 2u32], &mut buf);
        buf.push(0);
        assert_eq!(decode_batch::<u32>(&buf, 2), None);
    }

    #[test]
    fn invalid_bool_and_char_are_rejected() {
        let mut pos = 0;
        assert_eq!(bool::decode_from(&[2], &mut pos), None);
        let mut buf = Vec::new();
        0xD800u32.encode_into(&mut buf); // unpaired surrogate
        let mut pos = 0;
        assert_eq!(char::decode_from(&buf, &mut pos), None);
    }

    #[test]
    fn pods_own_no_heap() {
        assert_eq!(5u64.heap_bytes(), 0);
        assert_eq!((1u32, 2u64).heap_bytes(), 0);
    }

    #[test]
    fn vec_heap_bytes_are_deep() {
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(v.heap_bytes(), 12);
        let nested: Vec<Vec<u32>> = vec![vec![1, 2], vec![3]];
        // Two inline Vec headers + 3 u32 elements.
        assert_eq!(
            nested.heap_bytes(),
            2 * std::mem::size_of::<Vec<u32>>() + 12
        );
    }
}
