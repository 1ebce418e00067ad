//! Wire format of one device's frontier-exchange batch, and its price.
//!
//! After every iteration each shard-holding device publishes the owned
//! vertices the iteration activated. A batch is an *id section* naming
//! those vertices, followed by their values in ascending vertex order.
//! The id section takes whichever of two encodings is shorter — Algorithm
//! 1's cheaper-of-two rule applied to ids, and Gemini's sparse/dense dual
//! mode:
//!
//! * [`IdEncoding::List`] (sparse): one [`EXCHANGE_ID_BYTES`] id per
//!   record, ascending. A value with two record forms
//!   ([`VertexValue::TWO_FORM_RECORDS`](crate::api::VertexValue::TWO_FORM_RECORDS))
//!   carries its form flag in the id's spare top bit.
//! * [`IdEncoding::Bitmap`] (dense): one bit per vertex the device owns,
//!   in partition order ([`OwnedVertices`]; receivers know the plan, so
//!   they know which vertex each bit is), then, for two-form values only,
//!   one form bit per record.
//!
//! Value bytes do not depend on the id encoding, so the choice moves only
//! the batch size, never a value.
//!
//! # Decodable from its length
//!
//! The bitmap wins ties. A receiver that knows the owned count `O` and
//! the section length `L` then tells the encodings apart without a
//! header ([`IdEncoding::detect`]): read the first `⌈O/8⌉` bytes as a
//! bitmap with `n'` bits set; the section is a bitmap exactly when
//! `L = ⌈O/8⌉ + forms(n')` and `L ≤ 4·n'`. A list of `n` ids was chosen
//! because `4n < ⌈O/8⌉ + forms(n)`, so passing that check would need
//! `forms(n') < forms(n)` and `n ≤ n'` at once — impossible, as `forms`
//! never decreases.

use crate::api::EXCHANGE_ID_BYTES;
use hyt_graph::{DevicePlan, PartitionSet, VertexId};
use std::ops::Range;

/// Bits per byte of the vertex and form bitmaps.
const BITS_PER_BYTE: u64 = u8::BITS as u64;

/// The spare top bit of a listed id, which carries a two-form record's
/// form flag (vertex ids stay below `2^31`).
const FORM_FLAG: u32 = 1 << (u32::BITS - 1);

/// How a device batch names its vertices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdEncoding {
    /// One id per record (sparse batches).
    List,
    /// One bit per owned vertex, then a form bit per record when the
    /// value has two forms (dense batches).
    Bitmap,
}

impl IdEncoding {
    /// The shorter encoding for `published` records out of `owned`
    /// vertices; the bitmap wins ties, which keeps the choice decodable
    /// (see the module docs).
    pub fn cheaper(published: u64, owned: u64, two_forms: bool) -> IdEncoding {
        if bitmap_bytes(published, owned, two_forms) <= EXCHANGE_ID_BYTES * published {
            IdEncoding::Bitmap
        } else {
            IdEncoding::List
        }
    }

    /// Bytes of the id section in this encoding.
    pub fn bytes(self, published: u64, owned: u64, two_forms: bool) -> u64 {
        match self {
            IdEncoding::List => EXCHANGE_ID_BYTES * published,
            IdEncoding::Bitmap => bitmap_bytes(published, owned, two_forms),
        }
    }

    /// The encoding of a `section` that [`IdEncoding::cheaper`] chose for
    /// a device owning `owned` vertices, read off its length and its
    /// bitmap prefix (see the module docs).
    // hyt-lint: allow(unreached-pub) -- reference codec: tests/exchange_encoding.rs checks the priced bytes against it
    pub fn detect(section: &[u8], owned: u64, two_forms: bool) -> IdEncoding {
        let is_bitmap = members(section, owned).is_some_and(|set| {
            section.len() as u64 == bitmap_bytes(set, owned, two_forms)
                && IdEncoding::cheaper(set, owned, two_forms) == IdEncoding::Bitmap
        });
        if is_bitmap {
            IdEncoding::Bitmap
        } else {
            IdEncoding::List
        }
    }
}

/// Membership bitmap plus, for two-form values, one form bit per record.
fn bitmap_bytes(published: u64, owned: u64, two_forms: bool) -> u64 {
    let forms = if two_forms { published.div_ceil(BITS_PER_BYTE) } else { 0 };
    owned.div_ceil(BITS_PER_BYTE) + forms
}

/// Bit index of the first form bit: the form bits start on the byte after
/// the membership bitmap of `owned` vertices.
fn first_form_bit(owned: u64) -> usize {
    owned.div_ceil(BITS_PER_BYTE) as usize * u8::BITS as usize
}

/// Bits set in the membership-bitmap prefix of `section` for `owned`
/// vertices; `None` when the section is shorter than that bitmap.
fn members(section: &[u8], owned: u64) -> Option<u64> {
    let map = owned.div_ceil(BITS_PER_BYTE) as usize;
    Some(section.get(..map)?.iter().map(|b| u64::from(b.count_ones())).sum())
}

/// The vertices one device owns: its partitions' vertex ranges in
/// partition order. Bit `i` of a bitmap batch names the `i`-th of them.
#[derive(Clone, Debug, PartialEq, Eq)]
// hyt-lint: allow(unreached-pub) -- reference codec: tests/exchange_encoding.rs checks the priced bytes against it
pub struct OwnedVertices {
    ranges: Vec<Range<VertexId>>,
}

impl OwnedVertices {
    /// The vertices of `device`'s partitions under `plan`.
    // hyt-lint: allow(unreached-pub) -- reference codec: tests/exchange_encoding.rs checks the priced bytes against it
    pub fn of_device(parts: &PartitionSet, plan: &DevicePlan, device: u32) -> OwnedVertices {
        let ranges = parts
            .partitions()
            .iter()
            .filter(|p| plan.device_of(p.id) == device)
            .map(|p| p.vertices())
            .collect();
        OwnedVertices { ranges }
    }

    /// Number of owned vertices (bits of the membership bitmap).
    pub fn len(&self) -> u64 {
        self.ranges.iter().map(|r| u64::from(r.end - r.start)).sum()
    }

    /// True when the device owns no vertex.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owned vertices in bit order.
    fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.ranges.iter().flat_map(Range::clone)
    }
}

/// Encode the id section of a batch in `encoding`. `records` are
/// `(vertex, form)` pairs in ascending vertex order, every vertex owned;
/// `form` (the two-form value's short form, e.g. changed registers only)
/// is read only when `two_forms`.
// hyt-lint: allow(unreached-pub) -- reference codec: tests/exchange_encoding.rs checks the priced bytes against it
pub fn encode_ids(
    encoding: IdEncoding,
    owned: &OwnedVertices,
    records: &[(VertexId, bool)],
    two_forms: bool,
) -> Vec<u8> {
    if encoding == IdEncoding::List {
        return records
            .iter()
            .flat_map(|&(v, form)| {
                debug_assert_eq!(v & FORM_FLAG, 0, "vertex {v} overlaps the form flag");
                let flag = if two_forms && form { FORM_FLAG } else { 0 };
                (v | flag).to_le_bytes()
            })
            .collect();
    }
    let n = records.len() as u64;
    let mut out = vec![0u8; bitmap_bytes(n, owned.len(), two_forms) as usize];
    let mut pending = records.iter().peekable();
    for (bit, v) in owned.iter().enumerate() {
        if pending.next_if(|&&(r, _)| r == v).is_some() {
            set_bit(&mut out, bit);
        }
    }
    debug_assert!(pending.peek().is_none(), "records must be owned and ascending");
    if two_forms {
        let base = first_form_bit(owned.len());
        for (i, &(_, form)) in records.iter().enumerate() {
            if form {
                set_bit(&mut out, base + i);
            }
        }
    }
    out
}

/// Decode an id section that [`encode_ids`] wrote in `encoding` for the
/// same owned set: the records in ascending vertex order. `None` when the
/// bytes are not a whole number of ids, or not a bitmap of this set.
// hyt-lint: allow(unreached-pub) -- reference codec: tests/exchange_encoding.rs checks the priced bytes against it
pub fn decode_ids(
    encoding: IdEncoding,
    owned: &OwnedVertices,
    section: &[u8],
    two_forms: bool,
) -> Option<Vec<(VertexId, bool)>> {
    if encoding == IdEncoding::List {
        let ids = section.chunks_exact(EXCHANGE_ID_BYTES as usize);
        if !ids.remainder().is_empty() {
            return None;
        }
        let flag = if two_forms { FORM_FLAG } else { 0 };
        let records = ids
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
            .map(|id| (id & !flag, id & flag != 0));
        return Some(records.collect());
    }
    let set = members(section, owned.len())?;
    if section.len() as u64 != bitmap_bytes(set, owned.len(), two_forms) {
        return None;
    }
    let base = first_form_bit(owned.len());
    let records: Vec<(VertexId, bool)> = owned
        .iter()
        .enumerate()
        .filter(|&(bit, _)| get_bit(section, bit))
        .enumerate()
        .map(|(i, (_, v))| (v, two_forms && get_bit(section, base + i)))
        .collect();
    // A set padding bit past the owned count names no vertex.
    (records.len() as u64 == set).then_some(records)
}

fn set_bit(bytes: &mut [u8], bit: usize) {
    bytes[bit / u8::BITS as usize] |= 1 << (bit % u8::BITS as usize);
}

fn get_bit(bytes: &[u8], bit: usize) -> bool {
    bytes.get(bit / u8::BITS as usize).is_some_and(|b| b & (1 << (bit % u8::BITS as usize)) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The priced id section: the cheaper encoding's length.
    fn priced(published: u64, owned: u64, two_forms: bool) -> u64 {
        IdEncoding::cheaper(published, owned, two_forms).bytes(published, owned, two_forms)
    }

    #[test]
    fn ties_go_to_the_bitmap_and_the_price_is_the_shorter_length() {
        // 8 owned vertices: a 1-byte bitmap against 4 bytes per id.
        assert_eq!(IdEncoding::cheaper(0, 8, false), IdEncoding::List);
        assert_eq!(priced(0, 8, false), 0);
        assert_eq!(IdEncoding::cheaper(1, 8, false), IdEncoding::Bitmap);
        assert_eq!(priced(1, 8, false), 1);
        // 256 owned: the 32-byte bitmap ties at 8 records and wins there.
        assert_eq!(priced(7, 256, false), 28);
        assert_eq!(IdEncoding::cheaper(8, 256, false), IdEncoding::Bitmap);
        assert_eq!(priced(8, 256, false), 32);
        // Two forms add a form bit per record to the bitmap side only.
        assert_eq!(priced(9, 256, true), 32 + 2);
        assert_eq!(priced(8, 256, true), 32);
        assert_eq!(IdEncoding::cheaper(8, 256, true), IdEncoding::List);
    }

    #[test]
    fn detect_tells_equal_length_sections_apart() {
        // 256 owned vertices (a 32-byte bitmap) around the tie: 8 ids are
        // 32 bytes too. Random frontiers rarely land exactly here.
        let owned = OwnedVertices { ranges: vec![0..128, 128..256] };
        for (n, two_forms, expect) in [
            (7, false, IdEncoding::List),
            (8, false, IdEncoding::Bitmap),
            (8, true, IdEncoding::List),
            (9, true, IdEncoding::Bitmap),
        ] {
            let records: Vec<(VertexId, bool)> = (0..n).map(|v| (v * 31, v % 2 == 0)).collect();
            let enc = IdEncoding::cheaper(n as u64, owned.len(), two_forms);
            assert_eq!(enc, expect, "{n} records, two forms {two_forms}");
            let section = encode_ids(enc, &owned, &records, two_forms);
            assert_eq!(IdEncoding::detect(&section, owned.len(), two_forms), enc);
        }
    }
}
