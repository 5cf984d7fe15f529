//! SDF: a self-describing binary array container (the netCDF stand-in).
//!
//! The Data Virtualizer treats output steps as opaque files; analyses and
//! simulators need a structured container for n-dimensional variables.
//! The paper interposes on netCDF/HDF5/ADIOS (Table I); we provide an
//! equivalent self-describing format with the interception-relevant
//! property set: open/create/read/close boundaries, named variables,
//! attributes, a canonical encoding for `SIMFS_Bitrep` to digest, and
//! an integrity footer.
//!
//! ## Layout (all little-endian)
//!
//! ```text
//! magic    [u8;4]  = "SDF1"
//! version  u32     = 2
//! step     u64     output-step index
//! simtime  f64     simulated physical time
//! n_attrs  u32     then n_attrs × (string key, string value)
//! n_vars   u32     then n_vars × variable
//! variable: string name, u8 dtype, u8 ndims, ndims × u64 dims, payload
//! footer   u64     XXH64 (seed 0) of every preceding byte
//! string:  u32 length + UTF-8 bytes
//! ```
//!
//! Attributes are stored in key order (`BTreeMap`), making the encoding
//! canonical: equal datasets encode to equal bytes, which is what makes
//! bitwise-reproducibility checks meaningful.
//!
//! Version 1 differed only in the footer (FNV-1a). It is not read: a v1
//! container is rejected as `Corrupt("unsupported version 1")` — the
//! version is compared before the footer so that it is. Output
//! steps are re-simulable by construction and restart files are
//! rewritten by `--init`, so a second reader would only be a second
//! path to keep correct.
//!
//! ## One walk
//!
//! [`Dataset::decode`] and [`verify`] run the same bounds-checked
//! structural walk over borrowed views of the input: magic, version and
//! footer first, then every count and length is checked against the
//! bytes that remain before it is trusted. `decode` owns what the walk yields; `verify`
//! drops it, allocating nothing.

use crate::checksum::xxh64;
use bytes::{BufMut, Bytes};
use std::collections::BTreeMap;
use std::fmt;
use std::io;

const MAGIC: &[u8; 4] = b"SDF1";
const VERSION: u32 = 2;
/// Header (magic, version, step, simtime), two counts and the footer.
const MIN_LEN: usize = 4 + 4 + 8 + 8 + 4 + 4 + 8;

/// Element type of an SDF variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DType {
    /// 64-bit IEEE float.
    F64,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit signed integer.
    I64,
    /// Raw bytes.
    U8,
}

impl DType {
    fn tag(self) -> u8 {
        match self {
            DType::F64 => 0,
            DType::F32 => 1,
            DType::I64 => 2,
            DType::U8 => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, SdfError> {
        Ok(match tag {
            0 => DType::F64,
            1 => DType::F32,
            2 => DType::I64,
            3 => DType::U8,
            _ => return Err(SdfError::Corrupt(format!("unknown dtype tag {tag}"))),
        })
    }

    /// Size of one element in bytes.
    pub fn elem_size(self) -> usize {
        match self {
            DType::F64 | DType::I64 => 8,
            DType::F32 => 4,
            DType::U8 => 1,
        }
    }
}

/// Variable payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Data {
    /// 64-bit floats.
    F64(Vec<f64>),
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit signed integers.
    I64(Vec<i64>),
    /// Raw bytes.
    U8(Vec<u8>),
}

impl Data {
    /// The element type of this payload.
    pub fn dtype(&self) -> DType {
        match self {
            Data::F64(_) => DType::F64,
            Data::F32(_) => DType::F32,
            Data::I64(_) => DType::I64,
            Data::U8(_) => DType::U8,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Data::F64(v) => v.len(),
            Data::F32(v) => v.len(),
            Data::I64(v) => v.len(),
            Data::U8(v) => v.len(),
        }
    }

    /// True if the payload has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow as `f64` slice, if that is the payload type.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Data::F64(v) => Some(v),
            _ => None,
        }
    }
}

/// A named n-dimensional variable.
#[derive(Clone, Debug, PartialEq)]
pub struct Variable {
    /// Variable name, unique within a dataset.
    pub name: String,
    /// Dimension sizes; the product must equal `data.len()`.
    pub dims: Vec<u64>,
    /// Payload.
    pub data: Data,
}

/// Errors raised by SDF encoding/decoding and file I/O.
#[derive(Debug)]
pub enum SdfError {
    /// Byte stream is not a valid SDF container.
    Corrupt(String),
    /// Footer checksum mismatch: the file was damaged or truncated.
    ChecksumMismatch {
        /// Digest recorded in the footer.
        stored: u64,
        /// Digest of the actual content.
        computed: u64,
    },
    /// Dimensions do not match payload length.
    ShapeMismatch {
        /// Product of the declared dimensions.
        expected: u64,
        /// Actual number of elements supplied.
        actual: u64,
    },
    /// Duplicate variable name within one dataset.
    DuplicateVariable(String),
    /// Underlying file I/O failure.
    Io(io::Error),
}

impl fmt::Display for SdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfError::Corrupt(msg) => write!(f, "corrupt SDF container: {msg}"),
            SdfError::ChecksumMismatch { stored, computed } => write!(
                f,
                "SDF checksum mismatch: footer {stored:#018x}, content {computed:#018x}"
            ),
            SdfError::ShapeMismatch { expected, actual } => write!(
                f,
                "variable shape mismatch: dims imply {expected} elements, got {actual}"
            ),
            SdfError::DuplicateVariable(name) => {
                write!(f, "duplicate variable name {name:?}")
            }
            SdfError::Io(e) => write!(f, "SDF I/O error: {e}"),
        }
    }
}

impl std::error::Error for SdfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SdfError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SdfError {
    fn from(e: io::Error) -> Self {
        SdfError::Io(e)
    }
}

/// An in-memory SDF dataset: one output (or restart) step.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Dataset {
    /// Output-step index within the simulation timeline.
    pub step_index: u64,
    /// Simulated physical time of this step.
    pub sim_time: f64,
    attrs: BTreeMap<String, String>,
    vars: Vec<Variable>,
}

impl Dataset {
    /// Creates an empty dataset for the given step.
    pub fn new(step_index: u64, sim_time: f64) -> Self {
        Dataset {
            step_index,
            sim_time,
            attrs: BTreeMap::new(),
            vars: Vec::new(),
        }
    }

    /// Sets a string attribute (canonical ordering is maintained).
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.attrs.insert(key.into(), value.into());
    }

    /// Reads an attribute.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).map(String::as_str)
    }

    /// Iterates attributes in canonical (key) order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Adds a variable after validating its shape.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        dims: Vec<u64>,
        data: Data,
    ) -> Result<(), SdfError> {
        let name = name.into();
        if self.vars.iter().any(|v| v.name == name) {
            return Err(SdfError::DuplicateVariable(name));
        }
        // A product past `u64` can match no payload: report it as the
        // largest shape rather than wrap (release) or panic (debug).
        let expected = dims_product(dims.iter().copied()).unwrap_or(u64::MAX);
        let actual = data.len() as u64;
        if expected != actual {
            return Err(SdfError::ShapeMismatch { expected, actual });
        }
        self.vars.push(Variable { name, dims, data });
        Ok(())
    }

    /// Looks up a variable by name.
    pub fn var(&self, name: &str) -> Option<&Variable> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// All variables in insertion order.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// Encodes to the canonical byte representation (with footer digest).
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.encoded_size_hint());
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(self.step_index);
        buf.put_f64_le(self.sim_time);
        buf.put_u32_le(self.attrs.len() as u32);
        for (k, v) in &self.attrs {
            put_string(&mut buf, k);
            put_string(&mut buf, v);
        }
        buf.put_u32_le(self.vars.len() as u32);
        for var in &self.vars {
            put_string(&mut buf, &var.name);
            buf.put_u8(var.data.dtype().tag());
            buf.put_u8(var.dims.len() as u8);
            put_elems(&mut buf, &var.dims, u64::to_le_bytes);
            match &var.data {
                Data::F64(v) => put_elems(&mut buf, v, f64::to_le_bytes),
                Data::F32(v) => put_elems(&mut buf, v, f32::to_le_bytes),
                Data::I64(v) => put_elems(&mut buf, v, i64::to_le_bytes),
                Data::U8(v) => buf.put_slice(v),
            }
        }
        let digest = xxh64(&buf);
        buf.put_u64_le(digest);
        Bytes::from(buf)
    }

    fn encoded_size_hint(&self) -> usize {
        let var_bytes: usize = self
            .vars
            .iter()
            .map(|v| v.name.len() + 16 + v.dims.len() * 8 + v.data.len() * v.data.dtype().elem_size())
            .sum();
        64 + self
            .attrs
            .iter()
            .map(|(k, v)| k.len() + v.len() + 8)
            .sum::<usize>()
            + var_bytes
    }

    /// Decodes from bytes, verifying magic, version, shapes, and footer
    /// checksum.
    pub fn decode(bytes: &[u8]) -> Result<Dataset, SdfError> {
        let mut attrs = BTreeMap::new();
        let mut vars = Vec::new();
        let (step_index, sim_time) = walk(
            bytes,
            |k, v| {
                attrs.insert(k.to_owned(), v.to_owned());
            },
            |var| vars.push(var.to_variable()),
        )?;
        Ok(Dataset {
            step_index,
            sim_time,
            attrs,
            vars,
        })
    }

    /// The footer value of the canonical encoding: equal datasets have
    /// equal digests. (What `SIMFS_Bitrep` records is the driver's
    /// whole-file checksum of the encoding, not this.)
    pub fn digest(&self) -> u64 {
        let encoded = self.encode();
        let (_, footer) = encoded.split_at(encoded.len() - 8);
        u64::from_le_bytes(footer.try_into().expect("8-byte footer"))
    }
}

/// Is this byte buffer an SDF container at all? (Magic check only —
/// used to decide whether [`verify`] applies to a produced file.)
pub fn looks_like_sdf(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC
}

/// Structural verification of an encoded SDF container: footer
/// checksum, magic, version, shapes, truncation. Exactly the checks
/// [`Dataset::decode`] performs — the same walk — without building the
/// dataset: the daemon's output-integrity gate calls this on every
/// produced file before declaring it resident.
pub fn verify(bytes: &[u8]) -> Result<(), SdfError> {
    walk(bytes, |_, _| {}, |_| {}).map(|_| ())
}

/// One variable as the walk sees it, borrowed from the input.
struct VarView<'a> {
    name: &'a str,
    dtype: DType,
    /// `ndims` little-endian `u64`s; their product is overflow-checked.
    dims: &'a [u8],
    /// Exactly `product(dims) × elem_size` bytes.
    payload: &'a [u8],
}

impl VarView<'_> {
    fn to_variable(&self) -> Variable {
        Variable {
            name: self.name.to_owned(),
            dims: get_elems(self.dims, u64::from_le_bytes),
            data: match self.dtype {
                DType::F64 => Data::F64(get_elems(self.payload, f64::from_le_bytes)),
                DType::F32 => Data::F32(get_elems(self.payload, f32::from_le_bytes)),
                DType::I64 => Data::I64(get_elems(self.payload, i64::from_le_bytes)),
                DType::U8 => Data::U8(self.payload.to_vec()),
            },
        }
    }
}

/// The structural walk behind [`Dataset::decode`] and [`verify`].
/// Compares magic and version, checks the footer over all of `bytes`
/// before any field is used, then hands every attribute and variable
/// to the callbacks as borrowed views; returns `(step, simtime)`. Only an
/// error allocates (its message), and nothing is read or sized from a
/// count before that count is checked against the bytes that remain —
/// a sealed container is still input from outside the process.
fn walk<'a>(
    bytes: &'a [u8],
    mut on_attr: impl FnMut(&'a str, &'a str),
    mut on_var: impl FnMut(VarView<'a>),
) -> Result<(u64, f64), SdfError> {
    if bytes.len() < MIN_LEN {
        return Err(SdfError::Corrupt("container too short".into()));
    }
    let (content, footer) = bytes.split_at(bytes.len() - 8);
    let mut cur = Cursor(content);
    // Compared with constants, not trusted: a file that is not ours or
    // predates this version (whose footer was another function) is
    // named as such instead of being called damaged.
    let magic = cur.take(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(SdfError::Corrupt(format!("bad magic {magic:?}")));
    }
    let version = cur.u32("version")?;
    if version != VERSION {
        return Err(SdfError::Corrupt(format!("unsupported version {version}")));
    }
    let stored = u64::from_le_bytes(footer.try_into().expect("8-byte footer"));
    let computed = xxh64(content);
    if stored != computed {
        return Err(SdfError::ChecksumMismatch { stored, computed });
    }
    let step_index = cur.u64("step index")?;
    let sim_time = f64::from_bits(cur.u64("simulated time")?);

    // An attribute is at least its two length prefixes.
    for _ in 0..cur.count("n_attrs", 8)? {
        on_attr(cur.str()?, cur.str()?);
    }
    // A variable is at least a name length, a dtype and an ndims.
    for _ in 0..cur.count("n_vars", 6)? {
        let name = cur.str()?;
        let [tag, ndims] = cur.array("variable header")?;
        let dtype = DType::from_tag(tag)?;
        let dims = cur.take(usize::from(ndims) * 8, "dims")?;
        let sizes = dims.as_chunks::<8>().0.iter().map(|d| u64::from_le_bytes(*d));
        let payload_bytes = dims_product(sizes)
            .and_then(|n| usize::try_from(n).ok())
            .and_then(|n| n.checked_mul(dtype.elem_size()))
            .ok_or_else(|| SdfError::Corrupt("element count overflow".into()))?;
        let payload = cur.take(payload_bytes, "payload")?;
        on_var(VarView {
            name,
            dtype,
            dims,
            payload,
        });
    }
    if !cur.0.is_empty() {
        return Err(SdfError::Corrupt(format!("{} trailing bytes", cur.0.len())));
    }
    Ok((step_index, sim_time))
}

/// Read cursor over the checksummed body: every read is a length check
/// first, so no input can make it panic.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SdfError> {
        let (head, rest) = self
            .0
            .split_at_checked(n)
            .ok_or_else(|| SdfError::Corrupt(format!("truncated {what}")))?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], SdfError> {
        let raw = self.take(N, what)?;
        Ok(raw.try_into().expect("take returned N bytes"))
    }

    fn u32(&mut self, what: &str) -> Result<u32, SdfError> {
        self.array(what).map(u32::from_le_bytes)
    }

    fn u64(&mut self, what: &str) -> Result<u64, SdfError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// A `u32` element count whose elements take at least `min_each`
    /// bytes apiece: one that the remaining bytes cannot hold is
    /// rejected here, before anything loops or sizes a buffer by it.
    fn count(&mut self, what: &str, min_each: usize) -> Result<u32, SdfError> {
        let n = self.u32(what)?;
        if n as usize > self.0.len() / min_each {
            return Err(SdfError::Corrupt(format!(
                "{what} {n} exceeds the {} bytes that remain",
                self.0.len()
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<&'a str, SdfError> {
        let len = self.u32("string length")? as usize;
        let raw = self.take(len, "string body")?;
        std::str::from_utf8(raw).map_err(|_| SdfError::Corrupt("invalid UTF-8 string".into()))
    }
}

/// Product of the dimension sizes, `None` on `u64` overflow.
fn dims_product(dims: impl IntoIterator<Item = u64>) -> Option<u64> {
    dims.into_iter().try_fold(1u64, u64::checked_mul)
}

/// Appends `src` as `N`-byte little-endian elements in one pass: one
/// resize, then a fixed-width chunked copy the compiler lowers to a
/// `memcpy` on little-endian targets.
fn put_elems<T: Copy, const N: usize>(
    buf: &mut Vec<u8>,
    src: &[T],
    to_le: impl Fn(T) -> [u8; N],
) {
    let start = buf.len();
    buf.resize(start + src.len() * N, 0);
    for (dst, &x) in buf[start..].as_chunks_mut::<N>().0.iter_mut().zip(src) {
        *dst = to_le(x);
    }
}

/// The inverse of [`put_elems`]; `raw.len()` is a multiple of `N`.
fn get_elems<T, const N: usize>(raw: &[u8], from_le: impl Fn([u8; N]) -> T) -> Vec<T> {
    raw.as_chunks::<N>().0.iter().map(|c| from_le(*c)).collect()
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut ds = Dataset::new(42, 12.5);
        ds.set_attr("model", "heat2d");
        ds.set_attr("dx", "0.01");
        ds.add_var("temperature", vec![2, 3], Data::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
            .unwrap();
        ds.add_var("flags", vec![4], Data::U8(vec![1, 0, 1, 1])).unwrap();
        ds
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = sample();
        let decoded = Dataset::decode(&ds.encode()).unwrap();
        assert_eq!(ds, decoded);
        assert_eq!(decoded.attr("model"), Some("heat2d"));
        assert_eq!(decoded.var("temperature").unwrap().dims, vec![2, 3]);
    }

    #[test]
    fn encoding_is_canonical() {
        // Attribute insertion order must not matter.
        let mut a = Dataset::new(1, 0.0);
        a.set_attr("x", "1");
        a.set_attr("y", "2");
        let mut b = Dataset::new(1, 0.0);
        b.set_attr("y", "2");
        b.set_attr("x", "1");
        assert_eq!(a.encode(), b.encode());
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_changes_with_content() {
        let a = sample();
        let mut b = sample();
        b.sim_time += 1e-9;
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn corruption_is_detected() {
        let encoded = sample().encode();
        let mut bad = encoded.to_vec();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        match Dataset::decode(&bad) {
            Err(SdfError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let encoded = sample().encode();
        let truncated = &encoded[..encoded.len() - 20];
        assert!(Dataset::decode(truncated).is_err());
    }

    /// Appends the footer a producer would: what the checksum cannot
    /// catch is what the structural walk must.
    fn seal(mut content: Vec<u8>) -> Vec<u8> {
        let digest = xxh64(&content);
        content.put_u64_le(digest);
        content
    }

    /// `encoded` with its footer recomputed after an in-place edit.
    fn reseal(mut encoded: Vec<u8>) -> Vec<u8> {
        encoded.truncate(encoded.len() - 8);
        seal(encoded)
    }

    /// Magic, version, step 0, time 0: the fixed part of a hand-built
    /// container.
    fn header() -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.put_u32_le(VERSION);
        buf.put_u64_le(0);
        buf.put_f64_le(0.0);
        buf
    }

    /// Both entry points must reject `bytes` as `Corrupt` mentioning
    /// `needle` — not panic, not allocate by a forged count.
    fn assert_corrupt(bytes: &[u8], needle: &str) {
        for result in [Dataset::decode(bytes).map(|_| ()), verify(bytes)] {
            match result {
                Err(SdfError::Corrupt(msg)) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("expected corrupt ({needle}), got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().encode().to_vec();
        bytes[0] = b'X';
        // fix checksum so magic check is what fails
        assert_corrupt(&reseal(bytes), "magic");
    }

    #[test]
    fn v1_container_is_rejected_by_version() {
        // What PR ≤ 13 wrote: version 1 under an FNV-1a footer. It is
        // old, not damaged, and the error must say so — as must one
        // sealed with today's footer.
        let mut v1 = sample().encode().to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let n = v1.len() - 8;
        let fnv = crate::checksum::fnv1a64(&v1[..n]);
        v1[n..].copy_from_slice(&fnv.to_le_bytes());
        assert_corrupt(&v1, "unsupported version 1");
        assert_corrupt(&reseal(v1), "unsupported version 1");
    }

    #[test]
    fn sealed_huge_n_vars_is_corrupt_not_an_allocation() {
        // Was: `Vec::with_capacity(u32::MAX)` variables — a 343 GB
        // request that aborted the daemon from its integrity gate.
        let mut body = header();
        body.put_u32_le(0);
        body.put_u32_le(u32::MAX);
        assert_corrupt(&seal(body), "n_vars");
    }

    #[test]
    fn sealed_attrs_consuming_the_body_is_corrupt_not_an_underflow() {
        // Was: `get_u32_le` on an empty cursor — a panic.
        let mut body = header();
        body.put_u32_le(1);
        put_string(&mut body, "k");
        put_string(&mut body, "v");
        assert_corrupt(&seal(body), "truncated n_vars");
    }

    #[test]
    fn sealed_overflowing_dims_are_corrupt_not_an_empty_variable() {
        // Was: 2^63 × 2 wrapped to 0 elements and the variable was
        // accepted (release) or the multiply panicked (debug).
        let dims = vec![1u64 << 63, 2];
        let mut body = header();
        body.put_u32_le(0);
        body.put_u32_le(1);
        put_string(&mut body, "v");
        body.put_u8(DType::U8.tag());
        body.put_u8(dims.len() as u8);
        put_elems(&mut body, &dims, u64::to_le_bytes);
        assert_corrupt(&seal(body), "element count overflow");
        // ... and the in-memory constructor agrees.
        assert!(matches!(
            Dataset::new(0, 0.0).add_var("v", dims, Data::U8(Vec::new())),
            Err(SdfError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn golden_v2_encoding_is_pinned() {
        // The on-disk format, byte for byte: attributes plus one
        // variable of every dtype. If this changes, VERSION must too.
        let mut ds = Dataset::new(3, 0.5);
        ds.set_attr("sim", "heat2d");
        ds.set_attr("dx", "0.1");
        ds.add_var("a", vec![2], Data::F64(vec![1.0, -2.5])).unwrap();
        ds.add_var("b", vec![1, 2], Data::F32(vec![0.5, 9.0])).unwrap();
        ds.add_var("c", vec![2], Data::I64(vec![-1, i64::MAX])).unwrap();
        ds.add_var("d", vec![3], Data::U8(vec![0, 7, 255])).unwrap();
        let encoded = ds.encode();
        let hex: String = encoded.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_V2);
        assert_eq!(Dataset::decode(&encoded).unwrap(), ds);
        verify(&encoded).unwrap();
    }

    /// Cross-checked once against a layout built from the module doc
    /// and an independent XXH64; one line per field group.
    const GOLDEN_V2: &str = concat!(
        "53444631", "02000000", "0300000000000000", "000000000000e03f", // header
        "02000000", "020000006478", "03000000302e31", // attrs: dx = 0.1
        "0300000073696d", "060000006865617432" ,"64", // sim = heat2d
        "04000000", // n_vars
        "0100000061", "0001", "0200000000000000", // a: f64 [2]
        "000000000000f03f", "00000000000004c0",
        "0100000062", "0102", "0100000000000000", "0200000000000000", // b: f32 [1, 2]
        "0000003f", "00001041",
        "0100000063", "0201", "0200000000000000", // c: i64 [2]
        "ffffffffffffffff", "ffffffffffffff7f",
        "0100000064", "0301", "0300000000000000", "0007ff", // d: u8 [3]
        "a29f16e5693ddb7c", // footer: XXH64 = 0x7cdb3d69e5169fa2
    );

    #[test]
    fn shape_validation() {
        let mut ds = Dataset::new(0, 0.0);
        let err = ds
            .add_var("bad", vec![2, 2], Data::F64(vec![1.0, 2.0, 3.0]))
            .unwrap_err();
        match err {
            SdfError::ShapeMismatch { expected, actual } => {
                assert_eq!((expected, actual), (4, 3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_variable_rejected() {
        let mut ds = Dataset::new(0, 0.0);
        ds.add_var("v", vec![1], Data::I64(vec![1])).unwrap();
        assert!(matches!(
            ds.add_var("v", vec![1], Data::I64(vec![2])),
            Err(SdfError::DuplicateVariable(_))
        ));
    }

    /// A dataset published to a storage area (temp file → fsync →
    /// rename, the one publish path) reads back and decodes equal, and
    /// leaves no temp file behind.
    #[test]
    fn file_roundtrip_is_atomic_and_valid() {
        let dir = std::env::temp_dir().join(format!("sdf-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let area = crate::StorageArea::create(&dir, u64::MAX).unwrap();
        let ds = sample();
        let written = area.publish("step-000042.sdf", &ds.encode()).unwrap();
        assert_eq!(written, ds.encode().len() as u64);
        let back = Dataset::decode(&area.read("step-000042.sdf").unwrap()).unwrap();
        assert_eq!(ds, back);
        assert_eq!(area.list().unwrap(), vec!["step-000042.sdf"], "temp litter left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let ds = Dataset::new(0, 0.0);
        assert_eq!(Dataset::decode(&ds.encode()).unwrap(), ds);
    }

    #[test]
    fn all_dtypes_roundtrip() {
        let mut ds = Dataset::new(7, 1.0);
        ds.add_var("f64", vec![2], Data::F64(vec![1.5, -2.5])).unwrap();
        ds.add_var("f32", vec![2], Data::F32(vec![0.5, 9.0])).unwrap();
        ds.add_var("i64", vec![3], Data::I64(vec![-1, 0, i64::MAX])).unwrap();
        ds.add_var("u8", vec![2], Data::U8(vec![0, 255])).unwrap();
        let back = Dataset::decode(&ds.encode()).unwrap();
        assert_eq!(ds, back);
        assert_eq!(back.var("f32").unwrap().data.dtype(), DType::F32);
    }
}
