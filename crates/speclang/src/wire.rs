//! Binary wire format between the host fuzzer and the on-target agent.
//!
//! The agent deserialises test cases "using only primitive operations such
//! as integer/bitwise arithmetic and direct array reads/writes" (§4.3.2),
//! so the format is deliberately trivial: fixed-size little fields, no
//! varints, no alignment games, everything in the *target's* byte order.
//!
//! ```text
//! offset 0   4 bytes  magic "EOFP"
//! offset 4   u8       version (1)
//! offset 5   u8       call count
//! then per call:
//!            u16      api id        (assigned by the target's API table)
//!            u8       arg count
//!            per arg: u8 tag, then payload:
//!              0 Int         u64 value
//!              1 ResourceRef u16 producing call index
//!              2 Buffer      u16 len, len bytes
//!              3 CString     u16 len, len bytes (NUL not stored)
//! then, only when the prog carries an MMIO response stream:
//!            u8       trailer tag 'M' (0x4d)
//!            u16      stream length
//!            bytes    the response stream
//! ```
//!
//! The trailer is strictly additive: pure-API progs encode byte-for-byte
//! as they always have, and decoders ignore trailing bytes that do not
//! start with the trailer tag (the historical contract).
//!
//! The host encodes by API *name* ([`encode_prog`] resolves each through
//! an [`ApiTable`]); the agent decodes to API *ids* ([`decode_prog`]
//! yields a [`WireProg`]) and dispatches on them, so no name exists on
//! the target. Host-side tooling that wants the named form back derives
//! it from the same decoder ([`ApiTable::decode`]).

use crate::prog::{ArgValue, Call, Prog, MMIO_TRAILER};
use std::collections::BTreeMap;
use std::fmt;

/// Wire magic: `"EOFP"`.
pub const PROG_MAGIC: [u8; 4] = *b"EOFP";

/// Wire format version.
pub const PROG_VERSION: u8 = 1;

/// Byte order used on the wire (matches the target core).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOrder {
    /// Little-endian fields.
    Little,
    /// Big-endian fields.
    Big,
}

impl WireOrder {
    fn u16_bytes(self, v: u16) -> [u8; 2] {
        match self {
            WireOrder::Little => v.to_le_bytes(),
            WireOrder::Big => v.to_be_bytes(),
        }
    }

    fn u64_bytes(self, v: u64) -> [u8; 8] {
        match self {
            WireOrder::Little => v.to_le_bytes(),
            WireOrder::Big => v.to_be_bytes(),
        }
    }

    fn u16_from(self, b: [u8; 2]) -> u16 {
        match self {
            WireOrder::Little => u16::from_le_bytes(b),
            WireOrder::Big => u16::from_be_bytes(b),
        }
    }

    fn u64_from(self, b: [u8; 8]) -> u64 {
        match self {
            WireOrder::Little => u64::from_le_bytes(b),
            WireOrder::Big => u64::from_be_bytes(b),
        }
    }
}

/// One API's binding between its spec name and the target's numeric id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiBinding {
    /// Numeric id understood by the target's dispatch table.
    pub id: u16,
    /// Spec-level API name.
    pub name: String,
}

/// Bidirectional name ⇄ id table for one target OS.
#[derive(Debug, Clone, Default)]
pub struct ApiTable {
    by_name: BTreeMap<String, u16>,
    by_id: BTreeMap<u16, String>,
}

impl ApiTable {
    /// Build a table from bindings. Later duplicates overwrite.
    pub fn new(bindings: impl IntoIterator<Item = ApiBinding>) -> Self {
        let mut t = ApiTable::default();
        for b in bindings {
            t.by_name.insert(b.name.clone(), b.id);
            t.by_id.insert(b.id, b.name);
        }
        t
    }

    /// Id for a name.
    pub fn id_of(&self, name: &str) -> Option<u16> {
        self.by_name.get(name).copied()
    }

    /// Name for an id.
    pub fn name_of(&self, id: u16) -> Option<&str> {
        self.by_id.get(&id).map(|s| s.as_str())
    }

    /// Number of bound APIs.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Iterate over `(id, name)`.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &str)> {
        self.by_id.iter().map(|(&id, n)| (id, n.as_str()))
    }

    /// Decode wire bytes back into a named prog: the agent's decoder,
    /// then each id named through this table (an id the table does not
    /// bind is [`WireError::UnknownApiId`]).
    pub fn decode(&self, bytes: &[u8], order: WireOrder) -> Result<Prog, WireError> {
        let id_limit = self
            .by_id
            .keys()
            .next_back()
            .map_or(0, |&id| id as usize + 1);
        let wire = decode_prog(bytes, id_limit, order)?;
        let calls = wire
            .calls
            .into_iter()
            .map(|c| {
                let name = self.name_of(c.api).ok_or(WireError::UnknownApiId(c.api))?;
                Ok(Call {
                    api: name.to_string(),
                    args: c.args,
                })
            })
            .collect::<Result<_, WireError>>()?;
        Ok(Prog {
            calls,
            mmio: wire.mmio,
        })
    }
}

/// One call as the agent decodes it: the target's API id and its
/// arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCall {
    /// Numeric API id, bound in the target's table.
    pub api: u16,
    /// Arguments in wire order.
    pub args: Vec<ArgValue>,
}

/// A prog as the agent decodes it: calls by API id, plus the MMIO
/// response stream (empty for pure-API progs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireProg {
    /// The call sequence.
    pub calls: Vec<WireCall>,
    /// The MMIO response stream.
    pub mmio: Vec<u8>,
}

/// Encoding / decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Prog has more calls than the format can carry.
    TooManyCalls(usize),
    /// A call has more arguments than the format can carry.
    TooManyArgs(usize),
    /// A call names an API absent from the table.
    UnboundApi(String),
    /// An id on the wire is absent from the table.
    UnknownApiId(u16),
    /// Buffer/string payload exceeds `u16` length.
    PayloadTooLong(usize),
    /// Bad magic bytes.
    BadMagic,
    /// Unsupported version byte.
    BadVersion(u8),
    /// Truncated input at the given offset.
    Truncated(usize),
    /// Unknown argument tag byte.
    BadTag(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TooManyCalls(n) => write!(f, "prog has {n} calls, max 255"),
            WireError::TooManyArgs(n) => write!(f, "call has {n} arguments, max 255"),
            WireError::UnboundApi(name) => write!(f, "API {name:?} not in table"),
            WireError::UnknownApiId(id) => write!(f, "unknown API id {id}"),
            WireError::PayloadTooLong(n) => write!(f, "payload of {n} bytes exceeds u16"),
            WireError::BadMagic => f.write_str("bad prog magic"),
            WireError::BadVersion(v) => write!(f, "unsupported prog version {v}"),
            WireError::Truncated(off) => write!(f, "truncated prog at offset {off}"),
            WireError::BadTag(t) => write!(f, "unknown argument tag {t}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encode a prog for transmission to the target.
pub fn encode_prog(prog: &Prog, table: &ApiTable, order: WireOrder) -> Result<Vec<u8>, WireError> {
    if prog.calls.len() > 255 {
        return Err(WireError::TooManyCalls(prog.calls.len()));
    }
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&PROG_MAGIC);
    out.push(PROG_VERSION);
    out.push(prog.calls.len() as u8);
    for call in &prog.calls {
        let id = table
            .id_of(&call.api)
            .ok_or_else(|| WireError::UnboundApi(call.api.clone()))?;
        out.extend_from_slice(&order.u16_bytes(id));
        if call.args.len() > 255 {
            return Err(WireError::TooManyArgs(call.args.len()));
        }
        out.push(call.args.len() as u8);
        for arg in &call.args {
            match arg {
                ArgValue::Int(v) => {
                    out.push(0);
                    out.extend_from_slice(&order.u64_bytes(*v));
                }
                ArgValue::ResourceRef(r) => {
                    out.push(1);
                    out.extend_from_slice(&order.u16_bytes(*r));
                }
                ArgValue::Buffer(b) => {
                    if b.len() > u16::MAX as usize {
                        return Err(WireError::PayloadTooLong(b.len()));
                    }
                    out.push(2);
                    out.extend_from_slice(&order.u16_bytes(b.len() as u16));
                    out.extend_from_slice(b);
                }
                ArgValue::CString(s) => {
                    if s.len() > u16::MAX as usize {
                        return Err(WireError::PayloadTooLong(s.len()));
                    }
                    out.push(3);
                    out.extend_from_slice(&order.u16_bytes(s.len() as u16));
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
    if !prog.mmio.is_empty() {
        if prog.mmio.len() > u16::MAX as usize {
            return Err(WireError::PayloadTooLong(prog.mmio.len()));
        }
        out.push(MMIO_TRAILER);
        out.extend_from_slice(&order.u16_bytes(prog.mmio.len() as u16));
        out.extend_from_slice(&prog.mmio);
    }
    Ok(out)
}

/// Decode a prog received from the host into the agent's id form. This
/// is the agent's `read_prog()` and uses only slicing and integer
/// assembly, as the agent contract requires. `api_count` is the length
/// of the target's API table: ids are dense from 0, so an id at or past
/// it is unbound ([`WireError::UnknownApiId`]).
pub fn decode_prog(
    bytes: &[u8],
    api_count: usize,
    order: WireOrder,
) -> Result<WireProg, WireError> {
    let mut off = 0usize;
    let take = |off: &mut usize, n: usize| -> Result<&[u8], WireError> {
        if *off + n > bytes.len() {
            return Err(WireError::Truncated(*off));
        }
        let s = &bytes[*off..*off + n];
        *off += n;
        Ok(s)
    };
    let magic = take(&mut off, 4)?;
    if magic != PROG_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = take(&mut off, 1)?[0];
    if version != PROG_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let ncalls = take(&mut off, 1)?[0] as usize;
    let mut calls = Vec::with_capacity(ncalls);
    for _ in 0..ncalls {
        let idb = take(&mut off, 2)?;
        let api = order.u16_from([idb[0], idb[1]]);
        if api as usize >= api_count {
            return Err(WireError::UnknownApiId(api));
        }
        let argc = take(&mut off, 1)?[0] as usize;
        let mut args = Vec::with_capacity(argc);
        for _ in 0..argc {
            let tag = take(&mut off, 1)?[0];
            let arg = match tag {
                0 => {
                    let b = take(&mut off, 8)?;
                    let mut a = [0u8; 8];
                    a.copy_from_slice(b);
                    ArgValue::Int(order.u64_from(a))
                }
                1 => {
                    let b = take(&mut off, 2)?;
                    ArgValue::ResourceRef(order.u16_from([b[0], b[1]]))
                }
                2 => {
                    let lb = take(&mut off, 2)?;
                    let len = order.u16_from([lb[0], lb[1]]) as usize;
                    ArgValue::Buffer(take(&mut off, len)?.to_vec())
                }
                3 => {
                    let lb = take(&mut off, 2)?;
                    let len = order.u16_from([lb[0], lb[1]]) as usize;
                    let raw = take(&mut off, len)?;
                    ArgValue::CString(String::from_utf8_lossy(raw).into_owned())
                }
                t => return Err(WireError::BadTag(t)),
            };
            args.push(arg);
        }
        calls.push(WireCall { api, args });
    }
    let mut mmio = Vec::new();
    if off < bytes.len() && bytes[off] == MMIO_TRAILER {
        off += 1;
        let lb = take(&mut off, 2)?;
        let len = order.u16_from([lb[0], lb[1]]) as usize;
        mmio = take(&mut off, len)?.to_vec();
    }
    Ok(WireProg { calls, mmio })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ApiTable {
        ApiTable::new([
            ApiBinding {
                id: 1,
                name: "create".into(),
            },
            ApiBinding {
                id: 2,
                name: "send".into(),
            },
        ])
    }

    fn sample() -> Prog {
        Prog {
            mmio: vec![],
            calls: vec![
                Call {
                    api: "create".into(),
                    args: vec![ArgValue::Int(42), ArgValue::CString("tsk".into())],
                },
                Call {
                    api: "send".into(),
                    args: vec![
                        ArgValue::ResourceRef(0),
                        ArgValue::Buffer(vec![1, 2, 3, 255]),
                    ],
                },
            ],
        }
    }

    #[test]
    fn roundtrip_little() {
        let t = table();
        let p = sample();
        let bytes = encode_prog(&p, &t, WireOrder::Little).unwrap();
        assert_eq!(&bytes[..4], b"EOFP");
        let back = t.decode(&bytes, WireOrder::Little).unwrap();
        assert_eq!(back, p);
        // The agent's form carries the ids the table assigned.
        let wire = decode_prog(&bytes, 3, WireOrder::Little).unwrap();
        let ids: Vec<u16> = wire.calls.iter().map(|c| c.api).collect();
        assert_eq!(ids, [1, 2]);
        for (w, n) in wire.calls.iter().zip(&p.calls) {
            assert_eq!(w.args, n.args);
        }
    }

    #[test]
    fn roundtrip_big() {
        let t = table();
        let p = sample();
        let bytes = encode_prog(&p, &t, WireOrder::Big).unwrap();
        let back = t.decode(&bytes, WireOrder::Big).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn endianness_mismatch_fails_or_differs() {
        let t = table();
        let p = sample();
        let bytes = encode_prog(&p, &t, WireOrder::Big).unwrap();
        if let Ok(back) = t.decode(&bytes, WireOrder::Little) {
            assert_ne!(back, p);
        }
    }

    #[test]
    fn unbound_api_rejected() {
        let p = Prog {
            mmio: vec![],
            calls: vec![Call {
                api: "ghost".into(),
                args: vec![],
            }],
        };
        assert_eq!(
            encode_prog(&p, &table(), WireOrder::Little).unwrap_err(),
            WireError::UnboundApi("ghost".into())
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let err = table()
            .decode(b"NOPE\x01\x00", WireOrder::Little)
            .unwrap_err();
        assert_eq!(err, WireError::BadMagic);
    }

    #[test]
    fn bad_version_rejected() {
        let err = table()
            .decode(b"EOFP\x09\x00", WireOrder::Little)
            .unwrap_err();
        assert_eq!(err, WireError::BadVersion(9));
    }

    #[test]
    fn truncation_is_detected_not_panicking() {
        let t = table();
        let bytes = encode_prog(&sample(), &t, WireOrder::Little).unwrap();
        for cut in 0..bytes.len() {
            let r = t.decode(&bytes[..cut], WireOrder::Little);
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let t = table();
        // magic, version, 1 call, api id 1, 1 arg, tag 7.
        let bytes = [b'E', b'O', b'F', b'P', 1, 1, 1, 0, 1, 7];
        assert_eq!(
            t.decode(&bytes, WireOrder::Little).unwrap_err(),
            WireError::BadTag(7)
        );
    }

    #[test]
    fn unknown_id_rejected() {
        let t = table();
        let calling = |id: u8| [b'E', b'O', b'F', b'P', 1, 1, id, 0, 0];
        assert_eq!(
            t.decode(&calling(0x63), WireOrder::Little).unwrap_err(),
            WireError::UnknownApiId(0x63)
        );
        // Id 0 is below the table's largest id but bound to nothing.
        assert_eq!(
            t.decode(&calling(0), WireOrder::Little).unwrap_err(),
            WireError::UnknownApiId(0)
        );
        // The agent's tables are dense: the first id past the length is
        // the first unbound one.
        assert_eq!(
            decode_prog(&calling(2), 2, WireOrder::Little).unwrap_err(),
            WireError::UnknownApiId(2)
        );
        assert!(decode_prog(&calling(1), 2, WireOrder::Little).is_ok());
    }

    #[test]
    fn empty_prog_roundtrips() {
        let t = table();
        let bytes = encode_prog(&Prog::new(), &t, WireOrder::Little).unwrap();
        assert_eq!(bytes.len(), 6);
        assert!(t.decode(&bytes, WireOrder::Little).unwrap().is_empty());
    }

    #[test]
    fn mmio_trailer_roundtrips_on_both_orders() {
        let t = table();
        let mut p = sample();
        p.mmio = vec![0x4d, 0x00, 0xff, 0x10];
        for order in [WireOrder::Little, WireOrder::Big] {
            let bytes = encode_prog(&p, &t, order).unwrap();
            assert_eq!(t.decode(&bytes, order).unwrap(), p);
            // Truncation inside the trailer is detected, never a panic.
            for cut in bytes.len() - p.mmio.len()..bytes.len() {
                assert!(t.decode(&bytes[..cut], order).is_err());
            }
        }
        // The trailer extends the plain encoding without altering it.
        let plain = encode_prog(&sample(), &t, WireOrder::Little).unwrap();
        let with = encode_prog(&p, &t, WireOrder::Little).unwrap();
        assert_eq!(&with[..plain.len()], &plain[..]);
    }

    #[test]
    fn over_long_argument_list_is_too_many_args() {
        let p = Prog {
            mmio: vec![],
            calls: vec![Call {
                api: "create".into(),
                args: vec![ArgValue::Int(0); 256],
            }],
        };
        let err = encode_prog(&p, &table(), WireOrder::Little).unwrap_err();
        assert_eq!(err, WireError::TooManyArgs(256));
        assert_eq!(err.to_string(), "call has 256 arguments, max 255");
    }

    #[test]
    fn api_table_lookups() {
        let t = table();
        assert_eq!(t.id_of("send"), Some(2));
        assert_eq!(t.name_of(1), Some("create"));
        assert_eq!(t.len(), 2);
        assert!(t.id_of("missing").is_none());
    }
}
