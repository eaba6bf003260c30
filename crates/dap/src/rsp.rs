//! GDB Remote Serial Protocol codec and server.
//!
//! GDBFuzz and EOF both ride GDB's remote protocol; the paper's Algorithm 1
//! issues `-exec-continue` and reads the PC through this layer. Packets
//! are framed as `$<data>#<2-hex-checksum>` where the checksum is the
//! modulo-256 sum of the data bytes. The server implements the commands a
//! fuzzer needs:
//!
//! | packet | meaning |
//! |---|---|
//! | `?` | halt reason |
//! | `p20` | read PC (register 0x20 here) |
//! | `m ADDR,LEN` | read memory (hex) |
//! | `M ADDR,LEN:HEX` | write memory |
//! | `Z0,ADDR,4` / `z0,ADDR,4` | set / clear breakpoint |
//! | `c` | continue (bounded by the server's run budget) |
//! | `R` | restart target |
//! | `vTxn:OP;OP;…` | vectored transaction (see below) |
//!
//! The `vTxn` packet is the wire form of a [`Txn`] (modelled on GDB's
//! `vFlash`/`vCont` multi-action family): operations separated by `;`,
//! each a compact command — `h` halt, `r` resume, `mADDR,LEN` read,
//! `MADDR,LEN:HEX` write, `p` read PC, `ZADDR`/`zADDR` breakpoints,
//! `FcNAME` flash checksum, `FwNAME:HEX` flash write, `R` reset,
//! `WADDR:HEX,ADDR:HEX,…` multi-page scatter write, `G` restore core
//! (restart from the reset vector without a hardware reset),
//! `DBASE,CAP,RECBYTES` atomic ring drain-and-reset (cmplog),
//! `T` atomic trace-FIFO drain-and-reset (hardware-trace coverage).
//! The reply is the `;`-joined per-op results in queue order: `OK`,
//! hex bytes, `P`+8-hex PC, or `C`+16-hex checksum.

use crate::error::DapError;
use crate::transport::{DebugTransport, LinkEvent};
use crate::txn::{Txn, TxnOp, TxnResult};

/// Compute the RSP checksum of packet data.
pub fn checksum(data: &str) -> u8 {
    data.bytes().fold(0u8, |a, b| a.wrapping_add(b))
}

/// Frame data into a `$data#cs` packet.
pub fn frame_packet(data: &str) -> String {
    format!("${}#{:02x}", data, checksum(data))
}

/// Parse and verify a framed packet, returning the payload.
pub fn parse_packet(raw: &str) -> Result<&str, DapError> {
    let raw = raw.trim();
    if !raw.starts_with('$') {
        return Err(DapError::Protocol("packet must start with '$'".into()));
    }
    let hash = raw
        .rfind('#')
        .ok_or_else(|| DapError::Protocol("packet missing '#'".into()))?;
    let data = &raw[1..hash];
    let cs_str = &raw[hash + 1..];
    let cs = u8::from_str_radix(cs_str, 16)
        .map_err(|_| DapError::Protocol(format!("bad checksum field {cs_str:?}")))?;
    if cs != checksum(data) {
        return Err(DapError::Protocol(format!(
            "checksum mismatch: got {cs:02x}, want {:02x}",
            checksum(data)
        )));
    }
    Ok(data)
}

/// An RSP endpoint bound to a transport.
pub struct RspServer {
    transport: DebugTransport,
    /// Cycle budget for each `c` (continue) packet.
    pub run_budget: u64,
}

impl RspServer {
    /// Wrap a transport with a default continue budget.
    pub fn new(transport: DebugTransport) -> Self {
        RspServer {
            transport,
            run_budget: 100_000,
        }
    }

    /// The underlying transport.
    pub fn transport(&self) -> &DebugTransport {
        &self.transport
    }

    /// Mutable transport access.
    pub fn transport_mut(&mut self) -> &mut DebugTransport {
        &mut self.transport
    }

    /// Consume the server, returning the transport.
    pub fn into_transport(self) -> DebugTransport {
        self.transport
    }

    /// Handle one framed packet, returning the framed reply.
    pub fn handle(&mut self, raw: &str) -> Result<String, DapError> {
        let data = parse_packet(raw)?;
        let reply = self.dispatch(data)?;
        Ok(frame_packet(&reply))
    }

    fn dispatch(&mut self, data: &str) -> Result<String, DapError> {
        match data {
            "?" => Ok("S05".into()),
            "p20" => {
                let pc = self.transport.read_pc()?;
                // Registers travel little-endian in RSP.
                Ok(hex_encode(&pc.to_le_bytes()))
            }
            "c" => match self.transport.continue_until_halt(self.run_budget)? {
                LinkEvent::BreakpointHit { .. } => Ok("S05".into()),
                LinkEvent::StillRunning => Ok("S00".into()),
                LinkEvent::TargetDead => Ok("X09".into()),
                LinkEvent::WatchdogReset => Ok("S12".into()),
            },
            "R" => {
                self.transport.reset_target()?;
                Ok("OK".into())
            }
            _ if data.starts_with('m') => {
                let (addr, len) = parse_addr_len(&data[1..])?;
                let mut buf = vec![0u8; len];
                self.transport.read_mem(addr, &mut buf)?;
                Ok(hex_encode(&buf))
            }
            _ if data.starts_with('M') => {
                let colon = data
                    .find(':')
                    .ok_or_else(|| DapError::Protocol("M packet missing ':'".into()))?;
                let (addr, len) = parse_addr_len(&data[1..colon])?;
                let bytes = hex_decode(&data[colon + 1..])?;
                if bytes.len() != len {
                    return Err(DapError::Protocol(format!(
                        "M packet length mismatch: header {len}, payload {}",
                        bytes.len()
                    )));
                }
                self.transport.write_mem(addr, &bytes)?;
                Ok("OK".into())
            }
            _ if data.starts_with("Z0,") => {
                let addr = parse_hex_field(data[3..].split(',').next().unwrap_or(""))?;
                self.transport.set_breakpoint(addr)?;
                Ok("OK".into())
            }
            _ if data.starts_with("z0,") => {
                let addr = parse_hex_field(data[3..].split(',').next().unwrap_or(""))?;
                self.transport.clear_breakpoint(addr)?;
                Ok("OK".into())
            }
            _ if data.starts_with("vTxn:") => {
                let txn = decode_txn(data)?;
                let results = self.transport.run_txn(&txn)?;
                Ok(encode_txn_reply(&results))
            }
            other => Err(DapError::Protocol(format!("unsupported packet {other:?}"))),
        }
    }
}

/// Encode a transaction as a `vTxn:` packet payload (unframed).
pub fn encode_txn(txn: &Txn) -> Result<String, DapError> {
    let mut parts = Vec::with_capacity(txn.len());
    for op in txn.ops() {
        parts.push(encode_txn_op(op)?);
    }
    Ok(format!("vTxn:{}", parts.join(";")))
}

fn encode_txn_op(op: &TxnOp) -> Result<String, DapError> {
    let check_name = |name: &str| -> Result<(), DapError> {
        if name.is_empty() || name.contains([';', ':', '#', '$']) {
            return Err(DapError::Protocol(format!(
                "partition name {name:?} is not wire-safe"
            )));
        }
        Ok(())
    };
    Ok(match op {
        TxnOp::Halt => "h".into(),
        TxnOp::Resume => "r".into(),
        TxnOp::ReadMem { addr, len } => format!("m{addr:x},{len:x}"),
        TxnOp::WriteMem { addr, data } => {
            format!("M{addr:x},{:x}:{}", data.len(), hex_encode(data))
        }
        TxnOp::ReadPc => "p".into(),
        TxnOp::SetBreakpoint { addr } => format!("Z{addr:x}"),
        TxnOp::ClearBreakpoint { addr } => format!("z{addr:x}"),
        TxnOp::FlashChecksum { partition } => {
            check_name(partition)?;
            format!("Fc{partition}")
        }
        TxnOp::FlashWrite { partition, image } => {
            check_name(partition)?;
            format!("Fw{partition}:{}", hex_encode(image))
        }
        TxnOp::FlashSectorChecksums { partition, sectors } => {
            check_name(partition)?;
            format!("Fs{sectors:x},{partition}")
        }
        TxnOp::FlashWriteSectors { partition, sectors } => {
            check_name(partition)?;
            let body = sectors
                .iter()
                .map(|(idx, data)| format!("{idx:x}:{}", hex_encode(data)))
                .collect::<Vec<_>>()
                .join(",");
            format!("FS{partition}:{body}")
        }
        TxnOp::ResetTarget => "R".into(),
        TxnOp::WritePages { pages } => {
            let body = pages
                .iter()
                .map(|(addr, data)| format!("{addr:x}:{}", hex_encode(data)))
                .collect::<Vec<_>>()
                .join(",");
            format!("W{body}")
        }
        TxnOp::RestoreCore => "G".into(),
        TxnOp::DrainRing {
            base,
            capacity,
            record_bytes,
        } => format!("D{base:x},{capacity:x},{record_bytes:x}"),
        TxnOp::DrainTrace => "T".into(),
    })
}

/// Decode a `vTxn:` packet payload back into a transaction.
pub fn decode_txn(data: &str) -> Result<Txn, DapError> {
    let body = data
        .strip_prefix("vTxn:")
        .ok_or_else(|| DapError::Protocol("not a vTxn packet".into()))?;
    let mut txn = Txn::new();
    if body.is_empty() {
        return Ok(txn);
    }
    for item in body.split(';') {
        txn.push(decode_txn_op(item)?);
    }
    Ok(txn)
}

fn decode_txn_op(item: &str) -> Result<TxnOp, DapError> {
    let bad = || DapError::Protocol(format!("bad vTxn op {item:?}"));
    Ok(match item {
        "h" => TxnOp::Halt,
        "r" => TxnOp::Resume,
        "p" => TxnOp::ReadPc,
        "R" => TxnOp::ResetTarget,
        "G" => TxnOp::RestoreCore,
        "T" => TxnOp::DrainTrace,
        "W" => TxnOp::WritePages { pages: Vec::new() },
        _ if item.starts_with('m') => {
            let (addr, len) = parse_addr_len(&item[1..])?;
            TxnOp::ReadMem {
                addr,
                len: len as u32,
            }
        }
        _ if item.starts_with('M') => {
            let colon = item.find(':').ok_or_else(bad)?;
            let (addr, len) = parse_addr_len(&item[1..colon])?;
            let data = hex_decode(&item[colon + 1..])?;
            if data.len() != len {
                return Err(DapError::Protocol(format!(
                    "vTxn write length mismatch: header {len}, payload {}",
                    data.len()
                )));
            }
            TxnOp::WriteMem { addr, data }
        }
        _ if item.starts_with('Z') => TxnOp::SetBreakpoint {
            addr: parse_hex_field(&item[1..])?,
        },
        _ if item.starts_with('z') => TxnOp::ClearBreakpoint {
            addr: parse_hex_field(&item[1..])?,
        },
        _ if item.starts_with("Fc") => TxnOp::FlashChecksum {
            partition: item[2..].to_string(),
        },
        _ if item.starts_with("Fs") => {
            let (sectors, partition) = item[2..].split_once(',').ok_or_else(bad)?;
            TxnOp::FlashSectorChecksums {
                partition: partition.to_string(),
                sectors: parse_hex_field(sectors)?,
            }
        }
        _ if item.starts_with("FS") => {
            let colon = item.find(':').ok_or_else(bad)?;
            let body = &item[colon + 1..];
            let sectors = if body.is_empty() {
                Vec::new()
            } else {
                body.split(',')
                    .map(|sector| {
                        let sep = sector.find(':').ok_or_else(bad)?;
                        Ok((
                            parse_hex_field(&sector[..sep])?,
                            hex_decode(&sector[sep + 1..])?,
                        ))
                    })
                    .collect::<Result<Vec<_>, DapError>>()?
            };
            TxnOp::FlashWriteSectors {
                partition: item[2..colon].to_string(),
                sectors,
            }
        }
        _ if item.starts_with("Fw") => {
            let colon = item.find(':').ok_or_else(bad)?;
            TxnOp::FlashWrite {
                partition: item[2..colon].to_string(),
                image: hex_decode(&item[colon + 1..])?,
            }
        }
        _ if item.starts_with('D') => {
            let mut fields = item[1..].split(',');
            let mut next = || fields.next().ok_or_else(bad).and_then(parse_hex_field);
            let (base, capacity, record_bytes) = (next()?, next()?, next()?);
            if fields.next().is_some() {
                return Err(bad());
            }
            TxnOp::DrainRing {
                base,
                capacity,
                record_bytes,
            }
        }
        _ if item.starts_with('W') => {
            let pages = item[1..]
                .split(',')
                .map(|page| {
                    let colon = page.find(':').ok_or_else(bad)?;
                    Ok((
                        parse_hex_field(&page[..colon])?,
                        hex_decode(&page[colon + 1..])?,
                    ))
                })
                .collect::<Result<Vec<_>, DapError>>()?;
            TxnOp::WritePages { pages }
        }
        _ => return Err(bad()),
    })
}

/// Encode per-op results as a `vTxn` reply payload.
pub fn encode_txn_reply(results: &[TxnResult]) -> String {
    results
        .iter()
        .map(|r| match r {
            TxnResult::Done => "OK".to_string(),
            TxnResult::Bytes(b) => hex_encode(b),
            TxnResult::Pc(pc) => format!("P{pc:08x}"),
            TxnResult::Checksum(cs) => format!("C{cs:016x}"),
            TxnResult::Checksums(css) => format!(
                "S{}",
                css.iter()
                    .map(|cs| format!("{cs:016x}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Decode a `vTxn` reply payload back into per-op results.
pub fn decode_txn_reply(data: &str) -> Result<Vec<TxnResult>, DapError> {
    if data.is_empty() {
        return Ok(Vec::new());
    }
    data.split(';')
        .map(|item| {
            Ok(match item {
                "OK" => TxnResult::Done,
                _ if item.starts_with('P') => TxnResult::Pc(parse_hex_field(&item[1..])?),
                _ if item.starts_with('C') => TxnResult::Checksum(
                    u64::from_str_radix(&item[1..], 16)
                        .map_err(|_| DapError::Protocol(format!("bad checksum reply {item:?}")))?,
                ),
                "S" => TxnResult::Checksums(Vec::new()),
                _ if item.starts_with('S') => TxnResult::Checksums(
                    item[1..]
                        .split(',')
                        .map(|cs| {
                            u64::from_str_radix(cs, 16).map_err(|_| {
                                DapError::Protocol(format!("bad sector checksum reply {cs:?}"))
                            })
                        })
                        .collect::<Result<Vec<_>, DapError>>()?,
                ),
                _ => TxnResult::Bytes(hex_decode(item)?),
            })
        })
        .collect()
}

fn parse_addr_len(s: &str) -> Result<(u32, usize), DapError> {
    let (a, l) = s
        .split_once(',')
        .ok_or_else(|| DapError::Protocol(format!("expected ADDR,LEN in {s:?}")))?;
    Ok((parse_hex_field(a)?, parse_hex_field(l)? as usize))
}

fn parse_hex_field(s: &str) -> Result<u32, DapError> {
    u32::from_str_radix(s, 16).map_err(|_| DapError::Protocol(format!("bad hex field {s:?}")))
}

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Result<Vec<u8>, DapError> {
    if !s.len().is_multiple_of(2) {
        return Err(DapError::Protocol("odd hex payload".into()));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16)
                .map_err(|_| DapError::Protocol(format!("bad hex at {i}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LinkConfig;
    use eof_hal::{BoardCatalog, FirmwareLoader, Machine};

    struct Hopper {
        pc: u32,
        symbols: eof_hal::SymbolTable,
    }

    impl eof_hal::Firmware for Hopper {
        fn name(&self) -> &str {
            "hopper"
        }
        fn symbols(&self) -> &eof_hal::SymbolTable {
            &self.symbols
        }
        fn step(&mut self, _bus: &mut eof_hal::Bus) -> eof_hal::StepResult {
            self.pc += 4;
            eof_hal::StepResult::Running {
                pc: self.pc,
                cycles: 1,
            }
        }
        fn on_reset(&mut self, _bus: &mut eof_hal::Bus) {
            self.pc = 0x4000;
        }
        fn freeze(&mut self) {}
    }

    fn server() -> RspServer {
        let loader: FirmwareLoader = Box::new(|_, _| {
            Ok(Box::new(Hopper {
                pc: 0x4000,
                symbols: eof_hal::SymbolTable::new(),
            }))
        });
        let mut m = Machine::new(BoardCatalog::stm32h745_nucleo(), loader);
        m.reset();
        RspServer::new(DebugTransport::attach(m, LinkConfig::default()))
    }

    #[test]
    fn framing_roundtrip() {
        let p = frame_packet("m24000000,10");
        assert!(p.starts_with('$'));
        assert_eq!(parse_packet(&p).unwrap(), "m24000000,10");
    }

    #[test]
    fn checksum_rejects_corruption() {
        let mut p = frame_packet("c");
        p.replace_range(1..2, "x");
        assert!(parse_packet(&p).is_err());
    }

    #[test]
    fn known_checksum_vector() {
        // "OK" = 0x4f + 0x4b = 0x9a.
        assert_eq!(checksum("OK"), 0x9a);
        assert_eq!(frame_packet("OK"), "$OK#9a");
    }

    #[test]
    fn memory_write_then_read() {
        let mut s = server();
        let reply = s.handle(&frame_packet("M24000100,4:deadbeef")).unwrap();
        assert_eq!(parse_packet(&reply).unwrap(), "OK");
        let reply = s.handle(&frame_packet("m24000100,4")).unwrap();
        assert_eq!(parse_packet(&reply).unwrap(), "deadbeef");
    }

    #[test]
    fn halt_reason() {
        let mut s = server();
        let reply = s.handle(&frame_packet("?")).unwrap();
        assert_eq!(parse_packet(&reply).unwrap(), "S05");
    }

    #[test]
    fn breakpoint_continue_pc() {
        let mut s = server();
        s.handle(&frame_packet("Z0,4010,4")).unwrap();
        let reply = s.handle(&frame_packet("c")).unwrap();
        assert_eq!(parse_packet(&reply).unwrap(), "S05");
        let pc_reply = s.handle(&frame_packet("p20")).unwrap();
        let hex = parse_packet(&pc_reply).unwrap();
        let bytes = hex_decode(hex).unwrap();
        let pc = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        assert_eq!(pc, 0x4010);
    }

    #[test]
    fn clear_breakpoint_lets_target_run() {
        let mut s = server();
        s.handle(&frame_packet("Z0,4010,4")).unwrap();
        s.handle(&frame_packet("z0,4010,4")).unwrap();
        s.run_budget = 50;
        let reply = s.handle(&frame_packet("c")).unwrap();
        assert_eq!(parse_packet(&reply).unwrap(), "S00");
    }

    #[test]
    fn restart_packet() {
        let mut s = server();
        let reply = s.handle(&frame_packet("R")).unwrap();
        assert_eq!(parse_packet(&reply).unwrap(), "OK");
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut s = server();
        assert!(s.handle(&frame_packet("M24000100,4:dead")).is_err());
    }

    #[test]
    fn unsupported_packet() {
        let mut s = server();
        assert!(s.handle(&frame_packet("qSupported")).is_err());
    }

    #[test]
    fn txn_codec_round_trip() {
        let mut t = Txn::new();
        t.halt()
            .read_mem(0x2400_0100, 12)
            .write_mem(0x2400_0200, &[0xde, 0xad])
            .read_pc()
            .set_breakpoint(0x4010)
            .clear_breakpoint(0x4010)
            .flash_checksum("kernel")
            .flash_write("kernel", &[1, 2, 3])
            .reset_target()
            .resume();
        let wire = encode_txn(&t).unwrap();
        assert!(wire.starts_with("vTxn:h;m24000100,c;M24000200,2:dead;p;Z4010;z4010;"));
        let back = decode_txn(&wire).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn txn_reply_codec_round_trip() {
        let results = vec![
            TxnResult::Done,
            TxnResult::Bytes(vec![0xde, 0xad, 0xbe, 0xef]),
            TxnResult::Pc(0x4010),
            TxnResult::Checksum(0x1234_5678_9abc_def0),
        ];
        let wire = encode_txn_reply(&results);
        assert_eq!(wire, "OK;deadbeef;P00004010;C123456789abcdef0");
        assert_eq!(decode_txn_reply(&wire).unwrap(), results);
    }

    #[test]
    fn txn_packet_dispatch() {
        let mut s = server();
        let mut t = Txn::new();
        t.write_mem(0x2400_0100, &[0xca, 0xfe, 0xba, 0xbe])
            .read_mem(0x2400_0100, 4)
            .read_pc();
        let wire = encode_txn(&t).unwrap();
        let reply = s.handle(&frame_packet(&wire)).unwrap();
        let body = parse_packet(&reply).unwrap();
        let results = decode_txn_reply(body).unwrap();
        assert_eq!(results[0], TxnResult::Done);
        assert_eq!(results[1], TxnResult::Bytes(vec![0xca, 0xfe, 0xba, 0xbe]));
        assert!(matches!(results[2], TxnResult::Pc(_)));
    }

    #[test]
    fn snapshot_ops_codec_round_trip() {
        let mut t = Txn::new();
        t.write_pages(vec![
            (0x2400_0100, vec![0xde, 0xad]),
            (0x2400_0200, vec![0xbe, 0xef]),
        ])
        .restore_core();
        let wire = encode_txn(&t).unwrap();
        assert_eq!(wire, "vTxn:W24000100:dead,24000200:beef;G");
        assert_eq!(decode_txn(&wire).unwrap(), t);
        // An empty scatter write survives the trip too.
        let mut t = Txn::new();
        t.write_pages(Vec::new());
        assert_eq!(decode_txn(&encode_txn(&t).unwrap()).unwrap(), t);
    }

    #[test]
    fn drain_ring_codec_round_trip() {
        let mut t = Txn::new();
        t.drain_ring(0x2400_5100, 128, 24);
        let wire = encode_txn(&t).unwrap();
        assert_eq!(wire, "vTxn:D24005100,80,18");
        assert_eq!(decode_txn(&wire).unwrap(), t);
        assert!(decode_txn("vTxn:D24005100,80").is_err()); // missing field
        assert!(decode_txn("vTxn:D24005100,80,18,9").is_err()); // extra field
    }

    #[test]
    fn drain_trace_codec_round_trip() {
        let mut t = Txn::new();
        t.drain_trace().drain_ring(0x2400_5100, 128, 24);
        let wire = encode_txn(&t).unwrap();
        assert_eq!(wire, "vTxn:T;D24005100,80,18");
        assert_eq!(decode_txn(&wire).unwrap(), t);
    }

    #[test]
    fn snapshot_ops_reject_malformed_pages() {
        assert!(decode_txn("vTxn:W24000100-dead").is_err()); // no colon
        assert!(decode_txn("vTxn:Wnothex:dead").is_err());
    }

    #[test]
    fn txn_codec_rejects_unsafe_partition_names() {
        let mut t = Txn::new();
        t.flash_checksum("bad;name");
        assert!(encode_txn(&t).is_err());
        let mut t = Txn::new();
        t.flash_write("bad:name", &[1]);
        assert!(encode_txn(&t).is_err());
    }

    #[test]
    fn txn_codec_rejects_malformed_ops() {
        assert!(decode_txn("vTxn:x").is_err());
        assert!(decode_txn("vTxn:M100,4:dead").is_err()); // length mismatch
        assert!(decode_txn("not-a-txn").is_err());
        assert!(decode_txn_reply("Cnothex").is_err());
    }
}
