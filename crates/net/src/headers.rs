//! Ethernet, IPv4 and TCP header serialization.
//!
//! The capture crate writes libpcap files whose frames are real
//! Ethernet II / IPv4 / TCP bytes (valid IP checksums, correct lengths),
//! so traces open cleanly in standard tooling. The parsers here are used
//! by the eavesdropper to walk frames back into flows.

/// Ethernet II header length.
pub const ETH_HEADER_LEN: usize = 14;
/// IPv4 header length (no options).
pub const IPV4_HEADER_LEN: usize = 20;
/// TCP header length with the timestamp option block (20 + 12).
pub const TCP_HEADER_LEN: usize = 32;
/// Total framing overhead per packet.
pub const FRAME_OVERHEAD: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN;

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// IP protocol number for TCP.
pub const IPPROTO_TCP: u8 = 6;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    pub syn: bool,
    pub ack: bool,
    pub fin: bool,
    pub psh: bool,
    pub rst: bool,
}

impl TcpFlags {
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        psh: false,
        rst: false,
    };
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        psh: false,
        rst: false,
    };
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        psh: false,
        rst: false,
    };
    pub const PSH_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        psh: true,
        rst: false,
    };
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        psh: false,
        rst: false,
    };
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        psh: false,
        rst: true,
    };

    fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    fn from_byte(b: u8) -> Self {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// A TCP/IP 4-tuple identifying one flow direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId {
    pub src_ip: [u8; 4],
    pub src_port: u16,
    pub dst_ip: [u8; 4],
    pub dst_port: u16,
}

impl FlowId {
    /// The reverse direction of this flow.
    pub fn reversed(self) -> FlowId {
        FlowId {
            src_ip: self.dst_ip,
            src_port: self.dst_port,
            dst_ip: self.src_ip,
            dst_port: self.src_port,
        }
    }

    /// Canonical (direction-independent) form: the lexicographically
    /// smaller of the two directions, for keying bidirectional state.
    pub fn canonical(self) -> FlowId {
        self.min(self.reversed())
    }
}

/// Minimal IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    pub src: [u8; 4],
    pub dst: [u8; 4],
    /// Total length: IP header + TCP header + payload.
    pub total_len: u16,
    pub identification: u16,
    pub ttl: u8,
}

impl Ipv4Header {
    /// Serialize with a valid header checksum.
    pub fn to_bytes(&self) -> [u8; IPV4_HEADER_LEN] {
        let mut b = [0u8; IPV4_HEADER_LEN];
        b[0] = 0x45; // version 4, IHL 5
        b[1] = 0x00; // DSCP/ECN
        b[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        b[4..6].copy_from_slice(&self.identification.to_be_bytes());
        b[6] = 0x40; // don't fragment
        b[7] = 0x00;
        b[8] = self.ttl;
        b[9] = IPPROTO_TCP;
        // checksum at [10..12], zero during computation
        b[12..16].copy_from_slice(&self.src);
        b[16..20].copy_from_slice(&self.dst);
        let csum = internet_checksum(&b);
        b[10..12].copy_from_slice(&csum.to_be_bytes());
        b
    }

    /// Parse and verify structure (checksum verified separately by
    /// [`verify_ipv4_checksum`] where tests need it).
    pub fn parse(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < IPV4_HEADER_LEN || bytes[0] != 0x45 || bytes[9] != IPPROTO_TCP {
            return None;
        }
        Some(Ipv4Header {
            src: bytes[12..16].try_into().ok()?,
            dst: bytes[16..20].try_into().ok()?,
            total_len: u16::from_be_bytes([bytes[2], bytes[3]]),
            identification: u16::from_be_bytes([bytes[4], bytes[5]]),
            ttl: bytes[8],
        })
    }
}

/// Verify the checksum of a serialized IPv4 header.
pub fn verify_ipv4_checksum(bytes: &[u8]) -> bool {
    bytes.len() >= IPV4_HEADER_LEN && internet_checksum(&bytes[..IPV4_HEADER_LEN]) == 0
}

/// TCP header with a 12-byte timestamp-option block (the dominant shape
/// of real streaming traffic; data offset 8 words).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: TcpFlags,
    pub window: u16,
    /// TSval for the timestamp option (µs-granularity tick in the sim).
    pub ts_val: u32,
    pub ts_ecr: u32,
}

impl TcpHeader {
    /// Serialize (checksum field left zero: valid for analysis tooling,
    /// and offloading makes zero checksums common in real captures).
    pub fn to_bytes(&self) -> [u8; TCP_HEADER_LEN] {
        let mut b = [0u8; TCP_HEADER_LEN];
        b[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        b[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        b[4..8].copy_from_slice(&self.seq.to_be_bytes());
        b[8..12].copy_from_slice(&self.ack.to_be_bytes());
        b[12] = 0x80; // data offset 8 words (32 bytes)
        b[13] = self.flags.to_byte();
        b[14..16].copy_from_slice(&self.window.to_be_bytes());
        // [16..18] checksum = 0, [18..20] urgent = 0
        // Options: NOP NOP Timestamp(10 bytes)
        b[20] = 0x01;
        b[21] = 0x01;
        b[22] = 0x08;
        b[23] = 0x0a;
        b[24..28].copy_from_slice(&self.ts_val.to_be_bytes());
        b[28..32].copy_from_slice(&self.ts_ecr.to_be_bytes());
        b
    }

    /// Parse a header serialized by [`TcpHeader::to_bytes`] (or any
    /// header with data offset ≥ 5; options other than timestamps are
    /// skipped). Returns the header and its length in bytes.
    pub fn parse(bytes: &[u8]) -> Option<(Self, usize)> {
        if bytes.len() < 20 {
            return None;
        }
        let data_offset = ((bytes[12] >> 4) as usize) * 4;
        if data_offset < 20 || bytes.len() < data_offset {
            return None;
        }
        let mut ts_val = 0;
        let mut ts_ecr = 0;
        let mut i = 20;
        while i < data_offset {
            match bytes[i] {
                0x00 => break,  // end of options
                0x01 => i += 1, // NOP
                0x08 if i + 10 <= data_offset => {
                    ts_val = u32::from_be_bytes(bytes[i + 2..i + 6].try_into().ok()?);
                    ts_ecr = u32::from_be_bytes(bytes[i + 6..i + 10].try_into().ok()?);
                    i += 10;
                }
                _ => {
                    // kind, len, payload — skip
                    let len = *bytes.get(i + 1)? as usize;
                    if len < 2 {
                        return None;
                    }
                    i += len;
                }
            }
        }
        Some((
            TcpHeader {
                src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
                dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
                seq: u32::from_be_bytes(bytes[4..8].try_into().ok()?),
                ack: u32::from_be_bytes(bytes[8..12].try_into().ok()?),
                flags: TcpFlags::from_byte(bytes[13]),
                window: u16::from_be_bytes([bytes[14], bytes[15]]),
                ts_val,
                ts_ecr,
            },
            data_offset,
        ))
    }
}

/// Build a complete Ethernet/IPv4/TCP frame around `payload`.
#[allow(clippy::too_many_arguments)]
pub fn build_frame(
    flow: &FlowId,
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    ts_val: u32,
    ts_ecr: u32,
    ip_id: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    // Ethernet: locally administered MACs derived from the IPs.
    frame.extend_from_slice(&mac_for(&flow.dst_ip));
    frame.extend_from_slice(&mac_for(&flow.src_ip));
    frame.extend_from_slice(&ETHERTYPE_IPV4.to_be_bytes());
    let ip = Ipv4Header {
        src: flow.src_ip,
        dst: flow.dst_ip,
        total_len: (IPV4_HEADER_LEN + TCP_HEADER_LEN + payload.len()) as u16,
        identification: ip_id,
        ttl: 64,
    };
    frame.extend_from_slice(&ip.to_bytes());
    let tcp = TcpHeader {
        src_port: flow.src_port,
        dst_port: flow.dst_port,
        seq,
        ack,
        flags,
        window: 0xffff,
        ts_val,
        ts_ecr,
    };
    frame.extend_from_slice(&tcp.to_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Rewrite the IPv4 identification of a frame built by [`build_frame`]
/// (and its header checksum to match), as if it had been built with
/// `ip_id`. Frames too short to hold an IPv4 header are left alone.
pub fn set_frame_ip_id(frame: &mut [u8], ip_id: u16) {
    let Some(ip) = frame.get_mut(ETH_HEADER_LEN..ETH_HEADER_LEN + IPV4_HEADER_LEN) else {
        return;
    };
    ip[4..6].copy_from_slice(&ip_id.to_be_bytes());
    ip[10..12].copy_from_slice(&[0, 0]);
    let csum = internet_checksum(ip);
    ip[10..12].copy_from_slice(&csum.to_be_bytes());
}

/// Parse a frame built by [`build_frame`] back into
/// `(flow, tcp_header, payload)`.
pub fn parse_frame(frame: &[u8]) -> Option<(FlowId, TcpHeader, &[u8])> {
    if frame.len() < ETH_HEADER_LEN + IPV4_HEADER_LEN + 20 {
        return None;
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != ETHERTYPE_IPV4 {
        return None;
    }
    let ip = Ipv4Header::parse(&frame[ETH_HEADER_LEN..])?;
    let tcp_start = ETH_HEADER_LEN + IPV4_HEADER_LEN;
    let (tcp, tcp_len) = TcpHeader::parse(&frame[tcp_start..])?;
    let payload_start = tcp_start + tcp_len;
    let ip_payload_end = ETH_HEADER_LEN + ip.total_len as usize;
    if ip_payload_end > frame.len() || payload_start > ip_payload_end {
        return None;
    }
    let flow = FlowId {
        src_ip: ip.src,
        src_port: tcp.src_port,
        dst_ip: ip.dst,
        dst_port: tcp.dst_port,
    };
    Some((flow, tcp, &frame[payload_start..ip_payload_end]))
}

/// Like [`parse_frame`], but tolerant of frames whose tail was clipped
/// by a capture snaplen: as long as the Ethernet/IPv4/TCP headers
/// survived, returns the payload prefix that is present plus the number
/// of payload bytes the clip removed (per the IP total length). A
/// frame with an intact tail parses identically to [`parse_frame`]
/// with `missing == 0`. Returns `None` only when the headers
/// themselves are incomplete or malformed.
pub fn parse_frame_lossy(frame: &[u8]) -> Option<(FlowId, TcpHeader, &[u8], usize)> {
    if frame.len() < ETH_HEADER_LEN + IPV4_HEADER_LEN + 20 {
        return None;
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != ETHERTYPE_IPV4 {
        return None;
    }
    let ip = Ipv4Header::parse(&frame[ETH_HEADER_LEN..])?;
    let tcp_start = ETH_HEADER_LEN + IPV4_HEADER_LEN;
    let (tcp, tcp_len) = TcpHeader::parse(&frame[tcp_start..])?;
    let payload_start = tcp_start + tcp_len;
    let ip_payload_end = ETH_HEADER_LEN + ip.total_len as usize;
    if payload_start > ip_payload_end {
        return None;
    }
    let avail_end = ip_payload_end.min(frame.len());
    let payload = frame.get(payload_start..avail_end)?;
    let flow = FlowId {
        src_ip: ip.src,
        src_port: tcp.src_port,
        dst_ip: ip.dst,
        dst_port: tcp.dst_port,
    };
    Some((flow, tcp, payload, ip_payload_end - avail_end))
}

fn mac_for(ip: &[u8; 4]) -> [u8; 6] {
    [0x02, 0x00, ip[0], ip[1], ip[2], ip[3]]
}

/// RFC 1071 internet checksum.
fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowId {
        FlowId {
            src_ip: [192, 168, 1, 10],
            src_port: 51234,
            dst_ip: [198, 45, 48, 7],
            dst_port: 443,
        }
    }

    #[test]
    fn lossy_parse_recovers_clipped_payload() {
        let payload = vec![0xabu8; 400];
        let frame = build_frame(&flow(), 1000, 2000, TcpFlags::PSH_ACK, 5, 6, 1, &payload);
        // Intact frame: lossy parse agrees with the strict parser.
        let (f, tcp, body, missing) = parse_frame_lossy(&frame).unwrap();
        assert_eq!((f, tcp.seq, body, missing), (flow(), 1000, &payload[..], 0));
        // Snaplen-clipped frame: strict parser drops it, lossy parser
        // salvages the payload prefix and reports the missing bytes.
        let clipped = &frame[..FRAME_OVERHEAD + 100];
        assert_eq!(parse_frame(clipped), None);
        let (f2, tcp2, body2, missing2) = parse_frame_lossy(clipped).unwrap();
        assert_eq!(f2, flow());
        assert_eq!(tcp2.seq, 1000);
        assert_eq!(body2, &payload[..100]);
        assert_eq!(missing2, 300);
        // Clip inside the headers: even the lossy parser gives up.
        assert_eq!(parse_frame_lossy(&frame[..40]), None);
    }

    #[test]
    fn set_ip_id_matches_building_with_it() {
        for id in [0u16, 1, 0x1234, u16::MAX] {
            let mut frame = build_frame(&flow(), 7, 9, TcpFlags::ACK, 3, 0, 0, b"abc");
            set_frame_ip_id(&mut frame, id);
            assert_eq!(
                frame,
                build_frame(&flow(), 7, 9, TcpFlags::ACK, 3, 0, id, b"abc")
            );
        }
    }

    #[test]
    fn ipv4_checksum_valid() {
        let h = Ipv4Header {
            src: [10, 0, 0, 1],
            dst: [10, 0, 0, 2],
            total_len: 1500,
            identification: 42,
            ttl: 64,
        };
        assert!(verify_ipv4_checksum(&h.to_bytes()));
    }

    #[test]
    fn ipv4_roundtrip() {
        let h = Ipv4Header {
            src: [1, 2, 3, 4],
            dst: [5, 6, 7, 8],
            total_len: 999,
            identification: 7,
            ttl: 64,
        };
        assert_eq!(Ipv4Header::parse(&h.to_bytes()), Some(h));
    }

    #[test]
    fn tcp_roundtrip() {
        let h = TcpHeader {
            src_port: 443,
            dst_port: 51234,
            seq: 0xdeadbeef,
            ack: 0x01020304,
            flags: TcpFlags::PSH_ACK,
            window: 29200,
            ts_val: 123456,
            ts_ecr: 654321,
        };
        let (parsed, len) = TcpHeader::parse(&h.to_bytes()).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(len, TCP_HEADER_LEN);
    }

    #[test]
    fn frame_roundtrip() {
        let payload = b"tls record bytes go here";
        let frame = build_frame(&flow(), 1000, 2000, TcpFlags::PSH_ACK, 11, 22, 77, payload);
        assert_eq!(frame.len(), FRAME_OVERHEAD + payload.len());
        let (f, tcp, p) = parse_frame(&frame).unwrap();
        assert_eq!(f, flow());
        assert_eq!(tcp.seq, 1000);
        assert_eq!(tcp.ack, 2000);
        assert_eq!(tcp.flags, TcpFlags::PSH_ACK);
        assert_eq!(p, payload);
        assert!(verify_ipv4_checksum(&frame[ETH_HEADER_LEN..]));
    }

    #[test]
    fn empty_payload_frame() {
        let frame = build_frame(&flow(), 1, 2, TcpFlags::ACK, 0, 0, 0, b"");
        let (_, tcp, p) = parse_frame(&frame).unwrap();
        assert!(p.is_empty());
        assert_eq!(tcp.flags, TcpFlags::ACK);
    }

    #[test]
    fn parse_rejects_truncated() {
        let frame = build_frame(&flow(), 1, 2, TcpFlags::ACK, 0, 0, 0, b"payload");
        assert!(parse_frame(&frame[..20]).is_none());
        // Non-IPv4 ethertype
        let mut bad = frame.clone();
        bad[12] = 0x86;
        bad[13] = 0xdd;
        assert!(parse_frame(&bad).is_none());
    }

    #[test]
    fn flow_reversal_and_canonical() {
        let f = flow();
        let r = f.reversed();
        assert_eq!(r.src_port, 443);
        assert_eq!(r.reversed(), f);
        assert_eq!(f.canonical(), r.canonical());
    }

    #[test]
    fn flags_roundtrip() {
        for flags in [
            TcpFlags::SYN,
            TcpFlags::SYN_ACK,
            TcpFlags::ACK,
            TcpFlags::PSH_ACK,
            TcpFlags::FIN_ACK,
        ] {
            assert_eq!(TcpFlags::from_byte(flags.to_byte()), flags);
        }
    }

    #[test]
    fn checksum_reference() {
        // Classic RFC 1071 worked example.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }
}
