//! Wire formats: IPv4 and ICMP echo packets.
//!
//! The simulator computes delays analytically, but the measurement
//! platform still speaks in packets: Atlas reports carry packet sizes,
//! the credit system charges per packet, and the API exposes raw
//! measurement records. This module provides the exact wire encoding a
//! real probe would emit — IPv4 header + ICMP echo with the Internet
//! checksum — so sizes, TTLs and identifiers in stored results are the
//! real thing rather than made-up constants.
//!
//! Encoding appends big-endian fields to a `Vec<u8>`; parsing is
//! zero-copy over a byte slice with explicit bounds checks and checksum
//! verification.

/// The RFC 1071 Internet checksum over a byte slice.
///
/// Odd-length inputs are padded with a zero byte, per the RFC.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Errors from packet parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// Version/IHL fields malformed.
    BadHeader,
    /// Header or message checksum mismatch.
    BadChecksum,
    /// Not the protocol the parser expected.
    WrongProtocol,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "packet truncated"),
            WireError::BadHeader => write!(f, "malformed header"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::WrongProtocol => write!(f, "unexpected protocol"),
        }
    }
}

impl std::error::Error for WireError {}

/// IP protocol number for ICMP.
pub const PROTO_ICMP: u8 = 1;
/// ICMP type: echo request.
pub const ICMP_ECHO_REQUEST: u8 = 8;
/// ICMP type: echo reply.
pub const ICMP_ECHO_REPLY: u8 = 0;
/// Length of the fixed IPv4 header (no options).
pub const IPV4_HEADER_LEN: usize = 20;
/// Length of the ICMP echo header.
pub const ICMP_HEADER_LEN: usize = 8;

/// An IPv4 + ICMP echo packet (request or reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EchoPacket {
    /// True for echo request, false for reply.
    pub is_request: bool,
    /// Source address (big-endian u32 form).
    pub src: [u8; 4],
    /// Destination address.
    pub dst: [u8; 4],
    /// IP time-to-live.
    pub ttl: u8,
    /// Echo identifier (Atlas uses the measurement id).
    pub ident: u16,
    /// Echo sequence number (packet index within the round).
    pub seq: u16,
    /// Echo payload.
    pub payload: Vec<u8>,
}

impl EchoPacket {
    /// The Atlas ping default payload: 48 timestamp/cookie bytes,
    /// giving the classic 20 + 8 + 48 = 76-byte on-wire size.
    pub fn atlas_default(is_request: bool, ident: u16, seq: u16) -> Self {
        Self {
            is_request,
            src: [10, 0, 0, 1],
            dst: [10, 0, 0, 2],
            ttl: 64,
            ident,
            seq,
            payload: vec![0xA5; 48],
        }
    }

    /// Total on-wire length in bytes.
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + ICMP_HEADER_LEN + self.payload.len()
    }

    /// Encodes the packet, computing both checksums.
    pub fn encode(&self) -> Vec<u8> {
        let total_len = self.wire_len();
        let mut buf = Vec::with_capacity(total_len);
        // IPv4 header.
        buf.push(0x45); // version 4, IHL 5
        buf.push(0); // DSCP/ECN
        buf.extend_from_slice(&(total_len as u16).to_be_bytes());
        buf.extend_from_slice(&self.ident.to_be_bytes()); // identification mirrors the echo id
        buf.extend_from_slice(&0x4000u16.to_be_bytes()); // DF, no fragments
        buf.push(self.ttl);
        buf.push(PROTO_ICMP);
        buf.extend_from_slice(&0u16.to_be_bytes()); // header checksum placeholder
        buf.extend_from_slice(&self.src);
        buf.extend_from_slice(&self.dst);
        let hdr_csum = internet_checksum(&buf[..IPV4_HEADER_LEN]);
        buf[10..12].copy_from_slice(&hdr_csum.to_be_bytes());
        // ICMP echo.
        let icmp_start = buf.len();
        buf.push(if self.is_request {
            ICMP_ECHO_REQUEST
        } else {
            ICMP_ECHO_REPLY
        });
        buf.push(0); // code
        buf.extend_from_slice(&0u16.to_be_bytes()); // checksum placeholder
        buf.extend_from_slice(&self.ident.to_be_bytes());
        buf.extend_from_slice(&self.seq.to_be_bytes());
        buf.extend_from_slice(&self.payload);
        let icmp_csum = internet_checksum(&buf[icmp_start..]);
        buf[icmp_start + 2..icmp_start + 4].copy_from_slice(&icmp_csum.to_be_bytes());
        buf
    }

    /// Parses and verifies a packet produced by [`EchoPacket::encode`]
    /// (or any conforming IPv4+ICMP echo).
    pub fn parse(data: &[u8]) -> Result<EchoPacket, WireError> {
        if data.len() < IPV4_HEADER_LEN + ICMP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if data[0] != 0x45 {
            return Err(WireError::BadHeader);
        }
        let total_len = usize::from(u16::from_be_bytes([data[2], data[3]]));
        if total_len != data.len() {
            return Err(WireError::Truncated);
        }
        if internet_checksum(&data[..IPV4_HEADER_LEN]) != 0 {
            return Err(WireError::BadChecksum);
        }
        if data[9] != PROTO_ICMP {
            return Err(WireError::WrongProtocol);
        }
        let icmp = &data[IPV4_HEADER_LEN..];
        if internet_checksum(icmp) != 0 {
            return Err(WireError::BadChecksum);
        }
        let is_request = match icmp[0] {
            ICMP_ECHO_REQUEST => true,
            ICMP_ECHO_REPLY => false,
            _ => return Err(WireError::WrongProtocol),
        };
        Ok(EchoPacket {
            is_request,
            src: [data[12], data[13], data[14], data[15]],
            dst: [data[16], data[17], data[18], data[19]],
            ttl: data[8],
            ident: u16::from_be_bytes([icmp[4], icmp[5]]),
            seq: u16::from_be_bytes([icmp[6], icmp[7]]),
            payload: icmp[ICMP_HEADER_LEN..].to_vec(),
        })
    }

    /// Builds the matching reply for a request: addresses swapped,
    /// fresh TTL, same identifier/sequence/payload.
    pub fn reply_to(&self) -> EchoPacket {
        EchoPacket {
            is_request: false,
            src: self.dst,
            dst: self.src,
            ttl: 64,
            ident: self.ident,
            seq: self.seq,
            payload: self.payload.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_known_vector() {
        // Classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn checksum_of_checksummed_data_is_zero() {
        let pkt = EchoPacket::atlas_default(true, 42, 7).encode();
        assert_eq!(internet_checksum(&pkt[..IPV4_HEADER_LEN]), 0);
        assert_eq!(internet_checksum(&pkt[IPV4_HEADER_LEN..]), 0);
    }

    #[test]
    fn atlas_default_is_76_bytes() {
        let pkt = EchoPacket::atlas_default(true, 1, 0);
        assert_eq!(pkt.wire_len(), 76);
        assert_eq!(pkt.encode().len(), 76);
    }

    #[test]
    fn encode_parse_round_trip() {
        let pkt = EchoPacket {
            is_request: true,
            src: [192, 0, 2, 17],
            dst: [198, 51, 100, 4],
            ttl: 57,
            ident: 0xBEEF,
            seq: 3,
            payload: b"latency shears".to_vec(),
        };
        let parsed = EchoPacket::parse(&pkt.encode()).unwrap();
        assert_eq!(parsed, pkt);
    }

    #[test]
    fn reply_swaps_addresses_and_keeps_identity() {
        let req = EchoPacket::atlas_default(true, 9, 2);
        let rep = req.reply_to();
        assert!(!rep.is_request);
        assert_eq!(rep.src, req.dst);
        assert_eq!(rep.dst, req.src);
        assert_eq!(rep.ident, 9);
        assert_eq!(rep.seq, 2);
        let parsed = EchoPacket::parse(&rep.encode()).unwrap();
        assert_eq!(parsed, rep);
    }

    #[test]
    fn parse_rejects_corruption() {
        let mut pkt = EchoPacket::atlas_default(true, 1, 1).encode();
        // Flip a payload byte: ICMP checksum must fail.
        let last = pkt.len() - 1;
        pkt[last] ^= 0xFF;
        assert_eq!(EchoPacket::parse(&pkt), Err(WireError::BadChecksum));
        // Truncation.
        assert_eq!(EchoPacket::parse(&pkt[..10]), Err(WireError::Truncated));
        // Wrong version nibble.
        let mut pkt = EchoPacket::atlas_default(true, 1, 1).encode();
        pkt[0] = 0x46;
        assert_eq!(EchoPacket::parse(&pkt), Err(WireError::BadHeader));
    }

    #[test]
    fn parse_rejects_non_icmp_protocol() {
        let mut pkt = EchoPacket::atlas_default(true, 1, 1).encode();
        pkt[9] = 6; // TCP
                    // Re-fix the header checksum so the protocol check is reached.
        pkt[10] = 0;
        pkt[11] = 0;
        let csum = internet_checksum(&pkt[..IPV4_HEADER_LEN]);
        pkt[10..12].copy_from_slice(&csum.to_be_bytes());
        assert_eq!(EchoPacket::parse(&pkt), Err(WireError::WrongProtocol));
    }

    #[test]
    fn length_mismatch_detected() {
        let mut pkt = EchoPacket::atlas_default(true, 1, 1).encode();
        pkt.push(0); // trailing garbage
        assert_eq!(EchoPacket::parse(&pkt), Err(WireError::Truncated));
    }
}
