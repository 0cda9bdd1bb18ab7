//! IPv4 helpers for cluster address management.
//!
//! Rocks clusters use the private 10.0.0.0/8 network internally; the
//! frontend takes `10.1.1.1` and insert-ethers hands out addresses
//! descending from `10.255.255.254` (Table II shows the pattern:
//! `10.255.255.253`, `.249`, `.245`, ...).

use std::fmt;

/// A plain IPv4 address with ordering (descending allocation needs it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// From dotted quads.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4 {
        Ipv4(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Parse dotted-quad text.
    pub fn parse(s: &str) -> Option<Ipv4> {
        let mut parts = s.split('.');
        let mut octets = [0u8; 4];
        for octet in &mut octets {
            *octet = parts.next()?.parse().ok()?;
        }
        if parts.next().is_some() {
            return None;
        }
        Some(Ipv4::new(octets[0], octets[1], octets[2], octets[3]))
    }

    /// The four octets.
    pub fn octets(self) -> [u8; 4] {
        [(self.0 >> 24) as u8, (self.0 >> 16) as u8, (self.0 >> 8) as u8, self.0 as u8]
    }

    /// The previous address (wrapping is the caller's concern; allocation
    /// bounds-checks against the network base).
    pub fn prev(self) -> Ipv4 {
        Ipv4(self.0.wrapping_sub(1))
    }

    /// The next address.
    pub fn next(self) -> Ipv4 {
        Ipv4(self.0.wrapping_add(1))
    }

    /// True when `self` lies within `network/prefix_len`.
    pub fn in_network(self, network: Ipv4, prefix_len: u8) -> bool {
        if prefix_len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - prefix_len as u32);
        (self.0 & mask) == (network.0 & mask)
    }

    /// The frontend's conventional internal address.
    pub const FRONTEND: Ipv4 = Ipv4::new(10, 1, 1, 1);
    /// The top of the insert-ethers allocation range.
    pub const ALLOC_TOP: Ipv4 = Ipv4::new(10, 255, 255, 254);
    /// The cluster-internal network base.
    pub const NETWORK: Ipv4 = Ipv4::new(10, 0, 0, 0);
    /// The cluster-internal netmask prefix length.
    pub const PREFIX_LEN: u8 = 8;
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["10.1.1.1", "10.255.255.254", "0.0.0.0", "255.255.255.255"] {
            assert_eq!(Ipv4::parse(s).unwrap().to_string(), s);
        }
        assert_eq!(Ipv4::parse("10.1.1"), None);
        assert_eq!(Ipv4::parse("10.1.1.1.1"), None);
        assert_eq!(Ipv4::parse("10.1.1.300"), None);
        assert_eq!(Ipv4::parse("ten.one.one.one"), None);
    }

    #[test]
    fn ordering_matches_numeric() {
        assert!(Ipv4::new(10, 255, 255, 254) > Ipv4::new(10, 255, 255, 245));
        assert!(Ipv4::new(10, 1, 1, 1) < Ipv4::new(10, 2, 0, 0));
    }

    #[test]
    fn prev_next() {
        assert_eq!(Ipv4::new(10, 255, 255, 254).prev(), Ipv4::new(10, 255, 255, 253));
        assert_eq!(Ipv4::new(10, 0, 0, 255).next(), Ipv4::new(10, 0, 1, 0));
        assert_eq!(Ipv4::new(10, 1, 0, 0).prev(), Ipv4::new(10, 0, 255, 255));
    }

    #[test]
    fn network_membership() {
        assert!(Ipv4::new(10, 9, 9, 9).in_network(Ipv4::NETWORK, 8));
        assert!(!Ipv4::new(11, 0, 0, 1).in_network(Ipv4::NETWORK, 8));
        assert!(Ipv4::new(192, 168, 1, 5).in_network(Ipv4::new(192, 168, 1, 0), 24));
        assert!(!Ipv4::new(192, 168, 2, 5).in_network(Ipv4::new(192, 168, 1, 0), 24));
    }
}
