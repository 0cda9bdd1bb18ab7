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

/// Allocate the highest free address at or below `top`, avoiding `used`,
/// staying inside the cluster network. This matches insert-ethers'
/// "determines the next *free* IP address" with the descending convention
/// visible in Table II.
///
/// The rule over a plain list, kept as the oracle tests hold
/// [`ClusterDb::next_identity`](crate::ClusterDb::next_identity) to.
pub fn alloc_descending(top: Ipv4, used: &[Ipv4]) -> Option<Ipv4> {
    let mut candidate = top;
    loop {
        if !candidate.in_network(Ipv4::NETWORK, Ipv4::PREFIX_LEN) {
            return None;
        }
        if !used.contains(&candidate) && candidate != Ipv4::FRONTEND {
            return Some(candidate);
        }
        candidate = candidate.prev();
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

    #[test]
    fn descending_allocation_skips_used() {
        let used = vec![
            Ipv4::new(10, 255, 255, 254),
            Ipv4::new(10, 255, 255, 253),
            Ipv4::new(10, 255, 255, 251),
        ];
        assert_eq!(alloc_descending(Ipv4::ALLOC_TOP, &used), Some(Ipv4::new(10, 255, 255, 252)));
        assert_eq!(alloc_descending(Ipv4::ALLOC_TOP, &[]), Some(Ipv4::ALLOC_TOP));
    }

    #[test]
    fn allocation_never_hands_out_frontend_ip() {
        // Exhaustively walking down to the frontend address would take a
        // while; start just above it instead.
        let top = Ipv4::FRONTEND.next();
        let got = alloc_descending(top, &[top]);
        assert_eq!(got, Some(Ipv4::FRONTEND.prev()));
        assert_ne!(got, Some(Ipv4::FRONTEND));
    }

    #[test]
    fn allocation_exhaustion_returns_none() {
        // A /31-equivalent scenario: everything from top down to the
        // network edge used. Use a tiny custom walk by filling all of
        // 10.0.0.0..=10.0.0.1 and starting at 10.0.0.1.
        let used: Vec<Ipv4> = vec![Ipv4::new(10, 0, 0, 0), Ipv4::new(10, 0, 0, 1)];
        assert_eq!(alloc_descending(Ipv4::new(10, 0, 0, 1), &used), None);
    }
}
