//! Minimal RFC 4122 v4 UUIDs for WS-Addressing message identifiers.

use std::fmt;
use std::str::FromStr;

use wsg_net::Rng64;

/// A 128-bit version-4 UUID.
///
/// ```
/// use wsg_soap::Uuid;
///
/// let id = Uuid::random(&mut wsg_net::SplitMix64::new(7));
/// let text = id.to_string();
/// assert_eq!(text.parse::<Uuid>().unwrap(), id);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Uuid(u128);

impl Uuid {
    /// Build from raw bits, forcing the RFC 4122 version (4) and variant
    /// bits so the result is always a well-formed v4 UUID.
    fn from_u128(bits: u128) -> Self {
        let versioned = (bits & !(0xF << 76)) | (0x4 << 76);
        let varianted = (versioned & !(0x3 << 62)) | (0x2 << 62);
        Uuid(varianted)
    }

    /// Generate a random UUID from the given RNG (deterministic runs use a
    /// seeded RNG — important for the reproducible simulator).
    pub fn random<R: Rng64 + ?Sized>(rng: &mut R) -> Self {
        let hi = rng.next_u64() as u128;
        let lo = rng.next_u64() as u128;
        Uuid::from_u128((hi << 64) | lo)
    }

    /// Render as a `urn:uuid:...` URI, the form WS-Addressing uses for
    /// `MessageID`.
    pub fn to_urn(&self) -> String {
        format!("urn:uuid:{self}")
    }
}

impl fmt::Display for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
            (b >> 96) as u32,
            (b >> 80) as u16,
            (b >> 64) as u16,
            (b >> 48) as u16,
            b & 0xFFFF_FFFF_FFFF
        )
    }
}

/// Error returned when parsing a malformed UUID string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUuidError;

impl fmt::Display for ParseUuidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid uuid syntax")
    }
}

impl std::error::Error for ParseUuidError {}

impl FromStr for Uuid {
    type Err = ParseUuidError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.strip_prefix("urn:uuid:").unwrap_or(s);
        let parts: Vec<&str> = s.split('-').collect();
        if parts.len() != 5
            || parts[0].len() != 8
            || parts[1].len() != 4
            || parts[2].len() != 4
            || parts[3].len() != 4
            || parts[4].len() != 12
        {
            return Err(ParseUuidError);
        }
        let mut bits: u128 = 0;
        for part in parts {
            let v = u64::from_str_radix(part, 16).map_err(|_| ParseUuidError)?;
            bits = (bits << (part.len() * 4)) | v as u128;
        }
        Ok(Uuid(bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_net::SplitMix64;

    #[test]
    fn version_and_variant_bits_forced() {
        let id = Uuid::from_u128(0);
        let text = id.to_string();
        // xxxxxxxx-xxxx-4xxx-{8,9,a,b}xxx-xxxxxxxxxxxx
        assert_eq!(&text[14..15], "4");
        assert!(matches!(&text[19..20], "8" | "9" | "a" | "b"));
    }

    #[test]
    fn display_parse_roundtrip() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..100 {
            let id = Uuid::random(&mut rng);
            assert_eq!(id.to_string().parse::<Uuid>().unwrap(), id);
            assert_eq!(id.to_urn().parse::<Uuid>().unwrap(), id);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Uuid::random(&mut SplitMix64::new(42));
        let b = Uuid::random(&mut SplitMix64::new(42));
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed() {
        assert!("not-a-uuid".parse::<Uuid>().is_err());
        assert!("00000000-0000-0000-0000".parse::<Uuid>().is_err());
        assert!("g0000000-0000-4000-8000-000000000000".parse::<Uuid>().is_err());
    }

    #[test]
    fn rfc4122_bits_hold_at_the_bit_level_for_any_input() {
        let mut rng = SplitMix64::new(13);
        // Adversarial corners plus random draws: the version nibble must
        // be 4 and the variant's top two bits must be 0b10 regardless of
        // the raw input bits.
        let corners = [0u128, u128::MAX, 0xF << 76, 0x3 << 62, 1, 1 << 127];
        let randoms = (0..1000).map(|_| {
            let hi = rng.next() as u128;
            let lo = rng.next() as u128;
            (hi << 64) | lo
        });
        for raw in corners.into_iter().chain(randoms) {
            let bits = Uuid::from_u128(raw).0;
            assert_eq!((bits >> 76) & 0xF, 0x4, "version nibble for {raw:#x}");
            assert_eq!((bits >> 62) & 0x3, 0x2, "variant bits for {raw:#x}");
            // Everything outside the forced bits is preserved verbatim.
            let mask = !((0xFu128 << 76) | (0x3u128 << 62));
            assert_eq!(bits & mask, raw & mask, "payload bits for {raw:#x}");
        }
    }

    #[test]
    fn ten_thousand_draws_are_unique() {
        let mut rng = SplitMix64::new(2024);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(Uuid::random(&mut rng)), "collision after {}", seen.len());
        }
    }

    #[test]
    fn urn_formatting_roundtrips_and_is_canonical() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..200 {
            let id = Uuid::random(&mut rng);
            let urn = id.to_urn();
            assert!(urn.starts_with("urn:uuid:"));
            let text = &urn["urn:uuid:".len()..];
            assert_eq!(text.len(), 36);
            assert!(
                text.bytes().enumerate().all(|(i, b)| match i {
                    8 | 13 | 18 | 23 => b == b'-',
                    _ => b.is_ascii_hexdigit() && !b.is_ascii_uppercase(),
                }),
                "non-canonical urn: {urn}"
            );
            // Round-trip through the urn form, and through the bare form
            // embedded in WS-Addressing style comparisons.
            assert_eq!(urn.parse::<Uuid>().unwrap(), id);
            assert_eq!(text.parse::<Uuid>().unwrap(), id);
        }
    }
}
