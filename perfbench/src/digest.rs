//! Digests of response bytes, for the output check.
//!
//! Each of a response's text, body and meta is digested on its own with
//! 64-bit FNV-1a. An absent body or meta digests differently from an
//! empty one, so a response that drops its artefact cannot match.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The digest of an optional part, as 16 hex digits; `-` when absent.
pub fn part(bytes: Option<&str>) -> String {
    match bytes {
        Some(s) => format!("{:016x}", fnv1a(s.as_bytes())),
        None => "-".to_owned(),
    }
}

/// The three digests of one response: text, body and meta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseDigest {
    pub text: String,
    pub body: String,
    pub meta: String,
}

impl ResponseDigest {
    pub fn of(text: &str, body: Option<&str>, meta: Option<&str>) -> Self {
        ResponseDigest {
            text: part(Some(text)),
            body: part(body),
            meta: part(meta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force from the definition: xor the byte in, then multiply
    /// by the prime as a sum of shifted copies, reduced mod 2^64 in u128.
    fn oracle(bytes: &[u8]) -> u64 {
        let mut h: u128 = u128::from(OFFSET);
        for &b in bytes {
            h ^= u128::from(b);
            let mut product: u128 = 0;
            for bit in 0..64 {
                if (PRIME >> bit) & 1 == 1 {
                    product += h << bit;
                }
            }
            h = product % (1u128 << 64);
        }
        h as u64
    }

    #[test]
    fn published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn matches_oracle() {
        let mut data = Vec::new();
        for i in 0..300u32 {
            assert_eq!(fnv1a(&data), oracle(&data), "len {}", data.len());
            data.push((i.wrapping_mul(2_654_435_761) >> 24) as u8);
        }
    }

    #[test]
    fn absent_differs_from_empty() {
        assert_ne!(part(None), part(Some("")));
        let a = ResponseDigest::of("x", Some("{}"), None);
        let b = ResponseDigest::of("x", Some("{}"), Some(""));
        assert_ne!(a, b);
    }
}
