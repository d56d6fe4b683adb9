//! The on-device page format: one page per 64-byte device block.
//!
//! ```text
//! offset  size  field
//!      0     4  crc32 over bytes 4..64 (little-endian)
//!      4     1  page type (free / super / index / data)
//!      5     1  flags (bit 0: head of a data chain)
//!      6     2  len — payload bytes in use (LE)
//!      8     8  key — the KV key this page belongs to (LE; 0 if n/a)
//!     16     4  next — page id of the chain successor (LE; NO_PAGE)
//!     20    44  payload
//! ```
//!
//! The CRC is the last line of defense: the block layer's BCH can
//! miscorrect a heavily drifted codeword into a *valid but wrong* 64
//! bytes, and only an end-to-end checksum over the stored image catches
//! that. Decode therefore verifies the CRC before trusting any header
//! field, and every defect is reported as a typed [`PageDefect`] which
//! the store surfaces as `StoreError::CorruptPage`.

use crate::crc::crc32;
use pcm_device::block::BLOCK_BYTES;

/// Page size: one device block.
pub const PAGE_BYTES: usize = BLOCK_BYTES;
/// Header bytes preceding the payload.
pub const HEADER_BYTES: usize = 20;
/// Usable payload bytes per page.
pub const PAGE_PAYLOAD_BYTES: usize = PAGE_BYTES - HEADER_BYTES;
/// Chain terminator / "no page" sentinel.
pub const NO_PAGE: u32 = u32::MAX;
/// Flag bit: this data page is the head of its value's chain.
pub const FLAG_CHAIN_HEAD: u8 = 1;

/// What a page is used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageType {
    /// A page `format` programmed and nothing has used yet. Free space
    /// is defined by reachability, not by this type: a freed page keeps
    /// whatever it last held.
    Free,
    /// The superblock (page 0).
    Super,
    /// A hash-directory bucket or overflow page.
    Index,
    /// A page of value bytes (`key`, `len`, chain via `next`).
    Data,
}

impl PageType {
    fn code(self) -> u8 {
        match self {
            PageType::Free => 0,
            PageType::Super => 1,
            PageType::Index => 2,
            PageType::Data => 3,
        }
    }

    fn from_code(code: u8) -> Option<PageType> {
        match code {
            0 => Some(PageType::Free),
            1 => Some(PageType::Super),
            2 => Some(PageType::Index),
            3 => Some(PageType::Data),
            _ => None,
        }
    }
}

/// Why a page image failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PageDefect {
    /// The stored CRC does not match the page contents.
    BadCrc,
    /// The type byte is not a known page type (checked after the CRC, so
    /// this means a format bug, not medium corruption).
    BadType(u8),
    /// `len` exceeds the payload capacity.
    BadLength(u16),
    /// The device could not read the block at all (uncorrectable ECC).
    Unreadable,
    /// The page decodes but is not what the caller expected (wrong type
    /// or wrong key — a dangling pointer in the page graph).
    WrongPage,
}

impl std::fmt::Display for PageDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageDefect::BadCrc => write!(f, "checksum mismatch"),
            PageDefect::BadType(code) => write!(f, "unknown page type {code}"),
            PageDefect::BadLength(len) => write!(f, "payload length {len} exceeds capacity"),
            PageDefect::Unreadable => write!(f, "uncorrectable device read"),
            PageDefect::WrongPage => write!(f, "page graph points at the wrong page"),
        }
    }
}

/// A decoded page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// What the page is used for.
    pub page_type: PageType,
    /// Flag bits (see [`FLAG_CHAIN_HEAD`]).
    pub flags: u8,
    /// Payload bytes in use.
    pub len: u16,
    /// Owning KV key (0 when not applicable).
    pub key: u64,
    /// Chain successor ([`NO_PAGE`] terminates).
    pub next: u32,
    /// Payload (bytes past `len` are zero).
    pub payload: [u8; PAGE_PAYLOAD_BYTES],
}

impl Page {
    /// An empty page of the given type.
    pub fn empty(page_type: PageType) -> Page {
        Page {
            page_type,
            flags: 0,
            len: 0,
            key: 0,
            next: NO_PAGE,
            payload: [0; PAGE_PAYLOAD_BYTES],
        }
    }

    /// Serialize to the 64-byte on-device image (computes the CRC).
    pub fn encode(&self) -> [u8; PAGE_BYTES] {
        let mut out = [0u8; PAGE_BYTES];
        out[4] = self.page_type.code();
        out[5] = self.flags;
        out[6..8].copy_from_slice(&self.len.to_le_bytes());
        out[8..16].copy_from_slice(&self.key.to_le_bytes());
        out[16..20].copy_from_slice(&self.next.to_le_bytes());
        out[HEADER_BYTES..].copy_from_slice(&self.payload);
        let crc = crc32(&out[4..]);
        out[..4].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserialize a 64-byte image, verifying the CRC first.
    pub fn decode(bytes: &[u8]) -> Result<Page, PageDefect> {
        if bytes.len() != PAGE_BYTES {
            return Err(PageDefect::Unreadable);
        }
        let stored = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        if crc32(&bytes[4..]) != stored {
            return Err(PageDefect::BadCrc);
        }
        let page_type = PageType::from_code(bytes[4]).ok_or(PageDefect::BadType(bytes[4]))?;
        let len = u16::from_le_bytes([bytes[6], bytes[7]]);
        if len as usize > PAGE_PAYLOAD_BYTES {
            return Err(PageDefect::BadLength(len));
        }
        let mut key = [0u8; 8];
        key.copy_from_slice(&bytes[8..16]);
        let mut next = [0u8; 4];
        next.copy_from_slice(&bytes[16..20]);
        let mut payload = [0u8; PAGE_PAYLOAD_BYTES];
        payload.copy_from_slice(&bytes[HEADER_BYTES..]);
        Ok(Page {
            page_type,
            flags: bytes[5],
            len,
            key: u64::from_le_bytes(key),
            next: u32::from_le_bytes(next),
            payload,
        })
    }

    /// The in-use payload bytes.
    pub fn data(&self) -> &[u8] {
        &self.payload[..self.len as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut p = Page::empty(PageType::Data);
        p.flags = FLAG_CHAIN_HEAD;
        p.len = 5;
        p.key = 0xDEAD_BEEF_F00D;
        p.next = 17;
        p.payload[..5].copy_from_slice(b"hello");
        let bytes = p.encode();
        assert_eq!(Page::decode(&bytes), Ok(p));
    }

    #[test]
    fn any_corrupted_byte_is_detected() {
        let mut p = Page::empty(PageType::Index);
        p.key = 42;
        p.len = 12;
        let bytes = p.encode();
        for i in 0..PAGE_BYTES {
            let mut bad = bytes;
            bad[i] ^= 0x40;
            let got = Page::decode(&bad);
            assert!(got.is_err(), "corruption at byte {i} went undetected");
        }
    }

    #[test]
    fn rejects_bad_type_and_length() {
        let mut image = Page::empty(PageType::Data).encode();
        image[4] = 9; // unknown type, CRC re-sealed below
        let crc = crate::crc::crc32(&image[4..]);
        image[..4].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(Page::decode(&image), Err(PageDefect::BadType(9)));

        let mut image = Page::empty(PageType::Data).encode();
        image[6..8].copy_from_slice(&100u16.to_le_bytes());
        let crc = crate::crc::crc32(&image[4..]);
        image[..4].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(Page::decode(&image), Err(PageDefect::BadLength(100)));
    }
}
