//! Simulated addresses.
//!
//! Every transactional location lives in a [`crate::heap::TmHeap`] and is
//! identified by a *word address*: an index into a flat simulated byte
//! address space. Words are 8 bytes and cache lines are 32 bytes (the line
//! size of the machine in Table V of the STAMP paper), so one line holds
//! four words. Conflict-detection granularity — word for the STMs, line for
//! the HTMs and hybrids — is derived from these addresses.

/// Size of a transactional word in bytes.
pub const WORD_BYTES: u64 = 8;
/// Size of a cache line in bytes (Table V of the paper).
pub const LINE_BYTES: u64 = 32;
/// Number of words per cache line.
pub const WORDS_PER_LINE: u64 = LINE_BYTES / WORD_BYTES;

/// A simulated word address: the index of an 8-byte word in the
/// transactional heap.
///
/// `WordAddr` is a plain index, cheap to copy and hash. The null address is
/// [`WordAddr::NULL`]; the heap never hands it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WordAddr(pub u64);

impl WordAddr {
    /// Reserved null address. The heap reserves line 0 so that no live
    /// allocation ever aliases it.
    pub const NULL: WordAddr = WordAddr(0);

    /// Whether this is the null address.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The simulated byte address of this word.
    #[inline]
    pub fn byte_addr(self) -> u64 {
        self.0 * WORD_BYTES
    }

    /// The cache line this word falls in.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.byte_addr() / LINE_BYTES)
    }

    /// The word at `offset` words past this one.
    #[inline]
    pub fn offset(self, offset: u64) -> WordAddr {
        WordAddr(self.0 + offset)
    }
}

impl std::fmt::Display for WordAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{:#x}", self.0)
    }
}

/// A simulated cache-line address (byte address divided by 32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl std::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_per_line_is_four() {
        assert_eq!(WORDS_PER_LINE, 4);
    }

    #[test]
    fn null_is_line_zero() {
        assert!(WordAddr::NULL.is_null());
        assert_eq!(WordAddr::NULL.line(), LineAddr(0));
    }

    #[test]
    fn consecutive_words_share_then_split_lines() {
        let a = WordAddr(4); // first word of line 1
        assert_eq!(a.line(), LineAddr(1));
        assert_eq!(a.offset(1).line(), LineAddr(1));
        assert_eq!(a.offset(3).line(), LineAddr(1));
        assert_eq!(a.offset(4).line(), LineAddr(2));
    }

    #[test]
    fn byte_addr_scales_by_word_size() {
        assert_eq!(WordAddr(3).byte_addr(), 24);
    }

    #[test]
    fn display_formats() {
        assert_eq!(WordAddr(16).to_string(), "w0x10");
        assert_eq!(LineAddr(2).to_string(), "l0x2");
    }
}
