//! Seed bit strings and partially-fixed seeds.

/// A fully specified seed: a bit string of fixed length.
///
/// Seeds are what the derandomizers search over and what
/// [`crate::family::KWiseFamily`] consumes as the description of a hash
/// function (Lemma 2.3 of the paper: choosing a random function takes
/// `k · max{a, b}` random bits).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Seed {
    len: usize,
    words: Vec<u64>,
}

impl Seed {
    /// All-zero seed of the given bit length.
    pub fn zeros(len: usize) -> Self {
        Self {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Deterministically expands a counter into a seed of the given
    /// length using the SplitMix64 sequence. Used by
    /// [`crate::derand::seed_search`] to enumerate candidate seeds in a
    /// fixed, platform-independent order.
    pub fn from_counter(len: usize, counter: u64) -> Self {
        let mut s = Self::zeros(len);
        let mut state = counter
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(counter);
        for w in &mut s.words {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *w = z ^ (z >> 31);
        }
        s.mask_tail();
        s
    }

    /// Builds a seed from explicit bits (LSB-first).
    ///
    /// # Panics
    ///
    /// Never; the length is taken from the slice.
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut s = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            s.set(i, b);
        }
        s
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the seed has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        if value {
            self.words[i / 64] |= 1u64 << (i % 64);
        } else {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Extracts bits `[start, start + width)` as a `u64` (LSB-first).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or the range exceeds the seed length.
    pub fn chunk(&self, start: usize, width: usize) -> u64 {
        assert!(width <= 64);
        assert!(start + width <= self.len);
        let mut out = 0u64;
        for i in 0..width {
            if self.get(start + i) {
                out |= 1u64 << i;
            }
        }
        out
    }

    fn mask_tail(&mut self) {
        let extra = self.words.len() * 64 - self.len;
        if extra > 0 && !self.words.is_empty() {
            let last = self.words.len() - 1;
            self.words[last] &= u64::MAX >> extra;
        }
    }
}

/// A seed whose bits are fixed one at a time, as in the method of
/// conditional expectations (Claim 5.6 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialSeed {
    bits: Vec<Option<bool>>,
}

impl PartialSeed {
    /// A fully-unfixed partial seed of the given bit length.
    pub fn unfixed(len: usize) -> Self {
        Self {
            bits: vec![None; len],
        }
    }

    /// Number of bits (fixed + free).
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the seed has zero bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Number of still-free bits.
    pub fn free_bits(&self) -> usize {
        self.bits.iter().filter(|b| b.is_none()).count()
    }

    /// Fixes bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or already fixed.
    pub fn fix(&mut self, i: usize, value: bool) {
        assert!(self.bits[i].is_none(), "bit {i} already fixed");
        self.bits[i] = Some(value);
    }

    /// The value of bit `i` if fixed.
    pub fn get(&self, i: usize) -> Option<bool> {
        self.bits[i]
    }

    /// Converts to a [`Seed`].
    ///
    /// # Panics
    ///
    /// Panics if any bit is still free.
    pub fn to_seed(&self) -> Seed {
        let bits: Vec<bool> = self
            .bits
            .iter()
            .map(|b| b.expect("partial seed not complete"))
            .collect();
        Seed::from_bits(&bits)
    }

    /// Iterates over **all** completions of the free bits, in lexicographic
    /// order of the free-bit assignment. Used by the exact
    /// conditional-expectation derandomizer; exponential in
    /// [`PartialSeed::free_bits`].
    pub fn completions(&self) -> impl Iterator<Item = Seed> + '_ {
        let free_idx: Vec<usize> = self
            .bits
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_none())
            .map(|(i, _)| i)
            .collect();
        let count: u64 = 1u64
            .checked_shl(free_idx.len() as u32)
            .expect("too many free bits to enumerate");
        (0..count).map(move |assignment| {
            let mut bits: Vec<bool> = self.bits.iter().map(|b| b.unwrap_or(false)).collect();
            for (j, &i) in free_idx.iter().enumerate() {
                bits[i] = assignment >> j & 1 == 1;
            }
            Seed::from_bits(&bits)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut s = Seed::zeros(70);
        assert_eq!(s.len(), 70);
        assert!(!s.get(69));
        s.set(69, true);
        assert!(s.get(69));
        s.set(69, false);
        assert!(!s.get(69));
    }

    #[test]
    fn from_counter_deterministic_and_distinct() {
        let a = Seed::from_counter(128, 0);
        let b = Seed::from_counter(128, 0);
        let c = Seed::from_counter(128, 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn from_counter_masks_tail() {
        let s = Seed::from_counter(5, 99);
        // No bit beyond index 4 can be read; internal word tail is zeroed
        // so equality semantics are well-defined.
        let t = Seed::from_bits(&[s.get(0), s.get(1), s.get(2), s.get(3), s.get(4)]);
        assert_eq!(s, t);
    }

    #[test]
    fn chunk_extraction() {
        let s = Seed::from_bits(&[true, false, true, true, false, false, true, false]);
        assert_eq!(s.chunk(0, 4), 0b1101);
        assert_eq!(s.chunk(4, 4), 0b0100);
        assert_eq!(s.chunk(2, 3), 0b011);
    }

    #[test]
    fn chunk_across_word_boundary() {
        let mut s = Seed::zeros(100);
        s.set(63, true);
        s.set(64, true);
        assert_eq!(s.chunk(60, 8), 0b0001_1000);
    }

    #[test]
    fn partial_fixing_and_completion() {
        let mut p = PartialSeed::unfixed(3);
        assert_eq!(p.free_bits(), 3);
        assert_eq!(p.completions().count(), 8);
        p.fix(1, true);
        assert_eq!(p.free_bits(), 2);
        let comps: Vec<Seed> = p.completions().collect();
        assert_eq!(comps.len(), 4);
        for c in &comps {
            assert!(c.get(1));
        }
        p.fix(0, false);
        p.fix(2, true);
        assert_eq!(p.free_bits(), 0);
        let s = p.to_seed();
        assert!(!s.get(0) && s.get(1) && s.get(2));
    }

    #[test]
    #[should_panic(expected = "already fixed")]
    fn double_fix_panics() {
        let mut p = PartialSeed::unfixed(2);
        p.fix(0, true);
        p.fix(0, false);
    }

    #[test]
    #[should_panic(expected = "not complete")]
    fn incomplete_to_seed_panics() {
        let p = PartialSeed::unfixed(2);
        let _ = p.to_seed();
    }
}
