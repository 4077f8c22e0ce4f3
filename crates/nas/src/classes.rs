//! NAS problem classes.
//!
//! The paper runs EP and IS at class B.  The smaller classes are used by the
//! test suite and the examples so they complete in milliseconds.

use std::fmt;
use std::str::FromStr;

/// An NPB problem class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Sample size for smoke tests.
    S,
    /// Workstation size.
    W,
    /// Class A.
    A,
    /// Class B — the size used in the paper's Figure 4.
    B,
    /// Class C (extension; not in the paper's figures).
    C,
}

impl Class {
    /// `log2` of the number of random pairs EP generates (`M`; EP generates
    /// `2^M` pairs).
    fn ep_log2_pairs(self) -> u32 {
        match self {
            Class::S => 24,
            Class::W => 25,
            Class::A => 28,
            Class::B => 30,
            Class::C => 32,
        }
    }

    /// Number of random pairs EP generates.
    pub(crate) fn ep_pairs(self) -> u64 {
        1u64 << self.ep_log2_pairs()
    }

    /// Number of keys IS sorts.
    pub fn is_keys(self) -> u64 {
        match self {
            Class::S => 1 << 16,
            Class::W => 1 << 20,
            Class::A => 1 << 23,
            Class::B => 1 << 25,
            Class::C => 1 << 27,
        }
    }

    /// Maximum key value (exclusive) for IS.
    pub(crate) fn is_max_key(self) -> u64 {
        match self {
            Class::S => 1 << 11,
            Class::W => 1 << 16,
            Class::A => 1 << 19,
            Class::B => 1 << 21,
            Class::C => 1 << 23,
        }
    }

    /// Number of ranking iterations IS performs.
    pub(crate) fn is_iterations(self) -> u32 {
        10
    }

    /// FT grid dimensions `(nx, ny, nz)` (the NPB 3-D FFT problem sizes).
    pub(crate) fn ft_grid(self) -> (u64, u64, u64) {
        match self {
            Class::S => (64, 64, 64),
            Class::W => (128, 128, 32),
            Class::A => (256, 256, 128),
            Class::B => (512, 256, 256),
            Class::C => (512, 512, 512),
        }
    }

    /// Number of FT evolve/FFT/checksum iterations.
    pub(crate) fn ft_iterations(self) -> u32 {
        match self {
            Class::S | Class::W | Class::A => 6,
            Class::B | Class::C => 20,
        }
    }

    /// All classes, smallest first.
    #[cfg(test)]
    pub(crate) fn all() -> [Class; 5] {
        [Class::S, Class::W, Class::A, Class::B, Class::C]
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Class::S => "S",
            Class::W => "W",
            Class::A => "A",
            Class::B => "B",
            Class::C => "C",
        };
        f.write_str(s)
    }
}

impl FromStr for Class {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "S" => Ok(Class::S),
            "W" => Ok(Class::W),
            "A" => Ok(Class::A),
            "B" => Ok(Class::B),
            "C" => Ok(Class::C),
            other => Err(format!("unknown NAS class '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_grow_with_class() {
        let classes = Class::all();
        for w in classes.windows(2) {
            assert!(w[0].ep_pairs() < w[1].ep_pairs());
            assert!(w[0].is_keys() <= w[1].is_keys());
            assert!(w[0].is_max_key() <= w[1].is_max_key());
        }
    }

    #[test]
    fn class_b_matches_npb() {
        assert_eq!(Class::B.ep_pairs(), 1 << 30);
        assert_eq!(Class::B.is_keys(), 1 << 25);
        assert_eq!(Class::B.is_max_key(), 1 << 21);
        assert_eq!(Class::B.is_iterations(), 10);
    }

    #[test]
    fn parsing_and_display() {
        assert_eq!("b".parse::<Class>().unwrap(), Class::B);
        assert_eq!("S".parse::<Class>().unwrap(), Class::S);
        assert!("Z".parse::<Class>().is_err());
        assert_eq!(Class::W.to_string(), "W");
    }
}
