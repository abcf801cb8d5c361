//! Tints: the level of indirection between pages and column bit-vectors.
//!
//! Pages are mapped to a *tint* rather than directly to a column bit-vector (Section 2.2).
//! The [`TintTable`] maps each tint to a [`ColumnMask`]; remapping a tint is a single table
//! write and takes effect on the next miss, whereas re-tinting a page requires a page-table
//! update and a TLB flush for that page. This module models the table; the cost distinction
//! is modelled by [`crate::system::MemorySystem`].

use crate::error::SimError;
use crate::mask::ColumnMask;
use std::collections::BTreeMap;
use std::fmt;

/// A named virtual grouping of address regions (the paper's "red", "blue", ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tint(pub u32);

impl Tint {
    /// The default tint every page starts with; maps to all columns unless remapped.
    pub const DEFAULT: Tint = Tint(0);
}

impl fmt::Display for Tint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tint{}", self.0)
    }
}

impl From<u32> for Tint {
    fn from(value: u32) -> Self {
        Tint(value)
    }
}

/// The tint → column-bit-vector table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TintTable {
    columns: usize,
    map: BTreeMap<Tint, ColumnMask>,
    /// Number of tint remappings performed (each is a cheap table write).
    pub remaps: u64,
}

impl TintTable {
    /// Creates a table for a `columns`-column cache with [`Tint::DEFAULT`] mapped to every
    /// column (so an unconfigured system behaves exactly like a normal cache).
    pub fn new(columns: usize) -> Self {
        let mut map = BTreeMap::new();
        map.insert(Tint::DEFAULT, ColumnMask::all(columns));
        TintTable {
            columns,
            map,
            remaps: 0,
        }
    }

    /// Number of columns the masks are validated against.
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Defines or redefines the mask of a tint.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyMask`] or [`SimError::ColumnOutOfRange`] if the mask is not
    /// valid for this cache.
    pub fn define(&mut self, tint: Tint, mask: ColumnMask) -> Result<(), SimError> {
        mask.validate(self.columns)?;
        self.map.insert(tint, mask);
        self.remaps += 1;
        Ok(())
    }

    /// Returns the mask of `tint`, if defined.
    pub fn mask_of(&self, tint: Tint) -> Option<ColumnMask> {
        self.map.get(&tint).copied()
    }

    /// Returns the mask of `tint`, falling back to the default tint's mask for unknown
    /// tints (hardware would treat an unknown tint as "anywhere").
    pub fn mask_or_default(&self, tint: Tint) -> ColumnMask {
        self.mask_of(tint)
            .or_else(|| self.mask_of(Tint::DEFAULT))
            .unwrap_or_else(|| ColumnMask::all(self.columns))
    }

    /// Number of tints defined (including the default tint).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// The table always contains at least the default tint.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over `(tint, mask)` pairs in tint order.
    pub fn iter(&self) -> impl Iterator<Item = (Tint, ColumnMask)> + '_ {
        self.map.iter().map(|(t, m)| (*t, *m))
    }

    /// Removes every column in `mask` from every *other* tint's mask, leaving at least one
    /// column per tint. This is the bookkeeping the paper's Figure 3 example performs when
    /// a column is given exclusively to a new tint: the default tint (and any other tint)
    /// must stop replacing into it.
    ///
    /// Tints whose mask would become empty are left unchanged and reported back.
    pub fn make_exclusive(&mut self, owner: Tint, mask: ColumnMask) -> Result<Vec<Tint>, SimError> {
        mask.validate(self.columns)?;
        self.map.insert(owner, mask);
        self.remaps += 1;
        let mut skipped = Vec::new();
        let keys: Vec<Tint> = self.map.keys().copied().collect();
        for t in keys {
            if t == owner {
                continue;
            }
            let cur = self.map[&t];
            let reduced = cur & !mask;
            if reduced.is_empty() {
                skipped.push(t);
            } else if reduced != cur {
                self.map.insert(t, reduced);
                self.remaps += 1;
            }
        }
        Ok(skipped)
    }
}

impl Default for TintTable {
    fn default() -> Self {
        TintTable::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tint_maps_to_all_columns() {
        let t = TintTable::new(4);
        assert_eq!(t.mask_of(Tint::DEFAULT), Some(ColumnMask::all(4)));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.columns(), 4);
    }

    #[test]
    fn define_validates_masks() {
        let mut t = TintTable::new(4);
        assert!(t.define(Tint(1), ColumnMask::single(2)).is_ok());
        assert_eq!(t.mask_of(Tint(1)), Some(ColumnMask::single(2)));
        assert_eq!(
            t.define(Tint(2), ColumnMask::EMPTY),
            Err(SimError::EmptyMask)
        );
        assert!(matches!(
            t.define(Tint(2), ColumnMask::single(7)),
            Err(SimError::ColumnOutOfRange { .. })
        ));
        assert_eq!(t.remaps, 1);
    }

    #[test]
    fn unknown_tints_fall_back_to_default() {
        let mut t = TintTable::new(4);
        assert_eq!(t.mask_or_default(Tint(9)), ColumnMask::all(4));
        assert_eq!(t.mask_of(Tint(9)), None);
        // and the fallback follows the default tint if it is remapped
        t.define(Tint::DEFAULT, ColumnMask::from_columns([0, 1]))
            .unwrap();
        assert_eq!(t.mask_or_default(Tint(9)), ColumnMask::from_columns([0, 1]));
    }

    #[test]
    fn make_exclusive_carves_out_columns() {
        // Reproduces the Figure 3 example: page gets its own column (blue), red loses it.
        let mut t = TintTable::new(4);
        let blue = Tint(1);
        let skipped = t.make_exclusive(blue, ColumnMask::single(1)).unwrap();
        assert!(skipped.is_empty());
        assert_eq!(t.mask_of(blue), Some(ColumnMask::single(1)));
        assert_eq!(
            t.mask_of(Tint::DEFAULT),
            Some(ColumnMask::from_columns([0, 2, 3]))
        );
    }

    #[test]
    fn make_exclusive_never_empties_other_tints() {
        let mut t = TintTable::new(2);
        t.define(Tint(1), ColumnMask::single(0)).unwrap();
        // giving tint 2 both columns would empty tint 1 and the default tint
        let skipped = t.make_exclusive(Tint(2), ColumnMask::all(2)).unwrap();
        assert!(skipped.contains(&Tint(1)));
        assert!(skipped.contains(&Tint::DEFAULT));
        assert_eq!(t.mask_of(Tint(1)), Some(ColumnMask::single(0)));
    }

    #[test]
    fn display_and_from() {
        assert_eq!(Tint::from(3u32).to_string(), "tint3");
        assert_eq!(Tint::DEFAULT, Tint(0));
    }

    #[test]
    fn iter_lists_all_tints() {
        let mut t = TintTable::new(4);
        t.define(Tint(5), ColumnMask::single(0)).unwrap();
        let v: Vec<_> = t.iter().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].0, Tint::DEFAULT);
        assert_eq!(v[1].0, Tint(5));
    }
}
