//! Memory reference events.

use std::fmt;

/// Identifier of a program variable (array or scalar) in a [`crate::region::SymbolTable`].
///
/// `VarId`s are dense indices handed out by the symbol table in allocation order, which
/// makes them usable as vector indices in the layout algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// Returns the identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VarId {
    fn from(value: u32) -> Self {
        VarId(value)
    }
}

/// Whether a memory reference reads or writes its location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load from memory.
    Read,
    /// A store to memory.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "R"),
            AccessKind::Write => write!(f, "W"),
        }
    }
}

/// A single memory reference in a trace.
///
/// Addresses are byte addresses in a flat (simulated) physical address space. The optional
/// [`VarId`] annotation links the access back to the program variable that produced it so
/// that the data-layout algorithm can attribute conflicts to variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Byte address of the access.
    pub addr: u64,
    /// Size of the access in bytes (1, 2, 4, 8, ... ; never 0).
    pub size: u32,
    /// Whether the access is a read or a write.
    pub kind: AccessKind,
    /// The program variable this access belongs to, if known.
    pub var: Option<VarId>,
}

impl MemAccess {
    /// Creates a read access without a variable annotation.
    pub fn read(addr: u64, size: u32) -> Self {
        MemAccess {
            addr,
            size,
            kind: AccessKind::Read,
            var: None,
        }
    }

    /// Creates a write access without a variable annotation.
    pub fn write(addr: u64, size: u32) -> Self {
        MemAccess {
            addr,
            size,
            kind: AccessKind::Write,
            var: None,
        }
    }

    /// Attaches a variable annotation, returning the modified access.
    pub fn with_var(mut self, var: VarId) -> Self {
        self.var = Some(var);
        self
    }

    /// Returns the (inclusive) last byte address touched by this access.
    ///
    /// An access of size 0 is treated as touching a single byte.
    pub fn last_byte(&self) -> u64 {
        self.addr + u64::from(self.size.max(1)) - 1
    }

    /// Returns `true` if the access writes memory.
    #[inline]
    pub fn is_write(&self) -> bool {
        self.kind.is_write()
    }
}

impl fmt::Display for MemAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:#x}+{}", self.kind, self.addr, self.size)?;
        if let Some(v) = self.var {
            write!(f, " ({v})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_id_roundtrip_and_display() {
        let v = VarId::from(3u32);
        assert_eq!(v.index(), 3);
        assert_eq!(v.to_string(), "v3");
    }

    #[test]
    fn access_kind_predicates() {
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
    }

    #[test]
    fn constructors_set_kind() {
        let r = MemAccess::read(0x100, 4);
        assert_eq!(r.kind, AccessKind::Read);
        assert!(!r.is_write());
        let w = MemAccess::write(0x200, 8);
        assert!(w.is_write());
        assert_eq!(w.var, None);
    }

    #[test]
    fn with_var_attaches_annotation() {
        let a = MemAccess::read(0, 4).with_var(VarId(9));
        assert_eq!(a.var, Some(VarId(9)));
    }

    #[test]
    fn last_byte_is_inclusive() {
        assert_eq!(MemAccess::read(0x10, 4).last_byte(), 0x13);
        assert_eq!(MemAccess::read(0x10, 1).last_byte(), 0x10);
        // degenerate zero-size access treated as one byte
        assert_eq!(MemAccess::read(0x10, 0).last_byte(), 0x10);
    }

    #[test]
    fn display_contains_address_and_var() {
        let a = MemAccess::write(0x40, 4).with_var(VarId(2));
        let s = a.to_string();
        assert!(s.contains("0x40"));
        assert!(s.contains("v2"));
        assert!(s.starts_with('W'));
    }
}
