//! Typed persistent pointers — the analogue of `libpmemobj-cpp`'s
//! `persistent_ptr<T>` and of PMDK's type-safety macros (§IV-B).
//!
//! PMDK's C API is untyped; the `TOID` macros attach a *type number* to
//! every oid and check it at access time, and the C++ bindings wrap that in
//! `persistent_ptr<T>`. SPP "supports the type-safety macros and adapts the
//! base class for PM pointers to transparently use the modified
//! `pmemobj_direct`" — which is what [`TypedOid`] does here: every access
//! builds one [`ObjRef`] over the object through the policy's (tagged,
//! under SPP) `direct`, so typed code gets the same spatial and temporal
//! protection for free, at one check per access.
//!
//! Each stored object is prefixed with an 8-byte type number; reading it
//! back through the wrong type fails like `TOID_VALID` would.

use std::marker::PhantomData;

use spp_pmdk::{PmdkError, PmemOid};

use crate::handle::ObjRef;
use crate::policy::MemoryPolicy;
use crate::{Result, SppError};

/// A fixed-layout type storable in PM.
///
/// Implementations define their on-media encoding explicitly (PM layouts
/// must be stable across compilations, so `#[repr(Rust)]` memory dumps are
/// not acceptable). The workspace provides impls for the primitive cases;
/// applications implement it for their records.
pub trait PmType: Sized {
    /// Unique type number (the `TOID` type id). Pick stable constants.
    const TYPE_NUM: u64;
    /// Encoded size in bytes.
    const SIZE: u64;

    /// Encode into exactly [`PmType::SIZE`] bytes.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode from exactly [`PmType::SIZE`] bytes.
    fn decode(bytes: &[u8]) -> Self;
}

impl PmType for u64 {
    const TYPE_NUM: u64 = 1;
    const SIZE: u64 = 8;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes[..8].try_into().expect("u64 bytes"))
    }
}

impl<const N: usize> PmType for [u8; N] {
    const TYPE_NUM: u64 = 2;
    const SIZE: u64 = N as u64;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }

    fn decode(bytes: &[u8]) -> Self {
        bytes[..N].try_into().expect("array bytes")
    }
}

/// Header prefix: the type number.
const TYPE_HDR: u64 = 8;

/// A typed persistent pointer: an oid plus the compile-time type it was
/// allocated as (`persistent_ptr<T>` / `TOID(T)`).
pub struct TypedOid<T: PmType> {
    oid: PmemOid,
    _marker: PhantomData<fn() -> T>,
}

impl<T: PmType> Clone for TypedOid<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: PmType> Copy for TypedOid<T> {}

impl<T: PmType> std::fmt::Debug for TypedOid<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TypedOid")
            .field("off", &format_args!("{:#x}", self.oid.off))
            .field("type_num", &T::TYPE_NUM)
            .finish()
    }
}

impl<T: PmType> TypedOid<T> {
    /// Allocate and initialise a typed object (`make_persistent<T>`).
    ///
    /// # Errors
    ///
    /// Allocation errors or detected violations.
    pub fn new<P: MemoryPolicy>(policy: &P, value: &T) -> Result<Self> {
        let oid = policy.alloc(TYPE_HDR + T::SIZE)?;
        let obj = ObjRef::new(policy, oid, TYPE_HDR + T::SIZE, &oid)?;
        obj.write_u64(0, T::TYPE_NUM)?;
        let mut buf = Vec::with_capacity(T::SIZE as usize);
        value.encode(&mut buf);
        debug_assert_eq!(buf.len() as u64, T::SIZE);
        obj.write(TYPE_HDR, &buf)?;
        obj.persist(0, TYPE_HDR + T::SIZE)?;
        Ok(TypedOid {
            oid,
            _marker: PhantomData,
        })
    }

    /// Reinterpret a raw oid as `T`, verifying the stored type number
    /// (`TOID_VALID`).
    ///
    /// # Errors
    ///
    /// [`SppError::Pmdk`] with [`PmdkError::InvalidOid`] when the type
    /// number does not match; detection errors on corrupt oids.
    pub fn from_oid<P: MemoryPolicy>(policy: &P, oid: PmemOid) -> Result<Self> {
        let tn = ObjRef::new(policy, oid, TYPE_HDR, &oid)?.read_u64(0)?;
        if tn != T::TYPE_NUM {
            return Err(SppError::Pmdk(PmdkError::InvalidOid { off: oid.off }));
        }
        Ok(TypedOid {
            oid,
            _marker: PhantomData,
        })
    }

    /// The untyped oid (for storage inside other PM structures).
    pub fn oid(&self) -> PmemOid {
        self.oid
    }

    /// Read the value (`*persistent_ptr`): one handle over the whole
    /// object, so the header and payload are bounds-checked (and, under
    /// SPP+T, generation-checked) by one `resolve`.
    ///
    /// # Errors
    ///
    /// Detected violations.
    pub fn read<P: MemoryPolicy>(&self, policy: &P) -> Result<T> {
        let obj = ObjRef::new(policy, self.oid, TYPE_HDR + T::SIZE, self)?;
        let mut buf = vec![0u8; T::SIZE as usize];
        obj.read(TYPE_HDR, &mut buf)?;
        Ok(T::decode(&buf))
    }

    /// Overwrite the value transactionally.
    ///
    /// # Errors
    ///
    /// Transaction errors or detected violations.
    pub fn write<P: MemoryPolicy>(&self, policy: &P, value: &T) -> Result<()> {
        let mut buf = Vec::with_capacity(T::SIZE as usize);
        value.encode(&mut buf);
        policy.pool().tx(|tx| -> Result<()> {
            ObjRef::new(policy, self.oid, TYPE_HDR + T::SIZE, self)?.tx_write(tx, TYPE_HDR, &buf)
        })
    }

    /// Free the object (`delete_persistent<T>`).
    ///
    /// # Errors
    ///
    /// Pool errors.
    pub fn delete<P: MemoryPolicy>(self, policy: &P) -> Result<()> {
        policy.free(self.oid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PmdkPolicy, SppPolicy, TagConfig};
    use spp_pm::{PmPool, PoolConfig};
    use spp_pmdk::{ObjPool, PoolOpts};
    use std::sync::Arc;

    /// An application record with an explicit layout.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Account {
        id: u64,
        balance: u64,
        tag: [u8; 8],
    }

    impl PmType for Account {
        const TYPE_NUM: u64 = 100;
        const SIZE: u64 = 24;

        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.id.to_le_bytes());
            out.extend_from_slice(&self.balance.to_le_bytes());
            out.extend_from_slice(&self.tag);
        }

        fn decode(bytes: &[u8]) -> Self {
            Account {
                id: u64::from_le_bytes(bytes[0..8].try_into().unwrap()),
                balance: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
                tag: bytes[16..24].try_into().unwrap(),
            }
        }
    }

    fn spp() -> SppPolicy {
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
        let pool = Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap());
        SppPolicy::new(pool, TagConfig::default()).unwrap()
    }

    #[test]
    fn typed_roundtrip() {
        let p = spp();
        let acct = Account {
            id: 7,
            balance: 100,
            tag: *b"VIPVIPVI",
        };
        let t = TypedOid::new(&p, &acct).unwrap();
        assert_eq!(t.read(&p).unwrap(), acct);
        let updated = Account {
            balance: 50,
            ..acct.clone()
        };
        t.write(&p, &updated).unwrap();
        assert_eq!(t.read(&p).unwrap(), updated);
        t.delete(&p).unwrap();
    }

    #[test]
    fn type_numbers_are_checked() {
        let p = spp();
        let t = TypedOid::new(&p, &42u64).unwrap();
        // Reinterpreting as a different type fails TOID_VALID-style.
        let err = TypedOid::<Account>::from_oid(&p, t.oid()).unwrap_err();
        assert!(matches!(err, SppError::Pmdk(PmdkError::InvalidOid { .. })));
        // The correct type round-trips.
        let again = TypedOid::<u64>::from_oid(&p, t.oid()).unwrap();
        assert_eq!(again.read(&p).unwrap(), 42);
    }

    #[test]
    fn typed_access_is_bounds_protected() {
        // The typed layer rides on the tagged pointer: a record that lies
        // about its SIZE (simulating a version-skew bug) is caught by SPP.
        struct Lying;
        impl PmType for Lying {
            const TYPE_NUM: u64 = 1; // matches u64's type number on purpose
            const SIZE: u64 = 64; // but claims to be much bigger
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&[0u8; 64]);
            }
            fn decode(_: &[u8]) -> Self {
                Lying
            }
        }
        let p = spp();
        let small = TypedOid::new(&p, &1u64).unwrap(); // 16-byte object
        let lying = TypedOid::<Lying>::from_oid(&p, small.oid()).unwrap();
        let err = lying.read(&p).map(|_| ()).unwrap_err();
        assert!(matches!(err, SppError::OverflowDetected { .. }));
    }

    #[test]
    fn works_under_native_policy() {
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
        let pool = Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap());
        let p = PmdkPolicy::new(pool);
        let t = TypedOid::new(&p, &[9u8; 16]).unwrap();
        assert_eq!(t.read(&p).unwrap(), [9u8; 16]);
    }
}
