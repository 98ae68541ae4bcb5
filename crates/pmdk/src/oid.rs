//! Persistent object identifiers — stock PMDK's 16-byte `PMEMoid` and SPP's
//! 24-byte enhanced representation (§IV-B of the paper).

/// On-media size of a stock PMDK oid (`pool_uuid_lo` + `off`).
pub const OID_SIZE_PMDK: u64 = 16;

/// On-media size of an SPP-enhanced oid (`pool_uuid_lo` + `off` + `size`).
pub const OID_SIZE_SPP: u64 = 24;

/// Selects the on-media encoding of oids stored in persistent structures.
///
/// This is the compile-time flavour the paper's adapted PMDK bakes in: stock
/// PMDK persists `{pool_uuid, off}`; SPP appends a durable `size` field used
/// to reconstruct pointer tags across restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OidKind {
    /// Stock PMDK: 16 bytes on media, no size field.
    #[default]
    Pmdk,
    /// SPP-enhanced: 24 bytes on media, size persisted after the offset
    /// field (written *before* it in redo order).
    Spp,
}

impl OidKind {
    /// On-media size of one oid under this encoding.
    pub const fn on_media_size(self) -> u64 {
        match self {
            OidKind::Pmdk => OID_SIZE_PMDK,
            OidKind::Spp => OID_SIZE_SPP,
        }
    }
}

/// A persistent object identifier.
///
/// The in-memory form always carries `size`; whether `size` is *persisted*
/// (and therefore survives restarts) depends on the [`OidKind`] the oid was
/// stored with. An oid is *null* when its offset is zero, matching PMDK's
/// `OID_IS_NULL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PmemOid {
    /// Pool UUID (low 64 bits), identifying the owning pool across runs.
    pub pool_uuid: u64,
    /// Offset of the object payload relative to the pool base.
    pub off: u64,
    /// Allocated payload size in bytes. Durable only under [`OidKind::Spp`].
    pub size: u64,
    /// Allocation generation (SPP+T temporal key): bumped by the allocator
    /// on every free/realloc of the underlying block, validated against the
    /// block header so stale oids are rejected. `0` means *untracked* — the
    /// stock-PMDK behaviour (no temporal checking). Durable only under
    /// [`OidKind::Spp`], packed into the high byte of the on-media size
    /// word (sizes are capped well below 2^40 by the tag encoding).
    pub gen: u8,
}

/// Bit position of the generation byte inside the on-media size word.
const OID_GEN_SHIFT: u32 = 56;
/// Mask of the size bits inside the on-media size word.
const OID_SIZE_MASK: u64 = (1 << OID_GEN_SHIFT) - 1;

impl PmemOid {
    /// The null oid.
    pub const NULL: PmemOid = PmemOid {
        pool_uuid: 0,
        off: 0,
        size: 0,
        gen: 0,
    };

    /// Create an untracked oid (generation 0 — no temporal key).
    pub fn new(pool_uuid: u64, off: u64, size: u64) -> Self {
        PmemOid {
            pool_uuid,
            off,
            size,
            gen: 0,
        }
    }

    /// The same oid carrying an allocation generation.
    pub fn with_gen(self, gen: u8) -> Self {
        PmemOid { gen, ..self }
    }

    /// Whether this oid is null (offset zero), matching `OID_IS_NULL`.
    pub fn is_null(&self) -> bool {
        self.off == 0
    }

    /// The packed on-media size word under [`OidKind::Spp`]:
    /// `gen << 56 | size`.
    pub fn size_word(&self) -> u64 {
        ((self.gen as u64) << OID_GEN_SHIFT) | (self.size & OID_SIZE_MASK)
    }

    /// Split a packed on-media size word into `(size, gen)`.
    pub fn split_size_word(word: u64) -> (u64, u8) {
        (word & OID_SIZE_MASK, (word >> OID_GEN_SHIFT) as u8)
    }

    /// Serialize for on-media storage under `kind` into `buf`, returning
    /// the encoded prefix — no allocation.
    ///
    /// Layout: `uuid` at +0, `off` at +8, and (SPP only) the packed
    /// size+generation word at +16, all little-endian — matching the
    /// paper's extended `struct PMEMoid` with SPP+T's generation key in
    /// the size word's spare high byte.
    pub fn encode_into(self, buf: &mut [u8; OID_SIZE_SPP as usize], kind: OidKind) -> &[u8] {
        buf[..8].copy_from_slice(&self.pool_uuid.to_le_bytes());
        buf[8..16].copy_from_slice(&self.off.to_le_bytes());
        buf[16..].copy_from_slice(&self.size_word().to_le_bytes());
        &buf[..kind.on_media_size() as usize]
    }

    /// [`Self::encode_into`], collected.
    pub fn encode(&self, kind: OidKind) -> Vec<u8> {
        self.encode_into(&mut [0; OID_SIZE_SPP as usize], kind)
            .to_vec()
    }

    /// The store of this oid's durable size word at `dest` — present only
    /// under [`OidKind::Spp`]. All an in-place resize republishes.
    pub(crate) fn size_entry(&self, dest: OidDest) -> Option<(u64, u64)> {
        (dest.kind == OidKind::Spp).then(|| (dest.off + 16, self.size_word()))
    }

    /// The `(target, word)` stores publishing this oid at `dest`, in the
    /// paper's §IV-F order: `size` before the validating `off`, so an oid
    /// observed valid after any crash carries a correct size.
    pub(crate) fn publish_words(&self, dest: OidDest) -> impl Iterator<Item = (u64, u64)> {
        let rest = [(dest.off, self.pool_uuid), (dest.off + 8, self.off)];
        self.size_entry(dest).into_iter().chain(rest)
    }

    /// Deserialize from on-media bytes under `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than the encoding size.
    pub fn decode(bytes: &[u8], kind: OidKind) -> Self {
        let uuid = u64::from_le_bytes(bytes[0..8].try_into().expect("oid uuid"));
        let off = u64::from_le_bytes(bytes[8..16].try_into().expect("oid off"));
        let (size, gen) = match kind {
            OidKind::Pmdk => (0, 0),
            OidKind::Spp => Self::split_size_word(u64::from_le_bytes(
                bytes[16..24].try_into().expect("oid size"),
            )),
        };
        PmemOid {
            pool_uuid: uuid,
            off,
            size,
            gen,
        }
    }
}

/// A PM location into which an allocation atomically publishes an oid.
///
/// `pmemobj_alloc(pop, &D_RW(node)->next, ...)`-style usage: the oid field
/// lives inside another persistent object and must flip from null to valid
/// atomically with the allocation itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OidDest {
    /// Pool offset of the oid field.
    pub off: u64,
    /// Encoding (and thus footprint) of the oid field.
    pub kind: OidKind,
}

impl OidDest {
    /// A destination using stock PMDK encoding.
    pub fn pmdk(off: u64) -> Self {
        OidDest {
            off,
            kind: OidKind::Pmdk,
        }
    }

    /// A destination using SPP's enhanced encoding.
    pub fn spp(off: u64) -> Self {
        OidDest {
            off,
            kind: OidKind::Spp,
        }
    }

    /// The `(target, word)` stores nulling the oid stored here: `off` first,
    /// which is what invalidates it.
    pub(crate) fn null_words(self) -> impl Iterator<Item = (u64, u64)> {
        let size = (self.kind == OidKind::Spp).then_some((self.off + 16, 0));
        [Some((self.off + 8, 0)), size, Some((self.off, 0))]
            .into_iter()
            .flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_and_validity() {
        assert!(PmemOid::NULL.is_null());
        assert!(!PmemOid::new(1, 64, 8).is_null());
    }

    #[test]
    fn encode_decode_pmdk_roundtrip() {
        let oid = PmemOid::new(0xDEAD_BEEF, 0x1234, 99);
        let bytes = oid.encode(OidKind::Pmdk);
        assert_eq!(bytes.len(), 16);
        let back = PmemOid::decode(&bytes, OidKind::Pmdk);
        assert_eq!(back.pool_uuid, oid.pool_uuid);
        assert_eq!(back.off, oid.off);
        // size is not durable in stock PMDK encoding
        assert_eq!(back.size, 0);
    }

    #[test]
    fn encode_decode_spp_roundtrip() {
        let oid = PmemOid::new(7, 0x40, 42);
        let bytes = oid.encode(OidKind::Spp);
        assert_eq!(bytes.len(), 24);
        assert_eq!(PmemOid::decode(&bytes, OidKind::Spp), oid);
    }

    #[test]
    fn generation_rides_the_spp_size_word() {
        let oid = PmemOid::new(7, 0x40, 42).with_gen(9);
        let bytes = oid.encode(OidKind::Spp);
        let back = PmemOid::decode(&bytes, OidKind::Spp);
        assert_eq!(back, oid);
        assert_eq!(back.size, 42);
        assert_eq!(back.gen, 9);
        // The stock encoding drops the temporal key along with the size.
        let stock = PmemOid::decode(&oid.encode(OidKind::Pmdk), OidKind::Pmdk);
        assert_eq!((stock.size, stock.gen), (0, 0));
        // Packing is lossless for the full size range.
        let (s, g) =
            PmemOid::split_size_word(PmemOid::new(0, 16, (1 << 40) - 1).with_gen(127).size_word());
        assert_eq!((s, g), ((1 << 40) - 1, 127));
    }

    #[test]
    fn on_media_sizes() {
        assert_eq!(OidKind::Pmdk.on_media_size(), OID_SIZE_PMDK);
        assert_eq!(OidKind::Spp.on_media_size(), OID_SIZE_SPP);
    }
}
