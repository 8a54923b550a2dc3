//! Runtime CPU-feature detection and crypto-lane dispatch.
//!
//! Every key expansion behind `Aes::new`, `AesGcm::new` and
//! `AesGcmSiv::new` runs on one of two interchangeable constant-time
//! engines: the hardware lane ([`crate::aes_ni`]/[`crate::ghash_clmul`])
//! built on AES-NI and PCLMULQDQ, or the portable bitsliced lane
//! ([`crate::aes_ct`]/[`crate::ghash_ct`]). Both are byte-identical; the
//! CPU alone decides which one a fresh key uses:
//!
//! - on x86_64 with the AES and PCLMULQDQ CPUID bits set → hardware lane;
//! - anywhere else → bitsliced lane (the hardware modules are not even
//!   compiled off x86_64).
//!
//! No setting changes that choice. The explicit `with_backend`
//! constructors pin an engine for tests and the `micro_ct` lane bench.
//!
//! Detection runs our own `CPUID` wrapper rather than
//! `is_x86_feature_detected!` so the dispatch logic stays auditable and
//! identical across std versions: leaf 1, `ECX` bit 25 (`AESNI`) and
//! bit 1 (`PCLMULQDQ`).

use std::sync::OnceLock;

use crate::CryptoBackend;

/// CPUID leaf 1 ECX bit 25: the AESENC/AESDEC/AESKEYGENASSIST family.
#[cfg(target_arch = "x86_64")]
const CPUID_ECX_AESNI: u32 = 1 << 25;
/// CPUID leaf 1 ECX bit 1: the PCLMULQDQ carryless multiply.
#[cfg(target_arch = "x86_64")]
const CPUID_ECX_PCLMULQDQ: u32 = 1 << 1;

/// True when the running CPU exposes both AES-NI and PCLMULQDQ, i.e. the
/// hardware lane can be constructed. Cached after the first query; always
/// false off x86_64.
pub fn hw_accel_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(detect_hw_accel)
}

#[cfg(target_arch = "x86_64")]
fn detect_hw_accel() -> bool {
    // CPUID is unprivileged and universally present on x86_64 (leaf 0
    // reports the max leaf; leaf 1 has existed since the 486).
    let max_leaf = core::arch::x86_64::__cpuid(0).eax;
    if max_leaf < 1 {
        return false;
    }
    let ecx = core::arch::x86_64::__cpuid(1).ecx;
    ecx & CPUID_ECX_AESNI != 0 && ecx & CPUID_ECX_PCLMULQDQ != 0
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_hw_accel() -> bool {
    false
}

/// The dispatch table as a pure function of its input, so tests can
/// assert both rows regardless of the host CPU.
pub fn backend_for_flags(hw_available: bool) -> CryptoBackend {
    if hw_available {
        CryptoBackend::HwAccel
    } else {
        CryptoBackend::Bitsliced
    }
}

/// The engine a key expanded right now by a default constructor uses.
pub fn default_backend() -> CryptoBackend {
    backend_for_flags(hw_accel_available())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_table() {
        // CPUID bits present → intrinsics; absent → bitsliced.
        assert_eq!(backend_for_flags(true), CryptoBackend::HwAccel);
        assert_eq!(backend_for_flags(false), CryptoBackend::Bitsliced);
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn non_x86_compiles_to_bitsliced_unconditionally() {
        assert!(!hw_accel_available());
        assert_eq!(default_backend(), CryptoBackend::Bitsliced);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn detection_is_stable_and_consistent_with_cpuid() {
        // The cached answer must equal a fresh CPUID query.
        assert_eq!(hw_accel_available(), detect_hw_accel());
        assert_eq!(hw_accel_available(), detect_hw_accel());
    }
}
