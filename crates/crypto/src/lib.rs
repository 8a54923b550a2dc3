//! # nexus-crypto
//!
//! From-scratch cryptographic primitives backing the NEXUS reproduction
//! (Djoko, Lange, Lee — DSN 2019):
//!
//! - [`aes`] — the AES block cipher (FIPS 197);
//! - [`gcm`] — AES-GCM AEAD (SP 800-38D), used for bulk metadata and file
//!   chunk encryption;
//! - [`gcm_siv`] — AES-GCM-SIV AEAD (RFC 8452), used to key-wrap per-metadata
//!   keys under the volume rootkey;
//! - [`sha2`] — SHA-256/512 (FIPS 180-4), used for enclave measurements;
//! - [`hmac`] — HMAC and HKDF, used for SGX sealing-key derivation;
//! - [`x25519`] — ECDH for the rootkey exchange protocol;
//! - [`ed25519`] — signatures for user identities and quotes;
//! - [`rng`] — pluggable randomness sources;
//! - [`ct`] — constant-time comparison.
//!
//! The paper's prototype links MbedTLS and Gueron et al.'s AES-GCM-SIV into
//! the enclave; this workspace has no such dependency available offline, so
//! the primitives are implemented directly from their specifications and
//! validated against the official test vectors (FIPS 197, the GCM spec
//! vectors, RFC 8452, RFC 4231, RFC 5869, RFC 7748, RFC 8032).
//!
//! ## Hardening note
//!
//! The symmetric hot paths (AES, GHASH/POLYVAL) never index memory or
//! branch on key or message bytes. Each key expansion picks one of two
//! constant-time engines ([`CryptoBackend`], chosen by the CPU alone in
//! [`cpu::default_backend`]): on x86_64 CPUs advertising AES-NI and
//! PCLMULQDQ, the hardware lane ([`aes_ni`], [`ghash_clmul`]) runs the
//! cipher on dedicated silicon; everywhere else, the bitsliced AES
//! ([`aes_ct`]) and masked carryless multiply ([`ghash_ct`]) fallback. No
//! configuration can change that choice.
//!
//! A third engine, AES T-tables with Shoup-table GHASH/POLYVAL, survives
//! only behind the explicit `with_backend(.., CryptoBackend::Table)`
//! constructors: its table lookups are indexed by secret-derived values
//! and leak through caches, which makes it the reference the differential
//! suites compare against, the leaky fixture the timing harness must flag,
//! and the baseline of the `micro_ct` lane bench.
//!
//! All three engines produce byte-identical output (differentially tested
//! on every RFC vector and by the cross-lane property suite), and the
//! `nexus-testkit` timing-leak harness flags the table engine while passing
//! the hardened ones. Tag comparisons are branchless on every engine
//! ([`ct::ct_eq`]), and key-holding types volatilely zeroize their material
//! on `Drop` ([`ct::zeroize`]) — including the hardware lane's round-key
//! and H-power state.
//!
//! ## Example
//!
//! ```
//! use nexus_crypto::gcm::AesGcm;
//! use nexus_crypto::rng::{OsRandom, SecureRandom};
//!
//! let mut rng = OsRandom::new();
//! let key: [u8; 32] = rng.bytes();
//! let nonce: [u8; 12] = rng.bytes();
//! let gcm = AesGcm::new_256(&key);
//! let sealed = gcm.seal(&nonce, b"context", b"file chunk bytes");
//! assert_eq!(gcm.open(&nonce, b"context", &sealed).unwrap(), b"file chunk bytes");
//! ```

pub mod aes;
pub(crate) mod aes_ct;
#[cfg(target_arch = "x86_64")]
pub(crate) mod aes_ni;
pub mod cpu;
pub mod ct;
pub mod ed25519;
pub mod field25519;
pub mod gcm;
pub mod gcm_siv;
#[cfg(target_arch = "x86_64")]
pub(crate) mod ghash_clmul;
pub(crate) mod ghash_ct;
pub mod hmac;
pub mod rng;
pub mod sha2;
pub mod x25519;

/// The concrete engine a key was expanded for. The default constructors
/// (`Aes::new`, `AesGcm::new`, `AesGcmSiv::new`) pick it from the CPU
/// ([`cpu::default_backend`]); the `with_backend` constructors pin one and
/// exist only for tests and the `micro_ct` lane bench.
///
/// The engines are bit-for-bit compatible: ciphertexts and tags are
/// identical, so data sealed on one engine opens on any other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoBackend {
    /// T-table / Shoup-table engine. Secret-indexed loads leak through
    /// caches — reachable only through `with_backend`, never by default.
    Table,
    /// Portable bitsliced + masked-multiply engine.
    Bitsliced,
    /// AES-NI + PCLMULQDQ intrinsics engine (x86_64 with the CPUID bits).
    HwAccel,
}

/// Authenticated decryption failed: the ciphertext or its associated data
/// was modified, or the wrong key/nonce was used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AeadError;

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("authenticated decryption failed")
    }
}

impl std::error::Error for AeadError {}

/// Signature verification or parsing failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureError;

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("invalid signature")
    }
}

impl std::error::Error for SignatureError {}

/// Hex helpers shared by the test suites of every module.
#[cfg(test)]
pub(crate) mod test_util {
    /// Encodes bytes as lowercase hex.
    pub fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Decodes a hex string, ignoring ASCII whitespace.
    ///
    /// # Panics
    ///
    /// Panics on non-hex input (tests only).
    pub fn unhex(s: &str) -> Vec<u8> {
        let cleaned: String = s.chars().filter(|c| !c.is_ascii_whitespace()).collect();
        assert!(cleaned.len().is_multiple_of(2), "odd hex length");
        (0..cleaned.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&cleaned[i..i + 2], 16).expect("hex"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert_eq!(AeadError.to_string(), "authenticated decryption failed");
        assert_eq!(SignatureError.to_string(), "invalid signature");
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AeadError>();
        assert_send_sync::<SignatureError>();
    }
}
