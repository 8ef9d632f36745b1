// Unified signing abstraction used by CT logs and CAs.
//
// Two schemes are provided:
//
//  * `ecdsa_p256_sha256` — the real algorithm CT logs use. Employed by the
//    correctness-critical paths (unit tests, the §3.4 invalid-SCT study,
//    small honeypot runs) so that signature validation is cryptographically
//    genuine.
//
//  * `hmac_sha256_simulated` — a simulation oracle for bulk workloads
//    (hundreds of thousands of issuances in the Fig. 1 timeline). The
//    "public key" is the shared MAC key; verification recomputes the MAC.
//    This models an unforgeable signature at symmetric-crypto cost. It is a
//    documented substitution (see DESIGN.md): none of the paper's analyses
//    depend on the asymmetry of log signatures, only on their validity
//    being checkable.
//
// Both schemes share a uniform interface: a key pair exposes public-key
// bytes (from which RFC 6962 key ids are derived via SHA-256) and signing;
// verification is a free function over public-key bytes.
#pragma once

#include <memory>
#include <string>

#include "ctwatch/crypto/ec_p256.hpp"
#include "ctwatch/crypto/sha256.hpp"

namespace ctwatch::crypto {

enum class SignatureScheme : std::uint8_t {
  ecdsa_p256_sha256 = 0,
  hmac_sha256_simulated = 1,
};

std::string to_string(SignatureScheme scheme);

/// A scheme-tagged signature blob.
struct SignatureBlob {
  SignatureScheme scheme = SignatureScheme::ecdsa_p256_sha256;
  Bytes data;

  friend bool operator==(const SignatureBlob&, const SignatureBlob&) = default;
};

/// Interface for signing keys.
class Signer {
 public:
  virtual ~Signer() = default;

  [[nodiscard]] virtual SignatureScheme scheme() const = 0;
  /// Public key bytes: SEC1 point for ECDSA, shared key for the simulated
  /// scheme.
  [[nodiscard]] virtual Bytes public_key() const = 0;
  [[nodiscard]] virtual SignatureBlob sign(BytesView message) const = 0;

  /// RFC 6962 style key id: SHA-256 over the public key bytes.
  [[nodiscard]] Digest key_id() const { return Sha256::hash(public_key()); }
};

/// Real ECDSA P-256 signer.
class EcdsaSigner final : public Signer {
 public:
  explicit EcdsaSigner(EcdsaKeyPair keys) : keys_(std::move(keys)) {}
  /// Reproducible key derivation from a label (e.g. the log's name).
  static std::unique_ptr<EcdsaSigner> derive(const std::string& seed_label) {
    return std::make_unique<EcdsaSigner>(EcdsaKeyPair::derive(seed_label));
  }

  [[nodiscard]] SignatureScheme scheme() const override {
    return SignatureScheme::ecdsa_p256_sha256;
  }
  [[nodiscard]] Bytes public_key() const override { return keys_.public_point().encode(); }
  [[nodiscard]] SignatureBlob sign(BytesView message) const override {
    return SignatureBlob{scheme(), keys_.sign(message).to_bytes()};
  }

 private:
  EcdsaKeyPair keys_;
};

/// Simulation-grade MAC signer (see file comment). sign() is
/// HMAC-SHA256 under the shared key; the key's two padded blocks are
/// absorbed once, here, so each MAC costs two compressions fewer than
/// hmac_sha256().
class SimulatedSigner final : public Signer {
 public:
  explicit SimulatedSigner(Bytes shared_key);
  static std::unique_ptr<SimulatedSigner> derive(const std::string& seed_label);

  [[nodiscard]] SignatureScheme scheme() const override {
    return SignatureScheme::hmac_sha256_simulated;
  }
  [[nodiscard]] Bytes public_key() const override { return key_; }
  [[nodiscard]] SignatureBlob sign(BytesView message) const override;

 private:
  Bytes key_;
  Sha256 inner_;  ///< after absorbing key ^ ipad
  Sha256 outer_;  ///< after absorbing key ^ opad
};

/// Verifies a signature against public key bytes for either scheme.
/// Malformed inputs verify as false (never throws).
bool verify_signature(BytesView public_key, BytesView message, const SignatureBlob& sig);

/// Factory used by the simulator: chooses the scheme for a derived key.
std::unique_ptr<Signer> make_signer(const std::string& seed_label, SignatureScheme scheme);

}  // namespace ctwatch::crypto
