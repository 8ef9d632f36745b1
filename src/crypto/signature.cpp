#include "ctwatch/crypto/signature.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace ctwatch::crypto {

std::string to_string(SignatureScheme scheme) {
  switch (scheme) {
    case SignatureScheme::ecdsa_p256_sha256:
      return "ecdsa-p256-sha256";
    case SignatureScheme::hmac_sha256_simulated:
      return "hmac-sha256-simulated";
  }
  return "unknown";
}

std::unique_ptr<SimulatedSigner> SimulatedSigner::derive(const std::string& seed_label) {
  const Digest key = hmac_sha256(to_bytes("ctwatch-simulated-signer-v1"), to_bytes(seed_label));
  return std::make_unique<SimulatedSigner>(Bytes(key.begin(), key.end()));
}

SimulatedSigner::SimulatedSigner(Bytes shared_key) : key_(std::move(shared_key)) {
  // RFC 2104: a key longer than the block is hashed, a shorter one is
  // zero-padded to the block.
  std::array<std::uint8_t, 64> block{};
  if (key_.size() > block.size()) {
    const Digest hashed = Sha256::hash(key_);
    std::copy(hashed.begin(), hashed.end(), block.begin());
  } else {
    std::copy(key_.begin(), key_.end(), block.begin());
  }
  const auto absorb_padded = [&block](Sha256& hash, std::uint8_t pad_byte) {
    std::array<std::uint8_t, 64> padded{};
    for (std::size_t i = 0; i < block.size(); ++i) {
      padded[i] = static_cast<std::uint8_t>(block[i] ^ pad_byte);
    }
    hash.update(BytesView{padded.data(), padded.size()});
  };
  absorb_padded(inner_, 0x36);
  absorb_padded(outer_, 0x5c);
}

SignatureBlob SimulatedSigner::sign(BytesView message) const {
  Sha256 inner = inner_;
  const Digest inner_digest = inner.update(message).finish();
  Sha256 outer = outer_;
  const Digest mac = outer.update(BytesView{inner_digest.data(), inner_digest.size()}).finish();
  return SignatureBlob{scheme(), Bytes(mac.begin(), mac.end())};
}

bool verify_signature(BytesView public_key, BytesView message, const SignatureBlob& sig) {
  try {
    switch (sig.scheme) {
      case SignatureScheme::ecdsa_p256_sha256: {
        const AffinePoint q = AffinePoint::decode(public_key);
        return ecdsa_verify(q, message, EcdsaSignature::from_bytes(sig.data));
      }
      case SignatureScheme::hmac_sha256_simulated: {
        const Digest mac = hmac_sha256(public_key, message);
        if (sig.data.size() != mac.size()) return false;
        return std::equal(mac.begin(), mac.end(), sig.data.begin());
      }
    }
  } catch (const std::invalid_argument&) {
    return false;
  }
  return false;
}

std::unique_ptr<Signer> make_signer(const std::string& seed_label, SignatureScheme scheme) {
  switch (scheme) {
    case SignatureScheme::ecdsa_p256_sha256:
      return EcdsaSigner::derive(seed_label);
    case SignatureScheme::hmac_sha256_simulated:
      return SimulatedSigner::derive(seed_label);
  }
  throw std::invalid_argument("make_signer: unknown scheme");
}

}  // namespace ctwatch::crypto
