// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the hash underpinning everything RFC 6962 does: Merkle tree leaf
// and node hashes, log key ids, and the ECDSA message digests on SCTs and
// STHs. The block function is chosen once per process: the x86 SHA
// extensions (SHA-NI) when cpuid reports them, else portable C++. Both
// fold the same bytes into the same state; the portable one is the
// fallback and the test oracle, and nothing configures the choice.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "ctwatch/util/encoding.hpp"

namespace ctwatch::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  Sha256& update(BytesView data);
  Sha256& update(std::uint8_t byte) { return update(BytesView{&byte, 1}); }

  /// Finalizes and returns the digest. The object must be reset() before reuse.
  [[nodiscard]] Digest finish();

  /// One-shot convenience.
  static Digest hash(BytesView data);

  /// Digest of a message the caller already padded per FIPS 180-4
  /// §5.1.1: `count` whole 64-byte blocks, folded from the initial state
  /// with no buffering. For fixed-length inputs whose padding is a
  /// constant (ct::node_hash).
  static Digest hash_padded(const std::uint8_t* blocks, std::size_t count);

 private:
  void compress(const std::uint8_t* blocks, std::size_t count);

  std::array<std::uint32_t, 8> state_{};
  std::uint64_t length_ = 0;  // total bytes consumed
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  bool finished_ = false;
};

/// The block functions behind Sha256. Each folds `count` whole 64-byte
/// blocks into `state`. Exposed so tests can hold the hardware path to the
/// portable oracle; everything else goes through Sha256.
namespace sha256_block {
using State = std::array<std::uint32_t, 8>;
void portable(State& state, const std::uint8_t* blocks, std::size_t count);
/// cpuid leaf 7 EBX bit 29 (SHA) plus SSE4.1 and SSSE3; false off x86.
bool sha_ni_supported();
/// Precondition: sha_ni_supported().
void sha_ni(State& state, const std::uint8_t* blocks, std::size_t count);
}  // namespace sha256_block

/// HMAC-SHA256 (RFC 2104).
Digest hmac_sha256(BytesView key, BytesView message);

/// HKDF-SHA256 expand-only step (RFC 5869); enough for deriving simulation
/// key material from labels.
Bytes hkdf_expand(BytesView prk, BytesView info, std::size_t length);

/// Digest as a Bytes vector (handy for APIs taking BytesView).
Bytes digest_bytes(const Digest& d);

}  // namespace ctwatch::crypto
