// ctwatch::ct — the one flat dedup structure of the log cores.
//
// DigestIndex maps a SHA-256 digest to the position of its first
// occurrence in a sequence that already holds the digests: a log's leaf
// hashes, its entries' certificate fingerprints, or an analysis' list of
// unique certificates. It keeps only positions and reads each key back
// out of the sequence it indexes. Both log cores (ct::CtLog,
// logsvc::LogService) and the Fig 1 analysis dedup through it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "ctwatch/crypto/sha256.hpp"

namespace ctwatch::ct {

/// Digest -> position of its first occurrence. Each slot stores only
/// position + 1 (4 bytes; 0 = empty), and every probe reads the
/// candidate's key back through `key_of(position)` — about 8 bytes per
/// entry at the table's at-most-half load, where a node-based map spends
/// ~70. Open addressing with linear probing; keys are SHA-256 outputs, so
/// their leading bytes are already a uniform hash. Positions must stay
/// below 2^32 - 1. Not thread-safe: callers serialize.
class DigestIndex {
 public:
  template <typename KeyOf>
  [[nodiscard]] std::optional<std::uint64_t> find(const crypto::Digest& key,
                                                  const KeyOf& key_of) const {
    if (slots_.empty()) return std::nullopt;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      const std::uint32_t slot = slots_[i];
      if (slot == 0) return std::nullopt;
      if (key_of(slot - 1) == key) return slot - 1;
    }
  }

  /// Sizes an empty table for `count` keys, so inserting them never
  /// regrows it (each regrowth reads every key back).
  void reserve(std::size_t count) {
    if (slots_.empty()) slots_.assign(std::bit_ceil(std::max<std::size_t>(16, 2 * (count + 1))), 0);
  }

  /// Records `position` for `key` unless the key is already present:
  /// the first occurrence wins. Returns the key's first position, which
  /// is `position` exactly when the key was new. Never reads
  /// `key_of(position)`, so the caller may store the key after the call.
  template <typename KeyOf>
  std::uint64_t insert(const crypto::Digest& key, std::uint64_t position, const KeyOf& key_of) {
    if (2 * (size_ + 1) > slots_.size()) grow(key_of);
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      std::uint32_t& slot = slots_[i];
      if (slot == 0) {
        slot = static_cast<std::uint32_t>(position + 1);
        ++size_;
        return position;
      }
      if (key_of(slot - 1) == key) return slot - 1;
    }
  }

 private:
  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  [[nodiscard]] std::size_t home(const crypto::Digest& key) const {
    std::uint64_t h = 0;
    std::memcpy(&h, key.data(), sizeof h);
    return static_cast<std::size_t>(h) & mask();
  }

  template <typename KeyOf>
  void grow(const KeyOf& key_of) {
    std::vector<std::uint32_t> old(std::max<std::size_t>(16, 2 * slots_.size()), 0);
    old.swap(slots_);
    for (const std::uint32_t slot : old) {
      if (slot == 0) continue;
      std::size_t i = home(key_of(slot - 1));
      while (slots_[i] != 0) i = (i + 1) & mask();
      slots_[i] = slot;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::size_t size_ = 0;
};

}  // namespace ctwatch::ct
