#include "ctwatch/crypto/sha256.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define CTWATCH_SHA256_X86 1
#endif

namespace ctwatch::crypto {

namespace {
constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

/// The state words, big-endian. One word-sized store each: the next node
/// hash loads these bytes whole, and byte stores would stall forwarding.
Digest to_digest(const sha256_block::State& state) {
  Digest out{};
  for (std::size_t i = 0; i < 8; ++i) {
    std::uint32_t word = state[i];
    if constexpr (std::endian::native == std::endian::little) word = __builtin_bswap32(word);
    std::memcpy(out.data() + 4 * i, &word, sizeof word);
  }
  return out;
}

using BlockFn = void (*)(sha256_block::State&, const std::uint8_t*, std::size_t);

/// The process's block function, picked on first use.
BlockFn block_fn() {
  static const BlockFn fn =
      sha256_block::sha_ni_supported() ? &sha256_block::sha_ni : &sha256_block::portable;
  return fn;
}
}  // namespace

namespace sha256_block {

void portable(State& state, const std::uint8_t* blocks, std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(blocks[4 * i]) << 24 |
             static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef CTWATCH_SHA256_X86

bool sha_ni_supported() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return sse41 && ssse3 && (ebx & (1u << 29)) != 0;
}

// The state travels as two vectors, ABEF and CDGH, the layout
// sha256rnds2 works on. Each group of four rounds adds the round
// constants to four schedule words and runs two double-rounds; from the
// fifth group on, sha256msg1/sha256msg2 derive the next four words from
// the previous sixteen.
__attribute__((target("sha,sse4.1,ssse3"))) void sha_ni(State& state,
                                                        const std::uint8_t* blocks,
                                                        std::size_t count) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0])),
                                  0xB1);  // CDAB
  __m128i cdgh = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])),
                                   0x1B);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& x = w[g & 3];
      if (g < 4) {
        x = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)), byte_swap);
      } else {
        const __m128i& prev = w[(g - 1) & 3];
        x = _mm_sha256msg1_epu32(x, w[(g - 3) & 3]);
        x = _mm_add_epi32(x, _mm_alignr_epi8(prev, w[(g - 2) & 3], 4));
        x = _mm_sha256msg2_epu32(x, prev);
      }
      __m128i k = _mm_add_epi32(
          x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRound[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, k);
      k = _mm_shuffle_epi32(k, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, k);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);   // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);  // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(cdgh, tmp, 8));
}

#else

bool sha_ni_supported() { return false; }

void sha_ni(State&, const std::uint8_t*, std::size_t) {
  throw std::logic_error("sha256_block::sha_ni: not an x86 build");
}

#endif

}  // namespace sha256_block

void Sha256::reset() {
  std::memcpy(state_.data(), kInit, sizeof kInit);
  length_ = 0;
  buffered_ = 0;
  finished_ = false;
}

Sha256& Sha256::update(BytesView data) {
  if (finished_) throw std::logic_error("Sha256::update after finish");
  if (data.empty()) return *this;  // empty views may carry a null data()
  length_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min<std::size_t>(64 - buffered_, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      compress(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (const std::size_t whole = (data.size() - offset) / 64; whole > 0) {
    compress(data.data() + offset, whole);
    offset += whole * 64;
  }
  if (offset < data.size()) {
    buffered_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffered_);
  }
  return *this;
}

Digest Sha256::finish() {
  if (finished_) throw std::logic_error("Sha256::finish called twice");
  finished_ = true;
  const std::uint64_t bit_length = length_ * 8;
  // Padding: 0x80 then zeros until 8 bytes remain in the block.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len = (buffered_ < 56) ? 56 - buffered_ : 120 - buffered_;
  // Temporarily un-finish so update() works; length tracking is irrelevant now.
  finished_ = false;
  update(BytesView{pad, pad_len});
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  update(BytesView{len_bytes, 8});
  finished_ = true;

  return to_digest(state_);
}

void Sha256::compress(const std::uint8_t* blocks, std::size_t count) {
  block_fn()(state_, blocks, count);
}

Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest Sha256::hash_padded(const std::uint8_t* blocks, std::size_t count) {
  sha256_block::State state;
  std::memcpy(state.data(), kInit, sizeof kInit);
  block_fn()(state, blocks, count);
  return to_digest(state);
}

Digest hmac_sha256(BytesView key, BytesView message) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > 64) {
    const Digest kd = Sha256::hash(key);
    std::memcpy(k.data(), kd.data(), kd.size());
  } else if (!key.empty()) {  // an empty key's data() may be null
    std::memcpy(k.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> ipad{}, opad{};
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  Sha256 inner;
  inner.update(BytesView{ipad.data(), ipad.size()}).update(message);
  const Digest inner_digest = inner.finish();
  Sha256 outer;
  outer.update(BytesView{opad.data(), opad.size()})
      .update(BytesView{inner_digest.data(), inner_digest.size()});
  return outer.finish();
}

Bytes hkdf_expand(BytesView prk, BytesView info, std::size_t length) {
  if (length > 255 * 32) throw std::invalid_argument("hkdf_expand: length too large");
  Bytes out;
  out.reserve(length);
  Digest t{};
  std::size_t t_len = 0;
  std::uint8_t counter = 1;
  while (out.size() < length) {
    Bytes block;
    block.insert(block.end(), t.begin(), t.begin() + static_cast<std::ptrdiff_t>(t_len));
    block.insert(block.end(), info.begin(), info.end());
    block.push_back(counter++);
    t = hmac_sha256(prk, block);
    t_len = t.size();
    const std::size_t take = std::min(t.size(), length - out.size());
    out.insert(out.end(), t.begin(), t.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return out;
}

Bytes digest_bytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

}  // namespace ctwatch::crypto
