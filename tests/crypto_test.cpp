#include <gtest/gtest.h>

#include <algorithm>

#include "ctwatch/crypto/ec_p256.hpp"
#include "ctwatch/crypto/sha256.hpp"
#include "ctwatch/crypto/signature.hpp"
#include "ctwatch/ct/merkle.hpp"
#include "ctwatch/util/rng.hpp"

namespace ctwatch::crypto {
namespace {

std::string digest_hex(const Digest& d) { return hex_encode(BytesView{d.data(), d.size()}); }

// ---------- SHA-256 (FIPS 180-4 vectors) ----------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(digest_hex(Sha256::hash(BytesView{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(digest_hex(Sha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(Sha256::hash(
                to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(to_bytes(chunk));
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalEqualsOneShot) {
  // Split points around the 64-byte block boundary are the classic bug nest.
  const std::string message(200, 'x');
  for (std::size_t split : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 199u}) {
    Sha256 h;
    h.update(to_bytes(message.substr(0, split)));
    h.update(to_bytes(message.substr(split)));
    EXPECT_EQ(digest_hex(h.finish()), digest_hex(Sha256::hash(to_bytes(message))))
        << "split=" << split;
  }
}

TEST(Sha256Test, UseAfterFinishThrows) {
  Sha256 h;
  h.update(to_bytes("x"));
  (void)h.finish();
  EXPECT_THROW(h.update(to_bytes("y")), std::logic_error);
  EXPECT_THROW((void)h.finish(), std::logic_error);
  h.reset();
  EXPECT_EQ(digest_hex(h.finish()), digest_hex(Sha256::hash(BytesView{})));
}

// ---------- SHA-256 block dispatch vs. the portable oracle ----------

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// SHA-256 through the portable block function only: FIPS 180-4 padding
/// done here, independently of Sha256::finish.
Digest portable_sha256(BytesView message) {
  Bytes padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  sha256_block::State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                               0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  sha256_block::portable(state, padded.data(), padded.size() / 64);
  Digest out{};
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      out[4 * i + j] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

TEST(Sha256DispatchTest, PortableOracleMatchesFipsVectors) {
  EXPECT_EQ(portable_sha256(BytesView{}), Sha256::hash(BytesView{}));
  EXPECT_EQ(digest_hex(portable_sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256DispatchTest, DispatchedHashMatchesPortableAtRandomLengthsAndSplits) {
  Rng rng(0x5a256);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t length = static_cast<std::size_t>(rng.below(1025));
    const Bytes message = random_bytes(rng, length);
    const Digest expected = portable_sha256(message);
    ASSERT_EQ(Sha256::hash(message), expected) << "length=" << length;
    // Up to three random update() split points.
    std::vector<std::size_t> cuts{0, length};
    for (int c = 0; c < 3; ++c) cuts.push_back(static_cast<std::size_t>(rng.below(length + 1)));
    std::sort(cuts.begin(), cuts.end());
    Sha256 h;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      h.update(BytesView{message.data() + cuts[i], cuts[i + 1] - cuts[i]});
    }
    ASSERT_EQ(h.finish(), expected) << "length=" << length << " cuts=" << cuts[1] << ","
                                    << cuts[2] << "," << cuts[3];
  }
}

TEST(Sha256DispatchTest, ShaNiBlockFunctionMatchesPortable) {
  if (!sha256_block::sha_ni_supported()) GTEST_SKIP() << "cpuid reports no SHA-NI";
  Rng rng(0x5a2);
  for (int trial = 0; trial < 500; ++trial) {
    sha256_block::State state;
    for (std::uint32_t& word : state) word = static_cast<std::uint32_t>(rng());
    const std::size_t count = 1 + static_cast<std::size_t>(rng.below(4));
    const Bytes blocks = random_bytes(rng, 64 * count);
    sha256_block::State portable = state;
    sha256_block::State hardware = state;
    sha256_block::portable(portable, blocks.data(), count);
    sha256_block::sha_ni(hardware, blocks.data(), count);
    ASSERT_EQ(hardware, portable) << "trial=" << trial << " blocks=" << count;
  }
}

TEST(Sha256DispatchTest, NodeHashMatchesGenericSha256) {
  Rng rng(0x0de);
  for (int trial = 0; trial < 300; ++trial) {
    Digest left{}, right{};
    for (std::uint8_t& b : left) b = static_cast<std::uint8_t>(rng());
    for (std::uint8_t& b : right) b = static_cast<std::uint8_t>(rng());
    Sha256 h;
    h.update(std::uint8_t{0x01})
        .update(BytesView{left.data(), left.size()})
        .update(BytesView{right.data(), right.size()});
    const Digest generic = h.finish();
    ASSERT_EQ(ct::node_hash(left, right), generic) << "trial=" << trial;
    Bytes input{0x01};
    input.insert(input.end(), left.begin(), left.end());
    input.insert(input.end(), right.begin(), right.end());
    ASSERT_EQ(portable_sha256(input), generic) << "trial=" << trial;
  }
}

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Digest mac = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(digest_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const Digest mac = hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(digest_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const Digest mac =
      hmac_sha256(key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(digest_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// SimulatedSigner keeps the key's HMAC midstates: through the signer, the
// RFC 4231 keys must still give the RFC's MACs (cases 1, 2 and 6, the
// 131-byte key that is hashed first).
TEST(SimulatedSignerTest, Rfc4231VectorsThroughTheSigner) {
  struct Vector {
    Bytes key;
    std::string message;
    std::string mac;
  };
  const std::vector<Vector> vectors = {
      {Bytes(20, 0x0b), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {to_bytes("Jefe"), "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(131, 0xaa), "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (const Vector& v : vectors) {
    const SimulatedSigner signer(v.key);
    const SignatureBlob sig = signer.sign(to_bytes(v.message));
    EXPECT_EQ(sig.scheme, SignatureScheme::hmac_sha256_simulated);
    EXPECT_EQ(hex_encode(sig.data), v.mac) << v.message;
    EXPECT_EQ(signer.public_key(), v.key);
    EXPECT_TRUE(verify_signature(v.key, to_bytes(v.message), sig));
  }
}

// Randomized differential against the one-shot hmac_sha256: every message
// length 0..200 crosses the 55/56/64-byte padding edges of both the inner
// and the outer hash, under keys shorter than, equal to and longer than a
// block. One signer signs every message, so its midstates must not drift.
TEST(SimulatedSignerTest, MatchesHmacAtEveryLengthTo200) {
  Rng rng(4231);
  const auto next_byte = [&rng] { return static_cast<std::uint8_t>(rng()); };
  for (const std::size_t key_size : {0, 1, 32, 63, 64, 65, 131}) {
    Bytes key(key_size);
    for (std::uint8_t& b : key) b = next_byte();
    const SimulatedSigner signer(key);
    for (std::size_t length = 0; length <= 200; ++length) {
      Bytes message(length);
      for (std::uint8_t& b : message) b = next_byte();
      const Digest want = hmac_sha256(key, message);
      ASSERT_EQ(signer.sign(message).data, Bytes(want.begin(), want.end()))
          << "key " << key_size << " message " << length;
    }
  }
}

TEST(HkdfTest, ExpandsDeterministically) {
  const Digest prk = hmac_sha256(to_bytes("salt"), to_bytes("ikm"));
  const Bytes a = hkdf_expand(BytesView{prk.data(), prk.size()}, to_bytes("info"), 42);
  const Bytes b = hkdf_expand(BytesView{prk.data(), prk.size()}, to_bytes("info"), 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 42u);
  const Bytes c = hkdf_expand(BytesView{prk.data(), prk.size()}, to_bytes("other"), 42);
  EXPECT_NE(a, c);
}

// ---------- U256 / modular arithmetic ----------

TEST(U256Test, HexRoundTrip) {
  const U256 v = U256::from_hex("deadbeef00112233445566778899aabbccddeeff0102030405060708090a0b0c");
  EXPECT_EQ(v.to_hex(), "deadbeef00112233445566778899aabbccddeeff0102030405060708090a0b0c");
}

TEST(U256Test, BytesRoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const U256 v(rng(), rng(), rng(), rng());
    EXPECT_EQ(U256::from_bytes(v.to_bytes()), v);
  }
}

TEST(U256Test, AddSubInverse) {
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const U256 a(rng(), rng(), rng(), rng());
    const U256 b(rng(), rng(), rng(), rng());
    U256 sum, back;
    const bool carry = U256::add(a, b, sum);
    const bool borrow = U256::sub(sum, b, back);
    EXPECT_EQ(back, a);
    EXPECT_EQ(carry, borrow);  // wrap-around symmetry
  }
}

TEST(U256Test, CompareAndBitLength) {
  EXPECT_LT(U256{1}, U256{2});
  EXPECT_EQ(U256{}.bit_length(), 0);
  EXPECT_EQ(U256{1}.bit_length(), 1);
  EXPECT_EQ(U256(0, 0, 0, 1).bit_length(), 193);
}

TEST(ModMathTest, MulMatchesSchoolbookSmall) {
  // Verify against 64-bit arithmetic for small operands.
  const U256 m{1000003};
  Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a = rng.below(1000003);
    const std::uint64_t b = rng.below(1000003);
    const U256 r = modmath::mul(U256{a}, U256{b}, m);
    EXPECT_EQ(r.limb[0], static_cast<std::uint64_t>((static_cast<unsigned __int128>(a) * b) %
                                                    1000003));
  }
}

TEST(ModMathTest, InverseTimesSelfIsOne) {
  const U256& n = p256::order();
  Rng rng(9);
  for (int i = 0; i < 25; ++i) {
    const U256 a(rng(), rng(), rng(), 0);
    if (a.is_zero()) continue;
    const U256 inv = modmath::inverse(a, n);
    EXPECT_EQ(modmath::mul(modmath::reduce(a, n), inv, n), U256{1});
  }
}

TEST(ModMathTest, FermatMatchesEuclid) {
  // a^(p-2) == a^-1 mod p for prime p.
  const U256& p = p256::prime();
  U256 p_minus_2;
  U256::sub(p, U256{2}, p_minus_2);
  const U256 a = U256::from_hex("123456789abcdef0fedcba9876543210aabbccddeeff00112233445566778899");
  EXPECT_EQ(modmath::pow(a, p_minus_2, p), modmath::inverse(a, p));
}

TEST(ModMathTest, FastP256ReductionMatchesGeneric) {
  // The Solinas reduction must agree with binary long division.
  Rng rng(10);
  const U256& p = p256::prime();
  for (int i = 0; i < 300; ++i) {
    const U256 a = modmath::reduce(U256(rng(), rng(), rng(), rng()), p);
    const U256 b = modmath::reduce(U256(rng(), rng(), rng(), rng()), p);
    EXPECT_EQ(p256::field_mul(a, b), modmath::mul(a, b, p)) << "iteration " << i;
  }
}

// ---------- P-256 / ECDSA ----------

TEST(P256Test, GeneratorOnCurve) { EXPECT_TRUE(p256_generator().on_curve()); }

TEST(P256Test, GeneratorTimesOrderIsInfinity) {
  const AffinePoint r = p256_multiply(p256::order(), p256_generator());
  EXPECT_TRUE(r.infinity);
}

TEST(P256Test, KnownScalarMultiple) {
  // 2G, from published P-256 test data.
  const AffinePoint two_g = p256_multiply(U256{2}, p256_generator());
  EXPECT_EQ(two_g.x.to_hex(), "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978");
  EXPECT_EQ(two_g.y.to_hex(), "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1");
}

TEST(P256Test, AdditionCommutesWithScalars) {
  const AffinePoint g = p256_generator();
  const AffinePoint g3a = p256_add(g, p256_multiply(U256{2}, g));
  const AffinePoint g3b = p256_multiply(U256{3}, g);
  EXPECT_EQ(g3a, g3b);
}

TEST(P256Test, PointEncodeDecodeRoundTrip) {
  const AffinePoint p = p256_multiply(U256{12345}, p256_generator());
  const AffinePoint q = AffinePoint::decode(p.encode());
  EXPECT_EQ(p, q);
}

TEST(P256Test, DecodeRejectsOffCurvePoint) {
  Bytes bad = p256_generator().encode();
  bad[40] ^= 0x01;  // poke a coordinate byte
  EXPECT_THROW(AffinePoint::decode(bad), std::invalid_argument);
}

TEST(EcdsaTest, Rfc6979SampleVector) {
  // RFC 6979 A.2.5, P-256 + SHA-256, message "sample".
  const auto key = EcdsaKeyPair::from_private(
      U256::from_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721"));
  EXPECT_EQ(key.public_point().x.to_hex(),
            "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6");
  const EcdsaSignature sig = key.sign(to_bytes("sample"));
  EXPECT_EQ(sig.r.to_hex(), "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716");
  EXPECT_EQ(sig.s.to_hex(), "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8");
}

TEST(EcdsaTest, Rfc6979TestVector) {
  // RFC 6979 A.2.5, message "test".
  const auto key = EcdsaKeyPair::from_private(
      U256::from_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721"));
  const EcdsaSignature sig = key.sign(to_bytes("test"));
  EXPECT_EQ(sig.r.to_hex(), "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367");
  EXPECT_EQ(sig.s.to_hex(), "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083");
}

TEST(EcdsaTest, SignVerifyRoundTrip) {
  const auto key = EcdsaKeyPair::derive("round-trip");
  const EcdsaSignature sig = key.sign(to_bytes("hello"));
  EXPECT_TRUE(ecdsa_verify(key.public_point(), to_bytes("hello"), sig));
  EXPECT_FALSE(ecdsa_verify(key.public_point(), to_bytes("hellp"), sig));
}

TEST(EcdsaTest, TamperedSignatureRejected) {
  const auto key = EcdsaKeyPair::derive("tamper");
  EcdsaSignature sig = key.sign(to_bytes("msg"));
  sig.r = modmath::add(sig.r, U256{1}, p256::order());
  EXPECT_FALSE(ecdsa_verify(key.public_point(), to_bytes("msg"), sig));
}

TEST(EcdsaTest, WrongKeyRejected) {
  const auto key1 = EcdsaKeyPair::derive("key-one");
  const auto key2 = EcdsaKeyPair::derive("key-two");
  const EcdsaSignature sig = key1.sign(to_bytes("msg"));
  EXPECT_FALSE(ecdsa_verify(key2.public_point(), to_bytes("msg"), sig));
}

TEST(EcdsaTest, RejectsOutOfRangeSignatureParts) {
  const auto key = EcdsaKeyPair::derive("range");
  EcdsaSignature sig = key.sign(to_bytes("msg"));
  EcdsaSignature zero_r = sig;
  zero_r.r = U256{0};
  EXPECT_FALSE(ecdsa_verify(key.public_point(), to_bytes("msg"), zero_r));
  EcdsaSignature big_s = sig;
  big_s.s = p256::order();
  EXPECT_FALSE(ecdsa_verify(key.public_point(), to_bytes("msg"), big_s));
}

TEST(EcdsaTest, DerivedKeysAreReproducibleAndDistinct) {
  const auto a1 = EcdsaKeyPair::derive("log-a");
  const auto a2 = EcdsaKeyPair::derive("log-a");
  const auto b = EcdsaKeyPair::derive("log-b");
  EXPECT_EQ(a1.public_point(), a2.public_point());
  EXPECT_FALSE(a1.public_point() == b.public_point());
}

TEST(EcdsaTest, SignatureBytesRoundTrip) {
  const auto key = EcdsaKeyPair::derive("bytes");
  const EcdsaSignature sig = key.sign(to_bytes("m"));
  EXPECT_EQ(EcdsaSignature::from_bytes(sig.to_bytes()), sig);
  EXPECT_THROW(EcdsaSignature::from_bytes(Bytes(63, 0)), std::invalid_argument);
}

// ---------- Signer abstraction ----------

class SignerSchemeTest : public ::testing::TestWithParam<SignatureScheme> {};

TEST_P(SignerSchemeTest, SignVerifyAndRejectTamper) {
  const auto signer = make_signer("scheme-test", GetParam());
  EXPECT_EQ(signer->scheme(), GetParam());
  const SignatureBlob sig = signer->sign(to_bytes("payload"));
  EXPECT_TRUE(verify_signature(signer->public_key(), to_bytes("payload"), sig));
  EXPECT_FALSE(verify_signature(signer->public_key(), to_bytes("payloae"), sig));

  SignatureBlob mangled = sig;
  mangled.data[0] ^= 0x80;
  EXPECT_FALSE(verify_signature(signer->public_key(), to_bytes("payload"), mangled));
}

TEST_P(SignerSchemeTest, KeyIdIsStablePerLabel) {
  const auto a = make_signer("same-label", GetParam());
  const auto b = make_signer("same-label", GetParam());
  EXPECT_EQ(a->key_id(), b->key_id());
  const auto c = make_signer("other-label", GetParam());
  EXPECT_NE(hex_encode(BytesView{a->key_id().data(), 32}),
            hex_encode(BytesView{c->key_id().data(), 32}));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SignerSchemeTest,
                         ::testing::Values(SignatureScheme::ecdsa_p256_sha256,
                                           SignatureScheme::hmac_sha256_simulated));

TEST(SignerTest, SchemesDoNotCrossVerify) {
  const auto ecdsa = make_signer("cross", SignatureScheme::ecdsa_p256_sha256);
  const auto sim = make_signer("cross", SignatureScheme::hmac_sha256_simulated);
  const SignatureBlob sig = sim->sign(to_bytes("m"));
  EXPECT_FALSE(verify_signature(ecdsa->public_key(), to_bytes("m"), sig));
}

TEST(SignerTest, MalformedPublicKeyVerifiesFalseNotThrow) {
  const auto signer = make_signer("malformed", SignatureScheme::ecdsa_p256_sha256);
  const SignatureBlob sig = signer->sign(to_bytes("m"));
  EXPECT_FALSE(verify_signature(Bytes{0x01, 0x02}, to_bytes("m"), sig));
}

}  // namespace
}  // namespace ctwatch::crypto
