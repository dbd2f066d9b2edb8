// Unit and property tests for the common substrate: byte helpers, hex/base64
// codecs, PRNG streams, and shuffling.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/bytes.hpp"
#include "common/encoding.hpp"
#include "common/rand.hpp"
#include "common/result.hpp"
#include "crypto/ct.hpp"

namespace pprox {
namespace {

TEST(Bytes, ToBytesRoundTrip) {
  const std::string s = "hello \x01\x02 world";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

TEST(Bytes, ConcatJoinsAllViews) {
  const Bytes a = to_bytes("ab");
  const Bytes b = to_bytes("cd");
  const Bytes c = to_bytes("e");
  EXPECT_EQ(to_string(concat(a, b, c)), "abcde");
}

TEST(Bytes, ConstantTimeEqual) {
  const Bytes a = to_bytes("secret");
  const Bytes b = to_bytes("secret");
  const Bytes c = to_bytes("secreT");
  const Bytes d = to_bytes("secre");
  EXPECT_TRUE(crypto::ct_equal(a, b));
  EXPECT_FALSE(crypto::ct_equal(a, c));
  EXPECT_FALSE(crypto::ct_equal(a, d));
}

TEST(Bytes, ConstantTimeIsZero) {
  const Bytes zeros(16, 0);
  Bytes tail = zeros;
  tail.back() = 1;
  Bytes head = zeros;
  head.front() = 1;
  EXPECT_TRUE(crypto::ct_is_zero(zeros));
  EXPECT_TRUE(crypto::ct_is_zero(ByteView{}));
  EXPECT_FALSE(crypto::ct_is_zero(tail));
  EXPECT_FALSE(crypto::ct_is_zero(head));
}

TEST(Bytes, ConstantTimeSelectAndMask) {
  EXPECT_EQ(crypto::ct_select_u8(1, 0xAA, 0x55), 0xAA);
  EXPECT_EQ(crypto::ct_select_u8(0, 0xAA, 0x55), 0x55);
  EXPECT_EQ(crypto::ct_mask_u8(1), 0xFF);
  EXPECT_EQ(crypto::ct_mask_u8(0), 0x00);
}

TEST(Bytes, XorIntoIsInvolution) {
  Bytes data = to_bytes("some payload bytes");
  const Bytes original = data;
  const Bytes mask = to_bytes("maskmaskmaskmaskma");
  xor_into(data, mask);
  EXPECT_NE(data, original);
  xor_into(data, mask);
  EXPECT_EQ(data, original);
}

TEST(Bytes, SecureWipeZeroes) {
  Bytes key = to_bytes("super secret key");
  secure_wipe(key);
  for (auto b : key) EXPECT_EQ(b, 0);
}

TEST(Hex, EncodeDecodeRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x10};
  EXPECT_EQ(hex_encode(data), "0001abff10");
  const auto back = hex_decode("0001abff10");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Hex, DecodeAcceptsUppercase) {
  const auto v = hex_decode("ABCDEF");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(hex_encode(*v), "abcdef");
}

TEST(Hex, DecodeRejectsMalformed) {
  EXPECT_FALSE(hex_decode("abc").has_value());   // odd length
  EXPECT_FALSE(hex_decode("zz").has_value());    // bad digit
  EXPECT_FALSE(hex_decode("0g").has_value());
}

TEST(Base64, KnownVectorsRfc4648) {
  EXPECT_EQ(base64_encode(to_bytes("")), "");
  EXPECT_EQ(base64_encode(to_bytes("f")), "Zg==");
  EXPECT_EQ(base64_encode(to_bytes("fo")), "Zm8=");
  EXPECT_EQ(base64_encode(to_bytes("foo")), "Zm9v");
  EXPECT_EQ(base64_encode(to_bytes("foob")), "Zm9vYg==");
  EXPECT_EQ(base64_encode(to_bytes("fooba")), "Zm9vYmE=");
  EXPECT_EQ(base64_encode(to_bytes("foobar")), "Zm9vYmFy");
}

TEST(Base64, DecodeKnownVectors) {
  const auto v = base64_decode("Zm9vYmFy");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_string(*v), "foobar");
  const auto w = base64_decode("Zg==");
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(to_string(*w), "f");
}

TEST(Base64, DecodeRejectsMalformed) {
  EXPECT_FALSE(base64_decode("Zg=").has_value());     // bad length
  EXPECT_FALSE(base64_decode("Z===").has_value());    // pad too early
  EXPECT_FALSE(base64_decode("Zg=a").has_value());    // data after pad
  EXPECT_FALSE(base64_decode("Zm!v").has_value());    // bad character
  EXPECT_FALSE(base64_decode("=AAA").has_value());    // pad at front
}

class Base64RoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Base64RoundTrip, EncodeDecodeIdentity) {
  SplitMix64 rng(GetParam() * 7919 + 1);
  Bytes data(GetParam());
  rng.fill(data);
  const auto decoded = base64_decode(base64_encode(data));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Base64RoundTrip,
                         ::testing::Values(0, 1, 2, 3, 4, 15, 16, 17, 63, 64,
                                           255, 256, 1000, 4096));

TEST(Rand, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rand, NextBelowStaysInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rand, NextBelowCoversRange) {
  SplitMix64 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rand, NextDoubleInUnitInterval) {
  SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rand, ShuffleIsPermutation) {
  SplitMix64 rng(5);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  shuffle(shuffled, rng);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), shuffled.begin()));
  EXPECT_NE(v, shuffled);  // astronomically unlikely to be identity
}

TEST(Rand, ShuffleMovesEveryPositionEventually) {
  // Over many shuffles, element 0 should land in every slot: a sanity check
  // that the shuffle is not biased toward fixed points.
  SplitMix64 rng(9);
  std::set<std::size_t> positions;
  for (int round = 0; round < 200; ++round) {
    std::vector<int> v(10);
    std::iota(v.begin(), v.end(), 0);
    shuffle(v, rng);
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] == 0) positions.insert(i);
    }
  }
  EXPECT_EQ(positions.size(), 10u);
}

TEST(Result, ValueAndError) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  EXPECT_EQ(ok.value_or(0), 7);

  Result<int> bad(Error::parse("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Error::Code::kParseError);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW(bad.value(), std::runtime_error);
}

TEST(Result, StatusDefaultsToOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status e(Error::denied("no"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.error().code, Error::Code::kPermissionDenied);
}

}  // namespace
}  // namespace pprox
