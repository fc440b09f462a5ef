#include "common/hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sha256_kernels.h"

namespace thunderbolt {
namespace {

// FIPS 180-4 known-answer tests.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::Digest("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Digest("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::Digest(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, FourBlockVector896Bits) {
  EXPECT_EQ(
      Sha256::Digest("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                     "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")
          .ToHex(),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256Test, MillionAs) {
  std::string input(1000000, 'a');
  EXPECT_EQ(Sha256::Digest(input).ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data =
      "the quick brown fox jumps over the lazy dog multiple times";
  Sha256 h;
  for (char c : data) h.Update(&c, 1);
  EXPECT_EQ(h.Finalize(), Sha256::Digest(data));
}

TEST(Sha256Test, BoundaryLengths) {
  // Exercise the padding logic around the 55/56/64-byte boundaries.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string data(len, 'x');
    Sha256 h;
    h.Update(data.substr(0, len / 2));
    h.Update(data.substr(len / 2));
    EXPECT_EQ(h.Finalize(), Sha256::Digest(data)) << "len=" << len;
  }
}

using State = std::array<uint32_t, 8>;

// FIPS 180-4 section 5.3.3.
constexpr State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                 0xa54ff53a, 0x510e527f, 0x9b05688c,
                                 0x1f83d9ab, 0x5be0cd19};

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

State RandomState(Rng& rng) {
  State s{};
  for (uint32_t& w : s) w = static_cast<uint32_t>(rng.Next());
  return s;
}

// The digest of `data` computed without Sha256's buffering or padding:
// FIPS 180-4 padding built here, then the portable body over all of it.
Hash256 ReferenceDigest(const std::vector<uint8_t>& data) {
  std::vector<uint8_t> padded = data;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  State s = kInitialState;
  sha256::CompressPortable(s.data(), padded.data(), padded.size() / 64);
  Hash256 out;
  for (size_t i = 0; i < 32; ++i) {
    out.bytes[i] = static_cast<uint8_t>(s[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

TEST(Sha256Test, ChunkedUpdatesMatchOneShotForEveryLength) {
  // Every length 0-300 covers the 55/56/63/64-byte padding edges of
  // Finalize; random chunk sizes up to 150 mix buffered bytes with whole
  // blocks compressed straight from the caller's data.
  Rng rng(3);
  for (size_t len = 0; len <= 300; ++len) {
    const std::vector<uint8_t> data = RandomBytes(rng, len);
    const Hash256 one_shot = Sha256::Digest(data.data(), data.size());
    ASSERT_EQ(one_shot, ReferenceDigest(data)) << "len=" << len;
    for (int trial = 0; trial < 4; ++trial) {
      Sha256 h;
      size_t pos = 0;
      while (pos < len) {
        const size_t chunk =
            std::min<size_t>(rng.NextRange(0, 150), len - pos);
        h.Update(data.data() + pos, chunk);
        pos += chunk;
      }
      ASSERT_EQ(h.Finalize(), one_shot) << "len=" << len
                                        << " trial=" << trial;
    }
  }
}

TEST(Sha256KernelTest, PortableRunEqualsBlockByBlock) {
  // The FIPS 180-4 "abc" block, padded by hand, from the initial state.
  uint8_t abc[64] = {'a', 'b', 'c', 0x80};
  abc[63] = 24;
  State s = kInitialState;
  sha256::CompressPortable(s.data(), abc, 1);
  EXPECT_EQ(s, (State{0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223,
                      0xb00361a3, 0x96177a9c, 0xb410ff61, 0xf20015ad}));

  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const State init = RandomState(rng);
    const size_t count = rng.NextRange(1, 8);
    const std::vector<uint8_t> blocks = RandomBytes(rng, 64 * count);
    State run = init;
    sha256::CompressPortable(run.data(), blocks.data(), count);
    State one_by_one = init;
    for (size_t i = 0; i < count; ++i) {
      sha256::CompressPortable(one_by_one.data(), blocks.data() + 64 * i, 1);
    }
    ASSERT_EQ(run, one_by_one) << "trial=" << trial;
  }
}

TEST(Sha256KernelTest, ShaNiMatchesPortable) {
  const sha256::CompressFn sha_ni = sha256::ShaNiBody();
  if (sha_ni == nullptr) GTEST_SKIP() << "CPUID reports no SHA extensions";
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    const State init = RandomState(rng);
    const size_t count = rng.NextRange(1, 8);
    const std::vector<uint8_t> blocks = RandomBytes(rng, 64 * count);
    State portable = init;
    sha256::CompressPortable(portable.data(), blocks.data(), count);
    State accelerated = init;
    sha_ni(accelerated.data(), blocks.data(), count);
    ASSERT_EQ(accelerated, portable) << "trial=" << trial
                                     << " count=" << count;
  }
}

TEST(Sha256KernelTest, ChosenBodyFollowsCpuid) {
  const sha256::CompressFn sha_ni = sha256::ShaNiBody();
  if (sha_ni != nullptr) {
    EXPECT_EQ(sha256::ChosenBody(), sha_ni);
    EXPECT_STREQ(sha256::ChosenBodyName(), "sha-ni");
  } else {
    EXPECT_EQ(sha256::ChosenBody(), &sha256::CompressPortable);
    EXPECT_STREQ(sha256::ChosenBodyName(), "portable");
  }
}

TEST(Hash256Test, HexRoundTrip) {
  Hash256 d = Sha256::Digest("round trip");
  EXPECT_EQ(Hash256::FromHex(d.ToHex()), d);
}

TEST(Hash256Test, ShortHexIsPrefix) {
  Hash256 d = Sha256::Digest("prefix");
  EXPECT_EQ(d.ToHex().substr(0, 8), d.ToShortHex());
}

TEST(Hash256Test, ZeroDetection) {
  Hash256 zero{};
  EXPECT_TRUE(zero.IsZero());
  EXPECT_FALSE(Sha256::Digest("x").IsZero());
}

TEST(Hash256Test, Prefix64Differs) {
  EXPECT_NE(Sha256::Digest("a").Prefix64(), Sha256::Digest("b").Prefix64());
}

TEST(Hash256Test, UpdateIntLittleEndian) {
  Sha256 a;
  a.UpdateInt<uint32_t>(0x01020304);
  uint8_t bytes[4] = {0x04, 0x03, 0x02, 0x01};
  Sha256 b;
  b.Update(bytes, 4);
  EXPECT_EQ(a.Finalize(), b.Finalize());
}

}  // namespace
}  // namespace thunderbolt
