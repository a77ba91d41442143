#include "matching/serialization.h"

#include <cstdio>
#include <cstring>

#include <gtest/gtest.h>

#include "core/determiner.h"
#include "tests/test_util.h"

namespace dd {
namespace {

void ExpectEqualMatching(const MatchingRelation& a, const MatchingRelation& b) {
  ASSERT_EQ(a.num_tuples(), b.num_tuples());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  EXPECT_EQ(a.dmax(), b.dmax());
  EXPECT_EQ(a.attribute_names(), b.attribute_names());
  EXPECT_EQ(a.pairs(), b.pairs());
  for (std::size_t c = 0; c < a.num_attributes(); ++c) {
    EXPECT_EQ(a.column(c), b.column(c)) << "column " << c;
  }
}

// Splices a current-format payload into the legacy v1 layout: magic,
// version word 1, body — no checksum word.
std::string MakeLegacyV1(const std::string& v2) {
  std::string v1 = v2.substr(0, 4);
  const std::uint32_t version = 1;
  v1.append(reinterpret_cast<const char*>(&version), sizeof(version));
  v1 += v2.substr(16);  // Skip magic + version + checksum.
  return v1;
}

TEST(SerializationTest, RoundTripInMemory) {
  MatchingRelation m = testutil::RandomMatching(3, 9, 500, 42);
  std::string bytes = SerializeMatchingRelation(m);
  auto back = DeserializeMatchingRelation(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectEqualMatching(m, *back);
}

TEST(SerializationTest, RoundTripEmptyRelation) {
  MatchingRelation m({"only"}, 4);
  auto back = DeserializeMatchingRelation(SerializeMatchingRelation(m));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_tuples(), 0u);
  EXPECT_EQ(back->attribute_names(), (std::vector<std::string>{"only"}));
}

TEST(SerializationTest, RoundTripViaFile) {
  MatchingRelation m = testutil::HotelMatching(10);
  const std::string path = ::testing::TempDir() + "/dd_matching_test.ddmr";
  ASSERT_TRUE(WriteMatchingFile(m, path).ok());
  auto back = ReadMatchingFile(path);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectEqualMatching(m, *back);
  std::remove(path.c_str());
}

TEST(SerializationTest, BadMagicRejected) {
  std::string bytes = SerializeMatchingRelation(testutil::RandomMatching(2, 5, 20, 1));
  bytes[0] = 'X';
  EXPECT_FALSE(DeserializeMatchingRelation(bytes).ok());
}

TEST(SerializationTest, TruncationRejectedAtEveryPrefix) {
  std::string bytes =
      SerializeMatchingRelation(testutil::RandomMatching(2, 5, 20, 1));
  // Every strict prefix must fail cleanly (parse-don't-crash).
  for (std::size_t len : {0ul, 3ul, 8ul, 15ul, bytes.size() / 2,
                          bytes.size() - 1}) {
    EXPECT_FALSE(
        DeserializeMatchingRelation(std::string_view(bytes).substr(0, len))
            .ok())
        << "prefix " << len;
  }
}

TEST(SerializationTest, TrailingGarbageRejected) {
  std::string bytes =
      SerializeMatchingRelation(testutil::RandomMatching(2, 5, 20, 1));
  bytes += "extra";
  EXPECT_FALSE(DeserializeMatchingRelation(bytes).ok());
}

TEST(SerializationTest, CorruptLevelRejected) {
  MatchingRelation m({"a"}, 3);
  m.AddTuple(0, 1, {2});
  // The legacy layout has no checksum, so the corruption must reach
  // (and be caught by) structural validation of the body.
  std::string bytes = MakeLegacyV1(SerializeMatchingRelation(m));
  bytes.back() = static_cast<char>(200);  // Level 200 > dmax 3.
  EXPECT_FALSE(DeserializeMatchingRelation(bytes).ok());
}

TEST(SerializationTest, ChecksumDetectsBodyCorruption) {
  std::string bytes =
      SerializeMatchingRelation(testutil::RandomMatching(2, 5, 40, 3));
  // Flip one bit in every body byte position class: first, middle, last.
  for (std::size_t pos : {std::size_t{16}, (16 + bytes.size()) / 2,
                          bytes.size() - 1}) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x20);
    auto back = DeserializeMatchingRelation(corrupted);
    ASSERT_FALSE(back.ok()) << "corruption at byte " << pos;
    EXPECT_NE(back.status().ToString().find("checksum"), std::string::npos)
        << back.status();
  }
}

TEST(SerializationTest, LegacyV1StillReadable) {
  MatchingRelation m = testutil::RandomMatching(3, 7, 120, 11);
  std::string v1 = MakeLegacyV1(SerializeMatchingRelation(m));
  auto back = DeserializeMatchingRelation(v1);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectEqualMatching(m, *back);
}

TEST(SerializationTest, WrappingTupleCountRejected) {
  // A 45-byte legacy file (one attribute, no checksum) whose tuple count
  // times the 9 bytes per tuple wraps to 2 in uint64 arithmetic.
  MatchingRelation m({"seventeen_chars_a"}, 4);
  std::string bytes = MakeLegacyV1(SerializeMatchingRelation(m));
  ASSERT_EQ(bytes.size(), 45u);
  const std::uint64_t tuples = 2049638230412172402ULL;
  std::memcpy(bytes.data() + bytes.size() - sizeof(tuples), &tuples,
              sizeof(tuples));
  auto back = DeserializeMatchingRelation(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument)
      << back.status();
}

TEST(SerializationTest, FutureVersionRejected) {
  std::string bytes =
      SerializeMatchingRelation(testutil::RandomMatching(2, 5, 20, 1));
  const std::uint32_t version = kMatchingFormatVersion + 1;
  std::memcpy(bytes.data() + 4, &version, sizeof(version));
  auto back = DeserializeMatchingRelation(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().ToString().find("unsupported"), std::string::npos)
      << back.status();
}

TEST(SerializationTest, ChecksumIsDeterministic) {
  // Same relation, two serializations: byte-identical (the checksum is
  // a pure function of the body).
  MatchingRelation m = testutil::RandomMatching(2, 6, 64, 5);
  EXPECT_EQ(SerializeMatchingRelation(m), SerializeMatchingRelation(m));
  // Known-answer check pinning the FNV-1a constants.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(SerializationTest, MissingFileFails) {
  EXPECT_EQ(ReadMatchingFile("/no/such/dd_file.ddmr").status().code(),
            StatusCode::kIoError);
}

TEST(SerializationTest, LoadedRelationDrivesDetermination) {
  MatchingRelation m = testutil::RandomMatching(2, 6, 400, 9);
  auto back = DeserializeMatchingRelation(SerializeMatchingRelation(m));
  ASSERT_TRUE(back.ok());
  RuleSpec rule{{"a0"}, {"a1"}};
  DetermineOptions opts;
  auto original = DetermineThresholds(m, rule, opts);
  auto loaded = DetermineThresholds(*back, rule, opts);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(original->patterns.size(), loaded->patterns.size());
  if (!original->patterns.empty()) {
    EXPECT_NEAR(original->patterns[0].utility, loaded->patterns[0].utility,
                1e-12);
  }
}

}  // namespace
}  // namespace dd
