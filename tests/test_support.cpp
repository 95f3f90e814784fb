// Unit tests for the support layer: byte I/O, whole-file reads, interval
// algebra, RNG, statistics and interning.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "support/bytes.hpp"
#include "support/interner.hpp"
#include "support/interval.hpp"
#include "support/rng.hpp"
#include "support/sdmc.hpp"
#include "support/stats.hpp"

namespace saintdroid {
namespace {

// --- bytes -------------------------------------------------------------------

TEST(Bytes, FixedWidthRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  ByteReader r{w.data()};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x11223344u);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x44);
  EXPECT_EQ(w.data()[3], 0x11);
}

class UlebRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UlebRoundTrip, Value) {
  ByteWriter w;
  w.uleb(GetParam());
  ByteReader r{w.data()};
  EXPECT_EQ(r.uleb(), GetParam());
  EXPECT_TRUE(r.at_end());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, UlebRoundTrip,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 129ULL, 16383ULL, 16384ULL,
                      (1ULL << 32) - 1, 1ULL << 32,
                      std::numeric_limits<std::uint64_t>::max()));

class SlebRoundTrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SlebRoundTrip, Value) {
  ByteWriter w;
  w.sleb(GetParam());
  ByteReader r{w.data()};
  EXPECT_EQ(r.sleb(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, SlebRoundTrip,
    ::testing::Values(std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
                      std::int64_t{-64}, std::int64_t{63}, std::int64_t{-65},
                      std::numeric_limits<std::int64_t>::min(),
                      std::numeric_limits<std::int64_t>::max()));

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.str("");
  w.str("hello");
  w.str(std::string(1000, 'x'));
  ByteReader r{w.data()};
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), std::string(1000, 'x'));
}

TEST(Bytes, TruncationThrows) {
  ByteWriter w;
  w.u32(42);
  const auto& bytes = w.data();
  ByteReader r{std::span<const std::uint8_t>(bytes.data(), 2)};
  EXPECT_THROW(r.u32(), ParseError);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.uleb(100);  // claims 100 bytes follow
  w.u8('a');
  ByteReader r{w.data()};
  EXPECT_THROW(r.str(), ParseError);
}

TEST(Bytes, OverlongUlebThrows) {
  // Eleven continuation bytes exceed any 64-bit value.
  std::vector<std::uint8_t> bad(11, 0x80);
  ByteReader r{bad};
  EXPECT_THROW(r.uleb(), ParseError);
}

TEST(Bytes, ViewIsBoundsCheckedAndCopyFree) {
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  ByteReader r{data};
  const auto head = r.bytes(2);
  EXPECT_EQ(head.data(), data.data());  // a view, not a copy
  EXPECT_EQ(head.size(), 2u);
  EXPECT_EQ(r.offset(), 2u);
  EXPECT_THROW(r.bytes(4), ParseError);  // only 3 remain
  EXPECT_EQ(r.bytes(3).back(), 5);
  EXPECT_TRUE(r.at_end());
}

// --- whole-file reads ----------------------------------------------------------

TEST(ReadFileBytes, RegularMissingDirectoryAndPipe) {
  const std::string dir = ::testing::TempDir() + "read_file_bytes";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::uint8_t> payload(200000);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31);

  write_file_atomic(dir + "/file", payload);
  EXPECT_EQ(read_file_bytes(dir + "/file"), payload);
  write_file_atomic(dir + "/empty", {});
  EXPECT_EQ(read_file_bytes(dir + "/empty"), std::vector<std::uint8_t>{});
  EXPECT_EQ(read_file_bytes(dir + "/missing"), std::nullopt);
  EXPECT_EQ(read_file_bytes(dir + "/file/under-a-file"), std::nullopt);
  EXPECT_THROW((void)read_file_bytes(dir), ConfigError);

  // A pipe reports no size: it is read to EOF, across several chunks.
  const std::string fifo = dir + "/fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer{[&] {
    std::ofstream out{fifo, std::ios::binary};
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
  }};
  const auto piped = read_file_bytes(fifo);
  writer.join();
  EXPECT_EQ(piped, payload);
  std::filesystem::remove_all(dir);
}

// --- interval ----------------------------------------------------------------

TEST(Interval, Basics) {
  const ApiInterval full = ApiInterval::full();
  EXPECT_EQ(full.lo(), kMinApiLevel);
  EXPECT_EQ(full.hi(), kMaxApiLevel);
  EXPECT_FALSE(full.empty());
  EXPECT_TRUE(ApiInterval::empty_interval().empty());
  EXPECT_EQ(ApiInterval(5, 9).size(), 5);
  EXPECT_EQ(ApiInterval::empty_interval().size(), 0);
}

TEST(Interval, IntersectAndHull) {
  const ApiInterval a{5, 15};
  const ApiInterval b{10, 20};
  EXPECT_EQ(a.intersect(b), ApiInterval(10, 15));
  EXPECT_EQ(a.hull(b), ApiInterval(5, 20));
  const ApiInterval disjoint{25, 28};
  EXPECT_TRUE(a.intersect(disjoint).empty());
  EXPECT_EQ(a.hull(disjoint), ApiInterval(5, 28));  // over-approximation
}

TEST(Interval, EmptyIsAbsorbing) {
  const ApiInterval e = ApiInterval::empty_interval();
  const ApiInterval a{5, 10};
  EXPECT_TRUE(e.intersect(a).empty());
  EXPECT_EQ(e.hull(a), a);
  EXPECT_EQ(a.hull(e), a);
  EXPECT_EQ(e, ApiInterval(9, 3));  // all empties compare equal
}

// Property: intersection is the exact set intersection, hull contains the
// set union — checked pointwise over every level pair combination.
class IntervalProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(IntervalProperty, PointwiseSemantics) {
  const auto [alo, ahi, blo, bhi] = GetParam();
  const ApiInterval a{alo, ahi};
  const ApiInterval b{blo, bhi};
  for (int level = kMinApiLevel; level <= kMaxApiLevel; ++level) {
    EXPECT_EQ(a.intersect(b).contains(level),
              a.contains(level) && b.contains(level));
    if (a.contains(level) || b.contains(level)) {
      EXPECT_TRUE(a.hull(b).contains(level));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, IntervalProperty,
    ::testing::Combine(::testing::Values(2, 11, 23), ::testing::Values(9, 23, 29),
                       ::testing::Values(2, 15, 24), ::testing::Values(3, 22, 29)));

// --- rng ---------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng{7};
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng{7};
  bool saw[11] = {};
  for (int i = 0; i < 5'000; ++i) saw[rng.uniform(0, 10)] = true;
  for (const bool s : saw) EXPECT_TRUE(s);
}

TEST(Rng, ChanceExtremes) {
  Rng rng{3};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkIndependence) {
  Rng parent{11};
  Rng child = parent.fork();
  // The child stream must not replay the parent stream.
  Rng parent2{11};
  (void)parent2.fork();
  int equal = 0;
  for (int i = 0; i < 50; ++i) equal += child() == parent();
  EXPECT_LT(equal, 3);
}

// --- stats -------------------------------------------------------------------

TEST(Stats, WelfordMatchesDirect) {
  OnlineStats s;
  const double xs[] = {1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0;
  for (const double x : xs) {
    s.add(x);
    sum += x;
  }
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), sum / 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  double var = 0;
  for (const double x : xs) var += (x - s.mean()) * (x - s.mean());
  var /= 4.0;
  EXPECT_NEAR(s.variance(), var, 1e-12);
}

TEST(Stats, EmptyAndSingle) {
  OnlineStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(3.5);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99), 7.0);
}

// --- interner ----------------------------------------------------------------

TEST(Interner, DedupAndLookup) {
  StringInterner in;
  const Symbol a = in.intern("alpha");
  const Symbol b = in.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.intern("alpha"), a);
  EXPECT_EQ(in.lookup(a), "alpha");
  EXPECT_EQ(in.lookup(b), "beta");
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.find("alpha"), a);
  EXPECT_EQ(in.find("gamma"), StringInterner::npos);
}

}  // namespace
}  // namespace saintdroid
