// Unit tests for the common substrate: RNG, hashing, DataSpec payloads,
// stats and table formatting.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/container.h"
#include "common/dataspec.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/wordlist.h"

namespace bs {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng r(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
}

TEST(Hash, Fnv1aKnownValue) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(fnv1a64("", 0), kFnvOffset);
  // Stability check.
  EXPECT_EQ(fnv1a64("hello"), fnv1a64("hello"));
  EXPECT_NE(fnv1a64("hello"), fnv1a64("hellp"));
}

TEST(Hash, Crc32cKnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  uint8_t zeros[32] = {};
  EXPECT_EQ(crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
  uint8_t ones[32];
  for (auto& b : ones) b = 0xff;
  EXPECT_EQ(crc32c(ones, sizeof(ones)), 0x62A8AB43u);
  uint8_t inc[32];
  for (int i = 0; i < 32; ++i) inc[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(crc32c(inc, sizeof(inc)), 0x46DD794Eu);
}

TEST(Hash, Crc32cIncremental) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t part1 = crc32c(data.data(), split);
    const uint32_t part2 = crc32c(data.data() + split, data.size() - split, part1);
    EXPECT_EQ(part2, whole) << "split at " << split;
  }
}

TEST(DataSpec, PatternIsDeterministic) {
  auto a = DataSpec::pattern(5, 100, 64);
  auto b = DataSpec::pattern(5, 100, 64);
  EXPECT_EQ(a.materialize(), b.materialize());
  EXPECT_EQ(a.checksum(), b.checksum());
}

TEST(DataSpec, PatternSubrangeMatchesWhole) {
  auto whole = DataSpec::pattern(9, 0, 1000);
  auto all = whole.materialize();
  for (uint64_t pos : {0ull, 1ull, 7ull, 8ull, 500ull, 993ull}) {
    const uint64_t len = std::min<uint64_t>(13, 1000 - pos);
    auto sub = whole.materialize(pos, len);
    for (uint64_t i = 0; i < len; ++i) {
      ASSERT_EQ(sub[i], all[pos + i]) << "pos=" << pos << " i=" << i;
    }
  }
}

TEST(DataSpec, SlicePreservesContent) {
  auto p = DataSpec::pattern(11, 40, 200);
  auto s = p.slice(50, 60);
  EXPECT_EQ(s.size(), 60u);
  EXPECT_EQ(s.materialize(), p.materialize(50, 60));

  auto b = DataSpec::from_string("abcdefghij");
  auto sb = b.slice(2, 5);
  EXPECT_EQ(sb.materialize(), DataSpec::from_string("cdefg").materialize());
}

TEST(DataSpec, BytesAndPatternChecksumAgree) {
  auto p = DataSpec::pattern(123, 456, 100000);
  auto materialized = DataSpec::from_bytes(p.materialize());
  EXPECT_EQ(p.checksum(), materialized.checksum());
  EXPECT_TRUE(p.content_equals(materialized));
}

TEST(DataSpec, ConcatContiguousPatternStaysPattern) {
  std::vector<DataSpec> parts = {DataSpec::pattern(4, 0, 10),
                                 DataSpec::pattern(4, 10, 20),
                                 DataSpec::pattern(4, 30, 5)};
  auto cat = concat(parts);
  EXPECT_TRUE(cat.is_pattern());
  EXPECT_EQ(cat.size(), 35u);
  EXPECT_TRUE(cat.content_equals(DataSpec::pattern(4, 0, 35)));
}

TEST(DataSpec, ConcatMixedFallsBackToBytes) {
  std::vector<DataSpec> parts = {DataSpec::from_string("ab"),
                                 DataSpec::pattern(4, 0, 3)};
  auto cat = concat(parts);
  EXPECT_EQ(cat.kind(), DataSpec::Kind::kBytes);
  EXPECT_EQ(cat.size(), 5u);
  auto bytes = cat.materialize();
  EXPECT_EQ(bytes[0], 'a');
  EXPECT_EQ(bytes[1], 'b');
  EXPECT_EQ(bytes[2], pattern_byte(4, 0));
}

TEST(DataSpec, NonContiguousPatternConcatIsBytes) {
  std::vector<DataSpec> parts = {DataSpec::pattern(4, 0, 10),
                                 DataSpec::pattern(4, 20, 10)};
  auto cat = concat(parts);
  EXPECT_EQ(cat.kind(), DataSpec::Kind::kBytes);
  EXPECT_EQ(cat.size(), 20u);
}

TEST(Stats, SummaryBasics) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Stats, SummaryEdgeCases) {
  // An empty summary's mean is 0, not NaN.
  Summary empty;
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

  Summary one;
  one.add(7.0);
  EXPECT_DOUBLE_EQ(one.mean(), 7.0);
}

TEST(Stats, Formatters) {
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(1536), "1.5 KB");
}

TEST(Table, RendersAlignedColumns) {
  Table t({"a", "long_header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| a   | long_header |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4           |"), std::string::npos);
}

TEST(Wordlist, HundredDistinctWords) {
  const auto& words = word_list();
  EXPECT_EQ(words.size(), 100u);
  std::set<std::string> uniq(words.begin(), words.end());
  EXPECT_EQ(uniq.size(), 100u);
}

TEST(Wordlist, RandomTextReachesTarget) {
  Rng rng(1);
  const std::string text = random_text(rng, 10000);
  EXPECT_GE(text.size(), 10000u);
  EXPECT_LT(text.size(), 10300u);  // one sentence of slack
  EXPECT_EQ(text.back(), '\n');
}

TEST(Wordlist, SentencesUseVocabulary) {
  Rng rng(2);
  const std::string s = random_sentence(rng, 8);
  std::set<std::string> vocab(word_list().begin(), word_list().end());
  size_t start = 0;
  int words = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == ' ' || s[i] == '\n') {
      if (i > start) {
        EXPECT_TRUE(vocab.count(s.substr(start, i - start)))
            << s.substr(start, i - start);
        ++words;
      }
      start = i + 1;
    }
  }
  EXPECT_EQ(words, 8);
}

TEST(PatternFill, MatchesPerByteGenerator) {
  uint8_t buf[100];
  fill_pattern(42, 13, buf, sizeof(buf));
  for (size_t i = 0; i < sizeof(buf); ++i) {
    ASSERT_EQ(buf[i], pattern_byte(42, 13 + i)) << i;
  }
}

// --- seeded containers (common/container.h) --------------------------------

// RAII save/restore so these tests never leak a scrambled seed into suites
// running after them in the same process.
struct SeedGuard {
  uint64_t saved = set_hash_seed(kDefaultHashSeed);
  ~SeedGuard() { set_hash_seed(saved); }
};

TEST(SeededHash, SeedChangesHashesButNotSemantics) {
  SeedGuard guard;
  set_hash_seed(1);
  SeededHash<uint64_t> h1;
  SeededHash<std::string> s1;
  set_hash_seed(2);
  SeededHash<uint64_t> h2;
  SeededHash<std::string> s2;
  // Hashers capture the seed at construction: distinct seeds must produce
  // distinct hash values (this is what reshuffles bucket order)...
  int differing = 0;
  for (uint64_t k = 0; k < 64; ++k) differing += h1(k) != h2(k);
  EXPECT_GE(differing, 60);
  EXPECT_NE(s1("placement"), s2("placement"));
  // ...while equal seeds agree with themselves on every call.
  EXPECT_EQ(h1(42), h1(42));
  EXPECT_EQ(s1("placement"), s1("placement"));
}

TEST(SeededHash, ContainersBehaveIdenticallyAcrossSeeds) {
  SeedGuard guard;
  auto census = [](uint64_t seed) {
    set_hash_seed(seed);
    bs::unordered_map<std::string, int> m;
    bs::unordered_set<uint64_t> s;
    for (int i = 0; i < 200; ++i) {
      m["key-" + std::to_string(i)] = i;
      s.insert(static_cast<uint64_t>(i * i));
    }
    m.erase("key-7");
    s.erase(81);
    // Sorted projection: the observable *content* contract.
    std::map<std::string, int> sorted_m(m.begin(), m.end());
    std::set<uint64_t> sorted_s(s.begin(), s.end());
    return std::make_pair(sorted_m, sorted_s);
  };
  const auto a = census(0x1111);
  const auto b = census(0x2222);
  EXPECT_EQ(a, b);
}

TEST(SeededHash, IterationOrderActuallyScrambles) {
  SeedGuard guard;
  // The whole point of the aliases: with enough elements, two seeds must
  // disagree on iteration order for at least one of a handful of tries —
  // otherwise the scrambling is inert and the determinism sweeps under
  // BS_HASH_SEED would test nothing.
  auto order = [](uint64_t seed) {
    set_hash_seed(seed);
    bs::unordered_set<uint64_t> s;
    for (uint64_t i = 0; i < 128; ++i) s.insert(i);
    return std::vector<uint64_t>(s.begin(), s.end());
  };
  const auto base = order(1);
  bool scrambled = false;
  for (uint64_t seed = 2; seed <= 5 && !scrambled; ++seed) {
    scrambled = order(seed) != base;
  }
  EXPECT_TRUE(scrambled);
}

TEST(SeededHash, SetHashSeedRoundTrips) {
  SeedGuard guard;
  const uint64_t prev = set_hash_seed(777);
  EXPECT_EQ(hash_seed(), 777u);
  const uint64_t mid = set_hash_seed(prev);
  EXPECT_EQ(mid, 777u);
  EXPECT_EQ(hash_seed(), prev);
}

}  // namespace
}  // namespace bs
