// Entity-resolution and schema-matching tests.
//
// The deterministic tests run in the tier-1 suite; the seeded
// differential sweep lives in ResolutionSweepTest.* and is labelled `ii`
// (ctest -L ii). Every sweep failure reproduces from the printed
// STRUCTURA_II_SEED; STRUCTURA_II_ITERS scales the iteration count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "corpus/generator.h"
#include "core/eval.h"
#include "ii/matcher.h"
#include "ii/resolution.h"
#include "ii/schema_matcher.h"
#include "ii/union_find.h"
#include "obs/metrics.h"
#include "text/similarity.h"

namespace structura::ii {
namespace {

MentionRecord M(uint64_t id, const std::string& s) {
  MentionRecord m;
  m.id = id;
  m.surface = s;
  return m;
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.NumSets(), 5u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Union(1, 2));
  EXPECT_FALSE(uf.Union(0, 2));  // already connected
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 3));
  EXPECT_EQ(uf.NumSets(), 3u);
  EXPECT_EQ(uf.SetSize(1), 3u);
}

TEST(UnionFindTest, TransitivityProperty) {
  UnionFind uf(100);
  for (size_t i = 0; i + 2 < 100; i += 3) {
    uf.Union(i, i + 1);
    uf.Union(i + 1, i + 2);
  }
  for (size_t i = 0; i + 2 < 100; i += 3) {
    EXPECT_TRUE(uf.Connected(i, i + 2));
  }
}

TEST(NameMatcherTest, PaperExamples) {
  NameMatcher matcher;
  // "the two different names 'David Smith' and 'D. Smith' ... may in
  // fact refer to the same person" (Section 3.2).
  EXPECT_GE(matcher.Score(M(1, "David Smith"), M(2, "D. Smith")), 0.8);
  EXPECT_GE(matcher.Score(M(1, "David Smith"), M(2, "Smith, David")),
            0.8);
  EXPECT_GE(matcher.Score(M(1, "Madison"), M(2, "City of Madison")), 0.8);
  EXPECT_GE(matcher.Score(M(1, "Madison"), M(2, "Madison, Wisconsin")),
            0.8);
  // Different people stay apart.
  EXPECT_LT(matcher.Score(M(1, "David Smith"), M(2, "Sarah Johnson")),
            0.5);
  EXPECT_LT(matcher.Score(M(1, "Madison"), M(2, "Oakfield")), 0.5);
}

TEST(NameMatcherTest, NormalizeTokens) {
  EXPECT_EQ(NameMatcher::NormalizeTokens("City of Madison"),
            (std::vector<std::string>{"madison"}));
  EXPECT_EQ(NameMatcher::NormalizeTokens("Smith, David"),
            (std::vector<std::string>{"smith", "david"}));
  EXPECT_EQ(NameMatcher::NormalizeTokens("Madison, Wisconsin"),
            (std::vector<std::string>{"madison", "wisconsin"}));
}

TEST(MatcherTest, SymmetryProperty) {
  NameMatcher name;
  JaroWinklerMatcher jw;
  LevenshteinMatcher lev;
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"David Smith", "D. Smith"},
      {"Madison", "Madison, Wisconsin"},
      {"abc", "xyz"},
      {"", "x"}};
  for (const SimilarityMatcher* m :
       std::initializer_list<const SimilarityMatcher*>{&name, &jw, &lev}) {
    for (const auto& [a, b] : pairs) {
      double ab = m->Score(M(1, a), M(2, b));
      double ba = m->Score(M(1, b), M(2, a));
      EXPECT_NEAR(ab, ba, 1e-12) << m->name() << ": " << a << "/" << b;
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0);
    }
  }
}

TEST(ResolutionTest, ClustersVariantsTogether) {
  std::vector<MentionRecord> mentions = {
      M(0, "David Smith"), M(1, "D. Smith"),     M(2, "Smith, David"),
      M(3, "Sarah Johnson"), M(4, "S. Johnson"), M(5, "Madison")};
  NameMatcher matcher;
  ResolutionOptions options;
  options.matcher = &matcher;
  options.threshold = 0.8;
  ResolutionResult result = ResolveEntities(mentions, options);
  EXPECT_EQ(result.cluster_of[0], result.cluster_of[1]);
  EXPECT_EQ(result.cluster_of[0], result.cluster_of[2]);
  EXPECT_EQ(result.cluster_of[3], result.cluster_of[4]);
  EXPECT_NE(result.cluster_of[0], result.cluster_of[3]);
  EXPECT_NE(result.cluster_of[0], result.cluster_of[5]);
  EXPECT_EQ(result.num_clusters, 3u);
}

TEST(ResolutionTest, BlockingMatchesExhaustiveResults) {
  // Generate realistic mention variants from the corpus.
  corpus::CorpusOptions options;
  options.num_cities = 8;
  options.num_people = 15;
  options.num_companies = 0;
  options.news_pages = 6;
  options.seed = 77;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(options, &docs, &truth);
  std::vector<MentionRecord> mentions;
  std::vector<corpus::EntityId> entities;
  for (const corpus::MentionTruth& m : truth.mentions) {
    mentions.push_back(M(mentions.size(), m.surface));
    entities.push_back(m.entity);
  }
  NameMatcher matcher;
  ResolutionOptions blocked, exhaustive;
  blocked.matcher = exhaustive.matcher = &matcher;
  blocked.threshold = exhaustive.threshold = 0.8;
  blocked.use_blocking = true;
  exhaustive.use_blocking = false;
  ResolutionResult rb = ResolveEntities(mentions, blocked);
  ResolutionResult re = ResolveEntities(mentions, exhaustive);
  // Blocking does far less work...
  EXPECT_LT(rb.pairs_scored, re.pairs_scored);
  // ...and loses little accuracy (same or nearly same F1).
  core::Score sb = core::ScoreClustering(entities, rb.cluster_of);
  core::Score se = core::ScoreClustering(entities, re.cluster_of);
  EXPECT_GE(sb.f1(), se.f1() - 0.05);
  // Initial-style variants ("D. Smith") are genuinely ambiguous across
  // people sharing a surname, so automatic-only F1 plateaus well below
  // 1.0 — exactly the gap the paper argues human intervention closes.
  EXPECT_GT(se.f1(), 0.55);
}

TEST(ResolutionTest, ThresholdControlsMerging) {
  std::vector<MentionRecord> mentions = {M(0, "Madison"),
                                         M(1, "Madisen")};
  JaroWinklerMatcher matcher;
  ResolutionOptions strict;
  strict.matcher = &matcher;
  strict.threshold = 0.99;
  EXPECT_EQ(ResolveEntities(mentions, strict).num_clusters, 2u);
  ResolutionOptions loose;
  loose.matcher = &matcher;
  loose.threshold = 0.85;
  EXPECT_EQ(ResolveEntities(mentions, loose).num_clusters, 1u);
}

TEST(ResolutionTest, MetricsAdvanceByCallWork) {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
  obs::Counter* scored = r.GetCounter("ii.pairs_scored");
  obs::Counter* merged = r.GetCounter("ii.pairs_merged");
  obs::Histogram* latency = r.GetHistogram("ii.resolve.latency_ns");
  std::vector<MentionRecord> mentions = {
      M(0, "David Smith"), M(1, "D. Smith"), M(2, "Smith, David"),
      M(3, "Sarah Johnson"), M(4, "S. Johnson"), M(5, "Madison")};
  NameMatcher matcher;
  ResolutionOptions options;
  options.matcher = &matcher;
  const uint64_t scored0 = scored->Value();
  const uint64_t merged0 = merged->Value();
  const uint64_t calls0 = latency->Count();
  ResolutionResult result = ResolveEntities(mentions, options);
  ASSERT_GT(result.pairs_scored, 0u);
  ASSERT_FALSE(result.merged_pairs.empty());
  EXPECT_EQ(scored->Value() - scored0, result.pairs_scored);
  EXPECT_EQ(merged->Value() - merged0, result.merged_pairs.size());
  EXPECT_EQ(latency->Count() - calls0, 1u);
}

TEST(ResolutionTest, LongSurfacesAlignEveryToken) {
  // More tokens than one machine word of alignment bits: every token
  // must still be matchable exactly once. Words have >= 2 letters, so
  // nothing matches by initial.
  auto word = [](char head, int i) {
    std::string w(1, head);
    for (int k = i + 1; k > 0; k /= 26) w += static_cast<char>('a' + k % 26);
    return w;
  };
  std::string hundred, reversed, mixed;
  for (int i = 0; i < 100; ++i) {
    hundred += word('w', i) + " ";
    reversed = word('w', i) + " " + reversed;
    if (i < 70) mixed += word('w', i) + " " + word('x', i) + " ";
  }
  NameMatcher matcher;
  EXPECT_EQ(matcher.Score(M(0, hundred), M(1, reversed)),
            0.8 * 1.0 + 0.2 * text::JaroWinklerSimilarity(hundred, reversed));
  // 70 of the 100 tokens appear among the 140 of the other surface.
  EXPECT_EQ(matcher.Score(M(0, hundred), M(1, mixed)),
            0.8 * 0.7 + 0.2 * text::JaroWinklerSimilarity(hundred, mixed));
}

TEST(TopKTest, ReturnsMostSimilarFirst) {
  std::vector<MentionRecord> mentions = {
      M(0, "David Smith"), M(1, "D. Smith"), M(2, "David Smithson"),
      M(3, "Zebra Crossing"), M(4, "Aardvark")};
  NameMatcher matcher;
  auto top = TopKCandidates(mentions, 0, matcher, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].b, 1u);  // D. Smith is the closest
  EXPECT_GE(top[0].score, top[1].score);
}

TEST(SchemaMatcherTest, SynonymsAndValues) {
  // The paper: "attributes location and address extracted from two
  // Wikipedia infoboxes may in fact match".
  std::vector<AttributeProfile> a = {
      {"location", {"Madison", "Oakfield", "Rivervale"}},
      {"population", {"233,209", "5,000", "120,000"}},
  };
  std::vector<AttributeProfile> b = {
      {"address", {"Madison", "Rivervale", "Summit"}},
      {"inhabitants", {"233209", "88000"}},
  };
  SchemaMatchOptions options;
  options.synonyms = {{"location", "address"}};
  options.threshold = 0.4;
  auto matches = MatchSchemas(a, b, options);
  ASSERT_GE(matches.size(), 1u);
  EXPECT_EQ(matches[0].a_index, 0u);  // location <-> address first
  EXPECT_EQ(matches[0].b_index, 0u);
  // population <-> inhabitants should match on numeric range overlap.
  bool pop_matched = false;
  for (const auto& m : matches) {
    if (m.a_index == 1 && m.b_index == 1) pop_matched = true;
  }
  EXPECT_TRUE(pop_matched);
}

TEST(SchemaMatcherTest, OneToOneAssignment) {
  std::vector<AttributeProfile> a = {{"name", {"x"}}, {"names", {"x"}}};
  std::vector<AttributeProfile> b = {{"name", {"x"}}};
  auto matches = MatchSchemas(a, b, SchemaMatchOptions{});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].a_index, 0u);  // exact name wins the only slot
}

TEST(SchemaMatcherTest, ValueOverlapNumericVsText) {
  AttributeProfile nums1{"a", {"1", "2", "3"}};
  AttributeProfile nums2{"b", {"2", "3", "4"}};
  AttributeProfile text{"c", {"alpha", "beta"}};
  // Ranges [1,3] and [2,4]: overlap 1 over combined span 3.
  EXPECT_NEAR(ValueOverlap(nums1, nums2), 1.0 / 3.0, 1e-9);
  EXPECT_EQ(ValueOverlap(nums1, text), 0.0);
}

// ---------------------------------------------------------------------
// Differential sweep: ResolveEntities against a direct resolver — fresh
// NormalizeTokens per mention for blocking and per pair for scoring,
// std::set deduplication, and a full score for every candidate pair.
// Output must be bit-identical: same work count, clusters and merged
// pairs in the same order with scores equal under ==.

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtoull(s, nullptr, 10);
}

using ScoreFn =
    std::function<double(const MentionRecord&, const MentionRecord&)>;

/// NameMatcher's score computed directly: token alignment over fresh
/// normalizations, Jaro-Winkler on every pair.
double OracleNameScore(const MentionRecord& a, const MentionRecord& b) {
  std::vector<std::string> ta = NameMatcher::NormalizeTokens(a.surface);
  std::vector<std::string> tb = NameMatcher::NormalizeTokens(b.surface);
  if (ta.empty() || tb.empty()) return 0.0;
  if (ta.size() > tb.size()) std::swap(ta, tb);
  std::vector<bool> used(tb.size(), false);
  size_t matched = 0;
  for (const std::string& x : ta) {
    for (size_t j = 0; j < tb.size(); ++j) {
      if (used[j]) continue;
      const std::string& y = tb[j];
      bool hit = x == y ||
                 (x.size() == 1 && !y.empty() && y[0] == x[0]) ||
                 (y.size() == 1 && !x.empty() && x[0] == y[0]);
      if (hit) {
        used[j] = true;
        ++matched;
        break;
      }
    }
  }
  double containment = static_cast<double>(matched) / ta.size();
  double jw = text::JaroWinklerSimilarity(a.surface, b.surface);
  return 0.8 * containment + 0.2 * jw;
}

std::vector<std::pair<size_t, size_t>> OracleBlockedPairs(
    const std::vector<MentionRecord>& mentions) {
  std::unordered_map<std::string, std::vector<size_t>> blocks;
  for (size_t i = 0; i < mentions.size(); ++i) {
    for (const std::string& tok :
         NameMatcher::NormalizeTokens(mentions[i].surface)) {
      blocks[tok].push_back(i);
      if (tok.size() > 1) blocks[std::string(1, tok[0])].push_back(i);
    }
  }
  std::set<std::pair<size_t, size_t>> pairs;
  for (const auto& [key, members] : blocks) {
    if (members.size() > 512) continue;
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        size_t a = members[i], b = members[j];
        if (a == b) continue;
        if (a > b) std::swap(a, b);
        pairs.emplace(a, b);
      }
    }
  }
  return {pairs.begin(), pairs.end()};
}

ResolutionResult OracleResolve(const std::vector<MentionRecord>& mentions,
                               const ScoreFn& score_fn, double threshold,
                               bool use_blocking) {
  ResolutionResult result;
  result.cluster_of.resize(mentions.size());
  UnionFind uf(mentions.size());
  std::vector<std::pair<size_t, size_t>> candidates;
  if (use_blocking) {
    candidates = OracleBlockedPairs(mentions);
  } else {
    for (size_t i = 0; i < mentions.size(); ++i) {
      for (size_t j = i + 1; j < mentions.size(); ++j) {
        candidates.emplace_back(i, j);
      }
    }
  }
  for (const auto& [a, b] : candidates) {
    double score = score_fn(mentions[a], mentions[b]);
    ++result.pairs_scored;
    if (score >= threshold) {
      uf.Union(a, b);
      result.merged_pairs.push_back(ScoredPair{a, b, score});
    }
  }
  for (size_t i = 0; i < mentions.size(); ++i) {
    result.cluster_of[i] = uf.Find(i);
  }
  result.num_clusters = uf.NumSets();
  return result;
}

/// Surfaces the corpus generator plants, variants included ("D. Smith",
/// "Smith, David", "City of Madison").
const std::vector<std::string>& CorpusSurfaces() {
  static const std::vector<std::string>* surfaces = [] {
    corpus::CorpusOptions options;
    options.num_cities = 30;
    options.num_people = 60;
    options.num_companies = 10;
    options.news_pages = 40;
    options.seed = 2026;
    text::DocumentCollection docs;
    corpus::GroundTruth truth;
    corpus::GenerateCorpus(options, &docs, &truth);
    auto* out = new std::vector<std::string>();
    for (const corpus::MentionTruth& m : truth.mentions) {
      out->push_back(m.surface);
    }
    for (const corpus::PersonRecord& p : truth.people) {
      out->push_back(p.name);
    }
    return out;
  }();
  return *surfaces;
}

std::string Pick(std::mt19937_64& rng, const std::vector<std::string>& v) {
  return v[rng() % v.size()];
}

/// Letters-only word unique to `i` (the tokenizer splits on non-letters).
std::string UniqueWord(size_t i) {
  std::string w(1, static_cast<char>('a' + i % 25));  // never 'z'
  for (size_t k = i + 1; k > 0; k /= 26) {
    w += static_cast<char>('a' + k % 26);
  }
  return w;
}

std::string TokenSoup(std::mt19937_64& rng, size_t max_tokens) {
  static const std::vector<std::string> kVocab = {
      "David", "Smith", "D.", "S.", "Sarah", "Johnson", "J", "Madison",
      "Wisconsin", "City", "of", "the", "Town", "town", "SMITH,", "dav",
      "x", "y", "a", "ab", "abc", "O'Neil", "Mc-Donald", "1st", "42",
      "Jos\xc3\xa9", ",", ".", "--", "smith", "david", "Dave", "Davis"};
  std::string out;
  size_t n = rng() % (max_tokens + 1);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += (rng() % 5 == 0) ? ", " : " ";
    out += Pick(rng, kVocab);
  }
  return out;
}

std::vector<MentionRecord> SweepMentions(std::mt19937_64& rng,
                                         uint64_t seed) {
  std::vector<std::string> surfaces;
  if (seed % 40 == 17) {
    // One shared token whose block lands just below, at or just above
    // the 512-member cap; the block counts a mention once per token, so
    // repeated tokens push it over.
    size_t sharing = 505 + rng() % 12;
    size_t repeats = rng() % 4;
    for (size_t i = 0; i < sharing; ++i) {
      std::string s = "Zorro " + UniqueWord(i);
      if (i < repeats) s += " zorro";
      surfaces.push_back(s);
    }
    for (size_t i = 0; i < 20; ++i) surfaces.push_back(TokenSoup(rng, 4));
  } else {
    switch (seed % 4) {
      case 0: {  // corpus-generated variants
        size_t n = 10 + rng() % 150;
        for (size_t i = 0; i < n; ++i) {
          surfaces.push_back(Pick(rng, CorpusSurfaces()));
        }
        break;
      }
      case 1: {  // random token soups
        size_t n = 5 + rng() % 80;
        for (size_t i = 0; i < n; ++i) surfaces.push_back(TokenSoup(rng, 6));
        break;
      }
      case 2: {  // empty and stop-only surfaces among ordinary ones
        static const std::vector<std::string> kDegenerate = {
            "", " ", "City of", "the", "of the town", ",.", "Town",
            "City of the", "--", "42"};
        size_t n = 5 + rng() % 40;
        for (size_t i = 0; i < n; ++i) {
          surfaces.push_back(rng() % 2 == 0 ? Pick(rng, kDegenerate)
                                            : Pick(rng, CorpusSurfaces()));
        }
        break;
      }
      default: {  // surfaces of more than 64 tokens among short ones
        size_t n = 5 + rng() % 25;
        for (size_t i = 0; i < n; ++i) {
          surfaces.push_back(rng() % 3 == 0 ? TokenSoup(rng, 65 + rng() % 90)
                                            : TokenSoup(rng, 5));
        }
        break;
      }
    }
  }
  std::vector<MentionRecord> mentions;
  for (std::string& s : surfaces) {
    mentions.push_back(M(mentions.size(), s));
  }
  return mentions;
}

TEST(ResolutionSweepTest, MatchesUnprunedOracle) {
  const uint64_t base_seed = EnvU64("STRUCTURA_II_SEED", 20261019);
  const uint64_t iters = EnvU64("STRUCTURA_II_ITERS", 200);
  static const double kThresholds[] = {0,   0.2, 0.76,
                                       0.8, 0.8000000000000002, 1.0};
  NameMatcher name;
  JaroWinklerMatcher jw;
  LevenshteinMatcher lev;
  const SimilarityMatcher* matchers[] = {&name, &jw, &lev};
  for (uint64_t iter = 0; iter < iters; ++iter) {
    const uint64_t seed = base_seed + iter;
    SCOPED_TRACE("STRUCTURA_II_SEED=" + std::to_string(seed) +
                 " (iteration " + std::to_string(iter) + ")");
    std::mt19937_64 rng(seed);
    // Matcher and threshold follow the seed, so consecutive seeds cover
    // every combination and a printed seed replays its own.
    const SimilarityMatcher* matcher = matchers[seed % 3];
    ResolutionOptions options;
    options.matcher = matcher;
    options.threshold = kThresholds[(seed / 3) % 6];
    std::vector<MentionRecord> mentions = SweepMentions(rng, seed);
    options.use_blocking = mentions.size() > 60 || rng() % 4 != 0;
    SCOPED_TRACE(matcher->name() + " threshold=" +
                 std::to_string(options.threshold) +
                 " mentions=" + std::to_string(mentions.size()) +
                 (options.use_blocking ? " blocked" : " exhaustive"));

    ScoreFn oracle_score =
        matcher == &name ? ScoreFn(OracleNameScore)
                         : [matcher](const MentionRecord& a,
                                     const MentionRecord& b) {
                             return matcher->Score(a, b);
                           };
    ResolutionResult want = OracleResolve(
        mentions, oracle_score, options.threshold, options.use_blocking);
    ResolutionResult got = ResolveEntities(mentions, options);

    ASSERT_EQ(got.pairs_scored, want.pairs_scored);
    ASSERT_EQ(got.num_clusters, want.num_clusters);
    ASSERT_EQ(got.cluster_of, want.cluster_of);
    ASSERT_EQ(got.merged_pairs.size(), want.merged_pairs.size());
    for (size_t i = 0; i < want.merged_pairs.size(); ++i) {
      SCOPED_TRACE("merged pair " + std::to_string(i));
      ASSERT_EQ(got.merged_pairs[i].a, want.merged_pairs[i].a);
      ASSERT_EQ(got.merged_pairs[i].b, want.merged_pairs[i].b);
      ASSERT_TRUE(got.merged_pairs[i].score == want.merged_pairs[i].score)
          << got.merged_pairs[i].score << " vs "
          << want.merged_pairs[i].score;
    }
    // The pruned entry point never changes a score it reports: spot-check
    // NameMatcher::Score against the original on random pairs too.
    for (int k = 0; k < 20 && !mentions.empty(); ++k) {
      const MentionRecord& a = mentions[rng() % mentions.size()];
      const MentionRecord& b = mentions[rng() % mentions.size()];
      ASSERT_TRUE(name.Score(a, b) == OracleNameScore(a, b))
          << "'" << a.surface << "' / '" << b.surface << "'";
    }
  }
}

}  // namespace
}  // namespace structura::ii
