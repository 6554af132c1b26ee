#include "ii/matcher.h"

#include <algorithm>
#include <limits>

#include "common/strings.h"
#include "text/similarity.h"
#include "text/tokenizer.h"

namespace structura::ii {
namespace {

/// Matched token fraction of the smaller token set. Greedy alignment of
/// the smaller set into the larger one; single-letter tokens ("d" from
/// "D.") match on initial. Both sets must be non-empty.
double Containment(const std::vector<std::string>& a,
                   const std::vector<std::string>& b) {
  const std::vector<std::string>* ta = &a;
  const std::vector<std::string>* tb = &b;
  if (ta->size() > tb->size()) std::swap(ta, tb);
  // One bit per token of the larger set; a word on the stack covers the
  // usual short names, longer surfaces spill to the heap.
  constexpr size_t kBits = 64;
  uint64_t inline_used = 0;
  std::vector<uint64_t> spilled;
  uint64_t* used = &inline_used;
  if (tb->size() > kBits) {
    spilled.assign((tb->size() + kBits - 1) / kBits, 0);
    used = spilled.data();
  }
  size_t matched = 0;
  for (const std::string& x : *ta) {
    for (size_t j = 0; j < tb->size(); ++j) {
      const uint64_t bit = uint64_t{1} << (j % kBits);
      if ((used[j / kBits] & bit) != 0) continue;
      const std::string& y = (*tb)[j];
      bool hit = x == y ||
                 (x.size() == 1 && !y.empty() && y[0] == x[0]) ||
                 (y.size() == 1 && !x.empty() && x[0] == y[0]);
      if (hit) {
        used[j / kBits] |= bit;
        ++matched;
        break;
      }
    }
  }
  return static_cast<double>(matched) / ta->size();
}

/// NameMatcher's score over pre-normalized tokens, or nullopt when it is
/// below `threshold`.
std::optional<double> NameScoreIfAtLeast(const std::vector<std::string>& ta,
                                         const std::vector<std::string>& tb,
                                         const std::string& sa,
                                         const std::string& sb,
                                         double threshold) {
  if (ta.empty() || tb.empty()) {
    if (0.0 >= threshold) return 0.0;
    return std::nullopt;
  }
  double containment = Containment(ta, tb);
  // Containment dominates; JW breaks ties between near-misses. JW <= 1
  // and IEEE multiply and add are monotone, so the score below can never
  // exceed this bound: a pair under it is rejected exactly, unscored.
  if (0.8 * containment + 0.2 * 1.0 < threshold) return std::nullopt;
  double jw = text::JaroWinklerSimilarity(sa, sb);
  double score = 0.8 * containment + 0.2 * jw;
  if (score >= threshold) return score;
  return std::nullopt;
}

}  // namespace

std::optional<double> SimilarityMatcher::ScoreIfAtLeast(
    const NormalizedMention& a, const NormalizedMention& b,
    double threshold) const {
  double score = Score(*a.record, *b.record);
  if (score >= threshold) return score;
  return std::nullopt;
}

double JaroWinklerMatcher::Score(const MentionRecord& a,
                                 const MentionRecord& b) const {
  return text::JaroWinklerSimilarity(a.surface, b.surface);
}

double LevenshteinMatcher::Score(const MentionRecord& a,
                                 const MentionRecord& b) const {
  return text::LevenshteinSimilarity(a.surface, b.surface);
}

std::vector<std::string> NameMatcher::NormalizeTokens(
    const std::string& s) {
  // Token-set scoring is order-insensitive, so "Smith, David" needs no
  // reorder — only lowercasing and stop-token stripping.
  std::vector<std::string> tokens = text::WordTokens(s);
  // Drop leading stop tokens ("City of Madison" -> "madison").
  static const char* kStops[] = {"city", "of", "the", "town"};
  size_t start = 0;
  while (start < tokens.size()) {
    bool is_stop = false;
    for (const char* stop : kStops) {
      if (tokens[start] == stop) {
        is_stop = true;
        break;
      }
    }
    if (!is_stop) break;
    ++start;
  }
  if (start > 0 && start < tokens.size()) {
    tokens.erase(tokens.begin(), tokens.begin() + static_cast<long>(start));
  }
  return tokens;
}

double NameMatcher::Score(const MentionRecord& a,
                          const MentionRecord& b) const {
  // No threshold: every score, even 0, qualifies.
  return *NameScoreIfAtLeast(NormalizeTokens(a.surface),
                             NormalizeTokens(b.surface), a.surface,
                             b.surface,
                             -std::numeric_limits<double>::infinity());
}

std::optional<double> NameMatcher::ScoreIfAtLeast(const NormalizedMention& a,
                                                  const NormalizedMention& b,
                                                  double threshold) const {
  return NameScoreIfAtLeast(a.tokens, b.tokens, a.record->surface,
                            b.record->surface, threshold);
}

}  // namespace structura::ii
