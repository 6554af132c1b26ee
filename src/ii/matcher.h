#ifndef STRUCTURA_II_MATCHER_H_
#define STRUCTURA_II_MATCHER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace structura::ii {

/// A surface mention awaiting entity resolution ("David Smith" on page 12,
/// "D. Smith" on page 40 — the paper's running example of semantic
/// heterogeneity, Section 3.2).
struct MentionRecord {
  uint64_t id = 0;          // caller-assigned (e.g. fact id)
  std::string surface;
  std::string context;      // optional: nearby text, for context-aware scores
};

/// A mention together with NameMatcher::NormalizeTokens(surface). Entity
/// resolution normalizes each mention once and hands the tokens to both
/// blocking and scoring.
struct NormalizedMention {
  const MentionRecord* record = nullptr;
  std::vector<std::string> tokens;
};

/// Pairwise similarity in [0, 1] between two mentions.
class SimilarityMatcher {
 public:
  virtual ~SimilarityMatcher() = default;
  virtual std::string name() const = 0;
  virtual double Score(const MentionRecord& a,
                       const MentionRecord& b) const = 0;

  /// Score(*a.record, *b.record) when it is >= threshold, else nullopt.
  /// The value is bit-identical to Score's, so a caller that only keeps
  /// pairs at or above a threshold gets the same result either way. The
  /// default scores and compares; matchers with an exact upper bound
  /// override it to skip the full score of pairs that cannot qualify.
  virtual std::optional<double> ScoreIfAtLeast(const NormalizedMention& a,
                                               const NormalizedMention& b,
                                               double threshold) const;
};

/// Jaro-Winkler over raw surfaces.
class JaroWinklerMatcher : public SimilarityMatcher {
 public:
  std::string name() const override { return "jaro_winkler"; }
  double Score(const MentionRecord& a,
               const MentionRecord& b) const override;
};

/// Normalized Levenshtein over raw surfaces.
class LevenshteinMatcher : public SimilarityMatcher {
 public:
  std::string name() const override { return "levenshtein"; }
  double Score(const MentionRecord& a,
               const MentionRecord& b) const override;
};

/// Name-aware matcher handling the heterogeneity the corpus (and real
/// text) contains:
///  - "Smith, David"  -> token reorder around the comma
///  - "D. Smith"      -> single-letter tokens match words by initial
///  - "City of X"     -> leading stop-tokens ("city", "of", "the") dropped
///  - "Madison, Wisconsin" vs "Madison" -> containment of token sets
/// Score: matched token fraction of the smaller normalized token set,
/// averaged with Jaro-Winkler as a tiebreaker.
class NameMatcher : public SimilarityMatcher {
 public:
  std::string name() const override { return "name"; }
  double Score(const MentionRecord& a,
               const MentionRecord& b) const override;
  /// Reuses the normalized tokens and skips Jaro-Winkler when even a
  /// perfect one (1.0) could not lift the score to `threshold`.
  std::optional<double> ScoreIfAtLeast(const NormalizedMention& a,
                                       const NormalizedMention& b,
                                       double threshold) const override;

  /// Normalization used by the matcher (exposed for tests/blocking):
  /// lowercase, comma-reorder, stop-token removal.
  static std::vector<std::string> NormalizeTokens(const std::string& s);
};

}  // namespace structura::ii

#endif  // STRUCTURA_II_MATCHER_H_
