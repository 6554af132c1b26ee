#include "ii/resolution.h"

#include <algorithm>
#include <unordered_map>

#include "ii/union_find.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace structura::ii {
namespace {

struct IiMetrics {
  obs::Counter* pairs_scored;
  obs::Counter* pairs_merged;
  obs::Histogram* resolve_latency_ns;
};
IiMetrics& Metrics() {
  static IiMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    return IiMetrics{
        r.GetCounter("ii.pairs_scored"),
        r.GetCounter("ii.pairs_merged"),
        r.GetHistogram("ii.resolve.latency_ns"),
    };
  }();
  return m;
}

/// Calls visit(a, b) for every candidate pair sharing at least one
/// normalized token (multi-key token blocking): deduplicated, a < b, in
/// lexicographic order. Pairs stream out per mention, so no candidate
/// list is ever materialized.
template <typename Visit>
void ForEachBlockedPair(const std::vector<NormalizedMention>& mentions,
                        Visit visit) {
  std::unordered_map<std::string, std::vector<size_t>> blocks;
  for (size_t i = 0; i < mentions.size(); ++i) {
    for (const std::string& tok : mentions[i].tokens) {
      blocks[tok].push_back(i);
      // Full words also block on their initial, so they meet single
      // letters ("d" from "D.") starting with the same letter.
      if (tok.size() > 1) blocks[std::string(1, tok[0])].push_back(i);
    }
  }
  // Members were pushed in index order (a mention listed twice in one
  // block sits in adjacent slots), so every block is sorted.
  std::vector<std::vector<const std::vector<size_t>*>> blocks_of(
      mentions.size());
  for (const auto& [key, members] : blocks) {
    // Oversized blocks (e.g. an initial shared by thousands) are capped:
    // classic blocking hygiene to avoid quadratic blowup on stop tokens.
    if (members.size() > 512) continue;
    for (size_t m : members) {
      if (blocks_of[m].empty() || blocks_of[m].back() != &members) {
        blocks_of[m].push_back(&members);
      }
    }
  }
  // Partners of a: later members of a's blocks, each taken once (seen_by
  // records the last mention that took it), then visited in order.
  std::vector<size_t> seen_by(mentions.size(), mentions.size());
  std::vector<size_t> partners;
  for (size_t a = 0; a < mentions.size(); ++a) {
    partners.clear();
    for (const std::vector<size_t>* members : blocks_of[a]) {
      for (auto it = std::upper_bound(members->begin(), members->end(), a);
           it != members->end(); ++it) {
        if (seen_by[*it] == a) continue;
        seen_by[*it] = a;
        partners.push_back(*it);
      }
    }
    std::sort(partners.begin(), partners.end());
    for (size_t b : partners) visit(a, b);
  }
}

}  // namespace

ResolutionResult ResolveEntities(const std::vector<MentionRecord>& mentions,
                                 const ResolutionOptions& options) {
  TRACE_SPAN("ii.resolve");
  IiMetrics& im = Metrics();
  obs::ScopedLatency latency(im.resolve_latency_ns);
  ResolutionResult result;
  result.cluster_of.resize(mentions.size());
  UnionFind uf(mentions.size());

  // Normalize once; blocking and scoring share the tokens.
  std::vector<NormalizedMention> normalized(mentions.size());
  for (size_t i = 0; i < mentions.size(); ++i) {
    normalized[i].record = &mentions[i];
    normalized[i].tokens = NameMatcher::NormalizeTokens(mentions[i].surface);
  }

  auto consider = [&](size_t a, size_t b) {
    ++result.pairs_scored;
    std::optional<double> score = options.matcher->ScoreIfAtLeast(
        normalized[a], normalized[b], options.threshold);
    if (score.has_value()) {
      uf.Union(a, b);
      result.merged_pairs.push_back(ScoredPair{a, b, *score});
    }
  };
  if (options.use_blocking) {
    ForEachBlockedPair(normalized, consider);
  } else {
    for (size_t a = 0; a < mentions.size(); ++a) {
      for (size_t b = a + 1; b < mentions.size(); ++b) consider(a, b);
    }
  }

  for (size_t i = 0; i < mentions.size(); ++i) {
    result.cluster_of[i] = uf.Find(i);
  }
  result.num_clusters = uf.NumSets();
  im.pairs_scored->Add(result.pairs_scored);
  im.pairs_merged->Add(result.merged_pairs.size());
  return result;
}

std::vector<ScoredPair> TopKCandidates(
    const std::vector<MentionRecord>& mentions, size_t query,
    const SimilarityMatcher& matcher, size_t k) {
  std::vector<ScoredPair> scored;
  scored.reserve(mentions.size());
  for (size_t i = 0; i < mentions.size(); ++i) {
    if (i == query) continue;
    scored.push_back(
        ScoredPair{query, i, matcher.Score(mentions[query], mentions[i])});
  }
  std::partial_sort(scored.begin(),
                    scored.begin() + std::min(k, scored.size()),
                    scored.end(),
                    [](const ScoredPair& x, const ScoredPair& y) {
                      return x.score > y.score;
                    });
  scored.resize(std::min(k, scored.size()));
  return scored;
}

}  // namespace structura::ii
