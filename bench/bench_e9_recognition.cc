// E9 — Section 3.3's principle: "narrowing the set of potential matches
// to a manageable number allows users to spot the correct match, when
// they would be swamped by the total number of potential matches." For
// each mention with a true co-referent, we build a top-k candidate list
// and measure (a) how often the true match is inside it, and (b) the
// simulated user's success rate, which decays with list length (longer
// lists mean more chances to misfire). Expected shape: recall@k rises
// steeply for small k; user success peaks at small k and the candidate
// list beats the "swamped" full-list baseline.
//
// BM_ResolveEntities times the automatic step that feeds those lists:
// blocked entity resolution over ~4k corpus person names, reported as
// ns and heap allocations per candidate pair.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <new>
#include <set>

#include "bench_util.h"
#include "common/random.h"
#include "ii/matcher.h"
#include "ii/resolution.h"

// Every operator new on a thread bumps its count, so an operator's
// allocations are the difference around it.
namespace {
thread_local uint64_t t_allocs = 0;

void* CountedAlloc(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace structura {
namespace {

struct MentionSet {
  std::vector<ii::MentionRecord> mentions;
  std::vector<corpus::EntityId> entities;
};

MentionSet BuildMentions() {
  bench::Workload w =
      bench::MakeWorkload(30, 0.25, 0.0, /*news_pages=*/40, 99);
  MentionSet set;
  for (const corpus::MentionTruth& m : w.truth.mentions) {
    ii::MentionRecord rec;
    rec.id = set.mentions.size();
    rec.surface = m.surface;
    set.mentions.push_back(std::move(rec));
    set.entities.push_back(m.entity);
  }
  return set;
}

/// A user model for scanning a candidate list: examines entries in
/// order; for each entry, with probability `attention` decides
/// correctly whether it is the true match; attention decays with list
/// position (fatigue).
bool UserFindsMatch(const std::vector<ii::ScoredPair>& candidates,
                    const std::vector<corpus::EntityId>& entities,
                    corpus::EntityId truth, Rng& rng) {
  double attention = 0.98;
  for (const ii::ScoredPair& c : candidates) {
    bool is_match = entities[c.b] == truth;
    bool judged_correctly = rng.NextBool(attention);
    bool judged_match = judged_correctly ? is_match : !is_match;
    if (judged_match) return is_match;  // user commits to this entry
    attention *= 0.97;                  // fatigue per examined entry
  }
  return false;
}

void BM_TopKCandidates(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  static const MentionSet& set = *new MentionSet(BuildMentions());
  ii::NameMatcher matcher;

  double recall_at_k = 0, user_success = 0;
  for (auto _ : state) {
    Rng rng(17);
    size_t has_coref = 0, found = 0, user_found = 0;
    for (size_t i = 0; i < set.mentions.size(); i += 7) {
      // Does mention i have a true co-referent elsewhere?
      bool any = false;
      for (size_t j = 0; j < set.mentions.size(); ++j) {
        if (j != i && set.entities[j] == set.entities[i]) any = true;
      }
      if (!any) continue;
      ++has_coref;
      auto top = ii::TopKCandidates(set.mentions, i, matcher, k);
      bool hit = false;
      for (const ii::ScoredPair& c : top) {
        if (set.entities[c.b] == set.entities[i]) hit = true;
      }
      if (hit) ++found;
      if (UserFindsMatch(top, set.entities, set.entities[i], rng)) {
        ++user_found;
      }
    }
    recall_at_k = static_cast<double>(found) / has_coref;
    user_success = static_cast<double>(user_found) / has_coref;
  }
  state.counters["recall_at_k"] = recall_at_k;
  state.counters["user_success"] = user_success;
}
BENCHMARK(BM_TopKCandidates)
    ->Arg(1)->Arg(3)->Arg(5)->Arg(10)->Arg(25)->Arg(50)
    ->Unit(benchmark::kMillisecond);

// Baseline: the user scans the entire unsorted mention list ("swamped").
void BM_FullListBaseline(benchmark::State& state) {
  static const MentionSet& set = *new MentionSet(BuildMentions());
  double user_success = 0;
  for (auto _ : state) {
    Rng rng(17);
    size_t has_coref = 0, user_found = 0;
    for (size_t i = 0; i < set.mentions.size(); i += 7) {
      bool any = false;
      for (size_t j = 0; j < set.mentions.size(); ++j) {
        if (j != i && set.entities[j] == set.entities[i]) any = true;
      }
      if (!any) continue;
      ++has_coref;
      // Unranked candidate list: everything, arbitrary order.
      std::vector<ii::ScoredPair> all;
      for (size_t j = 0; j < set.mentions.size(); ++j) {
        if (j != i) all.push_back(ii::ScoredPair{i, j, 0});
      }
      if (UserFindsMatch(all, set.entities, set.entities[i], rng)) {
        ++user_found;
      }
    }
    user_success = static_cast<double>(user_found) / has_coref;
  }
  state.counters["user_success"] = user_success;
}
BENCHMARK(BM_FullListBaseline)->Unit(benchmark::kMillisecond);

/// Distinct person names of a 2,000-city corpus (4,000 people) — the
/// shape of the RESOLVE input in the DGE build: surnames and initials
/// shared by hundreds of names, so most blocked pairs are non-matches.
std::vector<ii::MentionRecord> PersonSurfaces() {
  bench::Workload w = bench::MakeWorkload(2000);
  std::vector<ii::MentionRecord> mentions;
  std::set<std::string> seen;
  for (const corpus::PersonRecord& p : w.truth.people) {
    if (!seen.insert(p.name).second) continue;
    ii::MentionRecord rec;
    rec.id = mentions.size();
    rec.surface = p.name;
    mentions.push_back(std::move(rec));
  }
  return mentions;
}

void BM_ResolveEntities(benchmark::State& state) {
  static const auto& mentions =
      *new std::vector<ii::MentionRecord>(PersonSurfaces());
  ii::NameMatcher matcher;
  ii::ResolutionOptions options;
  options.matcher = &matcher;
  options.threshold = 0.8;
  size_t pairs = 0, merged = 0;
  uint64_t allocs = 0;
  std::chrono::nanoseconds elapsed{0};
  for (auto _ : state) {
    uint64_t before = t_allocs;
    auto t0 = std::chrono::steady_clock::now();
    ii::ResolutionResult res = ii::ResolveEntities(mentions, options);
    elapsed += std::chrono::steady_clock::now() - t0;
    allocs += t_allocs - before;
    pairs = res.pairs_scored;
    merged = res.merged_pairs.size();
    benchmark::DoNotOptimize(res);
  }
  const double total_pairs =
      static_cast<double>(pairs) * static_cast<double>(state.iterations());
  state.counters["mentions"] = static_cast<double>(mentions.size());
  state.counters["pairs_scored"] = static_cast<double>(pairs);
  state.counters["pairs_merged"] = static_cast<double>(merged);
  state.counters["ns_per_pair"] =
      static_cast<double>(elapsed.count()) / total_pairs;
  state.counters["allocs_per_pair"] =
      static_cast<double>(allocs) / total_pairs;
}
BENCHMARK(BM_ResolveEntities)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace structura

BENCHMARK_MAIN();
