// recrawl_refresh: writes beside reads. Set-up builds a System (ingest,
// EXTRACT facts, beliefs); then every round edits 1% of the pages, adds
// 0.1% new ones and deletes 0.1%, ingests the new crawl, runs REFRESH
// VIEW facts and BuildBeliefsFromView, and answers the standing
// temperature query plus one keyword search, both cold because the
// ingest bumped the epochs. A sequence is a fixed number of rounds on a
// fresh System, so every run compares the same rounds of the drift the
// system shows as crawls accumulate; sequences repeat until the time is
// used.

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>

#include "bench_common.h"
#include "common/random.h"
#include "corpus/generator.h"
#include "layers.h"

namespace perfbench {
namespace {

using structura::core::System;
using structura::text::DocumentCollection;

constexpr int kRoundsPerSequence = 8;
/// 5 sequences = 40 rounds, so p75 has at least ten rounds beyond it.
constexpr size_t kMinSequences = 5;
constexpr double kTailPercentile = 75;
constexpr double kEditFraction = 0.01;
constexpr double kAddDeleteFraction = 0.001;
constexpr const char* kRefresh = "REFRESH VIEW facts;";

/// Every facts row rendered as one string.
std::vector<std::string> RowStrings(const structura::query::Relation& rel) {
  std::vector<std::string> out;
  out.reserve(rel.size());
  for (const auto& row : rel.rows()) {
    std::string s;
    for (const auto& v : row) s += v.ToString() + '\x1f';
    out.push_back(std::move(s));
  }
  return out;
}

/// Size of the multiset symmetric difference of two row sets.
size_t SymmetricDifference(std::vector<std::string> a,
                           std::vector<std::string> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<std::string> diff;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(diff));
  return diff.size();
}

/// The standing query's answer recomputed by the bench from the view's
/// rows: subject -> AVG of the numeric temp_* values.
std::map<std::string, double> ExpectedTemperatures(
    const structura::query::Relation& facts) {
  int subject = facts.ColumnIndex("subject");
  int attribute = facts.ColumnIndex("attribute");
  int value = facts.ColumnIndex("value");
  std::map<std::string, std::pair<double, size_t>> acc;
  for (const auto& row : facts.rows()) {
    if (row[static_cast<size_t>(attribute)].ToString().rfind("temp_", 0) !=
        0) {
      continue;
    }
    double v = 0;
    if (!ParseNumber(row[static_cast<size_t>(value)], &v)) continue;
    auto& a = acc[row[static_cast<size_t>(subject)].ToString()];
    a.first += v;
    a.second += 1;
  }
  std::map<std::string, double> out;
  for (const auto& [s, a] : acc) out[s] = a.first / static_cast<double>(a.second);
  return out;
}

/// Compares the standing query's relation with the recomputation.
/// Returns an empty string when they agree.
std::string CompareTemperatures(const structura::query::Relation& got,
                                const std::map<std::string, double>& want) {
  if (got.size() != want.size()) {
    return "standing query returned " + std::to_string(got.size()) +
           " subjects, expected " + std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    std::string subject = got.At(i, "subject").ToString();
    double v = 0;
    auto it = want.find(subject);
    if (it == want.end() || !got.At(i, "avg_temp").ToNumber(&v) ||
        std::fabs(v - it->second) > 1e-9 * std::max(1.0, std::fabs(v))) {
      return "standing query answer for " + subject + " is wrong";
    }
  }
  return "";
}

/// One round's input: the next crawl and how much of it changed.
struct Recrawl {
  DocumentCollection crawl;
  size_t edited = 0, added = 0, deleted = 0;
  size_t changed() const { return edited + added + deleted; }
};

/// Applies the round's edits, additions and deletions to `prev`.
Recrawl NextCrawl(const DocumentCollection& prev, const DocumentCollection& reserve,
                  size_t* next_reserve, uint64_t round_seed) {
  Recrawl r;
  r.crawl = prev;
  structura::corpus::MutateCrawl(round_seed, kEditFraction, &r.crawl);
  for (size_t i = 0; i < prev.docs.size(); ++i) {
    if (r.crawl.docs[i].text != prev.docs[i].text) ++r.edited;
  }
  structura::Rng rng(round_seed);
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(std::lround(kAddDeleteFraction *
                                         static_cast<double>(prev.size()))));
  for (size_t k = 0; k < n && !r.crawl.docs.empty(); ++k) {
    r.crawl.docs.erase(r.crawl.docs.begin() +
                       static_cast<std::ptrdiff_t>(rng.NextBounded(r.crawl.size())));
    ++r.deleted;
  }
  for (size_t k = 0; k < n && *next_reserve < reserve.size(); ++k) {
    structura::text::Document doc = reserve.docs[(*next_reserve)++];
    doc.id += 1000000;  // disjoint from the base crawl's ids
    r.crawl.docs.push_back(std::move(doc));
    ++r.added;
  }
  return r;
}

struct SequenceState {
  std::unique_ptr<ScratchDir> ws;
  std::unique_ptr<System> sys;
  DocumentCollection crawl;
  size_t full_build_runs = 0;
  uint64_t input_bytes = 0;
};

uint64_t Bytes(const DocumentCollection& docs) {
  uint64_t n = 0;
  for (const auto& d : docs.docs) n += d.text.size();
  return n;
}

}  // namespace

WorkloadResult RunRecrawlRefresh(const Args& args, Tracer* tracer) {
  WorkloadResult out;
  std::vector<double> setup_s;
  const Corpus reserve_corpus = MakeCorpus(args.seed + 0x5EED);
  const DocumentCollection& reserve = reserve_corpus.docs;

  // Set-up: corpus plus one build on a fresh durable System.
  auto set_up = [&](SequenceState* st) {
    int64_t t0 = NowNanos();
    st->sys.reset();
    st->ws = std::make_unique<ScratchDir>(args.workdir, "recrawl");
    st->crawl = MakeCorpus(args.seed).docs;
    st->sys = NewSystem(st->ws->path(), args.seed);
    bool ok = Check(st->sys->IngestCrawl(st->crawl), "setup IngestCrawl",
                    &out) &&
              Check(st->sys->RunProgram(kFactsView).status(),
                    "setup EXTRACT", &out) &&
              Check(st->sys->BuildBeliefsFromView("facts"), "setup beliefs",
                    &out);
    st->full_build_runs = st->sys->context().extractor_runs;
    st->input_bytes = Bytes(st->crawl);
    setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    return ok;
  };

  std::vector<double> lag_ms, lag_scale, round_cpu_ms;
  std::vector<int64_t> roots;
  std::optional<size_t> divergent, rebuilt_rows;
  std::vector<double> appends_per_changed, indexed_per_changed, work_ratio,
      lineage_added, refresh_runs, invalidations;
  double stored_per_byte = 0;
  size_t sequences = 0, crawl_docs = 0;
  Replays replays(args.workdir);
  SpeedProbe probe;
  uint64_t req = 0;

  int64_t measure_start = NowNanos();
  while (sequences < kMinSequences ||
         static_cast<double>(NowNanos() - measure_start) / 1e9 <
             args.seconds) {
    SequenceState st;
    if (!set_up(&st)) break;
    ++sequences;
    System* sys = st.sys.get();
    if (tracer->enabled()) {
      replays.ResetSnapshots();
      replays.PrimeSnapshots(st.crawl);
    }
    size_t next_reserve = 0;
    bool sequence_ok = true;
    for (int round = 1; round <= kRoundsPerSequence && sequence_ok; ++round) {
      ++req;
      const double scale = probe.Sample();
      ++out.attempted;
      Recrawl next =
          NextCrawl(st.crawl, reserve, &next_reserve,
                    args.seed * 1000003 + static_cast<uint64_t>(round));
      st.crawl = std::move(next.crawl);
      st.input_bytes += Bytes(st.crawl);
      crawl_docs = st.crawl.size();
      const uint64_t versions_before = StoredVersions(*sys, st.crawl);
      const size_t runs_before = sys->context().extractor_runs;
      const size_t nodes_before = sys->lineage().NumNodes();
      const uint64_t inval_before =
          sys->result_cache()->stats().invalidations;
      size_t refresh_extractor_runs = 0;
      structura::Result<structura::query::Relation> standing =
          structura::Status::Internal("not run");
      std::vector<structura::query::SearchHit> hits;
      const std::string term = st.crawl.docs[req % st.crawl.size()].title;

      bool ok = true;
      double cpu0 = ProcessCpuMs();
      int64_t t0 = NowNanos();
      int64_t answered = 0;
      {
        ScopedSpan root(tracer, "round", req, -1);
        roots.push_back(root.id());
        {
          ScopedSpan s(tracer, "core.ingest", req);
          ok = Check(sys->IngestCrawl(st.crawl), "IngestCrawl", &out);
        }
        if (ok) {
          ScopedSpan s(tracer, "ie.refresh", req);
          ok = Check(sys->RunProgram(kRefresh).status(), "REFRESH", &out);
          refresh_extractor_runs = sys->context().extractor_runs - runs_before;
        }
        if (ok) {
          ScopedSpan s(tracer, "uncertainty.beliefs", req);
          ok = Check(sys->BuildBeliefsFromView("facts"), "beliefs", &out);
        }
        if (ok) {
          ScopedSpan s(tracer, "query.structured.miss", req);
          standing = sys->Query(kStandingQuery);
          ok = Check(standing.status(), "standing query", &out);
        }
        answered = NowNanos();
        if (ok) {
          ScopedSpan s(tracer, "query.kwindex.search", req);
          hits = sys->KeywordSearch(term, 10);
        }
      }
      double cpu = ProcessCpuMs() - cpu0;
      if (!ok) {
        sequence_ok = false;
        continue;
      }
      lag_ms.push_back(static_cast<double>(answered - t0) / 1e6);
      lag_scale.push_back(scale);
      round_cpu_ms.push_back(cpu);

      // Untimed checks: the standing answer against the bench's own
      // recomputation over the refreshed view, and keyword hits only
      // from pages of the current crawl.
      structura::query::Relation answer = std::move(*standing);
      if (args.plant_wrong && round == 1 && sequences == 1) {
        answer = WithWrongFirstValue(answer, "avg_temp");
      }
      std::string problem =
          CompareTemperatures(answer, ExpectedTemperatures(*sys->View("facts")));
      if (problem.empty()) {
        std::set<structura::text::DocId> live;
        for (const auto& d : st.crawl.docs) live.insert(d.id);
        for (const auto& h : hits) {
          if (live.count(h.doc) == 0) {
            problem = "keyword hit on a page not in the crawl";
            break;
          }
        }
        if (hits.empty()) problem = "keyword search for a title found nothing";
      }
      if (!problem.empty()) {
        out.Fail("round " + std::to_string(req) + ": " + problem);
      }

      const double changed = static_cast<double>(next.changed());
      appends_per_changed.push_back(
          static_cast<double>(StoredVersions(*sys, st.crawl) -
                              versions_before) /
          changed);
      work_ratio.push_back(static_cast<double>(refresh_extractor_runs) /
                           static_cast<double>(st.full_build_runs));
      refresh_runs.push_back(static_cast<double>(refresh_extractor_runs));
      lineage_added.push_back(
          static_cast<double>(sys->lineage().NumNodes() - nodes_before));
      invalidations.push_back(static_cast<double>(
          sys->result_cache()->stats().invalidations - inval_before));
      if (tracer->enabled()) {
        ScopedSpan r(tracer, "replay", req, -1);
        replays.Snapshot(tracer, req, st.crawl);
        replays.KeywordIndex(tracer, req, st.crawl);
        replays.Lang(tracer, req, *sys, {kRefresh, kStandingQuery});
        indexed_per_changed.push_back(
            static_cast<double>(replays.last_docs_indexed()) / changed);
      }
    }
    if (!sequence_ok) continue;
    stored_per_byte = static_cast<double>(sys->snapshots().StoredBytes()) /
                      static_cast<double>(st.input_bytes);

    // Untimed, once: the refreshed view against a from-scratch EXTRACT
    // over the final crawl. Every sequence replays the same inputs.
    if (divergent) continue;
    std::string rebuild = kFactsView;
    rebuild.replace(rebuild.find("facts"), 5, "rebuilt");
    if (!Check(sys->RunProgram(rebuild).status(), "rebuild EXTRACT", &out)) {
      continue;
    }
    size_t diff = SymmetricDifference(RowStrings(*sys->View("facts")),
                                      RowStrings(*sys->View("rebuilt")));
    divergent = diff;
    rebuilt_rows = sys->View("rebuilt")->size();
  }
  double measured_s = static_cast<double>(NowNanos() - measure_start) / 1e9;

  const double p50 = Median(lag_ms);
  const double agreement =
      rebuilt_rows.value_or(0) == 0
          ? 0
          : 1.0 - static_cast<double>(divergent.value_or(0)) /
                      static_cast<double>(*rebuilt_rows);

  ReportEndToEnd({Median(setup_s), lag_ms, lag_scale, kTailPercentile,
                  round_cpu_ms, lag_scale, agreement},
                 probe, &out);

  MetricList& d = out.detail;
  d.Set("docs_refreshed_per_s", p50 <= 0 ? 0 : crawl_docs / (p50 / 1e3),
        "1/s");
  d.Set("refresh_lag_ms.p50", p50, "ms");
  d.Set("refresh_lag_ms.tail", TailAt(lag_ms, kTailPercentile).value, "ms");
  d.Set("refresh_divergent_rows", static_cast<double>(divergent.value_or(0)),
        "count");
  d.Set("rebuilt_rows", static_cast<double>(rebuilt_rows.value_or(0)),
        "count");
  d.Set("sequences", static_cast<double>(sequences), "count");
  d.Set("rounds_per_sequence", kRoundsPerSequence, "count");
  d.Set("measured_s", measured_s, "s");

  d.Set("lineage_nodes_per_round", Median(lineage_added), "count");
  d.Set("ie.refresh_extractor_runs", Median(refresh_runs), "count");

  if (tracer->enabled()) {
    std::vector<Tracer::Span> spans = tracer->Snapshot();
    std::vector<int64_t> self = Tracer::SelfTimes(spans);
    MetricList& l = out.per_layer;
    FillLayerMetrics(spans, self, roots, &l);
    l.Set("storage.snapshot.appends_per_changed_page",
          Median(appends_per_changed), "ratio");
    l.Set("storage.snapshot.stored_per_input_byte", stored_per_byte,
          "ratio");
    l.Set("query.kwindex.docs_indexed_per_changed_page",
          Median(indexed_per_changed), "ratio");
    l.Set("ie.extractor_runs", Median(refresh_runs), "count");
    l.Set("ie.refresh_work_ratio", Median(work_ratio), "ratio");
    l.Set("provenance.lineage_nodes", Median(lineage_added), "count");
    l.Set("query.rows_scanned_per_result", 0, "ratio");
    l.Set("query.cache.invalidations", Median(invalidations), "count");
  }
  return out;
}

}  // namespace perfbench
