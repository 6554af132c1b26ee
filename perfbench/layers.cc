#include "layers.h"

#include <algorithm>
#include <map>

#include "lang/optimizer.h"
#include "lang/parser.h"
#include "lang/plan.h"
#include "query/keyword_index.h"

namespace perfbench {
namespace {

using structura::core::System;
using structura::text::DocumentCollection;

/// Per-layer metrics in output order. `span` names the span whose self
/// time the metric reports; nullptr marks a count the workload sets.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* span;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"core.create_ms", "ms", "core.create"},
    {"core.ingest_ms", "ms", "core.ingest"},
    {"storage.snapshot.append_ms", "ms", "storage.snapshot.append"},
    {"storage.snapshot.appends_per_changed_page", "ratio", nullptr},
    {"storage.snapshot.stored_per_input_byte", "ratio", nullptr},
    {"query.kwindex.build_ms", "ms", "query.kwindex.build"},
    {"query.kwindex.docs_indexed_per_changed_page", "ratio", nullptr},
    {"query.kwindex.search_ms", "ms", "query.kwindex.search"},
    {"ie.extract_ms", "ms", "ie.extract"},
    {"ie.extractor_runs", "count", nullptr},
    {"ie.refresh_ms", "ms", "ie.refresh"},
    {"ie.refresh_work_ratio", "ratio", nullptr},
    {"ii.resolve_ms", "ms", "ii.resolve"},
    {"ii.pairs_scored", "count", nullptr},
    {"ii.merge_ratio", "ratio", nullptr},
    {"uncertainty.beliefs_ms", "ms", "uncertainty.beliefs"},
    {"provenance.lineage_nodes", "count", nullptr},
    {"hi.feedback_ms", "ms", "hi.feedback"},
    {"hi.tasks_asked", "count", nullptr},
    {"hi.accuracy_gain", "ratio", nullptr},
    {"rdbms.materialize_ms", "ms", "rdbms.materialize"},
    {"rdbms.wal_bytes_per_row", "B/row", nullptr},
    {"rdbms.wal_syncs", "count", nullptr},
    {"lang.parse_ms", "ms", "lang.parse"},
    {"lang.optimize_ms", "ms", "lang.optimize"},
    {"query.structured.miss_ms", "ms", "query.structured.miss"},
    {"query.rows_scanned_per_result", "ratio", nullptr},
    {"query.allocs_per_row", "ratio", nullptr},
    {"query.cache.hit_ratio", "ratio", nullptr},
    {"query.cache.hit_ms", "ms", "query.cache.hit"},
    {"query.cache.invalidations", "count", nullptr},
    {"query.hybrid_ms", "ms", "query.hybrid"},
    {"query.translator.suggest_ms", "ms", "query.translator.suggest"},
    {"query.runform_ms", "ms", "query.runform"},
    {"serve.queue_wait_ms", "ms", "serve.queue_wait"},
    {"serve.dispatch_ms", "ms", "serve.request"},
    {"serve.shed", "count", nullptr},
    {"trace_coverage.min", "ratio", nullptr},
    {"trace_overhead_ratio", "ratio", nullptr},
};

/// Cost of recording one span (Begin + End), ns, on this host.
double SpanCostNs() {
  Tracer t(true);
  constexpr int kSpans = 20000;
  int64_t t0 = NowNanos();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan s(&t, "calibration", 0, -1);
  }
  return static_cast<double>(NowNanos() - t0) / kSpans;
}

/// Share of a root span's wall time that layer spans account for: the
/// self times of the spans under it, minus the bench's own `bench.*`
/// work (which is also taken out of the wall time). A root that is
/// itself a layer span (a dotted name, e.g. serve.request) counts its
/// own self time too.
double Coverage(const std::vector<Tracer::Span>& spans,
                const std::vector<int64_t>& self, int64_t root) {
  const Tracer::Span& r = spans[static_cast<size_t>(root)];
  double wall = static_cast<double>(r.end - r.start);
  double layer = r.name.find('.') != std::string::npos
                     ? static_cast<double>(self[static_cast<size_t>(root)])
                     : 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    bool bench = false;
    int64_t p = spans[i].parent;
    for (; p >= 0 && p != root; p = spans[static_cast<size_t>(p)].parent) {
      bench = bench || spans[static_cast<size_t>(p)].name.rfind("bench.", 0) == 0;
    }
    if (p != root || bench) continue;
    if (spans[i].name.rfind("bench.", 0) == 0) {
      wall -= static_cast<double>(spans[i].end - spans[i].start);
    } else {
      layer += static_cast<double>(self[i]);
    }
  }
  return wall <= 0 ? 0 : layer / wall;
}

double MedianSelfMs(const std::map<std::string, std::vector<double>>& by_name,
                    const std::string& name) {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0 : Median(it->second);
}

}  // namespace

void Replays::ResetSnapshots() {
  store_.reset();
  dir_ = std::make_unique<ScratchDir>(workdir_, "replay");
  store_ = std::make_unique<structura::storage::SnapshotStore>();
  store_->AttachJournal(dir_->path()).ok();
}

void Replays::PrimeSnapshots(const DocumentCollection& docs) {
  if (store_ == nullptr) ResetSnapshots();
  for (const auto& doc : docs.docs) store_->Append(doc.id, doc.text).ok();
  store_->Sync().ok();
}

void Replays::Snapshot(Tracer* tracer, uint64_t req,
                       const DocumentCollection& docs) {
  ScopedSpan s(tracer, "storage.snapshot.append", req);
  PrimeSnapshots(docs);
}

void Replays::KeywordIndex(Tracer* tracer, uint64_t req,
                           const DocumentCollection& docs) {
  ScopedSpan s(tracer, "query.kwindex.build", req);
  structura::query::KeywordIndex index;
  for (const auto& doc : docs.docs) index.AddDocument(doc);
  index.Finalize();
  last_docs_indexed_ = index.NumDocuments();
}

void Replays::Lang(Tracer* tracer, uint64_t req, System& sys,
                   const std::vector<std::string>& statements) {
  const structura::lang::OptimizerCatalog catalog = sys.context().Catalog();
  for (const std::string& sdl : statements) {
    structura::Result<std::vector<structura::lang::Statement>> parsed =
        structura::Status::Internal("not parsed");
    {
      ScopedSpan s(tracer, "lang.parse", req);
      parsed = structura::lang::Parse(sdl);
    }
    if (!parsed.ok()) continue;
    ScopedSpan s(tracer, "lang.optimize", req);
    for (const auto& stmt : *parsed) {
      auto plan = structura::lang::BuildPlan(stmt);
      if (plan.ok()) structura::lang::Optimize(std::move(*plan), catalog);
    }
  }
}

uint64_t StoredVersions(System& sys, const DocumentCollection& docs) {
  uint64_t n = 0;
  for (const auto& doc : docs.docs) {
    auto v = sys.snapshots().LatestVersion(doc.id);
    if (v.ok()) n += *v + 1;
  }
  return n;
}

structura::ii::ResolutionResult ReplayResolve(System& sys,
                                              const std::string& view,
                                              const std::string& matcher) {
  const structura::query::Relation* rel = sys.View(view);
  std::vector<structura::ii::MentionRecord> mentions;
  std::map<std::string, size_t> seen;
  int col = rel == nullptr ? -1 : rel->ColumnIndex("subject");
  if (col >= 0) {
    for (const auto& row : rel->rows()) {
      std::string s = row[static_cast<size_t>(col)].ToString();
      if (!seen.emplace(s, mentions.size()).second) continue;
      structura::ii::MentionRecord m;
      m.id = mentions.size();
      m.surface = std::move(s);
      mentions.push_back(std::move(m));
    }
  }
  structura::ii::ResolutionOptions options;
  options.matcher = sys.context().matchers.at(matcher);
  options.threshold = 0.8;  // the THRESHOLD of kResolvePersons
  return structura::ii::ResolveEntities(mentions, options);
}

void FillLayerMetrics(const std::vector<Tracer::Span>& spans,
                      const std::vector<int64_t>& self,
                      const std::vector<int64_t>& coverage_roots,
                      MetricList* out) {
  auto by = SummarizeByRoot(spans, self);
  for (const LayerMetric& m : kLayerMetrics) {
    out->Set(m.name, m.span == nullptr ? 0 : MedianSelfMs(by, m.span),
             m.unit);
  }
  double min_coverage = coverage_roots.empty() ? 0 : 1;
  for (int64_t root : coverage_roots) {
    min_coverage =
        std::min(min_coverage, Coverage(spans, self, root));
  }
  out->Set("trace_coverage.min", min_coverage, "ratio");
  double root_ns = 0;
  for (const auto& s : spans) {
    if (s.parent < 0 && s.end >= 0) root_ns += static_cast<double>(s.end - s.start);
  }
  out->Set("trace_overhead_ratio",
           root_ns <= 0 ? 0
                        : static_cast<double>(spans.size()) * SpanCostNs() /
                              root_ns,
           "ratio");
}

}  // namespace perfbench
