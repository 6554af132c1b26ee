#ifndef STRUCTURA_PERFBENCH_LAYERS_H_
#define STRUCTURA_PERFBENCH_LAYERS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ii/resolution.h"
#include "storage/snapshot_store.h"

namespace perfbench {

/// Replays of work the system does inside one public call, so the
/// traced run can time a layer that has no public entry point of its
/// own. Each replay calls the same layer functions on the same inputs
/// as the system does today:
///  - IngestCrawl appends every page to the snapshot store and syncs
///    its journal (storage.snapshot.append);
///  - IngestCrawl rebuilds the keyword index from every page
///    (query.kwindex.build);
///  - every SDL statement is parsed and optimized (lang.parse,
///    lang.optimize).
/// A change to what IngestCrawl does must change the replay with it.
class Replays {
 public:
  explicit Replays(std::string workdir) : workdir_(std::move(workdir)) {}

  /// Starts a fresh shadow snapshot store (a new System's history).
  void ResetSnapshots();
  /// Appends `docs` to the shadow store and syncs it, without a span
  /// (the crawl a workload's set-up ingested).
  void PrimeSnapshots(const structura::text::DocumentCollection& docs);
  /// The same, timed as storage.snapshot.append.
  void Snapshot(Tracer* tracer, uint64_t req,
                const structura::text::DocumentCollection& docs);
  void KeywordIndex(Tracer* tracer, uint64_t req,
                    const structura::text::DocumentCollection& docs);
  void Lang(Tracer* tracer, uint64_t req, structura::core::System& sys,
            const std::vector<std::string>& statements);

  /// Documents the last keyword-index replay indexed.
  size_t last_docs_indexed() const { return last_docs_indexed_; }

 private:
  std::string workdir_;
  std::unique_ptr<ScratchDir> dir_;
  std::unique_ptr<structura::storage::SnapshotStore> store_;
  size_t last_docs_indexed_ = 0;
};

/// Snapshot versions the system holds for the pages of `docs`
/// (sum of LatestVersion + 1; 0 for a page it has never seen).
uint64_t StoredVersions(structura::core::System& sys,
                        const structura::text::DocumentCollection& docs);

/// Re-runs entity resolution over the distinct values of `view`'s
/// subject column exactly as RESOLVE ENTITIES does, for its counters.
structura::ii::ResolutionResult ReplayResolve(structura::core::System& sys,
                                              const std::string& view,
                                              const std::string& matcher);

/// Sets every per-layer metric, in the order BENCHMARK.json lists
/// them: `*_ms` from span self times (median over roots), counts at 0
/// for the caller to override, trace_coverage.min over `roots` and
/// trace_overhead_ratio from the calibrated cost of one span.
void FillLayerMetrics(const std::vector<Tracer::Span>& spans,
                      const std::vector<int64_t>& self,
                      const std::vector<int64_t>& coverage_roots,
                      MetricList* out);

}  // namespace perfbench

#endif  // STRUCTURA_PERFBENCH_LAYERS_H_
