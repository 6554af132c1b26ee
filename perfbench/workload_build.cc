// dge_build: one cold pass of the paper's data-generation loop per
// iteration, on a fresh durable System: crawl ingest, EXTRACT with all
// seven standard extractors, RESOLVE over the Person pages, beliefs,
// one simulated-crowd feedback round, and MATERIALIZE into the rdbms.
// IE, II, uncertainty/provenance, HI and rdbms/WAL do the work here;
// query operators and the result cache do none.

#include <map>
#include <optional>
#include <set>

#include "bench_common.h"
#include "hi/simulated_user.h"
#include "layers.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

/// Fewer than 20 passes leave no percentile with ten samples beyond it,
/// so the tail is the slowest of at least this many passes.
constexpr uint64_t kMinPasses = 10;

using structura::core::System;

/// What one pass produced; equal inputs must give equal outcomes.
struct PassOutcome {
  size_t facts_rows = 0;
  size_t persons_rows = 0;
  size_t people_rows = 0;
  size_t beliefs = 0;
  size_t tasks_asked = 0;
  size_t extractor_runs = 0;
  double accuracy = 0;
  bool operator==(const PassOutcome& o) const {
    return facts_rows == o.facts_rows && persons_rows == o.persons_rows &&
           people_rows == o.people_rows && beliefs == o.beliefs &&
           tasks_asked == o.tasks_asked &&
           extractor_runs == o.extractor_runs && accuracy == o.accuracy;
  }
};

/// Reads the materialized table back and compares every row with the
/// top alternative of its belief. Returns the number of mismatches.
size_t CheckMaterialized(System* sys, const std::string& table,
                         std::string* first_problem) {
  std::map<std::pair<std::string, std::string>, std::string> expected;
  for (const auto& b : sys->beliefs()) {
    const auto* top = b.Top();
    if (top == nullptr || top->probability <= 0) continue;
    expected[{b.subject, b.attribute}] = top->value;
  }
  auto txn = sys->database()->Begin();
  auto rows = txn->Scan(table);
  if (!rows.ok()) {
    *first_problem = "scan " + table + ": " + rows.status().ToString();
    return 1;
  }
  size_t bad = 0;
  std::set<std::pair<std::string, std::string>> seen;
  for (const auto& [rid, row] : *rows) {
    std::pair<std::string, std::string> key{row[0].ToString(),
                                            row[1].ToString()};
    auto it = expected.find(key);
    // Subjects can repeat (two cities sharing a name): each belief
    // materializes one row, so count rows per key against beliefs.
    if (it == expected.end() || it->second != row[2].ToString()) {
      if (bad++ == 0) {
        *first_problem = "materialized " + key.first + "." + key.second +
                         "=" + row[2].ToString() + " differs from belief";
      }
    }
    seen.insert(key);
  }
  if (seen.size() != expected.size()) {
    if (bad++ == 0) *first_problem = "materialized row set differs";
  }
  return bad;
}

/// Plants a wrong answer: overwrites one materialized value.
void PlantWrongRow(System* sys, const std::string& table) {
  auto txn = sys->database()->Begin();
  auto rows = txn->Scan(table);
  if (!rows.ok() || rows->empty()) return;
  structura::rdbms::Row row = rows->front().second;
  row[2] = structura::rdbms::Value::Str(row[2].ToString() + "0");
  if (txn->Update(table, rows->front().first, row).ok()) {
    txn->Commit().ok();
  }
}

}  // namespace

WorkloadResult RunDgeBuild(const Args& args, Tracer* tracer) {
  WorkloadResult out;

  // Set-up: the crawl, the answer key, the crowd profile. Repeated so
  // the reported set-up time is a median.
  std::vector<double> setup_s;
  std::optional<Corpus> corpus;
  std::optional<TruthIndex> truth;
  for (int i = 0; i < 3; ++i) {
    corpus.reset();
    truth.reset();
    int64_t t0 = NowNanos();
    corpus.emplace(MakeCorpus(args.seed));
    truth.emplace(corpus->truth);
    setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  }
  const structura::text::DocumentCollection& docs = corpus->docs;
  size_t input_bytes = 0;
  for (const auto& d : docs.docs) input_bytes += d.text.size();

  System::Oracle oracle =
      [&truth](const std::string& subject,
               const std::string& attribute) -> std::optional<std::string> {
    const std::string* v = truth->Find(subject, attribute);
    if (v == nullptr) return std::nullopt;
    return *v;
  };
  System::FeedbackOptions feedback;
  feedback.budget = 50;
  feedback.answers_per_task = 5;

  structura::obs::Counter* wal_syncs =
      structura::obs::MetricsRegistry::Default().GetCounter(
          "storage.wal.syncs");

  std::vector<double> pass_ms, pass_scale, pass_cpu_ms;
  std::optional<PassOutcome> first;
  std::vector<int64_t> roots;
  Replays replays(args.workdir);
  SpeedProbe probe;
  double accuracy_gain = 0, wal_bytes_per_row = 0, wal_syncs_per_pass = 0;
  double lineage_nodes = 0, stored_per_byte = 0, appends_per_page = 0;
  size_t pairs_scored = 0, merged_pairs = 0;

  int64_t measure_start = NowNanos();
  for (uint64_t pass = 0;
       pass < kMinPasses ||
       static_cast<double>(NowNanos() - measure_start) / 1e9 < args.seconds;
       ++pass) {
    const double scale = probe.Sample();
    ScratchDir ws(args.workdir, "dge");
    std::vector<structura::hi::SimulatedUser> crowd =
        structura::hi::MakeCrowd(9, 0.7, 0.95, args.seed);
    ++out.attempted;
    const uint64_t req = pass + 1;
    bool ok = true;
    PassOutcome outcome;
    std::unique_ptr<System> sys;
    structura::obs::CostAccumulator materialize_cost;
    uint64_t syncs_before = 0;
    int64_t bench_ns = 0;

    double cpu0 = ProcessCpuMs();
    int64_t t0 = NowNanos();
    {
      ScopedSpan root(tracer, "pass", req, -1);
      roots.push_back(root.id());
      {
        ScopedSpan s(tracer, "core.create", req);
        sys = NewSystem(ws.path(), args.seed);
      }
      {
        ScopedSpan s(tracer, "core.ingest", req);
        ok = ok && Check(sys->IngestCrawl(docs), "IngestCrawl", &out);
      }
      {
        ScopedSpan s(tracer, "ie.extract", req);
        ok = ok && Check(sys->RunProgram(kFactsView).status(),
                         "EXTRACT facts", &out);
      }
      {
        ScopedSpan s(tracer, "ie.extract", req);
        ok = ok && Check(sys->RunProgram(kPersonsView).status(),
                         "EXTRACT persons", &out);
      }
      {
        ScopedSpan s(tracer, "ii.resolve", req);
        ok = ok && Check(sys->RunProgram(kResolvePersons).status(),
                         "RESOLVE", &out);
      }
      {
        ScopedSpan s(tracer, "uncertainty.beliefs", req);
        ok = ok && Check(sys->BuildBeliefsFromView("facts"), "beliefs", &out);
      }
      if (tracer->enabled()) {
        int64_t b0 = NowNanos();
        ScopedSpan s(tracer, "bench.check", req);
        accuracy_gain = -truth->Accuracy(sys->beliefs());
        bench_ns += NowNanos() - b0;
      }
      if (ok) {
        ScopedSpan s(tracer, "hi.feedback", req);
        auto asked = sys->RunFeedbackRound(oracle, &crowd, feedback);
        ok = Check(asked.status(), "RunFeedbackRound", &out);
        if (ok) outcome.tasks_asked = *asked;
      }
      if (ok) {
        ScopedSpan s(tracer, "rdbms.materialize", req);
        structura::obs::ScopedCostContext cost(&materialize_cost);
        syncs_before = wal_syncs->Value();
        ok = Check(sys->MaterializeBeliefs("beliefs"), "MaterializeBeliefs",
                   &out);
      }
    }
    int64_t wall = NowNanos() - t0 - bench_ns;
    double cpu = ProcessCpuMs() - cpu0;
    if (!ok) continue;  // Check() already counted the failure
    pass_ms.push_back(static_cast<double>(wall) / 1e6);
    pass_scale.push_back(scale);
    pass_cpu_ms.push_back(cpu);

    // Untimed checks and counts.
    if (args.plant_wrong && pass == 0) PlantWrongRow(sys.get(), "beliefs");
    std::string problem;
    if (CheckMaterialized(sys.get(), "beliefs", &problem) != 0) {
      out.Fail("pass " + std::to_string(req) + ": " + problem);
      continue;
    }
    outcome.facts_rows = sys->View("facts")->size();
    outcome.persons_rows = sys->View("persons")->size();
    outcome.people_rows = sys->View("people")->size();
    outcome.beliefs = sys->beliefs().size();
    outcome.extractor_runs = sys->context().extractor_runs;
    outcome.accuracy = truth->Accuracy(sys->beliefs());
    if (!first) {
      first = outcome;
    } else if (!(outcome == *first)) {
      out.Fail("pass " + std::to_string(req) +
               " differs from pass 1 on the same crawl");
      continue;
    }

    if (tracer->enabled()) {
      accuracy_gain += outcome.accuracy;
      size_t rows =
          sys->database()->GetTable("beliefs")->LiveRowCount();
      wal_bytes_per_row =
          rows == 0 ? 0
                    : static_cast<double>(materialize_cost.Snapshot()
                                              [structura::obs::CostDim::
                                                   kWalBytesAppended]) /
                          static_cast<double>(rows);
      wal_syncs_per_pass =
          static_cast<double>(wal_syncs->Value() - syncs_before);
      lineage_nodes = static_cast<double>(sys->lineage().NumNodes());
      stored_per_byte = static_cast<double>(sys->snapshots().StoredBytes()) /
                        static_cast<double>(input_bytes);
      appends_per_page = static_cast<double>(StoredVersions(*sys, docs)) /
                         static_cast<double>(docs.size());
      // Replays of the layers IngestCrawl and the SDL statements wrap.
      ScopedSpan r(tracer, "replay", req, -1);
      replays.ResetSnapshots();
      replays.Snapshot(tracer, req, docs);
      replays.KeywordIndex(tracer, req, docs);
      replays.Lang(tracer, req, *sys,
                   {kFactsView, kPersonsView, kResolvePersons});
      if (pass == 0) {
        ScopedSpan s(tracer, "bench.replay.ii", req);
        auto res = ReplayResolve(*sys, "persons", "name");
        pairs_scored = res.pairs_scored;
        merged_pairs = res.merged_pairs.size();
      }
    }
  }
  double measured_s = static_cast<double>(NowNanos() - measure_start) / 1e9;

  const PassOutcome fin = first.value_or(PassOutcome{});
  const double p50 = Median(pass_ms);
  const double docs_per_s = p50 <= 0 ? 0 : docs.size() / (p50 / 1e3);

  ReportEndToEnd({Median(setup_s), pass_ms, pass_scale, 100, pass_cpu_ms,
                  pass_scale, fin.accuracy},
                 probe, &out);

  MetricList& d = out.detail;
  d.Set("build_docs_per_s", docs_per_s, "1/s");
  d.Set("belief_accuracy", fin.accuracy, "ratio");
  d.Set("passes", static_cast<double>(pass_ms.size()), "count");
  d.Set("measured_s", measured_s, "s");

  d.Set("docs", static_cast<double>(docs.size()), "count");
  d.Set("facts_rows", static_cast<double>(fin.facts_rows), "count");
  d.Set("persons_rows", static_cast<double>(fin.persons_rows), "count");
  d.Set("people_rows", static_cast<double>(fin.people_rows), "count");
  d.Set("beliefs", static_cast<double>(fin.beliefs), "count");
  d.Set("truth_pairs", static_cast<double>(truth->size()), "count");
  d.Set("ie.extractor_runs", static_cast<double>(fin.extractor_runs),
        "count");
  d.Set("hi.tasks_asked", static_cast<double>(fin.tasks_asked), "count");

  if (tracer->enabled()) {
    std::vector<Tracer::Span> spans = tracer->Snapshot();
    std::vector<int64_t> self = Tracer::SelfTimes(spans);
    MetricList& l = out.per_layer;
    FillLayerMetrics(spans, self, roots, &l);
    l.Set("storage.snapshot.appends_per_changed_page", appends_per_page,
          "ratio");
    l.Set("storage.snapshot.stored_per_input_byte", stored_per_byte,
          "ratio");
    l.Set("query.kwindex.docs_indexed_per_changed_page",
          static_cast<double>(replays.last_docs_indexed()) /
              static_cast<double>(docs.size()),
          "ratio");
    l.Set("ie.extractor_runs", static_cast<double>(fin.extractor_runs),
          "count");
    l.Set("ii.pairs_scored", static_cast<double>(pairs_scored), "count");
    l.Set("ii.merge_ratio",
          pairs_scored == 0 ? 0
                            : static_cast<double>(merged_pairs) /
                                  static_cast<double>(pairs_scored),
          "ratio");
    l.Set("provenance.lineage_nodes", lineage_nodes, "count");
    l.Set("hi.tasks_asked", static_cast<double>(fin.tasks_asked), "count");
    l.Set("hi.accuracy_gain", accuracy_gain, "ratio");
    l.Set("rdbms.wal_bytes_per_row", wal_bytes_per_row, "B/row");
    l.Set("rdbms.wal_syncs", wal_syncs_per_pass, "count");
  }
  return out;
}

}  // namespace perfbench
