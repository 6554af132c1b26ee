// query_mix: a read-only closed loop. A client waits for each reply
// before sending the next request, through a serve::Frontend with two
// workers, against a System built in set-up
// (facts view + beliefs). The mix: 40% SDL structured (AVG temperature
// of one city over a month range), 30% keyword search, 15% hybrid
// search, 15% translate (SuggestQueries, then RunForm on the top form).
// Cities are Zipf-skewed, and the 12,000 distinct structured queries
// exceed the 1,024-entry result cache, so both hits and misses occur.
// Parse/optimize, the operators, the cache, the keyword index, the
// translator and serve do all the work; IE, II and storage do none.

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>

#include "bench_common.h"
#include "common/random.h"
#include "common/strings.h"
#include "layers.h"
#include "obs/flight_recorder.h"
#include "serve/frontend.h"

namespace perfbench {
namespace {

using structura::Status;
using structura::core::System;
using structura::query::Relation;
using structura::query::SearchHit;
using structura::serve::RequestContext;

/// One client: with two, the two busy workers contend for cores this
/// shared host does not reliably deliver, and the structured p50 spread
/// 0.13-0.15 between seeds against 0.02 with one.
constexpr int kClients = 1;
constexpr size_t kWorkers = 2;
constexpr size_t kRangesPerCity = 6;  // 2,000 cities x 6 = 12,000 queries
constexpr double kZipfExponent = 0.8;
/// The tail is p95 of the structured requests; a run has at least this
/// many, so ten lie beyond it.
constexpr double kTailPercentile = 95;
constexpr size_t kMinStructured = 200;
/// Requests of client 0 between two speed-probe samples.
constexpr uint64_t kProbeEvery = 50;
constexpr size_t kTopK = 10;

enum Kind { kStructured = 0, kKeyword, kHybrid, kTranslate, kNumKinds };
const char* const kKindOp[kNumKinds] = {"structured", "keyword", "hybrid",
                                        "translate"};

/// Month range [lo, hi] (1-based) of each of a city's query variants.
std::pair<int, int> MonthRange(size_t variant) {
  static const int kRanges[kRangesPerCity][2] = {{1, 3},  {3, 9}, {6, 8},
                                                 {1, 12}, {4, 6}, {9, 12}};
  return {kRanges[variant][0], kRanges[variant][1]};
}

std::string MonthAttr(int m) {
  return structura::StrFormat("temp_%02d", m);
}

/// Bench-side answer key for the structured requests: per city, the
/// numeric temp_* values of the facts view.
class TemperatureIndex {
 public:
  explicit TemperatureIndex(const Relation& facts) {
    int s = facts.ColumnIndex("subject");
    int a = facts.ColumnIndex("attribute");
    int v = facts.ColumnIndex("value");
    int d = facts.ColumnIndex("doc");
    for (const auto& row : facts.rows()) {
      std::string attr = row[static_cast<size_t>(a)].ToString();
      if (attr == "population" && d >= 0) {
        population_docs_.insert(
            static_cast<uint64_t>(row[static_cast<size_t>(d)].as_int()));
      }
      if (attr.rfind("temp_", 0) != 0) continue;
      auto& cell = by_city_[row[static_cast<size_t>(s)].ToString()];
      double x = 0;
      if (ParseNumber(row[static_cast<size_t>(v)], &x)) {
        cell.emplace_back(std::move(attr), x);
      }
    }
    for (const auto& [city, values] : by_city_) cities_.push_back(city);
  }

  const std::vector<std::string>& cities() const { return cities_; }

  /// AVG over the city's temperatures in [lo, hi]; nullopt when none.
  std::optional<double> Average(const std::string& city, int lo,
                                int hi) const {
    auto it = by_city_.find(city);
    if (it == by_city_.end()) return std::nullopt;
    std::string from = MonthAttr(lo), to = MonthAttr(hi);
    double sum = 0;
    size_t n = 0;
    for (const auto& [attr, x] : it->second) {
      if (attr >= from && attr <= to) {
        sum += x;
        ++n;
      }
    }
    if (n == 0) return std::nullopt;
    return sum / static_cast<double>(n);
  }

  bool HasPopulation(uint64_t doc) const {
    return population_docs_.count(doc) > 0;
  }

 private:
  std::map<std::string, std::vector<std::pair<std::string, double>>>
      by_city_;
  std::vector<std::string> cities_;
  std::unordered_set<uint64_t> population_docs_;
};

/// One in-flight request of a client; the handler reads its inputs and
/// leaves its outputs here (the future hands them back to the client).
struct Slot {
  Kind kind = kStructured;
  uint64_t req = 0;
  std::string text;  // SDL, keywords or translate phrase
  std::string city;
  int lo = 1, hi = 12;
  int64_t submit_ns = 0;
  int64_t span = -1;
  // Outputs.
  Relation relation;
  std::vector<SearchHit> hits;
  size_t forms = 0;
  bool cache_miss = false;
  uint64_t allocs = 0;
  double cpu_ms = 0;  // on the worker
};

/// Everything set-up builds; rebuilt per set-up repetition.
struct Target {
  Corpus corpus;
  std::unique_ptr<System> sys;
  std::unique_ptr<TemperatureIndex> temps;
  std::unordered_set<uint64_t> doc_ids;
  std::vector<std::string> ranked;  // cities in Zipf rank order
};

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

/// Fills the next request of a client from its generator.
void NextRequest(structura::Rng* rng, const Target& t,
                 Slot* s) {
  double u = rng->NextDouble();
  s->kind = u < 0.40 ? kStructured
            : u < 0.70 ? kKeyword
            : u < 0.85 ? kHybrid
                       : kTranslate;
  s->city = t.ranked[rng->NextZipf(t.ranked.size(), kZipfExponent)];
  static const char* const kMonthWords[12] = {
      "january", "february", "march",     "april",   "may",      "june",
      "july",    "august",   "september", "october", "november", "december"};
  static const char* const kTopics[4] = {"population", "mayor", "founded",
                                         "temperature"};
  switch (s->kind) {
    case kStructured: {
      auto [lo, hi] = MonthRange(rng->NextBounded(kRangesPerCity));
      s->lo = lo;
      s->hi = hi;
      s->text = "SELECT subject, AVG(value) AS avg_temp FROM facts WHERE "
                "subject = \"" + s->city + "\" AND attribute >= \"" +
                MonthAttr(lo) + "\" AND attribute <= \"" + MonthAttr(hi) +
                "\" GROUP BY subject;";
      break;
    }
    case kKeyword:
      s->text = s->city + " " + kTopics[rng->NextBounded(4)];
      break;
    case kHybrid:
      s->text = s->city + " population";
      break;
    case kTranslate:
      s->text = std::string("average ") + kMonthWords[rng->NextBounded(12)] +
                " temperature " + Lower(s->city);
      break;
    default:
      break;
  }
}

/// Checks a completed request's answer. Empty string = correct.
std::string CheckAnswer(const Slot& s, const Target& t) {
  switch (s.kind) {
    case kStructured: {
      std::optional<double> want = t.temps->Average(s.city, s.lo, s.hi);
      if (!want) {
        return s.relation.size() == 0 ? "" : "rows for a city with no data";
      }
      double got = 0;
      if (s.relation.size() != 1 ||
          s.relation.At(0, "subject").ToString() != s.city ||
          !s.relation.At(0, "avg_temp").ToNumber(&got) ||
          std::fabs(got - *want) > 1e-9 * std::max(1.0, std::fabs(*want))) {
        return "wrong AVG for " + s.city + " " + MonthAttr(s.lo) + ".." +
               MonthAttr(s.hi);
      }
      return "";
    }
    case kKeyword:
    case kHybrid:
      for (size_t i = 0; i < s.hits.size(); ++i) {
        if (t.doc_ids.count(s.hits[i].doc) == 0) return "hit on unknown doc";
        if (i > 0 && s.hits[i].score > s.hits[i - 1].score) {
          return "hits not ranked by score";
        }
        if (s.kind == kHybrid && !t.temps->HasPopulation(s.hits[i].doc)) {
          return "hybrid hit violates its structured condition";
        }
      }
      return "";
    case kTranslate:
      // The top form may rightly answer nothing (a city whose page lacks
      // that month); a phrase built from the view's own vocabulary must
      // still translate to some form.
      return s.forms == 0 ? "no query form for \"" + s.text + "\"" : "";
    default:
      return "unknown kind";
  }
}

Target BuildTarget(uint64_t seed, WorkloadResult* out) {
  Target t;
  t.corpus = MakeCorpus(seed);
  t.sys = NewSystem("", seed);
  Check(t.sys->IngestCrawl(t.corpus.docs), "setup IngestCrawl", out);
  Check(t.sys->RunProgram(kFactsView).status(), "setup EXTRACT", out);
  Check(t.sys->BuildBeliefsFromView("facts"), "setup beliefs", out);
  t.temps = std::make_unique<TemperatureIndex>(*t.sys->View("facts"));
  for (const auto& d : t.corpus.docs.docs) t.doc_ids.insert(d.id);
  t.ranked = t.temps->cities();
  // A seeded shuffle decides which cities are popular.
  structura::Rng(seed ^ 0xC17135ULL).Shuffle(t.ranked);
  return t;
}

}  // namespace

WorkloadResult RunQueryMix(const Args& args, Tracer* tracer) {
  WorkloadResult out;
  std::vector<double> setup_s;
  std::array<Slot, kClients> slots;
  std::optional<Target> target;
  std::unique_ptr<structura::serve::Frontend> fe;

  for (int i = 0; i < 3; ++i) {
    fe.reset();
    target.reset();
    int64_t t0 = NowNanos();
    target.emplace(BuildTarget(args.seed, &out));
    structura::serve::Frontend::Options fopts;
    fopts.num_threads = kWorkers;
    // A closed loop never queues more than one request per client; the
    // wait budget only guards against shedding on a stalled host.
    fopts.max_queue_wait_ms = 1000;
    fopts.seed = args.seed;
    fe = std::make_unique<structura::serve::Frontend>(fopts);
    System* sys = target->sys.get();
    using Body = std::function<Status(Slot&, const RequestContext&)>;
    // Every handler records its queue wait and its CPU time on the
    // worker around the operator's own work.
    auto serve = [&](const char* op, Body body) {
      fe->RegisterOperator(op, [tracer, &slots, body](
                                   const RequestContext& ctx) {
        Slot& s = slots[ctx.id];
        tracer->Add("serve.queue_wait", s.submit_ns, NowNanos(), s.span,
                    s.req);
        const double cpu0 = ThreadCpuMs();
        Status st = body(s, ctx);
        s.cpu_ms = ThreadCpuMs() - cpu0;
        return st;
      });
    };
    serve("structured", [=](Slot& s, const RequestContext&) {
      ScopedSpan span(tracer, "query.structured.miss", s.req, s.span);
      const uint64_t misses = sys->result_cache()->stats().misses;
      const uint64_t a0 = ThreadAllocs();
      auto r = sys->Query(s.text);
      s.allocs = ThreadAllocs() - a0;
      // Our own lookup is the only one that can miss inside a hit's
      // few microseconds; a miss always moves the counter.
      s.cache_miss = sys->result_cache()->stats().misses != misses;
      if (!s.cache_miss) span.Rename("query.cache.hit");
      if (!r.ok()) return r.status();
      s.relation = std::move(*r);
      return Status::OK();
    });
    serve("keyword", [=](Slot& s, const RequestContext& ctx) {
      ScopedSpan span(tracer, "query.kwindex.search", s.req, s.span);
      auto r = sys->KeywordSearch(s.text, kTopK, ctx.interrupt);
      if (!r.ok()) return r.status();
      s.hits = std::move(*r);
      return Status::OK();
    });
    serve("hybrid", [=](Slot& s, const RequestContext& ctx) {
      ScopedSpan span(tracer, "query.hybrid", s.req, s.span);
      std::vector<structura::query::Condition> conds = {
          {"attribute", structura::query::CompareOp::kEq,
           structura::rdbms::Value::Str("population")}};
      auto r = sys->HybridSearch(s.text, conds, kTopK, ctx.interrupt);
      if (!r.ok()) return r.status();
      s.hits = std::move(*r);
      return Status::OK();
    });
    serve("translate", [=](Slot& s, const RequestContext& ctx) {
      std::vector<structura::query::QueryForm> forms;
      {
        ScopedSpan span(tracer, "query.translator.suggest", s.req, s.span);
        auto r = sys->SuggestQueries(s.text, ctx.interrupt);
        if (!r.ok()) return r.status();
        forms = std::move(*r);
      }
      s.forms = forms.size();
      if (forms.empty()) return Status::OK();
      ScopedSpan span(tracer, "query.runform", s.req, s.span);
      auto r = sys->RunForm(forms.front(), ctx.interrupt);
      if (!r.ok()) return r.status();
      s.relation = std::move(*r);
      return Status::OK();
    });
    setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  }
  System* sys = target->sys.get();
  const double view_rows = static_cast<double>(sys->View("facts")->size());

  // The closed loop.
  std::mutex mu;  // guards the samples below
  std::array<std::vector<double>, kNumKinds> latency_ms;
  std::vector<double> structured_scale, cpu_ms, cpu_scale,
      miss_allocs_per_row, rows_per_result;
  std::vector<int64_t> roots;
  size_t structured_checked = 0;
  std::atomic<size_t> structured_issued{0};
  std::atomic<uint64_t> next_req{0};
  std::atomic<bool> planted{false};
  SpeedProbe probe;
  const structura::query::QueryResultCache::Stats cache0 =
      sys->result_cache()->stats();
  const structura::serve::ServingCounters serve0 = fe->Counters();
  probe.Sample();
  const int64_t measure_start = NowNanos();

  auto client = [&](int c) {
    structura::Rng rng(args.seed * 7919 + static_cast<uint64_t>(c));
    Slot& s = slots[static_cast<size_t>(c)];
    Replays replays(args.workdir);
    for (uint64_t n = 0; structured_issued.load() < kMinStructured ||
                         static_cast<double>(NowNanos() - measure_start) /
                                 1e9 <
                             args.seconds;
         ++n) {
      if (c == 0 && n % kProbeEvery == 0) probe.Sample();
      NextRequest(&rng, *target, &s);
      if (s.kind == kStructured) ++structured_issued;
      s.req = ++next_req;
      s.relation = Relation();
      s.hits.clear();
      s.forms = 0;
      RequestContext ctx;
      ctx.id = static_cast<uint64_t>(c);
      ctx.cost = std::make_shared<structura::obs::CostAccumulator>();
      Status st;
      int64_t t0, t1;
      {
        ScopedSpan root(tracer, "serve.request", s.req, -1);
        s.span = root.id();
        t0 = NowNanos();
        s.submit_ns = t0;
        st = fe->Submit(kKindOp[s.kind], ctx).get();
        t1 = NowNanos();
        std::lock_guard<std::mutex> lock(mu);
        roots.push_back(root.id());
      }
      // Untimed: check the answer, then the traced-only replays.
      std::string problem = st.ok() ? "" : st.ToString();
      if (problem.empty()) {
        if (args.plant_wrong && s.kind == kStructured &&
            !planted.exchange(true)) {
          s.relation = WithWrongFirstValue(s.relation, "avg_temp");
        }
        problem = CheckAnswer(s, *target);
      }
      const double rows_scanned = static_cast<double>(
          ctx.cost->Snapshot()[structura::obs::CostDim::kRowsScanned]);
      if (tracer->enabled() && s.kind == kStructured) {
        ScopedSpan r(tracer, "replay", s.req, -1);
        replays.Lang(tracer, s.req, *sys, {s.text});
      }
      std::lock_guard<std::mutex> lock(mu);
      ++out.attempted;
      if (s.kind == kStructured) ++structured_checked;
      if (!problem.empty()) {
        out.Fail(std::string(kKindOp[s.kind]) + " request " +
                 std::to_string(s.req) + ": " + problem);
        continue;
      }
      const double ms = static_cast<double>(t1 - t0) / 1e6;
      const double scale = probe.LastScale();
      latency_ms[s.kind].push_back(ms);
      if (s.kind == kStructured) structured_scale.push_back(scale);
      cpu_ms.push_back(s.cpu_ms);
      cpu_scale.push_back(scale);
      if (s.kind == kStructured && s.cache_miss) {
        miss_allocs_per_row.push_back(static_cast<double>(s.allocs) /
                                      view_rows);
      }
      if ((s.kind == kStructured || s.kind == kTranslate) &&
          rows_scanned > 0 && s.relation.size() > 0) {
        rows_per_result.push_back(rows_scanned /
                                  static_cast<double>(s.relation.size()));
      }
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  const double measured_s =
      static_cast<double>(NowNanos() - measure_start) / 1e9;
  const structura::query::QueryResultCache::Stats cache1 =
      sys->result_cache()->stats();
  const structura::serve::ServingCounters serve1 = fe->Counters();
  fe.reset();

  const double lookups = static_cast<double>(
      (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses));
  const double hit_ratio =
      lookups == 0 ? 0 : static_cast<double>(cache1.hits - cache0.hits) / lookups;
  const size_t completed = cpu_ms.size();

  ReportEndToEnd(
      {Median(setup_s), latency_ms[kStructured], structured_scale,
       kTailPercentile, cpu_ms,
       cpu_scale,
       out.attempted == 0
           ? 0
           : static_cast<double>(out.attempted - out.failed) /
                 static_cast<double>(out.attempted)},
      probe, &out);

  MetricList& d = out.detail;
  static const char* const kKindMetric[kNumKinds] = {
      "structured_ms", "keyword_ms", "hybrid_ms", "translate_ms"};
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string m = kKindMetric[k];
    const Tail kt = TailOf(latency_ms[k]);
    d.Set(m + ".p50", Median(latency_ms[k]), "ms");
    d.Set(m + ".tail", kt.value, "ms");
    d.Set(m + ".tail_percentile", kt.percentile, "pct");
    d.Set(m + ".samples", static_cast<double>(kt.samples), "count");
  }
  d.Set("requests", static_cast<double>(completed), "count");
  d.Set("measured_s", measured_s, "s");
  d.Set("requests_per_s", static_cast<double>(completed) / measured_s, "1/s");

  d.Set("query.cache.hit_ratio", hit_ratio, "ratio");
  d.Set("structured_answers_checked",
        static_cast<double>(structured_checked), "count");
  d.Set("serve.shed", static_cast<double>(serve1.shed - serve0.shed),
        "count");

  if (tracer->enabled()) {
    std::vector<Tracer::Span> spans = tracer->Snapshot();
    std::vector<int64_t> self = Tracer::SelfTimes(spans);
    MetricList& l = out.per_layer;
    FillLayerMetrics(spans, self, roots, &l);
    l.Set("query.rows_scanned_per_result", Median(rows_per_result), "ratio");
    l.Set("query.allocs_per_row", Median(miss_allocs_per_row), "ratio");
    l.Set("query.cache.hit_ratio", hit_ratio, "ratio");
    l.Set("query.cache.invalidations",
          static_cast<double>(cache1.invalidations - cache0.invalidations),
          "count");
    l.Set("serve.shed", static_cast<double>(serve1.shed - serve0.shed),
          "count");
  }
  return out;
}

}  // namespace perfbench
