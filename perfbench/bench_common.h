#ifndef STRUCTURA_PERFBENCH_BENCH_COMMON_H_
#define STRUCTURA_PERFBENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/system.h"
#include "corpus/records.h"
#include "text/document.h"
#include "tracer.h"

namespace perfbench {

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test: plant one wrong answer so the run must report it.
  bool plant_wrong = false;
  /// Directory for durable workspaces and the span dump.
  std::string workdir = ".bench_build/work";
};

/// Corpus size shared by every workload: 2,000 cities with the
/// bench_util proportions (2 people and 1/2 company per city).
inline constexpr size_t kCities = 2000;

double Median(std::vector<double> v);
/// Linear interpolation between closest ranks; p in [0, 100].
double Percentile(std::vector<double> v, double p);

/// A tail percentile of a sample set and how many samples lie beyond it.
struct Tail {
  double percentile = 100;
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
/// The given percentile (100 = the maximum).
Tail TailAt(const std::vector<double>& v, double percentile);
/// The highest percentile of {50, 75, 90, 95, 99, 99.9} with at least
/// ten samples beyond it; with fewer than 20 samples, the maximum.
Tail TailOf(const std::vector<double>& v);

/// Ordered name -> (value, unit) list, rendered as the result line's
/// metrics object ({"name": {"value": v, "unit": u}, ...}).
class MetricList {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// What one workload run produced.
struct WorkloadResult {
  MetricList end_to_end;  // reported with --trace 0
  MetricList per_layer;   // reported with --trace 1
  MetricList detail;      // the workload's own named metrics (both modes)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  void Fail(const std::string& what);
};

/// Host-speed reference: a fixed single-threaded kernel (string
/// formatting, hashing, sorting: the kind of work the system does),
/// sampled between operations. Its median time over a run, against its
/// nominal time, gives the factor that maps the run's wall times to a
/// host running at nominal speed.
class SpeedProbe {
 public:
  /// Runs the kernel once on the calling thread, records its time and
  /// returns this sample's factor (nominal / measured).
  double Sample();
  /// The factor of the latest sample (1 before any).
  double LastScale() const;
  double median_ms() const;
  /// nominal / median measured: multiply a wall time by this.
  double Scale() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_ms_;
};

/// A run's end-to-end figures in wall time, before normalization.
struct EndToEnd {
  double setup_s = 0;
  /// Wall time of each operation and the probe factor in force when it
  /// ran (the latest sample before it).
  std::vector<double> op_ms;
  std::vector<double> op_scale;
  double tail_percentile = 100;
  /// CPU time of each operation and its probe factor.
  std::vector<double> cpu_ms;
  std::vector<double> cpu_scale;
  double answer_quality = 0;
};

/// Sets the end-to-end metrics BENCHMARK.json gates, in reference-host
/// time (unit ref_ms): each operation's wall and CPU time is multiplied
/// by the probe factor in force when it ran, so host-speed drift
/// cancels; setup_s is scaled by the run's median factor and keeps the
/// unit s. The wall-time values and the probe go on the detail line.
void ReportEndToEnd(const EndToEnd& raw, const SpeedProbe& probe,
                    WorkloadResult* out);

/// Process peak resident set (VmHWM), MiB.
double PeakRssMb();
/// User + system CPU time of the whole process, ms.
double ProcessCpuMs();
/// CPU time of the calling thread, ms.
double ThreadCpuMs();
/// operator new calls made by the calling thread so far.
uint64_t ThreadAllocs();

/// Generated crawl plus its ground truth.
struct Corpus {
  structura::text::DocumentCollection docs;
  structura::corpus::GroundTruth truth;
};
Corpus MakeCorpus(uint64_t seed);

/// The benchmark's own answer key: (subject, attribute) -> value, built once from the ground truth (O(1) lookups, unlike a scan
/// of every fact per question). Subjects whose canonical name belongs to
/// more than one entity are left out: their truth is ambiguous.
class TruthIndex {
 public:
  explicit TruthIndex(const structura::corpus::GroundTruth& truth);
  /// nullptr when (subject, attribute) has no unambiguous truth.
  const std::string* Find(const std::string& subject,
                          const std::string& attribute) const;
  size_t size() const { return values_.size(); }
  /// Share of truth pairs whose top belief equals the truth.
  double Accuracy(
      const std::vector<structura::uncertainty::AttributeBelief>& beliefs)
      const;

 private:
  static std::string Key(const std::string& s, const std::string& a);
  std::unordered_map<std::string, std::string> values_;
};

/// Trims and drops thousands separators ("1,234 " -> "1234").
std::string NormalizeValue(const std::string& v);

/// A fresh directory under the work dir, removed (recursively) on
/// destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& workdir, const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// SDL of the standard build.
extern const char* const kFactsView;
extern const char* const kPersonsView;
extern const char* const kResolvePersons;
/// The standing temperature query re-run after each refresh.
extern const char* const kStandingQuery;

/// Creates a System with the standard operators; `workspace` empty =
/// in memory. Aborts the process on failure (set-up cannot fail on a
/// healthy host).
std::unique_ptr<structura::core::System> NewSystem(
    const std::string& workspace, uint64_t seed);

/// Reads a number from an int, a double or a numeric string with
/// thousands separators ("233,209"); false for anything else.
bool ParseNumber(const structura::rdbms::Value& v, double* out);

/// A copy of `rel` whose first row carries a wrong `column` value: the
/// self-test's planted wrong answer.
structura::query::Relation WithWrongFirstValue(
    const structura::query::Relation& rel, const std::string& column);

/// Unwraps a Status; a failure becomes a failed operation.
bool Check(const structura::Status& s, const std::string& what,
           WorkloadResult* out);

WorkloadResult RunDgeBuild(const Args& args, Tracer* tracer);
WorkloadResult RunRecrawlRefresh(const Args& args, Tracer* tracer);
WorkloadResult RunQueryMix(const Args& args, Tracer* tracer);

}  // namespace perfbench

#endif  // STRUCTURA_PERFBENCH_BENCH_COMMON_H_
