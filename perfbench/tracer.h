#ifndef STRUCTURA_PERFBENCH_TRACER_H_
#define STRUCTURA_PERFBENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNanos();

/// Bench-side span recorder. Spans wrap the benchmark's calls into each
/// layer of the system; they live in memory until the run ends and are
/// then written out in one piece. A disabled tracer records nothing and
/// costs one branch per scope, so the timed (untraced) runs measure the
/// system alone.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start = 0;
    int64_t end = -1;     // -1 while open
    int64_t parent = -1;  // index of the enclosing span, -1 for a root
    uint64_t request = 0;
  };

  /// Parent argument meaning "the innermost span open on this thread".
  static constexpr int64_t kCurrent = -2;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled).
  int64_t Begin(const std::string& name, uint64_t request,
                int64_t parent = kCurrent);
  void End(int64_t id);
  /// Records an already finished interval, e.g. a queue wait measured
  /// across threads.
  void Add(const std::string& name, int64_t start, int64_t end,
           int64_t parent, uint64_t request);
  void Rename(int64_t id, const std::string& name);

  /// Copy of every span recorded so far.
  std::vector<Span> Snapshot() const;
  size_t NumSpans() const;

  /// Self time of each span: its duration minus the part of its
  /// interval covered by its direct children (clipped to the span).
  static std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

  /// Writes the spans as JSON lines, one span per line, with self
  /// times. Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction. Nests through
/// the thread's open-span stack.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t request,
             int64_t parent = Tracer::kCurrent)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  void Rename(const std::string& name) { tracer_->Rename(id_, name); }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Self time by span name, ms: for each root span (a pass, a round, a
/// request) the summed self time of its spans called `name`, one entry
/// per root that has any.
std::map<std::string, std::vector<double>> SummarizeByRoot(
    const std::vector<Tracer::Span>& spans,
    const std::vector<int64_t>& self_times);

}  // namespace perfbench

#endif  // STRUCTURA_PERFBENCH_TRACER_H_
