#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> t_open;

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Tracer::Begin(const std::string& name, uint64_t request,
                      int64_t parent) {
  if (!enabled_) return -1;
  if (parent == kCurrent) parent = t_open.empty() ? -1 : t_open.back();
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back(Span{name, NowNanos(), -1, parent, request});
  }
  t_open.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  int64_t now = NowNanos();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

void Tracer::Add(const std::string& name, int64_t start, int64_t end,
                 int64_t parent, uint64_t request) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, request});
}

void Tracer::Rename(int64_t id, const std::string& name) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].name = name;
}

std::vector<Tracer::Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::NumSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<int64_t> Tracer::SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.end >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end < 0) continue;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of child intervals clipped to [start, end].
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = -1;
    for (const auto& [lo_raw, hi_raw] : kids) {
      int64_t lo = std::max(lo_raw, s.start);
      int64_t hi = std::min(hi_raw, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  std::vector<int64_t> self = SelfTimes(spans);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu,"
                 "\"self_ns\":%lld}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start),
                 static_cast<long long>(s.end),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

std::map<std::string, std::vector<double>> SummarizeByRoot(
    const std::vector<Tracer::Span>& spans,
    const std::vector<int64_t>& self_times) {
  std::map<std::string, std::map<int64_t, double>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end < 0) continue;
    int64_t root = static_cast<int64_t>(i);
    while (spans[static_cast<size_t>(root)].parent >= 0) {
      root = spans[static_cast<size_t>(root)].parent;
    }
    by_name[spans[i].name][root] += static_cast<double>(self_times[i]) / 1e6;
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [name, roots] : by_name) {
    for (const auto& [root, ms] : roots) out[name].push_back(ms);
  }
  return out;
}

}  // namespace perfbench
