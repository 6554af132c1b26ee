// DGE benchmark driver: runs one workload against core::System for a
// fixed time and prints its metrics. The last line of standard output
// is the result object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// separate traced run (--trace 1). Lines before it carry the host
// block, the workload's own named metrics and any failures.
//
//   dge_bench --workload dge_build|recrawl_refresh|query_mix
//             --seed N --seconds S --trace 0|1 [--plant-wrong]
//             [--workdir DIR]

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

#ifndef STRUCTURA_BENCH_BUILD_TYPE
#define STRUCTURA_BENCH_BUILD_TYPE "unknown"
#endif

// ---------------------------------------------- allocation counter
// Every operator new in the process bumps a per-thread count, so a
// request's allocations are the difference around it on its worker.

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

namespace perfbench {

uint64_t ThreadAllocs() { return t_allocs; }

namespace {

/// Loop iterations `threads` spinning threads complete in `ms`.
double SpinIterations(unsigned threads, int ms) {
  std::atomic<bool> stop{false};
  std::vector<uint64_t> counts(threads, 0);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&stop, &counts, t] {
      uint64_t n = 0, x = t + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 1000; ++i) x = x * 6364136223846793005ULL + 1;
        ++n;
      }
      counts[t] = n + (x == 0 ? 1 : 0);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  stop = true;
  double total = 0;
  for (unsigned t = 0; t < threads; ++t) {
    pool[t].join();
    total += static_cast<double>(counts[t]);
  }
  return total;
}

/// The host block: what the numbers were measured on.
std::string HostJson() {
  unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  double one = SpinIterations(1, 150);
  double all = SpinIterations(nproc, 150);
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %u, \"build_type\": \"%s\", "
      "\"parallel_capacity\": {\"threads\": %u, \"speedup_vs_1\": %.4f}, "
      "\"dge_build_flush_policy\": \"durable workspace, default WAL "
      "policy (fsync per commit), snapshot journal fsync per crawl\"}",
      nproc, STRUCTURA_BENCH_BUILD_TYPE, nproc, one <= 0 ? 0 : all / one);
  return buf;
}

void PrintMetrics(const char* section, const MetricList& m) {
  for (const auto& [name, vu] : m.items()) {
    std::printf("  %-8s %-46s %.6g %s\n", section, name.c_str(), vu.first,
                vu.second.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: dge_bench --workload dge_build|recrawl_refresh|"
               "query_mix --seed N --seconds S --trace 0|1 "
               "[--plant-wrong] [--workdir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::strtoull(value(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(value(), nullptr);
    } else if (a == "--trace") {
      args.trace = std::strcmp(value(), "1") == 0;
    } else if (a == "--plant-wrong") {
      args.plant_wrong = true;
    } else if (a == "--workdir") {
      args.workdir = value();
    } else {
      return Usage();
    }
  }
  WorkloadResult (*run)(const Args&, Tracer*) = nullptr;
  if (args.workload == "dge_build") run = RunDgeBuild;
  if (args.workload == "recrawl_refresh") run = RunRecrawlRefresh;
  if (args.workload == "query_mix") run = RunQueryMix;
  if (run == nullptr || args.seconds <= 0) return Usage();
  std::filesystem::create_directories(args.workdir);

  std::printf("host %s\n", HostJson().c_str());
  std::fflush(stdout);
  Tracer tracer(args.trace);
  WorkloadResult r = run(args, &tracer);

  if (args.trace) {
    std::string path = args.workdir + "/spans-" + args.workload + "-" +
                       std::to_string(args.seed) + ".jsonl";
    if (tracer.WriteJsonLines(path)) {
      std::printf("spans %zu written to %s\n", tracer.NumSpans(),
                  path.c_str());
    }
  }
  r.detail.Set("ops_failed_ratio",
               r.attempted == 0 ? 1
                                : static_cast<double>(r.failed) /
                                      static_cast<double>(r.attempted),
               "ratio");
  std::printf("detail {\"workload\": \"%s\", \"seed\": %llu, "
              "\"metrics\": %s}\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              r.detail.ToJson().c_str());
  PrintMetrics("workload", r.detail);
  PrintMetrics(args.trace ? "layer" : "e2e",
               args.trace ? r.per_layer : r.end_to_end);
  for (const std::string& f : r.failures) {
    std::printf("failure: %s\n", f.c_str());
  }
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              (args.trace ? r.per_layer : r.end_to_end).ToJson().c_str());
  return 0;
}
