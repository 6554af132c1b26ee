#include "bench_common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/random.h"
#include "corpus/generator.h"

namespace perfbench {

using structura::core::System;

const char* const kFactsView =
    "CREATE VIEW facts AS EXTRACT infobox, temp_sentence, "
    "population_sentence, founded_sentence, elevation_sentence, "
    "mayor_sentence, residence_sentence FROM pages;";
const char* const kPersonsView =
    "CREATE VIEW persons AS EXTRACT infobox, residence_sentence "
    "FROM pages WHERE category = \"Person\";";
const char* const kResolvePersons =
    "CREATE VIEW people AS RESOLVE ENTITIES FROM persons COLUMN subject "
    "USING name THRESHOLD 0.8;";
const char* const kStandingQuery =
    "SELECT subject, AVG(value) AS avg_temp FROM facts "
    "WHERE attribute LIKE \"temp_%\" GROUP BY subject;";

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

Tail TailAt(const std::vector<double>& v, double percentile) {
  Tail t;
  t.percentile = percentile;
  t.samples = v.size();
  t.value = Percentile(v, percentile);
  t.beyond = static_cast<size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > t.value; }));
  return t;
}

Tail TailOf(const std::vector<double>& v) {
  static const double kLadder[] = {99.9, 99, 95, 90, 75, 50};
  for (double p : kLadder) {
    if (static_cast<double>(v.size()) * (100.0 - p) / 100.0 >= 10.0) {
      return TailAt(v, p);
    }
  }
  return TailAt(v, 100);
}

void MetricList::Set(const std::string& name, double value,
                     const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

std::string MetricList::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < items_.size(); ++i) {
    double v = items_[i].second.first;
    if (!std::isfinite(v)) v = 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + items_[i].first +
           "\": {\"value\": " + buf + ", \"unit\": \"" +
           items_[i].second.second + "\"}";
  }
  return out + "}";
}

void WorkloadResult::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

namespace {
/// The probe kernel's time on the reference host (this repository's
/// 4-CPU build host at its fastest), ms.
constexpr double kProbeNominalMs = 10.0;
}  // namespace

double SpeedProbe::Sample() {
  int64_t t0 = NowNanos();
  std::vector<std::string> keys;
  keys.reserve(20000);
  structura::Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    keys.push_back("key-" + std::to_string(rng.Next() % 1000003) + "-" +
                   std::to_string(i));
  }
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < keys.size(); ++i) index[keys[i]] = i;
  std::sort(keys.begin(), keys.end());
  size_t sum = 0;
  for (const std::string& k : keys) sum += index[k];
  double ms = static_cast<double>(NowNanos() - t0) / 1e6;
  std::lock_guard<std::mutex> lock(mu_);
  samples_ms_.push_back(sum == 0 ? ms + 1e-9 : ms);
  return kProbeNominalMs / samples_ms_.back();
}

double SpeedProbe::LastScale() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_ms_.empty() ? 1 : kProbeNominalMs / samples_ms_.back();
}

double SpeedProbe::median_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Median(samples_ms_);
}

double SpeedProbe::Scale() const {
  double m = median_ms();
  return m <= 0 ? 1 : kProbeNominalMs / m;
}

void ReportEndToEnd(const EndToEnd& raw, const SpeedProbe& probe,
                    WorkloadResult* out) {
  auto scaled = [](const std::vector<double>& v,
                   const std::vector<double>& scale) {
    std::vector<double> out(v.size());
    for (size_t i = 0; i < v.size(); ++i) out[i] = v[i] * scale[i];
    return out;
  };
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
  };
  const std::vector<double> op_ref = scaled(raw.op_ms, raw.op_scale);
  const Tail tail = TailAt(op_ref, raw.tail_percentile);
  MetricList& e = out->end_to_end;
  e.Set("setup_s", raw.setup_s * probe.Scale(), "s");
  e.Set("op_ms.p50", Median(op_ref), "ref_ms");
  e.Set("op_ms.tail", tail.value, "ref_ms");
  e.Set("cpu_ms_per_op", mean(scaled(raw.cpu_ms, raw.cpu_scale)), "ref_ms");
  e.Set("peak_rss_mb", PeakRssMb(), "MiB");
  e.Set("answer_quality", raw.answer_quality, "ratio");
  MetricList& d = out->detail;
  d.Set("op_ms.tail_percentile", tail.percentile, "pct");
  d.Set("op_ms.samples", static_cast<double>(tail.samples), "count");
  d.Set("op_ms.tail_beyond", static_cast<double>(tail.beyond), "count");
  d.Set("wall.setup_s", raw.setup_s, "s");
  d.Set("wall.op_ms.p50", Median(raw.op_ms), "ms");
  d.Set("wall.op_ms.tail", TailAt(raw.op_ms, raw.tail_percentile).value,
        "ms");
  d.Set("wall.cpu_ms_per_op", mean(raw.cpu_ms), "ms");
  d.Set("host_probe_ms", probe.median_ms(), "ms");
  d.Set("host_speed_scale", probe.Scale(), "ratio");
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

Corpus MakeCorpus(uint64_t seed) {
  structura::corpus::CorpusOptions options;
  options.num_cities = kCities;
  options.num_people = kCities * 2;
  options.num_companies = kCities / 2;
  options.infobox_dropout = 0.25;
  // Digit typos in free text give the HI round wrong beliefs to repair.
  options.typo_prob = 0.05;
  options.seed = seed;
  Corpus c;
  structura::corpus::GenerateCorpus(options, &c.docs, &c.truth);
  return c;
}

std::string NormalizeValue(const std::string& v) {
  size_t b = v.find_first_not_of(" \t\n");
  size_t e = v.find_last_not_of(" \t\n");
  if (b == std::string::npos) return "";
  std::string out;
  for (size_t i = b; i <= e; ++i) {
    if (v[i] != ',') out += v[i];
  }
  return out;
}

std::string TruthIndex::Key(const std::string& s, const std::string& a) {
  return s + '\x1f' + a;
}

TruthIndex::TruthIndex(const structura::corpus::GroundTruth& truth) {
  std::unordered_map<std::string, size_t> entities_per_name;
  for (const auto& [id, name] : truth.canonical_names) {
    ++entities_per_name[name];
  }
  for (const structura::corpus::FactTruth& f : truth.facts) {
    auto name = truth.canonical_names.find(f.entity);
    if (name == truth.canonical_names.end()) continue;
    if (entities_per_name[name->second] != 1) continue;
    values_[Key(name->second, f.attribute)] = f.value;
  }
}

const std::string* TruthIndex::Find(const std::string& subject,
                                    const std::string& attribute) const {
  auto it = values_.find(Key(subject, attribute));
  return it == values_.end() ? nullptr : &it->second;
}

double TruthIndex::Accuracy(
    const std::vector<structura::uncertainty::AttributeBelief>& beliefs)
    const {
  if (values_.empty()) return 0;
  size_t correct = 0;
  for (const auto& b : beliefs) {
    const std::string* truth = Find(b.subject, b.attribute);
    const auto* top = b.Top();
    if (truth != nullptr && top != nullptr &&
        NormalizeValue(top->value) == NormalizeValue(*truth)) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(values_.size());
}

ScratchDir::ScratchDir(const std::string& workdir, const std::string& tag) {
  static int counter = 0;
  std::ostringstream p;
  p << workdir << "/" << tag << "-" << ::getpid() << "-" << counter++;
  path_ = p.str();
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::unique_ptr<System> NewSystem(const std::string& workspace,
                                  uint64_t seed) {
  System::Options options;
  options.workspace = workspace;
  options.seed = seed;
  auto sys = System::Create(options);
  if (!sys.ok()) {
    std::fprintf(stderr, "System::Create failed: %s\n",
                 sys.status().ToString().c_str());
    std::exit(2);
  }
  std::unique_ptr<System> out = std::move(sys).value();
  out->RegisterStandardOperators();
  return out;
}

bool ParseNumber(const structura::rdbms::Value& v, double* out) {
  if (v.ToNumber(out)) return true;
  if (v.type() != structura::rdbms::ValueType::kString) return false;
  std::string s = NormalizeValue(v.as_string());
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

structura::query::Relation WithWrongFirstValue(
    const structura::query::Relation& rel, const std::string& column) {
  structura::query::Relation out(rel.columns());
  int col = rel.ColumnIndex(column);
  for (size_t i = 0; i < rel.size(); ++i) {
    structura::query::Row row = rel.rows()[i];
    if (i == 0 && col >= 0) {
      row[static_cast<size_t>(col)] = structura::rdbms::Value::Double(-1e9);
    }
    out.Append(std::move(row)).ok();
  }
  return out;
}

bool Check(const structura::Status& s, const std::string& what,
           WorkloadResult* out) {
  if (s.ok()) return true;
  out->Fail(what + ": " + s.ToString());
  return false;
}

}  // namespace perfbench
