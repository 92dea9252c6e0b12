#include "bench.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/proc.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t workload_seed,
                          std::string_view salt) {
  if (workload_seed == 0) return base;
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a over the salt
  for (unsigned char c : salt) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  std::uint64_t state = base ^ h ^ (workload_seed * 0x9E3779B97F4A7C15ULL);
  return cesrm::util::splitmix64(state);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime), ru.ru_nvcsw};
}

double peak_rss_mb() {
  const auto bytes = cesrm::util::peak_rss_bytes();
  return bytes ? static_cast<double>(*bytes) / (1024.0 * 1024.0) : 0.0;
}

double mean_of_medians(const std::vector<cesrm::util::Sample>& batches) {
  cesrm::util::Sample medians;
  for (const auto& b : batches)
    if (!b.empty()) medians.add(b.median());
  return medians.mean();
}

std::string host_description() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  utsname uts{};
  const std::string kernel =
      uname(&uts) == 0 ? std::string(uts.sysname) + " " + uts.release
                       : "unknown";
#ifdef NDEBUG
  const char* build = "Release";
#else
  const char* build = "Debug";
#endif
  std::ostringstream os;
  os << "nproc=" << std::thread::hardware_concurrency() << " cpu=\"" << model
     << "\" kernel=\"" << kernel << "\" build=" << build;
  return os.str();
}

// --------------------------------------------------------------- spans ----

int SpanRecorder::open(std::string name, int parent, std::uint64_t group) {
  if (!enabled_) return -1;
  const double t = now_s();
  return add(std::move(name), t, t, parent, group);
}

void SpanRecorder::close(int id) {
  if (id < 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

int SpanRecorder::add(std::string name, double start, double end, int parent,
                      std::uint64_t group) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start, end, parent, group});
  return static_cast<int>(spans_.size()) - 1;
}

namespace {

/// Length of the union of intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

}  // namespace

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Children are clipped to the parent: a retroactive job span may start
    // a hair before its parent opened.
    for (auto& [cs, ce] : children[i]) {
      cs = std::clamp(cs, s.start, s.end);
      ce = std::clamp(ce, s.start, s.end);
    }
    out[s.name] += (s.end - s.start) - union_length(children[i]);
  }
  return out;
}

std::map<std::string, double> SpanRecorder::total_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.end - s.start;
  return out;
}

double SpanRecorder::uncovered_pct(double start, double end) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<double, double>> roots;
  for (const Span& s : spans_)
    if (s.parent < 0)
      roots.emplace_back(std::clamp(s.start, start, end),
                         std::clamp(s.end, start, end));
  const double wall = end - start;
  return wall > 0 ? 100.0 * (wall - union_length(roots)) / wall : 0.0;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start\":" << fmt_num(s.start) << ",\"end\":"
        << fmt_num(s.end) << ",\"parent\":" << s.parent
        << ",\"group\":" << s.group << "}\n";
  }
  return static_cast<bool>(out);
}

// -------------------------------------------------------------- report ----

void report_spans(const SpanRecorder& spans, double begin, double end,
                  const Options& opts, Report& report) {
  report.metric("span.uncovered_pct", spans.uncovered_pct(begin, end), "%");
  const auto self = spans.self_seconds();
  for (const auto& [name, total] : spans.total_seconds())
    report.line("span " + name + " total_s=" + fmt_num(total) +
                " self_s=" + fmt_num(self.at(name)));
  if (!opts.spans_out.empty() && !spans.write_jsonl(opts.spans_out))
    report.line("could not write spans to " + opts.spans_out);
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [n, vu] : metrics)
    if (n == name) {
      vu = {value, unit};
      return;
    }
  metrics.push_back({name, {value, unit}});
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
       << fmt_num(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
