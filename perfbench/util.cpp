#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <numeric>
#include <string>

#include "bench.h"
#include "common/stats.h"

namespace perfbench {

bool Outcome::correct() const {
  if (checks.empty()) return false;
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double now_s() { return static_cast<double>(now_ns()) / 1e9; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double grouped_quantile(const Counts& counts, double q) {
  double total = 0.0;
  for (const auto& [v, c] : counts) total += static_cast<double>(c);
  if (total == 0.0) return 0.0;
  const double target = q * total;
  double below = 0.0;
  for (const auto& [v, c] : counts) {
    const auto n = static_cast<double>(c);
    if (below + n >= target && n > 0) {
      return static_cast<double>(v) - 0.5 + (target - below) / n;
    }
    below += n;
  }
  return static_cast<double>(counts.rbegin()->first) + 0.5;
}

namespace {

// Every sample of histogram `name`, across all of its sites.
wankeeper::LatencyRecorder histogram_samples(
    wankeeper::obs::MetricsRegistry& reg, const std::string& name) {
  wankeeper::LatencyRecorder out;
  const auto snap = reg.snapshot();
  for (const auto& h : snap.histograms) {
    if (h.name == name) out.merge(reg.histogram(name, h.site).recorder());
  }
  return out;
}

}  // namespace

double histogram_sample_count(const wankeeper::obs::MetricsRegistry& reg) {
  double n = 0.0;
  const auto snap = reg.snapshot();
  for (const auto& h : snap.histograms) {
    n += static_cast<double>(h.count);
  }
  return n;
}

void add_protocol_metrics(const wankeeper::obs::MetricsRegistry& before,
                          wankeeper::obs::MetricsRegistry& after, double ops,
                          Outcome& out) {
  auto delta = [&](const char* name) {
    return static_cast<double>(after.counter_total(name) -
                               before.counter_total(name));
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double local = delta("token.local_commits");
  const double forwards = delta("broker.wan_forwards");
  out.metrics["zab.proposals_per_op"] = ratio(delta("zab.proposals"), ops);
  out.metrics["token.recalls_per_op"] = ratio(delta("token.recalls"), ops);
  out.metrics["token.grants_per_op"] = ratio(delta("token.grants"), ops);
  out.metrics["broker.wan_forwards_per_op"] = ratio(forwards, ops);
  out.metrics["token.local_commit_frac"] = ratio(local, local + forwards);
  out.metrics["wan.msgs_per_frame"] =
      ratio(delta("wan.frame_msgs"), delta("wan.frames_sent"));
  out.metrics["zab.commit_latency_us.p50"] = static_cast<double>(
      histogram_samples(after, "zab.commit_latency_us").percentile_us(0.5));
  out.metrics["zab.batch_size.mean"] =
      histogram_samples(after, "zab.batch_size").mean_us();
  out.metrics["token.recall_latency_us.p50"] = static_cast<double>(
      histogram_samples(after, "token.recall_latency_us").percentile_us(0.5));
}

}  // namespace perfbench
