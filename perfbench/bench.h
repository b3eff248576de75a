// Shared declarations of the benchmark program (wkbench). Each workload runs
// against the library's public entry points only and reports into an
// Outcome: named metrics, the correctness checks it ran, and how many
// operations it attempted and lost. main.cpp turns the Outcome into the
// line protocol run.py reads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  // run the probes and report per-layer metrics
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  // name -> value, units in main.cpp
  std::vector<Check> checks;

  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back(Check{name, ok, detail});
  }
  bool correct() const;
};

Outcome run_rt_local(const Options& o);
Outcome run_rt_shared_tcp(const Options& o);
Outcome run_des_hostile5(const Options& o);

// Encode/decode cost of a fixed message set through rt::encode_message /
// rt::decode_message: codec.encode_ns, codec.decode_ns, codec.bytes.
void run_codec_probe(Outcome& out);

// --- measurement helpers (util.cpp) ---

// Monotonic wall clock in nanoseconds since the first call.
std::int64_t now_ns();
double now_s();
// Process CPU time (user + system), seconds.
double cpu_seconds();
// Peak resident set size (VmHWM), MiB.
double peak_rss_mb();
// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
// Quantile of integer-valued samples kept as value -> count, reading each
// value v as spread evenly over [v - 0.5, v + 0.5]. Virtual-time latencies
// are whole microseconds and their pooled median sits on the same integer
// for every seed set, so a shift of the distribution that does not cross
// an integer would not show in LatencyRecorder::percentile_us; this quantile
// is continuous. Counts per value also keep memory flat as DES cells
// accumulate, where pooling raw samples would grow with the cell count and
// move peak_rss_mb with the machine's speed.
using Counts = std::map<std::int64_t, std::uint64_t>;
double grouped_quantile(const Counts& counts, double q);

// Samples retained by all histograms of `reg`.
double histogram_sample_count(const wankeeper::obs::MetricsRegistry& reg);
// The zab, token, broker and WAN-frame metrics the protocol registers, over
// the interval between two registry states, per completed client op.
void add_protocol_metrics(const wankeeper::obs::MetricsRegistry& before,
                          wankeeper::obs::MetricsRegistry& after, double ops,
                          Outcome& out);

}  // namespace perfbench
