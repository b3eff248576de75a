// wkbench: one benchmark run of one workload.
//
//   wkbench --workload rt_local|rt_shared_tcp|des_hostile5 --seed N
//           --seconds S --trace 0|1
//
// Prints one line per correctness check and per metric, then the op
// counts; run.py turns these into the benchmark's JSON result:
//
//   check <name> ok|FAIL <detail>
//   metric <name> <value> <unit>
//   ops <attempted> <failed>
//
// End-to-end metrics are printed on every run. With --trace 1 the run also
// probes each layer and prints every per-layer metric; a layer a workload
// does not exercise reads 0, which is the prediction the traced run checks.
// Exits 1 when any check failed, 2 on bad arguments.
#include <sys/prctl.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"read_p50_us", "us"},
    {"write_p50_us", "us"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"op.p50_us", "us"},
    {"op.p95_us", "us"},
    {"op.p99_us", "us"},
    {"fail_frac", "ratio"},
    {"cpu_us_per_op", "us"},
    {"des.cells_per_s", "1/s"},
    {"gen.late_us.p99", "us"},
    {"gen.late_us.max", "us"},
    {"rt.post_wait_us.p50", "us"},
    {"rt.post_wait_us.p99", "us"},
    {"rt.timer_late_us.p50", "us"},
    {"rt.timer_late_us.p99", "us"},
    {"rt.hop_us.p50", "us"},
    {"rt.tcp_hop_us.p50", "us"},
    {"codec.encode_ns", "ns"},
    {"codec.decode_ns", "ns"},
    {"codec.bytes", "bytes"},
    {"zk.read_p50_us", "us"},
    {"zk.write_p50_us", "us"},
    {"zab.commit_latency_us.p50", "us"},
    {"zab.batch_size.mean", "count"},
    {"zab.proposals_per_op", "count"},
    {"token.recalls_per_op", "count"},
    {"token.grants_per_op", "count"},
    {"broker.wan_forwards_per_op", "count"},
    {"token.local_commit_frac", "ratio"},
    {"token.recall_latency_us.p50", "us"},
    {"wan.msgs_per_frame", "count"},
    {"obs.hist_samples", "count"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.queue_high_water", "count"},
    {"sim.fn_heap_allocs", "count"},
    {"net.msgs_per_op", "count"},
    {"net.wan_msgs_per_op", "count"},
    {"des.check_s", "s"},
    {"span.enqueue_ms.p50", "ms"},
    {"span.wan_hop_ms.p50", "ms"},
    {"span.zab_propose_ms.p50", "ms"},
    {"span.token_wait_ms.p99", "ms"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "wkbench: %s\nusage: wkbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

void print_metric(const perfbench::Outcome& out, const MetricDef& m,
                  bool required, bool* missing) {
  const auto it = out.metrics.find(m.name);
  if (it == out.metrics.end() && required) {
    std::printf("check metric:%s FAIL not measured\n", m.name);
    *missing = true;
    return;
  }
  const double v = it == out.metrics.end() ? 0.0 : it->second;
  std::printf("metric %s %.17g %s\n", m.name, v, m.unit);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("options take one value each");
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");

  // ThreadRuntime writes frames with write(2): once one runtime of
  // rt_shared_tcp has stopped, another runtime's write to the closed socket
  // would raise SIGPIPE and kill the whole process instead of failing with
  // EPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  // Timed waits end within a microsecond of their deadline instead of
  // anywhere in the kernel's default 50 us slack. Every thread created from
  // here on inherits this, the runtimes' loop threads included, so the
  // modeled-CPU timers each request waits out fire on time.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  perfbench::Outcome out;
  try {
    if (o.workload == "rt_local") {
      out = perfbench::run_rt_local(o);
    } else if (o.workload == "rt_shared_tcp") {
      out = perfbench::run_rt_shared_tcp(o);
    } else if (o.workload == "des_hostile5") {
      out = perfbench::run_des_hostile5(o);
    } else {
      return usage(("unknown workload '" + o.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wkbench: %s\n", e.what());
    return 1;
  }

  for (const auto& c : out.checks) {
    std::printf("check %s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAIL",
                c.detail.c_str());
  }
  bool missing = false;
  for (const auto& m : kEndToEnd) print_metric(out, m, true, &missing);
  if (o.trace) {
    for (const auto& m : kPerLayer) print_metric(out, m, false, &missing);
  }
  std::printf("ops %llu %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  return out.correct() && !missing ? 0 : 1;
}
