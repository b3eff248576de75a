// des_hostile5: back-to-back DES sweeps of the hostile5 scenario (5 sites
// on the wan5 matrix; a latency reroute, a flapping link, a lossy link, a
// one-way partition, a site leave/rejoin and diurnal load) through
// wk::run_scenario_sweep_on, the harness the seed hunter runs. Cell i of a
// run uses seed 1000 * --seed + i + 1. The harness's load is closed-loop
// with 20 ms think time and 30% reads; batching is at its default (off).
//
// This is the only workload with WAN latency and injected faults, and the
// only one that loads the simulator, so sim.* is zero everywhere else.
// read_p50_us, write_p50_us and op.* are client-op latencies in virtual
// time, pooled over all cells: a cell's figures repeat exactly for its
// seed, and the wall clock only sets how many cells fit in the run.
// Latencies are kept as counts per microsecond, so memory does not grow
// with the number of cells.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/trace.h"
#include "sim/scenario.h"
#include "wankeeper/consistency.h"
#include "wankeeper/sweep_harness.h"

namespace perfbench {
namespace {

using namespace wankeeper;

constexpr int kMinCells = 2;

std::string describe_failure(std::uint64_t seed, const wk::SweepResult& r) {
  std::string s = "seed " + std::to_string(seed) + ":";
  if (!r.audit_clean) s += " token audit (" + r.first_violation + ")";
  if (!r.converged) s += " not converged";
  if (!r.consistency_clean) s += " consistency (" + r.first_consistency_witness + ")";
  if (r.duplicate_mints != 0) s += " duplicate gseq mints";
  if (r.dueling_hubs) s += " dueling hubs";
  if (r.completed_total <= 100) s += " load starved";
  return s;
}

struct SpanSamples {
  obs::SpanKind kind;
  const char* metric;
  double q;
  Counts us;
};

}  // namespace

Outcome run_des_hostile5(const Options& o) {
  Outcome out;
  std::vector<double> setup_s;
  Counts lat_us;
  Counts read_us;
  Counts write_us;
  std::uint64_t ok_ops = 0;
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;
  std::string first_failure;

  // Traced-run accumulators, summed over cells.
  obs::MetricsRegistry protocol;
  std::vector<SpanSamples> spans = {
      {obs::SpanKind::kEnqueue, "span.enqueue_ms.p50", 0.50, {}},
      {obs::SpanKind::kWanHop, "span.wan_hop_ms.p50", 0.50, {}},
      {obs::SpanKind::kZabPropose, "span.zab_propose_ms.p50", 0.50, {}},
      {obs::SpanKind::kTokenWait, "span.token_wait_ms.p99", 0.99, {}},
  };
  double events = 0, heap_allocs = 0, loop_wall_ns = 0, check_s = 0;
  double net_msgs = 0, net_wan_msgs = 0, hist_samples = 0;
  std::size_t high_water = 0;

  const double start = now_s();
  const double cpu0 = cpu_seconds();
  std::uint64_t cells = 0;
  while (cells < kMinCells || now_s() - start < o.seconds) {
    const std::uint64_t seed = o.seed * 1000 + cells + 1;
    ++cells;
    const double t0 = now_s();
    sim::Scenario scenario = sim::make_scenario("hostile5");
    wk::DeploymentConfig cfg;
    cfg.sites = scenario.sites();
    auto d = std::make_unique<wk::LoadedDeployment>(
        seed, cfg, sim::scenario_latency(scenario));
    if (o.trace) d->sim.enable_profiling();
    const bool ready = d->deploy.wait_ready();
    setup_s.push_back(now_s() - t0);
    wk::SweepResult r;
    if (ready) {
      r = wk::run_scenario_sweep_on(*d, scenario);
    } else {
      r.first_violation = "deployment never became ready";
    }
    if (!r.ok()) {
      ++out.failed;
      if (first_failure.empty()) first_failure = describe_failure(seed, r);
    }
    for (const wk::ClientOp& op : d->history.ops()) {
      ++ops;
      if (!op.ok || op.end == 0) {
        ++ops_failed;  // failed, or abandoned by the harness's watchdog
        continue;
      }
      ++ok_ops;
      ++lat_us[op.end - op.start];
      ++(op.kind == wk::ClientOp::Kind::kRead ? read_us
                                              : write_us)[op.end - op.start];
    }
    if (!o.trace) continue;

    const sim::SimProfile& prof = d->sim.profile();
    events += static_cast<double>(prof.events_executed);
    heap_allocs += static_cast<double>(prof.fn_heap_allocs);
    loop_wall_ns += static_cast<double>(prof.wall_ns);
    high_water = std::max(high_water, prof.queue_high_water);
    net_msgs += static_cast<double>(d->net.stats().messages_sent);
    net_wan_msgs += static_cast<double>(d->net.stats().wan_messages);
    const double c0 = now_s();
    wk::ConsistencyChecker::check(d->history);
    check_s += now_s() - c0;
    for (SpanSamples& s : spans) {
      const LatencyRecorder rec = d->sim.obs().tracer.span_latencies(s.kind);
      for (const Time v : rec.samples()) ++s.us[v];
    }
    protocol.merge_from(d->sim.obs().metrics);
    hist_samples += histogram_sample_count(d->sim.obs().metrics);
  }
  const double wall = now_s() - start;
  const double cpu = cpu_seconds() - cpu0;

  out.attempted = cells;
  out.check("sweep_ok", out.failed == 0,
            out.failed == 0 ? std::to_string(cells) + " hostile5 cells ok"
                            : first_failure);
  const auto n = static_cast<double>(cells);
  const auto ops_ok = static_cast<double>(ok_ops);
  // Cell set-up is not bimodal; the median leaves out the first, cold cell.
  out.metrics["setup_s"] = quantile(setup_s, 0.5);
  out.metrics["read_p50_us"] = grouped_quantile(read_us, 0.50);
  out.metrics["write_p50_us"] = grouped_quantile(write_us, 0.50);
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  if (!o.trace) return out;

  out.metrics["op.p50_us"] = grouped_quantile(lat_us, 0.50);
  out.metrics["op.p95_us"] = grouped_quantile(lat_us, 0.95);
  out.metrics["op.p99_us"] = grouped_quantile(lat_us, 0.99);
  out.metrics["cpu_us_per_op"] = ops_ok > 0 ? cpu * 1e6 / ops_ok : 0.0;
  out.metrics["des.cells_per_s"] = n / wall;
  out.metrics["fail_frac"] =
      ops == 0 ? 0.0 : static_cast<double>(ops_failed) / static_cast<double>(ops);
  out.metrics["zk.read_p50_us"] = grouped_quantile(read_us, 0.50);
  out.metrics["zk.write_p50_us"] = grouped_quantile(write_us, 0.50);
  add_protocol_metrics(obs::MetricsRegistry{}, protocol, ops_ok, out);
  out.metrics["obs.hist_samples"] = hist_samples / n;
  out.metrics["sim.events"] = events / n;
  out.metrics["sim.events_per_s"] =
      loop_wall_ns > 0 ? events * 1e9 / loop_wall_ns : 0.0;
  out.metrics["sim.queue_high_water"] = static_cast<double>(high_water);
  out.metrics["sim.fn_heap_allocs"] = heap_allocs / n;
  out.metrics["net.msgs_per_op"] = ops_ok > 0 ? net_msgs / ops_ok : 0.0;
  out.metrics["net.wan_msgs_per_op"] = ops_ok > 0 ? net_wan_msgs / ops_ok : 0.0;
  out.metrics["des.check_s"] = check_s / n;
  for (const SpanSamples& s : spans) {
    out.metrics[s.metric] = grouped_quantile(s.us, s.q) / 1e3;
  }
  return out;
}

}  // namespace perfbench
