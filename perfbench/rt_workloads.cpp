// The two thread-runtime workloads. Both offer the same open-loop load: one
// generator thread draws Poisson arrivals at a fixed total rate and posts
// each op to the zk::Client session of a uniformly chosen site (one session
// per site), 50/50 reads and writes over Zipfian keys. Latency counts from
// the op's intended send time, so a stall also delays the ops queued behind
// it. They differ in placement and keys:
//
//   rt_local       one ThreadRuntime hosts all sites, no sockets; every site
//                  reads and writes its own private keys, whose tokens are
//                  warmed during set-up. The critical path stays inside one
//                  site: loop dispatch, timers, codec, zk, Zab.
//   rt_shared_tcp  one ThreadRuntime per site in this process, joined by
//                  loopback TCP; every site uses the same shared keys, so
//                  writes are forwarded to the hub and tokens are recalled
//                  and granted over real frames.
//
// Neither injects delay, so latency is processor plus scheduling time. The
// modeled CPU costs of rt::ClusterConfig stay at their defaults.
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "rt/cluster.h"
#include "rt/thread_runtime.h"
#include "wankeeper/consistency.h"
#include "zab/messages.h"
#include "zk/client.h"

namespace perfbench {
namespace {

using namespace wankeeper;

constexpr std::size_t kSites = 3;
constexpr std::uint64_t kKeys = 32;  // per key set
// About a fifth of the closed-loop capacity of rt_local (~5.5k ops/s with
// 3 sessions on 4 cores). A session's server runs one request at a time,
// so each session is a single queue. At half the capacity it was about
// half busy on rt_local and more on rt_shared_tcp, its wait magnified
// every slowdown of a shared host, and whole runs fell behind the
// schedule. At this rate the wait stays small next to the service time.
constexpr double kRatePerSec = 1000.0;
constexpr double kWarmupS = 1.0;
constexpr double kWindowS = 1.0;
// Set-up is timed many times per run, boot i on cluster seed
// 1000 * seed + i, and the mean reported. Boot to ready is bimodal: about
// 0.05 s, or about 1 s for roughly 40% of boots on rt_local and 1-3% on
// rt_shared_tcp. The median of a run's set-ups would flip between the modes
// on rt_local; the mean counts slow boots in proportion, so removing the
// stall shows. Its run-to-run spread is that of the number of slow boots,
// so the counts are sized to keep the quartile distance of the mean within
// about 0.2 of its median: binomial at p = 0.4 on rt_local. On
// rt_shared_tcp slow boots are rare and their share rises with the host's
// load, so its spread is wider than any affordable boot count removes.
constexpr int kLocalSetups = 80;
constexpr int kTcpSetups = 256;
constexpr Time kReadyWait = 30 * kSecond;
constexpr std::int64_t kDrainNs = 30'000'000'000;
constexpr std::int64_t kSettleNs = 20'000'000'000;
constexpr auto kProbeEvery = std::chrono::milliseconds(20);
constexpr Time kProbeTimerDelay = 1 * kMillisecond;
constexpr Time kHopEvery = 5 * kMillisecond;
// Explicit ids for the TCP hop pair, clear of the cluster plan and of
// spawn()'s auto ids.
constexpr NodeId kTcpPinger = 1 << 21;
constexpr NodeId kTcpEcho = (1 << 21) + 1;
const std::string kValue(16, 'v');

void sleep_until_ns(std::int64_t t) {
  const std::int64_t d = t - now_ns();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

// OpHistory time: microseconds on the benchmark clock, offset so that no
// completion reads as 0 (the checker's "never finished").
Time history_us(std::int64_t ns) { return kSecond + ns / 1000; }

// The `across` quantile over slices of each non-empty slice's `q` quantile.
double slice_quantile(const std::vector<std::vector<double>>& slices, double q,
                      double across) {
  std::vector<double> per_slice;
  for (const auto& v : slices) {
    if (!v.empty()) per_slice.push_back(quantile(v, q));
  }
  return quantile(per_slice, across);
}

std::string private_key(SiteId s, std::uint64_t j) {
  return "/s" + std::to_string(s) + "-k" + std::to_string(j);
}
std::string shared_key(std::uint64_t j) { return "/shared-k" + std::to_string(j); }

// One op as the generator and the client loop saw it. The generator fills
// the first fields before posting; the client loop fills the rest; the
// main thread reads them only after every runtime has stopped.
struct OpSlot {
  std::int64_t intended_ns = 0;
  std::int64_t issued_ns = 0;
  std::int64_t done_ns = 0;
  bool write = false;
  bool measured = false;  // intended inside the timed window
  bool ok = false;
};

// The op history is appended from every client loop.
class SharedHistory {
 public:
  std::uint64_t begin(SessionId s, SiteId site, wk::ClientOp::Kind kind,
                      const std::string& key, Time start) {
    std::lock_guard<std::mutex> lk(mu_);
    return h_.begin(s, 0, site, kind, key, start);
  }
  void finish(std::uint64_t id, Time end, bool ok, std::int32_t version) {
    std::lock_guard<std::mutex> lk(mu_);
    h_.finish(id, end, ok, version);
  }
  // Only once no client loop runs.
  const wk::OpHistory& quiesced() const { return h_; }

 private:
  std::mutex mu_;
  wk::OpHistory h_;
};

// Samples taken on loop threads by the traced run's probes.
class ProbeLog {
 public:
  void add(std::vector<double>& to, double v) {
    std::lock_guard<std::mutex> lk(mu_);
    to.push_back(v);
  }
  std::vector<double> post_wait_us;
  std::vector<double> timer_late_us;
  std::vector<double> hop_us;
  std::vector<double> tcp_hop_us;

 private:
  std::mutex mu_;
};

// Round trip between two actors: the pinger sends a zab::PingMsg carrying a
// sequence number every kHopEvery, the echo sends it straight back.
class HopProbe final : public sim::Actor {
 public:
  HopProbe(rt::Runtime& rt, std::string name, NodeId target, ProbeLog* log,
           std::vector<double>* samples)
      : Actor(rt, std::move(name)), target_(target), log_(log),
        samples_(samples) {}

  void start() override {
    if (target_ != kNoNode) set_timer(kHopEvery, [this] { ping(); });
  }

  void on_message(NodeId from, const sim::MessagePtr& msg) override {
    const auto* p = sim::msg_cast<zab::PingMsg>(msg.get());
    if (p == nullptr) return;
    if (target_ == kNoNode) {
      auto back = sim::make_mutable_message<zab::PingMsg>();
      back->commit_up_to = p->commit_up_to;
      rt().send(id(), from, back);
    } else if (p->commit_up_to == seq_) {
      log_->add(*samples_, static_cast<double>(now_ns() - sent_ns_) / 1e3);
    }
  }

 private:
  void ping() {
    ++seq_;
    sent_ns_ = now_ns();
    auto m = sim::make_mutable_message<zab::PingMsg>();
    m->commit_up_to = seq_;
    rt().send(id(), target_, m);
    set_timer(kHopEvery, [this] { ping(); });
  }

  const NodeId target_;  // kNoNode: echo
  ProbeLog* const log_;
  std::vector<double>* const samples_;
  Zxid seq_ = 0;
  std::int64_t sent_ns_ = 0;
};

bool ports_free(std::uint16_t base, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(base + i));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const bool ok =
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    ::close(fd);
    if (!ok) return false;
  }
  return true;
}

// Listen ports for one deployment: a random base below the kernel's
// ephemeral range (so no outgoing connection holds them), salted with the
// pid and the clock so concurrent runs of the same seed pick different
// ranges, and probed before use. A range taken between the probe and the
// bind makes HostedCluster throw; the caller then retries on a new range.
std::uint16_t pick_base_port(std::uint64_t seed) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(::getpid()) << 32) ^
          static_cast<std::uint64_t>(now_ns()));
  for (int i = 0; i < 64; ++i) {
    const auto base = static_cast<std::uint16_t>(10000 + rng.uniform(20000));
    if (ports_free(base, kSites)) return base;
  }
  throw std::runtime_error("no free loopback port range");
}

struct ClientRef {
  rt::ThreadRuntime* rt = nullptr;
  zk::Client* client = nullptr;
  SiteId site = kNoSite;
};

// The sites of one workload on one or three ThreadRuntimes, plus the hop
// probes of a traced run. Stopping every runtime before any member is
// destroyed keeps loop threads off the actors and the history.
class RtDeployment {
 public:
  RtDeployment(bool tcp, std::uint64_t seed, bool traced) {
    for (int attempt = 0;; ++attempt) {
      try {
        build(tcp, seed, traced);
        return;
      } catch (const std::runtime_error&) {
        parts_.clear();
        clients_.clear();
        if (attempt >= 4) throw;
      }
    }
  }
  ~RtDeployment() { stop(); }

  RtDeployment(const RtDeployment&) = delete;
  RtDeployment& operator=(const RtDeployment&) = delete;

  void stop() {
    for (auto& p : parts_) p.rt->stop();
  }

  bool start() {
    for (auto& p : parts_) p.cluster->start();
    for (auto& p : parts_) {
      if (!p.cluster->wait_ready(kReadyWait)) return false;
    }
    return true;
  }

  // One session per site, indexed by site.
  const std::vector<ClientRef>& clients() const { return clients_; }
  SharedHistory& history() { return history_; }
  ProbeLog& probes() { return probes_; }

  // Every server node, with the runtime hosting it.
  std::vector<std::pair<rt::ThreadRuntime*, NodeId>> servers() {
    std::vector<std::pair<rt::ThreadRuntime*, NodeId>> out;
    for (auto& p : parts_) {
      const auto& plan = p.cluster->plan();
      for (const SiteId s : p.cluster->local_sites()) {
        for (std::size_t i = 0; i < plan.nodes; ++i) {
          out.emplace_back(p.rt.get(), plan.server_id(s, i));
        }
      }
    }
    return out;
  }

  // Every replica of every site holds the same tree.
  bool converged() {
    std::uint64_t digest = 0;
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      auto& c = *parts_[i].cluster;
      if (!c.converged_locally()) return false;
      const std::uint64_t d = c.tree_digest(c.local_sites().front());
      if (d == 0 || (i > 0 && d != digest)) return false;
      digest = d;
    }
    return true;
  }

  void collect_metrics(obs::MetricsRegistry& into) {
    for (auto& p : parts_) p.rt->collect_metrics(into);
  }

  std::uint64_t frames_dropped() const {
    std::uint64_t n = 0;
    for (const auto& p : parts_) n += p.rt->frames_dropped();
    return n;
  }

 private:
  struct Part {
    std::unique_ptr<rt::ThreadRuntime> rt;
    std::vector<std::unique_ptr<HopProbe>> hops;
    std::unique_ptr<rt::HostedCluster> cluster;
  };

  void build(bool tcp, std::uint64_t seed, bool traced) {
    rt::ClusterConfig cfg;
    cfg.sites = kSites;
    cfg.clients_per_site = 1;
    cfg.seed = seed;
    cfg.base_port = tcp ? pick_base_port(seed) : 0;
    const std::size_t n_parts = tcp ? kSites : 1;
    for (std::size_t i = 0; i < n_parts; ++i) {
      Part p;
      p.rt = std::make_unique<rt::ThreadRuntime>(seed + i);
      std::vector<SiteId> local;
      if (tcp) local.push_back(static_cast<SiteId>(i));
      p.cluster = std::make_unique<rt::HostedCluster>(*p.rt, cfg, local);
      parts_.push_back(std::move(p));
    }
    if (traced) add_hop_probes(tcp);
    for (auto& p : parts_) {
      for (std::size_t i = 0; i < p.cluster->local_client_count(); ++i) {
        clients_.push_back(ClientRef{p.rt.get(), &p.cluster->client(i),
                                     p.cluster->client_site(i)});
      }
    }
  }

  void add_hop_probes(bool tcp) {
    Part& home = parts_.front();
    auto echo = std::make_unique<HopProbe>(*home.rt, "hop-echo", kNoNode,
                                           &probes_, nullptr);
    const NodeId echo_id = home.rt->spawn(*echo, 0);
    auto pinger = std::make_unique<HopProbe>(*home.rt, "hop-pinger", echo_id,
                                             &probes_, &probes_.hop_us);
    home.rt->spawn(*pinger, 0);
    home.hops.push_back(std::move(echo));
    home.hops.push_back(std::move(pinger));
    if (!tcp) return;
    // The same pair across two runtimes: site 0's process to site 1's.
    Part& far = parts_[1];
    auto tcp_echo = std::make_unique<HopProbe>(*far.rt, "tcp-echo", kNoNode,
                                               &probes_, nullptr);
    far.rt->add_actor(*tcp_echo, kTcpEcho, 1, far.rt->add_loop());
    far.rt->add_remote(kTcpPinger, 0);
    auto tcp_pinger = std::make_unique<HopProbe>(
        *home.rt, "tcp-pinger", kTcpEcho, &probes_, &probes_.tcp_hop_us);
    home.rt->add_actor(*tcp_pinger, kTcpPinger, 0, home.rt->add_loop());
    home.rt->add_remote(kTcpEcho, 1);
    far.hops.push_back(std::move(tcp_echo));
    home.hops.push_back(std::move(tcp_pinger));
  }

  SharedHistory history_;
  ProbeLog probes_;
  std::vector<Part> parts_;
  std::vector<ClientRef> clients_;
};

// Issues one op on the client's loop (call it from there): records it in
// the history and, when given, in `slot`, then calls done(ok).
void issue(const ClientRef& c, SharedHistory& h, const std::string& key,
           bool write, OpSlot* slot, std::function<void(bool)> done) {
  const std::int64_t start = now_ns();
  if (slot != nullptr) slot->issued_ns = start;
  const std::uint64_t hid = h.begin(
      c.client->session(), c.site,
      write ? wk::ClientOp::Kind::kWrite : wk::ClientOp::Kind::kRead, key,
      history_us(start));
  auto cb = [&h, hid, slot, done = std::move(done)](const zk::ClientResult& r) {
    const std::int64_t end = now_ns();
    if (slot != nullptr) {
      slot->done_ns = end;
      slot->ok = r.ok();
    }
    h.finish(hid, history_us(end), r.ok(), r.stat.version);
    done(r.ok());
  };
  if (write) {
    c.client->set_data(key, kValue, -1, std::move(cb));
  } else {
    c.client->get_data(key, false, std::move(cb));
  }
}

// Creates the keys and, on rt_local, writes each private key twice from its
// site so the consecutive:2 policy has migrated its token before timing.
bool preload(RtDeployment& d, bool shared_keys) {
  std::atomic<long> pending{0};
  std::atomic<bool> all_ok{true};
  auto done = [&](bool ok) {
    if (!ok) all_ok = false;
    --pending;
  };
  for (const ClientRef& c : d.clients()) {
    if (shared_keys && c.site != 0) continue;
    pending += static_cast<long>(kKeys * (shared_keys ? 1 : 3));
    c.rt->post(c.client->id(), [&d, &done, c, shared_keys] {
      for (std::uint64_t j = 0; j < kKeys; ++j) {
        const std::string key =
            shared_keys ? shared_key(j) : private_key(c.site, j);
        c.client->create(key, kValue, false, false,
                         [&done](const zk::ClientResult& r) { done(r.ok()); });
        if (shared_keys) continue;
        issue(c, d.history(), key, true, nullptr, done);
        issue(c, d.history(), key, true, nullptr, done);
      }
    });
  }
  const std::int64_t deadline = now_ns() + kDrainNs;
  while (pending.load() > 0 && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (pending.load() > 0) d.stop();  // late callbacks must not outlive `done`
  return pending.load() == 0 && all_ok.load();
}

// Open-loop generator: Poisson arrivals at kRatePerSec from t0 until
// `end`; ops intended in [win_start, end) are the measured ones.
struct Generator {
  RtDeployment* d = nullptr;
  bool shared_keys = false;
  std::uint64_t seed = 1;
  std::int64_t t0 = 0;
  std::int64_t win_start = 0;
  std::int64_t end = 0;
  std::vector<OpSlot> slots;  // sized up front; never reallocated
  std::size_t issued = 0;
  std::vector<double> late_us;
  std::atomic<std::size_t> completed{0};

  void run() {
    Rng rng(seed);
    Zipfian zipf(kKeys);
    double t = static_cast<double>(t0);
    for (;;) {
      t += -std::log(1.0 - rng.real()) * 1e9 / kRatePerSec;
      const auto due = static_cast<std::int64_t>(t);
      if (due >= end || issued == slots.size()) break;
      const SiteId site = static_cast<SiteId>(rng.uniform(kSites));
      const std::uint64_t j = zipf.next(rng);
      const bool write = rng.chance(0.5);
      sleep_until_ns(due);
      OpSlot* slot = &slots[issued++];
      slot->intended_ns = due;
      slot->write = write;
      slot->measured = due >= win_start;
      if (slot->measured) {
        late_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
      }
      const ClientRef c = d->clients()[static_cast<std::size_t>(site)];
      const std::string key = shared_keys ? shared_key(j) : private_key(site, j);
      c.rt->post(c.client->id(), [this, c, key, write, slot] {
        issue(c, d->history(), key, write, slot,
              [this](bool) { completed.fetch_add(1); });
      });
    }
  }
};

// Posts a timestamped no-op to every server loop and arms a timer on every
// server home, every kProbeEvery, until `stop`.
void probe_loops(RtDeployment& d, const std::atomic<bool>& stop) {
  ProbeLog& log = d.probes();
  const auto servers = d.servers();
  while (!stop.load()) {
    for (const auto& [rt, node] : servers) {
      const std::int64_t t = now_ns();
      rt->post(node, [t, &log] {
        log.add(log.post_wait_us, static_cast<double>(now_ns() - t) / 1e3);
      });
      const std::int64_t due = t + kProbeTimerDelay * 1000;
      rt->schedule(node, kProbeTimerDelay, [due, &log] {
        log.add(log.timer_late_us, static_cast<double>(now_ns() - due) / 1e3);
      });
    }
    std::this_thread::sleep_for(kProbeEvery);
  }
}

Outcome run_rt(const Options& o, bool tcp) {
  Outcome out;

  // Set-up: boot to ready plus preload, n_setups times; the last one serves.
  const int n_setups = tcp ? kTcpSetups : kLocalSetups;
  std::unique_ptr<RtDeployment> d;
  std::vector<double> setup_s;
  for (int i = 0; i < n_setups; ++i) {
    d.reset();
    const double t0 = now_s();
    d = std::make_unique<RtDeployment>(tcp, o.seed * 1000 + i, o.trace);
    const bool ready = d->start() && preload(*d, tcp);
    setup_s.push_back(now_s() - t0);
    if (!ready) {
      out.check("setup", false, "deployment not ready or preload failed");
      return out;
    }
  }
  out.check("setup", true, std::to_string(n_setups) + " deployments ready");
  out.metrics["setup_s"] = mean(setup_s);

  Generator gen;
  gen.d = d.get();
  gen.shared_keys = tcp;
  gen.seed = o.seed;
  gen.t0 = now_ns() + 5'000'000;
  gen.win_start = gen.t0 + static_cast<std::int64_t>(kWarmupS * 1e9);
  gen.end = gen.win_start + static_cast<std::int64_t>(o.seconds * 1e9);
  gen.slots.resize(static_cast<std::size_t>(
      (kWarmupS + o.seconds) * kRatePerSec * 1.5 + 1000));
  gen.late_us.reserve(gen.slots.size());

  // The window is cut into kWindowS slices and the latency figures are
  // taken per slice, so one scheduling hiccup moves one slice only.
  const auto n_windows = static_cast<std::size_t>(
      std::max(1.0, std::round(o.seconds / kWindowS)));
  const std::int64_t window_ns =
      (gen.end - gen.win_start) / static_cast<std::int64_t>(n_windows);
  std::vector<double> cpu_at;  // process CPU seconds at each slice boundary

  obs::MetricsRegistry before;
  obs::MetricsRegistry after;
  std::atomic<bool> stop_probes{false};
  std::thread generator([&gen] { gen.run(); });
  std::thread prober;
  for (std::size_t w = 0; w <= n_windows; ++w) {
    sleep_until_ns(gen.win_start + static_cast<std::int64_t>(w) * window_ns);
    cpu_at.push_back(cpu_seconds());
    if (w == 0 && o.trace) {
      d->collect_metrics(before);
      prober = std::thread([&] { probe_loops(*d, stop_probes); });
    }
  }
  generator.join();
  stop_probes = true;
  if (prober.joinable()) prober.join();

  const std::int64_t drain_deadline = now_ns() + kDrainNs;
  while (gen.completed.load() < gen.issued && now_ns() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (o.trace) d->collect_metrics(after);
  bool converged = false;
  const std::int64_t settle_deadline = now_ns() + kSettleNs;
  while (!(converged = d->converged()) && now_ns() < settle_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const std::uint64_t dropped = d->frames_dropped();
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  d->stop();  // every loop joined: slots, history and probes are final

  std::vector<double> lat_us;
  std::vector<double> read_us;  // issue to reply
  std::vector<double> write_us;
  // Per slice, from the intended send: every op, reads, writes.
  std::vector<std::vector<double>> window_lat_us(n_windows);
  std::vector<std::vector<double>> window_read_us(n_windows);
  std::vector<std::vector<double>> window_write_us(n_windows);
  std::size_t measured = 0;
  for (std::size_t i = 0; i < gen.issued; ++i) {
    const OpSlot& s = gen.slots[i];
    if (!s.ok) ++out.failed;
    if (!s.measured) continue;
    ++measured;
    if (!s.ok) continue;
    const double us = static_cast<double>(s.done_ns - s.intended_ns) / 1e3;
    lat_us.push_back(us);
    const auto w = std::min(
        static_cast<std::size_t>((s.intended_ns - gen.win_start) / window_ns),
        n_windows - 1);
    window_lat_us[w].push_back(us);
    (s.write ? window_write_us : window_read_us)[w].push_back(us);
    (s.write ? write_us : read_us)
        .push_back(static_cast<double>(s.done_ns - s.issued_ns) / 1e3);
  }
  out.attempted = gen.issued;
  out.check("ops_completed", out.failed == 0,
            std::to_string(gen.issued - out.failed) + " of " +
                std::to_string(gen.issued) + " ops ok");
  const auto violations =
      wk::ConsistencyChecker::check(d->history().quiesced());
  out.check("consistency", violations.empty(),
            violations.empty()
                ? std::to_string(d->history().quiesced().ops().size()) +
                      " ops linearizable per key"
                : violations.front().format());
  out.check("converged", converged, "replica tree digests");
  out.check("frames_dropped", dropped == 0,
            std::to_string(dropped) + " dropped");

  // Per op kind, the first quartile over slices of each slice's median. On
  // a shared host a stretch of stolen CPU time lifts the slices it covers,
  // and up to three quarters of the window can be hit before the figure
  // moves; a slower program lifts every slice, so it still shows. The kinds
  // are kept apart because they barely overlap: a read waits out one
  // modeled-CPU timer, a write also a forward to the site leader, a second
  // timer and a Zab round. The median of the 50/50 mix falls in the gap
  // between them and jumps with each slice's read share.
  out.metrics["read_p50_us"] = slice_quantile(window_read_us, 0.50, 0.25);
  out.metrics["write_p50_us"] = slice_quantile(window_write_us, 0.50, 0.25);
  if (!o.trace) return out;

  std::vector<double> cpu_per_op;
  for (std::size_t w = 0; w < n_windows; ++w) {
    if (window_lat_us[w].empty()) continue;
    cpu_per_op.push_back((cpu_at[w + 1] - cpu_at[w]) * 1e6 /
                         static_cast<double>(window_lat_us[w].size()));
  }
  out.metrics["cpu_us_per_op"] = quantile(cpu_per_op, 0.5);
  out.metrics["op.p50_us"] = slice_quantile(window_lat_us, 0.50, 0.25);
  out.metrics["op.p95_us"] = slice_quantile(window_lat_us, 0.95, 0.50);
  out.metrics["op.p99_us"] = quantile(lat_us, 0.99);
  out.metrics["fail_frac"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  out.metrics["gen.late_us.p99"] = quantile(gen.late_us, 0.99);
  out.metrics["gen.late_us.max"] = quantile(gen.late_us, 1.0);
  const ProbeLog& log = d->probes();
  out.metrics["rt.post_wait_us.p50"] = quantile(log.post_wait_us, 0.50);
  out.metrics["rt.post_wait_us.p99"] = quantile(log.post_wait_us, 0.99);
  out.metrics["rt.timer_late_us.p50"] = quantile(log.timer_late_us, 0.50);
  out.metrics["rt.timer_late_us.p99"] = quantile(log.timer_late_us, 0.99);
  out.metrics["rt.hop_us.p50"] = quantile(log.hop_us, 0.50);
  out.metrics["rt.tcp_hop_us.p50"] = quantile(log.tcp_hop_us, 0.50);
  out.metrics["zk.read_p50_us"] = quantile(read_us, 0.50);
  out.metrics["zk.write_p50_us"] = quantile(write_us, 0.50);
  add_protocol_metrics(before, after, static_cast<double>(measured), out);
  out.metrics["obs.hist_samples"] = histogram_sample_count(after);
  d.reset();
  run_codec_probe(out);
  return out;
}

}  // namespace

Outcome run_rt_local(const Options& o) { return run_rt(o, false); }
Outcome run_rt_shared_tcp(const Options& o) { return run_rt(o, true); }

}  // namespace perfbench
