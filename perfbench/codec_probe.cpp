// Codec layer probe: the per-message cost of rt::encode_message and
// rt::decode_message over a fixed set of the messages on a write's critical
// path — client request and reply, the Zab propose/ack/commit round, and a
// WAN envelope carrying ReplicateUp. Timed in batches on the calling thread,
// after the load has stopped, so it measures the codec alone.
#include <cstdint>
#include <vector>

#include "bench.h"
#include "rt/codec.h"
#include "wankeeper/messages.h"
#include "zab/messages.h"
#include "zk/messages.h"
#include "zk/server.h"

namespace perfbench {
namespace {

using namespace wankeeper;

constexpr int kRounds = 15;
constexpr int kItersPerRound = 1500;

store::Txn sample_txn() {
  store::Txn txn;
  txn.type = store::TxnType::kSetData;
  txn.zxid = make_zxid(3, 1041);
  txn.path = "/s1-k17";
  txn.data.assign(16, 0x5a);
  txn.version = 42;
  txn.session = 10001;
  txn.origin_site = 1;
  txn.origin_zxid = make_zxid(3, 1041);
  return txn;
}

std::vector<sim::MessagePtr> message_set() {
  std::vector<sim::MessagePtr> set;

  auto req = sim::make_mutable_message<zk::ClientRequest>();
  req->session = 10001;
  req->xid = 977;
  req->op.op = zk::OpCode::kSetData;
  req->op.path = "/s1-k17";
  req->op.data.assign(16, 0x5a);
  req->trace = 123456;
  set.push_back(req);

  auto reply = sim::make_mutable_message<zk::ClientReply>();
  reply->session = 10001;
  reply->xid = 977;
  reply->op = zk::OpCode::kSetData;
  reply->stat.version = 42;
  reply->stat.mzxid = make_zxid(3, 1041);
  reply->zxid = make_zxid(3, 1041);
  set.push_back(reply);

  zk::Envelope env;
  env.session = 10001;
  env.xid = 977;
  env.trace = 123456;
  env.txn = sample_txn();

  auto propose = sim::make_mutable_message<zab::ProposeMsg>();
  propose->epoch = 3;
  propose->entries.push_back(zab::LogEntry{env.txn.zxid, env.encode()});
  set.push_back(propose);

  auto ack = sim::make_mutable_message<zab::AckMsg>();
  ack->epoch = 3;
  ack->zxid = env.txn.zxid;
  set.push_back(ack);

  auto commit = sim::make_mutable_message<zab::CommitMsg>();
  commit->epoch = 3;
  commit->zxid = env.txn.zxid;
  set.push_back(commit);

  auto up = sim::make_mutable_message<wk::ReplicateUpMsg>();
  up->envelope = env;
  auto wan = sim::make_mutable_message<wk::WanEnvelopeMsg>();
  wan->from_site = 1;
  wan->from_node = 11;
  wan->stream_epoch = 3;
  wan->stream_gen = 1;
  wan->seq = 5012;
  wan->inners.push_back(up);
  set.push_back(wan);
  return set;
}

}  // namespace

void run_codec_probe(Outcome& out) {
  const std::vector<sim::MessagePtr> set = message_set();
  std::vector<std::vector<std::uint8_t>> encoded(set.size());
  std::vector<double> enc_ns;
  std::vector<double> dec_ns;
  const double per_round = static_cast<double>(kItersPerRound) *
                           static_cast<double>(set.size());
  bool roundtrip_ok = true;
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kItersPerRound; ++i) {
      for (std::size_t m = 0; m < set.size(); ++m) {
        encoded[m] = rt::encode_message(*set[m]);
      }
    }
    const std::int64_t t1 = now_ns();
    std::size_t decoded = 0;
    for (int i = 0; i < kItersPerRound; ++i) {
      for (const auto& bytes : encoded) {
        decoded += rt::decode_message(bytes) != nullptr ? 1 : 0;
      }
    }
    const std::int64_t t2 = now_ns();
    roundtrip_ok = roundtrip_ok &&
                   decoded == static_cast<std::size_t>(per_round);
    enc_ns.push_back(static_cast<double>(t1 - t0) / per_round);
    dec_ns.push_back(static_cast<double>(t2 - t1) / per_round);
  }

  double bytes = 0.0;
  for (std::size_t m = 0; m < set.size(); ++m) {
    bytes += static_cast<double>(encoded[m].size());
    // Decoding and re-encoding must reproduce the bytes exactly.
    roundtrip_ok = roundtrip_ok &&
                   rt::encode_message(*rt::decode_message(encoded[m])) ==
                       encoded[m];
  }
  out.check("codec_roundtrip", roundtrip_ok,
            std::to_string(set.size()) + " message types");
  out.metrics["codec.encode_ns"] = quantile(enc_ns, 0.5);
  out.metrics["codec.decode_ns"] = quantile(dec_ns, 0.5);
  out.metrics["codec.bytes"] = bytes;
}

}  // namespace perfbench
