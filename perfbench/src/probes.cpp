#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/algorithm.hpp"
#include "core/messages.hpp"
#include "exec/executor.hpp"
#include "exec/strand.hpp"
#include "net/wire_format.hpp"
#include "service/threaded_lock_space.hpp"
#include "transport/codec.hpp"

namespace perfbench {

namespace {

using namespace std::chrono_literals;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// Keeps a result observable so the timed call cannot be dropped.
std::atomic<std::uint64_t> g_sink{0};

}  // namespace

CodecTimes probe_codec() {
  using dmx::transport::Codec;
  constexpr int kBatches = 41;
  constexpr int kPerBatch = 2000;
  const dmx::core::RequestMessage request(/*hop=*/1, /*origin=*/2);
  const dmx::core::PrivilegeMessage privilege;
  const dmx::net::Message* messages[2] = {&request, &privilege};

  std::string out;
  out.reserve(64);
  std::vector<double> encode;
  for (int b = 0; b < kBatches; ++b) {
    std::uint64_t bytes = 0;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kPerBatch; ++i) {
      out.clear();
      Codec::encode_frame(out, /*epoch=*/static_cast<dmx::Epoch>(b),
                          /*resource=*/i & 63, /*from=*/1, /*to=*/2,
                          *messages[i & 1]);
      bytes += out.size();
    }
    encode.push_back(static_cast<double>(now_ns() - t0) / kPerBatch);
    g_sink.fetch_add(bytes, std::memory_order_relaxed);
  }

  std::string frames[2];
  for (int k = 0; k < 2; ++k) {
    Codec::encode_frame(frames[k], 3, 7, 1, 2, *messages[k]);
  }
  std::vector<double> decode;
  for (int b = 0; b < kBatches; ++b) {
    std::uint64_t seen = 0;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kPerBatch; ++i) {
      dmx::net::WireReader reader(std::string_view(frames[i & 1]).substr(4));
      const dmx::transport::FrameHeader header = Codec::decode_header(reader);
      const dmx::net::MessagePtr message =
          Codec::decode(header.wire_id, reader);
      seen += static_cast<std::uint64_t>(header.resource) +
              message->payload_bytes();
    }
    decode.push_back(static_cast<double>(now_ns() - t0) / kPerBatch);
    g_sink.fetch_add(seen, std::memory_order_relaxed);
  }
  return {median(encode), median(decode)};
}

namespace {

/// Strand::post to task start, `samples` times, sleeping `gap` between
/// posts. The prober blocks on an atomic wait, never spins.
Histogram post_to_run(int spin, int samples, std::chrono::microseconds gap) {
  dmx::exec::Executor executor({.workers = 1, .spin = spin});
  dmx::exec::Strand strand(executor);
  Histogram hist;
  std::atomic<std::uint64_t> ran_at{0};
  for (int i = 0; i < samples; ++i) {
    if (gap.count() > 0) std::this_thread::sleep_for(gap);
    ran_at.store(0);
    const std::uint64_t posted = now_ns();
    strand.post([&ran_at] {
      ran_at.store(now_ns());
      ran_at.notify_one();
    });
    ran_at.wait(0);
    hist.record(ran_at.load() - posted);
  }
  executor.shutdown();
  return hist;
}

}  // namespace

StrandTimes probe_strand() {
  StrandTimes times;
  // Spin budget large enough that the worker never parks mid-probe.
  times.hot_post_to_run_ns =
      post_to_run(/*spin=*/1 << 30, /*samples=*/4000, 0us).quantile(0.5);
  // Default spin with a 2 ms idle gap: the worker has parked every time.
  times.park_post_to_run_ns =
      post_to_run(/*spin=*/64, /*samples=*/150, 2000us).quantile(0.5);
  return times;
}

double probe_uncontended_gate(std::uint64_t seed) {
  dmx::service::ThreadedLockSpaceConfig config;
  config.n = 8;
  config.algorithm = dmx::core::make_neilsen_algorithm();
  config.resources = {"gate-probe-" + std::to_string(seed)};
  config.workers = 1;
  dmx::service::ThreadedLockSpace space(std::move(config));
  const dmx::NodeId home = space.home_node(0);
  constexpr int kBatches = 21;
  constexpr int kPerBatch = 500;
  std::vector<double> per_pair;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kPerBatch; ++i) {
      space.lock(0, home);
      space.unlock(0, home);
    }
    per_pair.push_back(static_cast<double>(now_ns() - t0) / kPerBatch);
  }
  return median(per_pair);
}

FaultTimes probe_fault(std::uint64_t seed) {
  constexpr int kResources = 16;
  constexpr int kCycles = 25;
  constexpr dmx::NodeId kVictim = 5;
  dmx::service::ThreadedLockSpaceConfig config;
  config.n = 5;
  config.algorithm = dmx::core::make_neilsen_algorithm();
  for (int r = 0; r < kResources; ++r) {
    config.resources.push_back("fault-probe-" + std::to_string(seed) + "-" +
                               std::to_string(r));
  }
  config.workers = 1;
  dmx::service::ThreadedLockSpace space(std::move(config));
  const auto grant_all = [&space] {
    for (dmx::ResourceId r = 0; r < kResources; ++r) {
      space.lock(r, 1);
      space.unlock(r, 1);
    }
  };
  grant_all();
  const dmx::telemetry::MetricsSnapshot before =
      dmx::telemetry::Registry::global().snapshot();
  Histogram crash_call, recover_call;
  for (int c = 0; c < kCycles; ++c) {
    std::uint64_t t0 = now_ns();
    space.crash(kVictim);
    crash_call.record(now_ns() - t0);
    grant_all();
    t0 = now_ns();
    space.recover(kVictim);
    recover_call.record(now_ns() - t0);
    grant_all();
  }
  const dmx::telemetry::MetricsSnapshot after =
      dmx::telemetry::Registry::global().snapshot();
  if (space.first_error()) {
    std::fprintf(stderr, "fault probe: %s\n", space.first_error()->c_str());
  }
  return {crash_call.quantile(0.5), recover_call.quantile(0.5),
          repair_p50_ns(before, after)};
}

double repair_p50_ns(const dmx::telemetry::MetricsSnapshot& before,
                     const dmx::telemetry::MetricsSnapshot& after) {
  const dmx::telemetry::HistogramSnapshot* a =
      after.histogram("fault.repair_ns");
  if (a == nullptr) return 0.0;
  const dmx::telemetry::HistogramSnapshot* b =
      before.histogram("fault.repair_ns");
  std::vector<double> delta(dmx::telemetry::kHistogramBuckets, 0.0);
  double total = 0.0;
  for (int i = 0; i < dmx::telemetry::kHistogramBuckets; ++i) {
    const auto k = static_cast<std::size_t>(i);
    delta[k] = static_cast<double>(a->buckets[k] -
                                   (b != nullptr ? b->buckets[k] : 0));
    total += delta[k];
  }
  if (total == 0.0) return 0.0;
  // Bucket i holds values of bit width i: [2^(i-1), 2^i).
  const double rank = total / 2.0;
  double seen = 0.0;
  for (int i = 0; i < dmx::telemetry::kHistogramBuckets; ++i) {
    const double c = delta[static_cast<std::size_t>(i)];
    if (c > 0.0 && seen + c >= rank) {
      if (i == 0) return 0.0;
      const double lower = std::ldexp(1.0, i - 1);
      return lower + lower * (rank - seen) / c;
    }
    seen += c;
  }
  return 0.0;
}

}  // namespace perfbench
