// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--revision <id>] [--skip-lock-every <k>]
//
// --trace 0 prints the end-to-end metrics of one measured phase; --trace 1
// runs an untraced and a traced phase back to back plus the isolated
// layer probes, and prints the per-layer metrics. The last stdout line is
// the result object {"correct","attempted","failed","metrics"}; the line
// before it records what was measured (machine, build, workload, seed,
// sample counts, gate tallies). See README.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "probes.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

/// Set-ups per run; the reported set-up time is their median.
constexpr int kSetups = 41;
/// Unmeasured lead-in so lazy initialisation and caches settle.
constexpr double kWarmupSeconds = 1.0;
/// Length of the TCP hand-off probe on the threaded workloads.
constexpr double kWireProbeSeconds = 1.0;

/// One entry of the result line's "metrics" object, in print order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string revision = "unknown";
  int skip_lock_every = 0;
};

bool parse(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (key == "--revision") {
      args.revision = value;
    } else if (key == "--skip-lock-every") {
      args.skip_lock_every = std::atoi(value.c_str());
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1 && args.seconds > 0.0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double ratio(std::uint64_t num, std::uint64_t den, double scale = 1.0) {
  return den == 0 ? 0.0
                  : scale * static_cast<double>(num) / static_cast<double>(den);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Correctness gates, tallied over every phase of the run.
struct Gates {
  std::uint64_t witness_violations = 0;
  std::uint64_t entry_mismatches = 0;
  std::uint64_t missed_grant_deadlines = 0;
  std::string first_error;

  bool ok() const {
    return witness_violations == 0 && entry_mismatches == 0 &&
           missed_grant_deadlines == 0 && first_error.empty();
  }
  void check(const Workload& workload, const PhaseResult& phase) {
    witness_violations += phase.clients.violations;
    if (phase.clients.entries != phase.after.entries - phase.before.entries) {
      ++entry_mismatches;
    }
    missed_grant_deadlines += phase.fault.missed_deadlines;
    check_errors(workload);
  }
  void check_errors(const Workload& workload) {
    if (first_error.empty()) first_error = workload.first_errors();
  }
};

/// Per-layer counters of one phase (deltas), keyed by entries.
void add_counter_metrics(const PhaseResult& p, Metrics& m) {
  const Counters& a = p.after;
  const Counters& b = p.before;
  const std::uint64_t entries = a.entries - b.entries;
  m.push_back({"service.chained_frac", ratio(a.chained - b.chained, entries),
               "ratio"});
  m.push_back({"service.lease_yields_per_kentry",
               ratio(a.lease_yields - b.lease_yields, entries, 1000.0),
               "1/kentry"});
  m.push_back({"exec.tasks_per_entry", ratio(a.tasks - b.tasks, entries),
               "1/entry"});
  m.push_back({"exec.activations_per_entry",
               ratio(a.activations - b.activations, entries), "1/entry"});
  m.push_back({"exec.parks_per_kentry",
               ratio(a.parks - b.parks, entries, 1000.0), "1/kentry"});
  m.push_back({"exec.steals_per_kentry",
               ratio(a.steals - b.steals, entries, 1000.0), "1/kentry"});
  m.push_back({"proto.msgs_per_entry",
               ratio(a.messages - b.messages, entries), "1/entry"});
}

/// Wire counters and hand-off stages of a phase on the TCP substrate.
void add_wire_metrics(const PhaseResult& p, const Tracer& tracer,
                      Metrics& m) {
  const Counters& a = p.after;
  const Counters& b = p.before;
  const std::uint64_t frames = a.frames_sent - b.frames_sent;
  const std::uint64_t received = a.frames_received - b.frames_received;
  m.push_back({"transport.bytes_per_frame",
               ratio(a.bytes_sent - b.bytes_sent, frames), "B/frame"});
  m.push_back({"transport.wakeups_per_frame",
               ratio(a.epoll_wakeups - b.epoll_wakeups, received),
               "1/frame"});
  m.push_back({"transport.partial_frames_per_kframe",
               ratio(a.partial_frames - b.partial_frames, received, 1000.0),
               "1/kframe"});
  m.push_back({"transport.release_to_send_p50_us",
               tracer.stage(kReleaseToSend).quantile(0.5) / 1e3, "us"});
  m.push_back({"transport.send_to_recv_p50_us",
               tracer.stage(kSendToRecv).quantile(0.5) / 1e3, "us"});
  m.push_back({"transport.recv_to_grant_p50_us",
               tracer.stage(kRecvToGrant).quantile(0.5) / 1e3, "us"});
}

void print_result(const Args& args, bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const Metrics& metrics,
                  const Gates& gates, const PhaseResult& phase,
                  int setups) {
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
      "\"trace\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"revision\": \"%s\", \"setups\": %d, \"entries\": %llu, "
      "\"latency_samples\": %llu, \"handoff_samples\": %llu, "
      "\"outage_samples\": %llu, "
      "\"fault_cycles\": %llu, \"gates\": {\"witness_violations\": %llu, "
      "\"entry_mismatches\": %llu, \"missed_grant_deadlines\": %llu, "
      "\"first_error\": \"%s\"}}}\n",
      json_escape(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, json_escape(args.revision).c_str(), setups,
      static_cast<unsigned long long>(phase.clients.entries),
      static_cast<unsigned long long>(phase.clients.latency.count()),
      static_cast<unsigned long long>(phase.clients.handoff.count()),
      static_cast<unsigned long long>(phase.clients.outage.count()),
      static_cast<unsigned long long>(phase.fault.cycles),
      static_cast<unsigned long long>(gates.witness_violations),
      static_cast<unsigned long long>(gates.entry_mismatches),
      static_cast<unsigned long long>(gates.missed_grant_deadlines),
      json_escape(gates.first_error).c_str());
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = Workload::make(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  workload->set_skip_lock_every(args.skip_lock_every);
  // Everything a phase records into is allocated before the first set-up.
  Tracer tracer(workload->span_rings(), workload->wire(),
                workload->resources());

  std::vector<double> setup_seconds;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) workload->teardown();
    const auto t0 = std::chrono::steady_clock::now();
    workload->setup();
    setup_seconds.push_back(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
  }

  Gates gates;
  gates.check_errors(*workload);
  gates.check(*workload, workload->run_phase(kWarmupSeconds, nullptr));
  const PhaseResult plain = workload->run_phase(args.seconds, nullptr);
  gates.check(*workload, plain);
  std::uint64_t attempted = plain.clients.attempted;
  std::uint64_t failed = plain.clients.failed;
  const double throughput =
      static_cast<double>(plain.clients.entries) / plain.seconds;

  Metrics metrics;
  if (!args.trace) {
    metrics.push_back({"throughput", throughput, "1/s"});
    metrics.push_back(
        {"latency_p50_us", plain.clients.latency.quantile(0.5) / 1e3, "us"});
    metrics.push_back(
        {"latency_p90_us", plain.clients.latency.quantile(0.9) / 1e3, "us"});
    const Histogram& delay = workload->has_fault_thread()
                                 ? plain.clients.outage
                                 : plain.clients.handoff;
    metrics.push_back({"delay_p50_us", delay.quantile(0.5) / 1e3, "us"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    metrics.push_back({"setup_s", median(setup_seconds), "s"});
    workload->teardown();
    print_result(args, gates.ok(), attempted, failed, metrics, gates, plain,
                 kSetups);
    return 0;
  }

  const dmx::telemetry::MetricsSnapshot registry_before =
      dmx::telemetry::Registry::global().snapshot();
  const PhaseResult traced = workload->run_phase(args.seconds, &tracer);
  const dmx::telemetry::MetricsSnapshot registry_after =
      dmx::telemetry::Registry::global().snapshot();
  gates.check(*workload, traced);
  workload->teardown();
  attempted += traced.clients.attempted;
  failed += traced.clients.failed;

  const double traced_throughput =
      static_cast<double>(traced.clients.entries) / traced.seconds;
  const double traced_handoff_ns = traced.clients.handoff.quantile(0.5);
  metrics.push_back({"service.unlock_p50_us",
                     traced.clients.unlock.quantile(0.5) / 1e3, "us"});
  metrics.push_back({"service.grant_to_return_p50_us",
                     tracer.stage(kGrantToReturn).quantile(0.5) / 1e3, "us"});
  metrics.push_back({"service.uncontended_lock_ns",
                     probe_uncontended_gate(args.seed), "ns"});
  add_counter_metrics(traced, metrics);
  const StrandTimes strand = probe_strand();
  metrics.push_back({"exec.post_to_run_p50_ns", strand.hot_post_to_run_ns,
                     "ns"});
  metrics.push_back({"exec.park_to_run_p50_us",
                     strand.park_post_to_run_ns / 1e3, "us"});
  metrics.push_back({"exec.release_to_forward_p50_us",
                     tracer.stage(kReleaseToForward).quantile(0.5) / 1e3,
                     "us"});
  metrics.push_back({"exec.forward_to_grant_p50_us",
                     tracer.stage(kForwardToGrant).quantile(0.5) / 1e3, "us"});

  // The wire layer: from the workload itself on TCP, otherwise from a
  // short TCP hand-off probe so every run reports it.
  if (workload->wire()) {
    add_wire_metrics(traced, tracer, metrics);
  } else {
    std::unique_ptr<Workload> wire = Workload::make("tcp-pingpong", args.seed);
    Tracer wire_tracer(wire->span_rings(), true, wire->resources());
    wire->setup();
    const PhaseResult probe = wire->run_phase(kWireProbeSeconds, &wire_tracer);
    gates.check(*wire, probe);
    wire->teardown();
    add_wire_metrics(probe, wire_tracer, metrics);
  }
  const CodecTimes codec = probe_codec();
  metrics.push_back({"transport.encode_ns", codec.encode_ns, "ns"});
  metrics.push_back({"transport.decode_ns", codec.decode_ns, "ns"});

  // The fault layer: from the workload's own fault thread when it has
  // one, otherwise from the client-less crash probe.
  if (traced.fault.crash_call.count() > 0) {
    metrics.push_back({"fault.crash_call_us",
                       traced.fault.crash_call.quantile(0.5) / 1e3, "us"});
    metrics.push_back({"fault.recover_call_us",
                       traced.fault.recover_call.quantile(0.5) / 1e3, "us"});
    metrics.push_back({"fault.repair_p50_us",
                       repair_p50_ns(registry_before, registry_after) / 1e3,
                       "us"});
  } else {
    const FaultTimes fault = probe_fault(args.seed);
    metrics.push_back({"fault.crash_call_us", fault.crash_call_ns / 1e3, "us"});
    metrics.push_back(
        {"fault.recover_call_us", fault.recover_call_ns / 1e3, "us"});
    metrics.push_back({"fault.repair_p50_us", fault.repair_p50_ns / 1e3, "us"});
  }

  metrics.push_back({"trace.coverage",
                     tracer.stage_median_sum() /
                         std::max(traced_handoff_ns, 1.0),
                     "ratio"});
  metrics.push_back({"trace.overhead_pct",
                     100.0 * (throughput - traced_throughput) / throughput,
                     "%"});
  print_result(args, gates.ok(), attempted, failed, metrics, gates, traced,
               kSetups);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <tcp-pingpong|threaded-zipf|"
                 "threaded-crash> --seed <n> --seconds <s> --trace <0|1> "
                 "[--revision <id>] [--skip-lock-every <k>]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
