// Isolated layer probes, run only in traced runs. Each times public
// functions of one layer with nothing else running, so a change to that
// layer shows here even when the end-to-end figures cannot resolve it.
#pragma once

#include <cstdint>

#include "telemetry/telemetry.hpp"

namespace perfbench {

struct CodecTimes {
  double encode_ns = 0.0;  // Codec::encode_frame, per frame
  double decode_ns = 0.0;  // Codec::decode_header + Codec::decode, per frame
};
/// Neilsen REQUEST and PRIVILEGE frames, alternating.
CodecTimes probe_codec();

struct StrandTimes {
  double hot_post_to_run_ns = 0.0;   // 1-worker pool that never parks
  double park_post_to_run_ns = 0.0;  // same post after the worker parked
};
StrandTimes probe_strand();

/// Median lock()+unlock() pair on the resource's home node, no other
/// client, in ns.
double probe_uncontended_gate(std::uint64_t seed);

struct FaultTimes {
  double crash_call_ns = 0.0;
  double recover_call_ns = 0.0;
  double repair_p50_ns = 0.0;
};
/// The threaded-crash space without clients: crash(5), a grant on every
/// resource, recover(5), a grant on every resource, repeated.
FaultTimes probe_fault(std::uint64_t seed);

/// Median of the library's "fault.repair_ns" histogram between two
/// registry snapshots, interpolated inside its power-of-two bucket.
double repair_p50_ns(const dmx::telemetry::MetricsSnapshot& before,
                     const dmx::telemetry::MetricsSnapshot& after);

}  // namespace perfbench
