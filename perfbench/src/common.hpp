// Shared pieces of the benchmark program: the latency histogram, the seeded
// input generator and the per-resource exclusivity witness.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace perfbench {

/// The one clock of the benchmark: the library's telemetry timebase, so
/// the benchmark's own stamps and flight-recorder events compare directly.
inline std::uint64_t now_ns() { return dmx::telemetry::now_ns(); }

/// Log-linear histogram of nanosecond values: 2^kSubBits linear
/// sub-buckets per power of two, so a bucket is at most 1/128 (0.78%) of
/// its lower bound wide. Storage is allocated once, at construction, so
/// recording never allocates and the footprint does not depend on run
/// length or throughput. Single writer; merge after the writer stopped.
class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMaxShift = 40;  // values up to 2^48 ns (~78 h)
  static constexpr int kBuckets = kSub + kMaxShift * kSub;

  Histogram() : buckets_(kBuckets, 0) {}

  void record(std::uint64_t value) {
    ++buckets_[static_cast<std::size_t>(index(value))];
    ++count_;
  }
  void merge(const Histogram& other) {
    for (int i = 0; i < kBuckets; ++i) {
      buckets_[static_cast<std::size_t>(i)] +=
          other.buckets_[static_cast<std::size_t>(i)];
    }
    count_ += other.count_;
  }
  void clear() {
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
  }
  std::uint64_t count() const { return count_; }

  /// Value at quantile q, interpolated linearly inside the bucket that
  /// holds the rank (0 when empty).
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    double rank = q * static_cast<double>(count_);
    if (rank < 0.5) rank = 0.5;
    double before = 0.0;
    for (int i = 0; i < kBuckets; ++i) {
      const auto c =
          static_cast<double>(buckets_[static_cast<std::size_t>(i)]);
      if (c > 0.0 && before + c >= rank) {
        const double lower = static_cast<double>(bucket_lower(i));
        const double width = static_cast<double>(bucket_width(i));
        return lower + width * (rank - before) / c;
      }
      before += c;
    }
    return static_cast<double>(bucket_lower(kBuckets - 1));
  }

 private:
  static int index(std::uint64_t v) {
    if (v < static_cast<std::uint64_t>(kSub)) return static_cast<int>(v);
    const int shift = static_cast<int>(std::bit_width(v)) - 1 - kSubBits;
    if (shift >= kMaxShift) return kBuckets - 1;
    return kSub + shift * kSub + static_cast<int>((v >> shift) - kSub);
  }
  static std::uint64_t bucket_lower(int i) {
    if (i < kSub) return static_cast<std::uint64_t>(i);
    const int j = i - kSub;
    return static_cast<std::uint64_t>(j % kSub + kSub) << (j / kSub);
  }
  static std::uint64_t bucket_width(int i) {
    return i < kSub ? 1 : std::uint64_t{1} << ((i - kSub) / kSub);
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// splitmix64: the benchmark's only source of randomness. Every generated
/// input (resource names, Zipf permutation, client draws) comes from it,
/// so one seed gives one input set on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Benchmark-side view of one resource, shared by every client. The
/// occupant field is the exclusivity witness: a client swaps its id in
/// after lock() returns and back out before unlock(), so two clients
/// inside one critical section always see each other. The release fields
/// carry the previous holder's unlock stamp to the next holder, which is
/// how the hand-off delay is measured without a second clock domain.
struct alignas(64) ResourceWitness {
  std::atomic<std::uint32_t> occupant{0};
  std::atomic<std::int32_t> last_node{0};
  std::atomic<std::uint64_t> last_unlock_ns{0};
  /// Fault workloads: stamp of the crash()/recover() call this resource
  /// has not been granted since (0 = none outstanding).
  std::atomic<std::uint64_t> await_ns{0};
};

}  // namespace perfbench
