// Strand: a serialized FIFO task queue scheduled on a shared Executor.
//
// A strand is the concurrency unit of one state machine: tasks posted to
// it run one at a time, in post order, on whichever pool worker picks the
// strand up — never two tasks of the same strand concurrently, so the
// state the tasks touch needs no locking of its own. Independent strands
// run in parallel across the pool; this is how the threaded lock service
// keeps the paper's one-event-at-a-time semantics per (resource, node)
// state machine while independent resources use every core.
//
// Implementation: an internal ring of InlineCallback tasks guarded by a
// short mutex, plus an `active` flag that guarantees at most one pool
// activation of the strand exists at any time (posting to an idle strand
// schedules it; posting to an active one just enqueues). An activation
// drains up to kBatch tasks, then yields the worker and requeues itself
// through the executor's fair global queue so one hot strand cannot
// monopolize a worker or starve its deque neighbours.
//
// Inline activations: post_claim() enqueues like post() but, when the
// strand was idle, hands the activation to the CALLER instead of the
// pool; the caller then runs it with drain() on its own thread. A thread
// that already holds the event (an event loop with a fresh frame, a
// client with a fresh release) thus runs an idle strand without waking a
// pool worker. drain() is the same bounded activation a worker runs: at
// most kBatch tasks, then the remainder goes to the pool. The no-overlap
// and FIFO guarantees are unchanged, since `active` still admits exactly
// one activation at a time, wherever it runs.
//
// The serialization guarantee doubles as the memory fence: task i's
// effects are published to task i+1 (possibly on another worker) through
// the queue mutex, so strand-confined state is race-free by construction.
//
// Lifetime: destroy a strand only after the executor is shut down or the
// strand is known idle with no queued tasks; queued tasks are destroyed
// unrun (their captures release normally).
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>

#include "common/check.hpp"
#include "exec/executor.hpp"
#include "sim/inline_function.hpp"
#include "telemetry/telemetry.hpp"

namespace dmx::exec {

namespace detail {
/// Shared across every strand in the process: activations (pool pickups
/// and inline drains) and the distribution of tasks drained per
/// activation — the batching evidence behind the kBatch=32 choice.
inline telemetry::CounterId strand_activations_counter() {
  static const telemetry::CounterId id =
      telemetry::Registry::global().counter("exec.strand_activations");
  return id;
}
inline telemetry::HistogramId strand_batch_hist() {
  static const telemetry::HistogramId id =
      telemetry::Registry::global().histogram("exec.strand_batch");
  return id;
}
}  // namespace detail

class Strand {
 public:
  /// Move-only type-erased task; keep captures within the 48-byte inline
  /// budget (six pointers) to stay off the heap.
  using Task = sim::InlineCallback;

  /// Tasks drained per activation before the strand yields its worker and
  /// requeues fairly.
  static constexpr int kBatch = 32;

  explicit Strand(Executor& executor) : executor_(executor) {
    pool_task_.run = &Strand::run_activation;
    pool_task_.context = this;
  }

  Strand(const Strand&) = delete;
  Strand& operator=(const Strand&) = delete;

  ~Strand() = default;

  /// Enqueues `task`; schedules the strand on the pool iff it was idle.
  void post(Task task) {
    bool activate = false;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      queue_.push(std::move(task));
      if (!active_) {
        active_ = true;
        activate = true;
      }
    }
    if (activate) executor_.submit(&pool_task_);
  }

  /// Enqueues `task` and returns true iff the strand was idle. On true the
  /// caller owns the activation and must call drain() (nothing was
  /// scheduled on the pool); on false an activation already in progress
  /// runs the task. Never drain while holding a lock a task may take.
  [[nodiscard]] bool post_claim(Task task) {
    std::lock_guard<std::mutex> guard(mutex_);
    queue_.push(std::move(task));
    if (active_) return false;
    active_ = true;
    return true;
  }

  /// Runs the activation claimed by post_claim() on the calling thread:
  /// at most kBatch tasks, then any remainder is handed to the pool.
  void drain() { run(); }

  /// Tasks executed over the strand's lifetime (test introspection; only
  /// meaningful once the strand is quiescent).
  std::uint64_t executed() const { return executed_; }

 private:
  /// Grow-by-doubling ring of tasks; steady state recycles slots and
  /// never allocates.
  class TaskRing {
   public:
    bool empty() const { return size_ == 0; }

    void push(Task task) {
      if (size_ == capacity_) grow();
      slots_[(head_ + size_) & (capacity_ - 1)] = std::move(task);
      ++size_;
    }

    Task pop() {
      DMX_CHECK(size_ > 0);
      Task task = std::move(slots_[head_]);
      slots_[head_] = nullptr;
      head_ = (head_ + 1) & (capacity_ - 1);
      --size_;
      return task;
    }

   private:
    void grow() {
      const std::size_t fresh_capacity = capacity_ == 0 ? 8 : capacity_ * 2;
      auto fresh = std::make_unique<Task[]>(fresh_capacity);
      for (std::size_t i = 0; i < size_; ++i) {
        fresh[i] = std::move(slots_[(head_ + i) & (capacity_ - 1)]);
      }
      slots_ = std::move(fresh);
      capacity_ = fresh_capacity;
      head_ = 0;
    }

    std::unique_ptr<Task[]> slots_;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  static void run_activation(void* context) {
    static_cast<Strand*>(context)->run();
  }

  void run() {
    int drained = 0;
    bool requeue = false;
    for (;;) {
      Task task;
      {
        std::lock_guard<std::mutex> guard(mutex_);
        if (queue_.empty()) {
          active_ = false;
          break;
        }
        if (drained >= kBatch) {  // stay active, yield the worker
          requeue = true;
          break;
        }
        task = queue_.pop();
      }
      task();
      ++executed_;
      ++drained;
    }
    telemetry::count(detail::strand_activations_counter());
    // Activation counter exact; batch histogram is shape-only, sampled.
    if (telemetry::sample_1_in_8()) {
      telemetry::observe(detail::strand_batch_hist(),
                         static_cast<std::uint64_t>(drained));
    }
    if (requeue) executor_.submit_fair(&pool_task_);
  }

  Executor& executor_;
  PoolTask pool_task_;
  std::mutex mutex_;
  TaskRing queue_;
  bool active_ = false;
  std::uint64_t executed_ = 0;  // strand-confined
};

}  // namespace dmx::exec
