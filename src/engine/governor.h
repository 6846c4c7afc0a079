#ifndef TPCDS_ENGINE_GOVERNOR_H_
#define TPCDS_ENGINE_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "engine/value.h"
#include "util/status.h"

namespace tpcds {

/// Per-query resource limits. Zero means unlimited. Carried on
/// PlannerOptions (so every entry point — shell, driver, tests — can set
/// them) and enforced by a QueryGovernor inside the executor.
struct GovernorLimits {
  /// Wall-clock deadline for the whole statement, measured from governor
  /// construction (i.e. query start).
  double timeout_ms = 0.0;
  /// Budget on bytes of intermediate results materialised over the query's
  /// lifetime (a conservative proxy for peak memory: operators charge what
  /// they build and nothing is credited back mid-query).
  int64_t memory_budget_bytes = 0;
  /// Budget on rows materialised across all operators — the guard against
  /// runaway cross joins from pathological parameterizations.
  int64_t row_budget = 0;

  bool any() const {
    return timeout_ms > 0.0 || memory_budget_bytes > 0 || row_budget > 0;
  }
};

/// A shared byte pool that several QueryGovernors charge concurrently —
/// the global admission-control memory pool of a QueryService. Capacity 0
/// means unlimited: reservations always succeed but usage and peak are
/// still tracked, so tests and the overload drills can assert the pool
/// drains back to exactly zero after a storm of queries.
///
/// Thread-safe; TryReserve never leaves a failed reservation charged.
class ResourcePool {
 public:
  explicit ResourcePool(int64_t capacity_bytes = 0)
      : capacity_(capacity_bytes) {}

  ResourcePool(const ResourcePool&) = delete;
  ResourcePool& operator=(const ResourcePool&) = delete;

  /// Charges `bytes` against the pool. Returns false (charging nothing)
  /// when the reservation would push usage over a finite capacity.
  bool TryReserve(int64_t bytes);

  /// Credits `bytes` back to the pool.
  void Release(int64_t bytes);

  int64_t used() const { return used_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  int64_t capacity() const { return capacity_; }

 private:
  int64_t capacity_;
  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};
};

/// Execution governor for one query: deadline, memory budget, row budget,
/// and an external cancellation token, all checked at morsel boundaries by
/// the executor. Thread-safe — morsel workers race against Cancel() and
/// against each other; the first violation wins and is the status every
/// caller sees.
///
/// The cancellation token is a single atomic: once tripped, workers stop
/// picking up morsels, partially-built operator state unwinds through the
/// normal Result<> error path, and the query returns a clean error (one of
/// kDeadlineExceeded / kResourceExhausted / kCancelled) instead of
/// crashing the process or burning the rest of the stream's time slot.
class QueryGovernor {
 public:
  /// Unlimited governor (still usable as a cancellation token).
  QueryGovernor();
  explicit QueryGovernor(const GovernorLimits& limits);
  /// Credits any bytes still charged to the parent pool back to it, so a
  /// shared pool always returns to zero no matter how the query ended
  /// (success, cancellation, budget trip, or shed before teardown).
  ~QueryGovernor();

  QueryGovernor(const QueryGovernor&) = delete;
  QueryGovernor& operator=(const QueryGovernor&) = delete;

  /// Attaches a shared parent pool (admission control's global memory
  /// pool). Every Reserve charges the pool too — a failed pool charge
  /// trips this governor with kResourceExhausted — and Release (plus the
  /// destructor, for whatever is still outstanding) credits it back.
  /// Call before execution starts; the pool must outlive the governor.
  void set_parent_pool(ResourcePool* pool) { parent_pool_ = pool; }
  ResourcePool* parent_pool() const { return parent_pool_; }

  /// External cancellation (another thread). Idempotent; the first trip —
  /// whether a limit or a cancel — wins.
  void Cancel(const std::string& reason);

  /// True once any limit tripped or Cancel() was called.
  bool cancelled() const {
    return tripped_.load(std::memory_order_acquire);
  }

  /// OK while running; the first violation's status afterwards.
  Status status() const;

  /// Morsel-boundary check: fires the "morsel" fault site, then the
  /// deadline. Returns false when the morsel must not run.
  bool BeginMorsel();

  /// Lightweight per-row check for non-morselised inner loops (the
  /// nested-loop join): cancellation flag plus deadline.
  bool Tick();

  /// Tracking-allocator entry: charges `bytes` against the memory budget
  /// (and fires the "alloc" fault site). Returns false once over budget.
  bool Reserve(int64_t bytes);
  /// Returns bytes to the tracker (final teardown; mid-query intermediate
  /// results are deliberately not credited back, see GovernorLimits).
  void Release(int64_t bytes);

  /// Charges materialised rows against the row budget.
  bool ChargeRows(int64_t rows);

  const GovernorLimits& limits() const { return limits_; }
  bool has_limits() const { return limits_.any(); }
  int64_t bytes_reserved() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  int64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  int64_t rows_charged() const {
    return rows_.load(std::memory_order_relaxed);
  }

 private:
  /// Records the first violation and flips the cancellation token.
  void Trip(Status status);
  bool CheckDeadline();

  GovernorLimits limits_;
  double deadline_seconds_ = 0.0;  // absolute steady-clock; 0 = none
  ResourcePool* parent_pool_ = nullptr;
  std::atomic<int64_t> parent_bytes_{0};  // charged to parent, not yet credited
  std::atomic<int64_t> bytes_{0};
  std::atomic<int64_t> peak_bytes_{0};
  std::atomic<int64_t> rows_{0};
  std::atomic<bool> tripped_{false};
  mutable std::mutex mu_;  // guards trip_status_
  Status trip_status_;
};

/// Approximate heap footprint of one materialised row (values plus the
/// buffers of strings too long to sit inline); the unit the executor
/// charges against the memory budget.
int64_t ApproxRowBytes(const std::vector<Value>& row);

/// The same footprint for `n` values in a flat array (no vector header).
int64_t ApproxValuesBytes(const Value* values, size_t n);

}  // namespace tpcds

#endif  // TPCDS_ENGINE_GOVERNOR_H_
