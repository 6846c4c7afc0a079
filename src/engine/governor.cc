#include "engine/governor.h"

#include <chrono>

#include "util/fault.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

double SteadyNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool ResourcePool::TryReserve(int64_t bytes) {
  int64_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (capacity_ > 0 && now > capacity_) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    return false;
  }
  int64_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  return true;
}

void ResourcePool::Release(int64_t bytes) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

QueryGovernor::QueryGovernor() = default;

QueryGovernor::~QueryGovernor() {
  int64_t outstanding = parent_bytes_.load(std::memory_order_relaxed);
  if (parent_pool_ != nullptr && outstanding > 0) {
    parent_pool_->Release(outstanding);
  }
}

QueryGovernor::QueryGovernor(const GovernorLimits& limits) : limits_(limits) {
  if (limits_.timeout_ms > 0.0) {
    deadline_seconds_ = SteadyNowSeconds() + limits_.timeout_ms / 1e3;
  }
}

void QueryGovernor::Trip(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tripped_.load(std::memory_order_relaxed)) return;  // first trip wins
  trip_status_ = std::move(status);
  tripped_.store(true, std::memory_order_release);
}

void QueryGovernor::Cancel(const std::string& reason) {
  Trip(Status::Cancelled(reason.empty() ? "query cancelled" : reason));
}

Status QueryGovernor::status() const {
  if (!cancelled()) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  return trip_status_;
}

bool QueryGovernor::CheckDeadline() {
  if (deadline_seconds_ == 0.0) return true;
  if (SteadyNowSeconds() <= deadline_seconds_) return true;
  Trip(Status::DeadlineExceeded(StringPrintf(
      "query exceeded its %.3f ms deadline", limits_.timeout_ms)));
  return false;
}

bool QueryGovernor::BeginMorsel() {
  if (cancelled()) return false;
  if (FaultInjector::Global().enabled()) {
    Status st = FaultInjector::Global().Maybe("morsel");
    if (!st.ok()) {
      Trip(std::move(st));
      return false;
    }
  }
  return CheckDeadline();
}

bool QueryGovernor::Tick() {
  if (cancelled()) return false;
  return CheckDeadline();
}

bool QueryGovernor::Reserve(int64_t bytes) {
  if (cancelled()) return false;
  if (FaultInjector::Global().enabled()) {
    Status st = FaultInjector::Global().Maybe("alloc");
    if (!st.ok()) {
      Trip(std::move(st));
      return false;
    }
  }
  // Charge the shared parent pool first: a failed pool reservation charges
  // nothing anywhere, so accounting stays exact under concurrent trips.
  if (parent_pool_ != nullptr) {
    if (!parent_pool_->TryReserve(bytes)) {
      Trip(Status::ResourceExhausted(StringPrintf(
          "global memory pool exhausted: %lld bytes in use of %lld capacity "
          "(query asked for %lld more)",
          static_cast<long long>(parent_pool_->used()),
          static_cast<long long>(parent_pool_->capacity()),
          static_cast<long long>(bytes))));
      return false;
    }
    parent_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  int64_t now = bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_bytes_.compare_exchange_weak(peak, now,
                                            std::memory_order_relaxed)) {
  }
  if (limits_.memory_budget_bytes > 0 && now > limits_.memory_budget_bytes) {
    Trip(Status::ResourceExhausted(StringPrintf(
        "query memory budget exceeded: %lld of %lld bytes reserved",
        static_cast<long long>(now),
        static_cast<long long>(limits_.memory_budget_bytes))));
    return false;
  }
  return true;
}

void QueryGovernor::Release(int64_t bytes) {
  bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  if (parent_pool_ != nullptr) {
    parent_pool_->Release(bytes);
    parent_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }
}

bool QueryGovernor::ChargeRows(int64_t rows) {
  if (cancelled()) return false;
  int64_t now = rows_.fetch_add(rows, std::memory_order_relaxed) + rows;
  if (limits_.row_budget > 0 && now > limits_.row_budget) {
    Trip(Status::ResourceExhausted(StringPrintf(
        "query row budget exceeded: %lld of %lld rows materialised",
        static_cast<long long>(now),
        static_cast<long long>(limits_.row_budget))));
    return false;
  }
  return true;
}

int64_t ApproxValuesBytes(const Value* values, size_t n) {
  int64_t bytes = static_cast<int64_t>(n * sizeof(Value));
  // Inline strings are already inside sizeof(Value); only a long
  // string's own buffer adds to the footprint.
  for (size_t i = 0; i < n; ++i) {
    bytes += static_cast<int64_t>(values[i].heap_bytes());
  }
  return bytes;
}

int64_t ApproxRowBytes(const std::vector<Value>& row) {
  return static_cast<int64_t>(sizeof(std::vector<Value>)) +
         ApproxValuesBytes(row.data(), row.size());
}

}  // namespace tpcds
