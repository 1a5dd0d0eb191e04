#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

/// \file
/// Process-wide accounting for the large optional allocations the serving
/// path makes (candidate-membership masks, bitmap sidecars, cache entries).
///
/// The budget is *advisory admission control for optimisations*, not an
/// allocator: call sites ask `TryCharge(bytes)` before allocating, and on
/// denial fall back to a smaller/slower-but-correct path (binary-search
/// membership instead of the mask, merge kernels instead of bitmap sidecars,
/// serving a value without caching it) instead of letting `std::bad_alloc`
/// abort the process. A zero limit (the default) means unlimited — every
/// charge succeeds but is still tracked, so `used()`/`peak()` report real
/// footprints either way. See docs/ROBUSTNESS.md for the degradation
/// ladder each charging site sits on.

namespace rlqvo {

class MemoryBudget;

/// \brief Move-only RAII token for a successful MemoryBudget charge.
///
/// Releases its bytes back to the budget on destruction. A
/// default-constructed (or moved-from) charge is empty and releases
/// nothing, so holders can keep one as a member and rely on their
/// defaulted move operations.
class MemoryCharge {
 public:
  MemoryCharge() = default;
  MemoryCharge(const MemoryCharge&) = delete;
  MemoryCharge& operator=(const MemoryCharge&) = delete;
  MemoryCharge(MemoryCharge&& other) noexcept
      : budget_(other.budget_), bytes_(other.bytes_) {
    other.budget_ = nullptr;
    other.bytes_ = 0;
  }
  MemoryCharge& operator=(MemoryCharge&& other) noexcept {
    if (this != &other) {
      Reset();
      budget_ = other.budget_;
      bytes_ = other.bytes_;
      other.budget_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  ~MemoryCharge() { Reset(); }

  /// Releases the held bytes (if any) back to the budget now.
  void Reset();

  size_t bytes() const { return bytes_; }
  bool empty() const { return budget_ == nullptr; }

 private:
  friend class MemoryBudget;
  MemoryCharge(MemoryBudget* budget, size_t bytes)
      : budget_(budget), bytes_(bytes) {}

  MemoryBudget* budget_ = nullptr;
  size_t bytes_ = 0;
};

/// \brief Lock-free byte budget shared by all degradable allocations.
///
/// `Global()` is the process-wide instance; its limit initialises from the
/// `RLQVO_MEMORY_BUDGET` environment variable (bytes, optionally suffixed
/// `k`/`m`/`g`; unset or 0 = unlimited) and can be changed at runtime with
/// `set_limit_bytes` (tests do this; a lowered limit only affects future
/// charges, existing holders keep their bytes until released).
class MemoryBudget {
 public:
  MemoryBudget() = default;
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// The process-wide budget every production call site charges.
  static MemoryBudget& Global();

  /// Attempts to reserve `bytes`. On success the returned charge holds the
  /// reservation until destroyed. On denial (the charge would push `used`
  /// past a non-zero limit, or the `budget.charge` failpoint fires) the
  /// returned charge is empty and `denials()` is incremented — the caller
  /// must take its fallback path. A zero-byte request always succeeds and
  /// returns an empty charge.
  MemoryCharge TryCharge(size_t bytes);

  size_t used_bytes() const { return used_.load(std::memory_order_relaxed); }
  size_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t denials() const {
    return denials_.load(std::memory_order_relaxed);
  }
  size_t limit_bytes() const {
    return limit_.load(std::memory_order_relaxed);
  }
  /// 0 = unlimited. Takes effect for subsequent TryCharge calls only.
  void set_limit_bytes(size_t bytes) {
    limit_.store(bytes, std::memory_order_relaxed);
  }

 private:
  friend class MemoryCharge;
  void Release(size_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  std::atomic<size_t> limit_{0};
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
  std::atomic<uint64_t> denials_{0};
};

}  // namespace rlqvo
