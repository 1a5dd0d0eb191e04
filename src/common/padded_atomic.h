#pragma once

#include <atomic>
#include <cstddef>

namespace rlqvo {

/// Cache-line size assumed for false-sharing padding. 64 bytes on every
/// x86-64 and most AArch64 parts this library targets. (A fixed constant
/// rather than std::hardware_destructive_interference_size, whose value
/// GCC warns may differ between translation units built with different
/// -mtune flags.)
inline constexpr size_t kCacheLineBytes = 64;

/// An atomic alone on its own cache line. Arrays of these give each writer
/// a line no other writer touches, so one thread's updates never invalidate
/// a neighbor's cached copy (false sharing). Zero-initialized.
template <typename T>
struct alignas(kCacheLineBytes) PaddedAtomic {
  std::atomic<T> value{};
};

}  // namespace rlqvo
