// Portable CPU-affinity helper for the sharded fleet engine.
//
// A fleet pins each shard's driver thread to one logical CPU so the shard's
// scheduler, arenas, and availability plane stay on one cache/NUMA domain
// (the shard state is first-touched from the pinned driver thread, so page
// placement follows the pin on first-touch systems).
// Pinning is strictly a performance hint: every scheduling decision is
// identical with pinning on or off, which the fleet determinism tests
// enforce.
//
// On Linux this wraps pthread_setaffinity_np; elsewhere every call is a
// documented no-op that reports false, so callers degrade gracefully
// instead of carrying platform #ifdefs.
#pragma once

#include <cstddef>
#include <span>

namespace wdm::util {

/// Logical CPUs visible to this process, never 0. Prefers the current
/// affinity mask over hardware_concurrency() on Linux, so a fleet inside a
/// cpuset/container sizes itself to the CPUs it may actually use.
std::size_t available_cpus() noexcept;

/// True when pin_current_thread can actually pin on this platform.
bool cpu_affinity_supported() noexcept;

/// Restricts the calling thread to the given logical CPU ids (ids outside
/// [0, available system range) are ignored). Returns true when the mask was
/// applied; false on unsupported platforms, an empty/out-of-range set, or a
/// kernel refusal. Threads spawned afterwards by the calling thread inherit
/// the mask on Linux.
bool pin_current_thread(std::span<const int> cpus) noexcept;

}  // namespace wdm::util
