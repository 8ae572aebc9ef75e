#include "util/cpu_affinity.hpp"

#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace wdm::util {

std::size_t available_cpus() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

bool cpu_affinity_supported() noexcept {
#if defined(__linux__)
  return true;
#else
  return false;
#endif
}

bool pin_current_thread(std::span<const int> cpus) noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  bool any = false;
  for (const int cpu : cpus) {
    if (cpu < 0 || cpu >= CPU_SETSIZE) continue;
    CPU_SET(static_cast<std::size_t>(cpu), &set);
    any = true;
  }
  if (!any) return false;
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpus;
  return false;
#endif
}

}  // namespace wdm::util
