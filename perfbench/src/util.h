// Clocks, CPU accounting, memory and pacing helpers for the benchmark's
// load generators. Everything here is outside the library under test.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <thread>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t ClockNs(clockid_t id) {
  timespec ts;
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// CPU time of the whole process (every thread, the library's pool, apply
/// and pipeline threads included).
inline uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU time of the calling thread; load threads report theirs so that
/// cpu_cores counts only the program's own threads.
inline uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

/// Peak resident set of this process, in MiB.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Lowers the calling thread's timer slack to 1 ns. With the default
/// 50 us slack a paced sender wakes up to 50 us late, and a small-model
/// query p50 measures the sleep instead of the service.
inline void LowerTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

/// Sleeps until `due_ns` on the steady clock (returns at once if past).
inline void SleepUntilNs(uint64_t due_ns) {
  const uint64_t now = NowNs();
  if (due_ns <= now) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
}

/// Waits until `due_ns` precisely: sleeps until 50 us before it, then
/// spins. A query sender uses this so that a request's latency measured
/// from its due time holds the service, not the kernel's wake-up jitter.
inline void WaitUntilNs(uint64_t due_ns) {
  constexpr uint64_t kSpinNs = 50000;
  const uint64_t now = NowNs();
  if (due_ns > now + kSpinNs) SleepUntilNs(due_ns - kSpinNs);
  while (NowNs() < due_ns) {
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
