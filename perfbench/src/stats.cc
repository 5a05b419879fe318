#include "stats.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <string>

namespace perfbench {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace

double ProcessCpuSeconds() { return CpuSeconds(RUSAGE_SELF); }

double ThreadCpuSeconds() { return CpuSeconds(RUSAGE_THREAD); }

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
  stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  return static_cast<double>(steal) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ResidentMb() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace perfbench
