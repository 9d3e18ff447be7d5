// The fhc_serve daemon as a child process of the benchmark, and what
// /proc says about a process: CPU time, context switches, peak RSS,
// threads.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ProcSample {
  double cpu_s = 0.0;                // utime + stime over all threads
  std::uint64_t ctx_switches = 0;    // voluntary + nonvoluntary, summed over threads
  double hwm_mb = 0.0;               // VmHWM
  int threads = 0;
};

/// Reads /proc/<pid>/stat, /proc/<pid>/status and every
/// /proc/<pid>/task/*/status. Throws std::runtime_error when the process
/// is gone.
ProcSample read_proc(pid_t pid);

/// Machine-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor ran someone else while this machine wanted a CPU.
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostCpu read_host_cpu();

/// Share of CPU time stolen between two samples (0 when none elapsed).
double steal_share(const HostCpu& before, const HostCpu& after);

/// A child process started with execv, stdin from /dev/null and stdout and
/// stderr appended to `log_path`. It receives SIGKILL if the benchmark
/// dies first; the destructor kills and reaps it if it is still running.
class ChildProcess {
 public:
  ChildProcess(const std::string& program, const std::vector<std::string>& args,
               const std::string& log_path);
  ~ChildProcess();

  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  pid_t pid() const noexcept { return pid_; }

  /// Waits up to `timeout` for the child to exit. Returns its exit code,
  /// 128 + signal when a signal ended it, or -1 after a timeout (the child
  /// is then killed and reaped).
  int wait_exit(std::chrono::milliseconds timeout);

 private:
  pid_t pid_ = -1;
};

}  // namespace perfbench
