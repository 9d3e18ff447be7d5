#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Value of a "Key:  value ..." line of a /proc status file (0 if absent).
double status_field(const std::string& text, const std::string& key) {
  const std::string line_start = key + ":";
  for (std::size_t at = 0; at < text.size();) {
    if (text.compare(at, line_start.size(), line_start) == 0) {
      return std::strtod(text.c_str() + at + line_start.size(), nullptr);
    }
    at = text.find('\n', at);
    if (at == std::string::npos) break;
    ++at;
  }
  return 0.0;
}

}  // namespace

ProcSample read_proc(pid_t pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  ProcSample out;

  // Fields after the parenthesized command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const std::string stat = slurp(base + "/stat");
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("malformed " + base + "/stat");
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::stod(field);
    if (index == 15) stime = std::stod(field);
  }
  out.cpu_s = (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));

  const std::string status = slurp(base + "/status");
  out.hwm_mb = status_field(status, "VmHWM") / 1024.0;
  out.threads = static_cast<int>(status_field(status, "Threads"));

  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(base + "/task", ec)) {
    std::string text;
    try {
      text = slurp(task.path().string() + "/status");
    } catch (const std::runtime_error&) {
      continue;  // the thread exited between listing and reading
    }
    out.ctx_switches += static_cast<std::uint64_t>(status_field(text, "voluntary_ctxt_switches") +
                                                   status_field(text, "nonvoluntary_ctxt_switches"));
  }
  if (ec) throw std::runtime_error("cannot list " + base + "/task");
  return out;
}

HostCpu read_host_cpu() {
  std::istringstream in(slurp("/proc/stat"));
  std::string label;
  in >> label;  // "cpu": the sum over all CPUs
  HostCpu out;
  std::uint64_t value = 0;
  for (int field = 1; field <= 8 && in >> value; ++field) {
    out.total += value;
    if (field == 8) out.steal = value;
  }
  return out;
}

double steal_share(const HostCpu& before, const HostCpu& after) {
  const std::uint64_t total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) / static_cast<double>(total)
                   : 0.0;
}

ChildProcess::ChildProcess(const std::string& program, const std::vector<std::string>& args,
                           const std::string& log_path) {
  std::vector<std::string> argv_store;
  argv_store.push_back(program);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_store) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log_path + ": " + std::strerror(errno));
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(log_fd);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int null_fd = ::open("/dev/null", O_RDONLY);
    if (null_fd >= 0) ::dup2(null_fd, 0);
    ::dup2(log_fd, 1);
    ::dup2(log_fd, 2);
    ::execv(program.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
}

ChildProcess::~ChildProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

int ChildProcess::wait_exit(std::chrono::milliseconds timeout) {
  if (pid_ <= 0) return -1;
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    int status = 0;
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      if (WIFEXITED(status)) return WEXITSTATUS(status);
      if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
      return -1;
    }
    if (done < 0 && errno != EINTR) {
      pid_ = -1;
      return -1;
    }
    if (std::chrono::steady_clock::now() >= give_up) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace perfbench
