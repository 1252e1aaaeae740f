#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace pathalg {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr const char kListening[] = "listening on 127.0.0.1:";

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Spawn(
    const std::string& binary, const std::vector<std::string>& args,
    const std::vector<int>& cpus, double timeout_s) {
  std::vector<std::string> argv_storage = {binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  argv_storage.push_back("--port");
  argv_storage.push_back("0");
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  for (int c : cpus) CPU_SET(c, &affinity);

  int err_pipe[2];
  if (pipe2(err_pipe, O_CLOEXEC) != 0) return Status::Internal("pipe2 failed");
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(err_pipe[0]);
    close(err_pipe[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    if (!cpus.empty()) sched_setaffinity(0, sizeof(affinity), &affinity);
    const int devnull = open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      dup2(devnull, STDIN_FILENO);
      dup2(devnull, STDOUT_FILENO);
    }
    dup2(err_pipe[1], STDERR_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(err_pipe[1]);
  fcntl(err_pipe[0], F_SETFL, fcntl(err_pipe[0], F_GETFL) | O_NONBLOCK);
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid, err_pipe[0]));

  // Read stderr until the listening line names the port.
  const Clock::time_point start = Clock::now();
  std::string text;
  for (;;) {
    const size_t at = text.find(kListening);
    if (at != std::string::npos) {
      const size_t digits = at + sizeof(kListening) - 1;
      const size_t end = text.find_first_not_of("0123456789", digits);
      if (end != std::string::npos && end > digits) {
        server->port_ = static_cast<uint16_t>(
            std::strtoul(text.substr(digits, end - digits).c_str(), nullptr,
                         10));
        return server;
      }
    }
    const double left = timeout_s - SecondsSince(start);
    if (left <= 0) {
      return Status::Internal("pathalg_serve did not start listening: " +
                              text);
    }
    pollfd pfd{server->stderr_fd_, POLLIN, 0};
    poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    char buf[4096];
    const ssize_t n = read(server->stderr_fd_, buf, sizeof(buf));
    if (n > 0) {
      text.append(buf, static_cast<size_t>(n));
    } else if (n == 0) {
      return Status::Internal("pathalg_serve exited before listening: " +
                              text);
    }
  }
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) Stop(SIGKILL);
}

double ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(in, line);
  const size_t paren = line.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(paren + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ServerProcess::PeakRssMiB() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

Status ServerProcess::Stop(int signal, double timeout_s) {
  if (pid_ <= 0) return Status::OK();
  kill(pid_, signal);
  const Clock::time_point start = Clock::now();
  bool escalated = false;
  int wstatus = 0;
  for (;;) {
    // Keep the stderr pipe drained so a chatty shutdown never blocks.
    char buf[4096];
    while (read(stderr_fd_, buf, sizeof(buf)) > 0) {
    }
    const pid_t done = waitpid(pid_, &wstatus, WNOHANG);
    if (done == pid_) break;
    if (done < 0) {
      wstatus = 0;
      break;
    }
    if (!escalated && SecondsSince(start) > timeout_s) {
      kill(pid_, SIGKILL);
      escalated = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  close(stderr_fd_);
  stderr_fd_ = -1;
  if (escalated) {
    return Status::Internal("pathalg_serve ignored the stop signal");
  }
  const bool clean = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  const bool signalled = WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == signal;
  if (!clean && !signalled) {
    return Status::Internal("pathalg_serve exited abnormally (status " +
                            std::to_string(wstatus) + ")");
  }
  return Status::OK();
}

}  // namespace bench
}  // namespace pathalg
