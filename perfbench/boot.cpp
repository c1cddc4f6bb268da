// perf_boot: times daemon boots, spawn to ready file, with no interpreter
// in the timed path.
//
//   perf_boot <boots> <log-file> <ready-file> <command> [<args>...]
//
// Boots `command` (which must write <ready-file> when it is ready, as
// `picpredict serve --ready-file` does by an atomic rename) <boots> times,
// one after the other. For each boot it prints the seconds from just before
// the spawn to the ready file's appearance, then stops the daemon with
// SIGTERM and waits for it. The daemon's output goes to <log-file>. Exits
// non-zero if a daemon dies during boot or is not ready within 60 s. A
// daemon is killed when perf_boot dies, so none outlives it.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/inotify.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

namespace {

double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perf_boot: %s\n", msg.c_str());
  std::exit(2);
}

pid_t spawn(char** argv, const std::string& log) {
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid != 0) return pid;
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) _exit(127);
  const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    dup2(fd, 1);
    dup2(fd, 2);
  }
  execv(argv[0], argv);
  _exit(127);
}

void stop(pid_t pid) {
  kill(pid, SIGTERM);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

/// Blocks until `name` appears in the watched directory; false if the
/// daemon exits first or 60 s pass.
bool wait_ready(int watch_fd, const std::string& name, pid_t pid) {
  const double deadline = now_s() + 60.0;
  alignas(inotify_event) char buf[4096];
  while (now_s() < deadline) {
    pollfd pfd{watch_fd, POLLIN, 0};
    if (poll(&pfd, 1, 100) > 0) {
      const ssize_t n = read(watch_fd, buf, sizeof buf);
      for (ssize_t off = 0; off < n;) {
        const auto* e = reinterpret_cast<const inotify_event*>(buf + off);
        if (e->len > 0 && name == e->name) return true;
        off += static_cast<ssize_t>(sizeof(inotify_event) + e->len);
      }
    } else if (waitpid(pid, nullptr, WNOHANG) == pid) {
      return false;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5)
    die("usage: perf_boot <boots> <log-file> <ready-file> <command> [args...]");
  const int boots = std::atoi(argv[1]);
  const std::string log = argv[2];
  const std::string ready = argv[3];
  const std::size_t slash = ready.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : ready.substr(0, slash);
  const std::string name = ready.substr(slash == std::string::npos ? 0 : slash + 1);

  const int watch_fd = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
  if (watch_fd < 0 ||
      inotify_add_watch(watch_fd, dir.c_str(), IN_MOVED_TO | IN_CLOSE_WRITE) < 0)
    die("cannot watch " + dir + ": " + std::strerror(errno));

  std::vector<double> seconds;
  for (int b = 0; b < boots; ++b) {
    unlink(ready.c_str());
    char drain[4096];
    while (read(watch_fd, drain, sizeof drain) > 0) {
    }
    const double start = now_s();
    const pid_t pid = spawn(argv + 4, log);
    if (pid < 0) die(std::string("cannot spawn ") + argv[4]);
    const bool ok = wait_ready(watch_fd, name, pid);
    const double elapsed = now_s() - start;
    stop(pid);
    if (!ok) die("daemon exited or was not ready within 60 s; see " + log);
    seconds.push_back(elapsed);
  }
  unlink(ready.c_str());
  for (double s : seconds) std::printf("%.9f\n", s);
  return 0;
}
