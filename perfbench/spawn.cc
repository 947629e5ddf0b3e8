// Runs one program and reports what it cost, measured from outside it:
//
//   perfbench_spawn STDOUT_FILE STDERR_FILE PROGRAM [ARGS...]
//   -> <exit> <wall seconds> <cpu seconds> <peak rss KiB>
//
// <exit> is the exit code, or -N when signal N ended the program. The
// program's stdout is truncated into STDOUT_FILE and its stderr appended
// to STDERR_FILE. A forked child's peak RSS starts at its parent's, so
// the benchmark spawns through this small process instead of from the
// Python interpreter: the reported peak is the program's own. SIGTERM
// kills the program and still reports (its exit is then -9); if this
// process dies, the program is killed with it.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

namespace {

volatile sig_atomic_t child_pid = 0;

void KillChild(int) {
  if (child_pid > 0) kill(child_pid, SIGKILL);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: perfbench_spawn STDOUT_FILE STDERR_FILE PROGRAM "
                 "[ARGS...]\n");
    return 2;
  }
  const pid_t parent = getpid();
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_spawn: fork");
    return 2;
  }
  if (pid == 0) {
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) {
      _exit(127);
    }
    const int out = open(argv[1], O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = open(argv[2], O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (out < 0 || err < 0 || dup2(out, 1) < 0 || dup2(err, 2) < 0) {
      _exit(127);
    }
    execv(argv[3], argv + 3);
    _exit(127);
  }
  child_pid = pid;
  struct sigaction action = {};
  action.sa_handler = KillChild;
  action.sa_flags = SA_RESTART;
  sigaction(SIGTERM, &action, nullptr);
  int status = 0;
  struct rusage usage = {};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("perfbench_spawn: wait4");
    return 2;
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  const double cpu =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                 usage.ru_stime.tv_usec);
  const int code =
      WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  std::printf("%d %.9f %.6f %ld\n", code, wall, cpu, usage.ru_maxrss);
  return 0;
}
