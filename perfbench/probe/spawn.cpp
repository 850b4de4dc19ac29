// perfbench_spawn — runs one program and records its peak resident
// memory.
//
//   perfbench_spawn <maxrss-out> <program> [args...]
//
// On Linux a process's ru_maxrss starts from the peak RSS of the image
// it replaced at exec, so a program started straight from the Python
// harness reports the harness's peak whenever that is the larger one.
// Started from this small process, it reports its own peak (or this
// process's, about a megabyte, if that were larger).  Writes the
// program's ru_maxrss in KiB to <maxrss-out> and exits with the
// program's exit code, or 128 + the signal that ended it.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

extern char** environ;

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: perfbench_spawn <maxrss-out> <program> [args...]\n");
    return 2;
  }
  pid_t pid = 0;
  const int err =
      posix_spawn(&pid, argv[2], nullptr, nullptr, argv + 2, environ);
  if (err != 0) {
    std::fprintf(stderr, "perfbench_spawn: %s: %s\n", argv[2],
                 std::strerror(err));
    return 127;
  }
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench_spawn: wait4");
      return 1;
    }
  }
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr || std::fprintf(out, "%ld\n", usage.ru_maxrss) < 0 ||
      std::fclose(out) != 0) {
    std::perror("perfbench_spawn: maxrss-out");
    return 1;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + WTERMSIG(status);
}
