// Fork + pipe lifecycle for the multi-process sweep backend.
//
// This directory is the ONLY place in the tree allowed to issue the raw
// process-control syscalls (fork/exec*/pipe/waitpid — enforced by
// scripts/lint.py's `raw-process-syscalls` rule), so their error handling,
// fd hygiene, and reaping discipline live in one file.
//
// A Subprocess is fork-without-exec: the child runs a caller-supplied
// function against the two pipe ends and _exit()s with its return value —
// no argv re-entry, so any binary (bench driver, test) can host workers.
// Fork-safety contract for callers:
//   * The child function must not touch thread-aware objects inherited from
//     the parent (ThreadPool::global(), caches, open streams); it builds its
//     own. Only the forking thread survives in the child.
//   * The child may create threads of its own, but code that must run under
//     ThreadSanitizer should keep the child single-threaded (TSan rejects
//     thread creation after a multi-threaded fork) — the sweep worker
//     defaults to an inline pool for exactly this reason.
#pragma once

#include <sys/types.h>

#include <functional>
#include <span>

namespace groupfel::runtime::proc {

/// Result of waiting on a child.
struct ExitStatus {
  bool signaled = false;  ///< killed by a signal (code is the signal number)
  int code = 0;           ///< exit code, or terminating signal
  [[nodiscard]] bool clean() const noexcept { return !signaled && code == 0; }
};

class Subprocess {
 public:
  /// Child exit code when `child_main` throws (the what() goes to stderr).
  static constexpr int kUncaughtExceptionExit = 125;

  Subprocess() = default;

  /// Forks a child connected by two pipes. In the child, runs
  /// `child_main(read_fd, write_fd)` and _exit()s with its return value
  /// (static destructors and atexit hooks are skipped on purpose — the
  /// child shares the parent's address space image and must not run its
  /// cleanup). `extra_close` lists parent-side fds the child must not
  /// inherit (other workers' pipe ends), so a dead parent reliably turns
  /// into EOF on every worker's read end. The pipes are O_CLOEXEC, so no
  /// program exec'd from this process inherits them. Throws
  /// std::runtime_error when pipe2() or fork() fails.
  static Subprocess spawn(const std::function<int(int, int)>& child_main,
                          std::span<const int> extra_close = {});

  ~Subprocess();
  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  [[nodiscard]] bool running() const noexcept { return pid_ > 0; }
  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  /// Parent's end for frames FROM the child (-1 after close/move).
  [[nodiscard]] int read_fd() const noexcept { return read_fd_; }
  /// Parent's end for frames TO the child (-1 after close/move).
  [[nodiscard]] int write_fd() const noexcept { return write_fd_; }

  /// Closes the parent's write end — the child's next read returns EOF (the
  /// shutdown signal of the sweep wire protocol).
  void close_write() noexcept;

  /// SIGKILLs the child (no-op if already waited).
  void kill_now() noexcept;

  /// Blocking waitpid; closes both pipe ends. Safe to call once; returns
  /// the cached status on repeat calls.
  ExitStatus wait();

 private:
  pid_t pid_ = -1;
  int read_fd_ = -1;
  int write_fd_ = -1;
  ExitStatus status_{};
};

/// Blocks until at least one of `fds` is readable (or closed by the peer)
/// and returns its index. Loops over EINTR; throws std::runtime_error on a
/// hard poll error.
[[nodiscard]] std::size_t wait_any_readable(std::span<const int> fds);

/// RAII SIGPIPE suppression around the dispatch loop: a write to a worker
/// that just died must surface as EPIPE (a diagnosable exception), not kill
/// the parent. Restores the previous disposition on destruction.
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore();
  ~ScopedSigpipeIgnore();
  ScopedSigpipeIgnore(const ScopedSigpipeIgnore&) = delete;
  ScopedSigpipeIgnore& operator=(const ScopedSigpipeIgnore&) = delete;

 private:
  void (*previous_)(int) = nullptr;
  bool restore_ = false;
};

}  // namespace groupfel::runtime::proc
