// serve-client: the open-loop load generator for the serve phase.
//
// One connection to a listening `policy-serve --socket`.  Commands come
// on stdin, one per line, so the caller can choose each phase's rate
// from the results of the previous one while every request still
// travels over the same connection:
//
//   serve-client <socket> <spin: 0|1>
//
//   run <requests-file> <rate_per_s> <timeout_ms>
//       Sends every line of the file on a fixed schedule (request i is
//       due at i / rate after the phase starts) regardless of replies —
//       an open loop, so a slow server builds a queue.  A receiver
//       thread timestamps each response line.  Prints one record per
//       request, "<due_ns> <sent_ns> <recv_ns> <ok>" with times relative
//       to the phase start (recv_ns = -1: no reply before the timeout),
//       then "end <n>".
//   digest   sends {"op":"digest"} and prints "digest <response>".
//   quit     sends {"op":"quit"} and exits.
//
// A reply counts as ok when it carries no "ok":false anywhere — a batch
// whose items failed is a failed request.  After a timeout every later
// command reports failure.
//
// With spin = 1 both threads spin rather than sleep: on a virtual machine
// a sleeping thread can wake milliseconds late, which would be charged to
// the server.  The client then keeps two cores busy while a phase runs,
// so the caller asks for it only where the server keeps a core of its
// own; with spin = 0 the sender sleeps and the receiver blocks.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "serve/socket.hpp"

#include "probe.hpp"

namespace perfbench {

namespace {

struct Record {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = -1;
  bool ok = false;
};

/// Waits until `due` on the steady clock.
void wait_until(std::uint64_t due, bool spin) {
  if (!spin) {
    const std::uint64_t now = now_ns();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
  }
  while (now_ns() < due) {
  }
}

/// Line reader over the socket.  Spinning, it polls without blocking so a
/// reply is timestamped when it arrives, not when a sleeping thread wakes.
class LineReader {
 public:
  LineReader(int fd, bool spin) : fd_(fd), spin_(spin) {}

  /// False once the peer closed the connection, the socket was shut
  /// down, or `stop` is set.
  bool next(std::string* line, const std::atomic<bool>& stop) {
    for (;;) {
      const std::size_t eol = buffer_.find('\n', scanned_);
      if (eol != std::string::npos) {
        line->assign(buffer_, 0, eol);
        buffer_.erase(0, eol + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      const ssize_t n =
          ::recv(fd_, chunk, sizeof(chunk), spin_ ? MSG_DONTWAIT : 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
      } else if (n == 0) {
        return false;
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return false;
      } else if (stop.load(std::memory_order_relaxed)) {
        return false;
      }
    }
  }

 private:
  int fd_;
  bool spin_;
  std::string buffer_;
  std::size_t scanned_ = 0;  ///< buffer_ prefix known to hold no newline
};

class Client {
 public:
  Client(const std::string& socket_path, bool spin)
      : fd_(parmis::serve::connect_unix(socket_path, "serve-client")),
        spin_(spin),
        reader_(fd_, spin) {}
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One open-loop phase; returns false once the connection is lost.
  bool run(const std::vector<std::string>& lines, double rate,
           std::uint64_t timeout_ms, std::vector<Record>* records) {
    const std::size_t n = lines.size();
    records->assign(n, Record{});
    if (!alive_ || n == 0) return alive_;
    const double gap_ns = 1e9 / rate;
    const std::uint64_t start = now_ns() + 1'000'000;  // 1 ms to get going

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> received{0};

    std::thread receiver([&] {
      std::string line;
      for (std::size_t i = 0; i < n; ++i) {
        if (!reader_.next(&line, stop)) break;
        Record& r = (*records)[i];
        r.recv_ns = static_cast<std::int64_t>(now_ns() - start);
        r.ok = reply_ok(line);
        received.store(i + 1, std::memory_order_release);
      }
    });

    for (std::size_t i = 0; i < n && alive_; ++i) {
      const std::uint64_t due =
          start + static_cast<std::uint64_t>(gap_ns * static_cast<double>(i));
      wait_until(due, spin_);
      Record& r = (*records)[i];
      r.due_ns = static_cast<std::int64_t>(due - start);
      r.sent_ns = static_cast<std::int64_t>(now_ns() - start);
      alive_ = parmis::serve::write_line(fd_, lines[i]);
    }

    const std::uint64_t deadline = now_ns() + timeout_ms * 1'000'000;
    while (received.load(std::memory_order_acquire) < n &&
           now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true);
    // Replies missing at the deadline make the connection unusable; the
    // shutdown also wakes a receiver blocked in recv.
    if (received.load() < n) {
      alive_ = false;
      ::shutdown(fd_, SHUT_RDWR);
    }
    receiver.join();
    return alive_;
  }

  /// One closed-loop request; empty string when the connection is lost.
  std::string request(const std::string& line) {
    const std::atomic<bool> never{false};
    std::string reply;
    if (!alive_ || !parmis::serve::write_line(fd_, line) ||
        !reader_.next(&reply, never)) {
      alive_ = false;
      return {};
    }
    return reply;
  }

 private:
  int fd_;
  bool spin_;
  LineReader reader_;
  bool alive_ = true;
};

}  // namespace

int serve_client_main(const std::vector<std::string>& args) {
  parmis::require(args.size() == 2 && (args[1] == "0" || args[1] == "1"),
                  "usage: serve-client <socket-path> <spin: 0|1>");
  Client client(args[0], args[1] == "1");
  std::string command;
  while (std::getline(std::cin, command)) {
    if (command.rfind("run ", 0) == 0) {
      char path[4096] = {0};
      double rate = 0.0;
      unsigned long long timeout_ms = 0;
      parmis::require(
          std::sscanf(command.c_str(), "run %4095s %lf %llu", path, &rate,
                      &timeout_ms) == 3 &&
              rate > 0.0,
          "serve-client: bad command: " + command);
      std::vector<Record> records;
      client.run(read_lines(path), rate, timeout_ms, &records);
      for (const Record& r : records) {
        std::printf("%lld %lld %lld %d\n", static_cast<long long>(r.due_ns),
                    static_cast<long long>(r.sent_ns),
                    static_cast<long long>(r.recv_ns), r.ok ? 1 : 0);
      }
      std::printf("end %zu\n", records.size());
    } else if (command == "digest") {
      std::printf("digest %s\n",
                  client.request("{\"op\":\"digest\"}").c_str());
    } else if (command == "quit") {
      // Waits for the reply: policy-serve only shuts down once the quit
      // response is written.
      client.request("{\"op\":\"quit\"}");
      return 0;
    } else {
      parmis::require(false, "serve-client: unknown command: " + command);
    }
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace perfbench
