// socket_util.hpp — the socket plumbing shared by net::Server,
// net::Client and cluster::Router.
//
// Every TCP endpoint in the tree needs the same moves: parse a
// dotted-quad into a sockaddr_in, bind+listen a nonblocking listener,
// connect a TCP_NODELAY client socket, flip O_NONBLOCK / SO_RCVTIMEO on
// an fd. Both poll loops (the server's connections and the router's
// downstream and upstream sides) also need one framed nonblocking
// connection — read until EAGAIN, parse frames in place, append,
// flush, give a drained buffer's memory back — and one loop lifecycle
// with the wake pipe that control threads use to interrupt poll(2).
// FramedConn and LoopHost are those two, written once. The free
// helpers are errno-preserving and
// report failure detail through an optional out-string instead of
// stderr so callers decide how loud to be.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/protocol.hpp"

struct pollfd;
struct sockaddr_in;

namespace randla::net {

/// Set O_NONBLOCK on `fd` (best-effort; a failed fcntl is ignored, the
/// caller's poll loop degrades to blocking I/O rather than erroring).
void set_nonblocking(int fd);

/// Disable Nagle on `fd` (request/reply frames must not coalesce).
void set_tcp_nodelay(int fd);

/// Arm SO_RCVTIMEO with fractional seconds; `seconds` ≤ 0 leaves the
/// socket blocking forever. Returns false if setsockopt failed.
bool set_recv_timeout(int fd, double seconds);

/// Fill `out` from a dotted-quad IPv4 address + port. False (without
/// touching errno) on a malformed address.
bool make_sockaddr_in(const std::string& host, std::uint16_t port,
                      sockaddr_in* out);

/// Create + SO_REUSEADDR + bind + listen a nonblocking IPv4 listener.
/// `port` 0 picks an ephemeral port; the port actually bound is written
/// to `bound_port` when non-null. Returns the listening fd, or -1 with
/// a diagnostic in `err` (when non-null).
int listen_tcp(const std::string& bind_addr, std::uint16_t port, int backlog,
               std::uint16_t* bound_port, std::string* err);

/// Blocking IPv4 connect with TCP_NODELAY set. Returns the connected
/// fd, or -1 with a diagnostic in `err` (when non-null). The fd is left
/// blocking; callers that poll it call set_nonblocking() themselves.
int connect_tcp(const std::string& host, std::uint16_t port, std::string* err);

/// Connection buffers grow by doubling to the largest frame ever seen on
/// that connection; a single big upload or result would otherwise pin
/// its capacity for the connection's lifetime. Once a buffer fully
/// drains, capacity above this threshold goes back to the allocator.
inline constexpr std::size_t kBufShrinkBytes = 64 * 1024;

/// One nonblocking, length-prefixed connection of a poll loop (DESIGN.md
/// §8): the fd, the read buffer with its parsed prefix, and the write
/// buffer with its flushed prefix. Owns the fd (closed on destruction).
/// Fault injection, byte accounting and what a frame means stay with
/// the owner; this class only moves bytes and finds frame boundaries.
class FramedConn {
 public:
  enum class Flush { Ok, Again, Gone };  ///< drained / EAGAIN / peer gone

  FramedConn() = default;
  explicit FramedConn(int fd) : fd_(fd) {}
  FramedConn(FramedConn&& o) noexcept { *this = std::move(o); }
  FramedConn& operator=(FramedConn&& o) noexcept;
  ~FramedConn();

  int fd() const { return fd_; }

  /// recv until EAGAIN, EOF/error (sets `*eof`), or more than one
  /// max-size frame buffered (backpressure: the parse loop drains it
  /// first). Returns the bytes read.
  std::size_t read(bool* eof);

  /// The next complete frame in the read buffer. On Ok, `*frame` points
  /// at its header (valid until the next read() or NeedMore) and the
  /// frame counts as consumed. NeedMore ends a burst: the consumed
  /// prefix is compacted away once, here. A bad header is reported
  /// without consuming anything.
  HeaderStatus next_frame(FrameHeader* hdr, const std::uint8_t** frame);

  /// Forget everything buffered for reading (a poisoned connection).
  void discard_input();

  /// Queue bytes for flush(), compacting the flushed prefix first.
  void append(const std::uint8_t* data, std::size_t len);
  void append(const std::vector<std::uint8_t>& frame) {
    append(frame.data(), frame.size());
  }

  /// send until drained (Ok: the buffer is cleared and shrunk), EAGAIN
  /// (Again) or a dead peer (Gone). `*sent` receives the bytes sent.
  Flush flush(std::size_t* sent = nullptr);

  bool pending_write() const { return woff_ < wbuf_.size(); }

  /// Capacity held by both buffers, for checking the shrink-on-drain rule.
  std::size_t capacity() const { return rbuf_.capacity() + wbuf_.capacity(); }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> rbuf_, wbuf_;
  std::size_t roff_ = 0;  ///< parsed prefix of rbuf_
  std::size_t woff_ = 0;  ///< flushed prefix of wbuf_
};

/// The lifecycle of a poll-loop service (net::Server, cluster::Router):
/// listener, wake self-pipe, loop thread, stop/wait. The owner keeps its poll
/// set, conns and counters; its loop polls add_pollfds() with its own
/// fds, offers each ready fd to service() first, and drains once
/// stop_requested() (the listener is closed by then).
class LoopHost {
 public:
  LoopHost() = default;
  LoopHost(const LoopHost&) = delete;  // the loop thread holds `this`
  LoopHost& operator=(const LoopHost&) = delete;
  ~LoopHost() { stop(); }

  /// Take a fresh socket (nonblocking, TCP_NODELAY) or return false:
  /// the host then sends Error(ServerFull, refusal) and closes it.
  using Admit = std::function<bool(int fd)>;

  /// Listen on bind_addr:port (0 = ephemeral) and run `loop` on its own
  /// thread; the listener closes again when `loop` returns. False, with
  /// the reason on stderr after `who`, if binding failed. Idempotent.
  bool start(const std::string& bind_addr, std::uint16_t port,
             const char* who, std::string refusal, Admit admit,
             std::function<void()> loop);
  void stop();          ///< request_stop(), then wait()
  void wait();          ///< join the loop (any thread, any number of times)
  void request_stop();  ///< any thread, the loop's own included
  bool stop_requested() const { return stop_requested_.load(); }
  bool running() const { return loop_alive_.load(); }
  std::uint16_t port() const { return port_; }
  void notify();  ///< interrupt the loop's poll(2); any thread

  // Loop thread only:
  /// Wake pipe + listener (closed for good once a stop is requested).
  void add_pollfds(std::vector<pollfd>* fds);
  /// True when `p` was the listener (accepted) or the wake pipe (drained).
  bool service(const pollfd& p);

 private:
  void close_listener();

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  /// Wake pipe. notify() and its close in wait() share wake_mu_, so no
  /// wake byte is written to an fd being closed; it closes post-join.
  std::mutex wake_mu_;
  int wake_r_ = -1, wake_w_ = -1;
  std::vector<std::uint8_t> refusal_;  ///< encoded ServerFull frame
  Admit admit_;
  std::thread thread_;
  std::atomic<bool> started_{false}, loop_alive_{false}, stop_requested_{false};
  std::mutex join_mu_;
};

}  // namespace randla::net
