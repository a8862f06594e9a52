#include "net/socket_util.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

namespace randla::net {

namespace {

/// Release `buf`'s capacity when it is empty and holds more than
/// kBufShrinkBytes; a no-op otherwise.
void shrink_if_drained(std::vector<std::uint8_t>& buf) {
  if (buf.empty() && buf.capacity() > kBufShrinkBytes) buf.shrink_to_fit();
}

}  // namespace

void set_nonblocking(int fd) {
  const int fl = fcntl(fd, F_GETFL, 0);
  if (fl >= 0) fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool set_recv_timeout(int fd, double seconds) {
  if (seconds <= 0) return true;
  timeval tv{};
  tv.tv_sec = static_cast<long>(seconds);
  tv.tv_usec = static_cast<long>((seconds - std::floor(seconds)) * 1e6);
  return setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) == 0;
}

bool make_sockaddr_in(const std::string& host, std::uint16_t port,
                      sockaddr_in* out) {
  std::memset(out, 0, sizeof *out);
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  return inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1;
}

int listen_tcp(const std::string& bind_addr, std::uint16_t port, int backlog,
               std::uint16_t* bound_port, std::string* err) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = std::string("socket failed: ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  if (!make_sockaddr_in(bind_addr, port, &addr)) {
    if (err) *err = "bad bind address " + bind_addr;
    close(fd);
    return -1;
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(fd, backlog) != 0) {
    if (err) *err = std::string("bind/listen failed: ") + std::strerror(errno);
    close(fd);
    return -1;
  }
  if (bound_port) {
    sockaddr_in bound{};
    socklen_t blen = sizeof bound;
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) == 0)
      *bound_port = ntohs(bound.sin_port);
  }
  set_nonblocking(fd);
  return fd;
}

int connect_tcp(const std::string& host, std::uint16_t port, std::string* err) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = std::string("socket failed: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr;
  if (!make_sockaddr_in(host, port, &addr)) {
    if (err) *err = "bad host address: " + host;
    close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (err) *err = std::string("connect failed: ") + std::strerror(errno);
    close(fd);
    return -1;
  }
  set_tcp_nodelay(fd);
  return fd;
}

// ---------------------------------------------------------------------

FramedConn& FramedConn::operator=(FramedConn&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(o.fd_, -1);
    rbuf_ = std::move(o.rbuf_);
    wbuf_ = std::move(o.wbuf_);
    roff_ = std::exchange(o.roff_, 0);
    woff_ = std::exchange(o.woff_, 0);
  }
  return *this;
}

FramedConn::~FramedConn() {
  if (fd_ >= 0) ::close(fd_);
}

std::size_t FramedConn::read(bool* eof) {
  std::uint8_t buf[65536];
  const std::size_t before = rbuf_.size();
  *eof = false;
  while (rbuf_.size() - roff_ <= kMaxFrameBytes + kHeaderBytes) {
    const ssize_t n = recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      rbuf_.insert(rbuf_.end(), buf, buf + n);
      continue;
    }
    // EOF or a hard error; what already arrived still parses: a frame
    // followed by an immediate close (e.g. a fire-and-forget Shutdown)
    // must still take effect.
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) *eof = true;
    break;
  }
  return rbuf_.size() - before;
}

HeaderStatus FramedConn::next_frame(FrameHeader* hdr,
                                    const std::uint8_t** frame) {
  const std::size_t avail = rbuf_.size() - roff_;
  HeaderStatus hs = peek_header(rbuf_.data() + roff_, avail, hdr);
  if (hs == HeaderStatus::Ok && avail - kHeaderBytes < hdr->payload_len)
    hs = HeaderStatus::NeedMore;
  if (hs == HeaderStatus::Ok) {
    *frame = rbuf_.data() + roff_;
    roff_ += kHeaderBytes + hdr->payload_len;
  } else if (hs == HeaderStatus::NeedMore) {
    rbuf_.erase(rbuf_.begin(), rbuf_.begin() + roff_);
    roff_ = 0;
    shrink_if_drained(rbuf_);
  }
  return hs;
}

void FramedConn::discard_input() {
  rbuf_.clear();
  roff_ = 0;
  shrink_if_drained(rbuf_);
}

void FramedConn::append(const std::uint8_t* data, std::size_t len) {
  // Compact the flushed prefix first so wbuf_ stays bounded by what is
  // actually pending.
  if (woff_ > 0) {
    wbuf_.erase(wbuf_.begin(), wbuf_.begin() + woff_);
    woff_ = 0;
  }
  wbuf_.insert(wbuf_.end(), data, data + len);
}

FramedConn::Flush FramedConn::flush(std::size_t* sent) {
  const std::size_t start = woff_;
  Flush st = Flush::Ok;
  while (woff_ < wbuf_.size()) {
    const ssize_t n = send(fd_, wbuf_.data() + woff_, wbuf_.size() - woff_,
                           MSG_NOSIGNAL);
    if (n > 0) {
      woff_ += static_cast<std::size_t>(n);
      continue;
    }
    st = (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) ? Flush::Again
                                                              : Flush::Gone;
    break;
  }
  if (sent) *sent = woff_ - start;
  if (st == Flush::Ok) {
    // Fully flushed: drop the sent bytes so an idle connection does not
    // pin the capacity of its largest-ever frame between requests.
    wbuf_.clear();
    woff_ = 0;
    shrink_if_drained(wbuf_);
  }
  return st;
}

// ---------------------------------------------------------------------

bool LoopHost::start(const std::string& bind_addr, std::uint16_t port,
                     const char* who, std::string refusal, Admit admit,
                     std::function<void()> loop) {
  if (started_.load()) return true;
  std::string err;
  listen_fd_ = listen_tcp(bind_addr, port, /*backlog=*/64, &port_, &err);
  int wake[2];
  if (listen_fd_ < 0 || pipe(wake) != 0) {
    std::fprintf(stderr, "%s: %s\n", who,
                 listen_fd_ < 0 ? err.c_str() : "wake pipe failed");
    close_listener();
    return false;
  }
  set_nonblocking(wake[0]);
  {
    std::lock_guard<std::mutex> wl(wake_mu_);
    wake_r_ = wake[0];
    wake_w_ = wake[1];
  }
  refusal_ = encode_error(ErrorReply{0, ErrorCode::ServerFull, refusal});
  admit_ = std::move(admit);
  started_.store(true);
  loop_alive_.store(true);
  thread_ = std::thread([this, loop = std::move(loop)] {
    loop();
    close_listener();
    loop_alive_.store(false);  // the wake pipe stays open until wait()
  });
  return true;
}

void LoopHost::stop() {
  if (!started_.load()) return;
  request_stop();
  wait();
}

void LoopHost::wait() {
  std::lock_guard<std::mutex> lk(join_mu_);
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> wl(wake_mu_);  // the loop is gone
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
  wake_r_ = wake_w_ = -1;
}

void LoopHost::request_stop() {
  stop_requested_.store(true);
  notify();
}

void LoopHost::notify() {
  std::lock_guard<std::mutex> lk(wake_mu_);
  if (wake_w_ < 0) return;
  const char b = 1;
  ssize_t ignored = write(wake_w_, &b, 1);
  (void)ignored;
}

void LoopHost::add_pollfds(std::vector<pollfd>* fds) {
  if (stop_requested()) close_listener();
  if (listen_fd_ >= 0) fds->push_back(pollfd{listen_fd_, POLLIN, 0});
  fds->push_back(pollfd{wake_r_, POLLIN, 0});
}

bool LoopHost::service(const pollfd& p) {
  if (p.fd == wake_r_) {
    char buf[64];
    while (::read(wake_r_, buf, sizeof buf) > 0) {
    }
    return true;
  }
  if (p.fd != listen_fd_) return false;
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) break;
    set_tcp_nodelay(fd);
    if (admit_(fd)) continue;
    // Best-effort typed refusal on the fresh (empty-buffer) socket.
    (void)send(fd, refusal_.data(), refusal_.size(), MSG_NOSIGNAL);
    ::close(fd);
  }
  return true;
}

void LoopHost::close_listener() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace randla::net
