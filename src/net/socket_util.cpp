#include "net/socket_util.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
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

bool WakePipe::open() {
  int fds[2];
  if (pipe(fds) != 0) return false;
  set_nonblocking(fds[0]);
  std::lock_guard<std::mutex> lk(mu_);
  r_ = fds[0];
  w_ = fds[1];
  return true;
}

void WakePipe::notify() {
  std::lock_guard<std::mutex> lk(mu_);
  if (w_ < 0) return;
  const char b = 1;
  ssize_t ignored = write(w_, &b, 1);
  (void)ignored;
}

void WakePipe::drain() {
  char buf[64];
  while (::read(r_, buf, sizeof buf) > 0) {
  }
}

void WakePipe::close() {
  std::lock_guard<std::mutex> lk(mu_);
  if (r_ >= 0) ::close(r_);
  if (w_ >= 0) ::close(w_);
  r_ = w_ = -1;
}

}  // namespace randla::net
