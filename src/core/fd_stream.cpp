#include "core/fd_stream.hpp"

#include <cerrno>

#include <unistd.h>

namespace isr::core {

FdInBuf::int_type FdInBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  const ssize_t n = ::read(fd_, buf_, sizeof(buf_));
  if (n <= 0) return traits_type::eof();  // EOF, error, or EINTR: input ends
  setg(buf_, buf_, buf_ + n);
  return traits_type::to_int_type(*gptr());
}

std::streamsize FdOutBuf::xsputn(const char* s, std::streamsize n) {
  std::streamsize done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd_, s + done, static_cast<std::size_t>(n - done));
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) break;  // the short count sets badbit on the ostream
    done += w;
  }
  return done;
}

FdOutBuf::int_type FdOutBuf::overflow(int_type c) {
  if (traits_type::eq_int_type(c, traits_type::eof())) return traits_type::not_eof(c);
  const char ch = traits_type::to_char_type(c);
  return xsputn(&ch, 1) == 1 ? c : traits_type::eof();
}

}  // namespace isr::core
