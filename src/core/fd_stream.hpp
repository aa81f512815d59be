// std::streambuf pair over raw file descriptors: the JSON-lines service's
// stdin/stdout. Synchronized std::cin/std::cout pay one locked getc per
// byte; these pay one read(2) per 64 KiB and one write(2) per flush.
//
// Signal contract: FdInBuf treats EINTR like end of input. A SIGINT/SIGTERM
// handler installed without SA_RESTART therefore ends a reader blocked in
// std::getline, so the service's normal EOF path (metrics and trace flush)
// runs. (libstdc++'s basic_filebuf, which sync_with_stdio(false) switches
// std::cin to, retries read on EINTR and would stay blocked.)
#pragma once

#include <streambuf>

namespace isr::core {

// Input: one read(2) per underflow into a 64 KiB buffer; 0 bytes, an error
// or EINTR is end of input.
class FdInBuf : public std::streambuf {
 public:
  explicit FdInBuf(int fd) : fd_(fd) {}

 protected:
  int_type underflow() override;

 private:
  int fd_;
  char buf_[1 << 16];
};

// Output: unbuffered write-through; every put is a write(2) loop that
// retries EINTR and partial writes. Callers batch (run_jsonl writes a
// whole batch of responses in one put).
class FdOutBuf : public std::streambuf {
 public:
  explicit FdOutBuf(int fd) : fd_(fd) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  int_type overflow(int_type c) override;

 private:
  int fd_;
};

}  // namespace isr::core
