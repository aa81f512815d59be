#include "cluster/stream.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace isr::cluster {

std::size_t SessionState::allocate_slot() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) throw std::logic_error("StreamSession: submit after close");
  responses_.emplace_back();
  return responses_.size() - 1;
}

void SessionState::deliver(std::size_t slot, serve::AdvisorResponse&& response) {
  std::lock_guard<std::mutex> lock(mutex_);
  responses_[slot] = std::move(response);
  ++completed_;
  // Only a closing drain ever waits, and only the final delivery can
  // satisfy it — skip the notify on every earlier response.
  if (closed_ && completed_ == responses_.size()) cv_.notify_all();
}

void SessionState::deliver_run(const std::size_t* slots,
                               serve::AdvisorResponse* responses, std::size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < count; ++i)
    responses_[slots[i]] = std::move(responses[i]);
  completed_ += count;
  if (closed_ && completed_ == responses_.size()) cv_.notify_all();
}

std::vector<serve::AdvisorResponse> SessionState::wait_drained() {
  std::unique_lock<std::mutex> lock(mutex_);
  closed_ = true;
  cv_.wait(lock, [&] { return completed_ == responses_.size(); });
  return std::move(responses_);
}

void save_schedule(const AdmissionSchedule& schedule, std::ostream& out) {
  out << "# insitu-perf admission schedule: STREAM SEQ T_US SERVICE_US HIT per line\n";
  for (const AdmissionRecord& r : schedule) {
    // to_chars' shortest form round-trips every double bit-exactly through
    // from_chars, so a replay charges exactly what the recording did.
    char service[32];
    *std::to_chars(service, service + 31, r.service_us).ptr = '\0';
    out << r.stream << ' ' << r.seq << ' ' << r.t_us << ' ' << service << ' '
        << (r.hit ? '1' : '0') << '\n';
  }
}

namespace {

// One whitespace-separated token parsed whole by from_chars ("12x" and ""
// fail instead of truncating); a charge must also be finite and >= 0.
template <typename T>
bool parse_token(const std::string& token, T& value) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if constexpr (std::is_floating_point_v<T>)
    if (!(value >= 0.0) || !std::isfinite(value)) return false;
  return ec == std::errc() && ptr == end;
}

}  // namespace

bool load_schedule(std::istream& in, AdmissionSchedule& schedule, std::string& error) {
  AdmissionSchedule loaded;
  std::string line;
  for (long line_no = 1; std::getline(in, line); ++line_no) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    std::string tok[6];  // five fields; a sixth is trailing garbage
    for (std::string& t : tok) fields >> t;
    AdmissionRecord rec;
    rec.hit = tok[4] == "1";
    if (!parse_token(tok[0], rec.stream) || !parse_token(tok[1], rec.seq) ||
        !parse_token(tok[2], rec.t_us) || !parse_token(tok[3], rec.service_us) ||
        (!rec.hit && tok[4] != "0") || !tok[5].empty()) {
      error = "schedule line " + std::to_string(line_no) +
              ": expected \"STREAM SEQ T_US SERVICE_US HIT\" with a finite, "
              "non-negative charge and HIT 0 or 1 (got \"" + line + "\")";
      return false;
    }
    loaded.push_back(rec);
  }
  schedule = std::move(loaded);
  error.clear();
  return true;
}

}  // namespace isr::cluster
