#include "serve/jsonl.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "core/env.hpp"

namespace isr::serve {

namespace {

// The schema's ten keys; a parsed line's `seen` set is a bitmask over them.
constexpr std::string_view kKeys[] = {"corpus", "arch", "renderer", "n_per_task", "tasks",
                                      "image_edge", "budget_seconds", "frames",
                                      "deadline_us", "priority"};
enum Key { kCorpus, kArch, kRenderer, kNPerTask, kTasks, kImageEdge, kBudgetSeconds,
           kFrames, kDeadlineUs, kPriority, kUnknownKey };

Key key_index(std::string_view key) {
  for (int k = 0; k < kUnknownKey; ++k)
    if (kKeys[k] == key) return static_cast<Key>(k);
  return kUnknownKey;
}

// A minimal scanner for the wire format: one flat JSON object per line,
// values restricted to strings and numbers. Hand-rolled because
// the repo takes no external dependencies and the schema is fixed — this
// is a parser for ten known keys, not a JSON library. It allocates nothing
// on the common path: strings come back as views into the line.
struct Scanner {
  const char* p;
  const char* end;
  std::string scratch;  // decoded form of the current string, when it has escapes

  explicit Scanner(std::string_view s) : p(s.data()), end(s.data() + s.size()) {}

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  }

  bool eat(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }

  // On success `out` views the line, or `scratch` when the string has
  // escapes — valid until the next parse_string.
  bool parse_string(std::string_view& out, std::string& error) {
    if (!eat('"')) {
      error = "expected string";
      return false;
    }
    const char* start = p;
    while (p < end && *p != '"' && *p != '\\') ++p;
    if (p < end && *p == '"') {
      out = std::string_view(start, static_cast<std::size_t>(p++ - start));
      return true;
    }
    scratch.assign(start, p);
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) break;
        switch (*p) {
          case '"': scratch += '"'; break;
          case '\\': scratch += '\\'; break;
          case '/': scratch += '/'; break;
          case 'b': scratch += '\b'; break;
          case 'f': scratch += '\f'; break;
          case 'n': scratch += '\n'; break;
          case 'r': scratch += '\r'; break;
          case 't': scratch += '\t'; break;
          default: error = "unsupported string escape"; return false;
        }
        ++p;
      } else {
        scratch += *p++;
      }
    }
    if (p >= end) {
      error = "unterminated string";
      return false;
    }
    ++p;  // closing quote
    out = scratch;
    return true;
  }

  bool parse_number(double& out, std::string& error) {
    skip_ws();
    const char* start = p;
    // Consume alphabetic characters too, so non-finite spellings ("nan",
    // "NaN", "inf", "Infinity", "1e999") form one token and earn the
    // precise rejection below rather than a generic parse failure at the
    // stray letters.
    while (p < end &&
           (*p == '-' || *p == '+' || *p == '.' || (*p >= '0' && *p <= '9') ||
            (*p >= 'a' && *p <= 'z') || (*p >= 'A' && *p <= 'Z')))
      ++p;
    // strtod needs a terminated token: a stack copy, the heap only for
    // tokens no real number spells.
    const std::size_t len = static_cast<std::size_t>(p - start);
    char small[64];
    std::string large;
    if (len < sizeof(small)) *std::copy(start, p, small) = '\0';
    else large.assign(start, len);
    const core::ParseStatus status =
        core::parse_double(len < sizeof(small) ? small : large.c_str(), out);
    if (status == core::ParseStatus::kNotFinite) {
      error = "must be finite (NaN/Infinity and overflowing values are rejected)";
      return false;
    }
    if (status != core::ParseStatus::kOk) {
      error = "expected number";
      return false;
    }
    return true;
  }
};

bool parse_int_value(Scanner& sc, Key key, int& out, std::string& error) {
  double v = 0.0;
  if (!sc.parse_number(v, error)) {
    error = std::string(kKeys[key]) + ": " + error;
    return false;
  }
  if (v != std::floor(v) || v < -2147483648.0 || v > 2147483647.0) {
    error = std::string(kKeys[key]) + ": expected an integer";
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

}  // namespace

bool parse_request_line(std::string_view line, AdvisorRequest& request, std::string& error) {
  AdvisorRequest req;  // schema defaults; assigned to `request` only on success
  Scanner sc(line);
  if (!sc.eat('{')) {
    error = "expected a JSON object";
    return false;
  }
  if (!sc.eat('}')) {  // non-empty object: key:value pairs
    unsigned seen = 0;  // bit k: kKeys[k] already given (unknown keys error first)
    do {
      std::string_view key;
      if (!sc.parse_string(key, error)) return false;
      const Key k = key_index(key);
      // Duplicate keys are as silent a failure mode as unknown ones: a
      // request-builder bug merging defaults with overrides would get
      // last-wins semantics and a confidently wrong prediction.
      if (k != kUnknownKey && (seen & (1u << k))) {
        error = "duplicate key \"" + std::string(key) + "\"";
        return false;
      }
      if (k != kUnknownKey) seen |= 1u << k;
      if (!sc.eat(':')) {
        error = std::string(key) + ": expected ':'";
        return false;
      }
      std::string_view text;
      if (k == kCorpus || k == kArch) {
        if (!sc.parse_string(text, error)) {
          error = std::string(kKeys[k]) + ": " + error;
          return false;
        }
        (k == kCorpus ? req.corpus : req.arch).assign(text.data(), text.size());
      } else if (k == kRenderer) {
        if (!sc.parse_string(text, error)) {
          error = "renderer: " + error;
          return false;
        }
        if (!renderer_from_token(text, req.renderer)) {
          error = "renderer: unknown token \"" + std::string(text) +
                  "\" (expected raytrace, rasterize, or volume)";
          return false;
        }
      } else if (k == kNPerTask) {
        if (!parse_int_value(sc, k, req.n_per_task, error)) return false;
      } else if (k == kTasks) {
        if (!parse_int_value(sc, k, req.tasks, error)) return false;
      } else if (k == kImageEdge) {
        if (!parse_int_value(sc, k, req.image_edge, error)) return false;
      } else if (k == kFrames) {
        if (!parse_int_value(sc, k, req.frames, error)) return false;
      } else if (k == kBudgetSeconds) {
        if (!sc.parse_number(req.budget_seconds, error)) {
          error = "budget_seconds: " + error;
          return false;
        }
      } else if (k == kDeadlineUs) {
        // Streaming QoS (src/cluster/): 0 = no deadline. Negative budgets
        // are a client bug, not "very urgent" — reject loudly.
        int v = 0;
        if (!parse_int_value(sc, k, v, error)) return false;
        if (v < 0) {
          error = "deadline_us: must be >= 0";
          return false;
        }
        req.deadline_us = v;
      } else if (k == kPriority) {
        int v = 0;
        if (!parse_int_value(sc, k, v, error)) return false;
        if (v < 0 || v > 7) {
          error = "priority: must be in 0..7 (0 most urgent)";
          return false;
        }
        req.priority = v;
      } else {
        // Strict schema: a typo'd key must not silently fall back to a
        // default (the same loud-over-silent stance core/env takes).
        error = "unknown key \"" + std::string(key) + "\"";
        return false;
      }
    } while (sc.eat(','));
    if (!sc.eat('}')) {
      error = "expected ',' or '}'";
      return false;
    }
  }
  sc.skip_ws();
  if (sc.p != sc.end) {
    error = "trailing characters after object";
    return false;
  }
  request = std::move(req);
  return true;
}

AdvisorResponse::Status response_line_status(const std::string& line) {
  // The wire format is fixed (to_jsonl): ok lines open {"ok":true, error
  // lines open {"ok":false, with the shed/degraded marker key (in that
  // order) directly after — so prefix checks classify without a parse.
  if (line.rfind("{\"ok\":true,", 0) == 0) return AdvisorResponse::Status::kOk;
  if (line.rfind("{\"ok\":false,\"shed\":true,", 0) == 0) return AdvisorResponse::Status::kShed;
  if (line.rfind("{\"ok\":false,\"shed\":true,\"degraded\":true,", 0) == 0 ||
      line.rfind("{\"ok\":false,\"degraded\":true,", 0) == 0)
    return AdvisorResponse::Status::kDegraded;
  return AdvisorResponse::Status::kError;
}

namespace {

// Serves one accumulated batch: parse failures get error responses in
// their slots, everything else goes through the handler, and responses
// come out in request order. `wire` is the caller-owned serialization
// buffer: every line appends into it (to_jsonl's zero-copy form) and the
// batch leaves through one ostream write — the buffer's capacity survives
// across flushes, so a steady-state stream serializes without allocating.
std::size_t flush_batch(const std::string& lines, const std::vector<std::size_t>& ends,
                        const BatchHandler& handler, std::ostream& out, std::string& wire) {
  const std::size_t n = ends.size();
  std::vector<AdvisorResponse> responses(n);
  std::vector<AdvisorRequest> valid;
  std::vector<std::size_t> slot;
  valid.reserve(n);
  slot.reserve(n);
  std::string error;
  for (std::size_t i = 0, begin = 0; i < n; begin = ends[i++]) {
    const std::string_view line(lines.data() + begin, ends[i] - begin);
    AdvisorRequest req;
    if (parse_request_line(line, req, error)) {
      valid.push_back(std::move(req));
      slot.push_back(i);
    } else {
      responses[i].status = AdvisorResponse::Status::kError;
      responses[i].error = "parse error: " + error;
    }
  }
  std::vector<AdvisorResponse> served = handler(valid);
  for (std::size_t j = 0; j < served.size() && j < slot.size(); ++j)
    responses[slot[j]] = std::move(served[j]);
  wire.clear();
  for (const AdvisorResponse& r : responses) {
    to_jsonl(r, wire);
    wire += '\n';
  }
  out.write(wire.data(), static_cast<std::streamsize>(wire.size()));
  out.flush();
  return responses.size();
}

}  // namespace

std::size_t run_jsonl(std::istream& in, std::ostream& out, const BatchHandler& handler) {
  std::size_t answered = 0;
  // The batch's lines back to back, line i ending at ends[i]: both keep
  // their capacity across batches, so framing allocates nothing per line.
  std::string lines;
  std::vector<std::size_t> ends;
  std::string line;
  std::string wire;  // reused serialization buffer, one per stream
  while (std::getline(in, line)) {
    const bool blank = line.find_first_not_of(" \t\r") == std::string::npos;
    if (blank) {
      if (!ends.empty()) {
        answered += flush_batch(lines, ends, handler, out, wire);
        lines.clear();
        ends.clear();
      }
      continue;
    }
    lines += line;
    ends.push_back(lines.size());
  }
  if (!ends.empty()) answered += flush_batch(lines, ends, handler, out, wire);
  return answered;
}

std::size_t run_jsonl(std::istream& in, std::ostream& out, AdvisorService& service) {
  return run_jsonl(in, out, [&service](const std::vector<AdvisorRequest>& requests) {
    return service.serve_batch(requests);
  });
}

std::size_t run_jsonl(std::istream& in, std::ostream& out, ServiceConfig config) {
  AdvisorService service(std::move(config));
  return run_jsonl(in, out, service);
}

}  // namespace isr::serve
