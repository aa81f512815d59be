// JSON-lines front-end for the advisor service: one request object per
// input line, one response object per output line, in request order. Blank
// lines (and end of input) flush the accumulated batch through
// AdvisorService::serve_batch, so a client controls batching by where it
// puts blank lines — stream continuously for latency, batch for
// throughput. This is what turns the one-shot advisor CLI into a
// long-lived stdin/stdout service.
//
// Request schema (all keys optional; defaults are AdvisorRequest's):
//   {"corpus":"","arch":"CPU1","renderer":"raytrace","n_per_task":200,
//    "tasks":32,"image_edge":1024,"budget_seconds":60,"frames":100,
//    "deadline_us":0,"priority":1}
// `corpus` selects which resident calibration corpus answers (empty = the
// server's default); see src/cluster/ for multi-corpus serving.
// `deadline_us` (0 = none) and `priority` (0 most urgent .. 7) are the
// streaming-admission QoS knobs: a cluster serving over stream sessions
// may answer {"ok":false,"shed":true,...} when the deadline cannot be met;
// the plain batch path ignores both.
// Unknown keys, type mismatches, and malformed JSON yield an
// {"ok":false,"error":...} response in that request's slot — loud,
// order-preserving, and non-fatal to the rest of the batch. The full
// schema, with the response fields, is documented in docs/ARCHITECTURE.md.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "serve/advisor.hpp"

namespace isr::serve {

// Parses one request line (a flat JSON object; every schema value is a
// string or a number). On success fills `request` (starting from defaults)
// and returns true; on failure returns false and sets `error`. `line` need
// not outlive the call: the request owns copies of its strings. Beyond
// those copies nothing is allocated unless a string carries escapes or a
// number token runs to 64 bytes or more.
bool parse_request_line(std::string_view line, AdvisorRequest& request, std::string& error);

// Classifies a response line this repo's wire format emitted: kOk for an
// "ok":true line, kShed / kDegraded for error lines carrying the marker
// key, kError otherwise. With to_jsonl this closes the Status round trip
// (status -> bytes -> status), which test_serve pins down.
AdvisorResponse::Status response_line_status(const std::string& line);

// What answers a parsed batch: response[i] for request[i]. The front-end is
// deliberately agnostic about who serves — a single AdvisorService or the
// sharded cluster (src/cluster/) plug in equally, and layering stays
// downward-only (serve never includes cluster).
using BatchHandler =
    std::function<std::vector<AdvisorResponse>(const std::vector<AdvisorRequest>&)>;

// Reads requests from `in` until EOF, serving each blank-line-delimited
// batch through `handler` and writing responses (and a flush) to `out`.
// Returns the number of requests answered, error responses included.
std::size_t run_jsonl(std::istream& in, std::ostream& out, const BatchHandler& handler);

// Convenience overload serving through `service.serve_batch`.
std::size_t run_jsonl(std::istream& in, std::ostream& out, AdvisorService& service);

// Convenience overload owning a fresh service configured by `config`.
std::size_t run_jsonl(std::istream& in, std::ostream& out, ServiceConfig config = {});

}  // namespace isr::serve
