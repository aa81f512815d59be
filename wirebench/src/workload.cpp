#include "workload.hpp"

#include <cstdio>
#include <cstdlib>

#include "cluster/cluster.hpp"
#include "serve/advisor.hpp"
#include "serve/jsonl.hpp"

namespace wirebench {

namespace {

const char* const kArchs[] = {"CPU1", "GPU1"};
const char* const kRenderers[] = {"raytrace", "rasterize", "volume"};

// One valid request drawn over the whole configuration space.
std::string random_request(isr::Rng& rng) {
  const char* arch = kArchs[rng.next_u64() % 2];
  const char* renderer = kRenderers[rng.next_u64() % 3];
  const int n = rng.uniform_int(16, 512);
  const int tasks = rng.uniform_int(1, 8192);
  const int edge = rng.uniform_int(64, 4096);
  const int budget_ms = rng.uniform_int(1000, 600000);
  const int frames = rng.uniform_int(1, 2000);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"arch\":\"%s\",\"renderer\":\"%s\",\"n_per_task\":%d,\"tasks\":%d,"
                "\"image_edge\":%d,\"budget_seconds\":%d.%03d,\"frames\":%d}",
                arch, renderer, n, tasks, edge, budget_ms / 1000, budget_ms % 1000, frames);
  return buf;
}

// A line the parser must reject, derived from a valid one.
std::string malformed_request(isr::Rng& rng) {
  std::string line = random_request(rng);
  switch (rng.next_u64() % 7) {
    case 0:  // truncated: a prefix of an object never closes it
      return line.substr(0, 1 + rng.next_u64() % (line.size() - 1));
    case 1:
      return "{\"frame\":10," + line.substr(1);  // unknown key
    case 2:
      return "{\"renderer\":\"raytracer\"}";  // unknown renderer token
    case 3:
      return "{\"tasks\":\"32\"}";  // type mismatch
    case 4:
      return line.substr(0, line.size() - 1) + ",\"arch\":\"CPU1\"}";  // duplicate key
    case 5:
      return "{\"budget_seconds\":1e999}";  // non-finite
    default:
      return line + "x";  // trailing characters
  }
}

std::string unknown_corpus_request(isr::Rng& rng) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "{\"corpus\":\"site-%02d\",",
                static_cast<int>(rng.next_u64() % 100));
  return buf + random_request(rng).substr(1);
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (const Workload w : {Workload::kBulkSweep, Workload::kInsituLoop, Workload::kRecalibrate})
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  return false;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kBulkSweep: return "bulk_sweep";
    case Workload::kInsituLoop: return "insitu_loop";
    case Workload::kRecalibrate: return "recalibrate";
  }
  return "?";
}

void LineTable::add(std::string_view line) {
  bytes_.append(line.data(), line.size());
  start_.push_back(bytes_.size());
}

std::string setup_line() {
  return "{\"arch\":\"CPU1\",\"renderer\":\"raytrace\",\"n_per_task\":200,\"tasks\":32,"
         "\"image_edge\":1024,\"budget_seconds\":60,\"frames\":100}";
}

RequestSet bulk_pool(std::uint64_t seed) {
  isr::Rng rng(isr::hash_seed(seed, std::string("bulk_sweep")));
  RequestSet set;
  set.kinds.reserve(kBulkPool);
  for (std::size_t i = 0; i < kBulkPool; ++i) {
    const std::uint64_t roll = rng.next_u64() % 1000;
    if (roll < 5) {
      set.lines.add(malformed_request(rng));
      set.kinds.push_back(LineKind::kMalformed);
    } else if (roll < 10) {
      set.lines.add(unknown_corpus_request(rng));
      set.kinds.push_back(LineKind::kUnknownCorpus);
    } else {
      set.lines.add(random_request(rng));
      set.kinds.push_back(LineKind::kValid);
    }
  }
  return set;
}

RequestSet hot_set(std::uint64_t seed) {
  isr::Rng rng(isr::hash_seed(seed, std::string("hot_set")));
  RequestSet set;
  for (std::size_t i = 0; i < kHotSet; ++i) {
    set.lines.add(random_request(rng));
    set.kinds.push_back(LineKind::kValid);
  }
  return set;
}

HotDraw::HotDraw(std::uint64_t seed) : rng_(isr::hash_seed(seed, std::string("draws"))) {}

LineTable expected_responses(const RequestSet& set) {
  using isr::serve::AdvisorRequest;
  using isr::serve::AdvisorResponse;
  std::vector<AdvisorResponse> responses(set.lines.size());
  std::vector<AdvisorRequest> valid;
  std::vector<std::size_t> slot;
  for (std::size_t i = 0; i < set.lines.size(); ++i) {
    AdvisorRequest request;
    std::string error;
    const bool parsed = isr::serve::parse_request_line(std::string(set.lines[i]), request, error);
    if ((set.kinds[i] == LineKind::kMalformed) == parsed) {
      // The generator and the parser disagree about this line: the oracle
      // cannot stand in for the service, so nothing can be checked.
      std::fprintf(stderr, "wirebench: oracle cannot classify line %zu: %.*s\n", i,
                   static_cast<int>(set.lines[i].size()), set.lines[i].data());
      std::exit(2);
    }
    if (!parsed) {
      responses[i].status = AdvisorResponse::Status::kError;
      responses[i].error = "parse error: " + error;
    } else if (set.kinds[i] == LineKind::kUnknownCorpus) {
      responses[i].status = AdvisorResponse::Status::kError;
      responses[i].error =
          "unknown corpus \"" + request.corpus + "\" (not resident on this cluster)";
    } else {
      valid.push_back(request);
      slot.push_back(i);
    }
  }
  isr::serve::AdvisorService service;
  const std::vector<AdvisorResponse> served = service.serve_batch(valid);
  for (std::size_t j = 0; j < served.size(); ++j) responses[slot[j]] = served[j];
  LineTable expected;
  for (const AdvisorResponse& r : responses) expected.add(isr::serve::to_jsonl(r));
  return expected;
}

std::vector<LineTable> expected_by_epoch(const RequestSet& hot, std::size_t epochs) {
  std::vector<isr::serve::AdvisorRequest> requests(hot.lines.size());
  for (std::size_t i = 0; i < hot.lines.size(); ++i) {
    std::string error;
    isr::serve::parse_request_line(std::string(hot.lines[i]), requests[i], error);
  }
  isr::cluster::ClusterConfig config;
  config.cache_entries = 0;
  isr::cluster::ServingCluster cluster(std::move(config));
  std::vector<LineTable> tables(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    if (e > 0) {
      cluster.recalibrate("");
      cluster.wait_refits();
    }
    for (const isr::serve::AdvisorResponse& r : cluster.serve_batch(requests))
      tables[e].add(isr::serve::to_jsonl(r));
  }
  return tables;
}

void ResponseCheck::expect(std::string_view got, std::string_view want) {
  if (got == want) return;
  if (failed_++ == 0)
    first_ = "got " + std::string(got.substr(0, 160)) + " want " +
             std::string(want.substr(0, 160));
}

bool oracle_self_check(const LineTable& expected) {
  if (expected.size() == 0) return false;
  const std::size_t victim = expected.size() / 2;
  LineTable corrupted;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    std::string line(expected[i]);
    if (i == victim && !line.empty()) line[line.size() / 2] ^= 0x01;
    corrupted.add(line);
  }
  ResponseCheck intact, broken;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    intact.expect(expected[i], expected[i]);
    broken.expect(expected[i], corrupted[i]);
  }
  return intact.failed() == 0 && broken.failed() == 1;
}

}  // namespace wirebench
