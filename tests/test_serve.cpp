// Tests for the serving layer: registry fingerprinting and cache-hit
// behavior, the typed advisor API, batch-vs-serial response identity at
// any thread count, and the JSON-lines front-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/fd_stream.hpp"

#include "math/rng.hpp"
#include "serve/advisor.hpp"
#include "serve/jsonl.hpp"
#include "serve/registry.hpp"

namespace isr::serve {
namespace {

// A calibration corpus small enough that a registry fit costs well under a
// second: 1 sim x 2 tasks x 3 samples x 2 archs x 3 renderers = 36 obs.
model::StudyConfig tiny_calibration() {
  model::StudyConfig cfg;
  cfg.archs = {"CPU1", "GPU1"};
  cfg.sims = {"cloverleaf"};
  cfg.tasks = {1, 2};
  cfg.samples_per_config = 3;
  cfg.min_image = 96;
  cfg.max_image = 192;
  cfg.min_n = 16;
  cfg.max_n = 28;
  cfg.vr_samples = 120;
  cfg.sim_steps = 1;
  cfg.seed = 123;
  return cfg;
}

ServiceConfig tiny_service_config(int threads = 0) {
  ServiceConfig cfg;
  cfg.calibration = tiny_calibration();
  cfg.threads = threads;
  return cfg;
}

// One service and one registry shared by the suite, so the calibration
// corpus is fitted once for all the serving tests (the registry's own
// point, exercised for real in the dedicated registry tests below).
class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    registry_ = std::make_shared<ModelRegistry>();
    service_ = new AdvisorService(tiny_service_config(), registry_);
  }
  static void TearDownTestSuite() {
    delete service_;
    service_ = nullptr;
    registry_.reset();
  }
  static AdvisorService* service_;
  static std::shared_ptr<ModelRegistry> registry_;
};

AdvisorService* ServeFixture::service_ = nullptr;
std::shared_ptr<ModelRegistry> ServeFixture::registry_;

// --- Registry ---------------------------------------------------------------

TEST(ModelRegistryTest, FitsOncePerFingerprintAndCaches) {
  ModelRegistry registry;
  EXPECT_EQ(registry.fits(), 0);
  const FittedModels& first = registry.models_for(tiny_calibration());
  EXPECT_EQ(registry.fits(), 1);
  EXPECT_EQ(first.corpus_size, 36u);
  EXPECT_EQ(first.entries.size(), 6u);  // 2 archs x 3 renderers

  // Same config again: cache hit, same bundle, no refit.
  const FittedModels& again = registry.models_for(tiny_calibration());
  EXPECT_EQ(registry.fits(), 1);
  EXPECT_EQ(&first, &again);

  // A corpus-shaping change is a different fingerprint and a refit.
  model::StudyConfig changed = tiny_calibration();
  changed.seed = 124;
  registry.models_for(changed);
  EXPECT_EQ(registry.fits(), 2);
}

TEST(ModelRegistryTest, FingerprintCoversCorpusShapeButNotThreads) {
  const model::StudyConfig base = tiny_calibration();
  const std::uint64_t h = ModelRegistry::fingerprint(base);

  // run_study guarantees thread-count invariance of the corpus, so a config
  // differing only in worker count must hit the same cache entry.
  model::StudyConfig threaded = base;
  threaded.threads = 7;
  EXPECT_EQ(ModelRegistry::fingerprint(threaded), h);

  model::StudyConfig other = base;
  other.min_image = base.min_image + 1;
  EXPECT_NE(ModelRegistry::fingerprint(other), h);
  other = base;
  other.sims = {"cloverleaf", "lulesh"};
  EXPECT_NE(ModelRegistry::fingerprint(other), h);
  other = base;
  other.renderers = {model::RendererKind::kRayTrace};
  EXPECT_NE(ModelRegistry::fingerprint(other), h);
  other = base;
  other.tasks = {1, 4};
  EXPECT_NE(ModelRegistry::fingerprint(other), h);
}

TEST(ModelRegistryTest, FindReturnsNullForUnfittedCombination) {
  ModelRegistry registry;
  model::StudyConfig cfg = tiny_calibration();
  cfg.archs = {"CPU1"};
  cfg.renderers = {model::RendererKind::kRayTrace};
  const FittedModels& fitted = registry.models_for(cfg);
  EXPECT_NE(fitted.find("CPU1", model::RendererKind::kRayTrace), nullptr);
  EXPECT_EQ(fitted.find("GPU1", model::RendererKind::kRayTrace), nullptr);
  EXPECT_EQ(fitted.find("CPU1", model::RendererKind::kVolume), nullptr);
}

// --- Typed advisor API ------------------------------------------------------

TEST_F(ServeFixture, AnswersAFeasibilityQuery) {
  AdvisorRequest req;
  req.arch = "CPU1";
  req.renderer = model::RendererKind::kRayTrace;
  req.n_per_task = 100;
  req.tasks = 8;
  req.image_edge = 512;
  req.budget_seconds = 60.0;
  const AdvisorResponse resp = service_->serve_one(req);
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_GT(resp.frame_seconds, 0.0);
  EXPECT_GT(resp.build_seconds, 0.0);  // ray tracing pays a BVH build
  EXPECT_GT(resp.images_in_budget, 0);
  ASSERT_TRUE(resp.has_verdict);
  EXPECT_GT(resp.rt_seconds, 0.0);
  EXPECT_GT(resp.rast_seconds, 0.0);
  EXPECT_NEAR(resp.ratio, resp.rast_seconds / resp.rt_seconds, 1e-12);
  EXPECT_EQ(resp.prefer_ray_tracing, resp.ratio > 1.0);
}

TEST_F(ServeFixture, MoreBudgetNeverMeansFewerImages) {
  AdvisorRequest req;
  req.n_per_task = 100;
  req.tasks = 8;
  req.image_edge = 512;
  long previous = -1;
  for (const double budget : {0.0, 10.0, 60.0, 600.0}) {
    req.budget_seconds = budget;
    const AdvisorResponse resp = service_->serve_one(req);
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_GE(resp.images_in_budget, previous) << "budget " << budget;
    previous = resp.images_in_budget;
  }
}

TEST_F(ServeFixture, UnknownArchAndInvalidValuesAreLoudErrors) {
  AdvisorRequest req;
  req.arch = "TPU9";
  AdvisorResponse resp = service_->serve_one(req);
  EXPECT_FALSE(resp.ok());
  EXPECT_NE(resp.error.find("TPU9"), std::string::npos);
  EXPECT_EQ(resp.images_in_budget, 0);

  req = AdvisorRequest{};
  req.tasks = 0;
  resp = service_->serve_one(req);
  EXPECT_FALSE(resp.ok());
  EXPECT_NE(resp.error.find("tasks"), std::string::npos);

  req = AdvisorRequest{};
  req.budget_seconds = -1.0;
  EXPECT_FALSE(service_->serve_one(req).ok());

  // An absurd but non-negative budget is answerable: the count saturates
  // (model/feasibility.*) rather than overflowing to a negative.
  req = AdvisorRequest{};
  req.budget_seconds = 1e30;
  const AdvisorResponse huge = service_->serve_one(req);
  ASSERT_TRUE(huge.ok()) << huge.error;
  EXPECT_EQ(huge.images_in_budget, std::numeric_limits<long>::max());
}

TEST_F(ServeFixture, BatchMatchesSerialBitForBitAtAnyThreadCount) {
  // A mixed batch: every arch x renderer, several sizes, one error slot.
  std::vector<AdvisorRequest> requests;
  for (const std::string arch : {"CPU1", "GPU1"}) {
    for (const model::RendererKind kind :
         {model::RendererKind::kRayTrace, model::RendererKind::kRasterize,
          model::RendererKind::kVolume}) {
      for (const int edge : {256, 1024}) {
        AdvisorRequest req;
        req.arch = arch;
        req.renderer = kind;
        req.image_edge = edge;
        requests.push_back(req);
      }
    }
  }
  AdvisorRequest bad;
  bad.arch = "nope";
  requests.push_back(bad);

  // Serial reference: serve_one in a loop on the shared (fitted) service.
  std::vector<AdvisorResponse> serial;
  for (const AdvisorRequest& req : requests) serial.push_back(service_->serve_one(req));

  // Batched at several thread counts, answering from the fixture's
  // registry: the same fitted models, no refits, only the fan-out varies.
  for (const int threads : {1, 3, 4}) {
    AdvisorService service(tiny_service_config(threads), registry_);
    const std::vector<AdvisorResponse> batched = service.serve_batch(requests);
    ASSERT_EQ(batched.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(responses_identical(serial[i], batched[i])) << "slot " << i;
      EXPECT_EQ(to_jsonl(serial[i]), to_jsonl(batched[i])) << "slot " << i;
    }
  }
}

TEST_F(ServeFixture, AnswerBatchMatchesAnswerRequestAtEveryBatchSize) {
  // The redesign's core contract: answer_batch is a pure function of
  // (fitted models, constants, request[i]) — batch composition and chunk
  // boundaries cannot change a byte. Reference = the single-item wrapper.
  const FittedModels& fitted = registry_->models_for(tiny_calibration());
  const model::MappingConstants& constants = service_->config().constants;

  std::vector<AdvisorRequest> requests;
  for (const std::string arch : {"CPU1", "GPU1", "TPU9"}) {
    for (const model::RendererKind kind :
         {model::RendererKind::kRayTrace, model::RendererKind::kRasterize,
          model::RendererKind::kVolume}) {
      for (const int edge : {128, 512, 2048}) {
        for (const double budget : {0.0, 5.0, 300.0}) {
          AdvisorRequest req;
          req.arch = arch;
          req.renderer = kind;
          req.image_edge = edge;
          req.budget_seconds = budget;
          req.frames = edge / 2;
          requests.push_back(req);
        }
      }
    }
  }
  // Invalid slots interleaved mid-batch: validation errors must stay
  // in-slot no matter which group their neighbors land in.
  AdvisorRequest bad;
  bad.tasks = 0;
  requests.insert(requests.begin() + 5, bad);
  bad = AdvisorRequest{};
  bad.budget_seconds = -2.0;
  requests.push_back(bad);

  std::vector<AdvisorResponse> reference;
  for (const AdvisorRequest& req : requests)
    reference.push_back(answer_request(fitted, constants, req));

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  requests.size()}) {
    // Contiguous overload, one scratch reused across every chunk.
    EvalScratch scratch;
    std::vector<AdvisorResponse> batched(requests.size());
    for (std::size_t begin = 0; begin < requests.size(); begin += chunk) {
      const std::size_t n = std::min(chunk, requests.size() - begin);
      answer_batch(fitted, constants, requests.data() + begin, n,
                   batched.data() + begin, scratch);
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(responses_identical(reference[i], batched[i]))
          << "chunk " << chunk << " slot " << i;
      EXPECT_EQ(to_jsonl(reference[i]), to_jsonl(batched[i]))
          << "chunk " << chunk << " slot " << i;
    }

    // Gather form over the same chunking: pointer indirection is the
    // cluster shard's path and must agree byte for byte too.
    EvalScratch gather_scratch;
    std::vector<AdvisorResponse> gathered(requests.size());
    std::vector<const AdvisorRequest*> rp(requests.size());
    std::vector<AdvisorResponse*> sp(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      rp[i] = &requests[i];
      sp[i] = &gathered[i];
    }
    for (std::size_t begin = 0; begin < requests.size(); begin += chunk) {
      const std::size_t n = std::min(chunk, requests.size() - begin);
      answer_batch(fitted, constants, rp.data() + begin, n, sp.data() + begin,
                   gather_scratch);
    }
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_TRUE(responses_identical(reference[i], gathered[i]))
          << "gather chunk " << chunk << " slot " << i;
  }
}

TEST_F(ServeFixture, EvalScratchArenaStopsGrowingAfterWarmup) {
  // The zero-allocation steady state: one warmup batch sizes the arena;
  // every identical batch after that bumps pointers inside the same
  // chunks. Capacity and chunk count must be flat after warmup, and each
  // batch must start from a rewound arena (same bytes used every time).
  const FittedModels& fitted = registry_->models_for(tiny_calibration());
  const model::MappingConstants& constants = service_->config().constants;

  std::vector<AdvisorRequest> requests(64);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].arch = i % 2 ? "CPU1" : "GPU1";
    requests[i].renderer = static_cast<model::RendererKind>(i % 3);
    requests[i].image_edge = 128 << (i % 4);
  }
  std::vector<AdvisorResponse> responses(requests.size());

  EvalScratch scratch;
  answer_batch(fitted, constants, requests.data(), requests.size(),
               responses.data(), scratch);
  const std::size_t warm_capacity = scratch.arena.capacity();
  const std::size_t warm_chunks = scratch.arena.chunk_count();
  const std::size_t warm_used = scratch.arena.used();
  EXPECT_GT(warm_capacity, 0u);
  EXPECT_GT(warm_used, 0u);

  for (int round = 0; round < 16; ++round) {
    answer_batch(fitted, constants, requests.data(), requests.size(),
                 responses.data(), scratch);
    EXPECT_EQ(scratch.arena.capacity(), warm_capacity) << "round " << round;
    EXPECT_EQ(scratch.arena.chunk_count(), warm_chunks) << "round " << round;
    // Rewound between batches: a same-shaped batch hands out the same
    // bytes, not an accumulating total.
    EXPECT_EQ(scratch.arena.used(), warm_used) << "round " << round;
  }

  // Smaller batches after warmup must fit inside the warmed capacity too.
  answer_batch(fitted, constants, requests.data(), 7, responses.data(), scratch);
  EXPECT_EQ(scratch.arena.capacity(), warm_capacity);
  EXPECT_LT(scratch.arena.used(), warm_used);
}

TEST(AdvisorServiceTest, SprBaseFollowsCalibrationSamplingDensity) {
  // Construction is lazy (no fit), so these are cheap. The default
  // spr_base sentinel derives from vr_samples so an overridden calibration
  // density keeps the §5.8 SPR mapping consistent with the corpus.
  AdvisorService derived(tiny_service_config());  // vr_samples = 120
  EXPECT_DOUBLE_EQ(derived.config().constants.spr_base, 0.93 * 120);

  ServiceConfig pinned = tiny_service_config();
  pinned.constants.spr_base = 42.0;  // explicit value wins
  AdvisorService pinned_service(std::move(pinned));
  EXPECT_DOUBLE_EQ(pinned_service.config().constants.spr_base, 42.0);
}

TEST(AdvisorServiceTest, EmptyBatchDoesNotTriggerCalibration) {
  AdvisorService service(tiny_service_config());
  EXPECT_TRUE(service.serve_batch({}).empty());
  EXPECT_EQ(service.registry().fits(), 0);
}

TEST(AdvisorServiceTest, SharedRegistryFitsOnlyOnce) {
  const auto registry = std::make_shared<ModelRegistry>();
  AdvisorService serial(tiny_service_config(1), registry);
  AdvisorService parallel(tiny_service_config(4), registry);
  serial.serve_one(AdvisorRequest{});
  parallel.serve_one(AdvisorRequest{});
  EXPECT_EQ(registry->fits(), 1);
}

// --- Wire format ------------------------------------------------------------

TEST(JsonlParse, AcceptsFullPartialAndEmptyObjects) {
  AdvisorRequest req;
  std::string error;
  ASSERT_TRUE(parse_request_line(
      R"({"corpus":"titan","arch":"GPU1","renderer":"volume","n_per_task":80,"tasks":4,)"
      R"("image_edge":256,"budget_seconds":12.5,"frames":7})",
      req, error))
      << error;
  EXPECT_EQ(req.corpus, "titan");
  EXPECT_EQ(req.arch, "GPU1");
  EXPECT_EQ(req.renderer, model::RendererKind::kVolume);
  EXPECT_EQ(req.n_per_task, 80);
  EXPECT_EQ(req.tasks, 4);
  EXPECT_EQ(req.image_edge, 256);
  EXPECT_DOUBLE_EQ(req.budget_seconds, 12.5);
  EXPECT_EQ(req.frames, 7);

  // Unset keys keep the schema defaults — an absent corpus selects the
  // server's default corpus (empty string).
  req = AdvisorRequest{};
  ASSERT_TRUE(parse_request_line(R"({"renderer":"rasterize"})", req, error)) << error;
  EXPECT_EQ(req.renderer, model::RendererKind::kRasterize);
  EXPECT_EQ(req.corpus, "");
  EXPECT_EQ(req.arch, "CPU1");
  EXPECT_EQ(req.tasks, 32);

  ASSERT_TRUE(parse_request_line("{}", req, error)) << error;
  ASSERT_TRUE(parse_request_line("  { \"tasks\" : 16 }  ", req, error)) << error;
  EXPECT_EQ(req.tasks, 16);
}

TEST(JsonlParse, RejectsMalformedInputWithReasons) {
  AdvisorRequest req;
  const AdvisorRequest defaults;
  std::string error;
  EXPECT_FALSE(parse_request_line("not json", req, error));
  EXPECT_FALSE(parse_request_line(R"({"unknown_key":1})", req, error));
  EXPECT_NE(error.find("unknown_key"), std::string::npos);
  EXPECT_FALSE(parse_request_line(R"({"tasks":"eight"})", req, error));
  EXPECT_FALSE(parse_request_line(R"({"tasks":4.5})", req, error));
  EXPECT_NE(error.find("integer"), std::string::npos);
  EXPECT_FALSE(parse_request_line(R"({"renderer":"opengl"})", req, error));
  EXPECT_FALSE(parse_request_line(R"({"tasks":8,"tasks":64})", req, error));
  EXPECT_NE(error.find("duplicate key"), std::string::npos);
  EXPECT_FALSE(parse_request_line(R"({"arch":"CPU1")", req, error));  // no closing brace
  EXPECT_FALSE(parse_request_line(R"({"arch":"CPU1"} trailing)", req, error));
  // A failed parse must not half-mutate the request.
  EXPECT_EQ(req.arch, defaults.arch);
  EXPECT_EQ(req.tasks, defaults.tasks);
}

TEST(JsonlService, ServesBatchesInOrderWithErrorSlots) {
  std::istringstream in(
      "{\"arch\":\"CPU1\",\"renderer\":\"raytrace\",\"image_edge\":256}\n"
      "garbage\n"
      "{\"arch\":\"GPU1\",\"renderer\":\"volume\",\"n_per_task\":24,\"tasks\":2}\n"
      "\n"
      "{\"renderer\":\"rasterize\"}\n");
  std::ostringstream out;
  AdvisorService service(tiny_service_config());
  const std::size_t answered = run_jsonl(in, out, service);
  EXPECT_EQ(answered, 4u);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> responses;
  while (std::getline(lines, line)) responses.push_back(line);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_NE(responses[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses[0].find("\"images_in_budget\":"), std::string::npos);
  EXPECT_NE(responses[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(responses[1].find("parse error"), std::string::npos);
  EXPECT_NE(responses[2].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses[3].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses[3].find("\"recommendation\":\""), std::string::npos);
}

TEST(JsonlService, ResponseLinesMatchServeOneByteForByte) {
  AdvisorService service(tiny_service_config());
  AdvisorRequest req;
  req.arch = "GPU1";
  req.renderer = model::RendererKind::kRasterize;
  req.image_edge = 640;
  const std::string expected = to_jsonl(service.serve_one(req));

  std::istringstream in(R"({"arch":"GPU1","renderer":"rasterize","image_edge":640})");
  std::ostringstream out;
  run_jsonl(in, out, service);
  EXPECT_EQ(out.str(), expected + "\n");
}

TEST(JsonlFormat, ErrorResponsesEscapeJsonMetacharacters) {
  AdvisorResponse r;
  r.status = AdvisorResponse::Status::kError;
  r.error = "bad \"value\"\nwith\\slash";
  EXPECT_EQ(to_jsonl(r),
            "{\"ok\":false,\"error\":\"bad \\\"value\\\"\\u000awith\\\\slash\"}");

  // Every control byte 0x00-0x1f leaves as \u00xx with lowercase hex; the
  // bytes around the range pass through.
  for (int c = 0; c < 0x20; ++c) {
    r.error = std::string("<") + static_cast<char>(c) + ">";
    char want[64];
    std::snprintf(want, sizeof(want), "{\"ok\":false,\"error\":\"<\\u%04x>\"}", c);
    EXPECT_EQ(to_jsonl(r), want) << "byte " << c;
  }
  r.error = std::string(" \x7f\xc3\xa9");
  EXPECT_EQ(to_jsonl(r), "{\"ok\":false,\"error\":\" \x7f\xc3\xa9\"}");
}

TEST(JsonlFormat, DegradedMarkerPrecedesTheErrorAndIsPartOfIdentity) {
  // The fault-tolerance wire contract (src/cluster/): a response the
  // cluster could not answer within its retry budget carries an explicit
  // "degraded":true marker clients can branch on without parsing the text.
  AdvisorResponse r;
  r.status = AdvisorResponse::Status::kDegraded;
  r.error = "degraded: retry budget exhausted after 3 attempts";
  EXPECT_EQ(to_jsonl(r),
            "{\"ok\":false,\"degraded\":true,"
            "\"error\":\"degraded: retry budget exhausted after 3 attempts\"}");

  // An ordinary error with the same text is a DIFFERENT response.
  AdvisorResponse plain;
  plain.status = AdvisorResponse::Status::kError;
  plain.error = r.error;
  EXPECT_FALSE(responses_identical(r, plain));
  EXPECT_TRUE(responses_identical(r, r));
}

TEST(JsonlFormat, StatusRoundTripsThroughWireLines) {
  // The typed Status must survive serialization: to_jsonl emits the
  // marker key for each status and response_line_status reads it back, so
  // cluster metrics classifying replayed wire lines agree with the enum
  // the server held. (The wire bytes themselves are the pre-enum format.)
  AdvisorResponse ok;
  ok.status = AdvisorResponse::Status::kOk;
  ok.frame_seconds = 0.25;
  EXPECT_EQ(response_line_status(to_jsonl(ok)), AdvisorResponse::Status::kOk);

  AdvisorResponse shed;
  shed.status = AdvisorResponse::Status::kShed;
  shed.error = "shed: estimated completion 12ms exceeds deadline 5ms";
  const std::string shed_line = to_jsonl(shed);
  EXPECT_EQ(shed_line.find("{\"ok\":false,\"shed\":true,"), 0u) << shed_line;
  EXPECT_EQ(response_line_status(shed_line), AdvisorResponse::Status::kShed);

  AdvisorResponse degraded;
  degraded.status = AdvisorResponse::Status::kDegraded;
  degraded.error = "degraded: retry budget exhausted";
  const std::string degraded_line = to_jsonl(degraded);
  EXPECT_EQ(degraded_line.find("{\"ok\":false,\"degraded\":true,"), 0u) << degraded_line;
  EXPECT_EQ(response_line_status(degraded_line), AdvisorResponse::Status::kDegraded);

  AdvisorResponse error;
  error.status = AdvisorResponse::Status::kError;
  error.error = "unknown arch";
  EXPECT_EQ(response_line_status(to_jsonl(error)), AdvisorResponse::Status::kError);

  // status_name gives metrics one spelling per status.
  EXPECT_STREQ(status_name(AdvisorResponse::Status::kOk), "ok");
  EXPECT_STREQ(status_name(AdvisorResponse::Status::kShed), "shed");
  EXPECT_STREQ(status_name(AdvisorResponse::Status::kDegraded), "degraded");
  EXPECT_STREQ(status_name(AdvisorResponse::Status::kError), "error");
}

TEST(JsonlFormat, AppendFormReusesTheCallerBuffer) {
  // The zero-copy serializer appends — never clears — so a flush loop can
  // build one wire buffer across a whole batch, and a warmed buffer
  // serializes without reallocating.
  AdvisorResponse r;
  r.status = AdvisorResponse::Status::kError;
  r.error = "e";
  std::string wire = "prefix\n";
  to_jsonl(r, wire);
  EXPECT_EQ(wire, "prefix\n{\"ok\":false,\"error\":\"e\"}");
  EXPECT_EQ(wire.substr(7), to_jsonl(r));

  wire.clear();
  wire.reserve(4096);
  const std::size_t warm_capacity = wire.capacity();
  for (int i = 0; i < 8; ++i) {
    wire.clear();
    to_jsonl(r, wire);
    wire += '\n';
  }
  EXPECT_EQ(wire.capacity(), warm_capacity);
}

// --- Non-finite budgets (every entry point) ---------------------------------

TEST(JsonlParse, NonFiniteBudgetSpellingsAreRejectedWithOneLineReasons) {
  // Every spelling a client could smuggle a non-finite budget in as — NaN,
  // infinities, and overflow-to-inf exponents — must die in the parser with
  // a reason naming the key, never reach the advisor as a double.
  AdvisorRequest req;
  std::string error;
  for (const char* line :
       {R"({"budget_seconds":nan})", R"({"budget_seconds":NaN})",
        R"({"budget_seconds":inf})", R"({"budget_seconds":Infinity})",
        R"({"budget_seconds":-Infinity})", R"({"budget_seconds":1e999})"}) {
    EXPECT_FALSE(parse_request_line(line, req, error)) << line;
    EXPECT_NE(error.find("budget_seconds"), std::string::npos) << line << ": " << error;
    EXPECT_NE(error.find("must be finite"), std::string::npos) << line << ": " << error;
  }
}

TEST_F(ServeFixture, NonFiniteBudgetsAreRejectedBeforeEvaluation) {
  // The C++ API can be handed values the wire parser never admits; the
  // advisor must reject them before the float->long images-in-budget cast
  // (+inf passes ">= 0" and the cast would be UB).
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    AdvisorRequest req;
    req.budget_seconds = bad;
    const AdvisorResponse resp = service_->serve_one(req);
    EXPECT_FALSE(resp.ok());
    EXPECT_NE(resp.error.find("budget_seconds must be finite"), std::string::npos)
        << resp.error;
  }
}

TEST(JsonlService, NonFiniteBudgetGetsAnInSlotErrorResponse) {
  // End to end through the batch front-end: the poisoned line earns an
  // in-slot error while its neighbors are answered normally.
  std::istringstream in(
      "{\"renderer\":\"raytrace\",\"image_edge\":128}\n"
      "{\"budget_seconds\":Infinity}\n"
      "{\"renderer\":\"rasterize\",\"image_edge\":128}\n");
  std::ostringstream out;
  AdvisorService service(tiny_service_config());
  EXPECT_EQ(run_jsonl(in, out, service), 3u);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> responses;
  while (std::getline(lines, line)) responses.push_back(line);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_NE(responses[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(responses[1].find("must be finite"), std::string::npos);
  EXPECT_NE(responses[2].find("\"ok\":true"), std::string::npos);
}


// --- Golden wire digest -------------------------------------------------------

// FNV-1a over a byte string: the digest the golden wire test pins.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : bytes) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
  return h;
}

// One number spelled one of several ways the wire accepts (or, for the
// fractional spellings of integer keys, rejects).
std::string spell_number(Rng& rng, long v) {
  char buf[64];
  switch (rng.next_u64() % 6) {
    case 0: std::snprintf(buf, sizeof(buf), "%ld.0", v); break;
    case 1: std::snprintf(buf, sizeof(buf), "%lde0", v); break;
    case 2: std::snprintf(buf, sizeof(buf), "+%ld", v); break;
    default: std::snprintf(buf, sizeof(buf), "%ld", v); break;
  }
  return buf;
}

// A request line over the whole schema: every key present with
// probability 1/2, keys in a shuffled order, optional whitespace around
// every token. It parses unless a value draw lands outside a key's range
// (those lines exercise the range errors).
std::string golden_request(Rng& rng) {
  static const char* const kKeys[] = {"corpus", "arch",   "renderer",       "n_per_task",
                                      "tasks",  "image_edge", "budget_seconds", "frames",
                                      "deadline_us", "priority"};
  static const char* const kWs[] = {"", "", "", " ", "\t", " \t "};
  int order[10];
  for (int i = 0; i < 10; ++i) order[i] = i;
  for (int i = 9; i > 0; --i) std::swap(order[i], order[rng.next_u64() % (i + 1)]);
  const auto ws = [&rng] { return std::string(kWs[rng.next_u64() % 6]); };
  std::string line = ws() + "{";
  bool first = true;
  for (const int k : order) {
    if (rng.next_u64() % 2) continue;
    if (!first) line += ws() + ",";
    first = false;
    line += ws() + "\"" + kKeys[k] + "\"" + ws() + ":" + ws();
    char buf[64];
    switch (k) {
      case 0: line += rng.next_u64() % 2 ? "\"\"" : "\"site-7\""; break;
      case 1: line += rng.next_u64() % 8 ? (rng.next_u64() % 2 ? "\"CPU1\"" : "\"GPU1\"")
                                         : "\"TPU9\"";
        break;
      case 2: {
        static const char* const kRenderers[] = {"\"raytrace\"", "\"rasterize\"", "\"volume\""};
        line += kRenderers[rng.next_u64() % 3];
        break;
      }
      case 3: line += spell_number(rng, rng.uniform_int(-2, 512)); break;
      case 4: line += spell_number(rng, rng.uniform_int(0, 8192)); break;
      case 5: line += spell_number(rng, rng.uniform_int(64, 4096)); break;
      case 6:
        switch (rng.next_u64() % 4) {
          case 0: std::snprintf(buf, sizeof(buf), "%.17g", rng.next_double() * 600.0); break;
          case 1: std::snprintf(buf, sizeof(buf), "%de-3", rng.uniform_int(0, 600000)); break;
          case 2: std::snprintf(buf, sizeof(buf), "%.3e", rng.next_double() * 1e4); break;
          default: std::snprintf(buf, sizeof(buf), "%d", rng.uniform_int(-1, 600)); break;
        }
        line += buf;
        break;
      case 7: line += spell_number(rng, rng.uniform_int(0, 2000)); break;
      case 8: line += spell_number(rng, rng.uniform_int(-1, 100000)); break;
      default: line += spell_number(rng, rng.uniform_int(-1, 8)); break;
    }
  }
  return line + ws() + "}" + ws();
}

// Every malformed kind test_serve and the wirebench generator know, plus
// escapes in keys and values, number tokens of 64 bytes and more, and
// unknown keys with no ':'.
std::string golden_malformed(Rng& rng) {
  const std::string valid = golden_request(rng);
  const std::string zeros70(70, '0');
  const std::string digits100(100, '7');
  switch (rng.next_u64() % 48) {
    case 0: return "not json";
    case 1: return R"({"unknown_key":1})";
    case 2: return R"({"tasks":"eight"})";
    case 3: return R"({"tasks":4.5})";
    case 4: return R"({"renderer":"opengl"})";
    case 5: return R"({"tasks":8,"tasks":64})";
    case 6: return R"({"arch":"CPU1")";
    case 7: return R"({"arch":"CPU1"} trailing)";
    case 8: return R"({"budget_seconds":nan})";
    case 9: return R"({"budget_seconds":NaN})";
    case 10: return R"({"budget_seconds":inf})";
    case 11: return R"({"budget_seconds":Infinity})";
    case 12: return R"({"budget_seconds":-Infinity})";
    case 13: return R"({"budget_seconds":1e999})";
    case 14: return valid.substr(0, 1 + rng.next_u64() % valid.size());
    case 15: return "{\"frame\":10," + valid.substr(valid.find('{') + 1);
    case 16: return R"({"renderer":"raytracer"})";
    case 17: return R"({"tasks":"32"})";
    case 18: return R"({"arch":"GPU1","tasks":2,"arch":"CPU1"})";
    case 19: return valid + "x";
    case 20: return R"({"bogus"})";
    case 21: return R"({"bogus" 1})";
    case 22: return R"({"tasks" 5})";
    case 23: return R"({"ta\tsks":1})";
    case 24: return R"({"a\"b":1})";
    case 25: return R"({"x\\":1,"tasks":2})";
    case 26: return R"({"\u0041":1})";
    case 27: return R"({"arch":"CP\"U1\/\b\f\n\r\t\\"})";
    case 28: return R"({"corpus":"a\\b\/c\n","renderer":"ray\/trace"})";
    case 29: return R"({"arch":"CPU1\q"})";
    case 30: return R"({"arch":"CPU1\)";
    case 31: return "{\"budget_seconds\":0." + zeros70 + "1}";
    case 32: return "{\"tasks\":" + digits100 + "}";
    case 33: return "{\"n_per_task\":" + zeros70 + "32}";
    case 34: return "{\"frames\":1e" + digits100 + "}";
    case 35: return "{\"budget_seconds\":" + digits100 + "abc" + digits100 + "}";
    case 36: return R"({"tasks":})";
    case 37: return R"({"tasks":1,})";
    case 38: return R"({:1})";
    case 39: return R"({"tasks":0x20,"frames":-.})";
    case 40: return R"({"deadline_us":-1})";
    case 41: return R"({"priority":8})";
    case 42: return R"({"tasks":2147483648})";
    case 43: return R"({"tasks":-2147483648})";
    case 44: {
      static const char kRaw[] = "{\"arch\":\"C\0P\x01\x1f\x7f\xc3\xa9\"}";
      return std::string(kRaw, sizeof(kRaw) - 1);
    }
    case 45: return "[]";
    case 46: return R"({"tasks":12}})";
    default: return R"({"corpus":12})";
  }
}

// A few thousand lines in blank-line-delimited batches: valid and
// malformed requests, LF and CRLF endings, whitespace-only separators, and
// a last line without a newline.
std::string golden_wire_input() {
  Rng rng(hash_seed(20161117, std::string("golden-wire")));
  static const char* const kSeparators[] = {"", " ", "\t", " \t \r", "\r"};
  std::string input;
  for (int batch = 0; batch < 160; ++batch) {
    const int lines = rng.uniform_int(1, 40);
    for (int i = 0; i < lines; ++i) {
      input += rng.next_u64() % 4 == 0 ? golden_malformed(rng) : golden_request(rng);
      input += rng.next_u64() % 3 == 0 ? "\r\n" : "\n";
    }
    input += kSeparators[rng.next_u64() % 5];
    input += rng.next_u64() % 3 == 0 ? "\r\n" : "\n";
  }
  input += R"({"renderer":"volume","tasks":3})";
  return input;
}

constexpr std::size_t kGoldenAnswered = 3054;
constexpr std::uint64_t kGoldenDigest = 0xaa876417e860dc3eull;

TEST(JsonlService, GoldenWireDigestIsUnchanged) {
  // Pins every response byte of the wire front end (parse errors and
  // their order of checks, escaping, number formatting, framing) to the
  // digest the snprintf-era serializer and std::string parser produced.
  const std::string input = golden_wire_input();
  std::istringstream in(input);
  std::ostringstream out;
  AdvisorService service(tiny_service_config());
  const std::size_t answered = run_jsonl(in, out, service);
  const std::string wire = out.str();
  EXPECT_EQ(answered, kGoldenAnswered);
  EXPECT_EQ(fnv1a(wire), kGoldenDigest) << std::hex << "digest 0x" << fnv1a(wire);
}

// --- Serializer identity --------------------------------------------------------

// The snprintf serializer to_jsonl replaced, kept here as the reference
// its ok lines must match byte for byte.
std::string printf_jsonl(const AdvisorResponse& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"ok\":true,\"frame_seconds\":%.9g,\"build_seconds\":%.9g,"
                "\"images_in_budget\":%ld,\"has_verdict\":%s,\"rt_seconds\":%.9g,"
                "\"rast_seconds\":%.9g,\"ratio\":%.9g,\"recommendation\":\"%s\"}",
                r.frame_seconds, r.build_seconds, r.images_in_budget,
                r.has_verdict ? "true" : "false", r.rt_seconds, r.rast_seconds, r.ratio,
                r.has_verdict ? (r.prefer_ray_tracing ? "raytrace" : "rasterize") : "");
  return buf;
}

TEST(JsonlFormat, ToCharsSerializerMatchesPrintfByteForByte) {
  using limits = std::numeric_limits<double>;
  // Edge values: signed zeros, the denormal and finite extremes, the
  // fixed/exponent switch points of %.9g (exponent below -4, at or above
  // the precision 9), exact binary ties at the ninth significant digit,
  // and the non-finite values a diverging model could still produce.
  std::vector<double> values = {0.0,
                                limits::denorm_min(),
                                limits::min(),
                                std::nextafter(limits::min(), 0.0),
                                limits::max(),
                                1e-5,
                                std::nextafter(1e-5, 0.0),
                                std::nextafter(1e-5, 1.0),
                                1e-4,
                                std::nextafter(1e-4, 0.0),
                                std::nextafter(1e-4, 1.0),
                                9.999999995e-5,
                                9.9999999949e-5,
                                1e9,
                                std::nextafter(1e9, 0.0),
                                std::nextafter(1e9, 2e9),
                                999999999.5,
                                999999998.5,
                                123456789.5,
                                123456788.5,
                                99999999.25,
                                12345678.75,
                                0.5,
                                1.0,
                                0.1,
                                1.0 / 3.0,
                                6.02214076e23,
                                limits::infinity(),
                                limits::quiet_NaN()};
  const std::size_t edges = values.size();
  for (std::size_t i = 0; i < edges; ++i) values.push_back(-values[i]);
  // 2M finite doubles from random bit patterns: every exponent, both signs.
  Rng rng(hash_seed(7, std::string("to_chars-identity")));
  while (values.size() < edges * 2 + 2000000) {
    const std::uint64_t bits = rng.next_u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) values.push_back(v);
  }
  const long longs[] = {std::numeric_limits<long>::min(), std::numeric_limits<long>::max(),
                        0, -1, 1, 17588};
  AdvisorResponse r;
  r.status = AdvisorResponse::Status::kOk;
  std::string line;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < values.size(); i += 5) {
    const auto at = [&](std::size_t k) { return values[(i + k) % values.size()]; };
    r.frame_seconds = at(0);
    r.build_seconds = at(1);
    r.rt_seconds = at(2);
    r.rast_seconds = at(3);
    r.ratio = at(4);
    r.images_in_budget = i / 5 < 6 ? longs[i / 5] : static_cast<long>(rng.next_u64());
    r.has_verdict = (i / 5) % 3 != 0;
    r.prefer_ray_tracing = (i / 5) % 2 == 0;
    line.clear();
    to_jsonl(r, line);
    const std::string want = printf_jsonl(r);
    if (line != want && ++mismatches <= 5) ADD_FAILURE() << "got  " << line << "\nwant " << want;
  }
  EXPECT_EQ(mismatches, 0u);
}

// --- Seeded parser fuzz ---------------------------------------------------------

// The canonical form of a parsed request: every key, fixed order, strings
// escaped with the escapes the parser decodes, budget at round-trip
// precision.
std::string canonical_line(const AdvisorRequest& r) {
  const auto quoted = [](const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default: out += c;
      }
    }
    return out + "\"";
  };
  char numbers[256];
  std::snprintf(numbers, sizeof(numbers),
                ",\"n_per_task\":%d,\"tasks\":%d,\"image_edge\":%d,\"budget_seconds\":%.17g,"
                "\"frames\":%d,\"deadline_us\":%ld,\"priority\":%d}",
                r.n_per_task, r.tasks, r.image_edge, r.budget_seconds, r.frames,
                r.deadline_us, r.priority);
  return "{\"corpus\":" + quoted(r.corpus) + ",\"arch\":" + quoted(r.arch) +
         ",\"renderer\":\"" + renderer_token(r.renderer) + "\"" + numbers;
}

bool fields_identical(const AdvisorRequest& a, const AdvisorRequest& b) {
  return a.corpus == b.corpus && a.arch == b.arch && a.renderer == b.renderer &&
         a.n_per_task == b.n_per_task && a.tasks == b.tasks && a.image_edge == b.image_edge &&
         std::memcmp(&a.budget_seconds, &b.budget_seconds, sizeof(double)) == 0 &&
         a.frames == b.frames && a.deadline_us == b.deadline_us && a.priority == b.priority;
}

TEST(JsonlParse, SeededMutationFuzzNeverCrashesAndRoundTripsCanonically) {
  // Deterministic mutations of valid lines: byte flips, truncations, and
  // inserted backslashes, quotes, digits and letters. The parser must not
  // crash (the sanitizer build runs this), must leave the request untouched
  // on rejection, and every accepted line must reparse from its canonical
  // re-serialization to the same fields.
  Rng rng(hash_seed(13, std::string("parser-fuzz")));
  AdvisorRequest sentinel;
  sentinel.corpus = "untouched";
  sentinel.tasks = -12345;
  std::size_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 60000; ++iter) {
    std::string line = rng.next_u64() % 4 == 0 ? golden_malformed(rng) : golden_request(rng);
    const int mutations = rng.uniform_int(0, 4);
    for (int m = 0; m < mutations && !line.empty(); ++m) {
      const std::size_t at = rng.next_u64() % line.size();
      switch (rng.next_u64() % 6) {
        case 0: line[at] = static_cast<char>(line[at] ^ (1 << (rng.next_u64() % 8))); break;
        case 1: line.resize(at); break;
        case 2: line.insert(at, 1, '\\'); break;
        case 3: line.insert(at, 1, '"'); break;
        case 4: line.insert(at, 1, static_cast<char>('0' + rng.next_u64() % 10)); break;
        default: line.insert(at, 1, static_cast<char>('a' + rng.next_u64() % 26)); break;
      }
    }
    AdvisorRequest parsed = sentinel;
    std::string error;
    if (!parse_request_line(line, parsed, error)) {
      ++rejected;
      ASSERT_FALSE(error.empty()) << line;
      ASSERT_TRUE(fields_identical(parsed, sentinel)) << "rejection mutated: " << line;
      continue;
    }
    ++accepted;
    const std::string canonical = canonical_line(parsed);
    AdvisorRequest reparsed = sentinel;
    ASSERT_TRUE(parse_request_line(canonical, reparsed, error))
        << line << "\n -> " << canonical << ": " << error;
    ASSERT_TRUE(fields_identical(parsed, reparsed)) << line << "\n -> " << canonical;
  }
  // Both outcomes must be well represented, or the mutations are too
  // weak (or too strong) to probe anything.
  EXPECT_GT(accepted, 5000u);
  EXPECT_GT(rejected, 5000u);
}

TEST(JsonlService, GoldenWireDigestHoldsOverFdStreams) {
  // The service's own transport: the same input through a pipe into
  // core::FdInBuf and out of core::FdOutBuf through a second pipe.
  const std::string input = golden_wire_input();
  int in_pipe[2], out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  std::thread feeder([&] {
    core::FdOutBuf buf(in_pipe[1]);
    std::ostream(&buf).write(input.data(), static_cast<std::streamsize>(input.size()));
    ::close(in_pipe[1]);
  });
  std::string wire;
  std::thread drainer([&] {
    char chunk[4096];
    ssize_t n;
    while ((n = ::read(out_pipe[0], chunk, sizeof(chunk))) > 0)
      wire.append(chunk, static_cast<std::size_t>(n));
  });
  std::size_t answered = 0;
  {
    core::FdInBuf in_buf(in_pipe[0]);
    core::FdOutBuf out_buf(out_pipe[1]);
    std::istream in(&in_buf);
    std::ostream out(&out_buf);
    AdvisorService service(tiny_service_config());
    answered = run_jsonl(in, out, service);
    EXPECT_TRUE(out.good());
  }
  ::close(out_pipe[1]);
  feeder.join();
  drainer.join();
  ::close(in_pipe[0]);
  ::close(out_pipe[0]);
  EXPECT_EQ(answered, kGoldenAnswered);
  EXPECT_EQ(fnv1a(wire), kGoldenDigest) << std::hex << "digest 0x" << fnv1a(wire);
}

}  // namespace
}  // namespace isr::serve
