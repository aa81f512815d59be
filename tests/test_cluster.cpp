// Tests for the serving cluster: canonical request keys, LRU response-cache
// behavior, and — the load-bearing contract — response byte-identity
// across worker counts and cache states, with exactly one registry fit per
// distinct calibration corpus.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cache.hpp"
#include "cluster/cluster.hpp"
#include "cluster/metrics.hpp"
#include "serve/jsonl.hpp"
#include "serve/registry.hpp"

namespace isr::cluster {
namespace {

using serve::AdvisorRequest;
using serve::AdvisorResponse;

// The same fast calibration corpus test_serve uses: 36 observations, fits
// well under a second.
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

ClusterConfig tiny_cluster_config(int shards, std::size_t cache_entries) {
  ClusterConfig cfg;
  cfg.service.calibration = tiny_calibration();
  cfg.shards = shards;
  cfg.cache_entries = cache_entries;
  cfg.batch_size = 4;  // small, so multi-batch coalescing is exercised
  return cfg;
}

// A mixed batch: every arch x renderer x two sizes, plus an error slot —
// the same shape test_serve's identity test uses.
std::vector<AdvisorRequest> mixed_requests() {
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
  return requests;
}

AdvisorResponse ok_response(double frame_seconds) {
  AdvisorResponse r;
  r.status = AdvisorResponse::Status::kOk;
  r.frame_seconds = frame_seconds;
  return r;
}

// --- Canonical request key --------------------------------------------------

TEST(CanonicalKeyTest, DistinguishesEveryField) {
  const AdvisorRequest base;
  const std::string key = canonical_request_key(base);
  AdvisorRequest r = base;
  r.arch = "GPU1";
  EXPECT_NE(canonical_request_key(r), key);
  r = base;
  r.renderer = model::RendererKind::kVolume;
  EXPECT_NE(canonical_request_key(r), key);
  r = base;
  r.n_per_task += 1;
  EXPECT_NE(canonical_request_key(r), key);
  r = base;
  r.tasks += 1;
  EXPECT_NE(canonical_request_key(r), key);
  r = base;
  r.image_edge += 1;
  EXPECT_NE(canonical_request_key(r), key);
  r = base;
  r.budget_seconds += 1e-9;  // exact bit pattern, not a rounded print
  EXPECT_NE(canonical_request_key(r), key);
  r = base;
  r.frames += 1;
  EXPECT_NE(canonical_request_key(r), key);
  // Identical requests share a key.
  EXPECT_EQ(canonical_request_key(base), canonical_request_key(AdvisorRequest{}));
}

TEST(CanonicalKeyTest, IgnoresDeadlineAndPriority) {
  // The QoS fields change WHEN a request is served, never WHAT it answers:
  // a hurried request must hit the cache entry its relaxed twin populated.
  const AdvisorRequest base;
  const std::string key = canonical_request_key(base);
  AdvisorRequest r = base;
  r.deadline_us = 12345;
  EXPECT_EQ(canonical_request_key(r), key);
  r = base;
  r.priority = 0;
  EXPECT_EQ(canonical_request_key(r), key);
  r = base;
  r.deadline_us = 999999;
  r.priority = 7;
  EXPECT_EQ(canonical_request_key(r), key);
}

// --- Response cache ---------------------------------------------------------

TEST(ResponseCacheTest, EvictsLeastRecentlyUsedInOrder) {
  ResponseCache cache(2, /*ways=*/1);  // one way: exact global LRU order
  cache.insert(0, 1, "a", ok_response(1.0));
  cache.insert(0, 1, "b", ok_response(2.0));
  AdvisorResponse out;
  ASSERT_TRUE(cache.lookup(0, 1, "a", out));  // refreshes a: LRU order is now b, a
  EXPECT_DOUBLE_EQ(out.frame_seconds, 1.0);

  cache.insert(0, 1, "c", ok_response(3.0));  // evicts b (least recently used)
  EXPECT_FALSE(cache.lookup(0, 1, "b", out));
  EXPECT_TRUE(cache.lookup(0, 1, "a", out));
  EXPECT_TRUE(cache.lookup(0, 1, "c", out));
  EXPECT_EQ(cache.size(), 2u);

  cache.insert(0, 1, "d", ok_response(4.0));  // now a is LRU (c, a after lookups)
  EXPECT_FALSE(cache.lookup(0, 1, "a", out));
  EXPECT_TRUE(cache.lookup(0, 1, "c", out));
  EXPECT_TRUE(cache.lookup(0, 1, "d", out));
}

TEST(ResponseCacheTest, DisabledCacheNeverHits) {
  ResponseCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.insert(0, 1, "a", ok_response(1.0));
  AdvisorResponse out;
  EXPECT_FALSE(cache.lookup(0, 1, "a", out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResponseCacheTest, PartitionQuotasAreStructural) {
  // 8 entries over 2 partitions: each partition owns 4 slots, and
  // flooding partition 0 with far more keys than the whole cache holds
  // cannot evict a single partition-1 entry — the quota is hard, not an
  // accounting policy (the cross-corpus eviction regression).
  ResponseCache cache(8, /*ways=*/1, /*partitions=*/2);
  EXPECT_EQ(cache.partitions(), 2u);
  EXPECT_EQ(cache.partition_capacity(0), 4u);
  EXPECT_EQ(cache.partition_capacity(1), 4u);
  cache.insert(1, 1, "keep-a", ok_response(1.0));
  cache.insert(1, 1, "keep-b", ok_response(2.0));
  for (int i = 0; i < 64; ++i)
    cache.insert(0, 1, "flood-" + std::to_string(i), ok_response(3.0));
  AdvisorResponse out;
  EXPECT_TRUE(cache.lookup(1, 1, "keep-a", out));
  EXPECT_TRUE(cache.lookup(1, 1, "keep-b", out));
  // The flood stayed inside its own quota.
  EXPECT_LE(cache.size(), cache.partition_capacity(0) + 2);
  // The same key bytes live independently per partition (corpus is part of
  // the canonical key anyway, but the partition alone already isolates).
  EXPECT_FALSE(cache.lookup(0, 1, "keep-a", out));
}

TEST(ResponseCacheTest, EveryPartitionHoldsAtLeastOneEntry) {
  // Fewer entries than partitions: each partition still gets one slot, so
  // a resident corpus is never structurally uncacheable.
  ResponseCache cache(2, /*ways=*/8, /*partitions=*/4);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_GE(cache.partition_capacity(p), 1u) << "partition " << p;
    cache.insert(p, 1, "k", ok_response(1.0));
    AdvisorResponse out;
    EXPECT_TRUE(cache.lookup(p, 1, "k", out)) << "partition " << p;
  }
}

TEST(ResponseCacheTest, EpochScopesHitsAndInvalidation) {
  ResponseCache cache(16, /*ways=*/1, /*partitions=*/2);
  cache.insert(0, 1, "a", ok_response(1.0));
  cache.insert(0, 2, "b", ok_response(2.0));
  cache.insert(1, 1, "c", ok_response(3.0));
  AdvisorResponse out;
  // A lookup pinned to a NEWER epoch misses an older entry and erases it
  // in passing; pinned to an OLDER epoch it misses a newer entry but
  // leaves it (post-swap traffic wants it).
  EXPECT_FALSE(cache.lookup(0, 2, "a", out));  // older entry: erased
  EXPECT_FALSE(cache.lookup(0, 1, "b", out));  // newer entry: left alone
  EXPECT_TRUE(cache.lookup(0, 2, "b", out));
  EXPECT_EQ(cache.size(), 2u);  // a gone, b and c alive

  // invalidate_stale sweeps ONE partition of entries older than the new
  // epoch; the other partition is untouched.
  cache.insert(0, 2, "d", ok_response(4.0));
  EXPECT_EQ(cache.invalidate_stale(0, 3), 2u);  // b and d (epoch 2 < 3)
  EXPECT_EQ(cache.invalidate_stale(0, 3), 0u);  // idempotent
  EXPECT_TRUE(cache.lookup(1, 1, "c", out));    // partition 1 untouched
}

// --- Cluster determinism contract -------------------------------------------

// One registry fit shared by every cluster in the suite: the replication
// contract says shard replicas adopt rather than refit, so a shared primary
// keeps the whole file at a single calibration study.
class ClusterFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    primary_ = std::make_shared<serve::ModelRegistry>();
  }
  static void TearDownTestSuite() { primary_.reset(); }
  static std::shared_ptr<serve::ModelRegistry> primary_;
};

std::shared_ptr<serve::ModelRegistry> ClusterFixture::primary_;

TEST_F(ClusterFixture, NShardResponsesIdenticalToOneShardSerial) {
  const std::vector<AdvisorRequest> requests = mixed_requests();

  ServingCluster reference(tiny_cluster_config(1, 0), primary_);
  const std::vector<AdvisorResponse> expected = reference.serve_batch(requests);
  ASSERT_EQ(expected.size(), requests.size());

  for (const int shards : {2, 3, 4}) {
    ServingCluster cluster(tiny_cluster_config(shards, 0), primary_);
    const std::vector<AdvisorResponse> got = cluster.serve_batch(requests);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(serve::responses_identical(expected[i], got[i]))
          << "shards " << shards << " slot " << i;
      EXPECT_EQ(serve::to_jsonl(expected[i]), serve::to_jsonl(got[i]))
          << "shards " << shards << " slot " << i;
    }
    // One shared fit, never a refit: the suite-wide fit count stays 1.
    EXPECT_EQ(cluster.registry_fits(), 1);
  }
}

TEST_F(ClusterFixture, CacheHitsAreByteIdenticalToMisses) {
  const std::vector<AdvisorRequest> requests = mixed_requests();
  ServingCluster cluster(tiny_cluster_config(3, 256), primary_);

  const std::vector<AdvisorResponse> cold = cluster.serve_batch(requests);  // all misses
  const std::vector<AdvisorResponse> warm = cluster.serve_batch(requests);  // all hits
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_TRUE(serve::responses_identical(cold[i], warm[i])) << "slot " << i;
    EXPECT_EQ(serve::to_jsonl(cold[i]), serve::to_jsonl(warm[i])) << "slot " << i;
  }

  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.queries, static_cast<long>(2 * requests.size()));
  EXPECT_EQ(m.cache_lookups, static_cast<long>(2 * requests.size()));
  EXPECT_EQ(m.cache_hits, static_cast<long>(requests.size()));  // the warm pass
  EXPECT_DOUBLE_EQ(m.cache_hit_rate, 0.5);
  // Hits skip evaluation entirely: shards only ever saw the cold pass.
  long evaluated = 0;
  for (const long q : m.shard_queries) evaluated += q;
  EXPECT_EQ(evaluated, static_cast<long>(requests.size()));
}

TEST_F(ClusterFixture, CacheHitsAcrossDeadlinesAndPriorities) {
  // The canonical key excludes the QoS fields, and admission checks the
  // cache BEFORE the deadline: a hurried twin of a cached request gets the
  // cached answer (byte-identical) instead of an evaluation — or a shed.
  ServingCluster cluster(tiny_cluster_config(2, 64), primary_);
  AdvisorRequest relaxed;
  relaxed.arch = "CPU1";
  relaxed.image_edge = 256;
  const std::vector<AdvisorResponse> cold = cluster.serve_batch({relaxed});
  ASSERT_TRUE(cold[0].ok());

  AdvisorRequest hurried = relaxed;
  hurried.deadline_us = 1;  // live admission would shed this on any backlog
  hurried.priority = 0;
  const std::vector<AdvisorResponse> warm = cluster.serve_batch({hurried});
  EXPECT_TRUE(warm[0].ok());
  EXPECT_FALSE(warm[0].shed());
  EXPECT_EQ(serve::to_jsonl(cold[0]), serve::to_jsonl(warm[0]));

  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.cache_hits, 1);
  EXPECT_EQ(m.shed_queries, 0);
}

TEST_F(ClusterFixture, BackpressureTinyQueueStillCorrect) {
  // A 2-deep queue against a 25-request batch keeps admission blocked on
  // backpressure constantly — responses must still be identical.
  const std::vector<AdvisorRequest> requests = mixed_requests();
  ClusterConfig config = tiny_cluster_config(2, 0);
  config.queue_capacity = 2;
  config.batch_size = 2;
  ServingCluster cluster(std::move(config), primary_);
  const std::vector<AdvisorResponse> got = cluster.serve_batch(requests);

  ServingCluster reference(tiny_cluster_config(1, 0), primary_);
  const std::vector<AdvisorResponse> expected = reference.serve_batch(requests);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_TRUE(serve::responses_identical(expected[i], got[i])) << "slot " << i;
  EXPECT_LE(cluster.metrics().max_queue_depth, 2u);
}

TEST_F(ClusterFixture, MetricsJsonLineHasTheDocumentedShape)  {
  ServingCluster cluster(tiny_cluster_config(2, 64), primary_);
  cluster.serve_batch(mixed_requests());
  const std::string line = cluster.metrics().to_jsonl();
  for (const char* key :
       {"\"shards\":", "\"queries\":", "\"shard_queries\":[",
        "\"corpus_queries\":{\"default\":", "\"unknown_corpus_queries\":",
        "\"bundle_epoch\":{\"default\":", "\"refits\":", "\"lazy_fits\":",
        "\"lazy_fit_ms\":",
        "\"epoch_invalidations\":",
        "\"streams\":", "\"shed_queries\":",
        "\"rebalanced_queries\":0,", "\"cache_lookups\":",
        "\"cache_hits\":", "\"cache_hit_rate\":", "\"batches\":", "\"size_flushes\":",
        "\"deadline_flushes\":", "\"kick_flushes\":", "\"close_flushes\":",
        "\"max_queue_depth\":", "\"queue_wait_us\":{", "\"service_us\":{",
        "\"e2e_us\":{"})
    EXPECT_NE(line.find(key), std::string::npos) << key << " missing from " << line;
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
}

TEST_F(ClusterFixture, JsonlFrontEndRoutesThroughTheCluster) {
  // The same wiring example_feasibility_advisor --serve uses: run_jsonl
  // with the cluster's serve_batch as the batch handler.
  ServingCluster cluster(tiny_cluster_config(2, 64), primary_);
  std::istringstream in(
      "{\"arch\":\"CPU1\",\"renderer\":\"raytrace\",\"image_edge\":256}\n"
      "garbage\n"
      "{\"arch\":\"GPU1\",\"renderer\":\"volume\",\"n_per_task\":24,\"tasks\":2}\n");
  std::ostringstream out;
  const std::size_t answered = serve::run_jsonl(
      in, out, [&cluster](const std::vector<AdvisorRequest>& requests) {
        return cluster.serve_batch(requests);
      });
  EXPECT_EQ(answered, 3u);
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> responses;
  while (std::getline(lines, line)) responses.push_back(line);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_NE(responses[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses[1].find("parse error"), std::string::npos);
  EXPECT_NE(responses[2].find("\"ok\":true"), std::string::npos);
}

TEST_F(ClusterFixture, ConcurrentServeBatchCallersGetCorrectResponses) {
  // serve_batch serializes overlapping batches internally; four threads
  // hammering one cluster must each get the full, correct response vector.
  const std::vector<AdvisorRequest> requests = mixed_requests();
  ServingCluster reference(tiny_cluster_config(1, 0), primary_);
  const std::vector<AdvisorResponse> expected = reference.serve_batch(requests);

  ServingCluster cluster(tiny_cluster_config(2, 64), primary_);
  std::vector<std::vector<AdvisorResponse>> got(4);
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t)
    callers.emplace_back([&cluster, &requests, &got, t] {
      got[static_cast<std::size_t>(t)] = cluster.serve_batch(requests);
    });
  for (std::thread& caller : callers) caller.join();

  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(got[static_cast<std::size_t>(t)].size(), expected.size()) << "caller " << t;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_TRUE(serve::responses_identical(expected[i], got[static_cast<std::size_t>(t)][i]))
          << "caller " << t << " slot " << i;
  }
}

TEST(ClusterTest, EmptyBatchDoesNotTriggerCalibration) {
  ServingCluster cluster(tiny_cluster_config(4, 64));
  EXPECT_TRUE(cluster.serve_batch({}).empty());
  EXPECT_EQ(cluster.registry_fits(), 0);
}

// --- Multi-corpus serving ---------------------------------------------------

// A second tiny corpus: same shape, different seed — a distinct calibration
// fingerprint, so the cluster must fit it separately.
model::StudyConfig tiny_calibration_b() {
  model::StudyConfig cfg = tiny_calibration();
  cfg.seed = 124;
  return cfg;
}

ClusterConfig two_corpus_config(int shards, std::size_t cache_entries) {
  ClusterConfig cfg = tiny_cluster_config(shards, cache_entries);
  CorpusConfig alt;
  alt.name = "alt";
  alt.service.calibration = tiny_calibration_b();
  cfg.corpora.push_back(std::move(alt));
  return cfg;
}

// A batch split across both resident corpora: every request of the mixed
// shape once under the default corpus, once under "alt".
std::vector<AdvisorRequest> two_corpus_requests() {
  std::vector<AdvisorRequest> requests = mixed_requests();
  const std::size_t single = requests.size();
  for (std::size_t i = 0; i < single; ++i) {
    AdvisorRequest req = requests[i];
    req.corpus = "alt";
    requests.push_back(std::move(req));
  }
  return requests;
}

TEST_F(ClusterFixture, UnknownCorpusSelectorGetsInSlotError) {
  ServingCluster cluster(tiny_cluster_config(2, 0), primary_);
  std::vector<AdvisorRequest> requests(3);
  requests[1].corpus = "nope";
  const std::vector<AdvisorResponse> responses = cluster.serve_batch(requests);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_FALSE(responses[1].ok());
  EXPECT_NE(responses[1].error.find("unknown corpus \"nope\""), std::string::npos)
      << responses[1].error;
  EXPECT_TRUE(responses[2].ok());

  // The bad slot never reached the cache or a shard.
  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.queries, 3);
  EXPECT_EQ(m.unknown_corpus_queries, 1);
  long evaluated = 0;
  for (const long q : m.shard_queries) evaluated += q;
  EXPECT_EQ(evaluated, 2);
  EXPECT_EQ(cluster.corpus_fingerprint("nope"), 0u);
}

TEST(MultiCorpusTest, TwoFingerprintsFitExactlyTwiceAtAnyShardCount) {
  // One local primary shared by every cluster in the loop: the two corpora
  // are fitted once each, no matter how many shards (or clusters) serve
  // them, and responses stay byte-identical to the 1-shard serial run.
  const auto primary = std::make_shared<serve::ModelRegistry>();
  const std::vector<AdvisorRequest> requests = two_corpus_requests();

  ServingCluster reference(two_corpus_config(1, 0), primary);
  EXPECT_NE(reference.corpus_fingerprint(""), reference.corpus_fingerprint("alt"));
  EXPECT_EQ(reference.corpora(), 2);
  const std::vector<AdvisorResponse> expected = reference.serve_batch(requests);
  EXPECT_EQ(reference.registry_fits(), 2);

  for (const int shards : {2, 3, 4}) {
    ServingCluster cluster(two_corpus_config(shards, 0), primary);
    const std::vector<AdvisorResponse> got = cluster.serve_batch(requests);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(serve::responses_identical(expected[i], got[i]))
          << "shards " << shards << " slot " << i;
      EXPECT_EQ(serve::to_jsonl(expected[i]), serve::to_jsonl(got[i]))
          << "shards " << shards << " slot " << i;
    }
    EXPECT_EQ(cluster.registry_fits(), 2);
  }

  // The two corpora really are different models: the same request answered
  // under each gives different predictions (distinct calibration seeds).
  const std::size_t single = requests.size() / 2;
  int differing = 0;
  for (std::size_t i = 0; i < single; ++i)
    if (expected[i].ok() && expected[i + single].ok() &&
        serve::to_jsonl(expected[i]) != serve::to_jsonl(expected[i + single]))
      ++differing;
  EXPECT_GT(differing, 0);
}

TEST(MultiCorpusTest, CacheEntriesNeverCollideAcrossCorpora) {
  // Key level: two requests differing only in corpus have distinct
  // canonical keys.
  AdvisorRequest base;
  AdvisorRequest alt = base;
  alt.corpus = "alt";
  EXPECT_NE(canonical_request_key(base), canonical_request_key(alt));

  // Cluster level: a warm multi-corpus pass answers every slot from the
  // cache — and each corpus's slots come back as that corpus's responses,
  // byte-identical to the cold pass.
  const auto primary = std::make_shared<serve::ModelRegistry>();
  const std::vector<AdvisorRequest> requests = two_corpus_requests();
  ServingCluster cluster(two_corpus_config(3, 512), primary);
  const std::vector<AdvisorResponse> cold = cluster.serve_batch(requests);
  const std::vector<AdvisorResponse> warm = cluster.serve_batch(requests);
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i)
    EXPECT_EQ(serve::to_jsonl(cold[i]), serve::to_jsonl(warm[i])) << "slot " << i;

  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.cache_hits, static_cast<long>(requests.size()));  // the warm pass
  ASSERT_EQ(m.corpus_queries.size(), 2u);
  EXPECT_EQ(m.corpus_queries[0].first, "");
  EXPECT_EQ(m.corpus_queries[1].first, "alt");
  EXPECT_EQ(m.corpus_queries[0].second, static_cast<long>(requests.size()));
  EXPECT_EQ(m.corpus_queries[1].second, static_cast<long>(requests.size()));
  EXPECT_EQ(m.unknown_corpus_queries, 0);
}

TEST(MultiCorpusTest, OneCorpusFloodCannotEvictAnotherCorpusEntries) {
  // The cross-corpus eviction regression: the cache is hard-partitioned
  // per corpus, so a flood of distinct default-corpus requests — more than
  // the ENTIRE cache holds — cannot push out "alt"'s warm entries.
  const auto primary = std::make_shared<serve::ModelRegistry>();
  ServingCluster cluster(two_corpus_config(2, 64), primary);
  AdvisorRequest alt_a, alt_b;
  alt_a.corpus = "alt";
  alt_a.image_edge = 256;
  alt_b.corpus = "alt";
  alt_b.image_edge = 512;
  cluster.serve_batch({alt_a, alt_b});  // warm alt's partition

  std::vector<AdvisorRequest> flood;
  for (int i = 0; i < 96; ++i) {  // 96 distinct keys >> 64-entry cache
    AdvisorRequest r;
    r.image_edge = 64 + i;
    flood.push_back(std::move(r));
  }
  cluster.serve_batch(flood);

  const long hits_before = cluster.metrics().cache_hits;
  const std::vector<AdvisorResponse> warm = cluster.serve_batch({alt_a, alt_b});
  EXPECT_TRUE(warm[0].ok());
  EXPECT_TRUE(warm[1].ok());
  EXPECT_EQ(cluster.metrics().cache_hits - hits_before, 2);
}

TEST(MultiCorpusTest, ReservedDuplicateAndEmptyCorpusNamesAreIgnored) {
  ClusterConfig cfg = two_corpus_config(2, 0);
  CorpusConfig dup;  // duplicate of "alt" with a different calibration
  dup.name = "alt";
  dup.service.calibration = tiny_calibration();
  cfg.corpora.push_back(dup);
  CorpusConfig anonymous;  // "" is reserved for the default corpus
  anonymous.service.calibration = tiny_calibration_b();
  cfg.corpora.push_back(anonymous);
  CorpusConfig reserved;  // "default" is the metrics alias of the default
  reserved.name = "default";
  reserved.service.calibration = tiny_calibration_b();
  cfg.corpora.push_back(reserved);
  ServingCluster cluster(std::move(cfg));
  EXPECT_EQ(cluster.corpora(), 2);  // default + the first "alt" only
  EXPECT_EQ(cluster.corpus_fingerprint("alt"),
            serve::ModelRegistry::fingerprint(tiny_calibration_b()));
  EXPECT_EQ(cluster.corpus_fingerprint("default"), 0u);  // not resident
}

TEST(MultiCorpusTest, SharedCalibrationDistinctConstantsStaySeparate) {
  // Two corpora over ONE calibration (one fit) that differ only in mapping
  // constants: the replica key covers the constants, so each corpus's
  // requests evaluate under its own constants — not the first adopter's.
  ClusterConfig cfg = tiny_cluster_config(2, 0);
  CorpusConfig dense;
  dense.name = "dense";
  dense.service.calibration = tiny_calibration();  // same fingerprint
  dense.service.constants.spr_base = 990.0;        // explicit, much denser
  cfg.corpora.push_back(std::move(dense));
  ServingCluster cluster(std::move(cfg));
  EXPECT_EQ(cluster.corpus_fingerprint(""), cluster.corpus_fingerprint("dense"));

  AdvisorRequest volume;  // spr_base feeds the volume model's SPR term
  volume.renderer = model::RendererKind::kVolume;
  AdvisorRequest dense_volume = volume;
  dense_volume.corpus = "dense";
  const std::vector<AdvisorResponse> responses =
      cluster.serve_batch({volume, dense_volume});
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_TRUE(responses[0].ok()) << responses[0].error;
  ASSERT_TRUE(responses[1].ok()) << responses[1].error;
  EXPECT_NE(responses[0].frame_seconds, responses[1].frame_seconds);
  EXPECT_EQ(cluster.registry_fits(), 1);  // one calibration, one fit
}

// --- Percentiles ------------------------------------------------------------

TEST(PercentileTest, NearestRank) {
  const std::vector<double> samples = {5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(samples, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 99.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  // A single sample answers every percentile.
  const std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(one, 50.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(one, 100.0), 7.0);
}

}  // namespace
}  // namespace isr::cluster
