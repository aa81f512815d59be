#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <vector>

#include "cluster/cluster.hpp"
#include "comm/comm.hpp"
#include "comm/compositor.hpp"
#include "conduit/blueprint.hpp"
#include "conduit/node.hpp"
#include "core/thread_pool.hpp"
#include "dpp/device.hpp"
#include "dpp/profiles.hpp"
#include "math/camera.hpp"
#include "math/colormap.hpp"
#include "mesh/external_faces.hpp"
#include "model/study.hpp"
#include "render/image.hpp"
#include "render/rast/rasterizer.hpp"
#include "render/rt/raytracer.hpp"
#include "render/vr/volume.hpp"
#include "serve/advisor.hpp"
#include "serve/jsonl.hpp"
#include "serve/registry.hpp"
#include "sims/cloverleaf.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace wirebench {

namespace {

using isr::serve::AdvisorRequest;
using isr::serve::AdvisorResponse;

// The workload's batches, as indices into the oracle's request lines: the
// same shape the wire run sends (1024-line pool batches, single hot-set
// requests, or 32-request hot-set cycles).
std::vector<std::vector<std::size_t>> batches_of(Workload workload, std::uint64_t seed,
                                                 std::size_t count) {
  std::vector<std::vector<std::size_t>> batches(count);
  HotDraw draw(seed);
  for (std::size_t b = 0; b < count; ++b) {
    if (workload == Workload::kBulkSweep) {
      const std::size_t base = (b * kBulkBatch) % kBulkPool;
      for (std::size_t j = 0; j < kBulkBatch; ++j) batches[b].push_back(base + j);
    } else {
      const std::size_t n = workload == Workload::kInsituLoop ? 1 : kRecalCycle;
      for (std::size_t j = 0; j < n; ++j) batches[b].push_back(draw.next());
    }
  }
  return batches;
}

// Batches per in-process pass: about 16K requests, or one refit period.
std::size_t pass_batches(Workload workload) {
  switch (workload) {
    case Workload::kBulkSweep: return 16;
    case Workload::kInsituLoop: return 2000;
    case Workload::kRecalibrate: return static_cast<std::size_t>(kRecalEvery) / kRecalCycle;
  }
  return 1;
}

// The service's batch handler, as the advisor example wires it: the
// cluster answers the batch, and with a recalibration cadence every
// kRecalEvery served requests trigger recalibrate + wait_refits.
class Handler {
 public:
  Handler(isr::cluster::ServingCluster& cluster, SpanRecorder& rec, long recal_every)
      : cluster_(cluster), rec_(rec), recal_every_(recal_every) {}

  std::vector<AdvisorResponse> operator()(const std::vector<AdvisorRequest>& requests,
                                          std::uint64_t id) {
    std::vector<AdvisorResponse> responses;
    {
      ScopedSpan span(rec_, "cluster.serve_batch", id);
      responses = cluster_.serve_batch(requests);
    }
    served_ += static_cast<long>(requests.size());
    if (recal_every_ > 0 && served_ >= recal_every_) {
      served_ = 0;
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan span(rec_, "cluster.recalibrate", id);
        cluster_.recalibrate("");
        cluster_.wait_refits();
      }
      recal_ns_ += now_ns() - t0;
    }
    return responses;
  }

  // Wall time spent in recalibrations so far (traced or not).
  std::int64_t recal_ns() const { return recal_ns_; }

 private:
  isr::cluster::ServingCluster& cluster_;
  SpanRecorder& rec_;
  long recal_every_;
  long served_ = 0;
  std::int64_t recal_ns_ = 0;
};

// One pass of the workload through the steps run_jsonl takes per batch,
// each call into a layer under its own span: parse every line, hand the
// parsed requests to the handler, serialize every response, write the
// batch. Returns the pass's wall time in ns.
std::int64_t pipeline_pass(SpanRecorder& rec, Handler& handler,
                           const std::vector<std::string>& lines,
                           const std::vector<std::vector<std::size_t>>& batches,
                           std::ostream& sink) {
  const std::int64_t t0 = now_ns();
  std::string wire;
  std::uint64_t id = 0;
  for (const std::vector<std::size_t>& batch : batches) {
    ScopedSpan root(rec, "pipeline.batch", id);
    std::vector<AdvisorResponse> responses(batch.size());
    std::vector<AdvisorRequest> valid;
    std::vector<std::size_t> slot;
    for (std::size_t j = 0; j < batch.size(); ++j) {
      AdvisorRequest request;
      std::string error;
      bool parsed;
      {
        ScopedSpan span(rec, "serve.parse", id + j);
        parsed = isr::serve::parse_request_line(lines[batch[j]], request, error);
      }
      if (parsed) {
        valid.push_back(std::move(request));
        slot.push_back(j);
      } else {
        responses[j].status = AdvisorResponse::Status::kError;
        responses[j].error = "parse error: " + error;
      }
    }
    std::vector<AdvisorResponse> served = handler(valid, id);
    for (std::size_t k = 0; k < served.size(); ++k) responses[slot[k]] = std::move(served[k]);
    wire.clear();
    for (std::size_t j = 0; j < responses.size(); ++j) {
      {
        ScopedSpan span(rec, "serve.serialize", id + j);
        isr::serve::to_jsonl(responses[j], wire);
      }
      wire += '\n';
    }
    sink.write(wire.data(), static_cast<std::streamsize>(wire.size()));
    id += batch.size();
  }
  return now_ns() - t0;
}

// The workload's lines as JSONL text: each batch followed by a blank line.
std::string jsonl_text(const std::vector<std::string>& lines,
                       const std::vector<std::vector<std::size_t>>& batches) {
  std::string text;
  for (const std::vector<std::size_t>& batch : batches) {
    for (const std::size_t i : batch) {
      text += lines[i];
      text += '\n';
    }
    text += '\n';
  }
  return text;
}

// Counts lines of `out` that differ from the oracle's expected answers.
std::size_t count_mismatches(const std::string& out, const Oracle& oracle,
                             const std::vector<std::vector<std::size_t>>& batches,
                             std::size_t& attempted) {
  ResponseCheck check;
  std::istringstream in(out);
  std::string line;
  for (const std::vector<std::size_t>& batch : batches)
    for (const std::size_t i : batch) {
      ++attempted;
      if (!std::getline(in, line)) {
        check.add_failures(1);
        continue;
      }
      check.expect(line, oracle.expected[i]);
    }
  if (std::getline(in, line)) check.add_failures(1);
  return check.failed();
}

}  // namespace

LayerResult run_layers(const LayerConfig& config, const Oracle& oracle) {
  LayerResult result;
  SpanRecorder rec;
  rec.reserve(std::size_t{1} << 19);
  rec.set_enabled(true);
  const Workload w = config.workload;
  const long recal_every = w == Workload::kRecalibrate ? kRecalEvery : 0;
  const isr::model::StudyConfig calibration = isr::serve::default_calibration();

  std::vector<std::string> lines(oracle.requests.lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) lines[i] = std::string(oracle.requests.lines[i]);
  std::vector<AdvisorRequest> parsed(lines.size());
  std::vector<bool> valid(lines.size(), false);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string error;
    valid[i] = isr::serve::parse_request_line(lines[i], parsed[i], error) &&
               oracle.requests.kinds[i] == LineKind::kValid;
  }

  // --- serve: the cold first fit (what set-up pays) ---------------------
  auto registry = std::make_shared<isr::serve::ModelRegistry>();
  {
    ScopedSpan span(rec, "serve.first_fit", 0);
    registry->models_for(calibration);
  }

  // --- model: the calibration study, the drift study, the fit ------------
  std::vector<isr::model::Observation> observations;
  {
    ScopedSpan span(rec, "model.run_study", 0);
    observations = isr::model::run_study(calibration);
  }
  {
    // The drift study a live recalibration runs: the same shape, one
    // sample per configuration, re-seeded by epoch.
    isr::model::StudyConfig drift = calibration;
    drift.seed = isr::hash_seed(isr::hash_seed(drift.seed, std::uint64_t{1}),
                                std::uint64_t{0xD21F7ull});
    drift.samples_per_config = 1;
    ScopedSpan span(rec, "model.run_study_drift", 0);
    isr::model::run_study(drift);
  }
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan span(rec, "model.fit_bundle", 0);
    isr::serve::fit_bundle(calibration, observations);
  }

  // --- render + comm: one render per renderer at the calibration's sizes -
  {
    const int n = (calibration.min_n + calibration.max_n) / 2;
    const int image = (calibration.min_image + calibration.max_image) / 2;
    const int tasks = calibration.tasks.back();
    std::vector<isr::mesh::StructuredGrid> grids(static_cast<std::size_t>(tasks));
    std::vector<isr::mesh::TriMesh> surfaces(static_cast<std::size_t>(tasks));
    isr::AABB bounds;
    for (int r = 0; r < tasks; ++r) {
      isr::sims::CloverLeaf proxy(n, n, n, r, tasks);
      for (int s = 0; s < calibration.sim_steps; ++s) proxy.step();
      isr::conduit::Node data;
      proxy.describe(data);
      grids[r] = isr::conduit::blueprint::to_structured(data, "energy");
      grids[r].normalize_scalars();
      surfaces[r] = isr::mesh::external_faces(grids[r]);
      bounds.expand(grids[r].bounds());
    }
    const isr::Camera camera = isr::Camera::framing(bounds, image, image, 0.8f);
    const isr::ColorTable colors = isr::ColorTable::cool_warm();
    const isr::TransferFunction tf(colors, 0.05f, 0.3f);
    isr::dpp::Device dev =
        isr::dpp::Device::simulated(isr::dpp::profile_by_name("CPU1"), config.seed);
    std::vector<isr::comm::RankImage> images(static_cast<std::size_t>(tasks));
    for (int rep = 0; rep < 3; ++rep) {
      isr::render::Image img;
      std::unique_ptr<isr::render::RayTracer> rt;
      {
        ScopedSpan span(rec, "render.bvh_build", 0);
        rt = std::make_unique<isr::render::RayTracer>(surfaces[0], dev);
      }
      {
        ScopedSpan span(rec, "render.rt", 0);
        rt->render(camera, colors, img);
      }
      isr::render::Rasterizer rast(surfaces[0], dev);
      {
        ScopedSpan span(rec, "render.rast", 0);
        rast.render(camera, colors, img);
      }
      isr::render::StructuredVolumeRenderer vr(grids[0], dev);
      isr::render::VolumeRenderOptions opt;
      opt.samples = calibration.vr_samples;
      {
        ScopedSpan span(rec, "render.vr", 0);
        vr.render(camera, tf, img, opt);
      }
    }
    for (int r = 0; r < tasks; ++r) {
      isr::render::RayTracer rt(surfaces[r], dev);
      rt.render(camera, colors, images[r].image);
      images[r].view_depth = isr::length(grids[r].bounds().center() - camera.position);
    }
    isr::core::ThreadPool pool(0);
    for (int rep = 0; rep < 3; ++rep) {
      isr::comm::Comm comm(tasks);
      ScopedSpan span(rec, "comm.composite", 0);
      isr::comm::composite(comm, images, isr::comm::CompositeMode::kSurface,
                           isr::comm::CompositeAlgorithm::kRadixK, 8, &pool);
    }
  }

  // --- serve + cluster on the workload's own requests ---------------------
  const std::size_t per_pass = pass_batches(w);
  const auto batches = batches_of(w, config.seed, per_pass);
  const std::string text = jsonl_text(lines, batches);
  std::size_t pass_requests = 0;
  for (const auto& b : batches) pass_requests += b.size();

  isr::cluster::ServingCluster cluster;  // the service's defaults
  {
    AdvisorRequest setup;
    std::string error;
    isr::serve::parse_request_line(setup_line(), setup, error);
    cluster.serve_batch({setup});  // lazy residency, outside every timer
  }

  // Pipeline passes, untraced and traced in turn, after one warm-up pass.
  // They run without recalibrations: a refit's cost varies with its epoch
  // and would swamp the tracing comparison. Refits are timed by the
  // run_jsonl passes and the direct calls below.
  std::vector<double> untraced_ns, traced_ns;
  std::size_t first_traced_span = 0;
  {
    Handler no_refits(cluster, rec, 0);
    std::ostringstream warm;
    rec.set_enabled(false);
    pipeline_pass(rec, no_refits, lines, batches, warm);
    result.failed += count_mismatches(warm.str(), oracle, batches, result.attempted);
    first_traced_span = rec.spans().size();
    for (int rep = 0; rep < 7; ++rep) {
      std::ostringstream sink;
      rec.set_enabled(false);
      untraced_ns.push_back(
          static_cast<double>(pipeline_pass(rec, no_refits, lines, batches, sink)));
      rec.set_enabled(true);
      traced_ns.push_back(
          static_cast<double>(pipeline_pass(rec, no_refits, lines, batches, sink)));
    }
  }
  const std::size_t pipeline_end = rec.spans().size();

  // run_jsonl over in-memory streams, the handler (with the workload's
  // recalibration schedule) under its own span.
  Handler handler(cluster, rec, recal_every);
  std::vector<double> frontend_us, run_jsonl_us;
  for (int rep = 0; rep < 3; ++rep) {
    std::istringstream in(text);
    std::ostringstream out;
    std::uint64_t id = 0;
    double handler_ns = 0;
    const std::int64_t recal0 = handler.recal_ns();
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(rec, "serve.run_jsonl", 0);
      isr::serve::run_jsonl(in, out, [&](const std::vector<AdvisorRequest>& requests) {
        const std::int64_t h0 = now_ns();
        std::vector<AdvisorResponse> r = handler(requests, id);
        handler_ns += static_cast<double>(now_ns() - h0);
        id += requests.size();
        return r;
      });
    }
    const double total_ns = static_cast<double>(now_ns() - t0);
    const double recal_ns = static_cast<double>(handler.recal_ns() - recal0);
    frontend_us.push_back((total_ns - handler_ns) / 1e3 / static_cast<double>(pass_requests));
    run_jsonl_us.push_back((total_ns - recal_ns) / 1e3 / static_cast<double>(pass_requests));
    if (w != Workload::kRecalibrate)
      result.failed += count_mismatches(out.str(), oracle, batches, result.attempted);
  }

  // answer_batch on the workload's batch shape, from the first fit's models.
  std::vector<std::size_t> eval_sizes;  // valid requests per call, in call order
  {
    isr::serve::AdvisorService service(isr::serve::ServiceConfig{}, registry);
    const isr::serve::FittedModels& fitted = registry->models_for(calibration);
    isr::serve::EvalScratch scratch;
    const auto eval_batches = batches_of(w, config.seed + 1, w == Workload::kBulkSweep ? 64 : 4000);
    for (const auto& batch : eval_batches) {
      std::vector<AdvisorRequest> reqs;
      for (const std::size_t i : batch)
        if (valid[i]) reqs.push_back(parsed[i]);
      eval_sizes.push_back(reqs.size());
      std::vector<AdvisorResponse> resps(reqs.size());
      ScopedSpan span(rec, "serve.answer_batch", batch.front());
      isr::serve::answer_batch(fitted, service.config().constants, reqs.data(), reqs.size(),
                               resps.data(), scratch);
    }
  }

  // serve_batch per one-request call, and per request on 1024-request batches.
  {
    const auto singles = batches_of(w, config.seed + 2, w == Workload::kBulkSweep ? 2 : 2000);
    std::vector<std::size_t> order;
    for (const auto& b : singles) order.insert(order.end(), b.begin(), b.end());
    order.resize(std::min<std::size_t>(order.size(), 2000));
    for (const std::size_t i : order) {
      if (!valid[i]) continue;
      ScopedSpan span(rec, "cluster.serve_batch_one", i);
      cluster.serve_batch({parsed[i]});
    }
    HotDraw draw(config.seed + 3);
    for (int b = 0; b < 16; ++b) {
      std::vector<AdvisorRequest> reqs;
      for (std::size_t j = 0; reqs.size() < kBulkBatch; ++j) {
        const std::size_t i = w == Workload::kBulkSweep
                                  ? (static_cast<std::size_t>(b) * kBulkBatch * 2 + j) % kBulkPool
                                  : draw.next();
        if (valid[i]) reqs.push_back(parsed[i]);
      }
      ScopedSpan span(rec, "cluster.serve_batch_1024", static_cast<std::uint64_t>(b));
      cluster.serve_batch(reqs);
    }
    for (int rep = 0; rep < 3; ++rep) {
      ScopedSpan span(rec, "cluster.recalibrate", 0);
      cluster.recalibrate("");
      cluster.wait_refits();
    }
  }

  // --- metrics from the spans ---------------------------------------------
  const std::vector<Span>& spans = rec.spans();
  const std::vector<std::int64_t> self = rec.self_times();
  std::map<std::string, std::vector<double>> dur;  // whole run, by name
  for (const Span& s : spans) dur[s.name].push_back(static_cast<double>(s.duration_ns()));
  std::map<std::string, std::vector<double>> pipe_dur;  // traced pipeline passes
  double root_total = 0, root_self = 0;
  for (std::size_t i = first_traced_span; i < pipeline_end; ++i) {
    pipe_dur[spans[i].name].push_back(static_cast<double>(spans[i].duration_ns()));
    if (spans[i].parent < 0) {
      root_total += static_cast<double>(spans[i].duration_ns());
      root_self += static_cast<double>(self[i]);
    }
  }
  std::vector<double> eval_per_req, batch1024_per_req;
  std::size_t eval_call = 0;
  for (const Span& s : spans) {
    const std::string name = s.name;
    const double ns = static_cast<double>(s.duration_ns());
    if (name == "cluster.serve_batch_1024") batch1024_per_req.push_back(ns / kBulkBatch);
    if (name == "serve.answer_batch") {
      const std::size_t n = eval_sizes[eval_call++];
      if (n > 0) eval_per_req.push_back(ns / static_cast<double>(n));
    }
  }

  const auto put = [&result](const char* name, double value, const char* unit,
                             std::size_t samples) {
    result.metrics[name] = {value, unit, samples};
  };
  const auto put_median = [&put](const char* name, const std::vector<double>& v, double scale,
                                 const char* unit) {
    put(name, median(v) / scale, unit, v.size());
  };
  put_median("serve.parse_ns", pipe_dur["serve.parse"], 1, "ns");
  put_median("serve.serialize_ns", pipe_dur["serve.serialize"], 1, "ns");
  put_median("serve.eval_ns", eval_per_req, 1, "ns");
  put_median("serve.frontend_us", frontend_us, 1, "us");
  put_median("serve.first_fit_s", dur["serve.first_fit"], 1e9, "s");
  put_median("cluster.batch_us", dur["cluster.serve_batch_one"], 1e3, "us");
  put_median("cluster.req_ns", batch1024_per_req, 1, "ns");
  put_median("cluster.recalibrate_ms", dur["cluster.recalibrate"], 1e6, "ms");
  put("io.pipe_us", config.wire_us_per_request - median(run_jsonl_us), "us",
      run_jsonl_us.size());
  put_median("model.study_s", dur["model.run_study"], 1e9, "s");
  put_median("model.drift_study_s", dur["model.run_study_drift"], 1e9, "s");
  put_median("model.fit_ms", dur["model.fit_bundle"], 1e6, "ms");
  put_median("render.rt_ms", dur["render.rt"], 1e6, "ms");
  put_median("render.bvh_build_ms", dur["render.bvh_build"], 1e6, "ms");
  put_median("render.rast_ms", dur["render.rast"], 1e6, "ms");
  put_median("render.vr_ms", dur["render.vr"], 1e6, "ms");
  put_median("comm.composite_ms", dur["comm.composite"], 1e6, "ms");
  put("trace.unaccounted_share", root_total > 0 ? root_self / root_total : 0.0, "ratio",
      pipe_dur["pipeline.batch"].size());
  put("trace.overhead_share", median(traced_ns) / median(untraced_ns) - 1.0, "ratio",
      traced_ns.size());

  result.spans = spans.size();
  if (!config.trace_path.empty()) {
    std::ofstream out(config.trace_path);
    rec.write_chrome_trace(out);
  }
  return result;
}

}  // namespace wirebench
