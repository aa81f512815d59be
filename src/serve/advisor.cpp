#include "serve/advisor.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "core/parallel_for.hpp"
#include "model/feasibility.hpp"

namespace isr::serve {

namespace {

AdvisorResponse error_response(std::string message) {
  AdvisorResponse r;
  r.status = AdvisorResponse::Status::kError;
  r.error = std::move(message);
  return r;
}

// Per-item validation shared by every path, in the historical check order
// (so error text never depends on which entry point rejected the request).
// Returns nullptr for a valid request.
const char* validation_error(const AdvisorRequest& req) {
  if (req.n_per_task <= 0) return "n_per_task must be > 0";
  if (req.tasks <= 0) return "tasks must be > 0";
  if (req.image_edge <= 0) return "image_edge must be > 0";
  // Finiteness before sign: a NaN or +/-inf budget must be rejected here —
  // +inf satisfies ">= 0" and would reach a float->long cast (UB), and the
  // C++ API can be called with values the wire-format parser never admits.
  if (!std::isfinite(req.budget_seconds)) return "budget_seconds must be finite";
  if (req.budget_seconds < 0.0) return "budget_seconds must be >= 0";
  if (req.frames <= 0) return "frames must be > 0";
  return nullptr;
}

// Writes the same error response into every slot of the group — the
// message is a function of (arch, renderer) only, so it is built once and
// copied, where the per-item path rebuilt it per request.
void fill_group_error(const std::string& message, AdvisorResponse* const* responses,
                      const std::uint32_t* idx, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    AdvisorResponse& r = *responses[idx[k]];
    r = AdvisorResponse{};
    r.status = AdvisorResponse::Status::kError;
    r.error = message;
  }
}

// Evaluates one (arch, renderer) group: the model lookups and their error
// strings are hoisted out of the item loop, configurations map once into
// an arena column, and each fitted model's terms are evaluated across the
// whole group as one SoA prediction column.
void evaluate_group(const FittedModels& fitted, const model::MappingConstants& constants,
                    const AdvisorRequest* const* requests,
                    AdvisorResponse* const* responses, const std::uint32_t* idx,
                    std::size_t n, core::Arena& arena) {
  const AdvisorRequest& head = *requests[idx[0]];

  const model::PerfModel* m = fitted.find(head.arch, head.renderer);
  if (!m) {
    fill_group_error("no fitted model for arch \"" + head.arch + "\" renderer \"" +
                         renderer_token(head.renderer) + "\" in the calibration corpus",
                     responses, idx, n);
    return;
  }
  if (!m->ok()) {
    fill_group_error("model fit failed for arch \"" + head.arch + "\" renderer \"" +
                         renderer_token(head.renderer) + "\" (degenerate calibration corpus)",
                     responses, idx, n);
    return;
  }

  // Fig 14 columns: map each configuration to model variables (§5.8) once,
  // then one render and one build prediction column for the whole group.
  model::ModelInputs* in = arena.alloc_array<model::ModelInputs>(n);
  for (std::size_t k = 0; k < n; ++k) {
    const AdvisorRequest& req = *requests[idx[k]];
    const double pixels = static_cast<double>(req.image_edge) * req.image_edge;
    in[k] = model::map_configuration(m->kind(), req.n_per_task, req.tasks, pixels, constants);
  }
  double* frame = arena.alloc_array<double>(n);
  double* build = arena.alloc_array<double>(n);
  m->predict_render_batch(in, n, frame);
  m->predict_build_batch(in, n, build);

  // Fig 15 columns: the surface-rendering verdict, when the corpus fitted
  // both surface models for this arch. kRayTrace and kRasterize share the
  // §5.8 surface mapping (map_configuration is pure and branches only on
  // volume-vs-surface), so one input column serves both models — and when
  // the request itself is a surface renderer, the budget column above IS
  // that column.
  const model::PerfModel* rt = fitted.find(head.arch, model::RendererKind::kRayTrace);
  const model::PerfModel* rast = fitted.find(head.arch, model::RendererKind::kRasterize);
  const bool has_verdict = rt && rt->ok() && rast && rast->ok();
  double* rt_render = nullptr;
  double* rt_build = nullptr;
  double* rast_render = nullptr;
  if (has_verdict) {
    const model::ModelInputs* surface = in;
    if (head.renderer == model::RendererKind::kVolume) {
      model::ModelInputs* s = arena.alloc_array<model::ModelInputs>(n);
      for (std::size_t k = 0; k < n; ++k) {
        const AdvisorRequest& req = *requests[idx[k]];
        const double pixels = static_cast<double>(req.image_edge) * req.image_edge;
        s[k] = model::map_configuration(model::RendererKind::kRayTrace, req.n_per_task,
                                        req.tasks, pixels, constants);
      }
      surface = s;
    }
    rt_render = arena.alloc_array<double>(n);
    rt_build = arena.alloc_array<double>(n);
    rast_render = arena.alloc_array<double>(n);
    rt->predict_render_batch(surface, n, rt_render);
    rt->predict_build_batch(surface, n, rt_build);
    rast->predict_render_batch(surface, n, rast_render);
  }

  // Finalize per item — pure arithmetic on the columns, identical to the
  // historical per-item path (model/feasibility.cpp) term for term.
  for (std::size_t k = 0; k < n; ++k) {
    const AdvisorRequest& req = *requests[idx[k]];
    AdvisorResponse& resp = *responses[idx[k]];
    resp = AdvisorResponse{};
    resp.status = AdvisorResponse::Status::kOk;
    resp.frame_seconds = frame[k];
    resp.build_seconds = build[k];
    resp.images_in_budget = model::images_for_budget(req.budget_seconds, frame[k], build[k]);
    if (has_verdict) {
      const double frames = static_cast<double>(req.frames);
      resp.has_verdict = true;
      resp.rt_seconds = rt_build[k] + frames * rt_render[k];
      resp.rast_seconds = frames * rast_render[k];
      resp.ratio = resp.rt_seconds > 0.0 ? resp.rast_seconds / resp.rt_seconds : 0.0;
      resp.prefer_ray_tracing = resp.ratio > 1.0;
    }
  }
}

// The grouped evaluator behind both public answer_batch forms. Assumes the
// arena was already rewound by the caller.
void answer_batch_impl(const FittedModels& fitted, const model::MappingConstants& constants,
                       const AdvisorRequest* const* requests, std::size_t count,
                       AdvisorResponse* const* responses, core::Arena& arena) {
  // Pass 1: validation, item by item; valid items enter the grouping pool.
  std::uint32_t* pool = arena.alloc_array<std::uint32_t>(count);
  std::size_t pooled = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (const char* err = validation_error(*requests[i])) {
      *responses[i] = error_response(err);
    } else {
      pool[pooled++] = static_cast<std::uint32_t>(i);
    }
  }

  // Pass 2: group by (arch, renderer) with stable selection sweeps —
  // O(groups x pooled) key compares, and the group count is bounded by the
  // corpus's (arch, renderer) spread, not the batch size.
  std::uint32_t* order = arena.alloc_array<std::uint32_t>(pooled);
  unsigned char* taken = arena.alloc_array<unsigned char>(pooled);
  for (std::size_t k = 0; k < pooled; ++k) taken[k] = 0;
  std::size_t done = 0;
  std::size_t first = 0;  // rolling first-unclaimed cursor
  while (done < pooled) {
    while (taken[first]) ++first;
    const AdvisorRequest& key = *requests[pool[first]];
    const std::size_t group_begin = done;
    for (std::size_t k = first; k < pooled; ++k) {
      if (taken[k]) continue;
      const AdvisorRequest& req = *requests[pool[k]];
      if (req.renderer == key.renderer && req.arch == key.arch) {
        taken[k] = 1;
        order[done++] = pool[k];
      }
    }
    evaluate_group(fitted, constants, requests, responses, order + group_begin,
                   done - group_begin, arena);
  }
}

}  // namespace

const char* status_name(AdvisorResponse::Status status) {
  switch (status) {
    case AdvisorResponse::Status::kOk: return "ok";
    case AdvisorResponse::Status::kShed: return "shed";
    case AdvisorResponse::Status::kDegraded: return "degraded";
    case AdvisorResponse::Status::kError: return "error";
  }
  return "?";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  json_escape(s, out);
  return out;
}

void json_escape(const std::string& s, std::string& out) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20) {
      const char escaped[] = {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 0xf]};
      out.append(escaped, sizeof(escaped));
    } else {
      out += c;
    }
  }
}

void answer_batch(const FittedModels& fitted, const model::MappingConstants& constants,
                  const AdvisorRequest* const* requests, std::size_t count,
                  AdvisorResponse* const* responses, EvalScratch& scratch) {
  scratch.arena.reset();
  answer_batch_impl(fitted, constants, requests, count, responses, scratch.arena);
}

void answer_batch(const FittedModels& fitted, const model::MappingConstants& constants,
                  const AdvisorRequest* requests, std::size_t count,
                  AdvisorResponse* responses, EvalScratch& scratch) {
  scratch.arena.reset();
  const AdvisorRequest** rp = scratch.arena.alloc_array<const AdvisorRequest*>(count);
  AdvisorResponse** sp = scratch.arena.alloc_array<AdvisorResponse*>(count);
  for (std::size_t i = 0; i < count; ++i) {
    rp[i] = requests + i;
    sp[i] = responses + i;
  }
  answer_batch_impl(fitted, constants, rp, count, sp, scratch.arena);
}

AdvisorResponse answer_request(const FittedModels& fitted,
                               const model::MappingConstants& constants,
                               const AdvisorRequest& request) {
  // One-item batch through the canonical evaluator; the thread-local
  // scratch keeps the wrapper allocation-free at steady state too.
  thread_local EvalScratch scratch;
  AdvisorResponse response;
  const AdvisorRequest* rp = &request;
  AdvisorResponse* sp = &response;
  answer_batch(fitted, constants, &rp, 1, &sp, scratch);
  return response;
}

bool responses_identical(const AdvisorResponse& a, const AdvisorResponse& b) {
  return a.status == b.status && a.error == b.error &&
         a.frame_seconds == b.frame_seconds &&
         a.build_seconds == b.build_seconds && a.images_in_budget == b.images_in_budget &&
         a.has_verdict == b.has_verdict && a.rt_seconds == b.rt_seconds &&
         a.rast_seconds == b.rast_seconds && a.ratio == b.ratio &&
         a.prefer_ray_tracing == b.prefer_ray_tracing;
}

std::string to_jsonl(const AdvisorResponse& r) {
  std::string line;
  to_jsonl(r, line);
  return line;
}

void to_jsonl(const AdvisorResponse& r, std::string& out) {
  // Shed and degraded responses carry explicit markers clients can branch
  // on without parsing the error text; ordinary errors keep their
  // historical bytes.
  if (!r.ok()) {
    out += "{\"ok\":false,";
    if (r.shed()) out += "\"shed\":true,";
    if (r.degraded()) out += "\"degraded\":true,";
    out += "\"error\":\"";
    json_escape(r.error, out);
    out += "\"}";
    return;
  }
  // Fixed text by memcpy, numbers by to_chars: chars_format::general at
  // precision 9 is specified to print what printf("%.9g") prints, and a
  // long prints what "%ld" does. The buffer bounds every line: 153 bytes
  // of fixed text, five doubles of <= 16 chars, one long of <= 20.
  char buf[320];
  char* p = buf;
  const auto text = [&p](std::string_view s) {
    std::memcpy(p, s.data(), s.size());
    p += s.size();
  };
  const auto number = [&p, &buf](double v) {
    p = std::to_chars(p, buf + sizeof(buf), v, std::chars_format::general, 9).ptr;
  };
  text("{\"ok\":true,\"frame_seconds\":");
  number(r.frame_seconds);
  text(",\"build_seconds\":");
  number(r.build_seconds);
  text(",\"images_in_budget\":");
  p = std::to_chars(p, buf + sizeof(buf), r.images_in_budget).ptr;
  text(r.has_verdict ? ",\"has_verdict\":true,\"rt_seconds\":"
                     : ",\"has_verdict\":false,\"rt_seconds\":");
  number(r.rt_seconds);
  text(",\"rast_seconds\":");
  number(r.rast_seconds);
  text(",\"ratio\":");
  number(r.ratio);
  text(",\"recommendation\":\"");
  text(r.has_verdict ? (r.prefer_ray_tracing ? "raytrace" : "rasterize") : "");
  text("\"}");
  out.append(buf, p);
}

const char* renderer_token(model::RendererKind kind) {
  switch (kind) {
    case model::RendererKind::kRayTrace: return "raytrace";
    case model::RendererKind::kRasterize: return "rasterize";
    case model::RendererKind::kVolume: return "volume";
  }
  return "?";
}

bool renderer_from_token(std::string_view token, model::RendererKind& kind) {
  if (token == "raytrace") kind = model::RendererKind::kRayTrace;
  else if (token == "rasterize") kind = model::RendererKind::kRasterize;
  else if (token == "volume") kind = model::RendererKind::kVolume;
  else return false;
  return true;
}

model::StudyConfig default_calibration() {
  model::StudyConfig cfg;
  cfg.sims = {"cloverleaf"};
  cfg.tasks = {1, 2, 4};
  cfg.samples_per_config = 3;
  cfg.min_image = 128;
  cfg.max_image = 288;
  cfg.min_n = 20;
  cfg.max_n = 40;
  cfg.vr_samples = 200;
  return cfg;
}

ServiceConfig::ServiceConfig() : calibration(default_calibration()) {
  // 0 = derive from the calibration corpus at service construction. The
  // SPR mapping must assume the sampling density the corpus was actually
  // rendered at, so overriding calibration.vr_samples alone stays
  // consistent; set spr_base explicitly to decouple them.
  constants.spr_base = 0.0;
}

AdvisorService::AdvisorService(ServiceConfig config, std::shared_ptr<ModelRegistry> registry)
    : config_(std::move(config)),
      registry_(registry ? std::move(registry) : std::make_shared<ModelRegistry>()),
      pool_(config_.threads) {
  // The advisor's historical density->SPR factor (0.93 * vr_samples; 186
  // for the default 200-sample calibration).
  if (config_.constants.spr_base <= 0.0)
    config_.constants.spr_base = 0.93 * config_.calibration.vr_samples;
}

AdvisorResponse AdvisorService::serve_one(const AdvisorRequest& request) {
  const FittedModels& fitted = registry_->models_for(config_.calibration);
  return answer_request(fitted, config_.constants, request);
}

std::vector<AdvisorResponse> AdvisorService::serve_batch(
    const std::vector<AdvisorRequest>& requests) {
  // A batch of zero answerable requests (e.g. every line of a JSONL batch
  // failed to parse) must not pay for a calibration fit.
  if (requests.empty()) return {};
  // Fit (or cache-hit) once, before the fan-out, so workers never contend
  // on the registry lock.
  const FittedModels& fitted = registry_->models_for(config_.calibration);
  const std::size_t n = requests.size();
  std::vector<AdvisorResponse> responses(n);
  // Contiguous chunks through the batched evaluator — the same ~8 chunks
  // per lane the old per-item fan-out used, but each chunk is one
  // answer_batch call with per-thread scratch. Responses are pure per
  // request, so any chunking is bit-identical at any thread count.
  const std::size_t lanes = static_cast<std::size_t>(pool_.size());
  const std::size_t grain = n / (lanes * 8) > 0 ? n / (lanes * 8) : 1;
  const std::size_t chunks = (n + grain - 1) / grain;
  core::parallel_for(pool_, chunks, [&](std::size_t c) {
    const std::size_t begin = c * grain;
    const std::size_t end = begin + grain < n ? begin + grain : n;
    thread_local EvalScratch scratch;
    answer_batch(fitted, config_.constants, requests.data() + begin, end - begin,
                 responses.data() + begin, scratch);
  });
  return responses;
}

}  // namespace isr::serve
