// Study-harness throughput: runs one fixed §5.4 study configuration twice —
// serially (threads=1) and across the whole machine (ISR_THREADS or all
// hardware threads) — verifies the two corpora are bit-identical, and
// reports observations/sec plus the parallel speedup, and the serial run's
// wall time by stage: scene generation, render (first-arch renders plus
// the other archs' kernel-tape replays; split by renderer, with the ray
// tracer's BVH builds broken out) and composite, with the number of
// renderer runs executed on the host, then the model fit over the serial
// corpus (serve::fit_bundle, the service's calibration fit).
//
// The final line is machine-readable JSON (prefix "JSON ") so CI can track
// the perf trajectory across PRs:
//   JSON {"bench":"study_throughput","observations":...,"threads":...,
//         "serial_seconds":...,"parallel_seconds":...,"speedup":...,
//         "obs_per_sec_serial":...,"obs_per_sec_parallel":...,
//         "scene_seconds":...,"render_seconds":...,"composite_seconds":...,
//         "host_renders":...,"identical":true,"bvh_build_seconds":...,
//         "rt_render_seconds":...,"rast_render_seconds":...,
//         "vr_render_seconds":...,"fit_seconds":...}
// Exits nonzero when the parallel corpus diverges from the serial one.
#include <chrono>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/thread_pool.hpp"
#include "dpp/timer.hpp"
#include "model/study.hpp"
#include "serve/registry.hpp"

using namespace isr;

namespace {

model::StudyConfig fixed_config() {
  // Fixed shape; only the sizes follow ISR_BENCH_SCALE so the smoke run
  // stays short and the nightly paper-scale run is meaningful.
  model::StudyConfig cfg;
  cfg.archs = {"CPU1", "GPU1"};
  cfg.sims = {"cloverleaf", "lulesh"};
  cfg.tasks = {1, 2, 4, 8};
  cfg.samples_per_config = 3;
  cfg.min_image = bench::scaled(256);
  cfg.max_image = bench::scaled(640);
  cfg.min_n = bench::scaled(32);
  cfg.max_n = bench::scaled(64);
  cfg.vr_samples = bench::scaled(300, 50);
  cfg.sim_steps = 2;
  cfg.seed = 1350;
  return cfg;
}

double run_once(int threads, std::vector<model::Observation>& obs,
                model::StudyStats* stats = nullptr) {
  model::StudyConfig cfg = fixed_config();
  cfg.threads = threads;
  const auto start = std::chrono::steady_clock::now();
  obs = model::run_study(cfg, /*verbose=*/false, stats);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

bool identical(const std::vector<model::Observation>& a,
               const std::vector<model::Observation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!model::observations_identical(a[i], b[i])) return false;
  return true;
}

}  // namespace

int main() {
  const int threads = core::default_thread_count();
  bench::print_header("Study harness throughput (beyond the paper)",
                      "One fixed study config at 1 thread vs " +
                          std::to_string(threads) + " (ISR_THREADS / hardware).");

  std::vector<model::Observation> serial_obs, parallel_obs;
  {
    // Untimed warmup so the serial run (always first) doesn't absorb
    // one-time costs — first-touch faults, allocator growth — and inflate
    // the speedup the nightly archives.
    std::vector<model::Observation> warmup;
    run_once(0, warmup);
  }
  model::StudyStats stages;  // serial run: the stages add up to its wall time
  const double t_serial = run_once(1, serial_obs, &stages);
  const double t_parallel = run_once(0, parallel_obs);
  const bool same = identical(serial_obs, parallel_obs);
  const dpp::WallTimer fit_timer;
  const serve::FittedModels fitted = serve::fit_bundle(fixed_config(), serial_obs);
  const double t_fit = fit_timer.seconds();

  const double n = static_cast<double>(serial_obs.size());
  const double speedup = t_parallel > 0.0 ? t_serial / t_parallel : 0.0;
  std::printf("%-22s %10s %12s %10s\n", "run", "threads", "seconds", "obs/sec");
  bench::print_rule(58);
  std::printf("%-22s %10d %12.3f %10.2f\n", "serial", 1, t_serial, n / t_serial);
  std::printf("%-22s %10d %12.3f %10.2f\n", "parallel", threads, t_parallel, n / t_parallel);
  std::printf("\n%zu observations; speedup %.2fx; corpora bit-identical: %s\n",
              serial_obs.size(), speedup, same ? "yes" : "NO (BUG)");
  std::printf("serial stages: scene %.3fs, render %.3fs (%zu host renders), composite %.3fs\n",
              stages.scene_seconds, stages.render_seconds, stages.host_renders,
              stages.composite_seconds);
  std::printf("serial render by renderer: ray trace %.3fs (BVH build %.3fs), rasterize %.3fs, "
              "volume %.3fs; fit %.3fs (%zu models)\n",
              stages.rt_render_seconds, stages.bvh_build_seconds, stages.rast_render_seconds,
              stages.vr_render_seconds, t_fit, fitted.entries.size());

  std::printf(
      "JSON {\"bench\":\"study_throughput\",\"observations\":%zu,\"threads\":%d,"
      "\"serial_seconds\":%.6f,\"parallel_seconds\":%.6f,\"speedup\":%.3f,"
      "\"obs_per_sec_serial\":%.3f,\"obs_per_sec_parallel\":%.3f,"
      "\"scene_seconds\":%.6f,\"render_seconds\":%.6f,\"composite_seconds\":%.6f,"
      "\"host_renders\":%zu,\"identical\":%s,\"bvh_build_seconds\":%.6f,"
      "\"rt_render_seconds\":%.6f,\"rast_render_seconds\":%.6f,\"vr_render_seconds\":%.6f,"
      "\"fit_seconds\":%.6f}\n",
      serial_obs.size(), threads, t_serial, t_parallel, speedup, n / t_serial,
      n / t_parallel, stages.scene_seconds, stages.render_seconds, stages.composite_seconds,
      stages.host_renders, same ? "true" : "false", stages.bvh_build_seconds,
      stages.rt_render_seconds, stages.rast_render_seconds, stages.vr_render_seconds, t_fit);
  return same ? 0 : 1;
}
