// Comparator-renderer tests: the tuned ray tracer must agree with the DPP
// tracer on what is visible (while doing less traversal work), and the
// three unstructured-volume comparators must produce images consistent with
// our sampling renderer on the same field.
#include <gtest/gtest.h>

#include "baseline/bunyk.hpp"
#include "dpp/profiles.hpp"
#include "baseline/havs.hpp"
#include "baseline/tuned_rt.hpp"
#include "baseline/visit_sampler.hpp"
#include "math/colormap.hpp"
#include "mesh/fields.hpp"
#include "mesh/scenes.hpp"
#include "mesh/tetrahedralize.hpp"
#include "render/rt/raytracer.hpp"
#include "render/uvr/unstructured.hpp"

namespace isr::baseline {
namespace {

TEST(TunedRayTracer, MatchesDppTracerCoverage) {
  const mesh::TriMesh scene = mesh::make_sphere_flake({0.5f, 0.5f, 0.5f}, 0.2f, 2);
  const Camera cam = Camera::framing(scene.bounds(), 128, 128);
  dpp::Device dev = dpp::Device::host();

  render::RayTracer dpp_rt(scene, dev);
  render::Image dpp_img;
  render::RayTracerOptions opt;
  opt.workload = render::RayTracerOptions::Workload::kIntersect;
  const render::RenderStats dpp_stats = dpp_rt.render(cam, ColorTable::grayscale(), dpp_img, opt);

  TunedRayTracer tuned(scene, dev);
  render::Image tuned_img;
  const render::RenderStats tuned_stats = tuned.render_intersect(cam, &tuned_img);

  EXPECT_EQ(tuned_stats.active_pixels, dpp_stats.active_pixels);
  EXPECT_LT(tuned_img.rms_difference(dpp_img), 1e-4);
}

TEST(TunedRayTracer, TraversalWorkIsComparableToLbvh) {
  // The tuned BVH uses 4-triangle leaves (Embree-style): it trades node
  // visits for batched triangle tests, so its raw step count is the same
  // order as the LBVH's — the Tables 3-4 gap comes from per-step SIMD
  // efficiency (covered by FasterThanDppOnSimulatedDevice), not from doing
  // asymptotically less traversal.
  const mesh::TriMesh scene = mesh::make_scene("RM 350K", 0.2f);
  const Camera cam = Camera::framing(scene.bounds(), 96, 96);
  dpp::Device dev = dpp::Device::host();

  TunedRayTracer tuned(scene, dev);
  tuned.render_intersect(cam);

  // Count LBVH steps over the same rays.
  render::RayTracer dpp_rt(scene, dev);
  long long lbvh_steps = 0;
  for (int y = 0; y < cam.height; ++y)
    for (int x = 0; x < cam.width; ++x)
      render::intersect_closest(dpp_rt.bvh(), cam.position,
                                cam.ray_direction(static_cast<float>(x), static_cast<float>(y)),
                                cam.znear, cam.zfar, lbvh_steps);
  const double lbvh_avg = static_cast<double>(lbvh_steps) / cam.pixel_count();
  EXPECT_GT(tuned.avg_steps_per_ray(), 0.0);
  EXPECT_LT(tuned.avg_steps_per_ray(), lbvh_avg * 3.0);
}

TEST(TunedRayTracer, FasterThanDppOnSimulatedDevice) {
  // On a simulated architecture the tuned kernels model SIMD-efficient
  // traversal: the whole-frame time must beat the DPP pipeline (the paper's
  // 1.6-2.6x Embree/OptiX gap).
  const mesh::TriMesh scene = mesh::make_scene("RM 350K", 0.18f);
  const Camera cam = Camera::framing(scene.bounds(), 160, 160);
  dpp::Device dev = dpp::Device::simulated(dpp::profile_xeon());

  render::RayTracer dpp_rt(scene, dev);
  render::Image img;
  render::RayTracerOptions opt;
  opt.workload = render::RayTracerOptions::Workload::kIntersect;
  const double dpp_time = dpp_rt.render(cam, ColorTable::grayscale(), img, opt).total_seconds();

  TunedRayTracer tuned(scene, dev);
  const double tuned_time = tuned.render_intersect(cam).total_seconds();

  EXPECT_LT(tuned_time, dpp_time);
  EXPECT_GT(dpp_time / tuned_time, 1.2);
  EXPECT_LT(dpp_time / tuned_time, 6.0);
}

struct TetFixture {
  TetFixture() : grid(24, 24, 24, {0, 0, 0}, {1 / 24.f, 1 / 24.f, 1 / 24.f}) {
    mesh::fields::fill_radial(grid);
    tets = mesh::tetrahedralize(grid);
    cam = Camera::framing(grid.bounds(), 96, 96);
  }
  mesh::StructuredGrid grid;
  mesh::TetMesh tets;
  Camera cam;
  ColorTable colors = ColorTable::cool_warm();
};

TEST(Havs, ImageConsistentWithSamplingRenderer) {
  TetFixture f;
  dpp::Device dev = dpp::Device::host();
  const TransferFunction tf(f.colors, 0.0f, 0.3f);

  render::UnstructuredVolumeRenderer uvr(f.tets, dev);
  render::Image sampled;
  render::UnstructuredVROptions uopt;
  uopt.samples_in_depth = 200;
  uvr.render(f.cam, tf, sampled, uopt);

  HavsRenderer havs(f.tets, dev);
  render::Image projected;
  const render::RenderStats stats = havs.render(f.cam, tf, projected, 200);

  // Projected tetrahedra integrate exactly where sampling approximates:
  // allow a generous but bounded tolerance, and identical footprints.
  EXPECT_LT(sampled.rms_difference(projected), 0.08);
  EXPECT_NEAR(stats.active_pixels, sampled.active_pixel_count(),
              0.06 * static_cast<double>(sampled.active_pixel_count()));
}

TEST(Havs, SortPhaseIsReported) {
  TetFixture f;
  dpp::Device dev = dpp::Device::host();
  HavsRenderer havs(f.tets, dev);
  render::Image img;
  const render::RenderStats stats =
      havs.render(f.cam, TransferFunction(f.colors, 0.0f, 0.3f), img);
  EXPECT_GT(stats.phase_seconds("sort"), 0.0);
  EXPECT_GT(stats.phase_seconds("raster"), 0.0);
}

TEST(Bunyk, ConnectivityIsSymmetric) {
  TetFixture f;
  dpp::Device dev = dpp::Device::host();
  BunykRayCaster bunyk(f.tets, dev);
  EXPECT_GT(bunyk.preprocess_seconds(), 0.0);
}

TEST(Bunyk, ImageConsistentWithSamplingRenderer) {
  TetFixture f;
  dpp::Device dev = dpp::Device::host();
  const TransferFunction tf(f.colors, 0.0f, 0.3f);

  render::UnstructuredVolumeRenderer uvr(f.tets, dev);
  render::Image sampled;
  render::UnstructuredVROptions uopt;
  uopt.samples_in_depth = 200;
  uvr.render(f.cam, tf, sampled, uopt);

  BunykRayCaster bunyk(f.tets, dev);
  render::Image walked;
  const render::RenderStats stats = bunyk.render(f.cam, tf, walked, 200);

  EXPECT_LT(sampled.rms_difference(walked), 0.08);
  EXPECT_GT(stats.cells_spanned, 5.0);  // rays really walk cell to cell
}

TEST(VisItSampler, ImageConsistentWithSamplingRenderer) {
  TetFixture f;
  dpp::Device dev = dpp::Device::host();
  const TransferFunction tf(f.colors, 0.0f, 0.3f);

  render::UnstructuredVolumeRenderer uvr(f.tets, dev);
  render::Image ours;
  render::UnstructuredVROptions uopt;
  uopt.samples_in_depth = 160;
  uopt.early_termination = false;
  uvr.render(f.cam, tf, ours, uopt);

  VisItSampler visit(f.tets, dev);
  render::Image theirs;
  const render::RenderStats stats = visit.render(f.cam, tf, theirs, 160);

  EXPECT_LT(ours.rms_difference(theirs), 0.05);
  for (const char* phase : {"screen_space", "sampling", "compositing"})
    EXPECT_GT(stats.phase_seconds(phase), 0.0) << phase;
}

TEST(VisItSampler, EmptyMeshIsSafe) {
  mesh::TetMesh empty;
  dpp::Device dev = dpp::Device::serial();
  VisItSampler visit(empty, dev);
  render::Image img;
  Camera cam;
  cam.width = cam.height = 16;
  const render::RenderStats stats =
      visit.render(cam, TransferFunction(ColorTable::grayscale(), 0, 0.3f), img);
  EXPECT_EQ(stats.active_pixels, 0.0);
}

}  // namespace
}  // namespace isr::baseline
