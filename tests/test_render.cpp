// Renderer correctness: image-level invariants of the ray tracer,
// rasterizer, structured and unstructured volume renderers, plus the
// cross-renderer consistency the paper's comparisons rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "core/thread_pool.hpp"
#include "math/colormap.hpp"
#include "mesh/fields.hpp"
#include "mesh/isosurface.hpp"
#include "mesh/scenes.hpp"
#include "mesh/tetrahedralize.hpp"
#include "render/rast/rasterizer.hpp"
#include "render/rt/raytracer.hpp"
#include "render/uvr/unstructured.hpp"
#include "render/vr/volume.hpp"

namespace isr::render {
namespace {

struct Fixture {
  mesh::TriMesh sphere = mesh::make_icosphere({0.5f, 0.5f, 0.5f}, 0.4f, 4);
  Camera cam = Camera::framing(sphere.bounds(), 160, 160);
  ColorTable colors = ColorTable::cool_warm();
};

TEST(RayTracer, SphereCoverageMatchesAnalyticSilhouette) {
  Fixture f;
  dpp::Device dev = dpp::Device::host();
  RayTracer rt(f.sphere, dev);
  Image img;
  const RenderStats stats = rt.render(f.cam, f.colors, img);

  // Expected silhouette solid angle: the sphere of radius r at distance d
  // subtends a disc of angular radius asin(r/d).
  const float d = length(f.cam.position - Vec3f{0.5f, 0.5f, 0.5f});
  const float ang = std::asin(0.4f / d);
  const float fov = f.cam.fov_y_degrees * 3.14159265f / 180.0f;
  const float frac = (ang * ang) / (fov * fov / 4.0f) * 3.14159265f / 4.0f;
  const double expected = static_cast<double>(frac) * f.cam.pixel_count();
  EXPECT_NEAR(stats.active_pixels, expected, expected * 0.15);
  EXPECT_EQ(static_cast<std::size_t>(stats.active_pixels), img.active_pixel_count());
}

TEST(RayTracer, DepthIncreasesTowardSilhouette) {
  Fixture f;
  dpp::Device dev = dpp::Device::host();
  RayTracer rt(f.sphere, dev);
  Image img;
  rt.render(f.cam, f.colors, img);
  const float center_depth = img.depth(80, 80);
  ASSERT_NE(center_depth, kFarDepth);
  // A hit near the silhouette is farther than the center hit.
  float edge_depth = kFarDepth;
  for (int x = 80; x < 160; ++x) {
    if (img.depth(x, 80) == kFarDepth) break;
    edge_depth = img.depth(x, 80);
  }
  EXPECT_GT(edge_depth, center_depth);
}

TEST(RayTracer, WorkloadsProduceProgressivelyRicherImages) {
  Fixture f;
  dpp::Device dev = dpp::Device::host();
  RayTracer rt(f.sphere, dev);
  Image w1, w2, w3;
  RayTracerOptions o;
  o.workload = RayTracerOptions::Workload::kIntersect;
  rt.render(f.cam, f.colors, w1, o);
  o.workload = RayTracerOptions::Workload::kShaded;
  rt.render(f.cam, f.colors, w2, o);
  o.workload = RayTracerOptions::Workload::kFull;
  rt.render(f.cam, f.colors, w3, o);
  // Same coverage in all workloads; different shading.
  EXPECT_EQ(w1.active_pixel_count(), w2.active_pixel_count());
  EXPECT_GT(w2.rms_difference(w1), 0.01);
  EXPECT_GT(w3.rms_difference(w2), 0.001);  // AO + shadows change the image
}

TEST(RayTracer, CompactionDoesNotChangeTheImage) {
  Fixture f;
  dpp::Device dev = dpp::Device::host();
  RayTracer rt(f.sphere, dev);
  RayTracerOptions with, without;
  with.workload = without.workload = RayTracerOptions::Workload::kFull;
  with.anti_alias = without.anti_alias = false;  // keep deterministic
  with.stream_compaction = true;
  without.stream_compaction = false;
  Image a, b;
  rt.render(f.cam, f.colors, a, with);
  rt.render(f.cam, f.colors, b, without);
  EXPECT_LT(a.rms_difference(b), 1e-6);
}

TEST(RayTracer, PhaseTimingsArePopulated) {
  Fixture f;
  dpp::Device dev = dpp::Device::host();
  RayTracer rt(f.sphere, dev);
  Image img;
  const RenderStats stats = rt.render(f.cam, f.colors, img);
  EXPECT_GT(rt.bvh_build_stats().phase_seconds("bvh_build"), 0.0);
  EXPECT_GT(stats.phase_seconds("trace"), 0.0);
  EXPECT_GT(stats.phase_seconds("shade"), 0.0);
  EXPECT_DOUBLE_EQ(stats.phase_seconds("bvh_build"), 0.0);  // not re-built per frame
}

TEST(RayTracer, EmptyMeshRendersBackground) {
  mesh::TriMesh empty;
  dpp::Device dev = dpp::Device::serial();
  RayTracer rt(empty, dev);
  Camera cam;
  cam.width = cam.height = 32;
  Image img;
  RayTracerOptions o;
  o.background = {0.1f, 0.2f, 0.3f, 1.0f};
  const RenderStats stats = rt.render(cam, ColorTable::cool_warm(), img, o);
  EXPECT_EQ(stats.active_pixels, 0.0);
  EXPECT_FLOAT_EQ(img.pixel(5, 5).z, 0.3f);
}

TEST(RayTracer, SpecularReflectionExtensionChangesImage) {
  Fixture f;
  dpp::Device dev = dpp::Device::host();
  // Two spheres so reflections have something to see.
  mesh::TriMesh two = f.sphere;
  two.append(mesh::make_icosphere({1.3f, 0.5f, 0.5f}, 0.3f, 3));
  RayTracer rt(two, dev);
  const Camera cam = Camera::framing(two.bounds(), 128, 128);
  RayTracerOptions base, refl;
  refl.max_specular_depth = 1;
  refl.specular_reflectance = 0.5f;
  Image a, b;
  rt.render(cam, f.colors, a, base);
  rt.render(cam, f.colors, b, refl);
  EXPECT_GT(a.rms_difference(b), 1e-4);
}

TEST(Rasterizer, AgreesWithRayTracerOnCoverageAndColor) {
  Fixture f;
  dpp::Device dev = dpp::Device::host();
  RayTracer rt(f.sphere, dev);
  Rasterizer rast(f.sphere, dev);
  Image rt_img, rast_img;
  const RenderStats rt_stats = rt.render(f.cam, f.colors, rt_img);
  const RenderStats rast_stats = rast.render(f.cam, f.colors, rast_img);
  // Identical silhouettes (same camera math) and very similar shading.
  EXPECT_NEAR(rast_stats.active_pixels, rt_stats.active_pixels,
              rt_stats.active_pixels * 0.02);
  EXPECT_LT(rt_img.rms_difference(rast_img), 0.05);
}

TEST(Rasterizer, CullsOffscreenGeometry) {
  Fixture f;
  dpp::Device dev = dpp::Device::serial();
  // Add a second sphere far outside the view frustum.
  mesh::TriMesh scene = f.sphere;
  scene.append(mesh::make_icosphere({50, 50, 50}, 0.4f, 3));
  Rasterizer rast(scene, dev);
  Image img;
  const RenderStats stats = rast.render(f.cam, f.colors, img);
  EXPECT_EQ(stats.objects, static_cast<double>(scene.triangle_count()));
  // Exactly the first sphere's triangles survive the cull.
  EXPECT_EQ(stats.visible_objects, static_cast<double>(f.sphere.triangle_count()));
}

TEST(Rasterizer, DepthTestKeepsNearestSurface) {
  // Two overlapping quads at different depths; the closer one must win.
  mesh::TriMesh quads;
  quads.points = {{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},    // near, scalar 0
                  {0, 0, 2}, {1, 0, 2}, {1, 1, 2}, {0, 1, 2}};   // far, scalar 1
  quads.tris = {0, 1, 2, 0, 2, 3, 4, 5, 6, 4, 6, 7};
  quads.scalars = {0, 0, 0, 0, 1, 1, 1, 1};
  quads.compute_vertex_normals();
  Camera cam;
  cam.position = {0.5f, 0.5f, -2.0f};
  cam.look_at = {0.5f, 0.5f, 1.0f};
  cam.width = cam.height = 64;
  dpp::Device dev = dpp::Device::serial();
  Rasterizer rast(quads, dev);
  Image img;
  rast.render(cam, ColorTable::grayscale(), img);
  // Center pixel: near quad has scalar 0 (dark gray after shading).
  ASSERT_NE(img.depth(32, 32), kFarDepth);
  EXPECT_NEAR(img.depth(32, 32), 3.0f, 0.05f);
  EXPECT_LT(img.pixel(32, 32).x, 0.5f);
}

TEST(Rasterizer, StatsExposeModelVariables) {
  Fixture f;
  dpp::Device dev = dpp::Device::host();
  Rasterizer rast(f.sphere, dev);
  Image img;
  const RenderStats stats = rast.render(f.cam, f.colors, img);
  EXPECT_GT(stats.visible_objects, 0.0);
  EXPECT_GT(stats.pixels_per_tri, 0.0);
  EXPECT_GT(stats.phase_seconds("cull"), 0.0);
  EXPECT_GT(stats.phase_seconds("raster"), 0.0);
}

// --- Structured volume renderer -------------------------------------------

struct VolumeFixture {
  VolumeFixture() : grid(32, 32, 32, {0, 0, 0}, {1 / 32.f, 1 / 32.f, 1 / 32.f}) {
    mesh::fields::fill_radial(grid);
    cam = Camera::framing(grid.bounds(), 128, 128);
  }
  mesh::StructuredGrid grid;
  Camera cam;
  ColorTable colors = ColorTable::cool_warm();
};

TEST(VolumeRenderer, OpaqueTransferFunctionSaturatesAlpha) {
  VolumeFixture f;
  dpp::Device dev = dpp::Device::host();
  StructuredVolumeRenderer vr(f.grid, dev);
  const TransferFunction opaque(f.colors, 0.9f, 1.0f);
  Image img;
  vr.render(f.cam, opaque, img);
  // The ray through the volume center must saturate.
  EXPECT_GT(img.pixel(64, 64).w, 0.95f);
}

TEST(VolumeRenderer, TransparentTransferFunctionGivesNothing) {
  VolumeFixture f;
  dpp::Device dev = dpp::Device::serial();
  StructuredVolumeRenderer vr(f.grid, dev);
  const TransferFunction clear(f.colors, 0.0f, 0.0f);
  Image img;
  const RenderStats stats = vr.render(f.cam, clear, img);
  EXPECT_EQ(stats.active_pixels, 0.0);
}

TEST(VolumeRenderer, EarlyTerminationReducesSamplesNotImage) {
  VolumeFixture f;
  dpp::Device dev = dpp::Device::host();
  StructuredVolumeRenderer vr(f.grid, dev);
  const TransferFunction tf(f.colors, 0.3f, 0.9f);
  VolumeRenderOptions with, without;
  with.early_termination = true;
  without.early_termination = false;
  Image a, b;
  const RenderStats sa = vr.render(f.cam, tf, a, with);
  const RenderStats sb = vr.render(f.cam, tf, b, without);
  EXPECT_LT(sa.samples_per_ray, sb.samples_per_ray);
  EXPECT_LT(a.rms_difference(b), 0.03);  // saturated pixels look the same
}

TEST(VolumeRenderer, StatsMatchGeometry) {
  VolumeFixture f;
  dpp::Device dev = dpp::Device::host();
  StructuredVolumeRenderer vr(f.grid, dev);
  const TransferFunction tf(f.colors, 0.0f, 0.3f);
  Image img;
  VolumeRenderOptions opt;
  opt.samples = 200;
  opt.early_termination = false;  // measure the full geometric span
  const RenderStats stats = vr.render(f.cam, tf, img, opt);
  EXPECT_EQ(stats.objects, static_cast<double>(f.grid.cell_count()));
  // A ray through an N^3 grid can cross at most ~3N cell boundaries (the
  // paper maps CS to N as a good estimate; the diagonal bound is 3N).
  EXPECT_GT(stats.cells_spanned, 16.0);
  EXPECT_LE(stats.cells_spanned, 3.0 * 32 + 3);
  EXPECT_GT(stats.samples_per_ray, 10.0);
  EXPECT_LE(stats.samples_per_ray, 200.0);
}

TEST(VolumeRenderer, NonPositiveSampleCountRendersLikeOneSample) {
  // The step and the opacity correction both use the clamped count, so a
  // count <= 0 is one sample across the diagonal, not an empty image.
  VolumeFixture f;
  dpp::Device dev = dpp::Device::serial();
  StructuredVolumeRenderer vr(f.grid, dev);
  const TransferFunction tf(f.colors, 0.05f, 0.3f);
  Image one;
  VolumeRenderOptions opt;
  opt.samples = 1;
  vr.render(f.cam, tf, one, opt);
  ASSERT_GT(one.active_pixel_count(), 0u);
  for (const int samples : {0, -5}) {
    Image img;
    opt.samples = samples;
    vr.render(f.cam, tf, img, opt);
    EXPECT_EQ(std::memcmp(img.pixels().data(), one.pixels().data(),
                          one.pixels().size() * sizeof(Vec4f)),
              0)
        << "samples=" << samples;
    EXPECT_EQ(std::memcmp(img.depths().data(), one.depths().data(),
                          one.depths().size() * sizeof(float)),
              0)
        << "samples=" << samples;
    for (const Vec4f& px : img.pixels()) {
      ASSERT_GE(px.w, 0.0f) << "samples=" << samples;
      ASSERT_LE(px.w, 1.0f) << "samples=" << samples;
    }
  }
}

// --- Unstructured volume renderer -----------------------------------------

TEST(UnstructuredVR, MatchesStructuredRendererOnSameField) {
  VolumeFixture f;
  dpp::Device dev = dpp::Device::host();
  const mesh::TetMesh tets = mesh::tetrahedralize(f.grid);
  const TransferFunction tf(f.colors, 0.0f, 0.35f);

  StructuredVolumeRenderer vr(f.grid, dev);
  Image structured;
  VolumeRenderOptions vopt;
  vopt.samples = 200;
  vopt.early_termination = false;
  vr.render(f.cam, tf, structured, vopt);

  UnstructuredVolumeRenderer uvr(tets, dev);
  Image unstructured;
  UnstructuredVROptions uopt;
  uopt.samples_in_depth = 200;
  uopt.early_termination = false;
  uvr.render(f.cam, tf, unstructured, uopt);

  // Same field, same camera: images agree to sampling tolerance.
  EXPECT_LT(structured.rms_difference(unstructured), 0.05);
}

TEST(UnstructuredVR, PassCountDoesNotChangeTheImage) {
  VolumeFixture f;
  dpp::Device dev = dpp::Device::host();
  const mesh::TetMesh tets = mesh::tetrahedralize(f.grid);
  const TransferFunction tf(f.colors, 0.0f, 0.35f);
  UnstructuredVolumeRenderer uvr(tets, dev);
  Image one, four;
  UnstructuredVROptions o1, o4;
  o1.samples_in_depth = o4.samples_in_depth = 120;
  o1.num_passes = 1;
  o4.num_passes = 4;
  o1.early_termination = o4.early_termination = false;
  uvr.render(f.cam, tf, one, o1);
  uvr.render(f.cam, tf, four, o4);
  // Samples exactly on shared tet faces can be claimed by either neighbor
  // and the winner depends on traversal order, so allow a small tolerance.
  EXPECT_LT(one.rms_difference(four), 0.01);
}

TEST(UnstructuredVR, AllFourPhasesReportTime) {
  VolumeFixture f;
  dpp::Device dev = dpp::Device::host();
  const mesh::TetMesh tets = mesh::tetrahedralize(f.grid);
  const TransferFunction tf(f.colors, 0.0f, 0.35f);
  UnstructuredVolumeRenderer uvr(tets, dev);
  Image img;
  UnstructuredVROptions opt;
  opt.num_passes = 2;
  const RenderStats stats = uvr.render(f.cam, tf, img, opt);
  for (const char* phase :
       {"initialization", "pass_selection", "screen_space", "sampling", "compositing"})
    EXPECT_GT(stats.phase_seconds(phase), 0.0) << phase;
}

TEST(Image, PpmAndPngWritersProduceFiles) {
  Image img(16, 16);
  img.clear({0.5f, 0.25f, 1.0f, 1.0f});
  EXPECT_TRUE(img.write_ppm("/tmp/isr_test.ppm"));
  EXPECT_TRUE(img.write_png("/tmp/isr_test.png"));
  FILE* f = fopen("/tmp/isr_test.png", "rb");
  ASSERT_NE(f, nullptr);
  unsigned char magic[8];
  ASSERT_EQ(fread(magic, 1, 8, f), 8u);
  EXPECT_EQ(magic[1], 'P');
  EXPECT_EQ(magic[2], 'N');
  fclose(f);
}

// --- Golden render digests ---------------------------------------------------

// FNV-1a over every pixel's and depth's bits, the RenderStats model inputs
// and the kernel tape (phase, element count and cost annotation of every
// kernel: the counted work the simulated devices charge). A kernel speedup
// must leave all of these bit-identical; the pinned values were taken
// before the volume, camera and BVH kernels were last optimized.
class RenderDigest {
 public:
  std::uint64_t value() const { return h_; }

  void bytes(const void* p, std::size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001B3ull;
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void render(const Image& img, const RenderStats& s, const dpp::KernelTape& tape) {
    u64(static_cast<std::uint64_t>(img.width()));
    u64(static_cast<std::uint64_t>(img.height()));
    bytes(img.pixels().data(), img.pixels().size() * sizeof(Vec4f));
    bytes(img.depths().data(), img.depths().size() * sizeof(float));
    for (const double v : {s.objects, s.active_pixels, s.visible_objects, s.pixels_per_tri,
                           s.samples_per_ray, s.cells_spanned})
      f64(v);
    u64(tape.size());
    for (const dpp::KernelRecord& k : tape) {
      u64(k.phase.size());
      bytes(k.phase.data(), k.phase.size());
      u64(k.n);
      f64(k.cost.flops_per_elem);
      f64(k.cost.bytes_per_elem);
      f64(k.cost.divergence);
    }
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// Two odd image sizes (non-square, so aspect and the pixel-index split are
// exercised); host device at ISR_THREADS threads, so the digests also pin
// thread-count independence.
constexpr int kGoldenSizes[2][2] = {{97, 61}, {45, 83}};

dpp::Device golden_device() { return dpp::Device::host(core::default_thread_count()); }

struct GoldenScene {
  GoldenScene() : grid(27, 22, 31, {-0.3f, 0.1f, 0.2f}, {0.041f, 0.05f, 0.035f}) {
    mesh::fields::fill_blobs(grid, 6);
    surface = mesh::isosurface(grid, 0.5f);
  }
  mesh::StructuredGrid grid;
  mesh::TriMesh surface;
  ColorTable colors = ColorTable::cool_warm();
};

std::uint64_t golden_vr_digest(const GoldenScene& scene, int w, int h) {
  dpp::Device dev = golden_device();
  StructuredVolumeRenderer vr(scene.grid, dev);
  const TransferFunction tf(scene.colors, 0.05f, 0.3f);
  dpp::KernelTape tape;
  dev.set_tape(&tape);
  Image img;
  VolumeRenderOptions opt;
  opt.samples = 173;
  const RenderStats stats =
      vr.render(Camera::framing(scene.grid.bounds(), w, h, 1.3f), tf, img, opt);
  EXPECT_GT(stats.active_pixels, 0.1 * w * h);  // a digest of a blank image pins little
  RenderDigest d;
  d.render(img, stats, tape);
  return d.value();
}

std::uint64_t golden_rt_digest(const GoldenScene& scene, int w, int h,
                               RayTracerOptions::Workload workload) {
  dpp::Device dev = golden_device();
  dpp::KernelTape tape;
  dev.set_tape(&tape);
  RayTracer rt(scene.surface, dev);  // the BVH build is on the tape too
  RayTracerOptions opt;
  opt.workload = workload;
  // The full workload also traces one reflection generation, so every
  // closest-hit and any-hit caller is covered.
  if (workload == RayTracerOptions::Workload::kFull) opt.max_specular_depth = 1;
  Image img;
  const RenderStats stats =
      rt.render(Camera::framing(scene.surface.bounds(), w, h, 1.3f), scene.colors, img, opt);
  EXPECT_GT(stats.active_pixels, 0.1 * w * h);  // a digest of a blank image pins little
  RenderDigest d;
  d.render(img, stats, tape);
  return d.value();
}

std::uint64_t golden_rast_digest(const GoldenScene& scene, int w, int h) {
  dpp::Device dev = golden_device();
  dpp::KernelTape tape;
  dev.set_tape(&tape);
  Rasterizer rast(scene.surface, dev);
  Image img;
  const RenderStats stats =
      rast.render(Camera::framing(scene.surface.bounds(), w, h, 1.3f), scene.colors, img);
  EXPECT_GT(stats.active_pixels, 0.1 * w * h);  // a digest of a blank image pins little
  RenderDigest d;
  d.render(img, stats, tape);
  return d.value();
}

TEST(RenderGolden, StructuredVolumeDigestsArePinned) {
  const GoldenScene scene;
  const std::uint64_t expected[2] = {0xE3EEBD70DDB36DB0ull, 0xEDC538E07A938801ull};
  for (int i = 0; i < 2; ++i)
    EXPECT_EQ(golden_vr_digest(scene, kGoldenSizes[i][0], kGoldenSizes[i][1]), expected[i]);
}

TEST(RenderGolden, RayTracerShadedDigestsArePinned) {
  const GoldenScene scene;
  ASSERT_GT(scene.surface.triangle_count(), 1000u);
  const std::uint64_t expected[2] = {0x9D4AE1C617F5170Bull, 0x5607291D99743786ull};
  for (int i = 0; i < 2; ++i)
    EXPECT_EQ(golden_rt_digest(scene, kGoldenSizes[i][0], kGoldenSizes[i][1],
                               RayTracerOptions::Workload::kShaded),
              expected[i]);
}

TEST(RenderGolden, RayTracerFullDigestsArePinned) {
  const GoldenScene scene;
  const std::uint64_t expected[2] = {0x5232BC9B56188545ull, 0xF5529D87A6A45470ull};
  for (int i = 0; i < 2; ++i)
    EXPECT_EQ(golden_rt_digest(scene, kGoldenSizes[i][0], kGoldenSizes[i][1],
                               RayTracerOptions::Workload::kFull),
              expected[i]);
}

TEST(RenderGolden, RasterizerDigestsArePinned) {
  const GoldenScene scene;
  const std::uint64_t expected[2] = {0x5EADFB489A606D03ull, 0xDF133E43B39D18DFull};
  for (int i = 0; i < 2; ++i)
    EXPECT_EQ(golden_rast_digest(scene, kGoldenSizes[i][0], kGoldenSizes[i][1]), expected[i]);
}

}  // namespace
}  // namespace isr::render
