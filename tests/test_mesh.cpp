// Tests for the mesh substrate: grids, external faces, tetrahedralization,
// marching-tetrahedra isosurfaces, procedural fields and scenes.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "math/rng.hpp"
#include "mesh/external_faces.hpp"
#include "mesh/fields.hpp"
#include "mesh/isosurface.hpp"
#include "mesh/scenes.hpp"
#include "mesh/structured.hpp"
#include "mesh/tetrahedralize.hpp"
#include "mesh/trimesh.hpp"

namespace isr::mesh {
namespace {

StructuredGrid unit_grid(int n) {
  return StructuredGrid(n, n, n, {0, 0, 0},
                        {1.0f / static_cast<float>(n), 1.0f / static_cast<float>(n),
                         1.0f / static_cast<float>(n)});
}

TEST(StructuredGrid, CountsAndBounds) {
  const StructuredGrid g = unit_grid(4);
  EXPECT_EQ(g.cell_count(), 64u);
  EXPECT_EQ(g.point_count(), 125u);
  const AABB b = g.bounds();
  EXPECT_NEAR(b.lo.x, 0.0f, 1e-6f);
  EXPECT_NEAR(b.hi.z, 1.0f, 1e-6f);
}

TEST(StructuredGrid, TrilinearSamplingIsExactForLinearFields) {
  StructuredGrid g = unit_grid(5);
  // f(x,y,z) = 2x + 3y - z: trilinear interpolation must reproduce exactly.
  for (int k = 0; k <= 5; ++k)
    for (int j = 0; j <= 5; ++j)
      for (int i = 0; i <= 5; ++i) {
        const Vec3f p = g.point(i, j, k);
        g.scalars()[g.point_index(i, j, k)] = 2 * p.x + 3 * p.y - p.z;
      }
  float v;
  ASSERT_TRUE(g.sample({0.33f, 0.71f, 0.52f}, v));
  EXPECT_NEAR(v, 2 * 0.33f + 3 * 0.71f - 0.52f, 1e-5f);
  EXPECT_FALSE(g.sample({1.5f, 0.5f, 0.5f}, v));
}

TEST(StructuredGrid, CellCoordinatesMatchOffsetOverSpacing) {
  // The sample overload's cell-space coordinates give the cell indices the
  // volume renderer counts: (p - bounds.lo) / spacing, truncated, including
  // points on the max faces (index n, unclamped). Its value is the plain
  // sample's.
  StructuredGrid g(7, 5, 9, {-0.7f, 0.3f, 1.1f}, {0.13f, 0.21f, 0.07f});
  fields::fill_blobs(g, 4);
  const AABB b = g.bounds();
  const Vec3f sp = g.spacing();
  std::vector<Vec3f> points;
  Rng rng(17);
  for (int i = 0; i < 500; ++i)
    points.push_back({rng.uniform(b.lo.x, b.hi.x), rng.uniform(b.lo.y, b.hi.y),
                      rng.uniform(b.lo.z, b.hi.z)});
  points.push_back(b.lo);
  points.push_back(b.hi);
  points.push_back({b.hi.x, 0.5f * (b.lo.y + b.hi.y), b.lo.z});
  points.push_back({b.lo.x, b.hi.y, 0.5f * (b.lo.z + b.hi.z)});
  points.push_back({0.5f * (b.lo.x + b.hi.x), b.lo.y, b.hi.z});
  for (int k = 0; k <= g.nz(); ++k)  // every lattice point, max faces included
    for (int j = 0; j <= g.ny(); ++j)
      for (int i = 0; i <= g.nx(); ++i) points.push_back(g.point(i, j, k));

  int on_max_face = 0;
  for (const Vec3f& p : points) {
    float plain = 0, value = 0;
    Vec3f cell;
    const bool inside = g.sample(p, value, cell);
    ASSERT_EQ(inside, g.sample(p, plain));
    if (!inside) continue;
    EXPECT_EQ(std::memcmp(&value, &plain, sizeof(float)), 0);
    const int cx = static_cast<int>((p.x - b.lo.x) / sp.x);
    const int cy = static_cast<int>((p.y - b.lo.y) / sp.y);
    const int cz = static_cast<int>((p.z - b.lo.z) / sp.z);
    EXPECT_EQ(static_cast<int>(cell.x), cx);
    EXPECT_EQ(static_cast<int>(cell.y), cy);
    EXPECT_EQ(static_cast<int>(cell.z), cz);
    if (cx == g.nx() || cy == g.ny() || cz == g.nz()) ++on_max_face;
  }
  EXPECT_GT(on_max_face, 0);
}

TEST(StructuredGrid, NormalizeScalars) {
  StructuredGrid g = unit_grid(2);
  fields::fill_radial(g);
  float lo, hi;
  g.scalar_range(lo, hi);
  EXPECT_NEAR(lo, 0.0f, 1e-6f);
  EXPECT_NEAR(hi, 1.0f, 1e-6f);
}

TEST(ExternalFaces, StructuredCountIs12NSquared) {
  for (int n : {1, 3, 8}) {
    const TriMesh faces = external_faces(unit_grid(n));
    EXPECT_EQ(faces.triangle_count(), static_cast<std::size_t>(12 * n * n)) << "n=" << n;
  }
}

TEST(ExternalFaces, StructuredSurfaceIsClosed) {
  // Every edge of a closed 2-manifold is shared by exactly two triangles.
  const TriMesh faces = external_faces(unit_grid(4));
  std::map<std::pair<int, int>, int> edge_count;
  for (std::size_t t = 0; t < faces.triangle_count(); ++t)
    for (int e = 0; e < 3; ++e) {
      int a = faces.tris[t * 3 + static_cast<std::size_t>(e)];
      int b = faces.tris[t * 3 + static_cast<std::size_t>((e + 1) % 3)];
      if (a > b) std::swap(a, b);
      ++edge_count[{a, b}];
    }
  for (const auto& [edge, count] : edge_count) EXPECT_EQ(count, 2);
}

TEST(ExternalFaces, NormalsPointOutward) {
  const StructuredGrid g = unit_grid(3);
  const TriMesh faces = external_faces(g);
  const Vec3f center = g.bounds().center();
  int outward = 0, total = 0;
  for (std::size_t t = 0; t < faces.triangle_count(); ++t) {
    const Vec3f a = faces.vertex(t, 0), b = faces.vertex(t, 1), c = faces.vertex(t, 2);
    const Vec3f n = cross(b - a, c - a);
    const Vec3f to_face = (a + b + c) / 3.0f - center;
    if (dot(n, to_face) > 0) ++outward;
    ++total;
  }
  EXPECT_EQ(outward, total);
}

TEST(ExternalFaces, HexMeshSingleCell) {
  StructuredGrid g = unit_grid(1);
  const TetMesh tets = tetrahedralize(g);
  (void)tets;
  HexMesh hex;
  hex.points = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
                {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}};
  hex.conn = {0, 1, 2, 3, 4, 5, 6, 7};
  hex.scalars.assign(8, 1.0f);
  const TriMesh faces = external_faces(hex);
  EXPECT_EQ(faces.triangle_count(), 12u);
}

TEST(ExternalFaces, InteriorFacesAreRemoved) {
  // Two stacked hexes: 2*12 - 2*2 = 20 external triangles.
  HexMesh hex;
  for (int k = 0; k <= 2; ++k)
    for (int j = 0; j <= 1; ++j)
      for (int i = 0; i <= 1; ++i)
        hex.points.push_back({static_cast<float>(i), static_cast<float>(j),
                              static_cast<float>(k)});
  auto id = [](int i, int j, int k) { return i + 2 * (j + 2 * k); };
  for (int k = 0; k < 2; ++k) {
    const int c[8] = {id(0, 0, k), id(1, 0, k), id(1, 1, k), id(0, 1, k),
                      id(0, 0, k + 1), id(1, 0, k + 1), id(1, 1, k + 1), id(0, 1, k + 1)};
    hex.conn.insert(hex.conn.end(), c, c + 8);
  }
  hex.scalars.assign(hex.points.size(), 0.0f);
  const TriMesh faces = external_faces(hex);
  EXPECT_EQ(faces.triangle_count(), 20u);
}

TEST(Tetrahedralize, SixTetsPerCellAndVolumePreserved) {
  const StructuredGrid g = unit_grid(3);
  const TetMesh tets = tetrahedralize(g);
  EXPECT_EQ(tets.cell_count(), g.cell_count() * 6);
  // Sum of tet volumes == box volume (the 6-tet split fills each hex).
  double vol = 0.0;
  for (std::size_t t = 0; t < tets.cell_count(); ++t) {
    const Vec3f a = tets.vertex(t, 0);
    const Vec3f e1 = tets.vertex(t, 1) - a;
    const Vec3f e2 = tets.vertex(t, 2) - a;
    const Vec3f e3 = tets.vertex(t, 3) - a;
    vol += std::abs(dot(e1, cross(e2, e3))) / 6.0;
  }
  EXPECT_NEAR(vol, 1.0, 1e-4);
}

TEST(Tetrahedralize, NoDegenerateTets) {
  const TetMesh tets = tetrahedralize(unit_grid(2));
  for (std::size_t t = 0; t < tets.cell_count(); ++t) {
    const Vec3f a = tets.vertex(t, 0);
    const float vol = std::abs(dot(tets.vertex(t, 1) - a,
                                   cross(tets.vertex(t, 2) - a, tets.vertex(t, 3) - a)));
    EXPECT_GT(vol, 1e-8f);
  }
}

TEST(Isosurface, SphereFieldGivesSphericalSurface) {
  StructuredGrid g = unit_grid(24);
  // fill_radial produces 1 - 2*|p - center| re-normalized to [0, 1] over the
  // grid (min is at a cube corner, distance sqrt(3)/2): the 0.5 isosurface
  // sits at raw value (1 - sqrt(3))/2 + 0.5, i.e. radius (1+sqrt(3))/2/2 - 0.25
  // = sqrt(3)/4 - ... solved: r = (1 - (0.5*(1 - sqrt(3)) + 0.5)) / 2.
  fields::fill_radial(g);
  const float raw_lo = 1.0f - std::sqrt(3.0f);  // corner value before normalize
  const float raw_at_iso = raw_lo + 0.5f * (1.0f - raw_lo);
  const float radius = (1.0f - raw_at_iso) / 2.0f;
  const TriMesh surf = isosurface(g, 0.5f);
  ASSERT_GT(surf.triangle_count(), 100u);
  const Vec3f center{0.5f, 0.5f, 0.5f};
  for (const Vec3f& p : surf.points) EXPECT_NEAR(length(p - center), radius, 0.03f);
}

TEST(Isosurface, WatertightEdges) {
  StructuredGrid g = unit_grid(10);
  fields::fill_radial(g);
  const TriMesh surf = isosurface(g, 0.5f);
  std::map<std::pair<int, int>, int> edge_count;
  for (std::size_t t = 0; t < surf.triangle_count(); ++t)
    for (int e = 0; e < 3; ++e) {
      int a = surf.tris[t * 3 + static_cast<std::size_t>(e)];
      int b = surf.tris[t * 3 + static_cast<std::size_t>((e + 1) % 3)];
      if (a > b) std::swap(a, b);
      ++edge_count[{a, b}];
    }
  // A closed isosurface of a sphere entirely inside the domain: every edge
  // is shared by exactly two triangles.
  for (const auto& [edge, count] : edge_count) EXPECT_EQ(count, 2);
}

TEST(Isosurface, OutOfRangeIsoGivesEmptySurface) {
  StructuredGrid g = unit_grid(8);
  fields::fill_radial(g);
  EXPECT_EQ(isosurface(g, 2.0f).triangle_count(), 0u);
  EXPECT_EQ(isosurface(g, -1.0f).triangle_count(), 0u);
}

TEST(Isosurface, SecondaryColorFieldIsInterpolated) {
  StructuredGrid g = unit_grid(8);
  fields::fill_radial(g);
  std::vector<float> colors(g.point_count(), 0.75f);
  const TriMesh surf = isosurface(g, 0.5f, &colors);
  for (const float s : surf.scalars) EXPECT_FLOAT_EQ(s, 0.75f);
}

TEST(TriMesh, VertexNormalsAreUnit) {
  const TriMesh sphere = make_icosphere({0, 0, 0}, 1.0f, 2);
  ASSERT_EQ(sphere.normals.size(), sphere.points.size());
  for (const Vec3f& n : sphere.normals) EXPECT_NEAR(length(n), 1.0f, 1e-4f);
}

TEST(TriMesh, SphereNormalsPointRadially) {
  const TriMesh sphere = make_icosphere({0, 0, 0}, 1.0f, 3);
  for (std::size_t i = 0; i < sphere.points.size(); ++i)
    EXPECT_GT(dot(sphere.normals[i], normalize(sphere.points[i])), 0.95f);
}

TEST(TriMesh, AppendRebasesIndices) {
  TriMesh a = make_box({{0, 0, 0}, {1, 1, 1}});
  const std::size_t tris_a = a.triangle_count();
  TriMesh b = make_box({{2, 0, 0}, {3, 1, 1}});
  a.append(b);
  EXPECT_EQ(a.triangle_count(), tris_a + b.triangle_count());
  for (const int idx : a.tris) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, static_cast<int>(a.points.size()));
  }
}

TEST(Fields, AllGeneratorsProduceNormalizedFields) {
  for (int which = 0; which < 4; ++which) {
    StructuredGrid g = unit_grid(12);
    switch (which) {
      case 0: fields::fill_interface(g); break;
      case 1: fields::fill_lattice(g); break;
      case 2: fields::fill_turbulence(g); break;
      case 3: fields::fill_blobs(g); break;
    }
    float lo, hi;
    g.scalar_range(lo, hi);
    EXPECT_NEAR(lo, 0.0f, 1e-5f) << which;
    EXPECT_NEAR(hi, 1.0f, 1e-5f) << which;
  }
}

TEST(Scenes, AllChapter2ScenesBuild) {
  for (const SceneInfo& info : chapter2_scenes()) {
    const TriMesh scene = make_scene(info.name, 0.15f);
    EXPECT_GT(scene.triangle_count(), 10u) << info.name;
    EXPECT_EQ(scene.scalars.size(), scene.points.size()) << info.name;
    EXPECT_TRUE(scene.bounds().valid()) << info.name;
  }
  EXPECT_THROW(make_scene("not-a-scene"), std::invalid_argument);
}

TEST(Scenes, ScaleControlsTriangleCount) {
  const std::size_t small = make_scene("RM 350K", 0.12f).triangle_count();
  const std::size_t large = make_scene("RM 350K", 0.3f).triangle_count();
  EXPECT_GT(large, small * 2);
}

TEST(Scenes, SphereFlakeGrowsWithDepth) {
  const std::size_t d1 = make_sphere_flake({0, 0, 0}, 1.0f, 1).triangle_count();
  const std::size_t d2 = make_sphere_flake({0, 0, 0}, 1.0f, 2).triangle_count();
  EXPECT_EQ(d2 > d1, true);
  EXPECT_EQ(d1 % make_icosphere({0, 0, 0}, 1.0f, 2).triangle_count(), 0u);
}

}  // namespace
}  // namespace isr::mesh
