// BVH invariants and traversal correctness: every primitive reachable
// exactly once, node bounds contain children, traversal agrees with brute
// force, any-hit consistent with closest-hit. Parameterized across scenes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <set>

#include "dpp/primitives.hpp"
#include "math/rng.hpp"
#include "mesh/scenes.hpp"
#include "render/rt/bvh.hpp"

namespace isr::render {
namespace {

mesh::TriMesh scene_by_name(const std::string& name) {
  if (name == "sphere") return mesh::make_icosphere({0.5f, 0.5f, 0.5f}, 0.4f, 3);
  if (name == "flake") return mesh::make_sphere_flake({0.5f, 0.5f, 0.5f}, 0.2f, 2);
  if (name == "room") return mesh::make_room(4);
  if (name == "terrain") return mesh::make_terrain(24);
  return {};
}

class BvhScenes : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(Scenes, BvhScenes,
                         ::testing::Values("sphere", "flake", "room", "terrain"));

TEST_P(BvhScenes, EveryPrimitiveInExactlyOneLeaf) {
  const mesh::TriMesh scene = scene_by_name(GetParam());
  dpp::Device dev = dpp::Device::serial();
  const Bvh bvh = build_lbvh(dev, scene);
  ASSERT_EQ(bvh.prim_order.size(), scene.triangle_count());
  std::set<int> prims(bvh.prim_order.begin(), bvh.prim_order.end());
  EXPECT_EQ(prims.size(), scene.triangle_count());

  if (bvh.single_leaf() || bvh.empty()) return;
  // Walk the tree; count leaf references.
  std::set<int> leaves;
  std::function<void(int)> walk = [&](int child) {
    if (child < 0) {
      EXPECT_TRUE(leaves.insert(~child).second) << "leaf visited twice";
      return;
    }
    const BvhNode& node = bvh.nodes[static_cast<std::size_t>(child)];
    walk(node.left);
    walk(node.right);
  };
  const BvhNode& root = bvh.nodes[0];
  walk(root.left);
  walk(root.right);
  EXPECT_EQ(leaves.size(), scene.triangle_count());
}

TEST_P(BvhScenes, NodeBoundsContainPrimitives) {
  const mesh::TriMesh scene = scene_by_name(GetParam());
  dpp::Device dev = dpp::Device::serial();
  const Bvh bvh = build_lbvh(dev, scene);
  if (bvh.empty() || bvh.single_leaf()) return;

  const float eps = 1e-4f * length(bvh.scene_bounds.extent());
  std::function<AABB(int)> check = [&](int child) -> AABB {
    if (child < 0) return scene.triangle_bounds(
        static_cast<std::size_t>(bvh.prim_order[static_cast<std::size_t>(~child)]));
    const BvhNode& node = bvh.nodes[static_cast<std::size_t>(child)];
    const AABB left = check(node.left);
    const AABB right = check(node.right);
    // Stored child bounds must contain the true subtree bounds.
    EXPECT_LE(node.left_bounds.lo.x, left.lo.x + eps);
    EXPECT_GE(node.left_bounds.hi.x, left.hi.x - eps);
    EXPECT_LE(node.right_bounds.lo.y, right.lo.y + eps);
    EXPECT_GE(node.right_bounds.hi.z, right.hi.z - eps);
    AABB merged = left;
    merged.expand(right);
    return merged;
  };
  const BvhNode& root = bvh.nodes[0];
  AABB total = check(root.left);
  total.expand(check(root.right));
  EXPECT_TRUE(bvh.scene_bounds.contains(total.center()));
}

TEST_P(BvhScenes, TraversalMatchesBruteForce) {
  const mesh::TriMesh scene = scene_by_name(GetParam());
  dpp::Device dev = dpp::Device::serial();
  const Bvh bvh = build_lbvh(dev, scene);
  const AABB bounds = scene.bounds();
  const Vec3f center = bounds.center();
  const float radius = length(bounds.extent());

  Rng rng(99);
  int hits = 0;
  for (int i = 0; i < 200; ++i) {
    // Random rays aimed at the scene from outside.
    const Vec3f origin =
        center + normalize(Vec3f{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)}) *
                     radius * 1.5f;
    const Vec3f target = center + Vec3f{rng.uniform(-0.3f, 0.3f), rng.uniform(-0.3f, 0.3f),
                                        rng.uniform(-0.3f, 0.3f)} *
                                      radius;
    const Vec3f dir = normalize(target - origin);

    long long steps = 0;
    const HitResult fast = intersect_closest(bvh, origin, dir, 0.0f, 1e30f, steps);

    // Brute force reference.
    HitResult ref;
    ref.t = 1e30f;
    for (std::size_t t = 0; t < scene.triangle_count(); ++t) {
      float tt, u, v;
      if (intersect_triangle(origin, dir, scene.vertex(t, 0), scene.vertex(t, 1),
                             scene.vertex(t, 2), 0.0f, ref.t, tt, u, v)) {
        ref.prim = static_cast<int>(t);
        ref.t = tt;
      }
    }

    EXPECT_EQ(fast.hit(), ref.hit()) << "ray " << i;
    if (fast.hit() && ref.hit()) {
      EXPECT_NEAR(fast.t, ref.t, 1e-3f * radius) << "ray " << i;
      ++hits;
    }
  }
  EXPECT_GT(hits, 50) << "test should actually hit the scene";
}

TEST_P(BvhScenes, AnyHitConsistentWithClosest) {
  const mesh::TriMesh scene = scene_by_name(GetParam());
  dpp::Device dev = dpp::Device::serial();
  const Bvh bvh = build_lbvh(dev, scene);
  const AABB bounds = scene.bounds();
  const float radius = length(bounds.extent());

  Rng rng(123);
  for (int i = 0; i < 100; ++i) {
    const Vec3f origin = bounds.center() +
                         Vec3f{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)} *
                             radius;
    const Vec3f dir =
        normalize(Vec3f{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)});
    long long s1 = 0, s2 = 0;
    const bool closest = intersect_closest(bvh, origin, dir, 0.0f, 1e30f, s1).hit();
    const bool any = intersect_any(bvh, origin, dir, 0.0f, 1e30f, s2);
    EXPECT_EQ(closest, any);
  }
}

TEST_P(BvhScenes, LeafArrayIntersectionMatchesVertexForm) {
  // leaf_tris[i] is triangle prim_order[i] in {a, b-a, c-a} form: testing it
  // must give the vertex form's hit, t, u and v bit for bit, and a traversal
  // hit must be exactly the vertex-form hit of the prim it reports.
  const mesh::TriMesh scene = scene_by_name(GetParam());
  dpp::Device dev = dpp::Device::serial();
  const Bvh bvh = build_lbvh(dev, scene);
  ASSERT_EQ(bvh.leaf_tris.size(), scene.triangle_count());
  const AABB bounds = scene.bounds();
  const Vec3f center = bounds.center();
  const float radius = length(bounds.extent());
  const auto bits = [](float f) {
    std::uint32_t b = 0;
    std::memcpy(&b, &f, sizeof(b));
    return b;
  };

  Rng rng(4242);
  int leaf_hits = 0, traversal_hits = 0;
  for (int i = 0; i < 60; ++i) {
    const Vec3f origin =
        center + normalize(Vec3f{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)}) *
                     radius * 1.5f;
    const Vec3f target = center + Vec3f{rng.uniform(-0.3f, 0.3f), rng.uniform(-0.3f, 0.3f),
                                        rng.uniform(-0.3f, 0.3f)} *
                                      radius;
    const Vec3f dir = normalize(target - origin);

    for (std::size_t leaf = 0; leaf < bvh.leaf_tris.size(); ++leaf) {
      const std::size_t prim = static_cast<std::size_t>(bvh.prim_order[leaf]);
      const LeafTri& tri = bvh.leaf_tris[leaf];
      float t1 = 0, u1 = 0, v1 = 0, t2 = 0, u2 = 0, v2 = 0;
      const bool edge_hit =
          intersect_triangle_edges(origin, dir, tri.a, tri.ab, tri.ac, 0.0f, 1e30f, t1, u1, v1);
      const bool vertex_hit =
          intersect_triangle(origin, dir, scene.vertex(prim, 0), scene.vertex(prim, 1),
                             scene.vertex(prim, 2), 0.0f, 1e30f, t2, u2, v2);
      ASSERT_EQ(edge_hit, vertex_hit) << "ray " << i << " leaf " << leaf;
      if (!edge_hit) continue;
      ++leaf_hits;
      EXPECT_EQ(bits(t1), bits(t2));
      EXPECT_EQ(bits(u1), bits(u2));
      EXPECT_EQ(bits(v1), bits(v2));
    }

    long long steps = 0;
    const HitResult h = intersect_closest(bvh, origin, dir, 0.0f, 1e30f, steps);
    if (!h.hit()) continue;
    ++traversal_hits;
    const std::size_t prim = static_cast<std::size_t>(h.prim);
    float t = 0, u = 0, v = 0;
    ASSERT_TRUE(intersect_triangle(origin, dir, scene.vertex(prim, 0), scene.vertex(prim, 1),
                                   scene.vertex(prim, 2), 0.0f, 1e30f, t, u, v));
    EXPECT_EQ(bits(h.t), bits(t)) << "ray " << i;
    EXPECT_EQ(bits(h.u), bits(u)) << "ray " << i;
    EXPECT_EQ(bits(h.v), bits(v)) << "ray " << i;
  }
  EXPECT_GT(leaf_hits, 20) << "test should actually hit the scene";
  EXPECT_GT(traversal_hits, 20);
}

TEST(Bvh, EmptyAndSingleTriangle) {
  dpp::Device dev = dpp::Device::serial();
  mesh::TriMesh empty;
  const Bvh none = build_lbvh(dev, empty);
  EXPECT_TRUE(none.empty());
  long long steps = 0;
  EXPECT_FALSE(intersect_closest(none, {0, 0, 0}, {0, 0, 1}, 0, 1e30f, steps).hit());

  mesh::TriMesh one;
  one.points = {{0, 0, 1}, {1, 0, 1}, {0, 1, 1}};
  one.tris = {0, 1, 2};
  one.scalars = {0, 0, 0};
  const Bvh single = build_lbvh(dev, one);
  EXPECT_TRUE(single.single_leaf());
  const HitResult hit =
      intersect_closest(single, {0.2f, 0.2f, 0.0f}, {0, 0, 1}, 0.0f, 10.0f, steps);
  ASSERT_TRUE(hit.hit());
  EXPECT_NEAR(hit.t, 1.0f, 1e-5f);
}

TEST(Bvh, MaxDistanceRespected) {
  const mesh::TriMesh scene = mesh::make_icosphere({0, 0, 5}, 1.0f, 2);
  dpp::Device dev = dpp::Device::serial();
  const Bvh bvh = build_lbvh(dev, scene);
  long long steps = 0;
  // Sphere surface begins at z = 4; a tmax of 2 cannot reach it.
  EXPECT_FALSE(intersect_any(bvh, {0, 0, 0}, {0, 0, 1}, 0.0f, 2.0f, steps));
  EXPECT_TRUE(intersect_any(bvh, {0, 0, 0}, {0, 0, 1}, 0.0f, 10.0f, steps));
}

TEST(Bvh, TunedBvhVisitsFewerOrEqualNodes) {
  // The median-split baseline BVH should trace with no more work than the
  // LBVH on average — the quality gap Tables 3-4 attribute to vendor BVHs.
  // (Covered further in baseline tests; here we just check LBVH step counts
  // are sane: bounded by primitive count per ray.)
  const mesh::TriMesh scene = mesh::make_sphere_flake({0, 0, 0}, 1.0f, 2);
  dpp::Device dev = dpp::Device::serial();
  const Bvh bvh = build_lbvh(dev, scene);
  long long steps = 0;
  intersect_closest(bvh, {0, 0, 5}, {0, 0, -1}, 0.0f, 1e30f, steps);
  EXPECT_LT(steps, static_cast<long long>(scene.triangle_count()));
  EXPECT_GT(steps, 0);
}

}  // namespace
}  // namespace isr::render
