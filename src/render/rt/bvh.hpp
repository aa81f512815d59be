// Linear BVH over triangles, built with data-parallel primitives in the
// style of Karras (the paper's "variant of a Linear Bounding Volume
// Hierarchy (LBVH), which has a build-time complexity of O(n)", §5.5):
// Morton-code the primitive centroids, radix sort, emit the hierarchy with
// the longest-common-prefix construction, then refit AABBs bottom-up.
#pragma once

#include <vector>

#include "dpp/device.hpp"
#include "math/aabb.hpp"
#include "mesh/trimesh.hpp"

namespace isr::render {

struct BvhNode {
  AABB left_bounds;
  AABB right_bounds;
  // Child links: >= 0 is an internal node index, < 0 is a leaf whose
  // primitive is prim_order[~child].
  int left = 0;
  int right = 0;
};

// A leaf's triangle in intersection layout: corner a and the edges b - a
// and c - a (the ba/ca form), so a leaf test reads one contiguous record
// instead of chasing prim_order -> tris -> points.
struct LeafTri {
  Vec3f a, ab, ac;
};

struct Bvh {
  std::vector<BvhNode> nodes;      // n-1 internal nodes; root is node 0
  std::vector<int> prim_order;     // leaf i references triangle prim_order[i]
  std::vector<LeafTri> leaf_tris;  // leaf i's triangle, in leaf order
  AABB scene_bounds;

  bool empty() const { return prim_order.empty(); }
  bool single_leaf() const { return prim_order.size() == 1; }
};

// Builds the LBVH on the device; all stages are recorded under the caller's
// current phase (renderers wrap this in a "bvh_build" scope).
Bvh build_lbvh(dpp::Device& dev, const mesh::TriMesh& mesh);

// Watertight-enough Moller-Trumbore on corner a and edges e1 = b - a,
// e2 = c - a; on hit fills t and barycentrics (u, v) of corners 1 and 2.
inline bool intersect_triangle_edges(Vec3f orig, Vec3f dir, Vec3f a, Vec3f e1, Vec3f e2,
                                     float tmin, float tmax, float& t, float& u, float& v) {
  const Vec3f pvec = cross(dir, e2);
  const float det = dot(e1, pvec);
  if (std::abs(det) < 1e-12f) return false;
  const float inv_det = 1.0f / det;
  const Vec3f tvec = orig - a;
  const float uu = dot(tvec, pvec) * inv_det;
  if (uu < 0.0f || uu > 1.0f) return false;
  const Vec3f qvec = cross(tvec, e1);
  const float vv = dot(dir, qvec) * inv_det;
  if (vv < 0.0f || uu + vv > 1.0f) return false;
  const float tt = dot(e2, qvec) * inv_det;
  if (tt < tmin || tt > tmax) return false;
  t = tt;
  u = uu;
  v = vv;
  return true;
}

// The same test on the triangle's corners.
inline bool intersect_triangle(Vec3f orig, Vec3f dir, Vec3f a, Vec3f b, Vec3f c,
                               float tmin, float tmax, float& t, float& u, float& v) {
  return intersect_triangle_edges(orig, dir, a, b - a, c - a, tmin, tmax, t, u, v);
}

struct HitResult {
  int prim = -1;
  float t = 0.0f;
  float u = 0.0f, v = 0.0f;
  bool hit() const { return prim >= 0; }
};

// Closest-hit traversal (if-if style with an explicit stack). `steps`
// accumulates node visits + triangle tests for cost accounting. Leaves are
// tested from bvh.leaf_tris, so the mesh is not needed.
HitResult intersect_closest(const Bvh& bvh, Vec3f orig, Vec3f dir, float tmin, float tmax,
                            long long& steps);

// Any-hit traversal (shadows, ambient occlusion).
bool intersect_any(const Bvh& bvh, Vec3f orig, Vec3f dir, float tmin, float tmax,
                   long long& steps);

}  // namespace isr::render
