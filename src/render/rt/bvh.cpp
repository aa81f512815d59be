#include "render/rt/bvh.hpp"

#include <atomic>

#include "dpp/primitives.hpp"
#include "math/bitcast.hpp"
#include "math/morton.hpp"

namespace isr::render {

namespace {

// Longest common prefix of 64-bit keys i and j; keys are (morton << 32) |
// index so they are always distinct, which removes the duplicate-code
// special cases of the Karras construction.
inline int delta(const std::vector<std::uint64_t>& keys, int i, int j) {
  const int n = static_cast<int>(keys.size());
  if (j < 0 || j >= n) return -1;
  const std::uint64_t x = keys[static_cast<std::size_t>(i)] ^ keys[static_cast<std::size_t>(j)];
  // Keys are distinct, so x != 0 as countl_zero64 requires.
  return countl_zero64(x);
}

}  // namespace

Bvh build_lbvh(dpp::Device& dev, const mesh::TriMesh& mesh) {
  Bvh bvh;
  const std::size_t n = mesh.triangle_count();
  if (n == 0) return bvh;

  // 1. Per-primitive bounds and centroids (map), scene bounds (reduce).
  std::vector<AABB> prim_bounds(n);
  std::vector<Vec3f> centroids(n);
  dpp::for_each(
      dev, n,
      [&](std::size_t i) {
        prim_bounds[i] = mesh.triangle_bounds(i);
        centroids[i] = prim_bounds[i].center();
      },
      dpp::KernelCost{.flops_per_elem = 18, .bytes_per_elem = 60});
  bvh.scene_bounds = dpp::transform_reduce(
      dev, n, AABB{}, [&](std::size_t i) { return prim_bounds[i]; },
      [](AABB a, const AABB& b) {
        a.expand(b);
        return a;
      },
      dpp::KernelCost{.flops_per_elem = 6, .bytes_per_elem = 24});

  // 2. Morton codes of centroids scaled into the scene bounds (map).
  std::vector<std::uint64_t> keys(n);
  std::vector<int> order(n);
  const Vec3f lo = bvh.scene_bounds.lo;
  const Vec3f ext = bvh.scene_bounds.extent();
  const Vec3f inv = {ext.x > 0 ? 1023.0f / ext.x : 0.0f, ext.y > 0 ? 1023.0f / ext.y : 0.0f,
                     ext.z > 0 ? 1023.0f / ext.z : 0.0f};
  dpp::for_each(
      dev, n,
      [&](std::size_t i) {
        const Vec3f c = centroids[i];
        const auto qx = static_cast<std::uint32_t>((c.x - lo.x) * inv.x);
        const auto qy = static_cast<std::uint32_t>((c.y - lo.y) * inv.y);
        const auto qz = static_cast<std::uint32_t>((c.z - lo.z) * inv.z);
        keys[i] = (static_cast<std::uint64_t>(morton3d(qx, qy, qz)) << 32) |
                  static_cast<std::uint32_t>(i);
        order[i] = static_cast<int>(i);
      },
      dpp::KernelCost{.flops_per_elem = 24, .bytes_per_elem = 28});

  // 3. Sort primitives along the Morton curve.
  dpp::sort_pairs64(dev, keys, order);
  bvh.prim_order = std::move(order);

  // Leaf-order triangles in intersection layout. A plain host loop, not a
  // dpp kernel: the kernel tape (the build work the devices charge) stays
  // what the hierarchy itself costs.
  bvh.leaf_tris.reserve(n);
  for (const int prim : bvh.prim_order) {
    const std::size_t tri = static_cast<std::size_t>(prim);
    const Vec3f a = mesh.vertex(tri, 0);
    bvh.leaf_tris.push_back({a, mesh.vertex(tri, 1) - a, mesh.vertex(tri, 2) - a});
  }

  if (n == 1) return bvh;

  // 4. Karras hierarchy emission: one internal node per split (map).
  const int ni = static_cast<int>(n) - 1;
  bvh.nodes.assign(static_cast<std::size_t>(ni), BvhNode{});
  std::vector<int> parent(n + static_cast<std::size_t>(ni), -1);  // leaves then internals
  auto parent_of_leaf = [&](int leaf) -> int& { return parent[static_cast<std::size_t>(leaf)]; };
  auto parent_of_node = [&](int node) -> int& {
    return parent[n + static_cast<std::size_t>(node)];
  };

  dpp::for_each(
      dev, static_cast<std::size_t>(ni),
      [&](std::size_t idx) {
        const int i = static_cast<int>(idx);
        // Direction of the range containing i.
        const int d = delta(keys, i, i + 1) >= delta(keys, i, i - 1) ? 1 : -1;
        const int delta_min = delta(keys, i, i - d);
        // Exponential search for the range's other end.
        int lmax = 2;
        while (delta(keys, i, i + lmax * d) > delta_min) lmax *= 2;
        int l = 0;
        for (int t = lmax / 2; t >= 1; t /= 2)
          if (delta(keys, i, i + (l + t) * d) > delta_min) l += t;
        const int j = i + l * d;
        // Binary search for the split position.
        const int delta_node = delta(keys, i, j);
        int s = 0;
        for (int t = (l + 1) / 2;; t = (t + 1) / 2) {
          if (delta(keys, i, i + (s + t) * d) > delta_node) s += t;
          if (t == 1) break;
        }
        const int split = i + s * d + std::min(d, 0);

        const int lo_idx = std::min(i, j);
        const int hi_idx = std::max(i, j);
        BvhNode& node = bvh.nodes[idx];
        node.left = (lo_idx == split) ? ~split : split;
        node.right = (hi_idx == split + 1) ? ~(split + 1) : split + 1;
        if (node.left < 0)
          parent_of_leaf(~node.left) = i;
        else
          parent_of_node(node.left) = i;
        if (node.right < 0)
          parent_of_leaf(~node.right) = i;
        else
          parent_of_node(node.right) = i;
      },
      dpp::KernelCost{.flops_per_elem = 60, .bytes_per_elem = 64, .divergence = 1.4});

  // 5. Bottom-up AABB refit with per-node arrival counters: the second
  // thread to reach an internal node computes its bounds and proceeds.
  std::vector<std::atomic<int>> visits(static_cast<std::size_t>(ni));
  for (auto& v : visits) v.store(0, std::memory_order_relaxed);
  std::vector<AABB> node_bounds(static_cast<std::size_t>(ni));

  auto child_bounds = [&](int child) -> const AABB& {
    if (child < 0)
      return prim_bounds[static_cast<std::size_t>(bvh.prim_order[static_cast<std::size_t>(~child)])];
    return node_bounds[static_cast<std::size_t>(child)];
  };

  dpp::for_each(
      dev, n,
      [&](std::size_t leaf) {
        int node = parent_of_leaf(static_cast<int>(leaf));
        while (node >= 0) {
          if (visits[static_cast<std::size_t>(node)].fetch_add(1, std::memory_order_acq_rel) == 0)
            return;  // first arrival: the sibling subtree is not done yet
          BvhNode& nd = bvh.nodes[static_cast<std::size_t>(node)];
          nd.left_bounds = child_bounds(nd.left);
          nd.right_bounds = child_bounds(nd.right);
          AABB merged = nd.left_bounds;
          merged.expand(nd.right_bounds);
          node_bounds[static_cast<std::size_t>(node)] = merged;
          node = parent_of_node(node);
        }
      },
      dpp::KernelCost{.flops_per_elem = 30, .bytes_per_elem = 96, .divergence = 1.3});

  return bvh;
}

namespace {

struct TraversalFrame {
  int node;
};

inline bool aabb_hit(const AABB& box, Vec3f orig, Vec3f inv_dir, float tmin, float tmax) {
  float t0, t1;
  return box.intersect(orig, inv_dir, tmin, tmax, t0, t1);
}

}  // namespace

HitResult intersect_closest(const Bvh& bvh, Vec3f orig, Vec3f dir, float tmin, float tmax,
                            long long& steps) {
  HitResult best;
  best.t = tmax;
  if (bvh.empty()) return best;

  const Vec3f inv_dir = {1.0f / dir.x, 1.0f / dir.y, 1.0f / dir.z};

  auto test_leaf = [&](int leaf) {
    const LeafTri& tri = bvh.leaf_tris[static_cast<std::size_t>(leaf)];
    float t, u, v;
    ++steps;
    if (intersect_triangle_edges(orig, dir, tri.a, tri.ab, tri.ac, tmin, best.t, t, u, v)) {
      best.prim = bvh.prim_order[static_cast<std::size_t>(leaf)];
      best.t = t;
      best.u = u;
      best.v = v;
    }
  };

  if (bvh.single_leaf()) {
    test_leaf(0);
    return best;
  }

  int stack[64];
  int sp = 0;
  stack[sp++] = 0;
  while (sp > 0) {
    const BvhNode& node = bvh.nodes[static_cast<std::size_t>(stack[--sp])];
    ++steps;
    const bool hit_l = aabb_hit(node.left_bounds, orig, inv_dir, tmin, best.t);
    const bool hit_r = aabb_hit(node.right_bounds, orig, inv_dir, tmin, best.t);
    if (hit_l) {
      if (node.left < 0)
        test_leaf(~node.left);
      else if (sp < 64)
        stack[sp++] = node.left;
    }
    if (hit_r) {
      if (node.right < 0)
        test_leaf(~node.right);
      else if (sp < 64)
        stack[sp++] = node.right;
    }
  }
  if (best.prim < 0) best.t = tmax;
  return best;
}

bool intersect_any(const Bvh& bvh, Vec3f orig, Vec3f dir, float tmin, float tmax,
                   long long& steps) {
  if (bvh.empty()) return false;
  const Vec3f inv_dir = {1.0f / dir.x, 1.0f / dir.y, 1.0f / dir.z};

  auto test_leaf = [&](int leaf) {
    const LeafTri& tri = bvh.leaf_tris[static_cast<std::size_t>(leaf)];
    float t, u, v;
    ++steps;
    return intersect_triangle_edges(orig, dir, tri.a, tri.ab, tri.ac, tmin, tmax, t, u, v);
  };

  if (bvh.single_leaf()) return test_leaf(0);

  int stack[64];
  int sp = 0;
  stack[sp++] = 0;
  while (sp > 0) {
    const BvhNode& node = bvh.nodes[static_cast<std::size_t>(stack[--sp])];
    ++steps;
    if (aabb_hit(node.left_bounds, orig, inv_dir, tmin, tmax)) {
      if (node.left < 0) {
        if (test_leaf(~node.left)) return true;
      } else if (sp < 64) {
        stack[sp++] = node.left;
      }
    }
    if (aabb_hit(node.right_bounds, orig, inv_dir, tmin, tmax)) {
      if (node.right < 0) {
        if (test_leaf(~node.right)) return true;
      } else if (sp < 64) {
        stack[sp++] = node.right;
      }
    }
  }
  return false;
}

}  // namespace isr::render
