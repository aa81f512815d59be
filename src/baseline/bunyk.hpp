// Bunyk-style unstructured ray caster (the Chapter III CPU comparator,
// Figure 7): a serial-preprocessing connectivity walk. Face adjacency is
// traced once up front (the paper notes this step took 50+ minutes for
// their largest data set); rendering then marches each pixel ray cell-to-
// cell through shared faces, integrating the linear field between entry and
// exit of every tet.
#pragma once

#include <vector>

#include "dpp/device.hpp"
#include "math/camera.hpp"
#include "math/colormap.hpp"
#include "mesh/unstructured.hpp"
#include "render/image.hpp"
#include "render/rt/bvh.hpp"
#include "render/stats.hpp"

namespace isr::baseline {

class BunykRayCaster {
 public:
  // Builds face connectivity and the boundary-face search structure;
  // preprocessing time is reported separately (the paper omits it from
  // render timings).
  BunykRayCaster(const mesh::TetMesh& mesh, dpp::Device& dev);

  render::RenderStats render(const Camera& camera, const TransferFunction& tf,
                             render::Image& out, int reference_samples = 400);

  double preprocess_seconds() const { return preprocess_seconds_; }

 private:
  const mesh::TetMesh& mesh_;
  dpp::Device& dev_;
  // neighbor_[4*t + f]: tet across face f of tet t (-1 = boundary). Face f
  // is opposite corner f.
  std::vector<int> neighbor_;
  // BVH over the boundary faces for entry-point search (its leaves hold the
  // triangles); boundary_tet_[i] is the tet owning boundary triangle i.
  std::vector<int> boundary_tet_;
  render::Bvh boundary_bvh_;
  double preprocess_seconds_ = 0.0;
};

}  // namespace isr::baseline
