#include "math/colormap.hpp"

#include <cmath>

namespace isr {

ColorTable::ColorTable(const std::vector<ControlPoint>& points) {
  for (int i = 0; i < kLutSize; ++i) {
    const float t = static_cast<float>(i) / (kLutSize - 1);
    Vec3f c = points.empty() ? Vec3f{1, 1, 1} : points.front().rgb;
    for (std::size_t p = 0; p + 1 < points.size(); ++p) {
      if (t >= points[p].t && t <= points[p + 1].t) {
        const float span = std::max(points[p + 1].t - points[p].t, 1e-6f);
        c = lerp(points[p].rgb, points[p + 1].rgb, (t - points[p].t) / span);
        break;
      }
    }
    if (!points.empty() && t > points.back().t) c = points.back().rgb;
    lut_[static_cast<std::size_t>(i)] = c;
  }
}

ColorTable ColorTable::cool_warm() {
  return ColorTable({{0.0f, {0.23f, 0.30f, 0.75f}},
                     {0.5f, {0.87f, 0.87f, 0.87f}},
                     {1.0f, {0.71f, 0.02f, 0.15f}}});
}

ColorTable ColorTable::viridis_like() {
  return ColorTable({{0.0f, {0.27f, 0.00f, 0.33f}},
                     {0.25f, {0.23f, 0.32f, 0.55f}},
                     {0.5f, {0.13f, 0.57f, 0.55f}},
                     {0.75f, {0.37f, 0.79f, 0.38f}},
                     {1.0f, {0.99f, 0.91f, 0.14f}}});
}

ColorTable ColorTable::grayscale() {
  return ColorTable({{0.0f, {0, 0, 0}}, {1.0f, {1, 1, 1}}});
}

TransferFunction::TransferFunction(const ColorTable& colors, float min_alpha,
                                   float max_alpha) {
  for (int i = 0; i < kLutSize; ++i) {
    const float t = static_cast<float>(i) / (kLutSize - 1);
    const Vec3f rgb = colors.sample(t);
    const float a = min_alpha + (max_alpha - min_alpha) * t;
    lut_[static_cast<std::size_t>(i)] = {rgb.x, rgb.y, rgb.z, a};
  }
}

float TransferFunction::correct_alpha(float alpha, float dt_ratio) {
  // Standard opacity correction: a' = 1 - (1 - a)^ratio.
  return 1.0f - std::pow(1.0f - alpha, dt_ratio);
}

std::array<float, TransferFunction::kLutSize> TransferFunction::corrected_alphas(
    float dt_ratio) const {
  std::array<float, kLutSize> out{};
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = correct_alpha(lut_[i].w, dt_ratio);
  return out;
}

}  // namespace isr
