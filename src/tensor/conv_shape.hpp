// Convolution problem geometry (Table 1 of the paper).
#pragma once

#include <cstdint>
#include <string>

#include "common/check.hpp"

namespace iwg {

/// Geometry of a unit-stride 2-D convolution with zero padding.
///
/// OH = IH + 2*ph − FH + 1, OW = IW + 2*pw − FW + 1 (stride 1 throughout —
/// the paper's kernels target unit stride; stride-2 layers reach them
/// through core::space_to_depth_shape).
struct ConvShape {
  std::int64_t n = 1;    ///< batch size N
  std::int64_t ih = 1;   ///< input height
  std::int64_t iw = 1;   ///< input width
  std::int64_t ic = 1;   ///< input channels
  std::int64_t oc = 1;   ///< output channels
  std::int64_t fh = 1;   ///< filter height
  std::int64_t fw = 1;   ///< filter width
  std::int64_t ph = 0;   ///< padding (height)
  std::int64_t pw = 0;   ///< padding (width)

  std::int64_t oh() const { return ih + 2 * ph - fh + 1; }
  std::int64_t ow() const { return iw + 2 * pw - fw + 1; }

  /// Geometric identity — the plan-cache key compares full shapes.
  friend bool operator==(const ConvShape&, const ConvShape&) = default;

  void validate() const {
    IWG_CHECK(n > 0 && ih > 0 && iw > 0 && ic > 0 && oc > 0);
    IWG_CHECK(fh > 0 && fw > 0 && ph >= 0 && pw >= 0);
    IWG_CHECK_MSG(oh() > 0 && ow() > 0, "empty output feature map");
  }

  /// FP32 op count 2·N·OC·OH·OW·FH·FW·IC used for Gflop/s (paper §6.1.1).
  double flops() const {
    return 2.0 * static_cast<double>(n) * static_cast<double>(oc) *
           static_cast<double>(oh()) * static_cast<double>(ow()) *
           static_cast<double>(fh) * static_cast<double>(fw) *
           static_cast<double>(ic);
  }

  /// Build a shape from the ofms description used by the paper's figures
  /// (N × OH × OW × OC) plus a square filter r with ⌊r/2⌋ padding and
  /// IC == OC, matching §6 "for all test cases IC equals OC".
  static ConvShape from_ofms(std::int64_t n, std::int64_t oh, std::int64_t ow,
                             std::int64_t oc, std::int64_t r) {
    ConvShape s;
    s.n = n;
    s.oc = oc;
    s.ic = oc;
    s.fh = r;
    s.fw = r;
    s.ph = r / 2;
    s.pw = r / 2;
    s.ih = oh - 2 * s.ph + r - 1;
    s.iw = ow - 2 * s.pw + r - 1;
    s.validate();
    IWG_CHECK(s.oh() == oh && s.ow() == ow);
    return s;
  }

  std::string to_string() const {
    return std::to_string(n) + "x" + std::to_string(oh()) + "x" +
           std::to_string(ow()) + "x" + std::to_string(oc) + " (f" +
           std::to_string(fh) + "x" + std::to_string(fw) + " ic" +
           std::to_string(ic) + ")";
  }
};

}  // namespace iwg
