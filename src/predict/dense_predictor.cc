#include "predict/dense_predictor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "mm/gemm.h"

namespace dnlr::predict {

DenseTimePredictor::DenseTimePredictor(
    std::vector<DenseCalibrationPoint> points)
    : points_(std::move(points)) {
  DNLR_CHECK(!points_.empty()) << "predictor needs at least one point";
  for (const DenseCalibrationPoint& p : points_) {
    DNLR_CHECK_GT(p.gflops, 0.0);
    DNLR_CHECK_GT(p.m, 0u);
    DNLR_CHECK_GT(p.k, 0u);
    DNLR_CHECK_GT(p.n, 0u);
  }
}

DenseTimePredictor DenseTimePredictor::Calibrate(
    const DenseCalibrationConfig& config) {
  std::vector<DenseCalibrationPoint> points;
  points.reserve(config.m_values.size() * config.k_values.size() *
                 config.n_values.size());
  for (const uint32_t n : config.n_values) {
    for (const uint32_t k : config.k_values) {
      for (const uint32_t m : config.m_values) {
        DenseCalibrationPoint point{m, k, n, 0.0};
        point.gflops = mm::MeasurePackedGemmGflops(m, k, n, config.repeats);
        points.push_back(point);
      }
    }
  }
  return DenseTimePredictor(std::move(points));
}

double DenseTimePredictor::PredictGflops(uint32_t m, uint32_t k,
                                         uint32_t n) const {
  // Nearest neighbour in (log m, log k, log n): shapes within a constant
  // factor of a measured point inherit its throughput, which captures the
  // horizontal k-zone structure of the heat map (Figure 6).
  const double lm = std::log2(static_cast<double>(std::max(m, 1u)));
  const double lk = std::log2(static_cast<double>(std::max(k, 1u)));
  const double ln = std::log2(static_cast<double>(std::max(n, 1u)));
  double best_distance = 1e300;
  double best_gflops = points_.front().gflops;
  for (const DenseCalibrationPoint& p : points_) {
    const double dm = lm - std::log2(static_cast<double>(p.m));
    const double dk = lk - std::log2(static_cast<double>(p.k));
    const double dn = ln - std::log2(static_cast<double>(p.n));
    const double distance = dm * dm + dk * dk + dn * dn;
    if (distance < best_distance) {
      best_distance = distance;
      best_gflops = p.gflops;
    }
  }
  return best_gflops;
}

double DenseTimePredictor::PredictGemmMicros(uint32_t m, uint32_t k,
                                             uint32_t n) const {
  const double flops = 2.0 * m * k * n;
  // t = flops / (GFLOPS * 1e9) seconds = flops / (GFLOPS * 1e3) micros.
  return flops / (PredictGflops(m, k, n) * 1e3);
}

std::vector<double> DenseTimePredictor::PredictLayerMicros(
    const Architecture& arch, uint32_t batch) const {
  std::vector<double> layer_micros;
  for (const auto& [rows, cols] : arch.LayerShapes()) {
    layer_micros.push_back(PredictGemmMicros(rows, cols, batch));
  }
  return layer_micros;
}

double DenseTimePredictor::PredictForwardMicrosPerDoc(const Architecture& arch,
                                                      uint32_t batch) const {
  DNLR_CHECK_GT(batch, 0u);
  double total = 0.0;
  for (const double micros : PredictLayerMicros(arch, batch)) total += micros;
  return total / batch;
}

std::vector<double> DenseTimePredictor::PredictLayerImpactPercent(
    const Architecture& arch, uint32_t batch) const {
  std::vector<double> layer_micros = PredictLayerMicros(arch, batch);
  double total = 0.0;
  for (const double micros : layer_micros) total += micros;
  for (double& micros : layer_micros) {
    micros = total > 0.0 ? 100.0 * micros / total : 0.0;
  }
  return layer_micros;
}

double DenseTimePredictor::PredictPrunedForwardMicrosPerDoc(
    const Architecture& arch, uint32_t batch) const {
  const std::vector<double> layer_micros = PredictLayerMicros(arch, batch);
  double total = 0.0;
  for (size_t l = 1; l < layer_micros.size(); ++l) total += layer_micros[l];
  return total / batch;
}

std::string DenseTimePredictor::Serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << "dense_predictor " << points_.size() << '\n';
  for (const DenseCalibrationPoint& p : points_) {
    out << p.m << ' ' << p.k << ' ' << p.n << ' ' << p.gflops << '\n';
  }
  return out.str();
}

Result<DenseTimePredictor> DenseTimePredictor::Deserialize(
    const std::string& text) {
  std::istringstream in(text);
  std::string keyword;
  size_t count = 0;
  if (!(in >> keyword >> count) || keyword != "dense_predictor") {
    return Status::ParseError("expected 'dense_predictor <count>' header");
  }
  if (count == 0) return Status::ParseError("empty calibration table");
  std::vector<DenseCalibrationPoint> points(count);
  for (DenseCalibrationPoint& p : points) {
    if (!(in >> p.m >> p.k >> p.n >> p.gflops) || p.gflops <= 0.0) {
      return Status::ParseError("bad calibration point");
    }
  }
  return DenseTimePredictor(std::move(points));
}

}  // namespace dnlr::predict
