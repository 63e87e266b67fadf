#include "thermal/grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace h3dfact::thermal {

const LayerTemps& ThermalSolution::layer(const std::string& name) const {
  for (const auto& l : layers) {
    if (l.name == name) return l;
  }
  throw std::out_of_range("no such layer: " + name);
}

double ThermalSolution::hottest_C() const {
  double t = -1e30;
  for (const auto& l : layers) {
    if (l.max_C > t || std::isnan(l.max_C)) t = l.max_C;  // NaN sticks
  }
  return t;
}

ThermalGrid::ThermalGrid(GridConfig config, std::vector<Layer> layers)
    : config_(std::move(config)), layers_(std::move(layers)) {
  if (layers_.empty()) throw std::invalid_argument("empty layer stack");
  if (config_.nx == 0 || config_.ny == 0) {
    throw std::invalid_argument("grid must be non-empty");
  }
  // Each check is written so that NaN fails it too.
  auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(what);
  };
  require(config_.width_mm > 0.0, "width_mm must be positive");
  require(config_.height_mm > 0.0, "height_mm must be positive");
  require(config_.h_top_W_m2K >= 0.0, "h_top_W_m2K must be non-negative");
  require(config_.h_bottom_W_m2K >= 0.0, "h_bottom_W_m2K must be non-negative");
  require(config_.tolerance_C > 0.0 && std::isfinite(config_.tolerance_C),
          "tolerance_C must be finite and positive");
  require(config_.max_sweeps > 0, "max_sweeps must be positive");
  const std::size_t n = config_.nx * config_.ny;
  for (auto& l : layers_) {
    if (l.thickness_um <= 0 || l.k_W_mK <= 0) {
      throw std::invalid_argument("layer needs positive thickness/conductivity");
    }
    if (!l.power_W.empty() && l.power_W.size() != n) {
      throw std::invalid_argument("power map size mismatch in layer " + l.name);
    }
  }
}

double ThermalGrid::total_power_W() const {
  double p = 0.0;
  for (const auto& l : layers_) {
    for (double w : l.power_W) p += w;
  }
  return p;
}

ThermalSolution ThermalGrid::solve() const {
  const std::size_t nx = config_.nx, ny = config_.ny, nc = nx * ny;
  const std::size_t nl = layers_.size();
  const double dx = config_.width_mm * 1e-3 / static_cast<double>(nx);
  const double dy = config_.height_mm * 1e-3 / static_cast<double>(ny);

  // Per-layer conductances.
  std::vector<double> gx(nl), gy(nl), gz_half(nl);  // lateral + half-vertical
  for (std::size_t l = 0; l < nl; ++l) {
    const double t = layers_[l].thickness_um * 1e-6;
    const double k = layers_[l].k_W_mK;
    gx[l] = k * dy * t / dx;            // east-west conductance
    gy[l] = k * dx * t / dy;            // north-south conductance
    gz_half[l] = k * dx * dy / (t / 2); // cell centre to face
  }
  // Vertical conductance to the cell above and below (layer 0 is the TOP of
  // the stack): a series of two half-cells between layers, the convective
  // coefficient to ambient at the top and bottom faces.
  std::vector<double> up(nl), down(nl);
  up[0] = config_.h_top_W_m2K * dx * dy;
  down[nl - 1] = config_.h_bottom_W_m2K * dx * dy;
  for (std::size_t l = 0; l + 1 < nl; ++l) {
    down[l] = up[l + 1] = 1.0 / (1.0 / gz_half[l] + 1.0 / gz_half[l + 1]);
  }

  // The solve runs on theta = T - ambient in an array padded by one ghost
  // cell on every side. Every ghost holds 0.0 throughout: above and below
  // the stack that is ambient, so the convective faces are ordinary
  // neighbours; at the side walls g * 0.0 adds nothing, exactly what an
  // adiabatic wall adds. gsum sums the conductances of the faces a cell
  // has (convective faces included); the preconditioner is its inverse.
  const std::size_t sy = nx + 2, sz = (ny + 2) * sy;
  auto at = [&](std::size_t l, std::size_t iy, std::size_t ix) {
    return (l + 1) * sz + (iy + 1) * sy + ix + 1;
  };
  const std::size_t padded = (nl + 2) * sz;
  std::vector<double> gsum(padded, 0.0), inv_gsum(padded, 0.0);
  std::vector<double> power(padded, 0.0);
  for (std::size_t l = 0; l < nl; ++l) {
    const auto& pw = layers_[l].power_W;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t p = at(l, iy, ix);
        double g = 0.0;
        if (ix > 0) g += gx[l];
        if (ix + 1 < nx) g += gx[l];
        if (iy > 0) g += gy[l];
        if (iy + 1 < ny) g += gy[l];
        gsum[p] = g + up[l] + down[l];
        inv_gsum[p] = 1.0 / gsum[p];
        power[p] = pw.empty() ? 0.0 : pw[iy * nx + ix];
      }
    }
  }

  // Visits every interior cell in (l, iy, ix) order; all reductions below
  // run in this one fixed serial order, so a solve is deterministic.
  auto for_cells = [&](auto&& body) {
    for (std::size_t l = 0; l < nl; ++l) {
      for (std::size_t iy = 0; iy < ny; ++iy) {
        const std::size_t row = at(l, iy, 0);
        for (std::size_t p = row; p < row + nx; ++p) body(l, p);
      }
    }
  };
  // out = A v, where (A v)_p = gsum_p v_p - sum of g * v over p's six
  // neighbours; returns v . A v.
  auto apply = [&](const std::vector<double>& v, std::vector<double>& out) {
    double vav = 0.0;
    for_cells([&](std::size_t l, std::size_t p) {
      const double av = gsum[p] * v[p] - gx[l] * (v[p - 1] + v[p + 1]) -
                        gy[l] * (v[p - sy] + v[p + sy]) - up[l] * v[p - sz] -
                        down[l] * v[p + sz];
      out[p] = av;
      vav += v[p] * av;
    });
    return vav;
  };
  // The reported residual max_p |r_p / gsum_p|. A NaN sticks, so it never
  // meets the tolerance.
  auto scaled_max = [](double m, double v) {
    return v > m || std::isnan(v) ? v : m;
  };
  // The stop test asks only whether that max is below the tolerance, so
  // the passes carry a flag, not a serial max chain: some |z_p| is not
  // below the tolerance, a NaN included.
  const double tolerance = config_.tolerance_C;

  // Jacobi-preconditioned conjugate gradients on A theta = power, from
  // theta = 0: r is the residual power - A theta, z = r / gsum, d the
  // search direction. Zero power stops before the first iteration and
  // returns exact ambient.
  std::vector<double> theta(padded, 0.0), r = power;
  std::vector<double> d(padded, 0.0), q(padded, 0.0);
  double rz = 0.0;
  bool above_tolerance = false;
  for_cells([&](std::size_t, std::size_t p) {
    const double z = r[p] * inv_gsum[p];
    d[p] = z;
    rz += r[p] * z;
    above_tolerance |= !(std::abs(z) < tolerance);
  });
  std::size_t iterations = 0;
  while (above_tolerance && iterations < config_.max_sweeps) {
    ++iterations;
    const double alpha = rz / apply(d, q);
    double rz_next = 0.0;
    above_tolerance = false;
    for_cells([&](std::size_t, std::size_t p) {
      theta[p] += alpha * d[p];
      r[p] -= alpha * q[p];
      const double z = r[p] * inv_gsum[p];
      rz_next += r[p] * z;
      above_tolerance |= !(std::abs(z) < tolerance);
    });
    const double beta = rz_next / rz;
    rz = rz_next;
    for_cells([&](std::size_t, std::size_t p) {
      d[p] = r[p] * inv_gsum[p] + beta * d[p];
    });
  }

  // The recursively updated r drifts from the true residual, so the
  // reported residual and the converged flag come from r = power - A theta
  // recomputed from scratch. A NaN anywhere in the field reaches it.
  (void)apply(theta, q);
  double residual = 0.0;
  for_cells([&](std::size_t, std::size_t p) {
    residual = scaled_max(residual, std::abs((power[p] - q[p]) * inv_gsum[p]));
  });

  ThermalSolution sol;
  sol.sweeps = iterations;
  sol.residual_C = residual;
  sol.converged = residual < config_.tolerance_C;
  for (std::size_t l = 0; l < nl; ++l) {
    LayerTemps lt;
    lt.name = layers_[l].name;
    lt.cells_C.resize(nc);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        lt.cells_C[iy * nx + ix] = config_.ambient_C + theta[at(l, iy, ix)];
      }
    }
    lt.min_C = *std::min_element(lt.cells_C.begin(), lt.cells_C.end());
    lt.max_C = *std::max_element(lt.cells_C.begin(), lt.cells_C.end());
    double s = 0.0;
    for (double v : lt.cells_C) s += v;
    lt.mean_C = s / static_cast<double>(nc);
    sol.layers.push_back(std::move(lt));
  }
  return sol;
}

}  // namespace h3dfact::thermal
