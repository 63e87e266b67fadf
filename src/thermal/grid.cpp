#include "thermal/grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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
  require(config_.sor_omega > 0.0 && config_.sor_omega < 2.0,
          "sor_omega must lie in (0, 2)");
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

  // Temperatures on a grid padded by one ghost cell on every side. The ghost
  // planes above and below the stack hold ambient, so the convective faces
  // are ordinary neighbours. The lateral ghosts hold 0.0: g * 0.0 adds +0.0
  // to the flux, exactly what an adiabatic side wall adds. gsum sums only the
  // faces that exist, in the order west, east, south, north, up, down.
  const std::size_t sy = nx + 2, sz = (ny + 2) * sy;
  auto at = [&](std::size_t l, std::size_t iy, std::size_t ix) {
    return (l + 1) * sz + (iy + 1) * sy + ix + 1;
  };
  std::vector<double> T((nl + 2) * sz, 0.0), gsum(T.size()), power(T.size());
  std::fill_n(&T[0], sz, config_.ambient_C);
  std::fill_n(&T[(nl + 1) * sz], sz, config_.ambient_C);
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
        power[p] = pw.empty() ? 0.0 : pw[iy * nx + ix];
        T[p] = config_.ambient_C;
      }
    }
  }

  // Gauss-Seidel SOR in wavefront order: sweep the hyperplanes k = l+iy+ix
  // in ascending order. A cell's three lower neighbours lie on k-1 and are
  // already updated, its three upper ones lie on k+1 and are not, and no two
  // cells of one hyperplane are neighbours, so every cell sees exactly what
  // it sees in the lexicographic (l, iy, ix) sweep and the result is the
  // same bit for bit. The cells of one hyperplane are independent, which
  // lets the core overlap their divides. The residual is a max, so the
  // order does not change it.
  const double omega = config_.sor_omega;
  const std::size_t planes = nl + ny + nx - 2;
  double residual = 0.0;
  std::size_t sweeps = 0;
  while (sweeps < config_.max_sweeps) {
    ++sweeps;
    residual = 0.0;
    for (std::size_t k = 0; k < planes; ++k) {
      const std::size_t l_hi = std::min(nl - 1, k);
      for (std::size_t l = k + 2 > nx + ny ? k + 2 - nx - ny : 0; l <= l_hi; ++l) {
        const double gxl = gx[l], gyl = gy[l], gu = up[l], gd = down[l];
        // Cells (l, iy, r - iy) for iy = iy_lo..iy_hi: each is one row up and
        // one column left of the one before.
        const std::size_t r = k - l;
        const std::size_t iy_lo = r + 1 > nx ? r + 1 - nx : 0;
        const std::size_t iy_hi = std::min(ny - 1, r);
        std::size_t p = at(l, iy_lo, r - iy_lo);
        for (std::size_t iy = iy_lo; iy <= iy_hi; ++iy, p += sy - 1) {
          const double t_old = T[p];
          double flux = power[p];
          flux += gxl * T[p - 1];
          flux += gxl * T[p + 1];
          flux += gyl * T[p - sy];
          flux += gyl * T[p + sy];
          flux += gu * T[p - sz];
          flux += gd * T[p + sz];
          const double t_sor = t_old + omega * (flux / gsum[p] - t_old);
          residual = std::max(residual, std::abs(t_sor - t_old));
          T[p] = t_sor;
        }
      }
    }
    if (residual < config_.tolerance_C) break;
  }
  // std::max drops a NaN change, so a field gone NaN (a lone cell with no
  // path to ambient divides by a zero conductance sum) can meet the
  // tolerance. A NaN temperature never recovers, so one left anywhere in
  // the field makes the stop value NaN and the solve unconverged.
  if (std::any_of(T.begin(), T.end(), [](double t) { return std::isnan(t); })) {
    residual = std::numeric_limits<double>::quiet_NaN();
  }

  ThermalSolution sol;
  sol.sweeps = sweeps;
  sol.residual_C = residual;
  sol.converged = residual < config_.tolerance_C;
  for (std::size_t l = 0; l < nl; ++l) {
    LayerTemps lt;
    lt.name = layers_[l].name;
    lt.cells_C.resize(nc);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      std::copy_n(&T[at(l, iy, 0)], nx, &lt.cells_C[iy * nx]);
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
