#include "apps/stencil.hpp"

#include <cmath>
#include <sstream>

#include "runtime/api.hpp"

namespace dws::apps {

namespace {

/// Relative tolerance for parallel-vs-serial comparison. Heat (Jacobi) is
/// bitwise deterministic; SOR red-black sweeps are too (updates within a
/// color are independent), so the tolerance only absorbs fused-multiply
/// reassociation differences, which do not occur here — keep it tight.
constexpr double kTol = 1e-12;

std::string compare_grids(const std::vector<double>& got,
                          const std::vector<double>& want) {
  if (got.size() != want.size()) return "grid size mismatch";
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double err = std::abs(got[i] - want[i]);
    if (err > kTol * (std::abs(want[i]) + 1.0)) {
      std::ostringstream os;
      os << "cell " << i << ": " << got[i] << " != " << want[i];
      return os.str();
    }
  }
  return {};
}

}  // namespace

// ---------------- Heat (Jacobi) ----------------

HeatApp::HeatApp(std::size_t rows, std::size_t cols, unsigned iterations)
    : rows_(rows), cols_(cols), iterations_(iterations) {}

void HeatApp::init_grid(std::vector<double>& g) const {
  g.assign(rows_ * cols_, 0.0);
  // Hot top edge, cold bottom edge, linear sides.
  for (std::size_t c = 0; c < cols_; ++c) g[c] = 100.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double frac = static_cast<double>(r) / static_cast<double>(rows_ - 1);
    g[r * cols_] = 100.0 * (1.0 - frac);
    g[r * cols_ + cols_ - 1] = 100.0 * (1.0 - frac);
  }
}

void HeatApp::run(rt::Scheduler& sched) {
  race::region race_scope("Heat");
  std::vector<double> cur, next;
  init_grid(cur);
  next = cur;
  sched.run([&] {
    for (unsigned it = 0; it < iterations_; ++it) {
      rt::parallel_for(
          sched, 1, static_cast<std::int64_t>(rows_) - 1, 8,
          [&](std::int64_t rb, std::int64_t re) {
            for (std::int64_t r = rb; r < re; ++r) {
              const double* up = &cur[(r - 1) * cols_];
              const double* mid = &cur[r * cols_];
              const double* down = &cur[(r + 1) * cols_];
              double* out = &next[r * cols_];
              // Footprint: reads rows r-1..r+1 of cur, writes the interior
              // of row r of next.
              race::read(up, 3 * cols_);
              race::write(out + 1, cols_ - 2);
              for (std::size_t c = 1; c + 1 < cols_; ++c) {
                out[c] = 0.25 * (up[c] + down[c] + mid[c - 1] + mid[c + 1]);
              }
            }
          });
      std::swap(cur, next);
    }
  });
  grid_ = std::move(cur);
}

void HeatApp::run_serial() {
  std::vector<double> cur, next;
  init_grid(cur);
  next = cur;
  for (unsigned it = 0; it < iterations_; ++it) {
    for (std::size_t r = 1; r + 1 < rows_; ++r) {
      for (std::size_t c = 1; c + 1 < cols_; ++c) {
        next[r * cols_ + c] =
            0.25 * (cur[(r - 1) * cols_ + c] + cur[(r + 1) * cols_ + c] +
                    cur[r * cols_ + c - 1] + cur[r * cols_ + c + 1]);
      }
    }
    std::swap(cur, next);
  }
  grid_ = std::move(cur);
}

std::string HeatApp::verify() const {
  if (reference_.empty()) {
    HeatApp ref(rows_, cols_, iterations_);
    ref.run_serial();
    reference_ = std::move(ref.grid_);
  }
  return compare_grids(grid_, reference_);
}

double HeatApp::checksum() const {
  double s = 0.0;
  for (double x : grid_) s += x;
  return s;
}

// ---------------- SOR (red-black) ----------------

SorApp::SorApp(std::size_t rows, std::size_t cols, unsigned iterations,
               double omega)
    : rows_(rows), cols_(cols), iterations_(iterations), omega_(omega) {}

void SorApp::init_grid(std::vector<double>& g) const {
  g.assign(rows_ * cols_, 0.0);
  for (std::size_t c = 0; c < cols_; ++c) g[c] = 1.0;
  for (std::size_t r = 0; r < rows_; ++r) g[r * cols_] = 1.0;
}

void SorApp::sweep_color(rt::Scheduler* sched, std::vector<double>& g,
                         int color) const {
  auto row_body = [&g, this, color](std::int64_t rb, std::int64_t re) {
    for (std::int64_t r = rb; r < re; ++r) {
      // Red cells: (r+c) even; black: odd. Start column per row parity.
      const std::size_t c0 =
          1 + ((static_cast<std::size_t>(r) + 1 + color) % 2);
      // Footprint, strided so red and black cells stay distinct: this
      // sweep writes the current color's cells of row r and reads the
      // opposite color's cells in rows r-1..r+1 (the four neighbours of
      // a cell are always the other color).
      if (c0 + 1 < cols_) {
        const std::size_t nc = (cols_ - 1 - c0 + 1) / 2;
        race::write(&g[r * cols_ + c0], nc, 2);
        race::read(&g[(r - 1) * cols_ + c0], nc, 2);
        race::read(&g[(r + 1) * cols_ + c0], nc, 2);
        race::read(&g[r * cols_ + c0 - 1], nc, 2);
        race::read(&g[r * cols_ + c0 + 1], nc, 2);
      }
      std::size_t c = c0;
      for (; c + 1 < cols_; c += 2) {
        const std::size_t i = r * cols_ + c;
        const double neighbors = g[i - cols_] + g[i + cols_] + g[i - 1] +
                                 g[i + 1];
        g[i] = (1.0 - omega_) * g[i] + omega_ * 0.25 * neighbors;
      }
    }
  };
  if (sched != nullptr) {
    rt::parallel_for(*sched, 1, static_cast<std::int64_t>(rows_) - 1, 8,
                     row_body);
  } else {
    row_body(1, static_cast<std::int64_t>(rows_) - 1);
  }
}

void SorApp::run(rt::Scheduler& sched) {
  race::region race_scope("SOR");
  std::vector<double> g;
  init_grid(g);
  sched.run([&] {
    for (unsigned it = 0; it < iterations_; ++it) {
      sweep_color(&sched, g, 0);
      sweep_color(&sched, g, 1);
    }
  });
  grid_ = std::move(g);
}

void SorApp::run_serial() {
  std::vector<double> g;
  init_grid(g);
  for (unsigned it = 0; it < iterations_; ++it) {
    sweep_color(nullptr, g, 0);
    sweep_color(nullptr, g, 1);
  }
  grid_ = std::move(g);
}

std::string SorApp::verify() const {
  if (reference_.empty()) {
    SorApp ref(rows_, cols_, iterations_, omega_);
    ref.run_serial();
    reference_ = std::move(ref.grid_);
  }
  return compare_grids(grid_, reference_);
}

double SorApp::checksum() const {
  double s = 0.0;
  for (double x : grid_) s += x;
  return s;
}

}  // namespace dws::apps
