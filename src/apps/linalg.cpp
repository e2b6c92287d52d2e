#include "apps/linalg.hpp"

#include <cmath>
#include <sstream>

#include "runtime/api.hpp"
#include "util/rng.hpp"

namespace dws::apps {

namespace {

/// Dense random matrix, entries in [-1, 1).
std::vector<double> random_matrix(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> a(n * n);
  for (auto& x : a) x = rng.next_double(-1.0, 1.0);
  return a;
}

/// Make a matrix strictly diagonally dominant in place (stable without
/// pivoting; standard benchmark trick).
void make_diagonally_dominant(std::vector<double>& a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) row_sum += std::abs(a[i * n + j]);
    a[i * n + i] = row_sum + 1.0;
  }
}

}  // namespace

// ---------------- Cholesky ----------------

CholeskyApp::CholeskyApp(std::size_t n, std::uint64_t seed) : n_(n) {
  // SPD by construction: A = B·Bᵀ + n·I.
  const std::vector<double> b = random_matrix(n_, seed);
  a_.assign(n_ * n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = 0.0;
      for (std::size_t t = 0; t < n_; ++t) s += b[i * n_ + t] * b[j * n_ + t];
      a_[i * n_ + j] = s;
      a_[j * n_ + i] = s;
    }
    a_[i * n_ + i] += static_cast<double>(n_);
  }
}

void CholeskyApp::run(rt::Scheduler& sched) {
  race::region race_scope("Cholesky");
  l_ = a_;
  const std::size_t n = n_;
  double* l = l_.data();
  sched.run([&sched, l, n] {
    for (std::size_t k = 0; k < n; ++k) {
      l[k * n + k] = std::sqrt(l[k * n + k]);
      const double dk = l[k * n + k];
      // Scale column k below the diagonal, then the trailing update — the
      // shrinking parallel region.
      rt::parallel_for(sched, static_cast<std::int64_t>(k) + 1,
                       static_cast<std::int64_t>(n), 16,
                       [l, n, k, dk](std::int64_t b, std::int64_t e) {
                         // Strided column-k write: rows b..e of column k.
                         race::write(l + b * n + k,
                                     static_cast<std::size_t>(e - b),
                                     static_cast<std::ptrdiff_t>(n));
                         for (std::int64_t i = b; i < e; ++i) {
                           l[i * n + k] /= dk;
                         }
                       });
      rt::parallel_for(
          sched, static_cast<std::int64_t>(k) + 1,
          static_cast<std::int64_t>(n), 8,
          [l, n, k](std::int64_t rb, std::int64_t re) {
            for (std::int64_t i = rb; i < re; ++i) {
              const double lik = l[i * n + k];
              // Reads column k rows k+1..i (strided), updates row i
              // columns k+1..i in place.
              race::read(l + (k + 1) * n + k, static_cast<std::size_t>(i - k),
                         static_cast<std::ptrdiff_t>(n));
              race::write(l + i * n + k + 1, static_cast<std::size_t>(i - k));
              for (std::int64_t j = k + 1; j <= i; ++j) {
                l[i * n + j] -= lik * l[j * n + k];
              }
            }
          });
    }
  });
  // Zero the strict upper triangle so L is clean.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) l[i * n + j] = 0.0;
  }
}

void CholeskyApp::run_serial() {
  l_ = a_;
  const std::size_t n = n_;
  double* l = l_.data();
  for (std::size_t k = 0; k < n; ++k) {
    l[k * n + k] = std::sqrt(l[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) l[i * n + k] /= l[k * n + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      for (std::size_t j = k + 1; j <= i; ++j) {
        l[i * n + j] -= l[i * n + k] * l[j * n + k];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) l[i * n + j] = 0.0;
  }
}

std::string CholeskyApp::verify() const {
  // Check ‖L·Lᵀ − A‖_max against a scale-aware tolerance.
  const std::size_t n = n_;
  double max_err = 0.0, max_a = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      const std::size_t lim = std::min(i, j);
      for (std::size_t t = 0; t <= lim; ++t) {
        s += l_[i * n + t] * l_[j * n + t];
      }
      max_err = std::max(max_err, std::abs(s - a_[i * n + j]));
      max_a = std::max(max_a, std::abs(a_[i * n + j]));
    }
  }
  if (max_err > 1e-8 * max_a) {
    std::ostringstream os;
    os << "||L*L^T - A||_max = " << max_err << " (scale " << max_a << ")";
    return os.str();
  }
  return {};
}

// ---------------- LU ----------------

LuApp::LuApp(std::size_t n, std::uint64_t seed) : n_(n) {
  a_ = random_matrix(n_, seed);
  make_diagonally_dominant(a_, n_);
}

void LuApp::run(rt::Scheduler& sched) {
  race::region race_scope("LU");
  lu_ = a_;
  const std::size_t n = n_;
  double* lu = lu_.data();
  sched.run([&sched, lu, n] {
    for (std::size_t k = 0; k + 1 < n; ++k) {
      const double pivot = lu[k * n + k];
      rt::parallel_for(
          sched, static_cast<std::int64_t>(k) + 1,
          static_cast<std::int64_t>(n), 8,
          [lu, n, k, pivot](std::int64_t rb, std::int64_t re) {
            // Each row i: reads pivot row k, rewrites row i from column k.
            race::read(lu + k * n + k, n - k);
            for (std::int64_t i = rb; i < re; ++i) {
              race::write(lu + i * n + k, n - k);
              const double mult = lu[i * n + k] / pivot;
              lu[i * n + k] = mult;
              for (std::size_t j = k + 1; j < n; ++j) {
                lu[i * n + j] -= mult * lu[k * n + j];
              }
            }
          });
    }
  });
}

void LuApp::run_serial() {
  lu_ = a_;
  const std::size_t n = n_;
  double* lu = lu_.data();
  for (std::size_t k = 0; k + 1 < n; ++k) {
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mult = lu[i * n + k] / lu[k * n + k];
      lu[i * n + k] = mult;
      for (std::size_t j = k + 1; j < n; ++j) {
        lu[i * n + j] -= mult * lu[k * n + j];
      }
    }
  }
}

std::string LuApp::verify() const {
  // Reconstruct A from the packed factors and compare.
  const std::size_t n = n_;
  double max_err = 0.0, max_a = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // (L·U)(i,j) = Σ_{t<=min(i,j)} L(i,t)·U(t,j), with L's unit diagonal
      // implicit in the packed storage.
      double s = 0.0;
      const std::size_t lim = std::min(i, j);
      for (std::size_t t = 0; t < lim; ++t) {
        s += lu_[i * n + t] * lu_[t * n + j];
      }
      if (i <= j) {
        s += lu_[i * n + j];  // t = i: L(i,i) = 1, U(i,j)
      } else {
        s += lu_[i * n + j] * lu_[j * n + j];  // t = j: L(i,j)·U(j,j)
      }
      max_err = std::max(max_err, std::abs(s - a_[i * n + j]));
      max_a = std::max(max_a, std::abs(a_[i * n + j]));
    }
  }
  if (max_err > 1e-8 * max_a) {
    std::ostringstream os;
    os << "||L*U - A||_max = " << max_err << " (scale " << max_a << ")";
    return os.str();
  }
  return {};
}

// ---------------- GE ----------------

GeApp::GeApp(std::size_t n, std::uint64_t seed) : n_(n) {
  a_ = random_matrix(n_, seed);
  make_diagonally_dominant(a_, n_);
  util::Xoshiro256 rng(seed ^ 0xB00B5);
  b_.resize(n_);
  for (auto& x : b_) x = rng.next_double(-1.0, 1.0);
}

void GeApp::run(rt::Scheduler& sched) {
  race::region race_scope("GE");
  std::vector<double> a = a_;
  std::vector<double> b = b_;
  const std::size_t n = n_;
  double* ap = a.data();
  double* bp = b.data();
  // Forward elimination with shrinking parallel row updates.
  sched.run([&sched, ap, bp, n] {
    for (std::size_t k = 0; k + 1 < n; ++k) {
      const double pivot = ap[k * n + k];
      rt::parallel_for(
          sched, static_cast<std::int64_t>(k) + 1,
          static_cast<std::int64_t>(n), 8,
          [ap, bp, n, k, pivot](std::int64_t rb, std::int64_t re) {
            // Each row i: reads pivot row k and b[k], rewrites row i from
            // column k and b[i].
            race::read(ap + k * n + k, n - k);
            race::read(bp + k);
            for (std::int64_t i = rb; i < re; ++i) {
              race::write(ap + i * n + k, n - k);
              race::write(bp + i);
              const double mult = ap[i * n + k] / pivot;
              ap[i * n + k] = 0.0;
              for (std::size_t j = k + 1; j < n; ++j) {
                ap[i * n + j] -= mult * ap[k * n + j];
              }
              bp[i] -= mult * bp[k];
            }
          });
    }
  });
  // Serial back substitution (negligible O(n^2) tail).
  x_.assign(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = bp[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= ap[ii * n + j] * x_[j];
    x_[ii] = s / ap[ii * n + ii];
  }
}

void GeApp::run_serial() {
  std::vector<double> a = a_;
  std::vector<double> b = b_;
  const std::size_t n = n_;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mult = a[i * n + k] / a[k * n + k];
      a[i * n + k] = 0.0;
      for (std::size_t j = k + 1; j < n; ++j) {
        a[i * n + j] -= mult * a[k * n + j];
      }
      b[i] -= mult * b[k];
    }
  }
  x_.assign(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= a[ii * n + j] * x_[j];
    x_[ii] = s / a[ii * n + ii];
  }
}

std::string GeApp::verify() const {
  // Residual check ‖A·x − b‖_inf.
  const std::size_t n = n_;
  double max_res = 0.0, max_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += a_[i * n + j] * x_[j];
    max_res = std::max(max_res, std::abs(s - b_[i]));
    max_b = std::max(max_b, std::abs(b_[i]));
  }
  if (max_res > 1e-8 * (max_b + 1.0)) {
    std::ostringstream os;
    os << "||A*x - b||_inf = " << max_res;
    return os.str();
  }
  return {};
}

}  // namespace dws::apps
