#include "apps/fft.hpp"

#include <cassert>
#include <cmath>
#include <numbers>
#include <sstream>

#include "runtime/api.hpp"
#include "util/rng.hpp"

namespace dws::apps {

namespace {

using Cplx = std::complex<double>;

/// Recursive out-of-place radix-2 FFT of data[offset], data[offset+stride],
/// ... (n elements) into out[0..n). Serial version.
void fft_serial(const Cplx* data, std::size_t n, std::size_t stride,
                Cplx* out, Cplx* scratch) {
  if (n == 1) {
    out[0] = data[0];
    return;
  }
  const std::size_t half = n / 2;
  fft_serial(data, half, stride * 2, scratch, out);                // evens
  fft_serial(data + stride, half, stride * 2, scratch + half, out + half);
  for (std::size_t i = 0; i < half; ++i) {
    const double angle = -2.0 * std::numbers::pi *
                         static_cast<double>(i) / static_cast<double>(n);
    const Cplx tw = std::polar(1.0, angle) * scratch[half + i];
    out[i] = scratch[i] + tw;
    out[i + half] = scratch[i] - tw;
  }
}

constexpr std::size_t kParallelCutoff = 256;

void fft_parallel(rt::Scheduler& sched, const Cplx* data, std::size_t n,
                  std::size_t stride, Cplx* out, Cplx* scratch) {
  if (n <= kParallelCutoff) {
    // Footprint of the serial subtree: reads the strided input segment,
    // fills out[0..n) using scratch[0..n) as working space.
    race::read(data, n, static_cast<std::ptrdiff_t>(stride));
    race::write(out, n);
    race::write(scratch, n);
    fft_serial(data, n, stride, out, scratch);
    return;
  }
  const std::size_t half = n / 2;
  rt::parallel_invoke(
      sched,
      [&] { fft_parallel(sched, data, half, stride * 2, scratch, out); },
      [&] {
        fft_parallel(sched, data + stride, half, stride * 2, scratch + half,
                     out + half);
      });
  // Parallel butterfly combine.
  rt::parallel_for(sched, 0, static_cast<std::int64_t>(half), 512,
                   [&](std::int64_t b, std::int64_t e) {
                     race::read(scratch + b, static_cast<std::size_t>(e - b));
                     race::read(scratch + half + b,
                                static_cast<std::size_t>(e - b));
                     race::write(out + b, static_cast<std::size_t>(e - b));
                     race::write(out + half + b,
                                 static_cast<std::size_t>(e - b));
                     for (std::int64_t i = b; i < e; ++i) {
                       const double angle =
                           -2.0 * std::numbers::pi * static_cast<double>(i) /
                           static_cast<double>(n);
                       const Cplx tw =
                           std::polar(1.0, angle) * scratch[half + i];
                       out[i] = scratch[i] + tw;
                       out[i + half] = scratch[i] - tw;
                     }
                   });
}

}  // namespace

FftApp::FftApp(std::size_t n, std::uint64_t seed) : n_(n) {
  assert(n >= 2 && (n & (n - 1)) == 0 && "n must be a power of two");
  util::Xoshiro256 rng(seed);
  input_.resize(n_);
  for (auto& x : input_) {
    x = Cplx(rng.next_double(-1.0, 1.0), rng.next_double(-1.0, 1.0));
  }
  output_.assign(n_, Cplx{});
}

void FftApp::run(rt::Scheduler& sched) {
  race::region race_scope("FFT");
  std::vector<Cplx> scratch(n_);
  output_.assign(n_, Cplx{});
  sched.run([&] {
    fft_parallel(sched, input_.data(), n_, 1, output_.data(), scratch.data());
  });
}

void FftApp::run_serial() {
  std::vector<Cplx> scratch(n_);
  output_.assign(n_, Cplx{});
  fft_serial(input_.data(), n_, 1, output_.data(), scratch.data());
}

std::string FftApp::verify() const {
  // Parseval's theorem: sum |x|^2 == (1/n) sum |X|^2, plus a spot DFT
  // check of a few bins against the direct definition.
  double time_energy = 0.0, freq_energy = 0.0;
  for (const auto& x : input_) time_energy += std::norm(x);
  for (const auto& x : output_) freq_energy += std::norm(x);
  const double parseval_err =
      std::abs(time_energy - freq_energy / static_cast<double>(n_)) /
      (time_energy + 1e-30);
  if (parseval_err > 1e-9) {
    std::ostringstream os;
    os << "Parseval mismatch: relative error " << parseval_err;
    return os.str();
  }
  for (std::size_t bin : {std::size_t{0}, n_ / 3, n_ - 1}) {
    Cplx direct{};
    for (std::size_t t = 0; t < n_; ++t) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(bin) *
                           static_cast<double>(t) / static_cast<double>(n_);
      direct += input_[t] * std::polar(1.0, angle);
    }
    if (std::abs(direct - output_[bin]) >
        1e-6 * (std::abs(direct) + 1.0)) {
      std::ostringstream os;
      os << "bin " << bin << ": direct DFT " << direct << " != FFT "
         << output_[bin];
      return os.str();
    }
  }
  return {};
}

}  // namespace dws::apps
