#include "apps/app.hpp"

#include "apps/fft.hpp"
#include "apps/linalg.hpp"
#include "apps/mergesort.hpp"
#include "apps/pnn.hpp"
#include "apps/stencil.hpp"

namespace dws::apps {

namespace {

struct Sizes {
  std::size_t fft_n;
  std::size_t pnn_samples, pnn_inputs;
  unsigned pnn_epochs;
  std::size_t chol_n, lu_n, ge_n;
  std::size_t grid, heat_iters, sor_iters;
  std::size_t sort_n;
};

Sizes sizes_for(Scale scale) {
  switch (scale) {
    case Scale::kTiny:
      return {256, 64, 4, 8, 24, 24, 24, 32, 4, 4, 4096};
    case Scale::kSmall:
      return {4096, 512, 6, 20, 96, 96, 96, 128, 20, 20, 100000};
    case Scale::kMedium:
      return {1u << 18, 4096, 8, 40, 384, 384, 384, 512, 60, 60, 4000000};
  }
  return sizes_for(Scale::kSmall);
}

}  // namespace

std::unique_ptr<App> make_app(const std::string& name, Scale scale,
                              std::uint64_t seed) {
  const Sizes s = sizes_for(scale);
  if (name == "FFT") return std::make_unique<FftApp>(s.fft_n, seed);
  if (name == "PNN") {
    return std::make_unique<PnnApp>(s.pnn_samples, s.pnn_inputs, s.pnn_epochs,
                                    seed);
  }
  if (name == "Cholesky") return std::make_unique<CholeskyApp>(s.chol_n, seed);
  if (name == "LU") return std::make_unique<LuApp>(s.lu_n, seed);
  if (name == "GE") return std::make_unique<GeApp>(s.ge_n, seed);
  if (name == "Heat") {
    return std::make_unique<HeatApp>(s.grid, s.grid,
                                     static_cast<unsigned>(s.heat_iters));
  }
  if (name == "SOR") {
    return std::make_unique<SorApp>(s.grid, s.grid,
                                    static_cast<unsigned>(s.sor_iters));
  }
  if (name == "Mergesort") {
    return std::make_unique<MergesortApp>(s.sort_n, seed);
  }
  return nullptr;
}

std::vector<std::unique_ptr<App>> make_all_apps(Scale scale,
                                                std::uint64_t seed) {
  std::vector<std::unique_ptr<App>> out;
  out.reserve(kNumApps);
  for (const char* name : kAppNames) out.push_back(make_app(name, scale, seed));
  return out;
}

}  // namespace dws::apps
