#include "apps/pnn.hpp"

#include <cmath>
#include <sstream>

#include "runtime/api.hpp"
#include "util/rng.hpp"

namespace dws::apps {

PnnApp::PnnApp(std::size_t samples, std::size_t inputs, unsigned epochs,
               std::uint64_t seed)
    : samples_(samples), inputs_(inputs), epochs_(epochs) {
  // Quadratic basis: 1 + d + d(d+1)/2 features.
  n_features_ = 1 + inputs_ + inputs_ * (inputs_ + 1) / 2;
  util::Xoshiro256 rng(seed);
  x_.resize(samples_ * inputs_);
  for (auto& v : x_) v = rng.next_double(-1.0, 1.0);
  expand_features();

  // Targets from a hidden random polynomial (realizable => loss can go
  // to ~0, which verify() exploits) plus a pinch of noise.
  std::vector<double> true_w(n_features_);
  for (auto& w : true_w) w = rng.next_double(-1.0, 1.0);
  targets_.resize(samples_);
  for (std::size_t s = 0; s < samples_; ++s) {
    double y = 0.0;
    for (std::size_t f = 0; f < n_features_; ++f) {
      y += true_w[f] * features_[s * n_features_ + f];
    }
    targets_[s] = y + rng.next_double(-1e-3, 1e-3);
  }
}

void PnnApp::expand_features() {
  features_.assign(samples_ * n_features_, 0.0);
  for (std::size_t s = 0; s < samples_; ++s) {
    double* f = &features_[s * n_features_];
    const double* x = &x_[s * inputs_];
    std::size_t idx = 0;
    f[idx++] = 1.0;
    for (std::size_t i = 0; i < inputs_; ++i) f[idx++] = x[i];
    for (std::size_t i = 0; i < inputs_; ++i) {
      for (std::size_t j = i; j < inputs_; ++j) f[idx++] = x[i] * x[j];
    }
  }
}

double PnnApp::train(rt::Scheduler* sched) {
  weights_.assign(n_features_, 0.0);
  const double lr = 0.5 / static_cast<double>(samples_);
  double loss = 0.0;
  for (unsigned epoch = 0; epoch <= epochs_; ++epoch) {
    // One full-batch pass: per-sample error and gradient, reduced over
    // the batch. The map step dominates and is data-parallel.
    struct Partial {
      std::vector<double> grad;
      double loss = 0.0;
    };
    auto map = [&](std::int64_t b, std::int64_t e) {
      // Footprint: reads the feature rows, targets and current weights
      // for this sample block; the gradient accumulator is task-local.
      race::read(&features_[static_cast<std::size_t>(b) * n_features_],
                 static_cast<std::size_t>(e - b) * n_features_);
      race::read(&targets_[static_cast<std::size_t>(b)],
                 static_cast<std::size_t>(e - b));
      race::read(weights_.data(), n_features_);
      Partial p;
      p.grad.assign(n_features_, 0.0);
      for (std::int64_t s = b; s < e; ++s) {
        const double* f = &features_[static_cast<std::size_t>(s) * n_features_];
        double pred = 0.0;
        for (std::size_t k = 0; k < n_features_; ++k) {
          pred += weights_[k] * f[k];
        }
        const double err = pred - targets_[static_cast<std::size_t>(s)];
        p.loss += err * err;
        for (std::size_t k = 0; k < n_features_; ++k) {
          p.grad[k] += err * f[k];
        }
      }
      return p;
    };
    auto combine = [&](Partial a, Partial b) {
      // `a` aliases the shared accumulator that every leaf task folds
      // into under parallel_reduce's combine lock: its heap gradient
      // buffer is handed from round to round by move, so its address is
      // stable and genuinely shared. Annotated so the ALL-SETS lockset
      // detector certifies the mutual exclusion instead of skipping it
      // (`a.loss` lives in the moved-around struct itself — no stable
      // address to annotate). `b` is the task-local partial.
      race::write(a.grad.data(), n_features_);
      race::read(b.grad.data(), n_features_);
      for (std::size_t k = 0; k < n_features_; ++k) a.grad[k] += b.grad[k];
      a.loss += b.loss;
      return a;
    };
    Partial total;
    total.grad.assign(n_features_, 0.0);
    if (sched != nullptr) {
      total = rt::parallel_reduce<Partial>(
          *sched, 0, static_cast<std::int64_t>(samples_), 64,
          std::move(total), map, combine);
    } else {
      total = map(0, static_cast<std::int64_t>(samples_));
    }
    loss = total.loss / static_cast<double>(samples_);
    if (epoch == 0) initial_loss_ = loss;
    if (epoch == epochs_) break;  // final pass measures, does not update
    for (std::size_t k = 0; k < n_features_; ++k) {
      weights_[k] -= lr * total.grad[k];
    }
  }
  return loss;
}

void PnnApp::run(rt::Scheduler& sched) {
  sched.run([&] { final_loss_ = train(&sched); });
}

void PnnApp::run_serial() { final_loss_ = train(nullptr); }

std::string PnnApp::verify() const {
  // Training on a realizable target must reduce the loss substantially;
  // gradient descent here is deterministic, so this is a stable check.
  if (!(final_loss_ < initial_loss_ * 0.5)) {
    std::ostringstream os;
    os << "training did not converge: initial loss " << initial_loss_
       << ", final loss " << final_loss_;
    return os.str();
  }
  if (!std::isfinite(final_loss_)) return "loss diverged to non-finite";
  return {};
}

}  // namespace dws::apps
