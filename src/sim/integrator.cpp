#include "sim/integrator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecsim::sim {

namespace {

void rk4_step(DerivRef dxdt, Time t, double h, std::vector<double>& x,
              IntegratorWorkspace& ws) {
  const std::size_t n = x.size();
  std::vector<double> &k1 = ws.k1, &k2 = ws.k2, &k3 = ws.k3, &k4 = ws.k4,
                      &tmp = ws.tmp;
  dxdt(t, x, k1);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i] + 0.5 * h * k1[i];
  dxdt(t + 0.5 * h, tmp, k2);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i] + 0.5 * h * k2[i];
  dxdt(t + 0.5 * h, tmp, k3);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i] + h * k3[i];
  dxdt(t + h, tmp, k4);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
  }
}

void integrate_rk4(const IntegratorOptions& opts, DerivRef dxdt, Time t0,
                   Time t1, std::vector<double>& x, IntegratorWorkspace& ws) {
  Time t = t0;
  while (t < t1) {
    const double h = std::min(opts.max_step, t1 - t);
    rk4_step(dxdt, t, h, x, ws);
    t += h;
  }
}

// Runge-Kutta-Fehlberg 4(5) Butcher tableau.
constexpr double kA2 = 1.0 / 4.0;
constexpr double kB31 = 3.0 / 32.0, kB32 = 9.0 / 32.0;
constexpr double kB41 = 1932.0 / 2197.0, kB42 = -7200.0 / 2197.0,
                 kB43 = 7296.0 / 2197.0;
constexpr double kB51 = 439.0 / 216.0, kB52 = -8.0, kB53 = 3680.0 / 513.0,
                 kB54 = -845.0 / 4104.0;
constexpr double kB61 = -8.0 / 27.0, kB62 = 2.0, kB63 = -3544.0 / 2565.0,
                 kB64 = 1859.0 / 4104.0, kB65 = -11.0 / 40.0;
constexpr double kC1 = 25.0 / 216.0, kC3 = 1408.0 / 2565.0,
                 kC4 = 2197.0 / 4104.0, kC5 = -1.0 / 5.0;
constexpr double kD1 = 16.0 / 135.0, kD3 = 6656.0 / 12825.0,
                 kD4 = 28561.0 / 56430.0, kD5 = -9.0 / 50.0, kD6 = 2.0 / 55.0;

/// Step-size growth/shrink factor for the accepted/rejected error estimate
/// of the step that just ran. Must be fed the *fresh* err of this attempt:
/// err == 0.0 means the 4th/5th-order solutions agreed exactly (e.g. a zero
/// or affine-in-t derivative), where the -0.2 power is undefined — grow by
/// the same cap the clamp would apply to any tiny positive err.
double step_factor(double err) {
  return err > 0.0 ? 0.9 * std::pow(err, -0.2) : 5.0;
}

/// One RKF45 embedded step: six stages from state `x` at time `t` with step
/// `h`. Writes the 5th-order solution into ws.x5 and returns the max scaled
/// discrepancy between the embedded 4th and 5th order solutions.
double rkf45_stages(const IntegratorOptions& opts, DerivRef dxdt, Time t,
                    double h, const std::vector<double>& x,
                    IntegratorWorkspace& ws) {
  const std::size_t n = x.size();
  std::vector<double> &k1 = ws.k1, &k2 = ws.k2, &k3 = ws.k3, &k4 = ws.k4,
                      &k5 = ws.k5, &k6 = ws.k6, &tmp = ws.tmp, &x5 = ws.x5;
  dxdt(t, x, k1);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i] + h * kA2 * k1[i];
  dxdt(t + h / 4.0, tmp, k2);
  for (std::size_t i = 0; i < n; ++i)
    tmp[i] = x[i] + h * (kB31 * k1[i] + kB32 * k2[i]);
  dxdt(t + 3.0 * h / 8.0, tmp, k3);
  for (std::size_t i = 0; i < n; ++i)
    tmp[i] = x[i] + h * (kB41 * k1[i] + kB42 * k2[i] + kB43 * k3[i]);
  dxdt(t + 12.0 * h / 13.0, tmp, k4);
  for (std::size_t i = 0; i < n; ++i)
    tmp[i] = x[i] + h * (kB51 * k1[i] + kB52 * k2[i] + kB53 * k3[i] +
                         kB54 * k4[i]);
  dxdt(t + h, tmp, k5);
  for (std::size_t i = 0; i < n; ++i)
    tmp[i] = x[i] + h * (kB61 * k1[i] + kB62 * k2[i] + kB63 * k3[i] +
                         kB64 * k4[i] + kB65 * k5[i]);
  dxdt(t + h / 2.0, tmp, k6);

  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double y4 =
        x[i] + h * (kC1 * k1[i] + kC3 * k3[i] + kC4 * k4[i] + kC5 * k5[i]);
    x5[i] = x[i] + h * (kD1 * k1[i] + kD3 * k3[i] + kD4 * k4[i] +
                        kD5 * k5[i] + kD6 * k6[i]);
    const double scale =
        opts.abs_tol + opts.rel_tol * std::max(std::abs(x[i]), std::abs(x5[i]));
    err = std::max(err, std::abs(x5[i] - y4) / scale);
  }
  return err;
}

void integrate_rkf45(const IntegratorOptions& opts, DerivRef dxdt, Time t0,
                     Time t1, std::vector<double>& x, IntegratorWorkspace& ws) {
  Time t = t0;
  double h = std::min(opts.max_step, t1 - t0);
  while (t < t1) {
    h = std::min(h, t1 - t);
    const double err = rkf45_stages(opts, dxdt, t, h, x, ws);
    // Accept when within tolerance, and *force-accept* once h has been
    // clamped to min_step: shrinking further is impossible, so taking the
    // too-large-error step is the only way to keep making progress (the
    // alternative is retrying the same h forever). Tests pin this branch.
    if (err <= 1.0 || h <= opts.min_step) {
      t += h;
      // The 5th-order solution becomes the state by swapping buffers: the
      // same values as copying x = x5, with no traffic.
      std::swap(x, ws.x5);
    }
    h *= std::clamp(step_factor(err), 0.2, 5.0);
    h = std::clamp(h, opts.min_step, opts.max_step);
  }
}

void check_interval(Time t0, Time t1) {
  if (t1 < t0) throw std::invalid_argument("integrate: t1 < t0");
}

}  // namespace

void integrate(const IntegratorOptions& opts, DerivRef dxdt, Time t0, Time t1,
               std::vector<double>& x, IntegratorWorkspace& ws) {
  check_interval(t0, t1);
  if (x.empty() || t1 == t0) return;
  ws.resize(x.size());
  switch (opts.kind) {
    case IntegratorKind::kRk4:
      integrate_rk4(opts, dxdt, t0, t1, x, ws);
      break;
    case IntegratorKind::kRkf45:
      integrate_rkf45(opts, dxdt, t0, t1, x, ws);
      break;
  }
}

void integrate(const IntegratorOptions& opts, DerivRef dxdt, Time t0, Time t1,
               std::vector<double>& x) {
  IntegratorWorkspace ws;
  integrate(opts, dxdt, t0, t1, x, ws);
}

}  // namespace ecsim::sim
