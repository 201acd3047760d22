// ODE integration strategies for the continuous part of the hybrid model.
// The simulator integrates the packed continuous state between event times;
// derivative evaluation re-runs the combinational (feedthrough) network.
//
// Hot-path memory discipline (DESIGN.md §3.4): the stage buffers (k1..k6,
// tmp, x5) live in an IntegratorWorkspace owned by the caller and reused
// across every inter-event interval, and the derivative callback is passed
// as a non-owning ecsim::function_ref. After the workspace has grown to the
// state dimension once, an integrate() call performs zero heap allocations.
#pragma once

#include <vector>

#include "mathlib/function_ref.hpp"
#include "sim/trace.hpp"

namespace ecsim::sim {

/// dxdt(t, x, dx): write the derivative of `x` at time `t` into `dx`.
/// Non-owning view used on the hot path; see function_ref lifetime rules.
using DerivRef = ecsim::function_ref<void(Time, const std::vector<double>&,
                                          std::vector<double>&)>;

enum class IntegratorKind {
  kRk4,    // classic fixed-step Runge-Kutta 4
  kRkf45,  // Runge-Kutta-Fehlberg 4(5) with adaptive step
};

struct IntegratorOptions {
  IntegratorKind kind = IntegratorKind::kRk4;
  double max_step = 1e-3;   // upper bound on any step (both kinds)
  double rel_tol = 1e-8;    // RKF45 only
  double abs_tol = 1e-10;   // RKF45 only
  double min_step = 1e-12;  // RKF45 safety floor
};

/// Reusable stage buffers for integrate(). Owned by the runner (one per
/// Simulator / CompiledModel run state), sized on first use and then reused
/// so the steady-state loop never allocates. resize() only touches the heap
/// when growing beyond the high-water dimension.
class IntegratorWorkspace {
 public:
  void resize(std::size_t n) {
    if (n == n_) return;
    k1.resize(n);
    k2.resize(n);
    k3.resize(n);
    k4.resize(n);
    k5.resize(n);
    k6.resize(n);
    tmp.resize(n);
    x5.resize(n);
    n_ = n;
  }
  std::size_t size() const { return n_; }

  // Stage buffers, exposed directly: this is scratch memory, not state.
  // RKF45 swaps x5 with the caller's state vector on accepted steps, so x5
  // must always match the state's length (resize() maintains that).
  std::vector<double> k1, k2, k3, k4, k5, k6, tmp, x5;

 private:
  std::size_t n_ = 0;
};

/// Advance `x` from t0 to t1 (t1 >= t0) under the chosen scheme. The final
/// step is shortened to land exactly on t1, so event times are never
/// overstepped. Allocation-free once `ws` has reached the state dimension
/// (RKF45 may swap x's buffer with ws.x5; capacities are equal, values are
/// what the maths demand).
void integrate(const IntegratorOptions& opts, DerivRef dxdt, Time t0, Time t1,
               std::vector<double>& x, IntegratorWorkspace& ws);

/// Convenience overload with a throwaway workspace (tests, one-shot use).
void integrate(const IntegratorOptions& opts, DerivRef dxdt, Time t0, Time t1,
               std::vector<double>& x);

}  // namespace ecsim::sim
