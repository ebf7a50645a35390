#include "opt/gsd.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "opt/load_lp.hpp"
#include "util/thread_pool.hpp"

namespace coca::opt {
namespace {

/// Deterministic merge order: feasibility first, then lower best objective;
/// ties keep the earlier chain.  Comparing chain results in ascending chain
/// id with a strict `better` makes the winner independent of thread count.
bool better(const GsdResult& a, const GsdResult& b) {
  if (a.best.feasible != b.best.feasible) return a.best.feasible;
  return a.best.outcome.objective < b.best.outcome.objective;
}

/// True when every group has the same level and bitwise the same active
/// count in `a` and `b`: then a load-LP solve of either returns the same
/// bits, since the loads are its only other per-group input and it
/// overwrites them.
bool same_configuration(const dc::Allocation& a, const dc::Allocation& b) {
  for (std::size_t g = 0; g < a.size(); ++g) {
    if (a[g].level != b[g].level ||
        std::bit_cast<std::uint64_t>(a[g].active) !=
            std::bit_cast<std::uint64_t>(b[g].active)) {
      return false;
    }
  }
  return true;
}

}  // namespace

double GsdSolver::acceptance_probability(double delta,
                                         double explored_objective,
                                         double kept_objective) {
  // u = exp(d/ge) / (exp(d/ge) + exp(d/gk)) = logistic(d*(1/ge - 1/gk)).
  // Objectives are strictly positive for feasible decisions (Appendix A);
  // guard the degenerate cases anyway.
  if (!std::isfinite(explored_objective)) return 0.0;
  if (!std::isfinite(kept_objective)) return 1.0;
  const double ge = std::max(explored_objective, 1e-300);
  const double gk = std::max(kept_objective, 1e-300);
  const double exponent = delta * (1.0 / ge - 1.0 / gk);
  if (exponent > 700.0) return 1.0;
  if (exponent < -700.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-exponent));
}

GsdResult GsdSolver::solve(const dc::Fleet& fleet, const SlotInput& input,
                           const SlotWeights& weights,
                           std::optional<dc::Allocation> initial) const {
  const int chains = std::max(1, config_.chains);
  // Chain c draws from the deterministically derived stream seed ^ c, so
  // chain 0 of any chain count is the single-chain run and the chain set is
  // a pure function of the config.
  //
  // Capture the dispatching thread's span path so chain spans keep their
  // place in the hierarchy whether run_chain executes inline (threads<=1)
  // or on a pool worker — profile paths and counts must not depend on the
  // thread count.
  const std::string span_parent = obs::current_span_path();
  std::vector<GsdResult> per_chain(static_cast<std::size_t>(chains));
  auto run_chain = [&](std::size_t c) {
    std::string chain_name = "gsd_chain[";
    chain_name += std::to_string(c);
    chain_name += ']';
    const obs::ScopedSpan chain_span(chain_name, span_parent);
    per_chain[c] =
        solve_chain(fleet, input, weights, initial,
                    config_.seed ^ static_cast<std::uint64_t>(c));
  };
  const std::size_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = std::min(
      per_chain.size(), config_.threads > 0
                            ? static_cast<std::size_t>(config_.threads)
                            : hardware);
  if (threads <= 1) {
    for (std::size_t c = 0; c < per_chain.size(); ++c) run_chain(c);
  } else {
    util::ThreadPool pool(threads);
    pool.parallel_for(per_chain.size(), run_chain);
  }

  // Merge in ascending chain order — never completion order.
  std::size_t winner = 0;
  for (std::size_t c = 1; c < per_chain.size(); ++c) {
    if (better(per_chain[c], per_chain[winner])) winner = c;
  }
  int evaluations = 0;
  int accepted = 0;
  for (const auto& chain : per_chain) {
    evaluations += chain.evaluations;
    accepted += chain.accepted;
  }
  GsdResult merged = std::move(per_chain[winner]);
  merged.evaluations = evaluations;
  merged.accepted = accepted;
  merged.chains_run = chains;
  merged.winning_chain = static_cast<int>(winner);
  obs::count("gsd.solves");
  obs::count("gsd.evaluations", merged.evaluations);
  obs::count("gsd.accepted", merged.accepted);
  return merged;
}

GsdResult GsdSolver::solve_chain(const dc::Fleet& fleet, const SlotInput& input,
                                 const SlotWeights& weights,
                                 const std::optional<dc::Allocation>& initial,
                                 std::uint64_t seed) const {
  GsdResult result;
  util::Rng rng(seed);

  // Initialization (line 1): a feasible starting configuration.  `kept`
  // always holds its solved loads, and `kept_balance` its solve.
  dc::Allocation kept =
      initial.value_or(all_on_max(fleet, input.lambda, weights.gamma));
  LoadBalanceResult kept_balance = solve_load_lp(fleet, kept, input, weights);
  ++result.evaluations;

  dc::Allocation explored = kept;  // the exploration state x^e
  SlotSolution best;
  best.alloc = kept;
  best.outcome = kept_balance.outcome;
  best.regime = kept_balance.regime;
  best.effective_price = kept_balance.effective_price;
  best.feasible = kept_balance.feasible;

  double delta = config_.adaptive ? config_.delta_initial : config_.delta;
  if (config_.record_trajectory) result.trajectory.reserve(config_.iterations);

  for (int iter = 0; iter < config_.iterations; ++iter) {
    const obs::ScopedSpan iter_span("sweep_iter");
    // Line 2: evaluate the exploration only if it can carry the workload.
    const double explored_capacity =
        dc::capped_capacity(fleet, explored, weights.gamma);
    if (explored_capacity >= input.lambda * (1.0 - 1e-12)) {
      // Line 3: optimal load distribution for the explored speeds.  An
      // exploration back on the kept configuration reuses the kept solve
      // (same configuration, same bits) instead of solving it again; it
      // still counts as an evaluation.
      const bool at_kept = same_configuration(explored, kept);
      dc::Allocation candidate = at_kept ? kept : explored;
      const LoadBalanceResult balanced =
          at_kept ? kept_balance
                  : solve_load_lp(fleet, candidate, input, weights);
      ++result.evaluations;
      const double explored_objective = balanced.outcome.objective;

      // Lines 4-5: two-point Gibbs acceptance.
      const double u = acceptance_probability(
          delta, explored_objective, kept_balance.outcome.objective);
      if (rng.bernoulli(u)) {
        kept = candidate;
        kept_balance = balanced;
        ++result.accepted;
        if (balanced.feasible && explored_objective < best.outcome.objective) {
          best.alloc = candidate;
          best.outcome = balanced.outcome;
          best.regime = balanced.regime;
          best.effective_price = balanced.effective_price;
          best.feasible = true;
        }
      } else {
        explored = kept;  // abandon the exploration (line 5, else branch)
      }
    }
    // Note: when the exploration cannot carry the workload (line 2 fails),
    // lines 3-5 are skipped but x^e is *not* reset — line 7 keeps mutating
    // it, so the chain can climb out of an infeasible region (e.g. an
    // all-at-lowest-speed initial point) one group at a time.

    // Line 7: a random group explores a random speed configuration.
    const std::size_t g = rng.uniform_index(fleet.group_count());
    const auto& group = fleet.group(g);
    const std::size_t level_options = group.spec().level_count();
    // Option 0 = off; otherwise a level plus a quantized active count.
    const std::size_t option = rng.uniform_index(level_options + 1);
    if (option == 0) {
      explored[g].level = 0;
      explored[g].active = 0.0;
    } else {
      const std::size_t level = option - 1;
      const int steps = std::max(1, config_.count_steps);
      const double chunk = std::ceil(static_cast<double>(group.server_count()) /
                                     static_cast<double>(steps));
      const auto step = rng.uniform_index(static_cast<std::uint64_t>(steps)) + 1;
      explored[g].level = level;
      explored[g].active =
          std::min(static_cast<double>(group.server_count()),
                   chunk * static_cast<double>(step));
    }

    if (config_.adaptive) delta *= config_.delta_growth;
    if (config_.record_trajectory) {
      result.trajectory.push_back(kept_balance.outcome.objective);
    }
  }

  // Line 8: return the kept configuration with its kept solve (we also
  // expose the incumbent).
  result.solution.alloc = kept;
  result.solution.outcome = kept_balance.outcome;
  result.solution.regime = kept_balance.regime;
  result.solution.effective_price = kept_balance.effective_price;
  result.solution.feasible = kept_balance.feasible;
  result.best = best;
  return result;
}

}  // namespace coca::opt
