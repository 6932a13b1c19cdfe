#include "analysis/stmt_ctx.hpp"

#include <cmath>

namespace a64fxcc::analysis {

namespace {

void walk(const ir::Node& n, std::vector<const ir::Loop*>& chain,
          std::vector<StmtCtx>& out) {
  if (n.is_stmt()) {
    out.push_back({&n.stmt, &n, chain});
    return;
  }
  chain.push_back(&n.loop);
  for (const auto& child : n.loop.body) walk(*child, chain, out);
  chain.pop_back();
}

}  // namespace

std::vector<StmtCtx> collect_stmts(const ir::Kernel& k) {
  std::vector<StmtCtx> out;
  std::vector<const ir::Loop*> chain;
  for (const auto& r : k.roots()) walk(*r, chain, out);
  return out;
}

std::vector<double> trip_counts(LoopChain chain, const ir::Kernel& k) {
  // Parameters bound; each loop variable, once its own count is taken,
  // moves to the midpoint of its range for the loops inside it.
  auto env = k.param_env();
  std::vector<double> trips;
  trips.reserve(chain.size());
  for (const ir::Loop* l : chain) {
    const double lo = static_cast<double>(l->lower.evaluate(env));
    double hi = static_cast<double>(l->upper.evaluate(env));
    if (l->upper2.has_value())
      hi = std::fmin(hi, static_cast<double>(l->upper2->evaluate(env)));
    // With a negative step, hi - lo is negative too: a positive count.
    const double n = std::ceil((hi - lo) / static_cast<double>(l->step));
    trips.push_back(std::fmax(n, 0.0));
    env[static_cast<std::size_t>(l->var)] =
        static_cast<std::int64_t>(std::floor((lo + hi) / 2.0));
  }
  return trips;
}

double iteration_count(std::span<const double> trips) {
  double total = 1.0;
  for (const double t : trips) total *= t;
  return total;
}

}  // namespace a64fxcc::analysis
