#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>

#include "common.hpp"
#include "core/journal.hpp"
#include "distrib/reducer.hpp"
#include "runtime/harness.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace a64fxcc;

Inventory build_inventory(const std::vector<kernels::Benchmark>& suite) {
  Inventory inv;
  inv.specs = compilers::paper_compilers();  // FJtrad first: the library reference
  const machine::Machine m = machine::a64fx();
  const runtime::Harness harness(m);
  const std::size_t n = suite.size() * inv.specs.size();
  inv.cells.reserve(n);
  inv.outcomes.reserve(n);  // plan_kernels points into it
  for (const auto& bench : suite)
    for (std::size_t c = 0; c < inv.specs.size(); ++c) {
      inv.cells.push_back({&bench, c});
      inv.outcomes.push_back(compilers::compile(inv.specs[c], bench.kernel, true));
    }

  std::map<std::uint64_t, std::size_t> plan_index;
  const auto plan_of = [&](const ir::Kernel& k) {
    perf::KernelPlan p = perf::analyze(k, m);
    const auto [it, fresh] = plan_index.emplace(p.fingerprint, inv.plans.size());
    if (fresh) {
      inv.plan_kernels.push_back(&k);
      inv.plans.push_back(std::move(p));
    }
    return it->second;
  };
  std::set<std::tuple<std::size_t, int, int, double, double, double>> seen;
  const auto add_evals = [&](std::size_t plan, const perf::CodegenProfile& prof,
                             const std::vector<runtime::Placement>& ps) {
    for (const auto& p : ps)
      if (seen.insert({plan, p.ranks, p.threads, prof.core_factor,
                       prof.vec_efficiency, prof.barrier_factor})
              .second)
        inv.evals.push_back({plan, perf::make_config(p.ranks, p.threads, m), prof});
  };
  for (std::size_t i = 0; i < n; ++i) {
    const compilers::CompileOutcome& out = inv.outcomes[i];
    if (!out.ok()) continue;
    const kernels::Benchmark& bench = *inv.cells[i].bench;
    const auto ps =
        harness.candidate_placements(bench.traits, bench.kernel.meta().parallel);
    inv.candidates += ps.size();
    inv.noise_cvs.push_back(bench.traits.noise_cv);
    add_evals(plan_of(*out.kernel), out.profile, ps);
    if (bench.traits.library_fraction > 0) {
      const compilers::CompileOutcome& ref = inv.outcomes[i - inv.cells[i].spec];
      if (ref.ok()) add_evals(plan_of(*ref.kernel), ref.profile, ps);
    }
  }
  return inv;
}

WorkCounts work_counts(const obs::Registry& counters, const Inventory& inv) {
  WorkCounts w;
  w.compiles = counters.counter("compile_cache_misses");
  w.plans = counters.counter("plan_cache_misses");
  w.evaluations = counters.counter("estimate_cache_misses");
  w.cells_ok = counters.counter("cells_ok");
  // A pruning placement search reports the noisy trials it ran; without
  // one, every candidate placement of a valid cell gets three.
  const std::uint64_t searched = counters.counter("search_survivor_trials");
  w.explore_trials = searched > 0 ? searched : 3 * inv.candidates;
  return w;
}

std::vector<Layer> replay_layers(const Inventory& inv, const WorkCounts& counts,
                                 const report::Table& table, std::uint64_t seed,
                                 const std::vector<kernels::Benchmark>& suite,
                                 const std::string& shard_dir,
                                 const std::string& scratch_journal) {
  std::vector<Layer> layers;
  const auto span = [&layers](const char* name, std::uint64_t calls,
                              const auto& body) {
    const double t0 = thread_cpu_s();
    for (std::uint64_t k = 0; k < calls; ++k) body(k);
    layers.push_back({name, static_cast<double>(calls),
                      (thread_cpu_s() - t0) * 1e3});
  };
  const machine::Machine m = machine::a64fx();
  double sink = 0;

  {
    std::vector<compilers::CompileOutcome> keep;  // freed outside the span
    keep.reserve(counts.compiles);
    span("compilers.compile", counts.compiles, [&](std::uint64_t k) {
      const auto& c = inv.cells[k % inv.cells.size()];
      keep.push_back(compilers::compile(inv.specs[c.spec], c.bench->kernel, true));
    });
  }
  {
    std::vector<perf::KernelPlan> keep;
    keep.reserve(counts.plans);
    span("perf.analyze", counts.plans, [&](std::uint64_t k) {
      keep.push_back(perf::analyze(*inv.plan_kernels[k % inv.plan_kernels.size()], m));
    });
  }
  span("perf.evaluate", counts.evaluations, [&](std::uint64_t k) {
    const Inventory::Eval& e = inv.evals[k % inv.evals.size()];
    sink += perf::evaluate(inv.plans[e.plan], e.cfg, e.prof, false).seconds;
  });
  span("runtime.noise_sample", counts.noise_draws(), [&](std::uint64_t k) {
    sink += runtime::noise_sample(seed, 0x9E3779B97F4A7C15ULL * (k + 1), 1.0,
                                  inv.noise_cvs[k % inv.noise_cvs.size()]);
  });
  span("report.render_csv", 1, [&](std::uint64_t) {
    sink += static_cast<double>(report::render_csv(table).size());
  });
  span("core.summarize", 1, [&](std::uint64_t) {
    sink += core::summarize(table).mean_best_gain;
  });

  // Shard I/O: the lines the workers appended, the resume pass's load,
  // and the reducer's merges, replayed on the operation's own data.
  std::vector<core::JournalEntry> entries;
  if (counts.journal_lines > 0)
    for (std::size_t r = 0; r < table.rows.size(); ++r)
      for (std::size_t c = 0; c < table.rows[r].cells.size(); ++c)
        entries.push_back({core::Journal::cell_key(seed, inv.specs[c],
                                                   suite[r].kernel, true),
                           table.rows[r].cells[c]});
  std::filesystem::remove(scratch_journal);
  {
    core::Journal out;
    if (counts.journal_lines > 0 && !out.open(scratch_journal))
      throw std::runtime_error("cannot open " + scratch_journal);
    span("core.journal_append", counts.journal_lines, [&](std::uint64_t k) {
      out.record(entries[k % entries.size()]);
    });
  }
  span("core.journal_load", counts.journal_loads, [&](std::uint64_t) {
    core::Journal in;
    sink += static_cast<double>(in.load(scratch_journal));
  });
  std::filesystem::remove(scratch_journal);
  span("distrib.reduce", counts.reduces, [&](std::uint64_t) {
    const auto merged = distrib::Reducer::merge(shard_dir, suite, study_options(seed));
    sink += static_cast<double>(merged.rows.size());
  });

  if (!(sink > 0)) throw std::runtime_error("layer replay produced no work");
  return layers;
}

double self_ms(const std::vector<std::vector<obs::Tracer::Record>>& groups,
               const std::string& name) {
  using Record = obs::Tracer::Record;
  double total_us = 0;
  for (const auto& group : groups) {
    std::map<int, std::vector<const Record*>> by_tid;
    for (const Record& r : group) by_tid[r.tid].push_back(&r);
    for (auto& [tid, rs] : by_tid) {
      std::sort(rs.begin(), rs.end(), [](const Record* a, const Record* b) {
        return a->begin_seq < b->begin_seq;
      });
      // Open spans with the time their direct children cover so far.
      std::vector<std::pair<const Record*, double>> open;
      const auto close = [&] {
        const auto [r, child_us] = open.back();
        open.pop_back();
        if (r->name == name) total_us += (r->end_us - r->begin_us) - child_us;
      };
      for (const Record* r : rs) {
        while (!open.empty() && open.back().first->end_seq < r->begin_seq) close();
        if (!open.empty()) open.back().second += r->end_us - r->begin_us;
        open.emplace_back(r, 0.0);
      }
      while (!open.empty()) close();
    }
  }
  return total_us / 1e3;
}

std::uint64_t shard_lines(const std::string& dir) {
  std::uint64_t lines = 0;
  for (const std::string& path : distrib::Reducer::shard_files(dir)) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
      if (!line.empty()) ++lines;
  }
  return lines;
}

}  // namespace e2e
