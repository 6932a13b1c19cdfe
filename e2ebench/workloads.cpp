#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "common.hpp"
#include "obs/aggregate.hpp"

namespace e2e {

using namespace a64fxcc;

std::optional<Kind> parse_kind(std::string_view name) {
  if (name == "paper_cold") return Kind::PaperCold;
  if (name == "restudy_warm") return Kind::RestudyWarm;
  if (name == "procs_journal") return Kind::ProcsJournal;
  return std::nullopt;
}

core::StudyOptions study_options(std::uint64_t seed) {
  core::StudyOptions opt;
  opt.scale = 1.0;
  opt.seed = seed;
  opt.jobs = 1;
  return opt;
}

void setup(Kind k, Context& ctx, std::uint64_t seed) {
  ctx.suite = kernels::all_benchmarks(1.0);
  ctx.warm.reset();
  if (k == Kind::ProcsJournal) std::filesystem::create_directories(ctx.work_dir);
  if (k == Kind::RestudyWarm) {
    ctx.warm = std::make_unique<cache::Service>();
    core::StudyOptions opt = study_options(seed);
    opt.jobs = ctx.nproc;
    opt.cache_service = ctx.warm.get();
    (void)core::Study(opt).run_suite(ctx.suite);
    return;
  }
  // One discarded operation, so the measured ones do not pay one-time
  // costs (lazy statics, first page faults of the heap, the first fork).
  // On restudy_warm the warming study above plays this part.
  const OpOutput warm_up = run_op(k, ctx, seed);
  if (!warm_up.shard_dir.empty()) std::filesystem::remove_all(warm_up.shard_dir);
}

namespace {

OpOutput finish(report::Table table) {
  OpOutput out;
  out.csv = report::render_csv(table);
  out.summary = core::summarize(table);
  out.table = std::move(table);
  return out;
}

OpOutput run_in_process(const Context& ctx, core::StudyOptions opt,
                        Probe* probe) {
  if (probe != nullptr) {
    opt.tracer = &probe->tracer;
    opt.sink = &probe->sink;
  }
  const core::Study study(opt);
  OpOutput out = finish(study.run_suite(ctx.suite));
  if (probe != nullptr) probe->cache_stats = study.cache_service().stats();
  return out;
}

OpOutput run_procs(const Context& ctx, std::uint64_t seed, Probe* probe) {
  // A traced operation keeps its shards for the layer replay, so it must
  // not share a directory with the untraced operation of the same seed.
  const std::string dir = ctx.work_dir + "/shards-" + std::to_string(seed) +
                          (probe != nullptr ? "-traced" : "");
  std::filesystem::remove_all(dir);
  distrib::SupervisorOptions so;
  so.study = study_options(seed);
  so.procs = std::max(1, ctx.nproc - 1);
  so.shard_dir = dir;
  if (probe != nullptr) {
    so.study.tracer = &probe->tracer;
    so.study.sink = &probe->sink;
    so.telemetry = true;
  }
  distrib::Supervisor fresh(so);
  const std::string fresh_csv = report::render_csv(fresh.run_suite(ctx.suite));

  // The resume pass restores every valid cell from the shards and
  // re-evaluates only the classified failures.
  const double t0 = wall_s();
  distrib::Supervisor again(so);
  OpOutput out = finish(again.run_suite(ctx.suite));
  const double resume_wall = wall_s() - t0;
  out.shard_dir = dir;

  const auto& rs = again.stats();
  const std::size_t cells = out.table.rows.size() * out.table.compilers.size();
  if (rs.resumed_cells + rs.reopened_cells != cells)
    throw std::runtime_error("resume pass restored " +
                             std::to_string(rs.resumed_cells) + " + reopened " +
                             std::to_string(rs.reopened_cells) + " of " +
                             std::to_string(cells) + " cells");
  if (out.csv != fresh_csv)
    throw std::runtime_error("resumed table differs from the fresh pass");
  if (probe != nullptr) {
    probe->fresh = fresh.stats();
    probe->resumed = rs;
    probe->resume_wall_s = resume_wall;
  }
  return out;
}

}  // namespace

OpOutput run_op(Kind k, const Context& ctx, std::uint64_t seed, Probe* probe) {
  switch (k) {
    case Kind::PaperCold:
      return run_in_process(ctx, study_options(seed), probe);
    case Kind::RestudyWarm: {
      core::StudyOptions opt = study_options(seed);
      opt.jobs = ctx.nproc;
      opt.cache_service = ctx.warm.get();
      return run_in_process(ctx, opt, probe);
    }
    case Kind::ProcsJournal:
      return run_procs(ctx, seed, probe);
  }
  throw std::logic_error("unknown workload");
}

void collect(Kind k, const OpOutput& out, Probe& probe) {
  probe.spans.clear();
  if (k != Kind::ProcsJournal) {
    probe.counters = probe.sink.snapshot();
    probe.spans.push_back(probe.tracer.records());
    return;
  }
  obs::Aggregator agg;
  agg.load_dir(out.shard_dir);
  agg.add_registry(probe.sink.snapshot());
  probe.counters = agg.merged_registry();
  probe.spans.push_back(probe.tracer.records());
  for (const auto& p : agg.processes()) probe.spans.push_back(p.records);
}

std::string identity_check(Kind k, const Context& ctx, std::uint64_t seed,
                           const std::string& csv) {
  if (k == Kind::PaperCold) return {};
  const std::string cold =
      report::render_csv(core::Study(study_options(seed)).run_suite(ctx.suite));
  if (cold == csv) return {};
  return std::string(k == Kind::RestudyWarm ? "warm-tier" : "merged multi-process") +
         " table of seed " + std::to_string(seed) +
         " differs from a cold in-process study";
}

}  // namespace e2e
