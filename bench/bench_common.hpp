#pragma once
// Shared scaffolding for the figure/table reproduction binaries.
//
// Every bench prints (a) the reproduced artefact and (b) a
// "paper-vs-measured" block for the Section-3 claims it covers, which
// EXPERIMENTS.md mirrors.  Pass --scale=<f> to shrink problem sizes
// (default 1.0 = paper sizes), --csv to additionally dump CSV.

#include <cstdio>
#include <cstring>
#include <string>

#include "core/study.hpp"

namespace benchutil {

struct Args {
  double scale = 1.0;
  bool csv = false;
};

inline Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) a.scale = std::atof(argv[i] + 8);
    if (std::strcmp(argv[i], "--csv") == 0) a.csv = true;
  }
  return a;
}

inline void claim(const char* id, const char* paper, double measured,
                  const char* unit = "x") {
  std::printf("  %-34s paper: %-12s measured: %.3g%s\n", id, paper, measured,
              unit);
}

inline void print_summary(const a64fxcc::core::Summary& s,
                          const std::vector<std::string>& compilers) {
  std::printf("\nSuite summary (%d benchmarks):\n", s.benchmarks);
  std::printf("  best-compiler gain over FJtrad: mean %.3fx (quirk cells included), "
              "median %.3fx, peak %.3fx\n",
              s.mean_best_gain, s.median_best_gain, s.max_best_gain);
  std::printf("  FJtrad already (near-)optimal on %d benchmarks\n", s.fjtrad_wins);
  std::printf("  wins per compiler:");
  for (std::size_t c = 0; c < compilers.size(); ++c)
    std::printf(" %s=%d", compilers[c].c_str(), s.wins_per_compiler[c]);
  std::printf("\n  non-recommended placement chosen (exploration-eligible): %d\n",
              s.nonrecommended_placements);
}

}  // namespace benchutil
