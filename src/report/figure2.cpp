#include "report/figure2.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace a64fxcc::report {

Table make_table(std::vector<std::string> compilers,
                 const std::vector<kernels::Benchmark>& suite,
                 const machine::Machine& m) {
  Table t;
  t.compilers = std::move(compilers);
  t.rows.resize(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    Row& row = t.rows[i];
    row.benchmark = suite[i].name();
    row.suite = suite[i].suite();
    row.language = ir::to_string(suite[i].kernel.meta().language);
    row.cells.resize(t.compilers.size());
    const auto& traits = suite[i].traits;
    const ir::ParallelModel model = suite[i].kernel.meta().parallel;
    row.explores_placements = traits.explore_placements &&
                              !traits.single_core &&
                              model != ir::ParallelModel::Serial;
    row.recommended = runtime::recommended_for(m, model, traits);
  }
  return t;
}

namespace {

std::string fmt_time(double s) {
  char buf[32];
  if (!std::isfinite(s)) return "--";
  if (s >= 100) {
    std::snprintf(buf, sizeof buf, "%.0f", s);
  } else if (s >= 1) {
    std::snprintf(buf, sizeof buf, "%.2f", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof buf, "%.2fm", s * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.2fu", s * 1e6);
  }
  return buf;
}

/// Long-form labels come from the cell taxonomy directly; the paper's
/// Figure-2 cell markers (CE/RE/XX) render via runtime::marker.
std::string status_label(runtime::CellStatus st) {
  return runtime::to_string(st);
}

/// ANSI background color approximating the paper's white->dark-green
/// (gain) and toward red (loss) scale.
std::string ansi_cell(const std::string& text, double gain, bool valid) {
  if (!valid) return "\033[90m" + text + "\033[0m";
  int color = 255;  // white-ish
  if (gain >= 2.0)
    color = 22;  // dark green (bold threshold in the paper)
  else if (gain >= 1.5)
    color = 28;
  else if (gain >= 1.2)
    color = 34;
  else if (gain >= 1.05)
    color = 40;
  else if (gain > 0.95)
    color = 255;
  else if (gain > 0.8)
    color = 178;
  else if (gain > 0.5)
    color = 172;
  else
    color = 160;  // strong regression: red
  std::ostringstream os;
  const bool bold = gain >= 2.0;
  os << "\033[" << (bold ? "1;" : "") << "38;5;" << (color == 255 ? 250 : color)
     << "m" << text << "\033[0m";
  return os.str();
}

}  // namespace

double gain_vs_baseline(const Row& row, std::size_t c) {
  if (row.cells.empty() || c >= row.cells.size()) return 0;
  const auto& base = row.cells[0];
  const auto& cell = row.cells[c];
  if (!base.valid() || !cell.valid()) return 0;
  return base.best_seconds / cell.best_seconds;
}

std::string render_ansi(const Table& t) {
  std::ostringstream os;
  os << "Figure 2: time-to-solution (fastest of 10) and gain over FJtrad\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%-18s %-11s %-4s", "benchmark", "suite", "lang");
  os << buf;
  for (const auto& c : t.compilers) {
    std::snprintf(buf, sizeof buf, " %12s", c.c_str());
    os << buf;
  }
  os << "  placement\n";
  std::string prev_suite;
  for (const auto& row : t.rows) {
    if (row.suite != prev_suite) {
      os << std::string(18 + 1 + 11 + 1 + 4 +
                            13 * t.compilers.size() + 11,
                        '-')
         << "\n";
      prev_suite = row.suite;
    }
    std::snprintf(buf, sizeof buf, "%-18s %-11s %-4s", row.benchmark.c_str(),
                  row.suite.c_str(), row.language.c_str());
    os << buf;
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      const auto& cell = row.cells[c];
      std::string text;
      if (!cell.valid()) {
        text = runtime::marker(cell.status);
      } else {
        text = fmt_time(cell.best_seconds);
      }
      std::snprintf(buf, sizeof buf, "%12s", text.c_str());
      os << " " << ansi_cell(buf, gain_vs_baseline(row, c), cell.valid());
    }
    const auto& best = row.cells[0];
    std::snprintf(buf, sizeof buf, "  %dx%d", best.placement.ranks,
                  best.placement.threads);
    os << buf << "\n";
  }
  return os.str();
}

std::string render_csv(const Table& t) {
  std::ostringstream os;
  os << "benchmark,suite,language";
  for (const auto& c : t.compilers)
    os << "," << c << "_seconds," << c << "_gain," << c << "_ranks," << c
       << "_threads," << c << "_status";
  os << "\n";
  for (const auto& row : t.rows) {
    os << row.benchmark << "," << row.suite << "," << row.language;
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      const auto& cell = row.cells[c];
      os << "," << (cell.valid() ? cell.best_seconds : -1.0) << ","
         << gain_vs_baseline(row, c) << "," << cell.placement.ranks << ","
         << cell.placement.threads << "," << status_label(cell.status);
    }
    os << "\n";
  }
  return os.str();
}

std::string render_markdown(const Table& t) {
  std::ostringstream os;
  os << "| benchmark | suite | lang |";
  for (const auto& c : t.compilers) os << " " << c << " |";
  os << "\n|---|---|---|";
  for (std::size_t c = 0; c < t.compilers.size(); ++c) os << "---|";
  os << "\n";
  for (const auto& row : t.rows) {
    os << "| " << row.benchmark << " | " << row.suite << " | " << row.language
       << " |";
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      const auto& cell = row.cells[c];
      if (!cell.valid()) {
        os << " " << status_label(cell.status) << " |";
      } else {
        os << " " << fmt_time(cell.best_seconds);
        const double g = gain_vs_baseline(row, c);
        if (c > 0) {
          char buf[16];
          std::snprintf(buf, sizeof buf, " (%.2fx)", g);
          os << buf;
        }
        os << " |";
      }
    }
    os << "\n";
  }
  return os.str();
}

std::string render_json(const Table& t) {
  std::ostringstream os;
  const auto escape = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  };
  os << "[\n";
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    const auto& row = t.rows[r];
    os << "  {\"benchmark\": \"" << escape(row.benchmark) << "\", \"suite\": \""
       << escape(row.suite) << "\", \"language\": \"" << escape(row.language)
       << "\", \"results\": {";
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      const auto& cell = row.cells[c];
      os << "\"" << escape(t.compilers[c]) << "\": {";
      if (cell.valid()) {
        os << "\"seconds\": " << cell.best_seconds
           << ", \"median_seconds\": " << cell.median_seconds
           << ", \"cv\": " << cell.cv << ", \"gain\": "
           << gain_vs_baseline(row, c) << ", \"ranks\": " << cell.placement.ranks
           << ", \"threads\": " << cell.placement.threads << ", \"bottleneck\": \""
           << escape(cell.bottleneck) << "\"";
      } else {
        os << "\"error\": \"" << status_label(cell.status) << "\"";
      }
      os << "}" << (c + 1 < row.cells.size() ? ", " : "");
    }
    os << "}}" << (r + 1 < t.rows.size() ? "," : "") << "\n";
  }
  os << "]\n";
  return os.str();
}

std::string render_fig1(const std::vector<Fig1Entry>& entries) {
  std::ostringstream os;
  os << "Figure 1: slowdown of A64FX (FJtrad) vs Xeon (ICC), PolyBench[LARGE]\n";
  os << "  (log scale; '#' per 0.25 decades; 1.0 = parity)\n";
  for (const auto& e : entries) {
    const double sd = e.slowdown();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%-16s %8.2fx ", e.kernel.c_str(), sd);
    os << buf;
    const int bars =
        std::max(0, static_cast<int>(std::lround(std::log10(std::max(sd, 0.01)) * 4)));
    for (int b = 0; b < std::min(bars, 40); ++b) os << '#';
    os << "\n";
  }
  return os.str();
}

}  // namespace a64fxcc::report
