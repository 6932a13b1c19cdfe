// The durable logs' line codec (exec/jsonio.hpp) and the decoders built
// on it: the resume journal, the lease log, the telemetry shards and the
// status document.  Lines are read back from files other processes may
// have torn mid-write, so every decoder must turn anything short of one
// complete object into "absent", and every double must come back with
// the bits it was written with — in this build's shortest spelling and
// in the %.17g spelling of files written before it.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "distrib/status.hpp"
#include "distrib/work_queue.hpp"
#include "exec/jsonio.hpp"
#include "obs/shard.hpp"

namespace {

using namespace a64fxcc;
namespace jsonio = exec::jsonio;

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// One {"x":<v>} line through the scanner.
std::optional<double> through_line(const std::string& number_text) {
  const std::string line = "{\"x\":" + number_text + "}";
  static constexpr std::string_view kKeys[] = {"x"};
  std::string_view f[1];
  if (!jsonio::pick(line, kKeys, f)) return std::nullopt;
  return jsonio::num(f[0]);
}

std::string shortest(double v) {
  std::string out;
  jsonio::append_num(out, v);
  return out;
}

std::string percent17g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Every class of finite double: signed zeros, subnormals, the normal
/// range's ends, decimal fractions, integers up to 2^53, and values that
/// need all 17 significant digits; then a sweep of bit patterns.
std::vector<double> double_classes() {
  std::vector<double> v = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN / 3,                // mid-range subnormal
      2.2250738585072009e-308,    // largest subnormal
      DBL_MIN,
      -DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      0.1,
      1.0 / 3,
      2.0 / 3,
      0.1 + 0.2,                  // 0.30000000000000004
      std::nextafter(1.0, 2.0),   // 1.0000000000000002
      std::nextafter(1.0, 0.0),   // 0.99999999999999989
      1e22,
      1e23,
      123456.789,
      0.00031936278854858993,
      252.16034831731045,
  };
  for (int e = 0; e <= 53; ++e) {
    const double p = std::ldexp(1.0, e);
    v.push_back(p);
    v.push_back(p - 1);
    v.push_back(-p);
  }
  // splitmix64 over the whole bit space, keeping the finite patterns.
  std::uint64_t s = 0x243F6A8885A308D3ULL;
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    double d = 0;
    std::memcpy(&d, &z, sizeof d);
    if (std::isfinite(d)) v.push_back(d);
  }
  return v;
}

TEST(JsonIo, DoublesRoundTripBitExactly) {
  for (const double v : double_classes()) {
    const std::string text = shortest(v);
    const auto back = through_line(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(bits(*back), bits(v)) << text;
    EXPECT_LE(text.size(), percent17g(v).size()) << text;
  }
  EXPECT_EQ(shortest(0.1), "0.1");
  EXPECT_EQ(shortest(3), "3");
  EXPECT_EQ(shortest(-0.0), "-0");
  // Integers keep the digits %.17g wrote (pids, counts, versions).
  for (const double v : {100000.0, 300000.0, 4194304.0, -1e15, 0x1p53 - 1})
    EXPECT_EQ(shortest(v), percent17g(v));
}

TEST(JsonIo, ReadsTheFormerPercent17gSpellingToTheSameBits) {
  // Journals, shard directories and lease logs written before the
  // shortest spelling keep resuming: their %.17g text reads back to the
  // bits strtod gave and the bits the value was written with.
  for (const double v : double_classes()) {
    const std::string text = percent17g(v);
    const auto back = through_line(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(bits(*back), bits(v)) << text;
    EXPECT_EQ(bits(*back), bits(std::strtod(text.c_str(), nullptr))) << text;
  }
}

// ---- committed lines in the %.17g spelling ---------------------------------

// Written by the codec before this one (%.17g doubles, snprintf keys).
const std::string kJournalOk =
    R"j({"v":3,"key":"fa082f9d2133dbe8","benchmark":"k01","compiler":"FJtrad",)j"
    R"j("status":"ok","best_seconds":0.00031936278854858993,)j"
    R"j("median_seconds":0.00032162664588368479,"cv":0.0037485591471457338,)j"
    R"j("ranks":1,"threads":2,"bottleneck":"mem","gflops":21.013362359775872,)j"
    R"j("mem_gbs":252.16034831731045,"decisions":"interchange-,tile-,)j"
    R"j(vectorize+,fuse-,polly-,unroll+,prefetch+,pipeline+,ocl-"})j";
const std::string kJournalFailed =
    R"j({"v":3,"key":"635cf0c2facfa041","benchmark":"k05","compiler":"GNU",)j"
    R"j("status":"runtime error","diagnostic":"GNU runtime error on micro )j"
    R"j(kernel (Sec. 3.1: 6 of 22)","decisions":"quirk+"})j";
const std::string kLease =
    R"j({"v":1,"op":"lease","key":"fa082f9d2133dbe8","owner":32716,"gen":0,)j"
    R"j("deadline":3522.867064023})j";
const std::string kCell =
    R"j({"v":1,"kind":"cell","key":"04d01353eb15dbcb","benchmark":"k01",)j"
    R"j("compiler":"LLVM","status":"ok","gen":0,"attempt":1,"pid":32716,)j"
    R"j("compile_hits":1,"compile_misses":1,"plan_hits":2,"plan_misses":0,)j"
    R"j("estimate_hits":13,"estimate_misses":0,"analysis_hits":5,)j"
    R"j("analysis_misses":2,"invalidations":0,)j"
    R"j("compile_seconds":2.1231000000000001e-05,)j"
    R"j("explore_seconds":5.3380000000000004e-06,"measure_seconds":5.9891e-05,)j"
    R"j("wall_seconds":0.001436976,"backoffs":[0.0012061416173119973]})j";
const std::string kSpan =
    R"j({"v":1,"kind":"span","pid":32702,"tid":0,"name":"analysis:deps",)j"
    R"j("benchmark":"k01","compiler":"FJtrad","bseq":2,"eseq":3,)j"
    R"j("bus":729.54499999999996,"eus":734.56299999999999})j";

/// `got` has the bits of the literal and of strtod (the former reader)
/// applied to its text.
void expect_bits(double got, double literal, const char* text) {
  EXPECT_EQ(bits(got), bits(literal)) << text;
  EXPECT_EQ(bits(got), bits(std::strtod(text, nullptr))) << text;
}

TEST(JsonIo, CommittedFixtureLinesDecodeToTheirBits) {
  const auto ok = core::Journal::decode(kJournalOk);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->key, 0xfa082f9d2133dbe8ULL);
  EXPECT_EQ(ok->run.benchmark, "k01");
  EXPECT_EQ(ok->run.compiler, "FJtrad");
  EXPECT_EQ(ok->run.status, runtime::CellStatus::Ok);
  expect_bits(ok->run.best_seconds, 0.00031936278854858993,
              "0.00031936278854858993");
  expect_bits(ok->run.median_seconds, 0.00032162664588368479,
              "0.00032162664588368479");
  expect_bits(ok->run.cv, 0.0037485591471457338, "0.0037485591471457338");
  EXPECT_EQ(ok->run.placement.ranks, 1);
  EXPECT_EQ(ok->run.placement.threads, 2);
  EXPECT_EQ(ok->run.bottleneck, "mem");
  expect_bits(ok->run.gflops, 21.013362359775872, "21.013362359775872");
  expect_bits(ok->run.mem_gbs, 252.16034831731045, "252.16034831731045");
  EXPECT_EQ(ok->run.decisions,
            "interchange-,tile-,vectorize+,fuse-,polly-,unroll+,prefetch+,"
            "pipeline+,ocl-");
  // Re-encoding in the shortest spelling decodes to the same entry.
  const auto again = core::Journal::decode(core::Journal::encode(*ok));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(bits(again->run.best_seconds), bits(ok->run.best_seconds));
  EXPECT_EQ(bits(again->run.mem_gbs), bits(ok->run.mem_gbs));

  const auto failed = core::Journal::decode(kJournalFailed);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->key, 0x635cf0c2facfa041ULL);
  EXPECT_EQ(failed->run.status, runtime::CellStatus::RuntimeError);
  EXPECT_EQ(failed->run.diagnostic,
            "GNU runtime error on micro kernel (Sec. 3.1: 6 of 22)");
  EXPECT_EQ(failed->run.decisions, "quirk+");

  const auto lease = distrib::LeaseQueue::decode(kLease);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->op, distrib::LeaseRecord::Op::Lease);
  EXPECT_EQ(lease->key, 0xfa082f9d2133dbe8ULL);
  EXPECT_EQ(lease->owner, 32716);
  EXPECT_EQ(lease->gen, 0);
  expect_bits(lease->deadline, 3522.867064023, "3522.867064023");
  // The lease line's own text is unchanged by the new writer.
  EXPECT_EQ(distrib::LeaseQueue::encode(*lease), kLease);

  const auto cell = obs::decode_cell(kCell);
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->key, 0x04d01353eb15dbcbULL);
  EXPECT_EQ(cell->pid, 32716);
  // Written while cells retried: its attempt 1 past gen 0 and its
  // backoffs are ignored, and the rest decodes to the same bits.
  EXPECT_EQ(cell->gen, 0);
  EXPECT_EQ(cell->metrics.estimate_cache_hits, 13);
  EXPECT_EQ(cell->metrics.analysis_cache_misses, 2);
  expect_bits(cell->metrics.compile_seconds, 2.1231000000000001e-05,
              "2.1231000000000001e-05");
  expect_bits(cell->metrics.explore_seconds, 5.3380000000000004e-06,
              "5.3380000000000004e-06");
  expect_bits(cell->metrics.measure_seconds, 5.9891e-05, "5.9891e-05");
  expect_bits(cell->wall_seconds, 0.001436976, "0.001436976");

  const auto span = obs::decode_span(kSpan);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->pid, 32702);
  EXPECT_EQ(span->record.name, "analysis:deps");
  EXPECT_EQ(span->record.begin_seq, 2u);
  EXPECT_EQ(span->record.end_seq, 3u);
  expect_bits(span->record.begin_us, 729.54499999999996, "729.54499999999996");
  expect_bits(span->record.end_us, 734.56299999999999, "734.56299999999999");
}

TEST(JsonIo, LeaseLinesKeepTheirPrintfText) {
  // The lease writer replaced snprintf's %d and %.9f with to_chars: the
  // same text for every owner, generation and deadline.
  std::vector<double> deadlines = {0,          0.5,         1e-10,
                                   1e-9,       0.0000000015, 3522.867064023,
                                   1e9 + 3098.414349204,      123456.789};
  for (int i = 1; i <= 2000; ++i) deadlines.push_back(i * 4999.987654321 / 7);
  const int owners[] = {0,      -5,     100000,
                        300000, 4194304, std::numeric_limits<int>::max(),
                        std::numeric_limits<int>::min()};
  for (std::size_t i = 0; i < deadlines.size(); ++i) {
    distrib::LeaseRecord rec;
    rec.op = distrib::LeaseRecord::Op::Release;
    rec.key = 0x0123456789abcdefULL;
    rec.owner = owners[i % std::size(owners)];
    rec.gen = static_cast<int>(i);
    rec.deadline = deadlines[i];
    char want[200];
    std::snprintf(want, sizeof want,
                  "{\"v\":1,\"op\":\"release\",\"key\":\"0123456789abcdef\","
                  "\"owner\":%d,\"gen\":%d,\"deadline\":%.9f}",
                  rec.owner, rec.gen, rec.deadline);
    EXPECT_EQ(distrib::LeaseQueue::encode(rec), want);
  }
}

// ---- torn lines ------------------------------------------------------------

core::JournalEntry sample_entry() {
  core::JournalEntry e;
  e.key = 0xDEADBEEFCAFE1234ULL;
  e.run.benchmark = "2mm";
  e.run.compiler = "LLVM+Polly";
  e.run.status = runtime::CellStatus::Ok;
  e.run.best_seconds = 1.0 / 3;
  e.run.median_seconds = 0.1 + 0.2;
  e.run.cv = 0.01;
  e.run.placement.ranks = 4;
  e.run.placement.threads = 12;
  e.run.bottleneck = "mem";
  e.run.gflops = 21.013362359775872;
  e.run.mem_gbs = 252.16034831731045;
  e.run.decisions = "interchange+,tile-,vectorize+,fuse-,polly+";
  return e;
}

obs::CellTelemetry sample_cell() {
  obs::CellTelemetry c;
  c.key = 0x0123456789abcdefULL;
  c.benchmark = "atax";
  c.compiler = "GNU";
  c.status = runtime::CellStatus::Ok;
  c.gen = 1;
  c.pid = 4242;
  c.wall_seconds = 0.25;
  c.metrics.compile_cache_hits = 3;
  c.metrics.plan_cache_misses = 1;
  c.metrics.compile_seconds = 1e-5;
  return c;
}

obs::Tracer::Record sample_span() {
  obs::Tracer::Record r;
  r.name = "compile";
  r.benchmark = "atax";
  r.compiler = "GNU";
  r.tid = 3;
  r.begin_seq = 10;
  r.end_seq = 11;
  r.begin_us = 1.5;
  r.end_us = 2.5;
  return r;
}

distrib::StudyStatus sample_status() {
  distrib::StudyStatus st;
  st.phase = "running";
  st.elapsed_seconds = 12.5;
  st.cells_total = 540;
  st.cells_done = 42;
  st.workers.push_back({0, 1111, "alive", ""});
  st.workers.push_back({1, 2222, "exited", "signal 9"});
  return st;
}

std::string status_line() {
  std::string doc = distrib::encode_status(sample_status());
  while (!doc.empty() && doc.back() == '\n') doc.pop_back();
  return doc;
}

struct LineKind {
  const char* name;
  std::string line;
  std::function<bool(const std::string&)> decodes;
};

std::vector<LineKind> line_kinds() {
  const auto journal = [](const std::string& l) {
    return core::Journal::decode(l).has_value();
  };
  const auto lease = [](const std::string& l) {
    return distrib::LeaseQueue::decode(l).has_value();
  };
  const auto cell = [](const std::string& l) {
    return obs::decode_cell(l).has_value();
  };
  const auto span = [](const std::string& l) {
    return obs::decode_span(l).has_value();
  };
  const auto status = [](const std::string& l) {
    return distrib::decode_status(l).has_value();
  };
  distrib::LeaseRecord rec;
  rec.key = 0x0123456789abcdefULL;
  rec.owner = 77;
  rec.gen = 2;
  rec.deadline = 1234.5;
  return {
      {"journal", core::Journal::encode(sample_entry()), journal},
      {"journal fixture", kJournalOk, journal},
      {"failed journal fixture", kJournalFailed, journal},
      {"lease", distrib::LeaseQueue::encode(rec), lease},
      {"lease fixture", kLease, lease},
      {"cell", obs::encode_cell(sample_cell()), cell},
      {"cell fixture", kCell, cell},
      {"span", obs::encode_span(sample_span(), 99), span},
      {"span fixture", kSpan, span},
      {"status", status_line(), status},
  };
}

TEST(JsonIo, EveryPrefixOfEveryLineKindDecodesToNothing) {
  for (const LineKind& k : line_kinds()) {
    ASSERT_TRUE(k.decodes(k.line)) << k.name;
    for (std::size_t n = 0; n < k.line.size(); ++n)
      EXPECT_FALSE(k.decodes(k.line.substr(0, n)))
          << k.name << " prefix of " << n << " bytes";
  }
}

// ---- field lookup ----------------------------------------------------------

TEST(JsonIo, EscapedKeyLookalikeInsideAStringDoesNotShadowTheRealField) {
  core::JournalEntry e = sample_entry();
  e.run.decisions = "a\",\"bottleneck\":\"x";  // decisions: a","bottleneck":"x
  const std::string line = core::Journal::encode(e);
  const auto back = core::Journal::decode(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->run.bottleneck, "mem");
  EXPECT_EQ(back->run.decisions, e.run.decisions);
  // Also when the string comes first, and when a nested object carries a
  // field of the same name.
  std::string moved = line;
  const std::size_t at = moved.find(",\"decisions\":");
  const std::string decisions = moved.substr(at, moved.size() - 1 - at);
  moved.erase(at, decisions.size());
  moved.insert(moved.find(",\"best_seconds\""),
               decisions + ",\"extra\":{\"bottleneck\":\"nested\"}");
  ASSERT_NE(moved, line);
  const auto reordered = core::Journal::decode(moved);
  ASSERT_TRUE(reordered.has_value()) << moved;
  EXPECT_EQ(reordered->run.bottleneck, "mem");
  EXPECT_EQ(reordered->run.decisions, e.run.decisions);
}

TEST(JsonIo, UnknownFieldsAreIgnoredAndTheFirstDuplicateWins) {
  // Unknown scalars, strings, and nested values whose strings hold
  // brackets: each decoder skips them whole.
  const std::string extra =
      R"("zz":1,"yy":"s]}","arr":[1,"[",{"a":"]}"}],"obj":{"k":[]},)";
  for (const LineKind& k : line_kinds()) {
    std::string line = k.line;
    line.insert(1, extra);
    EXPECT_TRUE(k.decodes(line)) << k.name << ": " << line;
  }
  const auto e = core::Journal::decode(kJournalOk.substr(0, 1) +
                                       R"("benchmark":"first",)" +
                                       kJournalOk.substr(1));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->run.benchmark, "first");
}

TEST(JsonIo, NestedValuesComeBackWholeForASecondScan) {
  const std::string doc =
      " {\"a\" : [ 1 , \"x]\" , {\"b\":\"[\"} ] ,\"c\":{\"d\":\"}\"}}\n";
  std::vector<std::string> keys;
  std::vector<std::string> values;
  ASSERT_TRUE(jsonio::for_each_field(
      doc, [&](std::string_view k, std::string_view v) {
        keys.emplace_back(k);
        values.emplace_back(v);
      }));
  ASSERT_EQ(keys, (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(values[0], "[ 1 , \"x]\" , {\"b\":\"[\"} ]");
  EXPECT_EQ(values[1], "{\"d\":\"}\"}");
  std::vector<std::string> elements;
  ASSERT_TRUE(jsonio::for_each_element(values[0], [&](std::string_view v) {
    elements.emplace_back(v);
  }));
  EXPECT_EQ(elements,
            (std::vector<std::string>{"1", "\"x]\"", "{\"b\":\"[\"}"}));
  std::string text;
  ASSERT_TRUE(jsonio::str(elements[1], text));
  EXPECT_EQ(text, "x]");
  // Not one complete object: trailing bytes, two objects, or a torn tail.
  for (const char* bad : {"{\"a\":1} x", "{\"a\":1}{\"b\":2}", "{\"a\":[1,2}",
                          "{\"a\":\"x}", "{\"a\":}", "{\"a\" 1}", "{,}", "[1]",
                          "{\"a\":1,}"})
    EXPECT_FALSE(jsonio::for_each_field(bad, [](auto, auto) {})) << bad;
  EXPECT_TRUE(jsonio::for_each_field("{}", [](auto, auto) {}));
}

}  // namespace
