#include "compilers/compiler_model.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/access.hpp"
#include "cache/fingerprint.hpp"

namespace a64fxcc::compilers {

namespace {

using ir::Kernel;
using ir::Language;

/// Integer-work share of a kernel: used to blend fp/int codegen quality.
/// Queries the pipeline's Manager — after a pipeline whose last passes
/// are annotation-only (the common case), the stats are already cached.
double int_share(analysis::Manager& am) {
  const Kernel& k = am.kernel();
  double fp = 0, in = 0;
  for (const auto& st : am.stmt_stats()) {
    fp += (st.ops.flops + st.ops.divs + st.ops.specials) * st.iters;
    in += st.ops.int_ops * st.iters;
  }
  // Tensor types weigh in too: integer tensors indicate integer kernels.
  double int_bytes = 0, all_bytes = 0;
  for (const auto& t : k.tensors()) {
    const double b = static_cast<double>(k.tensor_elems(t.id)) *
                     static_cast<double>(size_of(t.type));
    all_bytes += b;
    if (is_integer(t.type)) int_bytes += b;
  }
  const double op_share = (fp + in) > 0 ? in / (fp + in) : 0.0;
  const double ty_share = all_bytes > 0 ? int_bytes / all_bytes : 0.0;
  return std::min(1.0, 0.5 * op_share + 0.5 * ty_share);
}

double language_factor(const CompilerSpec& s, Language l) {
  switch (l) {
    case Language::Fortran: return s.fortran_factor;
    case Language::C: return s.c_factor;
    case Language::Cpp: return s.cpp_factor;
  }
  return 1.0;
}

void run_pipeline(const CompilerSpec& s, analysis::Manager& am,
                  CompileOutcome& out) {
  Kernel& k = am.kernel();
  std::string& log = out.log;
  auto& decisions = out.decisions;
  const auto take = [&](const passes::PassResult& r) {
    for (const auto& d : r.decisions) decisions.push_back(d);
    // Passes self-invalidate right after mutating; this second call is a
    // belt-and-braces no-op then (same fingerprint), and the enforcement
    // point for any future pass that forgets.
    am.invalidate(r.preserved);
  };
  const auto skipped = [&](const char* pass, const std::string& why) {
    decisions.push_back({pass, false, why});
  };
  const std::string not_enabled = "pass not enabled in the " + s.name +
                                  " pipeline";

  if (s.distribute && !s.use_polly) {
    const auto r = passes::distribute_loops(am);
    log += r.log + "\n";
    take(r);
  }
  if (s.use_polly) {
    const auto r = passes::polly(am, {.tile_size = s.polly_tile, .vec = s.vec});
    log += r.log + "\n";
    take(r);
  } else if (s.interchange) {
    const auto r =
        passes::interchange_for_locality(am, s.interchange_aggressive);
    log += r.log + "\n";
    take(r);
  } else {
    skipped("interchange", not_enabled);
  }
  if (!s.use_polly) skipped("tile", not_enabled);
  if (s.fuse) {
    const auto r = passes::fuse_loops(am);
    log += r.log + "\n";
    take(r);
  } else {
    skipped("fuse", not_enabled);
  }
  const bool vec_ok =
      s.do_vectorize && s.vec_efficiency_for(k.meta().language) > 0.0;
  if (!vec_ok && s.do_vectorize) {
    log += "vectorizer does not fire on this front end/language\n";
    skipped("vectorize", "vectorizer does not fire on this front end/language");
  } else if (!s.do_vectorize) {
    skipped("vectorize", not_enabled);
  }
  if (vec_ok && !s.use_polly) {
    const auto r = passes::vectorize(am, s.vec);
    log += r.log + "\n";
    take(r);
  }
  if (!s.use_polly) skipped("polly", not_enabled);
  if (s.unroll > 1) {
    const auto r = passes::unroll(am, s.unroll);
    log += r.log + "\n";
    take(r);
  }
  if (s.prefetch_dist > 0) {
    const auto r = passes::prefetch(am, s.prefetch_dist);
    log += r.log + "\n";
    take(r);
  }
  if (s.pipeline) {
    const auto r = passes::software_pipeline(am);
    log += r.log + "\n";
    take(r);
  }
  if (s.honor_ocl) {
    int applied = 0;
    for (auto& root : k.roots()) {
      ir::for_each_loop(*root, [&](ir::Loop& l) {
        if (l.annot.ocl_unroll > 0) { l.annot.unroll = l.annot.ocl_unroll; ++applied; }
        if (l.annot.ocl_prefetch > 0) {
          l.annot.prefetch_dist = l.annot.ocl_prefetch;
          ++applied;
        }
        if (l.annot.ocl_simd) {
          // The programmer asserts vectorization safety: apply directly.
          l.annot.vector_width = s.vec.width;
          ++applied;
        }
      });
    }
    if (applied > 0)
      log += "applied " + std::to_string(applied) + " OCL hint(s)\n";
    decisions.push_back({"ocl", applied > 0,
                         applied > 0 ? "applied " + std::to_string(applied) +
                                           " OCL hint(s)"
                                     : "no OCL hints in source"});
  }
}

}  // namespace

std::string to_string(CompilerId id) {
  switch (id) {
    case CompilerId::FJtrad: return "FJtrad";
    case CompilerId::FJclang: return "FJclang";
    case CompilerId::LLVM: return "LLVM";
    case CompilerId::LLVMPolly: return "LLVM+Polly";
    case CompilerId::GNU: return "GNU";
    case CompilerId::ICC: return "ICC";
  }
  return "?";
}

std::uint64_t fingerprint(const CompilerSpec& s) {
  cache::Hasher h;
  h.add(static_cast<std::uint64_t>(s.id));
  h.add(s.name);
  h.add(s.flags);
  h.add(s.distribute);
  h.add(s.interchange);
  h.add(s.interchange_aggressive);
  h.add(s.use_polly);
  h.add(s.fuse);
  h.add(s.unroll);
  h.add(s.prefetch_dist);
  h.add(s.pipeline);
  h.add(s.do_vectorize);
  h.add(s.vec.width);
  h.add(s.vec.allow_reductions);
  h.add(s.vec.allow_gather);
  h.add(s.vec.allow_scatter);
  h.add(s.vec.allow_strided);
  h.add(static_cast<std::uint64_t>(s.polly_tile));
  h.add(s.fp_core_factor);
  h.add(s.int_core_factor);
  h.add(s.fortran_factor);
  h.add(s.c_factor);
  h.add(s.cpp_factor);
  h.add(s.vec_efficiency);
  h.add(s.c_vec_efficiency);
  h.add(s.cpp_vec_efficiency);
  h.add(s.omp_barrier_factor);
  h.add(s.fortran_via_frt);
  h.add(s.honor_ocl);
  return h.h;
}

CompileOutcome compile(const CompilerSpec& spec, const Kernel& source,
                       bool apply_quirks) {
  CompileContext ctx;
  ctx.apply_quirks = apply_quirks;
  return compile(spec, source, ctx);
}

CompileOutcome compile(const CompilerSpec& spec, const Kernel& source,
                       const CompileContext& ctx) {
  CompileOutcome out;
  out.log = spec.name + " (" + spec.flags + ")\n";

  // Paper-documented bugs first: they pre-empt everything.
  if (const Quirk* q =
          ctx.apply_quirks ? find_quirk(spec.id, source.name()) : nullptr) {
    if (q->effect != CompileOutcome::Status::Ok) {
      out.status = q->effect;
      out.diagnostic = q->reason;
      out.log += "quirk: " + q->reason + "\n";
      out.decisions.push_back({"quirk", true, q->reason});
      return out;
    }
    out.time_multiplier = q->time_multiplier;
    out.log += "quirk multiplier " + std::to_string(q->time_multiplier) +
               ": " + q->reason + "\n";
    out.decisions.push_back({"quirk", true, q->reason});
  }

  // Fortran-through-frt routing (the paper's LLVM environments).
  const CompilerSpec* effective = &spec;
  CompilerSpec frt_spec;
  if (spec.fortran_via_frt && source.meta().language == Language::Fortran) {
    frt_spec = fjtrad();
    // Keep LTO's small cross-module benefit from the host link step.
    frt_spec.fp_core_factor *= 0.99;
    effective = &frt_spec;
    out.log += "Fortran routed through frt (FJtrad pipeline)\n";
  }

  Kernel k = source.clone();
  // One Manager for the whole pipeline: the clone's node pointers are
  // private to this compile, so cached graphs can be handed from pass to
  // pass until a fired transform invalidates them.
  analysis::Manager am(k, {.tracer = ctx.tracer,
                           .benchmark = source.name(),
                           .compiler = effective->name});
  run_pipeline(*effective, am, out);

  const double s_int = int_share(am);
  out.analysis_cache = am.counters();
  const double blended = std::pow(effective->fp_core_factor, 1.0 - s_int) *
                         std::pow(effective->int_core_factor, s_int);
  out.profile.core_factor =
      blended * language_factor(*effective, source.meta().language);
  out.profile.vec_efficiency =
      effective->vec_efficiency_for(source.meta().language);
  out.profile.barrier_factor = effective->omp_barrier_factor;
  out.kernel = std::move(k);
  return out;
}

const passes::Decision* find_decision(
    const std::vector<passes::Decision>& ds, const std::string& pass) {
  for (const auto& d : ds)
    if (d.pass == pass) return &d;
  return nullptr;
}

std::string decision_summary(const std::vector<passes::Decision>& ds) {
  static const char* kCanonical[] = {"interchange", "tile", "vectorize",
                                     "fuse", "polly"};
  std::string out;
  const auto append = [&](const std::string& pass, bool fired) {
    if (!out.empty()) out += ',';
    out += pass;
    out += fired ? '+' : '-';
  };
  // A pass counts as fired if *any* of its records fired (polly may tile
  // several nests; one success is enough for the summary).
  const auto fired_any = [&](const std::string& pass) {
    for (const auto& d : ds)
      if (d.pass == pass && d.fired) return true;
    return false;
  };
  for (const char* pass : kCanonical)
    if (find_decision(ds, pass) != nullptr) append(pass, fired_any(pass));
  // Extras (unroll, prefetch, pipeline, ocl, quirk, ...) in first-
  // appearance order, each once.
  std::vector<std::string> seen;
  for (const auto& d : ds) {
    bool canonical = false;
    for (const char* pass : kCanonical)
      if (d.pass == pass) canonical = true;
    if (canonical) continue;
    if (std::find(seen.begin(), seen.end(), d.pass) != seen.end()) continue;
    seen.push_back(d.pass);
    append(d.pass, fired_any(d.pass));
  }
  return out;
}

CompilerSpec fjtrad() {
  CompilerSpec s;
  s.id = CompilerId::FJtrad;
  s.name = "FJtrad";
  s.flags = "fcc/frt -Kfast,ocl,largepage,lto";
  s.honor_ocl = true;
  // Co-design heritage: software pipelining, aggressive prefetch, solid
  // SVE codegen, tuned OpenMP runtime.  No loop interchange on C nests
  // (Sec. 2: "Fujitsu's fcc compiler failed to do so").
  s.interchange = false;
  s.fuse = false;
  s.unroll = 4;
  s.prefetch_dist = 32;
  s.pipeline = true;
  s.vec = {.width = 8,
           .allow_reductions = true,  // -Kfast implies fast FP model
           .allow_gather = true,
           .allow_scatter = false,
           .allow_strided = true};
  // The trad-mode C/C++ path is the study's central finding: its SVE
  // vectorizer is co-designed for Fortran, fires only weakly on plain C
  // (PolyBench, ECP and SPEC C codes all ran far better under the
  // clang-based compilers), and gives up entirely on template-heavy C++.
  s.c_vec_efficiency = 0.08;
  s.cpp_vec_efficiency = 0.0;
  s.fp_core_factor = 1.0;
  s.int_core_factor = 1.90;  // paper Sec 3.3: FJ loses integer codes to GNU
  s.fortran_factor = 0.95;   // the co-designed path
  s.c_factor = 1.25;
  s.cpp_factor = 1.40;       // trad mode's C++ support is the weakest spot
  s.vec_efficiency = 1.0;
  s.omp_barrier_factor = 0.8;
  return s;
}

CompilerSpec fjclang() {
  CompilerSpec s;
  s.id = CompilerId::FJclang;
  s.name = "FJclang";
  s.flags = "fcc -Nclang -Kfast (LLVM 7 base)";
  s.interchange = false;  // LLVM 7 had no interchange
  s.unroll = 4;
  s.prefetch_dist = 8;
  s.pipeline = false;
  s.vec = {.width = 8,
           .allow_reductions = true,
           .allow_gather = true,
           .allow_scatter = false,
           .allow_strided = true};
  s.fp_core_factor = 1.08;
  s.int_core_factor = 1.18;
  s.fortran_factor = 1.0;  // falls back to frt anyway
  s.c_factor = 1.0;
  s.cpp_factor = 1.0;  // clang front end: good C++
  s.vec_efficiency = 0.9;
  s.omp_barrier_factor = 0.8;  // Fujitsu runtime
  s.fortran_via_frt = true;
  return s;
}

CompilerSpec llvm12() {
  CompilerSpec s;
  s.id = CompilerId::LLVM;
  s.name = "LLVM";
  s.flags = "clang-12 -Ofast -ffast-math -flto=thin";
  s.distribute = true;  // -Ofast pipeline distributes to enable interchange
  s.interchange = true;  // -Ofast pipeline catches the profitable cases
  s.interchange_aggressive = false;
  s.unroll = 8;
  s.prefetch_dist = 0;
  s.vec = {.width = 8,
           .allow_reductions = true,  // -ffast-math
           .allow_gather = true,
           .allow_scatter = false,
           .allow_strided = true};
  s.fp_core_factor = 1.05;
  s.int_core_factor = 1.10;
  s.fortran_factor = 1.0;
  s.c_factor = 0.98;
  s.cpp_factor = 0.98;
  s.vec_efficiency = 0.95;
  s.omp_barrier_factor = 1.2;  // LLVM OpenMP runtime, untuned for A64FX
  s.fortran_via_frt = true;
  return s;
}

CompilerSpec llvm_polly() {
  CompilerSpec s = llvm12();
  s.id = CompilerId::LLVMPolly;
  s.name = "LLVM+Polly";
  s.flags = "clang-12 -Ofast -mllvm -polly -mllvm -polly-vectorizer=polly -flto";
  s.use_polly = true;
  s.polly_tile = 32;
  return s;
}

CompilerSpec gnu() {
  CompilerSpec s;
  s.id = CompilerId::GNU;
  s.name = "GNU";
  s.flags = "gcc-10.2 -O3 -march=native -flto";
  s.distribute = true;   // -ftree-loop-distribution is in -O3 since GCC 8
  s.interchange = true;  // -floop-interchange is in -O3 since GCC 8
  s.interchange_aggressive = false;
  s.unroll = 2;          // -O3 without -funroll-loops
  s.prefetch_dist = 0;   // -fprefetch-loop-arrays not enabled
  s.vec = {.width = 8,
           .allow_reductions = false,  // no -ffast-math in the paper's flags!
           .allow_gather = false,      // GCC 10 SVE gather: not profitable
           .allow_scatter = false,
           .allow_strided = false};    // GCC 10 refuses strided SVE accesses
  s.fp_core_factor = 1.22;  // young SVE scheduling model
  s.int_core_factor = 0.95; // embedded heritage: best integer codegen
  s.fortran_factor = 1.05;
  s.c_factor = 1.0;
  s.cpp_factor = 1.0;
  s.vec_efficiency = 0.7;
  s.omp_barrier_factor = 2.5;  // libgomp
  return s;
}

CompilerSpec icc() {
  CompilerSpec s;
  s.id = CompilerId::ICC;
  s.name = "ICC";
  s.flags = "icc -O3 -xHost (default fast FP model)";
  s.distribute = true;
  s.interchange = true;
  s.interchange_aggressive = true;  // icc reordered 2mm's nest (Sec. 2)
  s.unroll = 8;
  s.prefetch_dist = 16;
  s.vec = {.width = 8,
           .allow_reductions = true,
           .allow_gather = true,
           .allow_scatter = true,
           .allow_strided = true};
  s.fp_core_factor = 1.0;
  s.int_core_factor = 1.0;
  s.vec_efficiency = 1.0;
  s.omp_barrier_factor = 0.9;
  return s;
}

std::vector<CompilerSpec> paper_compilers() {
  return {fjtrad(), fjclang(), llvm12(), llvm_polly(), gnu()};
}

}  // namespace a64fxcc::compilers
