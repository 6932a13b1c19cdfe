#include "compilers/compile_cache.hpp"

#include <string>

#include "ir/fingerprint.hpp"
#include "ir/printer.hpp"

namespace a64fxcc::compilers {

namespace {

using cache::Hasher;
using cache::mix64;

/// Byte estimate of one outcome for the tier's reported `bytes` (the
/// --cache-stats table, cache_compile_bytes, e2ebench's cache.bytes) —
/// a pure function of the value's content, so the report repeats from
/// run to run.  The kernel clone dominates; its printed form `printed`
/// is a stable proxy for the node-tree size.
std::size_t approx_bytes(const CompileOutcome& o, std::string_view printed) {
  std::size_t b = sizeof(CompileOutcome);
  b += o.diagnostic.size() + o.log.size();
  for (const auto& d : o.decisions)
    b += sizeof(d) + d.pass.size() + d.detail.size();
  if (o.kernel.has_value()) b += 256 + 4 * printed.size();
  return b;
}

}  // namespace

std::uint64_t fingerprint(const CompilerSpec& s) {
  Hasher h;
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

std::uint64_t CompileCache::route(const Key& k) noexcept {
  return mix64(k.spec ^ mix64(k.kernel ^ static_cast<std::uint64_t>(k.quirks)));
}

CompileCache::CompileCache()
    : owned_(std::make_unique<Map>("compile")), map_(owned_.get()) {}

CompileCache::CompileCache(cache::Service& svc)
    : map_(&svc.get_or_create<Key, CompileOutcome>("compile")) {}

CompileCache::Result CompileCache::get_or_compile(const CompilerSpec& spec,
                                                  const ir::Kernel& source,
                                                  std::uint64_t source_fp,
                                                  bool apply_quirks) {
  CompileContext ctx;
  ctx.apply_quirks = apply_quirks;
  return get_or_compile(spec, source, source_fp, ctx);
}

CompileCache::Result CompileCache::get_or_compile(const CompilerSpec& spec,
                                                  const ir::Kernel& source,
                                                  std::uint64_t source_fp,
                                                  const CompileContext& ctx) {
  const Key key{fingerprint(spec), source_fp, ctx.apply_quirks};
  const std::uint64_t fp = route(key);
  if (auto found = map_->find(fp, key); found != nullptr)
    return {std::move(found), true};
  // Compile outside any lock: other workers keep making progress, and a
  // rare duplicate compile of the same pure function is harmless.
  CompileOutcome fresh = compile(spec, source, ctx);
  // One print serves both the fingerprint the outcome carries to every
  // later plan-cache lookup and the reported byte estimate.
  std::string printed;
  if (fresh.kernel.has_value()) {
    printed = ir::to_string(*fresh.kernel);
    fresh.kernel_fingerprint = ir::content_fingerprint(*fresh.kernel, printed);
  }
  const std::size_t bytes = approx_bytes(fresh, printed);
  auto published = map_->publish(
      fp, key, std::make_shared<const CompileOutcome>(std::move(fresh)), bytes);
  return {std::move(published.value), published.lost_race};
}

}  // namespace a64fxcc::compilers
