#include "compilers/compile_cache.hpp"

#include "ir/fingerprint.hpp"

namespace a64fxcc::compilers {

namespace {

using cache::Hasher;
using cache::mix64;

// Byte estimate of one outcome for the tier's reported `bytes` (the
// --cache-stats table, cache_compile_bytes, e2ebench's cache.bytes) —
// a pure function of the value's content, so the report repeats from
// run to run.  The kernel clone dominates: its tree is counted at the
// size of each node, expression and subscript, without printing it.

std::size_t expr_bytes(const ir::Expr* e);

std::size_t access_bytes(const ir::Access& a) {
  std::size_t b = 0;
  for (const auto& ix : a.index)
    b += sizeof(ix) +
         ix.affine.terms().size() * sizeof(std::pair<ir::VarId, std::int64_t>) +
         expr_bytes(ix.indirect.get());
  return b;
}

std::size_t expr_bytes(const ir::Expr* e) {
  if (e == nullptr) return 0;
  return sizeof(*e) + access_bytes(e->access) + expr_bytes(e->a.get()) +
         expr_bytes(e->b.get()) + expr_bytes(e->c.get());
}

std::size_t node_bytes(const ir::Node& n) {
  std::size_t b = sizeof(n);
  if (n.is_stmt())
    return b + access_bytes(n.stmt.target) + expr_bytes(n.stmt.value.get());
  for (const auto& c : n.loop.body) b += node_bytes(*c);
  return b;
}

std::size_t approx_bytes(const CompileOutcome& o) {
  std::size_t b = sizeof(CompileOutcome);
  b += o.diagnostic.size() + o.log.size();
  for (const auto& d : o.decisions)
    b += sizeof(d) + d.pass.size() + d.detail.size();
  if (!o.kernel.has_value()) return b;
  b += sizeof(ir::Kernel);
  for (const auto& r : o.kernel->roots()) b += node_bytes(*r);
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
  // The plan key every later plan-cache lookup reads off the outcome.
  if (fresh.kernel.has_value())
    fresh.kernel_fingerprint = ir::annotated_fingerprint(*fresh.kernel);
  const std::size_t bytes = approx_bytes(fresh);
  auto published = map_->publish(
      fp, key, std::make_shared<const CompileOutcome>(std::move(fresh)), bytes);
  return {std::move(published.value), published.lost_race};
}

}  // namespace a64fxcc::compilers
