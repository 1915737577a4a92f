#include "sim/cache.h"

#include <bit>
#include <string>

namespace fsopt {

void MissStats::merge(const MissStats& other) {
  refs += other.refs;
  hits += other.hits;
  cold += other.cold;
  replacement += other.replacement;
  true_sharing += other.true_sharing;
  false_sharing += other.false_sharing;
  upgrades += other.upgrades;
  invalidations += other.invalidations;
}

std::map<std::string, MissStats> materialize_by_datum(
    const AddressMap& map, const std::vector<MissStats>& dense) {
  static const std::string kOther = "<other>";
  std::map<std::string, MissStats> out;
  for (size_t i = 0; i < dense.size(); ++i) {
    if (dense[i].refs == 0) continue;
    const std::string& name =
        i < map.ranges().size() ? map.name_of(static_cast<int>(i)) : kOther;
    out[name].merge(dense[i]);
  }
  return out;
}

namespace {

/// `p`, once it describes a cache: checked before any member that divides
/// by the block size or the set count is initialized.
const CacheParams& validated(const CacheParams& p) {
  FSOPT_CHECK(p.block_size >= 4,
              "block size " + std::to_string(p.block_size) +
                  " B is below the 4-byte word");
  FSOPT_CHECK(p.associativity >= 1, "associativity must be >= 1");
  FSOPT_CHECK(p.cache_bytes / p.associativity >= p.block_size,
              "cache of " + std::to_string(p.cache_bytes) +
                  " B cannot hold one set of " +
                  std::to_string(p.associativity) + " x " +
                  std::to_string(p.block_size) + " B blocks");
  FSOPT_CHECK(p.nprocs >= 1 && p.nprocs <= 64, "1..64 processors");
  return p;
}

}  // namespace

CoherentCache::CoherentCache(const CacheParams& p)
    : params_(validated(p)),
      sets_(p.cache_bytes / p.block_size / p.associativity),
      block_shift_(pow2_shift(p.block_size)),
      set_mask_(is_pow2(sets_) ? sets_ - 1 : -1),
      blocks_total_(
          (std::max(p.total_bytes, p.block_size) + p.block_size - 1) /
          p.block_size),
      total_span_(blocks_total_ * p.block_size),
      classifier_(p.nprocs, p.block_size, p.total_bytes) {
  FSOPT_CHECK(blocks_total_ < (i64{1} << 31),
              "address space too large: block numbers must fit 32 bits"
              " (lines_ holds i32 block numbers)");
  const size_t ways = static_cast<size_t>(p.nprocs * sets_ * p.associativity);
  lines_.assign(ways, -1);
  if (p.associativity > 1) lru_.assign(ways, 0);
  dir_.assign(static_cast<size_t>(blocks_total_), DirEntry{});
  if (p.word_invalidate) classifier_.enable_word_tracking();
}

}  // namespace fsopt
