#include "sim/classify.h"

namespace fsopt {

const char* miss_kind_name(MissKind k) {
  switch (k) {
    case MissKind::kHit: return "hit";
    case MissKind::kCold: return "cold";
    case MissKind::kReplacement: return "replacement";
    case MissKind::kTrueSharing: return "true-sharing";
    case MissKind::kFalseSharing: return "false-sharing";
  }
  return "?";
}

MissClassifier::MissClassifier(i64 nprocs, i64 block_size, i64 total_bytes)
    : nprocs_(nprocs),
      block_size_(block_size),
      block_shift_(pow2_shift(block_size)),
      blocks_total_((std::max(total_bytes, block_size) + block_size - 1) /
                    block_size),
      words_per_block_(block_size / 4) {
  FSOPT_CHECK(block_size_ >= 4 && block_size_ % 4 == 0,
              "block size must be a multiple of the 4-byte word");
  FSOPT_CHECK(nprocs_ >= 1 && nprocs_ <= 64, "1..64 processors");
  // All state is sized up front: replay does zero steady-state allocation.
  size_t words = static_cast<size_t>(blocks_total_ * words_per_block_);
  word_state_.assign(words, kWriterMask);  // version 0, no writer yet
  block_ver_.assign(static_cast<size_t>(blocks_total_), 0);
  snapshot_.assign(static_cast<size_t>(nprocs_ * blocks_total_), 0);
}

i64 MissClassifier::checked_block(i64 addr, i64 size) const {
  i64 block = block_of(addr);
  FSOPT_CHECK(addr >= 0 && size > 0 && block < blocks_total_ &&
                  block_of(addr + size - 1) == block,
              "classifier reference outside the simulated address space or"
              " spanning blocks (is total_bytes too small?)");
  return block;
}

MissKind MissClassifier::classify_miss(int proc, i64 addr, i64 size) const {
  i64 b = checked_block(addr, size);
  i64 base = b * block_size_;
  return classify_miss_at(proc, b, (addr - base) / 4,
                          (addr + size - 1 - base) / 4);
}

void MissClassifier::note_access(int proc, i64 addr, i64 size,
                                 bool is_write) {
  i64 b = checked_block(addr, size);
  i64 base = b * block_size_;
  note_access_at(proc, b, (addr - base) / 4, (addr + size - 1 - base) / 4,
                 is_write);
}

void MissClassifier::enable_word_tracking() {
  if (word_tracking_) return;
  word_tracking_ = true;
  word_seen_.assign(static_cast<size_t>(nprocs_) *
                        static_cast<size_t>(blocks_total_ * words_per_block_),
                    0);
}

}  // namespace fsopt
