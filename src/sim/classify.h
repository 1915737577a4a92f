// Word-granularity miss classification.
//
// We follow the Torrellas/Dubois-style at-miss-time test (§4): on a
// coherence miss by processor p, if the specific word(s) p references now
// were written by another processor since p last accessed the block, the
// miss is a *true sharing* miss (real communication); otherwise it is a
// *false sharing* miss (only the block, not the data, was shared).  A miss
// on a block p never touched is a cold miss; a re-miss with no intervening
// remote write is a replacement (capacity/conflict) miss.
//
// All classifier state is dense and per-block: word versions/writers and
// per-processor block snapshots live in flat arrays indexed by block
// number, sized once from `total_bytes` (no steady-state allocation, no
// hashing on the replay hot path).
#pragma once

#include <vector>

#include "support/common.h"

namespace fsopt {

enum class MissKind : u8 {
  kHit,
  kCold,
  kReplacement,
  kTrueSharing,
  kFalseSharing,
};

const char* miss_kind_name(MissKind k);

class MissClassifier {
 public:
  /// `total_bytes` bounds the simulated address space; `block_size` is the
  /// coherence unit (a multiple of the 4-byte word); `nprocs` the number
  /// of processors.
  MissClassifier(i64 nprocs, i64 block_size, i64 total_bytes);

  /// Classify a miss by `proc` on [addr, addr+size).  Must be called
  /// *before* note_access for the same reference.  The range must lie
  /// within one block (CoherentCache splits spanning references).
  MissKind classify_miss(int proc, i64 addr, i64 size) const;

  /// Record that `proc` accessed [addr, addr+size) (hit or miss); updates
  /// the per-word write versions when `is_write`.
  void note_access(int proc, i64 addr, i64 size, bool is_write);

  /// Per-word visibility tracking, used by the word-invalidate hardware
  /// ablation (valid bits per word rather than per block).
  void enable_word_tracking();
  /// True when every word of [addr, addr+size) is still valid for `proc`
  /// (not remotely written since `proc` last saw it).
  bool words_valid(int proc, i64 addr, i64 size) const;

  i64 block_of(i64 addr) const {
    return block_shift_ >= 0 ? addr >> block_shift_ : addr / block_size_;
  }

  // Pre-validated fast paths, used by CoherentCache on the replay hot
  // loop: the cache has already bounds-checked the reference and holds
  // the block index plus the referenced word-offset range [w0, w1]
  // within the block, so re-deriving and re-checking them here (divisions
  // included) would double the work.
  // All other callers should use the validating addr-based methods above.

  MissKind classify_miss_at(int proc, i64 block, i64 w0,
                            i64 w1) const {
    u64 s = snapshot_[static_cast<size_t>(block * nprocs_ + proc)];
    if (s == 0) return MissKind::kCold;
    // block_ver_ holds the newest write version anywhere in the block, so
    // one load settles the common replacement-miss case (no intervening
    // write at all) without scanning the per-word array.
    if (block_ver_[static_cast<size_t>(block)] <= s)
      return MissKind::kReplacement;
    size_t wbase = static_cast<size_t>(block * words_per_block_);
    const u64* ws = word_state_.data() + wbase;
    // Packed word state: v >= (s+1) << kWriterBits ⟺ version(v) > s.
    u64 newer = (s + 1) << kWriterBits;
    u64 p = static_cast<u64>(proc);
    bool any_remote = false;
    if ((words_per_block_ & 7) == 0) {
      // Blocks of >= 8 words: scan branchlessly in groups of eight so the
      // compiler can vectorise the compares; only the per-group exit
      // branches.  The scan is the per-miss cost that grows with block
      // size, so this is what keeps large-block replay fast.
      for (i64 g = 0; g < words_per_block_ && !any_remote; g += 8) {
        u64 acc = 0;
        for (int j = 0; j < 8; ++j) {
          u64 v = ws[g + j];
          acc |= static_cast<u64>(v >= newer && (v & kWriterMask) != p);
        }
        any_remote = acc != 0;
      }
    } else {
      for (i64 w = 0; w < words_per_block_; ++w) {
        u64 v = ws[w];
        if (v >= newer && (v & kWriterMask) != p) {
          any_remote = true;
          break;
        }
      }
    }
    if (!any_remote) return MissKind::kReplacement;
    for (i64 w = w0; w <= w1; ++w) {
      u64 v = ws[w];
      if (v >= newer && (v & kWriterMask) != p)
        return MissKind::kTrueSharing;
    }
    return MissKind::kFalseSharing;
  }

  void note_access_at(int proc, i64 block, i64 w0, i64 w1,
                      bool is_write) {
    ++counter_;
    snapshot_[static_cast<size_t>(block * nprocs_ + proc)] =
        counter_;
    if (!is_write && !word_tracking_) return;
    if (is_write) block_ver_[static_cast<size_t>(block)] = counter_;
    size_t wbase = static_cast<size_t>(block * words_per_block_);
    u64 packed = (counter_ << kWriterBits) | static_cast<u64>(proc);
    for (i64 w = w0; w <= w1; ++w) {
      if (is_write) word_state_[wbase + static_cast<size_t>(w)] = packed;
      if (word_tracking_)
        word_seen_[static_cast<size_t>(proc) *
                       static_cast<size_t>(blocks_total_ *
                                           words_per_block_) +
                   wbase + static_cast<size_t>(w)] = counter_;
    }
  }

  /// Enumerate the foreign-newer words that made a miss false sharing:
  /// for a miss by `proc` on words [w0, w1] of `block` already
  /// classified kFalseSharing, calls fn(word_offset, writer_proc) for
  /// every word outside [w0, w1] written by another processor since
  /// `proc`'s snapshot.  Only called on false-sharing misses, so the scan
  /// cost is bounded by fs_misses * words_per_block.
  template <typename Fn>
  void collect_conflicts_at(int proc, i64 block, i64 w0, i64 w1,
                            Fn&& fn) const {
    u64 s = snapshot_[static_cast<size_t>(block * nprocs_ + proc)];
    const u64* ws =
        word_state_.data() + static_cast<size_t>(block * words_per_block_);
    u64 newer = (s + 1) << kWriterBits;
    u64 p = static_cast<u64>(proc);
    for (i64 w = 0; w < words_per_block_; ++w) {
      if (w >= w0 && w <= w1) continue;
      u64 v = ws[w];
      if (v >= newer && (v & kWriterMask) != p)
        fn(w, static_cast<int>(v & kWriterMask));
    }
  }

  bool words_valid_at(int proc, i64 block, i64 w0, i64 w1) const {
    size_t wbase = static_cast<size_t>(block * words_per_block_);
    const u64* seen = word_seen_.data() +
                      static_cast<size_t>(proc) *
                          static_cast<size_t>(blocks_total_ *
                                              words_per_block_);
    u64 p = static_cast<u64>(proc);
    for (i64 w = w0; w <= w1; ++w) {
      size_t idx = wbase + static_cast<size_t>(w);
      u64 v = word_state_[idx];
      if ((v >> kWriterBits) > seen[idx] && (v & kWriterMask) != p)
        return false;
    }
    return true;
  }

 private:
  /// Validates that [addr, addr+size) is in range and single-block;
  /// returns the block's index.
  i64 checked_block(i64 addr, i64 size) const;

  i64 nprocs_;
  i64 block_size_;
  int block_shift_;  // log2(block_size) when a power of two, else -1
  i64 blocks_total_;  // blocks in the whole address space
  i64 words_per_block_;
  u64 counter_ = 0;
  // One packed u64 per word, [block * words_per_block + offset]:
  // (write version << kWriterBits) | last writer.  A single load serves
  // both the version-newer-than-snapshot test and the writer identity, and
  // `v >= (s+1) << kWriterBits` is exactly `version(v) > s`.
  static constexpr int kWriterBits = 7;  // procs 0..63; 127 = never written
  static constexpr u64 kWriterMask = (u64{1} << kWriterBits) - 1;
  std::vector<u64> word_state_;
  // Newest write version per block (any writer) — classify_miss_at's
  // early-out for misses with no intervening write.
  std::vector<u64> block_ver_;
  // Flat per-processor block snapshots, block-major
  // [block * nprocs + proc]: counter value at the processor's last access;
  // 0 = never accessed.  Block-major keeps all processors' snapshots of
  // one block adjacent — the access pattern of actively shared blocks.
  std::vector<u64> snapshot_;
  // Per processor per word: version last observed (word tracking only),
  // [proc * words + word].
  bool word_tracking_ = false;
  std::vector<u64> word_seen_;
};

}  // namespace fsopt
