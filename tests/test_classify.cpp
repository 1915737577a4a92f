#include "sim/classify.h"

#include <gtest/gtest.h>

namespace fsopt {
namespace {

TEST(Classifier, FirstTouchIsCold) {
  MissClassifier c(2, 64, 4096);
  EXPECT_EQ(c.classify_miss(0, 0, 4), MissKind::kCold);
}

TEST(Classifier, RemissWithoutRemoteWriteIsReplacement) {
  MissClassifier c(2, 64, 4096);
  c.note_access(0, 0, 4, false);
  EXPECT_EQ(c.classify_miss(0, 0, 4), MissKind::kReplacement);
}

TEST(Classifier, SelfWriteDoesNotMakeSharing) {
  MissClassifier c(2, 64, 4096);
  c.note_access(0, 0, 4, true);
  EXPECT_EQ(c.classify_miss(0, 0, 4), MissKind::kReplacement);
}

TEST(Classifier, RemoteWriteToReferencedWordIsTrue) {
  MissClassifier c(2, 64, 4096);
  c.note_access(0, 0, 4, false);
  c.note_access(1, 0, 4, true);
  EXPECT_EQ(c.classify_miss(0, 0, 4), MissKind::kTrueSharing);
}

TEST(Classifier, RemoteWriteToOtherWordIsFalse) {
  MissClassifier c(2, 64, 4096);
  c.note_access(0, 0, 4, false);
  c.note_access(1, 16, 4, true);
  EXPECT_EQ(c.classify_miss(0, 0, 4), MissKind::kFalseSharing);
}

TEST(Classifier, SnapshotAdvancesWithEveryAccess) {
  MissClassifier c(2, 64, 4096);
  c.note_access(0, 0, 4, false);
  c.note_access(1, 16, 4, true);  // remote write
  c.note_access(0, 0, 4, false);  // P0 touches block again (refreshes)
  // No remote writes since the refresh: replacement, not false sharing.
  EXPECT_EQ(c.classify_miss(0, 0, 4), MissKind::kReplacement);
}

TEST(Classifier, EightByteReferenceChecksBothWords) {
  MissClassifier c(2, 64, 4096);
  c.note_access(0, 0, 8, false);
  c.note_access(1, 4, 4, true);  // writes the second word of the pair
  EXPECT_EQ(c.classify_miss(0, 0, 8), MissKind::kTrueSharing);
}

TEST(Classifier, BlockBoundariesRespected) {
  MissClassifier c(2, 64, 4096);
  c.note_access(0, 0, 4, false);
  c.note_access(1, 64, 4, true);  // next block
  // P0's block saw no remote write: replacement.
  EXPECT_EQ(c.classify_miss(0, 0, 4), MissKind::kReplacement);
}

TEST(Classifier, ManyProcessesInterleaved) {
  MissClassifier c(8, 64, 4096);
  for (int p = 0; p < 8; ++p) c.note_access(p, 0, 4, false);
  c.note_access(3, 32, 4, true);
  for (int p = 0; p < 8; ++p) {
    if (p == 3) continue;
    EXPECT_EQ(c.classify_miss(p, 0, 4), MissKind::kFalseSharing) << p;
    EXPECT_EQ(c.classify_miss(p, 32, 4), MissKind::kTrueSharing) << p;
  }
  EXPECT_EQ(c.classify_miss(3, 0, 4), MissKind::kReplacement);
}

TEST(Classifier, OutOfRangeAccessThrows) {
  MissClassifier c(2, 64, 4096);
  EXPECT_THROW(c.note_access(0, 4096, 4, false), InternalError);
  EXPECT_THROW(c.classify_miss(0, -4, 4), InternalError);
}

TEST(Classifier, CrossBlockRangeThrows) {
  // Callers must split block-spanning references before classifying;
  // a range that straddles two blocks in one call is a bug.
  MissClassifier c(2, 64, 4096);
  EXPECT_THROW(c.note_access(0, 60, 8, false), InternalError);
  EXPECT_THROW(c.classify_miss(0, 60, 8), InternalError);
}

}  // namespace
}  // namespace fsopt
