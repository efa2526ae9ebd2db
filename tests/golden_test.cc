// Tests for the smoke benches' golden harness (bench/golden.h), driven by a
// synthetic row producer on temp files.
#include "bench/golden.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace omega::golden {
namespace {

std::string HexRow(const char* label, double a, double b) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s %a %a", label, a, b);
  return buf;
}

std::vector<std::string> ThreeRows() {
  return {HexRow("r0", 0.1, 1.0 / 3.0), HexRow("r1", 2.5, 1e-300),
          HexRow("r2", -7.0, 0.0)};
}

Smoke SyntheticSmoke(std::vector<std::string> (*rows)()) {
  return {"synthetic", {"synthetic golden", "fields: label a b"}, rows};
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteAll(const std::string& path, const std::string& text) {
  std::ofstream(path) << text;
}

struct Result {
  int code = 0;
  std::string err;
};

Result Check(const Smoke& smoke, const std::string& path) {
  std::ostringstream out, err;
  const int code = CheckGolden(smoke, path, out, err);
  return {code, err.str()};
}

// Hands out temp golden paths and removes them after the test.
class GoldenTest : public testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : paths_) {
      std::remove(path.c_str());
    }
  }

  std::string TempPath(const std::string& name) {
    paths_.push_back(testing::TempDir() + "golden_test_" + name + ".txt");
    return paths_.back();
  }

  std::string Write(const Smoke& smoke, const std::string& name) {
    const std::string path = TempPath(name);
    std::ostringstream out, err;
    EXPECT_EQ(WriteGolden(smoke, path, out, err), 0) << err.str();
    return path;
  }

 private:
  std::vector<std::string> paths_;
};

TEST_F(GoldenTest, WriteThenCheckRoundTrips) {
  const Smoke smoke = SyntheticSmoke(ThreeRows);
  const std::string path = Write(smoke, "roundtrip");
  EXPECT_EQ(ReadAll(path), "# synthetic golden\n# fields: label a b\n" +
                               ThreeRows()[0] + "\n" + ThreeRows()[1] + "\n" +
                               ThreeRows()[2] + "\n");
  const Result r = Check(smoke, path);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.err, "");
}

TEST_F(GoldenTest, FlippedHexDigitFailsAndNamesTheLine) {
  const Smoke smoke = SyntheticSmoke(ThreeRows);
  const std::string path = Write(smoke, "flipped");
  std::string text = ReadAll(path);
  // Row r1 is line 4 (two header lines first); flip one mantissa digit.
  const size_t row = text.find("r1 0x1.4p+1");
  ASSERT_NE(row, std::string::npos) << text;
  text[row + std::string("r1 0x1.").size()] = '5';
  WriteAll(path, text);
  const Result r = Check(smoke, path);
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find(path + ":4: synthetic row 1 diverges"),
            std::string::npos)
      << r.err;
  EXPECT_EQ(r.err.find(":3:"), std::string::npos) << r.err;
  EXPECT_EQ(r.err.find(":5:"), std::string::npos) << r.err;
}

TEST_F(GoldenTest, MissingRowFails) {
  const Smoke smoke = SyntheticSmoke(ThreeRows);
  const std::string path = TempPath("missing_row");
  WriteAll(path, "# header\n" + ThreeRows()[0] + "\n" + ThreeRows()[1] + "\n");
  const Result r = Check(smoke, path);
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("has 2, run produced 3"), std::string::npos) << r.err;
}

TEST_F(GoldenTest, ExtraRowFails) {
  const Smoke smoke = SyntheticSmoke(ThreeRows);
  const std::string path = Write(smoke, "extra_row");
  WriteAll(path, ReadAll(path) + HexRow("r3", 1.0, 2.0) + "\n");
  const Result r = Check(smoke, path);
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("has 4, run produced 3"), std::string::npos) << r.err;
}

TEST_F(GoldenTest, CommentOnlyGoldenIsRejected) {
  const Smoke smoke = SyntheticSmoke(ThreeRows);
  const std::string path = TempPath("comment_only");
  WriteAll(path, "# synthetic golden\n\n# fields: label a b\n");
  const Result r = Check(smoke, path);
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("has no data rows"), std::string::npos) << r.err;
}

TEST_F(GoldenTest, MissingFileIsRejected) {
  const Smoke smoke = SyntheticSmoke(ThreeRows);
  const Result r = Check(smoke, TempPath("does_not_exist"));
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot read golden"), std::string::npos) << r.err;
}

TEST_F(GoldenTest, NanFieldRoundTrips) {
  const Smoke smoke = SyntheticSmoke([] {
    return std::vector<std::string>{HexRow("empty", 0.5, std::nan(""))};
  });
  const std::string path = Write(smoke, "nan");
  EXPECT_NE(ReadAll(path).find("empty 0x1p-1 nan\n"), std::string::npos);
  const Result r = Check(smoke, path);
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST_F(GoldenTest, FnvMixHashesDoubleBits) {
  // 0.0 and -0.0 compare equal but differ in bits, so they hash apart.
  EXPECT_NE(FnvMix(kFnvOffset, 0.0), FnvMix(kFnvOffset, -0.0));
  EXPECT_EQ(FnvMix(kFnvOffset, 0.0), kFnvOffset * 1099511628211ULL);
}

TEST_F(GoldenTest, UnknownFlagIsAUsageError) {
  const Smoke smoke = SyntheticSmoke(ThreeRows);
  char prog[] = "synthetic";
  char flag[] = "--check";
  char file[] = "golden.txt";
  char* argv[] = {prog, flag, file};
  EXPECT_EQ(SmokeMain(3, argv, smoke), 2);
  EXPECT_EQ(SmokeMain(1, argv, smoke), 2);  // no full run to fall back to
  EXPECT_EQ(SmokeMain(1, argv, smoke, [] { return 7; }), 7);
}

}  // namespace
}  // namespace omega::golden
