#include "io/task_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"

namespace flexrt::io {
namespace {

TEST(ParseTaskSet, BasicLinesWithDefaults) {
  const rt::TaskSet ts = parse_task_set_string(
      "a 1 10 FT\n"
      "b 2 20 15 fs\n"   // explicit deadline, lowercase mode
      "c 0.5 8 NF\n");
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0].mode, rt::Mode::FT);
  EXPECT_DOUBLE_EQ(ts[0].deadline, 10.0);  // implicit D = T
  EXPECT_DOUBLE_EQ(ts[1].deadline, 15.0);
  EXPECT_EQ(ts[1].mode, rt::Mode::FS);
  EXPECT_DOUBLE_EQ(ts[2].wcet, 0.5);
}

TEST(ParseTaskSet, CommentsAndBlankLines) {
  const rt::TaskSet ts = parse_task_set_string(
      "# header comment\n"
      "\n"
      "a 1 10 FT   # trailing comment\n"
      "   \n");
  EXPECT_EQ(ts.size(), 1u);
}

TEST(ParseTaskSet, ErrorsCarryLineNumbers) {
  try {
    parse_task_set_string("a 1 10 FT\nbroken 1\n");
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ParseTaskSet, AcceptsCrlfAndTrailingWhitespace) {
  const rt::TaskSet ts = parse_task_set_string(
      "a 1 10 FT\r\n"
      "b 2 20 15 FS \t\r\n"
      "c 0.5 8 NF 2\r\n"  // pinned channel before the CR
      "\r\n");
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0].mode, rt::Mode::FT);
  EXPECT_DOUBLE_EQ(ts[1].deadline, 15.0);
  EXPECT_EQ(ts[2].mode, rt::Mode::NF);

  const ParsedSystem p = parse_mode_task_system_string("c 0.5 8 NF 2\r\n");
  EXPECT_EQ(p.system.partitions(rt::Mode::NF)[2].size(), 1u);
}

TEST(ParseTaskSet, ErrorsNameTheOffendingToken) {
  const auto message_of = [](const char* text) {
    try {
      parse_task_set_string(text);
    } catch (const ModelError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(message_of("a x7 10 FT\n").find("'x7'"), std::string::npos);
  EXPECT_NE(message_of("a 1 1y0 FT\n").find("'1y0'"), std::string::npos);
  EXPECT_NE(message_of("a 1 10 XX\n").find("'XX'"), std::string::npos);
  EXPECT_NE(message_of("a 1 10 FT zz\n").find("'zz'"), std::string::npos);
  EXPECT_NE(message_of("a 1 10 FT 0 junk\n").find("'junk'"),
            std::string::npos);
  EXPECT_NE(message_of("broken 1\n").find("'broken 1'"), std::string::npos);
}

// A deadline stod cannot represent -- past the largest double, or in the
// subnormal range -- is a ModelError naming the line and the token, like a
// bad WCET or period; a token that starts no number is a misspelt mode.
TEST(ParseTaskSet, OutOfRangeDeadlinesNameTheLineAndToken) {
  for (const std::string token : {"1e999", "1e-320"}) {
    try {
      parse_task_set_string("b 1 6 FS\na 1 5 " + token + " FT\n");
      FAIL() << token << " must be rejected";
    } catch (const ModelError& e) {
      EXPECT_EQ(std::string(e.what()),
                "task file line 2: bad deadline '" + token + "'");
    }
  }
  try {
    parse_task_set_string("a 1 5 XT FT\n");
    FAIL() << "a misspelt mode must be rejected";
  } catch (const ModelError& e) {
    EXPECT_EQ(std::string(e.what()),
              "task file line 1: expected deadline or mode (FT/FS/NF), got "
              "'XT'");
  }
}

TEST(ParseTaskSet, RejectsBadMode) {
  EXPECT_THROW(parse_task_set_string("a 1 10 XX\n"), ModelError);
}

TEST(ParseTaskSet, RejectsBadTaskParameters) {
  EXPECT_THROW(parse_task_set_string("a 0 10 FT\n"), ModelError);   // C = 0
  EXPECT_THROW(parse_task_set_string("a 5 10 4 FT\n"), ModelError); // C > D
}

TEST(ParseTaskSet, RejectsTrailingGarbage) {
  EXPECT_THROW(parse_task_set_string("a 1 10 FT 0 junk\n"), ModelError);
}

TEST(ParseModeTaskSystem, ExplicitChannelsRespected) {
  const ParsedSystem p = parse_mode_task_system_string(
      "a 1 10 FS 0\n"
      "b 1 10 FS 1\n"
      "c 1 10 NF 3\n");
  EXPECT_TRUE(p.had_explicit_channels);
  EXPECT_EQ(p.system.partitions(rt::Mode::FS)[0].size(), 1u);
  EXPECT_EQ(p.system.partitions(rt::Mode::FS)[1].size(), 1u);
  EXPECT_EQ(p.system.partitions(rt::Mode::NF)[3][0].name, "c");
}

TEST(ParseModeTaskSystem, ChannelOutOfRangeRejected) {
  EXPECT_THROW(parse_mode_task_system_string("a 1 10 FS 2\n"), ModelError);
  EXPECT_THROW(parse_mode_task_system_string("a 1 10 FT 1\n"), ModelError);
  EXPECT_THROW(parse_mode_task_system_string("a 1 10 NF 4\n"), ModelError);
}

TEST(ParseModeTaskSystem, UnpinnedTasksPackedAroundPinnedOnes) {
  // Channel 0 is pinned nearly full; the unpinned heavy task must land on
  // channel 1.
  const ParsedSystem p = parse_mode_task_system_string(
      "pin 9 10 FS 0\n"
      "free 8 10 FS\n");
  EXPECT_EQ(p.system.partitions(rt::Mode::FS)[1][0].name, "free");
}

TEST(ParseModeTaskSystem, PackingFailureThrows) {
  EXPECT_THROW(parse_mode_task_system_string(
                   "a 9 10 FT\n"
                   "b 9 10 FT\n"),  // 1.8 on the single FT channel
               ModelError);
}

TEST(WriteTaskSet, RoundTripsThroughParser) {
  const rt::TaskSet original = parse_task_set_string(
      "a 1 10 FT\n"
      "b 2.5 20 15 FS\n"
      "c 0.5 8 NF\n");
  std::ostringstream os;
  write_task_set(os, original);
  const rt::TaskSet again = parse_task_set_string(os.str());
  ASSERT_EQ(again.size(), original.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].name, original[i].name);
    EXPECT_DOUBLE_EQ(again[i].wcet, original[i].wcet);
    EXPECT_DOUBLE_EQ(again[i].period, original[i].period);
    EXPECT_DOUBLE_EQ(again[i].deadline, original[i].deadline);
    EXPECT_EQ(again[i].mode, original[i].mode);
  }
}

TEST(ParseModeTaskSystem, PaperFileReproducesManualPartition) {
  // The example data file must parse into the Table-1 partition.
  const char* text =
      "tau1  1  6  NF 0\n"
      "tau2  1  8  NF 1\n"
      "tau3  1 12  NF 1\n"
      "tau4  2 10  NF 2\n"
      "tau5  6 24  NF 3\n"
      "tau6  1 10  FS 0\n"
      "tau7  1 15  FS 0\n"
      "tau8  2 20  FS 0\n"
      "tau9  1  4  FS 1\n"
      "tau10 1 12  FT 0\n"
      "tau11 1 15  FT 0\n"
      "tau12 1 20  FT 0\n"
      "tau13 2 30  FT 0\n";
  const ParsedSystem p = parse_mode_task_system_string(text);
  EXPECT_EQ(p.system.num_tasks(), 13u);
  EXPECT_NEAR(p.system.required_bandwidth(rt::Mode::FT), 0.267, 1e-3);
  EXPECT_NEAR(p.system.required_bandwidth(rt::Mode::FS), 0.267, 1e-3);
  EXPECT_NEAR(p.system.required_bandwidth(rt::Mode::NF), 0.250, 1e-3);
}

}  // namespace
}  // namespace flexrt::io
