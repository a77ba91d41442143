// End-to-end checks of the ddtool command line: each test runs the
// built binary (path from the DDTOOL_PATH compile definition) in its
// own scratch directory and asserts exit codes and the output lines
// that do not depend on timing.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace {

struct CliRun {
  int rc = -1;
  std::string out;
  std::string err;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

bool Contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

bool ValidJson(const std::string& text) {
  return dd::testutil::JsonChecker(text).Valid();
}

class DdtoolCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("ddtool_cli_" + std::to_string(::getpid()) + "_" + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    ASSERT_EQ(Run("generate --dataset hotel --out " + Path("hotel.csv")).rc,
              0);
    ASSERT_EQ(Run("generate --dataset restaurant --entities 60 --seed 7 "
                  "--out " + Path("rest.csv")).rc,
              0);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Runs `ddtool <args>` through the shell (so `args` is shell syntax)
  // with stdin from `stdin_path`.
  CliRun Run(const std::string& args,
             const std::string& stdin_path = "/dev/null") const {
    const std::string out = Path("stdout.txt");
    const std::string err = Path("stderr.txt");
    const std::string command = std::string(DDTOOL_PATH) + " " + args +
                                " < " + stdin_path + " > " + out + " 2> " +
                                err;
    const int status = std::system(command.c_str());
    CliRun run;
    run.rc = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    run.out = ReadFile(out);
    run.err = ReadFile(err);
    return run;
  }

  // The rule and matching flags of the restaurant runs.
  std::string Rest() const {
    return "--input " + Path("rest.csv") +
           " --lhs name,address --rhs city,type --dmax 6 --max-pairs 4000";
  }

  std::filesystem::path dir_;
};

TEST_F(DdtoolCliTest, GenerateReportsRowCounts) {
  CliRun hotel = Run("generate --dataset hotel --out " + Path("h.csv"));
  EXPECT_EQ(hotel.rc, 0) << hotel.err;
  EXPECT_EQ(hotel.out, "wrote 6 rows to " + Path("h.csv") + "\n");
  CliRun rest = Run("generate --dataset restaurant --entities 60 --seed 7 "
                    "--out " + Path("r.csv") + " --dirty-out " +
                    Path("dirty.csv") + " --corrupt-attrs city --truth-out " +
                    Path("truth.csv"));
  EXPECT_EQ(rest.rc, 0) << rest.err;
  const std::vector<std::string> lines = Lines(rest.out);
  ASSERT_EQ(lines.size(), 3u) << rest.out;
  EXPECT_EQ(lines[0], "wrote 189 rows to " + Path("r.csv"));
  EXPECT_EQ(Lines(ReadFile(Path("truth.csv"))).front(), "row_i,row_j");
}

TEST_F(DdtoolCliTest, DetermineTextJsonAndApprox) {
  const std::string hotel =
      "--input " + Path("hotel.csv") + " --lhs Name,Address --rhs Region";
  CliRun text = Run("determine " + hotel + " --top 3");
  ASSERT_EQ(text.rc, 0) << text.err;
  const std::vector<std::string> lines = Lines(text.out);
  ASSERT_EQ(lines.size(), 6u) << text.out;
  EXPECT_EQ(lines[0], "matching relation: 15 tuples (dmax=10)");
  EXPECT_EQ(lines[1].rfind("determined 3 pattern(s) in ", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2],
            "pattern                               D        C        S      Q "
            "  utility");
  for (std::size_t i = 3; i < lines.size(); ++i) {
    EXPECT_TRUE(Contains(lines[i], " -> <4>)")) << lines[i];
    EXPECT_TRUE(Contains(lines[i],
                         "0.2000   1.0000   0.2000   0.60    0.5043"))
        << lines[i];
  }

  CliRun json = Run("determine " + hotel + " --json");
  ASSERT_EQ(json.rc, 0) << json.err;
  EXPECT_TRUE(ValidJson(json.out)) << json.out;
  EXPECT_TRUE(Contains(json.out, "\"patterns\":[")) << json.out;

  CliRun approx = Run("determine " + hotel + " --approx --json");
  ASSERT_EQ(approx.rc, 0) << approx.err;
  EXPECT_TRUE(ValidJson(approx.out)) << approx.out;
  EXPECT_TRUE(Contains(approx.out, "\"estimated\"")) << approx.out;
  EXPECT_TRUE(Contains(approx.out, "\"intervals\"")) << approx.out;
}

TEST_F(DdtoolCliTest, ExplainJsonMatchesAuditFile) {
  CliRun run = Run("explain " + Rest() + " --json --audit_json " +
                   Path("audit.json"));
  ASSERT_EQ(run.rc, 0) << run.err;
  EXPECT_TRUE(ValidJson(run.out));
  EXPECT_EQ(ReadFile(Path("audit.json")), run.out);
  EXPECT_TRUE(Contains(run.out, "\"waterfall\"")) << run.out;
  EXPECT_TRUE(Contains(run.out,
                       "\"config\": {\"sample_every\": 1, "
                       "\"ring_capacity\": 65536},"))
      << run.out;
}

TEST_F(DdtoolCliTest, ExplainSaveMatchingWritesWhatLoadMatchingReads) {
  CliRun explain =
      Run("explain " + Rest() + " --save-matching " + Path("m.ddmr"));
  ASSERT_EQ(explain.rc, 0) << explain.err;
  EXPECT_EQ(Lines(explain.out).front(),
            "matching relation: 4000 tuples (dmax=6)");
  ASSERT_TRUE(std::filesystem::exists(Path("m.ddmr")));

  CliRun loaded = Run("determine --load-matching " + Path("m.ddmr") +
                      " --lhs name,address --rhs city,type");
  ASSERT_EQ(loaded.rc, 0) << loaded.err;
  CliRun built = Run("determine " + Rest());
  ASSERT_EQ(built.rc, 0) << built.err;
  std::vector<std::string> from_file = Lines(loaded.out);
  std::vector<std::string> from_csv = Lines(built.out);
  ASSERT_EQ(from_file.size(), from_csv.size());
  ASSERT_GE(from_file.size(), 3u);
  // Line 1 carries the wall time; every other line must match.
  from_file.erase(from_file.begin() + 1);
  from_csv.erase(from_csv.begin() + 1);
  EXPECT_EQ(from_file, from_csv);
}

// Under --json, stdout is the JSON document alone, with --save-matching
// too: its confirmation line goes to stderr.
TEST_F(DdtoolCliTest, DetermineJsonSaveMatchingKeepsStdoutJson) {
  CliRun run = Run("determine " + Rest() + " --json --save-matching " +
                   Path("m.ddmr"));
  ASSERT_EQ(run.rc, 0) << run.err;
  EXPECT_TRUE(ValidJson(run.out)) << run.out;
  EXPECT_TRUE(Contains(run.err, "saved matching relation to " +
                                    Path("m.ddmr")))
      << run.err;
  EXPECT_TRUE(std::filesystem::exists(Path("m.ddmr")));
}

TEST_F(DdtoolCliTest, DetectWritesPairsCsv) {
  CliRun run = Run("detect --input " + Path("rest.csv") +
                   " --lhs address --rhs city --pattern \"4->2\" --dmax 6 "
                   "--out " + Path("pairs.csv"));
  ASSERT_EQ(run.rc, 0) << run.err;
  const std::vector<std::string> lines = Lines(run.out);
  ASSERT_EQ(lines.size(), 2u) << run.out;
  const std::size_t pairs = std::stoul(lines[0]);
  EXPECT_EQ(lines[0], std::to_string(pairs) + " violating pair(s)");
  EXPECT_EQ(lines[1], "wrote pairs to " + Path("pairs.csv"));
  const std::vector<std::string> csv = Lines(ReadFile(Path("pairs.csv")));
  ASSERT_EQ(csv.size(), pairs + 1);
  EXPECT_EQ(csv.front(), "row_i,row_j");
}

TEST_F(DdtoolCliTest, FeedSubcommandsPrintParseableLines) {
  ASSERT_EQ(Run("generate --dataset restaurant --entities 40 --seed 3 "
                "--out " + Path("new.csv")).rc,
            0);
  const std::string rule = " --lhs name,address --rhs city,type --dmax 6";

  CliRun append = Run("append --rows " + Path("new.csv") + rule +
                      " --batch 16 --retire 8");
  ASSERT_EQ(append.rc, 0) << append.err;
  EXPECT_EQ(Lines(append.out).front().rfind("final: ", 0), 0u) << append.out;

  // A quote in the run id must come out escaped.
  CliRun watch = Run("watch --rows " + Path("new.csv") + rule +
                     " --batch 16 --json --run_id 'ci\"7'");
  ASSERT_EQ(watch.rc, 0) << watch.err;
  const std::vector<std::string> feed = Lines(watch.out);
  ASSERT_FALSE(feed.empty());
  for (const std::string& line : feed) {
    EXPECT_TRUE(ValidJson(line)) << line;
    EXPECT_EQ(line.rfind("{\"run_id\":\"ci\\\"7\",\"seq\":", 0), 0u) << line;
  }

  // serve: the base instance, then stdin rows, two of them malformed.
  std::vector<std::string> rows = Lines(ReadFile(Path("new.csv")));
  std::ofstream stdin_rows(Path("stdin.csv"));
  for (std::size_t i = 1; i < rows.size(); ++i) {
    stdin_rows << rows[i] << "\n";
    if (i == 5) stdin_rows << "not,enough\n\"unterminated\n";
  }
  stdin_rows.close();
  CliRun serve = Run("serve --input " + Path("rest.csv") + rule +
                         " --batch 16 --json --run_id s1",
                     Path("stdin.csv"));
  ASSERT_EQ(serve.rc, 0) << serve.err;
  const std::vector<std::string> served = Lines(serve.out);
  ASSERT_GE(served.size(), 2u) << serve.out;
  for (const std::string& line : served) EXPECT_TRUE(ValidJson(line)) << line;
  EXPECT_TRUE(Contains(served.front(), "\"inserts\":189,")) << served.front();
  std::size_t rejected = 0;
  for (const std::string& line : Lines(serve.err)) {
    if (Contains(line, "serve: rejected stdin line")) ++rejected;
  }
  EXPECT_EQ(rejected, 2u) << serve.err;
}

// serve reads a last stdin row that has no trailing newline: the base
// instance's 189 rows plus 3 stdin rows end at 192 live tuples.
TEST_F(DdtoolCliTest, ServeReadsAnUnterminatedLastRow) {
  ASSERT_EQ(Run("generate --dataset restaurant --entities 40 --seed 3 "
                "--out " + Path("new.csv")).rc,
            0);
  const std::vector<std::string> rows = Lines(ReadFile(Path("new.csv")));
  ASSERT_GE(rows.size(), 4u);
  std::ofstream stdin_rows(Path("stdin.csv"));
  stdin_rows << rows[1] << "\n" << rows[2] << "\n" << rows[3];
  stdin_rows.close();
  CliRun serve = Run("serve --input " + Path("rest.csv") +
                         " --lhs name,address --rhs city,type --dmax 6",
                     Path("stdin.csv"));
  ASSERT_EQ(serve.rc, 0) << serve.err;
  EXPECT_TRUE(Contains(serve.out, "final: 192 live tuples,")) << serve.out;
}

// A stdin line that starts with a NUL byte is rejected and counted; the
// rows around it are applied: 189 + 2 live tuples.
TEST_F(DdtoolCliTest, ServeRejectsALineStartingWithNul) {
  ASSERT_EQ(Run("generate --dataset restaurant --entities 40 --seed 3 "
                "--out " + Path("new.csv")).rc,
            0);
  const std::vector<std::string> rows = Lines(ReadFile(Path("new.csv")));
  ASSERT_GE(rows.size(), 4u);
  std::ofstream stdin_rows(Path("stdin.csv"), std::ios::binary);
  stdin_rows << rows[1] << "\n" << '\0' << rows[2] << "\n" << rows[3] << "\n";
  stdin_rows.close();
  CliRun serve = Run("serve --input " + Path("rest.csv") +
                         " --lhs name,address --rhs city,type --dmax 6",
                     Path("stdin.csv"));
  ASSERT_EQ(serve.rc, 0) << serve.err;
  EXPECT_TRUE(Contains(serve.out, "final: 191 live tuples,")) << serve.out;
  std::size_t rejected = 0;
  for (const std::string& line : Lines(serve.err)) {
    if (Contains(line, "serve: rejected stdin line 2: line contains a NUL")) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 1u) << serve.err;
}

TEST_F(DdtoolCliTest, OutOfRangeIntegerFlagsAreRefused) {
  const std::string feed = " --lhs name,address --rhs city,type";
  struct Case {
    std::string args;
    std::string flag;
  };
  const std::vector<Case> cases = {
      {"determine " + Rest() + " --dmax 4294967306", "--dmax"},
      {"determine " + Rest() + " --dmax 9223372036854775808", "--dmax"},
      {"determine " + Rest() + " --top -1", "--top"},
      {"determine " + Rest() + " --max-pairs -1", "--max-pairs"},
      {"determine " + Rest() + " --seed 99999999999999999999", "--seed"},
      {"generate --dataset restaurant --entities -1 --out " + Path("x.csv"),
       "--entities"},
      {"determine --input " + Path("rest.csv") + feed +
           " --approx --sample_target 0",
       "--sample_target"},
      {"append --rows " + Path("rest.csv") + feed + " --batch 0", "--batch"},
      {"serve --input " + Path("rest.csv") + feed + " --batch 0", "--batch"},
      {"append --rows " + Path("rest.csv") + feed + " --retire -1",
       "--retire"},
      {"explain " + Rest() + " --explain_sample 0", "--explain_sample"},
      {"explain " + Rest() + " --ring_capacity 16777217", "--ring_capacity"},
      {"determine " + Rest() + " --threads -1", "--threads"},
      {"prof --top 0 " + Path("none.folded"), "--top"},
  };
  for (const Case& c : cases) {
    CliRun run = Run(c.args);
    EXPECT_EQ(run.rc, 1) << c.args;
    EXPECT_TRUE(Contains(run.err, c.flag + " must be in [")) << c.args << "\n"
                                                            << run.err;
    EXPECT_TRUE(run.out.empty()) << c.args << "\n" << run.out;
  }
}

}  // namespace
