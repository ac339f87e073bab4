// Tier-1 coverage for txconc-lint: every rule must fire on its bad
// fixture and stay silent on the good one, and the real src/ tree must
// lint clean (this is the same sweep the CI lint lane runs).
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

namespace fs = std::filesystem;
using txconc::lint::all_rules;
using txconc::lint::Linter;
using txconc::lint::LintResult;

namespace {

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

fs::path fixture(const std::string& name) {
  return fs::path(TXCONC_LINT_FIXTURES) / name;
}

// Lint one fixture in isolation, restricted to a single rule.
LintResult lint_one(const std::string& name, const std::string& rule) {
  Linter linter;
  const fs::path p = fixture(name);
  linter.add_file(p.string(), slurp(p));
  return linter.run({rule});
}

void expect_fires(const std::string& name, const std::string& rule,
                  std::size_t at_least) {
  const LintResult r = lint_one(name, rule);
  EXPECT_GE(r.findings.size(), at_least) << rule << " on " << name;
  for (const auto& f : r.findings) {
    EXPECT_EQ(f.rule, rule);
    EXPECT_GT(f.line, 0);
    EXPECT_FALSE(f.message.empty());
  }
}

void expect_silent(const std::string& name, const std::string& rule) {
  const LintResult r = lint_one(name, rule);
  EXPECT_TRUE(r.findings.empty())
      << rule << " on " << name << ": "
      << (r.findings.empty() ? "" : r.findings.front().message);
}

}  // namespace

TEST(LintRegistry, HasAtLeastFiveDistinctRules) {
  const auto& rules = all_rules();
  ASSERT_GE(rules.size(), 5u);
  std::set<std::string> names;
  for (const auto& r : rules) {
    names.insert(r.name);
    EXPECT_NE(std::string(r.description), "");
    EXPECT_NE(r.run, nullptr);
  }
  EXPECT_EQ(names.size(), rules.size()) << "duplicate rule names";
}

TEST(LintRules, HotPathAllocFiresOnBadFixture) {
  // new, by-value std container, make_unique, allocating callee: >= 4.
  expect_fires("hot_path_alloc_bad.cpp", "hot-path-alloc", 4);
}

TEST(LintRules, HotPathAllocSilentOnGoodFixture) {
  expect_silent("hot_path_alloc_good.cpp", "hot-path-alloc");
}

TEST(LintRules, AtomicsDisciplineFiresOnBadFixture) {
  // Lone release store plus unjustified non-seq_cst orders: >= 2.
  expect_fires("atomics_discipline_bad.cpp", "atomics-discipline", 2);
}

TEST(LintRules, AtomicsDisciplineSilentOnGoodFixture) {
  expect_silent("atomics_discipline_good.cpp", "atomics-discipline");
}

TEST(LintRules, LockOrderFiresOnBadFixture) {
  // An A->B / B->A inversion plus an interprocedural self-deadlock.
  expect_fires("lock_order_bad.cpp", "lock-order", 2);
}

TEST(LintRules, LockOrderSilentOnGoodFixture) {
  expect_silent("lock_order_good.cpp", "lock-order");
}

TEST(LintRules, TsaEscapeFiresOnBadFixture) {
  expect_fires("tsa_escape_bad.cpp", "tsa-escape-justified", 1);
}

TEST(LintRules, TsaEscapeSilentOnGoodFixture) {
  expect_silent("tsa_escape_good.cpp", "tsa-escape-justified");
}

TEST(LintRules, SpanPairingFiresOnBadFixture) {
  // begin, end, flow_start, flow_bind, begin_causal.
  expect_fires("span_pairing_bad.cpp", "span-pairing", 5);
}

TEST(LintRules, SpanPairingSilentOnGoodFixture) {
  expect_silent("span_pairing_good.cpp", "span-pairing");
}

TEST(LintSuppression, MalformedCommentsAreFindingsAndSuppressNothing) {
  Linter linter;
  const fs::path p = fixture("suppression_bad.cpp");
  linter.add_file(p.string(), slurp(p));
  const LintResult r = linter.run();
  std::size_t meta = 0;
  for (const auto& f : r.findings) {
    if (f.rule == "suppression") ++meta;
  }
  // Unknown rule, missing reason, and not-even-allow() each flag.
  EXPECT_GE(meta, 3u);
  EXPECT_EQ(r.suppressed, 0);
}

TEST(LintSuppression, WellFormedCommentSuppressesAndIsNotAFinding) {
  Linter linter;
  const fs::path p = fixture("suppression_ok.cpp");
  linter.add_file(p.string(), slurp(p));
  const LintResult r = linter.run();
  EXPECT_TRUE(r.findings.empty())
      << r.findings.front().rule << ": " << r.findings.front().message;
  EXPECT_EQ(r.suppressed, 1);
}

TEST(LintOutput, TextAndJsonCarryTheFooterAndFields) {
  Linter linter;
  const fs::path p = fixture("tsa_escape_bad.cpp");
  linter.add_file(p.string(), slurp(p));
  const LintResult r = linter.run();
  const std::string text = txconc::lint::to_text(r);
  EXPECT_NE(text.find("txconc-lint:"), std::string::npos);
  EXPECT_NE(text.find("findings"), std::string::npos);
  const std::string json = txconc::lint::to_json(r);
  EXPECT_NE(json.find("\"findings\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\""), std::string::npos);
  EXPECT_NE(json.find("\"tsa-escape-justified\""), std::string::npos);
}

// The whole point: the production tree holds every invariant. This is
// the identical sweep `TXCONC_CI_LANES=lint ./scripts/ci.sh` performs.
TEST(LintSweep, ProductionSourcesLintClean) {
  Linter linter;
  int added = 0;
  for (const auto& ent : fs::recursive_directory_iterator(TXCONC_LINT_SRC)) {
    if (!ent.is_regular_file()) continue;
    const std::string ext = ent.path().extension().string();
    if (ext != ".h" && ext != ".hpp" && ext != ".cc" && ext != ".cpp") {
      continue;
    }
    linter.add_file(ent.path().string(), slurp(ent.path()));
    ++added;
  }
  ASSERT_GT(added, 50) << "src/ sweep found suspiciously few files";
  const LintResult r = linter.run();
  std::ostringstream detail;
  for (const auto& f : r.findings) {
    detail << f.path << ":" << f.line << " [" << f.rule << "] " << f.message
           << "\n";
  }
  EXPECT_TRUE(r.findings.empty()) << detail.str();
  EXPECT_EQ(r.rules_run, static_cast<int>(all_rules().size()));
  // The two sanctioned escapes: FlatTable growth and Block-STM's cold
  // error replay. New suppressions are allowed but must be deliberate.
  EXPECT_GE(r.suppressed, 2);
}
