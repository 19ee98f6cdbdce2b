// Index-probe navigation on all three encodings: Root() is an ordered index
// probe that reads only the rows up to the root element, and positional
// steps ([k] as a child or following-sibling step's first predicate,
// ChildAt) push a LIMIT into SQL. Answers are checked against the DOM
// oracle; "pushed" is checked by the rows a step scans.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/ordered_store.h"
#include "src/core/xpath.h"
#include "src/core/xpath_eval.h"
#include "src/xml/xml_writer.h"
#include "tests/fuzz/dom_oracle.h"

namespace oxml {
namespace {

/// Sections under the root element; large enough that a step reading every
/// sibling is told apart from one that stops early.
constexpr int kSections = 40;
/// Upper bound on the rows a pushed step with k <= 3 reads: the siblings up
/// to the k-th match plus one attribute probe.
constexpr int kFewRows = 10;

/// <!--prolog--><?pi data?><r><t/><s a=".." i="1"><p>1</p></s><t/>...
/// </r><!--epilog-->: every third section has a="v"; a <t/> precedes each
/// section and a <z/> closes the list.
std::unique_ptr<XmlDocument> BuildDoc() {
  auto doc = std::make_unique<XmlDocument>();
  doc->root()->AppendChild(XmlNode::Comment("prolog"));
  doc->root()->AppendChild(XmlNode::ProcessingInstruction("pi", "data"));
  XmlNode* r = doc->root()->AppendChild(XmlNode::Element("r"));
  for (int i = 1; i <= kSections; ++i) {
    r->AppendChild(XmlNode::Element("t"));
    XmlNode* s = r->AppendChild(XmlNode::Element("s"));
    s->SetAttribute("a", i % 3 == 0 ? "v" : "w");
    s->SetAttribute("i", std::to_string(i));
    XmlNode* p = s->AppendChild(XmlNode::Element("p"));
    p->AppendChild(XmlNode::Text(std::to_string(i)));
  }
  r->AppendChild(XmlNode::Element("z"));
  doc->root()->AppendChild(XmlNode::Comment("epilog"));
  return doc;
}

class NavigationPushdownTest : public ::testing::TestWithParam<OrderEncoding> {
 protected:
  void SetUp() override {
    auto dbr = Database::Open();
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    db_ = std::move(dbr).value();
    auto sr = OrderedXmlStore::Create(db_.get(), GetParam(), {.gap = 8});
    ASSERT_TRUE(sr.ok()) << sr.status();
    store_ = std::move(sr).value();
    doc_ = BuildDoc();
    ASSERT_TRUE(store_->LoadDocument(*doc_).ok());
    oracle_ = std::make_unique<fuzz::DomOracle>(*doc_);
  }

  uint64_t RowsScanned() { return db_->stats()->rows_scanned; }

  /// Evaluates `xpath` on the store and the oracle, expects identical
  /// answers, and returns the rows the store's evaluation scanned.
  uint64_t ExpectAgrees(const std::string& xpath) {
    auto parsed = ParseXPath(xpath);
    EXPECT_TRUE(parsed.ok()) << xpath << ": " << parsed.status();
    if (!parsed.ok()) return 0;
    std::vector<fuzz::OracleNode> expected = oracle_->Evaluate(*parsed);
    uint64_t before = RowsScanned();
    auto actual = EvaluateXPath(store_.get(), *parsed);
    uint64_t scanned = RowsScanned() - before;
    EXPECT_TRUE(actual.ok()) << xpath << ": " << actual.status();
    if (!actual.ok()) return scanned;
    EXPECT_EQ(actual->size(), expected.size()) << xpath;
    for (size_t i = 0; i < expected.size() && i < actual->size(); ++i) {
      const StoredNode& n = (*actual)[i];
      std::string sig;
      if (n.kind == XmlNodeKind::kAttribute) {
        sig = "@" + n.tag + "=" + n.value;
      } else {
        auto subtree = store_->ReconstructSubtree(n);
        EXPECT_TRUE(subtree.ok()) << xpath << ": " << subtree.status();
        if (subtree.ok()) sig = WriteXml(**subtree);
      }
      EXPECT_EQ(sig, oracle_->Signature(expected[i]))
          << xpath << " result " << i;
    }
    return scanned;
  }

  /// Rows scanned by the last step of `xpath` alone: its cost minus that
  /// of `prefix`, the same path without the last step.
  int64_t LastStepRows(const std::string& prefix, const std::string& xpath) {
    int64_t base = static_cast<int64_t>(ExpectAgrees(prefix));
    return static_cast<int64_t>(ExpectAgrees(xpath)) - base;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<OrderedXmlStore> store_;
  std::unique_ptr<XmlDocument> doc_;
  std::unique_ptr<fuzz::DomOracle> oracle_;
};

TEST_P(NavigationPushdownTest, RootSkipsPrologAndReadsAtMostThreeRows) {
  uint64_t before = RowsScanned();
  auto root = store_->Root();
  uint64_t scanned = RowsScanned() - before;
  ASSERT_TRUE(root.ok()) << root.status();
  EXPECT_EQ(root->tag, "r");
  EXPECT_EQ(root->kind, XmlNodeKind::kElement);
  EXPECT_EQ(root->depth, 1);
  // The prolog comment, the PI, then the root: a probe stops there.
  EXPECT_LE(scanned, 3u);

  auto rebuilt = store_->ReconstructDocument();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_TRUE((*rebuilt)->StructurallyEqual(*doc_));
  EXPECT_TRUE(store_->Validate().ok());
}

TEST_P(NavigationPushdownTest, ChildPositionMatchesOracle) {
  for (int k : {1, kSections / 2, kSections, kSections + 1}) {
    ExpectAgrees("/r/s[" + std::to_string(k) + "]");
    ExpectAgrees("/r/s[" + std::to_string(k) + "]/p");
    ExpectAgrees("/r/*[" + std::to_string(k) + "]");
  }
  ExpectAgrees("/r/s/p[1]");
  ExpectAgrees("/r/s[2]/p[2]");
  ExpectAgrees("/r/s[position() = 3]");
  ExpectAgrees("/r/s[0]");
}

TEST_P(NavigationPushdownTest, LeadingPositionIsPushed) {
  // A pushed [k] reads the rows up to the k-th section, never all of them.
  EXPECT_LT(LastStepRows("/r", "/r/s[1]"), kFewRows);
  EXPECT_LT(LastStepRows("/r", "/r/s[3]"), kFewRows);
  EXPECT_LT(LastStepRows("/r", "/r/s[2][@a = 'v']"), kFewRows);
  EXPECT_LT(LastStepRows("/r", "/r/s[3][@a = 'v']"), kFewRows);
  EXPECT_LT(LastStepRows("/r/s[1]", "/r/s[1]/following-sibling::s[1]"),
            kFewRows);
  EXPECT_LT(LastStepRows("/r/s[3]", "/r/s[3]/following-sibling::s[2]"),
            kFewRows);
}

TEST_P(NavigationPushdownTest, PositionAfterAnotherPredicateIsNotPushed) {
  // [@a='v'][2] counts positions among the a='v' sections: the step must
  // read every section to know which is the second match.
  EXPECT_GE(LastStepRows("/r", "/r/s[@a = 'v'][2]"), kSections);
  EXPECT_GE(LastStepRows("/r", "/r/s[@a = 'w'][5]"), kSections);
  ExpectAgrees("/r/s[@a = 'v'][100]");
}

TEST_P(NavigationPushdownTest, ReverseAndDescendantStepsAreNotPushed) {
  EXPECT_GE(LastStepRows("/r/z", "/r/z/preceding-sibling::s[1]"), kSections);
  EXPECT_GE(LastStepRows("/r", "/r//s[1]"), kSections);
  ExpectAgrees("/r/s[5]/preceding-sibling::s[2]");
  ExpectAgrees("//s[2]");
  ExpectAgrees("/r//p[1]");
}

TEST_P(NavigationPushdownTest, FollowingSiblingPositionMatchesOracle) {
  for (int k : {1, kSections / 2, kSections - 1, kSections}) {
    ExpectAgrees("/r/s[1]/following-sibling::s[" + std::to_string(k) + "]");
  }
  ExpectAgrees("/r/s[" + std::to_string(kSections) +
               "]/following-sibling::s[1]");
  ExpectAgrees("/r/s[1]/following-sibling::s[2][@a = 'v']");
  ExpectAgrees("/r/s[1]/following-sibling::s[@a = 'v'][2]");
  ExpectAgrees("/r/s/following-sibling::t[1]");
}

TEST_P(NavigationPushdownTest, ChildAtPastTheEndReportsTrueCount) {
  auto root = store_->Root();
  ASSERT_TRUE(root.ok()) << root.status();
  auto last = store_->ChildAt(*root, NodeTest::Tag("s"), kSections - 1);
  ASSERT_TRUE(last.ok()) << last.status();
  auto attrs = store_->Attributes(*last, "i");
  ASSERT_TRUE(attrs.ok()) << attrs.status();
  ASSERT_EQ(attrs->size(), 1u);
  EXPECT_EQ((*attrs)[0].value, std::to_string(kSections));

  for (size_t idx : {static_cast<size_t>(kSections),
                     static_cast<size_t>(kSections) + 7}) {
    auto past = store_->ChildAt(*root, NodeTest::Tag("s"), idx);
    ASSERT_FALSE(past.ok());
    EXPECT_TRUE(past.status().IsOutOfRange()) << past.status();
    EXPECT_NE(past.status().message().find(
                  "(" + std::to_string(kSections) + " children)"),
              std::string::npos)
        << past.status();
  }

  // The first child reads the rows up to it, not the whole sibling list.
  uint64_t before = RowsScanned();
  ASSERT_TRUE(store_->ChildAt(*root, NodeTest::Tag("s"), 0).ok());
  EXPECT_LT(RowsScanned() - before, static_cast<uint64_t>(kFewRows));
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, NavigationPushdownTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey),
                         [](const auto& info) {
                           return OrderEncodingToString(info.param);
                         });

}  // namespace
}  // namespace oxml
