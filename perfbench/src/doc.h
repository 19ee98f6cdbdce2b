// The benchmark's input: a seeded news document (the E6 shape, 100
// sections x 15 paragraphs), the request classes drawn against it, and the
// expected answer of every read request, computed from the generated DOM.
#ifndef PERFBENCH_DOC_H_
#define PERFBENCH_DOC_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "src/xml/xml_node.h"

namespace perfbench {

constexpr int kSections = 100;
constexpr int kParas = 15;

/// The document as data. The mixed_update writer keeps a copy in step with
/// its edits, so the final stores can be compared against it.
struct NewsModel {
  struct Para {
    std::string cls;  // "" (no attribute), "lead" or "bench"
    std::string text;
  };
  struct Section {
    std::string title;
    std::vector<Para> paras;
  };
  std::string head_title, dateline, byline;
  std::vector<Section> sections;
};

NewsModel GenerateNews(uint64_t seed);
std::unique_ptr<oxml::XmlDocument> BuildDom(const NewsModel& model);
std::string RandomSentence(Rng* rng, int words);

/// Expected node signatures (the serialized subtree the OXWP kXPath frame
/// returns per result node), taken from the generated DOM.
struct Oracle {
  explicit Oracle(const NewsModel& model);
  std::vector<std::string> title_sig;                // [k-1]
  std::vector<std::vector<std::string>> para_sig;    // [k-1][j-1]
  std::vector<std::string> section_sig;              // [k-1]
  std::vector<std::string> lead_sig;                 // document order
  std::vector<std::string> all_para_sig;             // document order
  int64_t CountOf(const std::string& tag) const;
};

/// Tags of the count class, and their shape index.
extern const char* const kCountTags[3];

/// One request. `shape` picks the template within the class; k and j are
/// 1-based section and paragraph positions.
struct Request {
  int cls = kPoint;
  int enc = 0;
  int shape = 0;
  int k = 1;
  int j = 1;
  /// XPath for point/subtree/scan, the tag for count.
  std::string text;
};

/// Read-class shares of a request mix; they sum to 1.
struct Mix {
  double point = 0, subtree = 0, count = 0, scan = 0;
};

int ShapesOf(int cls);
Request MakeRequest(int cls, int enc, int shape, int k, int j);
Request DrawRequest(Rng* rng, const Mix& mix);

/// Every class x shape x encoding of `mix` once (the warm-up pass).
std::vector<Request> EveryShape(const Mix& mix);

/// True when `got` equals the expected signatures of a point, subtree or
/// scan request.
bool MatchesExpected(const Oracle& oracle, const Request& req,
                     const std::vector<std::string>& got);

std::string TableName(int enc);
std::string CountSql(int enc);

}  // namespace perfbench

#endif  // PERFBENCH_DOC_H_
