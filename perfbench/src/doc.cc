#include "doc.h"

#include "src/xml/xml_writer.h"

namespace perfbench {

using oxml::XmlDocument;
using oxml::XmlNode;

const char* const kCountTags[3] = {"para", "title", "section"};

std::string RandomSentence(Rng* rng, int words) {
  std::string out;
  for (int w = 0; w < words; ++w) {
    if (w > 0) out.push_back(' ');
    int len = rng->Between(3, 9);
    for (int c = 0; c < len; ++c) {
      out.push_back(static_cast<char>('a' + rng->Below(26)));
    }
  }
  return out;
}

NewsModel GenerateNews(uint64_t seed) {
  Rng rng(SubSeed(seed, 1));
  NewsModel m;
  m.head_title = RandomSentence(&rng, 4);
  m.dateline = "2002-06-0" + std::to_string(rng.Between(1, 9));
  m.byline = RandomSentence(&rng, 2);
  m.sections.resize(kSections);
  for (NewsModel::Section& s : m.sections) {
    s.title = RandomSentence(&rng, 3);
    s.paras.resize(kParas);
    for (NewsModel::Para& p : s.paras) {
      p.cls = rng.Unit() < 0.25 ? "lead" : "";
      p.text = RandomSentence(&rng, 18);
    }
  }
  return m;
}

namespace {

std::unique_ptr<XmlNode> TextElement(const char* tag, const std::string& text) {
  auto e = XmlNode::Element(tag);
  e->AppendChild(XmlNode::Text(text));
  return e;
}

std::unique_ptr<XmlNode> ParaNode(const NewsModel::Para& p) {
  auto e = TextElement("para", p.text);
  if (!p.cls.empty()) e->SetAttribute("class", p.cls);
  return e;
}

std::unique_ptr<XmlNode> SectionNode(const NewsModel::Section& s, int k) {
  auto e = XmlNode::Element("section");
  std::string id = "s";
  e->SetAttribute("id", id.append(std::to_string(k)));
  e->AppendChild(TextElement("title", s.title));
  for (const NewsModel::Para& p : s.paras) e->AppendChild(ParaNode(p));
  return e;
}

}  // namespace

std::unique_ptr<XmlDocument> BuildDom(const NewsModel& m) {
  auto doc = std::make_unique<XmlDocument>();
  XmlNode* nitf = doc->root()->AppendChild(XmlNode::Element("nitf"));
  XmlNode* head = nitf->AppendChild(XmlNode::Element("head"));
  head->AppendChild(TextElement("title", m.head_title));
  head->AppendChild(TextElement("dateline", m.dateline));
  head->AppendChild(TextElement("byline", m.byline));
  XmlNode* body = nitf->AppendChild(XmlNode::Element("body"));
  for (size_t k = 0; k < m.sections.size(); ++k) {
    body->AppendChild(SectionNode(m.sections[k], static_cast<int>(k) + 1));
  }
  return doc;
}

Oracle::Oracle(const NewsModel& m) {
  for (size_t k = 0; k < m.sections.size(); ++k) {
    const NewsModel::Section& s = m.sections[k];
    title_sig.push_back(oxml::WriteXml(*TextElement("title", s.title)));
    section_sig.push_back(
        oxml::WriteXml(*SectionNode(s, static_cast<int>(k) + 1)));
    para_sig.emplace_back();
    for (const NewsModel::Para& p : s.paras) {
      para_sig.back().push_back(oxml::WriteXml(*ParaNode(p)));
      all_para_sig.push_back(para_sig.back().back());
      if (p.cls == "lead") lead_sig.push_back(para_sig.back().back());
    }
  }
}

int64_t Oracle::CountOf(const std::string& tag) const {
  if (tag == "para") return static_cast<int64_t>(all_para_sig.size());
  if (tag == "title") return static_cast<int64_t>(title_sig.size()) + 1;
  if (tag == "section") return static_cast<int64_t>(section_sig.size());
  Fatal("no expected count for tag " + tag);
}

int ShapesOf(int cls) { return cls == kScan ? 2 : 3; }

Request MakeRequest(int cls, int enc, int shape, int k, int j) {
  Request r;
  r.cls = cls;
  r.enc = enc;
  r.shape = shape;
  r.k = k;
  r.j = j;
  const std::string ks = std::to_string(k);
  switch (cls) {
    case kPoint:
      r.text = shape == 0   ? "/nitf/body/section[" + ks + "]/title"
               : shape == 1 ? "/nitf/body/section[" + ks + "]/para[" +
                                  std::to_string(j) + "]"
                            : "/nitf/body/section[last()]/para[last()]";
      break;
    case kSubtree:
      r.text = shape == 0   ? "/nitf/body/section[" + ks + "]/para"
               : shape == 1 ? "/nitf/body/section[" + ks + "]"
                            : "//section[@id = 's" + ks +
                                  "']/following-sibling::section[1]";
      break;
    case kCount:
      r.text = kCountTags[shape];
      break;
    case kScan:
      r.text = shape == 0 ? "//para[@class = 'lead']" : "/nitf/body//para";
      break;
    default:
      Fatal("not a read class");
  }
  return r;
}

Request DrawRequest(Rng* rng, const Mix& mix) {
  double u = rng->Unit();
  int cls = u < mix.point                              ? kPoint
            : u < mix.point + mix.subtree              ? kSubtree
            : u < mix.point + mix.subtree + mix.count ? kCount
                                                       : kScan;
  int enc = rng->Below(kNumEnc);
  int shape = rng->Below(ShapesOf(cls));
  // following-sibling needs a section after section k.
  int k = rng->Between(1, cls == kSubtree && shape == 2 ? kSections - 1
                                                         : kSections);
  int j = rng->Between(1, kParas);
  return MakeRequest(cls, enc, shape, k, j);
}

std::vector<Request> EveryShape(const Mix& mix) {
  const double share[] = {mix.point, mix.subtree, mix.count, mix.scan};
  std::vector<Request> out;
  for (int cls = 0; cls < kUpdate; ++cls) {
    if (share[cls] <= 0) continue;
    for (int enc = 0; enc < kNumEnc; ++enc) {
      for (int shape = 0; shape < ShapesOf(cls); ++shape) {
        out.push_back(MakeRequest(cls, enc, shape, 1, 1));
      }
    }
  }
  return out;
}

namespace {

std::vector<const std::string*> Expected(const Oracle& o, const Request& r) {
  std::vector<const std::string*> out;
  auto all = [&out](const std::vector<std::string>& v) {
    for (const std::string& s : v) out.push_back(&s);
  };
  switch (r.cls) {
    case kPoint:
      if (r.shape == 0) out.push_back(&o.title_sig[r.k - 1]);
      if (r.shape == 1) out.push_back(&o.para_sig[r.k - 1][r.j - 1]);
      if (r.shape == 2) out.push_back(&o.para_sig.back().back());
      break;
    case kSubtree:
      if (r.shape == 0) all(o.para_sig[r.k - 1]);
      if (r.shape == 1) out.push_back(&o.section_sig[r.k - 1]);
      if (r.shape == 2) out.push_back(&o.section_sig[r.k]);
      break;
    case kScan:
      all(r.shape == 0 ? o.lead_sig : o.all_para_sig);
      break;
    default:
      Fatal("no expected signatures for class " + std::string(ClsName(r.cls)));
  }
  return out;
}

}  // namespace

bool MatchesExpected(const Oracle& o, const Request& r,
                     const std::vector<std::string>& got) {
  std::vector<const std::string*> want = Expected(o, r);
  if (want.size() != got.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (*want[i] != got[i]) return false;
  }
  return true;
}

std::string TableName(int enc) { return std::string("nodes_") + EncName(enc); }

std::string CountSql(int enc) {
  return "SELECT COUNT(*) FROM " + TableName(enc) + " WHERE tag = ?";
}

}  // namespace perfbench
