#include "src/core/xpath_eval.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_set>

namespace oxml {

std::string NodeIdentity(OrderEncoding encoding, const StoredNode& node) {
  switch (encoding) {
    case OrderEncoding::kGlobal:
      return std::to_string(node.ord);
    case OrderEncoding::kLocal:
      return std::to_string(node.id);
    case OrderEncoding::kDewey:
      return node.path;
  }
  return "";
}

namespace {

/// Three-way comparison of XPath values: numeric when both sides parse as
/// numbers, byte-wise otherwise.
int CompareXPathValues(const std::string& a, const std::string& b) {
  char* end_a = nullptr;
  char* end_b = nullptr;
  double da = std::strtod(a.c_str(), &end_a);
  double db = std::strtod(b.c_str(), &end_b);
  bool numeric = !a.empty() && !b.empty() && end_a != nullptr &&
                 *end_a == '\0' && end_b != nullptr && *end_b == '\0';
  if (numeric) {
    if (da < db) return -1;
    if (da > db) return 1;
    return 0;
  }
  return a.compare(b);
}

bool ApplyCmp(XPathCmp op, int cmp) {
  switch (op) {
    case XPathCmp::kEq:
      return cmp == 0;
    case XPathCmp::kNe:
      return cmp != 0;
    case XPathCmp::kLt:
      return cmp < 0;
    case XPathCmp::kLe:
      return cmp <= 0;
    case XPathCmp::kGt:
      return cmp > 0;
    case XPathCmp::kGe:
      return cmp >= 0;
  }
  return false;
}

bool ApplyPositionCmp(XPathCmp op, int64_t position, int64_t target) {
  if (position < target) return ApplyCmp(op, -1);
  if (position > target) return ApplyCmp(op, 1);
  return ApplyCmp(op, 0);
}

/// Applies value/attribute predicates to one node (position predicates are
/// handled over the whole candidate list).
Result<bool> NodeSatisfies(OrderedXmlStore* store, const StoredNode& node,
                           const XPathPredicate& pred) {
  switch (pred.kind) {
    case XPathPredicate::Kind::kAttribute: {
      OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> attrs,
                            store->Attributes(node, pred.name));
      if (attrs.empty()) return false;
      return ApplyCmp(pred.op,
                      CompareXPathValues(attrs[0].value, pred.literal));
    }
    case XPathPredicate::Kind::kHasAttribute: {
      OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> attrs,
                            store->Attributes(node, pred.name));
      return !attrs.empty();
    }
    case XPathPredicate::Kind::kChildValue: {
      // XPath existential semantics: true if ANY matching child satisfies
      // the comparison.
      OXML_ASSIGN_OR_RETURN(
          std::vector<StoredNode> kids,
          store->Children(node, NodeTest::Tag(pred.name)));
      for (const StoredNode& kid : kids) {
        OXML_ASSIGN_OR_RETURN(std::string value, store->StringValue(kid));
        if (ApplyCmp(pred.op, CompareXPathValues(value, pred.literal))) {
          return true;
        }
      }
      return false;
    }
    case XPathPredicate::Kind::kSelfValue: {
      OXML_ASSIGN_OR_RETURN(std::string value, store->StringValue(node));
      return ApplyCmp(pred.op, CompareXPathValues(value, pred.literal));
    }
    default:
      return Status::Internal("positional predicate reached NodeSatisfies");
  }
}

/// Applies all of a step's predicates to the ordered candidate list
/// produced from ONE context node (XPath positional semantics).
Result<std::vector<StoredNode>> ApplyPredicates(
    OrderedXmlStore* store, const std::vector<XPathPredicate>& preds,
    std::vector<StoredNode> candidates) {
  for (const XPathPredicate& pred : preds) {
    std::vector<StoredNode> kept;
    int64_t size = static_cast<int64_t>(candidates.size());
    for (int64_t i = 0; i < size; ++i) {
      bool keep = false;
      switch (pred.kind) {
        case XPathPredicate::Kind::kPosition:
          keep = ApplyPositionCmp(pred.op, i + 1, pred.position);
          break;
        case XPathPredicate::Kind::kLast:
          keep = (i + 1 == size);
          break;
        default: {
          OXML_ASSIGN_OR_RETURN(keep,
                                NodeSatisfies(store, candidates[i], pred));
        }
      }
      if (keep) kept.push_back(std::move(candidates[i]));
    }
    candidates = std::move(kept);
  }
  return candidates;
}

/// How many candidates a step needs when its FIRST predicate is [k]: the
/// k-th candidate is the only survivor, so the axis may stop after k rows
/// and later predicates see the same list. A [k] after another predicate
/// counts positions in the filtered list and is not pushed. 0 = all.
size_t PositionalLimit(const XPathStep& step) {
  if (step.predicates.empty()) return 0;
  const XPathPredicate& first = step.predicates.front();
  if (first.kind != XPathPredicate::Kind::kPosition ||
      first.op != XPathCmp::kEq || first.position < 1) {
    return 0;
  }
  return static_cast<size_t>(first.position);
}

Result<std::vector<StoredNode>> ExpandAxis(OrderedXmlStore* store,
                                           const StoredNode& context,
                                           const XPathStep& step) {
  // Only the sibling-ordered axes push the limit into SQL; the other axes
  // either return document order across levels or walk in reverse.
  switch (step.axis) {
    case XPathStep::Axis::kChild:
      return store->Children(context, step.test, PositionalLimit(step));
    case XPathStep::Axis::kDescendant:
      return store->Descendants(context, step.test);
    case XPathStep::Axis::kFollowingSibling:
      return store->FollowingSiblings(context, step.test,
                                      PositionalLimit(step));
    case XPathStep::Axis::kPrecedingSibling:
      return store->PrecedingSiblings(context, step.test);
    case XPathStep::Axis::kAttribute:
      return store->Attributes(context, step.attribute_name);
    case XPathStep::Axis::kParent: {
      Result<StoredNode> parent = store->Parent(context);
      if (!parent.ok()) {
        if (parent.status().IsNotFound()) {
          return std::vector<StoredNode>{};
        }
        return parent.status();
      }
      std::vector<StoredNode> out;
      if (step.test.Matches(parent->kind, parent->tag)) {
        out.push_back(std::move(*parent));
      }
      return out;
    }
    case XPathStep::Axis::kAncestor: {
      std::vector<StoredNode> out;
      StoredNode cur = context;
      while (true) {
        Result<StoredNode> parent = store->Parent(cur);
        if (!parent.ok()) {
          if (parent.status().IsNotFound()) break;
          return parent.status();
        }
        cur = std::move(*parent);
        if (step.test.Matches(cur.kind, cur.tag)) out.push_back(cur);
      }
      // Walked leaf-to-root; results are conventionally in document order.
      std::reverse(out.begin(), out.end());
      return out;
    }
  }
  return Status::Internal("bad axis");
}

}  // namespace

Result<std::vector<StoredNode>> EvaluateXPath(OrderedXmlStore* store,
                                              const XPathQuery& query) {
  if (query.steps.empty()) {
    return Status::InvalidArgument("empty XPath query");
  }

  // Seed the context with the first step evaluated from the document node.
  OXML_ASSIGN_OR_RETURN(StoredNode root, store->Root());
  std::vector<StoredNode> context;
  {
    const XPathStep& first = query.steps[0];
    std::vector<StoredNode> candidates;
    if (first.axis == XPathStep::Axis::kChild) {
      if (first.test.Matches(root.kind, root.tag)) candidates.push_back(root);
    } else if (first.axis == XPathStep::Axis::kDescendant) {
      if (first.test.Matches(root.kind, root.tag)) candidates.push_back(root);
      OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> desc,
                            store->Descendants(root, first.test));
      for (StoredNode& d : desc) candidates.push_back(std::move(d));
    } else {
      return Status::InvalidArgument(
          "the first step must use the child or descendant axis");
    }
    OXML_ASSIGN_OR_RETURN(
        context,
        ApplyPredicates(store, first.predicates, std::move(candidates)));
  }

  for (size_t s = 1; s < query.steps.size() && !context.empty(); ++s) {
    const XPathStep& step = query.steps[s];
    std::vector<StoredNode> next;
    std::unordered_set<std::string> seen;
    bool multi_context = context.size() > 1;
    for (const StoredNode& node : context) {
      OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> candidates,
                            ExpandAxis(store, node, step));
      OXML_ASSIGN_OR_RETURN(
          candidates,
          ApplyPredicates(store, step.predicates, std::move(candidates)));
      for (StoredNode& c : candidates) {
        std::string id = NodeIdentity(store->encoding(), c);
        if (seen.insert(std::move(id)).second) {
          next.push_back(std::move(c));
        }
      }
    }
    // Results of different contexts can interleave whenever contexts can
    // nest (e.g. //a//b, or a child step below //a where one match is an
    // ancestor of another): restore document order when more than one
    // context contributed. This is where the Local encoding pays for
    // lacking a cheap document-order key.
    if (multi_context && !next.empty()) {
      OXML_RETURN_NOT_OK(store->SortDocumentOrder(&next));
    }
    context = std::move(next);
  }
  return context;
}

Result<std::vector<StoredNode>> EvaluateXPath(OrderedXmlStore* store,
                                              std::string_view xpath) {
  OXML_ASSIGN_OR_RETURN(XPathQuery query, ParseXPath(xpath));
  return EvaluateXPath(store, query);
}

Result<std::vector<std::string>> EvaluateXPathStrings(
    OrderedXmlStore* store, std::string_view xpath) {
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> nodes,
                        EvaluateXPath(store, xpath));
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const StoredNode& n : nodes) {
    OXML_ASSIGN_OR_RETURN(std::string v, store->StringValue(n));
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace oxml
