// The six txconc-lint rules. Each rule is a pure function over the
// corpus; suppression filtering happens in the driver (lint.cpp) so the
// rules stay oblivious to it.
#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "lint.h"

namespace txconc::lint {
namespace {

bool is_punct(const Token& t, const char* s) {
  return t.kind == TokKind::kPunct && t.text == s;
}
bool is_ident(const Token& t) { return t.kind == TokKind::kIdent; }

/// Comment text on `line` or up to `above` lines before it, or "".
std::string comment_near(const LexedFile& lx, int line, int above) {
  std::string joined;
  for (int l = line; l >= line - above && l >= 1; --l) {
    auto it = lx.comments.find(l);
    if (it != lx.comments.end()) {
      joined += it->second;
      joined += ' ';
    }
  }
  return joined;
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Class a member function belongs to: innermost enclosing class for
/// inline definitions, or the scope before the function name for
/// out-of-line `Foo::bar` definitions.
std::string owner_of(const FunctionDef& fn) {
  if (!fn.enclosing_class.empty()) return fn.enclosing_class;
  const std::size_t pos = fn.qualified.rfind("::");
  if (pos == std::string::npos) return std::string();
  const std::string scope = fn.qualified.substr(0, pos);
  const std::size_t prev = scope.rfind("::");
  return prev == std::string::npos ? scope : scope.substr(prev + 2);
}

/// Token index of a call's argument-list '(' (follows the name chain and
/// optional template arguments), or 0 when not found.
std::size_t call_paren(const std::vector<Token>& toks, std::size_t name_tok) {
  std::size_t k = name_tok + 1;
  while (is_punct(toks[k], "::") && is_ident(toks[k + 1])) k += 2;
  if (is_punct(toks[k], "<")) {
    int depth = 0;
    for (std::size_t j = k, limit = 64; toks[j].kind != TokKind::kEnd && limit;
         --limit) {
      if (is_punct(toks[j], "<")) ++depth, ++j;
      else if (is_punct(toks[j], ">")) {
        if (--depth == 0) { k = j + 1; break; }
        ++j;
      } else if (is_punct(toks[j], ">>")) {
        depth -= 2;
        if (depth <= 0) { k = j + 1; break; }
        ++j;
      } else if (is_punct(toks[j], ";") || is_punct(toks[j], "{")) {
        break;
      } else {
        ++j;
      }
    }
  }
  return is_punct(toks[k], "(") ? k : 0;
}

std::string last_component(const std::string& expr) {
  std::size_t pos = expr.find_last_of(".>");
  return pos == std::string::npos ? expr : expr.substr(pos + 1);
}

// ---------------------------------------------------------------------------
// Rule 1: hot-path-alloc
// ---------------------------------------------------------------------------

const std::unordered_set<std::string>& alloc_containers() {
  static const std::unordered_set<std::string> s = {
      "vector", "string",  "wstring",       "basic_string", "unordered_map",
      "unordered_set", "map", "set",        "multimap",     "multiset",
      "deque",  "list",    "forward_list",  "function",     "stringstream",
      "ostringstream", "istringstream",     "queue",        "stack",
      "priority_queue",
  };
  return s;
}

const std::unordered_set<std::string>& alloc_calls() {
  static const std::unordered_set<std::string> s = {
      "make_unique", "make_shared", "malloc", "calloc",
      "realloc",     "strdup",      "to_string", "aligned_alloc",
  };
  return s;
}

struct AllocEvidence {
  int line = 0;
  std::string what;
};

/// Direct allocation evidence inside fn's body: `new` expressions,
/// by-value std:: container constructions, and denylisted calls.
/// throw-expressions are assumed cold and skipped.
std::vector<AllocEvidence> direct_allocs(const FileModel& fm,
                                         const FunctionDef& fn) {
  const std::vector<Token>& toks = fm.lx.tokens;
  std::vector<AllocEvidence> out;
  bool in_throw = false;
  for (std::size_t j = fn.body_begin + 1; j < fn.body_end; ++j) {
    const Token& t = toks[j];
    if (t.kind == TokKind::kPunct &&
        (t.text == ";" || t.text == "{" || t.text == "}")) {
      in_throw = false;
      continue;
    }
    if (!is_ident(t)) continue;
    if (t.text == "throw") {
      in_throw = true;
      continue;
    }
    if (in_throw) continue;
    if (t.text == "new") {
      if (is_punct(toks[j + 1], "(")) continue;  // placement new
      out.push_back({t.line, "operator new ('new' expression)"});
      continue;
    }
    if (t.text == "std" && is_punct(toks[j + 1], "::") &&
        is_ident(toks[j + 2]) && alloc_containers().count(toks[j + 2].text)) {
      std::size_t k = j + 3;
      if (is_punct(toks[k], "<")) {
        int depth = 0;
        std::size_t guard = 96;
        while (toks[k].kind != TokKind::kEnd && guard--) {
          if (is_punct(toks[k], "<")) ++depth;
          else if (is_punct(toks[k], ">")) { if (--depth == 0) { ++k; break; } }
          else if (is_punct(toks[k], ">>")) { depth -= 2; if (depth <= 0) { ++k; break; } }
          else if (is_punct(toks[k], ";")) break;
          ++k;
        }
      }
      // &/*: reference or pointer declaration; '::' static member; '>' ','
      // ')': nested template argument — none of those construct a value.
      if (is_ident(toks[k]) || is_punct(toks[k], "(") || is_punct(toks[k], "{")) {
        out.push_back(
            {toks[j + 2].line,
             "by-value std::" + toks[j + 2].text + " construction"});
      }
      j = k - 1;
      continue;
    }
  }
  for (const CallSite& cs : collect_calls(fm, fn)) {
    if (cs.in_throw) continue;
    if (!cs.member && alloc_calls().count(cs.name) != 0) {
      out.push_back({cs.line, "call to allocating '" + cs.qualified + "'"});
    }
  }
  return out;
}

void rule_hot_path_alloc(const Corpus& corpus, std::vector<Finding>& out) {
  // Hot set: definitions annotated in place plus names hot-annotated on a
  // (header) declaration, which marks every same-name definition hot.
  std::unordered_set<std::string> hot_names;
  for (const FileModel& fm : corpus) {
    for (const std::string& n : fm.hot_decls) hot_names.insert(n);
  }
  struct Info {
    const FileModel* fm;
    const FunctionDef* fn;
    bool hot;
    bool allocates;
    std::vector<CallSite> calls;
  };
  std::vector<Info> fns;
  std::unordered_map<std::string, std::vector<std::size_t>> by_name;
  for (const FileModel& fm : corpus) {
    for (const FunctionDef& fn : fm.functions) {
      Info info;
      info.fm = &fm;
      info.fn = &fn;
      info.hot = fn.hot || hot_names.count(fn.name) != 0;
      info.allocates = !direct_allocs(fm, fn).empty();
      info.calls = collect_calls(fm, fn);
      by_name[fn.name].push_back(fns.size());
      fns.push_back(std::move(info));
    }
  }
  // Fixed point: a function allocates if it (transitively) calls only-
  // allocating candidates. Ambiguous names use AND over candidates so an
  // unrelated same-name non-allocating overload keeps the closure tight.
  // Zero-arg member begin()/end() and friends are iterator accessors, not
  // calls to a same-named free/member function elsewhere in the corpus
  // (e.g. chain.end() must never resolve to Tracer::end).
  static const std::unordered_set<std::string> kIterAccessors = {
      "begin", "end", "rbegin", "rend", "cbegin", "cend"};
  auto callee_all_allocate = [&](const CallSite& cs, bool* any_hot) -> bool {
    if (cs.qualified.rfind("std::", 0) == 0) return false;
    if (cs.member && cs.zero_args && kIterAccessors.count(cs.name) != 0) {
      return false;
    }
    auto it = by_name.find(cs.name);
    if (it == by_name.end() || it->second.empty()) return false;
    bool all = true;
    for (std::size_t idx : it->second) {
      if (!fns[idx].allocates) all = false;
      if (fns[idx].hot && any_hot != nullptr) *any_hot = true;
    }
    return all;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (Info& info : fns) {
      if (info.allocates) continue;
      for (const CallSite& cs : info.calls) {
        if (cs.in_throw) continue;
        if (callee_all_allocate(cs, nullptr)) {
          info.allocates = true;
          changed = true;
          break;
        }
      }
    }
  }
  for (const Info& info : fns) {
    if (!info.hot) continue;
    for (const AllocEvidence& ev : direct_allocs(*info.fm, *info.fn)) {
      out.push_back({"hot-path-alloc", info.fm->lx.path, ev.line,
                     "TXCONC_HOT function '" + info.fn->qualified +
                         "' allocates: " + ev.what});
    }
    for (const CallSite& cs : info.calls) {
      if (cs.in_throw) continue;
      bool any_hot = false;
      if (callee_all_allocate(cs, &any_hot) && !any_hot) {
        // A hot allocating callee is reported at its own definition.
        out.push_back({"hot-path-alloc", info.fm->lx.path, cs.line,
                       "TXCONC_HOT function '" + info.fn->qualified +
                           "' calls allocating non-hot function '" + cs.name +
                           "'"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 2: atomics-discipline
// ---------------------------------------------------------------------------

/// "relaxed", "acquire", ... for a memory_order spelling at toks[j]
/// (either memory_order_X or memory_order::X), or "" if not one.
std::string order_at(const std::vector<Token>& toks, std::size_t j,
                     std::size_t* width) {
  const Token& t = toks[j];
  if (!is_ident(t)) return "";
  static const char* kPrefix = "memory_order_";
  if (t.text.rfind(kPrefix, 0) == 0) {
    if (width != nullptr) *width = 1;
    return t.text.substr(13);
  }
  if (t.text == "memory_order" && is_punct(toks[j + 1], "::") &&
      is_ident(toks[j + 2])) {
    if (width != nullptr) *width = 3;
    return toks[j + 2].text;
  }
  return "";
}

void rule_atomics_discipline(const Corpus& corpus, std::vector<Finding>& out) {
  // Part A: every non-seq_cst order carries an `// ordering:` comment on
  // its line or within the two lines above.
  for (const FileModel& fm : corpus) {
    const std::vector<Token>& toks = fm.lx.tokens;
    for (std::size_t j = 0; toks[j].kind != TokKind::kEnd; ++j) {
      std::size_t width = 0;
      const std::string ord = order_at(toks, j, &width);
      if (ord.empty()) continue;
      if (ord != "seq_cst" &&
          !contains(comment_near(fm.lx, toks[j].line, 2), "ordering:")) {
        out.push_back({"atomics-discipline", fm.lx.path, toks[j].line,
                       "memory_order_" + ord +
                           " without an '// ordering:' justification comment"});
      }
      j += width - 1;
    }
  }
  // Part B: a release store to member X must have an acquire-side load of
  // X somewhere in the corpus, else the publication never synchronizes.
  struct Site {
    const FileModel* fm;
    int line;
    std::string member;
  };
  std::vector<Site> release_stores;
  std::set<std::string> acquire_side;
  static const std::unordered_set<std::string> kRmw = {
      "fetch_add", "fetch_sub", "fetch_and", "fetch_or",
      "fetch_xor", "exchange"};
  for (const FileModel& fm : corpus) {
    const std::vector<Token>& toks = fm.lx.tokens;
    for (const FunctionDef& fn : fm.functions) {
      for (const CallSite& cs : collect_calls(fm, fn)) {
        if (!cs.member) continue;
        const bool is_store = cs.name == "store";
        const bool is_load = cs.name == "load";
        const bool is_rmw = kRmw.count(cs.name) != 0;
        const bool is_cas = cs.name == "compare_exchange_weak" ||
                            cs.name == "compare_exchange_strong";
        const bool is_wait = cs.name == "wait";
        if (!is_store && !is_load && !is_rmw && !is_cas && !is_wait) continue;
        const std::string member = last_component(cs.receiver);
        if (member.empty()) continue;
        std::vector<std::string> orders;
        const std::size_t open = call_paren(toks, cs.tok);
        if (open != 0) {
          const std::size_t close = find_matching(toks, open);
          for (std::size_t j = open; j < close; ++j) {
            const std::string o = order_at(toks, j, nullptr);
            if (!o.empty()) orders.push_back(o);
          }
        }
        auto has = [&orders](const char* o) {
          return std::find(orders.begin(), orders.end(), o) != orders.end();
        };
        if (is_store && (has("release") || has("acq_rel"))) {
          release_stores.push_back({&fm, cs.line, member});
        }
        const bool acq_orders =
            has("acquire") || has("acq_rel") || has("seq_cst") || orders.empty();
        if ((is_load && acq_orders) || (is_rmw && acq_orders) || is_cas ||
            is_wait) {
          acquire_side.insert(member);
        }
      }
    }
  }
  for (const Site& s : release_stores) {
    if (acquire_side.count(s.member) == 0) {
      out.push_back(
          {"atomics-discipline", s.fm->lx.path, s.line,
           "release store to '" + s.member +
               "' has no acquire-side load of the same member anywhere in "
               "the analyzed set (lone-release publication)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 3: lock-order
// ---------------------------------------------------------------------------

struct Acq {
  std::string node;
  int line = 0;
};

const std::unordered_set<std::string>& raii_lock_types() {
  static const std::unordered_set<std::string> s = {
      "MutexLock", "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
  return s;
}

/// Lock nodes: a bare `foo_` member names `Owner::foo_`; anything else
/// (slot.mu, other.mu_) keeps its spelled expression text.
std::string lock_node(const std::vector<Token>& toks, std::size_t arg_begin,
                      std::size_t arg_end, const FunctionDef& fn) {
  std::string text;
  for (std::size_t j = arg_begin; j < arg_end; ++j) text += toks[j].text;
  if (arg_end == arg_begin + 1 && is_ident(toks[arg_begin]) &&
      !text.empty() && text.back() == '_') {
    const std::string owner = owner_of(fn);
    if (!owner.empty()) return owner + "::" + text;
  }
  return text;
}

/// RAII acquisitions in fn's body, each with the brace depth it lives at
/// (depth 0 = function scope) so nesting can be reconstructed linearly.
struct ScopedAcq {
  Acq acq;
  int depth = 0;
  std::size_t tok = 0;
};

std::vector<ScopedAcq> acquisitions(const FileModel& fm,
                                    const FunctionDef& fn) {
  const std::vector<Token>& toks = fm.lx.tokens;
  std::vector<ScopedAcq> out;
  int depth = 0;
  for (std::size_t j = fn.body_begin + 1; j < fn.body_end; ++j) {
    const Token& t = toks[j];
    if (is_punct(t, "{")) { ++depth; continue; }
    if (is_punct(t, "}")) { --depth; continue; }
    if (!is_ident(t) || raii_lock_types().count(t.text) == 0) continue;
    std::size_t k = j + 1;
    if (is_punct(toks[k], "<")) {  // lock_guard<std::mutex>
      int ad = 0;
      std::size_t guard = 64;
      while (toks[k].kind != TokKind::kEnd && guard--) {
        if (is_punct(toks[k], "<")) ++ad;
        else if (is_punct(toks[k], ">")) { if (--ad == 0) { ++k; break; } }
        else if (is_punct(toks[k], ">>")) { ad -= 2; if (ad <= 0) { ++k; break; } }
        else if (is_punct(toks[k], ";")) break;
        ++k;
      }
    }
    if (!is_ident(toks[k])) continue;  // not `Type name(...)`: maybe a cast
    ++k;
    if (!is_punct(toks[k], "(")) continue;
    const std::size_t close = find_matching(toks, k);
    // Split top-level args; bail on adopt/defer/try tags (CondVar::wait
    // re-wraps an already-held mutex with std::adopt_lock).
    std::vector<std::pair<std::size_t, std::size_t>> args;
    std::size_t begin = k + 1;
    int pd = 0;
    bool tagged = false;
    for (std::size_t a = k + 1; a <= close; ++a) {
      if (is_ident(toks[a]) &&
          (toks[a].text == "adopt_lock" || toks[a].text == "defer_lock" ||
           toks[a].text == "try_to_lock")) {
        tagged = true;
      }
      if (is_punct(toks[a], "(")) ++pd;
      else if (is_punct(toks[a], ")")) {
        if (pd == 0) { if (a > begin) args.push_back({begin, a}); break; }
        --pd;
      } else if (is_punct(toks[a], ",") && pd == 0) {
        args.push_back({begin, a});
        begin = a + 1;
      }
    }
    if (!tagged) {
      for (const auto& [b, e] : args) {
        out.push_back({{lock_node(toks, b, e, fn), t.line}, depth, j});
      }
    }
    j = close;
  }
  return out;
}

void rule_lock_order(const Corpus& corpus, std::vector<Finding>& out) {
  struct Edge {
    std::string path;
    int line;
  };
  std::map<std::pair<std::string, std::string>, Edge> edges;
  std::unordered_map<std::string, std::vector<const FunctionDef*>> defs_by_name;
  std::unordered_map<const FunctionDef*, const FileModel*> file_of;
  for (const FileModel& fm : corpus) {
    for (const FunctionDef& fn : fm.functions) {
      defs_by_name[fn.name].push_back(&fn);
      file_of[&fn] = &fm;
    }
  }
  auto add_edge = [&edges](const std::string& a, const std::string& b,
                           const std::string& path, int line) {
    edges.emplace(std::make_pair(a, b), Edge{path, line});
  };
  for (const FileModel& fm : corpus) {
    for (const FunctionDef& fn : fm.functions) {
      const std::vector<ScopedAcq> acqs = acquisitions(fm, fn);
      // Intra-procedural: an acquisition adds edges from every lock still
      // held at its point (earlier acquisition at depth <= — still in
      // scope — or same/greater depth earlier in the same statement run).
      for (std::size_t i = 0; i < acqs.size(); ++i) {
        for (std::size_t h = 0; h < i; ++h) {
          // acqs[h] is still held at acqs[i] iff no '}' closed its scope
          // in between; approximate: held iff its depth <= acqs[i].depth
          // and no token between them closes down to below acqs[h].depth.
          int d = acqs[h].depth;
          bool held = true;
          const std::vector<Token>& toks = fm.lx.tokens;
          for (std::size_t j = acqs[h].tok; j < acqs[i].tok; ++j) {
            if (is_punct(toks[j], "{")) ++d;
            else if (is_punct(toks[j], "}") && --d < acqs[h].depth) {
              held = false;
              break;
            }
          }
          if (held) {
            add_edge(acqs[h].acq.node, acqs[i].acq.node, fm.lx.path,
                     acqs[i].acq.line);
          }
        }
      }
      // One-level interprocedural: calls made while holding a lock pull
      // in the callee's own acquisitions (unique-name resolution only).
      if (acqs.empty()) continue;
      for (const CallSite& cs : collect_calls(fm, fn)) {
        if (is_cpp_keyword(cs.name) ||
            raii_lock_types().count(cs.name) != 0 ||
            cs.qualified.rfind("std::", 0) == 0) {
          continue;
        }
        auto it = defs_by_name.find(cs.name);
        if (it == defs_by_name.end() || it->second.size() != 1) continue;
        const FunctionDef* callee = it->second.front();
        const FileModel* callee_fm = file_of[callee];
        for (const ScopedAcq& sub : acquisitions(*callee_fm, *callee)) {
          for (const ScopedAcq& held : acqs) {
            if (held.tok < cs.tok) {
              int d = held.depth;
              bool still = true;
              const std::vector<Token>& toks = fm.lx.tokens;
              for (std::size_t j = held.tok; j < cs.tok; ++j) {
                if (is_punct(toks[j], "{")) ++d;
                else if (is_punct(toks[j], "}") && --d < held.depth) {
                  still = false;
                  break;
                }
              }
              if (still) {
                add_edge(held.acq.node, sub.acq.node, fm.lx.path, cs.line);
              }
            }
          }
        }
      }
    }
  }
  // Cycle detection over the edge set (self-edges are self-deadlocks).
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [e, ev] : edges) {
    if (e.first == e.second) {
      out.push_back({"lock-order", ev.path, ev.line,
                     "lock '" + e.first +
                         "' is re-acquired while already held (self-deadlock)"});
      continue;
    }
    adj[e.first].push_back(e.second);
  }
  std::set<std::string> reported;
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::function<void(const std::string&)> dfs = [&](const std::string& u) {
    color[u] = 1;
    stack.push_back(u);
    for (const std::string& v : adj[u]) {
      if (color[v] == 1) {
        auto it = std::find(stack.begin(), stack.end(), v);
        std::vector<std::string> cyc(it, stack.end());
        std::vector<std::string> key = cyc;
        std::sort(key.begin(), key.end());
        std::string kstr;
        for (const std::string& n : key) kstr += n + "|";
        if (reported.insert(kstr).second) {
          std::string path_txt;
          for (const std::string& n : cyc) path_txt += n + " -> ";
          path_txt += v;
          const auto ev = edges.find({stack.back(), v});
          out.push_back({"lock-order",
                         ev != edges.end() ? ev->second.path : "<graph>",
                         ev != edges.end() ? ev->second.line : 0,
                         "lock acquisition cycle: " + path_txt});
        }
      } else if (color[v] == 0) {
        dfs(v);
      }
    }
    stack.pop_back();
    color[u] = 2;
  };
  for (const auto& [node, _] : adj) {
    if (color[node] == 0) dfs(node);
  }
}

// ---------------------------------------------------------------------------
// Rule 4: tsa-escape-justified
// ---------------------------------------------------------------------------

void rule_tsa_escape(const Corpus& corpus, std::vector<Finding>& out) {
  for (const FileModel& fm : corpus) {
    const std::vector<Token>& toks = fm.lx.tokens;
    for (std::size_t j = 0; toks[j].kind != TokKind::kEnd; ++j) {
      if (!is_ident(toks[j]) || toks[j].text != "NO_THREAD_SAFETY_ANALYSIS") {
        continue;
      }
      if (!contains(comment_near(fm.lx, toks[j].line, 3), "tsa:")) {
        out.push_back(
            {"tsa-escape-justified", fm.lx.path, toks[j].line,
             "NO_THREAD_SAFETY_ANALYSIS without an adjacent '// tsa:' "
             "justification comment"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 5: span-pairing
// ---------------------------------------------------------------------------

void rule_span_pairing(const Corpus& corpus, std::vector<Finding>& out) {
  static const std::unordered_set<std::string> kAlwaysRaw = {
      "begin_causal", "flow_start", "flow_bind"};
  static const std::unordered_set<std::string> kRawWithTracer = {
      "begin", "end", "instant"};
  for (const FileModel& fm : corpus) {
    // The Tracer implementation itself is the one legitimate caller.
    const std::string& p = fm.lx.path;
    if (p.size() >= 13 && p.compare(p.size() - 13, 13, "obs/trace.cpp") == 0) {
      continue;
    }
    for (const FunctionDef& fn : fm.functions) {
      // The RAII wrappers (CausalSpan / SpanGuard and friends) are the
      // sanctioned call sites wherever they are defined.
      const std::string owner = owner_of(fn);
      if (owner.find("Span") != std::string::npos) continue;
      for (const CallSite& cs : collect_calls(fm, fn)) {
        if (!cs.member) continue;
        const bool always = kAlwaysRaw.count(cs.name) != 0;
        const bool tracer_recv =
            kRawWithTracer.count(cs.name) != 0 && !cs.zero_args &&
            contains(lower(cs.receiver), "tracer");
        if (always || tracer_recv) {
          out.push_back(
              {"span-pairing", fm.lx.path, cs.line,
               "raw Tracer emission '" + cs.name +
                   "' outside the RAII span helpers (use TXCONC_SPAN / "
                   "CausalSpan so begin/end stay paired)"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 6: suppression (meta-rule: suppressions must be well-formed)
// ---------------------------------------------------------------------------

bool known_rule(const std::string& name) {
  for (const RuleInfo& r : all_rules()) {
    if (name == r.name) return true;
  }
  return false;
}

void rule_suppression(const Corpus& corpus, std::vector<Finding>& out) {
  for (const FileModel& fm : corpus) {
    for (const auto& [line, text] : fm.lx.comments) {
      std::size_t pos = text.find("txconc-lint:");
      if (pos == std::string::npos) continue;
      const std::string rest = text.substr(pos + 12);
      const std::size_t a = rest.find("allow(");
      if (a == std::string::npos) {
        out.push_back({"suppression", fm.lx.path, line,
                       "malformed txconc-lint comment (expected "
                       "'txconc-lint: allow(<rule>) — <reason>')"});
        continue;
      }
      const std::size_t close = rest.find(')', a);
      if (close == std::string::npos) {
        out.push_back({"suppression", fm.lx.path, line,
                       "unterminated allow(...) in txconc-lint comment"});
        continue;
      }
      std::string rule = rest.substr(a + 6, close - a - 6);
      rule.erase(0, rule.find_first_not_of(" \t"));
      rule.erase(rule.find_last_not_of(" \t") + 1);
      if (!known_rule(rule)) {
        out.push_back({"suppression", fm.lx.path, line,
                       "allow(" + rule + ") names an unknown rule"});
        continue;
      }
      // A reason is required: non-separator text after the ')'.
      std::string reason = rest.substr(close + 1);
      const std::size_t first = reason.find_first_not_of(" \t-:\xE2\x80\x94");
      if (first == std::string::npos) {
        out.push_back({"suppression", fm.lx.path, line,
                       "allow(" + rule +
                           ") without a reason (append '— <why this is "
                           "safe>')"});
      }
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& all_rules() {
  static const std::vector<RuleInfo> rules = {
      {"hot-path-alloc",
       "TXCONC_HOT functions must not allocate or call allocating non-hot "
       "functions",
       rule_hot_path_alloc},
      {"atomics-discipline",
       "non-seq_cst memory orders need '// ordering:' justifications; "
       "release stores need a matching acquire side",
       rule_atomics_discipline},
      {"lock-order",
       "the static MutexLock acquisition graph must be acyclic",
       rule_lock_order},
      {"tsa-escape-justified",
       "NO_THREAD_SAFETY_ANALYSIS sites need an adjacent '// tsa:' "
       "justification",
       rule_tsa_escape},
      {"span-pairing",
       "raw Tracer begin/end emissions are forbidden outside the RAII span "
       "helpers",
       rule_span_pairing},
      {"suppression",
       "txconc-lint suppression comments must be well-formed, name a real "
       "rule, and give a reason",
       rule_suppression},
  };
  return rules;
}

}  // namespace txconc::lint
